//! Instruction set of the virtual bytecode.
//!
//! The bytecode is register-based (unbounded virtual registers) and typed.
//! Control flow is explicit: every basic block ends with exactly one
//! terminator ([`Inst::is_terminator`]).
//!
//! The *portable vector builtins* of the paper (Section 4, Table 1) appear as
//! the `Vec*` instructions: they operate on vectors whose lane count is left
//! to the online compiler ([`Inst::VecWidth`] materializes that lane count as
//! a runtime/JIT-time constant).
//!
//! The *shape* of every instruction — its tag in the deployment encoding, the
//! order of its fields there, which fields are registers, which one is the
//! definition — is stated once, by the `inst_shapes!` table below the enum:
//! [`Inst::dst`], [`Inst::for_each_use`], [`Inst::rewrite_regs`] and the
//! instruction codec of [`encode`](crate::encode) are generated from its
//! rows. Successors are stated by [`Inst::successors`]. The walks visit in
//! place — the load-time verifier and the offline analyses walk every
//! instruction of a module, and none of them needs an owned list
//! ([`Inst::uses`] remains for the callers that do).

use crate::types::ScalarType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual register index, unique within one [`Function`](crate::Function).
///
/// # Examples
///
/// ```
/// use splitc_vbc::VReg;
/// let r = VReg(3);
/// assert_eq!(r.index(), 3);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VReg(pub u32);

impl VReg {
    /// The register number as a `usize`, for indexing side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block index, unique within one [`Function`](crate::Function).
///
/// # Examples
///
/// ```
/// use splitc_vbc::BlockId;
/// assert_eq!(BlockId(0).index(), 0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block number as a `usize`, for indexing side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A compile-time immediate operand.
///
/// Integer immediates are stored as `i64` and re-normalized to the
/// instruction's scalar type when executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Immediate {
    /// Integer (or pointer) immediate.
    Int(i64),
    /// Floating-point immediate.
    Float(f64),
}

impl Immediate {
    /// The integer payload, converting floats by truncation.
    pub fn as_i64(self) -> i64 {
        match self {
            Immediate::Int(v) => v,
            Immediate::Float(v) => v as i64,
        }
    }

    /// The float payload, converting integers exactly where possible.
    pub fn as_f64(self) -> f64 {
        match self {
            Immediate::Int(v) => v as f64,
            Immediate::Float(v) => v,
        }
    }
}

impl fmt::Display for Immediate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Immediate::Int(v) => write!(f, "{v}"),
            Immediate::Float(v) => write!(f, "{v:?}"),
        }
    }
}

/// Two-operand arithmetic and logic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Division (signedness-aware; float division for float types).
    Div,
    /// Remainder (integers only).
    Rem,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Left shift (integers only).
    ///
    /// The shift count is masked modulo 64 — the width of the evaluation
    /// register, *not* the width of the operand type — so counts of 64, 65 or
    /// −1 behave as 0, 1 and 63 respectively, on every execution path
    /// (interpreter, legacy simulator walk, pre-decoded execution, constant
    /// folding). The shifted value is then normalized to the operand type:
    /// `(i32) 1 << 33` is 0 (the bit leaves the 64-bit register's low 32
    /// bits), never 2. A count is never a trap.
    Shl,
    /// Right shift (arithmetic for signed, logical for unsigned).
    ///
    /// The count is masked modulo 64 exactly like [`BinOp::Shl`]; the operand
    /// is sign- or zero-extended to 64 bits per its type before shifting, so
    /// an arithmetic shift of a narrow negative value keeps filling with sign
    /// bits for counts past the operand width.
    Shr,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
}

impl BinOp {
    /// All binary operators, for exhaustive testing.
    pub const ALL: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];

    /// `true` if the operation is only defined on integer types.
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }

    /// Lowercase mnemonic for the textual listing.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not (integers only).
    Not,
}

impl UnOp {
    /// Lowercase mnemonic for the textual listing.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Comparison predicates. The result is an `i32` holding `0` or `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// All comparison predicates, for exhaustive testing.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// The predicate with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Lowercase mnemonic for the textual listing.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Horizontal (across-lane) reduction operators for [`Inst::VecReduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceOp {
    /// Sum of all lanes.
    Add,
    /// Minimum of all lanes.
    Min,
    /// Maximum of all lanes.
    Max,
}

impl ReduceOp {
    /// The equivalent element-wise binary operator.
    pub fn as_bin_op(self) -> BinOp {
        match self {
            ReduceOp::Add => BinOp::Add,
            ReduceOp::Min => BinOp::Min,
            ReduceOp::Max => BinOp::Max,
        }
    }

    /// Lowercase mnemonic for the textual listing.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ReduceOp::Add => "add",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A single bytecode instruction.
///
/// All operands are virtual registers; constants enter the program through
/// [`Inst::Const`]. Memory addresses are byte offsets held in `ptr`-typed
/// registers, optionally displaced by a static `offset`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = imm` — materialize a constant of scalar type `ty`.
    Const {
        /// Destination register.
        dst: VReg,
        /// Type of the constant.
        ty: ScalarType,
        /// The immediate value.
        imm: Immediate,
    },
    /// `dst = src` — register copy.
    Move {
        /// Destination register.
        dst: VReg,
        /// Value type being copied.
        ty: ScalarType,
        /// Source register.
        src: VReg,
    },
    /// `dst = lhs <op> rhs` on scalars of type `ty`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand/result scalar type.
        ty: ScalarType,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = <op> src` on a scalar of type `ty`.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand/result scalar type.
        ty: ScalarType,
        /// Destination register.
        dst: VReg,
        /// Source operand.
        src: VReg,
    },
    /// `dst = (lhs <pred> rhs) ? 1 : 0`; `dst` is `i32`.
    Cmp {
        /// Predicate.
        op: CmpOp,
        /// Type of the compared operands.
        ty: ScalarType,
        /// Destination register (`i32`, 0 or 1).
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// `dst = cast<to>(src)` — numeric conversion from `from` to `to`.
    Cast {
        /// Destination register.
        dst: VReg,
        /// Target type.
        to: ScalarType,
        /// Source register.
        src: VReg,
        /// Source type.
        from: ScalarType,
    },
    /// `dst = *(ty*)(addr + offset)` — scalar load from linear memory.
    Load {
        /// Destination register.
        dst: VReg,
        /// Loaded scalar type.
        ty: ScalarType,
        /// Base address register (`ptr`).
        addr: VReg,
        /// Static byte displacement.
        offset: i64,
    },
    /// `*(ty*)(addr + offset) = value` — scalar store to linear memory.
    Store {
        /// Stored scalar type.
        ty: ScalarType,
        /// Base address register (`ptr`).
        addr: VReg,
        /// Static byte displacement.
        offset: i64,
        /// Value register.
        value: VReg,
    },
    /// Direct call to a function in the same module.
    Call {
        /// Destination for the return value, if the callee returns one.
        dst: Option<VReg>,
        /// The callee's name and the argument registers, boxed: the only
        /// owned payload of any variant stays out of the other seventeen's
        /// size.
        site: Box<CallSite>,
    },
    /// `dst = <number of lanes of `elem` in one target vector register>`.
    ///
    /// This is the *portable* part of the vector builtins: the offline
    /// compiler emits loops stepping by this value, and the online compiler
    /// folds it to a constant (or to the scalarization factor when the
    /// target has no SIMD unit). `dst` is `i64`.
    VecWidth {
        /// Destination register (`i64` lane count).
        dst: VReg,
        /// Element type the lane count refers to.
        elem: ScalarType,
    },
    /// `dst = splat(src)` — broadcast a scalar into every lane.
    VecSplat {
        /// Destination vector register.
        dst: VReg,
        /// Lane type.
        elem: ScalarType,
        /// Scalar source register.
        src: VReg,
    },
    /// `dst = vload(addr + offset)` — contiguous vector load.
    VecLoad {
        /// Destination vector register.
        dst: VReg,
        /// Lane type.
        elem: ScalarType,
        /// Base address register (`ptr`).
        addr: VReg,
        /// Static byte displacement.
        offset: i64,
    },
    /// `vstore(addr + offset, value)` — contiguous vector store.
    VecStore {
        /// Lane type.
        elem: ScalarType,
        /// Base address register (`ptr`).
        addr: VReg,
        /// Static byte displacement.
        offset: i64,
        /// Vector value register.
        value: VReg,
    },
    /// Element-wise `dst = lhs <op> rhs` on vectors.
    VecBin {
        /// Element-wise operator.
        op: BinOp,
        /// Lane type.
        elem: ScalarType,
        /// Destination vector register.
        dst: VReg,
        /// Left vector operand.
        lhs: VReg,
        /// Right vector operand.
        rhs: VReg,
    },
    /// Horizontal reduction of all lanes of `src` into scalar `dst`.
    VecReduce {
        /// Reduction operator.
        op: ReduceOp,
        /// Lane type.
        elem: ScalarType,
        /// Scalar destination register.
        dst: VReg,
        /// Vector source register.
        src: VReg,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on `cond != 0`.
    Branch {
        /// Condition register (`i32`).
        cond: VReg,
        /// Target when non-zero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Returned value, if the function returns one.
        value: Option<VReg>,
    },
}

/// The callee and the arguments of an [`Inst::Call`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallSite {
    /// Callee name.
    pub callee: String,
    /// Argument registers, in order.
    pub args: Vec<VReg>,
}

impl Inst {
    /// `dst = callee(args)`: an [`Inst::Call`] with its site boxed.
    pub fn call(dst: Option<VReg>, callee: impl Into<String>, args: Vec<VReg>) -> Inst {
        Inst::Call {
            dst,
            site: Box::new(CallSite {
                callee: callee.into(),
                args,
            }),
        }
    }
}

/// The shape of every [`Inst`] variant, stated once: `inst_shapes!(cb)`
/// expands to `cb! { rows }`, one row per variant, and the walks below and the
/// instruction codec in `encode.rs` are each a small macro over the rows.
///
/// A row is `tag Variant { role field, … }`. `tag` is the variant's byte in
/// the deployment encoding and **the fields are in wire order**: row order
/// *is* the wire format (the field's Rust type picks its encoding) and the
/// operand order of the walks, so reordering or renumbering a row changes the
/// format and needs a [`VERSION`](crate::VERSION) bump. `role` says what the
/// field is: `def` the register the instruction writes, `use` one it reads,
/// `odef` / `ouse` an `Option<VReg>` written / read, `call` a boxed
/// [`CallSite`] (on the wire its callee name, then its argument registers,
/// read in order), `val` anything that is not a register (types, operators,
/// immediates, displacements, block numbers).
macro_rules! inst_shapes {
    ($cb:ident) => {
        $cb! {
            0 Const { def dst, val ty, val imm }
            1 Move { def dst, val ty, use src }
            2 Bin { val op, val ty, def dst, use lhs, use rhs }
            3 Un { val op, val ty, def dst, use src }
            4 Cmp { val op, val ty, def dst, use lhs, use rhs }
            6 Cast { def dst, val to, use src, val from }
            7 Load { def dst, val ty, use addr, val offset }
            8 Store { val ty, use addr, val offset, use value }
            9 Call { odef dst, call site }
            10 VecWidth { def dst, val elem }
            11 VecSplat { def dst, val elem, use src }
            12 VecLoad { def dst, val elem, use addr, val offset }
            13 VecStore { val elem, use addr, val offset, use value }
            14 VecBin { val op, val elem, def dst, use lhs, use rhs }
            15 VecReduce { val op, val elem, def dst, use src }
            16 Jump { val target }
            17 Branch { use cond, val then_bb, val else_bb }
            18 Ret { ouse value }
        }
    };
}
pub(crate) use inst_shapes;

/// Run `$body` with `$r` bound to each register of `$x`, a field of role
/// `$role` bound by reference (`&VReg` or `&mut VReg` alike; a `call` site
/// only by `&mut`, [`each_use!`] reads it). A role that is none of the six
/// does not expand.
macro_rules! each_reg {
    (val $x:ident |$r:ident| $body:expr) => {};
    (def $($rest:tt)*) => {
        each_reg!(use $($rest)*)
    };
    (use $x:ident |$r:ident| $body:expr) => {{
        let $r = $x;
        $body;
    }};
    (odef $($rest:tt)*) => {
        each_reg!(ouse $($rest)*)
    };
    (ouse $x:ident |$r:ident| $body:expr) => {
        if let Some($r) = $x {
            $body;
        }
    };
    (call $x:ident |$r:ident| $body:expr) => {
        for $r in &mut $x.args {
            $body;
        }
    };
}

/// [`each_reg!`] over the registers the instruction *reads* only.
macro_rules! each_use {
    (def $($rest:tt)*) => {};
    (odef $($rest:tt)*) => {};
    (call $x:ident |$r:ident| $body:expr) => {
        for $r in &$x.args {
            $body;
        }
    };
    ($($rest:tt)*) => {
        each_reg!($($rest)*)
    };
}

/// `$found` unless `$x`, a field of role `$role`, is the definition.
macro_rules! or_def {
    (def $x:ident $found:ident) => {
        Some(*$x)
    };
    (odef $x:ident $found:ident) => {
        *$x
    };
    ($other:ident $x:ident $found:ident) => {
        $found
    };
}

macro_rules! walks {
    ($($tag:literal $variant:ident { $($role:ident $field:ident),* })*) => {
        impl Inst {
            /// The register defined by this instruction, if any.
            #[allow(unused_variables)]
            pub fn dst(&self) -> Option<VReg> {
                match self {
                    $(Inst::$variant { $($field),* } => {
                        let found: Option<VReg> = None;
                        $(let found = or_def!($role $field found);)*
                        found
                    })*
                }
            }

            /// Hand every register this instruction reads to `f`, in operand
            /// order.
            ///
            /// [`Inst::uses`] only collects it. The load-time verifier and
            /// the offline analyses walk operands through it, so visiting an
            /// instruction allocates nothing.
            #[allow(unused_variables)]
            pub fn for_each_use(&self, mut f: impl FnMut(VReg)) {
                match self {
                    $(Inst::$variant { $($field),* } => {
                        $(each_use!($role $field |r| f(*r));)*
                    })*
                }
            }

            /// Apply `f` to every register operand in place: the definition
            /// first, then the uses in operand order.
            #[allow(unused_variables)]
            pub fn rewrite_regs(&mut self, mut f: impl FnMut(VReg) -> VReg) {
                match self {
                    $(Inst::$variant { $($field),* } => {
                        $(each_reg!($role $field |r| *r = f(*r));)*
                    })*
                }
            }
        }
    };
}
inst_shapes!(walks);

impl Inst {
    /// The registers read by this instruction, in operand order, as an owned
    /// list. Code that only visits them should use [`Inst::for_each_use`].
    pub fn uses(&self) -> Vec<VReg> {
        let mut regs = Vec::new();
        self.for_each_use(|r| regs.push(r));
        regs
    }

    /// `true` if the instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. }
        )
    }

    /// The (at most two) control-flow successors of this instruction, in
    /// target order; a slot the instruction does not have is `None`.
    pub(crate) fn successor_slots(&self) -> [Option<BlockId>; 2] {
        match self {
            Inst::Jump { target } => [Some(*target), None],
            Inst::Branch {
                then_bb, else_bb, ..
            } => [Some(*then_bb), Some(*else_bb)],
            _ => [None, None],
        }
    }

    /// Control-flow successors of a terminator (empty for non-terminators and `Ret`).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        self.successor_slots().into_iter().flatten()
    }

    /// `true` if the instruction reads or writes linear memory or transfers control.
    ///
    /// Such instructions must not be removed by dead-code elimination even when
    /// their result is unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. }
                | Inst::VecStore { .. }
                | Inst::Call { .. }
                | Inst::Jump { .. }
                | Inst::Branch { .. }
                | Inst::Ret { .. }
        )
    }

    /// `true` for the portable vector builtins (including [`Inst::VecWidth`]).
    pub fn is_vector(&self) -> bool {
        matches!(
            self,
            Inst::VecWidth { .. }
                | Inst::VecSplat { .. }
                | Inst::VecLoad { .. }
                | Inst::VecStore { .. }
                | Inst::VecBin { .. }
                | Inst::VecReduce { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_and_uses_of_binary() {
        let i = Inst::Bin {
            op: BinOp::Add,
            ty: ScalarType::I32,
            dst: VReg(2),
            lhs: VReg(0),
            rhs: VReg(1),
        };
        assert_eq!(i.dst(), Some(VReg(2)));
        assert_eq!(i.uses(), vec![VReg(0), VReg(1)]);
        assert!(!i.is_terminator());
        assert!(!i.has_side_effects());
        assert!(BinOp::Rem.int_only());
        assert!(!BinOp::Add.int_only());
    }

    #[test]
    fn store_has_side_effects_and_no_dst() {
        let i = Inst::Store {
            ty: ScalarType::F32,
            addr: VReg(0),
            offset: 4,
            value: VReg(1),
        };
        assert_eq!(i.dst(), None);
        assert!(i.has_side_effects());
        assert_eq!(i.uses(), vec![VReg(0), VReg(1)]);
    }

    #[test]
    fn terminator_successors() {
        let j = Inst::Jump { target: BlockId(3) };
        assert!(j.is_terminator());
        assert_eq!(j.successors().collect::<Vec<_>>(), vec![BlockId(3)]);

        let b = Inst::Branch {
            cond: VReg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(
            b.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );

        let r = Inst::Ret {
            value: Some(VReg(5)),
        };
        assert!(r.is_terminator());
        assert_eq!(r.successors().count(), 0);
        assert_eq!(r.uses(), vec![VReg(5)]);
    }

    #[test]
    fn for_each_use_visits_calls_and_returns_in_operand_order() {
        let visited = |i: &Inst| {
            let mut regs = Vec::new();
            i.for_each_use(|r| regs.push(r));
            regs
        };
        let call = Inst::call(Some(VReg(9)), "f", vec![VReg(3), VReg(1), VReg(3)]);
        assert_eq!(visited(&call), vec![VReg(3), VReg(1), VReg(3)]);
        assert_eq!(visited(&Inst::Ret { value: None }), vec![]);
        assert_eq!(
            visited(&Inst::Ret {
                value: Some(VReg(4))
            }),
            vec![VReg(4)]
        );
    }

    #[test]
    fn rewrite_regs_shifts_every_operand() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            ty: ScalarType::I32,
            dst: VReg(0),
            lhs: VReg(1),
            rhs: VReg(2),
        };
        i.rewrite_regs(|r| VReg(r.0 + 10));
        assert_eq!(i.dst(), Some(VReg(10)));
        assert_eq!(i.uses(), vec![VReg(11), VReg(12)]);
    }

    /// One instance of every `Inst` variant with every register operand
    /// distinct, beside the registers it reads (in operand order) and the one
    /// it defines.
    fn every_variant() -> Vec<(Inst, Vec<VReg>, Option<VReg>)> {
        let ty = ScalarType::I32;
        let (dst, src, lhs, rhs) = (VReg(1), VReg(2), VReg(3), VReg(4));
        let (addr, value) = (VReg(5), VReg(6));
        vec![
            (
                Inst::Const {
                    dst,
                    ty,
                    imm: Immediate::Int(7),
                },
                vec![],
                Some(dst),
            ),
            (Inst::Move { dst, ty, src }, vec![src], Some(dst)),
            (
                Inst::Bin {
                    op: BinOp::Sub,
                    ty,
                    dst,
                    lhs,
                    rhs,
                },
                vec![lhs, rhs],
                Some(dst),
            ),
            (
                Inst::Un {
                    op: UnOp::Not,
                    ty,
                    dst,
                    src,
                },
                vec![src],
                Some(dst),
            ),
            (
                Inst::Cmp {
                    op: CmpOp::Le,
                    ty,
                    dst,
                    lhs,
                    rhs,
                },
                vec![lhs, rhs],
                Some(dst),
            ),
            (
                Inst::Cast {
                    dst,
                    to: ScalarType::F64,
                    src,
                    from: ty,
                },
                vec![src],
                Some(dst),
            ),
            (
                Inst::Load {
                    dst,
                    ty,
                    addr,
                    offset: 8,
                },
                vec![addr],
                Some(dst),
            ),
            (
                Inst::Store {
                    ty,
                    addr,
                    offset: -8,
                    value,
                },
                vec![addr, value],
                None,
            ),
            (
                Inst::call(Some(dst), "g", vec![VReg(9), VReg(2), VReg(9)]),
                vec![VReg(9), VReg(2), VReg(9)],
                Some(dst),
            ),
            (Inst::call(None, "g", vec![]), vec![], None),
            (Inst::VecWidth { dst, elem: ty }, vec![], Some(dst)),
            (Inst::VecSplat { dst, elem: ty, src }, vec![src], Some(dst)),
            (
                Inst::VecLoad {
                    dst,
                    elem: ty,
                    addr,
                    offset: 16,
                },
                vec![addr],
                Some(dst),
            ),
            (
                Inst::VecStore {
                    elem: ty,
                    addr,
                    offset: 16,
                    value,
                },
                vec![addr, value],
                None,
            ),
            (
                Inst::VecBin {
                    op: BinOp::Max,
                    elem: ty,
                    dst,
                    lhs,
                    rhs,
                },
                vec![lhs, rhs],
                Some(dst),
            ),
            (
                Inst::VecReduce {
                    op: ReduceOp::Min,
                    elem: ty,
                    dst,
                    src,
                },
                vec![src],
                Some(dst),
            ),
            (Inst::Jump { target: BlockId(3) }, vec![], None),
            (
                Inst::Branch {
                    cond: VReg(7),
                    then_bb: BlockId(1),
                    else_bb: BlockId(2),
                },
                vec![VReg(7)],
                None,
            ),
            (Inst::Ret { value: Some(value) }, vec![value], None),
            (Inst::Ret { value: None }, vec![], None),
        ]
    }

    #[test]
    fn every_variant_reports_its_uses_in_operand_order_and_its_definition() {
        let table = every_variant();
        let kinds: std::collections::HashSet<_> = table
            .iter()
            .map(|(inst, ..)| std::mem::discriminant(inst))
            .collect();
        assert_eq!(kinds.len(), 18, "one row per Inst variant");
        for (inst, reads, defines) in table {
            assert_eq!(inst.uses(), reads, "{inst:?}");
            assert_eq!(inst.dst(), defines, "{inst:?}");
            // `rewrite_regs` hands over the definition first, then the uses
            // in operand order, and stores what the closure answers.
            let mut rewritten = inst.clone();
            let mut seen = Vec::new();
            rewritten.rewrite_regs(|r| {
                seen.push(r);
                VReg(r.0 + 100)
            });
            let expected: Vec<VReg> = defines.iter().chain(&reads).copied().collect();
            assert_eq!(seen, expected, "{inst:?}");
            let moved = |r: &VReg| VReg(r.0 + 100);
            assert_eq!(
                rewritten.uses(),
                reads.iter().map(moved).collect::<Vec<_>>()
            );
            assert_eq!(rewritten.dst(), defines.as_ref().map(moved), "{inst:?}");
        }
    }

    #[test]
    fn cmp_swapping_is_involutive() {
        for op in CmpOp::ALL {
            assert_eq!(op.swapped().swapped(), op);
        }
    }

    #[test]
    fn vector_instructions_are_classified() {
        let v = Inst::VecBin {
            op: BinOp::Mul,
            elem: ScalarType::F32,
            dst: VReg(0),
            lhs: VReg(1),
            rhs: VReg(2),
        };
        assert!(v.is_vector());
        let w = Inst::VecWidth {
            dst: VReg(0),
            elem: ScalarType::U8,
        };
        assert!(w.is_vector());
        assert!(w.uses().is_empty());
    }
}
