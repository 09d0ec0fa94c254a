//! Machine-code representation shared by all virtual targets.
//!
//! The virtual ISA is a generic load/store architecture with three register
//! classes (integer, floating point, vector). Whether the vector instructions
//! are available — and how wide the vector registers are — is a property of
//! the [`TargetDesc`](crate::TargetDesc); the online compiler only emits what
//! the target supports.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Register class of a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegClass {
    /// General-purpose integer register (holds 64 bits).
    Int,
    /// Floating-point register (holds one f64).
    Float,
    /// SIMD vector register.
    Vec,
}

/// A physical register of the virtual ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PReg {
    /// The register class.
    pub class: RegClass,
    /// Index within the class (0-based).
    pub index: u16,
}

impl PReg {
    /// An integer register.
    pub fn int(index: u16) -> Self {
        PReg {
            class: RegClass::Int,
            index,
        }
    }
    /// A floating-point register.
    pub fn float(index: u16) -> Self {
        PReg {
            class: RegClass::Float,
            index,
        }
    }
    /// A vector register.
    pub fn vec(index: u16) -> Self {
        PReg {
            class: RegClass::Vec,
            index,
        }
    }

    /// `true` if this register lies past the end of its class's file, the
    /// files being `files[class.code()]` registers long.
    pub(crate) fn past(self, files: &[usize; 3]) -> bool {
        usize::from(self.index) >= files[usize::from(self.class.code())]
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Float => write!(f, "f{}", self.index),
            RegClass::Vec => write!(f, "v{}", self.index),
        }
    }
}

/// Operand width in bytes for integer operations and memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Width {
    /// 8 bits.
    W8,
    /// 16 bits.
    W16,
    /// 32 bits.
    W32,
    /// 64 bits.
    W64,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// The width holding `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 1, 2, 4 or 8.
    pub fn from_bytes(bytes: u64) -> Width {
        match bytes {
            1 => Width::W8,
            2 => Width::W16,
            4 => Width::W32,
            8 => Width::W64,
            other => panic!("no machine width of {other} bytes"),
        }
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left. The count is masked modulo 64 (the simulated register
    /// width), never the operand width, and the result is then normalized to
    /// the instruction's [`Width`] — matching `BinOp::Shl` in the bytecode so
    /// every execution path agrees bit-for-bit on extreme counts.
    Shl,
    /// Shift right (arithmetic when signed, logical when unsigned). The
    /// count is masked modulo 64, like [`AluOp::Shl`].
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FpuOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Comparison predicates (shared by integer and floating-point compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Horizontal reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RedOp {
    /// Sum of lanes.
    Add,
    /// Minimum of lanes.
    Min,
    /// Maximum of lanes.
    Max,
}

/// Give each operand enum its number: `code()` and `from_code()` are the one
/// enum ↔ integer mapping, used by the artifact store's wire format and by
/// the executor's packed operand records alike. A number, once released, is
/// part of the store format and never changes meaning.
macro_rules! wire_codes {
    ($($ty:ident { $($code:literal $variant:ident),+ })+) => {$(
        impl $ty {
            /// This variant's number on the wire and in packed records.
            #[inline]
            pub const fn code(self) -> u8 {
                match self {
                    $($ty::$variant => $code),+
                }
            }

            /// The variant numbered `code`, if there is one.
            #[inline]
            pub const fn from_code(code: u8) -> Option<$ty> {
                match code {
                    $($code => Some($ty::$variant),)+
                    _ => None,
                }
            }
        }
    )+};
}

wire_codes! {
    RegClass { 0 Int, 1 Float, 2 Vec }
    Width { 0 W8, 1 W16, 2 W32, 3 W64 }
    AluOp { 0 Add, 1 Sub, 2 Mul, 3 Div, 4 Rem, 5 And, 6 Or, 7 Xor, 8 Shl, 9 Shr, 10 Min, 11 Max }
    FpuOp { 0 Add, 1 Sub, 2 Mul, 3 Div, 4 Min, 5 Max }
    CmpPred { 0 Eq, 1 Ne, 2 Lt, 3 Le, 4 Gt, 5 Ge }
    RedOp { 0 Add, 1 Min, 2 Max }
}

/// One machine instruction of the virtual ISA.
///
/// The *shape* of every variant — wire tag, field order, which fields are
/// registers and of which class — is stated once, in
/// [`minst_shapes!`](crate::minst_shapes); a new variant needs its row there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MInst {
    /// `dst = value` (integer register).
    Imm {
        /// Destination integer register.
        dst: PReg,
        /// The immediate.
        value: i64,
    },
    /// `dst = value` (floating-point register).
    FImm {
        /// Destination floating-point register.
        dst: PReg,
        /// The immediate.
        value: f64,
    },
    /// Register-to-register move within one class.
    Mov {
        /// Destination register.
        dst: PReg,
        /// Source register.
        src: PReg,
    },
    /// Integer ALU operation.
    IntOp {
        /// Operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Signed semantics for division, shifts, min/max.
        signed: bool,
        /// Destination.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Floating-point operation.
    FloatOp {
        /// Operation.
        op: FpuOp,
        /// `true` for f64, `false` for f32 precision.
        double: bool,
        /// Destination.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Integer negate.
    IntNeg {
        /// Operand width.
        width: Width,
        /// Destination.
        dst: PReg,
        /// Source.
        src: PReg,
    },
    /// Integer bitwise not.
    IntNot {
        /// Operand width.
        width: Width,
        /// Destination.
        dst: PReg,
        /// Source.
        src: PReg,
    },
    /// Floating-point negate.
    FloatNeg {
        /// `true` for f64 precision.
        double: bool,
        /// Destination.
        dst: PReg,
        /// Source.
        src: PReg,
    },
    /// Integer comparison; `dst` (integer) receives 0 or 1.
    IntCmp {
        /// Predicate.
        pred: CmpPred,
        /// Operand width.
        width: Width,
        /// Signed comparison.
        signed: bool,
        /// Destination integer register.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Floating-point comparison; `dst` (integer) receives 0 or 1.
    FloatCmp {
        /// Predicate.
        pred: CmpPred,
        /// `true` for f64 precision.
        double: bool,
        /// Destination integer register.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Conditional select within one register class.
    Select {
        /// Destination register.
        dst: PReg,
        /// Integer condition register (non-zero selects `if_true`).
        cond: PReg,
        /// Value when the condition is non-zero.
        if_true: PReg,
        /// Value when the condition is zero.
        if_false: PReg,
    },
    /// Integer to floating-point conversion.
    IntToFloat {
        /// Treat the source as signed.
        signed: bool,
        /// Produce f64 (`true`) or f32 (`false`) precision.
        double: bool,
        /// Destination floating-point register.
        dst: PReg,
        /// Source integer register.
        src: PReg,
    },
    /// Floating-point to integer conversion (truncation).
    FloatToInt {
        /// Destination width.
        width: Width,
        /// Signed destination.
        signed: bool,
        /// Destination integer register.
        dst: PReg,
        /// Source floating-point register.
        src: PReg,
    },
    /// Floating-point precision change.
    FloatCvt {
        /// Convert to f64 (`true`) or round to f32 (`false`).
        to_double: bool,
        /// Destination floating-point register.
        dst: PReg,
        /// Source floating-point register.
        src: PReg,
    },
    /// Re-normalize an integer register to a narrower width.
    IntResize {
        /// Target width.
        width: Width,
        /// Sign-extend (`true`) or zero-extend.
        signed: bool,
        /// Destination integer register.
        dst: PReg,
        /// Source integer register.
        src: PReg,
    },
    /// Scalar load from memory.
    Load {
        /// Access width.
        width: Width,
        /// Load into a floating-point register.
        float: bool,
        /// Sign-extend integer loads.
        signed: bool,
        /// Destination register.
        dst: PReg,
        /// Base address register (integer).
        base: PReg,
        /// Byte displacement.
        offset: i64,
    },
    /// Scalar store to memory.
    Store {
        /// Access width.
        width: Width,
        /// Store from a floating-point register.
        float: bool,
        /// Base address register (integer).
        base: PReg,
        /// Byte displacement.
        offset: i64,
        /// Source register.
        src: PReg,
    },
    /// Vector load of one full vector register.
    VecLoad {
        /// Destination vector register.
        dst: PReg,
        /// Base address register (integer).
        base: PReg,
        /// Byte displacement.
        offset: i64,
    },
    /// Vector store of one full vector register.
    VecStore {
        /// Base address register (integer).
        base: PReg,
        /// Byte displacement.
        offset: i64,
        /// Source vector register.
        src: PReg,
    },
    /// Broadcast an integer scalar into every lane.
    VecSplatInt {
        /// Lane width.
        elem: Width,
        /// Destination vector register.
        dst: PReg,
        /// Source integer register.
        src: PReg,
    },
    /// Broadcast a floating-point scalar into every lane.
    VecSplatFloat {
        /// Lane width (`W32` or `W64`).
        elem: Width,
        /// Destination vector register.
        dst: PReg,
        /// Source floating-point register.
        src: PReg,
    },
    /// Element-wise integer vector operation.
    VecIntOp {
        /// Operation.
        op: AluOp,
        /// Lane width.
        elem: Width,
        /// Signed lane semantics.
        signed: bool,
        /// Destination vector register.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Element-wise floating-point vector operation.
    VecFloatOp {
        /// Operation.
        op: FpuOp,
        /// Lane width (`W32` or `W64`).
        elem: Width,
        /// Destination vector register.
        dst: PReg,
        /// Left operand.
        lhs: PReg,
        /// Right operand.
        rhs: PReg,
    },
    /// Horizontal integer reduction into an integer register.
    VecReduceInt {
        /// Reduction operator.
        op: RedOp,
        /// Lane width.
        elem: Width,
        /// Signed lane semantics.
        signed: bool,
        /// Destination integer register.
        dst: PReg,
        /// Source vector register.
        src: PReg,
    },
    /// Horizontal floating-point reduction into a floating-point register.
    VecReduceFloat {
        /// Reduction operator.
        op: RedOp,
        /// Lane width (`W32` or `W64`).
        elem: Width,
        /// Destination floating-point register.
        dst: PReg,
        /// Source vector register.
        src: PReg,
    },
    /// Spill a register to a stack slot.
    Spill {
        /// Stack slot index.
        slot: u32,
        /// Source register.
        src: PReg,
    },
    /// Reload a register from a stack slot.
    Reload {
        /// Stack slot index.
        slot: u32,
        /// Destination register.
        dst: PReg,
    },
    /// Unconditional jump to a block.
    Jump {
        /// Target block index.
        target: u32,
    },
    /// Branch on a non-zero integer condition.
    BranchNz {
        /// Condition register (integer).
        cond: PReg,
        /// Target when non-zero.
        then_target: u32,
        /// Target when zero.
        else_target: u32,
    },
    /// Direct call with a virtual calling convention (the simulator copies the
    /// argument registers into the callee's parameter registers).
    Call {
        /// Callee function name.
        callee: String,
        /// Argument registers, in order.
        args: Vec<PReg>,
        /// Register receiving the return value, if any.
        ret: Option<PReg>,
    },
    /// Return from the function.
    Ret {
        /// Returned register, if any.
        value: Option<PReg>,
    },
}

/// The shape of every [`MInst`] variant, stated once: `minst_shapes!(cb)`
/// expands to `cb! { rows }`, one row per variant, and every consumer — the
/// artifact store's codec (`splitc-runtime`), the online compiler's def/use
/// walks (`splitc-jit`), the register-class check below — is a small macro
/// over the rows.
///
/// A row is `tag Variant { role field, … }`:
///
/// * `tag` is the variant's byte in a store entry, and **the fields are in
///   wire order**: row order *is* the store's payload format (the field's
///   Rust type picks its encoding) and the operand order of the def/use
///   walks. Reordering a row, or renumbering one, changes the format and
///   needs a `STORE_FORMAT_VERSION` bump.
/// * `role` says what the field is: `def` a register the instruction
///   writes, `use` one it reads, `odef` / `ouse` an `Option<PReg>` written /
///   read, `uses` a `Vec<PReg>` read in order, `val` anything that is not a
///   register (immediates, widths, slots, block numbers, names).
/// * a `def` / `use` may name, in parentheses, the register file the
///   instruction's handler indexes it in: `int`, `float`, `vec`, `same f`
///   (the class of field `f`) or `mem f` (float if the `bool` field `f` is
///   set, integer otherwise). A register role without one dispatches on the
///   operand's own class at run time, so every class is valid there.
/// * a kind that names the `vec` file for an operand is a *vector kind*,
///   refused on a target without a vector unit; a `val elem` field is the
///   lane width of a vector kind that works lane by lane, from which
///   preparation computes its lane count.
#[doc(hidden)]
#[macro_export]
macro_rules! minst_shapes {
    ($cb:ident) => {
        $cb! {
            0 Imm { def(int) dst, val value }
            1 FImm { def(float) dst, val value }
            2 Mov { def dst, use(same dst) src }
            3 IntOp { val op, val width, val signed, def(int) dst, use(int) lhs, use(int) rhs }
            4 FloatOp { val op, val double, def(float) dst, use(float) lhs, use(float) rhs }
            5 IntNeg { val width, def(int) dst, use(int) src }
            6 IntNot { val width, def(int) dst, use(int) src }
            7 FloatNeg { val double, def(float) dst, use(float) src }
            8 IntCmp { val pred, val width, val signed, def(int) dst, use(int) lhs, use(int) rhs }
            9 FloatCmp { val pred, val double, def(int) dst, use(float) lhs, use(float) rhs }
            10 Select { def dst, use(int) cond, use(same dst) if_true, use(same dst) if_false }
            11 IntToFloat { val signed, val double, def(float) dst, use(int) src }
            12 FloatToInt { val width, val signed, def(int) dst, use(float) src }
            13 FloatCvt { val to_double, def(float) dst, use(float) src }
            14 IntResize { val width, val signed, def(int) dst, use(int) src }
            15 Load { val width, val float, val signed, def(mem float) dst, use(int) base, val offset }
            16 Store { val width, val float, use(int) base, val offset, use(mem float) src }
            17 VecLoad { def(vec) dst, use(int) base, val offset }
            18 VecStore { use(int) base, val offset, use(vec) src }
            19 VecSplatInt { val elem, def(vec) dst, use(int) src }
            20 VecSplatFloat { val elem, def(vec) dst, use(float) src }
            21 VecIntOp { val op, val elem, val signed, def(vec) dst, use(vec) lhs, use(vec) rhs }
            22 VecFloatOp { val op, val elem, def(vec) dst, use(vec) lhs, use(vec) rhs }
            23 VecReduceInt { val op, val elem, val signed, def(int) dst, use(vec) src }
            24 VecReduceFloat { val op, val elem, def(float) dst, use(vec) src }
            25 Spill { val slot, use src }
            26 Reload { val slot, def dst }
            27 Jump { val target }
            28 BranchNz { use(int) cond, val then_target, val else_target }
            29 Call { val callee, uses args, odef ret }
            30 Ret { ouse value }
        }
    };
}

/// The register class a `def` / `use` annotation of [`minst_shapes!`] names.
macro_rules! annotated_class {
    (int) => {
        RegClass::Int
    };
    (float) => {
        RegClass::Float
    };
    (vec) => {
        RegClass::Vec
    };
    (same $of:ident) => {
        $of.class
    };
    (mem $float:ident) => {
        if *$float {
            RegClass::Float
        } else {
            RegClass::Int
        }
    };
}

/// The register operands of one `role` field of [`minst_shapes!`], as an
/// iterator; the six roles are the only words that expand.
macro_rules! role_regs {
    (def $f:ident) => {
        std::iter::once(*$f)
    };
    (use $f:ident) => {
        std::iter::once(*$f)
    };
    (odef $f:ident) => {
        $f.iter().copied()
    };
    (ouse $f:ident) => {
        $f.iter().copied()
    };
    (uses $f:ident) => {
        $f.iter().copied()
    };
    (val $f:ident) => {
        std::iter::empty::<PReg>()
    };
}

/// `true` for the register-file annotation `vec` of [`minst_shapes!`].
macro_rules! names_vec {
    (vec) => {
        true
    };
    ($($other:tt)+) => {
        false
    };
}

/// The lane width a field of [`minst_shapes!`] gives: `Some` for the field
/// named `elem`, `None` for any other (`lane_width!(field field)`).
macro_rules! lane_width {
    (elem $f:ident) => {
        Some(*$f)
    };
    ($other:ident $f:ident) => {
        None
    };
}

/// How one `role` field of [`minst_shapes!`] is written in [`MInst`]'s
/// `Display`: registers by their own `Display`, anything else by `Debug`.
macro_rules! role_text {
    (def $f:ident) => {
        $f.to_string()
    };
    (use $f:ident) => {
        $f.to_string()
    };
    (odef $f:ident) => {
        $f.map_or_else(|| "none".to_owned(), |r| r.to_string())
    };
    (ouse $f:ident) => {
        $f.map_or_else(|| "none".to_owned(), |r| r.to_string())
    };
    (uses $f:ident) => {
        format!(
            "[{}]",
            $f.iter()
                .map(PReg::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    (val $f:ident) => {
        format!("{:?}", $f)
    };
}

macro_rules! operand_walks {
    ($($tag:literal $variant:ident {
        $($role:ident $(($($class:tt)+))? $field:ident),*
    })*) => {
        impl MInst {
            /// `true` for vector instructions (only valid on SIMD-capable
            /// targets): the kinds whose row names the `vec` file.
            pub fn is_vector(&self) -> bool {
                match self {
                    $(MInst::$variant { .. } => false $($(|| names_vec!($($class)+))?)*,)*
                }
            }

            /// The lane width of a vector kind that works lane by lane: its
            /// row's `elem` field.
            #[allow(unused_variables)]
            pub(crate) fn lane_width(&self) -> Option<Width> {
                match self {
                    $(MInst::$variant { $($field),* } => None $(.or(lane_width!($field $field)))*,)*
                }
            }

            /// Fact 1 of `PreparedProgram::prepare` for this instruction, on
            /// register files of `files[class.code()]` registers each: the
            /// first register operand whose class is not the file its
            /// handler indexes (the annotations of [`minst_shapes!`]; an
            /// operand without one is indexed in the file of its own class),
            /// else the first whose index is not below its file's size.
            /// Preparation refuses an instruction that has one: the handlers
            /// index the file the instruction kind implies, unchecked.
            #[allow(unused_variables)]
            pub(crate) fn bad_operand(&self, files: &[usize; 3]) -> Option<PReg> {
                match self {
                    $(MInst::$variant { $($field),* } => {
                        $($(if $field.class != annotated_class!($($class)+) {
                            return Some(*$field);
                        })?)*
                        $(if let Some(r) = role_regs!($role $field).find(|r| r.past(files)) {
                            return Some(r);
                        })*
                        None
                    })*
                }
            }
        }

        /// `Variant { field: value, … }` in row order, with registers
        /// written `r3` / `f2` / `v1`.
        impl fmt::Display for MInst {
            #[allow(unused_variables)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(MInst::$variant { $($field),* } => {
                        let fields: Vec<String> = vec![
                            $(format!("{}: {}", stringify!($field), role_text!($role $field))),*
                        ];
                        write!(f, "{} {{ {} }}", stringify!($variant), fields.join(", "))
                    })*
                }
            }
        }
    };
}
minst_shapes!(operand_walks);

impl MInst {
    /// `true` if this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            MInst::Jump { .. } | MInst::BranchNz { .. } | MInst::Ret { .. }
        )
    }

    /// Estimated encoded size in bytes, used by the code-size experiment (E5).
    ///
    /// The estimate models a 32-bit RISC-style encoding with extension words
    /// for large immediates and displacements, plus a prefix byte for vector
    /// operations (as on SSE/AltiVec).
    pub fn estimated_bytes(&self) -> u64 {
        let imm_extra = |v: i64| if (-128..=127).contains(&v) { 0 } else { 4 };
        match self {
            MInst::Imm { value, .. } => 4 + imm_extra(*value),
            MInst::FImm { .. } => 8,
            MInst::Load { offset, .. } | MInst::Store { offset, .. } => 4 + imm_extra(*offset),
            MInst::VecLoad { offset, .. } | MInst::VecStore { offset, .. } => {
                5 + imm_extra(*offset)
            }
            MInst::Call { args, .. } => 4 + args.len() as u64,
            i if i.is_vector() => 5,
            _ => 4,
        }
    }
}

/// A basic block of machine code.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MBlock {
    /// Instructions; the last one must be a terminator.
    pub insts: Vec<MInst>,
}

/// A compiled machine function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MFunction {
    /// Function name (matches the bytecode function it was compiled from).
    pub name: String,
    /// Registers in which the function expects its arguments.
    pub params: Vec<PReg>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<MBlock>,
    /// Number of stack slots used for spills.
    pub num_slots: u32,
}

impl MFunction {
    /// Total instruction count.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Estimated code size in bytes (see [`MInst::estimated_bytes`]).
    pub fn estimated_code_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .map(MInst::estimated_bytes)
            .sum()
    }
}

/// A fully compiled program for one target.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MProgram {
    /// Name of the originating module.
    pub name: String,
    /// Compiled functions.
    pub functions: Vec<MFunction>,
}

impl MProgram {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&MFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Estimated total code size in bytes.
    pub fn estimated_code_bytes(&self) -> u64 {
        self.functions
            .iter()
            .map(MFunction::estimated_code_bytes)
            .sum()
    }

    /// Total instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(MFunction::num_insts).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_pregs() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::from_bytes(4), Width::W32);
        assert_eq!(PReg::int(3).to_string(), "r3");
        assert_eq!(PReg::float(2).to_string(), "f2");
        assert_eq!(PReg::vec(1).to_string(), "v1");
    }

    #[test]
    #[should_panic(expected = "no machine width")]
    fn bad_width_panics() {
        let _ = Width::from_bytes(3);
    }

    #[test]
    fn classification_of_instructions() {
        let j = MInst::Jump { target: 2 };
        assert!(j.is_terminator());
        let v = MInst::VecIntOp {
            op: AluOp::Add,
            elem: Width::W8,
            signed: false,
            dst: PReg::vec(0),
            lhs: PReg::vec(1),
            rhs: PReg::vec(2),
        };
        assert!(v.is_vector() && !v.is_terminator());
    }

    #[test]
    fn code_size_estimates_scale_with_program_size() {
        let small = MFunction {
            name: "f".into(),
            params: vec![],
            blocks: vec![MBlock {
                insts: vec![MInst::Ret { value: None }],
            }],
            num_slots: 0,
        };
        let big = MFunction {
            name: "g".into(),
            params: vec![],
            blocks: vec![MBlock {
                insts: vec![
                    MInst::Imm {
                        dst: PReg::int(0),
                        value: 1_000_000,
                    },
                    MInst::Load {
                        width: Width::W32,
                        float: false,
                        signed: true,
                        dst: PReg::int(1),
                        base: PReg::int(0),
                        offset: 4096,
                    },
                    MInst::Ret { value: None },
                ],
            }],
            num_slots: 0,
        };
        assert!(big.estimated_code_bytes() > small.estimated_code_bytes());
        let program = MProgram {
            name: "m".into(),
            functions: vec![small, big],
        };
        assert_eq!(program.functions.len(), 2);
        assert!(program.function("g").is_some());
        assert!(program.estimated_code_bytes() > 8);
        assert_eq!(program.num_insts(), 4);
    }
}
