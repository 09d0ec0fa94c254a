//! Functions, basic blocks and the per-function register type table.

use crate::annotations::AnnotationSet;
use crate::inst::{BlockId, Inst, VReg};
use crate::types::Type;
use serde::{Deserialize, Serialize};

/// A basic block: a straight-line instruction sequence ending in a terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// The block's id (its index inside [`Function::blocks`]).
    pub id: BlockId,
    /// Instructions, the last of which must be a terminator once the function
    /// is complete (checked by [`crate::verify::verify_function`]).
    pub insts: Vec<Inst>,
}

impl Block {
    /// Create an empty block with the given id.
    pub fn new(id: BlockId) -> Self {
        Block {
            id,
            insts: Vec::new(),
        }
    }

    /// The block's terminator, if the block is non-empty and properly terminated.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Control-flow successors of this block (empty if unterminated or `ret`).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        self.terminator()
            .map_or([None; 2], Inst::successor_slots)
            .into_iter()
            .flatten()
    }
}

/// A bytecode function: typed parameters, virtual registers and a CFG of blocks.
///
/// # Examples
///
/// Build `fn add1(x: i32) -> i32 { x + 1 }` by hand (the
/// [`FunctionBuilder`](crate::FunctionBuilder) offers a friendlier interface):
///
/// ```
/// use splitc_vbc::{BinOp, Function, Immediate, Inst, ScalarType, Type};
///
/// let mut f = Function::new("add1", &[Type::Scalar(ScalarType::I32)],
///                           Some(Type::Scalar(ScalarType::I32)));
/// let x = f.params[0].0;
/// let one = f.new_vreg(Type::Scalar(ScalarType::I32));
/// let sum = f.new_vreg(Type::Scalar(ScalarType::I32));
/// let entry = f.entry;
/// f.block_mut(entry).insts.extend([
///     Inst::Const { dst: one, ty: ScalarType::I32, imm: Immediate::Int(1) },
///     Inst::Bin { op: BinOp::Add, ty: ScalarType::I32, dst: sum, lhs: x, rhs: one },
///     Inst::Ret { value: Some(sum) },
/// ]);
/// assert!(splitc_vbc::verify_function(&f).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name, unique within a module.
    pub name: String,
    /// Parameter registers and their types, in call order.
    pub params: Vec<(VReg, Type)>,
    /// Return type, or `None` for `void` functions.
    pub ret: Option<Type>,
    /// Types of all virtual registers, indexed by [`VReg::index`].
    pub vreg_types: Vec<Type>,
    /// Basic blocks, indexed by [`BlockId::index`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Split-compilation annotations attached to this function: the keep
    /// ranking and the kernel traits, each optional.
    pub annotations: AnnotationSet,
}

impl Function {
    /// Create a function with one (empty) entry block and one register per parameter.
    pub fn new(name: &str, params: &[Type], ret: Option<Type>) -> Self {
        let mut f = Function {
            name: name.to_owned(),
            params: Vec::new(),
            ret,
            vreg_types: Vec::new(),
            blocks: vec![Block::new(BlockId(0))],
            entry: BlockId(0),
            annotations: AnnotationSet::default(),
        };
        for &ty in params {
            let r = f.new_vreg(ty);
            f.params.push((r, ty));
        }
        f
    }

    /// Allocate a fresh virtual register of type `ty`.
    pub fn new_vreg(&mut self, ty: Type) -> VReg {
        let r = VReg(self.vreg_types.len() as u32);
        self.vreg_types.push(ty);
        r
    }

    /// Append a fresh, empty basic block and return its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(id));
        id
    }

    /// Number of virtual registers in the function.
    pub fn num_vregs(&self) -> usize {
        self.vreg_types.len()
    }

    /// Type of virtual register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to this function.
    pub fn vreg_type(&self, r: VReg) -> Type {
        self.vreg_types[r.index()]
    }

    /// Shared access to block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to block `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(block id, instruction)` pairs in block order.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, &Inst)> {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter().map(move |i| (b.id, i)))
    }

    /// Total number of instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// `true` if the function contains any portable vector builtin.
    pub fn uses_vector_builtins(&self) -> bool {
        self.iter_insts().any(|(_, i)| i.is_vector())
    }

    /// `true` if the function performs any floating-point arithmetic or memory access.
    pub fn uses_float(&self) -> bool {
        self.iter_insts().any(|(_, i)| match i {
            Inst::Const { ty, .. }
            | Inst::Move { ty, .. }
            | Inst::Bin { ty, .. }
            | Inst::Un { ty, .. }
            | Inst::Cmp { ty, .. }
            | Inst::Load { ty, .. }
            | Inst::Store { ty, .. } => ty.is_float(),
            Inst::Cast { to, from, .. } => to.is_float() || from.is_float(),
            Inst::VecSplat { elem, .. }
            | Inst::VecLoad { elem, .. }
            | Inst::VecStore { elem, .. }
            | Inst::VecBin { elem, .. }
            | Inst::VecReduce { elem, .. }
            | Inst::VecWidth { elem, .. } => elem.is_float(),
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Immediate;
    use crate::types::ScalarType;
    use crate::BinOp;

    fn sample() -> Function {
        // fn f(n: i32) -> i32 { if n > 0 { return n; } return 0; }
        let mut f = Function::new(
            "f",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let n = f.params[0].0;
        let zero = f.new_vreg(Type::Scalar(ScalarType::I32));
        let cond = f.new_vreg(Type::Scalar(ScalarType::I32));
        let then_bb = f.new_block();
        let else_bb = f.new_block();
        let entry = f.entry;
        f.block_mut(entry).insts.extend([
            Inst::Const {
                dst: zero,
                ty: ScalarType::I32,
                imm: Immediate::Int(0),
            },
            Inst::Cmp {
                op: crate::CmpOp::Gt,
                ty: ScalarType::I32,
                dst: cond,
                lhs: n,
                rhs: zero,
            },
            Inst::Branch {
                cond,
                then_bb,
                else_bb,
            },
        ]);
        f.block_mut(then_bb)
            .insts
            .push(Inst::Ret { value: Some(n) });
        f.block_mut(else_bb)
            .insts
            .push(Inst::Ret { value: Some(zero) });
        f
    }

    #[test]
    fn new_function_has_entry_block_and_param_regs() {
        let f = Function::new(
            "g",
            &[Type::Scalar(ScalarType::F32), Type::Scalar(ScalarType::Ptr)],
            None,
        );
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.num_vregs(), 2);
        assert_eq!(f.vreg_type(f.params[1].0), Type::Scalar(ScalarType::Ptr));
    }

    #[test]
    fn successors_list_both_branch_targets() {
        let f = sample();
        let entry_succs: Vec<BlockId> = f.block(f.entry).successors().collect();
        assert_eq!(entry_succs, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn inst_iteration_and_counts() {
        let f = sample();
        assert_eq!(f.num_insts(), 5);
        assert_eq!(f.iter_insts().count(), 5);
        assert!(!f.uses_vector_builtins());
        assert!(!f.uses_float());
    }

    #[test]
    fn float_and_vector_detection() {
        let mut f = Function::new("v", &[Type::Scalar(ScalarType::Ptr)], None);
        let p = f.params[0].0;
        let v = f.new_vreg(Type::Vector(ScalarType::F32));
        let entry = f.entry;
        f.block_mut(entry).insts.extend([
            Inst::VecLoad {
                dst: v,
                elem: ScalarType::F32,
                addr: p,
                offset: 0,
            },
            Inst::VecBin {
                op: BinOp::Add,
                elem: ScalarType::F32,
                dst: v,
                lhs: v,
                rhs: v,
            },
            Inst::Ret { value: None },
        ]);
        assert!(f.uses_vector_builtins());
        assert!(f.uses_float());
    }

    #[test]
    fn terminator_detection_on_blocks() {
        let f = sample();
        assert!(f.block(f.entry).terminator().is_some());
        let empty = Block::new(BlockId(9));
        assert!(empty.terminator().is_none());
        assert_eq!(empty.successors().count(), 0);
    }
}
