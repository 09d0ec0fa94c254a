//! Convenience builder for constructing bytecode functions.
//!
//! Used by the front end's lowering phase, by the offline vectorizer when it
//! rewrites loops, and extensively by tests.

use crate::function::Function;
use crate::inst::{BinOp, BlockId, CmpOp, Immediate, Inst, ReduceOp, UnOp, VReg};
use crate::types::{ScalarType, Type};

/// An incremental builder around a [`Function`].
///
/// The builder tracks a *current block*; emission methods append to it and
/// return the destination register of the emitted instruction.
///
/// # Examples
///
/// Build `fn scale(p: ptr, a: f32) { *(f32*)p = a * *(f32*)p; }`:
///
/// ```
/// use splitc_vbc::{BinOp, FunctionBuilder, ScalarType, Type};
///
/// let mut b = FunctionBuilder::new(
///     "scale",
///     &[Type::Scalar(ScalarType::Ptr), Type::Scalar(ScalarType::F32)],
///     None,
/// );
/// let p = b.param(0);
/// let a = b.param(1);
/// let x = b.load(ScalarType::F32, p, 0);
/// let y = b.bin(BinOp::Mul, ScalarType::F32, a, x);
/// b.store(ScalarType::F32, p, 0, y);
/// b.ret(None);
/// let f = b.finish();
/// assert!(splitc_vbc::verify_function(&f).is_ok());
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Start building a function with the given signature.
    pub fn new(name: &str, params: &[Type], ret: Option<Type>) -> Self {
        let func = Function::new(name, params, ret);
        let current = func.entry;
        FunctionBuilder { func, current }
    }

    /// Wrap an existing function for further editing, positioned at `block`.
    pub fn on(func: Function, block: BlockId) -> Self {
        FunctionBuilder {
            func,
            current: block,
        }
    }

    /// The register holding parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> VReg {
        self.func.params[index].0
    }

    /// Allocate a fresh virtual register of type `ty`.
    pub fn new_vreg(&mut self, ty: impl Into<Type>) -> VReg {
        self.func.new_vreg(ty.into())
    }

    /// Create a new, empty block (does not change the current block).
    pub fn new_block(&mut self) -> BlockId {
        self.func.new_block()
    }

    /// Switch emission to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// The block currently being appended to.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Append a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        let cur = self.current;
        self.func.block_mut(cur).insts.push(inst);
    }

    /// Emit an integer constant of type `ty`.
    pub fn const_int(&mut self, ty: ScalarType, value: i64) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Const {
            dst,
            ty,
            imm: Immediate::Int(value),
        });
        dst
    }

    /// Emit a floating-point constant of type `ty`.
    ///
    /// An `f32`-typed constant is rounded to single precision (see
    /// [`ScalarType::canonicalize_float`]), so every consumer — interpreter,
    /// scalar JIT paths, SIMD lane splats — sees the same representable
    /// value.
    pub fn const_float(&mut self, ty: ScalarType, value: f64) -> VReg {
        let value = ty.canonicalize_float(value);
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Const {
            dst,
            ty,
            imm: Immediate::Float(value),
        });
        dst
    }

    /// Emit a register copy.
    pub fn mov(&mut self, ty: ScalarType, src: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Move { dst, ty, src });
        dst
    }

    /// Emit `lhs <op> rhs`.
    pub fn bin(&mut self, op: BinOp, ty: ScalarType, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emit `<op> src`.
    pub fn un(&mut self, op: UnOp, ty: ScalarType, src: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Un { op, ty, dst, src });
        dst
    }

    /// Emit a comparison producing an `i32` truth value.
    pub fn cmp(&mut self, op: CmpOp, ty: ScalarType, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ScalarType::I32));
        self.push(Inst::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emit a numeric conversion from `from` to `to`.
    pub fn cast(&mut self, from: ScalarType, to: ScalarType, src: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(to));
        self.push(Inst::Cast { dst, to, src, from });
        dst
    }

    /// Emit a scalar load.
    pub fn load(&mut self, ty: ScalarType, addr: VReg, offset: i64) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ty));
        self.push(Inst::Load {
            dst,
            ty,
            addr,
            offset,
        });
        dst
    }

    /// Emit a scalar store.
    pub fn store(&mut self, ty: ScalarType, addr: VReg, offset: i64, value: VReg) {
        self.push(Inst::Store {
            ty,
            addr,
            offset,
            value,
        });
    }

    /// Emit a direct call.
    pub fn call(&mut self, callee: &str, args: &[VReg], ret: Option<Type>) -> Option<VReg> {
        let dst = ret.map(|ty| self.new_vreg(ty));
        self.push(Inst::call(dst, callee, args.to_vec()));
        dst
    }

    /// Emit the portable lane-count builtin for element type `elem` (`i64` result).
    pub fn vec_width(&mut self, elem: ScalarType) -> VReg {
        let dst = self.new_vreg(Type::Scalar(ScalarType::I64));
        self.push(Inst::VecWidth { dst, elem });
        dst
    }

    /// Emit a vector splat of a scalar.
    pub fn vec_splat(&mut self, elem: ScalarType, src: VReg) -> VReg {
        let dst = self.new_vreg(Type::Vector(elem));
        self.push(Inst::VecSplat { dst, elem, src });
        dst
    }

    /// Emit a contiguous vector load.
    pub fn vec_load(&mut self, elem: ScalarType, addr: VReg, offset: i64) -> VReg {
        let dst = self.new_vreg(Type::Vector(elem));
        self.push(Inst::VecLoad {
            dst,
            elem,
            addr,
            offset,
        });
        dst
    }

    /// Emit a contiguous vector store.
    pub fn vec_store(&mut self, elem: ScalarType, addr: VReg, offset: i64, value: VReg) {
        self.push(Inst::VecStore {
            elem,
            addr,
            offset,
            value,
        });
    }

    /// Emit an element-wise vector binary operation.
    pub fn vec_bin(&mut self, op: BinOp, elem: ScalarType, lhs: VReg, rhs: VReg) -> VReg {
        let dst = self.new_vreg(Type::Vector(elem));
        self.push(Inst::VecBin {
            op,
            elem,
            dst,
            lhs,
            rhs,
        });
        dst
    }

    /// Emit a horizontal reduction of a vector into a scalar.
    pub fn vec_reduce(&mut self, op: ReduceOp, elem: ScalarType, src: VReg) -> VReg {
        let dst = self.new_vreg(Type::Scalar(elem));
        self.push(Inst::VecReduce { op, elem, dst, src });
        dst
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.push(Inst::Jump { target });
    }

    /// Terminate the current block with a conditional branch.
    pub fn branch(&mut self, cond: VReg, then_bb: BlockId, else_bb: BlockId) {
        self.push(Inst::Branch {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self, value: Option<VReg>) {
        self.push(Inst::Ret { value });
    }

    /// Shared access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Finish building and take ownership of the function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn build_loop_with_builder() {
        // fn sum(n: i32) -> i32 { s = 0; for i in 0..n { s += i; } return s; }
        let mut b = FunctionBuilder::new(
            "sum",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let n = b.param(0);
        let s0 = b.const_int(ScalarType::I32, 0);
        let i0 = b.const_int(ScalarType::I32, 0);
        let s = b.new_vreg(ScalarType::I32);
        let i = b.new_vreg(ScalarType::I32);
        b.push(Inst::Move {
            dst: s,
            ty: ScalarType::I32,
            src: s0,
        });
        b.push(Inst::Move {
            dst: i,
            ty: ScalarType::I32,
            src: i0,
        });
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);

        b.switch_to(header);
        let c = b.cmp(CmpOp::Lt, ScalarType::I32, i, n);
        b.branch(c, body, exit);

        b.switch_to(body);
        let s2 = b.bin(BinOp::Add, ScalarType::I32, s, i);
        b.push(Inst::Move {
            dst: s,
            ty: ScalarType::I32,
            src: s2,
        });
        let one = b.const_int(ScalarType::I32, 1);
        let i2 = b.bin(BinOp::Add, ScalarType::I32, i, one);
        b.push(Inst::Move {
            dst: i,
            ty: ScalarType::I32,
            src: i2,
        });
        b.jump(header);

        b.switch_to(exit);
        b.ret(Some(s));

        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        verify_function(&f).expect("builder output verifies");
    }

    #[test]
    fn vector_helpers_produce_vector_typed_registers() {
        let mut b = FunctionBuilder::new("v", &[Type::Scalar(ScalarType::Ptr)], None);
        let p = b.param(0);
        let vl = b.vec_width(ScalarType::F32);
        assert_eq!(b.func().vreg_type(vl), Type::Scalar(ScalarType::I64));
        let v = b.vec_load(ScalarType::F32, p, 0);
        assert_eq!(b.func().vreg_type(v), Type::Vector(ScalarType::F32));
        let w = b.vec_bin(BinOp::Add, ScalarType::F32, v, v);
        let r = b.vec_reduce(ReduceOp::Add, ScalarType::F32, w);
        assert_eq!(b.func().vreg_type(r), Type::Scalar(ScalarType::F32));
        b.vec_store(ScalarType::F32, p, 0, w);
        b.ret(None);
        verify_function(&b.finish()).expect("vector builder output verifies");
    }

    #[test]
    fn call_and_cast_helpers() {
        let mut b = FunctionBuilder::new(
            "caller",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::F32)),
        );
        let x = b.param(0);
        let f = b.cast(ScalarType::I32, ScalarType::F32, x);
        let r = b
            .call("callee", &[f], Some(Type::Scalar(ScalarType::F32)))
            .expect("call returns a value");
        b.ret(Some(r));
        let func = b.finish();
        assert_eq!(func.num_insts(), 3);
    }
}
