//! Instruction selection: portable bytecode to virtual machine code.
//!
//! Lowering is deliberately cheap — this is the *online* step of split
//! compilation and it runs on the device. In particular:
//!
//! * the portable lane-count builtin (`vec.width`) is folded to a constant
//!   chosen for the target;
//! * on SIMD targets, the portable vector builtins map one-to-one onto vector
//!   machine instructions;
//! * on scalar-only targets, the builtins are *scalarized*: each portable
//!   vector value becomes a bundle of scalar lane registers and each vector
//!   operation becomes an unrolled sequence of scalar operations — exactly the
//!   fallback the paper describes for the UltraSparc and PowerPC JITs.
//!
//! Lowering allocates per function (its parameter list), never per block,
//! instruction or operand: every function is lowered into one instruction
//! buffer with block bounds, in one walk over its instructions, and the
//! buffer and the register tables are reused from function to function, so
//! they grow to the longest function of a module and no further. The lanes
//! of a scalarized vector register are handed out by one run of the
//! per-class counter, so they have consecutive indices and the "lane list"
//! is a range — `(class, first index, count)`, kept in a dense table indexed
//! by bytecode register — that is copied, not cloned, each time an operation
//! names the register.

use crate::compile::JitError;
use splitc_targets::{AluOp, CmpPred, FpuOp, MInst, PReg, RedOp, RegClass, TargetDesc, Width};
use splitc_vbc::{
    BinOp, CmpOp, Function, Inst, ReduceOp, ScalarType, Type, UnOp, VReg,
    DEFAULT_VECTOR_WIDTH_BYTES,
};

/// Machine code with unbounded virtual register indices, before assignment:
/// one function at a time, in tables that are cleared and reused from
/// function to function.
#[derive(Debug, Default)]
pub(crate) struct VirtualFunc {
    /// Virtual registers holding the parameters, in order.
    pub params: Vec<PReg>,
    /// The function's instructions, block after block (block order is the
    /// bytecode's).
    pub insts: Vec<MInst>,
    /// `insts[bounds[b]..bounds[b + 1]]` are block `b`'s instructions.
    pub bounds: Vec<usize>,
    /// The machine register of each bytecode register, indexed by
    /// [`VReg::index`]; `None` for registers lowering never met and for
    /// vector registers that were scalarized into lanes.
    pub vbc_map: Vec<Option<PReg>>,
    /// The lanes of each scalarized vector register, indexed by
    /// [`VReg::index`]; empty when the vector builtins map onto SIMD.
    lanes: Vec<Option<Lanes>>,
    /// Virtual registers created per class (int, float, vector): the indices
    /// of a class are exactly `0..count`, so `class offset + index` numbers
    /// every virtual register of the function densely.
    pub counts: [u32; 3],
    /// Machine instructions emitted (lowering work measure).
    pub emitted: u64,
}

impl VirtualFunc {
    /// The number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }
}

/// Position of a register class in per-class tables (int, float, vector).
pub(crate) fn class_index(c: RegClass) -> usize {
    match c {
        RegClass::Int => 0,
        RegClass::Float => 1,
        RegClass::Vec => 2,
    }
}

fn scalar_class(ty: ScalarType) -> RegClass {
    if ty.is_float() {
        RegClass::Float
    } else {
        RegClass::Int
    }
}

fn width_of(ty: ScalarType) -> Width {
    Width::from_bytes(ty.size_bytes())
}

/// The scalar registers standing in for one scalarized vector register:
/// `count` registers of `class` with consecutive indices from `first`.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    class: RegClass,
    first: u16,
    count: u16,
}

impl Lanes {
    fn get(self, lane: u16) -> PReg {
        debug_assert!(lane < self.count);
        PReg {
            class: self.class,
            index: self.first + lane,
        }
    }

    fn iter(self) -> impl Iterator<Item = PReg> {
        (0..self.count).map(move |lane| self.get(lane))
    }
}

struct Lowerer<'a> {
    func: &'a Function,
    target: &'a TargetDesc,
    use_simd: bool,
    /// The tables being filled; `params` and `bounds` are the driver's.
    out: &'a mut VirtualFunc,
}

impl<'a> Lowerer<'a> {
    /// Hand out `count` fresh virtual registers of `class` with consecutive
    /// indices and return the first index.
    fn fresh_run(&mut self, class: RegClass, count: u32) -> Result<u16, JitError> {
        let next = &mut self.out.counts[class_index(class)];
        let first = *next;
        *next += count;
        if *next > u32::from(u16::MAX) + 1 {
            return Err(JitError::Internal(format!(
                "function {} exhausts the virtual register space",
                self.func.name
            )));
        }
        Ok(first as u16)
    }

    fn fresh(&mut self, class: RegClass) -> Result<PReg, JitError> {
        let index = self.fresh_run(class, 1)?;
        Ok(PReg { class, index })
    }

    fn scalar_reg(&mut self, r: VReg) -> Result<PReg, JitError> {
        if let Some(p) = self.out.vbc_map[r.index()] {
            return Ok(p);
        }
        let class = match self.func.vreg_type(r) {
            Type::Scalar(s) => scalar_class(s),
            Type::Vector(_) => {
                return Err(JitError::Internal(format!(
                    "vector register {r} used in a scalar position in {}",
                    self.func.name
                )));
            }
        };
        let p = self.fresh(class)?;
        self.out.vbc_map[r.index()] = Some(p);
        Ok(p)
    }

    /// Number of lanes the target (or the scalarizer) uses for `elem`.
    fn lane_count(&self, elem: ScalarType) -> u64 {
        let bytes = if self.use_simd {
            self.target.vector_bytes()
        } else {
            DEFAULT_VECTOR_WIDTH_BYTES
        };
        elem.lanes_for_width(bytes)
    }

    /// The scalar lane registers standing in for vector register `r`.
    fn lane_regs(&mut self, r: VReg, elem: ScalarType) -> Result<Lanes, JitError> {
        if let Some(l) = self.out.lanes[r.index()] {
            return Ok(l);
        }
        let class = scalar_class(elem);
        // At most 16 lanes (one byte each in a 16-byte vector).
        let count = self.lane_count(elem) as u16;
        let first = self.fresh_run(class, u32::from(count))?;
        let l = Lanes {
            class,
            first,
            count,
        };
        self.out.lanes[r.index()] = Some(l);
        Ok(l)
    }

    fn vec_reg(&mut self, r: VReg) -> Result<PReg, JitError> {
        if let Some(p) = self.out.vbc_map[r.index()] {
            return Ok(p);
        }
        let p = self.fresh(RegClass::Vec)?;
        self.out.vbc_map[r.index()] = Some(p);
        Ok(p)
    }

    fn emit(&mut self, inst: MInst) {
        self.out.emitted += 1;
        self.out.insts.push(inst);
    }

    fn alu_of(op: BinOp) -> AluOp {
        match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mul,
            BinOp::Div => AluOp::Div,
            BinOp::Rem => AluOp::Rem,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Shl => AluOp::Shl,
            BinOp::Shr => AluOp::Shr,
            BinOp::Min => AluOp::Min,
            BinOp::Max => AluOp::Max,
        }
    }

    fn fpu_of(op: BinOp) -> Result<FpuOp, JitError> {
        Ok(match op {
            BinOp::Add => FpuOp::Add,
            BinOp::Sub => FpuOp::Sub,
            BinOp::Mul => FpuOp::Mul,
            BinOp::Div => FpuOp::Div,
            BinOp::Min => FpuOp::Min,
            BinOp::Max => FpuOp::Max,
            other => {
                return Err(JitError::Internal(format!(
                    "operator {other} has no floating-point machine form"
                )));
            }
        })
    }

    fn pred_of(op: CmpOp) -> CmpPred {
        match op {
            CmpOp::Eq => CmpPred::Eq,
            CmpOp::Ne => CmpPred::Ne,
            CmpOp::Lt => CmpPred::Lt,
            CmpOp::Le => CmpPred::Le,
            CmpOp::Gt => CmpPred::Gt,
            CmpOp::Ge => CmpPred::Ge,
        }
    }

    fn red_of(op: ReduceOp) -> RedOp {
        match op {
            ReduceOp::Add => RedOp::Add,
            ReduceOp::Min => RedOp::Min,
            ReduceOp::Max => RedOp::Max,
        }
    }

    fn scalar_bin(
        &mut self,
        op: BinOp,
        ty: ScalarType,
        dst: PReg,
        lhs: PReg,
        rhs: PReg,
    ) -> Result<(), JitError> {
        if ty.is_float() {
            self.emit(MInst::FloatOp {
                op: Self::fpu_of(op)?,
                double: ty == ScalarType::F64,
                dst,
                lhs,
                rhs,
            });
        } else {
            self.emit(MInst::IntOp {
                op: Self::alu_of(op),
                width: width_of(ty),
                signed: ty.is_signed(),
                dst,
                lhs,
                rhs,
            });
        }
        Ok(())
    }

    fn lower_inst(&mut self, inst: &Inst) -> Result<(), JitError> {
        match inst {
            Inst::Const { dst, ty, imm } => {
                let d = self.scalar_reg(*dst)?;
                if ty.is_float() {
                    // Canonicalize even for modules whose constants were not
                    // rounded at build time: an FImm of single type must
                    // hold an f32-representable value.
                    self.emit(MInst::FImm {
                        dst: d,
                        value: ty.canonicalize_float(imm.as_f64()),
                    });
                } else {
                    self.emit(MInst::Imm {
                        dst: d,
                        value: splitc_vbc::normalize_int(*ty, imm.as_i64()),
                    });
                }
            }
            Inst::Move { dst, src, .. } => {
                let d = self.scalar_reg(*dst)?;
                let s = self.scalar_reg(*src)?;
                self.emit(MInst::Mov { dst: d, src: s });
            }
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let d = self.scalar_reg(*dst)?;
                let l = self.scalar_reg(*lhs)?;
                let r = self.scalar_reg(*rhs)?;
                self.scalar_bin(*op, *ty, d, l, r)?;
            }
            Inst::Un { op, ty, dst, src } => {
                let d = self.scalar_reg(*dst)?;
                let s = self.scalar_reg(*src)?;
                match (op, ty.is_float()) {
                    (UnOp::Neg, true) => self.emit(MInst::FloatNeg {
                        double: *ty == ScalarType::F64,
                        dst: d,
                        src: s,
                    }),
                    (UnOp::Neg, false) => self.emit(MInst::IntNeg {
                        width: width_of(*ty),
                        dst: d,
                        src: s,
                    }),
                    (UnOp::Not, _) => self.emit(MInst::IntNot {
                        width: width_of(*ty),
                        dst: d,
                        src: s,
                    }),
                }
            }
            Inst::Cmp {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let d = self.scalar_reg(*dst)?;
                let l = self.scalar_reg(*lhs)?;
                let r = self.scalar_reg(*rhs)?;
                if ty.is_float() {
                    self.emit(MInst::FloatCmp {
                        pred: Self::pred_of(*op),
                        double: *ty == ScalarType::F64,
                        dst: d,
                        lhs: l,
                        rhs: r,
                    });
                } else {
                    self.emit(MInst::IntCmp {
                        pred: Self::pred_of(*op),
                        width: width_of(*ty),
                        signed: ty.is_signed(),
                        dst: d,
                        lhs: l,
                        rhs: r,
                    });
                }
            }
            Inst::Cast { dst, to, src, from } => {
                let d = self.scalar_reg(*dst)?;
                let s = self.scalar_reg(*src)?;
                match (from.is_float(), to.is_float()) {
                    (false, false) => self.emit(MInst::IntResize {
                        width: width_of(*to),
                        signed: to.is_signed(),
                        dst: d,
                        src: s,
                    }),
                    (false, true) => self.emit(MInst::IntToFloat {
                        signed: from.is_signed(),
                        double: *to == ScalarType::F64,
                        dst: d,
                        src: s,
                    }),
                    (true, false) => self.emit(MInst::FloatToInt {
                        width: width_of(*to),
                        signed: to.is_signed(),
                        dst: d,
                        src: s,
                    }),
                    (true, true) => self.emit(MInst::FloatCvt {
                        to_double: *to == ScalarType::F64,
                        dst: d,
                        src: s,
                    }),
                }
            }
            Inst::Load {
                dst,
                ty,
                addr,
                offset,
            } => {
                let d = self.scalar_reg(*dst)?;
                let a = self.scalar_reg(*addr)?;
                self.emit(MInst::Load {
                    width: width_of(*ty),
                    float: ty.is_float(),
                    signed: ty.is_signed(),
                    dst: d,
                    base: a,
                    offset: *offset,
                });
            }
            Inst::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                let a = self.scalar_reg(*addr)?;
                let v = self.scalar_reg(*value)?;
                self.emit(MInst::Store {
                    width: width_of(*ty),
                    float: ty.is_float(),
                    base: a,
                    offset: *offset,
                    src: v,
                });
            }
            Inst::Call { dst, site } => {
                let ret = match dst {
                    Some(d) => Some(self.scalar_reg(*d)?),
                    None => None,
                };
                let mut margs = Vec::with_capacity(site.args.len());
                for a in &site.args {
                    margs.push(self.scalar_reg(*a)?);
                }
                self.emit(MInst::call(site.callee.as_str(), margs, ret));
            }
            Inst::VecWidth { dst, elem } => {
                // This is where the online compiler resolves the portable lane
                // count: a plain constant for this target.
                let d = self.scalar_reg(*dst)?;
                self.emit(MInst::Imm {
                    dst: d,
                    value: self.lane_count(*elem) as i64,
                });
            }
            Inst::VecSplat { dst, elem, src } => {
                let s = self.scalar_reg(*src)?;
                if self.use_simd {
                    let d = self.vec_reg(*dst)?;
                    if elem.is_float() {
                        self.emit(MInst::VecSplatFloat {
                            elem: width_of(*elem),
                            dst: d,
                            src: s,
                        });
                    } else {
                        self.emit(MInst::VecSplatInt {
                            elem: width_of(*elem),
                            dst: d,
                            src: s,
                        });
                    }
                } else {
                    let lanes = self.lane_regs(*dst, *elem)?;
                    for lane in lanes.iter() {
                        self.emit(MInst::Mov { dst: lane, src: s });
                    }
                }
            }
            Inst::VecLoad {
                dst,
                elem,
                addr,
                offset,
            } => {
                let a = self.scalar_reg(*addr)?;
                if self.use_simd {
                    let d = self.vec_reg(*dst)?;
                    self.emit(MInst::VecLoad {
                        dst: d,
                        base: a,
                        offset: *offset,
                    });
                } else {
                    let lanes = self.lane_regs(*dst, *elem)?;
                    for (i, lane) in lanes.iter().enumerate() {
                        self.emit(MInst::Load {
                            width: width_of(*elem),
                            float: elem.is_float(),
                            signed: elem.is_signed(),
                            dst: lane,
                            base: a,
                            offset: *offset + (i as i64) * elem.size_bytes() as i64,
                        });
                    }
                }
            }
            Inst::VecStore {
                elem,
                addr,
                offset,
                value,
            } => {
                let a = self.scalar_reg(*addr)?;
                if self.use_simd {
                    let v = self.vec_reg(*value)?;
                    self.emit(MInst::VecStore {
                        base: a,
                        offset: *offset,
                        src: v,
                    });
                } else {
                    let lanes = self.lane_regs(*value, *elem)?;
                    for (i, lane) in lanes.iter().enumerate() {
                        self.emit(MInst::Store {
                            width: width_of(*elem),
                            float: elem.is_float(),
                            base: a,
                            offset: *offset + (i as i64) * elem.size_bytes() as i64,
                            src: lane,
                        });
                    }
                }
            }
            Inst::VecBin {
                op,
                elem,
                dst,
                lhs,
                rhs,
            } => {
                if self.use_simd {
                    let d = self.vec_reg(*dst)?;
                    let l = self.vec_reg(*lhs)?;
                    let r = self.vec_reg(*rhs)?;
                    if elem.is_float() {
                        self.emit(MInst::VecFloatOp {
                            op: Self::fpu_of(*op)?,
                            elem: width_of(*elem),
                            dst: d,
                            lhs: l,
                            rhs: r,
                        });
                    } else {
                        self.emit(MInst::VecIntOp {
                            op: Self::alu_of(*op),
                            elem: width_of(*elem),
                            signed: elem.is_signed(),
                            dst: d,
                            lhs: l,
                            rhs: r,
                        });
                    }
                } else {
                    let l = self.lane_regs(*lhs, *elem)?;
                    let r = self.lane_regs(*rhs, *elem)?;
                    let d = self.lane_regs(*dst, *elem)?;
                    for i in 0..d.count {
                        self.scalar_bin(*op, *elem, d.get(i), l.get(i), r.get(i))?;
                    }
                }
            }
            Inst::VecReduce { op, elem, dst, src } => {
                let d = self.scalar_reg(*dst)?;
                if self.use_simd {
                    let s = self.vec_reg(*src)?;
                    if elem.is_float() {
                        self.emit(MInst::VecReduceFloat {
                            op: Self::red_of(*op),
                            elem: width_of(*elem),
                            dst: d,
                            src: s,
                        });
                    } else {
                        self.emit(MInst::VecReduceInt {
                            op: Self::red_of(*op),
                            elem: width_of(*elem),
                            signed: elem.is_signed(),
                            dst: d,
                            src: s,
                        });
                    }
                } else {
                    let lanes = self.lane_regs(*src, *elem)?;
                    self.emit(MInst::Mov {
                        dst: d,
                        src: lanes.get(0),
                    });
                    for lane in lanes.iter().skip(1) {
                        self.scalar_bin(op.as_bin_op(), *elem, d, d, lane)?;
                    }
                }
            }
            Inst::Jump { target } => self.emit(MInst::Jump { target: target.0 }),
            Inst::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.scalar_reg(*cond)?;
                self.emit(MInst::BranchNz {
                    cond: c,
                    then_target: then_bb.0,
                    else_target: else_bb.0,
                });
            }
            Inst::Ret { value } => {
                let v = match value {
                    Some(r) => Some(self.scalar_reg(*r)?),
                    None => None,
                };
                self.emit(MInst::Ret { value: v });
            }
        }
        Ok(())
    }
}

/// Lower one bytecode function to virtual machine code for `target`, into
/// `vf`, whose tables are cleared first.
///
/// `use_simd` selects between direct SIMD mapping and scalarization of the
/// portable vector builtins; it must only be `true` when the target has a
/// vector unit.
pub(crate) fn lower_function(
    vf: &mut VirtualFunc,
    func: &Function,
    target: &TargetDesc,
    use_simd: bool,
) -> Result<(), JitError> {
    vf.vbc_map.clear();
    vf.vbc_map.resize(func.num_vregs(), None);
    vf.lanes.clear();
    vf.lanes
        .resize(if use_simd { 0 } else { func.num_vregs() }, None);
    vf.insts.clear();
    vf.bounds.clear();
    vf.counts = [0; 3];
    vf.emitted = 0;
    let mut low = Lowerer {
        func,
        target,
        use_simd,
        out: vf,
    };
    // Parameters first, so they occupy the first virtual registers.
    let mut params = Vec::with_capacity(func.params.len());
    for (reg, ty) in &func.params {
        if ty.is_vector() {
            return Err(JitError::Internal(format!(
                "function {} has a vector-typed parameter",
                func.name
            )));
        }
        params.push(low.scalar_reg(*reg)?);
    }
    for block in &func.blocks {
        low.out.bounds.push(low.out.insts.len());
        for inst in &block.insts {
            low.lower_inst(inst)?;
        }
    }
    vf.bounds.push(vf.insts.len());
    vf.params = params;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;
    use splitc_opt::{optimize_module, OptOptions};

    fn lowered(f: &Function, target: &TargetDesc, use_simd: bool) -> VirtualFunc {
        let mut vf = VirtualFunc::default();
        lower_function(&mut vf, f, target, use_simd).unwrap();
        vf
    }

    fn saxpy_module(vectorized: bool) -> splitc_vbc::Module {
        let mut m = compile_source(
            "fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
            }",
            "k",
        )
        .unwrap();
        if vectorized {
            optimize_module(&mut m, &OptOptions::full());
        }
        m
    }

    #[test]
    fn scalar_code_lowers_one_to_one_blocks() {
        let m = saxpy_module(false);
        let f = m.function("saxpy").unwrap();
        let target = TargetDesc::x86_sse();
        let vf = lowered(f, &target, true);
        assert_eq!(vf.num_blocks(), f.blocks.len());
        assert_eq!(vf.params.len(), 4);
        assert!(vf.emitted as usize >= f.num_insts());
        // No vector machine instructions in scalar bytecode.
        assert!(vf.insts.iter().all(|i| !i.is_vector()));
    }

    #[test]
    fn simd_target_maps_builtins_to_vector_instructions() {
        let m = saxpy_module(true);
        let f = m.function("saxpy").unwrap();
        let target = TargetDesc::x86_sse();
        let vf = lowered(f, &target, true);
        assert!(vf.insts.iter().any(|i| i.is_vector()));
        // The portable lane count folded to 4 (16 bytes / f32).
        assert!(vf
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Imm { value: 4, .. })));
    }

    #[test]
    fn scalar_only_target_scalarizes_with_unrolled_lanes() {
        let m = saxpy_module(true);
        let f = m.function("saxpy").unwrap();
        let target = TargetDesc::ultrasparc();
        let vf = lowered(f, &target, false);
        // No vector machine instructions may appear...
        assert!(vf.insts.iter().all(|i| !i.is_vector()));
        // ...but the vector body is unrolled: more machine instructions than
        // the SIMD lowering of the same bytecode.
        let simd = lowered(f, &TargetDesc::x86_sse(), true);
        assert!(vf.emitted > simd.emitted);
        // The scalarization factor still shows up as the lane-count constant.
        assert!(vf
            .insts
            .iter()
            .any(|i| matches!(i, MInst::Imm { value: 4, .. })));
    }

    #[test]
    fn blocks_are_bounds_into_one_buffer() {
        // With SIMD (one machine instruction each) and scalarized (one per
        // lane), every emitted instruction is in the buffer, block by block.
        let m = saxpy_module(true);
        let f = m.function("saxpy").unwrap();
        for (target, use_simd) in [
            (TargetDesc::x86_sse(), true),
            (TargetDesc::ultrasparc(), false),
        ] {
            let vf = lowered(f, &target, use_simd);
            assert_eq!(vf.insts.len() as u64, vf.emitted, "{}", target.name);
            assert_eq!(vf.bounds.first(), Some(&0));
            assert_eq!(vf.bounds.last(), Some(&vf.insts.len()));
            assert!(vf.bounds.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn a_reused_buffer_lowers_each_function_as_a_fresh_one() {
        let m = saxpy_module(true);
        let f = m.function("saxpy").unwrap();
        let target = TargetDesc::ultrasparc();
        let mut vf = lowered(f, &target, false);
        let fresh = (vf.insts.clone(), vf.bounds.clone(), vf.vbc_map.clone());
        let add = compile_source("fn add(a: i32, b: i32) -> i32 { return a + b; }", "k").unwrap();
        let add = add.function("add").unwrap();
        lower_function(&mut vf, add, &target, false).unwrap();
        assert_eq!(vf.insts.len() as u64, vf.emitted);
        assert_eq!((vf.params.len(), vf.num_blocks()), (2, add.blocks.len()));
        // Lowered again, the function needs no more room than it had.
        let capacity = vf.insts.capacity();
        lower_function(&mut vf, f, &target, false).unwrap();
        assert_eq!(vf.insts.capacity(), capacity);
        assert_eq!((vf.insts, vf.bounds, vf.vbc_map), fresh);
    }

    #[test]
    fn u8_kernels_scalarize_to_sixteen_lanes() {
        let mut m = compile_source(
            "fn max_u8(n: i32, x: *u8) -> u8 {
                let mx: u8 = 0;
                for (let i: i32 = 0; i < n; i = i + 1) { mx = max(mx, x[i]); }
                return mx;
            }",
            "k",
        )
        .unwrap();
        optimize_module(&mut m, &OptOptions::full());
        let f = m.function("max_u8").unwrap();
        let vf = lowered(f, &TargetDesc::powerpc(), false);
        // 16 u8 lanes -> at least 16 scalar loads in the unrolled vector body.
        let loads = vf
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    MInst::Load {
                        width: Width::W8,
                        ..
                    }
                )
            })
            .count();
        assert!(
            loads >= 17,
            "16 unrolled lanes plus the scalar epilogue, got {loads}"
        );
    }
}
