//! Constant folding and conservative copy propagation.
//!
//! These are classical "cheap" optimizations that the offline compiler runs so
//! that the JIT does not have to; they also clean up the address-arithmetic
//! chains produced by the front end before vectorization.
//!
//! Layout: a round needs how many times each register is defined, and its
//! single-definition constants and copies: three register-indexed arrays,
//! `defs`, `consts` and `copies`, allocated once per run and refilled in
//! place every round and, in [`fold_module`], for every function. An instruction is rewritten in place, and counted as
//! propagated when a register it reads changed.

use splitc_vbc::{
    eval_bin, eval_cast, eval_cmp, Function, Immediate, Inst, Module, ScalarType, VReg, Value,
};

/// Statistics of one folding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Instructions replaced by constants.
    pub folded: usize,
    /// Register operands rewritten by copy propagation.
    pub copies_propagated: usize,
}

fn const_value(inst: &Inst) -> Option<(ScalarType, Value)> {
    if let Inst::Const { ty, imm, .. } = inst {
        let v = if ty.is_float() {
            Value::Float(imm.as_f64())
        } else {
            Value::Int(splitc_vbc::normalize_int(*ty, imm.as_i64()))
        };
        Some((*ty, v))
    } else {
        None
    }
}

fn value_to_imm(ty: ScalarType, v: &Value) -> Immediate {
    if ty.is_float() {
        Immediate::Float(v.as_float())
    } else {
        Immediate::Int(v.as_int())
    }
}

/// Fold constants and propagate single-definition copies within one function.
///
/// Folding is conservative for the non-SSA form: an instruction is only folded
/// when every operand register has a *single* definition in the whole function
/// and that definition is a constant.
pub fn fold_function(f: &mut Function) -> FoldStats {
    Folder::default().fold(f)
}

/// The tables of a folding run, reused from one function to the next.
#[derive(Default)]
struct Folder {
    /// How many instructions define each register.
    defs: Vec<u32>,
    /// Register -> its constant value, for single-def constants.
    consts: Vec<Option<(ScalarType, Value)>>,
    /// Register -> replacement register, for single-def copies of single-def
    /// sources.
    copies: Vec<Option<VReg>>,
}

impl Folder {
    fn fold(&mut self, f: &mut Function) -> FoldStats {
        let Folder {
            defs,
            consts,
            copies,
        } = self;
        let mut stats = FoldStats::default();
        loop {
            defs.clear();
            defs.resize(f.num_vregs(), 0);
            for d in f.blocks.iter().flat_map(|b| &b.insts).filter_map(Inst::dst) {
                defs[d.index()] += 1;
            }
            consts.clear();
            consts.resize(f.num_vregs(), None);
            copies.clear();
            copies.resize(f.num_vregs(), None);
            let mut num_copies = 0;
            for block in &f.blocks {
                for inst in &block.insts {
                    if let Some(dst) = inst.dst() {
                        if defs[dst.index()] == 1 {
                            if let Some(cv) = const_value(inst) {
                                consts[dst.index()] = Some(cv);
                            } else if let Inst::Move { src, .. } = inst {
                                if defs[src.index()] <= 1 {
                                    copies[dst.index()] = Some(*src);
                                    num_copies += 1;
                                }
                            }
                        }
                    }
                }
            }
            // Resolve copy chains (a -> b -> c becomes a -> c).
            let resolve = |mut r: VReg| {
                let mut hops = 0;
                while let Some(next) = copies[r.index()] {
                    r = next;
                    hops += 1;
                    if hops > num_copies {
                        break;
                    }
                }
                r
            };
            let constant = |r: &VReg| consts[r.index()].as_ref().map(|(_, v)| v);

            let mut changed = 0usize;
            let mut propagated = 0usize;
            for block in &mut f.blocks {
                for inst in &mut block.insts {
                    // Copy propagation: rewrite used registers to their sources.
                    let dst = inst.dst();
                    let mut rewritten = false;
                    inst.rewrite_regs(|r| {
                        if Some(r) == dst {
                            r
                        } else {
                            let to = resolve(r);
                            rewritten |= to != r;
                            to
                        }
                    });
                    if rewritten {
                        propagated += 1;
                    }

                    // Constant folding.
                    let folded: Option<Inst> = match &*inst {
                        Inst::Bin {
                            op,
                            ty,
                            dst,
                            lhs,
                            rhs,
                        } => match (constant(lhs), constant(rhs)) {
                            (Some(a), Some(b)) => {
                                eval_bin(*op, *ty, a, b).ok().map(|v| Inst::Const {
                                    dst: *dst,
                                    ty: *ty,
                                    imm: value_to_imm(*ty, &v),
                                })
                            }
                            _ => None,
                        },
                        Inst::Cmp {
                            op,
                            ty,
                            dst,
                            lhs,
                            rhs,
                        } => match (constant(lhs), constant(rhs)) {
                            (Some(a), Some(b)) => Some(Inst::Const {
                                dst: *dst,
                                ty: ScalarType::I32,
                                imm: Immediate::Int(eval_cmp(*op, *ty, a, b)),
                            }),
                            _ => None,
                        },
                        Inst::Cast { dst, to, src, from } => constant(src).map(|v| {
                            let out = eval_cast(*from, *to, v);
                            Inst::Const {
                                dst: *dst,
                                ty: *to,
                                imm: value_to_imm(*to, &out),
                            }
                        }),
                        _ => None,
                    };
                    // A folded instruction is a `const` now, never what it was.
                    if let Some(new_inst) = folded {
                        *inst = new_inst;
                        changed += 1;
                    }
                }
            }
            stats.folded += changed;
            stats.copies_propagated += propagated;
            if changed == 0 && propagated == 0 {
                break;
            }
        }
        stats
    }
}

/// Run [`fold_function`] over every function of a module.
pub fn fold_module(m: &mut Module) -> FoldStats {
    let mut total = FoldStats::default();
    let mut folder = Folder::default();
    for f in m.functions_mut() {
        let s = folder.fold(f);
        total.folded += s.folded;
        total.copies_propagated += s.copies_propagated;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{BinOp, CmpOp, FunctionBuilder, ScalarType, Type, VReg};

    #[test]
    fn folds_constant_arithmetic_chains() {
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        let two = b.const_int(ScalarType::I32, 2);
        let three = b.const_int(ScalarType::I32, 3);
        let six = b.bin(BinOp::Mul, ScalarType::I32, two, three);
        let seven = b.const_int(ScalarType::I32, 7);
        let result = b.bin(BinOp::Add, ScalarType::I32, six, seven);
        b.ret(Some(result));
        let mut f = b.finish();
        let stats = fold_function(&mut f);
        assert!(stats.folded >= 2);
        // The final add must now be a constant 13.
        let last_def = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(result))
            .unwrap();
        assert!(matches!(
            last_def,
            Inst::Const {
                imm: Immediate::Int(13),
                ..
            }
        ));
    }

    #[test]
    fn folds_comparisons_and_casts() {
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        let x = b.const_int(ScalarType::I32, 5);
        let y = b.const_int(ScalarType::I32, 9);
        let c = b.cmp(CmpOp::Lt, ScalarType::I32, x, y);
        let wide = b.cast(ScalarType::I32, ScalarType::I64, y);
        let _ = wide;
        b.ret(Some(c));
        let mut f = b.finish();
        fold_function(&mut f);
        let cdef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(c))
            .unwrap();
        assert!(matches!(
            cdef,
            Inst::Const {
                imm: Immediate::Int(1),
                ..
            }
        ));
        let wdef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(wide))
            .unwrap();
        assert!(matches!(
            wdef,
            Inst::Const {
                ty: ScalarType::I64,
                imm: Immediate::Int(9),
                ..
            }
        ));
    }

    #[test]
    fn propagates_single_def_copies() {
        let mut b = FunctionBuilder::new(
            "f",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = b.param(0);
        let copy = b.mov(ScalarType::I32, x);
        let y = b.bin(BinOp::Add, ScalarType::I32, copy, copy);
        b.ret(Some(y));
        let mut f = b.finish();
        let stats = fold_function(&mut f);
        assert!(stats.copies_propagated > 0);
        let ydef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(y))
            .unwrap();
        assert_eq!(ydef.uses(), vec![x, x]);
    }

    #[test]
    fn multi_def_registers_are_left_alone() {
        // A register assigned twice must not be treated as a constant.
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        let t = b.new_vreg(ScalarType::I32);
        let one = b.const_int(ScalarType::I32, 1);
        let two = b.const_int(ScalarType::I32, 2);
        b.push(Inst::Move {
            dst: t,
            ty: ScalarType::I32,
            src: one,
        });
        b.push(Inst::Move {
            dst: t,
            ty: ScalarType::I32,
            src: two,
        });
        let r = b.bin(BinOp::Add, ScalarType::I32, t, t);
        b.ret(Some(r));
        let mut f = b.finish();
        fold_function(&mut f);
        let rdef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(r))
            .unwrap();
        assert!(
            matches!(rdef, Inst::Bin { .. }),
            "must not fold through a multi-def register"
        );
        assert_eq!(rdef.uses(), vec![t, t]);
        let _ = VReg(0);
    }

    #[test]
    fn division_by_constant_zero_is_not_folded() {
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        let x = b.const_int(ScalarType::I32, 5);
        let z = b.const_int(ScalarType::I32, 0);
        let q = b.bin(BinOp::Div, ScalarType::I32, x, z);
        b.ret(Some(q));
        let mut f = b.finish();
        fold_function(&mut f);
        let qdef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(q))
            .unwrap();
        assert!(matches!(qdef, Inst::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn a_nan_constant_is_folded_once_and_folding_ends() {
        // `NaN != NaN`: an instruction compared with its own copy always
        // looked rewritten, so a folded NaN made every round change.
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::F32)));
        let z = b.const_float(ScalarType::F32, 0.0);
        let q = b.bin(BinOp::Div, ScalarType::F32, z, z);
        b.ret(Some(q));
        let mut f = b.finish();
        let stats = fold_function(&mut f);
        assert_eq!(stats.folded, 1);
        assert_eq!(stats.copies_propagated, 0);
        let qdef = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| i.dst() == Some(q))
            .unwrap();
        assert!(matches!(qdef, Inst::Const { imm: Immediate::Float(v), .. } if v.is_nan()));
    }
}
