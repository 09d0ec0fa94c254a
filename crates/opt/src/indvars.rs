//! Induction-variable and loop-bound analysis.
//!
//! This is part of the "expensive analysis" the paper wants to run offline:
//! recognizing counted loops (`for (i = 0; i < n; i += step)`) in the generic
//! CFG so that the vectorizer can rewrite them.

use crate::defuse::{inst_at, DefUse, InstPos};
use crate::loops::Loop;
use splitc_vbc::{BinOp, CmpOp, Function, Immediate, Inst, ScalarType, VReg};

/// A basic induction variable of a loop: `iv = iv + step` once per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InductionVar {
    /// The induction variable's register.
    pub reg: VReg,
    /// The scalar type of the induction variable.
    pub ty: ScalarType,
    /// The (constant) per-iteration step.
    pub step: i64,
    /// Position of the `move iv, tmp` update inside the loop.
    pub update_pos: InstPos,
    /// Position of the `tmp = add iv, step` instruction inside the loop.
    pub add_pos: InstPos,
}

/// The exit condition of a counted loop: `iv <cmp> bound` tested in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// The induction variable being tested.
    pub iv: VReg,
    /// The comparison predicate (`Lt` or `Le`).
    pub cmp: CmpOp,
    /// The loop-invariant bound register.
    pub bound: VReg,
    /// Block entered when the loop continues.
    pub continue_block: splitc_vbc::BlockId,
    /// Block entered when the loop exits.
    pub exit_block: splitc_vbc::BlockId,
}

/// `true` if every definition of `r` lies outside `l` (parameters and
/// constants defined before the loop count as invariant).
pub fn is_loop_invariant(l: &Loop<'_>, du: &DefUse, r: VReg) -> bool {
    du.defs(r).iter().all(|pos| !l.contains(pos.block)) || du.defs(r).is_empty()
}

/// Extract the constant value of `r` if its single definition is a `const`.
pub fn constant_of(f: &Function, du: &DefUse, r: VReg) -> Option<i64> {
    let pos = du.single_def(r)?;
    match inst_at(f, pos) {
        Inst::Const {
            imm: Immediate::Int(v),
            ..
        } => Some(*v),
        _ => None,
    }
}

/// Find the basic induction variables of loop `l`, in register order.
///
/// An induction variable is a register whose only definition inside the loop
/// is `move iv, tmp` where `tmp = add iv, c` (or `add c, iv`) with `c` a
/// compile-time constant.
pub fn induction_variables<'a>(
    f: &'a Function,
    l: Loop<'a>,
    du: &'a DefUse,
) -> impl Iterator<Item = InductionVar> + 'a {
    (0..f.num_vregs()).filter_map(move |reg_idx| {
        let reg = VReg(reg_idx as u32);
        let ty = match f.vreg_type(reg) {
            splitc_vbc::Type::Scalar(s) if s.is_int() && s != ScalarType::Ptr => s,
            _ => return None,
        };
        let mut defs_inside = du.defs(reg).iter().filter(|p| l.contains(p.block));
        let (Some(&update_pos), None) = (defs_inside.next(), defs_inside.next()) else {
            return None;
        };
        let Inst::Move { src, .. } = inst_at(f, update_pos) else {
            return None;
        };
        let add_pos = du.single_def(*src).filter(|p| l.contains(p.block))?;
        let Inst::Bin {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } = inst_at(f, add_pos)
        else {
            return None;
        };
        let step = if *lhs == reg {
            constant_of(f, du, *rhs)
        } else if *rhs == reg {
            constant_of(f, du, *lhs)
        } else {
            None
        }?;
        // The induction variable must be initialized outside the loop.
        if !du.defs(reg).iter().any(|p| !l.contains(p.block)) {
            return None;
        }
        Some(InductionVar {
            reg,
            ty,
            step,
            update_pos,
            add_pos,
        })
    })
}

/// Recognize the counted-loop exit condition in the header of `l`.
///
/// The supported shape (produced by the front end for `for`/`while` loops) is:
///
/// ```text
/// header:
///   %c = cmp.lt.<ty> %iv, %bound
///   branch %c, <body>, <exit>
/// ```
pub fn loop_bound(
    f: &Function,
    l: &Loop<'_>,
    du: &DefUse,
    ivs: &[InductionVar],
) -> Option<LoopBound> {
    let header = f.block(l.header);
    let Some(Inst::Branch {
        cond,
        then_bb,
        else_bb,
    }) = header.terminator()
    else {
        return None;
    };
    let cond_pos = du.single_def(*cond)?;
    if cond_pos.block != l.header {
        return None;
    }
    let Inst::Cmp { op, lhs, rhs, .. } = inst_at(f, cond_pos) else {
        return None;
    };
    // Normalize so that the induction variable is on the left.
    let (iv_reg, bound, cmp) = if ivs.iter().any(|iv| iv.reg == *lhs) {
        (*lhs, *rhs, *op)
    } else if ivs.iter().any(|iv| iv.reg == *rhs) {
        (*rhs, *lhs, op.swapped())
    } else {
        return None;
    };
    if !matches!(cmp, CmpOp::Lt | CmpOp::Le) {
        return None;
    }
    // The bound must either be defined outside the loop or be a constant that
    // the vectorizer can re-materialize in its new preheader.
    if !is_loop_invariant(l, du, bound) && constant_of(f, du, bound).is_none() {
        return None;
    }
    let (continue_block, exit_block) = if l.contains(*then_bb) && !l.contains(*else_bb) {
        (*then_bb, *else_bb)
    } else {
        return None;
    };
    Some(LoopBound {
        iv: iv_reg,
        cmp,
        bound,
        continue_block,
        exit_block,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::LoopForest;
    use splitc_minic::compile_source;

    fn analyze(src: &str, func: &str) -> (Function, LoopForest) {
        let m = compile_source(src, "t").unwrap();
        let f = m.function(func).unwrap().clone();
        let forest = LoopForest::compute(&f);
        (f, forest)
    }

    #[test]
    fn recognizes_unit_stride_counted_loop() {
        let (f, forest) = analyze(
            "fn k(n: i32, x: *f32) { for (let i: i32 = 0; i < n; i = i + 1) { x[i] = x[i] + 1.0; } }",
            "k",
        );
        let l = forest.innermost().next().unwrap();
        let du = DefUse::compute(&f);
        let ivs: Vec<_> = induction_variables(&f, l, &du).collect();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].step, 1);
        assert_eq!(ivs[0].ty, ScalarType::I32);
        let bound = loop_bound(&f, &l, &du, &ivs).expect("counted loop");
        assert_eq!(bound.iv, ivs[0].reg);
        assert_eq!(bound.cmp, CmpOp::Lt);
        assert!(is_loop_invariant(&l, &du, bound.bound));
    }

    #[test]
    fn recognizes_non_unit_steps() {
        let (f, forest) = analyze(
            "fn k(n: i32, x: *f32) { for (let i: i32 = 0; i < n; i = i + 4) { x[i] = 0.0; } }",
            "k",
        );
        let l = forest.innermost().next().unwrap();
        let du = DefUse::compute(&f);
        let ivs: Vec<_> = induction_variables(&f, l, &du).collect();
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].step, 4);
    }

    #[test]
    fn data_dependent_bound_or_update_is_rejected() {
        // i is updated by a loaded value: not a basic induction variable.
        let (f, forest) = analyze(
            "fn k(n: i32, x: *i32) { let i: i32 = 0; while (i < n) { i = i + x[i]; } }",
            "k",
        );
        let l = forest.innermost().next().unwrap();
        let du = DefUse::compute(&f);
        let ivs: Vec<_> = induction_variables(&f, l, &du).collect();
        assert!(ivs.is_empty());
        assert!(loop_bound(&f, &l, &du, &ivs).is_none());
    }

    #[test]
    fn accumulator_is_not_reported_as_induction_variable() {
        let (f, forest) = analyze(
            r#"
            fn k(n: i32, x: *f32) -> f32 {
                let s: f32 = 0.0;
                for (let i: i32 = 0; i < n; i = i + 1) { s = s + x[i]; }
                return s;
            }
            "#,
            "k",
        );
        let l = forest.innermost().next().unwrap();
        let du = DefUse::compute(&f);
        let ivs: Vec<_> = induction_variables(&f, l, &du).collect();
        assert_eq!(ivs.len(), 1, "only i, not the f32 accumulator");
        assert_eq!(ivs[0].ty, ScalarType::I32);
    }
}
