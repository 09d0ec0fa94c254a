//! Operand access over the virtual machine code used inside the online compiler.
//!
//! The lowering phase produces machine instructions whose register indices are
//! *virtual* (unbounded); the register assignment phase then rewrites them to
//! the target's physical registers. This module provides the two walks that
//! rewrite needs, without allocating: one reads an instruction's operands
//! (uses handed to a visitor in operand order, the definition returned), one
//! writes the assigned registers back; a `Call`'s argument list is walked
//! where it lies.

use splitc_targets::{minst_shapes, MInst, PReg};

/// Hand `$x`, a field of role `$role` bound by reference, to `$f` once per
/// register it reads, as a `PReg`.
macro_rules! visit_use {
    (use $x:ident $f:ident) => {
        $f(*$x)
    };
    (ouse $x:ident $f:ident) => {
        if let Some(r) = $x {
            $f(*r)
        }
    };
    (call $x:ident $f:ident) => {
        for r in &$x.args {
            $f(*r)
        }
    };
    ($other:ident $x:ident $f:ident) => {};
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

/// Store into `$x`, a field of role `$role` bound by `&mut`: the next of
/// `$uses` (a slice, cursor `$k`) if it is read, the index `$def` if it is
/// the definition.
macro_rules! write_operand {
    (def $x:ident $uses:ident $k:ident $def:ident) => {
        $x.index = $def
    };
    (odef $x:ident $uses:ident $k:ident $def:ident) => {
        if let Some(r) = $x {
            r.index = $def;
        }
    };
    (use $x:ident $uses:ident $k:ident $def:ident) => {{
        *$x = $uses[$k];
        $k += 1;
    }};
    (ouse $x:ident $uses:ident $k:ident $def:ident) => {
        if let Some(r) = $x {
            *r = $uses[$k];
            $k += 1;
        }
    };
    (call $x:ident $uses:ident $k:ident $def:ident) => {
        for r in &mut $x.args {
            *r = $uses[$k];
            $k += 1;
        }
    };
    (val $x:ident $uses:ident $k:ident $def:ident) => {};
}

/// The two walks, generated from the rows of `minst_shapes!`: uses are
/// visited in row (= operand) order.
macro_rules! walks {
    ($($tag:literal $variant:ident {
        $($role:ident $(($($class:tt)+))? $field:ident),*
    })*) => {
        /// Hand every register `inst` reads to `f`, in operand order, and
        /// return the register it defines, if any.
        #[allow(unused_variables)]
        pub(crate) fn operands(inst: &MInst, mut f: impl FnMut(PReg)) -> Option<PReg> {
            match inst {
                $(MInst::$variant { $($field),* } => {
                    let found: Option<PReg> = None;
                    $(visit_use!($role $field f);)*
                    $(let found = or_def!($role $field found);)*
                    found
                })*
            }
        }

        /// Rewrite `inst`'s operands in place: the registers it reads
        /// become `uses`, in operand order (one per use), and the register
        /// it defines, if any, keeps its class and takes index `def`.
        #[allow(unused_variables, unused_mut, unused_assignments)]
        pub(crate) fn write_operands(inst: &mut MInst, uses: &[PReg], def: u16) {
            let mut k = 0;
            match inst {
                $(MInst::$variant { $($field),* } => {
                    $(write_operand!($role $field uses k def);)*
                })*
            }
            debug_assert_eq!(k, uses.len(), "one register per use operand");
        }
    };
}
minst_shapes!(walks);

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_targets::{AluOp, Width};

    fn uses(inst: &MInst) -> Vec<PReg> {
        let mut out = Vec::new();
        operands(inst, |r| out.push(r));
        out
    }

    fn def(inst: &MInst) -> Option<PReg> {
        operands(inst, |_| {})
    }

    /// One instance of every `MInst` variant with every register operand
    /// distinct, beside the registers it reads (in operand order) and the one
    /// it defines.
    fn every_variant() -> Vec<(MInst, Vec<PReg>, Option<PReg>)> {
        use splitc_targets::{CmpPred, FpuOp, RedOp};
        let (r, f, v) = (PReg::int, PReg::float, PReg::vec);
        let (w, yes) = (Width::W32, true);
        let (dst, src, lhs, rhs) = (r(1), r(2), r(3), r(4));
        vec![
            (MInst::Imm { dst, value: -7 }, vec![], Some(dst)),
            (
                MInst::FImm {
                    dst: f(1),
                    value: 0.5,
                },
                vec![],
                Some(f(1)),
            ),
            (MInst::Mov { dst, src }, vec![src], Some(dst)),
            (
                MInst::IntOp {
                    op: AluOp::Sub,
                    width: w,
                    signed: yes,
                    dst,
                    lhs,
                    rhs,
                },
                vec![lhs, rhs],
                Some(dst),
            ),
            (
                MInst::FloatOp {
                    op: FpuOp::Div,
                    double: yes,
                    dst: f(1),
                    lhs: f(3),
                    rhs: f(4),
                },
                vec![f(3), f(4)],
                Some(f(1)),
            ),
            (MInst::IntNeg { width: w, dst, src }, vec![src], Some(dst)),
            (MInst::IntNot { width: w, dst, src }, vec![src], Some(dst)),
            (
                MInst::FloatNeg {
                    double: yes,
                    dst: f(1),
                    src: f(2),
                },
                vec![f(2)],
                Some(f(1)),
            ),
            (
                MInst::IntCmp {
                    pred: CmpPred::Lt,
                    width: w,
                    signed: yes,
                    dst,
                    lhs,
                    rhs,
                },
                vec![lhs, rhs],
                Some(dst),
            ),
            (
                MInst::FloatCmp {
                    pred: CmpPred::Ge,
                    double: yes,
                    dst,
                    lhs: f(3),
                    rhs: f(4),
                },
                vec![f(3), f(4)],
                Some(dst),
            ),
            (
                MInst::IntToFloat {
                    signed: yes,
                    double: yes,
                    dst: f(1),
                    src,
                },
                vec![src],
                Some(f(1)),
            ),
            (
                MInst::FloatToInt {
                    width: w,
                    signed: yes,
                    dst,
                    src: f(2),
                },
                vec![f(2)],
                Some(dst),
            ),
            (
                MInst::FloatCvt {
                    to_double: yes,
                    dst: f(1),
                    src: f(2),
                },
                vec![f(2)],
                Some(f(1)),
            ),
            (
                MInst::IntResize {
                    width: w,
                    signed: yes,
                    dst,
                    src,
                },
                vec![src],
                Some(dst),
            ),
            (
                MInst::Load {
                    width: w,
                    float: yes,
                    signed: false,
                    dst: f(1),
                    base: r(8),
                    offset: 16,
                },
                vec![r(8)],
                Some(f(1)),
            ),
            (
                MInst::Store {
                    width: w,
                    float: yes,
                    base: r(8),
                    offset: -16,
                    src: f(2),
                },
                vec![r(8), f(2)],
                None,
            ),
            (
                MInst::VecLoad {
                    dst: v(1),
                    base: r(8),
                    offset: 32,
                },
                vec![r(8)],
                Some(v(1)),
            ),
            (
                MInst::VecStore {
                    base: r(8),
                    offset: 32,
                    src: v(2),
                },
                vec![r(8), v(2)],
                None,
            ),
            (
                MInst::VecSplatInt {
                    elem: w,
                    dst: v(1),
                    src,
                },
                vec![src],
                Some(v(1)),
            ),
            (
                MInst::VecSplatFloat {
                    elem: w,
                    dst: v(1),
                    src: f(2),
                },
                vec![f(2)],
                Some(v(1)),
            ),
            (
                MInst::VecIntOp {
                    op: AluOp::Max,
                    elem: w,
                    signed: yes,
                    dst: v(1),
                    lhs: v(3),
                    rhs: v(4),
                },
                vec![v(3), v(4)],
                Some(v(1)),
            ),
            (
                MInst::VecFloatOp {
                    op: FpuOp::Mul,
                    elem: w,
                    dst: v(1),
                    lhs: v(3),
                    rhs: v(4),
                },
                vec![v(3), v(4)],
                Some(v(1)),
            ),
            (
                MInst::VecReduceInt {
                    op: RedOp::Min,
                    elem: w,
                    signed: yes,
                    dst,
                    src: v(2),
                },
                vec![v(2)],
                Some(dst),
            ),
            (
                MInst::VecReduceFloat {
                    op: RedOp::Add,
                    elem: w,
                    dst: f(1),
                    src: v(2),
                },
                vec![v(2)],
                Some(f(1)),
            ),
            (MInst::Spill { slot: 3, src }, vec![src], None),
            (MInst::Reload { slot: 3, dst }, vec![], Some(dst)),
            (MInst::Jump { target: 2 }, vec![], None),
            (
                MInst::BranchNz {
                    cond: r(5),
                    then_target: 1,
                    else_target: 2,
                },
                vec![r(5)],
                None,
            ),
            (
                MInst::call("g", vec![r(9), f(9), r(2)], Some(f(1))),
                vec![r(9), f(9), r(2)],
                Some(f(1)),
            ),
            (MInst::call("g", vec![], None), vec![], None),
            (MInst::Ret { value: Some(f(2)) }, vec![f(2)], None),
            (MInst::Ret { value: None }, vec![], None),
        ]
    }

    #[test]
    fn every_variant_reports_its_uses_in_operand_order_and_its_definition() {
        let table = every_variant();
        let kinds: std::collections::HashSet<_> = table
            .iter()
            .map(|(inst, ..)| std::mem::discriminant(inst))
            .collect();
        assert_eq!(kinds.len(), 30, "one row per MInst variant");
        for (inst, reads, defines) in table {
            assert_eq!(uses(&inst), reads, "{inst:?}");
            assert_eq!(def(&inst), defines, "{inst:?}");
            // The writing walk stores the uses in the same order, and the
            // definition's index only.
            let moved: Vec<PReg> = reads
                .iter()
                .map(|r| PReg {
                    index: r.index + 100,
                    ..*r
                })
                .collect();
            let mut rewritten = inst.clone();
            write_operands(&mut rewritten, &moved, 77);
            assert_eq!(uses(&rewritten), moved, "{inst:?}");
            assert_eq!(
                def(&rewritten),
                defines.map(|d| PReg { index: 77, ..d }),
                "{inst:?}"
            );
        }
    }

    #[test]
    fn def_use_and_rewrite_cover_alu() {
        let mut i = MInst::IntOp {
            op: AluOp::Add,
            width: Width::W32,
            signed: true,
            dst: PReg::int(0),
            lhs: PReg::int(1),
            rhs: PReg::int(2),
        };
        assert_eq!(def(&i), Some(PReg::int(0)));
        assert_eq!(uses(&i), vec![PReg::int(1), PReg::int(2)]);
        write_operands(&mut i, &[PReg::int(11), PReg::int(12)], 5);
        assert_eq!(def(&i), Some(PReg::int(5)));
        assert_eq!(uses(&i), vec![PReg::int(11), PReg::int(12)]);
    }

    #[test]
    fn stores_and_branches_have_no_defs() {
        let mut s = MInst::Store {
            width: Width::W32,
            float: true,
            base: PReg::int(0),
            offset: 0,
            src: PReg::float(1),
        };
        assert_eq!(def(&s), None);
        assert_eq!(uses(&s), vec![PReg::int(0), PReg::float(1)]);
        write_operands(&mut s, &[PReg::int(3), PReg::float(4)], 9);
        assert_eq!(uses(&s), vec![PReg::int(3), PReg::float(4)]);
        assert_eq!(def(&s), None);
        let b = MInst::BranchNz {
            cond: PReg::int(3),
            then_target: 1,
            else_target: 2,
        };
        assert_eq!(def(&b), None);
        assert_eq!(uses(&b), vec![PReg::int(3)]);
        assert_eq!(uses(&MInst::Ret { value: None }), vec![]);
    }

    #[test]
    fn calls_use_args_and_define_ret() {
        let mut c = MInst::call(
            "g",
            vec![PReg::int(1), PReg::float(0)],
            Some(PReg::float(2)),
        );
        assert_eq!(def(&c), Some(PReg::float(2)));
        assert_eq!(uses(&c).len(), 2);
        write_operands(&mut c, &[PReg::int(2), PReg::float(1)], 7);
        assert_eq!(uses(&c), vec![PReg::int(2), PReg::float(1)]);
        assert_eq!(def(&c), Some(PReg::float(7)));
    }
}
