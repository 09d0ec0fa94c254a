//! Backward liveness dataflow analysis and register-pressure measurement.
//!
//! Liveness is the basis of the split register allocation experiment (E3):
//! the offline step measures, for every program point, which virtual registers
//! are simultaneously live and ranks them for spilling.

use crate::cfg::{predecessors, reverse_postorder};
use splitc_vbc::{BlockId, Function, VReg};
use std::collections::BTreeSet;

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    live_in: Vec<BTreeSet<VReg>>,
    live_out: Vec<BTreeSet<VReg>>,
}

impl Liveness {
    /// Compute liveness for `f` with a standard backward fixed-point iteration.
    pub fn compute(f: &Function) -> Self {
        let nblocks = f.blocks.len();
        let mut use_set = vec![BTreeSet::new(); nblocks];
        let mut def_set = vec![BTreeSet::new(); nblocks];
        for block in &f.blocks {
            let b = block.id.index();
            for inst in &block.insts {
                inst.for_each_use(|u| {
                    if !def_set[b].contains(&u) {
                        use_set[b].insert(u);
                    }
                });
                if let Some(d) = inst.dst() {
                    def_set[b].insert(d);
                }
            }
        }

        let mut live_in = vec![BTreeSet::new(); nblocks];
        let mut live_out = vec![BTreeSet::new(); nblocks];
        let rpo = reverse_postorder(f);
        let _ = predecessors(f);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().rev() {
                let bi = b.index();
                let mut out = BTreeSet::new();
                for s in f.block(b).successors() {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn = use_set[bi].clone();
                for r in &out {
                    if !def_set[bi].contains(r) {
                        inn.insert(*r);
                    }
                }
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Registers live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &BTreeSet<VReg> {
        &self.live_in[b.index()]
    }

    /// Registers live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &BTreeSet<VReg> {
        &self.live_out[b.index()]
    }

    /// `true` if `r` is live across the boundary of any block (i.e. its live
    /// range spans more than a single basic block).
    pub fn crosses_blocks(&self, r: VReg) -> bool {
        self.live_in.iter().any(|s| s.contains(&r)) || self.live_out.iter().any(|s| s.contains(&r))
    }

    /// Pressure (number of live registers) immediately before each instruction
    /// of block `b`, in instruction order.
    pub fn pressure_in_block(&self, f: &Function, b: BlockId) -> Vec<u32> {
        let block = f.block(b);
        let mut live = self.live_out[b.index()].clone();
        let mut rev = Vec::with_capacity(block.insts.len());
        for inst in block.insts.iter().rev() {
            if let Some(d) = inst.dst() {
                live.remove(&d);
            }
            inst.for_each_use(|u| {
                live.insert(u);
            });
            rev.push(live.len() as u32);
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{BinOp, CmpOp, FunctionBuilder, Inst, ScalarType, Type};

    /// sum-of-0..n loop: the accumulator and induction variable are live across
    /// the loop; temporaries are not.
    fn loop_function() -> (Function, VReg, VReg) {
        let mut b = FunctionBuilder::new(
            "sum",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let n = b.param(0);
        let acc = b.new_vreg(ScalarType::I32);
        let i = b.new_vreg(ScalarType::I32);
        let z = b.const_int(ScalarType::I32, 0);
        b.push(Inst::Move {
            dst: acc,
            ty: ScalarType::I32,
            src: z,
        });
        b.push(Inst::Move {
            dst: i,
            ty: ScalarType::I32,
            src: z,
        });
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        let c = b.cmp(CmpOp::Lt, ScalarType::I32, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let t = b.bin(BinOp::Add, ScalarType::I32, acc, i);
        b.push(Inst::Move {
            dst: acc,
            ty: ScalarType::I32,
            src: t,
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
        b.ret(Some(acc));
        (b.finish(), acc, i)
    }

    #[test]
    fn loop_carried_values_are_live_at_the_header() {
        let (f, acc, i) = loop_function();
        let live = Liveness::compute(&f);
        let header = splitc_vbc::BlockId(1);
        assert!(live.live_in(header).contains(&acc));
        assert!(live.live_in(header).contains(&i));
        assert!(live.live_in(header).contains(&f.params[0].0));
        assert!(live.crosses_blocks(acc));
    }

    #[test]
    fn temporaries_do_not_escape_their_block() {
        let (f, _, _) = loop_function();
        let live = Liveness::compute(&f);
        let body = splitc_vbc::BlockId(2);
        // The temporary holding acc+i (defined and consumed inside the body)
        // must not be live out of the body.
        let du = crate::defuse::DefUse::compute(&f);
        for blk in &f.blocks {
            for inst in &blk.insts {
                if let Some(d) = inst.dst() {
                    if du.defs(d).len() == 1
                        && du.uses(d).iter().all(|p| p.block == blk.id)
                        && blk.id == body
                    {
                        assert!(
                            !live.live_out(body).contains(&d),
                            "{d} should die in the body"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pressure_is_positive_and_bounded_by_register_count() {
        let (f, _, _) = loop_function();
        let live = Liveness::compute(&f);
        let p = f
            .blocks
            .iter()
            .flat_map(|b| live.pressure_in_block(&f, b.id))
            .max()
            .unwrap_or(0);
        assert!(p >= 3, "n, acc and i are simultaneously live: {p}");
        assert!(p <= f.num_vregs() as u32);
        let per_inst = live.pressure_in_block(&f, splitc_vbc::BlockId(2));
        assert_eq!(per_inst.len(), f.block(splitc_vbc::BlockId(2)).insts.len());
        assert!(per_inst.iter().all(|x| *x > 0));
    }

    #[test]
    fn straight_line_function_has_no_cross_block_liveness() {
        let mut b = FunctionBuilder::new("f", &[Type::Scalar(ScalarType::I32)], None);
        let x = b.param(0);
        let y = b.bin(BinOp::Add, ScalarType::I32, x, x);
        let _ = y;
        b.ret(None);
        let f = b.finish();
        let live = Liveness::compute(&f);
        // Parameters are used before any definition, so they are live into the
        // entry block; nothing is live out of the single block.
        assert_eq!(live.live_in(f.entry).len(), 1);
        assert!(live.live_in(f.entry).contains(&x));
        assert!(live.live_out(f.entry).is_empty());
    }
}
