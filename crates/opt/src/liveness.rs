//! Backward liveness dataflow analysis, the basis of the split register
//! allocation experiment (E3): spill ranks count the blocks a value is live
//! across. Layout: one bit per register, `⌈vregs / 64⌉` `u64` words per
//! block, and each per-block set (`use`, `def`, `live_in`, `live_out`) one
//! flat array of `blocks × words` words. The reverse-postorder fixpoint runs
//! word by word, as a block's word depends only on the same word of its
//! successors; the four arrays and the postorder are all it allocates, and
//! [`Liveness::recompute`] refills them for the next function.

use crate::cfg::Cfg;
use splitc_vbc::{BlockId, Function, VReg};

/// Per-block live-in/live-out sets.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    vregs: usize,
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    /// Working space of the fixpoint, kept for the next rebuild.
    use_set: Vec<u64>,
    def_set: Vec<u64>,
    cfg: Cfg,
}

/// The word of `r` within its block's set, and its bit in that word.
fn word_bit(r: VReg) -> (usize, u64) {
    (r.index() / 64, 1 << (r.index() % 64))
}

/// Empty `v` and make it `len` zero words, reusing its storage.
fn zeroed(v: &mut Vec<u64>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

impl Liveness {
    /// Compute liveness for `f` with a standard backward fixed-point
    /// iteration. Blocks unreachable from the entry have empty sets.
    pub fn compute(f: &Function) -> Self {
        let mut live = Liveness::default();
        live.recompute(f);
        live
    }

    /// Compute liveness for `f` (changed since, or another function) in this
    /// table's arrays.
    pub fn recompute(&mut self, f: &Function) {
        let (vregs, words) = (f.num_vregs(), f.num_vregs().div_ceil(64));
        self.vregs = vregs;
        self.words = words;
        let size = f.blocks.len() * words;
        let (use_set, def_set) = (&mut self.use_set, &mut self.def_set);
        zeroed(use_set, size);
        zeroed(def_set, size);
        for block in &f.blocks {
            let base = block.id.index() * words;
            for inst in &block.insts {
                // An instruction reads its operands before it writes its result.
                inst.for_each_use(|u| {
                    let (w, bit) = word_bit(u);
                    use_set[base + w] |= bit & !def_set[base + w];
                });
                if let Some(d) = inst.dst() {
                    let (w, bit) = word_bit(d);
                    def_set[base + w] |= bit;
                }
            }
        }

        let (live_in, live_out) = (&mut self.live_in, &mut self.live_out);
        zeroed(live_in, size);
        zeroed(live_out, size);
        self.cfg.order(f);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.cfg.rpo.iter().rev() {
                let base = b.index() * words;
                for w in 0..words {
                    let out = f
                        .block(b)
                        .successors()
                        .fold(0, |out, s| out | live_in[s.index() * words + w]);
                    let inn = use_set[base + w] | (out & !def_set[base + w]);
                    if out != live_out[base + w] || inn != live_in[base + w] {
                        live_out[base + w] = out;
                        live_in[base + w] = inn;
                        changed = true;
                    }
                }
            }
        }
    }

    /// `true` if `r` is live on entry to `b`.
    pub fn is_live_in(&self, b: BlockId, r: VReg) -> bool {
        let (w, bit) = word_bit(r);
        self.live_in[b.index() * self.words + w] & bit != 0
    }

    /// `true` if `r` is live on exit from `b`.
    pub fn is_live_out(&self, b: BlockId, r: VReg) -> bool {
        let (w, bit) = word_bit(r);
        self.live_out[b.index() * self.words + w] & bit != 0
    }

    /// For every register, the number of blocks it is live into or out of,
    /// written over `spans`; a register whose count is 0 never crosses a
    /// block boundary.
    pub fn fill_spans(&self, spans: &mut Vec<u32>) {
        spans.clear();
        spans.resize(self.vregs, 0);
        for (i, (inn, out)) in self.live_in.iter().zip(&self.live_out).enumerate() {
            let first = (i % self.words) * 64;
            let mut bits = inn | out;
            while bits != 0 {
                spans[first + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
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
        assert!(live.is_live_in(header, acc));
        assert!(live.is_live_in(header, i));
        assert!(live.is_live_in(header, f.params[0].0));
        let mut spans = Vec::new();
        live.fill_spans(&mut spans);
        assert!(spans[acc.index()] > 0);
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
                        assert!(!live.is_live_out(body, d), "{d} should die in the body");
                    }
                }
            }
        }
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
        let regs = || (0..f.num_vregs() as u32).map(VReg);
        assert_eq!(
            regs()
                .filter(|&r| live.is_live_in(f.entry, r))
                .collect::<Vec<_>>(),
            [x]
        );
        assert!(!regs().any(|r| live.is_live_out(f.entry, r)));
    }
}
