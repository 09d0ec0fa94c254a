//! Control-flow-graph utilities shared by the offline analyses.
//!
//! [`Cfg`] keeps the reverse post-order and the predecessor rows of one
//! function in a fixed number of arrays whatever the size of the function,
//! which a rebuild for the next function, or for the same function changed,
//! reuses.

use crate::rows::Rows;
use splitc_vbc::{BlockId, Function};

/// The reachable blocks of a function in reverse post-order, and their
/// predecessors.
#[derive(Debug, Clone, Default)]
pub(crate) struct Cfg {
    /// Reverse post-order of the reachable blocks, starting at the entry.
    pub(crate) rpo: Vec<BlockId>,
    /// Predecessor lists restricted to reachable blocks, one row per block,
    /// each in block order.
    pub(crate) preds: Rows<BlockId>,
    /// Whether each block is reachable from the entry.
    reachable: Vec<bool>,
    stack: Vec<(BlockId, usize)>,
}

impl Cfg {
    /// Rebuild both tables for `f`.
    pub(crate) fn recompute(&mut self, f: &Function) {
        self.order(f);
        let reachable = &self.reachable;
        let edges = || {
            f.blocks
                .iter()
                .filter(|b| reachable[b.id.index()])
                .flat_map(|b| b.successors().map(move |s| (s, b.id)))
        };
        let counts = self.preds.counts(f.blocks.len());
        edges().for_each(|(s, _)| counts[s.index()] += 1);
        self.preds.fill();
        edges().for_each(|(s, p)| self.preds.push(s.index(), p));
        self.preds.seal();
    }

    /// Rebuild the reverse post-order (and the reachable set), not the
    /// predecessors.
    pub(crate) fn order(&mut self, f: &Function) {
        let n = f.blocks.len();
        self.reachable.clear();
        self.reachable.resize(n, false);
        self.rpo.clear();
        self.rpo.reserve(n);
        // Iterative DFS with an explicit stack of (block, next-successor-index);
        // a block is pushed once, so the stack never outgrows the block count.
        self.stack.clear();
        self.stack.reserve(n);
        self.stack.push((f.entry, 0));
        self.reachable[f.entry.index()] = true;
        while let Some((b, i)) = self.stack.pop() {
            match f.block(b).successors().nth(i) {
                Some(s) => {
                    self.stack.push((b, i + 1));
                    if !self.reachable[s.index()] {
                        self.reachable[s.index()] = true;
                        self.stack.push((s, 0));
                    }
                }
                None => self.rpo.push(b),
            }
        }
        self.rpo.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{CmpOp, FunctionBuilder, ScalarType, Type};

    /// entry -> header -> {body -> header, exit}
    fn loop_function() -> Function {
        let mut b = FunctionBuilder::new("loop", &[Type::Scalar(ScalarType::I32)], None);
        let n = b.param(0);
        let i = b.const_int(ScalarType::I32, 0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(header);
        let c = b.cmp(CmpOp::Lt, ScalarType::I32, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let f = loop_function();
        let mut cfg = Cfg::default();
        cfg.order(&f);
        let rpo = cfg.rpo;
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 4);
        // The header must come before both the body and the exit.
        let pos = |id: BlockId| rpo.iter().position(|b| *b == id).unwrap();
        assert!(pos(BlockId(1)) < pos(BlockId(2)));
        assert!(pos(BlockId(1)) < pos(BlockId(3)));
    }

    #[test]
    fn unreachable_blocks_are_excluded() {
        let mut f = loop_function();
        // Add a block that nothing jumps to.
        let dead = f.new_block();
        f.block_mut(dead)
            .insts
            .push(splitc_vbc::Inst::Ret { value: None });
        let mut cfg = Cfg::default();
        cfg.recompute(&f);
        assert!(!cfg.rpo.contains(&dead));
        assert!(cfg.preds.row(dead.index()).is_empty());
    }

    #[test]
    fn predecessors_match_successors() {
        let f = loop_function();
        let mut cfg = Cfg::default();
        cfg.recompute(&f);
        // header (bb1) has the entry and the body as predecessors.
        assert_eq!(cfg.preds.row(1), [f.entry, BlockId(2)]);
        // exit (bb3) has only the header.
        assert_eq!(cfg.preds.row(3), [BlockId(1)]);
    }
}
