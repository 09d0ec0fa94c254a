//! Dominator computation (iterative algorithm of Cooper, Harvey and Kennedy).

use crate::cfg::Cfg;
use splitc_vbc::{BlockId, Function};

/// Immediate-dominator tree of a function's reachable blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Dominators {
    /// `idom[b]` is the immediate dominator of block `b`; the entry maps to
    /// itself and unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Recompute the tree for `f` in place from its `cfg`, with `order` as
    /// working space.
    pub(crate) fn recompute(&mut self, f: &Function, cfg: &Cfg, order: &mut Vec<usize>) {
        let (rpo, preds) = (&cfg.rpo, &cfg.preds);
        order.clear();
        order.resize(f.blocks.len(), usize::MAX);
        for (i, b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }
        let idom = &mut self.idom;
        idom.clear();
        idom.resize(f.blocks.len(), None);
        idom[f.entry.index()] = Some(f.entry);
        self.entry = f.entry;

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while order[a.index()] > order[b.index()] {
                    a = idom[a.index()].expect("processed block has an idom");
                }
                while order[b.index()] > order[a.index()] {
                    b = idom[b.index()].expect("processed block has an idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.row(b.index()) {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
    }

    /// The immediate dominator of `b` (the entry's idom is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// `true` if `a` dominates `b` (every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom(cur) {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// `true` if block `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.idom(b).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{CmpOp, FunctionBuilder, ScalarType, Type};

    fn dominators(f: &Function) -> Dominators {
        let mut cfg = Cfg::default();
        cfg.recompute(f);
        let mut dom = Dominators::default();
        dom.recompute(f, &cfg, &mut Vec::new());
        dom
    }

    /// Diamond: entry -> {left, right} -> join, plus a loop join -> header.
    fn diamond_with_loop() -> Function {
        let mut b = FunctionBuilder::new("g", &[Type::Scalar(ScalarType::I32)], None);
        let n = b.param(0);
        let zero = b.const_int(ScalarType::I32, 0);
        let c = b.cmp(CmpOp::Gt, ScalarType::I32, n, zero);
        let left = b.new_block();
        let right = b.new_block();
        let join = b.new_block();
        let exit = b.new_block();
        b.branch(c, left, right);
        b.switch_to(left);
        b.jump(join);
        b.switch_to(right);
        b.jump(join);
        b.switch_to(join);
        let c2 = b.cmp(CmpOp::Lt, ScalarType::I32, zero, n);
        b.branch(c2, left, exit); // back edge join -> left makes left a loop header
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn entry_dominates_everything() {
        let f = diamond_with_loop();
        let dom = dominators(&f);
        for blk in &f.blocks {
            assert!(
                dom.dominates(f.entry, blk.id),
                "entry should dominate {}",
                blk.id
            );
        }
    }

    #[test]
    fn join_is_dominated_by_entry_not_by_branches() {
        let f = diamond_with_loop();
        let dom = dominators(&f);
        let left = BlockId(1);
        let right = BlockId(2);
        let join = BlockId(3);
        assert_eq!(dom.idom(join), Some(f.entry));
        assert!(!dom.dominates(left, join) || !dom.dominates(right, join));
        assert!(dom.dominates(join, BlockId(4)));
    }

    #[test]
    fn self_domination_and_unreachable_blocks() {
        let mut f = diamond_with_loop();
        let dead = f.new_block();
        f.block_mut(dead)
            .insts
            .push(splitc_vbc::Inst::Ret { value: None });
        let dom = dominators(&f);
        assert!(dom.dominates(BlockId(3), BlockId(3)));
        assert!(!dom.is_reachable(dead));
        assert!(dom.is_reachable(f.entry));
    }
}
