//! Control-flow-graph utilities shared by the offline analyses.
//!
//! Each allocates a fixed number of arrays whatever the size of the function.

use crate::rows::Rows;
use splitc_vbc::{BlockId, Function};

/// Reverse post-order of the reachable blocks of `f`, starting at the entry.
///
/// Blocks that are unreachable from the entry are not included.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut visited = vec![false; f.blocks.len()];
    let mut post = Vec::with_capacity(f.blocks.len());
    // Iterative DFS with an explicit stack of (block, next-successor-index);
    // a block is pushed once, so the stack never outgrows the block count.
    let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(f.blocks.len());
    stack.push((f.entry, 0));
    visited[f.entry.index()] = true;
    while let Some((b, i)) = stack.pop() {
        match f.block(b).successors().nth(i) {
            Some(s) => {
                stack.push((b, i + 1));
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            }
            None => post.push(b),
        }
    }
    post.reverse();
    post
}

/// The set of blocks reachable from the entry, as a boolean mask indexed by
/// [`BlockId::index`].
pub fn reachable(f: &Function) -> Vec<bool> {
    let mut mask = vec![false; f.blocks.len()];
    for b in reverse_postorder(f) {
        mask[b.index()] = true;
    }
    mask
}

/// Predecessor lists restricted to reachable blocks, one row per block,
/// each in block order.
pub fn predecessors(f: &Function) -> Rows<BlockId> {
    let reach = reachable(f);
    let edges = || {
        f.blocks
            .iter()
            .filter(|b| reach[b.id.index()])
            .flat_map(|b| b.successors().map(move |s| (s, b.id)))
    };
    let mut counts = vec![0; f.blocks.len() + 1];
    edges().for_each(|(s, _)| counts[s.index()] += 1);
    let mut preds = Rows::with_counts(counts);
    edges().for_each(|(s, p)| preds.push(s.index(), p));
    preds.seal()
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
        let rpo = reverse_postorder(&f);
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
        let rpo = reverse_postorder(&f);
        assert!(!rpo.contains(&dead));
        assert!(!reachable(&f)[dead.index()]);
    }

    #[test]
    fn predecessors_match_successors() {
        let f = loop_function();
        let preds = predecessors(&f);
        // header (bb1) has the entry and the body as predecessors.
        assert_eq!(preds.row(1), [f.entry, BlockId(2)]);
        // exit (bb3) has only the header.
        assert_eq!(preds.row(3), [BlockId(1)]);
    }
}
