//! Natural-loop detection.

use crate::cfg::predecessors;
use crate::dom::Dominators;
use splitc_vbc::{BlockId, Function};
use std::collections::BTreeSet;

/// A natural loop: a header block dominating a set of blocks with at least one
/// back edge into the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BTreeSet<BlockId>,
    /// Sources of back edges (blocks inside the loop that jump to the header).
    pub latches: Vec<BlockId>,
    /// Blocks outside the loop that are targets of edges leaving the loop.
    pub exits: Vec<BlockId>,
}

impl Loop {
    /// `true` if `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// The unique predecessor of the header that lies outside the loop, if any.
    ///
    /// The front end's lowering always produces such a preheader, which is
    /// where the vectorizer hoists splats and the vector-trip-count
    /// computation.
    pub fn preheader(&self, f: &Function) -> Option<BlockId> {
        let preds = predecessors(f);
        let outside: Vec<_> = preds
            .row(self.header.index())
            .iter()
            .copied()
            .filter(|p| !self.contains(*p))
            .collect();
        match outside.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops in discovery order (one per distinct header).
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Find the natural loops of `f` using its dominator tree.
    pub fn compute(f: &Function) -> Self {
        let dom = Dominators::compute(f);
        let preds = predecessors(f);
        let mut loops: Vec<Loop> = Vec::new();

        for block in &f.blocks {
            if !dom.is_reachable(block.id) {
                continue;
            }
            for succ in block.successors() {
                // Back edge: block -> succ where succ dominates block.
                if dom.dominates(succ, block.id) {
                    let header = succ;
                    let latch = block.id;
                    // Collect the loop body: everything that reaches the latch
                    // without passing through the header.
                    let mut body: BTreeSet<BlockId> = BTreeSet::new();
                    body.insert(header);
                    let mut stack = vec![latch];
                    while let Some(b) = stack.pop() {
                        if body.insert(b) {
                            for &p in preds.row(b.index()) {
                                stack.push(p);
                            }
                        }
                    }
                    if let Some(existing) = loops.iter_mut().find(|l| l.header == header) {
                        existing.blocks.extend(body);
                        existing.latches.push(latch);
                    } else {
                        loops.push(Loop {
                            header,
                            blocks: body,
                            latches: vec![latch],
                            exits: Vec::new(),
                        });
                    }
                }
            }
        }

        for l in &mut loops {
            let mut exits = BTreeSet::new();
            for &b in &l.blocks {
                for s in f.block(b).successors() {
                    if !l.blocks.contains(&s) {
                        exits.insert(s);
                    }
                }
            }
            l.exits = exits.into_iter().collect();
        }
        LoopForest { loops }
    }

    /// Loops that contain no other loop (the vectorization candidates).
    pub fn innermost(&self) -> Vec<&Loop> {
        self.loops
            .iter()
            .filter(|l| {
                !self
                    .loops
                    .iter()
                    .any(|other| other.header != l.header && l.blocks.contains(&other.header))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;

    fn kernel_loop() -> Function {
        let m = compile_source(
            r#"
            fn dscal(n: i32, a: f32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    x[i] = a * x[i];
                }
            }
            "#,
            "t",
        )
        .unwrap();
        m.function("dscal").unwrap().clone()
    }

    fn nested_loops() -> Function {
        let m = compile_source(
            r#"
            fn mm(n: i32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    for (let j: i32 = 0; j < n; j = j + 1) {
                        x[j] = x[j] + 1.0;
                    }
                }
            }
            "#,
            "t",
        )
        .unwrap();
        m.function("mm").unwrap().clone()
    }

    #[test]
    fn finds_the_single_loop_of_a_kernel() {
        let f = kernel_loop();
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.latches.len(), 1);
        assert_eq!(l.exits.len(), 1);
        assert!(l.contains(l.header));
        assert!(l.preheader(&f).is_some());
        assert!(!l.contains(l.exits[0]));
    }

    #[test]
    fn nested_loops_are_distinguished_and_innermost_is_found() {
        let f = nested_loops();
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.loops.len(), 2);
        let inner = forest.innermost();
        assert_eq!(inner.len(), 1);
        let outer = forest
            .loops
            .iter()
            .find(|l| l.header != inner[0].header)
            .unwrap();
        assert!(outer.blocks.len() > inner[0].blocks.len());
        assert!(outer.blocks.contains(&inner[0].header));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let m = compile_source("fn f(x: i32) -> i32 { return x + 1; }", "t").unwrap();
        let f = m.function("f").unwrap();
        assert!(LoopForest::compute(f).loops.is_empty());
    }
}
