//! Natural-loop detection.
//!
//! Layout: a [`LoopForest`] keeps every loop in a few flat arrays over block
//! indices. Each loop's body is a bitset, `⌈blocks / 64⌉` `u64` words, all
//! loops' words in one array; the latches are compressed rows, one row per
//! loop; the predecessor rows the search walks are kept for
//! [`Loop::preheader`]. A [`Loop`] is a view of one loop's rows. The forest
//! allocates a fixed number of arrays however many loops and blocks the
//! function has, and [`LoopForest::recompute`] refills them in place for a
//! changed function or the next one.

use crate::cfg::Cfg;
use crate::dom::Dominators;
use crate::rows::Rows;
use splitc_vbc::{BlockId, Function};

/// A natural loop: a header block dominating a set of blocks with at least one
/// back edge into the header. A view into its [`LoopForest`].
#[derive(Debug, Clone, Copy)]
pub struct Loop<'f> {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// Sources of back edges (blocks inside the loop that jump to the header),
    /// in block order.
    pub latches: &'f [BlockId],
    /// The loop's blocks, header included: bit `b % 64` of word `b / 64`.
    body: &'f [u64],
    /// The header's predecessors, in block order.
    header_preds: &'f [BlockId],
}

impl Loop<'_> {
    /// `true` if `b` belongs to the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        let (w, bit) = word_bit(b);
        self.body.get(w).is_some_and(|word| word & bit != 0)
    }

    /// The loop's blocks, header included, in block order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.body.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    BlockId(b as u32)
                })
            })
        })
    }

    /// Number of blocks in the loop, header included.
    pub fn num_blocks(&self) -> usize {
        self.body.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The unique predecessor of the header that lies outside the loop, if any.
    ///
    /// The front end's lowering always produces such a preheader, which is
    /// where the vectorizer hoists splats and the vector-trip-count
    /// computation.
    pub fn preheader(&self) -> Option<BlockId> {
        let mut outside = self.header_preds.iter().filter(|p| !self.contains(**p));
        match (outside.next(), outside.next()) {
            (Some(single), None) => Some(*single),
            _ => None,
        }
    }
}

/// The word of block `b` within a body bitset, and its bit in that word.
fn word_bit(b: BlockId) -> (usize, u64) {
    (b.index() / 64, 1 << (b.index() % 64))
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Words per body bitset.
    words: usize,
    /// Each loop's header, in discovery order (one loop per distinct header).
    headers: Vec<BlockId>,
    /// Loop `i`'s body is `bodies[i * words..(i + 1) * words]`.
    bodies: Vec<u64>,
    latches: Rows<BlockId>,
    /// Whether loop `i` contains no other loop's header.
    innermost: Vec<bool>,
    /// The reverse post-order and the predecessor rows the search walks.
    cfg: Cfg,
    dom: Dominators,
    /// Working space of the search, kept for the next rebuild.
    order: Vec<usize>,
    loop_of: Vec<u32>,
    back_edges: Vec<(u32, BlockId)>,
    stack: Vec<BlockId>,
}

impl LoopForest {
    /// Find the natural loops of `f` using its dominator tree.
    pub fn compute(f: &Function) -> Self {
        let mut forest = LoopForest::default();
        forest.recompute(f);
        forest
    }

    /// Find the natural loops of `f` (changed since, or another function) in
    /// this forest's arrays, which grow only when `f` has more blocks or
    /// loops than any function they held before.
    pub fn recompute(&mut self, f: &Function) {
        self.cfg.recompute(f);
        self.dom.recompute(f, &self.cfg, &mut self.order);
        let blocks = f.blocks.len();
        let words = blocks.div_ceil(64);
        self.words = words;

        // Back edges `latch -> header`, where the header dominates the latch,
        // in block order; a loop is numbered by its header's first back edge.
        // A block has at most two successors.
        let (loop_of, headers, back_edges) =
            (&mut self.loop_of, &mut self.headers, &mut self.back_edges);
        loop_of.clear();
        loop_of.resize(blocks, u32::MAX);
        headers.clear();
        headers.reserve(blocks);
        back_edges.clear();
        back_edges.reserve(2 * blocks);
        for block in &f.blocks {
            if !self.dom.is_reachable(block.id) {
                continue;
            }
            for succ in block.successors() {
                if self.dom.dominates(succ, block.id) {
                    let slot = &mut loop_of[succ.index()];
                    if *slot == u32::MAX {
                        *slot = headers.len() as u32;
                        headers.push(succ);
                    }
                    back_edges.push((*slot, block.id));
                }
            }
        }
        let loops = headers.len();

        // Each body: the header, then everything that reaches a latch without
        // passing through the header. A body from an earlier latch is closed
        // under predecessors, so the walk stops where it meets one.
        let (bodies, stack) = (&mut self.bodies, &mut self.stack);
        bodies.clear();
        bodies.resize(loops * words, 0);
        stack.clear();
        stack.reserve(1 + 2 * blocks);
        let latch_counts = self.latches.counts(loops);
        for &(l, latch) in back_edges.iter() {
            latch_counts[l as usize] += 1;
            let body = &mut bodies[l as usize * words..(l as usize + 1) * words];
            let (w, bit) = word_bit(headers[l as usize]);
            body[w] |= bit;
            stack.push(latch);
            while let Some(b) = stack.pop() {
                let (w, bit) = word_bit(b);
                if body[w] & bit == 0 {
                    body[w] |= bit;
                    stack.extend_from_slice(self.cfg.preds.row(b.index()));
                }
            }
        }
        self.latches.fill();
        for &(l, latch) in back_edges.iter() {
            self.latches.push(l as usize, latch);
        }
        self.latches.seal();

        self.innermost.clear();
        self.innermost.extend((0..loops).map(|l| {
            let body = &bodies[l * words..(l + 1) * words];
            !headers.iter().any(|&h| {
                let (w, bit) = word_bit(h);
                h != headers[l] && body[w] & bit != 0
            })
        }));
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// `true` if the function has no loop.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Loop `i`, in discovery order.
    pub fn get(&self, i: usize) -> Loop<'_> {
        let header = self.headers[i];
        Loop {
            header,
            latches: self.latches.row(i),
            body: &self.bodies[i * self.words..(i + 1) * self.words],
            header_preds: self.cfg.preds.row(header.index()),
        }
    }

    /// Loops that contain no other loop (the vectorization candidates).
    pub fn innermost(&self) -> impl Iterator<Item = Loop<'_>> + '_ {
        (0..self.len())
            .filter(|&i| self.innermost[i])
            .map(|i| self.get(i))
    }

    /// Number of loops that contain `b`.
    pub fn depth(&self, b: BlockId) -> usize {
        let (w, bit) = word_bit(b);
        self.bodies
            .chunks_exact(self.words.max(1))
            .filter(|body| body.get(w).is_some_and(|word| word & bit != 0))
            .count()
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
        assert_eq!(forest.len(), 1);
        let l = forest.get(0);
        assert_eq!(l.latches.len(), 1);
        assert_eq!(l.num_blocks(), 2);
        assert!(l.contains(l.header));
        assert!(l.contains(l.latches[0]));
        let pre = l.preheader().expect("the front end makes a preheader");
        assert!(!l.contains(pre));
    }

    #[test]
    fn nested_loops_are_distinguished_and_innermost_is_found() {
        let f = nested_loops();
        let forest = LoopForest::compute(&f);
        assert_eq!(forest.len(), 2);
        let inner: Vec<_> = forest.innermost().collect();
        assert_eq!(inner.len(), 1);
        let outer = (0..forest.len())
            .map(|i| forest.get(i))
            .find(|l| l.header != inner[0].header)
            .unwrap();
        assert!(outer.num_blocks() > inner[0].num_blocks());
        assert!(outer.contains(inner[0].header));
        assert_eq!(forest.depth(inner[0].header), 2);
        assert_eq!(forest.depth(outer.header), 1);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let m = compile_source("fn f(x: i32) -> i32 { return x + 1; }", "t").unwrap();
        let f = m.function("f").unwrap();
        assert!(LoopForest::compute(f).is_empty());
    }
}
