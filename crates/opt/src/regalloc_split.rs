//! Offline half of split register allocation.
//!
//! Following the split register allocation the paper highlights in Section 4
//! (Diouf et al.), the offline compiler performs the *allocation* decision —
//! which values deserve registers — and encodes it as a compact, portable
//! annotation ([`SpillOrder`]). The online compiler, which knows the actual
//! number of physical registers, then performs *assignment* in linear time by
//! keeping the highest-ranked values and spilling the rest (see
//! `splitc_jit::regassign`).
//!
//! Cost: [`profiles`] takes one [`Liveness`], one loop forest, one walk adding
//! each access to a register-indexed array at its block's weight, and one pass
//! over the liveness bitsets for the spans; [`annotate_spill_orders`] keeps
//! all of them from one function to the next. Weights are 1, 10, 100 or 1 000,
//! so every sum is an integer below 2^53 and exact: the order of summation
//! cannot move a bit of any score.

use crate::liveness::Liveness;
use crate::loops::LoopForest;
use splitc_vbc::{Function, Module, SpillOrder, VReg};

/// Per-register profitability data computed offline.
#[derive(Debug, Clone, PartialEq)]
pub struct RegProfile {
    /// The register.
    pub reg: VReg,
    /// Loop-depth-weighted count of uses plus definitions (an estimate of
    /// dynamic accesses: an access at loop depth `d` counts as `10^d`).
    pub accesses: f64,
    /// Number of basic blocks across which the value is live.
    pub span_blocks: usize,
    /// `accesses / span` — the keep-profitability score used for ranking.
    pub score: f64,
}

/// The per-register profiles, sorted from most to least profitable to keep:
/// the order of a function's [`SpillOrder`].
///
/// Registers are ranked by how profitable they are to keep in a physical
/// register: frequently-accessed, short-lived values first. The ranking is
/// *portable*: it does not depend on the number of physical registers of any
/// particular target, which is only known to the online compiler.
///
/// Only values whose live range crosses a basic-block boundary are profiled:
/// block-local temporaries are handled by the online scratch allocator and do
/// not need a portable ranking, which keeps the annotation compact (the paper
/// insists on "compact, portable annotations").
pub fn profiles(f: &Function) -> Vec<RegProfile> {
    let mut profiler = Profiler::default();
    profiler.profile(f);
    profiler.out
}

/// The analyses and arrays under the spill profiles, reused from one
/// function to the next.
#[derive(Default)]
struct Profiler {
    live: Liveness,
    forest: LoopForest,
    accesses: Vec<f64>,
    spans: Vec<u32>,
    /// The last function's profiles, sorted.
    out: Vec<RegProfile>,
}

impl Profiler {
    /// Profile `f` into `self.out`.
    fn profile(&mut self, f: &Function) {
        self.live.recompute(f);
        self.forest.recompute(f);
        let accesses = &mut self.accesses;
        accesses.clear();
        accesses.resize(f.num_vregs(), 0.0);
        for block in &f.blocks {
            // An access executed inside a loop is worth an order of magnitude
            // more per nesting level (the classic static spill-cost estimate).
            let depth = self.forest.depth(block.id);
            let weight = 10f64.powi(depth.min(3) as i32);
            for inst in &block.insts {
                inst.for_each_use(|u| accesses[u.index()] += weight);
                if let Some(d) = inst.dst() {
                    accesses[d.index()] += weight;
                }
            }
        }
        self.live.fill_spans(&mut self.spans);
        let out = &mut self.out;
        out.clear();
        out.reserve(f.num_vregs());
        for (i, (&accesses, &span)) in accesses.iter().zip(&self.spans).enumerate() {
            let reg = VReg(i as u32);
            if accesses > 0.0 && (span > 0 || f.params.iter().any(|(r, _)| *r == reg)) {
                let span_blocks = (span as usize).max(1);
                out.push(RegProfile {
                    reg,
                    accesses,
                    span_blocks,
                    score: accesses / span_blocks as f64,
                });
            }
        }
        // Registers are distinct, so no two profiles compare equal and the
        // in-place unstable sort gives the one order.
        out.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.reg.0.cmp(&b.reg.0))
        });
    }

    fn spill_order(&mut self, f: &Function) -> SpillOrder {
        self.profile(f);
        SpillOrder {
            keep_order: self.out.iter().map(|p| p.reg).collect(),
        }
    }
}

/// Attach a [`SpillOrder`] annotation to every function of `m`.
///
/// Returns the number of functions annotated.
pub fn annotate_spill_orders(m: &mut Module) -> usize {
    let mut profiler = Profiler::default();
    for f in m.functions_mut() {
        f.annotations.spill_order = Some(profiler.spill_order(f));
    }
    m.functions().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;

    fn pressure_kernel() -> Function {
        let m = compile_source(
            r#"
            fn poly8(n: i32, x: *f32, y: *f32) {
                let c0: f32 = 1.0; let c1: f32 = 2.0; let c2: f32 = 3.0; let c3: f32 = 4.0;
                let c4: f32 = 5.0; let c5: f32 = 6.0; let c6: f32 = 7.0; let c7: f32 = 8.0;
                for (let i: i32 = 0; i < n; i = i + 1) {
                    let v: f32 = x[i];
                    y[i] = ((((((v * c7 + c6) * v + c5) * v + c4) * v + c3) * v + c2) * v + c1) * v + c0;
                }
            }
            "#,
            "t",
        )
        .unwrap();
        m.function("poly8").unwrap().clone()
    }

    #[test]
    fn every_live_register_is_ranked_exactly_once() {
        let f = pressure_kernel();
        let keep_order: Vec<_> = profiles(&f).iter().map(|p| p.reg).collect();
        let mut seen = std::collections::BTreeSet::new();
        for r in &keep_order {
            assert!(seen.insert(*r), "register {r} ranked twice");
            assert!(r.index() < f.num_vregs());
        }
        assert!(
            keep_order.len() >= 10,
            "the polynomial kernel is register-hungry"
        );
    }

    #[test]
    fn hot_loop_values_rank_above_cold_constants() {
        let f = pressure_kernel();
        let profs = profiles(&f);
        // The induction variable and the loop bound live across blocks but are
        // accessed often; single-use temporaries still rank high because their
        // span is one block. Every profile must have a positive score.
        assert!(profs.iter().all(|p| p.score > 0.0));
        // Scores are sorted non-increasingly.
        for w in profs.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn annotation_round_trips_through_the_module() {
        let mut m =
            compile_source("fn f(a: i32, b: i32) -> i32 { return a * b + a - b; }", "t").unwrap();
        assert_eq!(annotate_spill_orders(&mut m), 1);
        let f = m.function("f").unwrap();
        let stored = f.annotations.spill_order.as_ref().unwrap();
        let ranked: Vec<_> = profiles(f).iter().map(|p| p.reg).collect();
        assert_eq!(stored.keep_order, ranked);
        assert!(!stored.keep_order.is_empty());
    }
}
