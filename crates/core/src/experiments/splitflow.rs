//! Experiment E2 — the split compilation flow of Figure 1.
//!
//! Figure 1 of the paper is a flow diagram, not a measurement, but its message
//! is quantitative: split compilation moves optimization complexity *offline*
//! (into the µProc-independent compiler) so that the *online* step stays cheap
//! while still producing aggressive code. This experiment measures exactly
//! that trade-off on the benchmark kernels by comparing four strategies:
//!
//! * **split** — full offline optimization + annotation-driven JIT (the paper's
//!   proposal);
//! * **jit-greedy** — plain bytecode, fast JIT with no analysis (what embedded
//!   JITs did at the time);
//! * **jit-thorough** — plain bytecode, and the device-side compiler re-runs
//!   the expensive analyses *online* to reach the same code quality (what an
//!   aggressive JIT would have to do without annotations);
//! * **offline-native** — the oracle: everything offline, zero online work
//!   (a conventional native compiler, which gives up portability).

use crate::harness::prepare;
use crate::report::{fmt_cache_line, TextTable};
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{CacheStats, ExecutionEngine};
use splitc_targets::TargetDesc;
use splitc_workloads::{module_for, table1_kernels};

/// A compilation strategy compared by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Offline analyses + annotation-driven JIT.
    Split,
    /// No offline work, no online analysis.
    JitGreedy,
    /// No offline work; the full analyses are re-run online instead.
    JitAnalyze,
    /// Everything offline (native-compiler oracle; not portable).
    OfflineNative,
}

impl Strategy {
    /// All strategies, in reporting order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Split,
        Strategy::JitGreedy,
        Strategy::JitAnalyze,
        Strategy::OfflineNative,
    ];

    /// Short label used in the report.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Split => "split",
            Strategy::JitGreedy => "jit-greedy",
            Strategy::JitAnalyze => "jit-thorough",
            Strategy::OfflineNative => "offline-native",
        }
    }
}

/// Measurements of one kernel under one strategy on one target.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitFlowRow {
    /// Kernel name.
    pub kernel: String,
    /// Target name.
    pub target: String,
    /// Strategy used.
    pub strategy: Strategy,
    /// Offline work units spent by the µProc-independent compiler.
    pub offline_work: u64,
    /// Online work units spent by the µProc-specific JIT.
    pub online_work: u64,
    /// Simulated execution cycles of the generated code.
    pub cycles: u64,
}

/// The complete experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitFlow {
    /// Elements processed per kernel invocation.
    pub n: usize,
    /// All measurements.
    pub rows: Vec<SplitFlowRow>,
    /// Engine code-cache counters across all strategies. The three
    /// strategies that share the fully optimized module and the split JIT
    /// configuration (split, jit-thorough, offline-native) also share one
    /// compiled program per target — the cache hits are the measurement.
    pub cache: CacheStats,
    /// Total online-compilation work units across both deployments.
    pub online_work: u64,
}

impl SplitFlow {
    /// Rows for one strategy.
    pub fn rows_for(&self, strategy: Strategy) -> impl Iterator<Item = &SplitFlowRow> {
        self.rows.iter().filter(move |r| r.strategy == strategy)
    }

    /// Geometric-mean execution speedup of `a` over `b`.
    pub fn mean_speedup(&self, a: Strategy, b: Strategy) -> f64 {
        let mut log_sum = 0.0;
        let mut count = 0usize;
        for ra in self.rows_for(a) {
            if let Some(rb) = self
                .rows_for(b)
                .find(|r| r.kernel == ra.kernel && r.target == ra.target)
            {
                log_sum += (rb.cycles as f64 / ra.cycles as f64).ln();
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            (log_sum / count as f64).exp()
        }
    }

    /// Average online work of `a` relative to `b` (smaller is cheaper).
    pub fn mean_online_work_ratio(&self, a: Strategy, b: Strategy) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for ra in self.rows_for(a) {
            if let Some(rb) = self
                .rows_for(b)
                .find(|r| r.kernel == ra.kernel && r.target == ra.target)
            {
                sum += ra.online_work as f64 / rb.online_work.max(1) as f64;
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            sum / count as f64
        }
    }

    /// Render the per-kernel measurements plus a summary.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&[
            "kernel",
            "target",
            "strategy",
            "offline work",
            "online work",
            "cycles",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.kernel.clone(),
                r.target.clone(),
                r.strategy.label().to_owned(),
                r.offline_work.to_string(),
                r.online_work.to_string(),
                r.cycles.to_string(),
            ]);
        }
        format!(
            "Figure 1 reproduction — split compilation flow (n = {})\n{}\n\
             split vs jit-greedy : {:.2}x faster code, {:.2}x the online work\n\
             split vs jit-thorough: {:.2}x faster code, {:.2}x the online work\n\
             split vs offline-native oracle: {:.2}x the execution time\n{}\n",
            self.n,
            table.render(),
            self.mean_speedup(Strategy::Split, Strategy::JitGreedy),
            self.mean_online_work_ratio(Strategy::Split, Strategy::JitGreedy),
            self.mean_speedup(Strategy::Split, Strategy::JitAnalyze),
            self.mean_online_work_ratio(Strategy::Split, Strategy::JitAnalyze),
            1.0 / self.mean_speedup(Strategy::Split, Strategy::OfflineNative),
            fmt_cache_line(&self.cache),
        )
    }
}

/// Run the split-compilation-flow experiment with `n` elements per kernel on
/// the given targets (defaults to x86 and ARM when empty).
///
/// Rows come kernel-major, then strategy, then target; every run reuses one
/// scratch workspace.
///
/// # Errors
///
/// Returns a [`PipelineError`] if compilation or execution fails.
pub fn run(n: usize, targets: &[TargetDesc]) -> Result<SplitFlow, PipelineError> {
    let default_targets = [TargetDesc::x86_sse(), TargetDesc::arm_neon()];
    let targets: &[TargetDesc] = if targets.is_empty() {
        &default_targets
    } else {
        targets
    };

    let mut ws = Workspace::sized_for(n);
    let mut rows = Vec::new();
    let mut cache = CacheStats::default();
    let mut engine_work = 0;
    for kernel in table1_kernels() {
        let base = module_for(std::slice::from_ref(&kernel), kernel.name)
            .map_err(PipelineError::Frontend)?;

        // Two offline configurations cover all four strategies: the fully
        // optimized module (split / jit-thorough / offline-native) and the
        // unoptimized one (jit-greedy). Each is deployed once; the shared
        // engine means the three full-pipeline strategies reuse one compiled
        // program per target instead of JITting three times.
        let mut full_module = base.clone();
        let full_report = optimize_module(&mut full_module, &OptOptions::full());
        let full_engine = ExecutionEngine::new(full_module);
        full_engine.precompile(targets, &JitOptions::split())?;

        let mut plain_module = base;
        let plain_report = optimize_module(&mut plain_module, &OptOptions::none());
        let plain_engine = ExecutionEngine::new(plain_module);
        plain_engine.precompile(targets, &JitOptions::online_greedy())?;

        for strategy in Strategy::ALL {
            let (engine, jit, opt_report) = match strategy {
                // The thorough JIT performs the same analyses as the offline
                // step, only it pays for them at run time on the device.
                Strategy::Split | Strategy::OfflineNative | Strategy::JitAnalyze => {
                    (&full_engine, JitOptions::split(), &full_report)
                }
                Strategy::JitGreedy => (&plain_engine, JitOptions::online_greedy(), &plain_report),
            };
            for target in targets {
                ws.reset();
                let prepared = prepare(kernel.name, n, 0xf16 + n as u64, &mut ws);
                let m = engine.run(target, &jit, kernel.name, &prepared.args, ws.bytes_mut())?;
                let (offline_work, online_work) = match strategy {
                    // The native oracle performs the online step ahead of
                    // time as well, so all of its work counts as offline.
                    Strategy::OfflineNative => (opt_report.offline_work + m.jit.total_work(), 0),
                    // The thorough JIT pays for everything at run time.
                    Strategy::JitAnalyze => (0, opt_report.offline_work + m.jit.total_work()),
                    _ => (opt_report.offline_work, m.jit.total_work()),
                };
                rows.push(SplitFlowRow {
                    kernel: kernel.name.to_owned(),
                    target: target.name.clone(),
                    strategy,
                    offline_work,
                    online_work,
                    cycles: m.stats.cycles,
                });
            }
        }
        cache += full_engine.stats();
        cache += plain_engine.stats();
        engine_work += full_engine.online_work() + plain_engine.online_work();
    }
    Ok(SplitFlow {
        n,
        rows,
        cache,
        online_work: engine_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_gets_native_quality_at_a_fraction_of_the_online_cost() {
        let flow = run(256, &[TargetDesc::x86_sse()]).expect("experiment runs");
        // Same generated code as the native oracle.
        let speedup_vs_native = flow.mean_speedup(Strategy::Split, Strategy::OfflineNative);
        assert!((0.99..=1.01).contains(&speedup_vs_native));
        // Much faster code than the cheap JIT (vectorization + spill ordering).
        assert!(flow.mean_speedup(Strategy::Split, Strategy::JitGreedy) > 1.2);
        // And much cheaper online than the JIT that redoes the analyses itself.
        assert!(flow.mean_online_work_ratio(Strategy::Split, Strategy::JitAnalyze) < 0.8);
        // While matching its code quality.
        let vs_thorough = flow.mean_speedup(Strategy::Split, Strategy::JitAnalyze);
        assert!((0.99..=1.01).contains(&vs_thorough));
        // Offline work is where the split strategy pays.
        let split_offline: u64 = flow.rows_for(Strategy::Split).map(|r| r.offline_work).sum();
        let greedy_offline: u64 = flow
            .rows_for(Strategy::JitGreedy)
            .map(|r| r.offline_work)
            .sum();
        assert!(split_offline > greedy_offline);
        let text = flow.render();
        assert!(text.contains("split vs jit-greedy"));
        // 6 kernels x 2 offline configurations x 1 target compiled; the three
        // full-pipeline strategies share one compiled program per target, so
        // the cache absorbs their extra runs.
        assert_eq!(flow.cache.compiles, 6 * 2);
        assert_eq!(flow.cache.lookups(), 6 * (2 + 4)); // precompiles + 4 strategy runs
        assert!(flow.cache.hits > flow.cache.compiles);
    }
}
