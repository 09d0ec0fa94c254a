//! Sequential `K kernels × T targets × R repeats` sweeps over one deployment.
//!
//! This is the batching layer between the CLI and the runtime's
//! [`ExecutionEngine`]: it knows how to prepare catalogue-kernel inputs in a
//! [`Workspace`], runs the full matrix in kernel-major order on the calling
//! thread, and returns the per-cell measurements in that order.
//!
//! Three amortizations happen here, per the paper's "compile once, run many
//! times" economics:
//!
//! * **online compilation** — every cell goes through the engine's code
//!   cache, so a `(target, options)` pair is compiled exactly once however
//!   many kernels and repeats run on it;
//! * **workspace setup** — one scratch [`Workspace`] is reset per cell
//!   instead of reallocated, so repeated runs of the same kernel pay for
//!   input generation only;
//! * **execution setup** — the engine caches the deploy-time-prepared
//!   program (`PreparedProgram`) per (target, options) pair, and the sweep
//!   holds one [`FramePool`](splitc_runtime::FramePool), so every repeat of
//!   every cell runs pre-decoded code with recycled call frames
//!   ([`ExecutionEngine::run_pooled`]).
//!
//! Determinism: a cell's inputs depend only on `(kernel, n, seed, repeat)`,
//! so a cell reads the same whatever else the sweep runs.

use crate::harness::{checksum, prepare};
use crate::report::{fmt_cache_line, TextTable};
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{CacheStats, ExecutionEngine, FramePool};
use splitc_targets::TargetDesc;
use splitc_workloads::{module_for, Kernel};

/// Shape of one sweep: problem size, repetition count, seed and JIT options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Elements processed per kernel invocation.
    pub n: usize,
    /// How many times each (kernel, target) cell is executed.
    pub repeats: usize,
    /// Base seed for input data; each repeat derives its own seed from it.
    pub seed: u64,
    /// Online-compilation configuration shared by every cell.
    pub options: JitOptions,
}

impl SweepConfig {
    /// A single-repeat sweep of `n` elements with split JIT options.
    pub fn new(n: usize) -> Self {
        SweepConfig {
            n,
            repeats: 1,
            seed: 0xdac,
            options: JitOptions::split(),
        }
    }

    /// Same sweep, repeating every cell `repeats` times.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }
}

/// One measured cell of the sweep matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Kernel name.
    pub kernel: String,
    /// Target name.
    pub target: String,
    /// Repeat index (0-based).
    pub repeat: usize,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Cycles scaled by the target's clock factor.
    pub scaled_cycles: f64,
    /// Checksum of the kernel's result and output region — the bit-identity
    /// handle the differential and concurrency suites compare.
    pub checksum: u64,
}

/// A completed sweep: every cell in kernel-major deterministic order, plus
/// the engine-level amortization counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Elements processed per kernel invocation.
    pub n: usize,
    /// All cells, ordered by (kernel, target, repeat).
    pub cells: Vec<SweepCell>,
    /// Code-cache counters of the shared engine after the sweep.
    pub cache: CacheStats,
    /// Total online-compilation work units spent by the engine.
    pub online_work: u64,
}

impl SweepResult {
    /// Total simulated cycles across all cells.
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Render a compact per-(kernel, target) table plus the cache summary.
    ///
    /// Only the first repeat of each (kernel, target) pair is tabulated;
    /// later repeats run on *differently seeded* inputs (each repeat derives
    /// its own seed from [`SweepConfig::seed`]), so their cycles and
    /// checksums legitimately differ. They still count in the cell total and
    /// the cache line.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&["kernel", "target", "cycles", "checksum"]);
        for cell in self.cells.iter().filter(|c| c.repeat == 0) {
            table.row(vec![
                cell.kernel.clone(),
                cell.target.clone(),
                cell.cycles.to_string(),
                format!("{:016x}", cell.checksum),
            ]);
        }
        format!(
            "Sweep (n = {}, {} cells)\n{}{}\n",
            self.n,
            self.cells.len(),
            table.render(),
            fmt_cache_line(&self.cache),
        )
    }
}

/// Sweep `kernels × targets × repeats` over an already-deployed engine.
///
/// The engine's module must contain every kernel in `kernels` (e.g. built
/// with [`module_for`]). Cells run and are returned in (kernel, target,
/// repeat) order, reusing one scratch workspace (reset per cell) and one
/// frame pool, so every run reuses the engine's deploy-time-prepared program
/// and the same frames.
///
/// # Errors
///
/// Returns the first [`PipelineError`] a cell produced; the cells after it
/// are not run.
pub fn sweep_engine(
    engine: &ExecutionEngine,
    kernels: &[Kernel],
    targets: &[TargetDesc],
    cfg: &SweepConfig,
) -> Result<SweepResult, PipelineError> {
    let repeats = cfg.repeats.max(1);
    let mut cells = Vec::with_capacity(kernels.len() * targets.len() * repeats);
    let mut ws = Workspace::sized_for(cfg.n);
    let mut pool = FramePool::new();
    for kernel in kernels {
        for target in targets {
            for repeat in 0..repeats {
                ws.reset();
                let seed = cfg.seed.wrapping_add(repeat as u64);
                let prepared = prepare(kernel.name, cfg.n, seed, &mut ws);
                let run = engine.run_pooled(
                    target,
                    &cfg.options,
                    kernel.name,
                    &prepared.args,
                    ws.bytes_mut(),
                    &mut pool,
                )?;
                cells.push(SweepCell {
                    kernel: kernel.name.to_owned(),
                    target: target.name.clone(),
                    repeat,
                    cycles: run.stats.cycles,
                    scaled_cycles: run.scaled_cycles,
                    checksum: checksum(run.result, &prepared, &ws),
                });
            }
        }
    }
    Ok(SweepResult {
        n: cfg.n,
        cells,
        cache: engine.stats(),
        online_work: engine.online_work(),
    })
}

/// Compile `kernels` into one module (full offline optimization), deploy it,
/// and sweep it over `targets` — the one-call entry the CLI uses.
///
/// # Errors
///
/// Returns a [`PipelineError`] if the module fails to compile or any cell
/// fails to execute.
pub fn sweep_kernels(
    kernels: &[Kernel],
    targets: &[TargetDesc],
    cfg: &SweepConfig,
) -> Result<SweepResult, PipelineError> {
    let mut module = module_for(kernels, "sweep").map_err(PipelineError::Frontend)?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    sweep_engine(&engine, kernels, targets, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_workloads::table1_kernels;

    #[test]
    fn cells_come_back_kernel_major() {
        let kernels = table1_kernels();
        let targets = TargetDesc::table1_targets();
        let result = sweep_kernels(&kernels, &targets, &SweepConfig::new(64)).unwrap();
        assert_eq!(result.cells.len(), kernels.len() * targets.len());
        let mut expected = Vec::new();
        for k in &kernels {
            for t in &targets {
                expected.push((k.name.to_owned(), t.name.clone()));
            }
        }
        let got: Vec<(String, String)> = result
            .cells
            .iter()
            .map(|c| (c.kernel.clone(), c.target.clone()))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn render_includes_the_cache_line() {
        let kernels = &table1_kernels()[..1];
        let targets = [TargetDesc::x86_sse()];
        let result = sweep_kernels(kernels, &targets, &SweepConfig::new(32)).unwrap();
        let text = result.render();
        assert!(text.starts_with("Sweep (n = 32, 1 cells)\n"), "{text}");
        assert!(text.contains("online compilations"));
    }

    #[test]
    fn sweep_cells_apply_the_per_target_clock_factor() {
        let kernels = &table1_kernels()[..2];
        let targets = TargetDesc::presets();
        let result = sweep_kernels(kernels, &targets, &SweepConfig::new(48)).unwrap();
        for cell in &result.cells {
            let target = targets.iter().find(|t| t.name == cell.target).unwrap();
            let expect = target.scaled_time(cell.cycles);
            assert!(
                (cell.scaled_cycles - expect).abs() < 1e-9,
                "{}/{}: scaled_cycles {} != scaled_time({}) = {}",
                cell.kernel,
                cell.target,
                cell.scaled_cycles,
                cell.cycles,
                expect
            );
        }
    }

    #[test]
    fn timing_tiers_agree_on_checksums_and_differ_only_in_timing_stats() {
        use splitc_targets::TimingKind;
        let kernels = &table1_kernels()[..2];
        let flat = TargetDesc::table1_targets();
        let pipe: Vec<TargetDesc> = flat
            .iter()
            .map(|t| t.clone().with_timing(TimingKind::InOrder))
            .collect();
        let a = sweep_kernels(kernels, &flat, &SweepConfig::new(64)).unwrap();
        let b = sweep_kernels(kernels, &pipe, &SweepConfig::new(64)).unwrap();
        // Architectural results are bit-identical across timing tiers. The
        // cycle totals legitimately differ in either direction: the pipeline
        // retires one op per cycle plus stalls, while flat sums per-op costs.
        let checksums = |r: &SweepResult| r.cells.iter().map(|c| c.checksum).collect::<Vec<_>>();
        assert_eq!(checksums(&a), checksums(&b));
        assert!(
            a.cells
                .iter()
                .zip(&b.cells)
                .any(|(ca, cb)| ca.cycles != cb.cycles),
            "the two tiers should not price every cell identically"
        );
    }
}
