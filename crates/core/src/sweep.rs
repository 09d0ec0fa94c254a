//! Parallel `K kernels × T targets × R repeats` sweeps over one deployment.
//!
//! This is the batching layer between the experiment drivers / CLI and the
//! runtime's generic worker pool ([`splitc_runtime::sweep`]): it knows how to
//! prepare catalogue-kernel inputs in a [`Workspace`], fans the full matrix
//! out across worker threads that share one [`ExecutionEngine`], and returns
//! the per-cell measurements in deterministic (kernel-major) order.
//!
//! Two amortizations happen here, per the paper's "compile once, run many
//! times" economics:
//!
//! * **online compilation** — all workers share the engine's code cache
//!   (one lock, compiles outside it), so a cold `(target, options)` pair is compiled exactly once no
//!   matter how many cells race on it;
//! * **workspace setup** — each worker allocates one scratch [`Workspace`]
//!   and resets it per cell instead of reallocating, so repeated runs of the
//!   same kernel pay for input generation only;
//! * **execution setup** — the engine caches the deploy-time-prepared
//!   program (`PreparedProgram`) per (target, options) pair, and each worker
//!   holds one [`FramePool`](splitc_runtime::FramePool), so every repeat of
//!   every cell runs pre-decoded code with recycled call frames
//!   ([`ExecutionEngine::run_pooled`]).
//!
//! Determinism: a cell's inputs depend only on `(kernel, n, seed, repeat)`,
//! never on which worker ran it or when, so a `--jobs 8` sweep is
//! bit-identical to a `--jobs 1` sweep — the property the concurrency test
//! suite pins down.

use crate::harness::{checksum, prepare};
use crate::report::{fmt_amortized_jit, fmt_cache_line, TextTable};
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{CacheStats, ExecutionEngine, FramePool};
use splitc_targets::TargetDesc;
use splitc_workloads::{module_for, Kernel};

/// Shape of one sweep: problem size, repetition count, worker pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Elements processed per kernel invocation.
    pub n: usize,
    /// How many times each (kernel, target) cell is executed.
    pub repeats: usize,
    /// Worker threads (1 = sequential on the calling thread, 0 = all cores).
    pub jobs: usize,
    /// Base seed for input data; each repeat derives its own seed from it.
    pub seed: u64,
    /// Online-compilation configuration shared by every cell.
    pub options: JitOptions,
}

impl SweepConfig {
    /// A sequential single-repeat sweep of `n` elements with split JIT options.
    pub fn new(n: usize) -> Self {
        SweepConfig {
            n,
            repeats: 1,
            jobs: 1,
            seed: 0xdac,
            options: JitOptions::split(),
        }
    }

    /// Same sweep, fanned over `jobs` workers.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Same sweep, repeating every cell `repeats` times.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// The effective worker count (resolving 0 to the host's parallelism).
    pub fn effective_jobs(&self) -> usize {
        resolve_jobs(self.jobs)
    }
}

/// Resolve a requested worker count: 0 means one worker per host core.
///
/// The single place the `--jobs 0` convention lives; the experiment drivers
/// and [`SweepConfig::effective_jobs`] all route through it.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        splitc_runtime::default_jobs()
    } else {
        jobs
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
    /// Worker threads the sweep actually used (the requested count, 0
    /// resolved to the host's cores, clamped to the number of cells).
    pub jobs: usize,
    /// All cells, ordered by (kernel, target, repeat).
    pub cells: Vec<SweepCell>,
    /// Code-cache counters of the shared engine after the sweep.
    pub cache: CacheStats,
    /// Total online-compilation work units spent by the engine.
    pub online_work: u64,
}

impl SweepResult {
    /// The checksums of every cell, in cell order (for bit-identity checks).
    pub fn checksums(&self) -> Vec<u64> {
        self.cells.iter().map(|c| c.checksum).collect()
    }

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
        let mut out = format!(
            "Sweep (n = {}, {} cells, {} workers)\n{}{}\n",
            self.n,
            self.cells.len(),
            self.jobs,
            table.render(),
            fmt_cache_line(&self.cache),
        );
        if self.jobs > 1 {
            out.push_str(&fmt_amortized_jit(self.online_work, self.jobs));
            out.push('\n');
        }
        out
    }
}

/// Sweep `kernels × targets × repeats` over an already-deployed engine.
///
/// The engine's module must contain every kernel in `kernels` (e.g. built
/// with [`module_for`]). Cells are returned in deterministic
/// (kernel, target, repeat) order whatever `cfg.jobs` is.
///
/// # Errors
///
/// Returns the first [`PipelineError`] any cell produced (compilation
/// failures are deduplicated by the engine: every cell racing on a broken
/// (target, options) pair reports the same error).
pub fn sweep_engine(
    engine: &ExecutionEngine,
    kernels: &[Kernel],
    targets: &[TargetDesc],
    cfg: &SweepConfig,
) -> Result<SweepResult, PipelineError> {
    let mut matrix = Vec::with_capacity(kernels.len() * targets.len() * cfg.repeats.max(1));
    for (ki, _) in kernels.iter().enumerate() {
        for (ti, _) in targets.iter().enumerate() {
            for repeat in 0..cfg.repeats.max(1) {
                matrix.push((ki, ti, repeat));
            }
        }
    }
    // Record the worker count the pool will actually run with, so the
    // amortized-per-worker figures divide by the real pool width.
    let jobs = splitc_runtime::pool_width(cfg.effective_jobs(), matrix.len());
    let outcomes: Vec<Result<SweepCell, PipelineError>> = splitc_runtime::sweep(
        &matrix,
        jobs,
        // Per-worker amortized state: one scratch workspace (reset per cell)
        // and one frame pool, so every run a worker executes reuses both the
        // engine's deploy-time-prepared program and the worker's frames.
        |_worker| (Workspace::sized_for(cfg.n), FramePool::new()),
        |(ws, pool), &(ki, ti, repeat), _| {
            let kernel = &kernels[ki];
            let target = &targets[ti];
            ws.reset();
            let prepared = prepare(kernel.name, cfg.n, cfg.seed.wrapping_add(repeat as u64), ws);
            let run = engine.run_pooled(
                target,
                &cfg.options,
                kernel.name,
                &prepared.args,
                ws.bytes_mut(),
                pool,
            )?;
            let sum = checksum(run.result, &prepared, ws);
            Ok(SweepCell {
                kernel: kernel.name.to_owned(),
                target: target.name.clone(),
                repeat,
                cycles: run.stats.cycles,
                scaled_cycles: run.scaled_cycles,
                checksum: sum,
            })
        },
    );
    let mut cells = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        cells.push(outcome?);
    }
    Ok(SweepResult {
        n: cfg.n,
        jobs,
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
    fn parallel_sweeps_are_bit_identical_to_sequential_ones() {
        let kernels = table1_kernels();
        let targets = TargetDesc::table1_targets();
        let sequential =
            sweep_kernels(&kernels, &targets, &SweepConfig::new(96).with_repeats(2)).unwrap();
        let parallel = sweep_kernels(
            &kernels,
            &targets,
            &SweepConfig::new(96).with_repeats(2).with_jobs(4),
        )
        .unwrap();
        assert_eq!(sequential.checksums(), parallel.checksums());
        assert_eq!(sequential.cells, parallel.cells);
        // Both sweeps compiled each (target, options) pair exactly once.
        assert_eq!(sequential.cache.compiles, targets.len() as u64);
        assert_eq!(parallel.cache.compiles, targets.len() as u64);
        assert_eq!(parallel.cache.lookups(), sequential.cache.lookups());
    }

    #[test]
    fn cells_come_back_kernel_major() {
        let kernels = table1_kernels();
        let targets = TargetDesc::table1_targets();
        let result = sweep_kernels(&kernels, &targets, &SweepConfig::new(64).with_jobs(3)).unwrap();
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
        assert!(text.contains("online compilations"));
        assert!(!text.contains("amortized online cost"), "jobs = 1");
        let parallel =
            sweep_kernels(kernels, &targets, &SweepConfig::new(32).with_jobs(2)).unwrap();
        // One kernel on one target: only one cell, so the pool clamps to one
        // worker and the recorded width (and the render) reflect that.
        assert_eq!(parallel.jobs, 1);
        assert!(!parallel.render().contains("amortized online cost"));
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
        assert_eq!(a.checksums(), b.checksums());
        assert!(
            a.cells
                .iter()
                .zip(&b.cells)
                .any(|(ca, cb)| ca.cycles != cb.cycles),
            "the two tiers should not price every cell identically"
        );
    }

    #[test]
    fn recorded_jobs_is_the_actual_pool_width() {
        let kernels = table1_kernels();
        let targets = TargetDesc::table1_targets();
        // 18 cells, 4 workers requested -> 4 used.
        let wide = sweep_kernels(&kernels, &targets, &SweepConfig::new(32).with_jobs(4)).unwrap();
        assert_eq!(wide.jobs, 4);
        // 18 cells, 100 workers requested -> clamped to the cell count, so
        // the amortized-per-worker figure divides by a real pool width.
        let over = sweep_kernels(&kernels, &targets, &SweepConfig::new(32).with_jobs(100)).unwrap();
        assert_eq!(over.jobs, kernels.len() * targets.len());
    }
}
