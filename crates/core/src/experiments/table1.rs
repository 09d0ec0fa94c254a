//! Experiment E1 — the paper's Table 1: split automatic vectorization.
//!
//! Six kernels are compiled once to portable bytecode, in two variants:
//! *scalar* (no offline vectorization) and *vectorized* (offline vectorization
//! to portable builtins). Each variant is then JIT-compiled and executed on
//! the three Table 1 machines. The x86 JIT recognizes the builtins and emits
//! SSE-style SIMD; the UltraSparc and PowerPC JITs have no usable SIMD unit
//! and scalarize. The reported quantity per kernel and machine is the
//! scalar/vectorized run-time ratio — the paper's "relative" column.

use crate::harness::{checksum, prepare};
use crate::report::{fmt_cache_line, fmt_speedup, TextTable};
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{CacheStats, ExecutionEngine};
use splitc_targets::TargetDesc;
use splitc_workloads::{module_for, table1_kernels};

/// Measurements of one kernel on one target.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Cell {
    /// Target name.
    pub target: String,
    /// Simulated cycles of the scalar-bytecode variant.
    pub scalar_cycles: u64,
    /// Simulated cycles of the vectorized-bytecode variant.
    pub vector_cycles: u64,
}

impl Table1Cell {
    /// Scalar-over-vector run-time ratio (the paper's "relative" column;
    /// greater than 1 means the vectorized bytecode is faster).
    pub fn speedup(&self) -> f64 {
        self.scalar_cycles as f64 / self.vector_cycles as f64
    }
}

/// One row of the table: a kernel across all targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Kernel name.
    pub kernel: String,
    /// One cell per target, in [`Table1::targets`] order.
    pub cells: Vec<Table1Cell>,
}

/// The reproduced Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Elements processed per kernel invocation.
    pub n: usize,
    /// Target names, in column order.
    pub targets: Vec<String>,
    /// One row per kernel, in the paper's order.
    pub rows: Vec<Table1Row>,
    /// Engine code-cache counters summed over both module variants: the
    /// amortized cost of the online step across the whole sweep.
    pub cache: CacheStats,
    /// Total online-compilation work units across both variants.
    pub online_work: u64,
}

impl Table1 {
    /// The cell for `kernel` on `target`, if present.
    pub fn cell(&self, kernel: &str, target: &str) -> Option<&Table1Cell> {
        self.rows
            .iter()
            .find(|r| r.kernel == kernel)
            .and_then(|r| r.cells.iter().find(|c| c.target == target))
    }

    /// Render the table in the paper's layout (scalar, vect., relative per target).
    pub fn render(&self) -> String {
        let mut header: Vec<String> = vec!["benchmark".into()];
        for t in &self.targets {
            header.push(format!("{t} scalar"));
            header.push(format!("{t} vect."));
            header.push(format!("{t} relative"));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&header_refs);
        for row in &self.rows {
            let mut cells = vec![row.kernel.clone()];
            for c in &row.cells {
                cells.push(c.scalar_cycles.to_string());
                cells.push(c.vector_cycles.to_string());
                cells.push(fmt_speedup(c.speedup()));
            }
            table.row(cells);
        }
        format!(
            "Table 1 reproduction — split automatic vectorization (n = {} elements, simulated cycles)\n{}{}\n",
            self.n,
            table.render(),
            fmt_cache_line(&self.cache),
        )
    }
}

/// Run the Table 1 experiment with `n` elements per kernel.
///
/// # Errors
///
/// Returns a [`PipelineError`] if any kernel fails to compile or execute.
pub fn run(n: usize) -> Result<Table1, PipelineError> {
    run_on(n, &TargetDesc::table1_targets())
}

/// Run the Table 1 experiment on a caller-chosen set of targets.
///
/// Each kernel is compiled and deployed in both variants first; then each of
/// its kernel × target cells runs both, reusing one scratch workspace.
///
/// # Errors
///
/// Returns a [`PipelineError`] if any kernel fails to compile or execute.
pub fn run_on(n: usize, targets: &[TargetDesc]) -> Result<Table1, PipelineError> {
    let scalar_opts = OptOptions {
        vectorize: false,
        ..OptOptions::full()
    };
    let jit = JitOptions::split();
    let mut ws = Workspace::sized_for(n);
    let mut rows = Vec::new();
    let mut cache = CacheStats::default();
    let mut online_work = 0;
    for kernel in table1_kernels() {
        let base = module_for(std::slice::from_ref(&kernel), kernel.name)
            .map_err(PipelineError::Frontend)?;
        let mut scalar_module = base.clone();
        optimize_module(&mut scalar_module, &scalar_opts);
        let mut vector_module = base;
        optimize_module(&mut vector_module, &OptOptions::full());

        // Deploy each variant once; all compilation happens here, before the
        // measured cells (the engine cache turns every measured run into a hit).
        let scalar = ExecutionEngine::new(scalar_module);
        let vector = ExecutionEngine::new(vector_module);
        scalar.precompile(targets, &jit)?;
        vector.precompile(targets, &jit)?;

        let mut cells = Vec::with_capacity(targets.len());
        for target in targets {
            let mut run_variant = |engine: &ExecutionEngine| -> Result<(u64, u64), PipelineError> {
                ws.reset();
                let prepared = prepare(kernel.name, n, 0xdac0 + n as u64, &mut ws);
                let m = engine.run(target, &jit, kernel.name, &prepared.args, ws.bytes_mut())?;
                Ok((m.stats.cycles, checksum(m.result, &prepared, &ws)))
            };
            let (scalar_cycles, scalar_sum) = run_variant(&scalar)?;
            let (vector_cycles, vector_sum) = run_variant(&vector)?;
            debug_assert_eq!(
                scalar_sum, vector_sum,
                "{} on {}: vectorization changed the result",
                kernel.name, target.name
            );
            cells.push(Table1Cell {
                target: target.name.clone(),
                scalar_cycles,
                vector_cycles,
            });
        }
        cache += scalar.stats();
        cache += vector.stats();
        online_work += scalar.online_work() + vector.online_work();
        rows.push(Table1Row {
            kernel: kernel.name.to_owned(),
            cells,
        });
    }
    Ok(Table1 {
        n,
        targets: targets.iter().map(|t| t.name.clone()).collect(),
        rows,
        cache,
        online_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_six_rows_and_three_targets() {
        let t = run(256).expect("experiment runs");
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.targets, vec!["x86-sse", "ultrasparc", "powerpc"]);
        assert!(t.render().contains("saxpy_f32"));
        assert!(t.cell("max_u8", "x86-sse").is_some());
        assert!(t.cell("max_u8", "vax").is_none());
        // 6 kernels x 2 variants, each compiled once per target — and every
        // measured run was served from the engine cache.
        assert_eq!(t.cache.compiles as usize, 6 * 2 * t.targets.len());
        assert_eq!(t.cache.hits, t.cache.compiles);
        assert!(t.render().contains("online compilations"));
    }

    #[test]
    fn the_full_catalogue_sweeps_cleanly_and_the_gpu_loves_vectors() {
        // The driver must accept any preset list, not just the paper's three
        // machines: the whole catalogue (RISC-V and GPU families included)
        // sweeps without errors and yields one cell per kernel × target.
        let targets = TargetDesc::presets();
        let t = run_on(256, &targets).expect("experiment runs over the catalogue");
        assert_eq!(t.targets.len(), targets.len());
        for row in &t.rows {
            assert_eq!(row.cells.len(), targets.len(), "{}", row.kernel);
        }
        // 16 f32 lanes and near-free vector ops: offline vectorization pays
        // off more on the GPU than on 4-lane SSE...
        let gpu = t.cell("saxpy_f32", "gpu-wide").unwrap().speedup();
        let x86 = t.cell("saxpy_f32", "x86-sse").unwrap().speedup();
        assert!(
            gpu > x86,
            "the 16-lane GPU ({gpu:.2}x) should outpace 4-lane SSE ({x86:.2}x)"
        );
        // ...while the scalar RISC-V core scalarizes and stays in the same
        // modest band as the other scalar machines.
        let riscv = t.cell("saxpy_f32", "riscv-rv64").unwrap().speedup();
        assert!(
            (0.4..3.3).contains(&riscv),
            "scalarized speedup {riscv:.2} out of plausible range"
        );
    }

    #[test]
    fn x86_speedups_follow_the_paper_shape() {
        let t = run(512).expect("experiment runs");
        // Floating-point kernels: clear but moderate speedups on x86.
        for k in ["vecadd_f32", "saxpy_f32", "dscal_f32"] {
            let s = t.cell(k, "x86-sse").unwrap().speedup();
            assert!(s > 1.3, "{k} on x86 should benefit from SSE, got {s:.2}");
        }
        // Byte kernels: much larger speedups (16 lanes per vector).
        let m = t.cell("max_u8", "x86-sse").unwrap().speedup();
        let fp = t.cell("saxpy_f32", "x86-sse").unwrap().speedup();
        assert!(
            m > 2.0,
            "max u8 on x86 should gain well over 2x, got {m:.1}"
        );
        assert!(
            m > 2.0 * fp,
            "max u8 ({m:.1}) should outpace saxpy ({fp:.1}) on x86"
        );
        // Scalar-only targets stay within a modest factor of the scalar code
        // (the simulated baseline overstates loop overhead somewhat, so the
        // upper bound is looser than the paper's 1.5x).
        for target in ["ultrasparc", "powerpc"] {
            for row in &t.rows {
                let s = t.cell(&row.kernel, target).unwrap().speedup();
                assert!(
                    (0.4..3.3).contains(&s),
                    "{} on {target}: scalarized speedup {s:.2} out of plausible range",
                    row.kernel
                );
            }
        }
    }
}
