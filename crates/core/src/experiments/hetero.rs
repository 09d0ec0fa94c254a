//! Experiment E4 — heterogeneity scenarios of Section 3.
//!
//! The same vectorized bytecode is deployed, unmodified, to very different
//! machines: the x86 workstation it was developed on, an ARM+Neon phone core,
//! and a Cell-style blade where the host PPE can either run the kernel itself
//! or offload it to an SPU accelerator (paying DMA transfers both ways). The
//! experiment sweeps the problem size to expose the offload-profitability
//! crossover and demonstrates performance portability from one binary.

use crate::harness::prepare;
use crate::report::{fmt_cache_line, TextTable};
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{run_offloaded, CacheStats, EngineError, ExecutionEngine, Platform};
use splitc_workloads::{kernel, module_for};

/// One execution configuration of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeteroConfig {
    /// The x86 workstation (SIMD host).
    Workstation,
    /// The phone's ARM core with Neon.
    PhoneArm,
    /// The Cell host core (PPE), no offload.
    CellHost,
    /// Offloaded to one Cell SPU, including DMA transfers.
    CellSpuOffload,
    /// The RISC-V host core of the GPU node, no offload.
    RiscvHost,
    /// Offloaded to the GPU-style wide-SIMD accelerator over the node's slow
    /// off-chip link, including the transfers.
    GpuOffload,
}

impl HeteroConfig {
    /// All configurations, in reporting order.
    pub const ALL: [HeteroConfig; 6] = [
        HeteroConfig::Workstation,
        HeteroConfig::PhoneArm,
        HeteroConfig::CellHost,
        HeteroConfig::CellSpuOffload,
        HeteroConfig::RiscvHost,
        HeteroConfig::GpuOffload,
    ];

    /// Short label used in the report.
    pub fn label(self) -> &'static str {
        match self {
            HeteroConfig::Workstation => "x86 workstation",
            HeteroConfig::PhoneArm => "phone arm+neon",
            HeteroConfig::CellHost => "cell ppe (host)",
            HeteroConfig::CellSpuOffload => "cell spu (offload)",
            HeteroConfig::RiscvHost => "riscv host",
            HeteroConfig::GpuOffload => "gpu (offload)",
        }
    }
}

/// Scaled execution time of one configuration at one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCell {
    /// Configuration measured.
    pub config: HeteroConfig,
    /// Compute time in scaled cycles.
    pub compute: f64,
    /// Data transfer overhead in scaled cycles (offload only).
    pub transfer: f64,
}

impl HeteroCell {
    /// Total time as seen by the application.
    pub fn total(&self) -> f64 {
        self.compute + self.transfer
    }
}

/// Measurements for one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroRow {
    /// Elements processed.
    pub n: usize,
    /// One cell per configuration.
    pub cells: Vec<HeteroCell>,
}

impl HeteroRow {
    /// The cell for `config`.
    pub fn cell(&self, config: HeteroConfig) -> Option<&HeteroCell> {
        self.cells.iter().find(|c| c.config == config)
    }
}

/// The complete experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Hetero {
    /// Kernel used for the sweep.
    pub kernel: String,
    /// One row per problem size.
    pub rows: Vec<HeteroRow>,
    /// Engine code-cache counters: one compilation per distinct core type,
    /// however many problem sizes the sweep measures.
    pub cache: CacheStats,
    /// Total online-compilation work units spent by the deployment.
    pub online_work: u64,
}

impl Hetero {
    /// The smallest problem size at which `offload` beats `host`, if any size
    /// in the sweep does.
    pub fn crossover(&self, host: HeteroConfig, offload: HeteroConfig) -> Option<usize> {
        self.rows
            .iter()
            .find(|r| {
                let h = r.cell(host).map(HeteroCell::total);
                let o = r.cell(offload).map(HeteroCell::total);
                matches!((h, o), (Some(h), Some(o)) if o < h)
            })
            .map(|r| r.n)
    }

    /// The smallest problem size at which offloading to the SPU beats running
    /// on the Cell host core, if any size in the sweep does.
    pub fn offload_crossover(&self) -> Option<usize> {
        self.crossover(HeteroConfig::CellHost, HeteroConfig::CellSpuOffload)
    }

    /// The smallest problem size at which offloading to the GPU (over the
    /// slow off-chip link) beats the RISC-V host, if any size does.
    pub fn gpu_crossover(&self) -> Option<usize> {
        self.crossover(HeteroConfig::RiscvHost, HeteroConfig::GpuOffload)
    }

    /// Render the sweep and the crossover summary.
    pub fn render(&self) -> String {
        let mut header = vec!["n".to_owned()];
        for c in HeteroConfig::ALL {
            header.push(c.label().to_owned());
        }
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&refs);
        for row in &self.rows {
            let mut cells = vec![row.n.to_string()];
            for c in HeteroConfig::ALL {
                let cell = row.cell(c).expect("every configuration measured");
                cells.push(format!("{:.0}", cell.total()));
            }
            table.row(cells);
        }
        let crossover = match self.offload_crossover() {
            Some(n) => format!("SPU offload beats the Cell host from n = {n} elements on"),
            None => "SPU offload never beats the Cell host in this sweep".to_owned(),
        };
        let gpu_crossover = match self.gpu_crossover() {
            Some(n) => format!("GPU offload beats the RISC-V host from n = {n} elements on"),
            None => "GPU offload never beats the RISC-V host in this sweep".to_owned(),
        };
        format!(
            "Heterogeneous deployment of `{}` (scaled cycles, lower is better)\n{}\n{}\n{}\n{}\n",
            self.kernel,
            table.render(),
            crossover,
            gpu_crossover,
            fmt_cache_line(&self.cache),
        )
    }
}

/// Run the heterogeneity experiment for `kernel_name` over the given sizes.
///
/// # Errors
///
/// Returns a [`PipelineError`] if compilation or execution fails, or if the
/// kernel is not in the workload catalogue.
pub fn run(kernel_name: &str, sizes: &[usize]) -> Result<Hetero, PipelineError> {
    let k =
        kernel(kernel_name).ok_or_else(|| EngineError::UnknownKernel(kernel_name.to_owned()))?;
    let mut module =
        module_for(std::slice::from_ref(&k), kernel_name).map_err(PipelineError::Frontend)?;
    optimize_module(&mut module, &OptOptions::full());

    let workstation = Platform::workstation();
    let phone = Platform::phone();
    let cell = Platform::cell_blade(1);
    let gpu_node = Platform::gpu_node();
    let engine = ExecutionEngine::new(module);
    let options = JitOptions::split();
    // One deployment serves every configuration; compile each distinct core
    // type once, before the size sweep starts measuring.
    engine.precompile(
        [
            workstation.host(),
            phone.core("arm").expect("phone has an arm core"),
            cell.host(),
            cell.core("spu0").expect("blade has an spu"),
            gpu_node.host(),
            gpu_node.core("gpu").expect("node has a gpu"),
        ]
        .map(|core| &core.target),
        &options,
    )?;

    // Every (size, configuration) cell, in one workspace sized for the
    // largest problem of the sweep.
    let mut ws = Workspace::sized_for(sizes.iter().copied().max().unwrap_or(0));
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let mut cells = Vec::with_capacity(HeteroConfig::ALL.len());
        for config in HeteroConfig::ALL {
            ws.reset();
            let prepared = prepare(kernel_name, n, 0x4e7 + n as u64, &mut ws);
            let (core, dma) = match config {
                HeteroConfig::Workstation => (workstation.host(), None),
                HeteroConfig::PhoneArm => (phone.core("arm").expect("phone has an arm core"), None),
                HeteroConfig::CellHost => (cell.host(), None),
                HeteroConfig::CellSpuOffload => (
                    cell.core("spu0").expect("blade has an spu"),
                    Some(&cell.dma),
                ),
                HeteroConfig::RiscvHost => (gpu_node.host(), None),
                HeteroConfig::GpuOffload => (
                    gpu_node.core("gpu").expect("node has a gpu"),
                    Some(&gpu_node.dma),
                ),
            };
            let run = engine.run(
                &core.target,
                &options,
                kernel_name,
                &prepared.args,
                ws.bytes_mut(),
            )?;
            let transfer = dma.map_or(0.0, |dma| {
                let bytes_out = prepared.output.map(|(_, len)| len).unwrap_or(8);
                run_offloaded(&run, dma, prepared.input_bytes, bytes_out).dma_cycles as f64
            });
            cells.push(HeteroCell {
                config,
                compute: run.scaled_cycles,
                transfer,
            });
        }
        rows.push(HeteroRow { n, cells });
    }
    Ok(Hetero {
        kernel: kernel_name.to_owned(),
        rows,
        cache: engine.stats(),
        online_work: engine.online_work(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_pays_off_only_for_large_problems() {
        let result = run("saxpy_f32", &[64, 4096, 32768]).expect("experiment runs");
        assert_eq!(result.rows.len(), 3);
        let small = &result.rows[0];
        let large = &result.rows[2];
        // For tiny problems the DMA overhead dominates.
        assert!(
            small.cell(HeteroConfig::CellSpuOffload).unwrap().total()
                > small.cell(HeteroConfig::CellHost).unwrap().total(),
            "offloading 64 elements should not pay off"
        );
        // For large problems the SIMD accelerator wins despite the transfers.
        assert!(
            large.cell(HeteroConfig::CellSpuOffload).unwrap().total()
                < large.cell(HeteroConfig::CellHost).unwrap().total(),
            "offloading 32k elements should pay off"
        );
        assert!(result.offload_crossover().is_some());
        assert!(result.render().contains("SPU offload"));
        assert!(result.render().contains("GPU offload"));
        // Six distinct core types (x86, arm, ppe, spu, riscv, gpu) compiled
        // once each; every measured run of the sweep hit the engine cache.
        assert_eq!(result.cache.compiles, HeteroConfig::ALL.len() as u64);
        assert_eq!(result.cache.hits, (3 * HeteroConfig::ALL.len()) as u64);
    }

    #[test]
    fn gpu_offload_pays_its_offchip_link_only_at_scale() {
        // The modern variant of the paper's Section 3 story: the wide-SIMD
        // accelerator sits behind a *slow off-chip* link, so the crossover
        // exists but needs a larger problem than the Cell's on-board ring.
        let result = run("saxpy_f32", &[64, 4096, 65536]).expect("experiment runs");
        let small = &result.rows[0];
        let large = &result.rows[2];
        assert!(
            small.cell(HeteroConfig::GpuOffload).unwrap().total()
                > small.cell(HeteroConfig::RiscvHost).unwrap().total(),
            "offloading 64 elements over the off-chip link should not pay off"
        );
        assert!(
            large.cell(HeteroConfig::GpuOffload).unwrap().total()
                < large.cell(HeteroConfig::RiscvHost).unwrap().total(),
            "offloading 64k elements to 16 f32 lanes should pay off"
        );
        assert!(result.gpu_crossover().is_some());
        // The transfers really ride the slow link: at the large size the DMA
        // share of the offloaded total is substantial.
        let cell = large.cell(HeteroConfig::GpuOffload).unwrap();
        assert!(cell.transfer > 0.0);
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        assert!(run("not_a_kernel", &[16]).is_err());
    }
}
