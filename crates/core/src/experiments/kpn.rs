//! Experiment E6 — Kahn process networks for portable concurrency (Section 4).
//!
//! The paper ends by arguing that future bytecode formats should carry
//! *portable, deterministic, composable* concurrency, with Kahn process
//! networks as the semantic basis. This experiment builds an image-processing
//! pipeline out of the kernel catalogue (brighten → threshold → copy), measures
//! the per-firing cost of every stage on every core of a platform by actually
//! JIT-compiling and simulating the stage kernels, and then compares the
//! makespan of running the whole network on the host core against pipelining
//! it across the platform's cores.

use crate::harness::prepare;
use crate::report::TextTable;
use crate::session::{PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{profile_pipeline, CacheStats, ExecutionEngine, KpnReport, Platform};
use splitc_workloads::{module_for, pipeline_kernels};

/// Result of mapping the pipeline one way onto the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingResult {
    /// Human-readable mapping description.
    pub label: String,
    /// Core index per pipeline stage.
    pub mapping: Vec<usize>,
    /// Simulation outcome.
    pub report: KpnReport,
}

/// The complete experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Kpn {
    /// Platform used.
    pub platform: String,
    /// Stage (kernel) names, in pipeline order.
    pub stages: Vec<String>,
    /// Frame size in elements.
    pub frame_elems: usize,
    /// Number of frames pushed through the pipeline.
    pub frames: u64,
    /// Per-stage, per-core firing costs in scaled cycles.
    pub stage_costs: Vec<Vec<f64>>,
    /// Results of the evaluated mappings.
    pub mappings: Vec<MappingResult>,
    /// Engine code-cache counters from profiling the stages: one compilation
    /// per distinct core type of the platform.
    pub cache: CacheStats,
}

impl Kpn {
    /// Speedup of the best mapping over the all-on-host mapping.
    pub fn pipeline_speedup(&self) -> f64 {
        let host = self
            .mappings
            .first()
            .map(|m| m.report.makespan)
            .unwrap_or(0.0);
        let best = self
            .mappings
            .iter()
            .map(|m| m.report.makespan)
            .fold(f64::INFINITY, f64::min);
        if best == 0.0 {
            1.0
        } else {
            host / best
        }
    }

    /// Render the mapping comparison.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&["mapping", "makespan", "utilization"]);
        for m in &self.mappings {
            table.row(vec![
                m.label.clone(),
                format!("{:.0}", m.report.makespan),
                format!("{:.0}%", m.report.utilization() * 100.0),
            ]);
        }
        format!(
            "Kahn process network `{}` on {} ({} frames of {} elements)\n{}\n\
             pipelining speedup over the host-only mapping: {:.2}x\n\
             online compilations: {} across {} stage profilings ({} served from the engine cache)\n",
            self.stages.join(" -> "),
            self.platform,
            self.frames,
            self.frame_elems,
            table.render(),
            self.pipeline_speedup(),
            self.cache.compiles,
            self.cache.lookups(),
            self.cache.hits,
        )
    }
}

/// Run the Kahn-network experiment: `frames` frames of `frame_elems` bytes
/// through the three-stage image pipeline on `platform`.
///
/// # Errors
///
/// Returns a [`PipelineError`] if any stage fails to compile or execute.
pub fn run(platform: &Platform, frame_elems: usize, frames: u64) -> Result<Kpn, PipelineError> {
    let stages = pipeline_kernels();
    let mut module = module_for(&stages, "pipeline").map_err(PipelineError::Frontend)?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    let options = JitOptions::split();
    // Compile each distinct core type once, before any stage is profiled.
    engine.precompile(platform.cores.iter().map(|c| &c.target), &options)?;

    // Measure the per-firing cost of every stage on every core through the
    // shared engine and build the network from the measured costs.
    let stage_names: Vec<&str> = stages.iter().map(|s| s.name).collect();
    let (net, stage_costs) = profile_pipeline(
        &engine,
        &options,
        platform,
        &stage_names,
        frames,
        |stage, _core| {
            let mut ws = Workspace::sized_for(frame_elems);
            let prepared = prepare(stage, frame_elems, 0x609, &mut ws);
            (prepared.args, ws.into_bytes())
        },
    )?;

    // Mapping 1: everything on the host core.
    let host_mapping = vec![0usize; stages.len()];
    // Mapping 2: spread the stages round-robin over the cores.
    let spread_mapping: Vec<usize> = (0..stages.len())
        .map(|i| i % platform.cores.len())
        .collect();
    // Mapping 3: each stage on its cheapest core.
    let greedy_mapping: Vec<usize> = stage_costs
        .iter()
        .map(|costs| {
            costs
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();

    let mut mappings = Vec::new();
    for (label, mapping) in [
        ("host only".to_owned(), host_mapping),
        ("round robin".to_owned(), spread_mapping),
        ("cheapest core per stage".to_owned(), greedy_mapping),
    ] {
        let report = net.simulate(&mapping, platform.cores.len());
        mappings.push(MappingResult {
            label,
            mapping,
            report,
        });
    }

    Ok(Kpn {
        platform: platform.name.clone(),
        stages: stages.iter().map(|s| s.name.to_owned()).collect(),
        frame_elems,
        frames,
        stage_costs,
        mappings,
        cache: engine.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_across_cores_beats_the_host_only_mapping() {
        let platform = Platform::cell_blade(2);
        let result = run(&platform, 256, 16).expect("experiment runs");
        assert_eq!(result.stages.len(), 3);
        assert_eq!(result.mappings.len(), 3);
        // Every stage fired once per frame under every mapping (determinism).
        for m in &result.mappings {
            assert!(m.report.firings.iter().all(|f| *f == 16));
        }
        assert!(
            result.pipeline_speedup() > 1.2,
            "expected a pipelining win, got {:.2}x",
            result.pipeline_speedup()
        );
        assert!(result.render().contains("pipelining speedup"));
        // A cell blade with 2 SPUs has 3 cores but only 2 core types; the
        // 3 stages x 3 cores profiling runs reuse those two programs.
        assert_eq!(result.cache.compiles, 2);
        assert_eq!(result.cache.lookups(), 3 + 9); // precompile + profiling
    }
}
