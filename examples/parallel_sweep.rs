//! Parallel sweeps: fan a kernel × target × repeat matrix across cores.
//!
//! One deployment, many workers: the engine's in-flight-deduplicated code
//! cache guarantees each (target, JIT-options) pair compiles exactly
//! once even when workers race on cold keys, and the sweep layer returns the
//! cells in deterministic order — a parallel sweep is bit-identical to a
//! sequential one. The example also bounds the cache with an LRU limit to
//! show the eviction counters long-running deployments watch.
//!
//! Run with: `cargo run --example parallel_sweep`

use splitc::splitc_targets::TargetDesc;
use splitc::splitc_workloads::table1_kernels;
use splitc::sweep::{sweep_kernels, SweepConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernels = table1_kernels();
    let targets = TargetDesc::presets();

    // Sequential reference sweep, then the same matrix over 4 workers.
    let sequential = sweep_kernels(&kernels, &targets, &SweepConfig::new(512).with_repeats(3))?;
    let parallel = sweep_kernels(
        &kernels,
        &targets,
        &SweepConfig::new(512).with_repeats(3).with_jobs(4),
    )?;

    assert_eq!(
        sequential.checksums(),
        parallel.checksums(),
        "parallelism never changes results"
    );
    println!(
        "{} cells ({} kernels x {} targets x 3 repeats), 4 workers",
        parallel.cells.len(),
        kernels.len(),
        targets.len()
    );
    println!(
        "online compilations: {} (one per target), cache hits: {}",
        parallel.cache.compiles, parallel.cache.hits
    );

    // Bound the cache below the number of targets: the sweep still succeeds,
    // it just recompiles evicted entries (bit-identically) and counts it.
    let engine = splitc::ExecutionEngine::new({
        let mut m = splitc::splitc_workloads::module_for(&kernels, "bounded")?;
        splitc::splitc_opt::optimize_module(&mut m, &splitc::splitc_opt::OptOptions::full());
        m
    });
    engine.set_cache_capacity(2);
    let bounded = splitc::sweep::sweep_engine(
        &engine,
        &kernels,
        &targets,
        &SweepConfig::new(512).with_jobs(4),
    )?;
    let first_repeats: Vec<u64> = sequential
        .cells
        .iter()
        .filter(|c| c.repeat == 0)
        .map(|c| c.checksum)
        .collect();
    assert_eq!(
        bounded.checksums(),
        first_repeats,
        "eviction churn never changes results"
    );
    println!(
        "with a 2-entry LRU bound: {} compiles, {} evictions, {} programs resident",
        bounded.cache.compiles,
        bounded.cache.evictions,
        engine.compiled_variants()
    );
    Ok(())
}
