//! Integration suite for the on-disk compiled-artifact store: the split
//! of the split — compilation paid once per *store directory*, not once per
//! process.
//!
//! The contract under test: a warm start (fresh engine, populated store)
//! serves every `(module, target, options)` key from disk with **zero**
//! online compilations, and every store-loaded execution is bit-identical —
//! result, memory image, simulator stats, replayed `JitStats` — to a fresh
//! single-threaded [`run_on_target`] reference. Staleness and corruption
//! are never errors: a version-skewed or bit-flipped entry is rejected,
//! recompiled, and overwritten in place, so the store self-heals.

use splitc::{checksum_bytes, prepare, run_on_target, ArtifactStore, ExecutionEngine, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::TargetDesc;
use splitc_vbc::Module;
use splitc_workloads::{kernel, module_for, Kernel};
use std::sync::{Arc, Barrier};

/// Elements per kernel invocation — small enough to keep the 9-target
/// matrix fast, large enough to exercise the vector lanes.
const N: usize = 64;

/// The kernels the suite drives through the store (a vectorizable float
/// kernel and an integer reduction, so both SIMD and scalar artifact shapes
/// round-trip through disk).
fn suite_kernels() -> Vec<Kernel> {
    vec![
        kernel("saxpy_f32").expect("catalogue kernel"),
        kernel("sum_u8").expect("catalogue kernel"),
    ]
}

/// Compile the suite kernels into one optimized module.
fn offline() -> Module {
    let mut module = module_for(&suite_kernels(), "store-suite").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

/// A per-test store under the system temp dir, cleared on open.
fn temp_store(name: &str) -> Arc<ArtifactStore> {
    let dir =
        std::env::temp_dir().join(format!("splitc-store-suite-{}-{name}", std::process::id()));
    let store = ArtifactStore::open(dir).expect("temp store opens");
    store.clear();
    Arc::new(store)
}

/// Find every `.svba` entry file in a store directory.
fn entry_files(store: &ArtifactStore) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(store.dir())
        .expect("store dir readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "svba"))
        .collect();
    files.sort();
    files
}

/// Cold pass writes, warm pass reads: across the full 9-target preset
/// catalogue, a fresh engine on a populated store compiles nothing, hits
/// the disk once per key, and reproduces the single-threaded
/// [`run_on_target`] reference bit for bit — result, memory image,
/// checksum, simulator stats, and the replayed `JitStats`.
#[test]
fn warm_start_is_bit_identical_to_fresh_compilation_on_every_target() {
    let store = temp_store("bit-identity");
    let module = offline();
    let options = JitOptions::split();
    let targets = TargetDesc::presets();
    let kernels = suite_kernels();
    let keys = targets.len();

    let cold = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    let warm = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    for (engine, pass) in [(&cold, "cold"), (&warm, "warm")] {
        for target in &targets {
            for k in &kernels {
                // The reference: a fresh, store-free, cache-free compile.
                let mut ws = Workspace::sized_for(N);
                let inputs = prepare(k.name, N, 0xdac, &mut ws);
                let mut reference_mem = ws.into_bytes();
                let mut mem = reference_mem.clone();
                let reference = run_on_target(
                    &module,
                    target,
                    &options,
                    k.name,
                    &inputs.args,
                    &mut reference_mem,
                )
                .expect("reference run succeeds");

                let run = engine
                    .run(target, &options, k.name, &inputs.args, &mut mem)
                    .expect("stored run succeeds");
                assert_eq!(
                    run.result, reference.result,
                    "{pass} {} on {}: result",
                    k.name, target.name
                );
                assert_eq!(
                    mem, reference_mem,
                    "{pass} {} on {}: memory image",
                    k.name, target.name
                );
                assert_eq!(
                    checksum_bytes(run.result, &inputs, &mem),
                    checksum_bytes(reference.result, &inputs, &reference_mem),
                    "{pass} {} on {}: checksum",
                    k.name,
                    target.name
                );
                assert_eq!(
                    run.stats, reference.stats,
                    "{pass} {} on {}: simulator stats",
                    k.name, target.name
                );
                assert_eq!(
                    run.jit, reference.jit,
                    "{pass} {} on {}: JitStats must replay from disk exactly",
                    k.name, target.name
                );
            }
        }
    }

    let cold_stats = cold.stats();
    assert_eq!(
        cold_stats.compiles, keys as u64,
        "cold pass compiles once per target"
    );
    assert_eq!(cold_stats.disk_misses, keys as u64);
    assert_eq!(cold_stats.disk_hits, 0);
    assert_eq!(
        store.len(),
        keys,
        "one entry per (module, target, options) key"
    );

    let warm_stats = warm.stats();
    assert_eq!(warm_stats.compiles, 0, "warm start never compiles");
    assert_eq!(warm_stats.disk_hits, keys as u64, "one disk hit per key");
    assert_eq!(warm_stats.disk_misses, 0);
    assert_eq!(warm_stats.disk_rejects, 0);
    store.clear();
}

/// A store written by a different (older or newer) wire-format version must
/// never be trusted: flipping the embedded vbc `VERSION` byte makes every
/// entry a reject, the engine falls back to a fresh compile with identical
/// results, and the overwrite heals the entry for the next process.
#[test]
fn stale_version_entries_fall_back_and_are_overwritten() {
    let store = temp_store("stale-version");
    let module = offline();
    let options = JitOptions::split();
    let target = TargetDesc::x86_sse();

    let mut ws = Workspace::sized_for(N);
    let inputs = prepare("saxpy_f32", N, 7, &mut ws);
    let base_mem = ws.into_bytes();

    let cold = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    let mut cold_mem = base_mem.clone();
    let reference = cold
        .run(&target, &options, "saxpy_f32", &inputs.args, &mut cold_mem)
        .expect("cold run succeeds");

    // Skew the vbc version byte (offset 5: magic is 4 bytes, store format
    // version 1 byte) of every entry — the payload checksum still matches,
    // so only the version rung of the validation ladder can catch this.
    for entry in entry_files(&store) {
        let mut bytes = std::fs::read(&entry).expect("entry readable");
        bytes[5] ^= 0x55;
        std::fs::write(&entry, &bytes).expect("entry writable");
    }

    let engine = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    let mut mem = base_mem.clone();
    let run = engine
        .run(&target, &options, "saxpy_f32", &inputs.args, &mut mem)
        .expect("version skew must fall back, not fail");
    assert_eq!(run.result, reference.result);
    assert_eq!(mem, cold_mem, "fallback recompilation is bit-identical");
    let stats = engine.stats();
    assert_eq!(stats.disk_rejects, 1, "the skewed entry is a reject");
    assert_eq!(stats.compiles, 1, "rejects recompile");
    assert_eq!(stats.disk_hits, 0);

    // The reject path overwrote the entry with a current-version one.
    let healed = ExecutionEngine::new(module).with_store(Arc::clone(&store));
    let mut mem = base_mem;
    healed
        .run(&target, &options, "saxpy_f32", &inputs.args, &mut mem)
        .expect("healed entry loads");
    assert_eq!(
        healed.stats().disk_hits,
        1,
        "the overwrite healed the entry"
    );
    assert_eq!(healed.stats().compiles, 0);
    store.clear();
}

/// A bit-flip anywhere in an entry's payload trips the FNV-1a checksum:
/// the entry is rejected (never decoded into a wrong artifact), the engine
/// recompiles bit-identically, and the overwrite heals the store.
#[test]
fn checksum_corrupted_entries_are_rejected_and_overwritten() {
    let store = temp_store("checksum");
    let module = offline();
    let options = JitOptions::split();
    let target = TargetDesc::arm_neon();

    let mut ws = Workspace::sized_for(N);
    let inputs = prepare("sum_u8", N, 11, &mut ws);
    let base_mem = ws.into_bytes();

    let cold = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    let mut cold_mem = base_mem.clone();
    let reference = cold
        .run(&target, &options, "sum_u8", &inputs.args, &mut cold_mem)
        .expect("cold run succeeds");

    // Flip one payload bit in the middle of each entry.
    for entry in entry_files(&store) {
        let mut bytes = std::fs::read(&entry).expect("entry readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&entry, &bytes).expect("entry writable");
    }

    let engine = ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store));
    let mut mem = base_mem.clone();
    let run = engine
        .run(&target, &options, "sum_u8", &inputs.args, &mut mem)
        .expect("corruption must fall back, not fail");
    assert_eq!(run.result, reference.result);
    assert_eq!(mem, cold_mem);
    assert_eq!(engine.stats().disk_rejects, 1);
    assert_eq!(engine.stats().compiles, 1);

    let healed = ExecutionEngine::new(module).with_store(Arc::clone(&store));
    let mut mem = base_mem;
    healed
        .run(&target, &options, "sum_u8", &inputs.args, &mut mem)
        .expect("healed entry loads");
    assert_eq!(healed.stats().disk_hits, 1);
    assert_eq!(healed.stats().compiles, 0);
    store.clear();
}

/// Two engines (two simulated processes) sharing one store directory, both
/// starting cold and racing across the full target catalogue: every run is
/// correct, every key resolves exactly once per engine (a compile or a disk
/// hit, depending on who published first), nothing is ever rejected (atomic
/// temp-file + rename writes mean a reader sees a full entry or none), and
/// a third engine afterwards starts fully warm.
#[test]
fn two_engines_share_one_store_concurrently() {
    let store = temp_store("concurrent");
    let module = offline();
    let options = JitOptions::split();
    let targets = TargetDesc::presets();
    let keys = targets.len();

    // Per-target references from fresh single-threaded compiles.
    let mut references = Vec::new();
    for target in &targets {
        let mut ws = Workspace::sized_for(N);
        let inputs = prepare("saxpy_f32", N, 0x5eed, &mut ws);
        let mut mem = ws.into_bytes();
        let run = run_on_target(
            &module,
            target,
            &options,
            "saxpy_f32",
            &inputs.args,
            &mut mem,
        )
        .expect("reference run succeeds");
        references.push((inputs, mem, run));
    }

    let engines: Vec<_> = (0..2)
        .map(|_| Arc::new(ExecutionEngine::new(module.clone()).with_store(Arc::clone(&store))))
        .collect();
    let barrier = Arc::new(Barrier::new(engines.len()));
    std::thread::scope(|scope| {
        for engine in &engines {
            let barrier = Arc::clone(&barrier);
            let targets = &targets;
            let references = &references;
            scope.spawn(move || {
                barrier.wait();
                for (target, (inputs, ref_mem, reference)) in targets.iter().zip(references) {
                    let mut ws = Workspace::sized_for(N);
                    let _ = prepare("saxpy_f32", N, 0x5eed, &mut ws);
                    let mut mem = ws.into_bytes();
                    let run = engine
                        .run(target, &options, "saxpy_f32", &inputs.args, &mut mem)
                        .expect("concurrent run succeeds");
                    assert_eq!(run.result, reference.result, "{}", target.name);
                    assert_eq!(&mem, ref_mem, "{}", target.name);
                }
            });
        }
    });

    for engine in &engines {
        let stats = engine.stats();
        assert_eq!(
            stats.compiles + stats.disk_hits,
            keys as u64,
            "each engine resolves each key exactly once — by compiling or by loading"
        );
        assert_eq!(
            stats.disk_rejects, 0,
            "atomic writes never expose torn entries"
        );
    }
    assert_eq!(
        store.len(),
        keys,
        "concurrent publication converges to one entry per key"
    );

    // A third process after the race: fully warm.
    let warm = ExecutionEngine::new(module).with_store(Arc::clone(&store));
    for target in &targets {
        let mut ws = Workspace::sized_for(N);
        let inputs = prepare("saxpy_f32", N, 0x5eed, &mut ws);
        let mut mem = ws.into_bytes();
        warm.run(target, &options, "saxpy_f32", &inputs.args, &mut mem)
            .expect("warm run succeeds");
    }
    assert_eq!(
        warm.stats().compiles,
        0,
        "the shared store leaves nothing to compile"
    );
    assert_eq!(warm.stats().disk_hits, keys as u64);
    store.clear();
}
