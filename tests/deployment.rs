//! End-to-end deployment tests: encode → ship → decode → verify → deploy →
//! JIT (once) → run, across the whole kernel suite and every preset target,
//! exercising the same path a real device would take — all online compilation
//! goes through the shared, cached `ExecutionEngine`.

use splitc::{checksum, prepare, run_on_target, ExecutionEngine, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{choose_core, Platform};
use splitc_targets::{SimStats, TargetDesc};
use splitc_vbc::{decode_module, encode_module, verify_module};
use splitc_workloads::{all_kernels, full_module, module_for, table1_kernels};

#[test]
fn the_full_suite_survives_the_wire_format_and_compiles_everywhere() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    verify_module(&module).expect("offline output verifies");

    // Ship.
    let wire = encode_module(&module);
    let received = decode_module(&wire).expect("decodes");
    assert_eq!(received, module, "the wire format is lossless");
    // The writer emits minimal LEB128 only, which is all the reader takes:
    // every catalogue module — the suite, and each kernel alone — decodes
    // and re-encodes byte for byte.
    assert_eq!(encode_module(&received), wire);
    for kernel in all_kernels() {
        let mut alone = module_for(std::slice::from_ref(&kernel), kernel.name).expect("compiles");
        optimize_module(&mut alone, &OptOptions::full());
        let wire = encode_module(&alone);
        let received = decode_module(&wire).unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert_eq!(encode_module(&received), wire, "{}", kernel.name);
    }
    assert!(received
        .functions()
        .iter()
        .all(|f| f.annotations.spill_order.is_some() && f.annotations.kernel_traits.is_some()));

    // Device-side: verify, deploy once, compile for every machine.
    verify_module(&received).expect("verifies on the device");
    let functions = received.functions().len();
    let engine = ExecutionEngine::new(received);
    for target in TargetDesc::presets() {
        let compiled = engine
            .program_for(&target, &JitOptions::split())
            .unwrap_or_else(|e| panic!("{}: {e}", target.name));
        assert_eq!(compiled.program.functions.len(), functions);
        assert!(compiled.jit.annotations_used, "{}", target.name);
    }
    assert_eq!(engine.stats().compiles, TargetDesc::presets().len() as u64);
}

#[test]
fn stripping_annotations_degrades_gracefully() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let mut stripped_module = module.clone();
    stripped_module.strip_annotations();

    // Still compiles and runs, just without the split-compilation benefits.
    let target = TargetDesc::x86_sse();
    let annotated = ExecutionEngine::new(module);
    let stripped = ExecutionEngine::new(stripped_module);
    let with = annotated
        .jit_stats(&target, &JitOptions::split())
        .expect("annotated");
    let without = stripped
        .jit_stats(&target, &JitOptions::split())
        .expect("stripped");
    assert!(with.annotations_used);
    assert!(!without.annotations_used);

    let mut ws = Workspace::new(1 << 16);
    let prepared = prepare("dscal_f32", 100, 5, &mut ws);
    let run = stripped
        .run(
            &target,
            &JitOptions::split(),
            "dscal_f32",
            &prepared.args,
            ws.bytes_mut(),
        )
        .expect("stripped module still runs");
    assert!(run.stats.cycles > 0);
}

/// One bytecode runs on every core of a platform, and cores of one type
/// share one compilation: the engine is addressed by each core's target.
#[test]
fn the_executor_reuses_compiled_code_across_cores_of_the_same_type() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let platform = Platform::cell_blade(4);
    let engine = ExecutionEngine::new(module);
    let mut first = None;
    for core in &platform.cores {
        let mut ws = Workspace::new(1 << 16);
        let prepared = prepare("dscal_f32", 100, 5, &mut ws);
        let run = engine
            .run(
                &core.target,
                &JitOptions::split(),
                "dscal_f32",
                &prepared.args,
                ws.bytes_mut(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", core.name));
        assert!(run.jit.functions > 0 && run.stats.cycles > 0);
        let sum = checksum(run.result, &prepared, &ws);
        assert_eq!(
            *first.get_or_insert(sum),
            sum,
            "{} computed a different answer from the same bytecode",
            core.name
        );
    }
    // 1 PPE type + 1 SPU type, not 5 separate compilations.
    assert_eq!(engine.compiled_variants(), 2);
    assert_eq!(engine.stats().compiles, 2);
    assert_eq!(
        engine.stats().hits,
        3,
        "three SPUs reused the first SPU's code"
    );
}

/// The tentpole guarantee: a table1-style sweep over K kernels × T targets ×
/// R repeats × C JIT configurations performs exactly T × C online
/// compilations — kernels and repeats ride the cache — and repeated runs are
/// bit-identical to the first.
#[test]
fn a_full_sweep_compiles_once_per_target_and_jit_config() {
    let kernels = table1_kernels();
    let mut module = splitc_workloads::module_for(&kernels, "sweep").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);

    let targets = TargetDesc::table1_targets();
    let jit_configs = [JitOptions::split(), JitOptions::online_greedy()];
    const REPEATS: usize = 3;
    const N: usize = 96;

    let mut first: Vec<(u64, SimStats)> = Vec::new();
    let mut runs = 0u64;
    for repeat in 0..REPEATS {
        let mut slot = 0usize;
        for kernel in &kernels {
            for target in &targets {
                for jit in &jit_configs {
                    let mut ws = Workspace::new(1 << 16);
                    let prepared = prepare(kernel.name, N, 7, &mut ws);
                    let run = engine
                        .run(target, jit, kernel.name, &prepared.args, ws.bytes_mut())
                        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name));
                    let sum = checksum(run.result, &prepared, &ws);
                    runs += 1;
                    if repeat == 0 {
                        first.push((sum, run.stats));
                    } else {
                        let (first_sum, first_stats) = first[slot];
                        assert_eq!(
                            sum, first_sum,
                            "{} on {} changed its result on repeat {repeat}",
                            kernel.name, target.name
                        );
                        assert_eq!(
                            run.stats, first_stats,
                            "{} on {} changed its SimStats on repeat {repeat}",
                            kernel.name, target.name
                        );
                    }
                    slot += 1;
                }
            }
        }
    }

    let stats = engine.stats();
    assert_eq!(
        stats.compiles,
        (targets.len() * jit_configs.len()) as u64,
        "exactly one compilation per (target, jit-config) pair"
    );
    assert_eq!(stats.lookups(), runs);
    assert_eq!(stats.hits, runs - stats.compiles);
}

/// Cache transparency: on every built-in target, a run served from the cache
/// is bit-identical — result checksum and SimStats — to a run on a freshly
/// deployed engine that has never compiled anything.
#[test]
fn cached_and_fresh_compilations_are_bit_identical_on_every_target() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let shared = ExecutionEngine::new(module.clone());
    const N: usize = 64;

    for target in TargetDesc::presets() {
        let measure = |engine: &ExecutionEngine| -> (u64, SimStats) {
            let mut ws = Workspace::new(1 << 16);
            let prepared = prepare("saxpy_f32", N, 11, &mut ws);
            let run = engine
                .run(
                    &target,
                    &JitOptions::split(),
                    "saxpy_f32",
                    &prepared.args,
                    ws.bytes_mut(),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", target.name));
            (checksum(run.result, &prepared, &ws), run.stats)
        };
        let cold = measure(&shared); // first use of this target: compiles
        let warm = measure(&shared); // second use: served from the cache
        let fresh = measure(&ExecutionEngine::new(module.clone()));
        assert_eq!(
            cold, warm,
            "{}: cache hit changed the execution",
            target.name
        );
        assert_eq!(
            cold, fresh,
            "{}: fresh engine disagrees with cached run",
            target.name
        );
    }
    // Every second (warm) run per target was a hit on the shared engine.
    assert_eq!(shared.stats().compiles, TargetDesc::presets().len() as u64);
    assert_eq!(shared.stats().hits, TargetDesc::presets().len() as u64);
}

#[test]
fn one_shot_run_on_target_agrees_with_the_engine() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let target = TargetDesc::arm_neon();

    let mut ws = Workspace::new(1 << 16);
    let prepared = prepare("dot_f32", 80, 3, &mut ws);
    let one_shot = run_on_target(
        &module,
        &target,
        &JitOptions::split(),
        "dot_f32",
        &prepared.args,
        ws.bytes_mut(),
    )
    .expect("one-shot run works");

    let engine = ExecutionEngine::new(module);
    let mut ws2 = Workspace::new(1 << 16);
    let prepared2 = prepare("dot_f32", 80, 3, &mut ws2);
    let cached = engine
        .run(
            &target,
            &JitOptions::split(),
            "dot_f32",
            &prepared2.args,
            ws2.bytes_mut(),
        )
        .expect("engine run works");
    assert_eq!(
        one_shot, cached,
        "the convenience wrapper must match the engine"
    );
}

#[test]
fn kernel_traits_send_every_catalogue_kernel_to_a_sensible_core() {
    let mut module = full_module("suite").expect("suite compiles");
    optimize_module(&mut module, &OptOptions::full());
    let phone = Platform::phone();
    for kernel in all_kernels() {
        let traits = module
            .function(kernel.name)
            .expect("kernel in module")
            .annotations
            .kernel_traits
            .expect("offline step attaches traits");
        let core = choose_core(&traits, &phone);
        if traits.uses_fp || traits.uses_vector {
            assert_eq!(
                core.name, "arm",
                "{} uses floating point or vectors and must avoid the DSP",
                kernel.name
            );
        }
    }
}
