//! Differential coverage for the pre-decoded execution path.
//!
//! `PreparedProgram` (deploy-time flattening, resolved jumps/calls,
//! prepare-time register validation, pooled frames, threaded fn-pointer
//! dispatch with welded pairs) must be **bit-identical** to the block walk
//! over the `MProgram` that once stated every instruction a second time —
//! results, memory effects and `SimStats` (cycles, stalls, mispredictions,
//! spill traffic, every counter) alike — for every catalogue kernel on every
//! simulated target under both timing tiers, whether the threaded loop runs
//! welded or unwelded, with a deadline that never passes, and (on three
//! presets) at every fuel budget short of a run's length. The walk's answers
//! are kept as recorded digests of whole runs ([`pins`]): every input here is
//! fixed, so each answer is a constant, and "the legacy walk" in a test name
//! means that recording. These tests pin the equivalence down and also check
//! that pooling/reuse never changes results.

mod common;
mod pins;

use common::{allocations_in, CountingAlloc};
use pins::{run_digest, Pins};
use splitc::splitc_minic::compile_source;
use splitc::{checksum, prepare, PreparedKernel, PreparedProgram, PreparedSimulator, Workspace};
use splitc_jit::{compile_module, JitOptions, RegAllocMode};
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{ExecutionEngine, FramePool};
use splitc_targets::{
    AluOp, Fnv1a, FpuOp, MBlock, MFunction, MInst, MProgram, MachineValue, PReg, RedOp, SimError,
    SimStats, TargetDesc, TimingKind, VectorUnit, Width, DEFAULT_SIM_FUEL,
};
use splitc_vbc::Module;
use splitc_workloads::{all_kernels, full_module, kernel, module_for};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 173; // deliberately not a multiple of any lane count

/// Problem size of the in-order pins below: the benchmark's execute-bound
/// size, where every loop body retires thousands of times and so meets its
/// own previous iterations' writebacks on entry.
const PIN_N: usize = 4096;

/// Whole-`SimStats` digests of the optimized catalogue module on the
/// in-order tier of every preset: all 17 kernels at [`PIN_N`] through
/// `PreparedProgram::run`, FNV-1a over each kernel's `cycles stalls
/// mispredicts predicted` and its seven architectural counters, in catalogue
/// order. Recorded from the row-by-row retirement of every region.
const IN_ORDER_PINS: [(&str, u64); 9] = [
    ("x86-sse", 11_865_974_393_403_723_514),
    ("ultrasparc", 5_629_648_644_051_037_033),
    ("powerpc", 1_982_271_684_660_226_288),
    ("arm-neon", 3_388_665_734_000_483_314),
    ("cell-ppe", 9_217_912_241_805_171_245),
    ("cell-spu", 8_350_653_859_187_623_342),
    ("dsp", 16_979_865_846_717_121),
    ("riscv-rv64", 3_958_669_271_192_547_310),
    ("gpu-wide", 13_899_498_587_771_617_870),
];

/// Recorded [`Pins`] folds, one per suite that once ran beside the block
/// walk: each cell's [`run_digest`] was recorded from the walk's own run.
const CATALOGUE_PIN: u64 = 271_629_626_111_733_328;
const FUEL_SWEEP_PIN: u64 = 13_370_773_312_452_379_200;
const IN_ORDER_N_173_PIN: u64 = 1_497_155_130_640_960_023;
const POOLED_SWEEP_PIN: u64 = 14_848_782_949_687_389_979;

/// Presets of the fuel sweep: a scalar core, a SIMD core and a wide-vector
/// core.
const FUEL_SWEEP_PRESETS: [&str; 3] = ["x86-sse", "cell-spu", "gpu-wide"];

/// Problem size of the fuel sweep: every loop still iterates, and a run is
/// short enough to be swept at every fuel value.
const FUEL_SWEEP_N: usize = 3;

/// A kernel shape the catalogue lacks: a branchy integer map and reduce whose
/// per-element load → ALU → compare → two-sided branch is what welding feeds
/// on.
const TIGHT_LOOP: &str = "fn tight(n: i32, x: *i32, y: *i32) -> i32 {
    let acc: i32 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        let v: i32 = x[i];
        let w: i32 = (v * 3 + i) - (v / 7);
        if (w > 64) { y[i] = w - 64; } else { y[i] = 64 - w; }
    }
    for (let k: i32 = 0; k < n; k = k + 1) {
        acc = acc + y[k];
    }
    return acc;
}";

fn prepare_tight(ws: &mut Workspace) -> PreparedKernel {
    let bytes = 4 * N as u64;
    let (x, y) = (ws.alloc(bytes), ws.alloc(bytes));
    let data: Vec<i32> = (0..N as i32).map(|i| (i * 37) % 1000 - 500).collect();
    ws.write_i32s(x, &data);
    PreparedKernel {
        name: "tight".into(),
        args: [N as i64, x as i64, y as i64]
            .map(MachineValue::Int)
            .to_vec(),
        output: Some((y, bytes)),
        input_bytes: bytes,
    }
}

#[test]
fn prepared_execution_is_bit_identical_to_the_legacy_walk_on_all_targets() {
    type Setup = Box<dyn Fn(&mut Workspace) -> PreparedKernel>;
    let mut programs: Vec<(Module, Setup)> = Vec::new();
    for kernel in all_kernels() {
        let module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        programs.push((module, Box::new(move |ws| prepare(kernel.name, N, 99, ws))));
    }
    programs.push((
        compile_source(TIGHT_LOOP, "tight").expect("kernel compiles"),
        Box::new(prepare_tight),
    ));
    let mut pins = Pins::default();
    for (mut module, setup) in programs {
        optimize_module(&mut module, &OptOptions::full());
        for target in TargetDesc::presets()
            .into_iter()
            .flat_map(|t| [t.clone(), t.with_timing(TimingKind::InOrder)])
        {
            let name = module.name.as_str();
            let (program, _jit) = compile_module(&module, &target, &JitOptions::split())
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", target.name));

            // Deploy-time prepared forms: the welded threaded loop, the
            // unwelded threaded loop, and the welded loop again polling a
            // deadline one hour out (which reads the clock and must change
            // nothing else) — all three must match the walk's recorded run
            // and each other bit-for-bit.
            let welded = PreparedProgram::prepare(&program, &target)
                .unwrap_or_else(|e| panic!("{name} on {}: prepare failed: {e}", target.name));
            let unwelded =
                PreparedProgram::prepare_with(&program, &target, false).unwrap_or_else(|e| {
                    panic!("{name} on {}: unwelded prepare failed: {e}", target.name)
                });
            let paths: [(&str, &PreparedProgram, bool); 3] = [
                ("welded", &welded, false),
                ("unwelded", &unwelded, false),
                ("deadline", &welded, true),
            ];
            let runs = paths.map(|(path, prepared, deadline)| {
                let mut ws = Workspace::new(1 << 16);
                let inputs = setup(&mut ws);
                let mut pool = FramePool::new();
                pool.set_deadline(deadline.then(|| Instant::now() + Duration::from_secs(3600)));
                let mut stats = SimStats::default();
                let result = prepared
                    .run(
                        &inputs.name,
                        &inputs.args,
                        ws.bytes_mut(),
                        &mut pool,
                        DEFAULT_SIM_FUEL,
                        &mut stats,
                    )
                    .unwrap_or_else(|e| panic!("{name} on {} ({path}): {e}", target.name));
                let sum = checksum(result, &inputs, &ws);
                (path, result, stats, ws, sum)
            });
            let (_, want, want_stats, want_ws, want_sum) = &runs[0];
            let cell = format!("{name} on {} ({:?})", target.name, target.timing);
            pins.record(cell, &Ok(*want), want_stats, want_ws.bytes());
            for (path, result, stats, ws, sum) in &runs[1..] {
                assert_eq!(
                    result, want,
                    "{name} on {}: {path} result diverged",
                    target.name
                );
                assert_eq!(
                    stats, want_stats,
                    "{name} on {} ({:?}): {path} SimStats (cycles/stalls/spills/...) diverged",
                    target.name, target.timing
                );
                assert_eq!(
                    ws.bytes(),
                    want_ws.bytes(),
                    "{name} on {}: {path} memory effects diverged",
                    target.name
                );
                assert_eq!(sum, want_sum);
            }
        }
    }
    pins.check(CATALOGUE_PIN);
}

#[test]
fn in_order_catalogue_runs_at_n_4096_keep_their_recorded_stats_on_every_preset() {
    // At N = 173 the in-order tier is pinned against the block walk's
    // recorded runs; this pins the long steady-state loops, where almost
    // every region is entered from the board its own previous iteration
    // left.
    let mut module = full_module("catalogue").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    let kernels = all_kernels();
    let mut pool = FramePool::new();
    let mut digests = Vec::new();
    for target in TargetDesc::presets() {
        let target = target.with_timing(TimingKind::InOrder);
        let (program, _jit) = compile_module(&module, &target, &JitOptions::split())
            .unwrap_or_else(|e| panic!("catalogue on {}: {e}", target.name));
        let prepared = PreparedProgram::prepare(&program, &target)
            .unwrap_or_else(|e| panic!("catalogue on {}: {e}", target.name));
        let mut digest = Fnv1a::new();
        for kernel in &kernels {
            let mut ws = Workspace::new(1 << 20);
            let inputs = prepare(kernel.name, PIN_N, 11, &mut ws);
            let mut s = SimStats::default();
            prepared
                .run(
                    kernel.name,
                    &inputs.args,
                    ws.bytes_mut(),
                    &mut pool,
                    DEFAULT_SIM_FUEL,
                    &mut s,
                )
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name));
            for counter in [s.cycles, s.stalls, s.mispredicts, s.predicted] {
                digest.write(&counter.to_le_bytes());
            }
            for counter in arch(&s) {
                digest.write(&counter.to_le_bytes());
            }
        }
        digests.push((target.name.clone(), digest.finish()));
    }
    let pinned: Vec<(String, u64)> = IN_ORDER_PINS
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    assert_eq!(digests, pinned, "in-order SimStats at n = {PIN_N} moved");
}

#[test]
fn fuel_exhaustion_on_compiled_kernels_matches_the_legacy_walk_at_every_fuel_value() {
    // Every fuel value from 0 to one past a run's length, on every catalogue
    // kernel compiled for a scalar, a SIMD and a wide-vector core under both
    // timing tiers: below the length fuel runs dry inside some region, and
    // the prepared run must stop after exactly that many instructions with
    // the counters, timing state and memory the block walk's recorded run
    // at that fuel had.
    let mut runs = 0u64;
    let mut pins = Pins::default();
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for preset in FUEL_SWEEP_PRESETS {
            let base = TargetDesc::preset(preset).expect("a catalogue preset");
            for target in [base.clone(), base.with_timing(TimingKind::InOrder)] {
                let cell = format!("{} on {} ({:?})", kernel.name, preset, target.timing);
                let (program, _jit) = compile_module(&module, &target, &JitOptions::split())
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let prepared = PreparedProgram::prepare(&program, &target)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let mut fresh = Workspace::sized_for(FUEL_SWEEP_N);
                let inputs = prepare(kernel.name, FUEL_SWEEP_N, 3, &mut fresh);
                let mut pool = FramePool::new();
                let mut run = |fuel| {
                    let mut ws = fresh.clone();
                    let mut stats = SimStats::default();
                    let out = prepared.run(
                        kernel.name,
                        &inputs.args,
                        ws.bytes_mut(),
                        &mut pool,
                        fuel,
                        &mut stats,
                    );
                    let digest = run_digest(&out, &stats, ws.bytes());
                    (out, stats, digest)
                };
                let (full, full_stats, digest) = run(DEFAULT_SIM_FUEL);
                assert!(full.is_ok(), "{cell}: {full:?}");
                let total = full_stats.instructions;
                let mut sweep = Fnv1a::new();
                sweep.write(&digest.to_le_bytes());
                for fuel in 0..=total + 1 {
                    let (out, stats, digest) = run(fuel);
                    sweep.write(&digest.to_le_bytes());
                    if fuel < total {
                        assert_eq!(out, Err(SimError::OutOfFuel), "{cell}, fuel {fuel}");
                        assert_eq!(stats.instructions, fuel, "{cell}, fuel {fuel}");
                    }
                    runs += 1;
                }
                pins.push(cell, sweep.finish());
            }
        }
    }
    assert!(runs > 10_000, "{runs} runs");
    pins.check(FUEL_SWEEP_PIN);
}

/// The architectural face of a stats record: everything except the
/// timing-class counters (cycles, stalls, mispredicts, predicted).
fn arch(s: &SimStats) -> [u64; 7] {
    [
        s.instructions,
        s.loads,
        s.stores,
        s.spill_stores,
        s.spill_reloads,
        s.branches,
        s.vector_ops,
    ]
}

#[test]
fn timing_tiers_are_architecturally_bit_identical_on_every_kernel_and_target() {
    // Flat (the differential reference) vs the in-order pipeline on every
    // catalogue kernel x every preset: identical results, memory images and
    // spill counts; timing stats checked for internal consistency only. At
    // least one branchy kernel must actually exercise the hazard and
    // misprediction machinery, otherwise the pipelined tier proves nothing.
    let mut saw_stalls = false;
    let mut saw_mispredicts = false;
    let mut pins = Pins::default();
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for base in TargetDesc::presets() {
            let (program, _jit) = compile_module(&module, &base, &JitOptions::split())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, base.name));
            let pipe_target = base.clone().with_timing(TimingKind::InOrder);

            let flat = PreparedProgram::prepare(&program, &base).unwrap();
            let pipe = PreparedProgram::prepare(&program, &pipe_target).unwrap();

            let mut flat_ws = Workspace::new(1 << 16);
            let flat_inputs = prepare(kernel.name, N, 42, &mut flat_ws);
            let mut flat_sim = PreparedSimulator::new(&flat);
            let flat_result = flat_sim
                .run(kernel.name, &flat_inputs.args, flat_ws.bytes_mut())
                .unwrap_or_else(|e| panic!("{} on {} (flat): {e}", kernel.name, base.name));

            let mut pipe_ws = Workspace::new(1 << 16);
            let pipe_inputs = prepare(kernel.name, N, 42, &mut pipe_ws);
            let mut pipe_sim = PreparedSimulator::new(&pipe);
            let pipe_result = pipe_sim
                .run(kernel.name, &pipe_inputs.args, pipe_ws.bytes_mut())
                .unwrap_or_else(|e| panic!("{} on {} (pipelined): {e}", kernel.name, base.name));

            assert_eq!(
                flat_result, pipe_result,
                "{} on {}: result diverged across timing tiers",
                kernel.name, base.name
            );
            assert_eq!(
                flat_ws.bytes(),
                pipe_ws.bytes(),
                "{} on {}: memory image diverged across timing tiers",
                kernel.name,
                base.name
            );
            assert_eq!(
                checksum(flat_result, &flat_inputs, &flat_ws),
                checksum(pipe_result, &pipe_inputs, &pipe_ws),
                "{} on {}",
                kernel.name,
                base.name
            );
            let fs = flat_sim.stats();
            let ps = pipe_sim.stats();
            assert_eq!(
                arch(&fs),
                arch(&ps),
                "{} on {}: architectural counters moved across timing tiers",
                kernel.name,
                base.name
            );
            assert_eq!(
                (fs.stalls, fs.mispredicts, fs.predicted),
                (0, 0, 0),
                "{} on {}: flat timing must keep timing-class counters at zero",
                kernel.name,
                base.name
            );
            assert!(
                ps.cycles >= ps.instructions,
                "{} on {}: pipelined cycles {} < retired {}",
                kernel.name,
                base.name,
                ps.cycles,
                ps.instructions
            );
            assert!(
                ps.mispredicts <= ps.branches,
                "{} on {}: mispredicts {} > branches {}",
                kernel.name,
                base.name,
                ps.mispredicts,
                ps.branches
            );
            assert_eq!(
                ps.predicted + ps.mispredicts,
                ps.branches,
                "{} on {}: every branch must be predicted exactly once",
                kernel.name,
                base.name
            );

            // Under pipelined timing every counter, the timing-class ones
            // included, is the block walk's recorded one (both numbered
            // branch-predictor sites by flat offset).
            pins.record(
                format!("{} on {}", kernel.name, base.name),
                &Ok(pipe_result),
                &ps,
                pipe_ws.bytes(),
            );

            saw_stalls |= ps.stalls > 0;
            saw_mispredicts |= ps.mispredicts > 0;
        }
    }
    assert!(
        saw_stalls,
        "no kernel on any target accrued a single hazard stall"
    );
    assert!(
        saw_mispredicts,
        "no kernel on any target mispredicted a single branch"
    );
    pins.check(IN_ORDER_N_173_PIN);
}

#[test]
fn frame_pool_reuse_across_repeats_never_changes_results() {
    let kernel = &all_kernels()[0];
    let mut module =
        module_for(std::slice::from_ref(kernel), kernel.name).expect("kernel compiles");
    optimize_module(&mut module, &OptOptions::full());
    let target = TargetDesc::x86_sse();
    let (program, _jit) = compile_module(&module, &target, &JitOptions::split()).unwrap();
    let prepared = PreparedProgram::prepare(&program, &target).unwrap();

    // One long-lived simulator (warm pool) vs a fresh simulator per run.
    let mut warm = PreparedSimulator::new(&prepared);
    for run in 0..5 {
        let mut ws_a = Workspace::new(1 << 16);
        let mut ws_b = Workspace::new(1 << 16);
        let inputs_a = prepare(kernel.name, N, run, &mut ws_a);
        let inputs_b = prepare(kernel.name, N, run, &mut ws_b);
        let out_a = warm
            .run(kernel.name, &inputs_a.args, ws_a.bytes_mut())
            .unwrap();
        let mut cold = PreparedSimulator::new(&prepared);
        let out_b = cold
            .run(kernel.name, &inputs_b.args, ws_b.bytes_mut())
            .unwrap();
        assert_eq!(out_a, out_b, "seed {run}");
        assert_eq!(warm.stats(), cold.stats(), "seed {run}");
        assert_eq!(ws_a.bytes(), ws_b.bytes(), "seed {run}");
    }
}

#[test]
fn executed_vector_spills_do_not_allocate_once_the_pool_is_warm() {
    // `horner_f32` on x86-sse keeps more vectors live than the machine has
    // vector registers, so its loop body spills and reloads vectors on every
    // iteration. The first run sizes the recycled frame — and, under in-order
    // timing, the pipeline's scoreboard table, which the pool keeps; from the
    // second run on, the dispatch loop may not touch the allocator under
    // either timing tier.
    let kernel = kernel("horner_f32").expect("horner_f32 is in the catalogue");
    let mut module =
        module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
    optimize_module(&mut module, &OptOptions::full());
    let flat = TargetDesc::x86_sse();
    let (program, _jit) = compile_module(&module, &flat, &JitOptions::split()).unwrap();
    let in_order = flat.clone().with_timing(TimingKind::InOrder);

    for target in [&flat, &in_order] {
        let prepared = PreparedProgram::prepare(&program, target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let run = |sim: &mut PreparedSimulator<'_>| {
            let mut ws = Workspace::new(1 << 16);
            let inputs = prepare(kernel.name, N, 5, &mut ws);
            let (result, allocations) =
                allocations_in(|| sim.run(kernel.name, &inputs.args, ws.bytes_mut()));
            let sum = checksum(result.unwrap(), &inputs, &ws);
            (sum, sim.stats(), allocations)
        };
        let (first_sum, first_stats, _) = run(&mut sim);
        let (second_sum, second_stats, second_allocations) = run(&mut sim);
        assert!(
            first_stats.spill_stores > 0 && first_stats.vector_ops > 0,
            "the kernel must actually spill vectors: {first_stats:?}"
        );
        let path = format!("{:?}", target.timing);
        assert_eq!(second_allocations, 0, "{path}");
        assert_eq!(second_stats, first_stats, "{path}");
        assert_eq!(second_sum, first_sum, "{path}");
    }
}

#[test]
fn engine_pooled_sweep_path_matches_legacy_per_cell_execution() {
    // The path sweeps actually take (engine cache -> prepared program ->
    // worker frame pool) against the block walk's recorded run of the same
    // compiled program.
    let kernels = all_kernels();
    let mut module = module_for(&kernels, "pooled").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    let options = JitOptions {
        regalloc: RegAllocMode::SplitAnnotations,
        allow_simd: true,
        fuse: true,
    };
    let engine = ExecutionEngine::new(module.clone());
    let mut pool = FramePool::new();
    let targets = TargetDesc::presets();
    let mut pins = Pins::default();
    for target in &targets {
        for kernel in &kernels {
            let mut ws = Workspace::new(1 << 16);
            let inputs = prepare(kernel.name, N, 7, &mut ws);
            let run = engine
                .run_pooled(
                    target,
                    &options,
                    kernel.name,
                    &inputs.args,
                    ws.bytes_mut(),
                    &mut pool,
                )
                .unwrap();
            pins.record(
                format!("{} on {}", kernel.name, target.name),
                &Ok(run.result),
                &run.stats,
                ws.bytes(),
            );
        }
    }
    // One compile (and one preparation) per catalogue target, however many
    // cells ran — derived from the catalogue, never a hardcoded count.
    assert_eq!(engine.stats().compiles, targets.len() as u64);
    pins.check(POOLED_SWEEP_PIN);
}

/// Whole-run digests of the lane pin below, one per vector unit: FNV-1a over
/// every kernel × input image's outcome, memory and `SimStats`, in order.
/// Recorded on an x86-64 host, where a NaN that arithmetic creates (`inf -
/// inf`, `0 × inf`) has the sign bit set; other hosts may differ there.
const LANE_PINS: [(&str, u64); 3] = [
    ("x86-sse", 13_862_389_627_824_549_428),
    ("gpu-wide", 17_593_320_651_900_494_093),
    ("wide-256", 12_518_057_707_419_956_190),
];

const WIDTHS: [Width; 4] = [Width::W8, Width::W16, Width::W32, Width::W64];

/// The vector units of the lane pin: SSE's 16 bytes, the GPU preset's 64 and
/// a custom 256-byte unit.
fn lane_pin_targets() -> [TargetDesc; 3] {
    let mut wide = TargetDesc::x86_sse();
    wide.name = "wide-256".into();
    wide.vector = Some(VectorUnit {
        bytes: 256,
        regs: 8,
    });
    [TargetDesc::x86_sse(), TargetDesc::gpu_wide(), wide]
}

/// One straight-line function per vector instruction kind, element width,
/// signedness and operator, for a `vb`-byte vector unit, each with its
/// element width. A function takes a base address, reads its left operand at
/// `base` and its right operand (or the scalar it splats) at `base + vb`, and
/// stores a vector result at `base + 2 vb` or a reduction at `base + 3 vb`.
/// The element-wise ops overwrite their left operand, so the lane loops run
/// in place.
fn lane_kernels(vb: i64) -> Vec<(Width, MFunction)> {
    use MInst::*;
    let (base, x, f) = (PReg::int(0), PReg::int(1), PReg::float(0));
    let (v0, v1) = (PReg::vec(0), PReg::vec(1));
    let load = |dst, offset| VecLoad { dst, base, offset };
    let store = || VecStore {
        base,
        offset: 2 * vb,
        src: v0,
    };
    let scalar = |float, dst| Load {
        width: Width::W64,
        float,
        signed: true,
        dst,
        base,
        offset: vb,
    };
    let reduced = |float, src| Store {
        width: Width::W64,
        float,
        base,
        offset: 3 * vb,
        src,
    };
    let alu = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
    ];
    let fpu = [
        FpuOp::Add,
        FpuOp::Sub,
        FpuOp::Mul,
        FpuOp::Div,
        FpuOp::Min,
        FpuOp::Max,
    ];
    let mut bodies = Vec::new();
    for elem in WIDTHS {
        let (src, dst) = (x, v0);
        bodies.push((
            elem,
            vec![scalar(false, x), VecSplatInt { elem, dst, src }, store()],
        ));
        let src = f;
        bodies.push((
            elem,
            vec![scalar(true, f), VecSplatFloat { elem, dst, src }, store()],
        ));
        for op in alu {
            for signed in [false, true] {
                let (lhs, rhs) = (v0, v1);
                let inst = VecIntOp {
                    op,
                    elem,
                    signed,
                    dst,
                    lhs,
                    rhs,
                };
                bodies.push((elem, vec![load(v0, 0), load(v1, vb), inst, store()]));
            }
        }
        for op in fpu {
            let inst = VecFloatOp {
                op,
                elem,
                dst,
                lhs: v0,
                rhs: v1,
            };
            bodies.push((elem, vec![load(v0, 0), load(v1, vb), inst, store()]));
        }
        for op in [RedOp::Add, RedOp::Min, RedOp::Max] {
            for signed in [false, true] {
                let inst = VecReduceInt {
                    op,
                    elem,
                    signed,
                    dst: x,
                    src: v0,
                };
                bodies.push((elem, vec![load(v0, 0), inst, reduced(false, x)]));
            }
            let inst = VecReduceFloat {
                op,
                elem,
                dst: f,
                src: v0,
            };
            bodies.push((elem, vec![load(v0, 0), inst, reduced(true, f)]));
        }
    }
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, (elem, mut insts))| {
            insts.push(Ret { value: None });
            let function = MFunction {
                name: format!("k{i}"),
                params: vec![base],
                blocks: vec![MBlock { insts }],
                num_slots: 0,
            };
            (elem, function)
        })
        .collect()
}

/// Sign-boundary integers of one `elem` lane, with or without zero.
fn int_bounds(elem: Width, zero: bool) -> Vec<u64> {
    let shift = 64 - 8 * elem.bytes() as u32;
    let (min, max) = (i64::MIN >> shift, i64::MAX >> shift);
    let mut v = vec![1, -1, 2, -2, 7, min, min + 1, max, max - 1];
    if zero {
        v.push(0);
    }
    v.into_iter().map(|x| x as u64).collect()
}

/// Shift counts around the lane width and the 64-bit mask, negatives too.
fn shift_counts(elem: Width) -> Vec<u64> {
    let bits = 8 * elem.bytes() as i64;
    let counts = [0, 1, bits - 1, bits, bits + 1, 63, 64, 65, 127, 128, 255];
    let negative = [-1, -63, -64, -65, i64::MIN];
    counts
        .into_iter()
        .chain(negative)
        .map(|x| x as u64)
        .collect()
}

/// NaN (quiet, signalling, with a payload), ±0, ±inf, subnormals and the
/// extremes, as bit patterns of one `elem` lane; W8 / W16 float lanes take
/// integer boundaries.
fn float_specials(elem: Width) -> Vec<u64> {
    match elem {
        Width::W32 => [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            -1.5,
            f32::MIN_POSITIVE,
            1e-40,
            f32::MAX,
            f32::MIN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
        ]
        .map(|v| u64::from(v.to_bits()))
        .to_vec(),
        Width::W64 => [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.5,
            f64::MIN_POSITIVE,
            1e-310,
            3.5e38,
            f64::MAX,
            f64::MIN,
            f64::from_bits(0x7ff8_0000_0000_1234),
            f64::from_bits(0x7ff0_0000_0000_0001),
        ]
        .map(f64::to_bits)
        .to_vec(),
        _ => int_bounds(elem, true),
    }
}

/// SplitMix64, so the pin's inputs depend on nothing outside this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One input image of the lane pin: the lane width its values are drawn at,
/// then the left and right operands' value sets (`None` for random bytes).
type Image<'a> = (Width, Option<&'a [u64]>, Option<&'a [u64]>);

/// Fill `region` lane by lane with values drawn from `values` at width
/// `lane`, or with random bytes when `values` is `None`.
fn fill(region: &mut [u8], lane: Width, values: Option<&[u64]>, rng: &mut u64) {
    let size = lane.bytes() as usize;
    for chunk in region.chunks_exact_mut(size) {
        let r = splitmix(rng);
        let bits = values.map_or(r, |v| v[(r % v.len() as u64) as usize]);
        chunk.copy_from_slice(&bits.to_le_bytes()[..size]);
    }
}

#[test]
fn vector_lanes_match_the_legacy_walk_and_their_recorded_digest() {
    // The block walk this digest was checked against read and wrote lanes
    // through the same helpers as the handlers, so only the digest, recorded
    // before any change to those helpers, can catch a helper bug. Every kind x
    // width x signedness x operator runs against seeded images holding sign
    // boundaries (zero divisors trap), shift counts past the width and below
    // zero, and float specials; W64 images give the splats boundary scalars.
    const BASE: usize = 64;
    let (mut traps, mut completions) = (0u32, 0u32);
    let mut digests = Vec::new();
    let mut cells = Pins::default();
    for target in lane_pin_targets() {
        let vb = target.vector_bytes() as usize;
        let kernels = lane_kernels(vb as i64);
        let program = MProgram {
            name: "lanes".into(),
            functions: kernels.iter().map(|(_, f)| f.clone()).collect(),
        };
        let prepared = PreparedProgram::prepare(&program, &target)
            .unwrap_or_else(|e| panic!("{}: {e}", target.name));
        let mut pool = FramePool::new();
        let mut rng = 0x1a2e_5eed;
        let mut digest = Fnv1a::new();
        for (elem, function) in &kernels {
            let elem = *elem;
            let (bounds, divisors) = (int_bounds(elem, true), int_bounds(elem, false));
            let (shifts, floats) = (shift_counts(elem), float_specials(elem));
            let (wide_ints, wide_floats) =
                (int_bounds(Width::W64, true), float_specials(Width::W64));
            let images: [Image; 7] = [
                (elem, None, None),
                (elem, Some(&bounds), Some(&bounds)),
                (elem, Some(&bounds), Some(&divisors)),
                (elem, Some(&bounds), Some(&shifts)),
                (elem, Some(&floats), Some(&floats)),
                (Width::W64, Some(&wide_ints), Some(&wide_ints)),
                (Width::W64, Some(&wide_floats), Some(&wide_floats)),
            ];
            for (image, (lane, lhs, rhs)) in images.into_iter().enumerate() {
                let cell = format!(
                    "{:?} on {}, image {image}",
                    function.blocks[0].insts, target.name
                );
                let mut fresh = vec![0u8; BASE + 3 * vb + 8];
                fill(&mut fresh[BASE..BASE + vb], lane, lhs, &mut rng);
                fill(&mut fresh[BASE + vb..BASE + 2 * vb], lane, rhs, &mut rng);
                let args = [MachineValue::Int(BASE as i64)];

                let mut mem = fresh;
                let mut stats = SimStats::default();
                let out = prepared.run(
                    &function.name,
                    &args,
                    &mut mem,
                    &mut pool,
                    DEFAULT_SIM_FUEL,
                    &mut stats,
                );

                match &out {
                    Ok(_) => completions += 1,
                    Err(SimError::Trap(_)) => traps += 1,
                    Err(e) => panic!("{cell}: {e}"),
                }
                cells.record(&cell, &out, &stats, &mem);
                digest.write(format!("{out:?}").as_bytes());
                digest.write(&mem);
                for counter in [
                    stats.cycles,
                    stats.stalls,
                    stats.mispredicts,
                    stats.predicted,
                ] {
                    digest.write(&counter.to_le_bytes());
                }
                for counter in arch(&stats) {
                    digest.write(&counter.to_le_bytes());
                }
            }
        }
        digests.push((target.name.clone(), digest.finish()));
    }
    assert!(
        traps > 0 && completions > traps,
        "{traps} traps, {completions} completions"
    );
    let pinned: Vec<(String, u64)> = LANE_PINS
        .iter()
        .map(|&(name, digest)| (name.to_owned(), digest))
        .collect();
    if digests != pinned {
        cells.print();
    }
    assert_eq!(digests, pinned, "vector lane semantics moved");
}

/// Fold of the listing skeletons below for `fuse: false`: one [`Pins`] cell
/// per catalogue kernel × preset × timing tier, each the FNV-1a of what
/// `splitc disasm --no-fuse` prints for it with the program header and every
/// instruction's own text blanked.
const UNWELDED_SKELETON_PIN: u64 = 11_288_217_003_864_215_142;

/// The same fold for `fuse: true`, whose listings also carry the weld marks.
const WELDED_SKELETON_PIN: u64 = 12_266_345_046_819_542_682;

/// A `splitc disasm` listing with the program header (every line before the
/// first `fn` line) and the instruction text blanked: on a record line, what
/// lies between the `@row` column and `; cycles`. Everything else stays:
/// every function line, record index, row, pair mark, cycle and `lat`
/// column, region charge and segment summary.
fn listing_skeleton(listing: &str) -> String {
    let mut out = String::new();
    let body = listing
        .find("\nfn ")
        .map_or(listing, |at| &listing[at + 1..]);
    for line in body.lines() {
        let trimmed = line.trim_start();
        let record = trimmed.starts_with(|c: char| c.is_ascii_digit())
            && trimmed.contains('@')
            && trimmed.contains(" ; cycles ");
        if !record {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let at = line.find('@').expect("a record line has a row");
        let row_end = at + line[at..].find(' ').expect("a space follows the row");
        let cycles = line.find(" ; cycles ").expect("a record line has cycles");
        out.push_str(&line[..row_end]);
        out.push_str(" …");
        out.push_str(&line[cycles..]);
        out.push('\n');
    }
    out
}

#[test]
fn prepared_listings_keep_their_recorded_skeleton_on_every_cell() {
    // What `splitc disasm <kernel> [--target t] [--timing in-order]
    // [--no-fuse]` prints, for every catalogue kernel, preset, tier and
    // welding setting: record indexes, rows, weld decisions, cycle charges,
    // region prepayments and in-order segment summaries are what
    // preparation decides, and the skeleton pins all of them apart from how
    // each instruction is spelt. Every function keeps one record per row.
    let (mut welded, mut unwelded) = (Pins::default(), Pins::default());
    for kernel in all_kernels() {
        let mut module = compile_source(kernel.source, kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for target in TargetDesc::presets()
            .into_iter()
            .flat_map(|t| [t.clone(), t.with_timing(TimingKind::InOrder)])
        {
            for fuse in [true, false] {
                let options = JitOptions {
                    fuse,
                    ..JitOptions::split()
                };
                let (program, _jit) = compile_module(&module, &target, &options)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name));
                let prepared = PreparedProgram::prepare_with(&program, &target, fuse)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name));
                let listing = prepared.disasm(&program);
                for line in listing.lines().filter(|l| l.starts_with("fn ")) {
                    let counts = &line[line.rfind(", ").expect("a function line") + 2..];
                    let (rows, records) = counts.split_once(" inst / ").expect("row counts");
                    assert_eq!(format!("{rows} op"), records, "{line}");
                }
                let skeleton = listing_skeleton(&listing);
                let cell = format!(
                    "{} on {} ({:?}, fuse {fuse})",
                    kernel.name, target.name, target.timing
                );
                let pins = if fuse { &mut welded } else { &mut unwelded };
                pins.push(cell, Fnv1a::hash(skeleton.as_bytes()));
            }
        }
    }
    unwelded.check(UNWELDED_SKELETON_PIN);
    welded.check(WELDED_SKELETON_PIN);
}
