//! Shared harness for the dispatch benchmark: the tight-loop kernel timed
//! three ways — cold legacy walk, warm metered loop, warm threaded
//! handler table — with bit-identity asserted before any timing.
//!
//! `benches/simulator.rs` drives this for the Criterion run and the
//! `SIM_BENCH_ASSERT` thresholds; the `report` binary drives it for the
//! `dispatch` row of the `BENCH_sweep.json` perf trajectory, so both always
//! measure the same kernel the same way.

use splitc::splitc_jit::{compile_module, JitOptions};
use splitc::splitc_minic::compile_source;
use splitc::splitc_opt::{optimize_module, OptOptions};
use splitc::splitc_targets::{
    FusionStats, MProgram, MachineValue, PreparedProgram, PreparedSimulator, Simulator, TargetDesc,
};
use splitc::Workspace;
use std::time::Instant;

/// Elements per kernel invocation; enough that the run loop dominates.
pub const N: usize = 1024;

/// A branchy integer map + reduce: loads, ALU traffic, compares and a
/// two-sided conditional per element, then a reduction loop — the shape the
/// per-instruction decode overhead of the legacy walk hurts most, and whose
/// compare+branch density feeds the fusion and welding passes.
pub const TIGHT_LOOP: &str = "fn tight(n: i32, x: *i32, y: *i32) -> i32 {
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

/// The three-way timing (plus the shape of the prepared program) produced by
/// [`measure`].
pub struct DispatchMeasurement {
    /// ns per run, fresh `Simulator` + legacy block walk each run.
    pub legacy_ns: f64,
    /// ns per run, warm `PreparedSimulator` on the metered loop.
    pub metered_ns: f64,
    /// ns per run, warm `PreparedSimulator` on the threaded handler table.
    pub threaded_ns: f64,
    /// Simulated instructions retired per run (identical on all paths).
    pub instructions: u64,
    /// Macro-op fusion and welding hits in the prepared program.
    pub fusion: FusionStats,
}

impl DispatchMeasurement {
    /// Metered enum loop over the cold legacy walk.
    pub fn prepared_speedup(&self) -> f64 {
        self.legacy_ns / self.metered_ns
    }

    /// Threaded handler table over the metered loop.
    pub fn dispatch_speedup(&self) -> f64 {
        self.metered_ns / self.threaded_ns
    }
}

/// JIT-compile [`TIGHT_LOOP`] for the given target with split-annotation
/// register allocation (the paper's deployment mode).
pub fn compiled_tight_loop(target: &TargetDesc) -> MProgram {
    let mut module = compile_source(TIGHT_LOOP, "simbench").expect("kernel compiles");
    optimize_module(&mut module, &OptOptions::full());
    let (program, _stats) = compile_module(&module, target, &JitOptions::split()).expect("jit");
    program
}

/// A fresh 64 KiB workspace with the kernel's input array written and the
/// argument vector pointing at it.
pub fn workspace() -> (Workspace, [MachineValue; 3]) {
    let mut ws = Workspace::new(1 << 16);
    let x = ws.alloc(4 * N as u64);
    let y = ws.alloc(4 * N as u64);
    let data: Vec<i32> = (0..N as i32).map(|i| (i * 37) % 1000 - 500).collect();
    ws.write_i32s(x, &data);
    let args = [
        MachineValue::Int(N as i64),
        MachineValue::Int(x as i64),
        MachineValue::Int(y as i64),
    ];
    (ws, args)
}

/// Run the three-way comparison: assert results, memory and `SimStats` are
/// bit-identical across the legacy walk, the metered loop and the
/// threaded handler table, then time each side over `runs` runs.
pub fn measure(runs: u32) -> DispatchMeasurement {
    let target = TargetDesc::x86_sse();
    let program = compiled_tight_loop(&target);
    let prepared = PreparedProgram::prepare(&program, &target).expect("prepares");
    let fusion = prepared.fusion_stats();
    assert!(fusion.total() > 0, "fusion fires");

    // Correctness gate: all three paths must be bit-identical before any
    // timing.
    let (mut ws_a, args) = workspace();
    let (mut ws_b, _) = workspace();
    let (mut ws_c, _) = workspace();
    let mut legacy = Simulator::new(&program, &target);
    let legacy_out = legacy
        .run_legacy("tight", &args, ws_a.bytes_mut())
        .expect("legacy runs");
    let mut metered_sim = PreparedSimulator::new(&prepared);
    let metered_out = metered_sim
        .run_metered("tight", &args, ws_b.bytes_mut())
        .expect("metered runs");
    let mut threaded_sim = PreparedSimulator::new(&prepared);
    let threaded_out = threaded_sim
        .run("tight", &args, ws_c.bytes_mut())
        .expect("threaded runs");
    assert_eq!(legacy_out, metered_out, "results must be bit-identical");
    assert_eq!(legacy_out, threaded_out, "results must be bit-identical");
    assert_eq!(
        legacy.stats(),
        metered_sim.stats(),
        "SimStats must be bit-identical"
    );
    assert_eq!(
        legacy.stats(),
        threaded_sim.stats(),
        "SimStats must be bit-identical"
    );
    assert_eq!(ws_a.bytes(), ws_b.bytes(), "memory must be bit-identical");
    assert_eq!(ws_a.bytes(), ws_c.bytes(), "memory must be bit-identical");
    let instructions = threaded_sim.stats().instructions;

    // Headline: ns per run — cold legacy walk, warm metered loop, warm
    // threaded handler table.
    let (mut ws, args) = workspace();
    let start = Instant::now();
    for _ in 0..runs {
        let mut cold = Simulator::new(&program, &target);
        cold.run_legacy("tight", &args, ws.bytes_mut())
            .expect("runs");
    }
    let legacy_ns = start.elapsed().as_nanos() as f64 / f64::from(runs);

    let mut warm = PreparedSimulator::new(&prepared);
    let start = Instant::now();
    for _ in 0..runs {
        warm.run_metered("tight", &args, ws.bytes_mut())
            .expect("runs");
    }
    let metered_ns = start.elapsed().as_nanos() as f64 / f64::from(runs);

    let start = Instant::now();
    for _ in 0..runs {
        warm.run("tight", &args, ws.bytes_mut()).expect("runs");
    }
    let threaded_ns = start.elapsed().as_nanos() as f64 / f64::from(runs);

    DispatchMeasurement {
        legacy_ns,
        metered_ns,
        threaded_ns,
        instructions,
        fusion,
    }
}
