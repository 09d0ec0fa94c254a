//! Bench — the prepared executor's two loops against the legacy walk.
//!
//! The measurement itself lives in `splitc_bench::dispatch` (shared with the
//! `report` binary's `BENCH_sweep.json` trajectory): the same JIT-compiled
//! tight-loop kernel is executed three ways —
//!
//! * **cold / legacy** — the original `MProgram` block walk, which decodes
//!   (and clones) every instruction on every step, re-validates registers
//!   per instruction, resolves call targets by name and allocates a fresh
//!   frame per call. It is the fixed reference both floors are stated
//!   against: nothing in the prepared executor shares code with it;
//! * **metered** — the pre-decoded `PreparedProgram` driven by the metered
//!   loop: one handler call per instruction over the 1:1 record stream, fuel
//!   and timing charged per record, with a warm frame pool;
//! * **threaded** — the same handlers driven through the fused and welded
//!   stream with per-region fuel/instruction prepayment, same pool.
//!
//! Results and `SimStats` are asserted bit-identical across all three before
//! any timing; the headline is the ns-per-run of each prepared loop over the
//! legacy walk. The floors (metered ≥1.3× legacy, threaded ≥1.6× legacy) are
//! report-only by default (shared CI runners are noisy); set
//! `SIM_BENCH_ASSERT=1` on a quiet host to enforce them. They sit well under
//! the quiet-host readings and gate each loop against the reference, not the
//! two loops against each other: the loops share their handlers, so a change
//! that speeds up metering must not trip a threaded-over-metered ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use splitc::splitc_targets::{PreparedProgram, PreparedSimulator, Simulator, TargetDesc};
use splitc_bench::dispatch;

/// Timed runs per side.
const RUNS: u32 = 200;

fn bench_simulator(c: &mut Criterion) {
    let m = dispatch::measure(RUNS);
    let (legacy_ns, metered_ns, threaded_ns) = (m.legacy_ns, m.metered_ns, m.threaded_ns);
    let prepared_speedup = m.prepared_speedup();
    let dispatch_speedup = m.dispatch_speedup();
    println!(
        "\nsimulator tight-loop (n = {}): legacy walk = {legacy_ns:.0} ns/run, \
         metered = {metered_ns:.0} ns/run ({prepared_speedup:.2}x), \
         threaded = {threaded_ns:.0} ns/run ({dispatch_speedup:.2}x over metered)",
        dispatch::N
    );
    if std::env::var_os("SIM_BENCH_ASSERT").is_some() {
        assert!(
            prepared_speedup >= 1.3,
            "expected the metered loop >= 1.3x the legacy walk, got {prepared_speedup:.2}x"
        );
        let threaded_speedup = legacy_ns / threaded_ns;
        assert!(
            threaded_speedup >= 1.6,
            "expected threaded dispatch >= 1.6x the legacy walk, got {threaded_speedup:.2}x"
        );
    }

    let target = TargetDesc::x86_sse();
    let program = dispatch::compiled_tight_loop(&target);
    let prepared = PreparedProgram::prepare(&program, &target).expect("prepares");
    let (mut ws, args) = dispatch::workspace();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("legacy_walk", |b| {
        b.iter(|| {
            let mut cold = Simulator::new(&program, &target);
            cold.run_legacy("tight", &args, ws.bytes_mut())
                .expect("runs")
        })
    });
    group.bench_function("metered", |b| {
        let mut warm = PreparedSimulator::new(&prepared);
        b.iter(|| {
            warm.run_metered("tight", &args, ws.bytes_mut())
                .expect("runs")
        })
    });
    group.bench_function("threaded", |b| {
        let mut warm = PreparedSimulator::new(&prepared);
        b.iter(|| warm.run("tight", &args, ws.bytes_mut()).expect("runs"))
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
