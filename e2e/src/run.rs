//! One benchmark run: set-up, warm-up, interleaved rounds, report.
//!
//! After set-up the run proceeds in **rounds**; each round runs one short
//! block of every phase, so host drift lands on all phases alike. A block
//! times its phase unit by unit, each unit keeps its samples across rounds,
//! and a timing metric is the sum of its units' best samples (see
//! [`crate::stats`] for why); the sum of unit medians is printed beside it.
//! The end-to-end metrics are always measured with tracing off; a traced run
//! (`--trace 1`) runs every block a second time with spans and allocation
//! counting on, adds the per-layer probes and the open-loop curve, and
//! reports the per-layer metrics.

use crate::alloc::{self, Phase};
use crate::calib::Calib;
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host::{self, Host};
use crate::phases::{
    open_seed, push, Bench, Exact, Executor, OpenLoop, ProbeCell, Samples, OFFLINE_STAGES,
    ONLINE_STAGES, WORKERS,
};
use crate::stats::{highest_resolvable_percentile, median, percentile_sorted, Stat, Units};
use crate::trace::Tracer;
use crate::workload::{self, Spec, Workload};
use splitc_runtime::serve::ServerStats;
use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewer blocks than this in any phase and the run refuses to report.
const MIN_BLOCKS: usize = 10;
/// Fewer samples than this of any unit and the run refuses to report.
const MIN_UNIT_SAMPLES: usize = 3;
/// Rounds go on past `--seconds` until the two minima above hold, but not
/// past this multiple of it.
const OVERTIME: f64 = 3.0;
/// Set-up runs once more in every round until it has used up this share of
/// `--seconds`.
const SETUP_SHARE: f64 = 0.15;
/// The statistic of a unit's samples the timing metrics are built from: the
/// tenth percentile, "what the unit costs when the host hardly interferes".
/// Measured on the shared host (README, "Repeatability"): run-to-run, sums of
/// unit medians swing by up to half when interference comes and goes, sums
/// of unit minima by a quarter when it never stops (a clean sample is then a
/// matter of luck); the tenth percentile did best under both.
const NEAR_BEST: Stat = Stat::Quantile(0.1);
/// Share of `--seconds` a traced run gives to each open-loop run, and how
/// many there are: three fixed rates plus four probes of the highest-rate
/// search.
const OPEN_SHARE: f64 = 0.035;
const OPEN_RUNS: f64 = 7.0;
/// Rates the highest-rate search chooses from, as multiples of r3 / 0.7
/// (the closed-loop rate the frozen rates were derived from).
const RATE_LADDER: [f64; 12] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3];
/// The generator held a rate when its p99 lag stayed below this share of
/// the workload's latency limit.
const LAG_SHARE: f64 = 0.1;
/// Requests outstanding when the last one is sent; more is a growing backlog.
const BACKLOG_LIMIT: usize = 64;
/// Simulated instructions one traced round's executor probes may run per
/// executor: all 153 variants at n = 64, a ninth of them at n = 4096.
const PROBE_INSTS: u64 = 8_000_000;
/// Warm engine lookups per traced round.
const LOOKUPS: usize = 1024;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The six timed end-to-end metrics, in round order.
const TIMED: [&str; 6] = [
    "offline_ms",
    "online_cold_ms",
    "online_warm_ms",
    "sim_mips",
    "serve_rps",
    "serve_rtt_us",
];

const ROOTS: [&str; 5] = [
    "offline",
    "online.cold",
    "online.warm",
    "exec.run",
    "serve.request",
];

/// Allocation-metric names of the four counted phases, in [`Phase`] order.
const ALLOC: [(&str, &str); 4] = [
    ("alloc.count_per_op.offline", "alloc.bytes_per_op.offline"),
    ("alloc.count_per_op.online", "alloc.bytes_per_op.online"),
    ("alloc.count_per_op.exec", "alloc.bytes_per_op.exec"),
    ("alloc.count_per_op.serve", "alloc.bytes_per_op.serve"),
];

/// What the traced blocks record beyond their timings.
#[derive(Default)]
struct Spans {
    /// Self time per span name and unit, nanoseconds.
    layers: BTreeMap<&'static str, Units>,
    /// Self and total nanoseconds per root kind, summed over all blocks.
    roots: BTreeMap<&'static str, (u64, u64)>,
    /// Allocation calls / bytes per operation, per block.
    alloc: Samples,
}

/// The samples of the rounds run one way: untraced, or traced.
#[derive(Default)]
struct Collector {
    /// Per-unit timings, one `Units` per entry of [`TIMED`].
    units: [Units; 6],
    blocks: usize,
    /// Per-request parts of the window-1 blocks and per-block batch means.
    parts: Samples,
    /// `Some` for the traced collector.
    spans: Option<Spans>,
}

impl Collector {
    fn take(&mut self, phase: usize, bench: &Bench<'_>, tr: &mut Tracer) {
        self.units[phase].record_all(&bench.timings);
        let Some(spans) = &mut self.spans else { return };
        for ((name, unit), (self_ns, total_ns)) in tr.finish_block() {
            spans
                .layers
                .entry(name)
                .or_default()
                .record(unit, self_ns as f64);
            if ROOTS.contains(&name) {
                let entry = spans.roots.entry(name).or_default();
                entry.0 += self_ns;
                entry.1 += total_ns;
            }
        }
    }

    /// Charge what `phase` allocated since `before` to its `ops` operations.
    fn charge(&mut self, phase: Phase, before: alloc::Totals, ops: usize) {
        let Some(spans) = &mut self.spans else { return };
        let after = alloc::totals(phase);
        let (count, bytes) = ALLOC[phase as usize - 1];
        push(
            &mut spans.alloc,
            count,
            (after.count - before.count) as f64 / ops as f64,
        );
        push(
            &mut spans.alloc,
            bytes,
            (after.bytes - before.bytes) as f64 / ops as f64,
        );
    }

    /// One round: a block of every phase, the host-speed probe in between.
    fn round(&mut self, bench: &mut Bench<'_>, tr: &mut Tracer, calib: &mut Calib) {
        let w = bench.w;
        calib.probe(2);
        let before = alloc::totals(Phase::Offline);
        bench.offline_block(tr);
        self.take(0, bench, tr);
        self.charge(Phase::Offline, before, w.modules.len());

        calib.probe(2);
        let before = alloc::totals(Phase::Online);
        bench.online_block(tr, false);
        self.take(1, bench, tr);
        calib.probe(2);
        bench.online_block(tr, true);
        self.take(2, bench, tr);
        self.charge(Phase::Online, before, 2 * w.pairs());

        calib.probe(2);
        let before = alloc::totals(Phase::Exec);
        bench.exec_block(tr, w.spec.exec_runs);
        self.take(3, bench, tr);
        self.charge(Phase::Exec, before, w.spec.exec_runs);

        calib.probe(2);
        let before = alloc::totals(Phase::Serve);
        for _ in 0..w.spec.closed_blocks {
            let batch_mean = bench.closed_block(self.spans.is_some());
            self.take(4, bench, tr);
            push(&mut self.parts, "serve.batch_mean", batch_mean);
        }
        self.charge(
            Phase::Serve,
            before,
            w.spec.closed_blocks * w.closed_order.len(),
        );

        calib.probe(2);
        bench.rtt_block(tr, &mut self.parts);
        self.take(5, bench, tr);
        self.blocks += 1;
    }

    /// `TIMED[phase]` from each unit's `stat`.
    fn metric(&self, phase: usize, stat: Stat, bench: &Bench<'_>) -> f64 {
        let w = bench.w;
        let units = &self.units[phase];
        match TIMED[phase] {
            "sim_mips" => {
                let insts: u64 = bench.cell_insts.iter().sum();
                insts as f64 / units.sum(stat) * 1e3
            }
            "serve_rps" => w.closed_order.len() as f64 / units.sum(stat) * 1e9,
            // The mean over the request mix of each kind's round trip.
            "serve_rtt_us" => {
                let total: f64 = w
                    .rtt_order
                    .iter()
                    .filter_map(|&cell| units.value(cell as usize, stat))
                    .sum();
                total / w.rtt_order.len() as f64 / 1e3
            }
            _ => units.sum(stat) / 1e6,
        }
    }

    /// Why the samples do not support a report yet, if they do not.
    fn lacking(&self, w: &Workload) -> Option<String> {
        if self.blocks < MIN_BLOCKS {
            return Some(format!(
                "{} blocks per phase, fewer than {MIN_BLOCKS}",
                self.blocks
            ));
        }
        (0..TIMED.len()).find_map(|phase| {
            let units = &self.units[phase];
            let expected = match TIMED[phase] {
                "offline_ms" => w.modules.len() * OFFLINE_STAGES,
                "online_cold_ms" | "online_warm_ms" => w.pairs() * ONLINE_STAGES,
                "sim_mips" => w.cells.len(),
                "serve_rps" => 1,
                _ => w.rtt_kinds(),
            };
            if units.len() < expected {
                Some(format!(
                    "{}: {} of {expected} units sampled",
                    TIMED[phase],
                    units.len()
                ))
            } else if units.rounds() < MIN_UNIT_SAMPLES {
                Some(format!(
                    "{}: a unit has {} samples, fewer than {MIN_UNIT_SAMPLES}",
                    TIMED[phase],
                    units.rounds()
                ))
            } else {
                None
            }
        })
    }
}

/// Set-up is timed when the run starts and once more in every round: one
/// process start cannot be repeated, the work can.
#[derive(Default)]
struct SetUps {
    /// Per stage `set_up` times (see [`Workload::stages`]).
    stages: Units,
    spent: Duration,
}

impl SetUps {
    fn run(&mut self, spec: &'static Spec, seed: u64, store_dir: &Path) -> Workload {
        let started = Instant::now();
        let w = workload::set_up(spec, seed, store_dir);
        self.spent += started.elapsed();
        for (stage, &stage_ns) in w.stages.iter().enumerate() {
            self.stages.record(stage, stage_ns);
        }
        w
    }
}

/// The per-layer probes of the traced rounds: timings the end-to-end phases
/// cannot split from outside.
#[derive(Default)]
struct Probes {
    /// Executor probes, unit = probe cell.
    threaded: Units,
    metered: Units,
    inorder: Units,
    /// A run at n = 0, unit = cell.
    fixed: Units,
    /// A warm engine lookup (the mean of a thousand), one unit.
    hit_ns: Units,
}

impl Probes {
    fn round(&mut self, bench: &mut Bench<'_>) {
        // As many probe cells as fit the instruction budget; a probe cell
        // runs about as many instructions as a cell of the workload.
        let per_cell = bench.cell_insts.iter().sum::<u64>() / bench.cell_insts.len().max(1) as u64;
        let runs = (PROBE_INSTS / per_cell.max(1)).clamp(1, bench.probe_flat.len() as u64) as usize;
        for (executor, units) in [
            (Executor::Threaded, &mut self.threaded),
            (Executor::Metered, &mut self.metered),
            (Executor::InOrder, &mut self.inorder),
        ] {
            bench.executor_probe(executor, runs);
            units.record_all(&bench.timings);
        }
        bench.advance_probes(runs);
        self.hit_ns.record(0, bench.fixed_cost_probe(LOOKUPS));
        self.fixed.record_all(&bench.timings);
    }
}

/// Near-best nanoseconds per simulated instruction over the probe cells
/// `keep` lets through.
fn ns_per_inst(units: &Units, cells: &[ProbeCell], keep: impl Fn(&ProbeCell) -> bool) -> f64 {
    let (mut ns, mut insts) = (0.0, 0u64);
    for (index, cell) in cells.iter().enumerate().filter(|(_, c)| keep(c)) {
        if let Some(run_ns) = units.value(index, NEAR_BEST) {
            ns += run_ns;
            insts += cell.insts;
        }
    }
    ns / insts.max(1) as f64
}

/// The open-loop part of a traced run.
struct OpenCurve {
    fixed: Vec<OpenLoop>,
    max_rate_rps: f64,
    probes: Vec<(f64, bool)>,
}

fn tail(run: &OpenLoop) -> (f64, f64) {
    // The limit is checked on p99 when a thousand samples resolve it, else
    // on the highest percentile that has ten samples beyond it.
    let p = highest_resolvable_percentile(run.latency_us.len()).map_or(50.0, |p| p.min(99.0));
    (p, percentile_sorted(&run.latency_us, p))
}

fn lag_p99(run: &OpenLoop) -> f64 {
    percentile_sorted(&run.lag_us, 99.0)
}

fn held(run: &OpenLoop, spec: &Spec) -> bool {
    lag_p99(run) <= LAG_SHARE * spec.latency_limit_us
}

fn passes(run: &OpenLoop, spec: &Spec) -> bool {
    run.missed == 0
        && !run.latency_us.is_empty()
        && tail(run).1 <= spec.latency_limit_us
        && run.backlog_at_end <= BACKLOG_LIMIT
        && held(run, spec)
}

fn open_curve(bench: &mut Bench<'_>, args: &RunArgs) -> OpenCurve {
    let spec = bench.w.spec;
    let each = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let fixed: Vec<OpenLoop> = spec
        .open_rates_rps
        .iter()
        .enumerate()
        .map(|(k, &rate)| bench.open_loop(rate, each, open_seed(args.seed, k as u64)))
        .collect();
    // Highest ladder rate that still passes, by bisection (passing is taken
    // to be monotone in the rate).
    let base = spec.open_rates_rps[2] / 0.7;
    let (mut lo, mut hi) = (0usize, RATE_LADDER.len());
    let mut probes = Vec::new();
    let mut k = 3;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rate = base * RATE_LADDER[mid];
        let ok = passes(&bench.open_loop(rate, each, open_seed(args.seed, k)), spec);
        probes.push((rate, ok));
        k += 1;
        if ok {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    OpenCurve {
        fixed,
        max_rate_rps: if lo == 0 {
            0.0
        } else {
            base * RATE_LADDER[lo - 1]
        },
        probes,
    }
}

fn med(samples: &Samples, name: &str) -> f64 {
    samples.get(name).map_or(0.0, |v| median(v))
}

fn pct(samples: &Samples, name: &str, p: f64) -> f64 {
    let mut v = samples.get(name).cloned().unwrap_or_default();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// What a traced run measured, for [`layer_values`].
struct TracedRun<'a> {
    untraced: &'a Collector,
    traced: &'a Collector,
    probes: &'a Probes,
    curve: &'a OpenCurve,
    /// The server's counters before the open-loop runs (which overload it
    /// on purpose).
    server: &'a ServerStats,
}

/// Assemble every per-layer metric of the catalogue from a traced run.
fn layer_values(
    bench: &Bench<'_>,
    exact: &Exact,
    run: &TracedRun<'_>,
) -> BTreeMap<&'static str, f64> {
    let w = bench.w;
    let TracedRun {
        untraced,
        traced,
        probes,
        curve,
        server,
    } = run;
    let spans = traced
        .spans
        .as_ref()
        .expect("the traced collector records spans");
    // Sum over the units of a span name's near-best self time, microseconds.
    let self_us = |name: &str| {
        spans
            .layers
            .get(name)
            .map_or(0.0, |u| u.sum(NEAR_BEST) / 1e3)
    };
    let mut m = BTreeMap::new();
    let lex = self_us("minic.lex");
    m.insert("minic.lex_us", lex);
    // `parse` lexes internally: its span minus the stand-alone lex.
    m.insert("minic.parse_us", (self_us("minic.parse") - lex).max(0.0));
    m.insert("minic.lower_us", self_us("minic.lower"));
    m.insert("minic.tokens", exact.minic_tokens as f64);
    m.insert("minic.vbc_insts", exact.minic_vbc_insts as f64);
    for (metric, span) in [
        ("opt.fold_us", "opt.fold"),
        ("opt.dce_us", "opt.dce"),
        ("opt.vectorize_us", "opt.vectorize"),
        ("opt.split_regalloc_us", "opt.split_regalloc"),
        ("opt.annotate_us", "opt.annotate"),
        ("vbc.encode_us", "vbc.encode"),
        ("vbc.decode_us", "vbc.decode"),
        ("vbc.verify_us", "vbc.verify"),
        ("targets.prepare_us", "targets.prepare"),
        ("targets.first_run_us", "targets.first_run"),
        ("store.save_us", "store.save"),
        ("store.load_us", "store.load"),
        ("core.checksum_us", "core.checksum"),
    ] {
        m.insert(metric, self_us(span));
    }
    m.insert("opt.insts_after", exact.opt_insts_after as f64);
    m.insert("opt.vectorized_loops", exact.opt_vectorized_loops as f64);
    m.insert("opt.offline_work", exact.opt_offline_work as f64);
    m.insert(
        "vbc.interp_mips",
        w.probe.interp_insts as f64 / w.probe.interp_secs.max(1e-9) / 1e6,
    );
    // `compile_module` verifies first; the JIT's own share is the rest.
    let compile = self_us("jit.compile");
    m.insert("jit.compile_us", (compile - self_us("vbc.verify")).max(0.0));
    m.insert("jit.verify_work", exact.jit.verify_work as f64);
    m.insert("jit.lowering_work", exact.jit.lowering_work as f64);
    m.insert("jit.regalloc_work", exact.jit.regalloc_work as f64);
    m.insert("jit.static_spills", exact.jit.static_spills as f64);
    m.insert("jit.static_reloads", exact.jit.static_reloads as f64);
    m.insert("targets.fused_ops", exact.fused_ops as f64);
    let flat = &bench.probe_flat;
    m.insert(
        "targets.threaded_ns_per_inst",
        ns_per_inst(&probes.threaded, flat, |_| true),
    );
    for (name, class) in [
        ("targets.threaded_ns_per_inst.scalar", 0),
        ("targets.threaded_ns_per_inst.simd", 1),
        ("targets.threaded_ns_per_inst.gpu", 2),
    ] {
        m.insert(
            name,
            ns_per_inst(&probes.threaded, flat, |c| c.class == class),
        );
    }
    m.insert(
        "targets.metered_ns_per_inst",
        ns_per_inst(&probes.metered, flat, |_| true),
    );
    m.insert(
        "targets.inorder_ns_per_inst",
        ns_per_inst(&probes.inorder, &bench.probe_inorder, |_| true),
    );
    m.insert(
        "targets.run_fixed_ns",
        probes.fixed.sum(NEAR_BEST) / probes.fixed.len().max(1) as f64,
    );
    m.insert("engine.hit_ns", probes.hit_ns.sum(NEAR_BEST));
    m.insert("targets.sim_instructions", exact.sim.instructions as f64);
    m.insert("targets.sim_stalls", exact.sim.stalls as f64);
    m.insert("targets.sim_mispredicts", exact.sim.mispredicts as f64);
    m.insert("targets.sim_spill_ops", exact.sim.spill_ops as f64);
    m.insert(
        "engine.cold_overhead_us",
        (self_us("engine.program_for") - compile - self_us("targets.prepare")).max(0.0),
    );
    m.insert("engine.compiles", exact.engine.compiles as f64);
    m.insert("engine.hits", exact.engine.hits as f64);
    m.insert("engine.disk_hits", exact.engine.disk_hits as f64);
    m.insert("engine.disk_rejects", exact.engine.disk_rejects as f64);
    m.insert("store.entry_bytes", exact.store_entry_bytes as f64);

    let parts = &traced.parts;
    m.insert("serve.submit_ns", med(parts, "serve.submit_ns"));
    m.insert("serve.queue_wait_us_p50", med(parts, "serve.queue_wait_us"));
    m.insert(
        "serve.queue_wait_us_p99",
        pct(parts, "serve.queue_wait_us", 99.0),
    );
    m.insert("serve.execute_us_p50", med(parts, "serve.execute_us"));
    m.insert("serve.execute_us_p99", pct(parts, "serve.execute_us", 99.0));
    m.insert("serve.tier_us_p50", med(parts, "serve.tier_us"));
    m.insert("serve.batch_mean", med(parts, "serve.batch_mean"));
    m.insert("serve.queue_high_water", server.queue_high_water as f64);
    m.insert("serve.retried", server.retried as f64);
    m.insert("serve.rejected", server.rejected as f64);
    m.insert("serve.expired", server.expired as f64);
    const P50: [&str; 3] = [
        "serve.lat_p50_us.r1",
        "serve.lat_p50_us.r2",
        "serve.lat_p50_us.r3",
    ];
    const P99: [&str; 3] = [
        "serve.lat_p99_us.r1",
        "serve.lat_p99_us.r2",
        "serve.lat_p99_us.r3",
    ];
    for (k, run) in curve.fixed.iter().enumerate() {
        m.insert(P50[k], percentile_sorted(&run.latency_us, 50.0));
        m.insert(P99[k], percentile_sorted(&run.latency_us, 99.0));
    }
    m.insert("serve.max_rate_rps", curve.max_rate_rps);
    m.insert(
        "serve.gen_lag_us_p99",
        curve.fixed.iter().map(lag_p99).fold(0.0, f64::max),
    );
    m.insert(
        "serve.rates_held",
        curve.fixed.iter().filter(|run| held(run, w.spec)).count() as f64,
    );
    m.insert("core.prepare_inputs_us", w.probe.prepare_inputs_us);
    for (name, samples) in &spans.alloc {
        m.insert(name, median(samples));
    }

    // Tracing overhead: mean over the timed phases of how much worse the
    // traced blocks read than the untraced ones.
    let overhead: f64 = (0..TIMED.len())
        .map(|phase| {
            let plain = untraced.metric(phase, NEAR_BEST, bench);
            let with_spans = traced.metric(phase, NEAR_BEST, bench);
            let higher_is_better = matches!(TIMED[phase], "sim_mips" | "serve_rps");
            let ratio = if higher_is_better {
                plain / with_spans
            } else {
                with_spans / plain
            };
            (ratio - 1.0) * 100.0
        })
        .sum::<f64>()
        / TIMED.len() as f64;
    m.insert("trace.overhead_pct", overhead);
    let unaccounted = spans
        .roots
        .values()
        .map(|&(self_ns, total_ns)| self_ns as f64 / total_ns.max(1) as f64 * 100.0)
        .fold(0.0, f64::max);
    m.insert("trace.unaccounted_pct", unaccounted);
    m
}

fn json_number(v: f64) -> String {
    // `{:?}` prints every digit needed to read the value back exactly.
    format!("{v:?}")
}

/// The `metrics` object of the result line.
///
/// # Errors
///
/// Names a metric whose value is not a number: a bug in the benchmark that
/// must not reach the driver as `NaN`.
fn json_metrics<'a>(
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> Result<String, String> {
    let metrics: Vec<_> = metrics.collect();
    if let Some((name, value, _)) = metrics.iter().find(|(_, value, _)| !value.is_finite()) {
        return Err(format!("internal: {name} measured {value}"));
    }
    Ok(metrics
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            )
        })
        .collect::<Vec<_>>()
        .join(","))
}

/// Run one workload and print its report; the last line of standard output
/// is the machine-readable result.
///
/// # Errors
///
/// Returns why the run refuses to report: an unknown workload, a host that
/// cannot support the thread count, a non-deterministic compiler or
/// simulator, or too few samples.
pub fn run(args: &RunArgs) -> Result<(), String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{}` (one of: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let host = Host::probe();
    if WORKERS + 1 > host.nproc {
        return Err(format!(
            "{WORKERS} server worker(s) plus the generator need {} cores but the host offers {}: \
             a number measured under time-slicing is scheduling noise",
            WORKERS + 1,
            host.nproc
        ));
    }
    println!(
        "e2e workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={} cgroup_cpu=\"{}\" workers={WORKERS} pinned={} rustc=\"{}\" git={}",
        host.nproc,
        host.cgroup_cpu,
        host.pinned
            .map_or("no".to_owned(), |(generator, server)| format!(
                "generator:{generator},server:{server}"
            )),
        host.rustc,
        host.git_rev
    );

    let scratch = Scratch(host::scratch_dir());
    let store_dir = scratch.0.join("store");
    fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create {:?}: {e}", scratch.0))?;

    let mut setups = SetUps::default();
    let mut calib = Calib::new();
    let w = setups.run(spec, args.seed, &store_dir);
    let mut bench = Bench::start(&w, host.pinned);
    if args.trace {
        bench.prepare_probes(&scratch.0.join("probe-store"))?;
    }
    let exact = bench.warm_up()?;

    // Rounds.
    let mut untraced = Collector::default();
    let mut traced = Collector {
        spans: Some(Spans::default()),
        ..Collector::default()
    };
    let mut probes = Probes::default();
    let mut off = Tracer::disabled();
    let mut on = Tracer::recording();
    let rounds_share = if args.trace {
        1.0 - OPEN_RUNS * OPEN_SHARE
    } else {
        1.0
    };
    let measure_for = Duration::from_secs_f64(args.seconds * rounds_share);
    let measuring = Instant::now();
    // Repeated set-ups make their own store directory, as the first did.
    let spare_dir = scratch.0.join("setup-store");
    loop {
        if setups.spent.as_secs_f64() < args.seconds * SETUP_SHARE {
            calib.probe(2);
            setups.run(spec, args.seed, &spare_dir);
            let _ = fs::remove_dir_all(&spare_dir);
        }
        untraced.round(&mut bench, &mut off, &mut calib);
        if args.trace {
            traced.round(&mut bench, &mut on, &mut calib);
            probes.round(&mut bench);
        }
        if measuring.elapsed() < measure_for {
            continue;
        }
        let lacking = untraced
            .lacking(&w)
            .or_else(|| args.trace.then(|| traced.lacking(&w)).flatten());
        match lacking {
            None => break,
            Some(why) if measuring.elapsed() >= measure_for.mul_f64(OVERTIME) => {
                return Err(format!("{why}: raise --seconds"));
            }
            Some(_) => {}
        }
    }
    let server = bench.server_stats();
    let curve = args.trace.then(|| open_curve(&mut bench, args));

    // End-to-end metrics: print each as it is measured; a timing also as it
    // would read built from each unit's best sample and from its median.
    let mut e2e: Vec<f64> = Vec::new();
    for metric in &END_TO_END {
        let timed = TIMED.iter().position(|name| *name == metric.name);
        let of = |stat| match timed {
            Some(phase) => untraced.metric(phase, stat, &bench),
            None => setups.stages.sum(stat) / 1e9,
        };
        let value = match (metric.name, timed) {
            (_, Some(_)) | ("setup_s", _) => of(NEAR_BEST),
            ("bytecode_bytes", _) => exact.bytecode_bytes as f64,
            ("code_minsts", _) => exact.code_minsts as f64,
            ("sim_cycles", _) => exact.sim.cycles as f64 / 1e6,
            ("peak_rss_mb", _) => {
                host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?
            }
            (other, _) => return Err(format!("internal: no measurement for {other}")),
        };
        if timed.is_some() || metric.name == "setup_s" {
            println!(
                "metric {} {} {} from_best={} from_medians={}",
                metric.name,
                json_number(value),
                metric.unit,
                json_number(of(Stat::Floor)),
                json_number(of(Stat::Quantile(0.5))),
            );
        } else {
            println!(
                "metric {} {} {}",
                metric.name,
                json_number(value),
                metric.unit
            );
        }
        e2e.push(value);
    }
    println!(
        "calib probe_floor_ns={} reference_ns={} host_speed={:.4} probes={}",
        calib.floor_ns(),
        crate::calib::REFERENCE_NS,
        calib.host_speed(),
        calib.probes()
    );
    println!(
        "rounds blocks={} setups={} unit_samples_min={}",
        untraced.blocks,
        setups.stages.rounds(),
        untraced.units.iter().map(Units::rounds).min().unwrap_or(0)
    );
    println!(
        "serve batch_mean={:.3} high_water={} retried={} rejected={} expired={}",
        med(&untraced.parts, "serve.batch_mean"),
        server.queue_high_water,
        server.retried,
        server.rejected,
        server.expired
    );

    // Per-layer metrics.
    let mut layers = BTreeMap::new();
    if let Some(curve) = &curve {
        let run = TracedRun {
            untraced: &untraced,
            traced: &traced,
            probes: &probes,
            curve,
            server: &server,
        };
        layers = layer_values(&bench, &exact, &run);
        for metric in &PER_LAYER {
            let value = layers.get(metric.name).ok_or_else(|| {
                format!(
                    "internal: per-layer metric {} was not produced",
                    metric.name
                )
            })?;
            println!(
                "layer {} {} {}",
                metric.name,
                json_number(*value),
                metric.unit
            );
        }
        let spans = traced
            .spans
            .as_ref()
            .expect("the traced collector records spans");
        for (root, (self_ns, total_ns)) in &spans.roots {
            println!(
                "trace root={root} total_ms={:.3} unaccounted_pct={:.2}",
                *total_ns as f64 / 1e6,
                *self_ns as f64 / (*total_ns).max(1) as f64 * 100.0
            );
        }
        for (phase, name) in TIMED.iter().enumerate() {
            println!(
                "trace phase={name} untraced={} traced={}",
                json_number(untraced.metric(phase, NEAR_BEST, &bench)),
                json_number(traced.metric(phase, NEAR_BEST, &bench))
            );
        }
        for (run, label) in curve.fixed.iter().zip(["r1", "r2", "r3"]) {
            let (p, at_p) = tail(run);
            println!(
                "open rate={label} rps={} sent={} missed={} p50_us={:.1} p{p}_us={at_p:.1} \
                 gen_lag_p99_us={:.1} backlog_at_end={} held={} meets_limit={}",
                run.rate_rps,
                run.sent,
                run.missed,
                percentile_sorted(&run.latency_us, 50.0),
                lag_p99(run),
                run.backlog_at_end,
                if held(run, spec) { "true" } else { "null" },
                passes(run, spec)
            );
        }
        for (rate, ok) in &curve.probes {
            println!("open probe rps={rate:.0} passes={ok}");
        }
        let path = host::exe_dir().join(format!("e2e-trace-{}.jsonl", spec.name));
        let file = fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        on.write_jsonl(&mut BufWriter::new(file))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let (kept, dropped) = on.kept_and_dropped();
        println!(
            "trace spans written={kept} aggregated_only={dropped} file={}",
            path.display()
        );
        if w.never_batches() && layers["serve.batch_mean"] != 1.0 {
            return Err(format!(
                "no two queued requests of this workload share a batch key, yet the mean batch was {}",
                layers["serve.batch_mean"]
            ));
        }
    }

    let (attempted, failed) = (bench.ops.attempted, bench.ops.failed);
    for note in &bench.ops.notes {
        println!("failure {note}");
    }
    bench.shut_down();
    let body = if args.trace {
        json_metrics(PER_LAYER.iter().map(|m| (m.name, layers[m.name], m.unit)))
    } else {
        json_metrics(
            e2e.iter()
                .zip(&END_TO_END)
                .map(|(value, m)| (m.name, *value, m.unit)),
        )
    }?;
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0
    );
    Ok(())
}
