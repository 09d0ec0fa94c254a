//! Regenerate the paper-style tables of the DAC 2010 reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p splitc-bench --bin report -- [all|table1|splitflow|regalloc|hetero|codesize|kpn] [n] [--jobs N] [--json <path>]
//! ```
//!
//! `n` is the number of elements per kernel invocation (default 4096, as in
//! the experiment index of `DESIGN.md`). `--jobs N` fans the measurement
//! matrices of the table1, splitflow and hetero experiments across N worker
//! threads (`--jobs 0` = one per host core); results are bit-identical to
//! the sequential run, so parallelism only changes wall-clock time.
//!
//! `--json <path>` additionally runs the machine-readable perf trajectory
//! and writes it to `path` — by convention `BENCH_sweep.json` at the repo
//! root, so successive PRs accumulate comparable numbers. The trajectory has
//! four sections: the sweep rows (table1 kernels × the full preset target
//! catalogue, sequential and parallel: ns/iter, per-cell simulated cycles,
//! engine cache stats); the `timing` rows (the same kernels × targets run
//! under the flat cost tier and the in-order pipeline tier on one shared
//! deployment: instructions, cycles and CPI per tier, plus the pipeline's
//! stall/mispredict/predicted counters — checksums asserted bit-identical
//! across tiers before a row is emitted); the `serving` rows (the same mixed-module traffic
//! pushed through the serving queue at 1 and 4 workers, a
//! 10⁵-request soak, and a chaos soak under the stock seeded fault plan:
//! requests/s, queue high water, queue-wait and execute latency quantiles,
//! batch-size distribution, fault-tolerance counters — deadline expiries,
//! cancellations, retries, breaker lifecycle — and aggregated engine-cache
//! counters); the `store` row (the catalogue load run twice against one
//! persistent artifact-store directory — cold with the store emptied, then
//! warm in a fresh server that loads every key from disk instead of
//! compiling — recording the cold-vs-warm time-to-first-response delta,
//! the split-compilation saving a process restart no longer pays); and the `dispatch` row
//! (the tight-loop kernel of `benches/simulator.rs` timed on the legacy
//! walk, the metered loop and the threaded handler table: ns/run,
//! ns/instruction, the speedup of each step, and the macro-op fusion and
//! welding hit counts).

use splitc::experiments::{codesize, hetero, kpn, regalloc, splitflow, table1};
use splitc::serve::{
    default_chaos_plan, run_chaos, run_load, run_soak, run_store_bench, Histogram, LoadConfig,
    LoadReport, ServerStats, StoreBenchReport, EMPTY_QUANTILE,
};
use splitc::splitc_jit::JitOptions;
use splitc::splitc_opt::{optimize_module, OptOptions};
use splitc::splitc_runtime::Platform;
use splitc::splitc_targets::TargetDesc;
use splitc::splitc_targets::TimingKind;
use splitc::splitc_workloads::{module_for, table1_kernels};
use splitc::sweep::{sweep_engine, SweepConfig, SweepResult};
use splitc::{checksum, prepare, ExecutionEngine, FramePool, Workspace};
use splitc_bench::dispatch;
use std::process::ExitCode;
use std::time::Instant;

fn print_table1(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    // One sweep over the whole preset catalogue — the RISC-V and GPU
    // families included — rendered twice: first the paper's three columns
    // (a pure subset of the measured cells, no re-compilation or re-run),
    // then the full table showing how the same portable module lands on
    // machines the paper never saw.
    let full = table1::run_with(n, &TargetDesc::presets(), jobs)?;
    let paper: Vec<String> = TargetDesc::table1_targets()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let paper_view = table1::Table1 {
        n: full.n,
        targets: paper.clone(),
        rows: full
            .rows
            .iter()
            .map(|r| table1::Table1Row {
                kernel: r.kernel.clone(),
                cells: r
                    .cells
                    .iter()
                    .filter(|c| paper.contains(&c.target))
                    .cloned()
                    .collect(),
            })
            .collect(),
        cache: full.cache,
        online_work: full.online_work,
        jobs: full.jobs,
    };
    println!("{}", paper_view.render());
    println!("Full target catalogue (same sweep, same deployment):");
    println!("{}", full.render());
    Ok(())
}

fn print_splitflow(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", splitflow::run_with(n, &[], jobs)?.render());
    Ok(())
}

fn print_regalloc(n: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", regalloc::run(n)?.render());
    Ok(())
}

fn print_hetero(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    let sizes = [n / 64, n / 16, n / 4, n, n * 4, n * 16];
    println!("{}", hetero::run_with("saxpy_f32", &sizes, jobs)?.render());
    Ok(())
}

fn print_codesize() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", codesize::run()?.render());
    Ok(())
}

fn print_kpn(n: usize) -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::cell_blade(3);
    println!("{}", kpn::run(&platform, n, 32)?.render());
    let phone = Platform::phone();
    println!("{}", kpn::run(&phone, n, 32)?.render());
    Ok(())
}

/// Repeats per sweep cell in the `--json` perf trajectory.
const JSON_SWEEP_REPEATS: usize = 3;

/// One timed sweep for the perf trajectory: deploy a fresh engine (cold
/// compiles are part of the measured cost, as in `benches/sweep.rs`) and
/// sweep the table1 kernels over the *full preset catalogue* with `jobs`
/// workers, so the trajectory accumulates rows for every backend family
/// (the RISC-V and GPU targets included).
///
/// Not `sweep_kernels`: that helper would put the *offline* step (parse,
/// lower, optimize) inside the timed region, and the trajectory — like
/// `benches/sweep.rs` — measures only the online deploy-and-run cost.
fn timed_sweep(n: usize, jobs: usize) -> Result<(SweepResult, f64), Box<dyn std::error::Error>> {
    let kernels = table1_kernels();
    let targets = TargetDesc::presets();
    let mut module = module_for(&kernels, "bench-sweep")?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    let cfg = SweepConfig::new(n)
        .with_repeats(JSON_SWEEP_REPEATS)
        .with_jobs(jobs);
    let start = Instant::now();
    let result = sweep_engine(&engine, &kernels, &targets, &cfg)?;
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    Ok((result, elapsed_ns))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one sweep as a JSON object: headline ns/iter, cache counters, and
/// the deterministic per-(kernel, target) cycles of the first repeat.
fn sweep_to_json(jobs: usize, result: &SweepResult, elapsed_ns: f64) -> String {
    let cells = result.cells.len().max(1);
    let ns_per_iter = elapsed_ns / cells as f64;
    let mut detail = String::new();
    for (i, cell) in result.cells.iter().filter(|c| c.repeat == 0).enumerate() {
        if i > 0 {
            detail.push_str(",\n");
        }
        detail.push_str(&format!(
            "        {{\"kernel\": \"{}\", \"target\": \"{}\", \"cycles\": {}, \"scaled_cycles\": {:.1}, \"checksum\": \"{:016x}\"}}",
            json_escape(&cell.kernel),
            json_escape(&cell.target),
            cell.cycles,
            cell.scaled_cycles,
            cell.checksum,
        ));
    }
    format!(
        "    {{\n      \"jobs\": {jobs},\n      \"cells\": {},\n      \"elapsed_ns\": {:.0},\n      \"ns_per_iter\": {:.1},\n      \"total_cycles\": {},\n      \"cache\": {{\"compiles\": {}, \"hits\": {}, \"evictions\": {}}},\n      \"online_work\": {},\n      \"cells_detail\": [\n{}\n      ]\n    }}",
        result.cells.len(),
        elapsed_ns,
        ns_per_iter,
        result.total_cycles(),
        result.cache.compiles,
        result.cache.hits,
        result.cache.evictions,
        result.online_work,
        detail,
    )
}

/// Per-(kernel, target) CPI rows comparing the flat cost tier against the
/// in-order pipeline tier: one shared deployment (the engine compiles one
/// variant per tier — the timing kind feeds the target fingerprint), the same
/// seeded inputs on both sides, and the checksums asserted bit-identical
/// before a row is emitted, so the rows can only ever differ in timing.
fn timing_to_json(n: usize) -> Result<String, Box<dyn std::error::Error>> {
    let kernels = table1_kernels();
    let mut module = module_for(&kernels, "bench-timing")?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    let options = JitOptions::split();
    let mut pool = FramePool::new();
    let mut ws = Workspace::sized_for(n);
    let mut rows = Vec::new();
    for kernel in &kernels {
        for target in TargetDesc::presets() {
            let pipe_target = target.clone().with_timing(TimingKind::InOrder);
            ws.reset();
            let inputs = prepare(kernel.name, n, 0, &mut ws);
            let flat = engine.run_pooled(
                &target,
                &options,
                kernel.name,
                &inputs.args,
                ws.bytes_mut(),
                &mut pool,
            )?;
            let flat_sum = checksum(flat.result, &inputs, &ws);
            ws.reset();
            let inputs = prepare(kernel.name, n, 0, &mut ws);
            let pipe = engine.run_pooled(
                &pipe_target,
                &options,
                kernel.name,
                &inputs.args,
                ws.bytes_mut(),
                &mut pool,
            )?;
            let pipe_sum = checksum(pipe.result, &inputs, &ws);
            assert_eq!(
                flat_sum, pipe_sum,
                "{} on {}: timing tiers must be architecturally bit-identical",
                kernel.name, target.name
            );
            let inst = flat.stats.instructions.max(1) as f64;
            rows.push(format!(
                "    {{\"kernel\": \"{}\", \"target\": \"{}\", \"instructions\": {}, \"checksum\": \"{:016x}\", \"flat\": {{\"cycles\": {}, \"cpi\": {:.3}}}, \"pipelined\": {{\"cycles\": {}, \"cpi\": {:.3}, \"stalls\": {}, \"mispredicts\": {}, \"predicted\": {}}}}}",
                json_escape(kernel.name),
                json_escape(&target.name),
                flat.stats.instructions,
                flat_sum,
                flat.stats.cycles,
                flat.stats.cycles as f64 / inst,
                pipe.stats.cycles,
                pipe.stats.cycles as f64 / inst,
                pipe.stats.stalls,
                pipe.stats.mispredicts,
                pipe.stats.predicted,
            ));
        }
    }
    Ok(rows.join(",\n"))
}

/// Requests per serving row in the `--json` perf trajectory: one request per
/// (kernel, target) pair per repeat, matching the sweep rows' coverage.
const JSON_SERVE_REPEATS: usize = 3;

/// Requests in the soak serving row: large enough that the latency
/// quantiles (p999 included) rest on a statistically meaningful sample and
/// the steady-state batching behaviour shows up, small enough to keep the
/// trajectory regeneration under a few seconds.
const JSON_SOAK_REQUESTS: usize = 100_000;

/// Requests in the chaos serving row: enough traffic to drive the stock
/// fault plan's breaker through its full open → half-open → closed
/// lifecycle with margin, while keeping regeneration fast.
const JSON_CHAOS_REQUESTS: usize = 20_000;

/// One quantile as a JSON value: the nanosecond count, or `null` when the
/// distribution is empty ([`EMPTY_QUANTILE`] must never leak into the JSON
/// as a u64 — downstream tooling would read it as a 585-year latency).
fn quantile_to_json(q: u64) -> String {
    if q == EMPTY_QUANTILE {
        "null".to_owned()
    } else {
        q.to_string()
    }
}

/// One latency histogram as a JSON object: count, mean and the SLO
/// quantiles, all in nanoseconds (quantiles are `null` when empty).
fn histogram_to_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"mean_ns\": {:.0}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
        h.count(),
        h.mean(),
        quantile_to_json(h.p50()),
        quantile_to_json(h.p99()),
        quantile_to_json(h.p999()),
        h.max(),
    )
}

/// Render one serving run as a JSON object: requests/s, the server's queue
/// and accounting counters, the queue-wait/execute latency quantiles, the
/// batch-size distribution, the fault-tolerance counters (deadlines,
/// retries, breaker lifecycle, injected faults) and the aggregated
/// engine-cache counters.
fn serving_to_json(
    mode: &str,
    workers: usize,
    requests: usize,
    elapsed_ns: u128,
    requests_per_sec: f64,
    stats: &ServerStats,
) -> String {
    let batches = &stats.batch_sizes;
    format!(
        "    {{\n      \"mode\": \"{mode}\",\n      \"workers\": {workers},\n      \"requests\": {requests},\n      \"elapsed_ns\": {:.0},\n      \"requests_per_sec\": {:.1},\n      \"queue_high_water\": {},\n      \"rejected\": {},\n      \"rejected_shutdown\": {},\n      \"queue_wait\": {},\n      \"execute\": {},\n      \"batches\": {{\"served\": {}, \"mean_size\": {:.3}, \"max_size\": {}}},\n      \"faults\": {{\"expired\": {}, \"cancelled\": {}, \"retried\": {}, \"degraded\": {}, \"failed_fast\": {}, \"injected\": {}, \"breaker_opened\": {}, \"breaker_half_opened\": {}, \"breaker_closed\": {}}},\n      \"retry_attempts\": {},\n      \"engines\": {},\n      \"cache\": {{\"compiles\": {}, \"hits\": {}, \"evictions\": {}, \"disk_hits\": {}, \"disk_misses\": {}, \"disk_rejects\": {}}},\n      \"online_work\": {}\n    }}",
        elapsed_ns as f64,
        requests_per_sec,
        stats.queue_high_water,
        stats.rejected,
        stats.rejected_shutdown,
        histogram_to_json(&stats.queue_wait),
        histogram_to_json(&stats.execute),
        batches.count(),
        batches.mean(),
        batches.max(),
        stats.expired,
        stats.cancelled,
        stats.retried,
        stats.degraded,
        stats.failed_fast,
        stats.faults_injected,
        stats.breaker_opened,
        stats.breaker_half_opened,
        stats.breaker_closed,
        histogram_to_json(&stats.retry_attempts),
        stats.engines,
        stats.cache.compiles,
        stats.cache.hits,
        stats.cache.evictions,
        stats.cache.disk_hits,
        stats.cache.disk_misses,
        stats.cache.disk_rejects,
        stats.online_work,
    )
}

/// Render the cold-vs-warm artifact-store benchmark as a JSON object: one
/// pass object per temperature (time-to-first-response, total wall clock,
/// throughput, compile and disk counters) plus the entry count and the
/// headline TTFR speedup a restart gains from the persistent store.
fn store_to_json(report: &StoreBenchReport) -> String {
    let pass = |r: &LoadReport| {
        format!(
            "{{\"requests\": {}, \"ttfr_ns\": {}, \"elapsed_ns\": {}, \"requests_per_sec\": {:.1}, \"compiles\": {}, \"disk_hits\": {}, \"disk_misses\": {}, \"disk_rejects\": {}}}",
            r.requests,
            r.ttfr_ns,
            r.elapsed_ns,
            r.requests_per_sec,
            r.stats.cache.compiles,
            r.stats.cache.disk_hits,
            r.stats.cache.disk_misses,
            r.stats.cache.disk_rejects,
        )
    };
    format!(
        "    {{\n      \"entries\": {},\n      \"cold\": {},\n      \"warm\": {},\n      \"ttfr_speedup\": {:.3}\n    }}",
        report.entries,
        pass(&report.cold),
        pass(&report.warm),
        report.ttfr_speedup(),
    )
}

/// Timed runs per side of the `dispatch` row.
const JSON_DISPATCH_RUNS: u32 = 200;

/// Render the three-way dispatch comparison as a JSON object: ns/run and
/// ns/instruction per execution path, the two step speedups, and the
/// prepared program's fusion/welding hit counts.
fn dispatch_to_json(m: &dispatch::DispatchMeasurement) -> String {
    let per_inst = |ns: f64| ns / m.instructions as f64;
    format!(
        "  {{\n    \"kernel\": \"tight\",\n    \"n\": {},\n    \"runs\": {JSON_DISPATCH_RUNS},\n    \"instructions_per_run\": {},\n    \"legacy_ns_per_run\": {:.0},\n    \"metered_ns_per_run\": {:.0},\n    \"threaded_ns_per_run\": {:.0},\n    \"legacy_ns_per_inst\": {:.3},\n    \"metered_ns_per_inst\": {:.3},\n    \"threaded_ns_per_inst\": {:.3},\n    \"prepared_speedup\": {:.3},\n    \"dispatch_speedup\": {:.3},\n    \"fusion\": {{\"cmp_branch\": {}, \"load_op\": {}, \"indvar\": {}, \"pair\": {}}}\n  }}",
        dispatch::N,
        m.instructions,
        m.legacy_ns,
        m.metered_ns,
        m.threaded_ns,
        per_inst(m.legacy_ns),
        per_inst(m.metered_ns),
        per_inst(m.threaded_ns),
        m.prepared_speedup(),
        m.dispatch_speedup(),
        m.fusion.cmp_branch,
        m.fusion.load_op,
        m.fusion.indvar,
        m.fusion.pair,
    )
}

/// Run the perf-trajectory sweeps (sequential and 4-way parallel), the
/// serving loads and the dispatch comparison, and write the machine-readable
/// `BENCH_sweep.json` shape to `path`.
fn write_sweep_json(path: &str, n: usize) -> Result<(), Box<dyn std::error::Error>> {
    let mut sweeps = Vec::new();
    for jobs in [1usize, 4] {
        let (result, elapsed_ns) = timed_sweep(n, jobs)?;
        sweeps.push(sweep_to_json(jobs, &result, elapsed_ns));
    }
    // The serving trajectory: the same kernels and targets as the sweep
    // rows, but as mixed-module request traffic through the serving tier.
    let kernels = table1_kernels();
    let requests = kernels.len() * TargetDesc::presets().len() * JSON_SERVE_REPEATS;
    let mut serving = Vec::new();
    for workers in [1usize, 4] {
        let report: LoadReport =
            run_load(&LoadConfig::catalogue(n, requests).with_workers(workers))?;
        serving.push(serving_to_json(
            "load",
            report.workers,
            report.requests,
            report.elapsed_ns,
            report.requests_per_sec,
            &report.stats,
        ));
    }
    // The soak row: the same traffic shape held at 10⁵ requests through a
    // bounded in-flight window, each response verified against a reference
    // checksum as it drains — the SLO quantiles of the steady state.
    let soak = run_soak(&LoadConfig::catalogue(n, JSON_SOAK_REQUESTS).with_workers(4))?;
    serving.push(serving_to_json(
        "soak",
        soak.workers,
        soak.requests,
        soak.elapsed_ns,
        soak.requests_per_sec,
        &soak.stats,
    ));
    // The chaos row: the soak's verified traffic under the stock seeded
    // fault plan (injected panics/transients/latency, deadlines on a slice
    // of the requests, one breaker driven open and back closed). The run
    // itself asserts exactly-once answering and exact books; the row
    // records what graceful degradation costs in throughput and tail
    // latency.
    let chaos_cfg = LoadConfig::catalogue(n, JSON_CHAOS_REQUESTS).with_workers(4);
    let chaos_plan = default_chaos_plan(
        chaos_cfg.kernels.len() * chaos_cfg.targets.len(),
        chaos_cfg.seed,
    );
    let chaos = run_chaos(&chaos_cfg, &chaos_plan)?;
    serving.push(serving_to_json(
        "chaos",
        chaos.workers,
        chaos.requests,
        chaos.elapsed_ns,
        chaos.requests_per_sec,
        &chaos.stats,
    ));
    // The store row: the same catalogue traffic against a persistent
    // artifact store, cold then warm. The driver itself asserts the
    // split-compilation contract (warm pass: zero compiles, one disk hit
    // per key, bit-identical checksums); the row records what that is
    // worth in time-to-first-response.
    let store_dir = std::env::temp_dir().join(format!("splitc-bench-store-{}", std::process::id()));
    let store_report = run_store_bench(
        &LoadConfig::catalogue(n, requests).with_workers(4),
        &store_dir,
    )?;
    let store_row = store_to_json(&store_report);
    std::fs::remove_dir_all(&store_dir).ok();
    // The dispatch trajectory: the tight-loop kernel three ways, the
    // headline of `benches/simulator.rs`.
    let dispatch_row = dispatch_to_json(&dispatch::measure(JSON_DISPATCH_RUNS));
    // The timing trajectory: flat vs in-order pipeline CPI per cell.
    let timing_rows = timing_to_json(n)?;
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"schema\": \"splitc-bench-sweep/8\",\n  \"n\": {n},\n  \"repeats\": {JSON_SWEEP_REPEATS},\n  \"host_cores\": {host_cores},\n  \"sweeps\": [\n{}\n  ],\n  \"timing\": [\n{}\n  ],\n  \"serving\": [\n{}\n  ],\n  \"store\": [\n{}\n  ],\n  \"dispatch\": [\n{}\n  ]\n}}\n",
        sweeps.join(",\n"),
        timing_rows,
        serving.join(",\n"),
        store_row,
        dispatch_row,
    );
    std::fs::write(path, json)?;
    println!("wrote perf trajectory to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path: Option<String> = match args.iter().position(|a| a == "--json") {
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            Some(value)
        }
        Some(_) => {
            eprintln!("--json requires a path");
            return ExitCode::from(2);
        }
        None => None,
    };
    let jobs: usize = match args.iter().position(|a| a == "--jobs") {
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            match value.parse() {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("bad --jobs value `{value}`: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Some(_) => {
            eprintln!("--jobs requires a value");
            return ExitCode::from(2);
        }
        None => 1,
    };
    let what = args.first().map(String::as_str).unwrap_or("all");
    let n: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(splitc::splitc_workloads::DEFAULT_N);

    let result = match what {
        "table1" => print_table1(n, jobs),
        "splitflow" => print_splitflow(n, jobs),
        "regalloc" => print_regalloc(n),
        "hetero" => print_hetero(n, jobs),
        "codesize" => print_codesize(),
        "kpn" => print_kpn(n),
        "all" => print_table1(n, jobs)
            .and_then(|()| print_splitflow(n, jobs))
            .and_then(|()| print_regalloc(n))
            .and_then(|()| print_hetero(n, jobs))
            .and_then(|()| print_codesize())
            .and_then(|()| print_kpn(n)),
        other => {
            eprintln!(
                "unknown report `{other}`; expected one of: all, table1, splitflow, regalloc, hetero, codesize, kpn"
            );
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| match &json_path {
        Some(path) => write_sweep_json(path, n),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report failed: {e}");
            ExitCode::FAILURE
        }
    }
}
