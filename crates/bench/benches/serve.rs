//! Bench — serving throughput: 1 worker vs N workers under mixed-module
//! request traffic.
//!
//! The same request stream (Table 1 kernels, each deployed as its own
//! module, rotating over the full preset target catalogue) is pushed through
//! the async serving layer twice: first with a single worker, then with a
//! pool. Responses are bit-identical whatever the worker count (asserted
//! below via per-request checksums); the only thing the pool may change is
//! requests-per-second, which this bench reports.
//!
//! The measured window covers submission through last response over a fresh
//! server, so cold online compiles — deduplicated per (module, target,
//! options) by the shared engines — are part of the serving cost, exactly as
//! they would be for a freshly deployed service. The speedup ratio is always
//! printed; set `SERVE_BENCH_ASSERT=1` on a quiet host with 4+ cores to also
//! *enforce* that N workers out-serve one (left report-only by default so a
//! loaded shared CI runner cannot flake an unrelated PR on a wall-clock
//! threshold).
//!
//! After the headline comparison, a 10⁵-request soak streams the same
//! traffic shape through a bounded in-flight window, verifying every
//! response against a single-threaded reference checksum as it drains, and
//! prints the SLO quantiles (queue-wait and execute p50/p99/p999) plus the
//! batch-size distribution of the continuous-batching workers. The soak's
//! structural invariants (zero losses, every completion counted in exactly
//! one batch) are always asserted; the wall-clock SLO floors — requests/s
//! and a queue-wait p999 ceiling — are enforced only under
//! `SERVE_BENCH_ASSERT=1` on a 4+-core host, for the same flake-resistance
//! reason as the speedup ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use splitc::serve::{run_load, run_soak, LoadConfig, LoadReport};
use splitc_bench::BENCH_N;

const PARALLEL_WORKERS: usize = 4;
const REQUESTS: usize = 162;
/// Soak length: big enough that p999 rests on ~100 tail samples and the
/// steady state dominates the cold compiles, small enough to finish in a
/// few seconds at `BENCH_N`.
const SOAK_REQUESTS: usize = 100_000;
/// Enforced soak floor: a quiet 4-core host serves ~40k req/s at
/// `BENCH_N`, so 2k leaves 20x headroom for runner noise while still
/// catching an order-of-magnitude serving regression.
const SOAK_MIN_REQ_PER_SEC: f64 = 2_000.0;
/// Enforced soak ceiling on queue-wait p999: the quiet-host number is
/// ~3 ms with a 128-request window; 250 ms flags a scheduling pathology
/// (a lost wakeup, a stranded worker) without tripping on a loaded runner.
const SOAK_MAX_P999_WAIT_NS: u64 = 250_000_000;

fn load(workers: usize) -> LoadConfig {
    LoadConfig::catalogue(BENCH_N, REQUESTS)
        .with_workers(workers)
        .with_queue_capacity(32)
}

fn run(workers: usize) -> LoadReport {
    run_load(&load(workers)).expect("serving load runs")
}

fn bench_serve(c: &mut Criterion) {
    // Headline comparison, printed once: one worker vs a pool over
    // identical (asserted) per-request results.
    let sequential = run(1);
    let parallel = run(PARALLEL_WORKERS);
    assert_eq!(
        sequential.checksums, parallel.checksums,
        "served responses must be bit-identical whatever the worker count"
    );
    for report in [&sequential, &parallel] {
        assert_eq!(report.stats.accepted, REQUESTS as u64);
        assert_eq!(report.stats.completed, REQUESTS as u64, "zero losses");
    }
    let speedup = parallel.requests_per_sec / sequential.requests_per_sec;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "\nserving throughput: 1 worker = {:.1} req/s, {PARALLEL_WORKERS} workers = {:.1} req/s  \
         ({speedup:.2}x, {cores} host cores, queue high water {} vs {})",
        sequential.requests_per_sec,
        parallel.requests_per_sec,
        sequential.stats.queue_high_water,
        parallel.stats.queue_high_water,
    );
    if std::env::var_os("SERVE_BENCH_ASSERT").is_some() && cores >= PARALLEL_WORKERS {
        assert!(
            speedup > 1.0,
            "expected {PARALLEL_WORKERS} workers to out-serve 1 on a {cores}-core host, got {speedup:.2}x"
        );
    }

    // The soak: 10⁵ requests streamed through a bounded window, each
    // response checksum-verified against a single-threaded reference run
    // inside run_soak itself. Structural accounting is asserted always.
    let soak_cfg = LoadConfig::catalogue(BENCH_N, SOAK_REQUESTS)
        .with_workers(PARALLEL_WORKERS)
        .with_queue_capacity(32);
    let soak = run_soak(&soak_cfg).expect("serving soak runs");
    println!("{}", soak.render());
    assert_eq!(soak.stats.accepted, SOAK_REQUESTS as u64);
    assert_eq!(soak.stats.completed, SOAK_REQUESTS as u64, "zero losses");
    assert_eq!(
        soak.stats.batch_sizes.sum(),
        soak.stats.completed,
        "every completion is counted in exactly one batch"
    );
    assert_eq!(soak.stats.queue_wait.count(), SOAK_REQUESTS as u64);
    assert_eq!(soak.stats.execute.count(), SOAK_REQUESTS as u64);
    if std::env::var_os("SERVE_BENCH_ASSERT").is_some() && cores >= PARALLEL_WORKERS {
        assert!(
            soak.requests_per_sec >= SOAK_MIN_REQ_PER_SEC,
            "soak throughput floor: expected >= {SOAK_MIN_REQ_PER_SEC:.0} req/s, got {:.1}",
            soak.requests_per_sec
        );
        let p999 = soak.stats.queue_wait.p999();
        assert!(
            p999 <= SOAK_MAX_P999_WAIT_NS,
            "soak queue-wait p999 ceiling: expected <= {SOAK_MAX_P999_WAIT_NS} ns, got {p999} ns"
        );
    }

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("workers_1", |b| b.iter(|| run(1).checksums.len()));
    group.bench_function("workers_4", |b| {
        b.iter(|| run(PARALLEL_WORKERS).checksums.len())
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
