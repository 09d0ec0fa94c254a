//! Serving loads over the runtime's request queue.
//!
//! [`splitc_runtime::serve`] is the generic front-end (bounded queue, worker
//! pool, fingerprint-deduplicated engines); this module is the batteries: it
//! knows how to turn the workload catalogue into **mixed-module traffic** —
//! each kernel compiled offline into its own module, so the server juggles
//! several deployments at once — and to drive it through a [`Server`] with
//! one driver, [`run_load`]: one seeded request template per kernel × target,
//! clones of them streamed through a bounded in-flight window (so 10⁵+
//! requests never exist at once), every response verified against its
//! template's single-threaded reference as it drains, the server's books
//! asserted on the way out, and the outcome summarized in one
//! [`LoadReport`].
//!
//! Determinism: request `r` is template `r % templates` and a template's
//! kernel, target and input bytes depend only on its index and
//! [`LoadConfig::seed`], never on worker scheduling, so a `workers = 8` load
//! is bit-identical ([`LoadReport::digest`]) to a `workers = 1` load — the
//! property this module's tests and the serving test suite pin down.
//!
//! The driver checks contracts; it reads no clock for a performance number.
//! Throughput, round-trip time and cold-vs-warm bring-up are measured by the
//! `e2e/` benchmark package (`serve_rps`, `serve_rtt_us`, `online_cold_ms`
//! vs `online_warm_ms`). The CLI's `splitc serve-bench` is [`run_load`];
//! `--chaos` is the same call with [`chaos_hook`] in `cfg.server`,
//! `--store` is [`run_store_bench`].

pub use splitc_runtime::serve::{
    FaultHook, Request, Response, ResponseHandle, ResponseLost, ServeModule, Server, ServerConfig,
    ServerStats, SubmitError, PANIC_MESSAGE_CAP,
};
use splitc_runtime::{EngineError, Histogram, EMPTY_QUANTILE};

use crate::harness::{checksum_bytes, prepare, PreparedKernel};
use crate::report::fmt_cache_line;
use crate::session::{run_on_target, PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::ArtifactStore;
use splitc_targets::{Fnv1a, TargetDesc};
use splitc_workloads::{module_for, table1_kernels, Kernel};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of one serving load: the traffic mix, its volume and the server it
/// runs against.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Kernels in the mix; each is compiled into **its own module**, so the
    /// server dedups and shares one engine per kernel.
    pub kernels: Vec<Kernel>,
    /// Targets the templates cover (one template per kernel × target).
    pub targets: Vec<TargetDesc>,
    /// Total requests to submit.
    pub requests: usize,
    /// Elements processed per request.
    pub n: usize,
    /// Online-compilation configuration shared by every request.
    pub options: JitOptions,
    /// The run's one seed: template `t` prepares its inputs from
    /// `seed + t`, and the CLI derives its stock fault hook
    /// ([`chaos_hook`]) from it, so two runs with one seed are replays of
    /// each other.
    pub seed: u64,
    /// The server under load, configured exactly as any other server is.
    /// `server.queue_capacity` also sizes the generator's in-flight window
    /// (twice the bound). A `server.faults` hook makes the run a chaos soak
    /// — panics and deadline misses are then tallied instead of returned,
    /// and a slice of the traffic carries tight deadlines.
    pub server: ServerConfig,
}

impl LoadConfig {
    /// A catalogue load: the Table 1 kernels over the full preset target
    /// catalogue, `requests` requests of `n` elements each, against a
    /// one-worker server with a 64-request queue.
    pub fn catalogue(n: usize, requests: usize) -> Self {
        LoadConfig {
            kernels: table1_kernels(),
            targets: TargetDesc::presets(),
            requests,
            n,
            options: JitOptions::split(),
            seed: 0xdac,
            server: ServerConfig {
                workers: 1,
                queue_capacity: 64,
                ..ServerConfig::default()
            },
        }
    }
}

/// Format a nanosecond latency as microseconds with one decimal.
/// [`EMPTY_QUANTILE`] — the quantile of a distribution with no samples —
/// renders as `n/a`, never as a misleading 0.0µs.
fn fmt_us(ns: u64) -> String {
    if ns == EMPTY_QUANTILE {
        return "n/a".to_owned();
    }
    format!("{:.1}µs", ns as f64 / 1e3)
}

/// Render the p50/p99/p999 line of a latency histogram.
fn fmt_latency(label: &str, h: &Histogram) -> String {
    format!(
        "  {label:<11} p50 {} · p99 {} · p999 {} · max {}\n",
        fmt_us(h.p50()),
        fmt_us(h.p99()),
        fmt_us(h.p999()),
        fmt_us(h.max()),
    )
}

/// A completed serving load: what was sent, how every response came back,
/// and the server's final books.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests submitted — and answered exactly once each.
    pub requests: usize,
    /// Distinct traffic templates (kernel × target pairs) in the mix.
    pub templates: usize,
    /// Worker threads the server ran (0 resolved to the host's cores).
    pub workers: usize,
    /// In-flight window the generator held open.
    pub window: usize,
    /// Responses that matched the single-threaded reference bit-for-bit.
    pub ok: usize,
    /// Requests shed at dequeue because their deadline had passed.
    pub expired: usize,
    /// Requests cancelled cooperatively mid-execution by their deadline.
    pub cancelled: usize,
    /// Requests answered [`EngineError::Panicked`].
    pub panicked: usize,
    /// Order-sensitive digest of the verified responses' checksums, in
    /// submission order — the bit-identity handle loads of different worker
    /// counts or store states are compared with.
    pub digest: u64,
    /// Final server counters (taken after the graceful shutdown drain).
    pub stats: ServerStats,
}

impl LoadReport {
    /// Render the report the way `splitc serve-bench` prints it.
    pub fn render(&self) -> String {
        let stats = &self.stats;
        let mut out = format!(
            "serve: {} requests ({} templates) over {} workers (window {}) · digest {:016x}\n",
            self.requests, self.templates, self.workers, self.window, self.digest,
        );
        out.push_str(&format!(
            "outcomes: ok {} · expired {} · cancelled {} · panicked {}\n",
            self.ok, self.expired, self.cancelled, self.panicked,
        ));
        out.push_str(&format!(
            "queue: high water {} · accepted {} · completed {} · rejected {}\n",
            stats.queue_high_water, stats.accepted, stats.completed, stats.rejected,
        ));
        out.push_str(&format!("engines: {} shared deployments\n", stats.engines));
        out.push_str("latency:\n");
        out.push_str(&fmt_latency("queue-wait", &stats.queue_wait));
        out.push_str(&fmt_latency("execute", &stats.execute));
        out.push_str(&format!(
            "batches: {} served · mean size {:.2} · max {}\n",
            stats.batch_sizes.count(),
            stats.batch_sizes.mean(),
            stats.batch_sizes.max(),
        ));
        for (target, count) in &stats.per_target {
            out.push_str(&format!("  {target:<12} {count} requests\n"));
        }
        out.push_str(&fmt_cache_line(&stats.cache));
        out.push('\n');
        out
    }
}

/// One traffic template: a fully prepared request prototype plus the
/// checksums fresh single-threaded reference runs produce for it. The load
/// clones prototypes instead of pre-building every request, so its memory
/// footprint is `templates + in-flight window`, not `total requests`.
struct Template {
    /// The prototype; each clone gets its own deadline and tag.
    request: Request,
    /// Prepared kernel metadata (output region) — kept so response
    /// verification checksums without re-generating inputs.
    prepared: PreparedKernel,
    /// Reference checksum on the template's target.
    expect: u64,
}

/// Checksum of a fresh single-threaded run of `request` — what its
/// responses are verified against.
fn reference_checksum(request: &Request, prepared: &PreparedKernel) -> Result<u64, PipelineError> {
    let mut mem = request.mem.clone();
    let run = run_on_target(
        request.module.module(),
        &request.target,
        &request.options,
        &request.kernel,
        &request.args,
        &mut mem,
    )?;
    Ok(checksum_bytes(run.result, prepared, &mem))
}

/// The offline step and the references: each kernel of the mix compiled and
/// optimized into **its own module** and deployed, then one template per
/// kernel × target (kernel-major), inputs seeded by the template's index.
/// Panics on an empty kernel or target list — no traffic can be generated
/// from one.
fn build_templates(cfg: &LoadConfig) -> Result<Vec<Template>, PipelineError> {
    assert!(!cfg.kernels.is_empty(), "a load needs at least one kernel");
    assert!(!cfg.targets.is_empty(), "a load needs at least one target");
    let mut templates = Vec::with_capacity(cfg.kernels.len() * cfg.targets.len());
    for kernel in &cfg.kernels {
        let mut module = module_for(std::slice::from_ref(kernel), kernel.name)
            .map_err(PipelineError::Frontend)?;
        optimize_module(&mut module, &OptOptions::full());
        let module = ServeModule::new(module);
        for target in &cfg.targets {
            let seed = cfg.seed.wrapping_add(templates.len() as u64);
            let mut ws = Workspace::sized_for(cfg.n);
            let prepared = prepare(kernel.name, cfg.n, seed, &mut ws);
            let request = Request {
                module: module.clone(),
                kernel: kernel.name.to_owned(),
                target: target.clone(),
                options: cfg.options,
                args: prepared.args.clone(),
                mem: ws.into_bytes(),
                deadline: None,
                tag: 0,
            };
            let expect = reference_checksum(&request, &prepared)?;
            templates.push(Template {
                request,
                prepared,
                expect,
            });
        }
    }
    Ok(templates)
}

/// Run one serving load: sustained mixed-module traffic, streamed through a
/// bounded in-flight window, every response verified as it drains and the
/// server's books asserted at the end.
///
/// Request `r` clones template `r % templates` (tag `r`) and is submitted
/// with the blocking [`Server::submit`]; backpressure comes from both ends:
/// the window (`2 × queue_capacity` outstanding responses) caps the
/// generator, the bounded queue caps it. Responses drain in submission
/// order. A successful one must checksum to its template's single-threaded
/// [`run_on_target`] reference and is folded into [`LoadReport::digest`].
///
/// With a fault hook in `cfg.server.faults` the run is a chaos soak:
/// every 31st request carries a 3 ms deadline (so queue sheds and, under
/// latency faults, mid-flight cancellation are exercised; which requests
/// expire depends on real scheduling, the books hold for any mix), and
/// responses that end in a panic or a deadline are tallied by outcome.
/// Without one, any failed response is returned as the error it is.
///
/// On the way out the books are asserted *exactly*:
///
/// * every request was answered exactly once (the tallies sum to the
///   request count);
/// * `accepted == completed + expired`;
/// * the deadline answers equal the server's `expired + cancelled` (the
///   report takes the split from those two counters);
/// * `batch_sizes.sum() == completed`.
///
/// # Errors
///
/// Returns the first [`PipelineError`] from offline compilation or the
/// reference runs, the first *semantic* error (trap, unknown kernel, JIT
/// rejection) any served request produced, and — without a fault hook —
/// the first failure of any kind.
///
/// # Panics
///
/// Panics if a response's checksum differs from its reference (a
/// bit-identity violation — a serving-layer bug, not a load problem), if
/// any of the books above fails to balance, or if a worker dies before
/// responding ([`ResponseLost`]).
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, PipelineError> {
    let templates = build_templates(cfg)?;
    let server = Server::start(cfg.server.clone());
    let chaos = cfg.server.faults.is_some();
    let window = (cfg.server.queue_capacity * 2).clamp(1, cfg.requests.max(1));
    let mut report = LoadReport {
        requests: cfg.requests,
        templates: templates.len(),
        workers: server.workers(),
        window,
        ok: 0,
        expired: 0,
        cancelled: 0,
        panicked: 0,
        digest: 0,
        // Replaced by the final counters once the server has drained.
        stats: server.stats(),
    };
    // Shed at dequeue or cancelled mid-run: a response cannot tell which;
    // the server's `expired` and `cancelled` counters can.
    let mut missed_deadline = 0usize;
    let mut digest = Fnv1a::new();
    let mut drain = |(t, handle): (usize, ResponseHandle)| {
        let template = &templates[t];
        let response = handle.wait().expect("serving worker died mid-load");
        let tally = match response.outcome {
            Ok(run) => {
                let sum = checksum_bytes(run.result, &template.prepared, &response.mem);
                assert_eq!(
                    sum,
                    template.expect,
                    "response for template {t} ({} for {}) diverged from its single-threaded reference",
                    template.prepared.name,
                    template.request.target.name,
                );
                digest.write(&sum.to_le_bytes());
                &mut report.ok
            }
            Err(err) if !chaos => return Err(err),
            Err(EngineError::DeadlineExceeded) => &mut missed_deadline,
            Err(EngineError::Panicked(_)) => &mut report.panicked,
            // A hook injects panics and latency only: a semantic error
            // under chaos is a serving bug.
            Err(err) => return Err(err),
        };
        *tally += 1;
        Ok(())
    };
    let mut in_flight = VecDeque::with_capacity(window);
    for r in 0..cfg.requests {
        let t = r % templates.len();
        let request = Request {
            deadline: (chaos && r % 31 == 17).then(|| Instant::now() + Duration::from_millis(3)),
            tag: r as u64,
            ..templates[t].request.clone()
        };
        // Only a server that is shutting down refuses a blocking submit,
        // and this one is shut down last.
        let handle = server
            .submit(request)
            .unwrap_or_else(|e| panic!("the load generator's server refused a request: {e}"));
        in_flight.push_back((t, handle));
        if in_flight.len() >= window {
            drain(in_flight.pop_front().expect("window is non-empty"))?;
        }
    }
    in_flight.into_iter().try_for_each(&mut drain)?;
    report.digest = digest.finish();
    report.stats = server.shutdown();

    // Exactly-once: the per-outcome tallies partition the request count.
    let stats = &report.stats;
    assert_eq!(
        report.ok + missed_deadline + report.panicked,
        cfg.requests,
        "every request answered exactly once"
    );
    // Exact books, cross-checked response-side vs. server-side.
    assert_eq!(stats.accepted, cfg.requests as u64);
    assert_eq!(stats.completed + stats.expired, stats.accepted);
    assert_eq!(stats.expired + stats.cancelled, missed_deadline as u64);
    assert_eq!(stats.batch_sizes.sum(), stats.completed);
    report.expired = stats.expired as usize;
    report.cancelled = stats.cancelled as usize;
    Ok(report)
}

/// A completed cold-vs-warm artifact-store check ([`run_store_bench`]): the
/// same load run twice against one store directory — first with the store
/// emptied (every engine compiles and publishes), then again in a fresh
/// server sharing the now-populated store (every engine loads instead of
/// compiling). What the store buys in time is `online_cold_ms` vs
/// `online_warm_ms` on the `e2e/` benchmark's `deploy` workload.
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    /// Store directory both passes shared.
    pub dir: PathBuf,
    /// Entries on disk after the warm pass — one per distinct
    /// `(module, target, options)` key the load exercised.
    pub entries: usize,
    /// The cold pass: empty store, every key compiled and published.
    pub cold: LoadReport,
    /// The warm pass: a fresh server, zero compilations, every key served
    /// from disk — the same digest as the cold pass.
    pub warm: LoadReport,
}

impl StoreBenchReport {
    /// Render the report the way `splitc serve-bench --store` prints it.
    pub fn render(&self) -> String {
        format!(
            "store: {} ({} entries after the cold pass)\n\
             cold: {} compiles · {} disk misses · digest {:016x}\n\
             warm: {} compiles · {} disk hits · digest {:016x}\n",
            self.dir.display(),
            self.entries,
            self.cold.stats.cache.compiles,
            self.cold.stats.cache.disk_misses,
            self.cold.digest,
            self.warm.stats.cache.compiles,
            self.warm.stats.cache.disk_hits,
            self.warm.digest,
        )
    }
}

/// Run the cold-vs-warm artifact-store check: clear the store at `dir`,
/// run `cfg`'s load against it cold (compiling and publishing every key),
/// then run the identical load again in a fresh server sharing the now-warm
/// store, and assert the split-compilation contract on the way out:
/// the warm pass compiles **nothing** (`compiles == 0`, one disk hit per
/// key the cold pass compiled) and its responses are bit-identical,
/// digest for digest, to the cold pass's.
///
/// # Errors
///
/// Returns the first [`PipelineError`] either pass produces.
///
/// # Panics
///
/// Panics if the store directory cannot be created, or if the warm pass
/// violates the contract above (a store bug — staleness must fall back to
/// recompilation, never to a wrong or slow-path answer).
pub fn run_store_bench(cfg: &LoadConfig, dir: &Path) -> Result<StoreBenchReport, PipelineError> {
    let store = Arc::new(
        ArtifactStore::open(dir)
            .unwrap_or_else(|e| panic!("cannot open artifact store at {}: {e}", dir.display())),
    );
    store.clear();
    let mut cfg = cfg.clone();
    cfg.server.store = Some(Arc::clone(&store));
    let cold = run_load(&cfg)?;
    let warm = run_load(&cfg)?;
    assert_eq!(
        cold.digest, warm.digest,
        "store-loaded responses must be bit-identical to freshly compiled ones"
    );
    assert_eq!(
        warm.stats.cache.compiles, 0,
        "a warm store must satisfy every key without compiling"
    );
    assert_eq!(
        warm.stats.cache.disk_hits, cold.stats.cache.compiles,
        "the warm pass must hit the store once per key the cold pass compiled"
    );
    Ok(StoreBenchReport {
        dir: dir.to_path_buf(),
        entries: store.len(),
        cold,
        warm,
    })
}

/// What the stock chaos policy injects into one request.
enum ChaosFault {
    Panic,
    /// A [`CHAOS_LATENCY`] sleep: results stay bit-identical, only
    /// deadlines and queue waits feel it.
    Latency,
}

/// How long a [`ChaosFault::Latency`] holds its request.
const CHAOS_LATENCY: Duration = Duration::from_micros(200);

/// The stock chaos policy's decision for the request tagged `tag`: a panic
/// at p = 0.01, checked first, then a latency fault at p = 0.005. Check `i`
/// draws 53 uniform bits from `splitmix64(seed ^ i·0x9E37_79B9_7F4A_7C15 ^
/// tag)`, so every decision is a pure function of `(seed, tag)`.
fn chaos_fault(seed: u64, tag: u64) -> Option<ChaosFault> {
    let fires = |check: u64, p: f64| {
        let mut x = seed ^ check.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag;
        // SplitMix64's one-shot mixing step: full avalanche, so consecutive
        // tags draw uncorrelated fractions.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (((x ^ (x >> 31)) >> 11) as f64 / (1u64 << 53) as f64) < p
    };
    if fires(0, 0.01) {
        Some(ChaosFault::Panic)
    } else if fires(1, 0.005) {
        Some(ChaosFault::Latency)
    } else {
        None
    }
}

/// The CLI's stock chaos hook: sporadic panics, each answered
/// [`EngineError::Panicked`] by a worker that keeps serving, and latency
/// spikes. Every decision derives from `seed` and the request's tag, so a
/// chaos run is a replay of any other run with the same seed and request
/// count.
pub fn chaos_hook(seed: u64) -> FaultHook {
    FaultHook(Arc::new(move |tag| match chaos_fault(seed, tag) {
        Some(ChaosFault::Panic) => panic!("injected panic at request {tag}"),
        Some(ChaosFault::Latency) => std::thread::sleep(CHAOS_LATENCY),
        None => {}
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_load() -> LoadConfig {
        let mut cfg = LoadConfig::catalogue(32, 24);
        cfg.kernels.truncate(3);
        cfg.targets.truncate(3);
        cfg
    }

    #[test]
    fn loads_are_bit_identical_across_worker_counts() {
        let sequential = run_load(&small_load()).unwrap();
        let mut cfg = small_load();
        cfg.server.workers = 4;
        let parallel = run_load(&cfg).unwrap();
        assert_eq!(sequential.digest, parallel.digest);
        assert_eq!(sequential.requests, 24);
        assert_eq!(parallel.workers, 4);
        // Mixed-module traffic: one shared engine per kernel module, one
        // compile per (module, target, options) triple, zero losses.
        for report in [&sequential, &parallel] {
            assert_eq!(report.ok, 24, "a clean load serves every request clean");
            assert_eq!(report.stats.engines, 3);
            assert_eq!(report.stats.cache.compiles, 9);
            assert_eq!(report.stats.accepted, 24);
            assert_eq!(report.stats.completed, 24);
            assert_eq!(report.stats.in_flight(), 0);
        }
    }

    #[test]
    fn report_rendering_mentions_the_serving_counters() {
        let report = run_load(&small_load()).unwrap();
        let text = report.render();
        assert!(text.contains("serve: 24 requests (9 templates)"));
        assert!(text.contains("outcomes: ok 24"));
        assert!(text.contains("high water"));
        assert!(text.contains("online compilations"));
        assert!(text.contains("shared deployments"));
        assert!(text.contains("queue-wait"), "latency lines are rendered");
        assert!(text.contains("p999"), "tail quantiles are rendered");
        assert!(text.contains("batches:"), "batch distribution is rendered");
    }

    #[test]
    fn soaks_stream_verify_and_report_slo_latency() {
        let mut cfg = small_load();
        cfg.requests = 120;
        cfg.server.workers = 2;
        cfg.server.queue_capacity = 8;
        let report = run_load(&cfg).unwrap();
        assert_eq!(report.requests, 120);
        assert_eq!(report.ok, 120, "every response verified");
        assert_eq!(report.templates, 9, "one template per kernel × target");
        assert_eq!(report.window, 16, "twice the queue bound");
        assert_eq!(report.stats.accepted, 120);
        assert_eq!(report.stats.completed, 120, "lossless under streaming");
        assert_eq!(report.stats.queue_wait.count(), 120);
        assert_eq!(report.stats.execute.count(), 120);
        assert_eq!(
            report.stats.batch_sizes.sum(),
            120,
            "batch sizes account for every request"
        );
        assert!(report.render().contains("p999"));
    }

    #[test]
    fn chaos_soaks_keep_exact_books() {
        let mut cfg = small_load();
        cfg.requests = 2_000;
        cfg.server.workers = 2;
        cfg.server.queue_capacity = 16;
        cfg.seed = 0xc4a05;
        cfg.server.faults = Some(chaos_hook(cfg.seed));
        // `run_load` itself asserts exactly-once answering and the exact
        // books; the checks here pin what the stock hook promises.
        let report = run_load(&cfg).unwrap();
        assert!(report.panicked > 0, "injected panics were answered");
        assert!(
            report.ok > report.requests / 2,
            "most traffic still serves clean under chaos (got {} of {})",
            report.ok,
            report.requests
        );
        let text = report.render();
        assert!(text.contains("outcomes: ok"));
    }

    /// A clean catalogue load (`catalogue(64, 540)`, its own fixed seed
    /// 0xdac) recorded at 1 and 4 workers: digest, responses served clean,
    /// online compilations. Fault-free traffic must not tell servers with
    /// and without failure-management machinery apart.
    #[test]
    fn a_clean_catalogue_load_serves_the_recorded_digest() {
        const PINNED: [(usize, u64, usize, u64); 2] = [
            (1, 0xda80_3dce_cac2_e799, 540, 54),
            (4, 0xda80_3dce_cac2_e799, 540, 54),
        ];
        for (workers, digest, ok, compiles) in PINNED {
            let mut cfg = LoadConfig::catalogue(64, 540);
            cfg.server.workers = workers;
            let report = run_load(&cfg).unwrap();
            assert_eq!(
                (report.digest, report.ok, report.stats.cache.compiles),
                (digest, ok, compiles),
                "workers = {workers}"
            );
        }
    }

    /// The stock chaos policy folded over tags 0..100 000 under the CI seed
    /// (2718) and `LoadConfig::catalogue`'s default (0xdac): panics, latency
    /// faults, and an FNV-1a digest of the selected (tag, kind) pairs
    /// (kind 0 = panic, 1 = latency). `serve-bench --chaos --seed S` injects
    /// exactly these faults.
    #[test]
    fn the_stock_chaos_policy_makes_the_recorded_decisions() {
        const PINNED: [(u64, u64, u64, u64); 2] = [
            (2718, 1036, 438, 0xbc78_6cf6_525d_9d2e),
            (0xdac, 1035, 438, 0x2593_c67b_9837_3d44),
        ];
        for (seed, panics, latencies, digest) in PINNED {
            let (mut p, mut l, mut fold) = (0, 0, Fnv1a::new());
            for tag in 0..100_000u64 {
                let kind = match chaos_fault(seed, tag) {
                    None => continue,
                    Some(ChaosFault::Panic) => {
                        p += 1;
                        0u8
                    }
                    Some(ChaosFault::Latency) => {
                        l += 1;
                        1u8
                    }
                };
                fold.write(&tag.to_le_bytes());
                fold.write(&[kind]);
            }
            assert_eq!(
                (p, l, fold.finish()),
                (panics, latencies, digest),
                "seed {seed:#x}: digest {:#018x}",
                fold.finish()
            );
        }
    }

    #[test]
    fn empty_latency_lines_render_the_sentinel_not_zero() {
        assert_eq!(fmt_us(EMPTY_QUANTILE), "n/a");
        let line = fmt_latency("queue-wait", &Histogram::new());
        assert!(
            line.contains("p50 n/a") && line.contains("p999 n/a"),
            "empty distributions must not render as excellent 0.0µs: {line}"
        );
    }
}
