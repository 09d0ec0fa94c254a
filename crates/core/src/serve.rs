//! Serving loads over the runtime's request queue.
//!
//! [`splitc_runtime::serve`] is the generic front-end (bounded queue, worker
//! pool, fingerprint-deduplicated engines); this module is the batteries: it
//! knows how to turn the workload catalogue into **mixed-module traffic** —
//! each kernel compiled offline into its own module, so the server juggles
//! several deployments at once — generate seeded per-request inputs in a
//! [`Workspace`], drive a full load through a [`Server`] and summarize the
//! outcome ([`LoadReport`]: requests/s, queue high water, aggregated cache
//! counters, per-request checksums).
//!
//! Determinism: request `r`'s kernel, target and input bytes depend only on
//! `(r, cfg.seed)`, never on worker scheduling, so a `workers = 8` load is
//! bit-identical (checksum-for-checksum) to a `workers = 1` load — the
//! property this module's tests and the serving test suite pin down.
//!
//! The CLI's `splitc serve-bench` runs through [`run_load`] and
//! `serve-bench --soak` through [`run_soak`], which streams
//! requests through a bounded in-flight window instead of materializing the
//! whole load up front — that's what makes 10⁵+-request soaks affordable —
//! and verifies every response against a per-template single-threaded
//! reference checksum as it drains.

pub use splitc_runtime::serve::{
    module_fingerprint, BreakerPolicy, FaultKind, FaultPlan, FaultRule, FaultSelector, FaultSite,
    Request, Response, ResponseHandle, ResponseLost, RetryPolicy, ServeModule, Server,
    ServerConfig, ServerStats, SubmitError, PANIC_MESSAGE_CAP,
};
use splitc_runtime::{EngineError, Histogram, EMPTY_QUANTILE};

use crate::harness::{checksum_bytes, prepare, PreparedKernel};
use crate::report::fmt_cache_line;
use crate::session::{run_on_target, PipelineError, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::ArtifactStore;
use splitc_targets::{MachineValue, TargetDesc};
use splitc_workloads::{module_for, table1_kernels, Kernel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of one serving load: traffic mix, volume and server sizing.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Kernels in the mix; each is compiled into **its own module**, so the
    /// server dedups and shares one engine per kernel.
    pub kernels: Vec<Kernel>,
    /// Targets requests rotate over.
    pub targets: Vec<TargetDesc>,
    /// Total requests to submit.
    pub requests: usize,
    /// Elements processed per request.
    pub n: usize,
    /// Worker threads (0 = one per host core).
    pub workers: usize,
    /// Bound on the server's request queue.
    pub queue_capacity: usize,
    /// Per-engine code-cache bound (0 = unbounded).
    pub cache_capacity: usize,
    /// Base seed; request `r` prepares its inputs from `seed + r`.
    pub seed: u64,
    /// Online-compilation configuration shared by every request.
    pub options: JitOptions,
    /// Continuous-batching bound forwarded to [`ServerConfig::max_batch`]
    /// (1 disables batching).
    pub max_batch: usize,
    /// Persistent artifact store the server's engines consult before
    /// compiling (`None` = in-memory caching only, the historical behaviour).
    pub store: Option<Arc<ArtifactStore>>,
}

impl LoadConfig {
    /// A catalogue load: the Table 1 kernels over the full preset target
    /// catalogue, `requests` requests of `n` elements each, one worker.
    pub fn catalogue(n: usize, requests: usize) -> Self {
        LoadConfig {
            kernels: table1_kernels(),
            targets: TargetDesc::presets(),
            requests,
            n,
            workers: 1,
            queue_capacity: 64,
            cache_capacity: 0,
            seed: 0xdac,
            options: JitOptions::split(),
            max_batch: 16,
            store: None,
        }
    }

    /// Same load fanned over `workers` worker threads (0 = all cores).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Same load with a queue bound of `capacity` requests.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Same load with a per-engine code-cache bound.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Same load with a continuous-batching bound (1 disables batching).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Same load with this base seed. Every generated input, every
    /// retry-backoff jitter and every [`FaultPlan`] decision derives from
    /// it, so two runs with one seed are replays of each other.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same load backed by a persistent artifact store: every engine the
    /// server deduplicates probes `store` before compiling and publishes
    /// what it compiles, so a second process (or a second [`run_load`])
    /// pointed at the same directory starts warm.
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
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

/// A completed serving load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests served (every one of them answered).
    pub requests: usize,
    /// Worker threads the server ran (0 resolved to the host's cores).
    pub workers: usize,
    /// Wall-clock duration from first submission to last response, in
    /// nanoseconds.
    pub elapsed_ns: u128,
    /// Time to first response: wall-clock duration from first submission
    /// until the *first submitted* request's response arrived, in
    /// nanoseconds. On a cold start this is dominated by the first online
    /// compilation; with a populated artifact store it collapses to a disk
    /// read — the cold-vs-warm delta [`run_store_bench`] reports.
    pub ttfr_ns: u128,
    /// Serving throughput over that window.
    pub requests_per_sec: f64,
    /// Per-request result checksums, in submission order — the bit-identity
    /// handle loads of different worker counts are compared with.
    pub checksums: Vec<u64>,
    /// Final server counters (taken after the graceful shutdown drain).
    pub stats: ServerStats,
}

impl LoadReport {
    /// Render the report the way `splitc serve-bench` prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve: {} requests over {} workers in {:.1} ms ({:.1} req/s, first response {:.1} ms)\n",
            self.requests,
            self.workers,
            self.elapsed_ns as f64 / 1e6,
            self.requests_per_sec,
            self.ttfr_ns as f64 / 1e6,
        );
        out.push_str(&format!(
            "queue: high water {} · accepted {} · completed {} · rejected {}\n",
            self.stats.queue_high_water,
            self.stats.accepted,
            self.stats.completed,
            self.stats.rejected,
        ));
        out.push_str(&format!(
            "engines: {} shared deployments\n",
            self.stats.engines
        ));
        out.push_str("latency:\n");
        out.push_str(&fmt_latency("queue-wait", &self.stats.queue_wait));
        out.push_str(&fmt_latency("execute", &self.stats.execute));
        out.push_str(&format!(
            "batches: {} served · mean size {:.2} · max {}\n",
            self.stats.batch_sizes.count(),
            self.stats.batch_sizes.mean(),
            self.stats.batch_sizes.max(),
        ));
        for (target, count) in &self.stats.per_target {
            out.push_str(&format!("  {target:<12} {count} requests\n"));
        }
        out.push_str(&fmt_fault_lines(&self.stats));
        out.push_str(&fmt_cache_line(&self.stats.cache));
        out.push('\n');
        out
    }
}

/// Render the fault-tolerance counter lines shared by every serving report
/// (empty when the load saw no faults, deadlines or breaker activity — the
/// healthy-path output stays unchanged).
fn fmt_fault_lines(stats: &ServerStats) -> String {
    let any = stats.expired
        + stats.cancelled
        + stats.retried
        + stats.degraded
        + stats.failed_fast
        + stats.faults_injected
        + stats.breaker_opened;
    if any == 0 {
        return String::new();
    }
    format!(
        "faults: injected {} · retried {} · expired {} · cancelled {} · degraded {} · failed-fast {}\n\
         breaker: opened {} · half-opened {} · closed {}\n",
        stats.faults_injected,
        stats.retried,
        stats.expired,
        stats.cancelled,
        stats.degraded,
        stats.failed_fast,
        stats.breaker_opened,
        stats.breaker_half_opened,
        stats.breaker_closed,
    )
}

/// Run one serving load: compile each kernel offline into its own module,
/// start a [`Server`], submit `cfg.requests` requests (kernel-major rotation
/// over `kernels × targets`, seeded inputs), wait for every response, verify
/// and checksum it, then gracefully shut the server down.
///
/// Submission uses the blocking [`Server::submit`], so the bounded queue's
/// backpressure throttles the generator to the pool's drain rate. Every
/// request is fully built — inputs generated, memory filled — *before* the
/// clock starts: the measured window covers submission through last
/// response, so `requests_per_sec` reflects the serving layer itself, not
/// the generator's single-threaded input preparation.
///
/// # Errors
///
/// Returns the first [`PipelineError`] from offline compilation or from any
/// served request.
///
/// # Panics
///
/// Panics if a worker dies before responding ([`ResponseLost`]) — graceful
/// shutdown makes that unreachable short of a worker panic.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, PipelineError> {
    // Offline step, outside the measured window: one module per kernel.
    let modules = deploy_modules(cfg)?;
    let server = Server::start(server_config(cfg));

    // Build every request before starting the clock: input generation is
    // the generator's cost, not the serving layer's.
    let (requests, prepared_all): (Vec<_>, Vec<_>) = (0..cfg.requests)
        .map(|r| {
            let ki = r % cfg.kernels.len();
            let target = &cfg.targets[(r / cfg.kernels.len()) % cfg.targets.len()];
            let seed = cfg.seed.wrapping_add(r as u64);
            let (mut request, prepared) =
                prepare_request(cfg, &modules[ki], &cfg.kernels[ki], target, seed);
            request.tag = r as u64;
            (request, prepared)
        })
        .unzip();

    let start = Instant::now();
    let handles: Vec<_> = requests.into_iter().map(|r| submit(&server, r)).collect();

    // The clock stops at the last *response*; checksumming the returned
    // memory images is generator-side verification work, done after.
    // Handles resolve in submission order, so the first wait that returns
    // dates the first submitted request's response — the time-to-first-
    // response a freshly started deployment makes its users feel.
    let mut responses = Vec::with_capacity(cfg.requests);
    let mut ttfr_ns = 0u128;
    for (i, handle) in handles.into_iter().enumerate() {
        responses.push(handle.wait().expect("serving worker died mid-load"));
        if i == 0 {
            ttfr_ns = start.elapsed().as_nanos();
        }
    }
    let elapsed_ns = start.elapsed().as_nanos();

    let mut checksums = Vec::with_capacity(cfg.requests);
    for (response, prepared) in responses.into_iter().zip(&prepared_all) {
        let run = response.outcome?;
        checksums.push(checksum_bytes(run.result, prepared, &response.mem));
    }

    Ok(LoadReport {
        requests: cfg.requests,
        workers: server.workers(),
        elapsed_ns,
        ttfr_ns,
        requests_per_sec: per_sec(cfg.requests, elapsed_ns),
        checksums,
        stats: server.shutdown(),
    })
}

/// The offline step every load driver starts with: each kernel of the mix
/// compiled and optimized into **its own module** and deployed. Panics on
/// an empty kernel or target list — no traffic can be generated from one.
fn deploy_modules(cfg: &LoadConfig) -> Result<Vec<ServeModule>, PipelineError> {
    assert!(!cfg.kernels.is_empty(), "a load needs at least one kernel");
    assert!(!cfg.targets.is_empty(), "a load needs at least one target");
    cfg.kernels
        .iter()
        .map(|kernel| {
            let mut module = module_for(std::slice::from_ref(kernel), kernel.name)
                .map_err(PipelineError::Frontend)?;
            optimize_module(&mut module, &OptOptions::full());
            Ok(ServeModule::new(module))
        })
        .collect()
}

/// One fully built request (no deadline, tag 0) of `kernel` on `target` with
/// inputs from `seed`, plus the metadata its response is checksummed with.
fn prepare_request(
    cfg: &LoadConfig,
    module: &ServeModule,
    kernel: &Kernel,
    target: &TargetDesc,
    seed: u64,
) -> (Request, PreparedKernel) {
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
    (request, prepared)
}

/// Blocking submit. Only a server that is shutting down refuses one, and the
/// load drivers shut theirs down last.
fn submit(server: &Server, request: Request) -> ResponseHandle {
    server
        .submit(request)
        .unwrap_or_else(|e| panic!("the load generator's server refused a request: {e}"))
}

/// The server sizing `cfg` asks for; everything else stays at its default.
fn server_config(cfg: &LoadConfig) -> ServerConfig {
    ServerConfig {
        workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        cache_capacity: cfg.cache_capacity,
        max_batch: cfg.max_batch,
        seed: cfg.seed,
        store: cfg.store.clone(),
        ..ServerConfig::default()
    }
}

/// Throughput of `requests` requests served in `elapsed_ns`.
fn per_sec(requests: usize, elapsed_ns: u128) -> f64 {
    requests as f64 / (elapsed_ns as f64 / 1e9).max(1e-9)
}

/// A completed cold-vs-warm artifact-store benchmark ([`run_store_bench`]):
/// the same load run twice against one store directory — first with the
/// store emptied (every engine compiles and publishes), then again in a
/// fresh server sharing the now-populated store (every engine loads instead
/// of compiling). The cold/warm time-to-first-response delta is the number
/// the persistent store exists for: it is the compilation latency a restart
/// no longer pays.
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
    /// from disk — bit-identical checksums to the cold pass.
    pub warm: LoadReport,
}

impl StoreBenchReport {
    /// Cold TTFR over warm TTFR — how much faster a restarted deployment
    /// answers its first request thanks to the store.
    pub fn ttfr_speedup(&self) -> f64 {
        self.cold.ttfr_ns as f64 / (self.warm.ttfr_ns as f64).max(1.0)
    }

    /// Render the report the way `splitc serve-bench --store` prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "store: {} ({} entries after the cold pass)\n",
            self.dir.display(),
            self.entries,
        );
        out.push_str(&format!(
            "cold: first response {:.2} ms · total {:.1} ms · {} compiles · {} disk misses\n",
            self.cold.ttfr_ns as f64 / 1e6,
            self.cold.elapsed_ns as f64 / 1e6,
            self.cold.stats.cache.compiles,
            self.cold.stats.cache.disk_misses,
        ));
        out.push_str(&format!(
            "warm: first response {:.2} ms · total {:.1} ms · {} compiles · {} disk hits\n",
            self.warm.ttfr_ns as f64 / 1e6,
            self.warm.elapsed_ns as f64 / 1e6,
            self.warm.stats.cache.compiles,
            self.warm.stats.cache.disk_hits,
        ));
        out.push_str(&format!(
            "time-to-first-response speedup: {}x\n",
            crate::report::fmt_speedup(self.ttfr_speedup()),
        ));
        out
    }
}

/// Run the cold-vs-warm artifact-store benchmark: clear the store at `dir`,
/// run `cfg`'s load against it cold (compiling and publishing every key),
/// then run the identical load again in a fresh server sharing the now-warm
/// store, and assert the split-compilation contract on the way out:
/// the warm pass compiles **nothing** (`compiles == 0`, one disk hit per
/// key the cold pass compiled) and its responses are bit-identical,
/// checksum-for-checksum, to the cold pass's.
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
    let cfg = cfg.clone().with_store(Arc::clone(&store));
    let cold = run_load(&cfg)?;
    let warm = run_load(&cfg)?;
    assert_eq!(
        cold.checksums, warm.checksums,
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

/// One soak traffic template: a fully prepared request prototype plus the
/// checksum a fresh single-threaded reference run produces for it. The soak
/// clones prototypes instead of pre-building every request, so its memory
/// footprint is `templates + in-flight window`, not `total requests`.
struct SoakTemplate {
    /// The prototype; each clone gets its own deadline and tag.
    request: Request,
    /// Prepared kernel metadata (output region) — kept so response
    /// verification checksums without re-generating inputs.
    prepared: PreparedKernel,
    expect: u64,
}

impl SoakTemplate {
    /// Panic unless a served result and memory image checksum to `expect`.
    fn assert_matches(&self, t: usize, result: Option<MachineValue>, mem: &[u8], expect: u64) {
        assert_eq!(
            checksum_bytes(result, &self.prepared, mem),
            expect,
            "response for template {t} ({} for {}) diverged from its single-threaded reference",
            self.prepared.name,
            self.request.target.name,
        );
    }
}

/// Checksum of a fresh single-threaded run of `request` on `target` — what
/// a response served there is verified against.
fn reference_checksum(
    request: &Request,
    prepared: &PreparedKernel,
    target: &TargetDesc,
) -> Result<u64, PipelineError> {
    let mut mem = request.mem.clone();
    let run = run_on_target(
        request.module.module(),
        target,
        &request.options,
        &request.kernel,
        &request.args,
        &mut mem,
    )?;
    Ok(checksum_bytes(run.result, prepared, &mem))
}

/// One template per kernel × target of `cfg` (kernel-major), each with the
/// reference checksum of its own target.
fn build_templates(cfg: &LoadConfig) -> Result<Vec<SoakTemplate>, PipelineError> {
    let modules = deploy_modules(cfg)?;
    let mut templates = Vec::with_capacity(cfg.kernels.len() * cfg.targets.len());
    for (kernel, module) in cfg.kernels.iter().zip(&modules) {
        for target in &cfg.targets {
            let seed = cfg.seed.wrapping_add(templates.len() as u64);
            let (request, prepared) = prepare_request(cfg, module, kernel, target, seed);
            let expect = reference_checksum(&request, &prepared, target)?;
            templates.push(SoakTemplate {
                request,
                prepared,
                expect,
            });
        }
    }
    Ok(templates)
}

/// The in-flight window of a streamed load: twice the queue bound.
fn stream_window(cfg: &LoadConfig) -> usize {
    (cfg.queue_capacity * 2).clamp(1, cfg.requests.max(1))
}

/// The windowed submit/drain loop of [`run_soak`] and [`run_chaos`]: request
/// `r` clones template `r % templates.len()` with `deadline_for(r)`, at most
/// [`stream_window`] responses are outstanding, and each goes to
/// `on_response` with its template index, in submission order. Returns the
/// nanoseconds from first submission to last response.
fn stream(
    server: &Server,
    cfg: &LoadConfig,
    templates: &[SoakTemplate],
    deadline_for: impl Fn(usize) -> Option<Instant>,
    mut on_response: impl FnMut(usize, Response) -> Result<(), PipelineError>,
) -> Result<u128, PipelineError> {
    let window = stream_window(cfg);
    let mut drain = |(t, handle): (usize, ResponseHandle)| {
        on_response(t, handle.wait().expect("serving worker died mid-stream"))
    };
    let start = Instant::now();
    let mut in_flight = std::collections::VecDeque::with_capacity(window);
    for r in 0..cfg.requests {
        let t = r % templates.len();
        let request = Request {
            deadline: deadline_for(r),
            tag: r as u64,
            ..templates[t].request.clone()
        };
        in_flight.push_back((t, submit(server, request)));
        if in_flight.len() >= window {
            drain(in_flight.pop_front().expect("window is non-empty"))?;
        }
    }
    in_flight.into_iter().try_for_each(drain)?;
    Ok(start.elapsed().as_nanos())
}

/// A completed serving soak: SLO-grade latency distributions over a
/// sustained, verified load.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Requests served and verified (every response's checksum matched its
    /// template's single-threaded reference).
    pub requests: usize,
    /// Distinct traffic templates (kernel × target pairs) in the mix.
    pub templates: usize,
    /// Worker threads the server ran (0 resolved to the host's cores).
    pub workers: usize,
    /// In-flight window the generator held open.
    pub window: usize,
    /// Wall-clock duration from first submission to last response, in
    /// nanoseconds.
    pub elapsed_ns: u128,
    /// Serving throughput over that window.
    pub requests_per_sec: f64,
    /// Final server counters — including the queue-wait / execute / batch
    /// histograms the SLO numbers come from.
    pub stats: ServerStats,
}

impl SoakReport {
    /// Render the report the way `splitc serve-bench --soak` prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak: {} requests ({} templates) over {} workers in {:.1} ms ({:.0} req/s, window {})\n",
            self.requests,
            self.templates,
            self.workers,
            self.elapsed_ns as f64 / 1e6,
            self.requests_per_sec,
            self.window,
        );
        out.push_str("latency:\n");
        out.push_str(&fmt_latency("queue-wait", &self.stats.queue_wait));
        out.push_str(&fmt_latency("execute", &self.stats.execute));
        out.push_str(&format!(
            "batches: {} served · mean size {:.2} · max {}\n",
            self.stats.batch_sizes.count(),
            self.stats.batch_sizes.mean(),
            self.stats.batch_sizes.max(),
        ));
        out.push_str(&fmt_fault_lines(&self.stats));
        out.push_str(&fmt_cache_line(&self.stats.cache));
        out.push('\n');
        out
    }
}

/// Run a serving soak: sustained mixed-module traffic, streamed through a
/// bounded in-flight window, every response verified as it drains.
///
/// Where [`run_load`] pre-builds all `cfg.requests` requests (each owning
/// its memory image) and only then starts the clock, a soak's point is
/// volume — 10⁵+ requests would mean gigabytes of pre-built buffers. So the
/// soak builds one [`SoakTemplate`] per (kernel × target) pair and streams
/// clones of them, checking each response against its template's
/// single-threaded [`run_on_target`] reference the moment it arrives.
/// Backpressure comes from both ends: the window (`2 × queue_capacity`
/// outstanding responses) caps the generator, the bounded queue caps it.
///
/// Request inputs depend only on the template (kernel, target, seed), so
/// verification is exact bit-identity against the reference — across worker
/// counts and batching.
///
/// # Errors
///
/// Returns the first [`PipelineError`] from offline compilation, from the
/// reference runs, or from any served request.
///
/// # Panics
///
/// Panics if a response's checksum differs from its template's reference
/// (a bit-identity violation — a serving-layer bug, not a load problem), or
/// if a worker dies before responding.
pub fn run_soak(cfg: &LoadConfig) -> Result<SoakReport, PipelineError> {
    let templates = build_templates(cfg)?;
    let server = Server::start(server_config(cfg));
    let verify = |t: usize, response: Response| {
        let template = &templates[t];
        template.assert_matches(t, response.outcome?.result, &response.mem, template.expect);
        Ok(())
    };
    let elapsed_ns = stream(&server, cfg, &templates, |_| None, verify)?;
    Ok(SoakReport {
        requests: cfg.requests,
        templates: templates.len(),
        workers: server.workers(),
        window: stream_window(cfg),
        elapsed_ns,
        requests_per_sec: per_sec(cfg.requests, elapsed_ns),
        stats: server.shutdown(),
    })
}

/// The CLI's stock chaos plan for a load of `templates` traffic templates:
/// one persistent poisoning that drives a breaker through its full
/// open → half-open → closed lifecycle, plus sporadic retryable faults and
/// latency spikes. Every decision derives from `seed`, so a chaos run is a
/// replay of any other run with the same seed and request count.
pub fn default_chaos_plan(templates: usize, seed: u64) -> FaultPlan {
    let t = templates.max(1) as u64;
    FaultPlan::seeded(seed)
        // Persistently poison template 0 during an early tag window: its
        // key's breaker opens after the configured threshold, reroutes to
        // the fallback while open, and — once the window has passed and the
        // cooldown elapsed — recovers through a half-open probe.
        .with_rule(FaultRule {
            site: FaultSite::Execute,
            kind: FaultKind::Panic,
            selector: FaultSelector::Slot {
                modulo: t,
                remainder: 0,
                lo: t * 4,
                hi: t * 24,
            },
            persistent: true,
        })
        // Sporadic transient failures one retry clears.
        .with_rule(FaultRule {
            site: FaultSite::Execute,
            kind: FaultKind::Transient,
            selector: FaultSelector::Probability(0.01),
            persistent: false,
        })
        // Sporadic compile-step panics, also cleared by a retry.
        .with_rule(FaultRule {
            site: FaultSite::Compile,
            kind: FaultKind::Panic,
            selector: FaultSelector::Probability(0.003),
            persistent: false,
        })
        // Latency spikes: results stay bit-identical, only deadlines and
        // queue waits feel them.
        .with_rule(FaultRule {
            site: FaultSite::Execute,
            kind: FaultKind::Latency(200_000),
            selector: FaultSelector::Probability(0.005),
            persistent: false,
        })
}

/// Per-outcome tallies a chaos soak accumulates from the responses
/// themselves (cross-checked against the server's own counters at the end).
#[derive(Debug, Clone, Copy, Default)]
struct ChaosTally {
    ok: usize,
    degraded_ok: usize,
    expired: usize,
    cancelled: usize,
    panicked: usize,
    transient: usize,
    failed_fast: usize,
}

/// A completed chaos soak ([`run_chaos`]): sustained traffic under a
/// deterministic [`FaultPlan`], every invariant asserted on the way out.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Requests submitted — and answered exactly once each.
    pub requests: usize,
    /// Distinct traffic templates (kernel × target pairs) in the mix.
    pub templates: usize,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Responses that executed cleanly on their requested target and
    /// matched the single-threaded reference bit-for-bit.
    pub ok: usize,
    /// Responses served by the fallback target (open breaker) that matched
    /// the fallback reference bit-for-bit.
    pub degraded_ok: usize,
    /// Requests shed at dequeue because their deadline had passed.
    pub expired: usize,
    /// Requests cancelled cooperatively mid-execution by their deadline.
    pub cancelled: usize,
    /// Requests whose final outcome (after retries) was a panic.
    pub panicked: usize,
    /// Requests whose final outcome was an injected transient failure.
    pub transient: usize,
    /// Requests answered [`EngineError::CircuitOpen`] without executing.
    pub failed_fast: usize,
    /// Wall-clock duration from first submission to last response, in
    /// nanoseconds.
    pub elapsed_ns: u128,
    /// Serving throughput over that window.
    pub requests_per_sec: f64,
    /// Final server counters (after the graceful shutdown drain).
    pub stats: ServerStats,
}

impl ChaosReport {
    /// Render the report the way `splitc serve-bench --chaos` prints it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos: {} requests ({} templates) over {} workers in {:.1} ms ({:.0} req/s)\n",
            self.requests,
            self.templates,
            self.workers,
            self.elapsed_ns as f64 / 1e6,
            self.requests_per_sec,
        );
        out.push_str(&format!(
            "outcomes: ok {} · degraded-ok {} · expired {} · cancelled {} · \
             panicked {} · transient {} · failed-fast {}\n",
            self.ok,
            self.degraded_ok,
            self.expired,
            self.cancelled,
            self.panicked,
            self.transient,
            self.failed_fast,
        ));
        out.push_str(&fmt_fault_lines(&self.stats));
        out.push_str("latency:\n");
        out.push_str(&fmt_latency("queue-wait", &self.stats.queue_wait));
        out.push_str(&fmt_latency("execute", &self.stats.execute));
        out.push_str(&fmt_cache_line(&self.stats.cache));
        out.push('\n');
        out
    }
}

/// Tally one chaos response, verifying successful outcomes bit-for-bit
/// against the right reference (own target, or the fallback's when the
/// response is degraded).
///
/// # Panics
///
/// Panics on a checksum mismatch or on a *semantic* error (trap, unknown
/// kernel): the fault plan only injects panics, transients and latency, so
/// anything else escaping the retry/breaker stack is a serving bug.
fn tally_chaos_response(
    templates: &[SoakTemplate],
    fallback_expect: &[u64],
    tally: &mut ChaosTally,
    t: usize,
    response: Response,
) {
    let template = &templates[t];
    match response.outcome {
        Ok(run) => {
            let expect = if response.degraded {
                fallback_expect[t]
            } else {
                template.expect
            };
            template.assert_matches(t, run.result, &response.mem, expect);
            if response.degraded {
                tally.degraded_ok += 1;
            } else {
                tally.ok += 1;
            }
        }
        Err(EngineError::DeadlineExceeded) => {
            // attempts == 0 ⇒ shed at dequeue (expired); otherwise the
            // deadline cancelled a run already in flight.
            if response.attempts == 0 {
                tally.expired += 1;
            } else {
                tally.cancelled += 1;
            }
        }
        Err(EngineError::CircuitOpen) => tally.failed_fast += 1,
        Err(EngineError::Panicked(_)) => tally.panicked += 1,
        Err(EngineError::Transient(_)) => tally.transient += 1,
        Err(err) => {
            panic!("chaos produced a semantic error — a serving bug, not an injected fault: {err}")
        }
    }
}

/// Run a chaos soak: [`run_soak`]'s streamed, verified load under a
/// deterministic [`FaultPlan`], with deadlines on a slice of the traffic
/// and a fallback target configured so open breakers degrade instead of
/// failing fast.
///
/// Every response is tallied by outcome; on the way out the books are
/// asserted *exactly*:
///
/// * every request was answered exactly once (the tallies sum to the
///   request count);
/// * `accepted == completed + expired`;
/// * the response-derived tallies equal the server's own `expired`,
///   `cancelled` and `failed_fast` counters;
/// * `batch_sizes.sum() == completed` and
///   `retry_attempts.count() == completed`;
/// * every successful response — including degraded ones — is bit-identical
///   to a single-threaded reference run.
///
/// # Errors
///
/// Returns the first [`PipelineError`] from offline compilation or the
/// reference runs.
///
/// # Panics
///
/// Panics if any of the invariants above fails — a chaos soak treats an
/// accounting tear the same way a differential test treats a wrong answer.
pub fn run_chaos(cfg: &LoadConfig, plan: &FaultPlan) -> Result<ChaosReport, PipelineError> {
    let templates = build_templates(cfg)?;
    // The fallback core for graceful degradation: the first target of the
    // mix. Results are portable across targets (that is the paper's whole
    // premise), so a degraded response must still match a reference run —
    // on the fallback target.
    let fallback = cfg.targets[0].clone();
    let fallback_expect = templates
        .iter()
        .map(|t| reference_checksum(&t.request, &t.prepared, &fallback))
        .collect::<Result<Vec<_>, _>>()?;
    let server = Server::start(
        server_config(cfg)
            .with_faults(plan.clone())
            .with_fallback(fallback),
    );

    let mut tally = ChaosTally::default();
    // A slice of the traffic carries tight deadlines, so the soak exercises
    // queue sheds and (under latency faults) mid-flight cancellation. Which
    // requests expire depends on real scheduling; the books below hold for
    // any mix.
    let deadline_for = |r| (r % 31 == 17).then(|| Instant::now() + Duration::from_millis(3));
    let elapsed_ns = stream(&server, cfg, &templates, deadline_for, |t, response| {
        tally_chaos_response(&templates, &fallback_expect, &mut tally, t, response);
        Ok(())
    })?;

    let workers = server.workers();
    let stats = server.shutdown();

    // Exactly-once: the per-outcome tallies partition the request count.
    let answered = tally.ok
        + tally.degraded_ok
        + tally.expired
        + tally.cancelled
        + tally.panicked
        + tally.transient
        + tally.failed_fast;
    assert_eq!(
        answered, cfg.requests,
        "every request answered exactly once"
    );
    // Exact books, cross-checked response-side vs. server-side.
    assert_eq!(stats.accepted, cfg.requests as u64);
    assert_eq!(stats.completed + stats.expired, stats.accepted);
    assert_eq!(stats.expired, tally.expired as u64);
    assert_eq!(stats.cancelled, tally.cancelled as u64);
    assert_eq!(stats.failed_fast, tally.failed_fast as u64);
    assert!(
        stats.degraded >= tally.degraded_ok as u64,
        "degraded responses can fail too, but never exceed the degraded count"
    );
    assert_eq!(stats.batch_sizes.sum(), stats.completed);
    assert_eq!(stats.retry_attempts.count(), stats.completed);

    Ok(ChaosReport {
        requests: cfg.requests,
        templates: templates.len(),
        workers,
        ok: tally.ok,
        degraded_ok: tally.degraded_ok,
        expired: tally.expired,
        cancelled: tally.cancelled,
        panicked: tally.panicked,
        transient: tally.transient,
        failed_fast: tally.failed_fast,
        elapsed_ns,
        requests_per_sec: per_sec(cfg.requests, elapsed_ns),
        stats,
    })
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
        let parallel = run_load(&small_load().with_workers(4)).unwrap();
        assert_eq!(sequential.checksums, parallel.checksums);
        assert_eq!(sequential.requests, 24);
        assert_eq!(parallel.workers, 4);
        // Mixed-module traffic: one shared engine per kernel module, one
        // compile per (module, target, options) triple, zero losses.
        for report in [&sequential, &parallel] {
            assert_eq!(report.stats.engines, 3);
            assert_eq!(report.stats.cache.compiles, 9);
            assert_eq!(report.stats.accepted, 24);
            assert_eq!(report.stats.completed, 24);
            assert_eq!(report.stats.in_flight(), 0);
        }
    }

    #[test]
    fn bounded_cache_loads_evict_but_stay_correct() {
        let unbounded = run_load(&small_load()).unwrap();
        let churned = run_load(&small_load().with_workers(2).with_cache_capacity(1)).unwrap();
        assert_eq!(unbounded.checksums, churned.checksums);
        assert!(
            churned.stats.cache.evictions > 0,
            "a 1-entry cache over 3 targets must evict"
        );
    }

    #[test]
    fn report_rendering_mentions_the_serving_counters() {
        let report = run_load(&small_load()).unwrap();
        let text = report.render();
        assert!(text.contains("req/s"));
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
        cfg.workers = 2;
        cfg.queue_capacity = 8;
        let report = run_soak(&cfg).unwrap();
        assert_eq!(report.requests, 120);
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
        assert!(report.requests_per_sec > 0.0);
        let text = report.render();
        assert!(text.contains("soak:"));
        assert!(text.contains("p999"));
    }

    #[test]
    fn chaos_soaks_keep_exact_books_and_recover_the_breaker() {
        let mut cfg = small_load().with_seed(0xc4a05);
        cfg.requests = 2_000;
        cfg.workers = 2;
        cfg.queue_capacity = 16;
        let plan = default_chaos_plan(cfg.kernels.len() * cfg.targets.len(), cfg.seed);
        // `run_chaos` itself asserts exactly-once answering and the exact
        // books; the checks here pin the lifecycle the stock plan promises.
        let report = run_chaos(&cfg, &plan).unwrap();
        assert!(report.stats.faults_injected > 0, "the plan actually fired");
        assert!(report.stats.retried > 0, "transient faults were retried");
        assert!(
            report.stats.breaker_opened >= 1,
            "the persistent poisoning opened its key's breaker"
        );
        assert!(
            report.stats.breaker_closed >= 1,
            "a half-open probe closed the breaker after the poison window"
        );
        assert!(
            report.degraded_ok > 0,
            "open-breaker traffic was served by the fallback target"
        );
        assert!(
            report.ok > report.requests / 2,
            "most traffic still serves clean under chaos (got {} of {})",
            report.ok,
            report.requests
        );
        let text = report.render();
        assert!(text.contains("chaos:"));
        assert!(text.contains("breaker: opened"));
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
