//! The serving tier: one bounded queue, continuous batching, shared engines.
//!
//! Split compilation's deployment story (Cohen & Rohou, DAC 2010) is that one
//! offline-compiled module serves *many* heterogeneous consumers, each paying
//! only the cheap online step. This module is the request front-end of that
//! story, shaped like a production inference/serving tier:
//!
//! * **One boring queue.** Clients submit [`Request`]s into a bounded MPMC
//!   FIFO whose whole state sits behind one mutex, with a condvar for parked
//!   workers and one for parked submitters. Capacity, the shutdown flag and
//!   the `accepted` count are checked in the critical section that inserts,
//!   so there is no reservation to back out and no wakeup protocol to
//!   prove. One lock is enough: it is held for a `push_back` or a
//!   `pop_front`, a served request executes for microseconds (4–4.5 µs
//!   median on `serve_skewed`), and per-worker shards with work stealing
//!   measured no faster. A worker that finds the queue empty polls a
//!   lock-free mirror of its length for up to 50 µs (`POLL_BUDGET`) before
//!   it parks; the mirror is a hint, and every park follows a locked check.
//! * **Continuous batching.** A worker that pops a job also drains every
//!   queued request with the same *batch key* — `(module fingerprint, target
//!   fingerprint, JitOptions)` — up to [`ServerConfig::max_batch`], and runs
//!   the whole batch against one shared engine with **one compiled-program
//!   fetch and one [`FramePool`]**. Each request is still simulated
//!   individually through the very same execution path an unbatched run
//!   uses, so every [`Response`] is bit-identical to unbatched execution;
//!   batching only amortizes the cache lookup and the frame-pool warmup.
//! * **Latency observability.** Every job is stamped at accept, dequeue and
//!   completion. Queue-wait and execute times are recorded into fixed-bucket
//!   log-scale [`Histogram`]s (constant-time, allocation-free on the hot
//!   path), one set per worker, merged on demand: [`ServerStats`] reports
//!   p50/p99/p999 for both phases plus the batch-size distribution.
//!
//! Every distinct deployed module is backed by **one shared
//! [`ExecutionEngine`]**, deduplicated by module fingerprint in one locked
//! registry (consulted once per batch); the engine's in-flight-deduplicated
//! cache guarantees exactly one online compilation per (target, options)
//! pair however many requests race on a cold pair.
//!
//! # Deadlines and failures
//!
//! A served request goes dequeue → deadline shed → program fetch → run →
//! answer, once. The server answers failures; it does not manage them:
//!
//! * **Deadlines + cooperative cancellation.** A [`Request`] may carry an
//!   absolute [`Request::deadline`]. Requests whose deadline passed while
//!   they sat in the queue are **shed at dequeue** — counted in
//!   [`ServerStats::expired`], answered with
//!   [`EngineError::DeadlineExceeded`], and *not* counted as completed (the
//!   drain invariant becomes `accepted == completed + expired`); a shed
//!   request never reaches the cache, so it never triggers a compile. A
//!   request whose deadline passes **mid-execution** (its own cold compile
//!   included) is cancelled cooperatively by the thread that executes it:
//!   the worker hands the deadline to its [`FramePool`] before the fetch,
//!   the executor polls it at region boundaries (reading the clock at the
//!   first poll and then once every few dozen regions), the runaway kernel
//!   stops about a microsecond of execution after its deadline, the worker
//!   is freed, and the client is answered with `DeadlineExceeded` (counted
//!   as completed and in [`ServerStats::cancelled`]). No other thread, lock
//!   or flag is involved, so there is nothing to arm, disarm or order at
//!   shutdown.
//! * **Every other failure is the answer.** A trap, an unknown kernel, a
//!   JIT rejection or a panic is returned to the client as the
//!   [`EngineError`] it is, after one attempt. Nothing is retried and no key
//!   is ever refused: online compilation and the simulator are
//!   deterministic functions of their inputs, so a failure would recur.
//! * **Fault injection is one hook.** A [`FaultHook`] in
//!   [`ServerConfig::faults`] is called with each request's tag inside the
//!   worker's panic guard, just before the program fetch. It may panic or
//!   sleep; the server knows nothing else about faults. That is enough for
//!   a chaos soak to prove the exactly-once and bit-identity guarantees
//!   *under* failure, not just in fair weather.
//!
//! # Backpressure
//!
//! The queue is bounded ([`ServerConfig::queue_capacity`]).
//! [`Server::submit`] blocks until space frees up (so a fast producer is
//! throttled to the pool's drain rate instead of growing an unbounded
//! backlog); [`Server::try_submit`] never blocks and hands the request back
//! in [`SubmitError::QueueFull`] so the caller can shed load or retry.
//! Refusals are counted: full-queue refusals in
//! [`ServerStats::rejected`], shutdown-time refusals in
//! [`ServerStats::rejected_shutdown`] — so `accepted + rejected +
//! rejected_shutdown` always equals submission attempts, even across a
//! shutdown race.
//!
//! # Responses
//!
//! Every accepted request yields a [`ResponseHandle`] — a per-request
//! rendezvous channel (plain `mpsc`, no external async runtime) on which
//! exactly one [`Response`] arrives: the [`Execution`] outcome plus the
//! request's memory buffer, which travels *with* the request through the
//! queue and back; the kernel runs against it in place and nothing on the
//! serving path copies it. Responses also carry the request's measured
//! queue-wait and execute times and the size of the batch it was served in.
//! [`ResponseHandle::wait`] polls for up to 50 µs before it sleeps on the
//! channel, so an answer that comes that quickly costs no futex wake-up.
//!
//! # Shutdown and worker panics
//!
//! [`Server::shutdown`] closes the queue to new submissions, wakes every
//! worker and blocked submitter, **drains all accepted work**, joins the
//! workers — the only threads a server has — and returns the final
//! [`ServerStats`]. An accepted request is
//! never dropped: its response arrives even if shutdown was requested while
//! it sat in the queue. Dropping the server performs the same graceful
//! shutdown.
//!
//! The worker loop is panic-safe: a panic during kernel execution is caught,
//! the worker's frame pool is discarded (its recycled frames may be
//! mid-mutation), and the client receives [`EngineError::Panicked`] instead
//! of a dead channel. The worker itself keeps serving, so `completed +
//! expired == accepted` holds at shutdown even when kernels misbehave.
//!
//! # Example
//!
//! ```
//! use splitc_minic::compile_source;
//! use splitc_jit::JitOptions;
//! use splitc_runtime::serve::{Request, ServeModule, Server, ServerConfig};
//! use splitc_targets::{MachineValue, TargetDesc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile_source("fn triple(x: i32) -> i32 { return 3 * x; }", "k")?;
//! let module = ServeModule::new(module);
//! let server = Server::start(ServerConfig::default().with_workers(2));
//!
//! let handles: Vec<_> = (0..10)
//!     .map(|i| {
//!         server
//!             .submit(Request {
//!                 module: module.clone(),
//!                 kernel: "triple".into(),
//!                 target: TargetDesc::x86_sse(),
//!                 options: JitOptions::split(),
//!                 args: vec![MachineValue::Int(i)],
//!                 mem: vec![0u8; 64],
//!                 deadline: None,
//!                 tag: i as u64,
//!             })
//!             .expect("server is accepting")
//!     })
//!     .collect();
//! for (i, handle) in handles.into_iter().enumerate() {
//!     let response = handle.wait()?;
//!     let run = response.outcome?;
//!     assert_eq!(run.result, Some(MachineValue::Int(3 * i as i64)));
//! }
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 10);
//! assert_eq!(stats.cache.compiles, 1, "ten requests share one compilation");
//! assert_eq!(stats.queue_wait.count(), 10, "every request's wait was timed");
//! # Ok(())
//! # }
//! ```

use crate::engine::{CacheStats, CompiledModule, EngineError, Execution, ExecutionEngine};
use crate::hist::Histogram;
use splitc_jit::JitOptions;
use splitc_targets::{Fnv1a, FramePool, MachineValue, SimError, TargetDesc};
use splitc_vbc::{encode_module, Module};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Acquire one of this module's locks — the serving tier's one poisoned-lock
/// policy: **propagate**. Every mutex here guards plain bookkeeping (the
/// queue, the engine registry, a worker's metrics, the worker list) and is
/// never held around client-driven work: kernels, online
/// compilation and injected faults run inside [`run_job`]'s panic guard (or
/// the batch fetch's) with no lock of this module held. A poisoned lock
/// therefore means a bug in the serving loop itself panicked mid-update;
/// serving on from half-updated books could break the exactly-once
/// accounting silently, so the thread that finds the poison panics too and
/// [`Server::shutdown`] re-raises it.
#[track_caller]
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("a serving thread panicked while holding this lock")
}

/// [`lock`]'s policy for the re-acquisition at the end of a condvar wait.
#[track_caller]
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .expect("a serving thread panicked while holding this lock")
}

/// How long a worker finding the queue empty, or a client waiting for its
/// response, polls before it parks. Each sleeping handoff costs ≈ 6–7 µs of
/// futex wake-up; a window-1 round trip paid two around a ≈ 3 µs kernel, and
/// polling first took `serve_rtt_us` on `serve_uniform` from 15.7 to 4.9 µs
/// (2-vCPU Xeon VM); 20 and 100 µs read within ±4 % of 50 µs. Polls yield:
/// the poller may share its CPU with the very thread it waits for.
const POLL_BUDGET: Duration = Duration::from_micros(50);

/// Call `poll` until it yields a value, yielding the CPU between calls, for
/// at most [`POLL_BUDGET`]; `None` means the budget ran out: go park.
fn poll_briefly<T>(mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match poll() {
            None if start.elapsed() < POLL_BUDGET => std::thread::yield_now(),
            polled => return polled,
        }
    }
}

/// A deployed module handle: the shared bytecode, its canonical wire
/// encoding and the encoding's fingerprint — all computed once at
/// deployment, so per-request submission never re-encodes the module.
///
/// Cloning is cheap (two [`Arc`] bumps and a copied `u64`); clients
/// typically deploy once and clone the handle into every request.
#[derive(Debug, Clone)]
pub struct ServeModule {
    module: Arc<Module>,
    encoded: Arc<[u8]>,
    fingerprint: u64,
}

impl ServeModule {
    /// Deploy `module` for serving, computing its fingerprint.
    pub fn new(module: Module) -> Self {
        ServeModule::from_arc(Arc::new(module))
    }

    /// Deploy an already-shared module without cloning it.
    pub fn from_arc(module: Arc<Module>) -> Self {
        let encoded: Arc<[u8]> = encode_module(&module).into();
        let fingerprint = Fnv1a::hash(&encoded);
        ServeModule {
            module,
            encoded,
            fingerprint,
        }
    }

    /// The fingerprint deployments are deduplicated by: [`Fnv1a`] over the
    /// module's canonical wire encoding ([`encode_module`]).
    ///
    /// Two modules with equal encodings — whatever their provenance —
    /// fingerprint identically: byte-identical bytecode shares one engine,
    /// one code cache, one compiled artifact per (target, options) pair. The
    /// fingerprint is only the *index*: identity is the encoding itself,
    /// which the registry and the batch sweep compare on every fingerprint
    /// match, so two different modules that collide on 64 bits (FNV-1a is
    /// not collision-resistant, and the bytes are client-supplied) are each
    /// served by their own engine.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The deployed bytecode module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The deployed module as a shareable handle.
    pub fn module_arc(&self) -> Arc<Module> {
        Arc::clone(&self.module)
    }

    /// `true` if this handle deploys the encoding `encoded` — module
    /// identity. A pointer comparison in the common case (clients clone one
    /// deployed handle), a byte comparison otherwise.
    fn is_encoded_as(&self, encoded: &Arc<[u8]>) -> bool {
        Arc::ptr_eq(&self.encoded, encoded) || self.encoded == *encoded
    }
}

/// One unit of client work: run `kernel` from `module` on `target`.
///
/// The request owns its memory buffer; it travels through the queue with the
/// request, the kernel runs against it in place, and it comes back in the
/// [`Response`] — the serving path never copies kernel memory.
#[derive(Debug, Clone)]
pub struct Request {
    /// The deployed module to serve from.
    pub module: ServeModule,
    /// Kernel (function) name inside the module.
    pub kernel: String,
    /// The core to compile for and simulate on.
    pub target: TargetDesc,
    /// Online-compilation configuration.
    pub options: JitOptions,
    /// Argument values, in signature order.
    pub args: Vec<MachineValue>,
    /// The flat memory the kernel runs against (inputs prepared by the
    /// client; outputs read back from [`Response::mem`]).
    pub mem: Vec<u8>,
    /// Optional absolute deadline. A request whose deadline passes while it
    /// is queued is shed at dequeue (counted in [`ServerStats::expired`],
    /// answered [`EngineError::DeadlineExceeded`]); one whose deadline
    /// passes mid-execution is cancelled by its own worker at a region
    /// boundary (the executor reads the clock there, at the first region
    /// and once every few dozen after) and answered the same way (counted as
    /// completed, plus [`ServerStats::cancelled`]). `None` means the request
    /// never expires and its run never reads the clock.
    pub deadline: Option<Instant>,
    /// Client-assigned request tag, the one argument of a configured
    /// [`FaultHook`]: a hook that is a pure function of the tag injects
    /// identical faults into a replayed request stream. Pick the request
    /// index when generating load; 0 is fine for ad-hoc requests.
    pub tag: u64,
}

/// The answer to one [`Request`]: the execution outcome plus the request's
/// memory buffer, handed back so the client can read kernel outputs, and the
/// request's measured serving latency.
#[derive(Debug)]
pub struct Response {
    /// The run's measurements, or the engine error that stopped it.
    pub outcome: Result<Execution, EngineError>,
    /// The request's memory, after the kernel ran against it (unchanged if
    /// `outcome` is an error that prevented execution).
    pub mem: Vec<u8>,
    /// Index of the worker that served the request (diagnostic).
    pub worker: usize,
    /// Wall-clock nanoseconds the request spent queued (accept → dequeue).
    pub queue_wait_ns: u64,
    /// Wall-clock nanoseconds spent serving the request after dequeue
    /// (0 for requests refused before execution, e.g. unknown kernels).
    pub execute_ns: u64,
    /// Size of the batch this request was served in (≥ 1).
    pub batch: usize,
}

/// The serving thread disappeared before answering.
///
/// Graceful [`Server::shutdown`] never produces this: accepted requests are
/// always drained and answered — even a panicking kernel answers with
/// [`EngineError::Panicked`] rather than losing the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseLost;

impl fmt::Display for ResponseLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the serving worker disappeared before responding")
    }
}

impl Error for ResponseLost {}

/// A per-request rendezvous on which exactly one [`Response`] arrives.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Response>,
}

impl ResponseHandle {
    /// Block until the response arrives: poll for up to 50 µs
    /// (`POLL_BUDGET`), then sleep on the channel.
    ///
    /// # Errors
    ///
    /// Returns [`ResponseLost`] if the serving worker died before answering.
    pub fn wait(mut self) -> Result<Response, ResponseLost> {
        if let Some(answer) = poll_briefly(|| self.try_wait().transpose()) {
            return answer;
        }
        self.rx.recv().map_err(|_| ResponseLost)
    }

    /// Poll for the response without blocking (`Ok(None)` = not ready yet).
    ///
    /// # Errors
    ///
    /// Returns [`ResponseLost`] if the serving worker died before answering.
    pub fn try_wait(&mut self) -> Result<Option<Response>, ResponseLost> {
        match self.rx.try_recv() {
            Ok(response) => Ok(Some(response)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(ResponseLost),
        }
    }
}

/// Why a submission was refused. The request is handed back in both cases so
/// the caller can retry, reroute or shed it.
#[derive(Debug)]
pub enum SubmitError {
    /// The bounded queue is at capacity ([`Server::try_submit`] only;
    /// blocking [`Server::submit`] waits instead). Counted in
    /// [`ServerStats::rejected`].
    QueueFull(Box<Request>),
    /// The server is shutting down and accepts no new work. Counted in
    /// [`ServerStats::rejected_shutdown`].
    ShuttingDown(Box<Request>),
}

impl SubmitError {
    /// Recover the refused request.
    pub fn into_request(self) -> Request {
        match self {
            SubmitError::QueueFull(r) | SubmitError::ShuttingDown(r) => *r,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull(_) => write!(f, "serving queue is full"),
            SubmitError::ShuttingDown(_) => write!(f, "server is shutting down"),
        }
    }
}

impl Error for SubmitError {}

/// A fault-injection hook (chaos testing), called with the request's
/// [`Request::tag`] inside the worker's panic guard, just before the program
/// fetch. It may panic (answered [`EngineError::Panicked`]) or sleep (a
/// latency fault: results stay bit-identical, only deadlines and queues feel
/// it). The server knows nothing else about faults.
#[derive(Clone)]
pub struct FaultHook(pub Arc<dyn Fn(u64) + Send + Sync>);

impl fmt::Debug for FaultHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FaultHook(..)")
    }
}

/// Configuration of a [`Server`].
///
/// There is no cache bound: each engine the server creates holds one compiled
/// program per (target, options) pair it has been asked for, and keeps it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (0 = one per host core).
    pub workers: usize,
    /// Bound on queued (accepted but not yet running) requests; clamped to
    /// at least 1. This is the backpressure knob: blocking submits throttle
    /// producers to the drain rate once the queue holds this many requests.
    pub queue_capacity: usize,
    /// Most requests a worker serves as one continuous batch (same module,
    /// target and options; one program fetch, one frame pool); clamped to at
    /// least 1. 1 disables batching.
    pub max_batch: usize,
    /// Fault-injection hook (chaos testing); `None` serves clean.
    pub faults: Option<FaultHook>,
    /// On-disk artifact store shared by every engine this server creates
    /// (keyed per module by its fingerprint, which each engine computes once
    /// when the server creates it). `None` keeps compilation process-local.
    pub store: Option<Arc<crate::ArtifactStore>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 256,
            max_batch: 16,
            faults: None,
            store: None,
        }
    }
}

impl ServerConfig {
    /// Same configuration with `workers` worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Same configuration with a queue bound of `capacity` requests.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Same configuration with a continuous-batching bound.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Same configuration with `hook` installed as its [`FaultHook`].
    pub fn with_faults(mut self, hook: impl Fn(u64) + Send + Sync + 'static) -> Self {
        self.faults = Some(FaultHook(Arc::new(hook)));
        self
    }

    /// Same configuration with an on-disk artifact store attached.
    pub fn with_store(mut self, store: Arc<crate::ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Counters of a running (or finished) [`Server`].
///
/// `accepted`, `completed`, `expired`, `rejected` and `rejected_shutdown`
/// are monotonic; after [`Server::shutdown`] returns, `accepted ==
/// completed + expired` — the zero-loss-drain guarantee (every accepted
/// request was answered: served, or shed at dequeue with
/// [`EngineError::DeadlineExceeded`]). Every snapshot is internally
/// consistent: `completed` and `expired` are read *before* the queue's
/// single-lock snapshot supplies `accepted` and `queue_depth`, so
/// `completed + expired + queue_depth <= accepted` holds in every
/// [`Server::stats`] result, however the reads race live workers. The
/// `cache` totals aggregate every engine's *consistent* snapshot (see
/// [`ExecutionEngine::snapshot`]): each engine's contribution is internally
/// torn-free, so `cache.lookups()` never double- or half-counts a request's
/// engine lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests fully served (their response was produced).
    pub completed: u64,
    /// Non-blocking submissions refused because the queue was full.
    pub rejected: u64,
    /// Submissions refused because shutdown had begun.
    pub rejected_shutdown: u64,
    /// Requests currently sitting in the queue.
    pub queue_depth: usize,
    /// Deepest the queue ever got — the backpressure high-water mark.
    pub queue_high_water: usize,
    /// Distinct deployed modules (shared engines) the server holds.
    pub engines: usize,
    /// Served-request counts per target name, sorted by name. A request is
    /// counted when its response is produced, so this always sums to
    /// `completed` — never to work merely started.
    pub per_target: Vec<(String, u64)>,
    /// Code-cache counters aggregated over every engine.
    pub cache: CacheStats,
    /// Online-compilation work units aggregated over every engine.
    pub online_work: u64,
    /// Distribution of time requests spent queued (accept → dequeue), in
    /// nanoseconds.
    pub queue_wait: Histogram,
    /// Distribution of time requests spent executing after dequeue, in
    /// nanoseconds.
    pub execute: Histogram,
    /// Distribution of served batch sizes (one sample per batch, counting
    /// only requests that actually executed — expired requests shed from a
    /// batch are not in it); `batch_sizes.sum()` equals `completed`.
    pub batch_sizes: Histogram,
    /// Requests shed at dequeue because their deadline had already passed
    /// (answered [`EngineError::DeadlineExceeded`], **not** counted in
    /// `completed`): `accepted == completed + expired` after shutdown.
    pub expired: u64,
    /// Requests cancelled cooperatively mid-execution by their deadline
    /// (answered [`EngineError::DeadlineExceeded`]; a subset of
    /// `completed` — the worker was freed, the books still balance).
    pub cancelled: u64,
    /// Always 0: every request runs once. Kept because the `e2e/` benchmark
    /// package reports it as `serve.retried`; it goes with the next
    /// `[benchmark]` PR.
    pub retried: u64,
}

impl ServerStats {
    /// Requests accepted but not yet answered (queued or running).
    ///
    /// [`Server::stats`] orders its reads so `completed + expired <=
    /// accepted` in every snapshot; the subtraction still saturates
    /// defensively for stats values assembled any other way.
    pub fn in_flight(&self) -> u64 {
        self.accepted
            .saturating_sub(self.completed)
            .saturating_sub(self.expired)
    }
}

/// Why [`BoundedQueue::push`] refused, and the item it hands back.
enum PushRefused<T> {
    /// At capacity (non-blocking pushes only).
    Full(T),
    Closed(T),
}

/// The queue's counters from one lock acquisition: `high_water >= depth`
/// and, for a `completed` read beforehand, `completed + depth <= accepted`.
struct QueueSnapshot {
    depth: usize,
    accepted: u64,
    high_water: usize,
}

/// Everything a [`BoundedQueue`] knows, behind its one mutex.
struct QueueState<T> {
    items: VecDeque<T>,
    /// Items ever accepted, counted with the insert that makes the item
    /// visible: no snapshot sees a consumer finish an uncounted item.
    accepted: u64,
    high_water: usize,
    open: bool,
    /// Threads waiting on `not_empty` / `not_full`. A condvar is notified
    /// only when its count is non-zero: `notify_*` is a futex syscall even
    /// with nobody waiting; paid on every push and pop it cost 7.7 % `serve_rps`.
    parked_poppers: usize,
    parked_pushers: usize,
}

/// A bounded MPMC FIFO: one mutex, a condvar per direction.
///
/// Every decision — is there room, is the queue open, is anyone parked — is
/// made under the lock that guards the items, so a waiter's check and park
/// are atomic with respect to every push, pop and close: no wakeup is lost.
/// Closing stops *intake* only — pending items drain, then poppers see
/// `false` — which is what makes graceful shutdown lossless.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    /// `items.len()`, stored under the lock by every push and pop for
    /// poppers to poll unlocked; a hint only, re-checked before any park.
    len: AtomicUsize,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                accepted: 0,
                high_water: 0,
                open: true,
                parked_poppers: 0,
                parked_pushers: 0,
            }),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue `item`, waiting for capacity if `block`; refusals return it.
    fn push(&self, item: T, block: bool) -> Result<(), PushRefused<T>> {
        let mut state = lock(&self.state);
        loop {
            if !state.open {
                return Err(PushRefused::Closed(item));
            }
            if state.items.len() < self.capacity {
                break;
            }
            if !block {
                return Err(PushRefused::Full(item));
            }
            state.parked_pushers += 1;
            state = wait(&self.not_full, state);
            state.parked_pushers -= 1;
        }
        state.items.push_back(item);
        self.len.store(state.items.len(), Ordering::Relaxed);
        state.accepted += 1;
        state.high_water = state.high_water.max(state.items.len());
        let wake = state.parked_poppers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Dequeue a batch into `out`: the oldest item plus up to
    /// `max_batch - 1` younger ones `compatible` with it, in FIFO order (the
    /// items left behind keep theirs). While the queue is open but empty it
    /// polls `len` unlocked for up to [`POLL_BUDGET`], then parks; returns
    /// `false` only once it is closed *and* fully drained.
    fn next_batch(
        &self,
        max_batch: usize,
        compatible: impl Fn(&T, &T) -> bool,
        out: &mut Vec<T>,
    ) -> bool {
        debug_assert!(out.is_empty());
        let mut state = lock(&self.state);
        if state.items.is_empty() && state.open {
            // Polling, not parked: a push meanwhile skips its notify.
            drop(state);
            poll_briefly(|| (self.len.load(Ordering::Relaxed) > 0).then_some(()));
            state = lock(&self.state);
        }
        let first = loop {
            if let Some(first) = state.items.pop_front() {
                break first;
            }
            if !state.open {
                return false;
            }
            state.parked_poppers += 1;
            state = wait(&self.not_empty, state);
            state.parked_poppers -= 1;
        };
        out.push(first);
        let mut idx = 0;
        while out.len() < max_batch && idx < state.items.len() {
            if compatible(&out[0], &state.items[idx]) {
                out.extend(state.items.remove(idx));
            } else {
                idx += 1;
            }
        }
        self.len.store(state.items.len(), Ordering::Relaxed);
        let wake = state.parked_pushers > 0;
        drop(state);
        if wake {
            // A batch frees several slots: every parked pusher re-checks.
            self.not_full.notify_all();
        }
        true
    }

    /// Stop intake and wake everyone blocked; pending items still drain.
    fn close(&self) {
        lock(&self.state).open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn snapshot(&self) -> QueueSnapshot {
        let state = lock(&self.state);
        QueueSnapshot {
            depth: state.items.len(),
            accepted: state.accepted,
            high_water: state.high_water,
        }
    }
}

/// A queued unit of work: the request, its response rendezvous, the cached
/// target fingerprint (computed once at submit so batch-key comparisons in
/// the queue are integer-cheap) and the accept timestamp.
struct Job {
    request: Request,
    tx: SyncSender<Response>,
    target_fp: u64,
    accepted_at: Instant,
}

impl Job {
    /// The continuous-batching key: jobs with equal keys are served by the
    /// same compiled program and may share a batch. Equal target
    /// *fingerprints* mean the targets are machine-code-identical, which is
    /// precisely the interchangeability batching needs.
    fn batch_key(&self) -> (u64, u64, JitOptions) {
        (
            self.request.module.fingerprint(),
            self.target_fp,
            self.request.options,
        )
    }
}

/// Two jobs may share a continuous batch: equal keys, and — a fingerprint
/// being an index, not an identity — the same module encoding.
fn same_batch(a: &Job, b: &Job) -> bool {
    a.batch_key() == b.batch_key() && a.request.module.is_encoded_as(&b.request.module.encoded)
}

/// A registry entry: the engine plus the canonical encoding of the module it
/// was deployed from — the identity every fingerprint match is checked
/// against.
struct EngineEntry {
    encoded: Arc<[u8]>,
    engine: Arc<ExecutionEngine>,
}

/// Per-worker observability state: touched only by its worker in steady
/// state (plus `stats()`), so the hot loop never contends on shared
/// counters. Histograms record in constant time without allocating.
#[derive(Default)]
struct WorkerMetrics {
    per_target: BTreeMap<String, u64>,
    queue_wait: Histogram,
    execute: Histogram,
    batch_sizes: Histogram,
}

/// State shared between the submission API and the worker pool.
struct Inner {
    queue: BoundedQueue<Job>,
    /// Module fingerprint → the shared engine of every module with that
    /// fingerprint (one, short of a collision); locked once per *batch*.
    engines: Mutex<HashMap<u64, Vec<EngineEntry>>>,
    max_batch: usize,
    completed: AtomicU64,
    rejected: AtomicU64,
    rejected_shutdown: AtomicU64,
    expired: AtomicU64,
    cancelled: AtomicU64,
    /// One metrics block per worker; [`Server::stats`] merges them.
    metrics: Vec<Mutex<WorkerMetrics>>,
    faults: Option<FaultHook>,
    /// On-disk artifact store attached to every engine at creation.
    store: Option<Arc<crate::ArtifactStore>>,
}

impl Inner {
    /// The shared engine for `module`, created on first sight. Racing
    /// requests for one module rendezvous on the registry lock and share a
    /// single engine — creation is cheap (no compilation), so it happens
    /// under the lock. Modules whose fingerprints collide get an engine each:
    /// the entry is picked by encoding, never by fingerprint alone.
    fn engine_for(&self, module: &ServeModule) -> Arc<ExecutionEngine> {
        let mut registry = lock(&self.engines);
        let entries = registry.entry(module.fingerprint()).or_default();
        if let Some(entry) = entries.iter().find(|e| module.is_encoded_as(&e.encoded)) {
            return Arc::clone(&entry.engine);
        }
        let mut engine = ExecutionEngine::from_arc(module.module_arc());
        if let Some(store) = &self.store {
            engine = engine.with_store(Arc::clone(store));
        }
        let engine = Arc::new(engine);
        entries.push(EngineEntry {
            encoded: Arc::clone(&module.encoded),
            engine: Arc::clone(&engine),
        });
        engine
    }
}

/// The serving front-end: one bounded queue, drained batch-wise by a worker
/// pool over fingerprint-deduplicated shared engines.
///
/// See the [module documentation](self) for the full contract. The server is
/// `Send + Sync`; clients on any number of threads submit through `&self`.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.worker_count)
            .field("queue_capacity", &self.inner.queue.capacity)
            .field("max_batch", &self.inner.max_batch)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Start a server: spawn the worker pool and open the queue.
    pub fn start(config: ServerConfig) -> Self {
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(config.queue_capacity),
            engines: Mutex::new(HashMap::new()),
            max_batch: config.max_batch.max(1),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            metrics: (0..worker_count)
                .map(|_| Mutex::new(WorkerMetrics::default()))
                .collect(),
            faults: config.faults,
            store: config.store,
        });
        let workers = (0..worker_count)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-{worker}"))
                    .spawn(move || worker_loop(&inner, worker))
                    .expect("cannot spawn serving worker")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
            worker_count,
        }
    }

    /// The number of worker threads (a `workers: 0` request resolved to the
    /// host's core count).
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Submit a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::ShuttingDown`] (with the request) once
    /// [`Server::shutdown`] has begun.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, SubmitError> {
        self.enqueue(request, true)
    }

    /// Submit a request without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::QueueFull`] when the queue is at capacity
    /// (counted in [`ServerStats::rejected`]) or
    /// [`SubmitError::ShuttingDown`] once shutdown has begun (counted in
    /// [`ServerStats::rejected_shutdown`]); both hand the request back.
    pub fn try_submit(&self, request: Request) -> Result<ResponseHandle, SubmitError> {
        self.enqueue(request, false)
    }

    fn enqueue(&self, request: Request, block: bool) -> Result<ResponseHandle, SubmitError> {
        // Exactly one response ever crosses the channel, so a rendezvous
        // buffer of 1 means the worker's send never blocks — even if the
        // client dropped the handle without waiting.
        let (tx, rx) = mpsc::sync_channel(1);
        let target_fp = request.target.fingerprint();
        let job = Job {
            request,
            tx,
            target_fp,
            accepted_at: Instant::now(),
        };
        match self.inner.queue.push(job, block) {
            // Counted as accepted under the queue lock, with the insert.
            Ok(()) => Ok(ResponseHandle { rx }),
            Err(PushRefused::Full(job)) => {
                self.inner.rejected.fetch_add(1, Ordering::SeqCst);
                Err(SubmitError::QueueFull(Box::new(job.request)))
            }
            Err(PushRefused::Closed(job)) => {
                // A refused submission must land in *some* counter, or flood
                // accounting (`accepted + rejections == attempts`) silently
                // breaks the moment shutdown begins.
                self.inner.rejected_shutdown.fetch_add(1, Ordering::SeqCst);
                Err(SubmitError::ShuttingDown(Box::new(job.request)))
            }
        }
    }

    /// Requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.snapshot().depth
    }

    /// Current counters; safe to read while the pool is serving.
    pub fn stats(&self) -> ServerStats {
        let mut cache = CacheStats::default();
        let mut online_work = 0u64;
        let engines = {
            let registry = lock(&self.inner.engines);
            let mut engines = 0;
            for entry in registry.values().flatten() {
                let snap = entry.engine.snapshot();
                cache += snap.stats;
                online_work += snap.online_work;
                engines += 1;
            }
            engines
        };
        let mut per_target: BTreeMap<String, u64> = BTreeMap::new();
        let mut queue_wait = Histogram::new();
        let mut execute = Histogram::new();
        let mut batch_sizes = Histogram::new();
        for metrics in &self.inner.metrics {
            let m = lock(metrics);
            for (name, count) in m.per_target.iter() {
                *per_target.entry(name.clone()).or_insert(0) += count;
            }
            queue_wait.merge(&m.queue_wait);
            execute.merge(&m.execute);
            batch_sizes.merge(&m.batch_sizes);
        }
        // `completed` and `expired` are read *before* the queue snapshot:
        // all three only grow, and a job is accepted (under the queue lock)
        // before any worker can complete or expire it, so this order
        // guarantees `completed + expired + queue_depth <= accepted` — depth
        // and accepted come from one lock acquisition, never racing reads.
        let completed = self.inner.completed.load(Ordering::SeqCst);
        let expired = self.inner.expired.load(Ordering::SeqCst);
        let queue = self.inner.queue.snapshot();
        ServerStats {
            accepted: queue.accepted,
            completed,
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            rejected_shutdown: self.inner.rejected_shutdown.load(Ordering::SeqCst),
            expired,
            cancelled: self.inner.cancelled.load(Ordering::SeqCst),
            retried: 0,
            queue_depth: queue.depth,
            queue_high_water: queue.high_water,
            engines,
            per_target: per_target.into_iter().collect(),
            cache,
            online_work,
            queue_wait,
            execute,
            batch_sizes,
        }
    }

    /// Gracefully shut down: refuse new submissions, drain every accepted
    /// request, join the workers and return the final counters
    /// (`completed + expired == accepted` on return). Idempotent — later
    /// calls just return the final stats.
    ///
    /// # Panics
    ///
    /// Propagates a panic from a worker thread. Kernel-execution panics are
    /// caught inside the worker and never reach here; this fires only on a
    /// genuine bug in the serving loop itself.
    pub fn shutdown(&self) -> ServerStats {
        self.drain().expect("a serving thread panicked");
        self.stats()
    }

    /// Close the queue and join the workers; returns the first panic one of
    /// them died with. A runaway in-flight kernel cannot stall the drain past
    /// its deadline: the worker running it enforces the deadline itself.
    fn drain(&self) -> std::thread::Result<()> {
        self.inner.queue.close();
        // The worker-list lock is held across the joins, so a concurrent
        // shutdown (or drop) blocks here until the first caller's drain
        // finishes — every shutdown returns genuinely final counters. Joins
        // return panics as values, so nothing poisons the lock.
        let mut outcome = Ok(());
        let mut workers = lock(&self.workers);
        for worker in workers.drain(..) {
            outcome = outcome.and(worker.join());
        }
        outcome
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still drains accepted work; clients that kept
        // their handles see every response. Unlike `shutdown()`, a worker
        // panic is *not* re-raised: drop may run during an unwind (e.g. the
        // test that observed ResponseLost), where a second panic would abort.
        let _ = self.drain();
    }
}

/// One worker: pull batches until the queue is closed *and* drained. A
/// worker-held [`FramePool`] recycles call frames across every request it
/// serves — the same amortization a sweep gets from its one pool — and
/// carries the deadline of the job being run ([`run_job`] sets it).
fn worker_loop(inner: &Inner, worker: usize) {
    let mut pool = FramePool::new();
    let mut batch: Vec<Job> = Vec::new();
    while inner
        .queue
        .next_batch(inner.max_batch, same_batch, &mut batch)
    {
        serve_batch(inner, worker, &mut pool, &mut batch);
    }
}

/// Everything one job run produces, alongside the outcome itself.
struct JobResult {
    outcome: Result<Execution, EngineError>,
    mem: Vec<u8>,
    execute_ns: u64,
    /// The deadline cancelled the run mid-flight.
    cancelled: bool,
}

/// Serve one continuous batch (all jobs share a batch key): resolve the
/// shared engine once, then run every job through exactly the execution
/// path an unbatched run uses, sharing one program fetch — so responses are
/// bit-identical to unbatched serving; batching only amortizes lookups.
///
/// Each job first passes the deadline shed: an already-expired request is
/// answered [`EngineError::DeadlineExceeded`] without executing and counted
/// `expired`.
fn serve_batch(inner: &Inner, worker: usize, pool: &mut FramePool, batch: &mut Vec<Job>) {
    let dequeued = Instant::now();
    let batch_len = batch.len();
    let engine = inner.engine_for(&batch[0].request.module);
    let target_name = batch[0].request.target.name.clone();
    // Fetched by the first job that runs, for all: the (target, options)
    // artifact every job would have looked up itself.
    let mut program = None;
    let mut served = 0u64;
    for job in batch.drain(..) {
        let Job {
            request,
            tx,
            accepted_at,
            ..
        } = job;
        let queue_wait_ns = saturating_ns(dequeued.duration_since(accepted_at));
        // Deadline shed: a request whose deadline passed while it queued is
        // answered without executing and counted `expired`, NOT `completed`
        // — load that can no longer meet its deadline costs a counter bump,
        // not a kernel run.
        if request.deadline.is_some_and(|at| Instant::now() >= at) {
            inner.expired.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Response {
                outcome: Err(EngineError::DeadlineExceeded),
                mem: request.mem,
                worker,
                queue_wait_ns,
                execute_ns: 0,
                batch: batch_len,
            });
            continue;
        }
        let result = run_job(inner, &engine, &mut program, request, pool);
        if result.cancelled {
            inner.cancelled.fetch_add(1, Ordering::SeqCst);
        }
        inner.completed.fetch_add(1, Ordering::SeqCst);
        served += 1;
        {
            // This worker's own metrics: uncontended in steady state (only
            // `stats()` ever takes the lock from another thread). The
            // per-target count lands *after* the request completed, so the
            // map never counts work that was merely started.
            let mut m = lock(&inner.metrics[worker]);
            m.queue_wait.record(queue_wait_ns);
            m.execute.record(result.execute_ns);
            if let Some(count) = m.per_target.get_mut(&target_name) {
                *count += 1;
            } else {
                m.per_target.insert(target_name.clone(), 1);
            }
        }
        // The client may have dropped its handle without waiting; a refused
        // send is not an error.
        let _ = tx.send(Response {
            outcome: result.outcome,
            mem: result.mem,
            worker,
            queue_wait_ns,
            execute_ns: result.execute_ns,
            batch: batch_len,
        });
    }
    if served > 0 {
        // One sample per batch, counting only the requests the worker
        // actually answered itself (expired sheds are excluded) — this is
        // what keeps `batch_sizes.sum() == completed`.
        lock(&inner.metrics[worker]).batch_sizes.record(served);
    }
}

/// Run one job of a batch, once: the fault hook, its program, its
/// kernel through the one [`crate::engine::simulate`] call, under its
/// deadline and the panic guard.
///
/// `program` is the batch's program, fetched by its first job to get this
/// far (a shed job or an unknown kernel never touches the cache) on that
/// job's execute clock and under its deadline. A failed fetch is not kept:
/// each client gets exactly the error an unbatched run would have produced.
///
/// A panic answers with [`EngineError::Panicked`] (payload capped at
/// [`PANIC_MESSAGE_CAP`] bytes) and costs the worker its frame pool
/// (recycled frames may have been mid-mutation when the unwind tore
/// through), but never the worker itself. Every other failure is answered
/// as the error it is.
fn run_job(
    inner: &Inner,
    engine: &ExecutionEngine,
    program: &mut Option<Arc<CompiledModule>>,
    request: Request,
    pool: &mut FramePool,
) -> JobResult {
    let Request {
        module,
        kernel,
        target,
        options,
        args,
        mut mem,
        deadline,
        tag,
    } = request;
    if module.module().function(&kernel).is_none() {
        // Unknown kernels fail before any cache traffic and before the
        // execute clock starts, as in an unbatched engine run.
        return JobResult {
            outcome: Err(EngineError::UnknownKernel(kernel)),
            mem,
            execute_ns: 0,
            cancelled: false,
        };
    }
    let started = Instant::now();
    // The first poll after `set_deadline` reads the clock, so a deadline
    // that passed during a latency fault raises `SimError::Cancelled` at the
    // run's first region.
    pool.set_deadline(deadline);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultHook(hook)) = &inner.faults {
            hook(tag);
        }
        let compiled = match program {
            Some(compiled) => compiled,
            None => program.insert(engine.program_for(&target, &options)?),
        };
        crate::engine::simulate(compiled, &target, &kernel, &args, &mut mem, pool)
    }));
    let mut outcome = ran.unwrap_or_else(|payload| {
        *pool = FramePool::new();
        Err(EngineError::Panicked(panic_message(payload.as_ref())))
    });
    pool.set_deadline(None);
    // A cooperative cancellation surfaces to the client as the deadline
    // error it is.
    let cancelled = matches!(outcome, Err(EngineError::Sim(SimError::Cancelled)));
    if cancelled {
        outcome = Err(EngineError::DeadlineExceeded);
    }
    JobResult {
        outcome,
        mem,
        execute_ns: saturating_ns(started.elapsed()),
        cancelled,
    }
}

/// Upper bound on the bytes of panic payload preserved in
/// [`EngineError::Panicked`]. Panic messages can embed arbitrary runtime
/// state (a formatted kernel argument, a huge assertion dump); responses
/// are queued and cloned into stats paths, so an unbounded payload is a memory-amplification vector.
pub const PANIC_MESSAGE_CAP: usize = 256;

/// Best-effort extraction of a panic payload's message, truncated to
/// [`PANIC_MESSAGE_CAP`] bytes (on a char boundary, with a marker).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
        *s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    if message.len() <= PANIC_MESSAGE_CAP {
        return message.to_owned();
    }
    let mut cut = PANIC_MESSAGE_CAP;
    while !message.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}… [truncated]", &message[..cut])
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;

    fn triple_module() -> ServeModule {
        ServeModule::new(compile_source("fn triple(x: i32) -> i32 { return 3 * x; }", "k").unwrap())
    }

    fn triple_request(module: &ServeModule, x: i64) -> Request {
        Request {
            module: module.clone(),
            kernel: "triple".into(),
            target: TargetDesc::x86_sse(),
            options: JitOptions::split(),
            args: vec![MachineValue::Int(x)],
            mem: vec![0u8; 64],
            deadline: None,
            tag: 0,
        }
    }

    /// Dequeue exactly one item (no batching) — the shape the
    /// queue-semantics tests want.
    fn pop1<T>(q: &BoundedQueue<T>) -> Option<T> {
        let mut out = Vec::new();
        if q.next_batch(1, |_, _| false, &mut out) {
            debug_assert_eq!(out.len(), 1);
            out.pop()
        } else {
            None
        }
    }

    /// How long a test waits for a thread before declaring it stranded.
    const STRANDED: Duration = Duration::from_secs(30);

    /// Run `f` on its own thread and receive its result through a channel, so
    /// a thread stranded on the queue fails the test (`recv_timeout`)
    /// instead of hanging it (`join`).
    fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Receiver<T> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx
    }

    /// Spin until `parked` says the thread under test has gone to sleep on
    /// the queue — the park is the interleaving these tests are about, so
    /// they wait for it instead of hoping a sleep was long enough.
    fn wait_until_parked<T>(q: &BoundedQueue<T>, parked: impl Fn(&QueueState<T>) -> bool) {
        let start = Instant::now();
        while !parked(&q.state.lock().unwrap()) {
            assert!(start.elapsed() < STRANDED, "the thread never parked");
            std::thread::yield_now();
        }
    }

    // --- BoundedQueue: deterministic backpressure semantics ---

    #[test]
    fn try_push_refuses_a_full_queue_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1u32, false).is_ok());
        assert!(q.push(2, false).is_ok());
        match q.push(3, false) {
            Err(PushRefused::Full(item)) => assert_eq!(item, 3),
            _ => panic!("a full queue must refuse non-blocking pushes"),
        }
        let snap = q.snapshot();
        assert_eq!(snap.depth, 2);
        assert_eq!(snap.accepted, 2, "a refusal is not an acceptance");
        assert_eq!(snap.high_water, 2);
        // Draining makes room again, FIFO order preserved.
        assert_eq!(pop1(&q), Some(1));
        assert!(q.push(3, false).is_ok());
        assert_eq!(pop1(&q), Some(2));
        assert_eq!(pop1(&q), Some(3));
        assert_eq!(
            q.snapshot().high_water,
            2,
            "high water is a maximum, not a level"
        );
    }

    #[test]
    fn blocking_push_waits_for_space_instead_of_refusing() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(10u32, true).is_ok());
        let qt = Arc::clone(&q);
        let pushed = watched(move || qt.push(20, true).is_ok());
        wait_until_parked(&q, |s| s.parked_pushers == 1);
        assert_eq!(q.snapshot().depth, 1, "the parked push inserted nothing");
        // Only this pop lets the pusher finish.
        assert_eq!(pop1(&q), Some(10));
        assert_eq!(pushed.recv_timeout(STRANDED), Ok(true));
        assert_eq!(pop1(&q), Some(20));
    }

    #[test]
    fn close_refuses_intake_but_drains_pending_items() {
        let q = BoundedQueue::new(4);
        assert!(q.push(1u32, false).is_ok());
        assert!(q.push(2, false).is_ok());
        q.close();
        match q.push(3, true) {
            Err(PushRefused::Closed(item)) => assert_eq!(item, 3),
            _ => panic!("a closed queue must refuse even blocking pushes"),
        }
        assert_eq!(pop1(&q), Some(1));
        assert_eq!(pop1(&q), Some(2));
        assert_eq!(pop1(&q), None, "closed and drained");
        assert_eq!(pop1(&q), None, "stays drained");
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let qt = Arc::clone(&q);
        let popped = watched(move || pop1(&qt));
        wait_until_parked(&q, |s| s.parked_poppers == 1);
        q.close();
        assert_eq!(popped.recv_timeout(STRANDED), Ok(None));
    }

    #[test]
    fn close_hands_a_blocked_pusher_its_item_back() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(1u32, true).is_ok());
        let qt = Arc::clone(&q);
        let refused = watched(move || qt.push(2, true).err());
        wait_until_parked(&q, |s| s.parked_pushers == 1);
        q.close();
        match refused.recv_timeout(STRANDED) {
            Ok(Some(PushRefused::Closed(item))) => assert_eq!(item, 2),
            Ok(_) => panic!("a pusher parked on a full queue must be refused by close"),
            Err(_) => panic!("close left a parked pusher asleep"),
        }
        assert_eq!(
            q.snapshot().accepted,
            1,
            "the refused item was never counted"
        );
        assert_eq!(pop1(&q), Some(1), "what was accepted still drains");
        assert_eq!(pop1(&q), None);
    }

    #[test]
    fn closed_drain_never_strands_a_popper() {
        // Regression (sharded predecessor): a popper could park forever on a
        // closed queue whose last item a sibling was still accounting for.
        // Hammer the closed drain: every popper must exit, nothing is lost.
        for round in 0..200 {
            let q = Arc::new(BoundedQueue::<u32>::new(64));
            for v in 0..8u32 {
                assert!(q.push(v, false).is_ok());
            }
            q.close();
            let (done_tx, done_rx) = mpsc::channel();
            let poppers: Vec<_> = (0..4)
                .map(|_| {
                    let qt = Arc::clone(&q);
                    let tx = done_tx.clone();
                    std::thread::spawn(move || {
                        let mut out = Vec::new();
                        let mut popped = 0usize;
                        while qt.next_batch(2, |_, _| true, &mut out) {
                            popped += out.len();
                            out.clear();
                        }
                        tx.send(popped).expect("watchdog receiver alive");
                    })
                })
                .collect();
            drop(done_tx);
            // The watchdog channel turns a stranded popper into a test
            // failure instead of a silent hang.
            let mut total = 0usize;
            for _ in 0..poppers.len() {
                total += done_rx.recv_timeout(STRANDED).unwrap_or_else(|_| {
                    panic!("round {round}: popper stranded on a closed, drained queue")
                });
            }
            assert_eq!(total, 8, "round {round}: lossless drain");
            for p in poppers {
                p.join().unwrap();
            }
        }
    }

    #[test]
    fn a_capacity_one_queue_hands_every_item_over_exactly_once() {
        // Capacity 1 with several threads on each side: nearly every push
        // parks on `not_full` and nearly every pop on `not_empty`, so this
        // lives on the wake paths the roomier tests only reach by luck.
        const PUSHERS: u32 = 3;
        const POPPERS: u32 = 3;
        const PER_PUSHER: u32 = 2_000;
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let pushers: Vec<_> = (0..PUSHERS)
            .map(|p| {
                let qt = Arc::clone(&q);
                watched(move || {
                    for i in 0..PER_PUSHER {
                        assert!(qt.push(p * PER_PUSHER + i, true).is_ok());
                    }
                })
            })
            .collect();
        let poppers: Vec<_> = (0..POPPERS)
            .map(|_| {
                let qt = Arc::clone(&q);
                watched(move || {
                    let mut seen = Vec::new();
                    let mut out = Vec::new();
                    while qt.next_batch(2, |_, _| true, &mut out) {
                        seen.append(&mut out);
                    }
                    seen
                })
            })
            .collect();
        for pushed in &pushers {
            pushed
                .recv_timeout(STRANDED)
                .expect("a pusher is stranded on a queue that keeps draining");
        }
        q.close();
        let mut seen = Vec::new();
        for popped in &poppers {
            seen.extend(
                popped
                    .recv_timeout(STRANDED)
                    .expect("a popper is stranded on a closed, drained queue"),
            );
        }
        seen.sort_unstable();
        let all: Vec<u32> = (0..PUSHERS * PER_PUSHER).collect();
        assert_eq!(seen, all, "every item popped exactly once");
        let snap = q.snapshot();
        assert_eq!(snap.accepted, u64::from(PUSHERS * PER_PUSHER));
        assert_eq!((snap.depth, snap.high_water), (0, 1));
    }

    #[test]
    fn next_batch_drains_compatible_items_in_fifo_order() {
        let q = BoundedQueue::new(16);
        for v in 1..=6u32 {
            assert!(q.push(v, false).is_ok());
        }
        let parity = |a: &u32, b: &u32| a % 2 == b % 2;
        let mut out = Vec::new();
        assert!(q.next_batch(8, parity, &mut out));
        assert_eq!(out, vec![1, 3, 5], "odd batch, order preserved");
        out.clear();
        assert!(q.next_batch(8, parity, &mut out));
        assert_eq!(out, vec![2, 4, 6], "left-behind items keep their order");
        assert_eq!(q.snapshot().depth, 0);
    }

    #[test]
    fn next_batch_respects_max_batch() {
        let q = BoundedQueue::new(16);
        for v in 0..5u32 {
            assert!(q.push(v, false).is_ok());
        }
        let mut out = Vec::new();
        assert!(q.next_batch(2, |_, _| true, &mut out));
        assert_eq!(out, vec![0, 1]);
        out.clear();
        assert!(q.next_batch(2, |_, _| true, &mut out));
        assert_eq!(out, vec![2, 3]);
        out.clear();
        assert!(q.next_batch(2, |_, _| true, &mut out));
        assert_eq!(out, vec![4], "a short tail still serves");
    }

    #[test]
    fn snapshot_is_consistent_under_churn() {
        let q = Arc::new(BoundedQueue::<u64>::new(32));
        let popped = Arc::new(AtomicU64::new(0));
        let mut producers = Vec::new();
        for _ in 0..2 {
            let qt = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    qt.push(i, true).ok();
                }
            }));
        }
        let qt = Arc::clone(&q);
        let popped_t = Arc::clone(&popped);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            while qt.next_batch(4, |_, _| true, &mut out) {
                // Count completions BEFORE the next observation can run, the
                // same order the server maintains.
                popped_t.fetch_add(out.len() as u64, Ordering::SeqCst);
                out.clear();
            }
        });
        // Observer: in every snapshot, completions + depth never exceed
        // accepted, and high water bounds depth.
        let mut last_accepted = 0u64;
        for _ in 0..200 {
            let done = popped.load(Ordering::SeqCst);
            let snap = q.snapshot();
            assert!(
                done + snap.depth as u64 <= snap.accepted,
                "tear: completed {done} + depth {} > accepted {}",
                snap.depth,
                snap.accepted
            );
            assert!(snap.high_water >= snap.depth);
            assert!(snap.accepted >= last_accepted, "accepted is monotonic");
            last_accepted = snap.accepted;
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        consumer.join().unwrap();
        assert_eq!(popped.load(Ordering::SeqCst), 1000, "lossless drain");
        assert_eq!(q.snapshot().accepted, 1000);
    }

    // --- Server ---

    #[test]
    fn server_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Server>();
        assert_send_sync::<ServeModule>();
    }

    #[test]
    fn identical_modules_share_one_engine() {
        // Two *separately compiled* modules from one source: equal wire
        // encodings, equal fingerprints, one engine, one compilation.
        let a = triple_module();
        let b = triple_module();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Fnv1a::hash(&encode_module(a.module())),
            "the fingerprint is FNV-1a over the canonical encoding"
        );
        let server = Server::start(ServerConfig::default().with_workers(2));
        let ha = server.submit(triple_request(&a, 1)).unwrap();
        let hb = server.submit(triple_request(&b, 2)).unwrap();
        assert_eq!(
            ha.wait().unwrap().outcome.unwrap().result,
            Some(MachineValue::Int(3))
        );
        assert_eq!(
            hb.wait().unwrap().outcome.unwrap().result,
            Some(MachineValue::Int(6))
        );
        let stats = server.shutdown();
        assert_eq!(stats.engines, 1, "byte-identical modules deduplicate");
        assert_eq!(stats.cache.compiles, 1);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.queue_wait.count(), 2, "every wait is timed");
        assert_eq!(stats.execute.count(), 2, "every execution is timed");
        assert_eq!(
            stats.batch_sizes.sum(),
            2,
            "batch sizes account for every served request"
        );
    }

    #[test]
    fn distinct_modules_get_distinct_engines() {
        let a = triple_module();
        let b = ServeModule::new(
            compile_source("fn triple(x: i32) -> i32 { return x * 3; }", "k").unwrap(),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        let server = Server::start(ServerConfig::default().with_workers(1));
        server
            .submit(triple_request(&a, 5))
            .unwrap()
            .wait()
            .unwrap();
        server
            .submit(triple_request(&b, 5))
            .unwrap()
            .wait()
            .unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.cache.compiles, 2);
    }

    #[test]
    fn submissions_after_shutdown_hand_the_request_back_and_are_counted() {
        let module = triple_module();
        let server = Server::start(ServerConfig::default().with_workers(1));
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 0);
        assert_eq!(stats.rejected_shutdown, 0);
        let err = server.submit(triple_request(&module, 7)).unwrap_err();
        match err {
            SubmitError::ShuttingDown(request) => {
                assert_eq!(request.kernel, "triple");
                assert_eq!(request.args, vec![MachineValue::Int(7)]);
            }
            SubmitError::QueueFull(_) => panic!("a closed queue is not a full queue"),
        }
        // try_submit refuses identically, and shutdown stays idempotent.
        assert!(matches!(
            server.try_submit(triple_request(&module, 8)),
            Err(SubmitError::ShuttingDown(_))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 0);
        assert_eq!(
            stats.rejected_shutdown, 2,
            "shutdown-time refusals are counted, not dropped"
        );
        assert_eq!(
            stats.rejected, 0,
            "full-queue and shutdown counters are distinct"
        );
    }

    #[test]
    fn unknown_kernels_come_back_as_engine_errors_with_the_memory() {
        let module = triple_module();
        let server = Server::start(ServerConfig::default().with_workers(1));
        let mut request = triple_request(&module, 1);
        request.kernel = "nope".into();
        request.mem = vec![0xaa; 32];
        let response = server.submit(request).unwrap().wait().unwrap();
        assert!(matches!(
            response.outcome,
            Err(EngineError::UnknownKernel(ref k)) if k == "nope"
        ));
        assert_eq!(
            response.mem,
            vec![0xaa; 32],
            "memory is returned either way"
        );
        assert_eq!(response.execute_ns, 0, "refused before the execute clock");
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1, "failed requests still complete");
        assert_eq!(
            stats.cache.lookups(),
            0,
            "unknown kernels never touch the cache, batched or not"
        );
    }

    #[test]
    fn per_target_counts_and_queue_high_water_are_tracked() {
        let module = triple_module();
        let server = Server::start(ServerConfig::default().with_workers(2));
        let mut handles = Vec::new();
        for i in 0..6 {
            let mut request = triple_request(&module, i);
            if i % 2 == 0 {
                request.target = TargetDesc::powerpc();
            }
            handles.push(server.submit(request).unwrap());
        }
        for handle in handles {
            handle.wait().unwrap().outcome.unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.per_target.len(), 2);
        assert_eq!(
            stats.per_target.iter().map(|(_, c)| c).sum::<u64>(),
            stats.completed
        );
        assert!(stats
            .per_target
            .iter()
            .any(|(t, c)| t == "powerpc" && *c == 3));
        assert!(stats
            .per_target
            .iter()
            .any(|(t, c)| t == "x86-sse" && *c == 3));
        assert!(stats.queue_high_water >= 1);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn dropping_the_server_drains_accepted_work() {
        let module = triple_module();
        let handle;
        {
            let server = Server::start(ServerConfig::default().with_workers(1));
            handle = server.submit(triple_request(&module, 9)).unwrap();
            // `server` drops here without an explicit shutdown.
        }
        let response = handle.wait().expect("drop drains, never discards");
        assert_eq!(
            response.outcome.unwrap().result,
            Some(MachineValue::Int(27))
        );
    }

    #[test]
    fn zero_workers_resolves_to_the_host_core_count() {
        let server = Server::start(ServerConfig::default());
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!(server.workers(), cores);
        server.shutdown();
    }

    // --- Panic safety ---

    #[test]
    fn a_panicking_kernel_answers_the_client_and_spares_the_worker() {
        let module = triple_module();
        // ONE worker: if the panic killed it, the later requests would hang
        // (and shutdown's completed == accepted guarantee would break).
        let server = Server::start(ServerConfig::default().with_workers(1).with_faults(|tag| {
            if tag == 13 {
                panic!("injected panic")
            }
        }));
        let before = server.submit(triple_request(&module, 2)).unwrap();
        let boom = server
            .submit(Request {
                tag: 13,
                ..triple_request(&module, 13)
            })
            .unwrap();
        let after = server.submit(triple_request(&module, 4)).unwrap();
        assert_eq!(
            before.wait().unwrap().outcome.unwrap().result,
            Some(MachineValue::Int(6))
        );
        let crashed = boom.wait().expect("a panicking kernel still answers");
        assert!(
            matches!(
                crashed.outcome,
                Err(EngineError::Panicked(ref msg)) if msg.contains("injected panic")
            ),
            "got {:?}",
            crashed.outcome
        );
        assert_eq!(
            after.wait().unwrap().outcome.unwrap().result,
            Some(MachineValue::Int(12)),
            "the worker survived the panic and kept serving"
        );
        let stats = server.shutdown();
        assert_eq!(stats.completed, 3, "panicked requests complete too");
        assert_eq!(stats.accepted, 3);
        assert_eq!(
            stats.per_target.iter().map(|(_, c)| c).sum::<u64>(),
            3,
            "per-target counts requests that actually completed"
        );
    }

    #[test]
    fn a_non_string_panic_payload_is_answered_and_the_worker_serves_on() {
        let module = triple_module();
        let server = Server::start(ServerConfig::default().with_workers(1).with_faults(|tag| {
            if tag == 7 {
                std::panic::panic_any(7u32);
            }
        }));
        let boom = server
            .submit(Request {
                tag: 7,
                ..triple_request(&module, 7)
            })
            .unwrap();
        let after = server.submit(triple_request(&module, 4)).unwrap();
        let crashed = boom.wait().expect("a panicking hook still answers");
        assert!(
            matches!(
                crashed.outcome,
                Err(EngineError::Panicked(ref msg)) if msg == "non-string panic payload"
            ),
            "got {:?}",
            crashed.outcome
        );
        assert_eq!(
            after.wait().unwrap().outcome.unwrap().result,
            Some(MachineValue::Int(12)),
            "the worker survived the panic and kept serving"
        );
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.accepted, stats.completed + stats.expired);
    }

    // --- Continuous batching ---

    /// Tag of the request that occupies a one-worker server while a test
    /// piles up a known backlog behind it, to observe how the backlog is
    /// swept into batches.
    const SENTINEL_TAG: u64 = 0x57A11;

    /// A one-worker server that holds the request tagged [`SENTINEL_TAG`]
    /// for 400 ms before executing it: a latency fault, so its result is
    /// untouched. The backlog has to be queued within that time — see
    /// [`assert_still_stalled`].
    fn stalling_server() -> Server {
        Server::start(
            ServerConfig::default()
                .with_workers(1)
                .with_max_batch(8)
                .with_queue_capacity(64)
                .with_faults(|tag| {
                    if tag == SENTINEL_TAG {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                }),
        )
    }

    /// The premise of a backlog test: the sentinel was still being held when
    /// the last request of the backlog was queued.
    fn assert_still_stalled(sentinel: &mut ResponseHandle) {
        assert!(
            matches!(sentinel.try_wait(), Ok(None)),
            "this thread was descheduled for longer than the sentinel's latency fault"
        );
    }

    #[test]
    fn a_backlog_of_one_key_is_served_as_one_bit_identical_batch() {
        let module = triple_module();
        let server = stalling_server();
        // Occupy the single worker with the stalling sentinel…
        let mut sentinel = server
            .submit(Request {
                tag: SENTINEL_TAG,
                ..triple_request(&module, 0)
            })
            .unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        // …then build a same-key backlog it must drain as one batch.
        let handles: Vec<_> = (1..=8)
            .map(|i| server.submit(triple_request(&module, i)).unwrap())
            .collect();
        assert_still_stalled(&mut sentinel);
        sentinel.wait().unwrap().outcome.unwrap();
        let engine = crate::ExecutionEngine::from_arc(module.module_arc());
        let mut pool = FramePool::new();
        for (i, handle) in handles.into_iter().enumerate() {
            let x = i as i64 + 1;
            let response = handle.wait().unwrap();
            assert_eq!(response.batch, 8, "the backlog was served as one batch");
            // Bit-identity: the batched response equals a fresh unbatched
            // run — same Execution record, same memory image.
            let mut reference = triple_request(&module, x);
            let expect = engine
                .run_pooled(
                    &reference.target,
                    &reference.options,
                    &reference.kernel,
                    &reference.args,
                    &mut reference.mem,
                    &mut pool,
                )
                .unwrap();
            assert_eq!(response.outcome.unwrap(), expect);
            assert_eq!(response.mem, reference.mem);
        }
        let stats = server.shutdown();
        assert_eq!(stats.batch_sizes.max(), 8);
        assert_eq!(stats.batch_sizes.sum(), stats.completed);
        assert_eq!(
            stats.cache.compiles, 1,
            "one compilation serves the whole run"
        );
        assert_eq!(
            stats.cache.lookups(),
            stats.batch_sizes.count(),
            "one cache lookup per batch, not per request"
        );
    }

    // --- Fingerprint collisions ---

    #[test]
    fn colliding_fingerprints_are_served_by_their_own_engines() {
        // Two different modules under one hand-set fingerprint — what a
        // 64-bit FNV-1a collision (which a client can engineer) looks like
        // to the server. Both kernels are named `f`, so being served by the
        // other module's engine would be a silently wrong number.
        let forge = |source: &str| {
            let mut module = ServeModule::new(compile_source(source, "k").unwrap());
            module.fingerprint = 0x00C0_111D_ED00;
            module
        };
        let triple = forge("fn f(x: i32) -> i32 { return 3 * x; }");
        let square = forge("fn f(x: i32) -> i32 { return x * x; }");
        assert_ne!(triple.encoded, square.encoded);
        let request = |module: &ServeModule, x: i64| Request {
            kernel: "f".into(),
            ..triple_request(module, x)
        };
        let server = stalling_server();
        // Stall the worker, then interleave the two modules behind it so one
        // queue sweep sees both under equal batch keys.
        let mut sentinel = server
            .submit(Request {
                tag: SENTINEL_TAG,
                ..request(&triple, 0)
            })
            .unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let handles: Vec<_> = (4..12)
            .map(|x| {
                let module = if x % 2 == 0 { &triple } else { &square };
                (x, server.submit(request(module, x)).unwrap())
            })
            .collect();
        assert_still_stalled(&mut sentinel);
        sentinel.wait().unwrap().outcome.unwrap();
        for (x, handle) in handles {
            let response = handle.wait().unwrap();
            let want = if x % 2 == 0 { 3 * x } else { x * x };
            assert_eq!(
                response.outcome.unwrap().result,
                Some(MachineValue::Int(want)),
                "x = {x} was served from the wrong module"
            );
            assert_eq!(response.batch, 4, "a sweep takes one module's jobs only");
        }
        let stats = server.shutdown();
        assert_eq!(stats.engines, 2, "one engine per encoding");
        assert_eq!(stats.cache.compiles, 2);
        assert_eq!((stats.accepted, stats.completed, stats.expired), (9, 9, 0));
        assert_eq!(stats.batch_sizes.sum(), stats.completed);
    }

    // --- Deadlines and fault hooks ---

    #[test]
    fn a_shed_request_never_triggers_a_compile() {
        let module = triple_module();
        let server = Server::start(ServerConfig::default().with_workers(1));
        let passed = Instant::now();
        let request = |x: i64, expired: bool| Request {
            deadline: expired.then_some(passed),
            ..triple_request(&module, x)
        };
        // A cold key whose every request is shed: nothing is fetched.
        let handles: Vec<_> = (0..8)
            .map(|x| server.submit(request(x, true)).unwrap())
            .collect();
        for handle in handles {
            let outcome = handle.wait().unwrap().outcome;
            assert!(matches!(outcome, Err(EngineError::DeadlineExceeded)));
        }
        let stats = server.stats();
        assert_eq!((stats.expired, stats.completed), (8, 0));
        let cache = (stats.cache.compiles, stats.cache.lookups());
        assert_eq!((cache, stats.batch_sizes.count()), ((0, 0), 0));
        // Shed and served requests interleaved on the key: one fetch per
        // batch that serves anyone, none for a batch that serves no one.
        let handles: Vec<_> = (0..16)
            .map(|x| server.submit(request(x, x % 2 == 0)).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let stats = server.shutdown();
        assert_eq!((stats.expired, stats.completed), (16, 8));
        assert_eq!(stats.cache.compiles, 1);
        assert_eq!(stats.cache.lookups(), stats.batch_sizes.count());
    }

    #[test]
    fn a_cancelled_request_leaves_no_deadline_behind() {
        // `sum(n)` pays one back edge per term: at this `n` it runs for
        // seconds, far past the deadline; at a small one it returns at once.
        let module = ServeModule::new(
            compile_source(
                "fn sum(n: i32) -> i32 {
                     let s: i32 = 0;
                     for (let i: i32 = 0; i < n; i = i + 1) { s = s + i; }
                     return s;
                 }",
                "k",
            )
            .unwrap(),
        );
        let sum_request = |n: i64, deadline: Option<Instant>| Request {
            kernel: "sum".into(),
            deadline,
            ..triple_request(&module, n)
        };
        let server = Server::start(ServerConfig::default().with_workers(1));
        // 20 ms rather than 1 ms: the request must still be dequeued in
        // time, or it is shed (`expired`) instead of cancelled mid-run.
        let deadline = Instant::now() + Duration::from_millis(20);
        let doomed = server
            .submit(sum_request(200_000_000, Some(deadline)))
            .unwrap();
        let response = doomed.wait().unwrap();
        assert!(
            matches!(response.outcome, Err(EngineError::DeadlineExceeded)),
            "got {:?}",
            response.outcome
        );
        // The same worker, the same frame pool, no deadline: a deadline left
        // behind would cancel this run at its first region.
        let response = server
            .submit(sum_request(10, None))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            response.outcome.unwrap().result,
            Some(MachineValue::Int(45))
        );
        let stats = server.shutdown();
        assert_eq!(
            (stats.cancelled, stats.expired),
            (1, 0),
            "cancelled mid-run, not shed"
        );
        assert_eq!((stats.accepted, stats.completed), (2, 2));
    }

    #[test]
    fn a_deadline_that_passes_during_a_latency_fault_cancels_the_run() {
        // The request is dequeued well inside its deadline; the injected
        // latency (100 ms) outlasts it. The deadline is set before the fault
        // fires, so the run reads the clock at its first region and is
        // cancelled before it executes.
        let module = triple_module();
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let server = Server::start(ServerConfig::default().with_workers(1).with_faults(
            move |tag| {
                counted.fetch_add(1, Ordering::SeqCst);
                if tag == 5 {
                    std::thread::sleep(Duration::from_millis(100));
                }
            },
        ));
        let mut request = triple_request(&module, 4);
        request.tag = 5;
        request.deadline = Some(Instant::now() + Duration::from_millis(25));
        let response = server.submit(request).unwrap().wait().unwrap();
        assert!(
            matches!(response.outcome, Err(EngineError::DeadlineExceeded)),
            "got {:?}",
            response.outcome
        );
        let stats = server.shutdown();
        assert_eq!(
            (stats.cancelled, stats.expired, calls.load(Ordering::SeqCst)),
            (1, 0, 1),
            "cancelled after the fault, not shed"
        );
        assert_eq!((stats.accepted, stats.completed), (1, 1));
    }

    #[test]
    fn panic_payloads_are_capped_at_a_fixed_size() {
        let short = panic_message(&"boom".to_owned() as &(dyn std::any::Any + Send));
        assert_eq!(short, "boom");
        let huge = "x".repeat(PANIC_MESSAGE_CAP * 64);
        let capped = panic_message(&huge as &(dyn std::any::Any + Send));
        assert!(
            capped.len() < PANIC_MESSAGE_CAP + 32,
            "got {}",
            capped.len()
        );
        assert!(capped.ends_with("… [truncated]"));
        assert!(capped.starts_with(&"x".repeat(PANIC_MESSAGE_CAP)));
        // A multibyte char straddling the cap must not split (that would
        // panic inside the panic handler — the one place that must not).
        let awkward = format!("{}é{}", "y".repeat(PANIC_MESSAGE_CAP - 1), "z".repeat(64));
        let cut = panic_message(&awkward as &(dyn std::any::Any + Send));
        assert!(cut.ends_with("… [truncated]"));
        assert!(!cut.contains('\u{FFFD}'));
        assert_eq!(
            &cut[..PANIC_MESSAGE_CAP - 1],
            &"y".repeat(PANIC_MESSAGE_CAP - 1)
        );
    }

    // --- Polling before parking, and the lost response ---

    /// A response rendezvous whose sending half the test holds, standing in
    /// for the worker that owns it.
    fn bare_handle() -> (SyncSender<Response>, ResponseHandle) {
        let (tx, rx) = mpsc::sync_channel(1);
        (tx, ResponseHandle { rx })
    }

    #[test]
    fn a_sender_dropped_before_the_wait_is_a_lost_response() {
        let (tx, mut handle) = bare_handle();
        drop(tx);
        assert_eq!(handle.try_wait().err(), Some(ResponseLost));
        assert_eq!(handle.wait().err(), Some(ResponseLost));
    }

    #[test]
    fn a_sender_dropped_after_the_poll_window_is_a_lost_response() {
        let (tx, handle) = bare_handle();
        // Dropped only after the waiter's poll ran out, so the answer comes
        // from the blocking `recv`.
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(2 * POLL_BUDGET);
            drop(tx);
        });
        assert_eq!(handle.wait().err(), Some(ResponseLost));
        dropper.join().unwrap();
    }

    #[test]
    fn a_response_slower_than_the_poll_budget_arrives_bit_identical() {
        let module = triple_module();
        let serve_once = |latency: Duration| {
            let server = Server::start(
                ServerConfig::default()
                    .with_workers(1)
                    .with_faults(move |_| std::thread::sleep(latency)),
            );
            let started = Instant::now();
            let handle = server
                .submit(Request {
                    tag: 1,
                    ..triple_request(&module, 14)
                })
                .unwrap();
            let response = handle.wait().expect("a slow response is not a lost one");
            (response, started.elapsed(), server.shutdown())
        };
        let (slow, waited, _) = serve_once(Duration::from_millis(5));
        assert!(waited >= Duration::from_millis(5), "waited only {waited:?}");
        let (fast, _, _) = serve_once(Duration::ZERO);
        assert_eq!(slow.mem, fast.mem);
        assert_eq!(slow.outcome.unwrap(), fast.outcome.unwrap());
    }

    #[test]
    fn a_popper_whose_poll_expires_parks_and_a_later_push_wakes_it() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let qt = Arc::clone(&q);
        let popped = watched(move || pop1(&qt));
        wait_until_parked(&q, |s| s.parked_poppers == 1);
        assert!(q.push(7, false).is_ok());
        assert_eq!(popped.recv_timeout(STRANDED), Ok(Some(7)));
    }

    #[test]
    fn close_during_a_poppers_poll_ends_its_wait() {
        for round in 0..50 {
            let q = Arc::new(BoundedQueue::<u32>::new(4));
            let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let (qt, flag) = (Arc::clone(&q), Arc::clone(&started));
            let popped = watched(move || {
                flag.store(true, Ordering::SeqCst);
                pop1(&qt)
            });
            // Close as soon as the popper is in `next_batch`: it finds the
            // queue empty, so this lands in its poll in all but a few rounds.
            while !started.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            q.close();
            assert_eq!(popped.recv_timeout(STRANDED), Ok(None), "round {round}");
        }
    }

    #[test]
    fn shutdown_while_the_workers_poll_drains_every_request() {
        let module = triple_module();
        for round in 0..20 {
            let server = Server::start(ServerConfig::default().with_workers(2));
            // Window-1 round trips leave the workers polling an empty queue…
            for x in 0..4 {
                let response = server.submit(triple_request(&module, x)).unwrap();
                response.wait().unwrap().outcome.unwrap();
            }
            // …where the close of this shutdown finds them.
            let pending: Vec<_> = (4..8)
                .map(|x| (x, server.submit(triple_request(&module, x)).unwrap()))
                .collect();
            let stats = server.shutdown();
            assert_eq!(stats.accepted, 8, "round {round}");
            assert_eq!(stats.accepted, stats.completed + stats.expired);
            for (x, handle) in pending {
                let response = handle.wait().expect("shutdown drains, never discards");
                assert_eq!(
                    response.outcome.unwrap().result,
                    Some(MachineValue::Int(3 * x))
                );
            }
        }
    }
}
