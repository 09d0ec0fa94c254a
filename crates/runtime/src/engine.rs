//! The shared, cached execution layer of the runtime.
//!
//! Split compilation (Cohen & Rohou, DAC 2010) only pays off if the expensive
//! work happens **once**: the offline compiler analyzes and annotates a module
//! a single time, and the online step for each concrete core stays cheap. The
//! [`ExecutionEngine`] enforces the same discipline at run time: it owns one
//! deployed module (behind an [`Arc`], so deployments can be shared) and a
//! code cache keyed by `(`[`TargetDesc`]`, [`JitOptions`])`, compared by
//! value, so each distinct (core type, JIT configuration) pair is compiled
//! **exactly once** no matter how many kernels, repeats or cores ask for it.
//! Compiled programs are handed out as [`Arc<CompiledModule>`] — nothing is
//! ever recompiled or cloned on the hot path.
//!
//! Since the pre-decoded execution representation landed, the deploy-time
//! step also *prepares* each compiled program
//! ([`splitc_targets::PreparedProgram`]): blocks are flattened into one
//! linear instruction stream, jumps become instruction offsets, call targets
//! become dense function indices and every register index is validated once.
//! Cached runs execute that prepared form directly; with
//! [`ExecutionEngine::run_pooled`] they also recycle call frames from a
//! caller-held [`FramePool`], so the steady-state run path performs no
//! allocation and no per-instruction decoding at all.
//!
//! # Concurrency
//!
//! The engine is `Send + Sync` and built for many threads hammering one
//! deployment (the [`crate::serve`] worker pool):
//!
//! * the cache's whole mutable state — the entries and the [`CacheStats`]
//!   counters — is **one struct behind one lock**. The critical section of a
//!   hit is a scan comparing the requested pair with each resident one (a
//!   name compare rejects most) and an [`Arc`] clone: no hashing, no
//!   allocation, tiny next to the run that follows, so one lock is not the
//!   bottleneck;
//! * compilation happens **outside** the lock. A cold lookup registers an
//!   *in-flight* marker under the lock, releases it, and compiles; a second
//!   thread racing on the same cold key finds the marker and waits on it
//!   instead of compiling again. Two threads racing on one cold key produce
//!   **exactly one** compilation — the waiter counts as a cache hit;
//! * every counter moves in the same acquisition as the map change it
//!   describes, and [`ExecutionEngine::snapshot`] reads under that lock. A
//!   snapshot taken while workers are mid-flight is therefore *consistent*:
//!   it never tears a single lookup apart, successive snapshots are
//!   pointwise non-decreasing, and `compiles + disk_hits` always equals the
//!   number of resident entries ([`CacheSnapshot::live`]). The serving layer
//!   ([`crate::serve`]) relies on exactly these guarantees when it reports
//!   cache counters from a live worker pool.
//!
//! Nothing is ever evicted: the cache holds at most one entry per distinct
//! (target, options) pair, and a deployment meets few of them. The target's
//! [`fingerprint`](TargetDesc::fingerprint) is only part of the on-disk
//! [`StoreKey`], computed when a cold miss probes an attached store.
//!
//! # Example
//!
//! ```
//! use splitc_minic::compile_source;
//! use splitc_jit::JitOptions;
//! use splitc_runtime::ExecutionEngine;
//! use splitc_targets::{MachineValue, TargetDesc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile_source(
//!     "fn triple(x: i32) -> i32 { return 3 * x; }",
//!     "kernels",
//! )?;
//! let engine = ExecutionEngine::new(module);
//!
//! let target = TargetDesc::powerpc();
//! let mut mem = vec![0u8; 64];
//! for _ in 0..10 {
//!     let run = engine.run(&target, &JitOptions::split(), "triple", &[MachineValue::Int(14)], &mut mem)?;
//!     assert_eq!(run.result, Some(MachineValue::Int(42)));
//! }
//! // Ten runs, one online compilation.
//! assert_eq!(engine.stats().compiles, 1);
//! assert_eq!(engine.stats().hits, 9);
//! # Ok(())
//! # }
//! ```

use crate::store::{ArtifactStore, StoreKey, StoreLoad};
use splitc_jit::{compile_module, JitError, JitOptions, JitStats};
use splitc_minic::CompileError;
use splitc_targets::{
    Fnv1a, FramePool, MProgram, MachineValue, PreparedProgram, SimError, SimStats, TargetDesc,
    DEFAULT_SIM_FUEL,
};
use splitc_vbc::{encode_module, Module};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Any error that can occur along the offline/online pipeline or at run time.
///
/// This is the single error type of the whole execution stack (the `splitc`
/// facade re-exports it as `PipelineError`), so both halves of the system
/// report failures identically.
#[derive(Debug)]
pub enum EngineError {
    /// Front-end (mini-C) error during the offline step.
    Frontend(CompileError),
    /// Online compilation failed.
    Jit(JitError),
    /// Simulated execution failed.
    Sim(SimError),
    /// The requested kernel does not exist in the deployed module.
    UnknownKernel(String),
    /// Execution panicked (caught by the serving tier's panic-safe worker
    /// loop, which answers the client with this instead of dying). The
    /// payload is the panic message, truncated to a fixed cap by the
    /// serving tier so a pathological payload cannot bloat responses.
    Panicked(String),
    /// The request's deadline passed before it finished: either shed at
    /// dequeue (it expired while queued) or cancelled cooperatively
    /// mid-execution. Says nothing about the program.
    DeadlineExceeded,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Frontend(e) => write!(f, "front-end error: {e}"),
            EngineError::Jit(e) => write!(f, "online compilation failed: {e}"),
            EngineError::Sim(e) => write!(f, "simulated execution failed: {e}"),
            EngineError::UnknownKernel(k) => write!(f, "unknown kernel {k}"),
            EngineError::Panicked(msg) => write!(f, "execution panicked: {msg}"),
            EngineError::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Frontend(e) => Some(e),
            EngineError::Jit(e) => Some(e),
            EngineError::Sim(e) => Some(e),
            EngineError::UnknownKernel(_) => None,
            EngineError::Panicked(_) => None,
            EngineError::DeadlineExceeded => None,
        }
    }
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Frontend(e)
    }
}

impl From<JitError> for EngineError {
    fn from(e: JitError) -> Self {
        EngineError::Jit(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// One online compilation of the deployed module for one (target, options)
/// pair: the machine program, the JIT statistics of producing it, and the
/// pre-decoded execution form built at deploy time.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModule {
    /// The generated machine program.
    pub program: MProgram,
    /// Cost and outcome of the online compilation that produced it.
    pub jit: JitStats,
    /// Deploy-time pre-decoded form of `program`: flat instruction streams,
    /// resolved jumps and call indices, prepare-time-validated registers.
    /// Every run served from the cache executes this, never re-decoding the
    /// `MProgram` — the split-compilation discipline applied to execution.
    pub prepared: PreparedProgram,
}

/// Result of executing one kernel once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// The kernel's return value, if any.
    pub result: Option<MachineValue>,
    /// Raw simulator statistics (cycles, instructions, memory traffic, spills).
    pub stats: SimStats,
    /// Online compilation statistics for the module on this target (cached:
    /// the same values are reported for every run that reuses the program).
    pub jit: JitStats,
    /// Cycles scaled by the target's clock factor, comparable across cores.
    pub scaled_cycles: f64,
}

impl Execution {
    /// Dynamic spill traffic (stores plus reloads) observed during execution.
    pub fn spill_ops(&self) -> u64 {
        self.stats.spill_stores + self.stats.spill_reloads
    }
}

/// Code-cache counters of an [`ExecutionEngine`].
///
/// `compiles + hits + disk_hits` is the total number of program lookups; the
/// gap between compiles and the rest is the amortization story of the paper:
/// after the first run per (target, options) pair, the online compiler never
/// runs again. With an on-disk [`crate::ArtifactStore`] attached, even the
/// *first* lookup of a process can skip the compiler: `disk_hits` counts
/// programs loaded from a prior process's compilation, `disk_misses` cold
/// keys that had no entry on disk, and `disk_rejects` entries that existed
/// but failed validation (and were overwritten by the fresh compile). All
/// three stay 0 when no store is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Online compilations performed (cache misses).
    pub compiles: u64,
    /// Lookups served from the in-memory cache without compiling (including
    /// lookups that waited on a racing thread's in-flight compilation).
    pub hits: u64,
    /// Lookups served by loading a validated artifact from the on-disk
    /// store instead of compiling.
    pub disk_hits: u64,
    /// Store probes that found no entry for the key (followed by a fresh
    /// compile that then populated the store).
    pub disk_misses: u64,
    /// Store probes that found an entry but rejected it (corrupt, truncated,
    /// or version-skewed; followed by a fresh compile that overwrote it).
    pub disk_rejects: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.compiles += other.compiles;
        self.hits += other.hits;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_rejects += other.disk_rejects;
    }
}

impl CacheStats {
    /// Total lookups (compiles plus in-memory hits plus disk hits).
    pub fn lookups(&self) -> u64 {
        self.compiles + self.hits + self.disk_hits
    }
}

/// The slot racing threads rendezvous on: set exactly once, either with the
/// shared compiled program or with the compile error.
type InFlightCell = OnceLock<Result<Arc<CompiledModule>, JitError>>;

/// One slot of the code cache.
#[derive(Debug)]
enum Entry {
    /// Compiled and cached.
    Ready(Arc<CompiledModule>),
    /// A thread is compiling this key right now; wait on the cell.
    InFlight(Arc<InFlightCell>),
}

/// The cache's whole mutable state, behind the engine's one lock. Every
/// counter moves in the same acquisition as the map change it describes,
/// which is what makes [`ExecutionEngine::snapshot`] consistent.
#[derive(Debug, Default)]
struct Cache {
    /// One slot per distinct (target, options) pair.
    entries: Vec<(TargetDesc, JitOptions, Entry)>,
    stats: CacheStats,
    /// Online-compilation work units spent so far.
    online_work: u64,
}

impl Cache {
    /// Where the `(target, options)` slot is: both compared by value.
    fn position(&self, target: &TargetDesc, options: &JitOptions) -> Option<usize> {
        self.entries
            .iter()
            .position(|(t, o, _)| o == options && t == target)
    }

    /// Drop the `(target, options)` slot, so a later request can retry.
    fn remove(&mut self, target: &TargetDesc, options: &JitOptions) {
        if let Some(i) = self.position(target, options) {
            self.entries.swap_remove(i);
        }
    }
}

/// A consistent view of the engine's cache, taken under its lock (see
/// [`ExecutionEngine::snapshot`]).
///
/// Because each counter is updated in the same lock acquisition as the cache
/// mutation it describes, any snapshot — even one taken while worker threads
/// are mid-lookup — satisfies:
///
/// * `stats.lookups() == stats.compiles + stats.hits + stats.disk_hits`
///   (definitional);
/// * `live == stats.compiles + stats.disk_hits` — every resident entry got
///   there by a compile or a validated disk load, and no lookup is ever half
///   counted;
/// * successive snapshots are pointwise non-decreasing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Counter totals at the snapshot instant.
    pub stats: CacheStats,
    /// Total online-compilation work units spent at the snapshot instant.
    pub online_work: u64,
    /// Compiled entries resident at the snapshot instant, counted in the map;
    /// always exactly `stats.compiles + stats.disk_hits`.
    pub live: usize,
}

/// Unwind-safety net for the compiling thread: if `compile_module` panics,
/// drop still removes the in-flight marker (so later lookups retry) and
/// poisons the cell with an error (so waiters wake instead of blocking
/// forever while the panic propagates).
struct InFlightGuard<'a> {
    cache: &'a Mutex<Cache>,
    target: &'a TargetDesc,
    options: &'a JitOptions,
    cell: &'a Arc<InFlightCell>,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Ok(mut guard) = self.cache.lock() {
            guard.remove(self.target, self.options);
        }
        let _ = self.cell.set(Err(JitError::Internal(
            "online compilation panicked".to_owned(),
        )));
    }
}

/// An on-disk store attached to an engine, with the module fingerprint
/// (over the canonical vbc encoding) that keys this deployment's entries.
#[derive(Debug)]
struct StoreHandle {
    store: Arc<ArtifactStore>,
    module_fp: u64,
}

/// What the compiling thread's pre-compile store probe found. Carried into
/// the bookkeeping block so the right disk counter moves under the lock,
/// with the cache mutation it explains.
enum DiskProbe {
    /// No store attached.
    NoStore,
    /// A validated artifact was loaded; no compilation needed.
    Hit,
    /// No entry on disk for this key; compile and then populate it.
    Miss(StoreKey),
    /// An entry existed but failed validation; compile and overwrite it.
    Reject(StoreKey),
}

/// The deploy-time step after code generation (fresh or loaded from the
/// store): pre-decode `program` once, so no run ever pays preparation. A
/// prepare failure means the JIT emitted invalid code — surfaced as an
/// internal JIT error so every entry point and every waiter sees one shape.
fn prepare_program(
    program: MProgram,
    jit: JitStats,
    target: &TargetDesc,
    options: &JitOptions,
) -> Result<CompiledModule, JitError> {
    let prepared = PreparedProgram::prepare_with(&program, target, options.fuse)
        .map_err(|e| JitError::Internal(format!("deploy-time preparation failed: {e}")))?;
    Ok(CompiledModule {
        program,
        jit,
        prepared,
    })
}

/// The whole online step: compile `module` for `target`, then prepare it.
fn compile(
    module: &Module,
    target: &TargetDesc,
    options: &JitOptions,
) -> Result<CompiledModule, JitError> {
    let (program, jit) = compile_module(module, target, options)?;
    prepare_program(program, jit, target, options)
}

/// A deployed module plus a shared cache of online-compiled code.
///
/// See the [module documentation](self) for the full story; in short, the
/// engine guarantees one online compilation per distinct
/// `(TargetDesc, JitOptions)` pair — even under concurrent cold
/// lookups — and shares the compiled programs via [`Arc`].
#[derive(Debug)]
pub struct ExecutionEngine {
    module: Arc<Module>,
    cache: Mutex<Cache>,
    /// Optional on-disk artifact store probed before any cold compile
    /// (and populated after one). `None` keeps the historical behaviour.
    store: Option<StoreHandle>,
}

impl ExecutionEngine {
    /// Deploy `module` into a fresh engine with an empty code cache.
    pub fn new(module: Module) -> Self {
        ExecutionEngine::from_arc(Arc::new(module))
    }

    /// Deploy an already-shared module without cloning it.
    pub fn from_arc(module: Arc<Module>) -> Self {
        ExecutionEngine {
            module,
            cache: Mutex::new(Cache::default()),
            store: None,
        }
    }

    /// Attach an on-disk [`ArtifactStore`]: cold compiles first probe the
    /// store (outside the cache lock, deduplicated by the same in-flight
    /// rendezvous that dedups compiles) and populate it on miss or reject.
    ///
    /// The module fingerprint keying this deployment's entries is computed
    /// here, once, as FNV-1a over the canonical vbc encoding. The on-disk
    /// [`StoreKey`] is that fingerprint, not the encoding: the serving tier
    /// tells colliding modules apart in memory (it compares encodings), but
    /// two different modules engineered to share a 64-bit FNV-1a would still
    /// share store entries. Whoever can write a module into a deployment
    /// that has a store attached is inside the store's trust boundary.
    pub fn with_store(mut self, store: Arc<ArtifactStore>) -> Self {
        let module_fp = Fnv1a::hash(&encode_module(&self.module));
        self.store = Some(StoreHandle { store, module_fp });
        self
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref().map(|h| &h.store)
    }

    /// The deployed bytecode module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache.lock().expect("engine cache poisoned")
    }

    /// Total online-compilation work units spent by this deployment so far
    /// (summed [`JitStats::total_work`] over every compile).
    pub fn online_work(&self) -> u64 {
        self.cache().online_work
    }

    /// Compile the module for `target` under `options`, or fetch the program
    /// from the cache. Exactly one compilation ever happens per distinct
    /// `(target, options)` pair, even when many threads request a
    /// cold pair at once: the losers of the race wait for the winner's result
    /// (and count as cache hits) instead of compiling again.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Jit`] if online compilation fails.
    pub fn program_for(
        &self,
        target: &TargetDesc,
        options: &JitOptions,
    ) -> Result<Arc<CompiledModule>, EngineError> {
        let mut guard = self.cache();
        let cache = &mut *guard;
        let cell = match cache.position(target, options).map(|i| &cache.entries[i].2) {
            Some(Entry::Ready(compiled)) => {
                cache.stats.hits += 1;
                return Ok(Arc::clone(compiled));
            }
            Some(Entry::InFlight(cell)) => {
                let cell = Arc::clone(cell);
                drop(guard);
                // The waiter's lookup counts as a hit, taken under the lock
                // like every other counter update.
                return match cell.wait() {
                    Ok(compiled) => {
                        self.cache().stats.hits += 1;
                        Ok(Arc::clone(compiled))
                    }
                    Err(e) => Err(EngineError::Jit(e.clone())),
                };
            }
            None => {
                let cell = Arc::new(InFlightCell::new());
                let entry = Entry::InFlight(Arc::clone(&cell));
                cache.entries.push((target.clone(), *options, entry));
                cell
            }
        };
        drop(guard);
        // Load or compile with no lock held: racing requests for *other*
        // keys proceed, racing requests for *this* key wait on the cell. The
        // guard keeps a JIT panic from stranding them: on unwind it removes
        // the marker and poisons the cell with an error. The in-flight marker
        // also dedups the store probe, so N threads (and, via the filesystem,
        // N processes) racing on one cold key perform at most one disk read
        // each — never a thundering herd of decodes.
        let mut in_flight = InFlightGuard {
            cache: &self.cache,
            target,
            options,
            cell: &cell,
            armed: true,
        };
        let (probe, loaded) = self.probe_store(target, options);
        let outcome = match loaded {
            Some(compiled) => Ok(compiled),
            None => compile(&self.module, target, options),
        }
        .map(Arc::new);
        {
            // One acquisition does all the bookkeeping of this lookup: the
            // probe outcome, the counter that explains the new entry and the
            // insert — so a concurrent snapshot can never see the entry
            // without its compile (or vice versa).
            let mut cache = self.cache();
            match probe {
                // A disk hit is a resident entry that no compile explains:
                // it moves `disk_hits`, not `compiles`, and no online work.
                DiskProbe::Hit => cache.stats.disk_hits += 1,
                DiskProbe::Miss(_) => cache.stats.disk_misses += 1,
                DiskProbe::Reject(_) => cache.stats.disk_rejects += 1,
                DiskProbe::NoStore => {}
            }
            match &outcome {
                Ok(compiled) => {
                    if !matches!(probe, DiskProbe::Hit) {
                        cache.stats.compiles += 1;
                        cache.online_work += compiled.jit.total_work();
                    }
                    let i = cache
                        .position(target, options)
                        .expect("only the compiling thread removes its in-flight slot");
                    cache.entries[i].2 = Entry::Ready(Arc::clone(compiled));
                }
                Err(_) => cache.remove(target, options),
            }
        }
        in_flight.armed = false;
        let _ = cell.set(outcome.clone());
        // Populate (or overwrite) the store entry — best-effort, after the
        // waiters were released, so disk latency never extends the rendezvous.
        if let (Ok(compiled), Some(handle), DiskProbe::Miss(skey) | DiskProbe::Reject(skey)) =
            (&outcome, &self.store, &probe)
        {
            handle.store.save(skey, &compiled.program, &compiled.jit);
        }
        outcome.map_err(EngineError::Jit)
    }

    /// Probe the attached store (if any) for this deployment's artifact for
    /// `(target, options)`. A hit re-runs deploy-time preparation on the
    /// loaded program — preparation is deterministic and version-coupled to
    /// the simulator, so it is recomputed rather than trusted from disk; an
    /// artifact that decodes but fails to prepare is treated exactly like a
    /// corrupt entry (reject → fresh compile → overwrite).
    fn probe_store(
        &self,
        target: &TargetDesc,
        options: &JitOptions,
    ) -> (DiskProbe, Option<CompiledModule>) {
        let Some(handle) = &self.store else {
            return (DiskProbe::NoStore, None);
        };
        let skey = StoreKey {
            module_fp: handle.module_fp,
            target_fp: target.fingerprint(),
            options_fp: options.fingerprint(),
        };
        match handle.store.load(&skey) {
            StoreLoad::Hit(artifact) => {
                match prepare_program(artifact.program, artifact.jit, target, options) {
                    Ok(compiled) => (DiskProbe::Hit, Some(compiled)),
                    Err(_) => (DiskProbe::Reject(skey), None),
                }
            }
            StoreLoad::Miss => (DiskProbe::Miss(skey), None),
            StoreLoad::Reject => (DiskProbe::Reject(skey), None),
        }
    }

    /// JIT statistics for `target` under `options` (compiling on demand).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Jit`] if online compilation fails.
    pub fn jit_stats(
        &self,
        target: &TargetDesc,
        options: &JitOptions,
    ) -> Result<JitStats, EngineError> {
        Ok(self.program_for(target, options)?.jit)
    }

    /// Warm the cache for every target in `targets` under `options`.
    ///
    /// Experiments call this before their measurement loops so that no online
    /// compilation happens inside the measured region.
    ///
    /// # Errors
    ///
    /// Returns the first [`EngineError::Jit`] encountered.
    pub fn precompile<'t>(
        &self,
        targets: impl IntoIterator<Item = &'t TargetDesc>,
        options: &JitOptions,
    ) -> Result<(), EngineError> {
        for target in targets {
            self.program_for(target, options)?;
        }
        Ok(())
    }

    /// Run `kernel` with `args` against `mem` on `target` under `options`,
    /// compiling (once) on demand.
    ///
    /// # Errors
    ///
    /// Fails if the kernel is unknown, the module cannot be compiled for the
    /// target, or the kernel traps during simulation.
    pub fn run(
        &self,
        target: &TargetDesc,
        options: &JitOptions,
        kernel: &str,
        args: &[MachineValue],
        mem: &mut [u8],
    ) -> Result<Execution, EngineError> {
        let mut pool = FramePool::new();
        self.run_pooled(target, options, kernel, args, mem, &mut pool)
    }

    /// Like [`ExecutionEngine::run`], but drawing call frames from an
    /// external [`FramePool`], so repeated runs (a sweep's whole cell
    /// stream, all repeats of a measurement cell) recycle the register-file
    /// allocations instead of paying them per run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutionEngine::run`].
    pub fn run_pooled(
        &self,
        target: &TargetDesc,
        options: &JitOptions,
        kernel: &str,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
    ) -> Result<Execution, EngineError> {
        if self.module.function(kernel).is_none() {
            return Err(EngineError::UnknownKernel(kernel.to_owned()));
        }
        let compiled = self.program_for(target, options)?;
        simulate(&compiled, target, kernel, args, mem, pool)
    }

    /// One-shot execution without a deployment: compile `module` for
    /// `target` afresh (no cache) and run `kernel` once.
    ///
    /// This backs `splitc`'s `run_on_target` convenience wrapper; anything
    /// that runs more than once should deploy an engine instead so the
    /// compilation is amortized.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecutionEngine::run`].
    pub fn run_once(
        module: &Module,
        target: &TargetDesc,
        options: &JitOptions,
        kernel: &str,
        args: &[MachineValue],
        mem: &mut [u8],
    ) -> Result<Execution, EngineError> {
        if module.function(kernel).is_none() {
            return Err(EngineError::UnknownKernel(kernel.to_owned()));
        }
        let compiled = compile(module, target, options)?;
        let mut pool = FramePool::new();
        simulate(&compiled, target, kernel, args, mem, &mut pool)
    }

    /// Code-cache counters since deployment.
    ///
    /// This is the [`CacheSnapshot::stats`] field of a consistent
    /// [`ExecutionEngine::snapshot`]: safe to read while worker threads are
    /// serving (it never observes a torn lookup), pointwise monotonic across
    /// successive reads.
    pub fn stats(&self) -> CacheStats {
        self.cache().stats
    }

    /// Take a consistent snapshot of the cache.
    ///
    /// The counters are read under the one lock every cache mutation takes,
    /// so the result reflects one instant: no lookup or compile is ever
    /// half-counted, and `live` — the `Ready` entries counted in the map under
    /// the same lock — equals `stats.compiles + stats.disk_hits` in every
    /// snapshot: the guarantees the serving layer's live statistics rely on.
    pub fn snapshot(&self) -> CacheSnapshot {
        let cache = self.cache();
        CacheSnapshot {
            stats: cache.stats,
            online_work: cache.online_work,
            live: cache
                .entries
                .iter()
                .filter(|(_, _, entry)| matches!(entry, Entry::Ready(_)))
                .count(),
        }
    }
}

/// Execute one kernel of an already-compiled-and-prepared module and assemble
/// the unified [`Execution`] record (shared by the cached and one-shot paths).
///
/// This drives the pre-decoded form directly: no per-run preparation, no
/// per-instruction decoding, frames recycled through `pool`. Crate-visible so
/// the serving tier's continuous batching can fetch a program once per batch
/// ([`ExecutionEngine::program_for`]) and then drive each request of the
/// batch through exactly the execution path unbatched runs use.
pub(crate) fn simulate(
    compiled: &CompiledModule,
    target: &TargetDesc,
    kernel: &str,
    args: &[MachineValue],
    mem: &mut [u8],
    pool: &mut FramePool,
) -> Result<Execution, EngineError> {
    let mut stats = SimStats::default();
    let result = compiled
        .prepared
        .run(kernel, args, mem, pool, DEFAULT_SIM_FUEL, &mut stats)?;
    Ok(Execution {
        result,
        stats,
        jit: compiled.jit,
        scaled_cycles: target.scaled_time(stats.cycles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;
    use splitc_opt::{optimize_module, OptOptions};

    fn deployed() -> ExecutionEngine {
        let mut m = compile_source(
            "fn dscal(n: i32, a: f32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
            }
            fn triple(x: i32) -> i32 { return 3 * x; }",
            "k",
        )
        .unwrap();
        optimize_module(&mut m, &OptOptions::full());
        ExecutionEngine::new(m)
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionEngine>();
    }

    #[test]
    fn scaled_cycles_apply_the_per_target_clock_factor() {
        let engine = deployed();
        let options = JitOptions::split();
        let mut mem = vec![0u8; 256];
        for target in splitc_targets::TargetDesc::presets() {
            let run = engine
                .run(
                    &target,
                    &options,
                    "triple",
                    &[MachineValue::Int(7)],
                    &mut mem,
                )
                .unwrap();
            let expect = target.scaled_time(run.stats.cycles);
            assert!(
                (run.scaled_cycles - expect).abs() < 1e-9,
                "{}: scaled_cycles {} != scaled_time {}",
                target.name,
                run.scaled_cycles,
                expect
            );
            assert!(
                (expect - run.stats.cycles as f64 * target.clock_scale).abs() < 1e-9,
                "{}: scaled_time disagrees with the clock factor",
                target.name
            );
        }
    }

    #[test]
    fn timing_tiers_compile_separately_but_agree_architecturally() {
        use splitc_targets::TimingKind;
        let engine = deployed();
        let options = JitOptions::split();
        let flat = TargetDesc::x86_sse();
        let pipe = TargetDesc::x86_sse().with_timing(TimingKind::InOrder);
        let mut mem_a = vec![0u8; 256];
        let mut mem_b = mem_a.clone();
        let a = engine
            .run(
                &flat,
                &options,
                "triple",
                &[MachineValue::Int(9)],
                &mut mem_a,
            )
            .unwrap();
        let b = engine
            .run(
                &pipe,
                &options,
                "triple",
                &[MachineValue::Int(9)],
                &mut mem_b,
            )
            .unwrap();
        assert_eq!(a.result, b.result);
        assert_eq!(mem_a, mem_b);
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert!(b.stats.cycles >= b.stats.instructions);
        // Distinct targets: the engine compiled one variant per tier.
        assert_eq!(engine.stats().compiles, 2);
    }

    #[test]
    fn one_compile_per_target_and_options_pair() {
        let engine = deployed();
        let targets = [TargetDesc::x86_sse(), TargetDesc::powerpc()];
        let configs = [JitOptions::split(), JitOptions::online_greedy()];
        let mut mem = vec![0u8; 256];
        for _ in 0..5 {
            for target in &targets {
                for options in &configs {
                    let run = engine
                        .run(target, options, "triple", &[MachineValue::Int(7)], &mut mem)
                        .unwrap();
                    assert_eq!(run.result, Some(MachineValue::Int(21)));
                }
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.compiles, (targets.len() * configs.len()) as u64);
        assert_eq!(stats.lookups(), 5 * 2 * 2);
        assert_eq!(stats.hits, stats.lookups() - stats.compiles);
        assert_eq!(engine.snapshot().live, 4);
    }

    #[test]
    fn cores_with_equal_targets_share_code() {
        let engine = deployed();
        let options = JitOptions::split();
        let a = engine
            .program_for(&TargetDesc::cell_spu(), &options)
            .unwrap();
        let b = engine
            .program_for(&TargetDesc::cell_spu(), &options)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "identical targets must share one Arc'd program"
        );
        assert_eq!(engine.stats().compiles, 1);
    }

    #[test]
    fn precompile_moves_all_compilation_out_of_the_run_path() {
        let engine = deployed();
        let targets = TargetDesc::table1_targets();
        let options = JitOptions::split();
        engine.precompile(&targets, &options).unwrap();
        let compiled_before = engine.stats().compiles;
        let mut mem = vec![0u8; 256];
        for target in &targets {
            engine
                .run(
                    target,
                    &options,
                    "triple",
                    &[MachineValue::Int(1)],
                    &mut mem,
                )
                .unwrap();
        }
        assert_eq!(
            engine.stats().compiles,
            compiled_before,
            "runs must all be cache hits"
        );
    }

    #[test]
    fn precompile_covers_duplicate_core_types_once() {
        // A blade's four SPUs are one core type: five cores, two compiles.
        let engine = deployed();
        let platform = crate::Platform::cell_blade(4);
        let targets = platform.cores.iter().map(|core| &core.target);
        engine.precompile(targets, &JitOptions::split()).unwrap();
        assert_eq!(engine.snapshot().live, 2);
        assert_eq!(engine.stats().compiles, 2);
        assert_eq!(engine.stats().hits, 3);
    }

    #[test]
    fn pooled_runs_are_bit_identical_to_plain_runs() {
        let engine = deployed();
        let target = TargetDesc::x86_sse();
        let options = JitOptions::split();
        let mut pool = FramePool::new();
        for i in 0..4 {
            let mut mem_a = vec![0u8; 256];
            let mut mem_b = vec![0u8; 256];
            let plain = engine
                .run(
                    &target,
                    &options,
                    "triple",
                    &[MachineValue::Int(i)],
                    &mut mem_a,
                )
                .unwrap();
            let pooled = engine
                .run_pooled(
                    &target,
                    &options,
                    "triple",
                    &[MachineValue::Int(i)],
                    &mut mem_b,
                    &mut pool,
                )
                .unwrap();
            assert_eq!(plain.result, pooled.result);
            assert_eq!(plain.stats, pooled.stats);
            assert_eq!(mem_a, mem_b);
        }
        assert!(pool.pooled_frames() >= 1, "frames were recycled");
    }

    #[test]
    fn cached_entries_carry_the_prepared_program() {
        let engine = deployed();
        let compiled = engine
            .program_for(&TargetDesc::x86_sse(), &JitOptions::split())
            .unwrap();
        assert_eq!(
            compiled.prepared.num_functions(),
            compiled.program.functions.len()
        );
        assert!(compiled.prepared.function_index("triple").is_some());
        assert!(compiled.prepared.function_index("nope").is_none());
    }

    #[test]
    fn unknown_kernels_are_rejected_without_compiling() {
        let engine = deployed();
        let mut mem = vec![0u8; 64];
        let err = engine
            .run(
                &TargetDesc::x86_sse(),
                &JitOptions::split(),
                "nope",
                &[],
                &mut mem,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownKernel(_)));
        assert!(err.to_string().contains("nope"));
        assert_eq!(engine.stats().lookups(), 0);
    }

    #[test]
    fn engine_can_be_shared_across_threads() {
        let engine = std::sync::Arc::new(deployed());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let engine = std::sync::Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut mem = vec![0u8; 256];
                    let run = engine
                        .run(
                            &TargetDesc::x86_sse(),
                            &JitOptions::split(),
                            "triple",
                            &[MachineValue::Int(i)],
                            &mut mem,
                        )
                        .unwrap();
                    assert_eq!(run.result, Some(MachineValue::Int(3 * i)));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(engine.stats().compiles, 1, "four threads, one compilation");
    }

    #[test]
    fn racing_cold_lookups_compile_exactly_once_per_pair() {
        // Many threads, many (target, options) pairs, no precompilation:
        // the in-flight dedup must keep compiles at exactly T x C.
        let engine = std::sync::Arc::new(deployed());
        let targets = TargetDesc::presets();
        let configs = [JitOptions::split(), JitOptions::online_greedy()];
        let threads = 8;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let targets = targets.clone();
                std::thread::spawn(move || {
                    for target in &targets {
                        for options in [JitOptions::split(), JitOptions::online_greedy()] {
                            engine.program_for(target, &options).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = (targets.len() * configs.len()) as u64;
        let stats = engine.stats();
        assert_eq!(stats.compiles, expected);
        assert_eq!(
            stats.lookups(),
            expected * threads,
            "every lookup is counted"
        );
        assert_eq!(stats.hits, stats.lookups() - stats.compiles);
        assert_eq!(engine.snapshot().live, expected as usize);
    }

    #[test]
    fn snapshots_tie_live_entries_to_compiles_and_disk_hits() {
        let engine = deployed();
        let configs = [
            JitOptions::split(),
            JitOptions::online_greedy(),
            JitOptions::online_analyze(),
        ];
        let targets = TargetDesc::presets();
        let mut prev = engine.snapshot();
        assert_eq!(prev.live, 0);
        for options in &configs {
            for target in &targets {
                engine.program_for(target, options).unwrap();
                engine.program_for(target, options).unwrap();
                let snap = engine.snapshot();
                // The consistency invariant the serving layer reads stats under.
                assert_eq!(
                    snap.live,
                    (snap.stats.compiles + snap.stats.disk_hits) as usize
                );
                assert_eq!(
                    snap.stats.lookups(),
                    snap.stats.compiles + snap.stats.hits + snap.stats.disk_hits
                );
                // Pointwise monotonic across successive snapshots.
                assert!(snap.stats.compiles >= prev.stats.compiles);
                assert!(snap.stats.hits >= prev.stats.hits);
                assert!(snap.online_work >= prev.online_work);
                prev = snap;
            }
        }
        assert_eq!(
            prev.live,
            configs.len() * targets.len(),
            "one resident entry per (target, options) pair"
        );
        assert_eq!(engine.stats(), prev.stats, "stats() is the snapshot view");
        assert_eq!(engine.online_work(), prev.online_work);
    }

    fn temp_store(name: &str) -> Arc<crate::ArtifactStore> {
        let dir =
            std::env::temp_dir().join(format!("splitc-engine-store-{}-{name}", std::process::id()));
        let store = crate::ArtifactStore::open(dir).expect("temp store opens");
        store.clear();
        Arc::new(store)
    }

    #[test]
    fn warm_engine_loads_from_disk_instead_of_compiling() {
        let store = temp_store("warm");
        let options = JitOptions::split();
        let targets = TargetDesc::presets();
        let mut mem = vec![0u8; 256];

        // Cold process: everything compiles, the store gets populated.
        let cold = deployed().with_store(Arc::clone(&store));
        let mut cold_runs = Vec::new();
        for target in &targets {
            let run = cold
                .run(
                    target,
                    &options,
                    "triple",
                    &[MachineValue::Int(7)],
                    &mut mem,
                )
                .unwrap();
            cold_runs.push(run);
        }
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.compiles, targets.len() as u64);
        assert_eq!(cold_stats.disk_misses, targets.len() as u64);
        assert_eq!(cold_stats.disk_hits, 0);
        assert_eq!(store.len(), targets.len());

        // Warm process (a fresh engine on the same module + store): zero
        // compiles, every key a disk hit, every response bit-identical.
        let warm = deployed().with_store(Arc::clone(&store));
        for (target, cold_run) in targets.iter().zip(&cold_runs) {
            let run = warm
                .run(
                    target,
                    &options,
                    "triple",
                    &[MachineValue::Int(7)],
                    &mut mem,
                )
                .unwrap();
            assert_eq!(run.result, cold_run.result);
            assert_eq!(run.stats, cold_run.stats);
            assert_eq!(run.jit, cold_run.jit, "stored JitStats replay exactly");
        }
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.compiles, 0, "warm start never compiles");
        assert_eq!(warm_stats.disk_hits, targets.len() as u64);
        assert_eq!(warm_stats.disk_misses, 0);
        let snap = warm.snapshot();
        assert_eq!(
            snap.live,
            (snap.stats.compiles + snap.stats.disk_hits) as usize
        );
        store.clear();
    }

    #[test]
    fn corrupted_store_entries_fall_back_to_recompilation() {
        let store = temp_store("fallback");
        let options = JitOptions::split();
        let target = TargetDesc::x86_sse();
        let mut mem = vec![0u8; 256];

        let cold = deployed().with_store(Arc::clone(&store));
        let reference = cold
            .run(
                &target,
                &options,
                "triple",
                &[MachineValue::Int(5)],
                &mut mem,
            )
            .unwrap();

        // Corrupt the single entry on disk.
        let entry = std::fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().ends_with(".svba"))
            .expect("the cold run persisted an entry")
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&entry, &bytes).unwrap();

        // A fresh engine rejects the entry, recompiles bit-identically, and
        // overwrites it so the *next* engine hits.
        let engine = deployed().with_store(Arc::clone(&store));
        let run = engine
            .run(
                &target,
                &options,
                "triple",
                &[MachineValue::Int(5)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(run.result, reference.result);
        assert_eq!(run.stats, reference.stats);
        let stats = engine.stats();
        assert_eq!(stats.disk_rejects, 1);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.disk_hits, 0);

        let healed = deployed().with_store(Arc::clone(&store));
        healed
            .run(
                &target,
                &options,
                "triple",
                &[MachineValue::Int(5)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(
            healed.stats().disk_hits,
            1,
            "the overwrite healed the entry"
        );
        assert_eq!(healed.stats().compiles, 0);
        store.clear();
    }

    #[test]
    fn a_store_entry_with_an_operand_in_the_wrong_register_file_is_rejected() {
        // An entry anyone can write: key, length and FNV-1a all correct, the
        // payload a program whose `triple` adds *float* register 7 as an
        // integer operation. x86-sse has 6 integer and 8 float registers, so
        // the index is valid for the operand's class and past the end of the
        // file the handler indexes. Preparation must refuse it, which the
        // engine books as a reject: it compiles fresh and heals the entry.
        use splitc_targets::{AluOp, MBlock, MFunction, MInst, MProgram, PReg, Width};
        let store = temp_store("wrong-file");
        let options = JitOptions::split();
        let target = TargetDesc::x86_sse();
        let engine = deployed().with_store(Arc::clone(&store));
        let key = StoreKey {
            module_fp: Fnv1a::hash(&encode_module(engine.module())),
            target_fp: target.fingerprint(),
            options_fp: options.fingerprint(),
        };
        let wrong = PReg::float(7);
        let hostile = MProgram {
            name: "k".into(),
            functions: vec![MFunction {
                name: "triple".into(),
                params: vec![PReg::int(0)],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W32,
                            signed: true,
                            dst: wrong,
                            lhs: wrong,
                            rhs: wrong,
                        },
                        MInst::Ret {
                            value: Some(PReg::int(0)),
                        },
                    ],
                }],
                num_slots: 0,
            }],
        };
        assert!(store.save(&key, &hostile, &JitStats::default()));
        assert!(
            matches!(store.load(&key), StoreLoad::Hit(_)),
            "the entry passes every rung below preparation"
        );

        let mut mem = vec![0u8; 256];
        let run = engine
            .run(
                &target,
                &options,
                "triple",
                &[MachineValue::Int(5)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(run.result, Some(MachineValue::Int(15)));
        let stats = engine.stats();
        assert_eq!(stats.disk_rejects, 1);
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.disk_hits, 0);
        match store.load(&key) {
            StoreLoad::Hit(healed) => assert_ne!(healed.program, hostile),
            other => panic!("the fresh compile overwrote the entry, got {other:?}"),
        }
        store.clear();
    }
}
