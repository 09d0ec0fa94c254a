//! The five phases every workload runs, one short block at a time.
//!
//! * **A offline** — source text → `parse` → `compile_program` →
//!   `verify_module` → the full offline pipeline → `encode_module`.
//! * **B online** — for every (module, target): `decode_module` →
//!   `ExecutionEngine::new` → `program_for` → first `run_pooled` result;
//!   cold (compile) and warm (fresh engines over a populated store).
//! * **C execute** — kernel × target cells through warm engines.
//! * **D serve, closed loop** — window 32 against a one-worker server.
//! * **E serve, round trip** — window 1 on the idle server.
//!
//! A block times its phase in **units** (a compile stage of one module, a
//! bring-up stage of one deployment, one kernel run, one closed-loop block,
//! one round trip) and leaves `(unit, nanoseconds)` pairs in
//! [`Bench::timings`]; the caller keeps them per unit across rounds. Every
//! block takes a [`Tracer`]: the untraced blocks pass a disabled one and run
//! the identical code. Every output is compared with the interpreter's
//! reference checksum; a mismatch is a failed operation.

use crate::alloc::{Phase, Scope};
use crate::gen::{derive_seed, poisson_schedule, Pacer, Rng};
use crate::host;
use crate::trace::{op_id, SpanId, Tracer};
use crate::workload::{jit_options, targets_for, Cell, Workload, CLOSED_WINDOW};
use splitc::checksum_bytes;
use splitc_jit::{compile_module, JitStats};
use splitc_opt::{
    annotate_module, annotate_spill_orders, eliminate_dead_code_module, fold_module,
    optimize_module, vectorize_module, OptOptions,
};
use splitc_runtime::serve::{
    Request, Response, ResponseHandle, ServeModule, Server, ServerConfig, ServerStats,
};
use splitc_runtime::{
    ArtifactStore, CacheStats, CompiledModule, Execution, ExecutionEngine, FramePool, StoreKey,
    StoreLoad,
};
use splitc_targets::{
    Fnv1a, MachineValue, PreparedProgram, SimStats, TargetDesc, TimingKind, DEFAULT_SIM_FUEL,
};
use splitc_vbc::{decode_module, encode_module, verify_module, Module};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server workers: fixed, so that a generator thread plus the worker fit a
/// two-core host without time-slicing.
pub const WORKERS: usize = 1;

/// Timed stages of one offline compile: parse, lower, verify, optimize,
/// encode. Unit `module * OFFLINE_STAGES + stage`.
pub const OFFLINE_STAGES: usize = 5;
/// Timed stages of one bring-up: decode, engine, `program_for`, first run.
/// Unit `pair * ONLINE_STAGES + stage`.
pub const ONLINE_STAGES: usize = 4;

/// Most requests the open-loop generator sends before it polls for answers.
const OPEN_BURST: usize = 16;

/// Phase tags of the op ids (see [`op_id`]).
const OP_OFFLINE: u8 = 0;
const OP_COLD: u8 = 1;
const OP_WARM: u8 = 2;
const OP_EXEC: u8 = 3;
const OP_RTT: u8 = 4;
const OP_PHASES: usize = 5;

/// Span names of a bring-up: the root and its four stages. The warm
/// bring-up has its own so that a layer's self time is not a blend of the
/// two.
const COLD_SPANS: [&str; 5] = [
    "online.cold",
    "vbc.decode",
    "engine.new",
    "engine.program_for",
    "targets.first_run",
];
const WARM_SPANS: [&str; 5] = [
    "online.warm",
    "vbc.decode.warm",
    "engine.new.warm",
    "engine.program_for.warm",
    "targets.first_run.warm",
];

/// What a bring-up block calls after each deployment, outside its timing:
/// the tracer, the op id, and the engine, target and program brought up.
type AfterBringUp<'a> =
    dyn FnMut(&mut Tracer, u64, &ExecutionEngine, &TargetDesc, &Arc<CompiledModule>) + 'a;

/// Operations attempted and failed, over all phases.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Ops {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// Pooled samples, by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

pub fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Counters that must repeat exactly: from one pass over the whole matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact {
    pub bytecode_bytes: u64,
    pub code_minsts: u64,
    pub sim: SimTotals,
    pub jit: JitTotals,
    pub engine: CacheStats,
    pub fused_ops: u64,
    pub store_entry_bytes: u64,
    pub minic_tokens: u64,
    pub minic_vbc_insts: u64,
    pub opt_insts_after: u64,
    pub opt_vectorized_loops: u64,
    pub opt_offline_work: u64,
}

/// Simulator statistics summed over one pass of all cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    pub cycles: u64,
    pub instructions: u64,
    pub stalls: u64,
    pub mispredicts: u64,
    pub spill_ops: u64,
}

impl SimTotals {
    fn add(&mut self, s: &SimStats) {
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.stalls += s.stalls;
        self.mispredicts += s.mispredicts;
        self.spill_ops += s.spill_stores + s.spill_reloads;
    }
}

/// JIT work units and static spill code summed over all (module, target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitTotals {
    pub verify_work: u64,
    pub lowering_work: u64,
    pub regalloc_work: u64,
    pub static_spills: u64,
    pub static_reloads: u64,
}

impl JitTotals {
    fn add(&mut self, j: &JitStats) {
        self.verify_work += j.verify_work;
        self.lowering_work += j.lowering_work;
        self.regalloc_work += j.regalloc_work;
        self.static_spills += j.static_spills;
        self.static_reloads += j.static_reloads;
    }
}

/// What one open-loop run at a fixed rate observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    pub rate_rps: f64,
    pub sent: usize,
    /// Requests the full queue refused, that were lost, or that were still
    /// outstanding when the run gave up: each misses the latency limit.
    pub missed: usize,
    /// Ascending latencies from the intended send time, microseconds.
    pub latency_us: Vec<f64>,
    /// Ascending generator lag (actual minus intended send), microseconds.
    pub lag_us: Vec<f64>,
    /// Requests still outstanding when the last one was sent.
    pub backlog_at_end: usize,
}

/// Which executor a per-layer probe runs a compiled kernel through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// `PreparedProgram::run` on the flat-timing cores.
    Threaded,
    /// `PreparedProgram::run_metered` on the flat-timing cores.
    Metered,
    /// `PreparedProgram::run` on the in-order-timing cores.
    InOrder,
}

/// One compiled kernel variant of the per-layer executor probes.
pub struct ProbeCell {
    compiled: Arc<CompiledModule>,
    kernel: usize,
    /// 0 scalar, 1 simd (16-byte vectors), 2 gpu (wider).
    pub class: usize,
    /// Simulated instructions of one run (exact; set by each run).
    pub insts: u64,
}

/// Long-lived state of a run: warm engines, the server, recycled buffers.
pub struct Bench<'w> {
    pub w: &'w Workload,
    pub ops: Ops,
    /// `(unit, nanoseconds)` of the block that ran last.
    pub timings: Vec<(usize, f64)>,
    /// Simulated instructions of one run of each cell (exact; from warm-up).
    pub cell_insts: Vec<u64>,
    pub probe_flat: Vec<ProbeCell>,
    pub probe_inorder: Vec<ProbeCell>,
    engines: Vec<ExecutionEngine>,
    pool: FramePool,
    scratch: Vec<u8>,
    server: Server,
    serve_modules: Vec<ServeModule>,
    buffers: Vec<Vec<u8>>,
    store_keys: Vec<StoreKey>,
    probe_store: Option<ArtifactStore>,
    /// Operations started so far, per phase tag.
    op_seq: [u32; OP_PHASES],
    /// Where the next execute, round-trip and probe blocks continue.
    exec_cursor: usize,
    rtt_cursor: usize,
    probe_cursor: usize,
    next_tag: u64,
}

impl<'w> Bench<'w> {
    /// Deploy the workload: one warm engine per module for phase C and a
    /// one-worker server with library-default configuration for D and E.
    /// With `pin`, the server's threads are pinned to the second CPU and
    /// this thread, the generator, to the first.
    pub fn start(w: &'w Workload, pin: Option<(usize, usize)>) -> Bench<'w> {
        let decode = |bytes: &[u8]| decode_module(bytes).expect("set-up encoded this module");
        let engines = w
            .modules
            .iter()
            .map(|u| ExecutionEngine::new(decode(&u.encoded)))
            .collect();
        let serve_modules = w
            .modules
            .iter()
            .map(|u| ServeModule::new(decode(&u.encoded)))
            .collect();
        let options_fp = jit_options().fingerprint();
        let store_keys = w
            .modules
            .iter()
            .flat_map(|u| {
                let module_fp = Fnv1a::hash(&u.encoded);
                w.targets.iter().map(move |t| StoreKey {
                    module_fp,
                    target_fp: t.fingerprint(),
                    options_fp,
                })
            })
            .collect();
        // Threads inherit the pin of the thread that spawns them.
        if let Some((_, server_cpu)) = pin {
            host::pin_to(server_cpu);
        }
        let server = Server::start(ServerConfig::default().with_workers(WORKERS));
        if let Some((generator_cpu, _)) = pin {
            host::pin_to(generator_cpu);
        }
        Bench {
            w,
            ops: Ops::default(),
            timings: Vec::new(),
            cell_insts: Vec::new(),
            probe_flat: Vec::new(),
            probe_inorder: Vec::new(),
            engines,
            pool: FramePool::new(),
            scratch: vec![0; w.inputs[0].image.len()],
            server,
            serve_modules,
            buffers: Vec::new(),
            store_keys,
            probe_store: None,
            op_seq: [0; OP_PHASES],
            exec_cursor: 0,
            rtt_cursor: 0,
            probe_cursor: 0,
            next_tag: 0,
        }
    }

    /// Empty `timings` with room for `units` entries, so that recording them
    /// allocates nothing inside an allocation scope.
    fn begin_block(&mut self, units: usize) {
        self.timings.clear();
        self.timings.reserve(units);
    }

    /// The id of the next operation of `phase`, which works on `unit`.
    fn next_op(&mut self, phase: u8, unit: usize) -> u64 {
        let seq = &mut self.op_seq[phase as usize];
        *seq = seq.wrapping_add(1);
        op_id(phase, *seq, unit)
    }

    // ---------------------------------------------------------------- A

    /// Phase A: compile every module of M from source.
    pub fn offline_block(&mut self, tr: &mut Tracer) {
        let w = self.w;
        self.begin_block(w.modules.len() * OFFLINE_STAGES);
        for (m, unit) in w.modules.iter().enumerate() {
            let op = self.next_op(OP_OFFLINE, m);
            if tr.enabled() {
                // `parse` lexes internally; a standalone `lex` prices the
                // lexer so the report can split the two.
                tr.scope("minic.lex", None, op, || {
                    black_box(splitc_minic::lex(&unit.source)).is_ok()
                });
            }
            let scope = Scope::open(Phase::Offline, tr.enabled());
            let mut at = [Instant::now(); OFFLINE_STAGES + 1];
            let root = tr.begin("offline", None, op);
            let program = tr
                .scope("minic.parse", root, op, || {
                    splitc_minic::parse(&unit.source)
                })
                .expect("catalogue sources parse");
            at[1] = Instant::now();
            let mut module = tr
                .scope("minic.lower", root, op, || {
                    splitc_minic::compile_program(&program, &unit.name)
                })
                .expect("catalogue sources lower");
            at[2] = Instant::now();
            tr.scope("vbc.verify.offline", root, op, || verify_module(&module))
                .expect("lowered bytecode verifies");
            at[3] = Instant::now();
            if tr.enabled() {
                optimize_by_passes(&mut module, tr, root, op);
            } else {
                optimize_module(&mut module, &OptOptions::full());
            }
            at[4] = Instant::now();
            let bytes = tr.scope("vbc.encode", root, op, || encode_module(&module));
            tr.end(root);
            at[5] = Instant::now();
            drop(scope);
            for stage in 0..OFFLINE_STAGES {
                self.timings
                    .push((m * OFFLINE_STAGES + stage, ns(at[stage + 1] - at[stage])));
            }
            self.ops.check(bytes == unit.encoded, || {
                format!(
                    "offline: {} compiled to different bytes than at set-up",
                    unit.name
                )
            });
        }
    }

    // ---------------------------------------------------------------- B

    /// Phase B: bring every (module, target) up from the encoded module to
    /// its first result, on fresh engines. `warm` attaches the populated
    /// store. Returns the engines' summed cache counters.
    ///
    /// A traced cold block also times, outside the bring-up's own spans, the
    /// layers `program_for` hides from an outside observer (verify, JIT,
    /// prepare) and the store's save and load.
    pub fn online_block(&mut self, tr: &mut Tracer, warm: bool) -> CacheStats {
        if warm || !tr.enabled() {
            return self.online_block_with(tr, warm, &mut |_, _, _, _, _| {});
        }
        let options = jit_options();
        let store = Arc::clone(&self.w.store);
        let probe_store = self.probe_store.take().expect("prepare_probes ran");
        let keys = std::mem::take(&mut self.store_keys);
        let mut pair = 0usize;
        let out = self.online_block_with(tr, false, &mut |tr, op, engine, target, _| {
            tr.scope("vbc.verify", None, op, || {
                verify_module(engine.module()).is_ok()
            });
            let built = tr.scope("jit.compile", None, op, || {
                compile_module(engine.module(), target, &options)
            });
            if let Ok((program, jit)) = built {
                tr.scope("targets.prepare", None, op, || {
                    PreparedProgram::prepare_with(&program, target, options.fuse).is_ok()
                });
                tr.scope("store.save", None, op, || {
                    probe_store.save(&keys[pair], &program, &jit)
                });
            }
            tr.scope("store.load", None, op, || {
                matches!(store.load(&keys[pair]), StoreLoad::Hit(_))
            });
            pair += 1;
        });
        self.store_keys = keys;
        self.probe_store = Some(probe_store);
        out
    }

    fn online_block_with(
        &mut self,
        tr: &mut Tracer,
        warm: bool,
        each: &mut AfterBringUp<'_>,
    ) -> CacheStats {
        let w = self.w;
        let options = jit_options();
        let (tag, spans) = if warm {
            (OP_WARM, WARM_SPANS)
        } else {
            (OP_COLD, COLD_SPANS)
        };
        self.begin_block(w.pairs() * ONLINE_STAGES);
        let mut cache = CacheStats::default();
        for (module_index, unit) in w.modules.iter().enumerate() {
            for (target_index, target) in w.targets.iter().enumerate() {
                let pair = module_index * w.targets.len() + target_index;
                let op = self.next_op(tag, pair);
                let cell = *w.first_cell(module_index, target_index);
                let input = &w.inputs[cell.kernel];
                self.scratch.copy_from_slice(&input.image);
                let scratch = &mut self.scratch;

                let scope = Scope::open(Phase::Online, tr.enabled());
                let mut at = [Instant::now(); ONLINE_STAGES + 1];
                let root = tr.begin(spans[0], None, op);
                let module = tr
                    .scope(spans[1], root, op, || decode_module(&unit.encoded))
                    .expect("set-up encoded this module");
                at[1] = Instant::now();
                let engine = tr.scope(spans[2], root, op, || {
                    let engine = ExecutionEngine::new(module);
                    if warm {
                        engine.with_store(Arc::clone(&w.store))
                    } else {
                        engine
                    }
                });
                at[2] = Instant::now();
                let compiled =
                    tr.scope(spans[3], root, op, || engine.program_for(target, &options));
                at[3] = Instant::now();
                let mut pool = FramePool::new();
                let run = tr.scope(spans[4], root, op, || {
                    engine.run_pooled(
                        target,
                        &options,
                        &input.prepared.name,
                        &input.prepared.args,
                        scratch,
                        &mut pool,
                    )
                });
                tr.end(root);
                at[4] = Instant::now();
                drop(scope);
                for stage in 0..ONLINE_STAGES {
                    self.timings
                        .push((pair * ONLINE_STAGES + stage, ns(at[stage + 1] - at[stage])));
                }

                let stats = engine.stats();
                cache += stats;
                let outcome = run.as_ref().map_err(ToString::to_string);
                verify(&mut self.ops, w, &cell, outcome, &self.scratch, spans[0]);
                if warm {
                    let loaded =
                        stats.compiles == 0 && stats.disk_hits == 1 && stats.disk_rejects == 0;
                    self.ops.check(loaded, || {
                        format!(
                            "online.warm: {} on {} was not served from the store: {stats:?}",
                            unit.name, target.name
                        )
                    });
                }
                if let Ok(compiled) = &compiled {
                    each(tr, op, &engine, target, compiled);
                }
            }
        }
        cache
    }

    // ---------------------------------------------------------------- C

    /// Phase C: the next `runs` kernel runs, round-robin over the cells, on
    /// the warm engines; one timing per run, unit = cell. Returns the
    /// simulator's statistics summed over the runs.
    pub fn exec_block(&mut self, tr: &mut Tracer, runs: usize) -> SimTotals {
        let w = self.w;
        let options = jit_options();
        self.begin_block(runs);
        tr.reserve(4 * runs);
        let mut totals = SimTotals::default();
        let scope = Scope::open(Phase::Exec, tr.enabled());
        for k in 0..runs {
            let cell_index = (self.exec_cursor + k) % w.cells.len();
            let cell = &w.cells[cell_index];
            let op = self.next_op(OP_EXEC, cell_index);
            let input = &w.inputs[cell.kernel];
            let image = &input.image;
            let scratch = &mut self.scratch;
            let root = tr.begin("exec.run", None, op);
            tr.scope("harness.restore", root, op, || {
                scratch.copy_from_slice(image)
            });
            let engine = &self.engines[cell.module];
            let pool = &mut self.pool;
            let started = Instant::now();
            let run = tr.scope("engine.run_pooled", root, op, || {
                engine.run_pooled(
                    &w.targets[cell.target],
                    &options,
                    &input.prepared.name,
                    &input.prepared.args,
                    scratch,
                    pool,
                )
            });
            self.timings.push((cell_index, ns(started.elapsed())));
            if let Ok(run) = &run {
                totals.add(&run.stats);
                if let Some(insts) = self.cell_insts.get_mut(cell_index) {
                    *insts = run.stats.instructions;
                }
            }
            let check = tr.begin("core.checksum", root, op);
            let outcome = run.as_ref().map_err(ToString::to_string);
            verify(&mut self.ops, w, cell, outcome, &self.scratch, "exec");
            tr.end(check);
            tr.end(root);
        }
        drop(scope);
        self.exec_cursor = (self.exec_cursor + runs) % w.cells.len();
        totals
    }

    // ------------------------------------------------------------ D and E

    fn request(&mut self, cell_index: usize) -> Request {
        let w = self.w;
        let cell = &w.cells[cell_index];
        let input = &w.inputs[cell.kernel];
        let mut mem = self.buffers.pop().unwrap_or_default();
        mem.clear();
        mem.extend_from_slice(&input.image);
        self.next_tag += 1;
        Request {
            module: self.serve_modules[cell.module].clone(),
            kernel: input.prepared.name.clone(),
            target: w.targets[cell.target].clone(),
            options: jit_options(),
            args: input.prepared.args.clone(),
            mem,
            deadline: None,
            tag: self.next_tag,
        }
    }

    /// Submit with `submit` and wait for the answer.
    fn round_trip(&self, request: Request) -> Result<Response, String> {
        match self.server.submit(request) {
            Ok(handle) => handle.wait().map_err(|e| e.to_string()),
            Err(refused) => Err(format!("submit refused: {refused}")),
        }
    }

    /// Check a served response against the reference and recycle its buffer.
    fn settle(&mut self, cell_index: usize, response: Result<Response, String>, phase: &str) {
        let cell = self.w.cells[cell_index];
        match response {
            Ok(response) => {
                let outcome = response.outcome.as_ref().map_err(ToString::to_string);
                verify(&mut self.ops, self.w, &cell, outcome, &response.mem, phase);
                self.buffers.push(response.mem);
            }
            Err(why) => self.ops.check(false, || format!("{phase}: {why}")),
        }
    }

    /// Phase D: one block of closed-loop requests, window 32, blocking
    /// `submit`, every response awaited in send order. The whole block is one
    /// timed unit: cutting it finer is unsound, because after a stall of the
    /// generator the answers it waits for next are already there, so one
    /// group's loss would show up as the next group's gain.
    /// `count_allocations` charges the block to the serve phase of the
    /// allocation counters. Returns the mean size of the batches the requests
    /// were served in.
    pub fn closed_block(&mut self, count_allocations: bool) -> f64 {
        let w = self.w;
        self.begin_block(1);
        let mut requests: Vec<Request> = w
            .closed_order
            .iter()
            .map(|&cell| self.request(cell as usize))
            .collect();
        let mut window: VecDeque<ResponseHandle> = VecDeque::with_capacity(CLOSED_WINDOW);
        let mut responses: Vec<Result<Response, String>> = Vec::with_capacity(requests.len());
        let wait = |handle: ResponseHandle| handle.wait().map_err(|e| e.to_string());

        let scope = Scope::open(Phase::Serve, count_allocations);
        let started = Instant::now();
        for request in requests.drain(..) {
            if window.len() == CLOSED_WINDOW {
                responses.push(wait(window.pop_front().expect("window is full")));
            }
            match self.server.submit(request) {
                Ok(handle) => window.push_back(handle),
                Err(refused) => {
                    // Keep response order aligned with send order.
                    responses.extend(window.drain(..).map(wait));
                    responses.push(Err(format!("submit refused: {refused}")));
                }
            }
        }
        responses.extend(window.drain(..).map(wait));
        self.timings.push((0, ns(started.elapsed())));
        drop(scope);

        let batches: f64 = responses
            .iter()
            .flatten()
            .map(|r| 1.0 / r.batch.max(1) as f64)
            .sum();
        let served = responses.iter().flatten().count() as f64;
        for (i, response) in responses.into_iter().enumerate() {
            self.settle(w.closed_order[i] as usize, response, "serve.closed");
        }
        if batches > 0.0 {
            served / batches
        } else {
            0.0
        }
    }

    /// Phase E: the next `rtt_requests` window-1 round trips of the request
    /// mix on the idle server; one timing per round trip, unit = cell.
    /// Per-request breakdowns (microseconds, except `submit_ns`) are appended
    /// to `parts`.
    pub fn rtt_block(&mut self, tr: &mut Tracer, parts: &mut Samples) {
        let w = self.w;
        let count = w.spec.rtt_requests;
        self.begin_block(count);
        for k in 0..count {
            let cell_index = w.rtt_order[(self.rtt_cursor + k) % w.rtt_order.len()] as usize;
            let request = self.request(cell_index);
            let op = self.next_op(OP_RTT, cell_index);
            let sent = Instant::now();
            let handle = self.server.submit(request);
            let submitted = Instant::now();
            let response = match handle {
                Ok(handle) => handle.wait().map_err(|e| e.to_string()),
                Err(refused) => Err(format!("submit refused: {refused}")),
            };
            let done = Instant::now();
            let rtt = done - sent;
            if let Ok(r) = &response {
                self.timings.push((cell_index, ns(rtt)));
                let (wait_ns, exec_ns) = (r.queue_wait_ns, r.execute_ns);
                push(parts, "serve.submit_ns", ns(submitted - sent));
                push(parts, "serve.queue_wait_us", wait_ns as f64 / 1e3);
                push(parts, "serve.execute_us", exec_ns as f64 / 1e3);
                push(
                    parts,
                    "serve.tier_us",
                    (ns(rtt) - wait_ns as f64 - exec_ns as f64).max(0.0) / 1e3,
                );
                if tr.enabled() {
                    // The server stamps a request accepted at the top of
                    // `submit`, so its queue wait is anchored at `sent`;
                    // what is left after execute is the way back: response
                    // channel and client wake-up.
                    let (t0, t3) = (tr.at(sent), tr.at(done));
                    let root = Some(tr.add("serve.request", None, op, t0, t3));
                    tr.add("serve.submit", root, op, t0, tr.at(submitted));
                    tr.add("serve.queue_wait", root, op, t0, t0 + wait_ns);
                    let executed = t0 + wait_ns + exec_ns;
                    tr.add("serve.execute", root, op, t0 + wait_ns, executed);
                    tr.add("serve.respond", root, op, executed.min(t3), t3);
                }
            }
            self.settle(cell_index, response, "serve.rtt");
        }
        self.rtt_cursor = (self.rtt_cursor + count) % w.rtt_order.len();
    }

    /// Open loop: a seeded Poisson arrival schedule at `rate_rps` for
    /// `duration`, non-blocking `try_submit`, latency from the intended
    /// send time. A request the full queue refuses is load the server shed:
    /// it misses the latency limit but is not a failed operation (a probe
    /// above the server's capacity is meant to be refused); a wrong or lost
    /// response fails like anywhere else.
    pub fn open_loop(&mut self, rate_rps: f64, duration: Duration, seed: u64) -> OpenLoop {
        let w = self.w;
        let mut rng = Rng::new(seed);
        let schedule = poisson_schedule(&mut rng, rate_rps, duration.as_secs_f64());
        let zipf = w.zipf();
        let mut pacer = Pacer::new(&schedule);
        let mut outstanding: VecDeque<(usize, usize, ResponseHandle)> = VecDeque::new();
        let mut missed = 0usize;
        let mut backlog_at_end = 0usize;
        // A backlog that has not drained this long after the last send is a
        // server that cannot hold the rate; stop and count the rest missed.
        let give_up = duration + Duration::from_secs(2);
        let started = Instant::now();
        let now = |started: Instant| started.elapsed().as_nanos() as u64;
        loop {
            // A bounded burst, then look for answers: a generator that is
            // behind must still see completions, or it reports its own
            // backlog as the server's latency.
            for _ in 0..OPEN_BURST {
                let Some((index, _)) = pacer.take_due(now(started)) else {
                    break;
                };
                let cell = w.open_cell(index, zipf.as_ref(), &mut rng);
                let request = self.request(cell);
                match self.server.try_submit(request) {
                    Ok(handle) => outstanding.push_back((index, cell, handle)),
                    Err(refused) => {
                        missed += 1;
                        self.buffers.push(refused.into_request().mem);
                    }
                }
                if pacer.next_due().is_none() {
                    backlog_at_end = outstanding.len();
                }
            }
            let mut done: Vec<(usize, Result<Response, String>)> = Vec::new();
            outstanding.retain_mut(|(index, cell, handle)| match handle.try_wait() {
                Ok(None) => true,
                Ok(Some(response)) => {
                    pacer.complete(*index, now(started));
                    done.push((*cell, Ok(response)));
                    false
                }
                Err(lost) => {
                    done.push((*cell, Err(lost.to_string())));
                    false
                }
            });
            for (cell, response) in done {
                missed += usize::from(response.is_err());
                self.settle(cell, response, "serve.open");
            }
            if pacer.next_due().is_none() && outstanding.is_empty() {
                break;
            }
            if started.elapsed() > give_up {
                missed += outstanding.len();
                for (_, cell, handle) in outstanding.drain(..) {
                    // Still wait: the buffers come back and the server is
                    // idle again before the next block starts.
                    let response = handle.wait().map_err(|e| e.to_string());
                    self.settle(cell, response, "serve.open");
                }
                break;
            }
            std::hint::spin_loop();
        }
        let sorted_us = |ns: &[u64]| {
            let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        OpenLoop {
            rate_rps,
            sent: schedule.len(),
            missed,
            latency_us: sorted_us(&pacer.latency_ns),
            lag_us: sorted_us(&pacer.lag_ns),
            backlog_at_end,
        }
    }

    /// The server's counters so far.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Stop the server; its threads have ended when this returns.
    pub fn shut_down(self) {
        self.server.shutdown();
    }

    // ------------------------------------------------------- warm-up, exact

    /// Untimed first round: fills the store and every cache, checks that the
    /// compilers and the simulator are deterministic, and collects the
    /// counters that must repeat exactly.
    ///
    /// # Errors
    ///
    /// Returns a description when the offline compile, an online compile or
    /// the simulator produced different output on a second identical run.
    pub fn warm_up(&mut self) -> Result<Exact, String> {
        let w = self.w;
        let tr = &mut Tracer::disabled();
        let options = jit_options();
        let mut exact = Exact::default();

        // Offline twice: bytes compared with set-up's inside the block.
        let failed_before = self.ops.failed;
        self.offline_block(tr);
        self.offline_block(tr);
        if self.ops.failed != failed_before {
            return Err(format!(
                "the offline compiler is not deterministic: {}",
                self.ops.notes.join("; ")
            ));
        }
        for unit in &w.modules {
            exact.bytecode_bytes += unit.encoded.len() as u64;
            exact.minic_tokens += splitc_minic::lex(&unit.source).map_or(0, |t| t.len() as u64);
            let program = splitc_minic::parse(&unit.source).expect("catalogue sources parse");
            let lower = || {
                splitc_minic::compile_program(&program, &unit.name)
                    .expect("catalogue sources lower")
            };
            let mut module = lower();
            exact.minic_vbc_insts += module.num_insts() as u64;
            let report = optimize_module(&mut module, &OptOptions::full());
            exact.opt_insts_after += module.num_insts() as u64;
            exact.opt_vectorized_loops += report.total_vectorized() as u64;
            exact.opt_offline_work += report.offline_work;
            let mut by_passes = lower();
            optimize_by_passes(&mut by_passes, tr, None, 0);
            if by_passes != module {
                return Err(format!(
                    "{}: the pass-by-pass pipeline the trace times differs from optimize_module",
                    unit.name
                ));
            }
        }

        // Online cold with the store attached once, to populate it; then the
        // plain cold block twice, comparing programs and counters.
        w.store.clear();
        for (unit, keys) in w
            .modules
            .iter()
            .zip(self.store_keys.chunks(w.targets.len()))
        {
            let module = decode_module(&unit.encoded).expect("set-up encoded this module");
            let engine = ExecutionEngine::new(module).with_store(Arc::clone(&w.store));
            for (target, key) in w.targets.iter().zip(keys) {
                engine.program_for(target, &options).map_err(|e| {
                    format!("{} does not compile for {}: {e}", unit.name, target.name)
                })?;
                let entry = w.store.entry_path(key);
                exact.store_entry_bytes += std::fs::metadata(&entry)
                    .map_err(|e| format!("no store entry at {entry:?}: {e}"))?
                    .len();
            }
        }
        let mut programs: Vec<Arc<CompiledModule>> = Vec::new();
        let first =
            self.online_block_with(tr, false, &mut |_, _, _, _, c| programs.push(Arc::clone(c)));
        let mut again: Vec<Arc<CompiledModule>> = Vec::new();
        let second =
            self.online_block_with(tr, false, &mut |_, _, _, _, c| again.push(Arc::clone(c)));
        if programs.len() != w.pairs() || programs != again || first != second {
            return Err("the online compiler is not deterministic".to_owned());
        }
        for compiled in &programs {
            exact.code_minsts += compiled.program.num_insts() as u64;
            exact.jit.add(&compiled.jit);
            exact.fused_ops += compiled.prepared.fusion_stats().total();
        }
        let warm = self.online_block(tr, true);
        exact.engine = first;
        exact.engine += warm;

        // One full pass twice: the simulated statistics must repeat.
        self.cell_insts = vec![0; w.cells.len()];
        let sim = self.exec_block(tr, w.cells.len());
        let sim_again = self.exec_block(tr, w.cells.len());
        if sim != sim_again {
            return Err(format!(
                "the simulator is not deterministic: {sim:?} vs {sim_again:?}"
            ));
        }
        exact.sim = sim;

        // Serve every kind once so the server's engines are warm (the
        // skewed mix does not name every kind, the open loop may).
        for cell in 0..w.cells.len() {
            let request = self.request(cell);
            let response = self.round_trip(request);
            self.settle(cell, response, "serve.warm");
        }
        self.closed_block(false);
        Ok(exact)
    }

    // ------------------------------------------------------ per-layer probes

    /// Compile the executor-probe variants (all nine cores on both timing
    /// tiers) and open the probe store. Only the traced run needs them.
    ///
    /// # Errors
    ///
    /// Returns why the probe store cannot be created or a variant does not
    /// compile.
    pub fn prepare_probes(&mut self, probe_store_dir: &Path) -> Result<(), String> {
        let w = self.w;
        let options = jit_options();
        self.probe_store = Some(
            ArtifactStore::open(probe_store_dir)
                .map_err(|e| format!("cannot create {probe_store_dir:?}: {e}"))?,
        );
        for (timing, out) in [
            (TimingKind::Flat, &mut self.probe_flat),
            (TimingKind::InOrder, &mut self.probe_inorder),
        ] {
            for target in targets_for(timing) {
                let class = match target.vector {
                    None => 0,
                    Some(v) if v.bytes <= 16 => 1,
                    Some(_) => 2,
                };
                for unit in &w.modules {
                    let module = decode_module(&unit.encoded).expect("set-up encoded this module");
                    let compiled = ExecutionEngine::new(module)
                        .program_for(&target, &options)
                        .map_err(|e| format!("{} on {}: {e}", unit.name, target.name))?;
                    let first_input = w.cells[unit.first_cell].kernel;
                    out.extend((0..unit.kernels.len()).map(|k| ProbeCell {
                        compiled: Arc::clone(&compiled),
                        kernel: first_input + k,
                        class,
                        insts: 0,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Executor probe: the next `runs` probe cells through `executor`; one
    /// timing per run, unit = probe cell. Call once per executor, then
    /// [`Bench::advance_probes`].
    pub fn executor_probe(&mut self, executor: Executor, runs: usize) {
        let w = self.w;
        let cells = match executor {
            Executor::Threaded | Executor::Metered => &mut self.probe_flat,
            Executor::InOrder => &mut self.probe_inorder,
        };
        self.timings.clear();
        let mut stats = SimStats::default();
        for k in 0..runs.min(cells.len()) {
            let index = (self.probe_cursor + k) % cells.len();
            let cell = &mut cells[index];
            let input = &w.inputs[cell.kernel];
            self.scratch.copy_from_slice(&input.image);
            let prepared = &cell.compiled.prepared;
            let (name, args) = (&input.prepared.name, &input.prepared.args);
            let (scratch, pool) = (&mut self.scratch, &mut self.pool);
            let started = Instant::now();
            let result = if executor == Executor::Metered {
                prepared.run_metered(name, args, scratch, pool, DEFAULT_SIM_FUEL, &mut stats)
            } else {
                prepared.run(name, args, scratch, pool, DEFAULT_SIM_FUEL, &mut stats)
            };
            self.timings.push((index, ns(started.elapsed())));
            cell.insts = stats.instructions;
            black_box(result.is_ok());
        }
    }

    /// Move on to the next probe cells.
    pub fn advance_probes(&mut self, runs: usize) {
        self.probe_cursor = (self.probe_cursor + runs) % self.probe_flat.len().max(1);
    }

    /// A run of every cell at n = 0 — frame set-up, argument marshalling,
    /// pool reuse — one timing per cell; then `lookups` warm `program_for`
    /// calls. Returns nanoseconds per lookup.
    pub fn fixed_cost_probe(&mut self, lookups: usize) -> f64 {
        let w = self.w;
        let options = jit_options();
        self.timings.clear();
        for (index, cell) in w.cells.iter().enumerate() {
            let input = &w.inputs[cell.kernel];
            let mut args = input.prepared.args.clone();
            args[0] = MachineValue::Int(0);
            let started = Instant::now();
            let run = self.engines[cell.module].run_pooled(
                &w.targets[cell.target],
                &options,
                &input.prepared.name,
                &args,
                &mut self.scratch,
                &mut self.pool,
            );
            self.timings.push((index, ns(started.elapsed())));
            black_box(run.is_ok());
        }
        let started = Instant::now();
        for i in 0..lookups {
            let cell = &w.cells[i % w.cells.len()];
            let hit = self.engines[cell.module].program_for(&w.targets[cell.target], &options);
            black_box(hit.is_ok());
        }
        ns(started.elapsed()) / lookups as f64
    }
}

/// Compare one run's output with the interpreter reference; a mismatch or
/// an error outcome is a failed operation.
fn verify(
    ops: &mut Ops,
    w: &Workload,
    cell: &Cell,
    outcome: Result<&Execution, String>,
    mem: &[u8],
    phase: &str,
) {
    let input = &w.inputs[cell.kernel];
    let got = outcome
        .map(|run| checksum_bytes(run.result, &input.prepared, mem))
        .map_err(|e| format!("error: {e}"))
        .and_then(|sum| {
            (sum == cell.expected)
                .then_some(())
                .ok_or_else(|| format!("checksum {sum:#x} != reference {:#x}", cell.expected))
        });
    ops.check(got.is_ok(), || {
        format!(
            "{phase}: {} on {}: {}",
            input.prepared.name,
            w.targets[cell.target].name,
            got.unwrap_err()
        )
    });
}

/// The offline pipeline one public pass at a time, in `optimize_module`'s
/// order for `OptOptions::full()`, each pass in its own span. Warm-up checks
/// that the result equals `optimize_module`'s.
fn optimize_by_passes(module: &mut Module, tr: &mut Tracer, root: Option<SpanId>, op: u64) {
    tr.scope("opt.fold", root, op, || fold_module(module));
    tr.scope("opt.dce", root, op, || eliminate_dead_code_module(module));
    tr.scope("opt.vectorize", root, op, || vectorize_module(module));
    tr.scope("opt.fold", root, op, || fold_module(module));
    tr.scope("opt.dce", root, op, || eliminate_dead_code_module(module));
    tr.scope("opt.split_regalloc", root, op, || {
        annotate_spill_orders(module)
    });
    tr.scope("opt.annotate", root, op, || annotate_module(module));
}

/// Seed of the open-loop run number `k` of a process.
pub fn open_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, 0x09E4_0000 + k)
}
