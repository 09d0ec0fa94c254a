//! Serving-grade tests for the async request layer: soak, graceful shutdown,
//! backpressure accounting, tear-free stats snapshots under churn,
//! flood-versus-shutdown races, and hostile modules and panicking compiles
//! that must be answered, not crash a worker.
//!
//! The contract under test: whatever the interleaving of submitting threads
//! and worker scheduling, every served response is **bit-identical** to a
//! fresh single-threaded [`run_on_target`] reference (same `Execution`
//! measurement, same memory image), online compilation happens exactly once
//! per distinct (module, target, options) triple, and a graceful shutdown
//! answers every accepted request.

use splitc::serve::{Request, ServeModule, Server, ServerConfig, SubmitError};
use splitc::splitc_minic::compile_source;
use splitc::{checksum_bytes, prepare, run_on_target, EngineError, Execution, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{MachineValue, TargetDesc};
use splitc_vbc::{verify_module, Module};
use splitc_workloads::{kernel, module_for, Kernel};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A reference outcome: what one request must reproduce, bit for bit.
struct Expected {
    execution: Execution,
    mem: Vec<u8>,
    checksum: u64,
}

/// Compile `kernels` into one optimized module.
fn offline(kernels: &[Kernel], name: &str) -> Module {
    let mut module = module_for(kernels, name).expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

/// The single-threaded reference: prepare inputs from `seed`, run once via
/// `run_on_target` (a fresh, cache-free compile), keep everything.
fn reference(
    module: &Module,
    kernel_name: &str,
    target: &TargetDesc,
    n: usize,
    seed: u64,
) -> Expected {
    let mut ws = Workspace::sized_for(n);
    let prepared = prepare(kernel_name, n, seed, &mut ws);
    let execution = run_on_target(
        module,
        target,
        &JitOptions::split(),
        kernel_name,
        &prepared.args,
        ws.bytes_mut(),
    )
    .expect("reference run succeeds");
    let checksum = checksum_bytes(execution.result, &prepared, ws.bytes());
    Expected {
        execution,
        mem: ws.into_bytes(),
        checksum,
    }
}

/// Build the request whose response must match [`reference`] for the same
/// coordinates: identical inputs prepared from the same seed.
fn request_for(
    module: &ServeModule,
    kernel_name: &str,
    target: &TargetDesc,
    n: usize,
    seed: u64,
) -> Request {
    let mut ws = Workspace::sized_for(n);
    let prepared = prepare(kernel_name, n, seed, &mut ws);
    Request {
        module: module.clone(),
        kernel: kernel_name.to_owned(),
        target: target.clone(),
        options: JitOptions::split(),
        args: prepared.args.clone(),
        mem: ws.into_bytes(),
        deadline: None,
        tag: 0,
    }
}

/// Deterministic per-coordinate input seed.
fn seed_for(ki: usize, ti: usize, rep: usize) -> u64 {
    0x5e2 + (ki as u64) * 1_000 + (ti as u64) * 10 + rep as u64
}

/// A permutation of `0..len` that differs per `thread`: rotated start,
/// coprime stride — cheap deterministic interleaving without an RNG.
fn shuffled(len: usize, thread: usize, stride: usize) -> Vec<usize> {
    assert_eq!(gcd(stride, len), 1, "stride must generate the full cycle");
    (0..len).map(|i| (thread * 13 + i * stride) % len).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[test]
fn soak_many_threads_many_modules_all_targets_bit_identical_to_reference() {
    const N: usize = 64;
    const REPEATS: usize = 3;
    const THREADS: usize = 8;
    let names = ["vecadd_f32", "saxpy_f32", "sum_u8", "prefix_sum_i32"];
    // Mixed-module traffic: each kernel is its own deployment.
    let modules: Vec<ServeModule> = names
        .iter()
        .map(|name| ServeModule::new(offline(&[kernel(name).unwrap()], name)))
        .collect();
    let targets = TargetDesc::presets();

    // Single-threaded reference for every (module, target, repeat) cell.
    let mut expected: HashMap<(usize, usize, usize), Expected> = HashMap::new();
    for (ki, name) in names.iter().enumerate() {
        for (ti, target) in targets.iter().enumerate() {
            for rep in 0..REPEATS {
                expected.insert(
                    (ki, ti, rep),
                    reference(modules[ki].module(), name, target, N, seed_for(ki, ti, rep)),
                );
            }
        }
    }
    let expected = Arc::new(expected);

    let cells: Vec<(usize, usize, usize)> = (0..names.len())
        .flat_map(|ki| {
            (0..targets.len()).flat_map(move |ti| (0..REPEATS).map(move |rep| (ki, ti, rep)))
        })
        .collect();
    let server = Server::start(
        ServerConfig::default()
            .with_workers(4)
            .with_queue_capacity(32),
    );

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let server = &server;
            let cells = &cells;
            let modules = &modules;
            let targets = &targets;
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                // Each thread walks the full matrix in its own interleaving
                // and submits everything before waiting on anything, so many
                // requests are genuinely in flight at once.
                let order = shuffled(cells.len(), thread, 7);
                let mut handles = Vec::with_capacity(order.len());
                for &cell in order.iter().map(|&i| &cells[i]) {
                    let (ki, ti, rep) = cell;
                    let request = request_for(
                        &modules[ki],
                        names[ki],
                        &targets[ti],
                        N,
                        seed_for(ki, ti, rep),
                    );
                    handles.push((cell, server.submit(request).expect("server is accepting")));
                }
                for ((ki, ti, rep), handle) in handles {
                    let response = handle.wait().expect("every accepted request is answered");
                    let run = response.outcome.unwrap_or_else(|e| {
                        panic!("{} on {} failed: {e}", names[ki], targets[ti].name)
                    });
                    let want = &expected[&(ki, ti, rep)];
                    assert_eq!(
                        run, want.execution,
                        "{} on {} rep {rep}: served measurement diverged from the fresh reference",
                        names[ki], targets[ti].name
                    );
                    assert_eq!(
                        response.mem, want.mem,
                        "{} on {} rep {rep}: served memory image diverged",
                        names[ki], targets[ti].name
                    );
                }
            });
        }
    });

    let total = (THREADS * cells.len()) as u64;
    let stats = server.shutdown();
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed, total, "shutdown lost accepted requests");
    assert_eq!(stats.rejected, 0, "blocking submits are never rejected");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.engines, names.len(), "one shared engine per module");
    assert_eq!(
        stats.cache.compiles,
        (names.len() * targets.len()) as u64,
        "exactly one compile per distinct (module, target, options) triple"
    );
    // Continuous batching: the engine is consulted once per served batch,
    // not once per request, so lookups track the batch count exactly and
    // every completion is accounted to exactly one batch.
    assert_eq!(
        stats.cache.lookups(),
        stats.batch_sizes.count(),
        "one engine lookup per served batch"
    );
    assert!(
        stats.cache.lookups() <= total,
        "batching never adds lookups"
    );
    assert_eq!(
        stats.cache.hits,
        stats.cache.lookups() - stats.cache.compiles
    );
    assert_eq!(
        stats.batch_sizes.sum(),
        total,
        "every completion is counted in exactly one batch"
    );
    assert_eq!(stats.queue_wait.count(), total);
    assert_eq!(stats.execute.count(), total);
    assert_eq!(stats.per_target.len(), targets.len());
    let per_target_each = total / targets.len() as u64;
    for (name, count) in &stats.per_target {
        assert_eq!(count, &per_target_each, "uneven traffic on {name}");
    }
}

#[test]
fn graceful_shutdown_answers_every_accepted_request_and_refuses_the_rest() {
    const N: usize = 32;
    const THREADS: usize = 4;
    const TRIES: usize = 120;
    let module = ServeModule::new(offline(&[kernel("dscal_f32").unwrap()], "shutdown"));
    let target = TargetDesc::x86_sse();
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(8),
    ));
    // Producers get one guaranteed acceptance each before the main thread
    // starts shutting down; everything after that races the shutdown.
    let barrier = Arc::new(Barrier::new(THREADS + 1));

    let producers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let module = module.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let seed0 = (thread * TRIES) as u64;
                accepted.push((
                    seed0,
                    server
                        .submit(request_for(&module, "dscal_f32", &target, N, seed0))
                        .expect("the server is open before the barrier"),
                ));
                barrier.wait();
                let mut refused = 0usize;
                for i in 1..TRIES {
                    let seed = seed0 + i as u64;
                    match server.submit(request_for(&module, "dscal_f32", &target, N, seed)) {
                        Ok(handle) => accepted.push((seed, handle)),
                        Err(SubmitError::ShuttingDown(request)) => {
                            // The refused request comes back intact.
                            assert_eq!(request.kernel, "dscal_f32");
                            refused += 1;
                            break;
                        }
                        Err(SubmitError::QueueFull(_)) => {
                            panic!("blocking submit must wait, not report a full queue")
                        }
                    }
                }
                (accepted, refused)
            })
        })
        .collect();

    barrier.wait();
    let stats = server.shutdown();

    let mut total_accepted = 0u64;
    for producer in producers {
        let (accepted, _refused) = producer.join().expect("producer panicked");
        total_accepted += accepted.len() as u64;
        for (seed, handle) in accepted {
            // Zero loss: accepted before or during shutdown, answered either
            // way — and still correct.
            let response = handle
                .wait()
                .expect("an accepted request must be answered across shutdown");
            let run = response.outcome.expect("accepted request executes");
            let want = reference(module.module(), "dscal_f32", &target, N, seed);
            assert_eq!(run, want.execution);
            assert_eq!(response.mem, want.mem);
            assert_eq!(
                checksum_bytes(
                    run.result,
                    &prepare("dscal_f32", N, seed, &mut Workspace::sized_for(N)),
                    &response.mem
                ),
                want.checksum
            );
        }
    }
    assert!(
        total_accepted >= THREADS as u64,
        "the pre-barrier submissions"
    );
    // `stats` was taken inside shutdown() after the drain: nothing accepted
    // afterwards, so the producers' tally matches it exactly.
    assert_eq!(stats.accepted, total_accepted);
    assert_eq!(stats.completed, total_accepted, "drain lost requests");
    assert_eq!(stats.queue_depth, 0);
    // And the server stays closed.
    assert!(matches!(
        server.submit(request_for(&module, "dscal_f32", &target, N, 9_999)),
        Err(SubmitError::ShuttingDown(_))
    ));
}

#[test]
fn try_submit_backpressure_accounting_adds_up_under_a_flood() {
    const THREADS: usize = 3;
    const TRIES: usize = 100;
    let module = ServeModule::new(offline(&[kernel("sum_u8").unwrap()], "flood"));
    let target = TargetDesc::powerpc();
    // One worker behind a tiny queue: the flood must hit QueueFull at least
    // occasionally, and every refusal must be counted and handed back.
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
    ));

    let floods: Vec<_> = (0..THREADS)
        .map(|thread| {
            let server = Arc::clone(&server);
            let module = module.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                let mut ok = Vec::new();
                let mut full = 0u64;
                for i in 0..TRIES {
                    let seed = (thread * TRIES + i) as u64;
                    match server.try_submit(request_for(&module, "sum_u8", &target, 16, seed)) {
                        Ok(handle) => ok.push(handle),
                        Err(SubmitError::QueueFull(request)) => {
                            assert_eq!(request.kernel, "sum_u8", "refused request intact");
                            full += 1;
                        }
                        Err(SubmitError::ShuttingDown(_)) => {
                            panic!("nobody shuts the server down during the flood")
                        }
                    }
                }
                (ok, full)
            })
        })
        .collect();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for flood in floods {
        let (ok, full) = flood.join().expect("flood thread panicked");
        accepted += ok.len() as u64;
        rejected += full;
        for handle in ok {
            handle
                .wait()
                .expect("accepted request answered")
                .outcome
                .expect("accepted request executes");
        }
    }
    assert_eq!(accepted + rejected, (THREADS * TRIES) as u64);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.rejected_shutdown, 0, "nobody raced the shutdown here");
    assert_eq!(stats.completed, accepted, "no accepted request was lost");
}

#[test]
fn stats_snapshots_stay_consistent_while_traffic_churns() {
    const N: usize = 24;
    const PRODUCERS: usize = 2;
    const PER_PRODUCER: usize = 150;
    const OBSERVATIONS: usize = 200;
    let module = ServeModule::new(offline(&[kernel("vecadd_f32").unwrap()], "observe"));
    let target = TargetDesc::x86_sse();
    // A small queue keeps depth bouncing between empty and full while the
    // observer samples, so the tear-free snapshot is exercised at both
    // extremes, not just in a steady state.
    let server = Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(4),
    );

    std::thread::scope(|scope| {
        for thread in 0..PRODUCERS {
            let server = &server;
            let module = &module;
            let target = &target;
            scope.spawn(move || {
                let mut handles = Vec::with_capacity(PER_PRODUCER);
                for i in 0..PER_PRODUCER {
                    let seed = (thread * PER_PRODUCER + i) as u64;
                    handles.push(
                        server
                            .submit(request_for(module, "vecadd_f32", target, N, seed))
                            .expect("server is accepting"),
                    );
                }
                for handle in handles {
                    handle.wait().expect("answered").outcome.expect("executes");
                }
            });
        }

        // The observer races the producers and the workers: every snapshot
        // it takes must be internally consistent — a completion is only
        // visible once its request has left the queue, the high-water mark
        // never trails the depth, and the counters never run backwards.
        let mut last_accepted = 0u64;
        let mut last_completed = 0u64;
        for _ in 0..OBSERVATIONS {
            let stats = server.stats();
            assert!(
                stats.completed + stats.queue_depth as u64 <= stats.accepted,
                "torn snapshot: {} completed + {} queued > {} accepted",
                stats.completed,
                stats.queue_depth,
                stats.accepted
            );
            assert!(
                stats.queue_high_water >= stats.queue_depth,
                "high water {} trails live depth {}",
                stats.queue_high_water,
                stats.queue_depth
            );
            assert!(stats.accepted >= last_accepted, "accepted ran backwards");
            assert!(stats.completed >= last_completed, "completed ran backwards");
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.rejected_shutdown, 0);
            last_accepted = stats.accepted;
            last_completed = stats.completed;
        }
    });

    let total = (PRODUCERS * PER_PRODUCER) as u64;
    let stats = server.shutdown();
    assert_eq!(stats.accepted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn a_flood_racing_shutdown_accounts_for_every_attempt_exactly_once() {
    const THREADS: usize = 3;
    const TRIES: usize = 200;
    let module = ServeModule::new(offline(&[kernel("sum_u8").unwrap()], "race"));
    let target = TargetDesc::powerpc();
    // A tiny queue behind one worker so the flood sees all three outcomes:
    // accepted, refused-full, and — once the main thread pulls the plug
    // mid-flood — refused-shutting-down.
    let server = Arc::new(Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
    ));
    let barrier = Arc::new(Barrier::new(THREADS + 1));

    let floods: Vec<_> = (0..THREADS)
        .map(|thread| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let module = module.clone();
            let target = target.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut ok = Vec::new();
                let mut full = 0u64;
                let mut shut = 0u64;
                for i in 0..TRIES {
                    let seed = (thread * TRIES + i) as u64;
                    match server.try_submit(request_for(&module, "sum_u8", &target, 16, seed)) {
                        Ok(handle) => ok.push(handle),
                        Err(SubmitError::QueueFull(request)) => {
                            assert_eq!(request.kernel, "sum_u8", "refused request intact");
                            full += 1;
                        }
                        Err(SubmitError::ShuttingDown(request)) => {
                            assert_eq!(request.kernel, "sum_u8", "refused request intact");
                            shut += 1;
                        }
                    }
                }
                (ok, full, shut)
            })
        })
        .collect();

    // Pull the plug while the flood is in full swing.
    barrier.wait();
    server.shutdown();

    let mut accepted = 0u64;
    let mut rejected_full = 0u64;
    let mut rejected_shutdown = 0u64;
    for flood in floods {
        let (ok, full, shut) = flood.join().expect("flood thread panicked");
        accepted += ok.len() as u64;
        rejected_full += full;
        rejected_shutdown += shut;
        for handle in ok {
            // Accepted before the close means answered despite the close.
            handle
                .wait()
                .expect("accepted request answered across shutdown")
                .outcome
                .expect("accepted request executes");
        }
    }
    assert_eq!(
        accepted + rejected_full + rejected_shutdown,
        (THREADS * TRIES) as u64,
        "every attempt lands in exactly one bucket"
    );
    // The floods kept racing after shutdown() returned its own snapshot, so
    // re-read the stats now that every thread has been joined: the server's
    // books must agree with the producers' tallies bucket for bucket.
    let stats = server.stats();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.rejected, rejected_full);
    assert_eq!(stats.rejected_shutdown, rejected_shutdown);
    assert_eq!(stats.completed, accepted, "no accepted request was lost");
    assert_eq!(stats.queue_depth, 0);
}

/// A kernel that, left alone, spins through hundreds of millions of back
/// edges — far past any reasonable deadline. The interpreter's fuel cap
/// would stop it eventually, but only after tens of seconds; a cooperative
/// cancellation must stop it within milliseconds of the deadline instead.
fn runaway_module() -> ServeModule {
    let mut module = compile_source(
        "fn spin(n: i32, out: *i32) {
             let acc: i32 = 0;
             for (let i: i32 = 0; i < n; i = i + 1) { acc = acc + i; }
             out[0] = acc;
         }",
        "runaway",
    )
    .expect("runaway kernel compiles");
    optimize_module(&mut module, &OptOptions::full());
    ServeModule::new(module)
}

fn runaway_request(module: &ServeModule, target: &TargetDesc, deadline: Instant) -> Request {
    Request {
        module: module.clone(),
        kernel: "spin".to_owned(),
        target: target.clone(),
        options: JitOptions::split(),
        args: vec![MachineValue::Int(200_000_000), MachineValue::Int(0)],
        mem: vec![0u8; 64],
        deadline: Some(deadline),
        tag: 0,
    }
}

#[test]
fn a_deadline_cancels_a_runaway_kernel_mid_flight() {
    const N: usize = 32;
    let runaway = runaway_module();
    let well_behaved = ServeModule::new(offline(&[kernel("vecadd_f32").unwrap()], "bystander"));
    let target = TargetDesc::x86_sse();
    let server = Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(8),
    );

    let started = Instant::now();
    let doomed = server
        .submit(runaway_request(
            &runaway,
            &target,
            Instant::now() + Duration::from_millis(50),
        ))
        .expect("server is accepting");
    // A concurrent, unrelated request on the other worker must be entirely
    // unaffected by the cancellation next door.
    let bystander = server
        .submit(request_for(&well_behaved, "vecadd_f32", &target, N, 7))
        .expect("server is accepting");

    let response = doomed
        .wait()
        .expect("a cancelled request is still answered");
    let elapsed = started.elapsed();
    assert!(
        matches!(response.outcome, Err(EngineError::DeadlineExceeded)),
        "expected DeadlineExceeded, got {:?}",
        response.outcome
    );
    // The loop would ride the fuel cap for tens of seconds; the cooperative
    // check at every back edge must stop it within moments of the 50 ms
    // deadline. 10 s leaves room for arbitrarily slow debug-build CI while
    // still being far below fuel exhaustion.
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation did not interrupt the runaway loop (took {elapsed:?})"
    );

    let response = bystander.wait().expect("answered");
    let want = reference(well_behaved.module(), "vecadd_f32", &target, N, 7);
    assert_eq!(
        response.outcome.expect("the bystander executes"),
        want.execution
    );
    assert_eq!(response.mem, want.mem);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(
        stats.completed, 2,
        "a cancelled request still counts as completed"
    );
    assert_eq!(stats.cancelled, 1, "exactly the runaway run was cancelled");
    assert_eq!(
        stats.expired, 0,
        "it was cancelled mid-flight, not shed from the queue"
    );
}

#[test]
fn shutdown_with_deadlines_answers_every_accepted_handle_exactly_once() {
    const N: usize = 32;
    const EXPIRED: usize = 4;
    const FRESH: usize = 4;
    let runaway = runaway_module();
    let module = ServeModule::new(offline(&[kernel("vecadd_f32").unwrap()], "drain"));
    let target = TargetDesc::x86_sse();
    // One worker: the runaway occupies it while everything else queues, so
    // the drop below races a live in-flight deadline and a queue holding
    // both already-expired and still-fresh work.
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity((EXPIRED + FRESH + 1) * 2),
    );

    let doomed = server
        .submit(runaway_request(
            &runaway,
            &target,
            Instant::now() + Duration::from_millis(100),
        ))
        .expect("server is accepting");
    let mut expired = Vec::new();
    for i in 0..EXPIRED {
        // A deadline that has already passed at submission: the drain must
        // shed it at dequeue, not run it.
        let mut request = request_for(&module, "vecadd_f32", &target, N, i as u64);
        request.deadline = Some(Instant::now());
        expired.push(server.submit(request).expect("server is accepting"));
    }
    let mut fresh = Vec::new();
    for i in 0..FRESH {
        let seed = 100 + i as u64;
        fresh.push((
            seed,
            server
                .submit(request_for(&module, "vecadd_f32", &target, N, seed))
                .expect("server is accepting"),
        ));
    }

    // Pull the plug with the runaway still in flight. Shutdown (and drop,
    // which runs the same drain) must drain: the worker running the runaway
    // enforces its deadline itself, so the join cannot wait on it past that
    // deadline.
    let stats = server.shutdown();
    assert_eq!(
        stats.cancelled, 1,
        "the runaway was executing when cancelled"
    );
    assert_eq!(
        stats.expired, EXPIRED as u64,
        "a request shed at dequeue never reaches execution"
    );

    let response = doomed.wait().expect("the in-flight request is answered");
    assert!(
        matches!(response.outcome, Err(EngineError::DeadlineExceeded)),
        "expected the runaway to be cancelled, got {:?}",
        response.outcome
    );

    for handle in expired {
        let response = handle.wait().expect("an expired request is answered");
        assert!(
            matches!(response.outcome, Err(EngineError::DeadlineExceeded)),
            "expected an expired-in-queue shed, got {:?}",
            response.outcome
        );
    }
    for (seed, handle) in fresh {
        let response = handle.wait().expect("a fresh request is answered");
        let run = response.outcome.expect("a fresh request executes");
        let want = reference(module.module(), "vecadd_f32", &target, N, seed);
        assert_eq!(run, want.execution, "drain changed a served measurement");
        assert_eq!(
            response.mem, want.mem,
            "drain changed a served memory image"
        );
    }
}

/// The trust boundary of the request path: a module the verifier rejects and
/// a compile step that panics both reach a worker, both are
/// *answered*, the (single) worker serves the next request, and the books
/// stay exact.
#[test]
fn a_hostile_module_and_a_panicking_compile_are_answered_and_the_worker_lives() {
    let source = "fn triple(x: i32) -> i32 { return 3 * x; }";
    // A block that lost its terminator: decodes, deploys, fails to verify.
    let mut hostile = compile_source(source, "hostile").unwrap();
    hostile.functions_mut()[0].blocks[0].insts.pop();
    assert!(verify_module(&hostile).is_err());
    let hostile = ServeModule::new(hostile);
    let healthy = ServeModule::new(compile_source(source, "healthy").unwrap());
    // Tag 7 panics where its online step starts.
    let server = Server::start(ServerConfig::default().with_workers(1).with_faults(|tag| {
        if tag == 7 {
            panic!("injected panic")
        }
    }));
    let ask = |module: &ServeModule, tag: u64| {
        let request = Request {
            module: module.clone(),
            kernel: "triple".into(),
            target: TargetDesc::x86_sse(),
            options: JitOptions::split(),
            args: vec![MachineValue::Int(14)],
            mem: vec![0xa5; 64],
            deadline: None,
            tag,
        };
        let response = server.submit(request).expect("accepting").wait();
        response.expect("the worker answered instead of dying")
    };

    let rejected = ask(&hostile, 1);
    assert!(
        matches!(rejected.outcome, Err(EngineError::Jit(_))),
        "got {:?}",
        rejected.outcome
    );
    assert_eq!(
        rejected.mem,
        vec![0xa5; 64],
        "the memory comes back as sent"
    );

    let crashed = ask(&healthy, 7);
    assert!(
        matches!(
            crashed.outcome,
            Err(EngineError::Panicked(ref msg)) if msg.contains("injected panic")
        ),
        "got {:?}",
        crashed.outcome
    );
    assert_eq!(crashed.mem, vec![0xa5; 64]);

    let served = ask(&healthy, 8);
    assert_eq!(
        served.outcome.expect("the worker serves on").result,
        Some(MachineValue::Int(42))
    );

    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.completed, stats.expired), (3, 3, 0));
    assert_eq!(stats.batch_sizes.sum(), stats.completed);
    assert_eq!(stats.engines, 2);
}
