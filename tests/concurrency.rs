//! Concurrency stress tests for the one-lock, in-flight-deduplicated engine
//! cache, driven by raw threads sharing one engine.
//!
//! The properties pinned down here are the ones the paper's amortization
//! story depends on at scale:
//!
//! * **exactly one compile per (target, options) pair**, however many threads
//!   race on a cold key in whatever arrival order — duplicated compiles would
//!   silently double the online cost the experiments report;
//! * **hits account for every other lookup** (`compiles + hits == lookups`),
//!   so the cache counters stay trustworthy under contention;
//! * **bit-identical results**: a kernel's checksum does not depend on which
//!   thread ran it, when, or what else was in flight.

use rand::{rngs::StdRng, Rng, SeedableRng};
use splitc::{checksum, prepare, ExecutionEngine, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::TargetDesc;
use splitc_workloads::{module_for, table1_kernels};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};

const N: usize = 64;
const THREADS: usize = 8;

/// All three online configurations an engine can be asked for.
fn configs() -> Vec<JitOptions> {
    vec![
        JitOptions::split(),
        JitOptions::online_greedy(),
        JitOptions::online_analyze(),
    ]
}

/// Deploy the full Table 1 kernel catalogue into one engine.
fn deploy() -> ExecutionEngine {
    let kernels = table1_kernels();
    let mut module = module_for(&kernels, "stress").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    ExecutionEngine::new(module)
}

/// One cell of the stress matrix: kernel index, target index, config index.
type Job = (usize, usize, usize);

/// Run one job against `engine`, returning the checksum of its results.
fn run_job(engine: &ExecutionEngine, ws: &mut Workspace, job: Job) -> u64 {
    let kernels = table1_kernels();
    let targets = TargetDesc::presets();
    let configs = configs();
    let (ki, ti, ci) = job;
    let kernel = &kernels[ki];
    ws.reset();
    let prepared = prepare(kernel.name, N, 0xc0ffee + ki as u64, ws);
    let run = engine
        .run(
            &targets[ti],
            &configs[ci],
            kernel.name,
            &prepared.args,
            ws.bytes_mut(),
        )
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, targets[ti].name));
    checksum(run.result, &prepared, ws)
}

/// In-place Fisher–Yates shuffle with a per-thread seeded generator, so each
/// thread hammers the engine in its own randomized arrival order.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0usize..i + 1);
        items.swap(i, j);
    }
}

#[test]
fn eight_racing_threads_compile_exactly_once_per_pair() {
    let kernels = table1_kernels();
    let targets = TargetDesc::presets();
    let configs = configs();

    let mut jobs: Vec<Job> = Vec::new();
    for ki in 0..kernels.len() {
        for ti in 0..targets.len() {
            for ci in 0..configs.len() {
                jobs.push((ki, ti, ci));
            }
        }
    }

    // Single-threaded reference sweep on a fresh engine.
    let reference_engine = deploy();
    let mut reference: HashMap<Job, u64> = HashMap::new();
    let mut ws = Workspace::sized_for(N);
    for &job in &jobs {
        reference.insert(job, run_job(&reference_engine, &mut ws, job));
    }

    // Eight threads hammer one shared engine, each in its own shuffled order,
    // released simultaneously so cold keys actually race.
    let engine = Arc::new(deploy());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let mut thread_jobs = jobs.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5eed + thread as u64);
                shuffle(&mut thread_jobs, &mut rng);
                let mut ws = Workspace::sized_for(N);
                barrier.wait();
                for job in thread_jobs {
                    let sum = run_job(&engine, &mut ws, job);
                    assert_eq!(
                        sum, reference[&job],
                        "job {job:?} diverged from the single-threaded run"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    // Exactly one compile per (target, config) pair — kernels share the
    // module, so they never multiply compilations; racing threads dedup.
    let expected_compiles = (targets.len() * configs.len()) as u64;
    let stats = engine.stats();
    assert_eq!(
        stats.compiles, expected_compiles,
        "racing cold lookups must deduplicate to exactly T x C compiles"
    );
    assert_eq!(
        stats.lookups(),
        (THREADS * jobs.len()) as u64,
        "every run performs exactly one cache lookup"
    );
    assert_eq!(
        stats.hits,
        stats.lookups() - stats.compiles,
        "hits must account for every non-compiling lookup"
    );
    assert_eq!(engine.snapshot().live, expected_compiles as usize);

    // The reference sweep compiled the same set of pairs, once each, too.
    assert_eq!(reference_engine.stats().compiles, expected_compiles);
}

#[test]
fn simultaneous_cold_start_on_one_key_compiles_once() {
    // The sharpest version of the race: every thread asks for the *same*
    // cold (target, options) pair at the same instant.
    let engine = Arc::new(deploy());
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                engine
                    .program_for(&TargetDesc::x86_sse(), &JitOptions::split())
                    .expect("compiles")
            })
        })
        .collect();
    let programs: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("thread panicked"))
        .collect();
    assert_eq!(engine.stats().compiles, 1, "one winner compiles");
    assert_eq!(engine.stats().hits, (THREADS - 1) as u64, "the rest wait");
    for p in &programs[1..] {
        assert!(
            Arc::ptr_eq(&programs[0], p),
            "all threads must share the winner's Arc'd program"
        );
    }
}

#[test]
fn stats_snapshots_stay_consistent_while_workers_fill_the_cache() {
    // The serving layer reads engine stats from a live worker pool; this
    // pins the guarantees those reads rely on. Racing threads fill the cache
    // with every cold (target, options) pair while an observer hammers
    // `snapshot()`: every snapshot — whatever instant it lands on, in-flight
    // compiles included — must be internally consistent (resident entries
    // == compiles + disk hits, no torn lookups) and the sequence must be
    // pointwise monotonic. The independently-read atomic counters this
    // replaced could skew exactly here.
    let engine = Arc::new(deploy());
    let targets = TargetDesc::presets();
    let keys = targets.len() * configs().len();
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let workers: Vec<_> = (0..4)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xca5e + thread as u64);
                let targets = TargetDesc::presets();
                let configs = configs();
                let mut order: Vec<(usize, usize)> = (0..targets.len())
                    .flat_map(|ti| (0..configs.len()).map(move |ci| (ti, ci)))
                    .collect();
                for _ in 0..6 {
                    shuffle(&mut order, &mut rng);
                    for &(ti, ci) in &order {
                        engine
                            .program_for(&targets[ti], &configs[ci])
                            .expect("compiles");
                    }
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
        })
        .collect();

    let mut prev = engine.snapshot();
    let mut observed = 0usize;
    while done.load(std::sync::atomic::Ordering::Relaxed) < 4 {
        let snap = engine.snapshot();
        assert_eq!(
            snap.live,
            (snap.stats.compiles + snap.stats.disk_hits) as usize,
            "a snapshot tore a compile apart from its insert"
        );
        assert_eq!(
            snap.stats.lookups(),
            snap.stats.compiles + snap.stats.hits + snap.stats.disk_hits
        );
        assert!(
            snap.stats.compiles >= prev.stats.compiles,
            "compiles went backwards"
        );
        assert!(snap.stats.hits >= prev.stats.hits, "hits went backwards");
        assert!(snap.online_work >= prev.online_work, "work went backwards");
        prev = snap;
        observed += 1;
    }
    for w in workers {
        w.join().expect("cache-filling thread panicked");
    }
    assert!(observed > 0, "the observer actually raced the workers");
    let quiescent = engine.snapshot();
    assert_eq!(
        quiescent.live,
        (quiescent.stats.compiles + quiescent.stats.disk_hits) as usize
    );
    assert_eq!(quiescent.live, keys, "one resident entry per pair at rest");
    assert_eq!(
        quiescent.stats.lookups(),
        (4 * 6 * keys) as u64,
        "every lookup was counted exactly once"
    );
}
