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
    assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
    assert_eq!(engine.compiled_variants(), expected_compiles as usize);

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
fn parallel_sweep_under_lru_pressure_stays_correct() {
    // A bounded cache under 8-thread load: eviction churn must never change
    // results, and the counters must stay consistent.
    let engine = Arc::new(deploy());
    engine.set_cache_capacity(2);
    let targets = TargetDesc::presets();

    let reference_engine = deploy();
    let mut ws = Workspace::sized_for(N);
    let reference: Vec<u64> = (0..targets.len())
        .map(|ti| run_job(&reference_engine, &mut ws, (0, ti, 0)))
        .collect();

    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(thread as u64);
                let mut order: Vec<usize> = (0..reference.len()).collect();
                shuffle(&mut order, &mut rng);
                let mut ws = Workspace::sized_for(N);
                barrier.wait();
                for _ in 0..3 {
                    for &ti in &order {
                        let sum = run_job(&engine, &mut ws, (0, ti, 0));
                        assert_eq!(sum, reference[ti], "target {ti} diverged under eviction");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    let stats = engine.stats();
    assert_eq!(stats.compiles + stats.hits, stats.lookups());
    assert!(
        stats.evictions > 0,
        "a 2-entry cache swept over the whole target catalogue must evict"
    );
    assert!(engine.compiled_variants() <= 2, "the bound holds at rest");
}

#[test]
fn stats_snapshots_stay_consistent_while_workers_churn_the_cache() {
    // The serving layer reads engine stats from a live worker pool; this
    // pins the guarantees those reads rely on. A bounded cache churns under
    // racing threads while an observer hammers `snapshot()`: every snapshot
    // — whatever instant it lands on — must be internally consistent
    // (resident entries == compiles - evictions, no torn lookups) and the
    // sequence must be pointwise monotonic. The independently-read atomic
    // counters this replaced could skew exactly here.
    let engine = Arc::new(deploy());
    engine.set_cache_capacity(2);
    let targets = TargetDesc::presets();
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));

    let workers: Vec<_> = (0..4)
        .map(|thread| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xca5e + thread as u64);
                let targets = TargetDesc::presets();
                let mut order: Vec<usize> = (0..targets.len()).collect();
                for _ in 0..6 {
                    shuffle(&mut order, &mut rng);
                    for &ti in &order {
                        engine
                            .program_for(&targets[ti], &JitOptions::split())
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
            (snap.stats.compiles + snap.stats.disk_hits - snap.stats.evictions) as usize,
            "a snapshot tore a compile apart from its insert/evict"
        );
        assert!(snap.live <= 2, "the LRU bound holds in every snapshot");
        assert_eq!(
            snap.stats.lookups(),
            snap.stats.compiles + snap.stats.hits + snap.stats.disk_hits
        );
        assert!(
            snap.stats.compiles >= prev.stats.compiles,
            "compiles went backwards"
        );
        assert!(snap.stats.hits >= prev.stats.hits, "hits went backwards");
        assert!(
            snap.stats.evictions >= prev.stats.evictions,
            "evictions went backwards"
        );
        assert!(snap.online_work >= prev.online_work, "work went backwards");
        prev = snap;
        observed += 1;
    }
    for w in workers {
        w.join().expect("churn thread panicked");
    }
    assert!(observed > 0, "the observer actually raced the workers");
    let quiescent = engine.snapshot();
    assert_eq!(
        quiescent.live,
        (quiescent.stats.compiles + quiescent.stats.disk_hits - quiescent.stats.evictions) as usize
    );
    assert!(quiescent.live <= 2, "the LRU bound holds at rest");
    assert_eq!(
        quiescent.stats.lookups(),
        4 * 6 * targets.len() as u64,
        "every lookup was counted exactly once"
    );
}
