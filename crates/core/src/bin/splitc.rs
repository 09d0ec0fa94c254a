//! `splitc` — command-line driver for the split-compilation toolchain.
//!
//! ```text
//! splitc build <kernels.mc> -o <module.svbc> [--no-vectorize] [--strip]
//! splitc dis <module.svbc>
//! splitc targets
//! splitc run <module.svbc|kernels.mc> --kernel <fn> --target <name> [--arg i:<int>|f:<float>]...
//! splitc disasm <catalogue-kernel|module.svbc|kernels.mc> [--target <name>] [--timing flat|in-order] [--no-fuse]
//! splitc bench <catalogue-kernel> [--n <elems>] [--target <name>] [--repeats <R>]
//! splitc report <all|table1|splitflow|regalloc|hetero|codesize|kpn> [n] [--json <path>]
//! splitc serve-bench [--n <elems>] [--requests <R>] [--workers <N>] [--queue <Q>] [--cache-cap <C>] [--max-batch <B>] [--seed <S>] [--chaos | --store <dir>]
//! ```
//!
//! Every subcommand refuses a flag given without its value and any argument
//! it does not take, by name.
//!
//! * `build` runs the offline step (front end + optimizer) and writes the
//!   compact deployment format.
//! * `dis` prints the textual listing of a deployed module, including its
//!   annotations.
//! * `run` performs the online step for one target and executes a kernel whose
//!   parameters are all scalars (integers or floats).
//! * `disasm` runs the whole pipeline up to (but not including) execution and
//!   prints the deploy-time artifact the executor actually dispatches: the
//!   prepared instruction stream with resolved block offsets, per-instruction
//!   cycle costs, per-region fuel-and-prepaid-cycle charges, and — unless
//!   `--no-fuse` is given — a `+` on each record that opens a welded pair.
//!   `--timing in-order` prepares under the pipelined timing tier instead:
//!   the same stream, whose regions then prepay 0 cycles (the pipeline
//!   computes them as each region closes) and whose ops are annotated with
//!   their latency class, so stall attribution is inspectable. This is the
//!   debugging surface for weld and cost decisions.
//! * `bench` prepares one of the workload-catalogue kernels (which take
//!   pointer arguments) with generated data and reports simulated cycles on
//!   the chosen target, or on all Table 1 targets when none is given. The
//!   target × repeat matrix runs on the sweep layer over one engine, and
//!   `--repeats R` re-runs every cell R times to show the
//!   compile-once-run-many amortization.
//! * `report` regenerates the paper's tables and figures (one experiment, or
//!   `all` six in order) with `n` elements per kernel invocation (default
//!   4096). `--json <path>` additionally writes the machine-readable golden
//!   of the paper's measured quantity to `path` — by convention
//!   `BENCH_sweep.json` at the repo root: the table1 kernels swept three
//!   times over the full preset target catalogue on a fresh deployment, with
//!   per-cell simulated cycles and checksums, the engine's cache counters and
//!   the online work units. Every byte is a pure function of the source tree
//!   (no clock is read), so the file is committed and CI diffs it: a change
//!   that moves a cycle count, a checksum or a cache counter must regenerate
//!   it. Host wall-clock numbers live in `e2e/` and nowhere else.
//! * `serve-bench` drives mixed-module request traffic (every Table 1
//!   kernel as its own deployment, one request template per kernel × target
//!   of the full catalogue) through the serving tier: one bounded queue
//!   (`--queue` is its bound) drained by `--workers` threads (0 = one per
//!   host core) with continuous batching up to `--max-batch` requests per
//!   pull, over shared, fingerprint-deduplicated engines, optionally
//!   LRU-bounded with `--cache-cap`. Requests are clones of the templates
//!   streamed through a bounded in-flight window (so 10⁵+ requests don't
//!   need 10⁵ pre-built buffers), every response is verified against its
//!   template's single-threaded reference checksum, and the run asserts
//!   exactly-once answering and exact books (`accepted == completed +
//!   expired`, response tallies equal the server counters). Prints the
//!   per-outcome tallies, a digest of the verified responses, the server's
//!   queue-wait and execute p50/p99/p999, the batch-size distribution, and
//!   its queue, engine and cache counters — contracts and counters, not
//!   speed: throughput and round-trip time are the `e2e/` benchmark's
//!   `serve_rps` and `serve_rtt_us`. `--seed <S>` reseeds the whole run —
//!   request inputs and (with `--chaos`) every fault decision derive from
//!   it, so two runs with one seed are replays of each other. `--chaos` is
//!   the same load with a seeded fault hook installed (panics at p = 0.01
//!   and 200 µs latency spikes at p = 0.005, decided per request tag;
//!   deadlines on a slice of the requests): every panic must come back as
//!   an answer, not a lost response, and the run fails loudly unless at
//!   least one response came back panicked. `--store <dir>` runs the load
//!   twice against the store directory — once cold (store cleared, every
//!   key compiled and published) and once warm in a fresh server — and
//!   asserts the warm pass compiled nothing, hit the disk once per key and
//!   answered bit-identically (what that buys in time is `online_cold_ms`
//!   vs `online_warm_ms` on the benchmark's `deploy` workload).

#![forbid(unsafe_code)]

use splitc::experiments::{codesize, hetero, kpn, regalloc, splitflow, table1};
use splitc::serve::{chaos_hook, run_load, run_store_bench, LoadConfig};
use splitc::splitc_jit::JitOptions;
use splitc::splitc_opt::{optimize_module, OptOptions};
use splitc::splitc_runtime::Platform;
use splitc::splitc_targets::{MachineValue, TargetDesc, TimingKind};
use splitc::splitc_vbc::{decode_module, encode_module, Module};
use splitc::splitc_workloads::{module_for, table1_kernels, DEFAULT_N};
use splitc::sweep::{sweep_engine, sweep_kernels, SweepConfig};
use splitc::{
    fmt_cache_line, offline_compile, run_on_target, ExecutionEngine, PipelineError, Workspace,
};
use std::process::ExitCode;

/// The `report` line of the usage text, quoted whole by every `report`
/// argument error.
const REPORT_USAGE: &str =
    "splitc report <all|table1|splitflow|regalloc|hetero|codesize|kpn> [n] [--json <path>]";

/// The experiments `splitc report all` runs, in order.
const EXPERIMENTS: [&str; 6] = [
    "table1",
    "splitflow",
    "regalloc",
    "hetero",
    "codesize",
    "kpn",
];

fn usage() -> String {
    format!(
        "usage:\n  splitc build <kernels.mc> -o <module.svbc> [--no-vectorize] [--strip]\n  splitc dis <module.svbc>\n  splitc targets\n  splitc run <module.svbc|kernels.mc> --kernel <fn> --target <name> [--arg i:<int>|f:<float>]...\n  splitc disasm <catalogue-kernel|module.svbc|kernels.mc> [--target <name>] [--timing flat|in-order] [--no-fuse]\n  splitc bench <kernel> [--n <elems>] [--target <name>] [--repeats <R>]\n  {REPORT_USAGE}\n  splitc serve-bench [--n <elems>] [--requests <R>] [--workers <N>] [--queue <Q>] [--cache-cap <C>] [--max-batch <B>] [--seed <S>] [--chaos | --store <dir>]"
    )
}

/// Parse one `--arg` value of the form `i:<integer>` or `f:<float>`.
fn parse_arg(text: &str) -> Result<MachineValue, String> {
    match text.split_once(':') {
        Some(("i", v)) => v
            .parse::<i64>()
            .map(MachineValue::Int)
            .map_err(|e| format!("bad integer argument `{v}`: {e}")),
        Some(("f", v)) => v
            .parse::<f64>()
            .map(MachineValue::Float)
            .map_err(|e| format!("bad float argument `{v}`: {e}")),
        _ => Err(format!(
            "argument `{text}` must look like i:<int> or f:<float>"
        )),
    }
}

/// Parse a `--timing` value into a timing tier.
fn parse_timing(text: &str) -> Result<TimingKind, String> {
    match text {
        "flat" => Ok(TimingKind::Flat),
        "in-order" | "inorder" | "pipelined" => Ok(TimingKind::InOrder),
        other => Err(format!(
            "unknown timing model `{other}` (expected flat or in-order)"
        )),
    }
}

/// Extract the value following `flag`, removing both from `args`; a `flag`
/// with nothing after it is an error.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// [`take_flag`], parsing the value.
fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    take_flag(args, flag)?
        .map(|s| {
            s.parse()
                .map_err(|e| format!("bad {flag} value `{s}`: {e}"))
        })
        .transpose()
}

/// Remove a boolean switch from `args`, reporting whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Refuse the first of `args`, the arguments `command` did not take.
fn refuse_leftovers(command: &str, args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("{command} takes no argument `{extra}`")),
        None => Ok(()),
    }
}

/// The one positional argument left in `args` once `command` took its
/// flags; `missing` is the error when there is none.
fn sole_positional(command: &str, args: Vec<String>, missing: &str) -> Result<String, String> {
    let mut args = args.into_iter();
    let first = args.next().ok_or(missing)?;
    refuse_leftovers(command, args.as_slice())?;
    Ok(first)
}

/// Load a module from either a compact `.svbc` file or mini-C source.
fn load_module(path: &str) -> Result<Module, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.starts_with(splitc::splitc_vbc::MAGIC) {
        decode_module(&bytes).map_err(|e| format!("cannot decode {path}: {e}"))
    } else {
        let source = String::from_utf8(bytes).map_err(|_| format!("{path} is not UTF-8 source"))?;
        let (module, _) = offline_compile(&source, path, &OptOptions::full())
            .map_err(|e| format!("cannot compile {path}: {e}"))?;
        Ok(module)
    }
}

fn cmd_build(mut args: Vec<String>) -> Result<(), String> {
    let output = take_flag(&mut args, "-o")?.ok_or("build requires -o <module.svbc>")?;
    let no_vectorize = take_switch(&mut args, "--no-vectorize");
    let strip = take_switch(&mut args, "--strip");
    let input = sole_positional("build", args, "build requires an input file")?;
    let source =
        std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let opts = if no_vectorize {
        OptOptions {
            vectorize: false,
            ..OptOptions::full()
        }
    } else {
        OptOptions::full()
    };
    let (mut module, report) =
        offline_compile(&source, &input, &opts).map_err(|e| format!("offline step failed: {e}"))?;
    if strip {
        module.strip_annotations();
    }
    let wire = encode_module(&module);
    std::fs::write(&output, &wire).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "{}: {} functions, {} vectorized loops, {} bytes -> {}",
        input,
        module.functions().len(),
        report.total_vectorized(),
        wire.len(),
        output
    );
    Ok(())
}

fn cmd_dis(args: Vec<String>) -> Result<(), String> {
    let input = sole_positional("dis", args, "dis requires an input file")?;
    let module = load_module(&input)?;
    print!("{module}");
    Ok(())
}

fn cmd_targets(args: Vec<String>) -> Result<(), String> {
    refuse_leftovers("targets", &args)?;
    for t in TargetDesc::presets() {
        println!("{t}");
    }
    Ok(())
}

fn cmd_run(mut args: Vec<String>) -> Result<(), String> {
    let kernel = take_flag(&mut args, "--kernel")?.ok_or("run requires --kernel <fn>")?;
    let target_name = take_flag(&mut args, "--target")?.unwrap_or_else(|| "x86-sse".to_owned());
    let target = TargetDesc::preset(&target_name)
        .ok_or_else(|| format!("unknown target `{target_name}` (see `splitc targets`)"))?;
    let mut call_args = Vec::new();
    while let Some(a) = take_flag(&mut args, "--arg")? {
        call_args.push(parse_arg(&a)?);
    }
    let input = sole_positional("run", args, "run requires an input file")?;
    let module = load_module(&input)?;
    let mut ws = Workspace::new(1 << 20);
    let run = run_on_target(
        &module,
        &target,
        &JitOptions::split(),
        &kernel,
        &call_args,
        ws.bytes_mut(),
    )
    .map_err(|e| format!("execution failed: {e}"))?;
    match run.result {
        Some(MachineValue::Int(v)) => println!("result: {v}"),
        Some(MachineValue::Float(v)) => println!("result: {v}"),
        None => println!("result: (void)"),
    }
    println!(
        "cycles: {}  instructions: {}  spill ops: {}  online work: {}",
        run.stats.cycles,
        run.stats.instructions,
        run.spill_ops(),
        run.jit.total_work()
    );
    Ok(())
}

fn cmd_disasm(args: Vec<String>) -> Result<(), String> {
    print!("{}", disasm_text(args)?);
    Ok(())
}

/// The listing `splitc disasm` prints for `args`.
fn disasm_text(mut args: Vec<String>) -> Result<String, String> {
    let target_name = take_flag(&mut args, "--target")?.unwrap_or_else(|| "x86-sse".to_owned());
    let timing = take_flag(&mut args, "--timing")?
        .map(|s| parse_timing(&s))
        .transpose()?
        .unwrap_or_default();
    let target = TargetDesc::preset(&target_name)
        .ok_or_else(|| format!("unknown target `{target_name}` (see `splitc targets`)"))?
        .with_timing(timing);
    let fuse = !take_switch(&mut args, "--no-fuse");
    let input = sole_positional(
        "disasm",
        args,
        "disasm requires a catalogue kernel name or an input file",
    )?;
    // A bare catalogue name wins over a file of the same name: the catalogue
    // is the common case and its names never collide with real paths.
    let module = match splitc::splitc_workloads::kernel(&input) {
        Some(k) => {
            let (module, _) = offline_compile(k.source, k.name, &OptOptions::full())
                .map_err(|e| format!("cannot compile catalogue kernel {}: {e}", k.name))?;
            module
        }
        None => load_module(&input)?,
    };
    let options = JitOptions {
        fuse,
        ..JitOptions::split()
    };
    let (program, _) = splitc::splitc_jit::compile_module(&module, &target, &options)
        .map_err(|e| format!("online compilation failed: {e}"))?;
    let prepared = splitc::splitc_targets::PreparedProgram::prepare_with(&program, &target, fuse)
        .map_err(|e| format!("deploy-time preparation failed: {e}"))?;
    Ok(prepared.disasm(&program))
}

fn cmd_bench(mut args: Vec<String>) -> Result<(), String> {
    let n: usize = take_parsed(&mut args, "--n")?.unwrap_or(DEFAULT_N);
    let repeats: usize = take_parsed(&mut args, "--repeats")?.unwrap_or(1);
    let target_filter = take_flag(&mut args, "--target")?;
    let kernel_name = sole_positional("bench", args, "bench requires a catalogue kernel name")?;
    let kernel = splitc::splitc_workloads::kernel(&kernel_name)
        .ok_or_else(|| format!("`{kernel_name}` is not in the workload catalogue"))?;

    let targets: Vec<TargetDesc> = match target_filter {
        Some(name) => {
            vec![TargetDesc::preset(&name).ok_or_else(|| format!("unknown target `{name}`"))?]
        }
        None => TargetDesc::table1_targets(),
    };
    // One deployment for the whole sweep: each target compiles exactly once,
    // however many repeats the matrix runs.
    let cfg = SweepConfig::new(n).with_repeats(repeats);
    let result =
        sweep_kernels(&[kernel], &targets, &cfg).map_err(|e| format!("sweep failed: {e}"))?;
    for cell in result.cells.iter().filter(|c| c.repeat == 0) {
        println!(
            "{:<12} n={n}  cycles={}  scaled={:.1}  checksum={:016x}",
            cell.target, cell.cycles, cell.scaled_cycles, cell.checksum
        );
    }
    println!("{}", fmt_cache_line(&result.cache));
    Ok(())
}

fn cmd_report(mut args: Vec<String>) -> Result<(), String> {
    let usage_err = |e: String| format!("{e}\nusage: {REPORT_USAGE}");
    let json_path = take_flag(&mut args, "--json").map_err(usage_err)?;
    let mut args = args.into_iter();
    let what = args
        .next()
        .ok_or_else(|| usage_err("report requires an experiment".to_owned()))?;
    let experiments = match what.as_str() {
        "all" => &EXPERIMENTS[..],
        one => {
            let i = EXPERIMENTS
                .iter()
                .position(|e| *e == one)
                .ok_or_else(|| usage_err(format!("unknown experiment `{one}`")))?;
            &EXPERIMENTS[i..=i]
        }
    };
    let n: usize = match args.next() {
        Some(n) => n
            .parse()
            .map_err(|e| usage_err(format!("bad n `{n}`: {e}")))?,
        None => DEFAULT_N,
    };
    refuse_leftovers("report", args.as_slice()).map_err(usage_err)?;
    for experiment in experiments {
        print!(
            "{}",
            report_text(experiment, n).map_err(|e| format!("report failed: {e}"))?
        );
    }
    if let Some(path) = json_path {
        write_sweep_json(&path, n).map_err(|e| format!("report failed: {e}"))?;
        println!("wrote sweep golden to {path}");
    }
    Ok(())
}

/// What `splitc report` prints for one of [`EXPERIMENTS`] at `n` elements.
fn report_text(experiment: &str, n: usize) -> Result<String, PipelineError> {
    Ok(match experiment {
        "table1" => {
            // One sweep over the whole preset catalogue — the RISC-V and GPU
            // families included — rendered twice: first the paper's three
            // columns (a pure subset of the measured cells, no re-compilation
            // or re-run), then the full table showing how the same portable
            // module lands on machines the paper never saw.
            let full = table1::run_on(n, &TargetDesc::presets())?;
            let paper: Vec<String> = TargetDesc::table1_targets()
                .into_iter()
                .map(|t| t.name)
                .collect();
            let mut paper_view = full.clone();
            paper_view.targets = paper.clone();
            for row in &mut paper_view.rows {
                row.cells.retain(|c| paper.contains(&c.target));
            }
            format!(
                "{}\nFull target catalogue (same sweep, same deployment):\n{}\n",
                paper_view.render(),
                full.render()
            )
        }
        "splitflow" => format!("{}\n", splitflow::run(n, &[])?.render()),
        "regalloc" => format!("{}\n", regalloc::run(n)?.render()),
        "hetero" => {
            let sizes = [n / 64, n / 16, n / 4, n, n * 4, n * 16];
            format!("{}\n", hetero::run("saxpy_f32", &sizes)?.render())
        }
        "codesize" => format!("{}\n", codesize::run()?.render()),
        "kpn" => format!(
            "{}\n{}\n",
            kpn::run(&Platform::cell_blade(3), n, 32)?.render(),
            kpn::run(&Platform::phone(), n, 32)?.render()
        ),
        other => unreachable!("`{other}` is not one of the report experiments"),
    })
}

/// Repeats per sweep cell in the `--json` golden.
const JSON_SWEEP_REPEATS: usize = 3;

/// Deploy a fresh engine, sweep the table1 kernels over the full preset
/// catalogue (every backend family, the RISC-V and GPU targets included) and
/// write the `BENCH_sweep.json` golden to `path`: totals, cache counters, and
/// the per-(kernel, target) cycles and checksum of the first repeat.
fn write_sweep_json(path: &str, n: usize) -> Result<(), Box<dyn std::error::Error>> {
    let kernels = table1_kernels();
    let mut module = module_for(&kernels, "bench-sweep")?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    let cfg = SweepConfig::new(n).with_repeats(JSON_SWEEP_REPEATS);
    let result = sweep_engine(&engine, &kernels, &TargetDesc::presets(), &cfg)?;
    // Kernel and target names are catalogue identifiers (plain ASCII, no
    // quotes or escapes), so `{:?}` writes them as JSON strings.
    let detail: Vec<String> = result
        .cells
        .iter()
        .filter(|c| c.repeat == 0)
        .map(|cell| {
            format!(
                "        {{\"kernel\": {:?}, \"target\": {:?}, \"cycles\": {}, \"scaled_cycles\": {:.1}, \"checksum\": \"{:016x}\"}}",
                cell.kernel, cell.target, cell.cycles, cell.scaled_cycles, cell.checksum,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"splitc-bench-sweep/10\",\n  \"n\": {n},\n  \"repeats\": {JSON_SWEEP_REPEATS},\n  \"sweeps\": [\n    {{\n      \"cells\": {},\n      \"total_cycles\": {},\n      \"cache\": {{\"compiles\": {}, \"hits\": {}, \"evictions\": {}}},\n      \"online_work\": {},\n      \"cells_detail\": [\n{}\n      ]\n    }}\n  ]\n}}\n",
        result.cells.len(),
        result.total_cycles(),
        result.cache.compiles,
        result.cache.hits,
        result.cache.evictions,
        result.online_work,
        detail.join(",\n"),
    );
    std::fs::write(path, json)?;
    Ok(())
}

fn cmd_serve_bench(mut args: Vec<String>) -> Result<(), String> {
    let n: usize = take_parsed(&mut args, "--n")?.unwrap_or(1024);
    let requests: usize = take_parsed(&mut args, "--requests")?.unwrap_or(256);
    let workers: usize = take_parsed(&mut args, "--workers")?.unwrap_or(0);
    let queue: usize = take_parsed(&mut args, "--queue")?.unwrap_or(64);
    let cache_cap: usize = take_parsed(&mut args, "--cache-cap")?.unwrap_or(0);
    let max_batch: usize = take_parsed(&mut args, "--max-batch")?.unwrap_or(16);
    let seed: Option<u64> = take_parsed(&mut args, "--seed")?;
    let chaos = take_switch(&mut args, "--chaos");
    let store_dir = take_flag(&mut args, "--store")?;
    if store_dir.is_some() && chaos {
        return Err("--store runs the cold-vs-warm pair of clean loads; drop --chaos".to_owned());
    }
    refuse_leftovers("serve-bench", &args)?;
    let mut cfg = LoadConfig::catalogue(n, requests);
    cfg.server = cfg
        .server
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_cache_capacity(cache_cap)
        .with_max_batch(max_batch);
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(dir) = store_dir {
        let report = run_store_bench(&cfg, std::path::Path::new(&dir))
            .map_err(|e| format!("store check failed: {e}"))?;
        print!("{}", report.render());
        return Ok(());
    }
    if chaos {
        cfg.server.faults = Some(chaos_hook(cfg.seed));
    }
    let report = run_load(&cfg).map_err(|e| format!("serving load failed: {e}"))?;
    print!("{}", report.render());
    // A chaos run in which no panic came back as an answer proves nothing
    // about the panic guard and must fail the CI step that invoked it.
    if chaos && report.panicked == 0 {
        return Err("chaos load never answered an injected panic — increase --requests".to_owned());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "build" => cmd_build(args),
        "dis" => cmd_dis(args),
        "targets" => cmd_targets(args),
        "run" => cmd_run(args),
        "disasm" => cmd_disasm(args),
        "bench" => cmd_bench(args),
        "report" => cmd_report(args),
        "serve-bench" => cmd_serve_bench(args),
        "--help" | "-h" | "help" => {
            refuse_leftovers(&command, &args).map(|()| println!("{}", usage()))
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arguments_parse() {
        assert_eq!(parse_arg("i:42").unwrap(), MachineValue::Int(42));
        assert_eq!(parse_arg("f:2.5").unwrap(), MachineValue::Float(2.5));
        assert!(parse_arg("x:1").is_err());
        assert!(parse_arg("i:notanumber").is_err());
        assert!(parse_arg("42").is_err());
    }

    #[test]
    fn flags_and_switches_are_extracted() {
        let mut args: Vec<String> = ["a.mc", "-o", "out.svbc", "--strip"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(take_flag(&mut args, "-o"), Ok(Some("out.svbc".to_owned())));
        assert!(take_switch(&mut args, "--strip"));
        assert!(!take_switch(&mut args, "--strip"));
        assert_eq!(args, vec!["a.mc".to_owned()]);
        assert_eq!(take_flag(&mut args, "--missing"), Ok(None));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn a_flag_without_a_value_is_refused_by_every_subcommand() {
        type Cmd = fn(Vec<String>) -> Result<(), String>;
        let cases: [(Cmd, &[&str], &str); 8] = [
            (cmd_build, &["k.mc", "-o"], "-o"),
            (cmd_run, &["k.svbc", "--kernel"], "--kernel"),
            (cmd_run, &["k.svbc", "--kernel", "f", "--arg"], "--arg"),
            (cmd_disasm, &["saxpy_f32", "--target"], "--target"),
            (cmd_bench, &["saxpy_f32", "--n"], "--n"),
            (cmd_bench, &["saxpy_f32", "--target"], "--target"),
            (cmd_serve_bench, &["--workers"], "--workers"),
            (cmd_report, &["table1", "--json"], "--json"),
        ];
        for (cmd, args, flag) in cases {
            let err = cmd(strings(args)).unwrap_err();
            assert!(
                err.contains(&format!("{flag} requires a value")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn an_unknown_argument_is_refused_by_every_subcommand() {
        type Cmd = fn(Vec<String>) -> Result<(), String>;
        let cases: [(Cmd, &[&str], &str); 8] = [
            (cmd_build, &["k.mc", "-o", "k.svbc", "extra"], "extra"),
            (cmd_dis, &["k.svbc", "extra"], "extra"),
            (cmd_targets, &["extra"], "extra"),
            (cmd_run, &["k.svbc", "--kernel", "f", "extra"], "extra"),
            (cmd_disasm, &["saxpy_f32", "--bogus"], "--bogus"),
            (cmd_bench, &["saxpy_f32", "--bogus", "extra"], "--bogus"),
            (cmd_serve_bench, &["--bogus"], "--bogus"),
            (cmd_report, &["table1", "512", "extra"], "extra"),
        ];
        for (cmd, args, extra) in cases {
            let err = cmd(strings(args)).unwrap_err();
            assert!(
                err.contains(&format!("takes no argument `{extra}`")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn report_refuses_malformed_arguments_with_the_usage_text() {
        for args in [
            &[][..],
            &["tabel1"][..],
            &["table1", "51x"][..],
            &["table1", "512", "extra"][..],
            &["table1", "512", "--json"][..],
        ] {
            let err = cmd_report(strings(args)).unwrap_err();
            assert!(err.contains(REPORT_USAGE), "{args:?}: {err}");
        }
    }

    #[test]
    fn report_json_writes_the_sweep_golden() {
        let path = std::env::temp_dir().join(format!(
            "splitc-cli-report-{}-sweep.json",
            std::process::id()
        ));
        let path_arg = path.to_string_lossy().into_owned();
        cmd_report(strings(&["table1", "16", "--json", &path_arg])).expect("report succeeds");
        let json = std::fs::read_to_string(&path).expect("golden written");
        std::fs::remove_file(&path).ok();
        assert!(
            json.contains("\"schema\": \"splitc-bench-sweep/10\""),
            "{json}"
        );
        assert!(json.contains("\"n\": 16,"), "{json}");
        // 6 Table 1 kernels × 9 presets × 3 repeats.
        assert!(json.contains("\"cells\": 162,"), "{json}");
        assert!(!json.contains("jobs"), "{json}");
    }

    #[test]
    fn build_dis_run_round_trip_through_files() {
        let dir = std::env::temp_dir().join(format!("splitc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src_path = dir.join("k.mc");
        let out_path = dir.join("k.svbc");
        std::fs::write(&src_path, "fn triple(x: i32) -> i32 { return 3 * x; }").unwrap();

        cmd_build(vec![
            src_path.to_str().unwrap().to_owned(),
            "-o".into(),
            out_path.to_str().unwrap().to_owned(),
        ])
        .expect("build succeeds");
        assert!(out_path.exists());

        // Loading the compact file gives back the same module as recompiling.
        let module = load_module(out_path.to_str().unwrap()).expect("loads");
        assert!(module.function("triple").is_some());

        cmd_run(vec![
            out_path.to_str().unwrap().to_owned(),
            "--kernel".into(),
            "triple".into(),
            "--target".into(),
            "powerpc".into(),
            "--arg".into(),
            "i:14".into(),
        ])
        .expect("run succeeds");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_bench_runs_a_small_load() {
        cmd_serve_bench(vec![
            "--n".into(),
            "32".into(),
            "--requests".into(),
            "12".into(),
            "--workers".into(),
            "2".into(),
            "--queue".into(),
            "4".into(),
            "--max-batch".into(),
            "4".into(),
        ])
        .expect("serving load succeeds");
        assert!(cmd_serve_bench(vec!["--workers".into(), "x".into()]).is_err());
        assert!(cmd_serve_bench(vec!["--max-batch".into(), "x".into()]).is_err());
        assert!(cmd_serve_bench(vec!["spurious".into()]).is_err());
    }

    #[test]
    fn serve_bench_soak_streams_and_verifies() {
        // 64 requests through a window of 16: the load streams.
        cmd_serve_bench(vec![
            "--n".into(),
            "32".into(),
            "--requests".into(),
            "64".into(),
            "--workers".into(),
            "2".into(),
            "--queue".into(),
            "8".into(),
            "--seed".into(),
            "7".into(),
        ])
        .expect("a seeded streamed load succeeds");
        assert!(cmd_serve_bench(vec!["--seed".into(), "x".into()]).is_err());
        // Every load streams and verifies: no switch selects a driver, and
        // an unknown one is refused by name instead of being ignored.
        let err = cmd_serve_bench(vec!["--no-such-switch".into()]).unwrap_err();
        assert!(err.contains("--no-such-switch"), "{err}");
    }

    #[test]
    fn serve_bench_store_runs_cold_then_warm() {
        let dir = std::env::temp_dir().join(format!(
            "splitc-cli-store-{}-serve_bench_store_runs_cold_then_warm",
            std::process::id()
        ));
        cmd_serve_bench(vec![
            "--n".into(),
            "32".into(),
            "--requests".into(),
            "12".into(),
            "--workers".into(),
            "2".into(),
            "--store".into(),
            dir.to_string_lossy().into_owned(),
        ])
        .expect("store check succeeds (cold pass compiles, warm pass loads)");
        assert!(
            cmd_serve_bench(vec!["--store".into(), "x".into(), "--chaos".into()]).is_err(),
            "--store and --chaos are mutually exclusive"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_bench_chaos_answers_injected_panics() {
        cmd_serve_bench(vec![
            "--n".into(),
            "32".into(),
            "--requests".into(),
            "3000".into(),
            "--workers".into(),
            "2".into(),
            "--queue".into(),
            "16".into(),
            "--seed".into(),
            "11".into(),
            "--chaos".into(),
        ])
        .expect("chaos load succeeds, including the panicked-response check");
    }

    #[test]
    fn disasm_prints_the_prepared_stream_for_catalogue_kernels() {
        cmd_disasm(vec!["saxpy_f32".into()]).expect("welded disasm succeeds");
        cmd_disasm(vec![
            "sum_u8".into(),
            "--target".into(),
            "powerpc".into(),
            "--no-fuse".into(),
        ])
        .expect("unwelded disasm succeeds");
        assert!(cmd_disasm(vec!["saxpy_f32".into(), "--target".into(), "vax".into()]).is_err());
        assert!(cmd_disasm(vec!["no_such_kernel_or_file".into()]).is_err());
        assert!(cmd_disasm(vec![]).is_err());
    }

    #[test]
    fn disasm_annotates_latency_classes_under_the_pipelined_tier() {
        cmd_disasm(vec![
            "saxpy_f32".into(),
            "--timing".into(),
            "in-order".into(),
        ])
        .expect("pipelined disasm succeeds");
        // Each segment prints its reset-board summary: the loop body of
        // `saxpy_f32` stalls on its loads and reads the loop counter first.
        let text = disasm_text(vec![
            "saxpy_f32".into(),
            "--timing".into(),
            "in-order".into(),
        ])
        .expect("pipelined disasm succeeds");
        let body = text
            .lines()
            .find(|l| l.contains("; segment rows @5..28: "))
            .unwrap_or_else(|| panic!("no summary line for the loop body:\n{text}"));
        assert!(body.contains("stalls on a reset board; live-in "), "{body}");
        assert!(body.contains(" r3@1"), "{body}");
        assert!(!text.contains("prepaid"), "{text}");
        assert!(parse_timing("flat").is_ok());
        assert_eq!(parse_timing("in-order").unwrap(), TimingKind::InOrder);
        assert!(parse_timing("ooo").is_err());
        assert!(cmd_disasm(vec!["saxpy_f32".into(), "--timing".into(), "ooo".into()]).is_err());
    }

    #[test]
    fn bench_runs_a_parallel_repeated_sweep() {
        cmd_bench(strings(&["saxpy_f32", "--n", "64", "--repeats", "3"]))
            .expect("bench sweep succeeds");
        assert!(cmd_bench(vec!["not_a_kernel".into()]).is_err());
        assert!(cmd_bench(strings(&["saxpy_f32", "--repeats", "x"])).is_err());
        // Sweeps are sequential: the old worker-count flag is refused by name.
        let stale = ["--", "jobs"].concat();
        let err = cmd_bench(strings(&["saxpy_f32", "--n", "64", &stale, "2"])).unwrap_err();
        assert!(err.contains(&format!("`{stale}`")), "{err}");
    }
}
