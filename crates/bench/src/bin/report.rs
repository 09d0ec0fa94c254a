//! Regenerate the paper-style tables of the DAC 2010 reproduction.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p splitc-bench --bin report -- [all|table1|splitflow|regalloc|hetero|codesize|kpn] [n] [--jobs N] [--json <path>]
//! ```
//!
//! `n` is the number of elements per kernel invocation (default 4096, as in
//! the experiment index of `DESIGN.md`). `--jobs N` fans the measurement
//! matrices of the table1, splitflow and hetero experiments across N worker
//! threads (`--jobs 0` = one per host core); results are bit-identical to
//! the sequential run, so parallelism only changes wall-clock time.
//!
//! `--json <path>` additionally writes the machine-readable golden of the
//! paper's measured quantity to `path` — by convention `BENCH_sweep.json` at
//! the repo root: the table1 kernels swept once, sequentially, over the full
//! preset target catalogue on a fresh deployment, with per-cell simulated
//! cycles and checksums, the engine's cache counters and the online work
//! units. Every byte is a pure function of the source tree (no clock is
//! read), so the file is committed and CI diffs it: a change that moves a
//! cycle count, a checksum or a cache counter must regenerate it. Host
//! wall-clock numbers live in `e2e/` and nowhere else.

#![forbid(unsafe_code)]

use splitc::experiments::{codesize, hetero, kpn, regalloc, splitflow, table1};
use splitc::splitc_opt::{optimize_module, OptOptions};
use splitc::splitc_runtime::Platform;
use splitc::splitc_targets::TargetDesc;
use splitc::splitc_workloads::{module_for, table1_kernels};
use splitc::sweep::{sweep_engine, SweepConfig, SweepResult};
use splitc::ExecutionEngine;
use std::process::ExitCode;

fn print_table1(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    // One sweep over the whole preset catalogue — the RISC-V and GPU
    // families included — rendered twice: first the paper's three columns
    // (a pure subset of the measured cells, no re-compilation or re-run),
    // then the full table showing how the same portable module lands on
    // machines the paper never saw.
    let full = table1::run_with(n, &TargetDesc::presets(), jobs)?;
    let paper: Vec<String> = TargetDesc::table1_targets()
        .iter()
        .map(|t| t.name.clone())
        .collect();
    let paper_view = table1::Table1 {
        n: full.n,
        targets: paper.clone(),
        rows: full
            .rows
            .iter()
            .map(|r| table1::Table1Row {
                kernel: r.kernel.clone(),
                cells: r
                    .cells
                    .iter()
                    .filter(|c| paper.contains(&c.target))
                    .cloned()
                    .collect(),
            })
            .collect(),
        cache: full.cache,
        online_work: full.online_work,
        jobs: full.jobs,
    };
    println!("{}", paper_view.render());
    println!("Full target catalogue (same sweep, same deployment):");
    println!("{}", full.render());
    Ok(())
}

fn print_splitflow(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", splitflow::run_with(n, &[], jobs)?.render());
    Ok(())
}

fn print_regalloc(n: usize) -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", regalloc::run(n)?.render());
    Ok(())
}

fn print_hetero(n: usize, jobs: usize) -> Result<(), Box<dyn std::error::Error>> {
    let sizes = [n / 64, n / 16, n / 4, n, n * 4, n * 16];
    println!("{}", hetero::run_with("saxpy_f32", &sizes, jobs)?.render());
    Ok(())
}

fn print_codesize() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", codesize::run()?.render());
    Ok(())
}

fn print_kpn(n: usize) -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::cell_blade(3);
    println!("{}", kpn::run(&platform, n, 32)?.render());
    let phone = Platform::phone();
    println!("{}", kpn::run(&phone, n, 32)?.render());
    Ok(())
}

/// Repeats per sweep cell in the `--json` golden.
const JSON_SWEEP_REPEATS: usize = 3;

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one sweep as a JSON object: totals, cache counters, and the
/// per-(kernel, target) cycles and checksum of the first repeat.
fn sweep_to_json(result: &SweepResult) -> String {
    let mut detail = String::new();
    for (i, cell) in result.cells.iter().filter(|c| c.repeat == 0).enumerate() {
        if i > 0 {
            detail.push_str(",\n");
        }
        detail.push_str(&format!(
            "        {{\"kernel\": \"{}\", \"target\": \"{}\", \"cycles\": {}, \"scaled_cycles\": {:.1}, \"checksum\": \"{:016x}\"}}",
            json_escape(&cell.kernel),
            json_escape(&cell.target),
            cell.cycles,
            cell.scaled_cycles,
            cell.checksum,
        ));
    }
    format!(
        "    {{\n      \"jobs\": {},\n      \"cells\": {},\n      \"total_cycles\": {},\n      \"cache\": {{\"compiles\": {}, \"hits\": {}, \"evictions\": {}}},\n      \"online_work\": {},\n      \"cells_detail\": [\n{}\n      ]\n    }}",
        result.jobs,
        result.cells.len(),
        result.total_cycles(),
        result.cache.compiles,
        result.cache.hits,
        result.cache.evictions,
        result.online_work,
        detail,
    )
}

/// Deploy a fresh engine, sweep the table1 kernels sequentially over the
/// full preset catalogue (every backend family, the RISC-V and GPU targets
/// included) and write the `BENCH_sweep.json` golden to `path`.
fn write_sweep_json(path: &str, n: usize) -> Result<(), Box<dyn std::error::Error>> {
    let kernels = table1_kernels();
    let mut module = module_for(&kernels, "bench-sweep")?;
    optimize_module(&mut module, &OptOptions::full());
    let engine = ExecutionEngine::new(module);
    let cfg = SweepConfig::new(n).with_repeats(JSON_SWEEP_REPEATS);
    let result = sweep_engine(&engine, &kernels, &TargetDesc::presets(), &cfg)?;
    let json = format!(
        "{{\n  \"schema\": \"splitc-bench-sweep/9\",\n  \"n\": {n},\n  \"repeats\": {JSON_SWEEP_REPEATS},\n  \"sweeps\": [\n{}\n  ]\n}}\n",
        sweep_to_json(&result),
    );
    std::fs::write(path, json)?;
    println!("wrote sweep golden to {path}");
    Ok(())
}

const USAGE: &str =
    "usage: report [all|table1|splitflow|regalloc|hetero|codesize|kpn] [n] [--jobs N] [--json <path>]";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path: Option<String> = match args.iter().position(|a| a == "--json") {
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            Some(value)
        }
        Some(_) => {
            eprintln!("--json requires a path");
            return ExitCode::from(2);
        }
        None => None,
    };
    let jobs: usize = match args.iter().position(|a| a == "--jobs") {
        Some(pos) if pos + 1 < args.len() => {
            let value = args.remove(pos + 1);
            args.remove(pos);
            match value.parse() {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("bad --jobs value `{value}`: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Some(_) => {
            eprintln!("--jobs requires a value");
            return ExitCode::from(2);
        }
        None => 1,
    };
    let what = args.first().map(String::as_str).unwrap_or("all");
    let n: usize = match args.get(1..).unwrap_or_default() {
        [] => splitc::splitc_workloads::DEFAULT_N,
        [n] => match n.parse() {
            Ok(n) => n,
            Err(e) => {
                eprintln!("bad n `{n}`: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        [_, surplus, ..] => {
            eprintln!("unexpected argument `{surplus}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let result = match what {
        "table1" => print_table1(n, jobs),
        "splitflow" => print_splitflow(n, jobs),
        "regalloc" => print_regalloc(n),
        "hetero" => print_hetero(n, jobs),
        "codesize" => print_codesize(),
        "kpn" => print_kpn(n),
        "all" => print_table1(n, jobs)
            .and_then(|()| print_splitflow(n, jobs))
            .and_then(|()| print_regalloc(n))
            .and_then(|()| print_hetero(n, jobs))
            .and_then(|()| print_codesize())
            .and_then(|()| print_kpn(n)),
        other => {
            eprintln!(
                "unknown report `{other}`; expected one of: all, table1, splitflow, regalloc, hetero, codesize, kpn"
            );
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| match &json_path {
        Some(path) => write_sweep_json(path, n),
        None => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report failed: {e}");
            ExitCode::FAILURE
        }
    }
}
