//! `splitc-e2e`: one seeded benchmark for the whole split-compilation path —
//! offline → online → execute → serve — with per-layer attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! See `e2e/README.md` for the metrics, the workloads and how to read a
//! trace. Every layer is measured from outside, through the crates' public
//! functions; nothing outside `e2e/` knows this benchmark exists.

mod alloc;
mod calib;
mod catalog;
mod gen;
mod host;
mod phases;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: splitc-e2e --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
       splitc-e2e --self-check [--seed <u64>] [--seconds <s>]
       splitc-e2e --describe metrics|benchmark
workloads: deploy exec_flat exec_pipelined serve_uniform serve_skewed";

enum Command {
    Run(run::RunArgs),
    SelfCheck {
        seed: u64,
        seconds: f64,
    },
    /// Print `e2e/METRICS.json` or the root `BENCHMARK.json`.
    Describe(fn() -> String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(catalog::RUN_SECONDS);
    let mut trace = false;
    let mut self_check = false;
    let mut describe = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--self-check" => self_check = true,
            "--describe" => {
                describe = Some(match value()?.as_str() {
                    "metrics" => catalog::describe as fn() -> String,
                    "benchmark" => catalog::describe_benchmark,
                    other => {
                        return Err(format!(
                            "--describe takes metrics or benchmark, not `{other}`"
                        ))
                    }
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(dump) = describe {
        return Ok(Command::Describe(dump));
    }
    if self_check {
        return Ok(Command::SelfCheck {
            seed: seed.unwrap_or(1),
            seconds,
        });
    }
    Ok(Command::Run(run::RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(why) => {
            eprintln!("splitc-e2e: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Describe(dump)) => {
            print!("{}", dump());
            Ok(())
        }
        Ok(Command::SelfCheck { seed, seconds }) => selfcheck::run(seed, seconds),
        Ok(Command::Run(args)) => run::run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("splitc-e2e: refusing to report: {why}");
            ExitCode::from(1)
        }
    }
}
