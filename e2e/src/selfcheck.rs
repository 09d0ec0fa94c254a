//! Repeatability self-check: the bounds in the catalogue are evidence, not
//! hope. Runs every workload twice with one seed and once with another, as
//! child processes of this executable, and checks that exact metrics are
//! bit-identical across the same-seed runs, that every timing metric's two
//! medians agree within its declared bound, and that the second seed
//! completes correct with no failed operation.

use crate::catalog::END_TO_END;
use crate::workload::SPECS;
use std::process::Command;

/// The machine-readable result line of one child run.
struct Child {
    line: String,
}

impl Child {
    fn run(workload: &str, seed: u64, seconds: f64) -> Result<Child, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let out = Command::new(exe)
            .args(["--workload", workload, "--trace", "0"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .output()
            .map_err(|e| format!("cannot start the child run: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{workload} seed {seed} exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_owned();
        Ok(Child { line })
    }

    /// The text of metric `name`'s value, digit for digit.
    fn value(&self, name: &str) -> Result<&str, String> {
        let key = format!("\"{name}\":{{\"value\":");
        let from = self
            .line
            .find(&key)
            .ok_or_else(|| format!("no {name} in: {}", self.line))?
            + key.len();
        let len = self.line[from..].find(',').ok_or("unterminated value")?;
        Ok(&self.line[from..from + len])
    }

    fn clean(&self) -> bool {
        self.line.starts_with("{\"correct\":true,") && self.line.contains("\"failed\":0,")
    }
}

/// # Errors
///
/// Returns the list of violated checks, or why a child run failed.
pub fn run(seed: u64, seconds: f64) -> Result<(), String> {
    let other_seed = seed.wrapping_add(1);
    let mut violations = Vec::new();
    println!("self-check seed={seed} other_seed={other_seed} seconds={seconds}");
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "run_a", "run_b", "other_seed", "a_vs_b", "bound"
    );
    for spec in &SPECS {
        let a = Child::run(spec.name, seed, seconds)?;
        let b = Child::run(spec.name, seed, seconds)?;
        let c = Child::run(spec.name, other_seed, seconds)?;
        for (label, child) in [("a", &a), ("b", &b), ("other seed", &c)] {
            if !child.clean() {
                violations.push(format!(
                    "{}: run {label} was not correct: {}",
                    spec.name, child.line
                ));
            }
        }
        for metric in &END_TO_END {
            let (va, vb, vc) = (
                a.value(metric.name)?,
                b.value(metric.name)?,
                c.value(metric.name)?,
            );
            let parse = |v: &str| {
                v.parse::<f64>()
                    .map_err(|e| format!("{}: {v}: {e}", metric.name))
            };
            let (fa, fb) = (parse(va)?, parse(vb)?);
            let apart = (fa - fb).abs() / fa.abs().min(fb.abs());
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}%{}",
                spec.name,
                metric.name,
                fa,
                fb,
                parse(vc)?,
                apart * 100.0,
                metric.bound * 100.0,
                if metric.exact { " exact" } else { "" }
            );
            if metric.exact && va != vb {
                violations.push(format!(
                    "{} {}: {va} != {vb} on the same seed",
                    spec.name, metric.name
                ));
            }
            if !metric.exact && apart > metric.bound {
                violations.push(format!(
                    "{} {}: {va} vs {vb} are {:.1}% apart, bound {:.0}%",
                    spec.name,
                    metric.name,
                    apart * 100.0,
                    metric.bound * 100.0
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("self-check passed");
        Ok(())
    } else {
        Err(format!("self-check failed:\n  {}", violations.join("\n  ")))
    }
}
