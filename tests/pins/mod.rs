//! Recorded digests of whole runs.
//!
//! Every input the executor suites run is fixed — catalogue kernels at a
//! fixed size and seed, seeded generated programs, hand-built unit programs —
//! so each run's answer is a constant. A suite folds the digest of every run
//! it makes into one value and compares that with the value it recorded. On a
//! mismatch it prints every cell's digest first, so the cell that moved shows
//! up in a diff against the printout of a tree where the pin held.

use splitc_targets::{Fnv1a, MachineValue, SimError, SimStats};
use splitc_vbc::{ExecError, ExecStats, Lanes, Value};

/// FNV-1a over one run: its outcome (variant, value bits, error text), all
/// eleven [`SimStats`] counters and the whole memory image.
#[allow(dead_code)] // the interpreter's suite digests with `interp_digest`
pub fn run_digest(
    out: &Result<Option<MachineValue>, SimError>,
    stats: &SimStats,
    mem: &[u8],
) -> u64 {
    let mut h = Fnv1a::new();
    match out {
        Ok(Some(MachineValue::Int(v))) => {
            h.write(b"int");
            h.write(&v.to_le_bytes());
        }
        Ok(Some(MachineValue::Float(v))) => {
            h.write(b"float");
            h.write(&v.to_bits().to_le_bytes());
        }
        Ok(None) => h.write(b"none"),
        Err(e) => h.write(format!("{e:?}").as_bytes()),
    }
    let s = stats;
    for counter in [
        s.cycles,
        s.instructions,
        s.loads,
        s.stores,
        s.spill_stores,
        s.spill_reloads,
        s.branches,
        s.vector_ops,
        s.stalls,
        s.mispredicts,
        s.predicted,
    ] {
        h.write(&counter.to_le_bytes());
    }
    h.write(mem);
    h.finish()
}

/// FNV-1a over one run of the reference interpreter: its outcome (variant,
/// value bits, error text), all three [`ExecStats`] counters and the whole
/// memory image.
#[allow(dead_code)] // only the interpreter's suite runs the interpreter
pub fn interp_digest(out: &Result<Option<Value>, ExecError>, stats: &ExecStats, mem: &[u8]) -> u64 {
    fn value(h: &mut Fnv1a, v: &Value) {
        match v {
            Value::Int(v) => {
                h.write(b"int");
                h.write(&v.to_le_bytes());
            }
            Value::Float(v) => {
                h.write(b"float");
                h.write(&v.to_bits().to_le_bytes());
            }
            // The tag, then each lane as the scalar it holds.
            Value::Vector(Lanes::Int(lanes)) => {
                h.write(b"vector");
                for &lane in lanes {
                    value(h, &Value::Int(lane));
                }
            }
            Value::Vector(Lanes::Float(lanes)) => {
                h.write(b"vector");
                for &lane in lanes {
                    value(h, &Value::Float(lane));
                }
            }
        }
    }
    let mut h = Fnv1a::new();
    match out {
        Ok(Some(v)) => value(&mut h, v),
        Ok(None) => h.write(b"none"),
        Err(e) => h.write(format!("{e:?}").as_bytes()),
    }
    for counter in [stats.executed, stats.memory_ops, stats.calls] {
        h.write(&counter.to_le_bytes());
    }
    h.write(mem);
    h.finish()
}

/// The cell digests of one suite, in the order it ran them.
#[derive(Debug, Default)]
pub struct Pins(Vec<(String, u64)>);

impl Pins {
    /// Note `digest` for `cell`.
    pub fn push(&mut self, cell: impl Into<String>, digest: u64) {
        self.0.push((cell.into(), digest));
    }

    /// Note the [`run_digest`] of one run for `cell`.
    #[allow(dead_code)] // the interpreter's suite pushes `interp_digest`s
    pub fn record(
        &mut self,
        cell: impl Into<String>,
        out: &Result<Option<MachineValue>, SimError>,
        stats: &SimStats,
        mem: &[u8],
    ) {
        self.push(cell, run_digest(out, stats, mem));
    }

    /// Print every cell's digest, one line each.
    pub fn print(&self) {
        for (cell, digest) in &self.0 {
            println!("{digest:016x} {cell}");
        }
    }

    /// Assert that the fold of every cell's digest is `pinned`, printing
    /// each cell's digest first if it is not.
    pub fn check(&self, pinned: u64) {
        let mut fold = Fnv1a::new();
        for (_, digest) in &self.0 {
            fold.write(&digest.to_le_bytes());
        }
        let got = fold.finish();
        if got != pinned {
            self.print();
            panic!("{} cells fold to {got}, recorded {pinned}", self.0.len());
        }
    }
}
