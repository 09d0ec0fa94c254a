//! Kahn process networks.
//!
//! Section 4 of the paper points at Kahn process networks as the semantic
//! basis for *portable, deterministic, composable* concurrency in future
//! bytecode formats. This module provides that substrate: processes connected
//! by unbounded FIFO channels with blocking reads. Determinism is structural —
//! the sequence of values (here, token timestamps in FIFO order) on every
//! channel does not depend on the scheduling order — and the simulator lets
//! the experiments study how the same network maps onto one or many cores.

use crate::engine::{EngineError, ExecutionEngine};
use crate::platform::{Core, Platform};
use splitc_jit::JitOptions;
use splitc_targets::MachineValue;
use std::collections::VecDeque;

/// Identifier of a channel within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(pub usize);

/// Identifier of a process within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub usize);

/// A process of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    /// Process name (for reporting).
    pub name: String,
    /// Channels read on each firing (one token each).
    pub inputs: Vec<ChannelId>,
    /// Channels written on each firing (one token each).
    pub outputs: Vec<ChannelId>,
    /// Cost of one firing, in scaled cycles, indexed by core id.
    pub firing_cost: Vec<f64>,
    /// For source processes (no inputs): how many tokens they produce in total.
    pub source_firings: u64,
}

/// A process network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    processes: Vec<Process>,
    num_channels: usize,
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Add a FIFO channel and return its id.
    pub fn add_channel(&mut self) -> ChannelId {
        self.num_channels += 1;
        ChannelId(self.num_channels - 1)
    }

    /// Add a source process that fires `firings` times, writing one token to
    /// each output channel per firing.
    pub fn add_source(
        &mut self,
        name: &str,
        outputs: Vec<ChannelId>,
        firing_cost: Vec<f64>,
        firings: u64,
    ) -> ProcessId {
        self.processes.push(Process {
            name: name.to_owned(),
            inputs: Vec::new(),
            outputs,
            firing_cost,
            source_firings: firings,
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Add an interior or sink process (fires whenever every input has a token).
    pub fn add_process(
        &mut self,
        name: &str,
        inputs: Vec<ChannelId>,
        outputs: Vec<ChannelId>,
        firing_cost: Vec<f64>,
    ) -> ProcessId {
        self.processes.push(Process {
            name: name.to_owned(),
            inputs,
            outputs,
            firing_cost,
            source_firings: 0,
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Simulate the network with each process pinned to a core by `mapping`
    /// (indexed by process id) on a machine with `num_cores` cores.
    ///
    /// Firing semantics are those of a Kahn network specialized to one token
    /// per channel per firing: a process is runnable when every input channel
    /// holds at least one token; reads are blocking; channels are unbounded
    /// FIFOs. A core runs one firing at a time.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not assign a valid core to every process or if
    /// a process lacks a cost for its assigned core.
    pub fn simulate(&self, mapping: &[usize], num_cores: usize) -> KpnReport {
        assert_eq!(
            mapping.len(),
            self.processes.len(),
            "one core per process required"
        );
        for (p, core) in self.processes.iter().zip(mapping) {
            assert!(
                *core < num_cores,
                "process {} mapped to nonexistent core {core}",
                p.name
            );
            assert!(
                p.firing_cost.len() > *core,
                "process {} has no cost estimate for core {core}",
                p.name
            );
        }
        let mut channels: Vec<VecDeque<f64>> = vec![VecDeque::new(); self.num_channels];
        let mut remaining_source: Vec<u64> =
            self.processes.iter().map(|p| p.source_firings).collect();
        let mut core_free = vec![0.0f64; num_cores];
        let mut firings = vec![0u64; self.processes.len()];
        let mut busy = vec![0.0f64; num_cores];
        let mut makespan = 0.0f64;

        loop {
            // Find the runnable process that can start earliest (deterministic
            // tie-break on process id).
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in self.processes.iter().enumerate() {
                let runnable = if p.inputs.is_empty() {
                    remaining_source[i] > 0
                } else {
                    p.inputs.iter().all(|c| !channels[c.0].is_empty())
                };
                if !runnable {
                    continue;
                }
                let data_ready = p
                    .inputs
                    .iter()
                    .map(|c| *channels[c.0].front().expect("checked non-empty"))
                    .fold(0.0f64, f64::max);
                let start = data_ready.max(core_free[mapping[i]]);
                if best.map(|(_, s)| start < s).unwrap_or(true) {
                    best = Some((i, start));
                }
            }
            let Some((i, start)) = best else { break };
            let p = &self.processes[i];
            let cost = p.firing_cost[mapping[i]];
            let end = start + cost;
            for c in &p.inputs {
                channels[c.0].pop_front();
            }
            for c in &p.outputs {
                channels[c.0].push_back(end);
            }
            if p.inputs.is_empty() {
                remaining_source[i] -= 1;
            }
            core_free[mapping[i]] = end;
            busy[mapping[i]] += cost;
            firings[i] += 1;
            makespan = makespan.max(end);
        }

        KpnReport {
            firings,
            makespan,
            core_busy: busy,
        }
    }
}

/// Outcome of one network simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KpnReport {
    /// Number of firings per process (indexed by process id).
    pub firings: Vec<u64>,
    /// Completion time of the last firing, in scaled cycles.
    pub makespan: f64,
    /// Busy time per core.
    pub core_busy: Vec<f64>,
}

impl KpnReport {
    /// Average utilization across the cores that did any work.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        let used: Vec<f64> = self
            .core_busy
            .iter()
            .copied()
            .filter(|b| *b > 0.0)
            .collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / (self.makespan * used.len() as f64)
        }
    }
}

/// Build the classic three-stage pipeline `source -> filter -> sink`.
///
/// Costs are given per stage and per core; `tokens` is the number of data
/// items pushed through the pipeline.
pub fn pipeline(stage_costs: &[Vec<f64>], tokens: u64) -> Network {
    assert!(
        stage_costs.len() >= 2,
        "a pipeline needs at least a source and a sink"
    );
    let mut net = Network::new();
    let mut prev: Option<ChannelId> = None;
    for (i, costs) in stage_costs.iter().enumerate() {
        let is_last = i + 1 == stage_costs.len();
        let out = if is_last {
            None
        } else {
            Some(net.add_channel())
        };
        match (prev, out) {
            (None, Some(o)) => {
                net.add_source(&format!("stage{i}"), vec![o], costs.clone(), tokens);
            }
            (Some(p), Some(o)) => {
                net.add_process(&format!("stage{i}"), vec![p], vec![o], costs.clone());
            }
            (Some(p), None) => {
                net.add_process(&format!("stage{i}"), vec![p], vec![], costs.clone());
            }
            (None, None) => unreachable!("pipeline has at least two stages"),
        }
        prev = out;
    }
    net
}

/// Build a linear pipeline whose per-stage, per-core firing costs are
/// *measured* rather than guessed: each stage kernel is executed once on
/// every core of `platform` through the shared `engine` (compiling each
/// distinct core type exactly once) and its scaled cycle count becomes the
/// stage's firing cost on that core.
///
/// `setup` provides, per `(stage kernel, core)`, the argument list and the
/// scratch memory the measurement run executes against. Returns the network
/// together with the measured cost matrix (stage-major, indexed by core id).
///
/// # Errors
///
/// Returns an [`EngineError`] if a stage kernel is unknown, fails to compile
/// for a core, or traps during the measurement run.
pub fn profile_pipeline<F>(
    engine: &ExecutionEngine,
    options: &JitOptions,
    platform: &Platform,
    stages: &[&str],
    tokens: u64,
    mut setup: F,
) -> Result<(Network, Vec<Vec<f64>>), EngineError>
where
    F: FnMut(&str, &Core) -> (Vec<MachineValue>, Vec<u8>),
{
    let mut stage_costs: Vec<Vec<f64>> = Vec::with_capacity(stages.len());
    for stage in stages {
        let mut per_core = Vec::with_capacity(platform.cores.len());
        for core in &platform.cores {
            let (args, mut mem) = setup(stage, core);
            let outcome = engine.run(&core.target, options, stage, &args, &mut mem)?;
            per_core.push(outcome.scaled_cycles);
        }
        stage_costs.push(per_core);
    }
    let net = pipeline(&stage_costs, tokens);
    Ok((net, stage_costs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_fires_every_stage_once_per_token() {
        let net = pipeline(&[vec![10.0], vec![20.0], vec![5.0]], 8);
        let report = net.simulate(&[0, 0, 0], 1);
        assert_eq!(report.firings, vec![8, 8, 8]);
        // On one core the makespan is the sum of all work.
        assert!((report.makespan - 8.0 * 35.0).abs() < 1e-9);
        assert!((report.core_busy[0] - report.makespan).abs() < 1e-9);
    }

    #[test]
    fn two_cores_pipeline_the_stages() {
        let costs = [vec![10.0, 10.0], vec![10.0, 10.0], vec![10.0, 10.0]];
        let net = pipeline(&costs, 16);
        let serial = net.simulate(&[0, 0, 0], 2);
        let parallel = net.simulate(&[0, 1, 0], 2);
        assert!(
            parallel.makespan < serial.makespan,
            "pipelining should shorten the makespan: {} vs {}",
            parallel.makespan,
            serial.makespan
        );
        assert!(parallel.utilization() > 0.5);
    }

    #[test]
    fn firing_counts_are_mapping_independent_kahn_determinism() {
        let costs = [vec![7.0, 3.0], vec![11.0, 5.0], vec![2.0, 9.0]];
        let net = pipeline(&costs, 12);
        let a = net.simulate(&[0, 0, 0], 2);
        let b = net.simulate(&[0, 1, 1], 2);
        let c = net.simulate(&[1, 0, 1], 2);
        assert_eq!(a.firings, b.firings);
        assert_eq!(b.firings, c.firings);
    }

    #[test]
    fn forks_and_joins_respect_token_availability() {
        // source -> {left, right} -> join
        let mut net = Network::new();
        let c_src_l = net.add_channel();
        let c_src_r = net.add_channel();
        let c_l_join = net.add_channel();
        let c_r_join = net.add_channel();
        net.add_source("src", vec![c_src_l, c_src_r], vec![1.0, 1.0], 10);
        net.add_process("left", vec![c_src_l], vec![c_l_join], vec![5.0, 5.0]);
        net.add_process("right", vec![c_src_r], vec![c_r_join], vec![9.0, 9.0]);
        net.add_process("join", vec![c_l_join, c_r_join], vec![], vec![1.0, 1.0]);
        let report = net.simulate(&[0, 0, 1, 0], 2);
        assert_eq!(report.firings, vec![10, 10, 10, 10]);
        // The join can never outrun the slower branch.
        assert!(report.makespan >= 10.0 * 9.0);
    }

    #[test]
    #[should_panic(expected = "one core per process")]
    fn bad_mapping_is_rejected() {
        let net = pipeline(&[vec![1.0], vec![1.0]], 1);
        let _ = net.simulate(&[0], 1);
    }

    #[test]
    fn profiled_pipeline_measures_stage_costs_through_the_engine() {
        let module = splitc_minic::compile_source(
            "fn brighten(n: i32, x: *u8, y: *u8) {
                for (let i: i32 = 0; i < n; i = i + 1) { y[i] = x[i] + 1; }
            }
            fn copy(n: i32, x: *u8, y: *u8) {
                for (let i: i32 = 0; i < n; i = i + 1) { y[i] = x[i]; }
            }",
            "stages",
        )
        .unwrap();
        let engine = ExecutionEngine::new(module);
        let platform = Platform::cell_blade(1); // one PPE + one SPU
        let n = 64usize;
        let (net, costs) = profile_pipeline(
            &engine,
            &JitOptions::split(),
            &platform,
            &["brighten", "copy"],
            8,
            |_stage, _core| {
                (
                    vec![
                        MachineValue::Int(n as i64),
                        MachineValue::Int(64),
                        MachineValue::Int(256),
                    ],
                    vec![0u8; 1024],
                )
            },
        )
        .unwrap();
        assert_eq!(net.processes.len(), 2);
        assert_eq!(costs.len(), 2);
        assert!(costs
            .iter()
            .all(|per_core| per_core.len() == platform.cores.len()));
        assert!(costs.iter().flatten().all(|c| *c > 0.0));
        // 2 stages x 2 cores ran, but only 2 distinct core types compiled.
        let stats = engine.stats();
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.lookups(), 4);
        // The measured network simulates like any hand-built one.
        let report = net.simulate(&[0, 1], platform.cores.len());
        assert_eq!(report.firings, vec![8, 8]);
    }
}
