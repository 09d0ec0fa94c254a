//! Annotation-guided mapping and list scheduling.
//!
//! Section 3 of the paper argues that, because final code generation happens
//! at run time, "mapping and scheduling of computations can be performed
//! across all available processing nodes, independently from their underlying
//! architectures". This module implements that decision layer: kernel traits
//! (carried as bytecode annotations) steer each task to a suitable core, and a
//! list scheduler places a task graph onto the platform.

use crate::platform::{Core, Platform};
use splitc_vbc::KernelTraits;
use std::collections::HashMap;

/// Score how well `core` suits a kernel with the given `traits`.
///
/// Higher is better. The heuristic mirrors the paper's motivation: vector
/// kernels want SIMD units, floating-point kernels must avoid
/// software-emulated FPUs (the DSP), and control-intensive code prefers the
/// host core with its cheap branches.
pub fn affinity(traits: &KernelTraits, core: &Core) -> f64 {
    let t = &core.target;
    let mut score = 10.0 / t.clock_scale;
    if traits.uses_vector {
        if t.has_simd() {
            score += 30.0;
        } else {
            score -= 5.0;
        }
    }
    if traits.uses_fp {
        // Penalize targets whose floating point is disproportionately slow.
        let fp_ratio = t.cost.fp_add as f64 / t.cost.int_op as f64;
        score -= fp_ratio;
    }
    if traits.control_intensive {
        score -= t.cost.branch_taken as f64 * 2.0;
    }
    score
}

/// Pick the most suitable core of `platform` for a kernel with `traits`.
///
/// Returns the host core when the platform has a single core.
pub fn choose_core<'p>(traits: &KernelTraits, platform: &'p Platform) -> &'p Core {
    platform
        .cores
        .iter()
        .max_by(|a, b| {
            affinity(traits, a)
                .partial_cmp(&affinity(traits, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(platform.host())
}

/// A task to place on the platform: estimated cycles on every core, plus
/// dependences on earlier tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEstimate {
    /// Task name (for reporting).
    pub name: String,
    /// Estimated scaled cycles on each core, indexed by [`Core::id`].
    pub cycles_per_core: Vec<f64>,
    /// Indices of tasks that must complete before this one starts.
    pub deps: Vec<usize>,
}

/// Placement of one task produced by the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Index of the task in the input slice.
    pub task: usize,
    /// Core the task was assigned to.
    pub core: usize,
    /// Start time in scaled cycles.
    pub start: f64,
    /// Finish time in scaled cycles.
    pub finish: f64,
}

/// A complete schedule of a task graph onto a platform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Per-task placements, in scheduling order.
    pub placements: Vec<Placement>,
    /// Completion time of the last task.
    pub makespan: f64,
}

impl Schedule {
    /// The placement of task `task`, if it was scheduled.
    pub fn placement(&self, task: usize) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task)
    }

    /// Total busy time of `core`.
    pub fn busy_time(&self, core: usize) -> f64 {
        self.placements
            .iter()
            .filter(|p| p.core == core)
            .map(|p| p.finish - p.start)
            .sum()
    }
}

/// List-schedule `tasks` onto `platform` by earliest finish time.
///
/// Tasks are considered in an order compatible with their dependences; each is
/// placed on the core that lets it finish earliest given both the core's
/// availability and the task's estimated cost there (a HEFT-style heuristic).
///
/// # Panics
///
/// Panics if a task's `cycles_per_core` does not cover every core of the
/// platform, or if the dependence graph has a cycle.
pub fn list_schedule(tasks: &[TaskEstimate], platform: &Platform) -> Schedule {
    let ncores = platform.cores.len();
    for t in tasks {
        assert_eq!(
            t.cycles_per_core.len(),
            ncores,
            "task {} lacks a cost estimate for every core",
            t.name
        );
    }
    let mut core_free = vec![0.0f64; ncores];
    let mut finish: HashMap<usize, f64> = HashMap::new();
    let mut placements = Vec::with_capacity(tasks.len());
    let mut scheduled = vec![false; tasks.len()];

    for _ in 0..tasks.len() {
        // Pick an unscheduled task whose dependences are all satisfied.
        let ready: Vec<usize> = (0..tasks.len())
            .filter(|i| !scheduled[*i] && tasks[*i].deps.iter().all(|d| finish.contains_key(d)))
            .collect();
        assert!(!ready.is_empty(), "cyclic task graph");
        // Prefer the ready task with the largest average cost (critical work first).
        let task = ready
            .into_iter()
            .max_by(|a, b| {
                let ca: f64 = tasks[*a].cycles_per_core.iter().sum();
                let cb: f64 = tasks[*b].cycles_per_core.iter().sum();
                ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("ready set is non-empty");

        let earliest_start: f64 = tasks[task]
            .deps
            .iter()
            .map(|d| finish[d])
            .fold(0.0, f64::max);
        let (core, start, end) = (0..ncores)
            .map(|c| {
                let start = earliest_start.max(core_free[c]);
                (c, start, start + tasks[task].cycles_per_core[c])
            })
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
            .expect("platform has at least one core");

        core_free[core] = end;
        finish.insert(task, end);
        scheduled[task] = true;
        placements.push(Placement {
            task,
            core,
            start,
            finish: end,
        });
    }

    let makespan = placements.iter().map(|p| p.finish).fold(0.0, f64::max);
    Schedule {
        placements,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traits(vector: bool, fp: bool, control: bool) -> KernelTraits {
        KernelTraits {
            uses_fp: fp,
            uses_vector: vector,
            control_intensive: control,
        }
    }

    #[test]
    fn vector_kernels_prefer_simd_cores() {
        let phone = Platform::phone();
        let chosen = choose_core(&traits(true, true, false), &phone);
        assert_eq!(chosen.name, "arm");

        let cell = Platform::cell_blade(2);
        let chosen = choose_core(&traits(true, true, false), &cell);
        assert!(
            chosen.name.starts_with("spu"),
            "vector work goes to the SPUs, got {}",
            chosen.name
        );
    }

    #[test]
    fn fp_kernels_avoid_the_dsp_and_control_code_stays_on_the_host() {
        let phone = Platform::phone();
        let chosen = choose_core(&traits(false, true, false), &phone);
        assert_eq!(
            chosen.name, "arm",
            "software floating point on the DSP is a bad idea"
        );

        let cell = Platform::cell_blade(2);
        let chosen = choose_core(&traits(false, false, true), &cell);
        assert_eq!(chosen.name, "ppe", "branchy code prefers the host core");
    }

    #[test]
    fn independent_tasks_spread_over_cores() {
        let platform = Platform::homogeneous("quad", splitc_targets::TargetDesc::arm_neon(), 4);
        let tasks: Vec<TaskEstimate> = (0..8)
            .map(|i| TaskEstimate {
                name: format!("t{i}"),
                cycles_per_core: vec![100.0; 4],
                deps: vec![],
            })
            .collect();
        let schedule = list_schedule(&tasks, &platform);
        assert_eq!(schedule.placements.len(), 8);
        // Perfect balance: two tasks per core, makespan 200.
        assert!((schedule.makespan - 200.0).abs() < 1e-9);
        for c in 0..4 {
            assert!((schedule.busy_time(c) - 200.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dependences_serialize_tasks() {
        let platform = Platform::homogeneous("dual", splitc_targets::TargetDesc::x86_sse(), 2);
        let tasks = vec![
            TaskEstimate {
                name: "a".into(),
                cycles_per_core: vec![50.0, 50.0],
                deps: vec![],
            },
            TaskEstimate {
                name: "b".into(),
                cycles_per_core: vec![70.0, 70.0],
                deps: vec![0],
            },
            TaskEstimate {
                name: "c".into(),
                cycles_per_core: vec![30.0, 30.0],
                deps: vec![1],
            },
        ];
        let schedule = list_schedule(&tasks, &platform);
        assert!((schedule.makespan - 150.0).abs() < 1e-9);
        let b = schedule.placement(1).unwrap();
        let a = schedule.placement(0).unwrap();
        assert!(b.start >= a.finish);
    }

    #[test]
    fn heterogeneous_costs_steer_placement() {
        // Core 0 is fast for the task, core 1 is slow: everything should land on 0
        // until queueing makes core 1 attractive.
        let platform = Platform::phone();
        let tasks: Vec<TaskEstimate> = (0..3)
            .map(|i| TaskEstimate {
                name: format!("t{i}"),
                cycles_per_core: vec![100.0, 1000.0],
                deps: vec![],
            })
            .collect();
        let schedule = list_schedule(&tasks, &platform);
        let on_fast = schedule.placements.iter().filter(|p| p.core == 0).count();
        assert_eq!(
            on_fast, 3,
            "queueing 3 x 100 on the fast core still beats 1000 on the slow one"
        );
    }
}
