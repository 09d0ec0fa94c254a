//! The five workloads and their set-up.
//!
//! A workload is a tuple *(module set M, element count n, target set T incl.
//! timing tier, request mix R)*. Every workload runs the same five phases,
//! so every end-to-end metric exists on every workload; which layer does
//! most of the work differs by construction (see each spec's `why`).
//!
//! Set-up builds everything a run needs from the seed — kernel sources,
//! seeded inputs, the request order — and the **reference checksums**, which
//! come from `splitc_vbc::Interpreter` alone: never from the JIT or the
//! simulator under test.

use crate::gen::{derive_seed, Rng, Zipf};
use splitc::{checksum_bytes, prepare, PreparedKernel, Workspace};
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::ArtifactStore;
use splitc_targets::{MachineValue, TargetDesc, TimingKind};
use splitc_vbc::{encode_module, Interpreter, Memory, Module, Value, DEFAULT_VECTOR_WIDTH_BYTES};
use splitc_workloads::{all_kernels, table1_kernels, Kernel};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Which modules a workload deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleSet {
    /// All 17 catalogue kernels compiled as one module.
    Catalogue,
    /// The six Table 1 kernels as six one-kernel modules.
    Table1Split,
}

/// How served requests pick their (kernel, target) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Strict round-robin over the cells.
    RoundRobin,
    /// Seeded Zipf draw over the cells with this exponent.
    Zipf(f64),
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub modules: ModuleSet,
    pub n: usize,
    pub timing: TimingKind,
    pub mix: Mix,
    /// Kernel runs in one execute block, taken round-robin over the cells
    /// from where the previous block stopped: several passes where a pass is
    /// short, a third of one at n = 4096 so that a round stays short.
    pub exec_runs: usize,
    /// Requests in one closed-loop serving block (the same ones, in the same
    /// order, every block): few enough that a block is over in milliseconds
    /// and so has a chance of running undisturbed.
    pub closed_requests: usize,
    /// Closed-loop blocks per round.
    pub closed_blocks: usize,
    /// Round trips in one window-1 block, taken from the request mix where
    /// the previous block stopped.
    pub rtt_requests: usize,
    /// Frozen open-loop rates r1/r2/r3: about 10 / 40 / 70 % of the
    /// closed-loop `serve_rps` measured on the commit that added the
    /// benchmark. Frozen so that later commits face the same offered load.
    pub open_rates_rps: [f64; 3],
    /// Open-loop latency limit on the resolvable tail percentile.
    pub latency_limit_us: f64,
}

/// In-flight window of the closed-loop serving phase.
pub const CLOSED_WINDOW: usize = 32;
/// Draws of the skewed mix that the window-1 blocks cycle through.
const RTT_DRAWS: usize = 256;
/// Zipf exponent of the skewed mix.
const ZIPF_S: f64 = 1.1;

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "deploy",
        why: "Compile-bound: 17 kernels as one module, n=64, 9 flat targets; minic/opt do phase A, \
              decode/verify/jit/prepare/store do B; runs are tiny, so per-run fixed cost sets sim_mips.",
        modules: ModuleSet::Catalogue,
        n: 64,
        timing: TimingKind::Flat,
        mix: Mix::RoundRobin,
        exec_runs: 16 * 153,
        closed_requests: 160,
        closed_blocks: 4,
        rtt_requests: 153,
        open_rates_rps: [2_700.0, 10_900.0, 19_000.0],
        latency_limit_us: 1_000.0,
    },
    Spec {
        name: "exec_flat",
        why: "Execute-bound: same module, n=4096, flat timing; threaded fn-pointer dispatch does \
              nearly all the work and served requests are execute- and copy-bound (68 KiB images).",
        modules: ModuleSet::Catalogue,
        n: 4096,
        timing: TimingKind::Flat,
        mix: Mix::RoundRobin,
        exec_runs: 51,
        closed_requests: 32,
        closed_blocks: 2,
        rtt_requests: 51,
        open_rates_rps: [80.0, 320.0, 560.0],
        latency_limit_us: 5_000.0,
    },
    Spec {
        name: "exec_pipelined",
        why: "Same as exec_flat on the in-order timing tier, which runs the metered enum loop with \
              scoreboard and BHT instead of threaded dispatch: the executor-collapse contrast.",
        modules: ModuleSet::Catalogue,
        n: 4096,
        timing: TimingKind::InOrder,
        mix: Mix::RoundRobin,
        exec_runs: 51,
        closed_requests: 32,
        closed_blocks: 2,
        rtt_requests: 51,
        open_rates_rps: [39.0, 158.0, 276.0],
        latency_limit_us: 5_000.0,
    },
    Spec {
        name: "serve_uniform",
        why: "Tier-bound, batching bypassed: 6 one-kernel modules, n=64, strict round-robin over 54 \
              (module, target) kinds, so no two queued requests share a batch key.",
        modules: ModuleSet::Table1Split,
        n: 64,
        timing: TimingKind::Flat,
        mix: Mix::RoundRobin,
        exec_runs: 32 * 54,
        closed_requests: 256,
        closed_blocks: 4,
        rtt_requests: 108,
        open_rates_rps: [9_500.0, 38_000.0, 66_000.0],
        latency_limit_us: 1_000.0,
    },
    Spec {
        name: "serve_skewed",
        why: "Tier-bound, batching exercised: same 6 modules, kinds drawn from a seeded Zipf(1.1) \
              over the 54, so queued neighbours often share a key and batching does real work.",
        modules: ModuleSet::Table1Split,
        n: 64,
        timing: TimingKind::Flat,
        mix: Mix::Zipf(ZIPF_S),
        exec_runs: 32 * 54,
        closed_requests: 256,
        closed_blocks: 4,
        rtt_requests: 108,
        open_rates_rps: [12_500.0, 50_000.0, 88_000.0],
        latency_limit_us: 1_000.0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One deployed module: its source text and the set-up's own offline compile.
#[derive(Debug)]
pub struct ModuleUnit {
    pub name: String,
    pub source: String,
    pub kernels: Vec<&'static str>,
    /// Wire encoding of set-up's own offline compile, which the references
    /// were interpreted from: what phase A must reproduce byte for byte and
    /// what phase B decodes.
    pub encoded: Vec<u8>,
    /// Index of the module's first cell (cells are laid out module-major,
    /// then kernel, then target).
    pub first_cell: usize,
}

/// One kernel's seeded inputs.
#[derive(Debug)]
pub struct KernelInput {
    pub prepared: PreparedKernel,
    /// The memory image every run of this kernel starts from.
    pub image: Arc<Vec<u8>>,
}

/// One (kernel, target) cell of the workload's matrix.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub module: usize,
    pub kernel: usize,
    pub target: usize,
    /// Interpreter checksum every run of this cell must reproduce.
    pub expected: u64,
}

/// What set-up measured about itself (per-layer `core.*` / `vbc.interp_mips`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupProbe {
    pub prepare_inputs_us: f64,
    pub interp_insts: u64,
    pub interp_secs: f64,
}

/// A workload, set up from a seed.
#[derive(Debug)]
pub struct Workload {
    pub spec: &'static Spec,
    pub modules: Vec<ModuleUnit>,
    /// Indexed by the kernel's position in the catalogue order of its set.
    pub inputs: Vec<KernelInput>,
    pub targets: Vec<TargetDesc>,
    pub cells: Vec<Cell>,
    /// Cell index of every closed-loop request of a block, in send order.
    pub closed_order: Vec<u32>,
    /// The cycle of cells the window-1 round trips walk through: every cell
    /// once on a round-robin mix, the first draws of the skewed one.
    pub rtt_order: Vec<u32>,
    pub store: Arc<ArtifactStore>,
    pub probe: SetupProbe,
    /// Nanoseconds each stage of this set-up took, in a fixed order (one per
    /// module compile, per kernel's inputs, per interpreted reference, then
    /// the request orders and the store directory): the units of `setup_s`.
    pub stages: Vec<f64>,
}

/// The JIT configuration every phase compiles with.
pub fn jit_options() -> JitOptions {
    JitOptions::split()
}

/// Vector width the online compiler resolves for `target`: its own SIMD
/// width when the JIT maps the builtins onto it, the portable default when
/// it scalarizes. The interpreter reference must run at the same width — a
/// float reduction folds its partial sums per lane.
pub fn effective_width(target: &TargetDesc) -> u64 {
    if jit_options().allow_simd && target.has_simd() {
        target.vector_bytes()
    } else {
        DEFAULT_VECTOR_WIDTH_BYTES
    }
}

/// The nine preset cores on the given timing tier.
pub fn targets_for(timing: TimingKind) -> Vec<TargetDesc> {
    TargetDesc::presets()
        .into_iter()
        .map(|t| t.with_timing(timing))
        .collect()
}

fn kernel_groups(set: ModuleSet) -> Vec<(String, Vec<Kernel>)> {
    match set {
        ModuleSet::Catalogue => vec![("catalogue".to_owned(), all_kernels())],
        ModuleSet::Table1Split => table1_kernels()
            .into_iter()
            .map(|k| (k.name.to_owned(), vec![k]))
            .collect(),
    }
}

/// Reference checksum of one kernel at one vector width, from the bytecode
/// interpreter. Returns the checksum and the instructions it interpreted.
fn interpret(module: &Module, input: &KernelInput, width: u64) -> (u64, u64) {
    let mut mem = Memory::new(input.image.len());
    mem.bytes_mut().copy_from_slice(&input.image);
    let args: Vec<Value> = input
        .prepared
        .args
        .iter()
        .map(|a| match a {
            MachineValue::Int(v) => Value::Int(*v),
            MachineValue::Float(v) => Value::Float(*v),
        })
        .collect();
    let mut interp = Interpreter::new(module).with_vector_width(width);
    let result = interp
        .run(&input.prepared.name, &args, &mut mem)
        .unwrap_or_else(|e| {
            panic!(
                "reference interpreter failed on {}: {e}",
                input.prepared.name
            )
        })
        .map(|v| match v {
            Value::Int(i) => MachineValue::Int(i),
            Value::Float(f) => MachineValue::Float(f),
            Value::Vector(_) => panic!("catalogue kernels do not return vectors"),
        });
    (
        checksum_bytes(result, &input.prepared, mem.bytes()),
        interp.stats().executed,
    )
}

/// Spread consecutive ranks over the cells so that neighbours differ in
/// both kernel and target: any short run of round-robin requests is then a
/// fair sample of the whole matrix, and the hot kinds of the skewed mix are
/// not one kernel's. The mapping is fixed: only the draw order depends on
/// the seed, so the hot kinds cost the same on every seed.
fn rank_to_cell(rank: usize, cells: usize) -> usize {
    // 23 is coprime with 54 and 153, the only cell counts in use.
    (rank * 23) % cells
}

/// Set a workload up from `seed`. `store_dir` is created if missing; the
/// store inside starts out as the directory is found.
///
/// # Panics
///
/// Panics if a catalogue kernel fails to compile or interpret: that is a
/// broken checkout, not a measurement.
pub fn set_up(spec: &'static Spec, seed: u64, store_dir: &Path) -> Workload {
    let mut probe = SetupProbe::default();
    let mut stages = Vec::new();
    let mut stage = Instant::now();
    let mut lap = |stages: &mut Vec<f64>| {
        let now = Instant::now();
        stages.push((now - stage).as_nanos() as f64);
        stage = now;
    };
    let targets = targets_for(spec.timing);
    let mut modules = Vec::new();
    let mut inputs = Vec::new();
    let mut cells = Vec::new();

    for (module_index, (name, kernels)) in kernel_groups(spec.modules).into_iter().enumerate() {
        let source = kernels
            .iter()
            .map(|k| k.source)
            .collect::<Vec<_>>()
            .join("\n");
        let mut reference = splitc_minic::compile_source(&source, &name)
            .unwrap_or_else(|e| panic!("catalogue module {name} does not compile: {e}"));
        optimize_module(&mut reference, &OptOptions::full());
        let encoded = encode_module(&reference);
        let first_cell = cells.len();
        lap(&mut stages);

        for kernel in &kernels {
            let started = Instant::now();
            let mut ws = Workspace::sized_for(spec.n);
            let data_seed = derive_seed(seed, inputs.len() as u64 + 1);
            let prepared = prepare(kernel.name, spec.n, data_seed, &mut ws);
            let input = KernelInput {
                prepared,
                image: Arc::new(ws.into_bytes()),
            };
            probe.prepare_inputs_us += started.elapsed().as_secs_f64() * 1e6;
            lap(&mut stages);

            let mut by_width = BTreeMap::new();
            for (target_index, target) in targets.iter().enumerate() {
                let expected = *by_width
                    .entry(effective_width(target))
                    .or_insert_with_key(|w| {
                        let started = Instant::now();
                        let (sum, insts) = interpret(&reference, &input, *w);
                        probe.interp_secs += started.elapsed().as_secs_f64();
                        probe.interp_insts += insts;
                        lap(&mut stages);
                        sum
                    });
                cells.push(Cell {
                    module: module_index,
                    kernel: inputs.len(),
                    target: target_index,
                    expected,
                });
            }
            inputs.push(input);
        }
        modules.push(ModuleUnit {
            name,
            source,
            kernels: kernels.iter().map(|k| k.name).collect(),
            encoded,
            first_cell,
        });
    }

    let mut rng = Rng::new(derive_seed(seed, 0xC105ED));
    let closed_order: Vec<u32> = match spec.mix {
        Mix::RoundRobin => (0..spec.closed_requests)
            .map(|i| rank_to_cell(i, cells.len()) as u32)
            .collect(),
        Mix::Zipf(s) => {
            let zipf = Zipf::new(cells.len(), s);
            (0..spec.closed_requests)
                .map(|_| rank_to_cell(zipf.sample(&mut rng), cells.len()) as u32)
                .collect()
        }
    };

    let rtt_order = match spec.mix {
        Mix::RoundRobin => (0..cells.len())
            .map(|i| rank_to_cell(i, cells.len()) as u32)
            .collect(),
        Mix::Zipf(_) => closed_order[..RTT_DRAWS].to_vec(),
    };

    let store = ArtifactStore::open(store_dir)
        .unwrap_or_else(|e| panic!("cannot create the store directory {store_dir:?}: {e}"));
    lap(&mut stages);

    Workload {
        spec,
        modules,
        inputs,
        targets,
        cells,
        closed_order,
        rtt_order,
        store: Arc::new(store),
        probe,
        stages,
    }
}

impl Workload {
    /// (module, target) pairs: the units of an online bring-up.
    pub fn pairs(&self) -> usize {
        self.modules.len() * self.targets.len()
    }

    /// The cell a bring-up of `(module, target)` runs first: the module's
    /// kernels take turns across the targets.
    pub fn first_cell(&self, module: usize, target: usize) -> &Cell {
        let unit = &self.modules[module];
        let kernel = target % unit.kernels.len();
        &self.cells[unit.first_cell + kernel * self.targets.len() + target]
    }

    /// Whether the closed loop can never batch: a strict round-robin over
    /// cells that are each a (module, target) kind of their own, more of them
    /// than fit the in-flight window, so that no two queued requests share a
    /// batch key.
    pub fn never_batches(&self) -> bool {
        self.spec.mix == Mix::RoundRobin
            && self.cells.len() == self.pairs()
            && self.pairs() > CLOSED_WINDOW
    }

    /// Distinct cells the window-1 round trips visit.
    pub fn rtt_kinds(&self) -> usize {
        let mut cells = self.rtt_order.clone();
        cells.sort_unstable();
        cells.dedup();
        cells.len()
    }

    /// Draw the cell of the `i`-th request of an open-loop run.
    pub fn open_cell(&self, i: usize, zipf: Option<&Zipf>, rng: &mut Rng) -> usize {
        match zipf {
            None => rank_to_cell(i, self.cells.len()),
            Some(z) => rank_to_cell(z.sample(rng), self.cells.len()),
        }
    }

    /// The Zipf sampler of the request mix, if it is skewed.
    pub fn zipf(&self) -> Option<Zipf> {
        match self.spec.mix {
            Mix::RoundRobin => None,
            Mix::Zipf(s) => Some(Zipf::new(self.cells.len(), s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_mapping_is_a_permutation_of_both_cell_counts() {
        for cells in [54usize, 153] {
            let mut seen = vec![false; cells];
            for rank in 0..cells {
                seen[rank_to_cell(rank, cells)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{cells} cells");
        }
    }

    #[test]
    fn uniform_serving_never_repeats_a_batch_key_inside_the_window() {
        let dir = crate::host::exe_dir().join(format!("e2e-wl-test-{}", std::process::id()));
        let w = set_up(spec("serve_uniform").unwrap(), 7, &dir);
        assert_eq!(w.cells.len(), 54);
        assert_eq!(w.pairs(), 54);
        // Blocks follow one another on a busy server, so the order must hold
        // across the seam between two blocks too.
        let twice = [w.closed_order.clone(), w.closed_order.clone()].concat();
        for window in twice.windows(CLOSED_WINDOW) {
            let mut keys: Vec<_> = window
                .iter()
                .map(|&c| (w.cells[c as usize].module, w.cells[c as usize].target))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), CLOSED_WINDOW);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn set_up_is_a_function_of_the_seed() {
        let dir = crate::host::exe_dir().join(format!("e2e-wl-seed-{}", std::process::id()));
        let s = spec("serve_skewed").unwrap();
        let (a, b, c) = (set_up(s, 1, &dir), set_up(s, 1, &dir), set_up(s, 2, &dir));
        assert_eq!(a.closed_order, b.closed_order);
        assert_ne!(a.closed_order, c.closed_order);
        assert_eq!(a.inputs[0].image, b.inputs[0].image);
        assert_ne!(a.inputs[0].image, c.inputs[0].image);
        let sums = |w: &Workload| w.cells.iter().map(|c| c.expected).collect::<Vec<_>>();
        assert_eq!(sums(&a), sums(&b));
        assert_ne!(sums(&a), sums(&c));
        let _ = std::fs::remove_dir_all(dir);
    }
}
