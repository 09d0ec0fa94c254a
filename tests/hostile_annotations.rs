//! Lying annotations never change a result.
//!
//! In split compilation the annotations are hints from the offline step, and
//! the device has no reason to trust them: a wrong one may cost speed, never
//! correctness. This suite hands the online side every kind of lie a keep
//! ranking can tell — reversed, duplicated, empty, naming registers the
//! function does not have, or another function's — and every flipped kernel
//! trait, on every catalogue kernel, every preset and both timing tiers.
//!
//! What must hold: `compile_module` succeeds, the result and the whole memory
//! image are bit-identical to the vbc interpreter's, and the memory traffic
//! and control flow the program counts (loads, stores, branches, vector
//! operations, predictions) equal the honest run's. What may move is what
//! register assignment decides: the cycles and stalls, the spills, and the
//! instruction count, which includes the spills and loses every move an
//! assignment makes trivial. The core chooser returns a core of the platform
//! for every set of traits.

use splitc::{prepare, Workspace};
use splitc_jit::{compile_module, JitOptions};
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::{choose_core, Platform};
use splitc_targets::{
    MachineValue, PreparedProgram, PreparedSimulator, SimStats, TargetDesc, TimingKind,
};
use splitc_vbc::{
    Interpreter, KernelTraits, Memory, Module, SpillOrder, VReg, Value, DEFAULT_VECTOR_WIDTH_BYTES,
};
use splitc_workloads::{all_kernels, module_for, Kernel};

/// Elements per kernel input: small, and not a multiple of any lane count.
const N: usize = 37;
const MEMORY: usize = 1 << 14;

/// The optimized one-kernel module of `kernel`.
fn module_of(kernel: &Kernel) -> Module {
    let mut module =
        module_for(std::slice::from_ref(kernel), kernel.name).expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

/// The kernel's inputs: its arguments and the initial memory image.
fn inputs(kernel: &Kernel) -> (Vec<MachineValue>, Vec<u8>) {
    let mut ws = Workspace::new(MEMORY);
    let prepared = prepare(kernel.name, N, 0x1f, &mut ws);
    (prepared.args, ws.bytes().to_vec())
}

/// A result as bits, so that floats compare bit for bit.
fn bits(v: Option<MachineValue>) -> Option<(bool, u64)> {
    v.map(|v| match v {
        MachineValue::Int(i) => (false, i as u64),
        MachineValue::Float(f) => (true, f.to_bits()),
    })
}

/// What the vbc interpreter computes at `width`-byte vectors: the result and
/// the final memory image.
fn reference(module: &Module, kernel: &Kernel, width: u64) -> (Option<(bool, u64)>, Vec<u8>) {
    let (args, image) = inputs(kernel);
    let mut mem = Memory::new(image.len());
    mem.bytes_mut().copy_from_slice(&image);
    let args: Vec<Value> = args
        .iter()
        .map(|a| match a {
            MachineValue::Int(v) => Value::Int(*v),
            MachineValue::Float(v) => Value::Float(*v),
        })
        .collect();
    let result = Interpreter::new(module)
        .with_vector_width(width)
        .run(kernel.name, &args, &mut mem)
        .unwrap_or_else(|e| panic!("{}: interpreter: {e}", kernel.name));
    let result = result.map(|v| match v {
        Value::Int(i) => MachineValue::Int(i),
        Value::Float(f) => MachineValue::Float(f),
        Value::Vector(_) => panic!("kernels do not return vectors"),
    });
    (bits(result), mem.bytes().to_vec())
}

/// Compile `module` for `target` under the split configuration and run the
/// kernel: its result, final memory image and counters.
fn run(
    module: &Module,
    kernel: &Kernel,
    target: &TargetDesc,
    lie: &str,
) -> (Option<(bool, u64)>, Vec<u8>, SimStats) {
    let at = || {
        format!(
            "{} on {} ({:?}), {lie}",
            kernel.name, target.name, target.timing
        )
    };
    let (program, _) = compile_module(module, target, &JitOptions::split())
        .unwrap_or_else(|e| panic!("{}: compile_module: {e}", at()));
    let prepared = PreparedProgram::prepare(&program, target)
        .unwrap_or_else(|e| panic!("{}: prepare: {e}", at()));
    let (args, mut mem) = inputs(kernel);
    let mut sim = PreparedSimulator::new(&prepared);
    let result = sim
        .run(kernel.name, &args, &mut mem)
        .unwrap_or_else(|e| panic!("{}: run: {e}", at()));
    (bits(result), mem, sim.stats())
}

/// The counters a keep ranking must not move: everything but the cycles,
/// the stalls, the spills and the instruction count.
fn architectural(s: &SimStats) -> [u64; 6] {
    [
        s.loads,
        s.stores,
        s.branches,
        s.vector_ops,
        s.mispredicts,
        s.predicted,
    ]
}

/// Every lie told about `module`'s one kernel, given another function's
/// honest ranking: each as a label and the module that tells it.
fn lies(module: &Module, foreign: &[VReg]) -> Vec<(String, Module)> {
    let f = &module.functions()[0];
    let honest = f
        .annotations
        .spill_order
        .clone()
        .expect("the offline step ranks");
    let traits = f
        .annotations
        .kernel_traits
        .expect("the offline step attaches traits");
    let num_vregs = f.num_vregs() as u32;
    let rankings: [(&str, Option<Vec<VReg>>); 7] = [
        ("absent", None),
        ("empty", Some(Vec::new())),
        (
            "reversed",
            Some(honest.keep_order.iter().rev().copied().collect()),
        ),
        (
            "duplicated",
            Some(
                honest
                    .keep_order
                    .iter()
                    .flat_map(|r| [*r, *r])
                    .chain(honest.keep_order.iter().copied())
                    .collect(),
            ),
        ),
        (
            "out of range",
            Some(
                [VReg(num_vregs), VReg(u32::MAX)]
                    .into_iter()
                    .chain(honest.keep_order.iter().copied())
                    .chain([VReg(num_vregs + 1)])
                    .collect(),
            ),
        ),
        ("foreign", Some(foreign.to_vec())),
        (
            "every register, backwards",
            Some((0..num_vregs).rev().map(VReg).collect()),
        ),
    ];
    let mut out: Vec<(String, Module)> = rankings
        .into_iter()
        .map(|(label, keep_order)| {
            let mut lying = module.clone();
            lying.functions_mut()[0].annotations.spill_order =
                keep_order.map(|keep_order| SpillOrder { keep_order });
            (format!("ranking {label}"), lying)
        })
        .collect();
    let flips = [
        KernelTraits {
            uses_fp: !traits.uses_fp,
            ..traits
        },
        KernelTraits {
            uses_vector: !traits.uses_vector,
            ..traits
        },
        KernelTraits {
            control_intensive: !traits.control_intensive,
            ..traits
        },
    ];
    for flipped in flips {
        let mut lying = module.clone();
        lying.functions_mut()[0].annotations.kernel_traits = Some(flipped);
        out.push((format!("traits {flipped:?}"), lying));
    }
    out
}

#[test]
fn lying_annotations_never_change_a_result() {
    let kernels = all_kernels();
    let modules: Vec<Module> = kernels.iter().map(module_of).collect();
    let (mut checked, mut moved) = (0usize, 0usize);
    for (k, kernel) in kernels.iter().enumerate() {
        let module = &modules[k];
        let neighbour = &modules[(k + 1) % modules.len()].functions()[0];
        let foreign = &neighbour
            .annotations
            .spill_order
            .as_ref()
            .unwrap()
            .keep_order;
        let lies = lies(module, foreign);
        let mut references = std::collections::HashMap::new();
        for timing in [TimingKind::Flat, TimingKind::InOrder] {
            for mut target in TargetDesc::presets() {
                target.timing = timing;
                let width = if target.has_simd() {
                    target.vector_bytes()
                } else {
                    DEFAULT_VECTOR_WIDTH_BYTES
                };
                let (want_result, want_mem) = references
                    .entry(width)
                    .or_insert_with(|| reference(module, kernel, width));
                let (_, _, honest) = run(module, kernel, &target, "honest");
                for (lie, lying) in &lies {
                    let (result, mem, stats) = run(lying, kernel, &target, lie);
                    let at = format!("{} on {} ({timing:?}), {lie}", kernel.name, target.name);
                    assert_eq!(result, *want_result, "{at}: result");
                    assert!(
                        mem == *want_mem,
                        "{at}: memory differs from the interpreter's"
                    );
                    assert_eq!(
                        architectural(&stats),
                        architectural(&honest),
                        "{at}: the program's memory traffic or control flow moved"
                    );
                    checked += 1;
                    moved += usize::from(
                        (stats.spill_stores, stats.spill_reloads)
                            != (honest.spill_stores, honest.spill_reloads),
                    );
                }
            }
        }
    }
    assert_eq!(checked, kernels.len() * 9 * 2 * 10);
    // The lies reach the register assignment: some of them cost spills.
    assert!(moved > 0, "no lie moved the spill traffic");
    println!("{checked} lying runs, {moved} with other spill traffic than the honest run");
}

#[test]
fn every_set_of_traits_gets_a_core_on_every_platform() {
    let platforms = [
        Platform::workstation(),
        Platform::phone(),
        Platform::cell_blade(4),
        Platform::gpu_node(),
        Platform::embedded_scalar(),
    ];
    for bits in 0u8..8 {
        let traits = KernelTraits {
            uses_fp: bits & 1 != 0,
            uses_vector: bits & 2 != 0,
            control_intensive: bits & 4 != 0,
        };
        for platform in &platforms {
            let core = choose_core(&traits, platform);
            assert!(
                platform.cores.iter().any(|c| std::ptr::eq(c, core)),
                "{traits:?} on {}: not one of the platform's cores",
                platform.name
            );
        }
    }
}
