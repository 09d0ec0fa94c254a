//! The reference interpreter's allocation gate: one run of each catalogue
//! kernel at each width allocates exactly its recorded number of times,
//! whatever the problem size, so no step allocates once a run's registers
//! hold their vectors.
//!
//! The interpreter checks every output of the benchmark's set-up and of the
//! differential suites; a step that allocated (a fresh lane `Vec` per vector
//! instruction) made it the set-up's cost. The counts are exact and equal in
//! debug and `--release`; `-- --nocapture` prints the table.

mod common;

use common::{allocations_in, CountingAlloc};
use splitc::{prepare, Workspace};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::MachineValue;
use splitc_vbc::{Interpreter, Memory, Module, Value};
use splitc_workloads::{all_kernels, module_for};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The two problem sizes compared: the smallest the benchmark runs and the
/// size of its execute-bound workloads.
const SIZES: [usize; 2] = [64, 4096];

/// The interpreter widths the benchmark's set-up runs at: the 128-bit SIMD
/// units and the 64-byte GPU.
const WIDTHS: [u64; 2] = [16, 64];

/// Allocations one run of each catalogue kernel makes at each of
/// [`WIDTHS`], in catalogue order. A kernel without vector code makes two;
/// vector code adds one for each lane kind it uses and one for each register
/// that takes its first vector.
const RECORDED: [(&str, [u64; 2]); 17] = [
    ("vecadd_f32", [6, 6]),
    ("saxpy_f32", [8, 8]),
    ("dscal_f32", [6, 6]),
    ("max_u8", [5, 5]),
    ("sum_u8", [5, 5]),
    ("sum_u16", [5, 5]),
    ("dot_f32", [7, 7]),
    ("min_i16", [5, 5]),
    ("brighten_u8", [6, 6]),
    ("copy_u8", [4, 4]),
    ("threshold_u8", [8, 8]),
    ("histogram_u8", [2, 2]),
    ("prefix_sum_i32", [2, 2]),
    ("fir4_f32", [2, 2]),
    ("horner_f32", [26, 26]),
    ("hotcold_f32", [14, 14]),
    ("hotcold_i32", [14, 14]),
];

/// Allocations made by one [`Interpreter::run`] of `kernel` at `n` and
/// `width`, its inputs and interpreter built beforehand.
fn run_allocations(module: &Module, kernel: &str, n: usize, width: u64) -> u64 {
    let mut ws = Workspace::sized_for(n);
    let prepared = prepare(kernel, n, 11, &mut ws);
    let mut mem = Memory::new(ws.bytes().len());
    mem.bytes_mut().copy_from_slice(ws.bytes());
    let args: Vec<Value> = prepared
        .args
        .iter()
        .map(|a| match a {
            MachineValue::Int(v) => Value::Int(*v),
            MachineValue::Float(v) => Value::Float(*v),
        })
        .collect();
    let mut interp = Interpreter::new(module).with_vector_width(width);
    let (out, allocations) = allocations_in(|| interp.run(kernel, &args, &mut mem));
    out.unwrap_or_else(|e| panic!("{kernel} at {width} B, n = {n}: {e}"));
    allocations
}

#[test]
fn an_interpreter_run_allocates_the_same_at_every_problem_size() {
    println!(
        "{:<16} {:>5} {:>10} {:>10} {:>10}",
        "kernel", "width", "recorded", "n = 64", "n = 4096"
    );
    let kernels = all_kernels();
    let names: Vec<_> = kernels.iter().map(|k| k.name).collect();
    let recorded: Vec<_> = RECORDED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, recorded, "one recorded row per catalogue kernel");
    let mut moved = Vec::new();
    for (kernel, (_, counts)) in kernels.into_iter().zip(RECORDED) {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for (width, want) in WIDTHS.into_iter().zip(counts) {
            let [small, large] = SIZES.map(|n| run_allocations(&module, kernel.name, n, width));
            println!(
                "{:<16} {width:>4}B {want:>10} {small:>10} {large:>10}",
                kernel.name
            );
            if [small, large] != [want; 2] {
                moved.push(format!("{} at {width} B", kernel.name));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "allocations differ from the recorded count: {}",
        moved.join(", ")
    );
}
