//! The reference interpreter's allocation gate: one run allocates the same
//! number of times whatever the problem size, so no step allocates once a
//! run's registers hold their vectors.
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
        "{:<16} {:>5} {:>10} {:>10}",
        "kernel", "width", "n = 64", "n = 4096"
    );
    let mut grows = Vec::new();
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for width in WIDTHS {
            let [small, large] = SIZES.map(|n| run_allocations(&module, kernel.name, n, width));
            println!("{:<16} {width:>4}B {small:>10} {large:>10}", kernel.name);
            if small != large {
                grows.push(format!("{} at {width} B", kernel.name));
            }
        }
    }
    assert!(
        grows.is_empty(),
        "allocations grow with n: {}",
        grows.join(", ")
    );
}
