//! The online step's cost, gated on counts that repeat exactly.
//!
//! Split compilation moves the expensive analyses offline *so that* the
//! per-device step stays cheap. Wall-clock cannot be gated on a shared CI
//! host, so this suite pins the two deterministic proxies instead: heap
//! allocations per emitted machine instruction (the old register assigner
//! built several maps and vectors per instruction), and linear growth of
//! both allocations and `JitStats::total_work()` with the size of a function.

mod common;

use common::{allocations_in, CountingAlloc};
use splitc::splitc_minic::compile_source;
use splitc_jit::{compile_module, JitOptions, JitStats};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{MProgram, TargetDesc};
use splitc_vbc::Module;
use splitc_workloads::full_module;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on allocations per emitted machine instruction for the catalogue
/// module across the presets: twice the 1.37 measured when the gate was set
/// (most of it `verify_module` and the lowered blocks; the parent of that
/// change measured 7.95).
const ALLOCATIONS_PER_MINST_BUDGET: f64 = 2.75;

/// The three ways the online compiler can obtain its keep ranking.
fn modes() -> [(&'static str, JitOptions); 3] {
    [
        ("split", JitOptions::split()),
        ("online_greedy", JitOptions::online_greedy()),
        ("online_analyze", JitOptions::online_analyze()),
    ]
}

/// Compile `module` for every preset; returns the summed allocations, emitted
/// machine instructions and online work units.
fn compile_everywhere(module: &Module, options: &JitOptions) -> (u64, usize, u64) {
    let (mut allocations, mut emitted, mut work) = (0, 0, 0);
    for target in TargetDesc::presets() {
        let (compiled, n) = allocations_in(|| compile_module(module, &target, options));
        let (program, stats): (MProgram, JitStats) =
            compiled.unwrap_or_else(|e| panic!("{} on {}: {e}", module.name, target.name));
        allocations += n;
        emitted += program.num_insts();
        work += stats.total_work();
    }
    (allocations, emitted, work)
}

#[test]
fn online_compilation_stays_within_its_allocation_budget() {
    let mut module = full_module("catalogue").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    for (label, options) in modes() {
        let (allocations, emitted, _) = compile_everywhere(&module, &options);
        let per_minst = allocations as f64 / emitted as f64;
        println!(
            "{label}: {allocations} allocations / {emitted} machine instructions = {per_minst:.2}"
        );
        assert!(
            per_minst <= ALLOCATIONS_PER_MINST_BUDGET,
            "{label}: {per_minst:.2} allocations per machine instruction, budget {ALLOCATIONS_PER_MINST_BUDGET}"
        );
    }
}

/// One function of `loops` sequential reduction loops over the same array.
fn sequential_loops(loops: usize) -> Module {
    let mut source = String::from("fn chain(n: i32, x: *i32) -> i32 {\n    let s: i32 = 0;\n");
    for l in 0..loops {
        source.push_str(&format!(
            "    for (let i{l}: i32 = 0; i{l} < n; i{l} = i{l} + 1) {{ s = s + x[i{l}] * {}; }}\n",
            l % 7 + 1
        ));
    }
    source.push_str("    return s;\n}\n");
    let mut module = compile_source(&source, "chain").expect("generated source compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

#[test]
fn online_cost_grows_linearly_with_function_size() {
    const K: usize = 6;
    for (label, options) in modes() {
        let (small_allocs, small_minsts, small_work) =
            compile_everywhere(&sequential_loops(K), &options);
        let (_, _, double_work) = compile_everywhere(&sequential_loops(2 * K), &options);
        let (large_allocs, large_minsts, large_work) =
            compile_everywhere(&sequential_loops(8 * K), &options);
        println!(
            "{label}: {K} loops: {small_allocs} allocations, {small_minsts} minsts, {small_work} work; \
             {} loops: {large_allocs} allocations, {large_minsts} minsts, {large_work} work",
            8 * K
        );
        // Work units are exactly affine in the number of loops: every loop
        // beyond the first K costs what loops K+1..2K cost. (Emitted code is
        // not — later loops find the register file full and spill more — so
        // allocations get a bound, not an equation.)
        assert_eq!(
            large_work - small_work,
            7 * (double_work - small_work),
            "{label}: online work is not linear in the number of loops"
        );
        assert!(
            large_allocs <= 9 * small_allocs,
            "{label}: {large_allocs} allocations for {} loops, {small_allocs} for {K}",
            8 * K
        );
    }
}
