//! The offline analyses' cost, gated on counts that repeat exactly.
//!
//! `DefUse`, `Liveness` and the spill profiles are recomputed on every round
//! of the offline passes' loops (dead-code elimination, folding, the
//! vectorizer) and once per function for the spill ranking. Each keeps its
//! data in flat, register-indexed arrays, so the number of heap allocations
//! it makes does not depend on how many registers and blocks the function
//! has. Wall-clock cannot be gated on a shared CI host; this suite gates that
//! count instead, on one generated function and the same function with four
//! times the registers and blocks. The counts are the same in debug and
//! release builds; CI prints the table for both.

mod common;

use common::{allocations_in, CountingAlloc};
use splitc::splitc_minic::compile_source;
use splitc_opt::{optimize_module, profiles, DefUse, Liveness, OptOptions};
use splitc_vbc::Function;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An analysis under the gate, by name, run for its allocations only.
type Analysis = (&'static str, fn(&Function));

/// One function holding a reduction loop followed by `k` conditionals, each
/// with its own local: registers and blocks grow with `k`, the loop nest
/// does not (the loop forest under the spill profiles allocates per loop).
fn branches(k: usize) -> Function {
    let mut source = String::from(
        "fn chain(n: i32, x: *i32) -> i32 {\n    let s: i32 = 0;\n    \
         for (let i: i32 = 0; i < n; i = i + 1) { s = s + x[i]; }\n",
    );
    for j in 0..k {
        source.push_str(&format!(
            "    let v{j}: i32 = x[{j}] * {};\n    \
             if (v{j} > s) {{ s = s + v{j}; }} else {{ s = s - {j}; }}\n",
            j % 7 + 1
        ));
    }
    source.push_str("    return s;\n}\n");
    let mut module = compile_source(&source, "chain").expect("generated source compiles");
    optimize_module(&mut module, &OptOptions::full());
    module.function("chain").expect("one function").clone()
}

#[test]
fn offline_analyses_allocate_independently_of_function_size() {
    const K: usize = 16;
    let (small, large) = (branches(K), branches(4 * K));
    assert!(
        large.blocks.len() >= 3 * small.blocks.len() && large.num_vregs() >= 3 * small.num_vregs(),
        "the larger function must be about four times the smaller"
    );
    let analyses: [Analysis; 3] = [
        ("DefUse::compute", |f| drop(DefUse::compute(f))),
        ("Liveness::compute", |f| drop(Liveness::compute(f))),
        ("profiles", |f| drop(profiles(f))),
    ];
    let size = |f: &Function| format!("{} blocks, {} regs", f.blocks.len(), f.num_vregs());
    // One write, so that the suite's other tests cannot interleave with it.
    let mut table = format!(
        "{:<20} {:>22} {:>22}\n",
        "analysis",
        size(&small),
        size(&large)
    );
    let mut rows = Vec::new();
    for (name, analysis) in analyses {
        let (_, at_small) = allocations_in(|| analysis(&small));
        let (_, at_large) = allocations_in(|| analysis(&large));
        table.push_str(&format!("{name:<20} {at_small:>22} {at_large:>22}\n"));
        rows.push((name, at_small, at_large));
    }
    print!("{table}");
    let grown: Vec<_> = rows.iter().filter(|(_, s, l)| s != l).collect();
    assert!(
        grown.is_empty(),
        "analyses whose allocations grow with the function: {grown:?}"
    );
}
