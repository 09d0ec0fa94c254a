//! The online step's cost, gated on counts that repeat exactly.
//!
//! Split compilation moves the expensive analyses offline *so that* the
//! per-device step stays cheap. Wall-clock cannot be gated on a shared CI
//! host, so this suite pins the deterministic proxies instead, stage by stage
//! along the bring-up `decode_module → verify_module → compile_module →
//! PreparedProgram::prepare_with`: heap allocations per stage (the online
//! half allocates per function and per block, never per instruction or
//! operand), linear growth of allocations and `JitStats::total_work()` with
//! the size of the input, and a ceiling on what a hostile length field can
//! make the decoder allocate. The counts are the same in debug and release
//! builds; CI prints the table for both.

mod common;

use common::{allocations_in, bytes_allocated_in, CountingAlloc};
use splitc::splitc_minic::compile_source;
use splitc_jit::{compile_module, JitOptions, JitStats};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{MInst, MProgram, PreparedProgram, TargetDesc, TimingKind};
use splitc_vbc::{
    decode_module, encode_module, verify_module, DecodeError, Module, Writer, MAGIC, VERSION,
};
use splitc_workloads::full_module;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on allocations per emitted machine instruction for the catalogue
/// module across the presets: twice the 0.27 measured when the gate was set
/// (the lowered and the rewritten blocks, the per-function tables; the parent
/// of that change measured 1.37, most of it `verify_module`).
const ALLOCATIONS_PER_MINST_BUDGET: f64 = 0.54;

/// Ceiling on the allocations of decoding the optimized catalogue module
/// (225 when the gate was set; 529 with the string-keyed annotation trees
/// that the two typed records replaced).
const DECODE_ALLOCATIONS_BUDGET: u64 = 230;

/// What `PreparedProgram::prepare_with` may allocate, on top of what the
/// call tables cost: one per function that calls (its table) and one per
/// call site (its argument list).
///
/// Per program: the name index, the function list and the program's name.
/// Per function, under either timing tier, six vectors are kept (the name,
/// the parameters, `ops`, `info`, `kinds`, `targets`). The threaded
/// builder's scratch tables are allocated once per program, sized for its
/// longest function (the catalogue measures 6.1 per function all told, the
/// module with calls 6.3 beside its call tables; with seven kept vectors —
/// a second, unwelded record per row among them — 7.1 and 7.7; with eight
/// and a boxed record per call, 8.1 and 8.7; when each function that was
/// the largest so far grew the scratch, 8.4 and 9.7; with a second 1:1
/// record stream per function the ceiling was 11, and growing every table
/// from empty measured 29.8).
const PREPARE_ALLOCATIONS_PER_PROGRAM: u64 = 3;
const PREPARE_ALLOCATIONS_PER_FUNCTION: u64 = 8;

/// What in-order timing adds per function: the two tables of segment
/// summaries each function keeps, `segs` (sized from its regions and
/// selects) and `keys` (copied out of the recorder at its exact length).
/// The recorder's own two scratch tables are allocated once per program, at
/// the size of its longest function and its largest register file (the
/// catalogue measures 8.2 per function all told, the module with calls 9.0;
/// 9.2 and 10.3 while each function kept a second record per row).
const PREPARE_IN_ORDER_ALLOCATIONS_PER_FUNCTION: u64 = 2;

/// The optimized 17-kernel catalogue module, as the offline step ships it.
fn catalogue() -> Module {
    let mut module = full_module("catalogue").expect("catalogue compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

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

/// A module whose functions call each other, for the call-table terms of
/// the preparation gate.
fn module_with_calls() -> Module {
    let mut module = compile_source(
        "fn scale(x: i32, k: i32) -> i32 { return x * k; }
         fn offset(x: i32) -> i32 { return scale(x, 3) + 1; }
         fn driver(n: i32, x: *i32) -> i32 {
             let s: i32 = 0;
             for (let i: i32 = 0; i < n; i = i + 1) { s = s + offset(x[i]) + scale(x[i], 5); }
             return s;
         }",
        "calls",
    )
    .expect("source compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

/// Prepare `module` for every preset under `timing`; returns the summed
/// allocations of `prepare_with` and the gate they must stay under.
fn prepare_everywhere(module: &Module, timing: TimingKind) -> (u64, u64) {
    let per_function = PREPARE_ALLOCATIONS_PER_FUNCTION
        + match timing {
            TimingKind::Flat => 0,
            TimingKind::InOrder => PREPARE_IN_ORDER_ALLOCATIONS_PER_FUNCTION,
        };
    let (mut allocations, mut gate) = (0, 0);
    for mut target in TargetDesc::presets() {
        target.timing = timing;
        let (program, _) = compile_module(module, &target, &JitOptions::split())
            .unwrap_or_else(|e| panic!("{} on {}: {e}", module.name, target.name));
        let (prepared, n) =
            allocations_in(|| PreparedProgram::prepare_with(&program, &target, true));
        prepared.unwrap_or_else(|e| panic!("{} on {}: {e}", module.name, target.name));
        allocations += n;
        let (mut calls, mut calling) = (0, 0);
        for f in &program.functions {
            let sites = f
                .blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter(|i| matches!(i, MInst::Call { .. }))
                .count() as u64;
            calls += sites;
            calling += u64::from(sites > 0);
        }
        gate += PREPARE_ALLOCATIONS_PER_PROGRAM
            + per_function * program.functions.len() as u64
            + calling
            + calls;
    }
    (allocations, gate)
}

/// The allocation gate of every stage of the bring-up, printed as one table
/// (measured, then the ceiling) and asserted once the table is complete.
#[test]
fn online_compilation_stays_within_its_allocation_budget() {
    let module = catalogue();
    let bytes = encode_module(&module);
    // (stage, allocations, ceiling)
    let mut rows: Vec<(String, u64, u64)> = Vec::new();

    let (decoded, n) = allocations_in(|| decode_module(&bytes));
    assert_eq!(decoded.as_ref(), Ok(&module));
    rows.push(("decode_module".into(), n, DECODE_ALLOCATIONS_BUDGET));

    let (verdict, n) = allocations_in(|| verify_module(&module));
    assert_eq!(verdict, Ok(()));
    rows.push(("verify_module".into(), n, 0));

    for (label, options) in modes() {
        let (allocations, emitted, _) = compile_everywhere(&module, &options);
        let gate = (ALLOCATIONS_PER_MINST_BUDGET * emitted as f64) as u64;
        rows.push((
            format!("compile_module x9, {label} ({emitted} minsts)"),
            allocations,
            gate,
        ));
    }

    for module in [&module, &module_with_calls()] {
        for (label, timing) in [
            ("flat", TimingKind::Flat),
            ("in-order", TimingKind::InOrder),
        ] {
            let (allocations, gate) = prepare_everywhere(module, timing);
            rows.push((
                format!("prepare_with x9, {label}, {}", module.name),
                allocations,
                gate,
            ));
        }
    }

    // One write, so that the suite's other tests cannot interleave with it.
    let mut table = format!("{:<52} {:>11} {:>8}\n", "stage", "allocations", "ceiling");
    for (stage, allocations, gate) in &rows {
        table.push_str(&format!("{stage:<52} {allocations:>11} {gate:>8}\n"));
    }
    print!("{table}");
    let over: Vec<_> = rows.iter().filter(|(_, n, gate)| n > gate).collect();
    assert!(over.is_empty(), "stages over their ceiling: {over:?}");
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

/// `copies` renamed copies of one vectorizable kernel, optimized.
fn saxpy_copies(copies: usize) -> Module {
    let source: String = (0..copies)
        .map(|c| {
            format!(
                "fn saxpy{c}(n: i32, a: f32, x: *f32, y: *f32) {{\n    \
                 for (let i: i32 = 0; i < n; i = i + 1) {{ y[i] = a * x[i] + y[i]; }}\n}}\n"
            )
        })
        .collect();
    let mut module = compile_source(&source, "copies").expect("generated source compiles");
    optimize_module(&mut module, &OptOptions::full());
    module
}

#[test]
fn decoding_allocates_linearly_in_the_number_of_functions() {
    const K: usize = 4;
    let allocations_for = |copies: usize| {
        let bytes = encode_module(&saxpy_copies(copies));
        let (decoded, allocations) = allocations_in(|| decode_module(&bytes));
        assert_eq!(decoded.expect("decodes").functions().len(), copies);
        allocations
    };
    let (small, large) = (allocations_for(K), allocations_for(8 * K));
    println!(
        "decode_module: {K} functions: {small} allocations; {} functions: {large}",
        8 * K
    );
    assert!(
        large <= 8 * small,
        "decode_module: {large} allocations for {} functions, {small} for {K}",
        8 * K
    );
}

/// A module header (`magic, version, name "m"`) followed by whatever `rest`
/// writes: the start of an encoded module, cut off where `rest` stops.
fn truncated_module(rest: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u8(VERSION);
    w.str("m");
    rest(&mut w);
    w.into_bytes()
}

/// The start of a function `f` without parameters or return type, with one
/// `i32` register and entry block 0, up to where its block count goes.
fn function_up_to_blocks(w: &mut Writer) {
    w.uleb(1); // functions
    w.str("f");
    w.uleb(0); // parameters
    w.u8(0); // no return type
    w.uleb(1); // registers
    w.bytes(&[0, 2]); // scalar i32
    w.uleb(0); // entry
}

#[test]
fn hostile_counts_fail_as_truncation_without_large_allocations() {
    /// What a length field that survives a bit flip can claim.
    const HOSTILE: u64 = 1 << 40;
    let cases: [(&str, Vec<u8>); 7] = [
        ("functions", truncated_module(|w| w.uleb(HOSTILE))),
        (
            "parameters",
            truncated_module(|w| {
                w.uleb(1);
                w.str("f");
                w.uleb(HOSTILE);
            }),
        ),
        (
            "registers",
            truncated_module(|w| {
                w.uleb(1);
                w.str("f");
                w.uleb(0);
                w.u8(0);
                w.uleb(HOSTILE);
            }),
        ),
        (
            "blocks",
            truncated_module(|w| {
                function_up_to_blocks(w);
                w.uleb(HOSTILE);
            }),
        ),
        (
            "instructions",
            truncated_module(|w| {
                function_up_to_blocks(w);
                w.uleb(HOSTILE); // blocks
                w.uleb(HOSTILE); // instructions of the first
            }),
        ),
        (
            "call arguments",
            truncated_module(|w| {
                function_up_to_blocks(w);
                w.uleb(1);
                w.uleb(1);
                w.bytes(&[9, 0]); // call without a result
                w.str("g");
                w.uleb(HOSTILE);
            }),
        ),
        (
            "keep ranking",
            truncated_module(|w| {
                function_up_to_blocks(w);
                w.uleb(0); // blocks
                w.u8(1); // a spill order follows
                w.uleb(HOSTILE);
            }),
        ),
    ];
    for (what, bytes) in cases {
        let (verdict, allocated) = bytes_allocated_in(|| decode_module(&bytes));
        println!(
            "decode_module, 2^40 {what}: {allocated} bytes allocated for {} bytes of input",
            bytes.len()
        );
        assert_eq!(verdict, Err(DecodeError::UnexpectedEof), "2^40 {what}");
        assert!(
            allocated < 1 << 20,
            "2^40 {what}: {allocated} bytes allocated"
        );
    }
}
