//! The online step's cost, gated on counts that repeat exactly.
//!
//! Split compilation moves the expensive analyses offline *so that* the
//! per-device step stays cheap. Wall-clock cannot be gated on a shared CI
//! host, so this suite pins the deterministic proxies instead, stage by stage
//! along the bring-up `decode_module → verify_module → compile_module →
//! PreparedProgram::prepare_with`: heap allocations per stage (the online
//! half allocates per function and per block, never per instruction or
//! operand), linear growth of allocations and `JitStats::total_work()` with
//! the size of the input, the bytes compilation asks for per emitted
//! instruction, the size of either instruction enum (every stage moves
//! instructions by value) and a ceiling on what a hostile length field can
//! make the decoder allocate. The counts are the same in debug and release
//! builds; CI prints the table for both.

mod common;

use common::{allocations_in, bytes_allocated_in, CountingAlloc};
use splitc::splitc_minic::compile_source;
use splitc_jit::{compile_module, JitOptions, JitStats};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{MInst, MProgram, PreparedProgram, TargetDesc, TimingKind};
use splitc_vbc::{
    decode_module, encode_module, verify_module, DecodeError, Inst, Module, Writer, MAGIC, VERSION,
};
use splitc_workloads::full_module;
use std::mem::size_of;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on allocations per emitted machine instruction for the catalogue
/// module across the presets: the 0.155 measured when the gate was last set
/// (0.152 split, 0.155 online_analyze), rounded up. What is allocated is the
/// output — each block's instruction vector, each function's name, parameter
/// list and block list — and the growth of the tables, which are reused
/// across functions (lowering fills one instruction buffer). Earlier
/// ceilings: 0.54 (twice the 0.27 measured with one lowered vector per
/// block and the assigner's second walk; 0.248 just before this gate), and
/// 1.37 before that, most of it `verify_module`.
const ALLOCATIONS_PER_MINST_BUDGET: f64 = 0.16;

/// Ceiling on the bytes compilation asks the allocator for, per emitted
/// machine instruction (catalogue, every preset, each mode): 56.9 measured
/// with 24-byte instructions (split; 57.5 online_analyze), rounded up. It
/// was 145.8 with 56-byte ones and a lowered vector per block.
const BYTES_PER_MINST_BUDGET: f64 = 58.0;

/// Ceiling on the allocations of decoding the optimized catalogue module:
/// what it measures (225; 529 with the string-keyed annotation trees that
/// the two typed records replaced).
const DECODE_ALLOCATIONS_BUDGET: u64 = 225;

/// What `PreparedProgram::prepare_with` allocates, on top of what the call
/// tables cost: one per function that calls (its table) and one per call
/// site (its argument list). The ceilings are what the catalogue and the
/// module with calls measure, exactly.
///
/// Per program: the name index, the function list, the program's name and
/// the threaded builder's scratch row table, sized once for the longest
/// function. Per function, under either timing tier, six vectors are kept
/// (the name, the parameters, `ops`, `info`, `kinds`, `targets`). (The
/// ceilings were 3 per program and 8 per function while they were set at
/// measurements rounded up: 6.1 per function all told; with seven kept
/// vectors — a second, unwelded record per row among them — 7.1 and 7.7;
/// with eight and a boxed record per call, 8.1 and 8.7; when each function
/// that was the largest so far grew the scratch, 8.4 and 9.7; with a second
/// 1:1 record stream per function the ceiling was 11, and growing every
/// table from empty measured 29.8.)
const PREPARE_ALLOCATIONS_PER_PROGRAM: u64 = 4;
const PREPARE_ALLOCATIONS_PER_FUNCTION: u64 = 6;

/// What in-order timing adds: per program, the recorder's two scratch
/// tables, allocated once at the size of its longest function and its
/// largest register file; per function, the two tables of segment summaries
/// it keeps, `segs` (sized from its regions) and `keys` (copied out of the
/// recorder at its exact length). (The per-function ceiling was 2 over a
/// rounded-up measurement of 8.2, 9.0 for the module with calls.)
const PREPARE_IN_ORDER_ALLOCATIONS_PER_PROGRAM: u64 = 2;
const PREPARE_IN_ORDER_ALLOCATIONS_PER_FUNCTION: u64 = 2;

/// `size_of` of each instruction enum, in bytes. Every online stage moves
/// instructions by value, so a variant wider than the others widens them
/// all: `Call` keeps its callee name and argument list behind one box for
/// this (it was 56 bytes with them inline).
const INST_BYTES: usize = 24;
const MINST_BYTES: usize = 24;

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

/// What compiling a module for every preset cost, summed over the presets.
#[derive(Default)]
struct CompileCost {
    allocations: u64,
    bytes: u64,
    /// Machine instructions emitted.
    emitted: usize,
    /// Online work units.
    work: u64,
}

/// Compile `module` for every preset.
fn compile_everywhere(module: &Module, options: &JitOptions) -> CompileCost {
    let mut cost = CompileCost::default();
    for target in TargetDesc::presets() {
        let ((compiled, bytes), n) =
            allocations_in(|| bytes_allocated_in(|| compile_module(module, &target, options)));
        let (program, stats): (MProgram, JitStats) =
            compiled.unwrap_or_else(|e| panic!("{} on {}: {e}", module.name, target.name));
        cost.allocations += n;
        cost.bytes += bytes;
        cost.emitted += program.num_insts();
        cost.work += stats.total_work();
    }
    cost
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
    let (per_program, per_function) = match timing {
        TimingKind::Flat => (
            PREPARE_ALLOCATIONS_PER_PROGRAM,
            PREPARE_ALLOCATIONS_PER_FUNCTION,
        ),
        TimingKind::InOrder => (
            PREPARE_ALLOCATIONS_PER_PROGRAM + PREPARE_IN_ORDER_ALLOCATIONS_PER_PROGRAM,
            PREPARE_ALLOCATIONS_PER_FUNCTION + PREPARE_IN_ORDER_ALLOCATIONS_PER_FUNCTION,
        ),
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
        gate += per_program + per_function * program.functions.len() as u64 + calling + calls;
    }
    (allocations, gate)
}

/// The allocation gate of every stage of the bring-up, printed as one table
/// (measured, then the ceiling) and asserted once the table is complete.
#[test]
fn online_compilation_stays_within_its_allocation_budget() {
    let module = catalogue();
    let bytes = encode_module(&module);
    // (stage, measured, ceiling)
    let mut rows: Vec<(String, u64, u64)> = Vec::new();

    rows.push((
        "size_of::<Inst>() (bytes, exact)".into(),
        size_of::<Inst>() as u64,
        INST_BYTES as u64,
    ));
    rows.push((
        "size_of::<MInst>() (bytes, exact)".into(),
        size_of::<MInst>() as u64,
        MINST_BYTES as u64,
    ));

    let (decoded, n) = allocations_in(|| decode_module(&bytes));
    assert_eq!(decoded.as_ref(), Ok(&module));
    rows.push(("decode_module".into(), n, DECODE_ALLOCATIONS_BUDGET));

    let (verdict, n) = allocations_in(|| verify_module(&module));
    assert_eq!(verdict, Ok(()));
    rows.push(("verify_module".into(), n, 0));
    // Callees are resolved through one name index, built at the first call.
    let calls = module_with_calls();
    let (verdict, n) = allocations_in(|| verify_module(&calls));
    assert_eq!(verdict, Ok(()));
    rows.push(("verify_module, calls".into(), n, 1));

    for (label, options) in modes() {
        let cost = compile_everywhere(&module, &options);
        let emitted = cost.emitted;
        rows.push((
            format!("compile_module x9, {label} ({emitted} minsts)"),
            cost.allocations,
            (ALLOCATIONS_PER_MINST_BUDGET * emitted as f64) as u64,
        ));
        rows.push((
            format!("compile_module x9, {label}, bytes"),
            cost.bytes,
            (BYTES_PER_MINST_BUDGET * emitted as f64) as u64,
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
    // The sizes are pinned both ways: a smaller enum is worth a new pin.
    assert_eq!(
        (size_of::<Inst>(), size_of::<MInst>()),
        (INST_BYTES, MINST_BYTES),
        "instruction sizes moved"
    );
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
        let small = compile_everywhere(&sequential_loops(K), &options);
        let double_work = compile_everywhere(&sequential_loops(2 * K), &options).work;
        let large = compile_everywhere(&sequential_loops(8 * K), &options);
        let (small_allocs, small_minsts, small_work) =
            (small.allocations, small.emitted, small.work);
        let (large_allocs, large_minsts, large_work) =
            (large.allocations, large.emitted, large.work);
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
