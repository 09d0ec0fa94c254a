//! Differential fuzzing: deterministic, seeded random mini-C programs run
//! through the reference interpreter and every simulated target under every
//! register-allocation mode — all of them must agree bit-for-bit.
//!
//! `tests/differential.rs` pins the fixed kernel catalogue; this harness goes
//! beyond it by *generating* small programs (scalar arithmetic, bounded
//! loops, array reads/writes, conditionals, while loops) so the bytecode
//! semantics, the offline optimizer and every online compiler configuration
//! are exercised on shapes nobody hand-picked. Every program is derived from
//! a seed; on a failure the offending seed *and the full program source* are
//! printed, so a divergence reproduces with a one-line test.
//!
//! The arithmetic generator tracks a static bound on every integer
//! expression's magnitude and keeps accumulators far below `i32::MAX`, so
//! those programs are overflow-free by construction — any divergence is a
//! real compiler or simulator bug, not an arithmetic-semantics edge case.
//!
//! The *shift* generator ([`gen_shift_program`]) deliberately drops that
//! discipline: wrapping arithmetic and modulo-64-masked shift counts are
//! fully defined bytecode semantics (see `BinOp::Shl`), so shift-heavy
//! programs with out-of-range and negative counts must still agree
//! bit-for-bit across every path.

mod pins;

use pins::Pins;
use rand::{rngs::StdRng, Rng, SeedableRng};
use splitc::serve::{Request, ServeModule, Server, ServerConfig};
use splitc::splitc_minic::compile_source;
use splitc::{run_on_target, Workspace};
use splitc_jit::{compile_module, JitOptions, RegAllocMode};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{
    MInst, MProgram, MachineValue, PreparedProgram, PreparedSimulator, RegClass, TargetDesc,
    TimingKind,
};
use splitc_vbc::{Interpreter, Memory, Value};
use splitc_workloads::{all_kernels, full_module, module_for};
use std::collections::BTreeSet;

/// Recorded [`Pins`] folds, one per suite: each cell's digest was recorded
/// from the run of that target × mode, flat and in order, on the block walk
/// that once stated every machine instruction beside the handlers.
const RANDOM_INT_PIN: u64 = 11_518_642_011_266_241_610;
const BRANCH_DENSE_PIN: u64 = 7_297_958_210_671_976_461;
const RANDOM_SHIFT_PIN: u64 = 10_025_957_613_943_935_369;
const EXTREME_SHIFT_PIN: u64 = 9_255_172_541_159_258_375;
const RANDOM_FLOAT_PIN: u64 = 15_538_265_218_304_311_018;
const F32_CONSTANT_PIN: u64 = 18_088_835_998_026_170_991;

/// Fewest welded pairs the branch-dense seeds 3000..3030 may prepare to
/// across the three modes on x86-sse: about nine tenths of the 4 983 they
/// weld.
const WELD_FLOOR: u64 = 4_500;

/// Elements per generated kernel; deliberately not a multiple of a lane count.
const N: usize = 97;

/// All register-allocation modes of the online compiler.
const MODES: [RegAllocMode; 3] = [
    RegAllocMode::SplitAnnotations,
    RegAllocMode::OnlineGreedy,
    RegAllocMode::OnlineAnalyze,
];

/// Bound on any loop-invariant or per-element i32 value the generator emits;
/// `N * EXPR_BOUND` stays two orders of magnitude below `i32::MAX`.
const EXPR_BOUND: u64 = 1_000_000;

/// A leaf the expression generator may reference: name and magnitude bound.
type Leaf = (String, u64);

struct ExprGen {
    rng: StdRng,
}

impl ExprGen {
    fn new(seed: u64) -> Self {
        ExprGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.rng.gen_range(0usize..items.len())]
    }

    /// A random i32 expression over `leaves`, with its static magnitude
    /// bound. Expressions whose bound would exceed [`EXPR_BOUND`] collapse to
    /// one operand, so no generated program can overflow.
    fn int_expr(&mut self, leaves: &[Leaf], depth: u32) -> (String, u64) {
        if depth == 0 || self.rng.gen_range(0u32..4) == 0 {
            if self.rng.gen_range(0u32..3) == 0 {
                let c = self.rng.gen_range(0i64..10);
                (c.to_string(), c.unsigned_abs())
            } else {
                self.pick(leaves).clone()
            }
        } else {
            let (a, ba) = self.int_expr(leaves, depth - 1);
            let (b, bb) = self.int_expr(leaves, depth - 1);
            let (op, bound) = match self.rng.gen_range(0u32..5) {
                0 | 1 => ("+", ba + bb),
                2 | 3 => ("-", ba + bb),
                _ => ("*", ba.saturating_mul(bb)),
            };
            if bound > EXPR_BOUND {
                (a, ba)
            } else {
                (format!("({a} {op} {b})"), bound)
            }
        }
    }

    /// A random f32 expression over `leaves` (magnitudes stay tiny: leaf
    /// values are below 8 and the depth is at most 3).
    fn float_expr(&mut self, leaves: &[String], depth: u32) -> String {
        if depth == 0 || self.rng.gen_range(0u32..4) == 0 {
            if self.rng.gen_range(0u32..3) == 0 {
                format!("{:.4}", self.rng.gen_range(0.0f32..4.0))
            } else {
                self.pick(leaves).clone()
            }
        } else {
            let a = self.float_expr(leaves, depth - 1);
            let b = self.float_expr(leaves, depth - 1);
            let op = ["+", "-", "*"][self.rng.gen_range(0usize..3)];
            format!("({a} {op} {b})")
        }
    }

    /// A comparison between two bounded i32 expressions.
    fn int_cond(&mut self, leaves: &[Leaf]) -> String {
        let (a, _) = self.int_expr(leaves, 1);
        let (b, _) = self.int_expr(leaves, 1);
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0usize..6)];
        format!("({a} {op} {b})")
    }
}

/// Generate one random i32 kernel `fn fuzz(n: i32, x: *i32, y: *i32) -> i32`:
/// loop-invariant scalars, an element-wise map over `x` into `y` (optionally
/// conditional, optionally reading `x` back-to-front), a reduction over `y`,
/// and sometimes a trailing `while` countdown.
fn gen_int_program(seed: u64) -> String {
    let mut g = ExprGen::new(seed);
    let mut body = String::new();
    let mut scalars: Vec<Leaf> = Vec::new();
    for s in 0..g.rng.gen_range(1usize..4) {
        let (init, bound) = {
            let consts: Vec<Leaf> = scalars.clone();
            if consts.is_empty() {
                let c = g.rng.gen_range(0i64..10);
                (c.to_string(), c.unsigned_abs())
            } else {
                g.int_expr(&consts, 2)
            }
        };
        body.push_str(&format!("    let s{s}: i32 = {init};\n"));
        scalars.push((format!("s{s}"), bound.max(9)));
    }

    // Element-wise map: x (and optionally its mirror) into y.
    let reversed = g.rng.gen_range(0u32..3) == 0;
    let mut leaves: Vec<Leaf> = scalars.clone();
    leaves.push(("v".into(), 100));
    leaves.push(("i".into(), N as u64));
    if reversed {
        leaves.push(("w".into(), 100));
    }
    let (map, _) = g.int_expr(&leaves, 3);
    body.push_str("    for (let i: i32 = 0; i < n; i = i + 1) {\n");
    body.push_str("        let v: i32 = x[i];\n");
    if reversed {
        body.push_str("        let j: i32 = n - 1 - i;\n");
        body.push_str("        let w: i32 = x[j];\n");
    }
    body.push_str(&format!("        y[i] = {map};\n"));
    if g.rng.gen_range(0u32..2) == 0 {
        let cond = g.int_cond(&leaves);
        let bump = g.rng.gen_range(1i64..8);
        if g.rng.gen_range(0u32..2) == 0 {
            body.push_str(&format!("        if {cond} {{ y[i] = y[i] + {bump}; }}\n"));
        } else {
            body.push_str(&format!(
                "        if {cond} {{ y[i] = y[i] + {bump}; }} else {{ y[i] = y[i] - {bump}; }}\n"
            ));
        }
    }
    body.push_str("    }\n");

    // Reduction over y: plain sum or a conditional count.
    body.push_str("    let acc: i32 = 0;\n");
    body.push_str("    for (let k: i32 = 0; k < n; k = k + 1) {\n");
    if g.rng.gen_range(0u32..3) == 0 {
        let threshold = g.rng.gen_range(0i64..10);
        body.push_str(&format!(
            "        if (y[k] > {threshold}) {{ acc = acc + 1; }} else {{ acc = acc - 1; }}\n"
        ));
    } else {
        body.push_str("        acc = acc + y[k];\n");
    }
    body.push_str("    }\n");

    // Sometimes a while-loop countdown rides along.
    if g.rng.gen_range(0u32..2) == 0 {
        let start = g.rng.gen_range(1i64..16);
        body.push_str(&format!("    let t: i32 = {start};\n"));
        body.push_str("    while (t > 0) { acc = acc + t; t = t - 1; }\n");
    }
    body.push_str("    return acc;\n");
    format!("fn fuzz(n: i32, x: *i32, y: *i32) -> i32 {{\n{body}}}\n")
}

/// Extreme shift counts: in range, at the i32 width boundary, past the
/// 64-bit register width (where the modulo-64 mask wraps them), and negative
/// (which mask to `count & 63`).
const SHIFT_COUNTS: [i64; 12] = [0, 1, 5, 31, 32, 33, 63, 64, 65, 127, -1, -63];

/// Render a count as mini-C source; negatives become `(0 - k)` so the
/// generated programs need no unary minus.
fn count_lit(c: i64) -> String {
    if c < 0 {
        format!("(0 - {})", -c)
    } else {
        c.to_string()
    }
}

/// Generate one shift-heavy i32 kernel `fn fuzz(n: i32, x: *i32, y: *i32) ->
/// i32`. Unlike [`gen_int_program`] this deliberately abandons the
/// overflow-free discipline: every operation in the bytecode wraps
/// deterministically, so shift results of any magnitude must still agree
/// bit-for-bit across the interpreter, both threaded streams and every
/// register-allocation mode — out-of-range counts included. Counts come from
/// [`SHIFT_COUNTS`] (constants, which const-folding may evaluate offline) and
/// from runtime values (`v`, `i` and expressions over them), which only the
/// execution paths see.
fn gen_shift_program(seed: u64) -> String {
    let mut g = ExprGen::new(seed);
    let mut body = String::new();

    // A few loop-invariant scalars, some holding folded constant shifts so
    // the offline constant folder evaluates extreme counts too.
    let mut leaves: Vec<String> = Vec::new();
    for s in 0..g.rng.gen_range(1usize..3) {
        let base = g.rng.gen_range(1i64..200);
        let count = count_lit(*g.pick(&SHIFT_COUNTS));
        let op = *g.pick(&["<<", ">>"]);
        body.push_str(&format!("    let s{s}: i32 = ({base} {op} {count});\n"));
        leaves.push(format!("s{s}"));
    }

    // The element-wise map: a tree of shifts and wrapping arithmetic over the
    // runtime value, the index and the invariant scalars.
    fn shift_expr(g: &mut ExprGen, leaves: &[String], depth: u32) -> String {
        if depth == 0 || g.rng.gen_range(0u32..5) == 0 {
            return g.pick(leaves).clone();
        }
        let a = shift_expr(g, leaves, depth - 1);
        match g.rng.gen_range(0u32..8) {
            // Constant extreme counts.
            0 | 1 => {
                let c = count_lit(*g.pick(&SHIFT_COUNTS));
                let op = *g.pick(&["<<", ">>"]);
                format!("({a} {op} {c})")
            }
            // Runtime counts: raw (any i32, masked mod 64) or pre-masked.
            2 => {
                let b = shift_expr(g, leaves, depth - 1);
                let op = *g.pick(&["<<", ">>"]);
                format!("({a} {op} {b})")
            }
            3 => {
                let b = shift_expr(g, leaves, depth - 1);
                let op = *g.pick(&["<<", ">>"]);
                format!("({a} {op} ({b} & 63))")
            }
            // Wrapping glue between the shifts.
            _ => {
                let b = shift_expr(g, leaves, depth - 1);
                let op = *g.pick(&["+", "-", "*", "^", "&", "|"]);
                format!("({a} {op} {b})")
            }
        }
    }

    let mut map_leaves = leaves.clone();
    map_leaves.push("v".into());
    map_leaves.push("i".into());
    let map = shift_expr(&mut g, &map_leaves, 3);
    body.push_str("    for (let i: i32 = 0; i < n; i = i + 1) {\n");
    body.push_str("        let v: i32 = x[i];\n");
    body.push_str(&format!("        y[i] = {map};\n"));
    body.push_str("    }\n");

    // Wrapping reduction so the return value covers the whole output.
    body.push_str("    let acc: i32 = 0;\n");
    body.push_str("    for (let k: i32 = 0; k < n; k = k + 1) {\n");
    body.push_str("        acc = (acc * 31) + y[k];\n");
    body.push_str("    }\n");
    body.push_str("    return acc;\n");
    format!("fn fuzz(n: i32, x: *i32, y: *i32) -> i32 {{\n{body}}}\n")
}

/// Generate one branch-dense i32 kernel `fn fuzz(n: i32, x: *i32, y: *i32)
/// -> i32`: chains of conditionals re-testing each element, stepped `while`
/// loops with compare exits, and a conditional reduction. Nearly every basic
/// block ends in a compare+branch and every loop carries an
/// induction-variable step, so the prepare-time welding sweep pairs records
/// right up to the branches that close their regions — the adversarial
/// surface for the threaded dispatcher. Bounds follow [`gen_int_program`]'s discipline:
/// per-element results stay within ±32 and the reduction within ±2·N, so the
/// programs are overflow-free by construction.
fn gen_branch_program(seed: u64) -> String {
    let mut g = ExprGen::new(seed ^ 0x00b4_a9c4);
    let mut body = String::new();
    let mut scalars: Vec<Leaf> = Vec::new();
    for s in 0..g.rng.gen_range(2usize..4) {
        let c = g.rng.gen_range(0i64..10);
        body.push_str(&format!("    let s{s}: i32 = {c};\n"));
        scalars.push((format!("s{s}"), 9));
    }

    // Element-wise map: a chain of conditionals, each re-testing the current
    // element — back-to-back compare+branch blocks.
    let mut leaves: Vec<Leaf> = scalars.clone();
    leaves.push(("v".into(), 100));
    leaves.push(("i".into(), N as u64));
    body.push_str("    for (let i: i32 = 0; i < n; i = i + 1) {\n");
    body.push_str("        let v: i32 = x[i];\n");
    body.push_str("        let r: i32 = 0;\n");
    for _ in 0..g.rng.gen_range(2u32..5) {
        let cond = g.int_cond(&leaves);
        let bump = g.rng.gen_range(1i64..8);
        if g.rng.gen_range(0u32..2) == 0 {
            body.push_str(&format!("        if {cond} {{ r = r + {bump}; }}\n"));
        } else {
            body.push_str(&format!(
                "        if {cond} {{ r = r + {bump}; }} else {{ r = r - {bump}; }}\n"
            ));
        }
    }
    body.push_str("        y[i] = r;\n");
    body.push_str("    }\n");

    // Stepped while loops: induction variable plus compare exit (the indvar
    // shape) with a data-dependent branch in the body.
    body.push_str("    let acc: i32 = 0;\n");
    for l in 0..g.rng.gen_range(1u32..3) {
        let step = g.rng.gen_range(1i64..4);
        let threshold = g.rng.gen_range(0i64..10);
        body.push_str(&format!("    let t{l}: i32 = 0;\n"));
        body.push_str(&format!("    while (t{l} < n) {{\n"));
        body.push_str(&format!(
            "        if (y[t{l}] > {threshold}) {{ acc = acc + 1; }} else {{ acc = acc - 1; }}\n"
        ));
        body.push_str(&format!("        t{l} = t{l} + {step};\n"));
        body.push_str("    }\n");
    }
    body.push_str("    return acc;\n");
    format!("fn fuzz(n: i32, x: *i32, y: *i32) -> i32 {{\n{body}}}\n")
}

/// Generate one random f32 kernel `fn fuzzf(n: i32, x: *f32, y: *f32)`: a
/// purely element-wise map (no float reductions, whose vectorization would
/// legitimately reassociate), comparing output bytes exactly.
fn gen_float_program(seed: u64) -> String {
    let mut g = ExprGen::new(seed);
    let mut body = String::new();
    let mut leaves: Vec<String> = Vec::new();
    for s in 0..g.rng.gen_range(1usize..4) {
        let c = format!("{:.4}", g.rng.gen_range(0.0f32..4.0));
        body.push_str(&format!("    let c{s}: f32 = {c};\n"));
        leaves.push(format!("c{s}"));
    }
    leaves.push("v".into());
    let map = g.float_expr(&leaves, 3);
    body.push_str("    for (let i: i32 = 0; i < n; i = i + 1) {\n");
    body.push_str("        let v: f32 = x[i];\n");
    body.push_str(&format!("        y[i] = {map};\n"));
    body.push_str("    }\n");
    format!("fn fuzzf(n: i32, x: *f32, y: *f32) {{\n{body}}}\n")
}

/// Run `source` through the interpreter and every target × mode — **via
/// every execution path**: the welded and the unwelded threaded-dispatch
/// loop, each under both timing tiers — comparing the returned value and the
/// output array bytes exactly, and the paths' `SimStats` against each other
/// (so welding is pinned to be observationally invisible). Each target ×
/// mode notes the digests of its welded flat and in-order runs in
/// `pins`, which hold every counter to the block walk's recorded runs.
/// `float` selects the f32 input layout. Panics with the program source on
/// any divergence.
fn check_program(pins: &mut Pins, source: &str, name: &str, seed: u64, float: bool) {
    let mut module = compile_source(source, "fuzz").unwrap_or_else(|e| {
        panic!("seed {seed}: generated program fails to compile: {e}\n--- source ---\n{source}")
    });
    optimize_module(&mut module, &OptOptions::full());

    // One prepared workspace both executions start from.
    let elem = 4usize;
    let mut ws = Workspace::new((2 * elem * N + (1 << 12)).max(1 << 14));
    let x = ws.alloc((elem * N) as u64);
    let y = ws.alloc((elem * N) as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
    if float {
        let data: Vec<f32> = (0..N).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        ws.write_f32s(x, &data);
    } else {
        let data: Vec<i32> = (0..N).map(|_| rng.gen_range(-100i32..100)).collect();
        ws.write_i32s(x, &data);
    }
    let args = [
        MachineValue::Int(N as i64),
        MachineValue::Int(x as i64),
        MachineValue::Int(y as i64),
    ];

    // Reference: the bytecode interpreter.
    let mut mem = Memory::new(ws.bytes().len());
    mem.bytes_mut().copy_from_slice(ws.bytes());
    let interp_args: Vec<Value> = args
        .iter()
        .map(|a| match a {
            MachineValue::Int(v) => Value::Int(*v),
            MachineValue::Float(v) => Value::Float(*v),
        })
        .collect();
    let mut interp = Interpreter::new(&module);
    let expected_result = interp
        .run(name, &interp_args, &mut mem)
        .unwrap_or_else(|e| {
            panic!("seed {seed}: interpreter failed: {e}\n--- source ---\n{source}")
        })
        .map(|v| match v {
            Value::Int(i) => MachineValue::Int(i),
            Value::Float(f) => MachineValue::Float(f),
            Value::Vector(_) => panic!("kernels do not return vectors"),
        });
    let y_range = y as usize..y as usize + elem * N;
    let expected_out = mem.bytes()[y_range.clone()].to_vec();

    // Every simulated target under every register-allocation mode, through
    // both execution paths.
    for target in TargetDesc::presets() {
        for mode in MODES {
            let jit = JitOptions {
                regalloc: mode,
                allow_simd: true,
                fuse: true,
            };
            let (program, _stats) =
                compile_module(&module, &target, &jit).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} failed to compile: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });

            // Pre-decoded threaded loop, with welding.
            let prepared = PreparedProgram::prepare(&program, &target).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: {} with {mode:?} failed to prepare: {e}\n--- source ---\n{source}",
                    target.name
                )
            });
            let mut run_ws = ws.clone();
            let mut sim = PreparedSimulator::new(&prepared);
            let result = sim
                .run(name, &args, run_ws.bytes_mut())
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} (prepared) failed: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });

            // The same threaded loop with welding disabled — welding must be
            // observationally invisible.
            let unwelded =
                PreparedProgram::prepare_with(&program, &target, false).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} failed to prepare unwelded: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });
            let mut unwelded_ws = ws.clone();
            let mut unwelded_sim = PreparedSimulator::new(&unwelded);
            let unwelded_result = unwelded_sim
                .run(name, &args, unwelded_ws.bytes_mut())
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} (unwelded) failed: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });

            let cell = format!("seed {seed}: {} with {mode:?}", target.name);
            pins.record(
                format!("{cell}, flat"),
                &Ok(result),
                &sim.stats(),
                run_ws.bytes(),
            );
            for (path, run_result, out_ws) in [
                ("prepared", result, &run_ws),
                ("unwelded", unwelded_result, &unwelded_ws),
            ] {
                assert_eq!(
                    run_result, expected_result,
                    "seed {seed}: {} with {mode:?} ({path}) returned a different value\n--- source ---\n{source}",
                    target.name
                );
                assert_eq!(
                    out_ws.bytes()[y_range.clone()],
                    expected_out[..],
                    "seed {seed}: {} with {mode:?} ({path}) produced different output bytes\n--- source ---\n{source}",
                    target.name
                );
            }
            assert_eq!(
                unwelded_sim.stats(),
                sim.stats(),
                "seed {seed}: {} with {mode:?}: unwelded SimStats diverged from the welded run\n--- source ---\n{source}",
                target.name
            );

            // Pipelined timing tier: architectural behaviour (returned value,
            // the whole memory image, spill traffic) must be bit-identical to
            // the flat reference; only the timing-class accounting may move.
            let pipe_target = target.clone().with_timing(TimingKind::InOrder);
            let pipelined =
                PreparedProgram::prepare(&program, &pipe_target).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} failed to prepare pipelined: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });
            let mut pipe_ws = ws.clone();
            let mut pipe_sim = PreparedSimulator::new(&pipelined);
            let pipe_result = pipe_sim
                .run(name, &args, pipe_ws.bytes_mut())
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} (pipelined) failed: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });
            assert_eq!(
                pipe_result, expected_result,
                "seed {seed}: {} with {mode:?} (pipelined) returned a different value\n--- source ---\n{source}",
                target.name
            );
            assert_eq!(
                pipe_ws.bytes(),
                run_ws.bytes(),
                "seed {seed}: {} with {mode:?} (pipelined) memory image diverged\n--- source ---\n{source}",
                target.name
            );
            // The tier's other column — the unwelded stream — must agree with
            // that run on every counter, `stalls`, `mispredicts` and
            // `predicted` included.
            let pipelined_unwelded = PreparedProgram::prepare_with(&program, &pipe_target, false)
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}: {} with {mode:?} failed to prepare pipelined unwelded: {e}\n--- source ---\n{source}",
                        target.name
                    )
                });
            let mut unwelded_pipe_ws = ws.clone();
            let mut unwelded_pipe_sim = PreparedSimulator::new(&pipelined_unwelded);
            let unwelded_pipe_result =
                unwelded_pipe_sim.run(name, &args, unwelded_pipe_ws.bytes_mut());
            assert_eq!(
                (unwelded_pipe_result, unwelded_pipe_sim.stats()),
                (Ok(pipe_result), pipe_sim.stats()),
                "seed {seed}: {} with {mode:?}: pipelined unwelded diverged from the pipelined run\n--- source ---\n{source}",
                target.name
            );
            assert_eq!(
                unwelded_pipe_ws.bytes(),
                pipe_ws.bytes(),
                "seed {seed}: pipelined unwelded"
            );
            pins.record(
                format!("{cell}, in order"),
                &Ok(pipe_result),
                &pipe_sim.stats(),
                pipe_ws.bytes(),
            );
            let flat = sim.stats();
            let pipe = pipe_sim.stats();
            assert_eq!(
                (pipe.instructions, pipe.loads, pipe.stores, pipe.branches, pipe.vector_ops),
                (flat.instructions, flat.loads, flat.stores, flat.branches, flat.vector_ops),
                "seed {seed}: {} with {mode:?}: architectural counters moved across timing tiers\n--- source ---\n{source}",
                target.name
            );
            assert_eq!(
                (pipe.spill_stores, pipe.spill_reloads),
                (flat.spill_stores, flat.spill_reloads),
                "seed {seed}: {} with {mode:?}: spill counts moved across timing tiers\n--- source ---\n{source}",
                target.name
            );
            assert_eq!(
                (flat.stalls, flat.mispredicts, flat.predicted),
                (0, 0, 0),
                "seed {seed}: {} with {mode:?}: flat timing must keep timing-class counters at zero",
                target.name
            );
            assert!(
                pipe.cycles >= pipe.instructions,
                "seed {seed}: {} with {mode:?}: pipelined cycles {} < retired {}",
                target.name,
                pipe.cycles,
                pipe.instructions
            );
            assert!(
                pipe.mispredicts <= pipe.branches,
                "seed {seed}: {} with {mode:?}: mispredicts {} > branches {}",
                target.name,
                pipe.mispredicts,
                pipe.branches
            );
            assert_eq!(
                pipe.predicted + pipe.mispredicts,
                pipe.branches,
                "seed {seed}: {} with {mode:?}: every branch must be predicted exactly once",
                target.name
            );
        }
    }
}

#[test]
fn random_int_programs_agree_everywhere() {
    let mut pins = Pins::default();
    for seed in 0..40u64 {
        let source = gen_int_program(seed);
        check_program(&mut pins, &source, "fuzz", seed, false);
    }
    pins.check(RANDOM_INT_PIN);
}

#[test]
fn branch_dense_programs_agree_everywhere() {
    let mut pins = Pins::default();
    for seed in 3000..3030u64 {
        let source = gen_branch_program(seed);
        check_program(&mut pins, &source, "fuzz", seed, false);
    }
    pins.check(BRANCH_DENSE_PIN);
}

#[test]
fn branch_dense_programs_actually_trigger_welding() {
    // Guard against the generator drifting into shapes the welding sweep
    // never pairs: across the tested seed range, welds must fire on every
    // register-allocation mode of a mainstream target, and their total must
    // hold near what it was measured at.
    let target = TargetDesc::x86_sse();
    let mut welded = 0u64;
    for seed in 3000..3030u64 {
        let mut module = compile_source(&gen_branch_program(seed), "fuzz").unwrap();
        optimize_module(&mut module, &OptOptions::full());
        for mode in MODES {
            let jit = JitOptions {
                regalloc: mode,
                allow_simd: true,
                fuse: true,
            };
            let (program, _) = compile_module(&module, &target, &jit).unwrap();
            let prepared = PreparedProgram::prepare(&program, &target).unwrap();
            let pairs = prepared.fusion_stats().pair;
            assert!(pairs > 0, "seed {seed}: no weld under {mode:?}");
            welded += pairs;
        }
    }
    assert!(welded >= WELD_FLOOR, "welding coverage collapsed: {welded}");
}

/// Every program of the weld census, with a name for its cell: the
/// catalogue (one module holding all of it and one module per kernel) and
/// the four generators over the seed ranges their suites run, each
/// optimized offline as deployed and compiled for every preset,
/// register-allocation mode and SIMD setting.
fn weld_census(mut visit: impl FnMut(&str, &MProgram, &TargetDesc)) {
    let mut modules = vec![("catalogue".to_owned(), full_module("catalogue").unwrap())];
    for k in all_kernels() {
        let module = module_for(std::slice::from_ref(&k), k.name).unwrap();
        modules.push((k.name.to_owned(), module));
    }
    let generators = [
        (gen_int_program as fn(u64) -> String, 0..40),
        (gen_float_program, 1000..1020),
        (gen_shift_program, 2000..2030),
        (gen_branch_program, 3000..3030),
    ];
    for (generate, seeds) in generators {
        for seed in seeds {
            let module = compile_source(&generate(seed), "fuzz").unwrap();
            modules.push((format!("fuzz seed {seed}"), module));
        }
    }
    for (name, mut module) in modules {
        optimize_module(&mut module, &OptOptions::full());
        for target in TargetDesc::presets() {
            for (regalloc, allow_simd) in MODES.into_iter().flat_map(|m| [(m, true), (m, false)]) {
                let jit = JitOptions {
                    regalloc,
                    allow_simd,
                    fuse: true,
                };
                let cell = format!(
                    "{name} on {} ({regalloc:?}, simd {allow_simd})",
                    target.name
                );
                let (program, _) = compile_module(&module, &target, &jit)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                visit(&cell, &program, &target);
            }
        }
    }
}

/// The weld table as `crates/targets/src/dispatch.rs` lists it, one line
/// per opener: every (opener, closer) pair of kind names.
fn listed_pairs() -> BTreeSet<(String, String)> {
    let source = include_str!("../crates/targets/src/dispatch.rs");
    let (_, table) = source
        .split_once("\nweld_table! {\n")
        .expect("the weld table");
    let (table, _) = table.split_once("\n}").expect("the weld table's end");
    let mut pairs = BTreeSet::new();
    for line in table.lines() {
        let (opener, closers) = line.trim().trim_end_matches(';').split_once(": ").unwrap();
        for closer in closers.split(' ') {
            pairs.insert((opener.to_owned(), closer.to_owned()));
        }
    }
    pairs
}

/// The weld kind `dispatch.rs` gives `inst` (its `lower` arm there), by name;
/// `None` for an instruction that never welds.
fn weld_kind(inst: &MInst) -> Option<&'static str> {
    let by_class = |class, int, float| match class {
        RegClass::Int => Some(int),
        RegClass::Float => Some(float),
        RegClass::Vec => None,
    };
    match inst {
        MInst::Imm { .. } => Some("K_IMM"),
        MInst::FImm { .. } => Some("K_FIMM"),
        MInst::Mov { dst, .. } => by_class(dst.class, "K_MOV_INT", "K_MOV_FLOAT"),
        MInst::IntOp { .. } => Some("K_INT_OP"),
        MInst::IntResize { .. } => Some("K_INT_RESIZE"),
        MInst::IntCmp { .. } => Some("K_INT_CMP"),
        MInst::FloatOp { .. } => Some("K_FLOAT_OP"),
        MInst::Load { float, .. } => Some(["K_LOAD_INT", "K_LOAD_FLOAT"][usize::from(*float)]),
        MInst::Store { float, .. } => Some(["K_STORE_INT", "K_STORE_FLOAT"][usize::from(*float)]),
        MInst::Spill { src, .. } => by_class(src.class, "K_SPILL_INT", "K_SPILL_FLOAT"),
        MInst::Reload { dst, .. } => by_class(dst.class, "K_RELOAD_INT", "K_RELOAD_FLOAT"),
        MInst::BranchNz { .. } => Some("K_BRANCH_NZ"),
        MInst::Jump { .. } => Some("K_JUMP"),
        MInst::Ret { value: None } => Some("K_RET_NONE"),
        MInst::Ret { value: Some(r) } => by_class(r.class, "K_RET_INT", "K_RET_FLOAT"),
        _ => None,
    }
}

/// The kind pair of every pair `prepared`, prepared from `program`, welds:
/// `disasm` marks each opener with a `+` after its row, and a function's
/// rows are its blocks' instructions, each block followed by a fall-off row
/// unless it ends in a terminator.
fn welded_pairs(program: &MProgram, prepared: &PreparedProgram) -> Vec<(String, String)> {
    let listing = prepared.disasm(program);
    let mut rows: Vec<Option<&MInst>> = Vec::new();
    let mut functions = program.functions.iter();
    let mut welded = Vec::new();
    for line in listing.lines() {
        if line.starts_with("fn ") {
            let f = functions.next().expect("a listed function");
            rows = f
                .blocks
                .iter()
                .flat_map(|b| {
                    let falls_off = !b.insts.last().is_some_and(MInst::is_terminator);
                    b.insts.iter().map(Some).chain(falls_off.then_some(None))
                })
                .collect();
        } else if let Some((row, _)) = line.split_once("+@") {
            let row: usize = row.trim().parse().expect("an opener's row");
            let kind = |row: usize| rows[row].and_then(weld_kind).expect("a weldable row");
            welded.push((kind(row).to_owned(), kind(row + 1).to_owned()));
        }
    }
    welded
}

#[test]
fn the_weld_table_is_the_census_of_what_the_jit_emits() {
    // The weld table (`dispatch.rs`) lists the kind pairs the welding sweep
    // welds, and this test holds it to the census in both directions: no
    // census program has neighbours the sweep leaves apart although both
    // kinds can weld, and every listed pair is welded somewhere. A greedy
    // sweep that never meets an unlisted pair decides at every position as
    // one over the dense table of every opener × closer kind would, so the
    // census programs keep the welded rows and counts of that rule.
    let listed = listed_pairs();
    let mut welded = BTreeSet::new();
    weld_census(|cell, program, target| {
        let prepared =
            PreparedProgram::prepare(program, target).unwrap_or_else(|e| panic!("{cell}: {e}"));
        let stats = prepared.fusion_stats();
        assert_eq!(stats.unlisted, 0, "{cell}: neighbours of an unlisted pair");
        let pairs = welded_pairs(program, &prepared);
        assert_eq!(pairs.len() as u64, stats.pair, "{cell}");
        welded.extend(pairs);
    });
    let unwelded: Vec<_> = listed.difference(&welded).collect();
    assert!(
        unwelded.is_empty(),
        "listed, welded by no census program: {unwelded:?}"
    );
    let unlisted: Vec<_> = welded.difference(&listed).collect();
    assert!(
        unlisted.is_empty(),
        "welded, not listed (is `weld_kind` stale?): {unlisted:?}"
    );
    println!(
        "weld table: {} pairs, each welded by the census",
        listed.len()
    );
}

#[test]
fn random_shift_programs_agree_everywhere() {
    let mut pins = Pins::default();
    for seed in 2000..2030u64 {
        let source = gen_shift_program(seed);
        check_program(&mut pins, &source, "fuzz", seed, false);
    }
    pins.check(RANDOM_SHIFT_PIN);
}

#[test]
fn every_extreme_shift_count_agrees_on_every_path() {
    let mut pins = Pins::default();
    // A deterministic sweep: each count in SHIFT_COUNTS applied as shl and
    // shr (constant count — reachable by the offline folder — and runtime
    // count, which only the execution paths see) to positive and negative
    // operands. One small program per count so even the register-starved
    // x86 preset (6 integer registers) compiles it in every regalloc mode.
    for (ci, c) in SHIFT_COUNTS.into_iter().enumerate() {
        let c = count_lit(c);
        // Reloading `x[i]` per shift keeps every operand's last use at the
        // instruction that consumes it, so even x86's two scratch registers
        // never see two surviving spilled operands pinned at once.
        let source = format!(
            "fn fuzz(n: i32, x: *i32, y: *i32) -> i32 {{
    for (let i: i32 = 0; i < n; i = i + 1) {{
        let r: i32 = ({c} + (i - i));
        let a: i32 = ((x[i] << {c}) ^ (x[i] >> {c}));
        let b: i32 = ((x[i] << r) ^ (x[i] >> r));
        y[i] = (a + b);
    }}
    let acc: i32 = 0;
    for (let k: i32 = 0; k < n; k = k + 1) {{ acc = ((acc * 31) + y[k]); }}
    return acc;
}}\n"
        );
        check_program(&mut pins, &source, "fuzz", 0x5817 + ci as u64, false);
    }
    pins.check(EXTREME_SHIFT_PIN);
}

/// Serving mode: run `source` through the async serving layer — generated
/// programs become [`ServeModule`] deployments, every (target, regalloc
/// mode) pair becomes a queued [`Request`] racing the others across the
/// worker pool — and compare each response bit-for-bit (returned value,
/// whole memory image, full `SimStats`) against a fresh single-threaded
/// `run_on_target` reference. This pins that the queue/worker/shared-engine
/// path adds **no semantic divergence** on shapes nobody hand-picked.
/// Panics with the program source on any mismatch.
fn check_program_served(server: &Server, source: &str, name: &str, seed: u64, float: bool) {
    let mut module = compile_source(source, "fuzz").unwrap_or_else(|e| {
        panic!("seed {seed}: generated program fails to compile: {e}\n--- source ---\n{source}")
    });
    optimize_module(&mut module, &OptOptions::full());
    let module = ServeModule::new(module);

    // One prepared workspace every execution starts from.
    let elem = 4usize;
    let mut ws = Workspace::new((2 * elem * N + (1 << 12)).max(1 << 14));
    let x = ws.alloc((elem * N) as u64);
    let y = ws.alloc((elem * N) as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xda7a);
    if float {
        let data: Vec<f32> = (0..N).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        ws.write_f32s(x, &data);
    } else {
        let data: Vec<i32> = (0..N).map(|_| rng.gen_range(-100i32..100)).collect();
        ws.write_i32s(x, &data);
    }
    let args = [
        MachineValue::Int(N as i64),
        MachineValue::Int(x as i64),
        MachineValue::Int(y as i64),
    ];

    // Submit the whole target × mode matrix before waiting on anything, so
    // requests for this program genuinely race across the worker pool.
    let mut handles = Vec::new();
    for target in TargetDesc::presets() {
        for mode in MODES {
            let jit = JitOptions {
                regalloc: mode,
                allow_simd: true,
                fuse: true,
            };
            let handle = server
                .submit(Request {
                    module: module.clone(),
                    kernel: name.to_owned(),
                    target: target.clone(),
                    options: jit,
                    args: args.to_vec(),
                    mem: ws.bytes().to_vec(),
                    deadline: None,
                    tag: 0,
                })
                .expect("fuzz server is accepting");
            handles.push((target.clone(), mode, jit, handle));
        }
    }

    for (target, mode, jit, handle) in handles {
        // Fresh single-threaded reference, no cache involved.
        let mut direct_mem = ws.bytes().to_vec();
        let direct = run_on_target(module.module(), &target, &jit, name, &args, &mut direct_mem)
            .unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: {} with {mode:?} (direct) failed: {e}\n--- source ---\n{source}",
                    target.name
                )
            });
        let response = handle.wait().unwrap_or_else(|_| {
            panic!(
                "seed {seed}: {} with {mode:?}: the serving worker died\n--- source ---\n{source}",
                target.name
            )
        });
        let served = response.outcome.unwrap_or_else(|e| {
            panic!(
                "seed {seed}: {} with {mode:?} (served) failed: {e}\n--- source ---\n{source}",
                target.name
            )
        });
        assert_eq!(
            served, direct,
            "seed {seed}: {} with {mode:?}: the served measurement diverged from direct execution\n--- source ---\n{source}",
            target.name
        );
        assert_eq!(
            response.mem, direct_mem,
            "seed {seed}: {} with {mode:?}: the served memory image diverged from direct execution\n--- source ---\n{source}",
            target.name
        );
    }
}

#[test]
fn random_programs_served_through_the_queue_match_direct_execution() {
    // Every program family of this harness, pushed through one shared
    // server: the queue/worker path must be semantically invisible.
    let server = Server::start(
        ServerConfig::default()
            .with_workers(4)
            .with_queue_capacity(32),
    );
    for seed in 0..6u64 {
        check_program_served(&server, &gen_int_program(seed), "fuzz", seed, false);
    }
    for seed in 2000..2003u64 {
        check_program_served(&server, &gen_shift_program(seed), "fuzz", seed, false);
    }
    for seed in 1000..1003u64 {
        check_program_served(&server, &gen_float_program(seed), "fuzzf", seed, true);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, stats.accepted, "no fuzz request was lost");
    assert_eq!(
        stats.engines, 12,
        "every generated program is its own deployment"
    );
}

#[test]
fn random_float_programs_agree_everywhere() {
    let mut pins = Pins::default();
    for seed in 1000..1020u64 {
        let source = gen_float_program(seed);
        check_program(&mut pins, &source, "fuzzf", seed, true);
    }
    pins.check(RANDOM_FLOAT_PIN);
}

#[test]
fn f32_constants_round_to_single_precision_on_every_path() {
    let mut pins = Pins::default();
    // Regression pinned from fuzzer seed 1003: `1.4804` is not exactly
    // f32-representable. The bytecode used to carry the unrounded f64, which
    // scalar paths consumed as-is while SIMD lane splats rounded it — the
    // same program diverged by one ULP between the interpreter and the
    // vectorized x86 run. Constants are now rounded at build time (and
    // defensively at interpretation/lowering time).
    let source = "fn fuzzf(n: i32, x: *f32, y: *f32) {
        let c0: f32 = 1.4804;
        for (let i: i32 = 0; i < n; i = i + 1) {
            let v: f32 = x[i];
            y[i] = (((v - v) - (v * c0)) - c0);
        }
    }";
    check_program(&mut pins, source, "fuzzf", 1003, true);
    pins.check(F32_CONSTANT_PIN);
}

#[test]
fn generated_programs_are_deterministic_per_seed() {
    assert_eq!(gen_int_program(7), gen_int_program(7));
    assert_eq!(gen_float_program(7), gen_float_program(7));
    assert_eq!(gen_shift_program(7), gen_shift_program(7));
    assert_eq!(gen_branch_program(7), gen_branch_program(7));
    assert_ne!(gen_int_program(7), gen_int_program(8));
    assert_ne!(gen_shift_program(7), gen_shift_program(8));
    assert_ne!(gen_branch_program(7), gen_branch_program(8));
}

#[test]
fn the_shift_generator_actually_reaches_extreme_counts() {
    // Guard against the generator silently collapsing to tame shifts: across
    // the tested seed range, out-of-range constants, negative constants and
    // runtime (register) counts must all appear.
    let sources: Vec<String> = (2000..2030).map(gen_shift_program).collect();
    let any = |needle: &str| sources.iter().any(|s| s.contains(needle));
    assert!(any("<<"), "left shifts appear");
    assert!(any(">>"), "right shifts appear");
    assert!(
        any("64)") || any("65)") || any("127)"),
        "counts past the register width appear"
    );
    assert!(any("(0 - "), "negative counts appear");
    assert!(
        any("<< v") || any(">> v") || any("<< (v") || any(">> (v"),
        "runtime counts appear"
    );
}

#[test]
fn the_generator_actually_produces_variety() {
    // Not a semantics check — a guard that the fuzzer keeps covering loops,
    // conditionals and while statements rather than collapsing to one shape.
    let sources: Vec<String> = (0..40).map(gen_int_program).collect();
    assert!(sources.iter().any(|s| s.contains("if (")));
    assert!(sources.iter().any(|s| s.contains("while (t > 0)")));
    assert!(sources.iter().any(|s| s.contains("n - 1 - i")));
    let distinct: std::collections::HashSet<&String> = sources.iter().collect();
    assert_eq!(
        distinct.len(),
        sources.len(),
        "every seed yields a new program"
    );
}
