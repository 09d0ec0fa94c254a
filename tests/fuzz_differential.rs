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
use splitc::splitc_minic::{
    compile_source, lex, parse, BlockStmt, Expr, LValue, Stmt, TokenKind, MAX_NESTING,
};
use splitc::{run_on_target, Workspace};
use splitc_jit::{compile_module, JitOptions, RegAllocMode};
use splitc_opt::{optimize_module, profiles, DefUse, InstPos, Liveness, OptOptions, OptReport};
use splitc_targets::{
    Fnv1a, MInst, MProgram, MachineValue, PreparedProgram, PreparedSimulator, RegClass, TargetDesc,
    TimingKind,
};
use splitc_vbc::{encode_module, BlockId, Function, Interpreter, Memory, Module, VReg, Value};
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

/// Recorded fold of [`offline_digest`] over [`offline_modules`]: what the
/// offline step makes of each module, byte for byte and bit for bit.
const OFFLINE_PIN: u64 = 10_706_766_766_879_029_535;

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

/// Seeds per generator that the offline pin and the analysis oracle cover.
const OFFLINE_SEEDS: u64 = 10;

/// The modules the offline pin and the analysis oracle cover, as the front
/// end emits them: the 17-kernel catalogue as one module (the benchmark's
/// deployed module) and the first [`OFFLINE_SEEDS`] seeds of each
/// generator's suite range.
fn offline_modules() -> Vec<(String, Module)> {
    let mut modules = vec![("catalogue".to_owned(), full_module("catalogue").unwrap())];
    let generators = [
        (gen_int_program as fn(u64) -> String, 0),
        (gen_float_program, 1000),
        (gen_shift_program, 2000),
        (gen_branch_program, 3000),
    ];
    for (generate, first) in generators {
        for seed in first..first + OFFLINE_SEEDS {
            let module = compile_source(&generate(seed), "fuzz").unwrap();
            modules.push((format!("fuzz seed {seed}"), module));
        }
    }
    modules
}

/// FNV-1a over what the full offline step makes of `module`: the encoded
/// module, every [`OptReport`] counter, and every function's spill profile
/// rows as `(reg, accesses bits, span_blocks, score bits)`.
fn offline_digest(module: &mut Module) -> u64 {
    let OptReport {
        folded,
        copies_propagated,
        dce_removed,
        vectorized_loops,
        rejections,
        spill_orders,
        annotated,
        offline_work,
    } = optimize_module(module, &OptOptions::full());
    let mut h = Fnv1a::new();
    h.write(&encode_module(module));
    for count in [
        folded,
        copies_propagated,
        dce_removed,
        spill_orders,
        annotated,
    ] {
        h.write(&(count as u64).to_le_bytes());
    }
    h.write(&offline_work.to_le_bytes());
    for (name, loops) in &vectorized_loops {
        h.write(name.as_bytes());
        h.write(&(*loops as u64).to_le_bytes());
    }
    for (name, reasons) in &rejections {
        h.write(name.as_bytes());
        for reason in reasons {
            h.write(reason.as_bytes());
        }
    }
    for f in module.functions() {
        h.write(f.name.as_bytes());
        for p in profiles(f) {
            h.write(&p.reg.0.to_le_bytes());
            h.write(&p.accesses.to_bits().to_le_bytes());
            h.write(&(p.span_blocks as u64).to_le_bytes());
            h.write(&p.score.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

#[test]
fn the_offline_step_makes_the_recorded_modules_and_spill_profiles() {
    let cells: Vec<(String, u64)> = offline_modules()
        .into_iter()
        .map(|(name, mut module)| {
            let digest = offline_digest(&mut module);
            (name, digest)
        })
        .collect();
    let mut fold = Fnv1a::new();
    for (_, digest) in &cells {
        fold.write(&digest.to_le_bytes());
    }
    if fold.finish() != OFFLINE_PIN {
        for (name, digest) in &cells {
            println!("{name}: {digest:#018x}");
        }
    }
    assert_eq!(
        fold.finish(),
        OFFLINE_PIN,
        "the offline step moved over {} modules (cells printed above)",
        cells.len()
    );
}

/// Sources the front-end pin reads besides the catalogue and the
/// generators: the lexer's and the parser's edges, one a line.
const FRONT_END_CASES: &[&str] = &[
    // An unexpected character.
    "fn f() { let x: i32 = $; }",
    // An exponent without digits.
    "fn f() -> f32 { return 1e+; }",
    // An integer literal beyond `i64`.
    "fn f() -> i64 { return 99999999999999999999; }",
    // A doubled digit separator.
    "fn f() -> i32 { return 1__0; }",
    // Non-ASCII white space between tokens: columns count characters.
    "fn f(x: i32)\u{a0}-> i32 {\u{3000}return\u{a0}x; }",
    "fn f() {\u{3000}\u{a0}\u{2028}\x0b\x0clet x: i32 = $; }",
    // A non-ASCII letter inside an identifier.
    "fn f() { let ab\u{e9}c: i32 = 1; }",
    // CRLF line ends.
    "fn f(x: i32) -> i32 {\r\n    // a comment\r\n    return x;\r\n}\r\n",
    // A `//` comment at the end of the input, without a newline.
    "fn f() { return; } // the end",
    // Numbers: separators, exponents, a fraction, a trailing dot.
    "fn f() -> f64 { return 1_0.2_5e-1_0 + 2E3 + 0.5 + 7e+2; }",
    "fn f() -> f32 { return 1.; }",
    "fn f() -> i32 { return 9_223_372_036_854_775_807; }",
    // Syntax errors.
    "fn f( { }",
    "fn f() { 1 + ; }",
    "fn f() { let x: nosuch = 1; }",
    "fn f() { 1 + 2 = 3; }",
    "fn f() { let x: i32 = 1;",
    "fn f() -> i32 { return (1 + 2; }",
    "fn f(x: *i32) -> i32 { return x[0; }",
    "fn (x: i32) { }",
    // Every operator and keyword, and two type errors.
    "fn g(a: i32, b: i32) -> i32 { if (a < b && a <= b || !(a > b) & (a >= b) | (a == b) ^ (a != b)) \
     { return ~a << 1 >> 2 % 3 / 4 * 5 - 6 + -b; } else { while (a < b) { a = a + 1; } } \
     for (let i: i32 = 0; i < b; i = i + 1) { a = min(a, max(i, b as i32)); } return a; }",
    "fn f(a: f32, b: i32) -> f32 { return a + b; }",
    "fn f() -> i32 { return y; }",
    // A multi-byte character where a token starts.
    "fn f() { let x: i32 = 1 \u{2212} 2; }",
    "",
];

/// FNV-1a over what the front end makes of `source`: every token's kind
/// and `(line, col)` span, or the lexer's error text; then the encoded,
/// unoptimized module, or the error text of the first stage that refuses
/// the source.
fn front_end_digest(source: &str) -> u64 {
    let mut h = Fnv1a::new();
    match lex(source) {
        Ok(tokens) => {
            for t in &tokens {
                match &t.kind {
                    TokenKind::Int(v) => {
                        h.write(b"int");
                        h.write(&v.to_le_bytes());
                    }
                    TokenKind::Float(v) => {
                        h.write(b"float");
                        h.write(&v.to_bits().to_le_bytes());
                    }
                    TokenKind::Ident(name) => {
                        h.write(b"ident");
                        h.write(name.as_bytes());
                    }
                    other => h.write(other.to_string().as_bytes()),
                }
                h.write(&t.span.line.to_le_bytes());
                h.write(&t.span.col.to_le_bytes());
            }
        }
        Err(e) => h.write(e.to_string().as_bytes()),
    }
    match compile_source(source, "pin") {
        Ok(module) => h.write(&encode_module(&module)),
        Err(e) => h.write(e.to_string().as_bytes()),
    }
    h.finish()
}

/// The height of an expression tree: 1 for a leaf.
fn expr_height(e: &Expr<'_>) -> u32 {
    1 + match e {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => 0,
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr_height(expr),
        Expr::Index { index, .. } => expr_height(index),
        Expr::Binary { lhs, rhs, .. } => expr_height(lhs).max(expr_height(rhs)),
        Expr::Call { args, .. } => args.iter().map(expr_height).max().unwrap_or(0),
    }
}

/// The height of the tallest expression among `stmts` and the blocks they hold.
fn tallest_expr(stmts: &[Stmt<'_>]) -> u32 {
    let block = |b: &BlockStmt<'_>| tallest_expr(&b.stmts);
    let lvalue = |t: &LValue<'_>| match t {
        LValue::Var(_) => 0,
        LValue::Index { index, .. } => expr_height(index),
    };
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Let { init: e, .. } | Stmt::Expr { expr: e } => expr_height(e),
            Stmt::Return { value } => value.as_ref().map_or(0, expr_height),
            Stmt::Assign { target, value } => lvalue(target).max(expr_height(value)),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => expr_height(cond)
                .max(block(then_blk))
                .max(else_blk.as_ref().map_or(0, block)),
            Stmt::While { cond, body } => expr_height(cond).max(block(body)),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => tallest_expr(std::slice::from_ref(init))
                .max(expr_height(cond))
                .max(tallest_expr(std::slice::from_ref(step)))
                .max(block(body)),
        })
        .max()
        .unwrap_or(0)
}

/// How deep `source` nests: the most brackets open around one token, and
/// the height of its tallest expression.
fn nesting(source: &str) -> (u32, u32) {
    let (mut open, mut deepest) = (0u32, 0u32);
    for t in lex(source).expect("the source lexes") {
        match t.kind {
            TokenKind::LParen | TokenKind::LBrace | TokenKind::LBracket => open += 1,
            TokenKind::RParen | TokenKind::RBrace | TokenKind::RBracket => open -= 1,
            _ => {}
        }
        deepest = deepest.max(open);
    }
    let program = parse(source).expect("the source parses");
    let tallest = program
        .functions
        .iter()
        .map(|f| tallest_expr(&f.body.stmts))
        .max()
        .unwrap_or(0);
    (deepest, tallest)
}

/// Recorded fold of [`front_end_digest`] over the catalogue as one source,
/// the generators' sources over their suites' seed ranges and
/// [`FRONT_END_CASES`].
const FRONT_END_PIN: u64 = 5_973_516_742_679_456_602;

#[test]
fn the_front_end_reads_every_source_to_the_recorded_tokens_and_errors() {
    let catalogue: Vec<&str> = all_kernels().iter().map(|k| k.source).collect();
    let mut sources = vec![("catalogue".to_owned(), catalogue.join("\n"))];
    let generators = [
        (gen_int_program as fn(u64) -> String, 0..40),
        (gen_float_program, 1000..1020),
        (gen_shift_program, 2000..2030),
        (gen_branch_program, 3000..3030),
    ];
    for (generate, seeds) in generators {
        sources.extend(seeds.map(|seed| (format!("fuzz seed {seed}"), generate(seed))));
    }
    // The parser refuses deeper nesting than `MAX_NESTING`; the programs
    // the suites compile stay far below it (8 brackets, expressions 15 high).
    let (brackets, height) = sources.iter().fold((0, 0), |(b, h), (_, source)| {
        let (sb, sh) = nesting(source);
        (b.max(sb), h.max(sh))
    });
    println!("deepest nesting: {brackets} brackets, expressions {height} high");
    assert!(
        brackets.max(height) <= MAX_NESTING / 8,
        "{brackets}, {height}"
    );
    for (i, case) in FRONT_END_CASES.iter().enumerate() {
        sources.push((format!("case {i}"), (*case).to_owned()));
    }
    let cells: Vec<(String, u64)> = sources
        .iter()
        .map(|(name, source)| (name.clone(), front_end_digest(source)))
        .collect();
    let mut fold = Fnv1a::new();
    for (_, digest) in &cells {
        fold.write(&digest.to_le_bytes());
    }
    if fold.finish() != FRONT_END_PIN {
        for (name, digest) in &cells {
            println!("{name}: {digest:#018x}");
        }
    }
    assert_eq!(
        fold.finish(),
        FRONT_END_PIN,
        "the front end moved over {} sources (cells printed above)",
        cells.len()
    );
}

/// Whether some CFG path from the top of `from` reads `r` before writing
/// it, by depth-first search over the blocks; an instruction reads its
/// operands before it writes its result.
fn read_before_write(f: &Function, from: BlockId, r: VReg) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![from];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        let mut first = None;
        for inst in &f.block(b).insts {
            let mut reads = false;
            inst.for_each_use(|u| reads |= u == r);
            if reads || inst.dst() == Some(r) {
                first = Some(reads);
                break;
            }
        }
        match first {
            Some(true) => return true,
            Some(false) => {}
            None => stack.extend(f.block(b).successors()),
        }
    }
    false
}

/// Check `Liveness` and `DefUse` of `f` against a brute-force search and a
/// naive scan.
fn check_analyses(f: &Function, cell: &str) {
    let live = Liveness::compute(f);
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if !std::mem::replace(&mut reachable[b.index()], true) {
            stack.extend(f.block(b).successors());
        }
    }
    for block in &f.blocks {
        let b = block.id;
        for r in (0..f.num_vregs() as u32).map(VReg) {
            let (live_in, live_out) = if reachable[b.index()] {
                let out = block.successors().any(|s| read_before_write(f, s, r));
                (read_before_write(f, b, r), out)
            } else {
                (false, false)
            };
            assert_eq!(
                (live.is_live_in(b, r), live.is_live_out(b, r)),
                (live_in, live_out),
                "{cell}, {}: liveness of {r} at {b} (in, out)",
                f.name
            );
        }
    }

    let du = DefUse::compute(f);
    for r in (0..f.num_vregs() as u32).map(VReg) {
        let (mut defs, mut uses) = (Vec::new(), Vec::new());
        for block in &f.blocks {
            for (index, inst) in block.insts.iter().enumerate() {
                let pos = InstPos {
                    block: block.id,
                    index,
                };
                inst.for_each_use(|u| {
                    if u == r {
                        uses.push(pos);
                    }
                });
                if inst.dst() == Some(r) {
                    defs.push(pos);
                }
            }
        }
        let what = format!("{cell}, {}: {r}", f.name);
        assert_eq!(du.defs(r), &defs[..], "{what}: definitions");
        assert_eq!(du.uses(r), &uses[..], "{what}: uses");
        let single = match defs[..] {
            [pos] => Some(pos),
            _ => None,
        };
        assert_eq!(du.single_def(r), single, "{what}: single definition");
        assert_eq!(du.is_dead(r), uses.is_empty(), "{what}: dead");
    }
}

#[test]
fn liveness_and_def_use_match_a_brute_force_search() {
    for (name, mut module) in offline_modules() {
        for f in module.functions() {
            check_analyses(f, &format!("{name} as emitted"));
        }
        optimize_module(&mut module, &OptOptions::full());
        for f in module.functions() {
            check_analyses(f, &format!("{name} optimized"));
        }
    }
}
