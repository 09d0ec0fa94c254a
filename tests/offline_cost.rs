//! The offline half's cost, gated on counts that repeat exactly.
//!
//! Wall-clock cannot be gated on a shared CI host; this suite gates the
//! number of heap allocations instead, which is the same in debug and
//! release builds (CI prints the tables for both).
//!
//! * The analyses and passes under the optimizer — `DefUse`, `Liveness`,
//!   the loop forest, the spill profiles, folding and the vectorizer — keep
//!   their data in flat, register- or block-indexed arrays, so what they
//!   allocate does not depend on how many registers, blocks and loops the
//!   function has. Gated on one generated function and the same function
//!   with four times the registers, blocks and loops.
//! * The front end allocates the token vector, the syntax tree and the
//!   bytecode it emits, nothing per identifier. Gated at a bound linear in
//!   the syntax tree's nodes, on the catalogue, the generated functions and
//!   a source about twice as dense in tokens.

mod common;

use common::{allocations_in, CountingAlloc};
use splitc::splitc_minic::{
    compile_program, compile_source, lex, parse, BlockStmt, Expr, LValue, Program, Stmt,
};
use splitc_opt::{
    eliminate_dead_code, fold_function, optimize_module, profiles, vectorize_function, DefUse,
    Liveness, LoopForest, OptOptions,
};
use splitc_vbc::Function;
use splitc_workloads::all_kernels;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The source of one function holding a reduction loop, then `k` times a
/// local, a conditional and a loop that stores its induction variable (which
/// the vectorizer examines in full and rejects): registers, blocks and loops
/// all grow with `k`. Each of those loops is rejected for using its
/// induction variable as a value, a reason of fixed text, so the gate does
/// not cover the rejections whose reason names a value and is formatted.
fn branches(k: usize) -> String {
    let mut source = String::from(
        "fn chain(n: i32, x: *i32) -> i32 {\n    let s: i32 = 0;\n    \
         for (let i: i32 = 0; i < n; i = i + 1) { s = s + x[i]; }\n",
    );
    for j in 0..k {
        source.push_str(&format!(
            "    let v{j}: i32 = x[{j}] * {};\n    \
             if (v{j} > s) {{ s = s + v{j}; }} else {{ s = s - {j}; }}\n    \
             for (let i{j}: i32 = 0; i{j} < n; i{j} = i{j} + 1) {{ x[i{j}] = i{j} + v{j}; }}\n",
            j % 7 + 1
        ));
    }
    source.push_str("    return s;\n}\n");
    source
}

/// One generated function at the three points of the offline pipeline the
/// gate runs from.
struct Stages {
    /// As the front end emits it: what folding starts from.
    lowered: Function,
    /// Folded and cleaned: what the vectorizer starts from.
    cleaned: Function,
    /// After the whole offline step: what the analyses are run on.
    optimized: Function,
}

fn stages(k: usize) -> Stages {
    let module = compile_source(&branches(k), "chain").expect("generated source compiles");
    let lowered = module.function("chain").expect("one function").clone();
    let mut cleaned = lowered.clone();
    fold_function(&mut cleaned);
    eliminate_dead_code(&mut cleaned);
    let mut optimized = module;
    optimize_module(&mut optimized, &OptOptions::full());
    let optimized = optimized.function("chain").expect("one function").clone();
    Stages {
        lowered,
        cleaned,
        optimized,
    }
}

/// Allocations of one pass run on a copy of `f`, the copy not counted.
fn pass_allocations(f: &Function, pass: impl FnOnce(&mut Function)) -> u64 {
    let mut copy = f.clone();
    allocations_in(|| pass(&mut copy)).1
}

/// An analysis or pass under the gate, by name, returning what it allocates.
type Gated = (&'static str, fn(&Stages) -> u64);

#[test]
fn offline_analyses_allocate_independently_of_function_size() {
    const K: usize = 16;
    let (small, large) = (stages(K), stages(4 * K));
    let loops = |f: &Function| LoopForest::compute(f).len();
    let (s, l) = (&small.optimized, &large.optimized);
    assert!(
        l.blocks.len() >= 3 * s.blocks.len()
            && l.num_vregs() >= 3 * s.num_vregs()
            && loops(l) >= 3 * loops(s),
        "the larger function must be about four times the smaller"
    );
    let gated: [Gated; 6] = [
        ("DefUse::compute", |s| {
            allocations_in(|| drop(DefUse::compute(&s.optimized))).1
        }),
        ("Liveness::compute", |s| {
            allocations_in(|| drop(Liveness::compute(&s.optimized))).1
        }),
        ("LoopForest::compute", |s| {
            allocations_in(|| drop(LoopForest::compute(&s.optimized))).1
        }),
        ("profiles", |s| {
            allocations_in(|| drop(profiles(&s.optimized))).1
        }),
        ("fold_function", |s| {
            pass_allocations(&s.lowered, |f| {
                fold_function(f);
            })
        }),
        ("vectorize_function", |s| {
            pass_allocations(&s.cleaned, |f| drop(vectorize_function(f)))
        }),
    ];
    let size = |s: &Stages| {
        let f = &s.optimized;
        format!(
            "{} blocks, {} regs, {} loops",
            f.blocks.len(),
            f.num_vregs(),
            loops(f)
        )
    };
    // One write, so that the suite's other tests cannot interleave with it.
    let mut table = format!(
        "{:<20} {:>30} {:>30}\n",
        "analysis",
        size(&small),
        size(&large)
    );
    let mut rows = Vec::new();
    for (name, allocations) in gated {
        let (at_small, at_large) = (allocations(&small), allocations(&large));
        table.push_str(&format!("{name:<20} {at_small:>30} {at_large:>30}\n"));
        rows.push((name, at_small, at_large));
    }
    print!("{table}");
    let grown: Vec<_> = rows.iter().filter(|(_, s, l)| s != l).collect();
    assert!(
        grown.is_empty(),
        "analyses whose allocations grow with the function: {grown:?}"
    );
}

/// Statements and expressions of a syntax tree.
fn nodes(program: &Program<'_>) -> u64 {
    fn expr(e: &Expr<'_>) -> u64 {
        1 + match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => 0,
            Expr::Unary { expr: e, .. } | Expr::Cast { expr: e, .. } => expr(e),
            Expr::Index { index, .. } => expr(index),
            Expr::Binary { lhs, rhs, .. } => expr(lhs) + expr(rhs),
            Expr::Call { args, .. } => args.iter().map(expr).sum(),
        }
    }
    fn block(b: &BlockStmt<'_>) -> u64 {
        b.stmts.iter().map(stmt).sum()
    }
    fn stmt(s: &Stmt<'_>) -> u64 {
        1 + match s {
            Stmt::Let { init: e, .. } | Stmt::Expr { expr: e } => expr(e),
            Stmt::Return { value } => value.as_ref().map_or(0, expr),
            Stmt::Assign { target, value } => {
                expr(value)
                    + match target {
                        LValue::Var(_) => 0,
                        LValue::Index { index, .. } => expr(index),
                    }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => expr(cond) + block(then_blk) + else_blk.as_ref().map_or(0, block),
            Stmt::While { cond, body } => expr(cond) + block(body),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => stmt(init) + expr(cond) + stmt(step) + block(body),
        }
    }
    program.functions.iter().map(|f| block(&f.body)).sum()
}

#[test]
fn the_front_end_allocates_per_syntax_node_not_per_identifier() {
    let catalogue: Vec<&str> = all_kernels().iter().map(|k| k.source).collect();
    // Seven tokens in every eight bytes, about twice the catalogue's density.
    let dense = format!(
        "fn dense(a:i32,b:i32)->i32{{let s:i32=0;{}return s;}}",
        "s=s+a*b;".repeat(64)
    );
    let sources = [
        ("catalogue".to_owned(), catalogue.join("\n")),
        (format!("branches({})", 16), branches(16)),
        (format!("branches({})", 64), branches(64)),
        ("dense".to_owned(), dense),
    ];
    let mut table = format!(
        "{:<14} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>7}\n",
        "source", "bytes", "tokens", "idents", "nodes", "lex", "parse", "lower"
    );
    for (name, source) in &sources {
        let tokens = lex(source).expect("the source lexes");
        let idents = tokens
            .iter()
            .filter(|t| matches!(t.kind, splitc::splitc_minic::TokenKind::Ident(_)))
            .count();
        let (lexed, at_lex) = allocations_in(|| lex(source).map(|t| t.len()));
        let (program, at_parse) = allocations_in(|| parse(source).expect("the source parses"));
        let (module, at_lower) =
            allocations_in(|| compile_program(&program, "gate").expect("the source lowers"));
        let nodes = nodes(&program);
        table.push_str(&format!(
            "{name:<14} {:>7} {:>7} {idents:>7} {nodes:>6} {at_lex:>6} {at_parse:>6} {at_lower:>7}\n",
            source.len(),
            lexed.expect("the source lexes"),
        ));
        // The token vector, sized at one token per two bytes of source,
        // grows at most once: a token takes at least one byte.
        assert!(at_lex <= 2, "{name}: lexing allocated {at_lex} times");
        // Besides lexing: one box or list per node at most.
        assert!(
            at_parse <= at_lex + nodes,
            "{name}: parsing allocated {at_parse} times for {nodes} nodes"
        );
        drop(module);
    }
    print!("{table}");
}
