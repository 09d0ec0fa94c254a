//! Property-based tests over the core data structures and transformations.
//!
//! The properties are the same ones the original proptest suite checked
//! (wire-format round-tripping, optimization soundness, JIT/interpreter
//! agreement, vectorization equivalence); the generator is a small seeded
//! splitmix64 so the suite runs fully offline and deterministically.

use splitc::ExecutionEngine;
use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::MachineValue;
use splitc_vbc::{
    decode_module, encode_module, AnnotationSet, BinOp, FunctionBuilder, Interpreter, KernelTraits,
    Memory, Module, ScalarType, SpillOrder, Type, VReg, Value,
};
use splitc_workloads::SAXPY_F32;

const CASES: u64 = 64;

/// Minimal deterministic generator (splitmix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Arbitrary typed annotation records, each present or absent: a keep
    /// ranking of any length, empty included, whose registers may be in
    /// range, just past it or anywhere up to `u32::MAX`; and any traits.
    fn annotations(&mut self, num_vregs: usize) -> AnnotationSet {
        let spill_order = (self.below(3) != 0).then(|| SpillOrder {
            keep_order: (0..self.below(6))
                .map(|_| {
                    VReg(match self.below(4) {
                        0 => self.next() as u32,
                        _ => self.below(num_vregs as u64 + 2) as u32,
                    })
                })
                .collect(),
        });
        let kernel_traits = (self.below(3) != 0).then(|| {
            let bits = self.next();
            KernelTraits {
                uses_fp: bits & 1 != 0,
                uses_vector: bits & 2 != 0,
                control_intensive: bits & 4 != 0,
            }
        });
        AnnotationSet {
            spill_order,
            kernel_traits,
        }
    }

    /// A small straight-line integer function wrapped in a module, mirroring
    /// the original proptest strategy: a pool of constants combined by a
    /// random sequence of division-free binary operations.
    fn straight_line_module(&mut self) -> Module {
        const OPS: [BinOp; 8] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Min,
            BinOp::Max,
        ];
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        let num_consts = 2 + self.below(6) as usize;
        let mut values: Vec<_> = (0..num_consts)
            .map(|_| b.const_int(ScalarType::I32, self.next() as i32 as i64))
            .collect();
        let num_ops = 1 + self.below(19) as usize;
        for _ in 0..num_ops {
            let op = OPS[self.below(OPS.len() as u64) as usize];
            let lhs = values[self.below(values.len() as u64) as usize];
            let rhs = values[self.below(values.len() as u64) as usize];
            values.push(b.bin(op, ScalarType::I32, lhs, rhs));
        }
        let last = *values.last().expect("at least the constants");
        b.ret(Some(last));
        let mut f = b.finish();
        f.annotations = self.annotations(f.num_vregs());
        let mut m = Module::new("prop");
        m.add_function(f);
        m
    }
}

/// The wire format is lossless for arbitrary generated modules and their
/// annotation records.
#[test]
fn encode_decode_round_trips() {
    let (mut absent, mut empty, mut traits) = (0, 0, 0);
    for case in 0..CASES {
        let module = Gen(0xe2c0de + case).straight_line_module();
        let bytes = encode_module(&module);
        let decoded = decode_module(&bytes).expect("decodes");
        assert_eq!(decoded, module, "case {case}");
        let a = &module.functions()[0].annotations;
        match &a.spill_order {
            None => absent += 1,
            Some(order) if order.keep_order.is_empty() => empty += 1,
            Some(_) => {}
        }
        traits += usize::from(a.kernel_traits.is_some());
    }
    assert!(
        absent > 0 && empty > 0 && traits > 0,
        "the generator covers absent, empty and present records: {absent} {empty} {traits}"
    );
}

/// Generated modules verify, fold, and still compute the same value in the
/// interpreter after offline optimization.
#[test]
fn constant_folding_preserves_results() {
    for case in 0..CASES {
        let module = Gen(0xf01d + case).straight_line_module();
        if splitc_vbc::verify_module(&module).is_err() {
            continue;
        }
        let mut mem = Memory::new(256);
        let mut interp = Interpreter::new(&module);
        let before = interp.run("f", &[], &mut mem);
        let mut optimized = module.clone();
        optimize_module(&mut optimized, &OptOptions::full());
        let mut interp = Interpreter::new(&optimized);
        let after = interp.run("f", &[], &mut mem);
        // Division by zero cannot occur (no div ops generated), so both run.
        assert_eq!(before.expect("runs"), after.expect("runs"), "case {case}");
    }
}

/// The interpreter and a simulated target agree on generated modules, and the
/// engine-cached JIT accepts whatever the generator produces.
#[test]
fn jit_matches_interpreter_on_generated_modules() {
    let target = splitc_targets::TargetDesc::powerpc();
    for case in 0..CASES {
        let module = Gen(0x717 + case).straight_line_module();
        if splitc_vbc::verify_module(&module).is_err() {
            continue;
        }
        let mut mem = Memory::new(256);
        let mut interp = Interpreter::new(&module);
        let expected = interp.run("f", &[], &mut mem).expect("interpreter runs");
        let engine = ExecutionEngine::new(module);
        let mut bytes = vec![0u8; 256];
        let run = engine
            .run(&target, &JitOptions::split(), "f", &[], &mut bytes)
            .expect("compiles and simulates");
        let expected = match expected {
            Some(Value::Int(v)) => Some(MachineValue::Int(v)),
            other => panic!("unexpected interpreter result {other:?}"),
        };
        assert_eq!(run.result, expected, "case {case}");
    }
}

/// Vectorized saxpy equals scalar saxpy on the interpreter for arbitrary
/// inputs and lengths (including lengths smaller than the vector factor).
#[test]
fn vectorized_saxpy_matches_scalar() {
    let mut scalar = splitc::splitc_minic::compile_source(SAXPY_F32, "k").expect("compiles");
    let mut vectorized = scalar.clone();
    optimize_module(&mut vectorized, &OptOptions::full());
    optimize_module(&mut scalar, &OptOptions::scalar_only());

    for n in 0usize..70 {
        let mut gen = splitc_workloads::DataGen::new(0x5a00 + n as u64);
        let a = gen.f32s(1, 8.0)[0];
        let xs = gen.f32s(n.max(1), 50.0);
        let ys = gen.f32s(n.max(1), 50.0);

        let run = |module: &Module| {
            let mut mem = Memory::new(1 << 14);
            let x = mem.alloc(4 * n.max(1) as u64);
            let y = mem.alloc(4 * n.max(1) as u64);
            mem.write_f32s(x, &xs);
            mem.write_f32s(y, &ys);
            let mut interp = Interpreter::new(module);
            interp
                .run(
                    "saxpy_f32",
                    &[
                        Value::Int(n as i64),
                        Value::Float(f64::from(a)),
                        Value::Int(x as i64),
                        Value::Int(y as i64),
                    ],
                    &mut mem,
                )
                .expect("runs");
            mem.read_f32s(y, n.max(1))
        };
        assert_eq!(run(&scalar), run(&vectorized), "n = {n}");
    }
}
