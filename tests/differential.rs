//! Differential testing: the reference interpreter and every simulated target
//! must agree on the results of every catalogue kernel, whatever compilation
//! strategy produced the machine code.
//!
//! This is the keystone correctness test of the reproduction: the bytecode
//! semantics (interpreter), the offline optimizer (vectorization, annotations)
//! and the online compiler (SIMD mapping, scalarization, all three register
//! allocators) all have to meet in the same numbers.

mod pins;

use pins::{interp_digest, Pins};
use splitc::{checksum, prepare, run_on_target, PreparedKernel, Workspace};
use splitc_jit::{JitOptions, RegAllocMode};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{MachineValue, TargetDesc};
use splitc_vbc::{
    BinOp, ExecError, FunctionBuilder, Interpreter, Memory, Module, ReduceOp, ScalarType, Type,
    VReg, Value, DEFAULT_VECTOR_WIDTH_BYTES,
};
use splitc_workloads::{all_kernels, module_for, Kernel};

const N: usize = 173; // deliberately not a multiple of any lane count

/// Vector width (bytes) the online compiler resolves `vec.width` to for this
/// target/JIT combination: the target's own SIMD width when the JIT maps the
/// builtins onto it, the portable default when it scalarizes. The reference
/// interpreter must run at the *same* width — a float reduction folds its
/// partial sums per lane, so a 64-byte GPU vector (16 f32 lanes) legitimately
/// reassociates differently from the 16-byte default.
fn effective_width(target: &TargetDesc, jit: &JitOptions) -> u64 {
    if jit.allow_simd && target.has_simd() {
        target.vector_bytes()
    } else {
        DEFAULT_VECTOR_WIDTH_BYTES
    }
}

/// `true` if offline vectorization turned any loop of `module` into a
/// floating-point reduction — exactly the shapes whose results legitimately
/// depend on the lane count (the partial sums fold per lane). Derived from
/// the bytecode so new kernels can never silently miss the skip lists below.
fn has_float_reduction(module: &splitc_vbc::Module) -> bool {
    module.functions().iter().any(|f| {
        f.blocks.iter().any(|b| {
            b.insts
                .iter()
                .any(|i| matches!(i, splitc_vbc::Inst::VecReduce { elem, .. } if elem.is_float()))
        })
    })
}

/// The interpreter's memory and arguments for a kernel prepared in `ws`:
/// the workspace mirrored into the interpreter's memory.
fn interpreter_inputs(prepared: &PreparedKernel, ws: &Workspace) -> (Memory, Vec<Value>) {
    let mut mem = Memory::new(ws.bytes().len());
    mem.bytes_mut().copy_from_slice(ws.bytes());
    let args = prepared
        .args
        .iter()
        .map(|a| match a {
            MachineValue::Int(v) => Value::Int(*v),
            MachineValue::Float(v) => Value::Float(*v),
        })
        .collect();
    (mem, args)
}

fn interpreter_checksum(module: &splitc_vbc::Module, kernel: &Kernel, vector_width: u64) -> u64 {
    let mut ws = Workspace::new(1 << 16);
    let prepared = prepare(kernel.name, N, 99, &mut ws);
    let (mut mem, args) = interpreter_inputs(&prepared, &ws);
    let mut interp = Interpreter::new(module).with_vector_width(vector_width);
    let result = interp
        .run(kernel.name, &args, &mut mem)
        .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", kernel.name));
    // Copy the interpreter's memory back into a workspace for the checksum.
    let mut out_ws = Workspace::new(ws.bytes().len());
    out_ws.bytes_mut().copy_from_slice(mem.bytes());
    let result = result.map(|v| match v {
        Value::Int(i) => MachineValue::Int(i),
        Value::Float(f) => MachineValue::Float(f),
        Value::Vector(_) => panic!("kernels do not return vectors"),
    });
    checksum(result, &prepared, &out_ws)
}

fn target_checksum(
    module: &splitc_vbc::Module,
    kernel: &Kernel,
    target: &TargetDesc,
    jit: &JitOptions,
) -> u64 {
    let mut ws = Workspace::new(1 << 16);
    let prepared = prepare(kernel.name, N, 99, &mut ws);
    let run = run_on_target(
        module,
        target,
        jit,
        kernel.name,
        &prepared.args,
        ws.bytes_mut(),
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, target.name));
    checksum(run.result, &prepared, &ws)
}

#[test]
fn every_kernel_agrees_across_interpreter_and_all_targets() {
    let jit = JitOptions::split();
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        // One interpreter reference per distinct lane width in the catalogue
        // (16-byte SIMD units and the scalarized default share one; the
        // 64-byte GPU gets its own).
        let mut references: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for target in TargetDesc::presets() {
            let width = effective_width(&target, &jit);
            let reference = *references
                .entry(width)
                .or_insert_with(|| interpreter_checksum(&module, &kernel, width));
            let sum = target_checksum(&module, &kernel, &target, &jit);
            assert_eq!(
                sum, reference,
                "{} on {} disagrees with the reference interpreter at {width}-byte vectors",
                kernel.name, target.name
            );
        }
    }
}

#[test]
fn register_allocation_strategy_never_changes_results() {
    let modes = [
        RegAllocMode::SplitAnnotations,
        RegAllocMode::OnlineGreedy,
        RegAllocMode::OnlineAnalyze,
    ];
    // Register-starved targets stress the allocator the most; the RISC-V
    // core covers the opposite corner (a large uniform file where almost
    // nothing spills) and the GPU covers 64-byte vector registers.
    let targets = [
        TargetDesc::x86_sse(),
        TargetDesc::dsp(),
        TargetDesc::riscv_rv64(),
        TargetDesc::gpu_wide(),
    ];
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        let mut references: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for target in &targets {
            for mode in modes {
                let jit = JitOptions {
                    regalloc: mode,
                    allow_simd: true,
                    fuse: true,
                };
                let width = effective_width(target, &jit);
                let reference = *references
                    .entry(width)
                    .or_insert_with(|| interpreter_checksum(&module, &kernel, width));
                let sum = target_checksum(&module, &kernel, target, &jit);
                assert_eq!(
                    sum, reference,
                    "{} on {} with {mode:?} disagrees with the reference",
                    kernel.name, target.name
                );
            }
        }
    }
}

#[test]
fn offline_optimization_level_never_changes_results() {
    let levels = [
        OptOptions::none(),
        OptOptions::scalar_only(),
        OptOptions::full(),
    ];
    let target = TargetDesc::arm_neon();
    // Floating-point *reduction* kernels are excluded from this particular
    // comparison: vectorizing a float sum reassociates the additions, so the
    // scalar and vectorized variants agree only up to rounding (they are still
    // checked against each other, per variant, by the other tests here).
    for kernel in all_kernels() {
        let mut probe =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut probe, &OptOptions::full());
        if has_float_reduction(&probe) {
            continue;
        }
        let mut reference = None;
        for opts in levels {
            let mut module =
                module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
            optimize_module(&mut module, &opts);
            let sum = target_checksum(&module, &kernel, &target, &JitOptions::split());
            match reference {
                None => reference = Some(sum),
                Some(r) => assert_eq!(
                    sum, r,
                    "{}: optimization level {opts:?} changed the result",
                    kernel.name
                ),
            }
        }
    }
}

#[test]
fn disabling_simd_never_changes_results() {
    // A JIT that ignores the vector builtins (scalarization on a SIMD-capable
    // machine) must still compute the same thing, on every SIMD preset in the
    // catalogue. Float *reductions* are only required to match when the SIMD
    // width equals the scalarizer's default width: at a different lane count
    // (the 64-byte GPU) the partial sums legitimately reassociate, so there
    // each path is instead pinned against its own width-matched interpreter.
    for kernel in all_kernels().into_iter().filter(|k| k.vectorizable) {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        let reassociates = has_float_reduction(&module);
        for target in TargetDesc::presets()
            .into_iter()
            .filter(TargetDesc::has_simd)
        {
            if target.vector_bytes() != DEFAULT_VECTOR_WIDTH_BYTES && reassociates {
                continue;
            }
            let with_simd = target_checksum(&module, &kernel, &target, &JitOptions::split());
            let without = target_checksum(
                &module,
                &kernel,
                &target,
                &JitOptions {
                    regalloc: RegAllocMode::SplitAnnotations,
                    allow_simd: false,
                    fuse: true,
                },
            );
            assert_eq!(
                with_simd, without,
                "{} on {}: scalarization changed the result",
                kernel.name, target.name
            );
        }
    }
}

/// Size of the recorded interpreter runs: past the 256 lanes of a `u8`
/// vector at 256 bytes and a multiple of no lane count, so every vector loop
/// runs at every pinned width and leaves a scalar remainder.
const PIN_N: usize = 301;

/// Vector widths (bytes) of the recorded interpreter runs: the 128-bit SIMD
/// units, the 64-byte GPU and one wider than any preset.
const PIN_WIDTHS: [u64; 3] = [16, 64, 256];

/// Recorded [`Pins`] fold of `interpreter_runs_keep_their_recorded_digest`.
const INTERPRETER_PIN: u64 = 9_228_796_539_666_616_457;

/// The interpreter's memory and arguments for `kernel` at [`PIN_N`].
fn pinned_inputs(kernel: &str) -> (Memory, Vec<Value>) {
    let mut ws = Workspace::sized_for(PIN_N);
    let prepared = prepare(kernel, PIN_N, 7, &mut ws);
    interpreter_inputs(&prepared, &ws)
}

/// Run `func` of `module` at `width` with `fuel` and note its digest.
fn record_run(
    pins: &mut Pins,
    cell: String,
    module: &Module,
    func: &str,
    (width, fuel): (u64, u64),
    args: &[Value],
    mut mem: Memory,
) {
    let mut interp = Interpreter::new(module)
        .with_vector_width(width)
        .with_fuel(fuel);
    let out = interp.run(func, args, &mut mem);
    pins.push(cell, interp_digest(&out, &interp.stats(), mem.bytes()));
}

/// A one-function module built by `body`, which gets the builder and the
/// function's parameters.
fn hand_built(
    name: &str,
    params: usize,
    body: impl FnOnce(&mut FunctionBuilder, &[VReg]),
) -> Module {
    let types = vec![Type::Scalar(ScalarType::Ptr); params];
    let mut b = FunctionBuilder::new(name, &types, None);
    let regs: Vec<_> = (0..params).map(|i| b.param(i)).collect();
    body(&mut b, &regs);
    b.ret(None);
    let mut m = Module::new(name);
    m.add_function(b.finish());
    m
}

/// A 256-byte memory holding `words` as `i32`s at address 16.
fn words_at_16(words: &[i32]) -> Memory {
    let mut mem = Memory::new(256);
    mem.write_i32s(16, words);
    mem
}

/// The interpreter is the reference every target is checked against, so its
/// own runs are pinned: every catalogue kernel at each pinned width, fuel
/// running out inside vector loops, and each vector trap at each lane.
#[test]
fn interpreter_runs_keep_their_recorded_digest() {
    let mut pins = Pins::default();
    let run = |fuel| (DEFAULT_VECTOR_WIDTH_BYTES, fuel);
    let full = splitc_vbc::DEFAULT_FUEL;

    // Every catalogue kernel, vectorized, at each pinned width.
    for kernel in all_kernels() {
        let mut module =
            module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles");
        optimize_module(&mut module, &OptOptions::full());
        for width in PIN_WIDTHS {
            let (mem, args) = pinned_inputs(kernel.name);
            let cell = format!("{} @ {width} B", kernel.name);
            record_run(
                &mut pins,
                cell,
                &module,
                kernel.name,
                (width, full),
                &args,
                mem,
            );
        }
        // Fuel running out at several points inside the first vector loops.
        if matches!(kernel.name, "saxpy_f32" | "max_u8" | "hotcold_i32") {
            for fuel in (20..=44).chain([300, 301, 1_000]) {
                let (mem, args) = pinned_inputs(kernel.name);
                let cell = format!("{} out of fuel at {fuel}", kernel.name);
                record_run(&mut pins, cell, &module, kernel.name, run(fuel), &args, mem);
            }
        }
    }

    // A lane-count mismatch: 4 f32 lanes against 16 u8 lanes.
    let mismatch = hand_built("mismatch", 0, |b, _| {
        let f = b.const_float(ScalarType::F32, 1.0);
        let i = b.const_int(ScalarType::U8, 1);
        let a = b.vec_splat(ScalarType::F32, f);
        let c = b.vec_splat(ScalarType::U8, i);
        b.vec_bin(BinOp::Add, ScalarType::F32, a, c);
    });
    let cell = "lane-count mismatch".to_owned();
    record_run(
        &mut pins,
        cell,
        &mismatch,
        "mismatch",
        run(full),
        &[],
        Memory::new(64),
    );

    // A vector load and a vector store whose lane k straddles the end of
    // memory; the store has written lanes 0..k when it traps.
    let load = hand_built("vload", 1, |b, p| {
        b.vec_load(ScalarType::F32, p[0], 0);
    });
    let store = hand_built("vstore", 2, |b, p| {
        let v = b.vec_load(ScalarType::I32, p[1], 0);
        b.vec_store(ScalarType::I32, p[0], 0, v);
    });
    for k in 0..4i64 {
        let base = 256 - 4 * k - 2;
        let mem = words_at_16(&[0x0102_0304, -5, 1 << 30, 77]);
        let cell = format!("vector load out of bounds at lane {k}");
        record_run(
            &mut pins,
            cell,
            &load,
            "vload",
            run(full),
            &[Value::Int(base)],
            mem,
        );
        let mem = words_at_16(&[0x0102_0304, -5, 1 << 30, 77]);
        let cell = format!("vector store out of bounds at lane {k}");
        let args = [Value::Int(base), Value::Int(16)];
        record_run(&mut pins, cell, &store, "vstore", run(full), &args, mem);
    }

    // An integer division and remainder by zero at lane k of a `VecBin`.
    for (op, elem) in [
        (BinOp::Div, ScalarType::I32),
        (BinOp::Rem, ScalarType::I32),
        (BinOp::Div, ScalarType::U32),
    ] {
        let module = hand_built("vdiv", 1, |b, p| {
            let x = b.vec_load(elem, p[0], 0);
            let y = b.vec_load(elem, p[0], 16);
            let q = b.vec_bin(op, elem, x, y);
            b.vec_store(elem, p[0], 32, q);
        });
        for k in 0..4 {
            let mut divisors = [3, -2, 7, 5];
            divisors[k] = 0;
            let mut mem = words_at_16(&[-17, 9, i32::MIN, 40]);
            mem.write_i32s(32, &divisors);
            let cell = format!("{op} {elem} by zero at lane {k}");
            record_run(
                &mut pins,
                cell,
                &module,
                "vdiv",
                run(full),
                &[Value::Int(16)],
                mem,
            );
        }
    }

    pins.check(INTERPRETER_PIN);
}

/// Recorded [`Pins`] fold of `vector_paths_keep_their_recorded_digest`.
const VECTOR_PATHS_PIN: u64 = 2_517_963_277_606_751_911;

/// Run `func` of `module` at `width` against `mem`, note its digest for
/// `cell` and return its outcome.
fn pin_run(
    pins: &mut Pins,
    cell: String,
    (module, func): (&Module, &str),
    width: u64,
    args: &[Value],
    mem: &mut Memory,
) -> Result<Option<Value>, ExecError> {
    let mut interp = Interpreter::new(module).with_vector_width(width);
    let out = interp.run(func, args, mem);
    pins.push(cell, interp_digest(&out, &interp.stats(), mem.bytes()));
    out
}

/// A `size`-byte memory whose bytes past address 16 come from a seeded
/// generator: as lanes of any element type they hold negative and large
/// values, and as floats the odd NaN, infinity and subnormal.
fn seeded_memory(size: usize, seed: u64) -> Memory {
    let mut mem = Memory::new(size);
    let mut x = seed;
    for byte in &mut mem.bytes_mut()[16..] {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *byte = (x >> 56) as u8;
    }
    mem
}

/// Float values every float lane sweep meets, as `f32` bits: quiet NaNs of
/// both signs with payloads, ±0, ±∞, a subnormal and plain numbers.
const F32_SPECIALS: [u32; 10] = [
    0x7fc0_1234,
    0xffc0_0042,
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0003,
    0x3f80_0000,
    0xc000_0000,
    0x4b80_0001,
];

/// `mem` with every third `elem` lane from address 16 to `end` replaced by
/// one of [`F32_SPECIALS`] (widened for `f64`); integer lanes are left as
/// seeded.
fn with_specials(mut mem: Memory, elem: ScalarType, end: u64) -> Memory {
    let size = elem.size_bytes();
    for (i, addr) in (16..end).step_by(3 * size as usize).enumerate() {
        let bits = F32_SPECIALS[i % F32_SPECIALS.len()];
        match elem {
            ScalarType::F32 => mem.write_u8s(addr, &bits.to_le_bytes()),
            ScalarType::F64 => {
                let wide = f64::from(f32::from_bits(bits)).to_bits();
                mem.write_u8s(addr, &wide.to_le_bytes());
            }
            _ => {}
        }
    }
    mem
}

/// Element types a vector may hold.
fn lane_types() -> impl Iterator<Item = ScalarType> {
    ScalarType::ALL
        .into_iter()
        .filter(|t| *t != ScalarType::Ptr)
}

/// A one-function module returning one `ret` scalar, built by `body` from
/// the builder and its one pointer parameter.
fn returning(
    name: &str,
    ret: ScalarType,
    body: impl FnOnce(&mut FunctionBuilder, VReg) -> VReg,
) -> Module {
    let mut b = FunctionBuilder::new(
        name,
        &[Type::Scalar(ScalarType::Ptr)],
        Some(Type::Scalar(ret)),
    );
    let p = b.param(0);
    let r = body(&mut b, p);
    b.ret(Some(r));
    let mut m = Module::new(name);
    m.add_function(b.finish());
    m
}

/// Vector paths the catalogue and `interpreter_runs_keep_their_recorded_digest`
/// do not reach, pinned the same way: every operator on every element type,
/// every reduction, narrow and wide lanes straddling the end of memory, a
/// store of lanes of the wrong kind, and float reductions over NaNs and ±0.
#[test]
fn vector_paths_keep_their_recorded_digest() {
    let mut pins = Pins::default();

    for elem in lane_types() {
        for width in [16, 64] {
            // Every operator: two loaded vectors, the result stored, and a
            // splat of a loaded scalar stored beside it. Float operators
            // other than the arithmetic ones and min/max trap.
            for op in BinOp::ALL {
                let module = hand_built("vbin", 1, |b, p| {
                    let x = b.vec_load(elem, p[0], 0);
                    let y = b.vec_load(elem, p[0], 64);
                    let s = b.load(elem, p[0], 256);
                    let z = b.vec_splat(elem, s);
                    b.vec_store(elem, p[0], 192, z);
                    let r = b.vec_bin(op, elem, x, y);
                    b.vec_store(elem, p[0], 128, r);
                });
                let mut mem = with_specials(seeded_memory(512, 3), elem, 288);
                let cell = format!("vec.{op}.{elem} @ {width} B");
                let out = pin_run(
                    &mut pins,
                    cell,
                    (&module, "vbin"),
                    width,
                    &[Value::Int(16)],
                    &mut mem,
                );
                let float_op = matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max
                );
                if elem.is_float() && !float_op {
                    let text = format!("float {op} unsupported");
                    assert_eq!(out, Err(ExecError::Trap(text)), "vec.{op}.{elem}");
                }
            }
            // Every reduction of a loaded vector.
            for op in [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max] {
                let module = returning("vred", elem, |b, p| {
                    let v = b.vec_load(elem, p, 0);
                    b.vec_reduce(op, elem, v)
                });
                let mut mem = with_specials(seeded_memory(256, 5), elem, 80);
                let cell = format!("vec.reduce.{op}.{elem} @ {width} B");
                let args = [Value::Int(16)];
                pin_run(&mut pins, cell, (&module, "vred"), width, &args, &mut mem).ok();
            }
        }
    }

    // Narrow and wide lanes: a vector load (stored back in bounds) and a
    // vector store whose lane k straddles the end of memory, and one that
    // ends exactly at it. The store has written lanes 0..k when it traps.
    for elem in [ScalarType::U8, ScalarType::I16, ScalarType::F64] {
        let load = hand_built("vload", 2, |b, p| {
            let v = b.vec_load(elem, p[0], 0);
            b.vec_store(elem, p[1], 0, v);
        });
        let store = hand_built("vstore", 2, |b, p| {
            let v = b.vec_load(elem, p[1], 0);
            b.vec_store(elem, p[0], 0, v);
        });
        let size = elem.size_bytes() as i64;
        for width in [16, 64] {
            let lanes = width as i64 / size;
            for k in 0..=lanes {
                let base = if k == lanes {
                    256 - width as i64
                } else {
                    256 - size / 2 - k * size
                };
                let args = [Value::Int(base), Value::Int(16)];
                for (module, func) in [(&load, "vload"), (&store, "vstore")] {
                    let mut mem = with_specials(seeded_memory(256, 7), elem, 256);
                    let cell = format!("{func}.{elem} @ {width} B from {base}");
                    pin_run(&mut pins, cell, (module, func), width, &args, &mut mem).ok();
                }
            }
        }
    }

    // A store of lanes of the wrong kind traps at lane 0 and writes
    // nothing; bounds are checked before kinds, so a lane 0 past the end
    // traps as out of bounds.
    let kinds = [
        (ScalarType::I32, ScalarType::F32, "Int(7)"),
        (ScalarType::F32, ScalarType::I32, "Float(1.5)"),
    ];
    for (held, stored, lane) in kinds {
        let module = hand_built("vkind", 1, |b, p| {
            let c = if held.is_float() {
                b.const_float(held, 1.5)
            } else {
                b.const_int(held, 7)
            };
            let v = b.vec_splat(held, c);
            b.vec_store(stored, p[0], 0, v);
        });
        for width in [16, 64] {
            for base in [16, 250, 254] {
                let mut mem = seeded_memory(256, 11);
                let before = mem.clone();
                let cell = format!("{held} lanes stored as {stored} @ {width} B at {base}");
                let args = [Value::Int(base)];
                let out = pin_run(&mut pins, cell, (&module, "vkind"), width, &args, &mut mem);
                let text = if base == 254 {
                    "out-of-bounds access at 254+4 (memory size 256)".to_owned()
                } else {
                    format!("cannot store {lane} as {stored}")
                };
                assert_eq!(
                    out,
                    Err(ExecError::Trap(text)),
                    "{held} as {stored} at {base}"
                );
                assert!(mem == before, "{held} as {stored} at {base} wrote a lane");
            }
        }
    }

    // f32 min, max and sum reductions over NaNs of both signs and ±0, in
    // several orders; at 64 B each pattern is tiled with its rotations.
    const QN1: u32 = 0x7fc0_1234;
    const QN2: u32 = 0xffc0_0042;
    const Z: u32 = 0;
    const NZ: u32 = 0x8000_0000;
    const ONE: u32 = 0x3f80_0000;
    const M2: u32 = 0xc000_0000;
    const INF: u32 = 0x7f80_0000;
    let patterns: [[u32; 4]; 8] = [
        [QN1, ONE, M2, QN2],
        [NZ, Z, NZ, Z],
        [Z, NZ, Z, NZ],
        [ONE, QN1, NZ, Z],
        [QN1, QN2, QN1, QN2],
        [M2, QN2, INF, INF | NZ],
        [Z, Z, NZ, NZ],
        [QN2, Z, NZ, QN1],
    ];
    for op in [ReduceOp::Min, ReduceOp::Max, ReduceOp::Add] {
        let module = returning("fred", ScalarType::F32, |b, p| {
            let v = b.vec_load(ScalarType::F32, p, 0);
            b.vec_reduce(op, ScalarType::F32, v)
        });
        for (i, pattern) in patterns.iter().enumerate() {
            for width in [16u64, 64] {
                let mut mem = Memory::new(256);
                for lane in 0..width as usize / 4 {
                    let bits = pattern[(lane + lane / 4) % 4];
                    mem.write_u8s(16 + 4 * lane as u64, &bits.to_le_bytes());
                }
                let cell = format!("f32 reduce {op} of pattern {i} @ {width} B");
                let args = [Value::Int(16)];
                pin_run(&mut pins, cell, (&module, "fred"), width, &args, &mut mem).ok();
            }
        }
    }

    pins.check(VECTOR_PATHS_PIN);
}
