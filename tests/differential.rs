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
    BinOp, FunctionBuilder, Interpreter, Memory, Module, ScalarType, Type, VReg, Value,
    DEFAULT_VECTOR_WIDTH_BYTES,
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
