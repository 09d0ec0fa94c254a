//! Golden verdicts of the load-time verifier and golden code for scalarized
//! vector lanes.
//!
//! The online half is free to change *how* it walks a module — a visitor
//! instead of operand lists, lane ranges instead of lane lists — never what
//! it answers. `tests/jit_golden.rs` pins the generated code for the
//! catalogue; this file pins the two things that one does not reach:
//!
//! * **which `VerifyError` a malformed module gets.** Every instruction of
//!   the optimized catalogue module (and of a small module with calls) is
//!   broken one field at a time — a register past `num_vregs` in each
//!   operand position and in the destination, a block target past the last
//!   block, another operand type, a terminator in the middle of the block, a
//!   missing terminator, a `ret` that contradicts the signature, an unknown
//!   callee, a wrong arity, a result taken from a void callee — and the
//!   `{:?}` of every verdict is folded into one FNV-1a digest, next to a
//!   tally per variant. Pairs of defects pin *which* error comes first.
//! * **what a 16-lane and a 2-lane scalarization compile to.** The catalogue
//!   has `u8` kernels (16 lanes on the scalar-only targets) but no `f64`
//!   vector code, so a hand-built `VecSplat`/`VecBin`/`VecReduce` chain at
//!   both element types is compiled for `ultrasparc` and `dsp`.
//!
//! The constants were recorded from the implementation this file was first
//! committed against (the parent of the allocation work) and must only ever
//! change together with a deliberate, documented change of behaviour.

use splitc_jit::{compile_module, JitOptions};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{Fnv1a, TargetDesc};
use splitc_vbc::{
    verify_module, BinOp, BlockId, FunctionBuilder, Inst, Module, ReduceOp, ScalarType, Type, VReg,
    VerifyError, DEFAULT_VECTOR_WIDTH_BYTES,
};
use splitc_workloads::full_module;

/// Verdicts seen so far: their digest and how many of each kind.
#[derive(Default)]
struct Verdicts {
    digest: Fnv1a,
    /// `Ok`, then the `VerifyError` variants in declaration order.
    tally: [u32; 9],
}

impl Verdicts {
    fn record(&mut self, module: &Module) {
        let verdict = verify_module(module);
        self.digest.write(format!("{verdict:?}\n").as_bytes());
        self.tally[match &verdict {
            Ok(()) => 0,
            Err(VerifyError::MissingTerminator { .. }) => 1,
            Err(VerifyError::EarlyTerminator { .. }) => 2,
            Err(VerifyError::BadBlockTarget { .. }) => 3,
            Err(VerifyError::BadRegister { .. }) => 4,
            Err(VerifyError::TypeMismatch { .. }) => 5,
            Err(VerifyError::UnknownCallee { .. }) => 6,
            Err(VerifyError::BadArity { .. }) => 7,
            Err(VerifyError::ReturnMismatch { .. }) => 8,
        }] += 1;
    }
}

/// The instruction at `(function, block, index)`.
fn inst_mut(module: &mut Module, at: (usize, usize, usize)) -> &mut Inst {
    &mut module.functions_mut()[at.0].blocks[at.1].insts[at.2]
}

/// The scalar-type fields of an instruction, in declaration order.
fn type_fields(inst: &mut Inst) -> Vec<&mut ScalarType> {
    match inst {
        Inst::Const { ty, .. }
        | Inst::Move { ty, .. }
        | Inst::Bin { ty, .. }
        | Inst::Un { ty, .. }
        | Inst::Cmp { ty, .. }
        | Inst::Load { ty, .. }
        | Inst::Store { ty, .. } => vec![ty],
        Inst::Cast { to, from, .. } => vec![to, from],
        Inst::VecWidth { elem, .. }
        | Inst::VecSplat { elem, .. }
        | Inst::VecLoad { elem, .. }
        | Inst::VecStore { elem, .. }
        | Inst::VecBin { elem, .. }
        | Inst::VecReduce { elem, .. } => vec![elem],
        Inst::Call { .. } | Inst::Jump { .. } | Inst::Branch { .. } | Inst::Ret { .. } => vec![],
    }
}

/// The block-target fields of an instruction, in declaration order.
fn target_fields(inst: &mut Inst) -> Vec<&mut BlockId> {
    match inst {
        Inst::Jump { target } => vec![target],
        Inst::Branch {
            then_bb, else_bb, ..
        } => vec![then_bb, else_bb],
        _ => vec![],
    }
}

/// Break the instruction at `at` in every single-field way, recording the
/// verdict of each broken module and restoring the instruction afterwards.
fn mutate_inst(module: &mut Module, at: (usize, usize, usize), seen: &mut Verdicts) {
    let original = inst_mut(module, at).clone();
    let func = &module.functions()[at.0];
    let limit = func.num_vregs() as u32;
    let nblocks = func.blocks.len() as u32;

    // A register past `num_vregs` in each register field (`rewrite_regs`
    // visits the destination first, the verifier checks it last), then in
    // all of them at once: the first read operand must be the one reported.
    let mut fields = 0;
    inst_mut(module, at).rewrite_regs(|r| {
        fields += 1;
        r
    });
    for broken in (0..fields).map(Some).chain((fields > 1).then_some(None)) {
        let mut field = 0;
        inst_mut(module, at).rewrite_regs(|r| {
            let hit = broken.is_none_or(|b| b == field);
            field += 1;
            if hit {
                VReg(limit + field)
            } else {
                r
            }
        });
        seen.record(module);
        *inst_mut(module, at) = original.clone();
    }

    // A block target past the last block, one field at a time.
    for field in 0..target_fields(inst_mut(module, at)).len() {
        *target_fields(inst_mut(module, at))[field] = BlockId(nblocks + field as u32);
        seen.record(module);
        *inst_mut(module, at) = original.clone();
    }

    // Another scalar type in each type field: integer for float, float for
    // integer (which also reaches the integer-only operators).
    for field in 0..type_fields(inst_mut(module, at)).len() {
        let ty = &mut *type_fields(inst_mut(module, at))[field];
        *ty = if ty.is_float() {
            ScalarType::I32
        } else {
            ScalarType::F32
        };
        seen.record(module);
        *inst_mut(module, at) = original.clone();
    }

    // A `ret` that contradicts the signature.
    if let Inst::Ret { value } = inst_mut(module, at) {
        *value = match value {
            Some(_) => None,
            None => Some(VReg(0)),
        };
        seen.record(module);
        *inst_mut(module, at) = original.clone();
    }

    // Calls: an unknown callee, one argument too few and too many, and a
    // result where the original call took none.
    if let Inst::Call { .. } = original {
        let with = |module: &mut Module, seen: &mut Verdicts, edit: &dyn Fn(&mut Inst)| {
            edit(inst_mut(module, at));
            seen.record(module);
            *inst_mut(module, at) = original.clone();
        };
        with(module, seen, &|inst| {
            if let Inst::Call { site, .. } = inst {
                site.callee.push_str("_missing");
            }
        });
        with(module, seen, &|inst| {
            if let Inst::Call { site, .. } = inst {
                site.args.pop();
            }
        });
        with(module, seen, &|inst| {
            if let Inst::Call { site, .. } = inst {
                site.args.push(VReg(0));
            }
        });
        with(module, seen, &|inst| {
            if let Inst::Call { dst, .. } = inst {
                *dst = dst.xor(Some(VReg(0)));
            }
        });
    }

    // A terminator in front of the instruction: a plain `ret`, and a jump to
    // a missing block (the early terminator is what must be reported).
    for early in [
        Inst::Ret { value: None },
        Inst::Jump {
            target: BlockId(nblocks),
        },
    ] {
        let insts = &mut module.functions_mut()[at.0].blocks[at.1].insts;
        insts.insert(at.2, early);
        seen.record(module);
        module.functions_mut()[at.0].blocks[at.1].insts.remove(at.2);
    }
}

/// Every single-defect mutation of `module`, plus the per-block and
/// per-function ones (missing terminator, entry past the last block).
fn mutate_module(module: &mut Module, seen: &mut Verdicts) {
    seen.record(module);
    for fi in 0..module.functions().len() {
        for bi in 0..module.functions()[fi].blocks.len() {
            for ii in 0..module.functions()[fi].blocks[bi].insts.len() {
                mutate_inst(module, (fi, bi, ii), seen);
            }
            let insts = &mut module.functions_mut()[fi].blocks[bi].insts;
            let terminator = insts.pop().expect("verified blocks are not empty");
            seen.record(module);
            module.functions_mut()[fi].blocks[bi].insts.push(terminator);
        }
        let func = &mut module.functions_mut()[fi];
        let entry = func.entry;
        func.entry = BlockId(func.blocks.len() as u32);
        seen.record(module);
        module.functions_mut()[fi].entry = entry;
    }
    assert_eq!(verify_module(module), Ok(()), "mutations were not undone");
}

/// Two functions with calls between them: a void helper, a helper with a
/// result, and a two-block caller using both.
fn module_with_calls() -> Module {
    let i32s = Type::Scalar(ScalarType::I32);
    let mut module = Module::new("calls");

    let mut b = FunctionBuilder::new("note", &[i32s], None);
    b.ret(None);
    module.add_function(b.finish());

    let mut b = FunctionBuilder::new("scale", &[i32s, i32s], Some(i32s));
    let product = b.bin(BinOp::Mul, ScalarType::I32, b.param(0), b.param(1));
    b.ret(Some(product));
    module.add_function(b.finish());

    let mut b = FunctionBuilder::new("driver", &[i32s], Some(i32s));
    let x = b.param(0);
    let three = b.const_int(ScalarType::I32, 3);
    let scaled = b
        .call("scale", &[x, three], Some(i32s))
        .expect("scale returns a value");
    let tail = b.new_block();
    b.jump(tail);
    b.switch_to(tail);
    b.call("note", &[scaled], None);
    b.ret(Some(scaled));
    module.add_function(b.finish());
    module
}

/// Two defects at once, in every order that decides which one is reported:
/// an earlier and a later block of one function, and two functions.
fn record_defect_pairs(module: &mut Module, seen: &mut Verdicts) {
    let fi = module
        .functions()
        .iter()
        .position(|f| f.blocks.len() >= 3)
        .expect("the catalogue has loops");
    let last = module.functions()[fi].blocks.len() - 1;
    let pristine = module.clone();

    let bad_register = |module: &mut Module, fi: usize, bi: usize| {
        module.functions_mut()[fi].blocks[bi].insts.insert(
            0,
            Inst::Move {
                dst: VReg(1 << 20),
                ty: ScalarType::I32,
                src: VReg(0),
            },
        );
    };
    let bad_target = |module: &mut Module, fi: usize, bi: usize| {
        let insts = &mut module.functions_mut()[fi].blocks[bi].insts;
        *insts.last_mut().expect("a terminator") = Inst::Jump {
            target: BlockId(1 << 20),
        };
    };

    // Block 0 before the last block, whichever defect sits where.
    bad_register(module, fi, 0);
    bad_target(module, fi, last);
    seen.record(module);
    *module = pristine.clone();
    bad_target(module, fi, 0);
    bad_register(module, fi, last);
    seen.record(module);
    *module = pristine.clone();

    // An earlier function's last block before a later function's first.
    let later = fi + 1;
    assert!(later < module.functions().len());
    bad_target(module, fi, last);
    bad_register(module, later, 0);
    seen.record(module);
    *module = pristine.clone();

    // A function's own defects before its call signatures: the intra-
    // procedural pass of a function runs to the end first.
    let calls = &mut module_with_calls();
    let driver = 2;
    if let Inst::Call { site, .. } = &mut calls.functions_mut()[driver].blocks[0].insts[1] {
        site.callee.push_str("_missing");
    } else {
        panic!("the driver's second instruction is its first call");
    }
    seen.record(calls);
    bad_target(calls, driver, 1);
    seen.record(calls);
}

/// Recorded from the parent of the allocation work: digest of every verdict,
/// in the order `every_single_defect_gets_the_recorded_verdict` produces
/// them, and how many verdicts of each kind there were. The digest was
/// re-recorded (tally unchanged) when a taken result of a void callee began
/// to name the block of the call instead of the caller's entry block.
const VERDICT_DIGEST: u64 = 0x4ad3_2bcc_4d0f_65f1;
const VERDICT_TALLY: [u32; 9] = [17, 141, 1848, 170, 2374, 903, 3, 4, 27];

#[test]
fn every_single_defect_gets_the_recorded_verdict() {
    let mut seen = Verdicts::default();
    let mut catalogue = full_module("catalogue").expect("catalogue compiles");
    optimize_module(&mut catalogue, &OptOptions::full());
    mutate_module(&mut catalogue, &mut seen);
    mutate_module(&mut module_with_calls(), &mut seen);
    record_defect_pairs(&mut catalogue, &mut seen);
    let digest = seen.digest.finish();
    assert_eq!(
        (digest, seen.tally),
        (VERDICT_DIGEST, VERDICT_TALLY),
        "verifier verdicts changed: digest {digest:#018x}, tally {:?}",
        seen.tally
    );
}

/// `chain(p: ptr, a: elem) -> elem`: splat `a`, add it to a loaded vector,
/// take the lane-wise maximum with the splat, store it and reduce it.
fn lane_chain(elem: ScalarType) -> Module {
    let mut b = FunctionBuilder::new(
        "chain",
        &[Type::Scalar(ScalarType::Ptr), Type::Scalar(elem)],
        Some(Type::Scalar(elem)),
    );
    let (p, a) = (b.param(0), b.param(1));
    let splat = b.vec_splat(elem, a);
    let loaded = b.vec_load(elem, p, 8);
    let sum = b.vec_bin(BinOp::Add, elem, loaded, splat);
    let top = b.vec_bin(BinOp::Max, elem, sum, splat);
    b.vec_store(elem, p, 0, top);
    let total = b.vec_reduce(ReduceOp::Add, elem, top);
    b.ret(Some(total));
    let mut module = Module::new("lanes");
    module.add_function(b.finish());
    module
}

/// FNV-1a over `{:?}` of `compile_module`'s result on `ultrasparc`, then
/// `dsp`, for the `u8` (16 lanes) and the `f64` (2 lanes) chain.
const LANE_CHAIN_DIGESTS: [(ScalarType, u64); 2] = [
    (ScalarType::U8, 0x485b_2075_fd58_7026),
    (ScalarType::F64, 0x8297_7324_f2a9_624c),
];

#[test]
fn scalarized_lane_chains_compile_to_the_recorded_code() {
    for (elem, want) in LANE_CHAIN_DIGESTS {
        let module = lane_chain(elem);
        let mut h = Fnv1a::new();
        for target in [TargetDesc::ultrasparc(), TargetDesc::dsp()] {
            let compiled = compile_module(&module, &target, &JitOptions::split());
            // The chain must actually scalarize: one scalar op per lane.
            let (program, stats) = compiled.as_ref().expect("the chain compiles");
            assert!(stats.scalarized && !stats.used_simd);
            assert!(
                program.num_insts() as u64 >= 5 * elem.lanes_for_width(DEFAULT_VECTOR_WIDTH_BYTES)
            );
            h.write(format!("{compiled:?}").as_bytes());
        }
        let got = h.finish();
        assert_eq!(got, want, "{elem} lane chain: {got:#018x}");
    }
}
