//! Offline automatic vectorization to portable vector builtins.
//!
//! This pass reproduces the split vectorization of Section 4 / Table 1 of the
//! paper: the *offline* compiler performs the expensive work (loop and
//! induction-variable recognition, dependence checking, reduction detection)
//! and rewrites counted loops into loops over the portable vector builtins of
//! the bytecode, keeping the original scalar loop as the epilogue for the
//! remainder iterations. The *online* compiler then either maps the builtins
//! to the target's SIMD unit or scalarizes them — without re-doing any of the
//! analysis.
//!
//! ## Supported shape
//!
//! Innermost counted loops `for (i = init; i < n; i = i + 1)` whose body is a
//! single straight-line block containing:
//!
//! * contiguous loads/stores `p[i]` with a single element type,
//! * element-wise arithmetic (`+ - * / min max` and integer bitwise ops),
//! * reductions `acc = acc ⊕ expr` with `⊕ ∈ {+, min, max}`.
//!
//! Distinct pointer parameters are assumed not to alias (the paper relies on
//! offline whole-program analysis to establish exactly this kind of fact);
//! accesses through the *same* pointer are only accepted when they address the
//! same element `p[i]`, i.e. an in-place update.

use crate::defuse::{inst_at, DefUse, InstPos};
use crate::indvars::{
    constant_of, induction_variables, is_loop_invariant, loop_bound, InductionVar, LoopBound,
};
use crate::loops::{Loop, LoopForest};
use splitc_vbc::{
    BinOp, BlockId, CmpOp, Function, Immediate, Inst, Module, ReduceOp, ScalarType, Type, VReg,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Outcome of vectorizing one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorizeReport {
    /// Headers of loops that were vectorized, with their element type.
    pub vectorized: Vec<(BlockId, ScalarType, bool)>,
    /// Headers of loops that were examined but rejected, with the reason.
    pub rejected: Vec<(BlockId, String)>,
    /// Abstract work units spent on analysis (used by the split-compilation
    /// cost experiment E2).
    pub analysis_work: u64,
}

impl VectorizeReport {
    /// Number of loops vectorized.
    pub fn count(&self) -> usize {
        self.vectorized.len()
    }
}

/// A contiguous, unit-stride memory access `base[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AffineAccess {
    base: VReg,
    elem: ScalarType,
    is_store: bool,
    pos: InstPos,
}

/// A reduction `acc = acc ⊕ other` recognized in the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reduction {
    acc: VReg,
    op: BinOp,
    elem: ScalarType,
    bin_pos: InstPos,
    move_pos: InstPos,
    other: VReg,
}

/// Everything needed to emit the vector version of one loop.
#[derive(Debug, Clone)]
struct Plan {
    header: BlockId,
    body: BlockId,
    preheader: BlockId,
    iv: InductionVar,
    bound: LoopBound,
    bound_const: Option<i64>,
    elem: ScalarType,
    reductions: Vec<Reduction>,
    address_slice: BTreeSet<usize>,
    skip: BTreeSet<usize>,
}

/// Vectorize every eligible innermost loop of `f`.
pub fn vectorize_function(f: &mut Function) -> VectorizeReport {
    let mut report = VectorizeReport::default();
    let mut handled: HashSet<BlockId> = HashSet::new();
    loop {
        let forest = LoopForest::compute(f);
        let du = DefUse::compute(f);
        report.analysis_work += f.num_insts() as u64 * 2;
        let mut plan: Option<Plan> = None;
        for l in forest.innermost() {
            if handled.contains(&l.header) {
                continue;
            }
            report.analysis_work += l.blocks.len() as u64 + f.block(l.header).insts.len() as u64;
            match analyze_loop(f, l, &du, &mut report.analysis_work) {
                Ok(p) => {
                    plan = Some(p);
                    break;
                }
                Err(reason) => {
                    handled.insert(l.header);
                    report.rejected.push((l.header, reason));
                }
            }
        }
        let Some(plan) = plan else {
            break;
        };
        handled.insert(plan.header);
        handled.insert(transform(f, &plan));
        report
            .vectorized
            .push((plan.header, plan.elem, !plan.reductions.is_empty()));
    }
    report
}

/// Vectorize every function of a module; returns per-function reports.
pub fn vectorize_module(m: &mut Module) -> BTreeMap<String, VectorizeReport> {
    let mut out = BTreeMap::new();
    for f in m.functions_mut() {
        let name = f.name.clone();
        out.insert(name, vectorize_function(f));
    }
    out
}

fn vectorizable_value_op(op: BinOp, elem: ScalarType) -> bool {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Min | BinOp::Max => true,
        BinOp::And | BinOp::Or | BinOp::Xor => elem.is_int(),
        BinOp::Rem | BinOp::Shl | BinOp::Shr => false,
    }
}

fn reduce_op(op: BinOp) -> Option<ReduceOp> {
    match op {
        BinOp::Add => Some(ReduceOp::Add),
        BinOp::Min => Some(ReduceOp::Min),
        BinOp::Max => Some(ReduceOp::Max),
        _ => None,
    }
}

fn identity_imm(op: BinOp, elem: ScalarType) -> Immediate {
    match (op, elem.is_float()) {
        (BinOp::Add, true) => Immediate::Float(0.0),
        (BinOp::Add, false) => Immediate::Int(0),
        (BinOp::Max, true) => Immediate::Float(f64::NEG_INFINITY),
        (BinOp::Max, false) => {
            if elem.is_unsigned() {
                Immediate::Int(0)
            } else {
                Immediate::Int(match elem {
                    ScalarType::I8 => i64::from(i8::MIN),
                    ScalarType::I16 => i64::from(i16::MIN),
                    ScalarType::I32 => i64::from(i32::MIN),
                    _ => i64::MIN,
                })
            }
        }
        (BinOp::Min, true) => Immediate::Float(f64::INFINITY),
        (BinOp::Min, false) => Immediate::Int(match elem {
            ScalarType::U8 => 0xff,
            ScalarType::U16 => 0xffff,
            ScalarType::U32 => 0xffff_ffff,
            ScalarType::I8 => i64::from(i8::MAX),
            ScalarType::I16 => i64::from(i16::MAX),
            ScalarType::I32 => i64::from(i32::MAX),
            _ => i64::MAX,
        }),
        _ => Immediate::Int(0),
    }
}

/// Recognize the unit-stride address chain produced by the front end:
/// `add.ptr base, cast.ptr(mul.i64 cast.i64(iv), sizeof(elem))`.
fn analyze_address(
    f: &Function,
    l: &Loop,
    du: &DefUse,
    addr: VReg,
    elem: ScalarType,
    iv: &InductionVar,
) -> Result<(VReg, Vec<InstPos>), String> {
    let mut slice = Vec::new();
    let add_pos = du
        .single_def(addr)
        .filter(|p| l.contains(p.block))
        .ok_or("address is not computed inside the loop")?;
    slice.push(add_pos);
    let Inst::Bin {
        op: BinOp::Add,
        ty: ScalarType::Ptr,
        lhs,
        rhs,
        ..
    } = inst_at(f, add_pos)
    else {
        return Err("address is not base+offset".into());
    };
    // One side is the loop-invariant base, the other the scaled index.
    let (base, scaled_ptr) = if is_loop_invariant(l, du, *lhs) {
        (*lhs, *rhs)
    } else if is_loop_invariant(l, du, *rhs) {
        (*rhs, *lhs)
    } else {
        return Err("no loop-invariant base pointer".into());
    };
    let cast_pos = du
        .single_def(scaled_ptr)
        .filter(|p| l.contains(p.block))
        .ok_or("scaled index not computed in the loop")?;
    slice.push(cast_pos);
    let Inst::Cast { src: scaled, .. } = inst_at(f, cast_pos) else {
        return Err("scaled index is not an integer-to-pointer cast".into());
    };
    let mul_pos = du
        .single_def(*scaled)
        .filter(|p| l.contains(p.block))
        .ok_or("index scaling not computed in the loop")?;
    slice.push(mul_pos);
    let Inst::Bin {
        op: BinOp::Mul,
        lhs: ml,
        rhs: mr,
        ..
    } = inst_at(f, mul_pos)
    else {
        return Err("index is not scaled by a multiplication".into());
    };
    let (idx, scale_reg, scale) = if let Some(c) = constant_of(f, du, *mr) {
        (*ml, *mr, c)
    } else if let Some(c) = constant_of(f, du, *ml) {
        (*mr, *ml, c)
    } else {
        return Err("non-constant access stride".into());
    };
    if scale != elem.size_bytes() as i64 {
        return Err(format!(
            "access stride {scale} does not match the element size {}",
            elem.size_bytes()
        ));
    }
    // The constant feeding the scale may itself live inside the loop body (the
    // front end materializes it next to the access); it must then be cloned
    // into the vector body along with the rest of the address chain.
    if let Some(scale_pos) = du.single_def(scale_reg) {
        if l.contains(scale_pos.block) {
            slice.push(scale_pos);
        }
    }
    // The index must be the induction variable, possibly widened by a cast.
    let idx_root = if idx == iv.reg {
        idx
    } else {
        let widen_pos = du
            .single_def(idx)
            .filter(|p| l.contains(p.block))
            .ok_or("index is not the induction variable")?;
        slice.push(widen_pos);
        let Inst::Cast { src, .. } = inst_at(f, widen_pos) else {
            return Err("index is not the induction variable".into());
        };
        *src
    };
    if idx_root != iv.reg {
        return Err("index is not the loop induction variable".into());
    }
    Ok((base, slice))
}

fn analyze_loop(f: &Function, l: &Loop, du: &DefUse, work: &mut u64) -> Result<Plan, String> {
    // Structural shape: exactly header + one body block.
    if l.blocks.len() != 2 {
        return Err(format!("loop has {} blocks, expected 2", l.blocks.len()));
    }
    let body = *l
        .blocks
        .iter()
        .find(|b| **b != l.header)
        .expect("two-block loop has a body");
    if l.latches != vec![body] {
        return Err("loop body is not the single latch".into());
    }
    let preheader = l.preheader(f).ok_or("loop has no unique preheader")?;

    let ivs = induction_variables(f, l, du);
    *work += f.block(body).insts.len() as u64 * 4;
    let bound = loop_bound(f, l, du, &ivs).ok_or("not a counted loop")?;
    let iv = *ivs
        .iter()
        .find(|iv| iv.reg == bound.iv)
        .ok_or("loop bound does not test the induction variable")?;
    if iv.step != 1 {
        return Err(format!(
            "induction step is {}, only unit stride is vectorized",
            iv.step
        ));
    }
    if bound.cmp != CmpOp::Lt {
        return Err("only `<` loop bounds are vectorized".into());
    }
    // The bound must be usable in the new preheader: either defined outside
    // the loop or a constant we can re-materialize.
    let bound_const = constant_of(f, du, bound.bound);
    if !is_loop_invariant(l, du, bound.bound) && bound_const.is_none() {
        return Err("loop bound is not loop-invariant".into());
    }

    // The induction variable must not be used by value computations other than
    // the bound test, its own update and address computations (checked via the
    // address slice below); otherwise the scalar value `i` would be needed per
    // lane (e.g. `x[i] = i`), which the portable builtins cannot express.
    let body_insts = &f.block(body).insts;
    *work += body_insts.len() as u64 * 8;

    // Identify the induction-variable update chain.
    let mut skip: BTreeSet<usize> = BTreeSet::new();
    if iv.update_pos.block != body || iv.add_pos.block != body {
        return Err("induction variable is not updated in the loop body".into());
    }
    skip.insert(iv.update_pos.index);
    skip.insert(iv.add_pos.index);

    // Recognize reductions.
    let mut reductions: Vec<Reduction> = Vec::new();
    for (index, inst) in body_insts.iter().enumerate() {
        let Inst::Move { dst: acc, src, .. } = inst else {
            continue;
        };
        // Accumulator: defined outside the loop, updated exactly once inside.
        let defs_inside: Vec<_> = du
            .defs(*acc)
            .iter()
            .filter(|p| l.contains(p.block))
            .collect();
        if defs_inside.len() != 1 || !du.defs(*acc).iter().any(|p| !l.contains(p.block)) {
            continue;
        }
        let Some(bin_pos) = du.single_def(*src).filter(|p| p.block == body) else {
            continue;
        };
        let Inst::Bin {
            op, ty, lhs, rhs, ..
        } = inst_at(f, bin_pos)
        else {
            continue;
        };
        if reduce_op(*op).is_none() {
            continue;
        }
        let other = if *lhs == *acc {
            *rhs
        } else if *rhs == *acc {
            *lhs
        } else {
            continue;
        };
        // All in-loop uses of the accumulator must be in the reduction chain.
        let ok_uses = du
            .uses(*acc)
            .iter()
            .filter(|p| l.contains(p.block))
            .all(|p| *p == bin_pos);
        if !ok_uses {
            continue;
        }
        reductions.push(Reduction {
            acc: *acc,
            op: *op,
            elem: *ty,
            bin_pos,
            move_pos: InstPos { block: body, index },
            other,
        });
    }
    for r in &reductions {
        skip.insert(r.bin_pos.index);
        skip.insert(r.move_pos.index);
    }

    // Memory accesses and the address slice.
    let mut accesses: Vec<AffineAccess> = Vec::new();
    let mut address_slice: BTreeSet<usize> = BTreeSet::new();
    let mut elem_types: BTreeSet<ScalarType> = BTreeSet::new();
    for (index, inst) in body_insts.iter().enumerate() {
        let pos = InstPos { block: body, index };
        match inst {
            Inst::Load {
                ty, addr, offset, ..
            }
            | Inst::Store {
                ty, addr, offset, ..
            } => {
                if *offset != 0 {
                    return Err("displaced accesses are not vectorized".into());
                }
                let (base, slice) = analyze_address(f, l, du, *addr, *ty, &iv)?;
                for p in slice {
                    if p.block == body {
                        address_slice.insert(p.index);
                    } else {
                        return Err("address computed outside the loop body".into());
                    }
                }
                elem_types.insert(*ty);
                accesses.push(AffineAccess {
                    base,
                    elem: *ty,
                    is_store: matches!(inst, Inst::Store { .. }),
                    pos,
                });
            }
            _ => {}
        }
    }

    // Classify the remaining instructions.
    let mut local_defs: HashSet<VReg> = HashSet::new();
    for (index, inst) in body_insts.iter().enumerate() {
        if skip.contains(&index) || address_slice.contains(&index) {
            continue;
        }
        let pos = InstPos { block: body, index };
        match inst {
            Inst::Load { .. } | Inst::Store { .. } => {}
            Inst::Const { .. } => {}
            Inst::Bin { op, ty, dst, .. } => {
                if !vectorizable_value_op(*op, *ty) {
                    return Err(format!("operator `{op}` cannot be vectorized"));
                }
                elem_types.insert(*ty);
                local_defs.insert(*dst);
            }
            Inst::Move { dst, .. } => {
                // A per-iteration local variable: every definition and use must
                // stay inside the body, otherwise it is a scalar live-out.
                let all_inside = du
                    .defs(*dst)
                    .iter()
                    .chain(du.uses(*dst))
                    .all(|p| p.block == body);
                if !all_inside {
                    return Err("scalar value is live out of the loop".into());
                }
                local_defs.insert(*dst);
            }
            Inst::Jump { target } if *target == l.header && index + 1 == body_insts.len() => {}
            other => {
                return Err(format!(
                    "instruction `{}` cannot be vectorized",
                    splitc_vbc::format_inst(other)
                ));
            }
        }
        let _ = pos;
    }

    // The induction variable must not feed value computations.
    for (index, inst) in body_insts.iter().enumerate() {
        if skip.contains(&index) || address_slice.contains(&index) {
            continue;
        }
        let mut reads_iv = false;
        inst.for_each_use(|u| reads_iv |= u == iv.reg);
        if reads_iv {
            return Err("the induction variable is used as a value inside the loop".into());
        }
    }

    // Element type consistency.
    if elem_types.len() != 1 {
        return Err(format!(
            "mixed element types {elem_types:?} in one loop are not vectorized"
        ));
    }
    let elem = *elem_types.iter().next().expect("one element type");
    if elem == ScalarType::Ptr {
        return Err("pointer-typed elements are not vectorized".into());
    }
    for r in &reductions {
        if r.elem != elem {
            return Err("reduction element type differs from the loop element type".into());
        }
    }

    // Dependence test: loads and stores through the same base pointer always
    // address `base[i]` here (unit stride, same index), which is safe; distinct
    // bases are assumed not to alias (established offline, as in the paper).
    let stores: Vec<_> = accesses.iter().filter(|a| a.is_store).collect();
    for s in &stores {
        for a in &accesses {
            if a.pos != s.pos && a.base == s.base && a.elem != s.elem {
                return Err("conflicting accesses through one pointer".into());
            }
        }
    }

    Ok(Plan {
        header: l.header,
        body,
        preheader,
        iv,
        bound,
        bound_const,
        elem,
        reductions,
        address_slice,
        skip,
    })
}

/// Emit the vector loop described by `plan`; returns its header.
fn transform(f: &mut Function, plan: &Plan) -> BlockId {
    let elem = plan.elem;
    let ivty = plan.iv.ty;
    let vec_pre = f.new_block();
    let vec_header = f.new_block();
    let vec_body = f.new_block();
    let merge = f.new_block();

    // --- Redirect the preheader to the vector preheader. ---
    let pre_term = f
        .block_mut(plan.preheader)
        .insts
        .last_mut()
        .expect("preheader has a terminator");
    match pre_term {
        Inst::Jump { target } if *target == plan.header => *target = vec_pre,
        Inst::Branch {
            then_bb, else_bb, ..
        } => {
            if *then_bb == plan.header {
                *then_bb = vec_pre;
            }
            if *else_bb == plan.header {
                *else_bb = vec_pre;
            }
        }
        _ => {}
    }

    // --- Vector preheader: lane count, vector trip count, splats, accumulators. ---
    let mut pre: Vec<Inst> = Vec::new();
    let vl64 = f.new_vreg(Type::Scalar(ScalarType::I64));
    pre.push(Inst::VecWidth { dst: vl64, elem });
    let vl = if ivty == ScalarType::I64 {
        vl64
    } else {
        let r = f.new_vreg(Type::Scalar(ivty));
        pre.push(Inst::Cast {
            dst: r,
            to: ivty,
            src: vl64,
            from: ScalarType::I64,
        });
        r
    };
    // Re-materialize a constant bound if needed, so that the bound register we
    // use is available in the new preheader.
    let bound_reg = if let Some(c) = plan.bound_const {
        let r = f.new_vreg(Type::Scalar(ivty));
        pre.push(Inst::Const {
            dst: r,
            ty: ivty,
            imm: Immediate::Int(c),
        });
        r
    } else {
        plan.bound.bound
    };
    let rem = f.new_vreg(Type::Scalar(ivty));
    pre.push(Inst::Bin {
        op: BinOp::Rem,
        ty: ivty,
        dst: rem,
        lhs: bound_reg,
        rhs: vl,
    });
    let limit = f.new_vreg(Type::Scalar(ivty));
    pre.push(Inst::Bin {
        op: BinOp::Sub,
        ty: ivty,
        dst: limit,
        lhs: bound_reg,
        rhs: rem,
    });

    // Splats of loop-invariant scalars and of in-body constants used by value ops.
    let body_insts: Vec<Inst> = f.block(plan.body).insts.clone();
    let mut const_in_body: HashMap<VReg, Immediate> = HashMap::new();
    for inst in &body_insts {
        if let Inst::Const { dst, imm, .. } = inst {
            const_in_body.insert(*dst, *imm);
        }
    }
    let mut splats: HashMap<VReg, VReg> = HashMap::new();
    let mut needs_splat: Vec<VReg> = Vec::new();
    for (index, inst) in body_insts.iter().enumerate() {
        if plan.skip.contains(&index) || plan.address_slice.contains(&index) {
            continue;
        }
        let value_operands: Vec<VReg> = match inst {
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Store { value, .. } => vec![*value],
            Inst::Move { src, .. } => vec![*src],
            _ => Vec::new(),
        };
        for r in value_operands {
            let defined_in_body = body_insts.iter().enumerate().any(|(i, bi)| {
                !plan.address_slice.contains(&i) && bi.dst() == Some(r) && !plan.skip.contains(&i)
            });
            let is_const = const_in_body.contains_key(&r);
            if (!defined_in_body || is_const) && !splats.contains_key(&r) && r != plan.iv.reg {
                needs_splat.push(r);
                splats.insert(r, VReg(u32::MAX)); // placeholder, filled below
            }
        }
    }
    // Reduction sources may also be loop-invariant (degenerate but legal).
    for red in &plan.reductions {
        let defined_in_body = body_insts.iter().enumerate().any(|(i, bi)| {
            !plan.address_slice.contains(&i)
                && bi.dst() == Some(red.other)
                && !plan.skip.contains(&i)
        });
        if !defined_in_body && !splats.contains_key(&red.other) {
            needs_splat.push(red.other);
            splats.insert(red.other, VReg(u32::MAX));
        }
    }
    for r in needs_splat {
        let src = if let Some(imm) = const_in_body.get(&r) {
            let c = f.new_vreg(Type::Scalar(elem));
            pre.push(Inst::Const {
                dst: c,
                ty: elem,
                imm: *imm,
            });
            c
        } else {
            r
        };
        let v = f.new_vreg(Type::Vector(elem));
        pre.push(Inst::VecSplat { dst: v, elem, src });
        splats.insert(r, v);
    }

    // Vector accumulators.
    let mut vaccs: HashMap<VReg, VReg> = HashMap::new();
    for red in &plan.reductions {
        let ident = f.new_vreg(Type::Scalar(elem));
        pre.push(Inst::Const {
            dst: ident,
            ty: elem,
            imm: identity_imm(red.op, elem),
        });
        let vacc = f.new_vreg(Type::Vector(elem));
        pre.push(Inst::VecSplat {
            dst: vacc,
            elem,
            src: ident,
        });
        vaccs.insert(red.acc, vacc);
    }
    pre.push(Inst::Jump { target: vec_header });
    f.block_mut(vec_pre).insts = pre;

    // --- Vector loop header. ---
    let cond = f.new_vreg(Type::Scalar(ScalarType::I32));
    f.block_mut(vec_header).insts = vec![
        Inst::Cmp {
            op: CmpOp::Lt,
            ty: ivty,
            dst: cond,
            lhs: plan.iv.reg,
            rhs: limit,
        },
        Inst::Branch {
            cond,
            then_bb: vec_body,
            else_bb: merge,
        },
    ];

    // --- Vector loop body: clone of the scalar body over vectors. ---
    let mut vbody: Vec<Inst> = Vec::new();
    // Registers in the clone: scalar address temporaries get fresh scalar
    // registers; value-producing instructions get fresh vector registers.
    let mut regmap: HashMap<VReg, VReg> = HashMap::new();
    let mut vector_regs: HashSet<VReg> = HashSet::new();

    // Helper lookups have to be done without closures to keep the borrow
    // checker happy while `f` is mutated for fresh registers.
    for (index, inst) in body_insts.iter().enumerate() {
        if plan.skip.contains(&index) {
            continue;
        }
        if plan.address_slice.contains(&index) {
            // Clone the scalar address computation with fresh registers.
            let mut cloned = inst.clone();
            let dst = inst.dst().expect("address computations define a value");
            let fresh = f.new_vreg(f.vreg_type(dst));
            cloned.rewrite_regs(|r| {
                if r == dst {
                    fresh
                } else {
                    *regmap.get(&r).unwrap_or(&r)
                }
            });
            regmap.insert(dst, fresh);
            vbody.push(cloned);
            continue;
        }
        match inst {
            Inst::Load {
                dst,
                ty,
                addr,
                offset,
            } => {
                let vaddr = *regmap.get(addr).unwrap_or(addr);
                let vdst = f.new_vreg(Type::Vector(*ty));
                vbody.push(Inst::VecLoad {
                    dst: vdst,
                    elem: *ty,
                    addr: vaddr,
                    offset: *offset,
                });
                regmap.insert(*dst, vdst);
                vector_regs.insert(vdst);
            }
            Inst::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                let vaddr = *regmap.get(addr).unwrap_or(addr);
                let vvalue = vec_operand(*value, &regmap, &vector_regs, &splats);
                vbody.push(Inst::VecStore {
                    elem: *ty,
                    addr: vaddr,
                    offset: *offset,
                    value: vvalue,
                });
            }
            Inst::Bin {
                op,
                ty,
                dst,
                lhs,
                rhs,
            } => {
                let vl_ = vec_operand(*lhs, &regmap, &vector_regs, &splats);
                let vr = vec_operand(*rhs, &regmap, &vector_regs, &splats);
                let vdst = f.new_vreg(Type::Vector(*ty));
                vbody.push(Inst::VecBin {
                    op: *op,
                    elem: *ty,
                    dst: vdst,
                    lhs: vl_,
                    rhs: vr,
                });
                regmap.insert(*dst, vdst);
                vector_regs.insert(vdst);
            }
            Inst::Move { dst, src, .. } => {
                let v = vec_operand(*src, &regmap, &vector_regs, &splats);
                regmap.insert(*dst, v);
                vector_regs.insert(v);
            }
            Inst::Const { .. } => {
                // Handled through the splat table when used by value ops; the
                // scalar constant itself is not needed in the vector body.
            }
            Inst::Jump { .. } => {}
            other => unreachable!("legality analysis admitted {other:?}"),
        }
    }
    // Reduction updates.
    for red in &plan.reductions {
        let vacc = vaccs[&red.acc];
        let vother = vec_operand(red.other, &regmap, &vector_regs, &splats);
        vbody.push(Inst::VecBin {
            op: red.op,
            elem,
            dst: vacc,
            lhs: vacc,
            rhs: vother,
        });
    }
    // Induction variable advance and back edge.
    vbody.push(Inst::Bin {
        op: BinOp::Add,
        ty: ivty,
        dst: plan.iv.reg,
        lhs: plan.iv.reg,
        rhs: vl,
    });
    vbody.push(Inst::Jump { target: vec_header });
    f.block_mut(vec_body).insts = vbody;

    // --- Merge block: fold vector accumulators back into the scalars. ---
    let mut minsts: Vec<Inst> = Vec::new();
    for red in &plan.reductions {
        let vacc = vaccs[&red.acc];
        let partial = f.new_vreg(Type::Scalar(elem));
        minsts.push(Inst::VecReduce {
            op: reduce_op(red.op).expect("reduction operator"),
            elem,
            dst: partial,
            src: vacc,
        });
        minsts.push(Inst::Bin {
            op: red.op,
            ty: elem,
            dst: red.acc,
            lhs: red.acc,
            rhs: partial,
        });
    }
    minsts.push(Inst::Jump {
        target: plan.header,
    });
    f.block_mut(merge).insts = minsts;

    vec_header
}

fn vec_operand(
    r: VReg,
    regmap: &HashMap<VReg, VReg>,
    vector_regs: &HashSet<VReg>,
    splats: &HashMap<VReg, VReg>,
) -> VReg {
    if let Some(mapped) = regmap.get(&r) {
        if vector_regs.contains(mapped) {
            return *mapped;
        }
    }
    if let Some(s) = splats.get(&r) {
        return *s;
    }
    // Fall back to the mapped scalar (this only happens for values that the
    // legality analysis guaranteed are vectors or splats).
    *regmap.get(&r).unwrap_or(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;
    use splitc_vbc::{verify_function, Interpreter, Memory, Value};

    fn compile(src: &str) -> Module {
        compile_source(src, "t").expect("source compiles")
    }

    const SAXPY: &str = r#"
        fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
            for (let i: i32 = 0; i < n; i = i + 1) {
                y[i] = a * x[i] + y[i];
            }
        }
    "#;

    const MAX_U8: &str = r#"
        fn max_u8(n: i32, x: *u8) -> u8 {
            let m: u8 = 0;
            for (let i: i32 = 0; i < n; i = i + 1) {
                m = max(m, x[i]);
            }
            return m;
        }
    "#;

    #[test]
    fn saxpy_is_vectorized_and_stays_valid() {
        let mut m = compile(SAXPY);
        let f = m.function_mut("saxpy").unwrap();
        let report = vectorize_function(f);
        assert_eq!(report.count(), 1, "rejections: {:?}", report.rejected);
        assert_eq!(report.vectorized[0].1, ScalarType::F32);
        assert!(!report.vectorized[0].2, "saxpy has no reduction");
        verify_function(f).expect("vectorized function verifies");
        assert!(f.uses_vector_builtins());
    }

    #[test]
    fn vectorized_saxpy_computes_the_same_result() {
        let mut m = compile(SAXPY);
        let scalar = m.clone();
        vectorize_function(m.function_mut("saxpy").unwrap());

        let n = 37usize; // deliberately not a multiple of the lane count
        let xs: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let ys: Vec<f32> = (0..n).map(|i| 100.0 - i as f32).collect();

        let run = |module: &Module| {
            let mut mem = Memory::new(1 << 16);
            let x = mem.alloc((n * 4) as u64);
            let y = mem.alloc((n * 4) as u64);
            mem.write_f32s(x, &xs);
            mem.write_f32s(y, &ys);
            let mut interp = Interpreter::new(module);
            interp
                .run(
                    "saxpy",
                    &[
                        Value::Int(n as i64),
                        Value::Float(2.5),
                        Value::Int(x as i64),
                        Value::Int(y as i64),
                    ],
                    &mut mem,
                )
                .unwrap();
            mem.read_f32s(y, n)
        };
        assert_eq!(run(&scalar), run(&m));
    }

    #[test]
    fn max_reduction_is_vectorized_and_matches_scalar() {
        let mut m = compile(MAX_U8);
        let scalar = m.clone();
        let report = vectorize_function(m.function_mut("max_u8").unwrap());
        assert_eq!(report.count(), 1, "rejections: {:?}", report.rejected);
        assert!(report.vectorized[0].2, "max_u8 is a reduction");
        verify_function(m.function("max_u8").unwrap()).unwrap();

        let n = 100usize;
        let data: Vec<u8> = (0..n).map(|i| ((i * 37 + 11) % 251) as u8).collect();
        let run = |module: &Module| {
            let mut mem = Memory::new(1 << 16);
            let x = mem.alloc(n as u64);
            mem.write_u8s(x, &data);
            let mut interp = Interpreter::new(module);
            interp
                .run(
                    "max_u8",
                    &[Value::Int(n as i64), Value::Int(x as i64)],
                    &mut mem,
                )
                .unwrap()
        };
        assert_eq!(run(&scalar), run(&m));
    }

    #[test]
    fn sum_reduction_with_wrapping_u16_matches_scalar() {
        let src = r#"
            fn sum_u16(n: i32, x: *u16) -> u16 {
                let s: u16 = 0;
                for (let i: i32 = 0; i < n; i = i + 1) {
                    s = s + x[i];
                }
                return s;
            }
        "#;
        let mut m = compile(src);
        let scalar = m.clone();
        let report = vectorize_function(m.function_mut("sum_u16").unwrap());
        assert_eq!(report.count(), 1, "rejections: {:?}", report.rejected);

        let n = 999usize;
        let data: Vec<u16> = (0..n).map(|i| (i * 131 % 65521) as u16).collect();
        let run = |module: &Module| {
            let mut mem = Memory::new(1 << 16);
            let x = mem.alloc((n * 2) as u64);
            mem.write_u16s(x, &data);
            let mut interp = Interpreter::new(module);
            interp
                .run(
                    "sum_u16",
                    &[Value::Int(n as i64), Value::Int(x as i64)],
                    &mut mem,
                )
                .unwrap()
        };
        assert_eq!(run(&scalar), run(&m));
    }

    #[test]
    fn non_unit_stride_and_data_dependent_loops_are_rejected() {
        let strided = r#"
            fn k(n: i32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 2) { x[i] = 0.0; }
            }
        "#;
        let mut m = compile(strided);
        let report = vectorize_function(m.function_mut("k").unwrap());
        assert_eq!(report.count(), 0);
        assert!(report
            .rejected
            .iter()
            .any(|(_, r)| r.contains("unit stride")));

        let gather = r#"
            fn k(n: i32, x: *f32, idx: *i32) {
                for (let i: i32 = 0; i < n; i = i + 1) { x[idx[i]] = 0.0; }
            }
        "#;
        let mut m = compile(gather);
        let report = vectorize_function(m.function_mut("k").unwrap());
        assert_eq!(report.count(), 0);
    }

    #[test]
    fn loop_with_call_or_branch_in_body_is_rejected() {
        let call = r#"
            fn g(x: f32) -> f32 { return x; }
            fn k(n: i32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) { x[i] = g(x[i]); }
            }
        "#;
        let mut m = compile(call);
        let report = vectorize_function(m.function_mut("k").unwrap());
        assert_eq!(report.count(), 0);

        let branch = r#"
            fn k(n: i32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    if (x[i] > 0.0) { x[i] = 0.0; }
                }
            }
        "#;
        let mut m = compile(branch);
        let report = vectorize_function(m.function_mut("k").unwrap());
        assert_eq!(report.count(), 0, "multi-block bodies are not vectorized");
    }

    #[test]
    fn induction_variable_used_as_a_value_is_rejected() {
        let src = r#"
            fn iota(n: i32, x: *i32) {
                for (let i: i32 = 0; i < n; i = i + 1) { x[i] = i; }
            }
        "#;
        let mut m = compile(src);
        let report = vectorize_function(m.function_mut("iota").unwrap());
        assert_eq!(report.count(), 0);
        assert!(report
            .rejected
            .iter()
            .any(|(_, r)| r.contains("induction variable is used as a value")));
    }

    #[test]
    fn mixed_element_types_are_rejected() {
        let src = r#"
            fn k(n: i32, x: *f32, y: *f64) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    y[i] = (x[i] as f64) * 2.0;
                }
            }
        "#;
        let mut m = compile(src);
        let report = vectorize_function(m.function_mut("k").unwrap());
        assert_eq!(report.count(), 0);
    }

    #[test]
    fn constant_trip_count_is_rematerialized_in_the_vector_preheader() {
        let src = r#"
            fn k(x: *f32) {
                for (let i: i32 = 0; i < 1024; i = i + 1) { x[i] = x[i] * 2.0; }
            }
        "#;
        let mut m = compile(src);
        let blocks_before = m.function("k").unwrap().blocks.len();
        let f = m.function_mut("k").unwrap();
        let report = vectorize_function(f);
        assert_eq!(report.count(), 1, "rejections: {:?}", report.rejected);
        verify_function(f).unwrap();
        // The bound is a constant, so the vector preheader (the first new
        // block) materializes it itself.
        assert!(f.blocks[blocks_before].insts.iter().any(|i| matches!(
            i,
            Inst::Const {
                imm: Immediate::Int(1024),
                ..
            }
        )));
    }

    #[test]
    fn vectorize_module_covers_all_functions() {
        let mut m = compile(&format!("{SAXPY}\n{MAX_U8}"));
        let scalar = m.clone();
        let reports = vectorize_module(&mut m);
        assert_eq!(reports.len(), 2);
        assert!(reports.values().all(|r| r.count() == 1));
        assert!(reports.values().all(|r| r.analysis_work > 0));
        // Code size grows (vector loop + epilogue) but the module still verifies.
        assert!(m.num_insts() > scalar.num_insts());
        splitc_vbc::verify_module(&m).unwrap();
    }
}
