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
//!
//! ## Layout
//!
//! A run keeps its loop forest, def-use chains and per-loop tables in arrays
//! it reuses for every loop, every round and, over a module, every function:
//! a role per body instruction (value, skipped update, or address chain),
//! the induction variables, reductions and accesses, and the small maps of
//! the vector body (splats, vector accumulators, scalar-to-vector
//! registers), each a list searched linearly because a vectorizable body
//! holds a few dozen instructions. The element types are a bitmask, the
//! blocks already examined a flag per block, and the body being cloned is
//! moved out of its block and back rather than copied. A rejection's reason
//! is fixed text unless it names a value; rejecting a loop allocates only
//! to format a reason that names one.

use crate::defuse::{inst_at, DefUse, InstPos};
use crate::indvars::{
    constant_of, induction_variables, is_loop_invariant, loop_bound, InductionVar, LoopBound,
};
use crate::loops::{Loop, LoopForest};
use splitc_vbc::{
    BinOp, BlockId, CmpOp, Function, Immediate, Inst, Module, ReduceOp, ScalarType, Type, VReg,
};
use std::borrow::Cow;
use std::fmt;

/// Why a loop was not vectorized.
pub type Reason = Cow<'static, str>;

/// Outcome of vectorizing one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorizeReport {
    /// Headers of loops that were vectorized, with their element type.
    pub vectorized: Vec<(BlockId, ScalarType, bool)>,
    /// Headers of loops that were examined but rejected, with the reason.
    pub rejected: Vec<(BlockId, Reason)>,
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

/// What the vector body makes of one scalar body instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Cloned over vectors (or dropped, for constants and the back edge).
    Value,
    /// The induction variable's update or a reduction's update, which the
    /// vector loop replaces.
    Skip,
    /// Part of an access's address chain, cloned over scalars.
    Address,
}

/// A set of scalar types, one bit per type in declaration order.
#[derive(Clone, Copy, Default)]
struct TypeSet(u16);

impl TypeSet {
    fn insert(&mut self, t: ScalarType) {
        self.0 |= 1 << t as u16;
    }

    fn len(self) -> u32 {
        self.0.count_ones()
    }

    fn iter(self) -> impl Iterator<Item = ScalarType> {
        ScalarType::ALL
            .into_iter()
            .filter(move |t| self.0 & (1 << *t as u16) != 0)
    }
}

/// Written as a `BTreeSet<ScalarType>` is: `{F32, F64}`.
impl fmt::Debug for TypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The per-loop tables a [`Vectorizer`] reuses for every loop.
#[derive(Default)]
struct Scratch {
    /// Role of each instruction of the body under analysis.
    roles: Vec<Role>,
    /// The instructions of the address chain under analysis.
    chain: Vec<InstPos>,
    ivs: Vec<InductionVar>,
    reductions: Vec<Reduction>,
    accesses: Vec<AffineAccess>,
    /// Scalar register to its splat, in the order the splats are emitted.
    splats: Vec<(VReg, VReg)>,
    /// Each reduction's vector accumulator, in reduction order.
    vaccs: Vec<VReg>,
    /// Scalar register to its clone in the vector body; the latest entry
    /// for a register wins.
    regmap: Vec<(VReg, VReg)>,
    /// Registers of the vector body that hold vectors.
    vector_regs: Vec<VReg>,
}

/// Everything needed to emit the vector version of one loop, besides the
/// body's roles and reductions, which stay in [`Scratch`].
#[derive(Debug, Clone, Copy)]
struct Plan {
    header: BlockId,
    body: BlockId,
    preheader: BlockId,
    iv: InductionVar,
    bound: LoopBound,
    bound_const: Option<i64>,
    elem: ScalarType,
}

/// Vectorize every eligible innermost loop of `f`.
pub fn vectorize_function(f: &mut Function) -> VectorizeReport {
    Vectorizer::default().run(f)
}

/// Vectorize every function of a module; returns one report per function,
/// in the module's function order.
pub fn vectorize_module(m: &mut Module) -> Vec<VectorizeReport> {
    let mut vectorizer = Vectorizer::default();
    m.functions_mut()
        .iter_mut()
        .map(|f| vectorizer.run(f))
        .collect()
}

/// The analyses and tables of a vectorizing run, reused from one round and
/// one function to the next.
#[derive(Default)]
pub(crate) struct Vectorizer {
    forest: LoopForest,
    du: DefUse,
    scratch: Scratch,
    /// Blocks whose loop was examined; vectorizing adds four blocks per loop.
    handled: Vec<bool>,
}

impl Vectorizer {
    /// Vectorize every eligible innermost loop of `f`.
    pub(crate) fn run(&mut self, f: &mut Function) -> VectorizeReport {
        let Vectorizer {
            forest,
            du,
            scratch,
            handled,
        } = self;
        let mut report = VectorizeReport::default();
        handled.clear();
        let mut first = true;
        loop {
            forest.recompute(f);
            du.recompute(f);
            if std::mem::take(&mut first) {
                // Every candidate is examined once, rejected or vectorized.
                let candidates = forest.innermost().count();
                report.rejected.reserve(candidates);
                report.vectorized.reserve(candidates);
                handled.reserve(f.blocks.len() + 4 * candidates);
            }
            handled.resize(f.blocks.len(), false);
            report.analysis_work += f.num_insts() as u64 * 2;
            let mut plan: Option<Plan> = None;
            for l in forest.innermost() {
                if handled[l.header.index()] {
                    continue;
                }
                report.analysis_work +=
                    l.num_blocks() as u64 + f.block(l.header).insts.len() as u64;
                match analyze_loop(f, l, du, &mut report.analysis_work, scratch) {
                    Ok(p) => {
                        plan = Some(p);
                        break;
                    }
                    Err(reason) => {
                        handled[l.header.index()] = true;
                        report.rejected.push((l.header, reason));
                    }
                }
            }
            let Some(plan) = plan else {
                break;
            };
            handled[plan.header.index()] = true;
            let vec_header = transform(f, &plan, scratch);
            handled.resize(f.blocks.len(), false);
            handled[vec_header.index()] = true;
            report
                .vectorized
                .push((plan.header, plan.elem, !scratch.reductions.is_empty()));
        }
        report
    }
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
/// `add.ptr base, cast.ptr(mul.i64 cast.i64(iv), sizeof(elem))`. Returns
/// the base and leaves the chain's instructions in `slice`.
fn analyze_address(
    f: &Function,
    l: Loop<'_>,
    du: &DefUse,
    addr: VReg,
    elem: ScalarType,
    iv: &InductionVar,
    slice: &mut Vec<InstPos>,
) -> Result<VReg, Reason> {
    slice.clear();
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
    let (base, scaled_ptr) = if is_loop_invariant(&l, du, *lhs) {
        (*lhs, *rhs)
    } else if is_loop_invariant(&l, du, *rhs) {
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
        )
        .into());
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
    Ok(base)
}

/// Decide whether `l` can be vectorized. On success the body's roles and
/// reductions are left in `s` for [`transform`].
fn analyze_loop(
    f: &Function,
    l: Loop<'_>,
    du: &DefUse,
    work: &mut u64,
    s: &mut Scratch,
) -> Result<Plan, Reason> {
    // Structural shape: exactly header + one body block.
    let blocks = l.num_blocks();
    if blocks != 2 {
        return Err(format!("loop has {blocks} blocks, expected 2").into());
    }
    let body = l
        .blocks()
        .find(|b| *b != l.header)
        .expect("two-block loop has a body");
    if l.latches != [body] {
        return Err("loop body is not the single latch".into());
    }
    let preheader = l.preheader().ok_or("loop has no unique preheader")?;

    s.ivs.clear();
    s.ivs.extend(induction_variables(f, l, du));
    *work += f.block(body).insts.len() as u64 * 4;
    let bound = loop_bound(f, &l, du, &s.ivs).ok_or("not a counted loop")?;
    let iv = *s
        .ivs
        .iter()
        .find(|iv| iv.reg == bound.iv)
        .ok_or("loop bound does not test the induction variable")?;
    if iv.step != 1 {
        return Err(format!(
            "induction step is {}, only unit stride is vectorized",
            iv.step
        )
        .into());
    }
    if bound.cmp != CmpOp::Lt {
        return Err("only `<` loop bounds are vectorized".into());
    }
    // The bound must be usable in the new preheader: either defined outside
    // the loop or a constant we can re-materialize.
    let bound_const = constant_of(f, du, bound.bound);
    if !is_loop_invariant(&l, du, bound.bound) && bound_const.is_none() {
        return Err("loop bound is not loop-invariant".into());
    }

    // The induction variable must not be used by value computations other than
    // the bound test, its own update and address computations (checked via the
    // address slice below); otherwise the scalar value `i` would be needed per
    // lane (e.g. `x[i] = i`), which the portable builtins cannot express.
    let body_insts = &f.block(body).insts;
    *work += body_insts.len() as u64 * 8;
    s.roles.clear();
    s.roles.resize(body_insts.len(), Role::Value);

    // Identify the induction-variable update chain.
    if iv.update_pos.block != body || iv.add_pos.block != body {
        return Err("induction variable is not updated in the loop body".into());
    }
    s.roles[iv.update_pos.index] = Role::Skip;
    s.roles[iv.add_pos.index] = Role::Skip;

    // Recognize reductions.
    s.reductions.clear();
    for (index, inst) in body_insts.iter().enumerate() {
        let Inst::Move { dst: acc, src, .. } = inst else {
            continue;
        };
        // Accumulator: defined outside the loop, updated exactly once inside.
        let defs_inside = du.defs(*acc).iter().filter(|p| l.contains(p.block));
        if defs_inside.count() != 1 || !du.defs(*acc).iter().any(|p| !l.contains(p.block)) {
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
        s.reductions.push(Reduction {
            acc: *acc,
            op: *op,
            elem: *ty,
            bin_pos,
            move_pos: InstPos { block: body, index },
            other,
        });
    }
    for r in &s.reductions {
        s.roles[r.bin_pos.index] = Role::Skip;
        s.roles[r.move_pos.index] = Role::Skip;
    }

    // Memory accesses and the address slice; an update the vector loop
    // replaces stays skipped even when an address also reads it.
    s.accesses.clear();
    let mut elem_types = TypeSet::default();
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
                let base = analyze_address(f, l, du, *addr, *ty, &iv, &mut s.chain)?;
                for p in &s.chain {
                    if p.block != body {
                        return Err("address computed outside the loop body".into());
                    }
                    let role = &mut s.roles[p.index];
                    if *role == Role::Value {
                        *role = Role::Address;
                    }
                }
                elem_types.insert(*ty);
                s.accesses.push(AffineAccess {
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
    for (index, inst) in body_insts.iter().enumerate() {
        if s.roles[index] != Role::Value {
            continue;
        }
        match inst {
            Inst::Load { .. } | Inst::Store { .. } => {}
            Inst::Const { .. } => {}
            Inst::Bin { op, ty, .. } => {
                if !vectorizable_value_op(*op, *ty) {
                    return Err(format!("operator `{op}` cannot be vectorized").into());
                }
                elem_types.insert(*ty);
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
            }
            Inst::Jump { target } if *target == l.header && index + 1 == body_insts.len() => {}
            other => {
                return Err(format!(
                    "instruction `{}` cannot be vectorized",
                    splitc_vbc::format_inst(other)
                )
                .into());
            }
        }
    }

    // The induction variable must not feed value computations.
    for (index, inst) in body_insts.iter().enumerate() {
        if s.roles[index] != Role::Value {
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
        return Err(
            format!("mixed element types {elem_types:?} in one loop are not vectorized").into(),
        );
    }
    let elem = elem_types.iter().next().expect("one element type");
    if elem == ScalarType::Ptr {
        return Err("pointer-typed elements are not vectorized".into());
    }
    if s.reductions.iter().any(|r| r.elem != elem) {
        return Err("reduction element type differs from the loop element type".into());
    }

    // Dependence test: loads and stores through the same base pointer always
    // address `base[i]` here (unit stride, same index), which is safe; distinct
    // bases are assumed not to alias (established offline, as in the paper).
    for st in s.accesses.iter().filter(|a| a.is_store) {
        for a in &s.accesses {
            if a.pos != st.pos && a.base == st.base && a.elem != st.elem {
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
    })
}

/// Emit the vector loop described by `plan` and the roles and reductions
/// [`analyze_loop`] left in `s`; returns the vector loop's header.
fn transform(f: &mut Function, plan: &Plan, s: &mut Scratch) -> BlockId {
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

    // The scalar body stays as the epilogue; it is only read here, so it is
    // moved out of its block while fresh registers are made, and back.
    let body_insts = std::mem::take(&mut f.block_mut(plan.body).insts);
    let roles = &s.roles;
    let reductions = &s.reductions;
    // A register the vector body must read as a splat: defined outside the
    // body (or by a body constant) and not by an instruction it clones.
    let defined_in_body = |r: VReg| {
        body_insts
            .iter()
            .zip(roles)
            .any(|(bi, role)| *role == Role::Value && bi.dst() == Some(r))
    };
    // The immediate of the body's last `const` defining `r`.
    let const_in_body = |r: VReg| {
        body_insts.iter().rev().find_map(|bi| match bi {
            Inst::Const { dst, imm, .. } if *dst == r => Some(*imm),
            _ => None,
        })
    };

    // Splats of loop-invariant scalars and of in-body constants used by value
    // ops, in first-use order; each gets its register when it is emitted.
    s.splats.clear();
    let unassigned = VReg(u32::MAX);
    for (inst, role) in body_insts.iter().zip(roles) {
        if *role != Role::Value {
            continue;
        }
        let value_operands = match inst {
            Inst::Bin { lhs, rhs, .. } => [Some(*lhs), Some(*rhs)],
            Inst::Store { value, .. } => [Some(*value), None],
            Inst::Move { src, .. } => [Some(*src), None],
            _ => [None, None],
        };
        for r in value_operands.into_iter().flatten() {
            let splat = !defined_in_body(r) || const_in_body(r).is_some();
            if splat && r != plan.iv.reg && !s.splats.iter().any(|(k, _)| *k == r) {
                s.splats.push((r, unassigned));
            }
        }
    }
    // Reduction sources may also be loop-invariant (degenerate but legal).
    for red in reductions {
        if !defined_in_body(red.other) && !s.splats.iter().any(|(k, _)| *k == red.other) {
            s.splats.push((red.other, unassigned));
        }
    }

    // --- Vector preheader: lane count, vector trip count, splats, accumulators. ---
    let mut pre: Vec<Inst> = Vec::with_capacity(6 + 2 * s.splats.len() + 2 * reductions.len());
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

    for i in 0..s.splats.len() {
        let r = s.splats[i].0;
        let src = if let Some(imm) = const_in_body(r) {
            let c = f.new_vreg(Type::Scalar(elem));
            pre.push(Inst::Const {
                dst: c,
                ty: elem,
                imm,
            });
            c
        } else {
            r
        };
        let v = f.new_vreg(Type::Vector(elem));
        pre.push(Inst::VecSplat { dst: v, elem, src });
        s.splats[i].1 = v;
    }

    // Vector accumulators.
    s.vaccs.clear();
    for red in reductions {
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
        s.vaccs.push(vacc);
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
    let mut vbody: Vec<Inst> = Vec::with_capacity(body_insts.len() + reductions.len() + 2);
    // Registers in the clone: scalar address temporaries get fresh scalar
    // registers; value-producing instructions get fresh vector registers.
    s.regmap.clear();
    s.vector_regs.clear();
    for (inst, role) in body_insts.iter().zip(roles) {
        match role {
            Role::Skip => continue,
            Role::Address => {
                // Clone the scalar address computation with fresh registers.
                let mut cloned = inst.clone();
                let dst = inst.dst().expect("address computations define a value");
                let fresh = f.new_vreg(f.vreg_type(dst));
                let regmap = &s.regmap;
                cloned.rewrite_regs(|r| {
                    if r == dst {
                        fresh
                    } else {
                        clone_of(regmap, r).unwrap_or(r)
                    }
                });
                s.regmap.push((dst, fresh));
                vbody.push(cloned);
                continue;
            }
            Role::Value => {}
        }
        match inst {
            Inst::Load {
                dst,
                ty,
                addr,
                offset,
            } => {
                let vaddr = clone_of(&s.regmap, *addr).unwrap_or(*addr);
                let vdst = f.new_vreg(Type::Vector(*ty));
                vbody.push(Inst::VecLoad {
                    dst: vdst,
                    elem: *ty,
                    addr: vaddr,
                    offset: *offset,
                });
                s.regmap.push((*dst, vdst));
                s.vector_regs.push(vdst);
            }
            Inst::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                let vaddr = clone_of(&s.regmap, *addr).unwrap_or(*addr);
                let vvalue = vec_operand(s, *value);
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
                let vl_ = vec_operand(s, *lhs);
                let vr = vec_operand(s, *rhs);
                let vdst = f.new_vreg(Type::Vector(*ty));
                vbody.push(Inst::VecBin {
                    op: *op,
                    elem: *ty,
                    dst: vdst,
                    lhs: vl_,
                    rhs: vr,
                });
                s.regmap.push((*dst, vdst));
                s.vector_regs.push(vdst);
            }
            Inst::Move { dst, src, .. } => {
                let v = vec_operand(s, *src);
                s.regmap.push((*dst, v));
                s.vector_regs.push(v);
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
    for (red, &vacc) in s.reductions.iter().zip(&s.vaccs) {
        let vother = vec_operand(s, red.other);
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
    f.block_mut(plan.body).insts = body_insts;

    // --- Merge block: fold vector accumulators back into the scalars. ---
    let mut minsts: Vec<Inst> = Vec::with_capacity(2 * s.reductions.len() + 1);
    for (red, &vacc) in s.reductions.iter().zip(&s.vaccs) {
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

/// `r`'s latest clone in the vector body.
fn clone_of(regmap: &[(VReg, VReg)], r: VReg) -> Option<VReg> {
    regmap
        .iter()
        .rev()
        .find_map(|&(k, v)| (k == r).then_some(v))
}

/// The vector register the vector body reads for the scalar `r`.
fn vec_operand(s: &Scratch, r: VReg) -> VReg {
    let clone = clone_of(&s.regmap, r);
    if let Some(mapped) = clone {
        if s.vector_regs.contains(&mapped) {
            return mapped;
        }
    }
    if let Some(&(_, splat)) = s.splats.iter().find(|(k, _)| *k == r) {
        return splat;
    }
    // Fall back to the mapped scalar (this only happens for values that the
    // legality analysis guaranteed are vectors or splats).
    clone.unwrap_or(r)
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
        assert!(reports.iter().all(|r| r.count() == 1));
        assert!(reports.iter().all(|r| r.analysis_work > 0));
        // Code size grows (vector loop + epilogue) but the module still verifies.
        assert!(m.num_insts() > scalar.num_insts());
        splitc_vbc::verify_module(&m).unwrap();
    }
}
