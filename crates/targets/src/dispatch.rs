//! Threaded dispatch and macro-op fusion over the prepared stream.
//!
//! The metered interpreter in [`exec`](crate::exec) still pays three costs on
//! every instruction: a fuel check + decrement, a `stats.instructions`
//! increment, and a ~40-arm enum match. This module removes all three at
//! prepare time:
//!
//! * every [`PInst`] is lowered to an [`OpRecord`] — a packed 32-byte operand
//!   record whose first field is the **handler fn pointer** — so the hot loop
//!   is `(op.handler)(op, ctx)` with no discriminant match;
//! * fuel and instruction accounting are hoisted into **per-region charges**:
//!   a region is a maximal straight-line run (from a block entry, or from the
//!   return point of a call, through its first control-flow op inclusive) and
//!   its source-instruction count is prepaid on entry. A region either fully
//!   retires (the prepaid charge is exact), aborts the whole execution via a
//!   trap (a per-op `fixup` table corrects `stats.instructions` on that cold
//!   path), or — when fuel can no longer cover a prepayment — **deopts** to
//!   the metered loop, which then reproduces legacy out-of-fuel timing to the
//!   instruction;
//! * adjacent instructions are **fused into macro-ops** (compare+branch,
//!   load+ALU, and the 3- and 4-instruction induction-variable steps the
//!   lowered indvar shape produces), each charging the exact sum of its
//!   constituents' cycles and fuel so `SimStats` stays bit-identical.
//!
//! Targets whose cost model or vector file cannot be packed into the 32-byte
//! record (see [`costs_fit_u32`]) simply never build a threaded stream and
//! run metered everywhere — a semantics-preserving fallback, not an error.

use crate::desc::CostModel;
use crate::exec::{
    store_slot_vec, Frame, FramePool, PInst, PreparedFunction, PreparedProgram, RRef, SlotValue,
};
use crate::mcode::{AluOp, CmpPred, FpuOp, RedOp, RegClass, Width};
use crate::simulator::{
    alu, check_range, compare, fpu, normalize, read_lane_float, read_lane_int, read_mem,
    write_lane_float, write_lane_int, write_mem, MachineValue, SimError, SimStats,
};

/// A handler executes one packed record against the live execution context.
///
/// Handlers receive the index of their own record (`pc`) and return the
/// **absolute index of the next record to dispatch** in the low 32 bits —
/// never a `Result`, whose by-memory return would cost the hot loop a stack
/// round-trip per record. A fall-through handler returns `pc + 1`, a welded
/// handler `pc + 2` or `pc + 3`, a branch its target region's first record.
/// The high 32 bits are zero on that hot path, so the dispatch loop is one
/// indirect call plus one never-taken branch; the cold outcomes — return,
/// deopt, trap — come back tagged ([`FLOW_RET`] / [`FLOW_DEOPT`] /
/// [`FLOW_ERR`]) with their payload in the low bits, and any error or return
/// value stashed in the context ([`ExecCtx::err`] / [`ExecCtx::ret`]).
pub(crate) type Handler = fn(&OpRecord, &mut ExecCtx<'_>, u32) -> u64;

/// One threaded-dispatch operation: a handler fn pointer plus its operands
/// packed into exactly 32 bytes (two records per cache line). Scalar register
/// indexes and vector byte offsets fit the `u16` fields (guaranteed by the
/// prepare-time guard), region/call-site indexes and baked cycle costs use
/// the `u32` fields, and memory offsets / packed per-kind flags use `imm`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRecord {
    pub(crate) handler: Handler,
    pub(crate) imm: i64,
    pub(crate) a: u16,
    pub(crate) b: u16,
    pub(crate) c: u16,
    pub(crate) d: u16,
    pub(crate) e: u32,
    pub(crate) f: u32,
}

impl PartialEq for OpRecord {
    fn eq(&self, other: &Self) -> bool {
        // Compare handlers by address explicitly (no derived fn-ptr compare).
        std::ptr::eq(self.handler as *const (), other.handler as *const ())
            && self.imm == other.imm
            && (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
            && (self.e, self.f) == (other.e, other.f)
    }
}

/// Cold-outcome tags for the handler return protocol (see [`Handler`]): any
/// value below `FLOW_RET` is the next record index itself.
///
/// The function returned; the value (if any) is in [`ExecCtx::ret`].
pub(crate) const FLOW_RET: u64 = 1 << 32;
/// Fuel cannot cover the next region's prepayment: resume at the enum-stream
/// pc in the low 32 bits on the metered loop.
pub(crate) const FLOW_DEOPT: u64 = 2 << 32;
/// The execution trapped; the error is in [`ExecCtx::err`] and the low 32
/// bits index the faulting record's fixup (a welded handler reports the
/// *constituent* that trapped, not the weld opener).
pub(crate) const FLOW_ERR: u64 = 3 << 32;

/// Result of driving the threaded stream.
pub(crate) enum Threaded {
    /// Ran to completion.
    Done(Option<MachineValue>),
    /// Switched to the metered loop at this enum-stream pc.
    Deopt(u32),
}

/// The statically-known slice of one record's (or one region's) `SimStats`
/// traffic: everything the metered loop would charge that does not depend on
/// runtime values. Summed per region at prepare time and prepaid on region
/// entry, so straight-line handlers touch no accounting at all. The only
/// *dynamic* charges left to handlers are the taken/not-taken cycles of
/// conditional branches and the cycles of calls (whose argv build can trap
/// before the legacy walk charges them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StaticStats {
    pub(crate) cycles: u64,
    pub(crate) loads: u32,
    pub(crate) stores: u32,
    pub(crate) spill_stores: u32,
    pub(crate) spill_reloads: u32,
    pub(crate) vector_ops: u32,
    pub(crate) branches: u32,
}

impl StaticStats {
    fn add(&mut self, o: &StaticStats) {
        self.cycles += o.cycles;
        self.loads += o.loads;
        self.stores += o.stores;
        self.spill_stores += o.spill_stores;
        self.spill_reloads += o.spill_reloads;
        self.vector_ops += o.vector_ops;
        self.branches += o.branches;
    }

    /// Apply this prepayment to the live counters (region entry).
    pub(crate) fn charge(&self, stats: &mut SimStats) {
        stats.cycles += self.cycles;
        stats.loads += u64::from(self.loads);
        stats.stores += u64::from(self.stores);
        stats.spill_stores += u64::from(self.spill_stores);
        stats.spill_reloads += u64::from(self.spill_reloads);
        stats.vector_ops += u64::from(self.vector_ops);
        stats.branches += u64::from(self.branches);
    }

    /// Give back the prepaid-but-not-retired portion (trap cold path).
    fn refund(&self, stats: &mut SimStats) {
        stats.cycles -= self.cycles;
        stats.loads -= u64::from(self.loads);
        stats.stores -= u64::from(self.stores);
        stats.spill_stores -= u64::from(self.spill_stores);
        stats.spill_reloads -= u64::from(self.spill_reloads);
        stats.vector_ops -= u64::from(self.vector_ops);
        stats.branches -= u64::from(self.branches);
    }
}

/// Trap-path correction for one record: when its handler errors out, the
/// region was already prepaid in full, so the charges for everything the
/// legacy walk would *not* have retired by that point are given back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FixupRec {
    /// `stats.instructions` to give back (the faulting source instruction
    /// itself stays counted, matching the legacy walk — except a `FellOff`
    /// fetch, which was never retired).
    pub(crate) instructions: u32,
    /// Static counter charges to give back.
    pub(crate) stat: StaticStats,
}

/// Where control can land in the threaded stream: each basic block gets one
/// (index == block index), and each call gets one for its return point.
/// `charge` is the region's source-instruction count, prepaid (fuel and
/// `stats.instructions`) when the region is entered; `stat` is the region's
/// static counter sum, prepaid alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockTarget {
    pub(crate) ops_pc: u32,
    pub(crate) enum_pc: u32,
    pub(crate) charge: u32,
    pub(crate) stat: StaticStats,
}

/// A resolved call site referenced by a threaded call record.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CallSite {
    /// Call to a function in this program.
    Known {
        /// Dense index of the callee.
        callee: usize,
        /// Argument registers.
        args: Box<[RRef]>,
        /// Destination of the returned value, if any.
        ret: Option<RRef>,
        /// Index into `targets` of the after-call region.
        after: u32,
    },
    /// Call to a name that does not exist in the program (runtime error,
    /// like the legacy walk).
    Unknown(Box<str>),
}

/// Per-record provenance: which enum-stream instructions a record covers and
/// whether it is a fused macro-op. Cold data — only read by `disasm` and the
/// trap path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpMeta {
    pub(crate) enum_pc: u32,
    pub(crate) len: u8,
    pub(crate) fused: FuseKind,
    /// Records this one's handler retires per dispatch: 0 for a plain
    /// handler, 2 (pair) or 3 (triple) for a weld opener whose handler also
    /// executes the following record(s).
    pub(crate) welded: u8,
}

/// The macro-op fusion catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FuseKind {
    /// Not fused: a 1:1 lowering of one enum instruction.
    None,
    /// `IntCmp` + `BranchNz` on the compare result.
    CmpBranchInt,
    /// `FloatCmp` + `BranchNz` on the compare result.
    CmpBranchFloat,
    /// `LoadInt` + dependent `IntOp` (no `Div`/`Rem`: only the first
    /// constituent of a fused op may trap).
    LoadIntOp,
    /// `LoadFloat` + dependent `FloatOp` (fp ops never trap).
    LoadFloatOp,
    /// `add i,i,s ; cmp t,i,n ; bnz t` — the compact induction-variable step.
    IndVar3,
    /// `add tmp,i,s ; mov i,tmp ; cmp t,i,n ; bnz t` — the shape the
    /// bytecode lowering actually produces for annotated induction variables.
    IndVar4,
}

impl FuseKind {
    /// Short label used by `disasm`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FuseKind::None => "none",
            FuseKind::CmpBranchInt => "cmp_branch.i",
            FuseKind::CmpBranchFloat => "cmp_branch.f",
            FuseKind::LoadIntOp => "load_op.i",
            FuseKind::LoadFloatOp => "load_op.f",
            FuseKind::IndVar3 => "indvar3",
            FuseKind::IndVar4 => "indvar4",
        }
    }
}

/// Static macro-op fusion counts for one prepared program: how many fused
/// records of each kind the prepare-time pass emitted across all functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Fused compare+branch records (integer and floating-point).
    pub cmp_branch: u64,
    /// Fused load+ALU records (integer and floating-point).
    pub load_op: u64,
    /// Fused induction-variable step records (3- and 4-instruction shapes).
    pub indvar: u64,
    /// Adjacent records welded by the second-level pairing sweep: the first
    /// record's handler executes both, halving dispatch round-trips on the
    /// covered stretch. Constituents keep their own records (and trap
    /// fixups), so any two eligible neighbours pair regardless of shape.
    pub pair: u64,
    /// Adjacent-record triples welded by the same sweep (integer kinds only
    /// — the combination table for a third position is kept small), each
    /// retiring three records per dispatch round-trip.
    pub triple: u64,
}

impl FusionStats {
    /// Total fused records of any kind.
    pub fn total(&self) -> u64 {
        self.cmp_branch + self.load_op + self.indvar + self.pair + self.triple
    }
}

/// The live execution state a handler operates on. The frame's register
/// files are split-borrowed as plain slices (one pointer hop per access
/// instead of going through the `Frame` struct and its `Vec`s); `vb` caches
/// the target's vector register width. `ret` and `err` are the cold-path
/// mailboxes for the register-sized [`Flow`] protocol.
pub(crate) struct ExecCtx<'a> {
    pub(crate) prog: &'a PreparedProgram,
    pub(crate) f: &'a PreparedFunction,
    pub(crate) int: &'a mut [i64],
    pub(crate) float: &'a mut [f64],
    pub(crate) vec: &'a mut [u8],
    pub(crate) slots: &'a mut [SlotValue],
    pub(crate) slot_vec: &'a mut Vec<u8>,
    pub(crate) mem: &'a mut [u8],
    pub(crate) pool: &'a mut FramePool,
    pub(crate) fuel: &'a mut u64,
    pub(crate) stats: &'a mut SimStats,
    pub(crate) depth: usize,
    pub(crate) vb: usize,
    pub(crate) ret: Option<MachineValue>,
    pub(crate) err: Option<SimError>,
}

impl ExecCtx<'_> {
    /// Read integer register `i`.
    ///
    /// Every register index reachable from the threaded stream was validated
    /// against the target's register file when the program was prepared (see
    /// [`PreparedProgram::prepare`](crate::PreparedProgram::prepare): "so the
    /// execution loop never re-checks them"), so the bounds check a slice
    /// index would repeat on every access is provably dead; eliding it keeps
    /// a len load and a panic branch out of every handler.
    #[inline(always)]
    fn int_at(&self, i: usize) -> i64 {
        debug_assert!(i < self.int.len());
        // SAFETY: `i` was validated against the register file at prepare
        // time (see the doc comment).
        unsafe { *self.int.get_unchecked(i) }
    }

    /// Write integer register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn set_int(&mut self, i: usize, v: i64) {
        debug_assert!(i < self.int.len());
        // SAFETY: `i` was validated against the register file at prepare
        // time (see `ExecCtx::int_at`).
        unsafe { *self.int.get_unchecked_mut(i) = v };
    }

    /// Read float register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn float_at(&self, i: usize) -> f64 {
        debug_assert!(i < self.float.len());
        // SAFETY: `i` was validated against the register file at prepare
        // time (see `ExecCtx::int_at`).
        unsafe { *self.float.get_unchecked(i) }
    }

    /// Write float register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn set_float(&mut self, i: usize, v: f64) {
        debug_assert!(i < self.float.len());
        // SAFETY: `i` was validated against the register file at prepare
        // time (see `ExecCtx::int_at`).
        unsafe { *self.float.get_unchecked_mut(i) = v };
    }
}

/// Stash `e` and signal [`FLOW_ERR`] at the failing record — the cold half
/// of the handler protocol, kept out of line so handler bodies stay small.
#[cold]
#[inline(never)]
fn fail(cx: &mut ExecCtx<'_>, e: SimError, pc: u32) -> u64 {
    cx.err = Some(e);
    FLOW_ERR | u64::from(pc)
}

/// `?` for handlers: unwrap or stash the error and bail with [`FLOW_ERR`].
macro_rules! tryh {
    ($cx:expr, $pc:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => return fail($cx, e, $pc),
        }
    };
}

/// Cycle costs are baked into `u32` record fields, sometimes as sums of up to
/// four constituents; cap each cost well below `u32::MAX` so no packed sum
/// can overflow. Every shipped [`TargetDesc`](crate::TargetDesc) preset uses
/// single- to low-double-digit costs; this guard only excludes hand-built
/// pathological models, which then run metered (exact, just slower).
pub(crate) fn costs_fit_u32(c: &CostModel) -> bool {
    let limit = u64::from(u32::MAX / 4);
    [
        c.int_op,
        c.int_mul,
        c.int_div,
        c.fp_add,
        c.fp_mul,
        c.fp_div,
        c.load,
        c.store,
        c.mov,
        c.convert,
        c.branch_taken,
        c.branch_not_taken,
        c.vec_op,
        c.vec_load,
        c.vec_store,
        c.vec_reduce,
        c.call,
        c.spill_store,
        c.spill_load,
    ]
    .iter()
    .all(|&v| v <= limit)
}

/// Enter region `tidx`: prepay its fuel/instruction charge and its static
/// counter sum, then jump to its first record — or deopt to the metered loop
/// at its enum pc when the remaining fuel cannot cover the prepayment (the
/// metered loop then raises `OutOfFuel` at exactly the instruction the
/// legacy walk would, with nothing from this region charged yet).
#[inline(always)]
fn enter(cx: &mut ExecCtx<'_>, tidx: u32) -> u64 {
    let t = &cx.f.targets[tidx as usize];
    // Cooperative cancellation is polled here, at region entry, because it
    // is the one boundary every loop iteration crosses. Deopt *uncharged*
    // to the metered loop (whose entry check raises `Cancelled`): going
    // through `FLOW_ERR` instead would trigger a fixup refund for a region
    // that was never charged.
    if cx.pool.cancel_requested() {
        return FLOW_DEOPT | u64::from(t.enum_pc);
    }
    let charge = u64::from(t.charge);
    if *cx.fuel >= charge {
        *cx.fuel -= charge;
        cx.stats.instructions += charge;
        t.stat.charge(cx.stats);
        u64::from(t.ops_pc)
    } else {
        FLOW_DEOPT | u64::from(t.enum_pc)
    }
}

/// Drive the threaded stream from record `entry` (whose region the caller
/// has already charged). On a handler error the prepaid instruction count is
/// corrected from the per-op fixup table before the error propagates.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ops(
    prog: &PreparedProgram,
    f: &PreparedFunction,
    frame: &mut Frame,
    mem: &mut [u8],
    pool: &mut FramePool,
    fuel: &mut u64,
    depth: usize,
    stats: &mut SimStats,
    entry: u32,
) -> Result<Threaded, SimError> {
    let ops = &f.ops;
    let mut cx = ExecCtx {
        prog,
        f,
        int: frame.int.as_mut_slice(),
        float: frame.float.as_mut_slice(),
        vec: frame.vec.as_mut_slice(),
        slots: frame.slots.as_mut_slice(),
        slot_vec: &mut frame.slot_vec,
        mem,
        pool,
        fuel,
        stats,
        depth,
        vb: prog.vector_bytes,
        ret: None,
        err: None,
    };
    let mut pc = entry as usize;
    loop {
        debug_assert!(pc < ops.len());
        // SAFETY: `entry`, every branch target and every fall-through pc a
        // handler returns are in bounds: region entries come from
        // `build_threaded`, and sequential fall-through always reaches a
        // region-closing control record (every block ends in one — `FellOff`
        // is synthesized where code falls off) before `pc` can pass the end
        // of the stream.
        let op = unsafe { ops.get_unchecked(pc) };
        let r = (op.handler)(op, &mut cx, pc as u32);
        if r < FLOW_RET {
            pc = r as usize;
            continue;
        }
        return match r & !0xffff_ffff {
            FLOW_RET => Ok(Threaded::Done(cx.ret.take())),
            FLOW_DEOPT => Ok(Threaded::Deopt(r as u32)),
            _ => {
                // The region was prepaid in full; give back the charges for
                // everything the legacy walk would not have retired by the
                // faulting instruction (cold path). The low bits index the
                // faulting record — a welded handler reports the constituent
                // that trapped, whose fixup is the exact correction.
                let fx = &f.fixup[r as u32 as usize];
                cx.stats.instructions -= u64::from(fx.instructions);
                fx.stat.refund(cx.stats);
                Err(cx.err.take().expect("failing handler set an error"))
            }
        };
    }
}

// ---------------------------------------------------------------------------
// Flag packing helpers: operand shapes (width / signedness / opcode) are
// packed into the record's spare `u16`s (or `imm` for fused ops) at prepare
// time and decoded branch-free-ly by the handlers.
// ---------------------------------------------------------------------------

fn wbits(w: Width) -> u16 {
    match w {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
        Width::W64 => 3,
    }
}

fn wfrom(bits: u16) -> Width {
    match bits & 3 {
        0 => Width::W8,
        1 => Width::W16,
        2 => Width::W32,
        _ => Width::W64,
    }
}

fn alu_bits(op: AluOp) -> u16 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
        AluOp::Min => 10,
        AluOp::Max => 11,
    }
}

fn alu_from(bits: u16) -> AluOp {
    match bits & 15 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        10 => AluOp::Min,
        _ => AluOp::Max,
    }
}

fn fpu_bits(op: FpuOp) -> u16 {
    match op {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
        FpuOp::Min => 4,
        FpuOp::Max => 5,
    }
}

fn fpu_from(bits: u16) -> FpuOp {
    match bits & 7 {
        0 => FpuOp::Add,
        1 => FpuOp::Sub,
        2 => FpuOp::Mul,
        3 => FpuOp::Div,
        4 => FpuOp::Min,
        _ => FpuOp::Max,
    }
}

fn pred_bits(p: CmpPred) -> u16 {
    match p {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::Lt => 2,
        CmpPred::Le => 3,
        CmpPred::Gt => 4,
        CmpPred::Ge => 5,
    }
}

fn pred_from(bits: u16) -> CmpPred {
    match bits & 7 {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::Lt,
        3 => CmpPred::Le,
        4 => CmpPred::Gt,
        _ => CmpPred::Ge,
    }
}

fn red_bits(op: RedOp) -> u16 {
    match op {
        RedOp::Add => 0,
        RedOp::Min => 1,
        RedOp::Max => 2,
    }
}

fn red_from(bits: u16) -> RedOp {
    match bits & 3 {
        0 => RedOp::Add,
        1 => RedOp::Min,
        _ => RedOp::Max,
    }
}

/// Integer compare exactly as the metered loop performs it.
#[inline(always)]
fn int_compare(pred: CmpPred, width: Width, signed: bool, a: i64, b: i64) -> i64 {
    let a = normalize(width, signed, a);
    let b = normalize(width, signed, b);
    if signed {
        compare(pred, a, b)
    } else {
        compare(pred, a as u64, b as u64)
    }
}

/// Float compare exactly as the metered loop performs it (NaN ⇒ `Ne`).
#[inline(always)]
fn float_compare(pred: CmpPred, double: bool, a: f64, b: f64) -> i64 {
    let (a, b) = if double {
        (a, b)
    } else {
        (f64::from(a as f32), f64::from(b as f32))
    };
    if a.partial_cmp(&b).is_none() {
        i64::from(pred == CmpPred::Ne)
    } else {
        compare(pred, a, b)
    }
}

// ---------------------------------------------------------------------------
// Handlers. Each replicates the effect (including evaluation order and stat
// updates) of the matching metered-loop arm; fused handlers replicate the
// exact sequence of their constituents — including writes to intermediate
// destinations, which later code may read.
// ---------------------------------------------------------------------------

fn h_imm(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    cx.set_int(op.a as usize, op.imm);
    u64::from(pc) + 1
}

fn h_fimm(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    cx.set_float(op.a as usize, f64::from_bits(op.imm as u64));
    u64::from(pc) + 1
}

fn h_mov_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    cx.set_int(op.a as usize, cx.int_at(op.b as usize));
    u64::from(pc) + 1
}

fn h_mov_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    cx.set_float(op.a as usize, cx.float_at(op.b as usize));
    u64::from(pc) + 1
}

fn h_mov_vec(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (d, s, vb) = (op.a as usize, op.b as usize, cx.vb);
    cx.vec.copy_within(s..s + vb, d);
    u64::from(pc) + 1
}

fn h_int_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let a = cx.int_at(op.b as usize);
    let b = cx.int_at(op.c as usize);
    let (alu_op, width, signed) = (alu_from(op.d), wfrom(op.d >> 4), op.d & (1 << 6) != 0);
    let v = tryh!(cx, pc, alu(alu_op, width, signed, a, b));
    cx.set_int(op.a as usize, v);
    u64::from(pc) + 1
}

fn h_float_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let a = cx.float_at(op.b as usize);
    let b = cx.float_at(op.c as usize);
    let (fpu_op, double) = (fpu_from(op.d), op.d & (1 << 3) != 0);
    cx.set_float(op.a as usize, fpu(fpu_op, double, a, b));
    u64::from(pc) + 1
}

fn h_int_neg(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    cx.set_int(
        op.a as usize,
        normalize(wfrom(op.d), true, v.wrapping_neg()),
    );
    u64::from(pc) + 1
}

fn h_int_not(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    cx.set_int(op.a as usize, normalize(wfrom(op.d), false, !v));
    u64::from(pc) + 1
}

fn h_float_neg(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.float_at(op.b as usize);
    cx.set_float(
        op.a as usize,
        if op.d != 0 {
            -v
        } else {
            f64::from(-(v as f32))
        },
    );
    u64::from(pc) + 1
}

fn h_int_cmp(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let a = cx.int_at(op.b as usize);
    let b = cx.int_at(op.c as usize);
    let (pred, width, signed) = (pred_from(op.d), wfrom(op.d >> 3), op.d & (1 << 5) != 0);
    cx.set_int(op.a as usize, int_compare(pred, width, signed, a, b));
    u64::from(pc) + 1
}

fn h_float_cmp(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let a = cx.float_at(op.b as usize);
    let b = cx.float_at(op.c as usize);
    let (pred, double) = (pred_from(op.d), op.d & (1 << 3) != 0);
    cx.set_int(op.a as usize, float_compare(pred, double, a, b));
    u64::from(pc) + 1
}

fn h_select_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    };
    cx.set_int(op.a as usize, cx.int_at(chosen as usize));
    u64::from(pc) + 1
}

fn h_select_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    };
    cx.set_float(op.a as usize, cx.float_at(chosen as usize));
    u64::from(pc) + 1
}

fn h_select_vec(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    } as usize;
    let vb = cx.vb;
    cx.vec.copy_within(chosen..chosen + vb, op.a as usize);
    u64::from(pc) + 1
}

fn h_int_to_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    let (signed, double) = (op.d & 1 != 0, op.d & 2 != 0);
    let x = if signed { v as f64 } else { v as u64 as f64 };
    cx.set_float(op.a as usize, if double { x } else { f64::from(x as f32) });
    u64::from(pc) + 1
}

fn h_float_to_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.float_at(op.b as usize);
    cx.set_int(
        op.a as usize,
        normalize(wfrom(op.d), op.d & (1 << 2) != 0, v as i64),
    );
    u64::from(pc) + 1
}

fn h_float_cvt(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.float_at(op.b as usize);
    cx.set_float(
        op.a as usize,
        if op.d != 0 { v } else { f64::from(v as f32) },
    );
    u64::from(pc) + 1
}

fn h_int_resize(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    cx.set_int(
        op.a as usize,
        normalize(wfrom(op.d), op.d & (1 << 2) != 0, v),
    );
    u64::from(pc) + 1
}

fn h_load_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let (width, signed) = (wfrom(op.d), op.d & (1 << 2) != 0);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, width.bytes()));
    cx.set_int(op.a as usize, normalize(width, signed, raw as i64));
    u64::from(pc) + 1
}

fn h_load_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let width = wfrom(op.d);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, width.bytes()));
    cx.set_float(
        op.a as usize,
        match width {
            Width::W32 => f64::from(f32::from_bits(raw as u32)),
            _ => f64::from_bits(raw),
        },
    );
    u64::from(pc) + 1
}

fn h_store_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let width = wfrom(op.d);
    tryh!(
        cx,
        pc,
        write_mem(cx.mem, addr, width.bytes(), cx.int_at(op.a as usize) as u64)
    );
    u64::from(pc) + 1
}

fn h_store_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let width = wfrom(op.d);
    let v = cx.float_at(op.a as usize);
    let raw = match width {
        Width::W32 => u64::from((v as f32).to_bits()),
        _ => v.to_bits(),
    };
    tryh!(cx, pc, write_mem(cx.mem, addr, width.bytes(), raw));
    u64::from(pc) + 1
}

fn h_vec_load(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let vb = cx.vb;
    tryh!(cx, pc, check_range(cx.mem, addr, vb as u64));
    let d = op.a as usize;
    cx.vec[d..d + vb].copy_from_slice(&cx.mem[addr as usize..addr as usize + vb]);
    u64::from(pc) + 1
}

fn h_vec_store(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let vb = cx.vb;
    tryh!(cx, pc, check_range(cx.mem, addr, vb as u64));
    let s = op.a as usize;
    cx.mem[addr as usize..addr as usize + vb].copy_from_slice(&cx.vec[s..s + vb]);
    u64::from(pc) + 1
}

fn h_vec_splat_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    let (d, vb, elem) = (op.a as usize, cx.vb, wfrom(op.d));
    let reg = &mut cx.vec[d..d + vb];
    for lane in 0..op.e as usize {
        write_lane_int(reg, lane, elem, v);
    }
    u64::from(pc) + 1
}

fn h_vec_splat_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.float_at(op.b as usize);
    let (d, vb, elem) = (op.a as usize, cx.vb, wfrom(op.d));
    let reg = &mut cx.vec[d..d + vb];
    for lane in 0..op.e as usize {
        write_lane_float(reg, lane, elem, v);
    }
    u64::from(pc) + 1
}

fn h_vec_int_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (d, l, r, vb) = (op.a as usize, op.b as usize, op.c as usize, cx.vb);
    let (alu_op, elem, signed) = (alu_from(op.d), wfrom(op.d >> 4), op.d & (1 << 6) != 0);
    for lane in 0..op.e as usize {
        let x = read_lane_int(&cx.vec[l..l + vb], lane, elem, signed);
        let y = read_lane_int(&cx.vec[r..r + vb], lane, elem, signed);
        let v = tryh!(cx, pc, alu(alu_op, elem, signed, x, y));
        write_lane_int(&mut cx.vec[d..d + vb], lane, elem, v);
    }
    u64::from(pc) + 1
}

fn h_vec_float_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (d, l, r, vb) = (op.a as usize, op.b as usize, op.c as usize, cx.vb);
    let (fpu_op, elem, double) = (fpu_from(op.d), wfrom(op.d >> 3), op.d & (1 << 5) != 0);
    for lane in 0..op.e as usize {
        let x = read_lane_float(&cx.vec[l..l + vb], lane, elem);
        let y = read_lane_float(&cx.vec[r..r + vb], lane, elem);
        let v = fpu(fpu_op, double, x, y);
        write_lane_float(&mut cx.vec[d..d + vb], lane, elem, v);
    }
    u64::from(pc) + 1
}

fn h_vec_reduce_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (s, vb) = (op.b as usize, cx.vb);
    let (red, elem, signed) = (red_from(op.d), wfrom(op.d >> 2), op.d & (1 << 4) != 0);
    let reg = &cx.vec[s..s + vb];
    let mut acc = read_lane_int(reg, 0, elem, signed);
    for lane in 1..op.e as usize {
        let x = read_lane_int(reg, lane, elem, signed);
        acc = tryh!(
            cx,
            pc,
            match red {
                RedOp::Add => alu(AluOp::Add, elem, signed, acc, x),
                RedOp::Min => alu(AluOp::Min, elem, signed, acc, x),
                RedOp::Max => alu(AluOp::Max, elem, signed, acc, x),
            }
        );
    }
    cx.set_int(op.a as usize, acc);
    u64::from(pc) + 1
}

fn h_vec_reduce_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (s, vb) = (op.b as usize, cx.vb);
    let (red, elem) = (red_from(op.d), wfrom(op.d >> 2));
    let double = elem == Width::W64;
    let reg = &cx.vec[s..s + vb];
    let mut acc = read_lane_float(reg, 0, elem);
    for lane in 1..op.e as usize {
        let x = read_lane_float(reg, lane, elem);
        acc = match red {
            RedOp::Add => fpu(FpuOp::Add, double, acc, x),
            RedOp::Min => fpu(FpuOp::Min, double, acc, x),
            RedOp::Max => fpu(FpuOp::Max, double, acc, x),
        };
    }
    cx.set_float(op.a as usize, acc);
    u64::from(pc) + 1
}

fn h_spill_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let value = SlotValue::Int(cx.int_at(op.a as usize));
    tryh!(cx, pc, spill_into(cx, op.e, value));
    u64::from(pc) + 1
}

fn h_spill_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let value = SlotValue::Float(cx.float_at(op.a as usize));
    tryh!(cx, pc, spill_into(cx, op.e, value));
    u64::from(pc) + 1
}

fn h_spill_vec(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (s, vb) = (op.a as usize, cx.vb);
    tryh!(cx, pc, spill_into(cx, op.e, SlotValue::Vec));
    store_slot_vec(
        cx.slot_vec,
        cx.slots.len(),
        op.e as usize,
        &cx.vec[s..s + vb],
    );
    u64::from(pc) + 1
}

#[cold]
#[inline(never)]
fn bad_spill_slot(slot: u32) -> SimError {
    SimError::Trap(format!("spill to invalid slot {slot}"))
}

fn spill_into(cx: &mut ExecCtx<'_>, slot: u32, value: SlotValue) -> Result<(), SimError> {
    match cx.slots.get_mut(slot as usize) {
        Some(s) => {
            *s = value;
            Ok(())
        }
        None => Err(bad_spill_slot(slot)),
    }
}

fn h_reload_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    match cx.slots.get(op.e as usize) {
        Some(SlotValue::Int(v)) => {
            let v = *v;
            cx.set_int(op.a as usize, v);
        }
        other => {
            let e = reload_error(other, op.e);
            return fail(cx, e, pc);
        }
    }
    u64::from(pc) + 1
}

fn h_reload_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    match cx.slots.get(op.e as usize) {
        Some(SlotValue::Float(v)) => {
            let v = *v;
            cx.set_float(op.a as usize, v);
        }
        other => {
            let e = reload_error(other, op.e);
            return fail(cx, e, pc);
        }
    }
    u64::from(pc) + 1
}

fn h_reload_vec(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (d, vb) = (op.a as usize, cx.vb);
    match cx.slots.get(op.e as usize) {
        Some(SlotValue::Vec) => {
            // A `Vec` tag is only ever written by `h_spill_vec` during this
            // call, after it sized `slot_vec` to cover every slot.
            let at = op.e as usize * vb;
            cx.vec[d..d + vb].copy_from_slice(&cx.slot_vec[at..at + vb]);
        }
        other => {
            let e = reload_error(other, op.e);
            return fail(cx, e, pc);
        }
    }
    u64::from(pc) + 1
}

#[cold]
#[inline(never)]
fn reload_error(value: Option<&SlotValue>, slot: u32) -> SimError {
    match value {
        None => SimError::Trap(format!("reload from invalid slot {slot}")),
        Some(SlotValue::Empty) => SimError::Trap(format!("reload of uninitialized slot {slot}")),
        Some(_) => SimError::Trap(format!("reload class mismatch for slot {slot}")),
    }
}

fn h_jump(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    // Fully static: the jump's cycles and branch count ride the region
    // prepayment; only the next region's entry charge is dynamic.
    enter(cx, op.e)
}

fn h_branch_nz(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    let taken = cx.int_at(op.a as usize) != 0;
    // imm packs the taken (low 32) and not-taken (high 32) cycle charges.
    let charges = op.imm as u64;
    let (target, cycles) = if taken {
        (op.e, charges & 0xffff_ffff)
    } else {
        (op.f, charges >> 32)
    };
    cx.stats.cycles += cycles;
    enter(cx, target)
}

fn h_call(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let f = cx.f;
    let CallSite::Known {
        callee,
        args,
        ret,
        after,
    } = &f.calls[op.e as usize]
    else {
        unreachable!("call record must reference a known call site")
    };
    let mut argv = cx.pool.take_argv();
    for &(class, idx) in args.iter() {
        argv.push(match class {
            RegClass::Int => MachineValue::Int(cx.int_at(idx)),
            RegClass::Float => MachineValue::Float(cx.float_at(idx)),
            RegClass::Vec => {
                return fail(
                    cx,
                    SimError::Trap("vector call arguments are unsupported".into()),
                    pc,
                );
            }
        });
    }
    cx.stats.cycles += u64::from(op.f);
    // The threaded stream is only built under flat timing (region prepayment
    // sums static charges), so the nested call charges flat too.
    let out = tryh!(
        cx,
        pc,
        cx.prog.exec(
            *callee,
            &argv,
            cx.mem,
            cx.pool,
            cx.fuel,
            cx.depth + 1,
            cx.stats,
            &mut crate::timing::FlatCost,
        )
    );
    cx.pool.give_argv(argv);
    if let Some((class, idx)) = *ret {
        match (class, out) {
            (RegClass::Int, Some(MachineValue::Int(v))) => cx.set_int(idx, v),
            (RegClass::Float, Some(MachineValue::Float(v))) => cx.set_float(idx, v),
            _ => {
                let e = SimError::Trap(format!(
                    "call to {} did not produce the expected value",
                    cx.prog.functions[*callee].name
                ));
                return fail(cx, e, pc);
            }
        }
    }
    enter(cx, *after)
}

fn h_call_unknown(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let f = cx.f;
    let CallSite::Unknown(name) = &f.calls[op.e as usize] else {
        unreachable!("unknown-call record must reference an unknown call site")
    };
    fail(cx, SimError::UnknownFunction(name.to_string()), pc)
}

fn h_ret_none(_op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.ret = None;
    FLOW_RET
}

fn h_ret_int(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.ret = Some(MachineValue::Int(cx.int_at(op.a as usize)));
    FLOW_RET
}

fn h_ret_float(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.ret = Some(MachineValue::Float(cx.float_at(op.a as usize)));
    FLOW_RET
}

fn h_ret_vec(_op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // The legacy walk charges the move *before* noticing the bad class, so
    // the statically prepaid cycles stand (this record's fixup refunds
    // nothing for them).
    fail(
        cx,
        SimError::Trap("vector return values are unsupported".into()),
        pc,
    )
}

fn h_fell_off(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // Fuel stays consumed but the failed fetch is not a retired instruction;
    // the fixup table (always 1 for this record) uncounts it.
    let e = SimError::Trap(format!(
        "fell off the end of block {} in {}",
        op.e, cx.f.name
    ));
    fail(cx, e, pc)
}

// --- fused macro-ops -------------------------------------------------------

fn h_cmp_branch_int(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    let a = cx.int_at(op.b as usize);
    let b = cx.int_at(op.c as usize);
    let (pred, width, signed) = (pred_from(op.d), wfrom(op.d >> 3), op.d & (1 << 5) != 0);
    let t = int_compare(pred, width, signed, a, b);
    // The compare destination is still written: code on either branch path
    // (or a later block) may read it.
    cx.set_int(op.a as usize, t);
    let charges = op.imm as u64;
    let (target, cycles) = if t != 0 {
        (op.e, charges & 0xffff_ffff)
    } else {
        (op.f, charges >> 32)
    };
    cx.stats.cycles += cycles;
    enter(cx, target)
}

fn h_cmp_branch_float(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    let a = cx.float_at(op.b as usize);
    let b = cx.float_at(op.c as usize);
    let (pred, double) = (pred_from(op.d), op.d & (1 << 3) != 0);
    let t = float_compare(pred, double, a, b);
    cx.set_int(op.a as usize, t);
    let charges = op.imm as u64;
    let (target, cycles) = if t != 0 {
        (op.e, charges & 0xffff_ffff)
    } else {
        (op.f, charges >> 32)
    };
    cx.stats.cycles += cycles;
    enter(cx, target)
}

fn h_load_int_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // Constituent 1: the load (the only part that can trap).
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let flags = (op.e >> 16) as u16;
    let (lw, ls) = (wfrom(flags), flags & (1 << 2) != 0);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, lw.bytes()));
    let loaded = normalize(lw, ls, raw as i64);
    cx.set_int(op.a as usize, loaded);
    // Constituent 2: the ALU op, reading its inputs *after* the load wrote
    // its destination (so `lhs`/`rhs` may be the loaded register).
    let (aop, aw, asg) = (
        alu_from(flags >> 3),
        wfrom(flags >> 7),
        flags & (1 << 9) != 0,
    );
    let x = cx.int_at(op.c as usize);
    let y = cx.int_at(op.d as usize);
    let v = tryh!(cx, pc, alu(aop, aw, asg, x, y));
    cx.set_int((op.e & 0xffff) as usize, v);
    u64::from(pc) + 1
}

fn h_load_float_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let flags = (op.e >> 16) as u16;
    let lw = wfrom(flags);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, lw.bytes()));
    cx.set_float(
        op.a as usize,
        match lw {
            Width::W32 => f64::from(f32::from_bits(raw as u32)),
            _ => f64::from_bits(raw),
        },
    );
    let (fop, double) = (fpu_from(flags >> 2), flags & (1 << 5) != 0);
    let x = cx.float_at(op.c as usize);
    let y = cx.float_at(op.d as usize);
    cx.set_float((op.e & 0xffff) as usize, fpu(fop, double, x, y));
    u64::from(pc) + 1
}

fn h_indvar3(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let flags = op.imm as u16;
    let (aw, asg) = (wfrom(flags), flags & (1 << 2) != 0);
    let (pred, cw, csg) = (
        pred_from(flags >> 3),
        wfrom(flags >> 6),
        flags & (1 << 8) != 0,
    );
    // add i, i, s
    let iv = cx.int_at(op.a as usize);
    let sv = cx.int_at(op.b as usize);
    let stepped = tryh!(cx, pc, alu(AluOp::Add, aw, asg, iv, sv));
    cx.set_int(op.a as usize, stepped);
    // cmp t, i, n  (reads happen after the add retires, like the metered loop)
    let nv = cx.int_at(op.c as usize);
    let t = int_compare(pred, cw, csg, stepped, nv);
    cx.set_int(op.d as usize, t);
    // bnz t
    let cost = &cx.prog.cost;
    cx.stats.cycles += if t != 0 {
        cost.branch_taken
    } else {
        cost.branch_not_taken
    };
    enter(cx, if t != 0 { op.e } else { op.f })
}

fn h_indvar4(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let flags = (op.imm >> 16) as u16;
    let (aw, asg) = (wfrom(flags), flags & (1 << 2) != 0);
    let (pred, cw, csg) = (
        pred_from(flags >> 3),
        wfrom(flags >> 6),
        flags & (1 << 8) != 0,
    );
    let t_reg = (op.imm & 0xffff) as usize;
    // add tmp, i, s
    let iv = cx.int_at(op.b as usize);
    let sv = cx.int_at(op.c as usize);
    let stepped = tryh!(cx, pc, alu(AluOp::Add, aw, asg, iv, sv));
    cx.set_int(op.a as usize, stepped);
    // mov i, tmp
    cx.set_int(op.b as usize, stepped);
    // cmp t, i, n  (n read after both writes, like the metered loop)
    let nv = cx.int_at(op.d as usize);
    let t = int_compare(pred, cw, csg, stepped, nv);
    cx.set_int(t_reg, t);
    // bnz t
    let cost = &cx.prog.cost;
    cx.stats.cycles += if t != 0 {
        cost.branch_taken
    } else {
        cost.branch_not_taken
    };
    enter(cx, if t != 0 { op.e } else { op.f })
}

// --- adjacent-record pairing -----------------------------------------------
//
// The catalogue above fuses *shapes* (a compare feeding a branch, a load
// feeding an ALU op). Register-starved lowerings — exactly what the split
// register allocator produces — are instead dominated by glue the catalogue
// never matches: `Imm`/`Reload`/`Spill`/`IntResize` traffic around every ALU
// op. The pairing sweep attacks the dispatch count directly: any two
// adjacent records of pairable kinds are welded by swapping the first one's
// handler for a combined handler that executes both records and tells the
// loop to advance past the pair. Because each constituent keeps its own
// record (the combined handler reads the partner at `op + 1`), there is no
// operand re-packing, any kind can pair with any kind, and a trap in either
// constituent resolves through that record's own fixup — so pairing is
// invisible to `SimStats`.

/// Pairable record kinds: indexes into [`base`] and the [`PAIRS`] table.
/// Kinds below [`NFIRST`] are straight-line (they fall through, so they can
/// *open* a pair); the control kinds after them can only *close* one — which
/// is exactly where the enclosing straight-line run ends.
const K_IMM: u8 = 0;
const K_MOV_INT: u8 = 1;
const K_INT_OP: u8 = 2;
const K_INT_RESIZE: u8 = 3;
const K_INT_CMP: u8 = 4;
const K_LOAD_INT: u8 = 5;
const K_STORE_INT: u8 = 6;
const K_SPILL_INT: u8 = 7;
const K_RELOAD_INT: u8 = 8;
const K_FIMM: u8 = 9;
const K_MOV_FLOAT: u8 = 10;
const K_FLOAT_OP: u8 = 11;
const K_LOAD_FLOAT: u8 = 12;
const K_STORE_FLOAT: u8 = 13;
const K_SPILL_FLOAT: u8 = 14;
const K_RELOAD_FLOAT: u8 = 15;
const K_CMP_BRANCH_INT: u8 = 16;
const K_CMP_BRANCH_FLOAT: u8 = 17;
const K_BRANCH_NZ: u8 = 18;
const K_JUMP: u8 = 19;
const K_RET_NONE: u8 = 20;
const K_RET_INT: u8 = 21;
const K_RET_FLOAT: u8 = 22;
/// Not pairable (calls, vector ops, rare shapes).
const K_NONE: u8 = u8::MAX;
/// Kinds `0..NFIRST` may open a pair.
const NFIRST: usize = 16;
/// Kinds `0..NSECOND` may close a pair.
const NSECOND: usize = 23;

/// The base handler for a pairable kind. `const` so the combined handlers
/// below resolve their constituents at compile time: inside `h_pair` the
/// inline-const call target is a literal fn pointer, which the optimizer
/// turns into a direct (and then inlined) call — pairing would be a
/// pessimization if the constituents stayed behind indirect calls.
const fn base(k: usize) -> Handler {
    match k {
        0 => h_imm,
        1 => h_mov_int,
        2 => h_int_op,
        3 => h_int_resize,
        4 => h_int_cmp,
        5 => h_load_int,
        6 => h_store_int,
        7 => h_spill_int,
        8 => h_reload_int,
        9 => h_fimm,
        10 => h_mov_float,
        11 => h_float_op,
        12 => h_load_float,
        13 => h_store_float,
        14 => h_spill_float,
        15 => h_reload_float,
        16 => h_cmp_branch_int,
        17 => h_cmp_branch_float,
        18 => h_branch_nz,
        19 => h_jump,
        20 => h_ret_none,
        21 => h_ret_int,
        _ => h_ret_float,
    }
}

/// The combined handler for a pair of kinds `A` then `B`: run the opener on
/// this record, then the closer on the partner record, with both constituent
/// bodies inlined into one function.
fn h_pair<const A: usize, const B: usize>(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let r = (const { base(A) })(op, cx, pc);
    if r != u64::from(pc) + 1 {
        // The opener trapped (openers are straight-line kinds, so the only
        // other outcome is `FLOW_ERR` at the opener itself).
        return r;
    }
    // SAFETY: the pair sweep only rewrites a record whose immediate
    // successor is its partner in the same straight-line run, so `op` is
    // never the stream's last record. The partner runs under its own pc, so
    // any outcome it reports — fall-through, branch target, trap fixup —
    // is already absolute and flows straight back to the dispatch loop.
    let partner = unsafe { &*std::ptr::from_ref(op).add(1) };
    (const { base(B) })(partner, cx, pc + 1)
}

macro_rules! pair_row {
    ($a:expr) => {
        [
            h_pair::<$a, 0>,
            h_pair::<$a, 1>,
            h_pair::<$a, 2>,
            h_pair::<$a, 3>,
            h_pair::<$a, 4>,
            h_pair::<$a, 5>,
            h_pair::<$a, 6>,
            h_pair::<$a, 7>,
            h_pair::<$a, 8>,
            h_pair::<$a, 9>,
            h_pair::<$a, 10>,
            h_pair::<$a, 11>,
            h_pair::<$a, 12>,
            h_pair::<$a, 13>,
            h_pair::<$a, 14>,
            h_pair::<$a, 15>,
            h_pair::<$a, 16>,
            h_pair::<$a, 17>,
            h_pair::<$a, 18>,
            h_pair::<$a, 19>,
            h_pair::<$a, 20>,
            h_pair::<$a, 21>,
            h_pair::<$a, 22>,
        ]
    };
}

/// Every combined pair handler, indexed `[opener kind][closer kind]`.
static PAIRS: [[Handler; NSECOND]; NFIRST] = [
    pair_row!(0),
    pair_row!(1),
    pair_row!(2),
    pair_row!(3),
    pair_row!(4),
    pair_row!(5),
    pair_row!(6),
    pair_row!(7),
    pair_row!(8),
    pair_row!(9),
    pair_row!(10),
    pair_row!(11),
    pair_row!(12),
    pair_row!(13),
    pair_row!(14),
    pair_row!(15),
];

/// The combined handler for a triple of kinds `A`, `B`, then `C`, welding a
/// three-record stretch into one dispatch round-trip.
fn h_triple<const A: usize, const B: usize, const C: usize>(
    op: &OpRecord,
    cx: &mut ExecCtx<'_>,
    pc: u32,
) -> u64 {
    let r = (const { base(A) })(op, cx, pc);
    if r != u64::from(pc) + 1 {
        return r;
    }
    // SAFETY: the weld sweep only builds a triple whose two partner records
    // follow the opener inside the same straight-line run (see `h_pair`).
    let second = unsafe { &*std::ptr::from_ref(op).add(1) };
    let r = (const { base(B) })(second, cx, pc + 1);
    if r != u64::from(pc) + 2 {
        return r;
    }
    let third = unsafe { &*std::ptr::from_ref(op).add(2) };
    (const { base(C) })(third, cx, pc + 2)
}

// The triple combination table is restricted to the integer straight-line
// kinds (plus the two run closers that dominate integer loops) to keep the
// number of monomorphized combinations in check: 8 × 8 × 10. Stretches the
// table misses still weld as pairs.

macro_rules! triple_c {
    ($a:expr, $b:expr) => {
        [
            h_triple::<$a, $b, 0>,  // Imm
            h_triple::<$a, $b, 1>,  // MovInt
            h_triple::<$a, $b, 2>,  // IntOp
            h_triple::<$a, $b, 3>,  // IntResize
            h_triple::<$a, $b, 5>,  // LoadInt
            h_triple::<$a, $b, 6>,  // StoreInt
            h_triple::<$a, $b, 7>,  // SpillInt
            h_triple::<$a, $b, 8>,  // ReloadInt
            h_triple::<$a, $b, 16>, // CmpBranchInt
            h_triple::<$a, $b, 19>, // Jump
        ]
    };
}

macro_rules! triple_b {
    ($a:expr) => {
        [
            triple_c!($a, 0),
            triple_c!($a, 1),
            triple_c!($a, 2),
            triple_c!($a, 3),
            triple_c!($a, 5),
            triple_c!($a, 6),
            triple_c!($a, 7),
            triple_c!($a, 8),
        ]
    };
}

/// Every combined triple handler, indexed by the compact positions from
/// [`tri_open`] (first two) and [`tri_close`] (third).
static TRIPLES: [[[Handler; 10]; 8]; 8] = [
    triple_b!(0),
    triple_b!(1),
    triple_b!(2),
    triple_b!(3),
    triple_b!(5),
    triple_b!(6),
    triple_b!(7),
    triple_b!(8),
];

/// Compact [`TRIPLES`] position of a kind usable in a triple's first or
/// second slot.
fn tri_open(k: u8) -> Option<usize> {
    match k {
        K_IMM => Some(0),
        K_MOV_INT => Some(1),
        K_INT_OP => Some(2),
        K_INT_RESIZE => Some(3),
        K_LOAD_INT => Some(4),
        K_STORE_INT => Some(5),
        K_SPILL_INT => Some(6),
        K_RELOAD_INT => Some(7),
        _ => None,
    }
}

/// Compact [`TRIPLES`] position of a kind usable in a triple's third slot.
fn tri_close(k: u8) -> Option<usize> {
    match k {
        K_CMP_BRANCH_INT => Some(8),
        K_JUMP => Some(9),
        _ => tri_open(k),
    }
}

/// Pairable kind of one 1:1-lowered enum instruction ([`K_NONE`] when the
/// record cannot take part in a pair).
fn pair_kind(inst: &PInst) -> u8 {
    match inst {
        PInst::Imm { .. } => K_IMM,
        PInst::MovInt { .. } => K_MOV_INT,
        PInst::IntOp { .. } => K_INT_OP,
        PInst::IntResize { .. } => K_INT_RESIZE,
        PInst::IntCmp { .. } => K_INT_CMP,
        PInst::LoadInt { .. } => K_LOAD_INT,
        PInst::StoreInt { .. } => K_STORE_INT,
        PInst::SpillInt { .. } => K_SPILL_INT,
        PInst::Reload {
            class: RegClass::Int,
            ..
        } => K_RELOAD_INT,
        PInst::FImm { .. } => K_FIMM,
        PInst::MovFloat { .. } => K_MOV_FLOAT,
        PInst::FloatOp { .. } => K_FLOAT_OP,
        PInst::LoadFloat { .. } => K_LOAD_FLOAT,
        PInst::StoreFloat { .. } => K_STORE_FLOAT,
        PInst::SpillFloat { .. } => K_SPILL_FLOAT,
        PInst::Reload {
            class: RegClass::Float,
            ..
        } => K_RELOAD_FLOAT,
        PInst::BranchNz { .. } => K_BRANCH_NZ,
        PInst::Jump { .. } => K_JUMP,
        PInst::Ret { value: None } => K_RET_NONE,
        PInst::Ret {
            value: Some((RegClass::Int, _)),
        } => K_RET_INT,
        PInst::Ret {
            value: Some((RegClass::Float, _)),
        } => K_RET_FLOAT,
        _ => K_NONE,
    }
}

// ---------------------------------------------------------------------------
// Prepare-time lowering: enum stream -> threaded stream.
// ---------------------------------------------------------------------------

/// Straight-line role of one record, driving the region/fixup pass.
enum End {
    /// Falls through.
    Normal,
    /// Ends its region (branch, return, unknown call).
    Control,
    /// Ends its region and opens the after-call region at this target index.
    Call(u32),
    /// Ends its region; the failed fetch is not a retired instruction.
    FellOff,
}

fn c32(v: u64) -> u32 {
    debug_assert!(v <= u64::from(u32::MAX));
    v as u32
}

/// The statically-known `SimStats` contribution of one enum instruction,
/// mirroring the metered loop's charge table exactly. Conditional branches
/// contribute only their branch *count* (the taken/not-taken cycles depend
/// on the outcome), and calls contribute nothing (their cycles are charged
/// dynamically because the argv build can trap before the legacy walk
/// charges them). Fused records charge the sum of their constituents.
fn static_stats(inst: &PInst, cost: &CostModel) -> StaticStats {
    let mut s = StaticStats::default();
    match inst {
        PInst::Imm { .. }
        | PInst::FImm { .. }
        | PInst::MovInt { .. }
        | PInst::MovFloat { .. }
        | PInst::MovVec { .. }
        | PInst::SelectInt { .. }
        | PInst::SelectFloat { .. }
        | PInst::SelectVec { .. }
        | PInst::Ret { .. } => s.cycles = cost.mov,
        PInst::IntOp { cost: c, .. } | PInst::FloatOp { cost: c, .. } => s.cycles = *c,
        PInst::IntNeg { .. }
        | PInst::IntNot { .. }
        | PInst::IntCmp { .. }
        | PInst::IntResize { .. } => s.cycles = cost.int_op,
        PInst::FloatNeg { .. } | PInst::FloatCmp { .. } => s.cycles = cost.fp_add,
        PInst::IntToFloat { .. } | PInst::FloatToInt { .. } | PInst::FloatCvt { .. } => {
            s.cycles = cost.convert;
        }
        PInst::LoadInt { .. } | PInst::LoadFloat { .. } => {
            s.cycles = cost.load;
            s.loads = 1;
        }
        PInst::StoreInt { .. } | PInst::StoreFloat { .. } => {
            s.cycles = cost.store;
            s.stores = 1;
        }
        PInst::VecLoad { .. } => {
            s.cycles = cost.vec_load;
            s.loads = 1;
            s.vector_ops = 1;
        }
        PInst::VecStore { .. } => {
            s.cycles = cost.vec_store;
            s.stores = 1;
            s.vector_ops = 1;
        }
        PInst::VecSplatInt { .. }
        | PInst::VecSplatFloat { .. }
        | PInst::VecIntOp { .. }
        | PInst::VecFloatOp { .. } => {
            s.cycles = cost.vec_op;
            s.vector_ops = 1;
        }
        PInst::VecReduceInt { .. } | PInst::VecReduceFloat { .. } => {
            s.cycles = cost.vec_reduce;
            s.vector_ops = 1;
        }
        PInst::SpillInt { .. } | PInst::SpillFloat { .. } | PInst::SpillVec { .. } => {
            s.cycles = cost.spill_store;
            s.spill_stores = 1;
        }
        PInst::Reload { .. } => {
            s.cycles = cost.spill_load;
            s.spill_reloads = 1;
        }
        PInst::Jump { .. } => {
            s.cycles = cost.branch_taken;
            s.branches = 1;
        }
        PInst::BranchNz { .. } => s.branches = 1,
        PInst::Call(_) | PInst::CallUnknown { .. } | PInst::FellOff { .. } => {}
    }
    s
}

/// Pack the taken (low 32) / not-taken (high 32) cycle charges of a branch.
fn pack_branch_charges(taken: u64, not_taken: u64) -> i64 {
    ((u64::from(c32(not_taken)) << 32) | u64::from(c32(taken))) as i64
}

fn rec(handler: Handler) -> OpRecord {
    OpRecord {
        handler,
        imm: 0,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        e: 0,
        f: 0,
    }
}

/// Lower the prepared enum stream of `pf` to a threaded dispatch stream:
/// fuse macro-ops (when `fuse`), emit packed records, and resolve per-region
/// fuel/instruction charges and per-op trap fixups. Requires the prepare-time
/// packing guard ([`costs_fit_u32`] + vector file ≤ 64 KiB) to have passed.
#[allow(clippy::too_many_lines)]
pub(crate) fn build_threaded(
    pf: &mut PreparedFunction,
    cost: &CostModel,
    fuse: bool,
    fusion: &mut FusionStats,
) {
    let nblocks = pf.block_offsets.len();
    let code_len = pf.code.len() as u32;
    let mut targets: Vec<BlockTarget> = pf
        .block_offsets
        .iter()
        .map(|&o| BlockTarget {
            ops_pc: 0,
            enum_pc: o,
            charge: 0,
            stat: StaticStats::default(),
        })
        .collect();
    let mut calls: Vec<CallSite> = Vec::new();
    let mut ops: Vec<OpRecord> = Vec::new();
    let mut meta: Vec<OpMeta> = Vec::new();
    let mut ends: Vec<End> = Vec::new();
    // Per-record static stats, and the slice of them the legacy walk charges
    // *before* the record's own trap point (only `Ret`, whose move retires
    // before the vector-class check can trap).
    let mut stat: Vec<StaticStats> = Vec::new();
    let mut precharged: Vec<u64> = Vec::new();
    // Per-record pairable kind, consumed by the pairing sweep below.
    let mut kinds: Vec<u8> = Vec::new();

    {
        let code = &pf.code;
        let block_offsets = &pf.block_offsets;
        // Branch targets were resolved to block-start enum offsets during
        // preparation; map them back to dense block (= region) indexes.
        let bidx = |enum_off: u32| -> u32 {
            block_offsets
                .binary_search(&enum_off)
                .expect("branch target is a block start") as u32
        };

        for bi in 0..nblocks {
            let start = block_offsets[bi];
            let end = if bi + 1 < nblocks {
                block_offsets[bi + 1]
            } else {
                code_len
            };
            targets[bi].ops_pc = ops.len() as u32;
            let mut p = start;
            while p < end {
                let pi = p as usize;
                let avail = (end - p) as usize;
                let mut fused_len = 0u8;
                if fuse {
                    if let Some((record, len, kind, end_kind)) =
                        try_fuse(code, pi, avail, cost, &bidx)
                    {
                        match kind {
                            FuseKind::CmpBranchInt | FuseKind::CmpBranchFloat => {
                                fusion.cmp_branch += 1;
                            }
                            FuseKind::LoadIntOp | FuseKind::LoadFloatOp => fusion.load_op += 1,
                            FuseKind::IndVar3 | FuseKind::IndVar4 => fusion.indvar += 1,
                            FuseKind::None => unreachable!(),
                        }
                        ops.push(record);
                        meta.push(OpMeta {
                            enum_pc: p,
                            len,
                            fused: kind,
                            welded: 0,
                        });
                        ends.push(end_kind);
                        let mut fs = StaticStats::default();
                        for c in &code[pi..pi + len as usize] {
                            fs.add(&static_stats(c, cost));
                        }
                        stat.push(fs);
                        precharged.push(0);
                        kinds.push(match kind {
                            FuseKind::CmpBranchInt => K_CMP_BRANCH_INT,
                            FuseKind::CmpBranchFloat => K_CMP_BRANCH_FLOAT,
                            _ => K_NONE,
                        });
                        fused_len = len;
                    }
                }
                if fused_len > 0 {
                    p += u32::from(fused_len);
                    continue;
                }
                match &code[pi] {
                    PInst::Call(call) => {
                        let site = calls.len() as u32;
                        let after = targets.len() as u32;
                        calls.push(CallSite::Known {
                            callee: call.callee,
                            args: call.args.clone(),
                            ret: call.ret,
                            after,
                        });
                        let mut r = rec(h_call);
                        r.e = site;
                        r.f = c32(cost.call);
                        ops.push(r);
                        meta.push(OpMeta {
                            enum_pc: p,
                            len: 1,
                            fused: FuseKind::None,
                            welded: 0,
                        });
                        ends.push(End::Call(after));
                        stat.push(StaticStats::default());
                        precharged.push(0);
                        kinds.push(K_NONE);
                        targets.push(BlockTarget {
                            ops_pc: ops.len() as u32,
                            enum_pc: p + 1,
                            charge: 0,
                            stat: StaticStats::default(),
                        });
                    }
                    PInst::CallUnknown { name } => {
                        let site = calls.len() as u32;
                        calls.push(CallSite::Unknown(name.clone()));
                        let mut r = rec(h_call_unknown);
                        r.e = site;
                        ops.push(r);
                        meta.push(OpMeta {
                            enum_pc: p,
                            len: 1,
                            fused: FuseKind::None,
                            welded: 0,
                        });
                        ends.push(End::Control);
                        stat.push(StaticStats::default());
                        precharged.push(0);
                        kinds.push(K_NONE);
                    }
                    inst => {
                        let (record, end_kind) = lower_single(inst, cost, &bidx);
                        ops.push(record);
                        meta.push(OpMeta {
                            enum_pc: p,
                            len: 1,
                            fused: FuseKind::None,
                            welded: 0,
                        });
                        ends.push(end_kind);
                        stat.push(static_stats(inst, cost));
                        precharged.push(if matches!(inst, PInst::Ret { .. }) {
                            cost.mov
                        } else {
                            0
                        });
                        kinds.push(pair_kind(inst));
                    }
                }
                p += 1;
            }
        }
    }

    // Region pass: every straight-line run from a region entry through its
    // closing control op gets its source-instruction count and its static
    // counter sum as the entry's prepaid charge, and every record a
    // trap-path fixup for all of them.
    let mut fixup = vec![FixupRec::default(); ops.len()];
    for bi in 0..nblocks {
        let first = targets[bi].ops_pc as usize;
        let last = if bi + 1 < nblocks {
            targets[bi + 1].ops_pc as usize
        } else {
            ops.len()
        };
        let mut pending = Some(bi);
        let mut insts = 0u32;
        let mut sum = StaticStats::default();
        let mut run_start = first;
        for j in first..last {
            insts += u32::from(meta[j].len);
            sum.add(&stat[j]);
            if matches!(ends[j], End::Normal) {
                continue;
            }
            // Close the region: a record that traps has retired its first
            // source instruction (which the legacy walk counts) but none
            // after it — except FellOff, whose failed fetch is not retired —
            // and none of its own charge-after-success counters, except the
            // precharged slice (a vector `Ret` charges its move first).
            let mut before_insts = 0u32;
            let mut before = StaticStats::default();
            for k in run_start..=j {
                fixup[k] = FixupRec {
                    instructions: if matches!(ends[k], End::FellOff) {
                        insts - before_insts
                    } else {
                        insts - before_insts - 1
                    },
                    stat: StaticStats {
                        cycles: sum.cycles - before.cycles - precharged[k],
                        loads: sum.loads - before.loads,
                        stores: sum.stores - before.stores,
                        spill_stores: sum.spill_stores - before.spill_stores,
                        spill_reloads: sum.spill_reloads - before.spill_reloads,
                        vector_ops: sum.vector_ops - before.vector_ops,
                        branches: sum.branches - before.branches,
                    },
                };
                before_insts += u32::from(meta[k].len);
                before.add(&stat[k]);
            }
            if let Some(t) = pending {
                targets[t].charge = insts;
                targets[t].stat = sum;
            }
            // Welding sweep over the closed run: greedily weld a triple
            // when the combination table covers it, else a pair, else move
            // on. Only the opener's handler changes; jumps can't land inside
            // a run, so no entry point ever targets a consumed partner.
            if fuse {
                let mut k = run_start;
                while k < j {
                    let a = kinds[k] as usize;
                    if a >= NFIRST {
                        k += 1;
                        continue;
                    }
                    if k + 2 <= j {
                        if let (Some(x), Some(y), Some(z)) = (
                            tri_open(kinds[k]),
                            tri_open(kinds[k + 1]),
                            tri_close(kinds[k + 2]),
                        ) {
                            ops[k].handler = TRIPLES[x][y][z];
                            meta[k].welded = 3;
                            fusion.triple += 1;
                            k += 3;
                            continue;
                        }
                    }
                    let b = kinds[k + 1] as usize;
                    if b < NSECOND {
                        ops[k].handler = PAIRS[a][b];
                        meta[k].welded = 2;
                        fusion.pair += 1;
                        k += 2;
                    } else {
                        k += 1;
                    }
                }
            }
            pending = match ends[j] {
                End::Call(after) => Some(after as usize),
                _ => None,
            };
            insts = 0;
            sum = StaticStats::default();
            run_start = j + 1;
        }
    }

    pf.ops = ops;
    pf.fixup = fixup;
    pf.meta = meta;
    pf.targets = targets;
    pf.calls = calls;
}

/// Try to fuse a macro-op starting at `code[pi]`, entirely within the
/// current block (`avail` instructions remain). Greedy, longest shape first.
/// Only the *first* constituent of any fused shape may trap (loads;
/// `Div`/`Rem` are excluded from load+op), so the single per-record fixup is
/// always exact.
fn try_fuse(
    code: &[PInst],
    pi: usize,
    avail: usize,
    cost: &CostModel,
    bidx: &impl Fn(u32) -> u32,
) -> Option<(OpRecord, u8, FuseKind, End)> {
    // indvar4: add tmp,i,s ; mov i,tmp ; cmp t,i,n ; bnz t
    if avail >= 4 {
        if let (
            PInst::IntOp {
                op: AluOp::Add,
                width: aw,
                signed: asg,
                dst: tmp,
                lhs: i,
                rhs: s,
                ..
            },
            PInst::MovInt { dst: md, src: ms },
            PInst::IntCmp {
                pred,
                width: cw,
                signed: csg,
                dst: t,
                lhs: cl,
                rhs: n,
            },
            PInst::BranchNz {
                cond,
                then_target,
                else_target,
            },
        ) = (&code[pi], &code[pi + 1], &code[pi + 2], &code[pi + 3])
        {
            if ms == tmp && md == i && cl == i && cond == t {
                let flags = wbits(*aw)
                    | u16::from(*asg) << 2
                    | pred_bits(*pred) << 3
                    | wbits(*cw) << 6
                    | u16::from(*csg) << 8;
                let mut r = rec(h_indvar4);
                r.a = *tmp as u16;
                r.b = *i as u16;
                r.c = *s as u16;
                r.d = *n as u16;
                r.imm = i64::from(*t as u16) | i64::from(flags) << 16;
                r.e = bidx(*then_target);
                r.f = bidx(*else_target);
                return Some((r, 4, FuseKind::IndVar4, End::Control));
            }
        }
    }
    // indvar3: add i,i,s ; cmp t,i,n ; bnz t
    if avail >= 3 {
        if let (
            PInst::IntOp {
                op: AluOp::Add,
                width: aw,
                signed: asg,
                dst,
                lhs,
                rhs: s,
                ..
            },
            PInst::IntCmp {
                pred,
                width: cw,
                signed: csg,
                dst: t,
                lhs: cl,
                rhs: n,
            },
            PInst::BranchNz {
                cond,
                then_target,
                else_target,
            },
        ) = (&code[pi], &code[pi + 1], &code[pi + 2])
        {
            if dst == lhs && cl == dst && cond == t {
                let flags = wbits(*aw)
                    | u16::from(*asg) << 2
                    | pred_bits(*pred) << 3
                    | wbits(*cw) << 6
                    | u16::from(*csg) << 8;
                let mut r = rec(h_indvar3);
                r.a = *dst as u16;
                r.b = *s as u16;
                r.c = *n as u16;
                r.d = *t as u16;
                r.imm = i64::from(flags);
                r.e = bidx(*then_target);
                r.f = bidx(*else_target);
                return Some((r, 3, FuseKind::IndVar3, End::Control));
            }
        }
    }
    if avail >= 2 {
        // load+op (int): the ALU op consumes the loaded value.
        if let (
            PInst::LoadInt {
                width: lw,
                signed: ls,
                dst: ld,
                base,
                offset,
            },
            PInst::IntOp {
                op,
                width: aw,
                signed: asg,
                dst: ad,
                lhs,
                rhs,
                cost: ac,
            },
        ) = (&code[pi], &code[pi + 1])
        {
            if !matches!(op, AluOp::Div | AluOp::Rem) && (lhs == ld || rhs == ld) {
                let flags = wbits(*lw)
                    | u16::from(*ls) << 2
                    | alu_bits(*op) << 3
                    | wbits(*aw) << 7
                    | u16::from(*asg) << 9;
                let mut r = rec(h_load_int_op);
                r.a = *ld as u16;
                r.b = *base as u16;
                r.c = *lhs as u16;
                r.d = *rhs as u16;
                r.e = ad | u32::from(flags) << 16;
                r.f = c32(cost.load + ac);
                r.imm = *offset;
                return Some((r, 2, FuseKind::LoadIntOp, End::Normal));
            }
        }
        // load+op (float): fp ops never trap, so all of them fuse.
        if let (
            PInst::LoadFloat {
                width: lw,
                dst: ld,
                base,
                offset,
            },
            PInst::FloatOp {
                op,
                double,
                dst: ad,
                lhs,
                rhs,
                cost: ac,
            },
        ) = (&code[pi], &code[pi + 1])
        {
            if lhs == ld || rhs == ld {
                let flags = wbits(*lw) | fpu_bits(*op) << 2 | u16::from(*double) << 5;
                let mut r = rec(h_load_float_op);
                r.a = *ld as u16;
                r.b = *base as u16;
                r.c = *lhs as u16;
                r.d = *rhs as u16;
                r.e = ad | u32::from(flags) << 16;
                r.f = c32(cost.load + ac);
                r.imm = *offset;
                return Some((r, 2, FuseKind::LoadFloatOp, End::Normal));
            }
        }
        // cmp+branch (int).
        if let (
            PInst::IntCmp {
                pred,
                width,
                signed,
                dst,
                lhs,
                rhs,
            },
            PInst::BranchNz {
                cond,
                then_target,
                else_target,
            },
        ) = (&code[pi], &code[pi + 1])
        {
            if cond == dst {
                let mut r = rec(h_cmp_branch_int);
                r.a = *dst as u16;
                r.b = *lhs as u16;
                r.c = *rhs as u16;
                r.d = pred_bits(*pred) | wbits(*width) << 3 | u16::from(*signed) << 5;
                r.e = bidx(*then_target);
                r.f = bidx(*else_target);
                r.imm = pack_branch_charges(cost.branch_taken, cost.branch_not_taken);
                return Some((r, 2, FuseKind::CmpBranchInt, End::Control));
            }
        }
        // cmp+branch (float).
        if let (
            PInst::FloatCmp {
                pred,
                double,
                dst,
                lhs,
                rhs,
            },
            PInst::BranchNz {
                cond,
                then_target,
                else_target,
            },
        ) = (&code[pi], &code[pi + 1])
        {
            if cond == dst {
                let mut r = rec(h_cmp_branch_float);
                r.a = *dst as u16;
                r.b = *lhs as u16;
                r.c = *rhs as u16;
                r.d = pred_bits(*pred) | u16::from(*double) << 3;
                r.e = bidx(*then_target);
                r.f = bidx(*else_target);
                r.imm = pack_branch_charges(cost.branch_taken, cost.branch_not_taken);
                return Some((r, 2, FuseKind::CmpBranchFloat, End::Control));
            }
        }
    }
    None
}

/// Lower one (non-call) enum instruction to its packed record.
#[allow(clippy::too_many_lines)]
fn lower_single(inst: &PInst, cost: &CostModel, bidx: &impl Fn(u32) -> u32) -> (OpRecord, End) {
    let mut end = End::Normal;
    let mut r;
    match inst {
        PInst::Imm { dst, value } => {
            r = rec(h_imm);
            r.a = *dst as u16;
            r.imm = *value;
            r.e = c32(cost.mov);
        }
        PInst::FImm { dst, value } => {
            r = rec(h_fimm);
            r.a = *dst as u16;
            r.imm = value.to_bits() as i64;
            r.e = c32(cost.mov);
        }
        PInst::MovInt { dst, src } => {
            r = rec(h_mov_int);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.e = c32(cost.mov);
        }
        PInst::MovFloat { dst, src } => {
            r = rec(h_mov_float);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.e = c32(cost.mov);
        }
        PInst::MovVec { dst, src } => {
            r = rec(h_mov_vec);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.e = c32(cost.mov);
        }
        PInst::IntOp {
            op,
            width,
            signed,
            dst,
            lhs,
            rhs,
            cost: c,
        } => {
            r = rec(h_int_op);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = alu_bits(*op) | wbits(*width) << 4 | u16::from(*signed) << 6;
            r.e = c32(*c);
        }
        PInst::FloatOp {
            op,
            double,
            dst,
            lhs,
            rhs,
            cost: c,
        } => {
            r = rec(h_float_op);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = fpu_bits(*op) | u16::from(*double) << 3;
            r.e = c32(*c);
        }
        PInst::IntNeg { width, dst, src } => {
            r = rec(h_int_neg);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*width);
            r.e = c32(cost.int_op);
        }
        PInst::IntNot { width, dst, src } => {
            r = rec(h_int_not);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*width);
            r.e = c32(cost.int_op);
        }
        PInst::FloatNeg { double, dst, src } => {
            r = rec(h_float_neg);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = u16::from(*double);
            r.e = c32(cost.fp_add);
        }
        PInst::IntCmp {
            pred,
            width,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            r = rec(h_int_cmp);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = pred_bits(*pred) | wbits(*width) << 3 | u16::from(*signed) << 5;
            r.e = c32(cost.int_op);
        }
        PInst::FloatCmp {
            pred,
            double,
            dst,
            lhs,
            rhs,
        } => {
            r = rec(h_float_cmp);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = pred_bits(*pred) | u16::from(*double) << 3;
            r.e = c32(cost.fp_add);
        }
        PInst::SelectInt {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            r = rec(h_select_int);
            r.a = *dst as u16;
            r.b = *cond as u16;
            r.c = *if_true as u16;
            r.d = *if_false as u16;
            r.e = c32(cost.mov);
        }
        PInst::SelectFloat {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            r = rec(h_select_float);
            r.a = *dst as u16;
            r.b = *cond as u16;
            r.c = *if_true as u16;
            r.d = *if_false as u16;
            r.e = c32(cost.mov);
        }
        PInst::SelectVec {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            r = rec(h_select_vec);
            r.a = *dst as u16;
            r.b = *cond as u16;
            r.c = *if_true as u16;
            r.d = *if_false as u16;
            r.e = c32(cost.mov);
        }
        PInst::IntToFloat {
            signed,
            double,
            dst,
            src,
        } => {
            r = rec(h_int_to_float);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = u16::from(*signed) | u16::from(*double) << 1;
            r.e = c32(cost.convert);
        }
        PInst::FloatToInt {
            width,
            signed,
            dst,
            src,
        } => {
            r = rec(h_float_to_int);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*width) | u16::from(*signed) << 2;
            r.e = c32(cost.convert);
        }
        PInst::FloatCvt {
            to_double,
            dst,
            src,
        } => {
            r = rec(h_float_cvt);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = u16::from(*to_double);
            r.e = c32(cost.convert);
        }
        PInst::IntResize {
            width,
            signed,
            dst,
            src,
        } => {
            r = rec(h_int_resize);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*width) | u16::from(*signed) << 2;
            r.e = c32(cost.int_op);
        }
        PInst::LoadInt {
            width,
            signed,
            dst,
            base,
            offset,
        } => {
            r = rec(h_load_int);
            r.a = *dst as u16;
            r.b = *base as u16;
            r.d = wbits(*width) | u16::from(*signed) << 2;
            r.e = c32(cost.load);
            r.imm = *offset;
        }
        PInst::LoadFloat {
            width,
            dst,
            base,
            offset,
        } => {
            r = rec(h_load_float);
            r.a = *dst as u16;
            r.b = *base as u16;
            r.d = wbits(*width);
            r.e = c32(cost.load);
            r.imm = *offset;
        }
        PInst::StoreInt {
            width,
            base,
            offset,
            src,
        } => {
            r = rec(h_store_int);
            r.a = *src as u16;
            r.b = *base as u16;
            r.d = wbits(*width);
            r.e = c32(cost.store);
            r.imm = *offset;
        }
        PInst::StoreFloat {
            width,
            base,
            offset,
            src,
        } => {
            r = rec(h_store_float);
            r.a = *src as u16;
            r.b = *base as u16;
            r.d = wbits(*width);
            r.e = c32(cost.store);
            r.imm = *offset;
        }
        PInst::VecLoad { dst, base, offset } => {
            r = rec(h_vec_load);
            r.a = *dst as u16;
            r.b = *base as u16;
            r.e = c32(cost.vec_load);
            r.imm = *offset;
        }
        PInst::VecStore { base, offset, src } => {
            r = rec(h_vec_store);
            r.a = *src as u16;
            r.b = *base as u16;
            r.e = c32(cost.vec_store);
            r.imm = *offset;
        }
        PInst::VecSplatInt {
            elem,
            lanes,
            dst,
            src,
        } => {
            r = rec(h_vec_splat_int);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*elem);
            r.e = *lanes;
            r.f = c32(cost.vec_op);
        }
        PInst::VecSplatFloat {
            elem,
            lanes,
            dst,
            src,
        } => {
            r = rec(h_vec_splat_float);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = wbits(*elem);
            r.e = *lanes;
            r.f = c32(cost.vec_op);
        }
        PInst::VecIntOp {
            op,
            elem,
            signed,
            lanes,
            dst,
            lhs,
            rhs,
        } => {
            r = rec(h_vec_int_op);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = alu_bits(*op) | wbits(*elem) << 4 | u16::from(*signed) << 6;
            r.e = *lanes;
            r.f = c32(cost.vec_op);
        }
        PInst::VecFloatOp {
            op,
            elem,
            double,
            lanes,
            dst,
            lhs,
            rhs,
        } => {
            r = rec(h_vec_float_op);
            r.a = *dst as u16;
            r.b = *lhs as u16;
            r.c = *rhs as u16;
            r.d = fpu_bits(*op) | wbits(*elem) << 3 | u16::from(*double) << 5;
            r.e = *lanes;
            r.f = c32(cost.vec_op);
        }
        PInst::VecReduceInt {
            op,
            elem,
            signed,
            lanes,
            dst,
            src,
        } => {
            r = rec(h_vec_reduce_int);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = red_bits(*op) | wbits(*elem) << 2 | u16::from(*signed) << 4;
            r.e = *lanes;
            r.f = c32(cost.vec_reduce);
        }
        PInst::VecReduceFloat {
            op,
            elem,
            lanes,
            dst,
            src,
        } => {
            r = rec(h_vec_reduce_float);
            r.a = *dst as u16;
            r.b = *src as u16;
            r.d = red_bits(*op) | wbits(*elem) << 2;
            r.e = *lanes;
            r.f = c32(cost.vec_reduce);
        }
        PInst::SpillInt { slot, src } => {
            r = rec(h_spill_int);
            r.a = *src as u16;
            r.e = *slot;
            r.f = c32(cost.spill_store);
        }
        PInst::SpillFloat { slot, src } => {
            r = rec(h_spill_float);
            r.a = *src as u16;
            r.e = *slot;
            r.f = c32(cost.spill_store);
        }
        PInst::SpillVec { slot, src } => {
            r = rec(h_spill_vec);
            r.a = *src as u16;
            r.e = *slot;
            r.f = c32(cost.spill_store);
        }
        PInst::Reload { slot, class, dst } => {
            r = rec(match class {
                RegClass::Int => h_reload_int,
                RegClass::Float => h_reload_float,
                RegClass::Vec => h_reload_vec,
            });
            r.a = *dst as u16;
            r.e = *slot;
            r.f = c32(cost.spill_load);
        }
        PInst::Jump { target } => {
            r = rec(h_jump);
            r.e = bidx(*target);
            r.f = c32(cost.branch_taken);
            end = End::Control;
        }
        PInst::BranchNz {
            cond,
            then_target,
            else_target,
        } => {
            r = rec(h_branch_nz);
            r.a = *cond as u16;
            r.e = bidx(*then_target);
            r.f = bidx(*else_target);
            r.imm = pack_branch_charges(cost.branch_taken, cost.branch_not_taken);
            end = End::Control;
        }
        PInst::Ret { value } => {
            r = match value {
                None => rec(h_ret_none),
                Some((RegClass::Int, idx)) => {
                    let mut r = rec(h_ret_int);
                    r.a = *idx as u16;
                    r
                }
                Some((RegClass::Float, idx)) => {
                    let mut r = rec(h_ret_float);
                    r.a = *idx as u16;
                    r
                }
                Some((RegClass::Vec, _)) => rec(h_ret_vec),
            };
            r.e = c32(cost.mov);
            end = End::Control;
        }
        PInst::FellOff { block } => {
            r = rec(h_fell_off);
            r.e = *block;
            end = End::FellOff;
        }
        PInst::Call(_) | PInst::CallUnknown { .. } => {
            unreachable!("calls are lowered by the emission loop")
        }
    }
    (r, end)
}
