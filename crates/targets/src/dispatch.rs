//! Instruction handlers, threaded dispatch and welding over the prepared
//! stream.
//!
//! Every [`MInst`] is lowered to an [`OpRecord`] — a packed 32-byte operand
//! record whose first field is the **handler fn pointer** — and the handlers
//! in this module are the only statement of what a straight-line instruction
//! does to registers and memory. The threaded loop here ([`run_ops`]) is
//! `(op.handler)(op, ctx, pc)` over the one record stream a prepared
//! function keeps, with no per-instruction accounting at all: fuel and
//! instruction counts are hoisted into **per-region charges**. A region is a
//! maximal straight-line run (from a block entry, or from the return point
//! of a call, through its first control-flow op inclusive); its
//! source-instruction count and the sum of its `OpInfo` charges are prepaid
//! on entry. A region either fully retires (the prepaid charge is exact),
//! aborts the whole execution via a trap (`refund_unretired` gives back what
//! had not retired, on that cold path), or — when fuel can no longer cover
//! its prepayment — is never entered: the **fuel tail** ([`run_dry`]) runs
//! the prefix of its instructions the fuel affords, each on its own handler,
//! charges what they fetched and stops
//! the run with `OutOfFuel` at exactly the instruction it ran out on. Region
//! entry is also where the run's deadline, if its [`FramePool`] carries one,
//! is polled: one branch without a deadline, and a passed deadline stops the
//! run with `Cancelled`, uncharged, like the fuel tail.
//!
//! What a region prepays depends on the timing tier. **Flat**: everything,
//! cycles included — handlers touch no accounting but a branch's
//! taken/not-taken cycles and a call's. **In-order**: everything but cycles.
//! A region's rows then retire on the pipeline in **segments**: from the
//! region's entry, or the row after a select, up to the next charge point —
//! the control instruction that closes the region (through it, for a
//! `Ret`, whose move is a plain row) or a scalar select, whose second read
//! key is the source it chose. [`ExecCtx`] carries the run's pipeline, the
//! current segment and a watermark (the first row not yet retired), and the
//! handlers at charge points — branch, jump, call, return, the two selects
//! — first *settle* the segment, then make the one dynamic call (`branch`
//! with the `BranchNz`'s own row, the segment's end, as the predictor
//! site, `jump`, `call`, the select's row on its chosen key). A settle is
//! one step: each segment carries a [`Summary`] recorded at prepare time —
//! what its rows do to a reset board — which applies whenever every live-in
//! key is ready by its first reader's issue slot, and then leaves exactly
//! what the row walk would ([`InOrderPipeline::apply`] says why). Otherwise
//! (a writeback still in flight past its slot, or a segment whose offsets do
//! not fit 16 bits) the rows retire one by one, as the trap path's partial
//! settle always does. Flat timing pays for this one predictable branch per
//! region close and two stores per region entry, and builds no segments.
//!
//! The stream holds exactly one record per *row* — one machine instruction,
//! or a synthesized fall-off trap — so a record's index is its row. The one
//! dispatch optimization is **welding**: two adjacent records in a region
//! whose kinds the weld table lists are welded, the first one's handler
//! swapped for one that runs both. It is not visible in `SimStats`.
//!
//! Nothing can fail to pack: register numbers are `u16` by type (vector
//! handlers scale them to byte offsets), and records carry no cycle costs —
//! straight-line charges live in the `OpInfo` table, and the few handlers
//! that charge dynamically read the program's
//! [`CostModel`](crate::CostModel).
//!
//! Preparation walks each function's blocks once ([`build_threaded`]): it
//! checks each instruction and lowers it ([`lower`], one arm per [`MInst`]
//! variant) to its record, its `OpInfo` row and its pair kind, which the
//! welding sweep reads and marks [`WELDED`] on each opener it welds, and
//! from which the fuel tail recovers a welded opener's own handler
//! ([`base`], which also gives a pairable record its handler) and `disasm`
//! its weld marks. This is deploy-time work a device pays on every bring-up, so
//! the builder allocates only what the function keeps, once each: `ops`,
//! `info` and `kinds` are sized from its row count, `calls` and `targets`
//! from its blocks and calls and, under in-order timing, `segs` from its
//! regions and selects and `keys` from what its segments recorded; the
//! region pass's scratch table lives in a [`ThreadedScratch`] that
//! `prepare_with` sizes once per program and reuses across its functions.

use crate::desc::CostModel;
use crate::exec::{
    retire_run, store_slot_vec, CallSite, Frame, FramePool, OpInfo, Prep, PreparedFunction,
    PreparedProgram, SlotValue, NO,
};
use crate::mcode::{AluOp, CmpPred, FpuOp, MFunction, MInst, PReg, RedOp, RegClass, Width};
use crate::simulator::{
    alu, check_range, compare, fpu, normalize, read_lane_float, read_lane_int, read_mem,
    write_lane_float, write_lane_int, write_mem, MachineValue, SimError, SimStats,
};
use crate::timing::{InOrderPipeline, LatClass, Recorder, Summary, TimingKind};
use std::ops::Range;

/// A handler executes one packed record against the live execution context.
///
/// Handlers receive the index of their own record (`pc`) and return the
/// **absolute index of the next record to dispatch** in the low 32 bits —
/// never a `Result`, whose by-memory return would cost the hot loop a stack
/// round-trip per record. A fall-through handler returns `pc + 1`, a welded
/// handler `pc + 2`, a branch its target region's first record.
/// The high 32 bits are zero on that hot path, so the dispatch loop is one
/// indirect call plus one never-taken branch; the cold outcomes — return,
/// stop, trap — come back tagged ([`FLOW_RET`] / [`FLOW_STOP`] /
/// [`FLOW_ERR`]) with their payload in the low bits, and any error or return
/// value stashed in the context ([`ExecCtx::err`] / [`ExecCtx::ret`]).
pub(crate) type Handler = fn(&OpRecord, &mut ExecCtx<'_>, u32) -> u64;

/// One dispatch operation: a handler fn pointer plus its operands packed into
/// exactly 32 bytes (two records per cache line). Register numbers use the
/// `u16` fields, region/call-site/slot indexes and lane counts the `u32`
/// fields, and memory offsets / immediates / packed per-kind flags `imm`.
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
/// The execution stopped at a region entry it never prepaid — the deadline
/// passed, or fuel ran dry inside the region — so nothing is refunded; the
/// error is in [`ExecCtx::err`].
pub(crate) const FLOW_STOP: u64 = 2 << 32;
/// The execution trapped; the error is in [`ExecCtx::err`] and the low 32
/// bits index the faulting record (a welded handler reports the
/// *constituent* that trapped, not the weld opener).
pub(crate) const FLOW_ERR: u64 = 3 << 32;

/// The statically-known slice of one region's `SimStats` traffic: the sum of
/// its instructions' `OpInfo` charges, i.e. everything retiring them charges
/// that does not depend on runtime values. Prepaid on region
/// entry, so straight-line handlers touch no accounting at all. The only
/// *dynamic* charges left to handlers under flat timing are the
/// taken/not-taken cycles of conditional branches and the cycles of calls
/// (whose argv build can trap before the call is charged); under
/// in-order timing `cycles` is zero and the region's close retires its rows.
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
    /// Narrow a running `OpInfo::prepay` sum over one region. Cycles are
    /// prepaid under flat timing only: the pipeline computes its own when
    /// the region's rows retire.
    fn of(sum: &SimStats, timing: TimingKind) -> StaticStats {
        StaticStats {
            cycles: match timing {
                TimingKind::Flat => sum.cycles,
                TimingKind::InOrder => 0,
            },
            loads: sum.loads as u32,
            stores: sum.stores as u32,
            spill_stores: sum.spill_stores as u32,
            spill_reloads: sum.spill_reloads as u32,
            vector_ops: sum.vector_ops as u32,
            branches: sum.branches as u32,
        }
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
}

/// Trap-path correction: row `k` of `f` raised an error after its region
/// was prepaid in full, so give back the charges for everything that had
/// *not* retired by that point — row `k` and the rest of its region, except
/// the faulting instruction's own fetch. Cycles are given back only if they
/// were prepaid (`flat`).
#[cold]
fn refund_unretired(f: &PreparedFunction, k: usize, stats: &mut SimStats, flat: bool) {
    let mut instructions = 0;
    let mut unretired = SimStats::default();
    for info in &f.info[k..] {
        instructions += 1;
        info.prepay(&mut unretired);
        if info.is(OpInfo::CLOSES) {
            break;
        }
    }
    let first = &f.info[k];
    // The faulting instruction was fetched — unless it is a fall-off, whose
    // failed fetch retired nothing (its fuel stays consumed).
    if !first.is(OpInfo::FELL_OFF) {
        instructions -= 1;
    }
    // A return's move retired before its vector-class check trapped.
    if first.is(OpInfo::RET) {
        unretired.cycles -= first.cycles;
    }
    stats.instructions -= instructions;
    if flat {
        stats.cycles -= unretired.cycles;
    }
    stats.loads -= unretired.loads;
    stats.stores -= unretired.stores;
    stats.spill_stores -= unretired.spill_stores;
    stats.spill_reloads -= unretired.spill_reloads;
    stats.vector_ops -= unretired.vector_ops;
    stats.branches -= unretired.branches;
}

/// Where control can land in the threaded stream: each basic block gets one
/// (index == block index), and each call gets one for its return point.
/// `row` is the region's first row (and record); `charge` is its
/// source-instruction count, prepaid (fuel and `stats.instructions`) when
/// the region is entered; `stat` is the region's static counter sum, prepaid
/// alongside it; `seg` indexes the region's first segment under in-order
/// timing (its others follow it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockTarget {
    pub(crate) row: u32,
    pub(crate) charge: u32,
    pub(crate) seg: u32,
    pub(crate) stat: StaticStats,
}

/// One straight-line segment of an in-order program: the `OpInfo` rows
/// `[start, end)` a settle retires in one go, and their reset-board
/// [`Summary`] — `None` where a key or an offset does not fit its 16 bits,
/// which keeps the row walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) summary: Option<Summary>,
}

/// Retire segment `seg` of `f` on `tm`: in one step from its summary if the
/// board allows it, else row by row. `true` if the summary applied.
#[inline(never)]
pub(crate) fn retire_segment(
    f: &PreparedFunction,
    seg: &Segment,
    stats: &mut SimStats,
    tm: &mut InOrderPipeline,
) -> bool {
    if let Some(s) = &seg.summary {
        if tm.apply(stats, s, &f.keys) {
            return true;
        }
    }
    retire_run(&f.info[seg.start as usize..seg.end as usize], stats, tm);
    false
}

/// Static welding counts for one prepared program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Adjacent records welded by the pairing sweep: the first record's
    /// handler executes both, halving dispatch round-trips on the covered
    /// stretch. Constituents keep their own records, so a listed pair welds
    /// regardless of shape.
    pub pair: u64,
    /// Neighbours the sweep left apart although both kinds can weld: the
    /// weld table does not list their pair.
    pub unlisted: u64,
}

impl FusionStats {
    /// Total welded pairs.
    pub fn total(&self) -> u64 {
        self.pair
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
    /// The run's pipeline under in-order timing; `None` under flat timing.
    pub(crate) pipe: Option<&'a mut InOrderPipeline>,
    /// In-order watermark: first row of the current region whose
    /// `OpInfo` row has not retired on `pipe`.
    charged: u32,
    /// In-order: index of the current segment in `f.segs`.
    seg: u32,
}

impl<'a> ExecCtx<'a> {
    /// The execution state of one call of `f` in `frame`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        prog: &'a PreparedProgram,
        f: &'a PreparedFunction,
        frame: &'a mut Frame,
        mem: &'a mut [u8],
        pool: &'a mut FramePool,
        fuel: &'a mut u64,
        stats: &'a mut SimStats,
        depth: usize,
        pipe: Option<&'a mut InOrderPipeline>,
    ) -> Self {
        ExecCtx {
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
            pipe,
            charged: 0,
            seg: 0,
        }
    }

    /// Under in-order timing, settle the current segment — retire its rows
    /// on the pipeline, in one step where its summary applies — move the
    /// watermark to its end, and hand back the pipeline and that end (the
    /// charge point: the closing control instruction, or the select) for the
    /// caller's one dynamic charge. Sound because the timing model only ever
    /// sees the order of retirement, not when the handlers ran. `None` under
    /// flat timing, whose cycles were prepaid.
    #[inline(always)]
    fn settle(&mut self) -> Option<(&mut InOrderPipeline, &mut SimStats, u32)> {
        let tm = self.pipe.as_deref_mut()?;
        let seg = &self.f.segs[self.seg as usize];
        retire_segment(self.f, seg, self.stats, tm);
        self.charged = seg.end;
        Some((tm, self.stats, seg.end))
    }

    /// The partial settle of the trap path and the fuel tail: under in-order
    /// timing, retire the rows `[charged, upto)` one by one; `false` under
    /// flat timing.
    fn retire_to(&mut self, upto: u32) -> bool {
        let Some(tm) = self.pipe.as_deref_mut() else {
            return false;
        };
        retire_run(
            &self.f.info[self.charged as usize..upto as usize],
            self.stats,
            tm,
        );
        true
    }

    /// Run the straight-line rows `rows` (the fuel tail's prefix) one at a
    /// time, each on its own handler — for a welded opener, [`base`] of its
    /// pair kind: how many retired, and the trap of the one after them if it
    /// raised one.
    fn run_straight(&mut self, rows: Range<usize>) -> (usize, Option<SimError>) {
        let f = self.f;
        for pc in rows.clone() {
            let (op, kind) = (&f.ops[pc], f.kinds[pc]);
            let handler = if kind & WELDED != 0 {
                base(usize::from(kind & !WELDED))
            } else {
                op.handler
            };
            if handler(op, self, pc as u32) >= FLOW_RET {
                return (pc - rows.start, Some(self.take_err()));
            }
        }
        (rows.len(), None)
    }

    #[cold]
    fn take_err(&mut self) -> SimError {
        self.err.take().expect("failing handler set an error")
    }

    /// The scalar register `r` holds, or `None` for a vector register
    /// (vectors do not cross calls).
    pub(crate) fn read(&self, r: PReg) -> Option<MachineValue> {
        match r.class {
            RegClass::Int => Some(MachineValue::Int(self.int_at(r.index.into()))),
            RegClass::Float => Some(MachineValue::Float(self.float_at(r.index.into()))),
            RegClass::Vec => None,
        }
    }

    /// Write what a call to function `callee` returned into `ret`.
    pub(crate) fn write_returned(
        &mut self,
        callee: usize,
        ret: Option<PReg>,
        out: Option<MachineValue>,
    ) -> Result<(), SimError> {
        match (ret.map(|r| (r.class, usize::from(r.index))), out) {
            (None, _) => {}
            (Some((RegClass::Int, i)), Some(MachineValue::Int(v))) => self.set_int(i, v),
            (Some((RegClass::Float, i)), Some(MachineValue::Float(v))) => self.set_float(i, v),
            _ => {
                return Err(SimError::Trap(format!(
                    "call to {} did not produce the expected value",
                    self.prog.functions[callee].name
                )));
            }
        }
        Ok(())
    }

    /// Read integer register `i`.
    ///
    /// Every register operand reachable from the threaded stream was
    /// validated when the program was prepared — fact 1 of
    /// [`PreparedProgram::prepare`](crate::PreparedProgram::prepare): the
    /// operand's class is the file its handler indexes, and its index is
    /// below that file's size — so the bounds check a slice index would
    /// repeat on every access is provably dead; eliding it keeps a len load
    /// and a panic branch out of every handler.
    #[inline(always)]
    fn int_at(&self, i: usize) -> i64 {
        debug_assert!(i < self.int.len());
        // SAFETY: prepare fact 1 — a handler that calls this passes an
        // operand whose class was checked to be integer and whose index was
        // checked against `int_regs`, the length of `self.int`.
        unsafe { *self.int.get_unchecked(i) }
    }

    /// Write integer register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn set_int(&mut self, i: usize, v: i64) {
        debug_assert!(i < self.int.len());
        // SAFETY: prepare fact 1, as in `ExecCtx::int_at`.
        unsafe { *self.int.get_unchecked_mut(i) = v };
    }

    /// Read float register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn float_at(&self, i: usize) -> f64 {
        debug_assert!(i < self.float.len());
        // SAFETY: prepare fact 1 — the operand's class was checked to be
        // float and its index against `float_regs`, the length of
        // `self.float`.
        unsafe { *self.float.get_unchecked(i) }
    }

    /// Write float register `i` (same prepare-time validation as
    /// [`ExecCtx::int_at`]).
    #[inline(always)]
    fn set_float(&mut self, i: usize, v: f64) {
        debug_assert!(i < self.float.len());
        // SAFETY: prepare fact 1, as in `ExecCtx::float_at`.
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

/// Stash `e` and signal [`FLOW_STOP`]: the run ends with nothing to refund.
#[cold]
#[inline(never)]
fn stop(cx: &mut ExecCtx<'_>, e: SimError) -> u64 {
    cx.err = Some(e);
    FLOW_STOP
}

/// Enter region `tidx`: prepay its fuel/instruction charge and its static
/// counter sum, note where its rows start and its first segment (what
/// in-order timing retires them by), then jump to its first record — or,
/// when the remaining fuel cannot cover the prepayment, hand the region to
/// the fuel tail ([`run_dry`]). Either way every earlier region has settled.
#[inline(always)]
fn enter(cx: &mut ExecCtx<'_>, tidx: u32) -> u64 {
    let t = &cx.f.targets[tidx as usize];
    // The deadline is polled here, at region entry, because it is the one
    // boundary every loop iteration crosses (one branch when none is set).
    // Nothing of this region is charged yet, so the run stops without the
    // trap path's refund.
    if cx.pool.cancel_requested() {
        return stop(cx, SimError::Cancelled);
    }
    let charge = u64::from(t.charge);
    if *cx.fuel >= charge {
        *cx.fuel -= charge;
        cx.stats.instructions += charge;
        t.stat.charge(cx.stats);
        (cx.charged, cx.seg) = (t.row, t.seg);
        u64::from(t.row)
    } else {
        run_dry(cx, tidx)
    }
}

/// The fuel tail: the remaining fuel F is below region `tidx`'s charge,
/// which counts every instruction through the closing control op, so F
/// affords a strict prefix of the region's straight-line instructions and
/// the fetch that fails lies before that op. Run the prefix one row at a
/// time, retire its rows — under in-order timing the scalar
/// selects' handlers settle their segments and retire on the register they
/// chose, as on the stream — and charge fuel, `stats.instructions` and the
/// counters for what was fetched: the retired instructions, plus one that
/// trapped. Then stop with the trap or `OutOfFuel`, at the instruction
/// where fuel spent one instruction at a time runs out.
#[cold]
#[inline(never)]
fn run_dry(cx: &mut ExecCtx<'_>, tidx: u32) -> u64 {
    let f = cx.f;
    let t = &f.targets[tidx as usize];
    let start = t.row as usize;
    // Below the region's `u32` charge.
    let afforded = *cx.fuel as usize;
    (cx.charged, cx.seg) = (t.row, t.seg);
    let (retired, trap) = cx.run_straight(start..start + afforded);
    cx.retire_to((start + retired) as u32);
    let mut sum = SimStats::default();
    for info in &f.info[start..start + retired] {
        info.prepay(&mut sum);
    }
    StaticStats::of(&sum, cx.prog.timing).charge(cx.stats);
    let fetched = (retired + usize::from(trap.is_some())) as u64;
    *cx.fuel -= fetched;
    cx.stats.instructions += fetched;
    stop(cx, trap.unwrap_or(SimError::OutOfFuel))
}

/// Drive the threaded stream of `cx.f` from its entry region. On a handler
/// error the prepaid charges are corrected before the error propagates.
pub(crate) fn run_ops(cx: &mut ExecCtx<'_>) -> Result<Option<MachineValue>, SimError> {
    let f = cx.f;
    let ops = &f.ops;
    let mut r = enter(cx, 0);
    loop {
        if r >= FLOW_RET {
            break;
        }
        let pc = r as usize;
        debug_assert!(pc < ops.len());
        // SAFETY: every region entry and every fall-through pc a handler
        // returns are in bounds. Prepare fact 3: a branch or jump lands on a
        // region entry, and region entries come from `build_threaded`. Fact
        // 5: sequential fall-through always reaches a region-closing control
        // record (every block ends in one — `FellOff` is synthesized where
        // code falls off) before `pc` can pass the end of the stream.
        let op = unsafe { ops.get_unchecked(pc) };
        r = (op.handler)(op, cx, pc as u32);
    }
    match r & !0xffff_ffff {
        FLOW_RET => Ok(cx.ret.take()),
        FLOW_STOP => Err(cx.take_err()),
        _ => {
            // The region was prepaid in full; give back the charges for
            // everything that had not retired by the faulting instruction
            // (cold path). The low bits index the faulting row — a welded
            // handler reports the constituent that trapped. Under in-order
            // timing the rows ahead of it retire first (a `Ret`'s own move
            // too: it retires before its vector-class check traps) and no
            // cycles were prepaid.
            let k = r as u32;
            let own = u32::from(f.info[k as usize].is(OpInfo::RET));
            let flat = !cx.retire_to(k + own);
            refund_unretired(f, k as usize, cx.stats, flat);
            Err(cx.take_err())
        }
    }
}

// ---------------------------------------------------------------------------
// Flag packing helpers: operand shapes (width / signedness / opcode) are
// packed into the record's spare `u16`s at prepare time and decoded
// branch-free-ly by the handlers. The numbering is the enums' own (`code()` /
// `from_code()` in `mcode.rs`, shared with the artifact store); the masks
// are the field widths of the packing. Flag bits are only ever written from
// a valid enum, so a decoder's fallback is never taken: it makes decoding
// total without a panic path in a handler.
// ---------------------------------------------------------------------------

fn wbits(w: Width) -> u16 {
    w.code().into()
}

#[inline(always)]
fn wfrom(bits: u16) -> Width {
    Width::from_code(bits as u8 & 3).unwrap_or(Width::W64)
}

fn alu_bits(op: AluOp) -> u16 {
    op.code().into()
}

#[inline(always)]
fn alu_from(bits: u16) -> AluOp {
    AluOp::from_code(bits as u8 & 15).unwrap_or(AluOp::Max)
}

fn fpu_bits(op: FpuOp) -> u16 {
    op.code().into()
}

#[inline(always)]
fn fpu_from(bits: u16) -> FpuOp {
    FpuOp::from_code(bits as u8 & 7).unwrap_or(FpuOp::Max)
}

fn pred_bits(p: CmpPred) -> u16 {
    p.code().into()
}

#[inline(always)]
fn pred_from(bits: u16) -> CmpPred {
    CmpPred::from_code(bits as u8 & 7).unwrap_or(CmpPred::Ge)
}

fn red_bits(op: RedOp) -> u16 {
    op.code().into()
}

#[inline(always)]
fn red_from(bits: u16) -> RedOp {
    RedOp::from_code(bits as u8 & 3).unwrap_or(RedOp::Max)
}

// ---------------------------------------------------------------------------
// Handlers: what each instruction does to registers and memory, stated once.
// Evaluation order and trap points are part of each instruction's semantics,
// pinned by the recorded run digests. Straight-line handlers touch no
// accounting. A vector handler decides its operator and lane width once and
// runs a lane loop specialized for both; because the optimizer may then
// vectorize or commute that loop, `fpu` spells out which NaN and which ±0 a
// float operation returns instead of leaving it to codegen.
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
    let vb = cx.vb;
    let (d, s) = (op.a as usize * vb, op.b as usize * vb);
    cx.vec.copy_within(s..s + vb, d);
    u64::from(pc) + 1
}

fn h_int_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (alu_op, width, signed) = (alu_from(op.d), wfrom(op.d >> 4), op.d & (1 << 6) != 0);
    let (x, y) = (cx.int_at(op.b as usize), cx.int_at(op.c as usize));
    let v = tryh!(cx, pc, alu(alu_op, width, signed, x, y));
    cx.set_int(op.a as usize, v);
    u64::from(pc) + 1
}

fn h_float_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (x, y) = (cx.float_at(op.b as usize), cx.float_at(op.c as usize));
    let v = fpu(fpu_from(op.d), op.d & (1 << 3) != 0, x, y);
    cx.set_float(op.a as usize, v);
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

/// Integer compare: both operands normalized to the width, then compared
/// signed or unsigned.
fn h_int_cmp(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (pred, width, signed) = (pred_from(op.d), wfrom(op.d >> 3), op.d & (1 << 5) != 0);
    let a = normalize(width, signed, cx.int_at(op.b as usize));
    let b = normalize(width, signed, cx.int_at(op.c as usize));
    let t = if signed {
        compare(pred, a, b)
    } else {
        compare(pred, a as u64, b as u64)
    };
    cx.set_int(op.a as usize, t);
    u64::from(pc) + 1
}

/// Float compare, single precision rounding both operands first (NaN ⇒
/// only `Ne` holds).
fn h_float_cmp(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (a, b) = (cx.float_at(op.b as usize), cx.float_at(op.c as usize));
    let (a, b) = if op.d & (1 << 3) != 0 {
        (a, b)
    } else {
        (f64::from(a as f32), f64::from(b as f32))
    };
    let pred = pred_from(op.d);
    let t = if a.partial_cmp(&b).is_none() {
        i64::from(pred == CmpPred::Ne)
    } else {
        compare(pred, a, b)
    };
    cx.set_int(op.a as usize, t);
    u64::from(pc) + 1
}

/// In-order timing on the threaded stream: a scalar select's second read key
/// is the source it chose, which its row cannot name, so the select is a
/// charge point — the segment ending at it settles, then the select retires
/// on `chosen`, and the next segment begins after it.
#[inline(never)]
fn retire_select(cx: &mut ExecCtx<'_>, chosen: u16) {
    let f = cx.f;
    if let Some((tm, stats, at)) = cx.settle() {
        let info = &f.info[at as usize];
        info.retire(stats, tm, info.key_of(2, chosen));
        cx.charged = at + 1;
        cx.seg += 1;
    }
}

fn h_select_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // The condition is read before the write: `dst` may be `cond`.
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    };
    cx.set_int(op.a as usize, cx.int_at(chosen as usize));
    if cx.pipe.is_some() {
        retire_select(cx, chosen);
    }
    u64::from(pc) + 1
}

fn h_select_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    };
    cx.set_float(op.a as usize, cx.float_at(chosen as usize));
    if cx.pipe.is_some() {
        retire_select(cx, chosen);
    }
    u64::from(pc) + 1
}

fn h_select_vec(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let vb = cx.vb;
    let chosen = if cx.int_at(op.b as usize) != 0 {
        op.c
    } else {
        op.d
    } as usize
        * vb;
    cx.vec.copy_within(chosen..chosen + vb, op.a as usize * vb);
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
    let width = wfrom(op.d);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, width.bytes()));
    cx.set_int(
        op.a as usize,
        normalize(width, op.d & (1 << 2) != 0, raw as i64),
    );
    u64::from(pc) + 1
}

fn h_load_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let width = wfrom(op.d);
    let raw = tryh!(cx, pc, read_mem(cx.mem, addr, width.bytes()));
    let v = match width {
        Width::W32 => f64::from(f32::from_bits(raw as u32)),
        _ => f64::from_bits(raw),
    };
    cx.set_float(op.a as usize, v);
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
    let d = op.a as usize * vb;
    cx.vec[d..d + vb].copy_from_slice(&cx.mem[addr as usize..addr as usize + vb]);
    u64::from(pc) + 1
}

fn h_vec_store(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let addr = cx.int_at(op.b as usize).wrapping_add(op.imm);
    let vb = cx.vb;
    tryh!(cx, pc, check_range(cx.mem, addr, vb as u64));
    let s = op.a as usize * vb;
    cx.mem[addr as usize..addr as usize + vb].copy_from_slice(&cx.vec[s..s + vb]);
    u64::from(pc) + 1
}

// --- vector lanes: each handler below matches its operator and lane width
// once, through `fixed!`, and runs a lane loop in which both are constants.
// `alu`, `fpu` and the lane helpers inline into it, so each arm is its own
// loop over one operation on fixed-width lanes; `alu` stays out of line in
// `h_int_op`, whose operator is not a constant. ------------------------------

/// `$body` with `$x` bound to the constant that `$v` equals: one arm per
/// listed variant (or literal), so the optimizer specializes `$body` for
/// each.
macro_rules! fixed {
    ($v:expr, $t:ident::{$($c:ident),+}, |$x:ident| $body:expr) => {
        match $v {
            $($t::$c => {
                let $x = $t::$c;
                $body
            })+
        }
    };
    ($v:expr, [$($c:literal),+], |$x:ident| $body:expr) => {
        match $v {
            $($c => {
                let $x = $c;
                $body
            })+
        }
    };
}

fn h_vec_splat_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.int_at(op.b as usize);
    let vb = cx.vb;
    let d = op.a as usize * vb;
    let reg = &mut cx.vec[d..d + vb];
    fixed!(wfrom(op.d), Width::{W8, W16, W32, W64}, |w| {
        for lane in 0..op.e as usize {
            write_lane_int(reg, lane, w, v);
        }
    });
    u64::from(pc) + 1
}

fn h_vec_splat_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let v = cx.float_at(op.b as usize);
    let vb = cx.vb;
    let d = op.a as usize * vb;
    let reg = &mut cx.vec[d..d + vb];
    fixed!(wfrom(op.d), Width::{W8, W16, W32, W64}, |w| {
        for lane in 0..op.e as usize {
            write_lane_float(reg, lane, w, v);
        }
    });
    u64::from(pc) + 1
}

fn h_vec_int_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let alu_op = alu_from(op.d);
    fixed!(alu_op, AluOp::{Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max}, |o| {
        fixed!(wfrom(op.d >> 4), Width::{W8, W16, W32, W64}, |w| {
            fixed!(op.d & (1 << 6) != 0, [false, true], |s| int_lanes(op, cx, pc, o, w, s))
        })
    })
}

/// Lane i of register `op.a` from lane i of `op.b` and `op.c` through the
/// ALU. Lane-by-lane read-then-write is aliasing-safe without copying the
/// inputs: writing lane i of dst never changes a lane j > i of lhs/rhs. Only
/// `Div` / `Rem` can fail, at the lane with the zero divisor, after the
/// lanes before it were written.
#[inline(always)]
fn int_lanes(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32, o: AluOp, w: Width, s: bool) -> u64 {
    let vb = cx.vb;
    let (d, l, r) = (op.a as usize * vb, op.b as usize * vb, op.c as usize * vb);
    let vec = &mut *cx.vec;
    for lane in 0..op.e as usize {
        let x = read_lane_int(&vec[l..l + vb], lane, w, s);
        let y = read_lane_int(&vec[r..r + vb], lane, w, s);
        match alu(o, w, s, x, y) {
            Ok(v) => write_lane_int(&mut vec[d..d + vb], lane, w, v),
            Err(e) => return fail(cx, e, pc),
        }
    }
    u64::from(pc) + 1
}

fn h_vec_float_op(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    fixed!(fpu_from(op.d), FpuOp::{Add, Sub, Mul, Div, Min, Max}, |o| {
        fixed!(wfrom(op.d >> 3), Width::{W8, W16, W32, W64}, |w| float_lanes(op, cx, o, w))
    });
    u64::from(pc) + 1
}

/// [`int_lanes`] through the FPU, which cannot fail; W64 lanes compute in
/// double precision, narrower ones round through single.
#[inline(always)]
fn float_lanes(op: &OpRecord, cx: &mut ExecCtx<'_>, o: FpuOp, w: Width) {
    let vb = cx.vb;
    let (d, l, r) = (op.a as usize * vb, op.b as usize * vb, op.c as usize * vb);
    let vec = &mut *cx.vec;
    for lane in 0..op.e as usize {
        let x = read_lane_float(&vec[l..l + vb], lane, w);
        let y = read_lane_float(&vec[r..r + vb], lane, w);
        let v = fpu(o, w == Width::W64, x, y);
        write_lane_float(&mut vec[d..d + vb], lane, w, v);
    }
}

fn h_vec_reduce_int(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (vb, src) = (cx.vb, op.b as usize * cx.vb);
    let reg = &cx.vec[src..src + vb];
    let acc = fixed!(red_from(op.d), RedOp::{Add, Min, Max}, |r| {
        let o = [AluOp::Add, AluOp::Min, AluOp::Max][r as usize]; // `RedOp` order
        fixed!(wfrom(op.d >> 2), Width::{W8, W16, W32, W64}, |w| {
            fixed!(op.d & (1 << 4) != 0, [false, true], |s| {
                let mut acc = read_lane_int(reg, 0, w, s);
                for lane in 1..op.e as usize {
                    let x = read_lane_int(reg, lane, w, s);
                    acc = tryh!(cx, pc, alu(o, w, s, acc, x));
                }
                acc
            })
        })
    });
    cx.set_int(op.a as usize, acc);
    u64::from(pc) + 1
}

fn h_vec_reduce_float(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let (vb, src) = (cx.vb, op.b as usize * cx.vb);
    let reg = &cx.vec[src..src + vb];
    let acc = fixed!(red_from(op.d), RedOp::{Add, Min, Max}, |r| {
        let o = [FpuOp::Add, FpuOp::Min, FpuOp::Max][r as usize]; // `RedOp` order
        fixed!(wfrom(op.d >> 2), Width::{W8, W16, W32, W64}, |w| {
            let mut acc = read_lane_float(reg, 0, w);
            for lane in 1..op.e as usize {
                acc = fpu(o, w == Width::W64, acc, read_lane_float(reg, lane, w));
            }
            acc
        })
    });
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
    let vb = cx.vb;
    let s = op.a as usize * vb;
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
    let vb = cx.vb;
    let d = op.a as usize * vb;
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

// --- control kinds: each closes its region, so under in-order timing each
// first settles the region's last segment on the pipeline. -------------------

fn h_jump(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    // Fully static under flat timing: the jump's cycles and branch count
    // ride the region prepayment; only the next region's entry charge is
    // dynamic.
    let f = cx.f;
    if let Some((tm, stats, close)) = cx.settle() {
        tm.jump(stats, f.info[close as usize].cycles);
    }
    enter(cx, op.e)
}

/// A conditional branch: its taken/not-taken cycles are the one charge
/// region prepayment cannot know, then the target region is entered. The
/// predictor site is the `BranchNz`'s own row — the region's closing row,
/// where its last segment ends, also when a welded record retires it.
fn h_branch_nz(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    let taken = cx.int_at(op.a as usize) != 0;
    let cost = &cx.prog.cost;
    let (region, cycles) = if taken {
        (op.e, cost.branch_taken)
    } else {
        (op.f, cost.branch_not_taken)
    };
    let f = cx.f;
    match cx.settle() {
        Some((tm, stats, site)) => {
            tm.branch(stats, site, taken, cycles, f.info[site as usize].key(1));
        }
        None => cx.stats.cycles += cycles,
    }
    enter(cx, region)
}

/// A call: `e` indexes the function's call table, `f` is the after-call
/// region.
fn h_call(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    let call = &cx.f.calls[op.e as usize];
    let callee = match &call.callee {
        Ok(index) => *index,
        Err(name) => return fail(cx, SimError::UnknownFunction(name.to_string()), pc),
    };
    let mut argv = cx.pool.take_argv();
    for &arg in call.args.iter() {
        let Some(value) = cx.read(arg) else {
            return fail(
                cx,
                SimError::Trap("vector call arguments are unsupported".into()),
                pc,
            );
        };
        argv.push(value);
    }
    // Charged once the arguments are built (they can trap), before the
    // callee runs — threaded, and on the same pipeline if there is one.
    let cost = cx.prog.cost.call;
    match cx.settle() {
        Some((tm, stats, _)) => tm.call(stats, cost),
        None => cx.stats.cycles += cost,
    }
    let out = tryh!(
        cx,
        pc,
        cx.prog.exec(
            callee,
            &argv,
            cx.mem,
            cx.pool,
            cx.fuel,
            cx.depth + 1,
            cx.stats,
            cx.pipe.as_deref_mut(),
        )
    );
    cx.pool.give_argv(argv);
    tryh!(cx, pc, cx.write_returned(callee, call.ret, out));
    enter(cx, op.f)
}

// A return's own move is a plain row (its second read key is untracked), so
// the region's last segment runs through it.

fn h_ret_none(_op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.settle();
    cx.ret = None;
    FLOW_RET
}

fn h_ret_int(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.settle();
    cx.ret = Some(MachineValue::Int(cx.int_at(op.a as usize)));
    FLOW_RET
}

fn h_ret_float(op: &OpRecord, cx: &mut ExecCtx<'_>, _pc: u32) -> u64 {
    cx.settle();
    cx.ret = Some(MachineValue::Float(cx.float_at(op.a as usize)));
    FLOW_RET
}

fn h_ret_vec(_op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // The move is charged *before* the bad class is noticed, so
    // the statically prepaid cycles stand (`refund_unretired` keeps them;
    // under in-order timing the trap path retires the move).
    fail(
        cx,
        SimError::Trap("vector return values are unsupported".into()),
        pc,
    )
}

fn h_fell_off(op: &OpRecord, cx: &mut ExecCtx<'_>, pc: u32) -> u64 {
    // Fuel stays consumed but the failed fetch is not a retired instruction;
    // `refund_unretired` uncounts it.
    let e = SimError::Trap(format!(
        "fell off the end of block {} in {}",
        op.e, cx.f.name
    ));
    fail(cx, e, pc)
}

// --- adjacent-record pairing -----------------------------------------------
//
// Register-starved lowerings — exactly what the split register allocator
// produces — are dominated by glue: `Imm`/`Reload`/`Spill`/`IntResize`
// traffic around every ALU op. The pairing sweep cuts the dispatch count
// directly: two adjacent records whose kinds the weld table lists are welded
// by swapping the first one's handler for a combined handler that executes
// both records and tells the loop to advance past the pair. Because each
// constituent keeps its own record (the combined handler reads the partner at
// `op + 1`), there is no operand re-packing, and a trap in either constituent
// is reported under that record's own index — so pairing is invisible to
// `SimStats`. Any opener kind could pair with any kind; each listed pair is one
// more `h_pair` in the binary, so the table lists the census of what the JIT
// emits: the pairs the greedy sweep meets in the catalogue and the
// differential-fuzz programs on every preset, register-allocation mode and
// SIMD setting. `the_weld_table_is_the_census_of_what_the_jit_emits`
// (`tests/fuzz_differential.rs`) fails when either side moves.

/// Pairable record kinds: indexes into [`base`] and the weld table.
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
const K_BRANCH_NZ: u8 = 16;
const K_JUMP: u8 = 17;
const K_RET_NONE: u8 = 18;
const K_RET_INT: u8 = 19;
const K_RET_FLOAT: u8 = 20;
/// Not pairable (calls, vector ops, rare shapes).
const K_NONE: u8 = 0x7f;
/// Set on a row's kind by the welding sweep when it welds the row to the
/// next: the row opens a pair.
pub(crate) const WELDED: u8 = 0x80;
/// Kinds `0..NFIRST` may open a pair.
const NFIRST: usize = 16;
/// Kinds `0..NSECOND` may close a pair.
pub(crate) const NSECOND: usize = 21;

/// The base handler for a pairable kind: the handler [`lower`] gives an
/// instruction of that kind. `const` so the combined handlers below resolve
/// their constituents at compile time: inside `h_pair` the inline-const call
/// target is a literal fn pointer, which the optimizer turns into a direct
/// (and then inlined) call — pairing would be a pessimization if the
/// constituents stayed behind indirect calls. The fuel tail calls it too, to
/// run a welded opener alone.
pub(crate) const fn base(k: usize) -> Handler {
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
        16 => h_branch_nz,
        17 => h_jump,
        18 => h_ret_none,
        19 => h_ret_int,
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
    // never the stream's last record (prepare fact 5: a straight-line record
    // never is). The partner runs under its own pc, so
    // any outcome it reports — fall-through, branch target, trapping record
    // — is already absolute and flows straight back to the dispatch loop.
    let partner = unsafe { &*std::ptr::from_ref(op).add(1) };
    (const { base(B) })(partner, cx, pc + 1)
}

/// Declares the weld table, one line per opener kind: `OPENER: CLOSER…;`.
/// Only a listed pair instantiates [`h_pair`].
macro_rules! weld_table {
    ($($a:ident: $($b:ident)+;)+) => {
        /// The combined handler of each listed pair, by `[opener][closer]`.
        static PAIRS: [[Option<Handler>; NSECOND]; NFIRST] = {
            let mut t = [[None; NSECOND]; NFIRST];
            $($(t[$a as usize][$b as usize] = Some(h_pair::<{ $a as usize }, { $b as usize }> as Handler);)+)+
            t
        };
    };
}

weld_table! {
    K_IMM: K_IMM K_MOV_INT K_INT_OP K_INT_RESIZE K_INT_CMP K_SPILL_INT K_RELOAD_INT K_BRANCH_NZ K_RET_INT;
    K_MOV_INT: K_IMM K_MOV_INT K_INT_OP K_SPILL_INT K_RELOAD_INT K_JUMP;
    K_INT_OP: K_IMM K_MOV_INT K_INT_OP K_INT_RESIZE K_INT_CMP K_LOAD_INT K_STORE_INT K_SPILL_INT K_RELOAD_INT K_FIMM K_LOAD_FLOAT K_STORE_FLOAT K_SPILL_FLOAT K_RELOAD_FLOAT K_JUMP;
    K_INT_RESIZE: K_IMM K_INT_OP K_INT_RESIZE K_SPILL_INT;
    K_INT_CMP: K_BRANCH_NZ;
    K_LOAD_INT: K_IMM K_INT_OP K_INT_RESIZE K_LOAD_INT K_SPILL_INT K_RELOAD_INT;
    K_STORE_INT: K_IMM K_INT_OP K_STORE_INT K_RELOAD_INT;
    K_SPILL_INT: K_IMM K_MOV_INT K_INT_OP K_INT_RESIZE K_LOAD_INT K_SPILL_INT K_RELOAD_INT K_FIMM K_MOV_FLOAT K_RELOAD_FLOAT K_JUMP;
    K_RELOAD_INT: K_INT_OP K_INT_RESIZE K_INT_CMP K_STORE_INT K_SPILL_INT K_RELOAD_INT K_RET_INT;
    K_FIMM: K_IMM K_INT_RESIZE K_FIMM K_MOV_FLOAT K_FLOAT_OP K_SPILL_FLOAT K_RET_FLOAT;
    K_MOV_FLOAT: K_IMM K_FIMM K_MOV_FLOAT K_FLOAT_OP K_SPILL_FLOAT K_RELOAD_FLOAT K_JUMP;
    K_FLOAT_OP: K_INT_OP K_INT_RESIZE K_RELOAD_INT K_FIMM K_MOV_FLOAT K_FLOAT_OP K_SPILL_FLOAT K_RELOAD_FLOAT K_JUMP;
    K_LOAD_FLOAT: K_IMM K_INT_RESIZE K_RELOAD_INT K_FLOAT_OP K_LOAD_FLOAT K_SPILL_FLOAT;
    K_STORE_FLOAT: K_IMM K_INT_OP K_RELOAD_INT K_STORE_FLOAT K_RELOAD_FLOAT;
    K_SPILL_FLOAT: K_IMM K_INT_OP K_RELOAD_INT K_FIMM K_MOV_FLOAT K_FLOAT_OP K_LOAD_FLOAT K_SPILL_FLOAT K_RELOAD_FLOAT K_JUMP;
    K_RELOAD_FLOAT: K_FLOAT_OP K_STORE_FLOAT K_SPILL_FLOAT K_RELOAD_FLOAT K_RET_FLOAT;
}

/// The one of `[int, float, vec]` for a register of `class`: how a kind
/// whose handler depends on an operand's class picks it.
fn by_class<T>(class: RegClass, [int, float, vec]: [T; 3]) -> T {
    match class {
        RegClass::Int => int,
        RegClass::Float => float,
        RegClass::Vec => vec,
    }
}

// ---------------------------------------------------------------------------
// Prepare-time lowering: machine instructions -> records, rows and the
// threaded stream.
// ---------------------------------------------------------------------------

/// Straight-line role of one record, driving the region pass.
enum End {
    /// Falls through.
    Normal,
    /// Ends its region (branch, return, fall-off).
    Control,
    /// Ends its region and opens the after-call region at this target index.
    Call(u32),
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

/// The scratch of [`build_threaded`]. [`ThreadedScratch::new`] sizes it once
/// per program, for its longest function, and it is cleared and reused from
/// function to function (the `RegAssigner` recipe); what is allocated per
/// function is what the function keeps — `ops`, `info`, `kinds`, `calls`,
/// `targets` and, under in-order timing, `segs` and `keys`, each sized up
/// front from counts its blocks or the recorder already give.
pub(crate) struct ThreadedScratch {
    /// Straight-line role of each row, driving the region pass.
    ends: Vec<End>,
    /// The segment summaries' recorder, under in-order timing only.
    recorder: Option<Recorder>,
}

impl ThreadedScratch {
    /// Scratch for a program whose functions have at most `rows` rows,
    /// prepared under `timing` for register files whose scoreboard keys are
    /// below `keys`.
    pub(crate) fn new(rows: usize, timing: TimingKind, keys: usize) -> Self {
        ThreadedScratch {
            ends: Vec::with_capacity(rows),
            recorder: (timing == TimingKind::InOrder).then(|| Recorder::new(rows, keys)),
        }
    }
}

/// Build `pf`'s rows and threaded stream from `f` in one walk over its
/// blocks: check each instruction ([`Prep::check`]) and lower it to its
/// record ([`lower`]), its [`OpInfo`] row and its pair kind. Then resolve
/// per-region fuel and instruction charges and what `timing` prepays with
/// them, weld pairs (when `fuse`) and, under in-order timing, record each
/// region's segments and their summaries.
///
/// # Errors
///
/// What [`Prep::check`] says of the first instruction it refuses.
pub(crate) fn build_threaded(
    pf: &mut PreparedFunction,
    f: &MFunction,
    prep: &Prep<'_>,
    fuse: bool,
    timing: TimingKind,
    fusion: &mut FusionStats,
    scratch: &mut ThreadedScratch,
) -> Result<(), SimError> {
    // A function without blocks is one block that falls off at once.
    let nblocks = f.blocks.len().max(1);
    let (mut rows, mut ncalls) = (usize::from(f.blocks.is_empty()), 0);
    for b in &f.blocks {
        rows += b.insts.len() + usize::from(!b.insts.last().is_some_and(MInst::is_terminator));
        ncalls += b
            .insts
            .iter()
            .filter(|i| matches!(i, MInst::Call { .. }))
            .count();
    }
    let mut ops: Vec<OpRecord> = Vec::with_capacity(rows);
    let mut info: Vec<OpInfo> = Vec::with_capacity(rows);
    let mut kinds: Vec<u8> = Vec::with_capacity(rows);
    let mut calls: Vec<CallSite> = Vec::with_capacity(ncalls);
    // One region per block plus one per call (its return point).
    let entry = BlockTarget {
        row: 0,
        charge: 0,
        seg: 0,
        stat: StaticStats::default(),
    };
    let mut targets: Vec<BlockTarget> = Vec::with_capacity(nblocks + ncalls);
    targets.resize(nblocks, entry);
    let mut selects = 0;
    let ThreadedScratch { ends, recorder } = scratch;
    ends.clear();
    ends.reserve(rows);

    for bi in 0..nblocks {
        let insts = f.blocks.get(bi).map_or(&[][..], |b| b.insts.as_slice());
        targets[bi].row = ops.len() as u32;
        for inst in insts {
            let lanes = prep.check(inst, f)?;
            let (mut record, row, kind) = lower(inst, lanes, prep.cost);
            let end = if let MInst::Call { callee, args, ret } = inst {
                (record.e, record.f) = (calls.len() as u32, (nblocks + calls.len()) as u32);
                calls.push(CallSite {
                    callee: prep.callee(callee),
                    args: args.as_slice().into(),
                    ret: *ret,
                });
                targets.push(BlockTarget {
                    row: ops.len() as u32 + 1,
                    ..entry
                });
                End::Call(record.f)
            } else if row.is(OpInfo::CLOSES) {
                End::Control
            } else {
                End::Normal
            };
            selects += usize::from(row.is(OpInfo::SELECT));
            ops.push(record);
            info.push(row);
            kinds.push(kind);
            ends.push(end);
        }
        // Running past a block's end traps ("fell off the end").
        if !insts.last().is_some_and(MInst::is_terminator) {
            let mut record = rec(h_fell_off);
            record.e = bi as u32;
            ops.push(record);
            info.push(OpInfo::FELL_OFF_ROW);
            kinds.push(K_NONE);
            ends.push(End::Control);
        }
    }
    // One segment per region plus one per scalar select.
    let mut segs = Vec::new();
    if let Some(rec) = recorder.as_mut() {
        rec.clear();
        segs.reserve_exact(targets.len() + selects);
    }

    // Region pass: every straight-line run from a region entry through its
    // closing control op gets its source-instruction count and the sum of
    // its instructions' `OpInfo` charges as the entry's prepayment, and
    // under in-order timing its segments.
    for bi in 0..nblocks {
        let first = targets[bi].row as usize;
        let last = if bi + 1 < nblocks {
            targets[bi + 1].row as usize
        } else {
            ops.len()
        };
        let mut pending = Some(bi);
        let mut run_start = first;
        for j in first..last {
            if matches!(ends[j], End::Normal) {
                continue;
            }
            // Close the region run_start..=j.
            if let Some(t) = pending {
                let mut sum = SimStats::default();
                info[run_start..=j].iter().for_each(|i| i.prepay(&mut sum));
                targets[t].charge = (j + 1 - run_start) as u32;
                targets[t].stat = StaticStats::of(&sum, timing);
                if let Some(rec) = recorder.as_mut() {
                    targets[t].seg = segs.len() as u32;
                    record_segments(&info, &targets[t], rec, &mut segs);
                }
            }
            // Pairing sweep over the closed run: greedily weld neighbours
            // the table lists. Only the opener's handler changes; jumps
            // can't land inside a run, so no entry point ever targets a
            // consumed partner.
            if fuse {
                let mut k = run_start;
                while k < j {
                    let (a, b) = (kinds[k] as usize, kinds[k + 1] as usize);
                    match PAIRS.get(a).and_then(|row| row.get(b)) {
                        Some(&Some(pair)) => {
                            ops[k].handler = pair;
                            kinds[k] |= WELDED;
                            fusion.pair += 1;
                            k += 1;
                        }
                        Some(None) => fusion.unlisted += 1,
                        None => {}
                    }
                    k += 1;
                }
            }
            pending = match ends[j] {
                End::Call(after) => Some(after as usize),
                _ => None,
            };
            run_start = j + 1;
        }
    }

    pf.ops = ops;
    pf.info = info;
    pf.kinds = kinds;
    pf.calls = calls;
    pf.targets = targets;
    if let Some(rec) = recorder {
        pf.keys = rec.keys.as_slice().into();
    }
    pf.segs = segs;
    Ok(())
}

/// Whether record `k` of `f` opens a welded pair: the welding sweep marked
/// it when it swapped in the pair's handler.
pub(crate) fn opens_pair(f: &PreparedFunction, k: usize) -> bool {
    f.kinds[k] & WELDED != 0
}

/// Cut region `t`'s rows into segments at its scalar selects, and record
/// each segment's summary by retiring its rows through `rec`.
fn record_segments(info: &[OpInfo], t: &BlockTarget, rec: &mut Recorder, segs: &mut Vec<Segment>) {
    let close = t.row + t.charge - 1;
    // A `Ret`'s move retires with the region's last segment.
    let end = close + u32::from(info[close as usize].is(OpInfo::RET));
    let mut start = t.row;
    for pc in t.row..=end {
        if pc == end || info[pc as usize].is(OpInfo::SELECT) {
            let mut stats = SimStats::default();
            retire_run(&info[start as usize..pc as usize], &mut stats, rec);
            segs.push(Segment {
                start,
                end: pc,
                summary: rec.summary(&stats),
            });
            start = pc + 1;
        }
    }
}

/// A record the weld table can pair: its handler is [`base`] of its `kind`.
fn weld(kind: u8) -> (OpRecord, u8) {
    (rec(base(usize::from(kind))), kind)
}

/// A record no pair takes, on `handler`.
fn lone(handler: Handler) -> (OpRecord, u8) {
    (rec(handler), K_NONE)
}

/// The one prepare-time statement of an instruction that [`Prep::check`]
/// accepted, with `lanes` the lane count of a vector kind that has one: its
/// record (what its handler needs), its [`OpInfo`] row on a target with cost
/// table `cost` and its pair kind ([`K_NONE`] when it cannot take part in a
/// pair). Block numbers are region indexes as they stand. A call's record is
/// completed by the builder, which knows its call-table index (`e`) and its
/// after-call region (`f`). A vector register is not scoreboarded, so a row
/// names one as untracked ([`NO`]).
#[allow(clippy::too_many_lines)]
pub(crate) fn lower(inst: &MInst, lanes: u32, cost: &CostModel) -> (OpRecord, OpInfo, u8) {
    use LatClass as L;
    let unit = |class, dst, a, b| OpInfo::unit(class, cost, dst, a, b);
    let (mut r, row, kind);
    match *inst {
        MInst::Imm { dst, value } => {
            (r, kind) = weld(K_IMM);
            (r.a, r.imm) = (dst.index, value);
            row = unit(L::Mov, dst, NO, NO);
        }
        MInst::FImm { dst, value } => {
            (r, kind) = weld(K_FIMM);
            (r.a, r.imm) = (dst.index, value.to_bits() as i64);
            row = unit(L::Mov, dst, NO, NO);
        }
        MInst::Mov { dst, src } => {
            (r, kind) = by_class(
                dst.class,
                [weld(K_MOV_INT), weld(K_MOV_FLOAT), lone(h_mov_vec)],
            );
            (r.a, r.b) = (dst.index, src.index);
            row = unit(L::Mov, dst, src, NO);
        }
        MInst::IntOp {
            op,
            width,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = weld(K_INT_OP);
            (r.a, r.b, r.c) = (dst.index, lhs.index, rhs.index);
            r.d = alu_bits(op) | wbits(width) << 4 | u16::from(signed) << 6;
            let class = match op {
                AluOp::Mul => L::Mul,
                AluOp::Div | AluOp::Rem => L::Div,
                _ => L::Alu,
            };
            row = unit(class, dst, lhs, rhs);
        }
        MInst::FloatOp {
            op,
            double,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = weld(K_FLOAT_OP);
            (r.a, r.b, r.c) = (dst.index, lhs.index, rhs.index);
            r.d = fpu_bits(op) | u16::from(double) << 3;
            let class = match op {
                FpuOp::Mul => L::FpMul,
                FpuOp::Div => L::FpDiv,
                _ => L::FpAdd,
            };
            row = unit(class, dst, lhs, rhs);
        }
        MInst::IntNeg { width, dst, src } => {
            (r, kind) = lone(h_int_neg);
            (r.a, r.b, r.d) = (dst.index, src.index, wbits(width));
            row = unit(L::Alu, dst, src, NO);
        }
        MInst::IntNot { width, dst, src } => {
            (r, kind) = lone(h_int_not);
            (r.a, r.b, r.d) = (dst.index, src.index, wbits(width));
            row = unit(L::Alu, dst, src, NO);
        }
        MInst::FloatNeg { double, dst, src } => {
            (r, kind) = lone(h_float_neg);
            (r.a, r.b, r.d) = (dst.index, src.index, u16::from(double));
            row = unit(L::FpAdd, dst, src, NO);
        }
        MInst::IntCmp {
            pred,
            width,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = weld(K_INT_CMP);
            (r.a, r.b, r.c) = (dst.index, lhs.index, rhs.index);
            r.d = pred_bits(pred) | wbits(width) << 3 | u16::from(signed) << 5;
            row = unit(L::Alu, dst, lhs, rhs);
        }
        MInst::FloatCmp {
            pred,
            double,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = lone(h_float_cmp);
            (r.a, r.b, r.c) = (dst.index, lhs.index, rhs.index);
            r.d = pred_bits(pred) | u16::from(double) << 3;
            row = unit(L::FpAdd, dst, lhs, rhs);
        }
        // The row's second read is whichever source the condition picks: it
        // names `if_true`'s file and whoever retires it supplies the register.
        MInst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            (r, kind) = lone(by_class(
                dst.class,
                [h_select_int, h_select_float, h_select_vec],
            ));
            (r.a, r.b) = (dst.index, cond.index);
            (r.c, r.d) = (if_true.index, if_false.index);
            let select = by_class(dst.class, [OpInfo::SELECT, OpInfo::SELECT, 0]);
            row = unit(L::Mov, dst, cond, if_true).with(select);
        }
        MInst::IntToFloat {
            signed,
            double,
            dst,
            src,
        } => {
            (r, kind) = lone(h_int_to_float);
            (r.a, r.b) = (dst.index, src.index);
            r.d = u16::from(signed) | u16::from(double) << 1;
            row = unit(L::Convert, dst, src, NO);
        }
        MInst::FloatToInt {
            width,
            signed,
            dst,
            src,
        } => {
            (r, kind) = lone(h_float_to_int);
            (r.a, r.b) = (dst.index, src.index);
            r.d = wbits(width) | u16::from(signed) << 2;
            row = unit(L::Convert, dst, src, NO);
        }
        MInst::FloatCvt {
            to_double,
            dst,
            src,
        } => {
            (r, kind) = lone(h_float_cvt);
            (r.a, r.b, r.d) = (dst.index, src.index, u16::from(to_double));
            row = unit(L::Convert, dst, src, NO);
        }
        MInst::IntResize {
            width,
            signed,
            dst,
            src,
        } => {
            (r, kind) = weld(K_INT_RESIZE);
            (r.a, r.b) = (dst.index, src.index);
            r.d = wbits(width) | u16::from(signed) << 2;
            row = unit(L::Alu, dst, src, NO);
        }
        MInst::Load {
            width,
            float,
            signed,
            dst,
            base,
            offset,
        } => {
            if float {
                (r, kind) = weld(K_LOAD_FLOAT);
                r.d = wbits(width);
            } else {
                (r, kind) = weld(K_LOAD_INT);
                r.d = wbits(width) | u16::from(signed) << 2;
            }
            (r.a, r.b, r.imm) = (dst.index, base.index, offset);
            row = unit(L::Load, dst, base, NO);
        }
        MInst::Store {
            width,
            float,
            base,
            offset,
            src,
        } => {
            (r, kind) = weld(if float { K_STORE_FLOAT } else { K_STORE_INT });
            (r.a, r.b, r.imm) = (src.index, base.index, offset);
            r.d = wbits(width);
            row = unit(L::Store, NO, base, src);
        }
        MInst::VecLoad { dst, base, offset } => {
            (r, kind) = lone(h_vec_load);
            (r.a, r.b, r.imm) = (dst.index, base.index, offset);
            row = unit(L::VecLoad, NO, base, NO);
        }
        MInst::VecStore { base, offset, src } => {
            (r, kind) = lone(h_vec_store);
            (r.a, r.b, r.imm) = (src.index, base.index, offset);
            row = unit(L::VecStore, NO, base, NO);
        }
        MInst::VecSplatInt { elem, dst, src } => {
            (r, kind) = lone(h_vec_splat_int);
            (r.a, r.b, r.d, r.e) = (dst.index, src.index, wbits(elem), lanes);
            row = unit(L::Vec, NO, src, NO);
        }
        MInst::VecSplatFloat { elem, dst, src } => {
            (r, kind) = lone(h_vec_splat_float);
            (r.a, r.b, r.d, r.e) = (dst.index, src.index, wbits(elem), lanes);
            row = unit(L::Vec, NO, src, NO);
        }
        MInst::VecIntOp {
            op,
            elem,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = lone(h_vec_int_op);
            (r.a, r.b, r.c, r.e) = (dst.index, lhs.index, rhs.index, lanes);
            r.d = alu_bits(op) | wbits(elem) << 4 | u16::from(signed) << 6;
            row = unit(L::Vec, NO, NO, NO);
        }
        MInst::VecFloatOp {
            op,
            elem,
            dst,
            lhs,
            rhs,
        } => {
            (r, kind) = lone(h_vec_float_op);
            (r.a, r.b, r.c, r.e) = (dst.index, lhs.index, rhs.index, lanes);
            r.d = fpu_bits(op) | wbits(elem) << 3;
            row = unit(L::Vec, NO, NO, NO);
        }
        MInst::VecReduceInt {
            op,
            elem,
            signed,
            dst,
            src,
        } => {
            (r, kind) = lone(h_vec_reduce_int);
            (r.a, r.b, r.e) = (dst.index, src.index, lanes);
            r.d = red_bits(op) | wbits(elem) << 2 | u16::from(signed) << 4;
            row = unit(L::VecReduce, dst, NO, NO);
        }
        MInst::VecReduceFloat { op, elem, dst, src } => {
            (r, kind) = lone(h_vec_reduce_float);
            (r.a, r.b, r.e) = (dst.index, src.index, lanes);
            r.d = red_bits(op) | wbits(elem) << 2;
            row = unit(L::VecReduce, dst, NO, NO);
        }
        MInst::Spill { slot, src } => {
            (r, kind) = by_class(
                src.class,
                [weld(K_SPILL_INT), weld(K_SPILL_FLOAT), lone(h_spill_vec)],
            );
            (r.a, r.e) = (src.index, slot);
            row = unit(L::SpillStore, NO, src, NO);
        }
        MInst::Reload { slot, dst } => {
            (r, kind) = by_class(
                dst.class,
                [weld(K_RELOAD_INT), weld(K_RELOAD_FLOAT), lone(h_reload_vec)],
            );
            (r.a, r.e) = (dst.index, slot);
            row = unit(L::SpillReload, dst, NO, NO);
        }
        MInst::Jump { target } => {
            (r, kind) = weld(K_JUMP);
            r.e = target;
            row = OpInfo::control(cost.branch_taken, NO, OpInfo::BRANCH);
        }
        MInst::BranchNz {
            cond,
            then_target,
            else_target,
        } => {
            (r, kind) = weld(K_BRANCH_NZ);
            (r.a, r.e, r.f) = (cond.index, then_target, else_target);
            row = OpInfo::control(0, cond, OpInfo::BRANCH);
        }
        MInst::Call { .. } => {
            (r, kind) = lone(h_call);
            row = OpInfo::control(0, NO, 0);
        }
        MInst::Ret { value } => {
            (r, kind) = match value {
                None => weld(K_RET_NONE),
                Some(v) => by_class(
                    v.class,
                    [weld(K_RET_INT), weld(K_RET_FLOAT), lone(h_ret_vec)],
                ),
            };
            r.a = value.map_or(0, |v| v.index);
            row = unit(L::Mov, NO, value.unwrap_or(NO), NO).with(OpInfo::CLOSES | OpInfo::RET);
        }
    }
    (r, row, kind)
}
