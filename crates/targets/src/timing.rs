//! Microarchitectural timing: the in-order pipeline tier.
//!
//! Under flat timing ([`TimingKind::Flat`]) every retired instruction adds
//! its per-opcode cost from the target's [`CostModel`] to
//! [`SimStats::cycles`] and nothing else; the executor prepays those sums
//! per straight-line region and needs no model at run time. Under
//! [`TimingKind::InOrder`] the same retirements drive an
//! [`InOrderPipeline`]: a scoreboard-style in-order core with RAW hazard
//! stalls from per-op latencies (which makes load-use stalls emerge
//! naturally), structural drains on unpipelined divide units, and a 2-bit
//! branch-history-table predictor with a misprediction penalty derived from
//! the target's branch cost.
//!
//! The contract: **timing never changes architecture**. The pipeline
//! receives the resolved cycle charge and the operand registers of each
//! retiring instruction, in program order, but cannot observe or influence
//! values, memory, traps or control flow. That is also all it can observe —
//! the *order* of retirement, not when the host executed what — which is
//! what lets the executor run a whole straight-line region first and retire
//! its instructions on the pipeline afterwards, when the region closes. The
//! pipeline goes one step further for a region's *segment*, its `op`
//! retirements up to the control instruction that closes it: the segment's
//! [`Summary`] is the pipeline's own result for those rows on a reset
//! board, recorded once at prepare time by running them through
//! [`TimingModel::op`] ([`Recorder`]), and [`InOrderPipeline::apply`]
//! replays it at run time only when the entry board provably yields the
//! same schedule, shifted — so the model still sees nothing but the order
//! of retirement, and its timing rule is still stated once, in `op`. So
//! results, memory images and all architectural counters (`instructions`,
//! `loads`, `stores`, spills, `branches`, `vector_ops`) are bit-identical
//! across tiers, and only the timing-class counters (`cycles`, `stalls`,
//! `mispredicts`, `predicted`) may differ; flat timing keeps the last three
//! at zero.
//!
//! The tier selector ([`TimingKind`]) lives on
//! [`TargetDesc`](crate::TargetDesc) and is part of its identity, so engine
//! caches distinguish the same core with different timing tiers.

use crate::desc::CostModel;
use crate::simulator::SimStats;
use serde::{Deserialize, Serialize};

/// Sentinel operand meaning "no register tracked" (vector registers, stores,
/// immediates): the scoreboard treats it as always ready and never writes it.
pub(crate) const NO_REG: u32 = u32::MAX;

/// The key of register number `u16::MAX`, which no register file holds:
/// keys from here up — it names an untracked read operand of an `OpInfo`
/// row — and [`NO_REG`] are never written, so they are always ready.
pub(crate) const UNTRACKED: u32 = (u16::MAX as u32) << 1;

/// Number of 2-bit counters in the branch history table. Sites index it by
/// their low bits, so distinct static branches may alias — exactly like a
/// real direct-mapped BHT.
const BHT_SIZE: usize = 256;

/// Which timing model a [`TargetDesc`](crate::TargetDesc) simulates with.
///
/// This is a property of the *modeled core* (like its register file or cost
/// table), not of the JIT configuration: it lives on the target description,
/// is part of its equality so engine caches distinguish models, and is
/// copied onto every [`PreparedProgram`](crate::PreparedProgram) at prepare
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TimingKind {
    /// Flat per-opcode costs, prepaid per straight-line region: the
    /// historical accounting.
    #[default]
    Flat,
    /// Scoreboarded in-order pipeline with hazard stalls and a 2-bit branch
    /// predictor ([`InOrderPipeline`]).
    InOrder,
}

impl TimingKind {
    /// Stable one-byte discriminant mixed into the target fingerprint.
    pub(crate) fn tag(self) -> u8 {
        match self {
            TimingKind::Flat => 0,
            TimingKind::InOrder => 1,
        }
    }

    /// Human-readable name (CLI listings, disasm headers, bench rows).
    pub fn label(self) -> &'static str {
        match self {
            TimingKind::Flat => "flat",
            TimingKind::InOrder => "in-order",
        }
    }
}

/// Latency class of one retiring instruction: which functional unit it
/// occupies. The flat model ignores it; the pipeline uses it for structural
/// hazards (divides drain the pipe) and `disasm` prints it so cost
/// attribution under the pipelined model is inspectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatClass {
    /// Simple integer ALU op (add/sub/logic/shift/compare/resize).
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide / remainder (unpipelined).
    Div,
    /// FP add/sub/compare/min/max.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide (unpipelined).
    FpDiv,
    /// Scalar load.
    Load,
    /// Scalar store.
    Store,
    /// Register move / immediate / return.
    Mov,
    /// Int<->float conversion.
    Convert,
    /// Whole-vector arithmetic.
    Vec,
    /// Vector load.
    VecLoad,
    /// Vector store.
    VecStore,
    /// Cross-lane reduction.
    VecReduce,
    /// Spill store to a stack slot.
    SpillStore,
    /// Reload from a stack slot.
    SpillReload,
}

impl LatClass {
    /// Short unit label used by `splitc disasm` under the pipelined model.
    pub fn label(self) -> &'static str {
        match self {
            LatClass::Alu => "alu",
            LatClass::Mul => "mul",
            LatClass::Div => "div",
            LatClass::FpAdd => "fadd",
            LatClass::FpMul => "fmul",
            LatClass::FpDiv => "fdiv",
            LatClass::Load => "load",
            LatClass::Store => "store",
            LatClass::Mov => "mov",
            LatClass::Convert => "cvt",
            LatClass::Vec => "vec",
            LatClass::VecLoad => "vload",
            LatClass::VecStore => "vstore",
            LatClass::VecReduce => "vred",
            LatClass::SpillStore => "spill",
            LatClass::SpillReload => "reload",
        }
    }
}

/// The sink for a straight-line instruction's retirement, which generic
/// code charges row by row: [`InOrderPipeline`] at run time and, at prepare
/// time, the [`Recorder`] that summarizes a segment of such rows. The
/// control instructions (branch, jump, call) and the end of a run are
/// charged on the concrete pipeline, by the handlers that close a region.
///
/// Register operands are passed as packed scoreboard keys —
/// `(index << 1) | float_bit`, or [`NO_REG`] for untracked operands. A model
/// mutates only the timing-class counters of [`SimStats`] (`cycles`,
/// `stalls`); all architectural counters stay charged by the executor.
pub trait TimingModel {
    /// A non-branch instruction retires: `class`/`cost` describe its unit and
    /// latency, `dst` its written register, `a`/`b` its read registers.
    fn op(&mut self, stats: &mut SimStats, class: LatClass, cost: u64, dst: u32, a: u32, b: u32);
}

/// A scoreboard-style in-order, single-issue pipeline.
///
/// Semantics (one instruction per call, program order):
///
/// * An instruction wants to issue the cycle after its predecessor
///   (`now + 1`) but must wait until every source register's writeback —
///   the wait is a RAW **hazard stall** (`stats.stalls`). Because a load's
///   result is ready `load` cycles after issue, a dependent consumer in the
///   next slot stalls `load - 1` cycles: the classic load-use stall.
/// * The destination register becomes ready `cost` cycles after issue
///   (`cost` doubles as the unit latency; single-cycle ops forward with no
///   stall).
/// * Divides ([`LatClass::Div`]/[`LatClass::FpDiv`]) occupy an unpipelined
///   unit: issue blocks for the full latency (a **structural** stall).
/// * Conditional branches consult a direct-mapped table of
///   2-bit saturating counters indexed by the branch's static site id
///   (predict taken when the counter is ≥ 2, then step the counter toward
///   the outcome). A correct prediction costs one cycle
///   (`stats.predicted`); a misprediction additionally pays a front-end
///   refill penalty of `2 + branch_taken` cycles (`stats.mispredicts`).
///   Unconditional jumps have statically-known targets and always predict.
/// * Calls drain the pipeline (wait for every outstanding writeback, then
///   pay the call overhead) and clear the scoreboard: caller and callee
///   frames reuse scoreboard keys, so in-flight state must not leak across
///   the boundary.
/// * `finish` drains outstanding writebacks at the end of the run.
///
/// Every retiring instruction contributes at least one cycle, so
/// `cycles >= instructions` always holds, and exactly one of
/// `predicted`/`mispredicts` is counted per branch, so
/// `predicted + mispredicts == branches`.
///
/// Deliberate simplifications, documented rather than modeled: vector
/// registers are not scoreboarded (vector ops still occupy issue slots and
/// charge latency, but cross-register vector dependencies do not stall), and
/// memory is not disambiguated (no store-to-load forwarding stalls).
#[derive(Debug, Clone, PartialEq)]
pub struct InOrderPipeline {
    /// Cycle at which the most recent instruction issued.
    now: u64,
    /// Latest outstanding writeback (drained by calls and `finish`).
    horizon: u64,
    /// Earliest issue cycle at which each scoreboard key's value is ready;
    /// lazily grown, missing keys are ready immediately. A prepared run
    /// lends it the table its `FramePool` keeps, so growing it allocates on
    /// a pool's first runs only.
    pub(crate) ready: Vec<u64>,
    /// 2-bit saturating counters, initialized weakly-not-taken.
    bht: [u8; BHT_SIZE],
    /// Front-end refill cost of a mispredicted conditional branch.
    mispredict_penalty: u64,
}

impl InOrderPipeline {
    /// Build the pipeline for one run on a target with cost table `cost`.
    pub fn new(cost: &CostModel) -> Self {
        InOrderPipeline {
            now: 0,
            horizon: 0,
            ready: Vec::new(),
            bht: [1; BHT_SIZE],
            // Redirect-and-refill after a wrong guess: the 2-cycle resolve
            // bubble plus the same front-end refill a taken branch pays.
            mispredict_penalty: 2 + cost.branch_taken,
        }
    }

    /// Cycle at which the most recent instruction issued.
    #[cfg(test)]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    fn ready_at(&self, r: u32) -> u64 {
        if r == NO_REG {
            0
        } else {
            self.ready.get(r as usize).copied().unwrap_or(0)
        }
    }

    fn set_ready(&mut self, r: u32, at: u64) {
        if r == NO_REG {
            return;
        }
        let i = r as usize;
        if i >= self.ready.len() {
            self.ready.resize(i + 1, 0);
        }
        self.ready[i] = at;
        if at > self.horizon {
            self.horizon = at;
        }
    }

    /// Retire a straight-line segment in one step from its [`Summary`], if
    /// every live-in key is ready by its first reader's slot: `true`, and the
    /// board and `stats` are exactly what retiring the segment's rows would
    /// leave; `false`, with nothing changed, otherwise.
    ///
    /// Why exactly: [`TimingModel::op`] issues a row at `max(seq, ready[a],
    /// ready[b])`, `seq` one past the previous issue. A live-in key ready by
    /// `now + slot` cannot raise that maximum at its first reader's slot, nor
    /// at any later one, just as on the reset board, where it reads 0; a key
    /// the segment wrote reads the same offset on both boards. So, row by row
    /// (by induction), every issue, drain and writeback happens at `now` plus
    /// its reset-board cycle, and the cycles, stalls, ready offsets and
    /// latest writeback the summary recorded are the row walk's, shifted.
    #[inline]
    pub(crate) fn apply(&mut self, stats: &mut SimStats, s: &Summary, keys: &[SlotKey]) -> bool {
        let now = self.now;
        let entries = &keys[s.keys as usize..][..usize::from(s.live) + usize::from(s.written)];
        let (live, written) = entries.split_at(usize::from(s.live));
        if live
            .iter()
            .any(|k| self.ready_at(u32::from(k.key)) > now + u64::from(k.at))
        {
            return false;
        }
        stats.cycles += u64::from(s.cycles);
        stats.stalls += u64::from(s.stalls);
        self.now = now + u64::from(s.cycles);
        // Written keys are in ascending order: the last one sizes the board
        // as writing them one by one would.
        if let Some(last) = written.last() {
            let len = usize::from(last.key) + 1;
            if self.ready.len() < len {
                self.ready.resize(len, 0);
            }
            for k in written {
                self.ready[usize::from(k.key)] = now + u64::from(k.at);
            }
            self.horizon = self.horizon.max(now + u64::from(s.horizon));
        }
        true
    }

    /// A conditional branch retires. `site` is a deterministic static id of
    /// the branch (its offset in the function's flattened instruction
    /// stream), `taken` the outcome and `cond` the condition register's key.
    /// The flat taken / not-taken charge is unused: a miss costs the penalty
    /// fixed by [`InOrderPipeline::new`].
    pub(crate) fn branch(
        &mut self,
        stats: &mut SimStats,
        site: u32,
        taken: bool,
        _cost: u64,
        cond: u32,
    ) {
        let seq = self.now + 1;
        let issue = seq.max(self.ready_at(cond));
        let stall = issue - seq;
        stats.stalls += stall;
        let ctr = &mut self.bht[site as usize & (BHT_SIZE - 1)];
        let penalty = if (*ctr >= 2) == taken {
            stats.predicted += 1;
            0
        } else {
            stats.mispredicts += 1;
            self.mispredict_penalty
        };
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        stats.cycles += 1 + stall + penalty;
        self.now = issue + penalty;
    }

    /// An unconditional jump retires (statically-known target); its flat
    /// charge is unused.
    pub(crate) fn jump(&mut self, stats: &mut SimStats, _cost: u64) {
        // Statically-known target: the front end follows it for free.
        stats.predicted += 1;
        stats.cycles += 1;
        self.now += 1;
    }

    /// A call retires, charged `cost` before the callee executes.
    pub(crate) fn call(&mut self, stats: &mut SimStats, cost: u64) {
        let seq = self.now + 1;
        // Drain: wait for every outstanding writeback before transferring.
        let issue = seq.max(self.horizon);
        let stall = issue - seq;
        stats.stalls += stall;
        let lat = cost.max(1);
        stats.cycles += lat + stall;
        self.now = issue + lat - 1;
        // Caller and callee frames share scoreboard keys; start the callee
        // (and, on return, the caller's continuation) with a clean board.
        self.ready.clear();
        self.horizon = self.now;
    }

    /// The top-level run finished: drain outstanding writebacks.
    pub(crate) fn finish(&mut self, stats: &mut SimStats) {
        let drain = self.horizon.saturating_sub(self.now);
        stats.stalls += drain;
        stats.cycles += drain;
        self.now = self.horizon;
    }
}

impl TimingModel for InOrderPipeline {
    // Inlined into the executors' row walks (`retire_run`), where `now` and
    // the counters then stay in registers across a straight-line run.
    #[inline]
    fn op(&mut self, stats: &mut SimStats, class: LatClass, cost: u64, dst: u32, a: u32, b: u32) {
        let seq = self.now + 1;
        let issue = seq.max(self.ready_at(a)).max(self.ready_at(b));
        let stall = issue - seq;
        stats.stalls += stall;
        stats.cycles += 1 + stall;
        self.now = issue;
        let lat = cost.max(1);
        self.set_ready(dst, issue + lat);
        if matches!(class, LatClass::Div | LatClass::FpDiv) {
            // Unpipelined unit: nothing can issue until the divide retires.
            let drain = lat - 1;
            stats.stalls += drain;
            stats.cycles += drain;
            self.now += drain;
        }
    }
}

/// One scoreboard key of a [`Summary`], packed: a live-in key with the
/// reset-board issue slot (`now + 1`) of its first reader, or a key the
/// segment writes with its final ready offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotKey {
    pub(crate) key: u16,
    pub(crate) at: u16,
}

/// What retiring one straight-line segment of `op` rows does to an
/// [`InOrderPipeline`] whose board is reset (`now = 0`, every key ready):
/// the pipeline's own result, recorded by a [`Recorder`], with every cycle
/// relative to the segment's entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Summary {
    /// First of the segment's entries in its function's key table: `live`
    /// live-in keys, then `written` written keys in ascending order.
    pub(crate) keys: u32,
    pub(crate) live: u16,
    pub(crate) written: u16,
    /// Cycles the rows take, which is also how far they move `now`.
    pub(crate) cycles: u16,
    pub(crate) stalls: u16,
    /// The latest writeback the rows schedule (0 if they write no key).
    pub(crate) horizon: u16,
}

/// Records [`Summary`]s at prepare time: the rows of a segment retire
/// through it on a reset board — [`InOrderPipeline::op`] does all the
/// timing — while it notes each tracked key read before the segment writes
/// it, with its slot, and each key written. The entries of one function's
/// segments accumulate in `keys`, which is what the function keeps.
#[derive(Debug)]
pub(crate) struct Recorder {
    board: InOrderPipeline,
    pub(crate) keys: Vec<SlotKey>,
    /// First entry of the segment being recorded.
    first: usize,
    /// Every key and slot of the segment so far fits its `u16`.
    fits: bool,
}

impl Recorder {
    /// A recorder over functions of at most `rows` instructions, for
    /// registers whose keys are below `keys`: both tables are sized here,
    /// once (a row reads at most two keys and writes one).
    pub(crate) fn new(rows: usize, keys: usize) -> Self {
        let mut board = InOrderPipeline::new(&CostModel::default());
        board.ready.reserve_exact(keys);
        Recorder {
            board,
            keys: Vec::with_capacity(3 * rows),
            first: 0,
            fits: true,
        }
    }

    /// Start the next function: its key table begins empty.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.first = 0;
    }

    fn note(&mut self, key: u32, at: u64) {
        match (u16::try_from(key), u16::try_from(at)) {
            (Ok(key), Ok(at)) => self.keys.push(SlotKey { key, at }),
            _ => self.fits = false,
        }
    }

    /// Close the segment whose rows retired through the recorder with
    /// `stats`: its summary, or `None` if a key or an offset does not fit 16
    /// bits (the segment then keeps the row walk). The board is reset for
    /// the next segment either way.
    pub(crate) fn summary(&mut self, stats: &SimStats) -> Option<Summary> {
        let entries = &mut self.keys[self.first..];
        // Live-ins have a slot of at least 1; written keys are noted at 0.
        entries.sort_unstable_by_key(|e| (e.at == 0, e.key));
        let live = entries.iter().take_while(|e| e.at != 0).count();
        let board = &mut self.board;
        for e in &mut entries[live..] {
            // At most the horizon, which is checked below.
            e.at = board.ready[usize::from(e.key)] as u16;
        }
        for e in entries.iter() {
            board.ready[usize::from(e.key)] = 0;
        }
        let written = entries.len() - live;
        let fits = self.fits
            && stats.cycles <= u64::from(u16::MAX)
            && board.horizon <= u64::from(u16::MAX)
            && u16::try_from(live.max(written)).is_ok()
            && u32::try_from(self.first).is_ok();
        if !self.fits {
            // A key past 16 bits was never noted, so never reset above.
            board.ready.clear();
        }
        let horizon = board.horizon;
        (board.now, board.horizon, self.fits) = (0, 0, true);
        if !fits {
            self.keys.truncate(self.first);
            return None;
        }
        let summary = Summary {
            keys: self.first as u32,
            live: live as u16,
            written: written as u16,
            cycles: stats.cycles as u16,
            stalls: stats.stalls as u16,
            horizon: horizon as u16,
        };
        self.first = self.keys.len();
        Some(summary)
    }
}

impl TimingModel for Recorder {
    fn op(&mut self, stats: &mut SimStats, class: LatClass, cost: u64, dst: u32, a: u32, b: u32) {
        let slot = self.board.now + 1;
        for k in [a, b] {
            // Ready 0 on the reset board: not written by the segment, and
            // not read before either, since a live-in is marked ready at 1,
            // which delays no issue slot (written directly: `set_ready`
            // would move the horizon).
            if k < UNTRACKED && self.board.ready_at(k) == 0 {
                let i = k as usize;
                if i >= self.board.ready.len() {
                    self.board.ready.resize(i + 1, 0);
                }
                self.board.ready[i] = 1;
                self.note(k, slot);
            }
        }
        // A written key reads at least 2; its offset is read at the end.
        if dst < UNTRACKED && self.board.ready_at(dst) < 2 {
            self.note(dst, 0);
        }
        self.board.op(stats, class, cost, dst, a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats::default()
    }

    #[test]
    fn pipeline_charges_load_use_stalls() {
        let cost = CostModel::default();
        let mut s = stats();
        let mut tm = InOrderPipeline::new(&cost);
        // load r0 (latency 3) immediately consumed by an ALU op.
        tm.op(&mut s, LatClass::Load, cost.load, 0, 2, NO_REG);
        tm.op(&mut s, LatClass::Alu, cost.int_op, 4, 0, NO_REG);
        // issue slots: load at 1, consumer wants 2 but r0 ready at 1+3=4.
        assert_eq!(s.stalls, 2, "load-use must stall latency-1 cycles");
        assert_eq!(s.cycles, 1 + 1 + 2);

        // An independent op in the shadow of a load does not stall.
        let mut s2 = stats();
        let mut tm2 = InOrderPipeline::new(&cost);
        tm2.op(&mut s2, LatClass::Load, cost.load, 0, 2, NO_REG);
        tm2.op(&mut s2, LatClass::Alu, cost.int_op, 5, 6, NO_REG);
        assert_eq!(s2.stalls, 0);
    }

    #[test]
    fn divides_drain_the_unpipelined_unit() {
        let cost = CostModel::default();
        let mut s = stats();
        let mut tm = InOrderPipeline::new(&cost);
        tm.op(&mut s, LatClass::Div, cost.int_div, 0, 2, 4);
        // One issue cycle plus (latency - 1) structural stall cycles.
        assert_eq!(s.cycles, cost.int_div);
        assert_eq!(s.stalls, cost.int_div - 1);
    }

    #[test]
    fn bht_learns_a_biased_branch() {
        let cost = CostModel::default();
        let mut s = stats();
        let mut tm = InOrderPipeline::new(&cost);
        for _ in 0..50 {
            tm.branch(&mut s, 9, true, cost.branch_taken, NO_REG);
        }
        // Initialized weakly-not-taken: one miss, then the counter saturates.
        assert_eq!(s.mispredicts, 1);
        assert_eq!(s.predicted, 49);
        assert_eq!(s.mispredicts + s.predicted, 50);

        // An alternating branch at a different site keeps missing.
        let mut s2 = stats();
        let mut tm2 = InOrderPipeline::new(&cost);
        for i in 0..50 {
            tm2.branch(&mut s2, 10, i % 2 == 0, cost.branch_taken, NO_REG);
        }
        assert!(s2.mispredicts > s2.predicted);
    }

    #[test]
    fn calls_drain_and_finish_flushes() {
        let cost = CostModel::default();
        let mut s = stats();
        let mut tm = InOrderPipeline::new(&cost);
        tm.op(&mut s, LatClass::Load, cost.load, 0, NO_REG, NO_REG);
        let before = s.cycles;
        tm.call(&mut s, cost.call);
        // The call waits for the load's writeback (issue 1, ready 4): the
        // natural slot is 2, so it stalls 2 cycles, then pays the overhead.
        assert_eq!(s.cycles, before + 2 + cost.call);
        let drained = s.cycles;
        tm.finish(&mut s);
        assert_eq!(s.cycles, drained, "post-call board is clean");
        // finish() after an in-flight load pays the outstanding writeback.
        let mut s3 = stats();
        let mut tm3 = InOrderPipeline::new(&cost);
        tm3.op(&mut s3, LatClass::Load, cost.load, 0, NO_REG, NO_REG);
        tm3.finish(&mut s3);
        assert_eq!(s3.cycles, 1 + cost.load);
    }

    #[test]
    fn every_instruction_costs_at_least_one_cycle() {
        let cost = CostModel::default();
        let mut s = stats();
        let mut tm = InOrderPipeline::new(&cost);
        let mut retired = 0u64;
        for i in 0..200u32 {
            tm.op(&mut s, LatClass::Alu, 1, i % 8, (i + 1) % 8, NO_REG);
            retired += 1;
            if i % 7 == 0 {
                tm.branch(&mut s, i, i % 3 == 0, 2, i % 8);
                retired += 1;
            }
        }
        tm.finish(&mut s);
        assert!(s.cycles >= retired);
    }
}
