//! Pre-decoded execution: deploy-time preparation of machine programs.
//!
//! Split compilation moves work out of the latency-critical stage into an
//! earlier stage that runs once. This module applies the same discipline to
//! *execution*: a [`PreparedProgram`] is built once per `(program, target)`
//! pair — at deploy time, right after online compilation — and can then be
//! run any number of times with none of the per-run decoding a block walk
//! over the [`MProgram`] would pay on every instruction:
//!
//! * every function's blocks are **flattened into one linear record
//!   stream**, with each block's number standing for the region its entry
//!   opens (no `blocks[b].insts[i]` double indirection, no per-step
//!   instruction clone);
//! * call targets are resolved from `&str` names to **dense function
//!   indices** (no per-call linear name lookup);
//! * every register operand is **checked once at prepare time** — its class
//!   against the register file its handler indexes, its index against that
//!   file's size, both read off the instruction's `minst_shapes!` row — so
//!   the hot loop never re-validates (the validator's whole contract is
//!   listed on [`PreparedProgram::prepare`]);
//! * what retiring each instruction costs — latency class, cycle charge,
//!   scoreboard keys, counter bumps — is **tabulated once** per instruction
//!   ([`OpInfo`], stated per kind by the instruction's `lower` arm in
//!   `dispatch.rs`) and vector lane counts are precomputed;
//! * call frames come from a [`FramePool`] that recycles the register-file
//!   and spill-slot allocations across calls and across runs (and carries the
//!   run's optional wall-clock deadline, which the executing thread polls at
//!   region boundaries — [`FramePool::set_deadline`]);
//! * every instruction is lowered straight from its [`MInst`] to a packed
//!   32-byte operand record whose fn-pointer **handler is the only statement
//!   of what the instruction does** to registers and memory (see
//!   [`dispatch`](crate::exec) internals).
//!
//! One executor runs those handlers, over **one record stream**, under one
//! accounting discipline, **region prepayment**. The threaded loop
//! ([`PreparedProgram::run`], either timing tier) dispatches the stream, one
//! record per instruction, in which adjacent records are welded in pairs
//! (the first one's handler runs both). Fuel, instruction
//! counts and the architectural counters summed from the [`OpInfo`] rows are
//! prepaid per straight-line region. Under flat timing the region's summed
//! cycles are prepaid with them. Under in-order timing a region prepays no
//! cycles: the handler that closes it retires its rows on the run's
//! [`InOrderPipeline`], in order, and then makes the one call that needs a
//! run-time value (the branch's outcome and site, the jump, the call). The
//! **charge-point rule**: a handler touches the timing model only if it
//! closes a region, and it first retires every row of the region ahead of
//! itself — sound because the timing model only ever sees the order of
//! retirement. Every straight-line row names its scoreboard keys
//! statically, so a region's rows up to that one charge point form one
//! *segment*, whose effect on a reset board is recorded at prepare time; a
//! segment whose live-in registers are ready by their issue slots retires
//! in one step from that summary, any other row by row.
//!
//! Two cold exits leave it. A trap gives back what its prepaid region had
//! not retired. A region whose charge the
//! remaining fuel cannot cover is never prepaid: the fuel affords a strict
//! prefix of its straight-line instructions (the charge counts every one
//! through the closing control op), so that prefix runs one instruction at
//! a time, retires and is charged, and the run stops with
//! [`SimError::OutOfFuel`] — or the prefix's own trap — at the instruction
//! where fuel spent one instruction at a time would have run out.
//!
//! Two references check the executor: the vbc interpreter for results and
//! memory (the cross-crate differential tests), and recorded digests of
//! whole runs — outcome, every [`SimStats`] counter and the memory image,
//! under both timing tiers — for everything else. The digests were recorded
//! from a block walk that stated every instruction a second time; welded,
//! unwelded and in-order runs of the same inputs must also agree with each
//! other.
//!
//! # Adding a machine instruction
//!
//! 1. the variant in [`MInst`] (`mcode.rs`) and its row in `minst_shapes!`
//!    beside it: tag, fields in wire order, each field's role and — for a
//!    register the handler will index in a fixed file — that file's class.
//!    The row *is* the store's wire encoding, the online compiler's def/use
//!    walks and the prepare-time check (`MInst::prepare_check`);
//!    nothing in `store.rs` or `mir.rs` names the variant;
//! 2. its handler and `lower` arm in `dispatch.rs`. The arm states the
//!    record, the [`OpInfo`] row — all either timing tier needs: a
//!    straight-line kind names its scoreboard keys statically, so that it is
//!    never a charge point — and the pair kind: `weld(K_…)` for a kind the
//!    weld table may pair, which also gives the record that kind's handler,
//!    `lone(h_…)` otherwise.
//!
//! Then add it to the unit programs that pin every kind (`every_kind_program`
//! and `one_of_every_variant` in this module's tests) and to the operand
//! lists written out beside them, and record their new digests.
//!
//! # Example
//!
//! ```
//! use splitc_targets::{
//!     AluOp, FramePool, MBlock, MFunction, MInst, MProgram, MachineValue, PReg,
//!     PreparedProgram, PreparedSimulator, TargetDesc, Width,
//! };
//!
//! let f = MFunction {
//!     name: "add1".into(),
//!     params: vec![PReg::int(0)],
//!     blocks: vec![MBlock {
//!         insts: vec![
//!             MInst::Imm { dst: PReg::int(1), value: 1 },
//!             MInst::IntOp {
//!                 op: AluOp::Add, width: Width::W32, signed: true,
//!                 dst: PReg::int(0), lhs: PReg::int(0), rhs: PReg::int(1),
//!             },
//!             MInst::Ret { value: Some(PReg::int(0)) },
//!         ],
//!     }],
//!     num_slots: 0,
//! };
//! let program = MProgram { name: "demo".into(), functions: vec![f] };
//! let target = TargetDesc::x86_sse();
//!
//! // Prepare once (deploy time)...
//! let prepared = PreparedProgram::prepare(&program, &target).unwrap();
//! // ...run many times (online), reusing one simulator and its frame pool.
//! let mut sim = PreparedSimulator::new(&prepared);
//! let mut mem = vec![0u8; 64];
//! for i in 0..10 {
//!     let out = sim.run("add1", &[MachineValue::Int(i)], &mut mem).unwrap();
//!     assert_eq!(out, Some(MachineValue::Int(i + 1)));
//! }
//! ```

use crate::desc::{CostModel, TargetDesc};
pub use crate::dispatch::FusionStats;
use crate::dispatch::{self, ExecCtx, OpRecord};
use crate::mcode::{MFunction, MInst, MProgram, PReg, Refusal, RegClass};
use crate::simulator::{MachineValue, SimError, SimStats, DEFAULT_SIM_FUEL, MAX_CALL_DEPTH};
use crate::timing::{InOrderPipeline, LatClass, SlotKey, TimingKind, TimingModel, NO_REG};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A value held in a spill slot of a prepared frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SlotValue {
    Empty,
    Int(i64),
    Float(f64),
    /// A vector: the slot's `vector_bytes` of [`Frame::slot_vec`].
    Vec,
}

/// One recycled call frame: the register files and spill slots of one call.
///
/// Vector registers are a single flat byte buffer (`vec_regs × vector_bytes`),
/// not one heap allocation per register; on scalar-only targets it is empty.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    pub(crate) int: Vec<i64>,
    pub(crate) float: Vec<f64>,
    pub(crate) vec: Vec<u8>,
    pub(crate) slots: Vec<SlotValue>,
    /// The bytes of spilled vectors, flat like `vec` (`slots × vector_bytes`).
    /// Sized by the first vector spill of a call and kept when the frame is
    /// recycled — `slots` says which ranges are live — so that executed
    /// vector spills do not allocate.
    pub(crate) slot_vec: Vec<u8>,
}

/// Copy the vector register bytes `src` into spill slot `slot` of a frame's
/// flat [`Frame::slot_vec`]. The first vector spill after the buffer was last
/// too small sizes it for all `slots` of the frame; every later one only
/// copies.
pub(crate) fn store_slot_vec(slot_vec: &mut Vec<u8>, slots: usize, slot: usize, src: &[u8]) {
    let vb = src.len();
    if slot_vec.len() < slots * vb {
        slot_vec.resize(slots * vb, 0);
    }
    slot_vec[slot * vb..(slot + 1) * vb].copy_from_slice(src);
}

/// A pool of reusable call frames (and call-argument scratch buffers).
///
/// Allocating a frame's register files and slot table — a `Vec<Vec<u8>>`
/// for the vector registers among them — on **every** call, recursive ones
/// included, would dominate short kernels. A `FramePool` hands frames out
/// of a free list instead: after a short warm-up, running a kernel performs
/// no allocation at all. Pools are target-agnostic (frames are resized on
/// acquire, reusing capacity), so one pool can serve a whole sweep across
/// many targets.
///
/// A pool can also carry an optional wall-clock **deadline** for the runs it
/// backs ([`FramePool::set_deadline`]): the executor polls it at every region
/// entry and aborts with [`SimError::Cancelled`] once it has passed — how the
/// serving tier stops a runaway kernel without killing the worker thread, and
/// without a second thread: the thread that executes is the one that reads
/// the clock.
#[derive(Debug, Default)]
pub struct FramePool {
    frames: Vec<Frame>,
    argv: Vec<Vec<MachineValue>>,
    /// The pipelined tier's scoreboard table, lent to each run's
    /// [`InOrderPipeline`] and taken back, so a warm run grows nothing.
    scoreboard: Vec<u64>,
    deadline: Option<Instant>,
    /// Polls to skip before the clock is read again; 0 reads it at the next.
    polls_to_skip: u32,
}

/// Polls per clock read of a deadline-carrying run: a poll is one simulated
/// region (tens of nanoseconds), so a passed deadline is noticed within about
/// a microsecond of execution for one ~25 ns clock read.
const DEADLINE_POLL_INTERVAL: u32 = 32;

impl FramePool {
    /// An empty pool; frames are created on first use and recycled after.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Frames currently sitting in the free list (for tests/diagnostics).
    pub fn pooled_frames(&self) -> usize {
        self.frames.len()
    }

    /// Set (`Some`) or clear (`None`) the deadline of subsequent runs drawn
    /// from this pool: once it has passed, execution stops at the next region
    /// boundary with [`SimError::Cancelled`]. The first poll after every call
    /// reads the clock, so a deadline that has already passed cancels before
    /// the first instruction. It stays set until replaced; callers that reuse
    /// one pool across requests set it per run.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.polls_to_skip = 0;
    }

    /// `true` once the deadline (if any) has passed. Hot-path polling site:
    /// without a deadline it is a single branch and never reads the clock.
    #[inline(always)]
    pub(crate) fn cancel_requested(&mut self) -> bool {
        match self.deadline {
            Some(at) => self.poll_deadline(at),
            None => false,
        }
    }

    /// The deadline-carrying half of [`FramePool::cancel_requested`]: read the
    /// clock once per [`DEADLINE_POLL_INTERVAL`] polls. A passed deadline
    /// leaves the countdown at 0, so every later poll agrees (the clock is
    /// monotonic).
    #[cold]
    #[inline(never)]
    fn poll_deadline(&mut self, at: Instant) -> bool {
        if self.polls_to_skip > 0 {
            self.polls_to_skip -= 1;
            return false;
        }
        let passed = Instant::now() >= at;
        if !passed {
            self.polls_to_skip = DEADLINE_POLL_INTERVAL - 1;
        }
        passed
    }

    fn acquire(&mut self, int: usize, float: usize, vec_bytes: usize, slots: usize) -> Frame {
        let mut f = self.frames.pop().unwrap_or_default();
        f.int.clear();
        f.int.resize(int, 0);
        f.float.clear();
        f.float.resize(float, 0.0);
        f.vec.clear();
        f.vec.resize(vec_bytes, 0);
        f.slots.clear();
        f.slots.resize(slots, SlotValue::Empty);
        f
    }

    fn release(&mut self, frame: Frame) {
        self.frames.push(frame);
    }

    pub(crate) fn take_argv(&mut self) -> Vec<MachineValue> {
        let mut v = self.argv.pop().unwrap_or_default();
        v.clear();
        v
    }

    pub(crate) fn give_argv(&mut self, argv: Vec<MachineValue>) {
        self.argv.push(argv);
    }
}

/// One call site of a prepared function, in its call table: a call record's
/// `e` indexes it. Its registers are validated like every other operand.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CallSite {
    /// Dense index of the callee — or its name if the program has no such
    /// function, which stays a runtime error so dead malformed calls don't
    /// poison preparation of an otherwise-valid program.
    pub(crate) callee: Result<usize, Box<str>>,
    pub(crate) args: Box<[PReg]>,
    pub(crate) ret: Option<PReg>,
}

// The hot streams must stay cache-dense: operand records at exactly two per
// 64-byte line, the per-instruction charge table at four.
const _: () = assert!(std::mem::size_of::<OpRecord>() <= 32);
const _: () = assert!(std::mem::size_of::<OpInfo>() <= 16);

/// What retiring one instruction costs: the one per-instruction fact table.
/// Each [`MInst`] variant's `lower` arm (`dispatch.rs`) states it, from
/// [`OpInfo::unit`] or [`OpInfo::control`]; region prepayment sums it,
/// in-order timing records segment summaries from it and retires it row by
/// row where a summary does not apply, the cold exits read its tags, and
/// `disasm` prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpInfo {
    /// The statically known cycle charge (which doubles as the unit latency
    /// under pipelined timing). Zero for conditional branches and calls,
    /// whose charge the executors resolve when they retire.
    pub(crate) cycles: u64,
    /// Register number of the written operand and of the two read operands
    /// the scoreboard tracks; `u16::MAX` (one past the largest register
    /// file, so its keys are [`UNTRACKED`](crate::timing::UNTRACKED)) for
    /// an untracked operand.
    regs: [u16; 3],
    /// The functional unit, which also decides the architectural counters
    /// the instruction bumps; `None` for the kinds the timing model prices
    /// through its control-flow hooks and for synthetic traps.
    pub(crate) class: Option<LatClass>,
    /// Bit `i`: `regs[i]` names the float file. Plus the kind bits
    /// [`OpInfo::BRANCH`], [`OpInfo::CLOSES`], [`OpInfo::RET`] and
    /// [`OpInfo::FELL_OFF`].
    tags: u8,
}

/// An [`OpInfo`] operand the scoreboard does not track: vector registers are
/// not scoreboarded, and an absent operand is written as one.
pub(crate) const NO: PReg = PReg {
    class: RegClass::Vec,
    index: 0,
};

impl OpInfo {
    /// Counts in `stats.branches`.
    pub(crate) const BRANCH: u8 = 1 << 3;
    /// Closes its straight-line region: a jump, branch, call, return or
    /// fall-off.
    pub(crate) const CLOSES: u8 = 1 << 4;
    /// A `Ret`: its move retires before its value's class can trap.
    pub(crate) const RET: u8 = 1 << 5;
    /// The synthetic fall-off trap: its failed fetch retires nothing.
    pub(crate) const FELL_OFF: u8 = 1 << 7;

    /// The row of the synthetic trap after a block without a terminator.
    pub(crate) const FELL_OFF_ROW: OpInfo = OpInfo {
        cycles: 0,
        regs: [u16::MAX; 3],
        class: None,
        tags: OpInfo::CLOSES | OpInfo::FELL_OFF,
    };

    /// The row of an instruction retired on unit `class`, at that unit's
    /// charge in `cost`, writing `dst` and reading `a` and `b`.
    pub(crate) fn unit(class: LatClass, cost: &CostModel, dst: PReg, a: PReg, b: PReg) -> OpInfo {
        use LatClass as L;
        let cycles = match class {
            L::Alu => cost.int_op,
            L::Mul => cost.int_mul,
            L::Div => cost.int_div,
            L::FpAdd => cost.fp_add,
            L::FpMul => cost.fp_mul,
            L::FpDiv => cost.fp_div,
            L::Load => cost.load,
            L::Store => cost.store,
            L::Mov => cost.mov,
            L::Convert => cost.convert,
            L::Vec => cost.vec_op,
            L::VecLoad => cost.vec_load,
            L::VecStore => cost.vec_store,
            L::VecReduce => cost.vec_reduce,
            L::SpillStore => cost.spill_store,
            L::SpillReload => cost.spill_load,
        };
        OpInfo::new(Some(class), cycles, [dst, a, b], 0)
    }

    /// The row of a control instruction, which the timing model prices
    /// through its control-flow hooks: it closes its region at `cycles`,
    /// reads `a` and carries the kind bits `tags` too.
    pub(crate) fn control(cycles: u64, a: PReg, tags: u8) -> OpInfo {
        OpInfo::new(None, cycles, [NO, a, NO], OpInfo::CLOSES | tags)
    }

    /// This row with the kind bits `tags` set too.
    pub(crate) fn with(mut self, tags: u8) -> OpInfo {
        self.tags |= tags;
        self
    }

    fn new(class: Option<LatClass>, cycles: u64, operands: [PReg; 3], mut tags: u8) -> OpInfo {
        let mut regs = [u16::MAX; 3];
        for (i, r) in operands.iter().enumerate() {
            if r.class != RegClass::Vec {
                regs[i] = r.index;
                tags |= u8::from(r.class == RegClass::Float) << i;
            }
        }
        OpInfo {
            cycles,
            regs,
            class,
            tags,
        }
    }

    /// `true` if every bit of `tag` is set.
    #[inline(always)]
    pub(crate) fn is(&self, tag: u8) -> bool {
        self.tags & tag == tag
    }

    /// Scoreboard key of operand `i` (0 written, 1 or 2 read). An untracked
    /// read operand needs no special case here: no file holds register
    /// `u16::MAX`, so the slot its key names is never written and always
    /// reads ready.
    #[inline(always)]
    pub(crate) fn key(&self, i: usize) -> u32 {
        (u32::from(self.regs[i]) << 1) | u32::from(self.tags >> i & 1)
    }

    /// Scoreboard key of the written operand, which must not claim a slot
    /// when untracked.
    #[inline(always)]
    fn dst_key(&self) -> u32 {
        if self.regs[0] == u16::MAX {
            NO_REG
        } else {
            self.key(0)
        }
    }

    /// Add the instruction's static charge to a region's running sum: its
    /// cycles and the architectural counters it counts in, which follow from
    /// the unit that retires it.
    pub(crate) fn prepay(&self, sum: &mut SimStats) {
        use LatClass as L;
        sum.cycles += self.cycles;
        sum.branches += u64::from(self.tags & OpInfo::BRANCH != 0);
        match self.class {
            Some(L::Load | L::VecLoad) => sum.loads += 1,
            Some(L::Store | L::VecStore) => sum.stores += 1,
            Some(L::SpillStore) => sum.spill_stores += 1,
            Some(L::SpillReload) => sum.spill_reloads += 1,
            _ => {}
        }
        let vector = matches!(
            self.class,
            Some(L::Vec | L::VecLoad | L::VecStore | L::VecReduce)
        );
        sum.vector_ops += u64::from(vector);
    }

    /// Retire the instruction on `tm`. Only for kinds with a latency class.
    #[inline(always)]
    pub(crate) fn retire<T: TimingModel>(&self, stats: &mut SimStats, tm: &mut T) {
        let class = self.class.expect("kinds priced by `op` have a class");
        tm.op(
            stats,
            class,
            self.cycles,
            self.dst_key(),
            self.key(1),
            self.key(2),
        );
    }
}

/// One function of a [`PreparedProgram`]: its threaded stream, one record
/// and one charge row per *row*, and the frame layout it needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PreparedFunction {
    /// Shared with the program's name index.
    pub(crate) name: Arc<str>,
    pub(crate) params: Box<[PReg]>,
    pub(crate) num_slots: usize,
    /// The threaded stream, one record per row: every block's instructions
    /// in order, then a fall-off trap where the block has no terminator (one
    /// trap for a function without blocks). A welded pair's opener runs its
    /// partner too. Every offset called a row indexes it, `info` and `kinds`.
    pub(crate) ops: Vec<OpRecord>,
    /// What retiring each row costs.
    pub(crate) info: Vec<OpInfo>,
    /// Each row's pair kind, marked where the row opens a welded pair: the
    /// fuel tail runs a marked opener alone on its kind's own handler (cold).
    pub(crate) kinds: Vec<u8>,
    /// The function's calls, in row order; a call record's `e` indexes it.
    pub(crate) calls: Vec<CallSite>,
    /// Region entries (block entries first, then after-call regions): where
    /// control can land plus the fuel/instruction charge and static counter
    /// sums prepaid on entry.
    pub(crate) targets: Vec<dispatch::BlockTarget>,
    /// In-order timing only (empty under flat): each region's straight-line
    /// segment, in row order; `BlockTarget::seg` indexes a region's.
    pub(crate) segs: Vec<dispatch::Segment>,
    /// The packed keys the segments' summaries name, each summary's in one
    /// run.
    pub(crate) keys: Box<[SlotKey]>,
}

/// A machine program pre-decoded for one target, ready to run many times.
///
/// Built once per `(program, target)` pair with [`PreparedProgram::prepare`]
/// — typically at deploy time, cached next to the compiled program — and
/// driven by [`PreparedSimulator`] (or directly via [`PreparedProgram::run`]
/// with an external [`FramePool`]). See the [module docs](self) for what is
/// precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedProgram {
    name: String,
    pub(crate) functions: Vec<PreparedFunction>,
    by_name: HashMap<Arc<str>, usize>,
    pub(crate) int_regs: usize,
    pub(crate) float_regs: usize,
    /// Total bytes of the flat vector buffer (`vec_regs × vector_bytes`);
    /// zero on scalar-only targets, so their frames allocate nothing for it.
    pub(crate) vec_bytes_total: usize,
    pub(crate) vector_bytes: usize,
    pub(crate) cost: CostModel,
    /// Timing tier copied from the target at prepare time; selects which
    /// [`TimingModel`] the run entries instantiate.
    pub(crate) timing: TimingKind,
    fused: bool,
    fusion: FusionStats,
}

impl PreparedProgram {
    /// Pre-decode `program` for `target`, with welding enabled.
    ///
    /// A program is validated here, **once**, so the execution loop never
    /// re-checks it, and every function is then lowered to the one threaded
    /// record stream both timing tiers dispatch. A `PreparedProgram` can only
    /// be built here, from any `MProgram` at all — a store entry with a valid
    /// checksum is attacker-chosen input — so this is the whole contract the
    /// executor's `unsafe` blocks rest on (each `SAFETY:` comment cites its
    /// fact by number):
    ///
    /// 1. **Registers.** Every register operand names a register of the file
    ///    *its handler indexes*: its class is the one the instruction kind
    ///    implies (the class annotations of `minst_shapes!` — `Load` /
    ///    `Store` by their `float` flag, the source of `Mov` by the
    ///    destination's class), and its index is below that file's size
    ///    on this target. Operands whose handler dispatches on the class at
    ///    run time (spills and reloads, call arguments and results, return
    ///    values) are checked against the file of their own class. One walk
    ///    generated from the shape rows, `MInst::prepare_check`, checks every
    ///    `def` / `use` / `odef` / `ouse` / `call` operand of an
    ///    instruction (with facts 3 and 4, in one match), so the rows state
    ///    this fact once; parameters, which
    ///    `write_params` dispatches on, are checked against their own
    ///    class's file too.
    /// 2. **Slots.** A function declares at most `MAX_FRAME_SLOTS` spill
    ///    slots, which bounds what a call allocates. A slot *number* is not
    ///    trusted: the spill and reload handlers look it up with `get` and
    ///    trap.
    /// 3. **Blocks.** Every `Jump` / `BranchNz` target names a block of its
    ///    function, whose number is its region's index, so control only ever
    ///    lands on a region entry.
    /// 4. **Vectors.** Vector instructions are refused on a target without a
    ///    vector unit, and lane counts are computed here as `vector_bytes /
    ///    elem.bytes()`, so lanes × element size never exceeds
    ///    `vector_bytes`, and there is at least one lane: an element wider
    ///    than the vector register is refused. (Vector registers and spilled
    ///    vectors are sliced with bounds checks besides.)
    /// 5. **Regions close.** Every straight-line region ends in a control
    ///    record (a synthetic fall-off where the code has no terminator), at
    ///    the region's first row plus its instruction count less one: a
    ///    sequential pc reaches a control record before it can pass the end
    ///    of the stream, and a straight-line record is never the last.
    ///
    /// Memory operands are not part of this contract: an address is a
    /// run-time value, range-checked at every access.
    ///
    /// Validation is deliberately **eager and whole-program**: a malformed
    /// instruction fails deployment even if it sits in a function the
    /// deployment would never execute (where a run would only trap on
    /// executing it). Failing at deploy time instead of on the Nth run is the
    /// point of preparation; only *unknown call targets* stay lazy (they are
    /// a name-resolution property, not a malformed-code one).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadRegister`] for an index beyond the target's
    /// register file or an operand of a class its instruction does not take,
    /// [`SimError::NoVectorUnit`] for vector instructions on a scalar-only
    /// target, and [`SimError::Trap`] for malformed control flow, a slot
    /// table past the frame limit or a vector element wider than the vector
    /// register.
    pub fn prepare(program: &MProgram, target: &TargetDesc) -> Result<PreparedProgram, SimError> {
        PreparedProgram::prepare_with(program, target, true)
    }

    /// Pre-decode `program` for `target`, choosing whether the threaded
    /// stream welds adjacent records in pairs (`fuse = false` is the
    /// ablation/differential configuration; results, traps and [`SimStats`]
    /// are bit-identical either way).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::prepare`].
    pub fn prepare_with(
        program: &MProgram,
        target: &TargetDesc,
        fuse: bool,
    ) -> Result<PreparedProgram, SimError> {
        // Each name is copied once: the index owns it and the prepared
        // function shares it.
        let mut by_name: HashMap<Arc<str>, usize> = HashMap::with_capacity(program.functions.len());
        for (i, f) in program.functions.iter().enumerate() {
            // First definition wins, matching `MProgram::function`.
            by_name.entry(Arc::from(f.name.as_str())).or_insert(i);
        }
        let vector_bytes = target.vector_bytes();
        let prep = Prep {
            files: [
                usize::from(target.int_regs),
                usize::from(target.float_regs),
                target.vector.map_or(0, |v| usize::from(v.regs)),
            ],
            vector_bytes: target.has_simd().then_some(vector_bytes),
            by_name: &by_name,
            cost: &target.cost,
        };
        let [int_regs, float_regs, vec_regs] = prep.files;
        let mut fusion = FusionStats::default();
        let mut functions = Vec::with_capacity(program.functions.len());
        // The builder's scratch is sized once: for the longest function (a
        // block may gain a fall-off, a function without blocks is one) and
        // for the larger scalar file's scoreboard keys.
        let rows = program
            .functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insts.len() + 1).sum::<usize>() + 1)
            .max()
            .unwrap_or(0);
        let keys = 2 * int_regs.max(float_regs);
        let mut scratch = dispatch::ThreadedScratch::new(rows, target.timing, keys);
        for f in &program.functions {
            functions.push(prepare_function(
                f,
                &prep,
                fuse,
                target.timing,
                &mut fusion,
                &mut scratch,
            )?);
        }
        Ok(PreparedProgram {
            name: program.name.clone(),
            functions,
            by_name,
            int_regs,
            float_regs,
            vec_bytes_total: vec_regs * vector_bytes as usize,
            vector_bytes: vector_bytes as usize,
            cost: target.cost,
            timing: target.timing,
            fused: fuse,
            fusion,
        })
    }

    /// Name of the originating module.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of prepared functions.
    pub fn num_functions(&self) -> usize {
        self.functions.len()
    }

    /// Static welding counts over the whole program (how many pairs the
    /// prepare-time sweep welded).
    pub fn fusion_stats(&self) -> FusionStats {
        self.fusion
    }

    /// Dense index of `func`, if it exists (the prepared equivalent of
    /// `MProgram::function`, resolved through a hash map instead of a linear
    /// scan).
    pub fn function_index(&self, func: &str) -> Option<usize> {
        self.by_name.get(func).copied()
    }

    /// Execute `func` with `args` against `mem`, drawing frames from `pool`
    /// and writing run statistics into `stats` (which is reset first).
    ///
    /// This is the externally-pooled entry the engine, sweeps and servers use
    /// so frame allocations amortize across *runs*, not just across calls
    /// within one run. [`PreparedSimulator`] wraps it with an owned pool.
    /// Execution takes the threaded stream under either timing tier; fuel
    /// and instruction counts are prepaid per straight-line region, and a
    /// region the remaining fuel cannot cover retires the prefix it affords
    /// and stops the run at the instruction the fuel runs out on.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on unknown functions, argument mismatches,
    /// runtime traps or fuel exhaustion.
    pub fn run(
        &self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        mut fuel: u64,
        stats: &mut SimStats,
    ) -> Result<Option<MachineValue>, SimError> {
        *stats = SimStats::default();
        let fi = self
            .function_index(func)
            .ok_or_else(|| SimError::UnknownFunction(func.to_owned()))?;
        match self.timing {
            TimingKind::Flat => self.exec(fi, args, mem, pool, &mut fuel, 0, stats, None),
            TimingKind::InOrder => {
                let mut tm = InOrderPipeline::new(&self.cost);
                tm.ready = std::mem::take(&mut pool.scoreboard);
                tm.ready.clear();
                let r = self.exec(fi, args, mem, pool, &mut fuel, 0, stats, Some(&mut tm));
                tm.finish(stats);
                pool.scoreboard = tm.ready;
                r
            }
        }
    }

    /// [`PreparedProgram::run`] under its former name, kept only because the
    /// benchmark's `targets.metered_ns_per_inst` probe (`e2e/src/phases.rs`)
    /// still calls it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::run`].
    #[doc(hidden)]
    pub fn run_metered(
        &self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: u64,
        stats: &mut SimStats,
    ) -> Result<Option<MachineValue>, SimError> {
        self.run(func, args, mem, pool, fuel, stats)
    }

    /// Run function `fi` on its threaded stream in a fresh frame, charging
    /// `pipe` if the run is pipelined and flat costs if not.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec(
        &self,
        fi: usize,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: &mut u64,
        depth: usize,
        stats: &mut SimStats,
        pipe: Option<&mut InOrderPipeline>,
    ) -> Result<Option<MachineValue>, SimError> {
        if depth > MAX_CALL_DEPTH {
            return Err(SimError::Trap("call depth exceeded".into()));
        }
        let f = &self.functions[fi];
        if f.params.len() != args.len() {
            return Err(SimError::BadArgumentCount {
                expected: f.params.len(),
                found: args.len(),
            });
        }
        let mut frame = pool.acquire(
            self.int_regs,
            self.float_regs,
            self.vec_bytes_total,
            f.num_slots,
        );
        let result = write_params(f, &mut frame, args).and_then(|()| {
            let mut cx = ExecCtx::new(self, f, &mut frame, mem, pool, fuel, stats, depth, pipe);
            dispatch::run_ops(&mut cx)
        });
        pool.release(frame);
        result
    }

    /// Render the prepared instruction streams of every function: resolved
    /// offsets, per-instruction cycle costs, weld decisions and per-region
    /// fuel charges, each instruction written from its [`MInst`] in
    /// `program` — the program this one was prepared from. This is the
    /// debugging surface behind `splitc disasm`.
    pub fn disasm(&self, program: &MProgram) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; prepared program `{}` — {} function(s), dispatch: threaded, welding: {}",
            self.name,
            self.functions.len(),
            if self.fused { "on" } else { "off" },
        );
        let _ = writeln!(out, "; welded pairs: {}", self.fusion.pair);
        let _ = writeln!(out, "; timing model: {}", self.timing.label());
        for (fi, f) in self.functions.iter().enumerate() {
            let _ = writeln!(
                out,
                "\nfn {} (#{fi}) — params {}, slots {}, {} inst / {} op",
                f.name,
                f.params.len(),
                f.num_slots,
                f.info.len(),
                f.ops.len(),
            );
            let insts = program.functions.get(fi).map(row_insts).unwrap_or_default();
            let blocks = &f.targets[..f.targets.len() - f.calls.len()];
            let mut segs = f.segs.iter().peekable();
            for row in 0..f.ops.len() {
                // Block label + region charge when a row starts a region.
                if let Some(b) = blocks.iter().position(|t| t.row as usize == row) {
                    let _ = writeln!(out, "  b{b}: ({})", self.region_text(&blocks[b]));
                } else if let Some(t) = f.targets[blocks.len()..]
                    .iter()
                    .find(|t| t.row as usize == row)
                {
                    let _ = writeln!(out, "  .after-call: ({})", self.region_text(t));
                }
                // Under in-order timing, a segment's summary where it starts.
                while let Some(seg) = segs.next_if(|s| s.start as usize <= row) {
                    let _ = writeln!(out, "        {}", segment_text(f, seg));
                }
                let (text, cost) = match insts.get(row) {
                    Some(Some(inst)) => (inst.to_string(), self.cost_text(f, row, Some(inst))),
                    Some(None) => (
                        format!("FellOff {{ block: {} }}", f.ops[row].e),
                        self.cost_text(f, row, None),
                    ),
                    None => ("?".to_owned(), self.cost_text(f, row, None)),
                };
                let at = format!("@{row}");
                // A `+` after the record index marks a pair opener: its
                // handler also executes the record printed below it.
                let pm = if dispatch::opens_pair(f, row) {
                    "+"
                } else {
                    " "
                };
                // Under the pipelined model the charge doubles as the op's
                // result latency; name its latency class so the stall
                // attribution in `SimStats` can be traced per op.
                let lat = match f.info[row].class {
                    Some(class) if self.timing == TimingKind::InOrder => {
                        format!(" ; lat {}", class.label())
                    }
                    _ => String::new(),
                };
                let _ = writeln!(out, "  {row:>4}{pm}{at:<9} {text:<58} ; cycles {cost}{lat}");
            }
        }
        out
    }

    /// What a region's entry prepays, as text: no cycles under in-order
    /// timing, whose regions retire segment by segment.
    fn region_text(&self, t: &dispatch::BlockTarget) -> String {
        match self.timing {
            TimingKind::Flat => format!(
                "entry charge {} inst, prepaid {} cycles",
                t.charge, t.stat.cycles
            ),
            TimingKind::InOrder => format!("entry charge {} inst", t.charge),
        }
    }

    /// The cycle charge of row `row` of `f`, whose instruction is `inst`
    /// (`None` for a fall-off), as text: its [`OpInfo`] charge, or what the
    /// executors resolve when the kind retires.
    fn cost_text(&self, f: &PreparedFunction, row: usize, inst: Option<&MInst>) -> String {
        match inst {
            Some(MInst::BranchNz { .. }) => {
                format!("{}/{}", self.cost.branch_taken, self.cost.branch_not_taken)
            }
            Some(MInst::Call { site, .. }) if self.function_index(&site.callee).is_some() => {
                self.cost.call.to_string()
            }
            Some(MInst::Call { .. }) | None => "0 (trap)".to_string(),
            Some(_) => f.info[row].cycles.to_string(),
        }
    }
}

/// Each row of `f`'s prepared code as its instruction, in the row order of
/// [`PreparedFunction::ops`]: `None` for a fall-off trap.
fn row_insts(f: &MFunction) -> Vec<Option<&MInst>> {
    let mut rows = Vec::new();
    for b in &f.blocks {
        rows.extend(b.insts.iter().map(Some));
        if !b.insts.last().is_some_and(MInst::is_terminator) {
            rows.push(None);
        }
    }
    if f.blocks.is_empty() {
        rows.push(None);
    }
    rows
}

/// Retire the rows of a straight-line run on `tm`, in order. Out of line on
/// purpose: as parameters `stats` and `tm` are known not to alias the table,
/// so their counters stay in registers across the run.
#[inline(never)]
pub(crate) fn retire_run<T: TimingModel>(infos: &[OpInfo], stats: &mut SimStats, tm: &mut T) {
    for info in infos {
        info.retire(stats, tm);
    }
}

/// Copy `args` into the register files named by the function's parameters.
fn write_params(
    f: &PreparedFunction,
    frame: &mut Frame,
    args: &[MachineValue],
) -> Result<(), SimError> {
    for (param, value) in f.params.iter().zip(args) {
        let idx = usize::from(param.index);
        match (param.class, value) {
            (RegClass::Int, MachineValue::Int(v)) => frame.int[idx] = *v,
            (RegClass::Float, MachineValue::Float(v)) => frame.float[idx] = *v,
            (RegClass::Int, MachineValue::Float(v)) => frame.int[idx] = *v as i64,
            (RegClass::Float, MachineValue::Int(v)) => frame.float[idx] = *v as f64,
            (RegClass::Vec, _) => {
                return Err(SimError::Trap(
                    "vector registers cannot be parameters".into(),
                ));
            }
        }
    }
    Ok(())
}

/// One in-order segment as text: its rows and, from its summary, the cycles
/// and stalls they take on a reset board and each live-in key with the slot
/// it must be ready by for the summary to apply.
fn segment_text(f: &PreparedFunction, seg: &dispatch::Segment) -> String {
    let rows = format!("; segment rows @{}..{}", seg.start, seg.end);
    let Some(s) = &seg.summary else {
        return format!("{rows}: retired one by one (a key or an offset past 16 bits)");
    };
    let live: Vec<String> = f.keys[s.keys as usize..][..usize::from(s.live)]
        .iter()
        .map(|k| {
            let file = if k.key & 1 == 1 { 'f' } else { 'r' };
            format!("{file}{}@{}", k.key >> 1, k.at)
        })
        .collect();
    format!(
        "{rows}: {} cycles, {} stalls on a reset board; live-in {}",
        s.cycles,
        s.stalls,
        if live.is_empty() {
            "none".to_owned()
        } else {
            live.join(" ")
        }
    )
}

/// Most spill slots one function may declare: 64 KiB of slot table per call
/// (plus `vector_bytes` per slot once a vector is spilled), a hundred times
/// what the register assigner has ever needed, and small enough that a
/// hostile declaration costs memory in proportion to the call depth only.
const MAX_FRAME_SLOTS: u32 = 1 << 12;

/// Fact 2, the size half: every call allocates the function's whole slot
/// table, and a store entry can declare 2^32 - 1 slots in five bytes.
/// `prepare` checks it once per function.
pub(crate) fn check_frame_slots(f: &MFunction) -> Result<(), SimError> {
    if f.num_slots > MAX_FRAME_SLOTS {
        return Err(SimError::Trap(format!(
            "{} declares {} spill slots, a frame holds at most {MAX_FRAME_SLOTS}",
            f.name, f.num_slots
        )));
    }
    Ok(())
}

/// What preparing one function needs of its program and target: what its
/// instructions are checked against (facts 1, 3 and 4 of
/// [`PreparedProgram::prepare`]), their costs and the callee names.
pub(crate) struct Prep<'a> {
    /// The size of each register file, indexed by [`RegClass::code`].
    files: [usize; 3],
    /// The vector register width in bytes; `None` without a vector unit.
    vector_bytes: Option<u64>,
    by_name: &'a HashMap<Arc<str>, usize>,
    pub(crate) cost: &'a CostModel,
}

impl Prep<'_> {
    /// Facts 1, 3 and 4 for `inst` of `f`: its lane count (0 for a kind
    /// without lanes), or the error that refuses it, checked in the order
    /// [`MInst::prepare_check`] states (class, then vector unit, then index,
    /// then block).
    #[inline]
    pub(crate) fn check(&self, inst: &MInst, f: &MFunction) -> Result<u32, SimError> {
        inst.prepare_check(&self.files, self.vector_bytes, f.blocks.len())
            .map_err(|refusal| self.refused(refusal, f))
    }

    /// The error for `refusal` of an instruction of `f`.
    #[cold]
    #[inline(never)]
    fn refused(&self, refusal: Refusal, f: &MFunction) -> SimError {
        let function = f.name.clone();
        match refusal {
            Refusal::Register(r) => SimError::BadRegister {
                reg: r.to_string(),
                function,
            },
            Refusal::NoVectorUnit => SimError::NoVectorUnit { function },
            Refusal::WideLanes(elem) => SimError::Trap(format!(
                "{}-byte lanes in a {}-byte vector register in {function}",
                elem.bytes(),
                self.vector_bytes.unwrap_or(0)
            )),
            Refusal::Block(b) => SimError::Trap(format!("jump to invalid block {b} in {function}")),
        }
    }

    /// The dense index of function `name`, or the name itself if the
    /// program has none.
    pub(crate) fn callee(&self, name: &str) -> Result<usize, Box<str>> {
        self.by_name.get(name).copied().ok_or_else(|| name.into())
    }
}

/// Check `f`'s parameters, then build its records, rows and threaded stream
/// in one walk, then check its slot table.
fn prepare_function(
    f: &MFunction,
    prep: &Prep<'_>,
    fuse: bool,
    timing: TimingKind,
    fusion: &mut FusionStats,
    scratch: &mut dispatch::ThreadedScratch,
) -> Result<PreparedFunction, SimError> {
    // Fact 1 for the parameters, whose class `write_params` dispatches on.
    if let Some(p) = f.params.iter().find(|p| p.past(&prep.files)) {
        return Err(SimError::BadRegister {
            reg: p.to_string(),
            function: f.name.clone(),
        });
    }
    let (name, _) = prep
        .by_name
        .get_key_value(f.name.as_str())
        .expect("every function of the program is in its name index");
    let mut pf = PreparedFunction {
        name: Arc::clone(name),
        params: f.params.as_slice().into(),
        num_slots: f.num_slots as usize,
        ops: Vec::new(),
        info: Vec::new(),
        kinds: Vec::new(),
        calls: Vec::new(),
        targets: Vec::new(),
        segs: Vec::new(),
        keys: Box::default(),
    };
    dispatch::build_threaded(&mut pf, f, prep, fuse, timing, fusion, scratch)?;
    check_frame_slots(f)?;
    Ok(pf)
}

/// A reusable executor over one [`PreparedProgram`] — the public driver of
/// the prepared path: owns a [`FramePool`] and the fuel/stats bookkeeping,
/// for code that runs the same prepared program many times.
#[derive(Debug)]
pub struct PreparedSimulator<'p> {
    program: &'p PreparedProgram,
    pub(crate) pool: FramePool,
    fuel: u64,
    stats: SimStats,
}

impl<'p> PreparedSimulator<'p> {
    /// Create an executor over `program` with the default fuel budget.
    pub fn new(program: &'p PreparedProgram) -> Self {
        PreparedSimulator {
            program,
            pool: FramePool::new(),
            fuel: DEFAULT_SIM_FUEL,
            stats: SimStats::default(),
        }
    }

    /// Override the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Statistics from the most recent [`PreparedSimulator::run`].
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Execute `func` with `args` against `mem` on the threaded dispatch
    /// stream, recycling frames from the executor's pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::run`].
    pub fn run(
        &mut self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
    ) -> Result<Option<MachineValue>, SimError> {
        self.program
            .run(func, args, mem, &mut self.pool, self.fuel, &mut self.stats)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcode::{AluOp, CmpPred, FpuOp, MBlock, RedOp, Width};
    use crate::simulator::tests::Pins;

    fn call_program() -> MProgram {
        // main(f0) { f1 = sq(f0); return f1 }   sq(f0) { return f0*f0 }
        let callee = MFunction {
            name: "sq".into(),
            params: vec![PReg::float(0)],
            blocks: vec![MBlock {
                insts: vec![
                    MInst::FloatOp {
                        op: FpuOp::Mul,
                        double: false,
                        dst: PReg::float(0),
                        lhs: PReg::float(0),
                        rhs: PReg::float(0),
                    },
                    MInst::Ret {
                        value: Some(PReg::float(0)),
                    },
                ],
            }],
            num_slots: 0,
        };
        let caller = MFunction {
            name: "main".into(),
            params: vec![PReg::float(0)],
            blocks: vec![MBlock {
                insts: vec![
                    MInst::call("sq", vec![PReg::float(0)], Some(PReg::float(1))),
                    MInst::Ret {
                        value: Some(PReg::float(1)),
                    },
                ],
            }],
            num_slots: 0,
        };
        MProgram {
            name: "m".into(),
            functions: vec![callee, caller],
        }
    }

    #[test]
    fn call_targets_resolve_to_dense_indices_and_frames_recycle() {
        let p = call_program();
        let target = TargetDesc::x86_sse();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        assert_eq!(prepared.function_index("sq"), Some(0));
        assert_eq!(prepared.function_index("main"), Some(1));
        assert_eq!(prepared.function_index("nope"), None);
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 16];
        for _ in 0..3 {
            let out = sim
                .run("main", &[MachineValue::Float(3.0)], &mut mem)
                .unwrap();
            assert_eq!(out, Some(MachineValue::Float(9.0)));
        }
        // Both the caller's and the callee's frame went back to the pool.
        assert_eq!(sim.pool.pooled_frames(), 2);
    }

    #[test]
    fn scalar_only_targets_prepare_an_empty_vector_buffer() {
        let p = call_program();
        let prepared = PreparedProgram::prepare(&p, &TargetDesc::ultrasparc()).unwrap();
        assert_eq!(prepared.vec_bytes_total, 0);
        let simd = PreparedProgram::prepare(&p, &TargetDesc::x86_sse()).unwrap();
        assert_eq!(simd.vec_bytes_total, 8 * 16);
    }

    #[test]
    fn bad_registers_and_missing_vector_units_fail_at_prepare_time() {
        let bad = MProgram {
            name: "bad".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params: vec![],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::Imm {
                            dst: PReg::int(40),
                            value: 1,
                        },
                        MInst::Ret { value: None },
                    ],
                }],
                num_slots: 0,
            }],
        };
        let err = PreparedProgram::prepare(&bad, &TargetDesc::x86_sse()).unwrap_err();
        assert!(matches!(err, SimError::BadRegister { .. }));

        let vecp = MProgram {
            name: "v".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params: vec![PReg::int(0)],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::VecLoad {
                            dst: PReg::vec(0),
                            base: PReg::int(0),
                            offset: 0,
                        },
                        MInst::Ret { value: None },
                    ],
                }],
                num_slots: 0,
            }],
        };
        let err = PreparedProgram::prepare(&vecp, &TargetDesc::ultrasparc()).unwrap_err();
        assert!(matches!(err, SimError::NoVectorUnit { .. }));
        assert!(PreparedProgram::prepare(&vecp, &TargetDesc::x86_sse()).is_ok());
    }

    #[test]
    fn vector_elements_wider_than_the_register_are_refused_by_both_paths() {
        // A 4-byte vector unit has no W64 lane: every instruction that
        // computes lanes is refused when the welded and the unwelded stream
        // are prepared, where running it used to index lane 0 past the
        // register and panic.
        let target = TargetDesc {
            vector: Some(crate::VectorUnit { bytes: 4, regs: 8 }),
            ..TargetDesc::x86_sse()
        };
        let (elem, signed, op) = (Width::W64, true, RedOp::Add);
        let (x, f, v) = (PReg::int(0), PReg::float(0), PReg::vec(0));
        let (dst, lhs, rhs) = (v, v, v);
        let insts = [
            MInst::VecSplatInt { elem, dst, src: x },
            MInst::VecSplatFloat { elem, dst, src: f },
            MInst::VecIntOp {
                op: AluOp::Add,
                elem,
                signed,
                dst,
                lhs,
                rhs,
            },
            MInst::VecFloatOp {
                op: FpuOp::Add,
                elem,
                dst,
                lhs,
                rhs,
            },
            MInst::VecReduceInt {
                op,
                elem,
                signed,
                dst: x,
                src: v,
            },
            MInst::VecReduceFloat {
                op,
                elem,
                dst: f,
                src: v,
            },
        ];
        for inst in insts {
            let program = MProgram {
                name: "wide".into(),
                functions: vec![MFunction {
                    name: "f".into(),
                    params: vec![],
                    blocks: vec![MBlock {
                        insts: vec![inst.clone(), MInst::Ret { value: None }],
                    }],
                    num_slots: 0,
                }],
            };
            let want = SimError::Trap("8-byte lanes in a 4-byte vector register in f".into());
            for fuse in [true, false] {
                let err = PreparedProgram::prepare_with(&program, &target, fuse).unwrap_err();
                assert_eq!(err, want, "{inst:?}");
            }
        }
    }

    /// One instance of every `MInst` variant, every operand in the register
    /// file its handler indexes and low enough for every preset.
    fn one_of_every_variant() -> Vec<MInst> {
        let (r, f, v) = (PReg::int, PReg::float, PReg::vec);
        let (w, op, fop, pred) = (Width::W32, AluOp::Add, FpuOp::Mul, CmpPred::Lt);
        let (signed, double) = (true, false);
        let (dst, src, lhs, rhs) = (r(1), r(2), r(2), r(3));
        vec![
            MInst::Imm { dst, value: 1 },
            MInst::FImm {
                dst: f(1),
                value: 1.0,
            },
            MInst::Mov { dst, src },
            MInst::IntOp {
                op,
                width: w,
                signed,
                dst,
                lhs,
                rhs,
            },
            MInst::FloatOp {
                op: fop,
                double,
                dst: f(1),
                lhs: f(2),
                rhs: f(3),
            },
            MInst::IntNeg { width: w, dst, src },
            MInst::IntNot { width: w, dst, src },
            MInst::FloatNeg {
                double,
                dst: f(1),
                src: f(2),
            },
            MInst::IntCmp {
                pred,
                width: w,
                signed,
                dst,
                lhs,
                rhs,
            },
            MInst::FloatCmp {
                pred,
                double,
                dst,
                lhs: f(2),
                rhs: f(3),
            },
            MInst::IntToFloat {
                signed,
                double,
                dst: f(1),
                src,
            },
            MInst::FloatToInt {
                width: w,
                signed,
                dst,
                src: f(2),
            },
            MInst::FloatCvt {
                to_double: true,
                dst: f(1),
                src: f(2),
            },
            MInst::IntResize {
                width: w,
                signed,
                dst,
                src,
            },
            MInst::Load {
                width: w,
                float: false,
                signed,
                dst,
                base: r(0),
                offset: 0,
            },
            MInst::Load {
                width: w,
                float: true,
                signed,
                dst: f(1),
                base: r(0),
                offset: 0,
            },
            MInst::Store {
                width: w,
                float: false,
                base: r(0),
                offset: 0,
                src,
            },
            MInst::Store {
                width: w,
                float: true,
                base: r(0),
                offset: 0,
                src: f(2),
            },
            MInst::VecLoad {
                dst: v(1),
                base: r(0),
                offset: 0,
            },
            MInst::VecStore {
                base: r(0),
                offset: 0,
                src: v(2),
            },
            MInst::VecSplatInt {
                elem: w,
                dst: v(1),
                src,
            },
            MInst::VecSplatFloat {
                elem: w,
                dst: v(1),
                src: f(2),
            },
            MInst::VecIntOp {
                op,
                elem: w,
                signed,
                dst: v(1),
                lhs: v(2),
                rhs: v(3),
            },
            MInst::VecFloatOp {
                op: fop,
                elem: w,
                dst: v(1),
                lhs: v(2),
                rhs: v(3),
            },
            MInst::VecReduceInt {
                op: RedOp::Add,
                elem: w,
                signed,
                dst,
                src: v(2),
            },
            MInst::VecReduceFloat {
                op: RedOp::Max,
                elem: w,
                dst: f(1),
                src: v(2),
            },
            MInst::Spill { slot: 0, src },
            MInst::Reload { slot: 0, dst },
            MInst::Jump { target: 0 },
            MInst::BranchNz {
                cond: r(1),
                then_target: 0,
                else_target: 0,
            },
            MInst::call("f", vec![r(1), f(1)], Some(r(2))),
            MInst::Ret { value: Some(f(1)) },
        ]
    }

    /// [`one_of_every_variant`] completed by the classes `Mov`, `Spill`,
    /// `Reload` and `Ret` dispatch on, so that every pair kind is met.
    fn one_of_every_kind() -> Vec<MInst> {
        let (r, f) = (PReg::int, PReg::float);
        let mut insts = one_of_every_variant();
        insts.extend([
            MInst::Mov {
                dst: f(1),
                src: f(2),
            },
            MInst::Spill { slot: 0, src: f(2) },
            MInst::Reload { slot: 0, dst: f(1) },
            MInst::Ret { value: None },
            MInst::Ret { value: Some(r(1)) },
        ]);
        insts
    }

    /// `inst` alone in function `f`, followed by a `Ret` unless it is a
    /// terminator.
    fn alone(inst: &MInst) -> MProgram {
        let mut block = vec![inst.clone()];
        if !inst.is_terminator() {
            block.push(MInst::Ret { value: None });
        }
        program(vec![MFunction {
            name: "f".into(),
            params: vec![],
            blocks: vec![MBlock { insts: block }],
            num_slots: 1,
        }])
    }

    #[test]
    fn every_kind_prepares_to_its_recorded_record_row_and_pair_kind() {
        // What preparation states for each instruction: its record's operand
        // fields, every field of its `OpInfo` row and its pair kind, under
        // the default cost table and a pairwise distinct one. The fuel sweep
        // sees a row only through the cycles and stalls it causes; this sees
        // every field, untracked operands included.
        let mut pins = Pins::default();
        for (label, cost) in [
            ("default", CostModel::default()),
            ("distinct", distinct_costs()),
        ] {
            let target = TargetDesc {
                cost,
                ..TargetDesc::x86_sse()
            };
            for inst in one_of_every_kind() {
                let prog = PreparedProgram::prepare_with(&alone(&inst), &target, false).unwrap();
                let f = &prog.functions[0];
                let (op, row) = (&f.ops[0], &f.info[0]);
                let mut h = crate::Fnv1a::new();
                h.write(&op.imm.to_le_bytes());
                for x in [op.a, op.b, op.c, op.d] {
                    h.write(&x.to_le_bytes());
                }
                for x in [op.e, op.f] {
                    h.write(&x.to_le_bytes());
                }
                h.write(&row.cycles.to_le_bytes());
                for x in row.regs {
                    h.write(&x.to_le_bytes());
                }
                h.write(&[row.class.map_or(0xff, |c| c as u8), row.tags, f.kinds[0]]);
                pins.note(format!("{inst:?} under the {label} costs"), h.finish());
            }
        }
        pins.check(9_063_698_913_171_680_391);
    }

    #[test]
    fn every_pair_kind_is_given_to_one_listed_instruction() {
        // The weld table and `base` are indexed by the pair kinds `lower`
        // gives; each must be met, `K_RET_NONE` too, which no listed pair
        // names.
        let mut kinds: Vec<u8> = one_of_every_kind()
            .iter()
            .map(|inst| dispatch::lower(inst, 0, &CostModel::default()).2)
            .filter(|&kind| usize::from(kind) < dispatch::NSECOND)
            .collect();
        kinds.sort_unstable();
        let every: Vec<u8> = (0..dispatch::NSECOND as u8).collect();
        assert_eq!(kinds, every, "each pair kind once");
    }

    /// The register operands of `inst` whose register file its handler
    /// fixes — written out here, not read off `minst_shapes!`, so that the
    /// table's class annotations are checked against a second statement.
    /// (`Spill`, `Reload`, `Call` and `Ret` dispatch on the operand's own
    /// class, as does the destination of `Mov`.)
    fn classed_operands(inst: &mut MInst) -> Vec<&mut PReg> {
        match inst {
            MInst::Imm { dst, .. } | MInst::FImm { dst, .. } => vec![dst],
            MInst::Mov { src, .. } => vec![src],
            MInst::IntOp { dst, lhs, rhs, .. }
            | MInst::FloatOp { dst, lhs, rhs, .. }
            | MInst::IntCmp { dst, lhs, rhs, .. }
            | MInst::FloatCmp { dst, lhs, rhs, .. }
            | MInst::VecIntOp { dst, lhs, rhs, .. }
            | MInst::VecFloatOp { dst, lhs, rhs, .. } => vec![dst, lhs, rhs],
            MInst::IntNeg { dst, src, .. }
            | MInst::IntNot { dst, src, .. }
            | MInst::FloatNeg { dst, src, .. }
            | MInst::IntToFloat { dst, src, .. }
            | MInst::FloatToInt { dst, src, .. }
            | MInst::FloatCvt { dst, src, .. }
            | MInst::IntResize { dst, src, .. }
            | MInst::VecSplatInt { dst, src, .. }
            | MInst::VecSplatFloat { dst, src, .. }
            | MInst::VecReduceInt { dst, src, .. }
            | MInst::VecReduceFloat { dst, src, .. } => vec![dst, src],
            MInst::Load { dst, base, .. } | MInst::VecLoad { dst, base, .. } => vec![dst, base],
            MInst::Store { base, src, .. } | MInst::VecStore { base, src, .. } => vec![base, src],
            MInst::BranchNz { cond, .. } => vec![cond],
            MInst::Spill { .. }
            | MInst::Reload { .. }
            | MInst::Jump { .. }
            | MInst::Call { .. }
            | MInst::Ret { .. } => vec![],
        }
    }

    /// Every register operand of `inst`, in field order — written out here,
    /// like [`classed_operands`], as a second statement of the shape rows.
    fn register_operands(inst: &mut MInst) -> Vec<&mut PReg> {
        match inst {
            MInst::Imm { dst, .. } | MInst::FImm { dst, .. } | MInst::Reload { dst, .. } => {
                vec![dst]
            }
            MInst::Spill { src, .. } => vec![src],
            MInst::IntOp { dst, lhs, rhs, .. }
            | MInst::FloatOp { dst, lhs, rhs, .. }
            | MInst::IntCmp { dst, lhs, rhs, .. }
            | MInst::FloatCmp { dst, lhs, rhs, .. }
            | MInst::VecIntOp { dst, lhs, rhs, .. }
            | MInst::VecFloatOp { dst, lhs, rhs, .. } => vec![dst, lhs, rhs],
            MInst::Mov { dst, src }
            | MInst::IntNeg { dst, src, .. }
            | MInst::IntNot { dst, src, .. }
            | MInst::FloatNeg { dst, src, .. }
            | MInst::IntToFloat { dst, src, .. }
            | MInst::FloatToInt { dst, src, .. }
            | MInst::FloatCvt { dst, src, .. }
            | MInst::IntResize { dst, src, .. }
            | MInst::VecSplatInt { dst, src, .. }
            | MInst::VecSplatFloat { dst, src, .. }
            | MInst::VecReduceInt { dst, src, .. }
            | MInst::VecReduceFloat { dst, src, .. } => vec![dst, src],
            MInst::Load { dst, base, .. } | MInst::VecLoad { dst, base, .. } => vec![dst, base],
            MInst::Store { base, src, .. } | MInst::VecStore { base, src, .. } => vec![base, src],
            MInst::BranchNz { cond, .. } => vec![cond],
            MInst::Call { site, ret } => site.args.iter_mut().chain(ret.as_mut()).collect(),
            MInst::Ret { value } => value.as_mut().into_iter().collect(),
            MInst::Jump { .. } => vec![],
        }
    }

    #[test]
    fn an_operand_in_the_wrong_register_file_fails_at_prepare_time_on_every_preset() {
        // The handlers index the file the instruction kind implies — the
        // integer and float files without a bounds check — so an operand of
        // another class must never get past preparation, whatever its index:
        // here the highest register of the wrong file, which on most presets
        // is past the end of the right one.
        let one_inst_program = |inst: MInst| MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params: vec![],
                blocks: vec![MBlock { insts: vec![inst] }],
                num_slots: 1,
            }],
        };
        let variants = one_of_every_variant();
        let kinds: std::collections::HashSet<_> =
            variants.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 30, "one instance per MInst variant");
        let mut flipped = 0;
        for target in TargetDesc::presets() {
            let file = |class| match class {
                RegClass::Int => target.int_regs,
                RegClass::Float => target.float_regs,
                RegClass::Vec => target.vector.map_or(0, |v| v.regs),
            };
            for inst in &variants {
                let as_written = PreparedProgram::prepare(&one_inst_program(inst.clone()), &target);
                if target.has_simd() || !inst.is_vector() {
                    assert!(as_written.is_ok(), "{inst:?} on {}", target.name);
                }
                let operands = classed_operands(&mut inst.clone()).len();
                for at in 0..operands {
                    for wrong in [RegClass::Int, RegClass::Float, RegClass::Vec] {
                        let mut hostile = inst.clone();
                        let operand = classed_operands(&mut hostile).swap_remove(at);
                        if operand.class == wrong {
                            continue;
                        }
                        *operand = PReg {
                            class: wrong,
                            index: file(wrong).saturating_sub(1),
                        };
                        let outcome =
                            PreparedProgram::prepare(&one_inst_program(hostile.clone()), &target);
                        assert!(
                            matches!(outcome, Err(SimError::BadRegister { .. })),
                            "{hostile:?} on {}: {outcome:?}",
                            target.name
                        );
                        flipped += 1;
                    }
                }
            }
        }
        // 56 class-fixed operands over the instances above (`Load` and
        // `Store` appear twice), two wrong classes each, nine presets.
        assert_eq!(flipped, 56 * 2 * TargetDesc::presets().len());

        // The index half of fact 1: every register operand, in the file of
        // its own class, is refused one past that file's last register and
        // accepted at the last — the operands whose handler dispatches on
        // the class at run time (spills, reloads, call arguments and
        // results, return values, parameters) included.
        let program = |params: Vec<PReg>, inst: MInst| MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params,
                blocks: vec![MBlock { insts: vec![inst] }],
                num_slots: 1,
            }],
        };
        let ret = MInst::Ret { value: None };
        let mut resized = 0;
        let mut simd_presets = 0;
        for target in TargetDesc::presets() {
            let file = |class| match class {
                RegClass::Int => target.int_regs,
                RegClass::Float => target.float_regs,
                RegClass::Vec => target.vector.map_or(0, |v| v.regs),
            };
            let prepare_at = |params: &[PReg], inst: &MInst, at: usize, index: u16| {
                let (mut params, mut inst) = (params.to_vec(), inst.clone());
                let mut operands: Vec<&mut PReg> = params.iter_mut().collect();
                operands.extend(register_operands(&mut inst));
                operands[at].index = index;
                PreparedProgram::prepare(&program(params, inst.clone()), &target)
                    .map_err(|e| format!("{e:?} from {inst:?}"))
            };
            let mut cells: Vec<(Vec<PReg>, MInst)> = variants
                .iter()
                .filter(|inst| target.has_simd() || !inst.is_vector())
                .map(|inst| (vec![], inst.clone()))
                .collect();
            let mut params = vec![PReg::int(0), PReg::float(0)];
            if target.has_simd() {
                params.push(PReg::vec(0));
                simd_presets += 1;
            }
            cells.push((params, ret.clone()));
            for (params, inst) in &cells {
                let mut all = params.clone();
                all.extend(register_operands(&mut inst.clone()).into_iter().map(|r| *r));
                for (at, r) in all.iter().enumerate() {
                    let size = file(r.class);
                    let past = prepare_at(params, inst, at, size);
                    assert!(
                        matches!(past, Err(ref e) if e.starts_with("BadRegister")),
                        "{r} of {inst:?} at index {size} on {}: {past:?}",
                        target.name
                    );
                    let last = prepare_at(params, inst, at, size - 1);
                    assert!(
                        last.is_ok(),
                        "{r} of {inst:?} at index {} on {}: {last:?}",
                        size - 1,
                        target.name
                    );
                    resized += 1;
                }
            }
        }
        // 45 register operands outside the vector kinds (`Load` and `Store`
        // appear twice), 18 inside them, and two parameters plus a vector
        // one where there is a vector file.
        let presets = TargetDesc::presets().len();
        assert_eq!(resized, (45 + 2) * presets + (18 + 1) * simd_presets);
    }

    #[test]
    fn a_function_declaring_more_slots_than_a_frame_holds_fails_at_prepare_time() {
        // Found by the store's payload fuzz: `num_slots` is five bytes of a
        // store entry, and every call of the function allocated that many
        // slots — 64 GiB for `u32::MAX`, an abort no caller can catch.
        let declaring = |num_slots| MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params: vec![],
                blocks: vec![MBlock {
                    insts: vec![MInst::Ret { value: None }],
                }],
                num_slots,
            }],
        };
        let target = TargetDesc::x86_sse();
        for over in [MAX_FRAME_SLOTS + 1, u32::MAX] {
            let program = declaring(over);
            let prepared = PreparedProgram::prepare(&program, &target);
            let want = format!("f declares {over} spill slots, a frame holds at most 4096");
            assert_eq!(prepared.map(|_| ()), Err(SimError::Trap(want)));
        }
        let program = declaring(MAX_FRAME_SLOTS);
        let most = PreparedProgram::prepare(&program, &target).unwrap();
        let mut sim = PreparedSimulator::new(&most);
        assert_eq!(sim.run("f", &[], &mut []), Ok(None));
    }

    #[test]
    fn hostile_addresses_trap_identically_on_both_execution_paths() {
        // Negative bases, i64::MAX + positive offset (wraps negative) and a
        // vector access straddling the end of memory must all surface as
        // `SimError::Trap` — never a slice panic — the same on the welded and
        // the unwelded stream, and as recorded.
        let scalar = MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "peek".into(),
                params: vec![PReg::int(0)],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::Load {
                            width: Width::W64,
                            float: false,
                            signed: true,
                            dst: PReg::int(1),
                            base: PReg::int(0),
                            offset: 8,
                        },
                        MInst::Ret {
                            value: Some(PReg::int(1)),
                        },
                    ],
                }],
                num_slots: 0,
            }],
        };
        let vector = MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "vpeek".into(),
                params: vec![PReg::int(0)],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::VecLoad {
                            dst: PReg::vec(0),
                            base: PReg::int(0),
                            offset: 0,
                        },
                        MInst::Ret { value: None },
                    ],
                }],
                num_slots: 0,
            }],
        };
        let target = TargetDesc::x86_sse();
        let mem_size = 256usize;
        // Hostile for both programs (the scalar load adds offset 8): negative
        // effective addresses, i64 overflow, and far-out-of-bounds positives.
        let bases = [-9i64, -12, i64::MIN, i64::MAX, i64::MAX - 8];
        let mut pins = Pins::default();
        for (program, func) in [(&scalar, "peek"), (&vector, "vpeek")] {
            let welded = PreparedProgram::prepare(program, &target).unwrap();
            let unwelded = PreparedProgram::prepare_with(program, &target, false).unwrap();
            for base in bases {
                let runs = [&welded, &unwelded].map(|prepared| {
                    let mut mem = vec![0u8; mem_size];
                    let mut sim = PreparedSimulator::new(prepared);
                    let out = sim.run(func, &[MachineValue::Int(base)], &mut mem);
                    (out, sim.stats(), mem)
                });
                let [(out, stats, mem), _] = &runs;
                assert!(
                    matches!(out, Err(SimError::Trap(_))),
                    "{func} base {base}: {out:?}"
                );
                assert!(runs[0] == runs[1], "{func} base {base}: paths disagree");
                pins.record(format!("{func} base {base}"), out, stats, mem);
            }
        }
        // Straddling the end: scalar 8-byte load at len-4, 16-byte vector
        // load at len-15.
        let prepared = PreparedProgram::prepare(&vector, &target).unwrap();
        let mut mem = vec![0u8; mem_size];
        let mut sim = PreparedSimulator::new(&prepared);
        let base = (mem_size - 15) as i64;
        let err = sim
            .run("vpeek", &[MachineValue::Int(base)], &mut mem)
            .unwrap_err();
        assert!(matches!(err, SimError::Trap(_)), "straddle: {err:?}");
        pins.record("straddle", &Err(err), &sim.stats(), &mem);
        pins.check(11_591_025_022_178_749_775);
        // In-bounds accesses still succeed.
        let ok = sim
            .run("vpeek", &[MachineValue::Int(64)], &mut mem)
            .unwrap();
        assert_eq!(ok, None);
    }

    #[test]
    fn vector_lane_shifts_mask_counts_like_the_scalar_alu() {
        // AluOp::Shl/Shr through the SIMD lane path: counts splatted across
        // the lanes mask modulo 64 exactly like the scalar ALU.
        let lanes_program = |count: i64| MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "vshift".into(),
                params: vec![PReg::int(0)],
                blocks: vec![MBlock {
                    insts: vec![
                        MInst::Imm {
                            dst: PReg::int(1),
                            value: count,
                        },
                        MInst::VecLoad {
                            dst: PReg::vec(0),
                            base: PReg::int(0),
                            offset: 0,
                        },
                        MInst::VecSplatInt {
                            elem: Width::W32,
                            dst: PReg::vec(1),
                            src: PReg::int(1),
                        },
                        MInst::VecIntOp {
                            op: AluOp::Shl,
                            elem: Width::W32,
                            signed: true,
                            dst: PReg::vec(0),
                            lhs: PReg::vec(0),
                            rhs: PReg::vec(1),
                        },
                        MInst::VecStore {
                            base: PReg::int(0),
                            offset: 0,
                            src: PReg::vec(0),
                        },
                        MInst::Ret { value: None },
                    ],
                }],
                num_slots: 0,
            }],
        };
        let target = TargetDesc::x86_sse();
        let mut pins = Pins::default();
        for (count, expect) in [(1i64, 2i32), (33, 0), (65, 2), (-1, 0), (64, 1)] {
            let program = lanes_program(count);
            let prepared = PreparedProgram::prepare(&program, &target).unwrap();
            let mut mem = vec![0u8; 64];
            for lane in 0..4 {
                mem[16 + lane * 4..16 + lane * 4 + 4].copy_from_slice(&1i32.to_le_bytes());
            }
            let mut sim = PreparedSimulator::new(&prepared);
            let out = sim.run("vshift", &[MachineValue::Int(16)], &mut mem);
            assert_eq!(out, Ok(None));
            pins.record(format!("count {count}"), &out, &sim.stats(), &mem);
            for lane in 0..4 {
                let mut b = [0u8; 4];
                b.copy_from_slice(&mem[16 + lane * 4..16 + lane * 4 + 4]);
                assert_eq!(
                    i32::from_le_bytes(b),
                    expect,
                    "count {count}: 1 << ({count} & 63) truncated to 32 bits"
                );
            }
        }
        pins.check(14_959_827_650_551_127_222);
    }

    #[test]
    fn vector_division_traps_at_its_first_zero_lane_after_writing_the_lanes_before_it() {
        // `VecIntOp` `Div` / `Rem` with one zero divisor, in lane k: the
        // instruction traps at lane k, after lanes < k of its destination got
        // the scalar ALU's result and before lanes >= k changed. The handler
        // runs alone on a seeded frame, where the destination stays visible
        // after the trap; a whole run gives the trap text and `SimStats`.
        use crate::simulator::{alu, read_lane_int, write_lane_int};
        let (v, a) = (PReg::vec, PReg::int(0));
        let mut pins = Pins::default();
        for target in [TargetDesc::x86_sse(), TargetDesc::gpu_wide()] {
            let vb = target.vector_bytes() as usize;
            let at = |i: usize| (i * vb) as i64;
            for elem in [Width::W8, Width::W16, Width::W32, Width::W64] {
                let lanes = vb / elem.bytes() as usize;
                for (op, what) in [(AluOp::Div, "division"), (AluOp::Rem, "remainder")] {
                    for signed in [false, true] {
                        let insts = vec![
                            MInst::VecLoad {
                                dst: v(0),
                                base: a,
                                offset: at(0),
                            },
                            MInst::VecLoad {
                                dst: v(1),
                                base: a,
                                offset: at(1),
                            },
                            MInst::VecLoad {
                                dst: v(2),
                                base: a,
                                offset: at(2),
                            },
                            MInst::VecIntOp {
                                op,
                                elem,
                                signed,
                                dst: v(2),
                                lhs: v(0),
                                rhs: v(1),
                            },
                            MInst::VecStore {
                                base: a,
                                offset: at(2),
                                src: v(2),
                            },
                            MInst::Ret { value: None },
                        ];
                        let program = MProgram {
                            name: "m".into(),
                            functions: vec![MFunction {
                                name: "vdiv".into(),
                                params: vec![a],
                                blocks: vec![MBlock { insts }],
                                num_slots: 0,
                            }],
                        };
                        let welded = PreparedProgram::prepare(&program, &target).unwrap();
                        let unwelded =
                            PreparedProgram::prepare_with(&program, &target, false).unwrap();
                        for k in [0, 1, lanes - 1] {
                            let cell =
                                format!("{op:?} {elem:?} signed {signed} k {k} on {}", target.name);
                            // Left lanes -7 - i, right lanes i + 1 but a zero in
                            // lane k, destination lanes 0x5a bytes.
                            let mut image = vec![0x5a; 3 * vb];
                            for i in 0..lanes {
                                let y = if i == k { 0 } else { i as i64 + 1 };
                                write_lane_int(&mut image[..vb], i, elem, -7 - i as i64);
                                write_lane_int(&mut image[vb..2 * vb], i, elem, y);
                            }
                            let trap = SimError::Trap(format!("integer {what} by zero"));

                            let f = &unwelded.functions[0];
                            let mut pool = FramePool::new();
                            let (int, float) = (unwelded.int_regs, unwelded.float_regs);
                            let mut frame = pool.acquire(int, float, unwelded.vec_bytes_total, 0);
                            frame.vec[..3 * vb].copy_from_slice(&image);
                            let mut mem = vec![0u8; 64];
                            let (mut fuel, mut stats) = (DEFAULT_SIM_FUEL, SimStats::default());
                            let mut cx = dispatch::ExecCtx::new(
                                &unwelded, f, &mut frame, &mut mem, &mut pool, &mut fuel,
                                &mut stats, 0, None,
                            );
                            let flow = (f.ops[3].handler)(&f.ops[3], &mut cx, 3);
                            assert_eq!(flow, dispatch::FLOW_ERR | 3, "{cell}");
                            assert_eq!(cx.err.take(), Some(trap.clone()), "{cell}");
                            assert_eq!(frame.vec[..2 * vb], image[..2 * vb], "{cell}: sources");
                            let dst = &frame.vec[2 * vb..3 * vb];
                            for i in 0..k {
                                let x = read_lane_int(&image[..vb], i, elem, signed);
                                let y = read_lane_int(&image[vb..2 * vb], i, elem, signed);
                                let want = alu(op, elem, signed, x, y).unwrap();
                                let got = read_lane_int(dst, i, elem, signed);
                                assert_eq!(got, want, "{cell}: lane {i} before the trap");
                            }
                            let untouched = k * elem.bytes() as usize;
                            assert!(
                                dst[untouched..].iter().all(|&b| b == 0x5a),
                                "{cell}: lanes from {k} on were written"
                            );
                            assert_eq!((fuel, stats), (DEFAULT_SIM_FUEL, SimStats::default()));

                            let runs = [&welded, &unwelded].map(|prepared| {
                                let mut mem = vec![0u8; 3 * vb + 64];
                                mem[64..].copy_from_slice(&image);
                                let mut sim = PreparedSimulator::new(prepared);
                                let out = sim.run("vdiv", &[MachineValue::Int(64)], &mut mem);
                                (out, sim.stats(), mem)
                            });
                            assert!(runs[0] == runs[1], "{cell}: welded and unwelded disagree");
                            let (out, stats, mem) = &runs[0];
                            assert_eq!(out, &Err(trap), "{cell}");
                            assert_eq!(mem[64..], image, "{cell}: memory");
                            let counters = (
                                stats.instructions,
                                stats.loads,
                                stats.stores,
                                stats.vector_ops,
                            );
                            assert_eq!(counters, (4, 3, 0, 3), "{cell}: stats");
                            pins.record(cell, out, stats, mem);
                        }
                    }
                }
            }
        }
        pins.check(98_202_366_585_513_097);
    }

    #[test]
    fn unterminated_blocks_trap_like_the_legacy_walk() {
        let pins = &mut Pins::default();
        let p = MProgram {
            name: "m".into(),
            functions: vec![MFunction {
                name: "f".into(),
                params: vec![],
                blocks: vec![MBlock {
                    insts: vec![MInst::Imm {
                        dst: PReg::int(0),
                        value: 1,
                    }],
                }],
                num_slots: 0,
            }],
        };
        // Fuel for the failed fetch is spent, but it is not an instruction.
        for timing in [TimingKind::Flat, TimingKind::InOrder] {
            let target = TargetDesc::powerpc().with_timing(timing);
            let results = run_every_path(pins, &p, &target, "f", &[], 16, 10);
            let (out, stats, _) = &results[0];
            assert_eq!(
                out,
                &Err(SimError::Trap("fell off the end of block 0 in f".into()))
            );
            assert_eq!(stats.instructions, 1);
            assert!(results.iter().all(|r| r == &results[0]), "{results:?}");
        }
        pins.check(1_783_455_619_393_839_448);
    }

    /// A counting loop whose back edge is the exact 4-instruction
    /// induction-variable shape the lowering emits (`add tmp,i,s ; mov i,tmp
    /// ; cmp t,i,n ; bnz t`), with a body op so the welded stream pairs the
    /// body's rows but must not differ from the unwelded one in anything
    /// observable.
    fn counting_loop() -> MProgram {
        let f = MFunction {
            name: "count".into(),
            params: vec![PReg::int(0)], // n
            blocks: vec![
                MBlock {
                    insts: vec![
                        MInst::Imm {
                            dst: PReg::int(1), // i
                            value: 0,
                        },
                        MInst::Imm {
                            dst: PReg::int(2), // step
                            value: 1,
                        },
                        MInst::Imm {
                            dst: PReg::int(3), // acc
                            value: 0,
                        },
                        MInst::Jump { target: 1 },
                    ],
                },
                MBlock {
                    insts: vec![
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W64,
                            signed: true,
                            dst: PReg::int(3),
                            lhs: PReg::int(3),
                            rhs: PReg::int(1),
                        },
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W64,
                            signed: true,
                            dst: PReg::int(4), // tmp
                            lhs: PReg::int(1),
                            rhs: PReg::int(2),
                        },
                        MInst::Mov {
                            dst: PReg::int(1),
                            src: PReg::int(4),
                        },
                        MInst::IntCmp {
                            pred: CmpPred::Lt,
                            width: Width::W64,
                            signed: true,
                            dst: PReg::int(5),
                            lhs: PReg::int(1),
                            rhs: PReg::int(0),
                        },
                        MInst::BranchNz {
                            cond: PReg::int(5),
                            then_target: 1,
                            else_target: 2,
                        },
                    ],
                },
                MBlock {
                    insts: vec![MInst::Ret {
                        value: Some(PReg::int(3)),
                    }],
                },
            ],
            num_slots: 0,
        };
        MProgram {
            name: "m".into(),
            functions: vec![f],
        }
    }

    #[test]
    fn hot_stream_records_stay_within_32_bytes() {
        // Backstop for the compile-time asserts: operand records must stay
        // at two per 64-byte cache line, charge rows at four.
        assert!(
            std::mem::size_of::<OpRecord>() <= 32,
            "OpRecord grew past 32 bytes"
        );
        assert!(
            std::mem::size_of::<OpInfo>() <= 16,
            "OpInfo grew past 16 bytes"
        );
    }

    #[test]
    fn welding_is_toggleable_and_bit_identical_on_the_indvar_loop() {
        let p = counting_loop();
        let target = TargetDesc::x86_sse();
        let welded = PreparedProgram::prepare_with(&p, &target, true).unwrap();
        let unwelded = PreparedProgram::prepare_with(&p, &target, false).unwrap();
        assert!(welded.fused && !unwelded.fused);
        assert!(welded.fusion_stats().pair >= 1, "the loop must weld");
        assert_eq!(unwelded.fusion_stats().total(), 0);
        // One record per row either way; only openers' handlers differ.
        let (w, u) = (&welded.functions[0], &unwelded.functions[0]);
        assert_eq!((w.ops.len(), w.kinds.len()), (w.info.len(), w.info.len()));
        assert_eq!(w.info, u.info);
        // The kinds differ only by the welding sweep's marks on openers.
        let unmarked = w.kinds.iter().map(|&k| k & !dispatch::WELDED);
        assert!(unmarked.eq(u.kinds.iter().copied()));
        for k in 0..w.ops.len() {
            assert!(!dispatch::opens_pair(u, k), "row {k}");
            if !dispatch::opens_pair(w, k) {
                assert_eq!(w.ops[k], u.ops[k], "row {k}");
            }
        }

        let args = [MachineValue::Int(10)];
        let mut outs = Vec::new();
        for prog in [&welded, &unwelded] {
            let mut mem = vec![0u8; 32];
            let mut sim = PreparedSimulator::new(prog);
            let out = sim.run("count", &args, &mut mem).unwrap();
            outs.push((out, sim.stats()));
        }
        // 0+1+...+9 = 45; both streams agree on result and full stats.
        assert_eq!(outs[0].0, Some(MachineValue::Int(45)));
        assert!(outs.iter().all(|o| o == &outs[0]), "{outs:?}");
    }

    #[test]
    fn a_passed_deadline_cancels_before_the_first_instruction_on_every_path() {
        let p = counting_loop();
        let args = [MachineValue::Int(10)];
        let mut pool = FramePool::new();
        let mut mem = vec![0u8; 32];
        for timing in [TimingKind::Flat, TimingKind::InOrder] {
            let target = TargetDesc::x86_sse().with_timing(timing);
            for fuse in [true, false] {
                let prepared = PreparedProgram::prepare_with(&p, &target, fuse).unwrap();
                // The first poll after `set_deadline` reads the clock: nothing
                // retires, nothing is charged — not even the entry region.
                let mut stats = SimStats::default();
                pool.set_deadline(Some(Instant::now()));
                let out = prepared.run("count", &args, &mut mem, &mut pool, 1_000, &mut stats);
                assert_eq!(out, Err(SimError::Cancelled), "{timing:?} {fuse}");
                assert_eq!(stats, SimStats::default(), "{timing:?} {fuse}");
                // Clearing the deadline makes the same pool runnable again.
                pool.set_deadline(None);
                let out = prepared.run("count", &args, &mut mem, &mut pool, 1_000, &mut stats);
                assert_eq!(out, Ok(Some(MachineValue::Int(45))));
            }
        }
    }

    /// A program holding every straight-line instruction kind — vector ops,
    /// all three spill/reload classes and a call — so a fuel sweep over it isolates one
    /// [`OpInfo`] row per fuel value. Wherever the register files allow,
    /// an instruction reads what its predecessor wrote, so that under the
    /// pipelined tier a row naming the wrong scoreboard key changes the
    /// stall count. `vtop` is the highest vector register it uses;
    /// `kinds(base)` needs `32 + vector_bytes` bytes of memory at `base`.
    fn every_kind_program(vtop: u16) -> MProgram {
        let (r, f, v) = (PReg::int, PReg::float, PReg::vec);
        let w = Width::W32;
        let imm = |dst, value| MInst::Imm { dst, value };
        let fimm = |dst, value| MInst::FImm { dst, value };
        let mov = |dst, src| MInst::Mov { dst, src };
        let alu = |op, dst, lhs, rhs| MInst::IntOp {
            op,
            width: w,
            signed: true,
            dst,
            lhs,
            rhs,
        };
        let fpu = |op, double, dst, lhs, rhs| MInst::FloatOp {
            op,
            double,
            dst,
            lhs,
            rhs,
        };
        let icmp = |dst, lhs, rhs| MInst::IntCmp {
            pred: CmpPred::Lt,
            width: w,
            signed: true,
            dst,
            lhs,
            rhs,
        };
        let fcmp = |dst, lhs, rhs| MInst::FloatCmp {
            pred: CmpPred::Gt,
            double: false,
            dst,
            lhs,
            rhs,
        };
        let i2f = |dst, src| MInst::IntToFloat {
            signed: true,
            double: false,
            dst,
            src,
        };
        let f2i = |width, dst, src| MInst::FloatToInt {
            width,
            signed: true,
            dst,
            src,
        };
        let load = |float, dst, base, offset| MInst::Load {
            width: w,
            float,
            signed: true,
            dst,
            base,
            offset,
        };
        let store = |float, base, offset, src| MInst::Store {
            width: w,
            float,
            base,
            offset,
            src,
        };
        let vstore = |base, src| MInst::VecStore {
            base,
            offset: 16,
            src,
        };
        let spill = |slot, src| MInst::Spill { slot, src };
        let reload = |slot, dst| MInst::Reload { slot, dst };
        let insts = vec![
            // The integer file, as one dependency chain.
            imm(r(1), 7),
            mov(r(2), r(1)),
            alu(AluOp::Add, r(2), r(2), r(1)),
            alu(AluOp::Mul, r(3), r(2), r(1)),
            MInst::IntNeg {
                width: w,
                dst: r(3),
                src: r(3),
            },
            MInst::IntNot {
                width: w,
                dst: r(3),
                src: r(3),
            },
            MInst::IntResize {
                width: Width::W8,
                signed: false,
                dst: r(3),
                src: r(3),
            },
            alu(AluOp::Div, r(3), r(3), r(1)),
            // Through memory into the float file, and along it.
            imm(r(4), 3),
            store(false, r(0), 0, r(4)),
            mov(r(2), r(0)),
            load(false, r(2), r(2), 0),
            i2f(f(0), r(2)),
            MInst::FloatCvt {
                to_double: false,
                dst: f(1),
                src: f(0),
            },
            mov(f(2), f(1)),
            MInst::FloatNeg {
                double: false,
                dst: f(2),
                src: f(2),
            },
            fpu(FpuOp::Mul, false, f(3), f(2), f(1)),
            mov(r(3), r(0)),
            store(true, r(3), 4, f(3)),
            mov(r(3), r(0)),
            load(true, f(4), r(3), 4),
            fpu(FpuOp::Div, true, f(3), f(4), f(2)),
            // Between the files through conversions and compares.
            fimm(f(5), 1.5),
            f2i(w, r(5), f(5)),
            icmp(r(4), r(5), r(1)),
            i2f(f(6), r(4)),
            fcmp(r(5), f(6), f(1)),
            // The vector unit (its registers are not scoreboarded).
            imm(r(2), 5),
            MInst::VecSplatInt {
                elem: w,
                dst: v(0),
                src: r(2),
            },
            fimm(f(0), 2.0),
            MInst::VecSplatFloat {
                elem: w,
                dst: v(1),
                src: f(0),
            },
            mov(r(3), r(0)),
            vstore(r(3), v(0)),
            mov(r(3), r(0)),
            MInst::VecLoad {
                dst: v(2),
                base: r(3),
                offset: 16,
            },
            mov(v(3), v(2)),
            MInst::VecIntOp {
                op: AluOp::Add,
                elem: w,
                signed: true,
                dst: v(2),
                lhs: v(2),
                rhs: v(0),
            },
            MInst::VecFloatOp {
                op: FpuOp::Mul,
                elem: w,
                dst: v(1),
                lhs: v(1),
                rhs: v(1),
            },
            MInst::VecReduceInt {
                op: RedOp::Add,
                elem: w,
                signed: true,
                dst: r(1),
                src: v(2),
            },
            spill(0, r(1)),
            MInst::VecReduceFloat {
                op: RedOp::Max,
                elem: w,
                dst: f(0),
                src: v(1),
            },
            spill(1, f(0)),
            spill(2, v(2)),
            reload(0, r(5)),
            mov(r(2), r(5)),
            reload(1, f(2)),
            mov(f(3), f(2)),
            reload(2, v(vtop)),
            vstore(r(0), v(vtop)),
            MInst::call("sq", vec![f(3)], Some(f(4))),
            f2i(Width::W64, r(4), f(4)),
            alu(AluOp::Add, r(5), r(5), r(4)),
            MInst::Jump { target: 1 },
        ];
        let tail = [
            vec![MInst::BranchNz {
                cond: r(5),
                then_target: 2,
                else_target: 2,
            }],
            vec![MInst::Ret { value: Some(r(5)) }],
        ];
        let mut program = call_program();
        program.functions.push(MFunction {
            name: "kinds".into(),
            params: vec![r(0)],
            blocks: std::iter::once(insts)
                .chain(tail)
                .map(|insts| MBlock { insts })
                .collect(),
            num_slots: 3,
        });
        program
    }

    type RunOutcome = Result<Option<MachineValue>, SimError>;

    /// `(outcome, SimStats, memory)` of `func` on both streams — threaded
    /// welded, threaded unwelded — with `fuel`. The welded run is noted in
    /// `pins`.
    fn run_every_path(
        pins: &mut Pins,
        program: &MProgram,
        target: &TargetDesc,
        func: &str,
        args: &[MachineValue],
        mem_len: usize,
        fuel: u64,
    ) -> Vec<(RunOutcome, SimStats, Vec<u8>)> {
        let results: Vec<_> = [true, false]
            .into_iter()
            .map(|fuse| {
                let prepared = PreparedProgram::prepare_with(program, target, fuse).unwrap();
                let mut mem = vec![0u8; mem_len];
                let mut sim = PreparedSimulator::new(&prepared).with_fuel(fuel);
                let out = sim.run(func, args, &mut mem);
                (out, sim.stats(), mem)
            })
            .collect();
        let (out, stats, mem) = &results[0];
        let cell = format!("{func}{args:?} {:?}, fuel {fuel}", target.timing);
        pins.record(cell, out, stats, mem);
        results
    }

    /// Pairwise distinct costs, so a row charging the wrong table entry
    /// shows in `cycles`; and long enough that a consumer several
    /// instructions behind its producer still stalls under the pipeline, so
    /// a row naming the wrong scoreboard key shows in `stalls`.
    fn distinct_costs() -> CostModel {
        CostModel {
            int_op: 23,
            int_mul: 29,
            int_div: 31,
            fp_add: 37,
            fp_mul: 41,
            fp_div: 43,
            load: 47,
            store: 53,
            mov: 59,
            convert: 61,
            branch_taken: 67,
            branch_not_taken: 71,
            vec_op: 73,
            vec_load: 79,
            vec_store: 83,
            vec_reduce: 89,
            call: 97,
            spill_store: 101,
            spill_load: 103,
        }
    }

    #[test]
    fn fuel_exhaustion_is_identical_across_legacy_fused_and_unfused() {
        let pins = &mut Pins::default();
        // `OutOfFuel` must trigger at the identical retired-instruction count
        // on every path — threaded welded and unwelded, and the recorded runs
        // of the block walk — i.e. for every fuel value from 0 to "just
        // enough", including ones that land *inside* a welded pair, all paths
        // agree on outcome, memory and full stats, under both timing tiers.
        // On the every-kind program each fuel value adds exactly one
        // instruction to the prefix the fuel tail retires, so the sweep
        // checks every `OpInfo` row against its recorded digest.
        let inputs = [
            (counting_loop(), "count", MachineValue::Int(4)),
            (every_kind_program(5), "kinds", MachineValue::Int(16)),
        ];
        let cost = distinct_costs();
        for (program, func, arg) in &inputs {
            for timing in [TimingKind::Flat, TimingKind::InOrder] {
                let target = TargetDesc {
                    cost,
                    timing,
                    ..TargetDesc::x86_sse()
                };
                let full =
                    run_every_path(pins, program, &target, func, &[*arg], 64, DEFAULT_SIM_FUEL);
                assert!(full[0].0.is_ok(), "{func}: {:?}", full[0].0);
                let total = full[0].1.instructions;
                assert!(total > 8, "{func} must straddle several regions");

                for fuel in 0..=total + 1 {
                    let results = run_every_path(pins, program, &target, func, &[*arg], 64, fuel);
                    assert!(
                        results.iter().all(|r| r == &results[0]),
                        "{func} under {timing:?}, fuel {fuel}: paths diverged: {results:?}"
                    );
                    let (out, stats, _) = &results[0];
                    if fuel >= total {
                        assert!(out.is_ok(), "{func} fuel {fuel}");
                    } else {
                        assert_eq!(out, &Err(SimError::OutOfFuel), "{func} fuel {fuel}");
                        // Exactly `fuel` source instructions retired before
                        // running dry.
                        assert_eq!(stats.instructions, fuel, "{func} fuel {fuel}");
                    }
                }
            }
        }
        pins.check(988_232_456_681_545_843);
    }

    #[test]
    fn a_trap_at_any_instruction_leaves_identical_stats_on_every_path() {
        let pins = &mut Pins::default();
        // Region prepayment charges a whole region up front and the trap
        // path gives back what had not retired: replace each instruction of
        // the every-kind program in turn by a load that always traps (so the
        // trap lands first, mid and last in regions and in either half of a
        // welded pair) and compare with the recorded
        // runs of the block walk, which never prepaid. Last, a `Ret` whose
        // move retires before it traps.
        let program = every_kind_program(5);
        let kinds = program.functions.len() - 1;
        let trapping_load = MInst::Load {
            width: Width::W32,
            float: false,
            signed: true,
            dst: PReg::int(2),
            base: PReg::int(0),
            offset: -16,
        };
        let vector_ret = MInst::Ret {
            value: Some(PReg::vec(0)),
        };
        let body = program.functions[kinds].blocks[0].insts.len();
        for timing in [TimingKind::Flat, TimingKind::InOrder] {
            let target = TargetDesc::x86_sse().with_timing(timing);
            for (at, trap) in (0..body)
                .map(|at| (at, &trapping_load))
                .chain([(body - 1, &vector_ret)])
            {
                let mut program = program.clone();
                program.functions[kinds].blocks[0].insts[at] = trap.clone();
                let results = run_every_path(
                    pins,
                    &program,
                    &target,
                    "kinds",
                    &[MachineValue::Int(16)],
                    64,
                    DEFAULT_SIM_FUEL,
                );
                let (out, stats, _) = &results[0];
                assert!(matches!(out, Err(SimError::Trap(_))), "at {at}: {out:?}");
                assert!(stats.instructions > at as u64, "at {at}");
                assert!(
                    results.iter().all(|r| r == &results[0]),
                    "{timing:?}, trap at {at}: paths diverged: {:?}",
                    results.iter().map(|r| (&r.0, &r.1)).collect::<Vec<_>>()
                );
                // Fuel for everything up to the trap, and for the trap too:
                // fuel runs dry inside the trap's region, so the fuel tail
                // stops before the trap or charges it as fetched.
                let fetched = stats.instructions;
                for fuel in [fetched - 1, fetched] {
                    let args = [MachineValue::Int(16)];
                    let results = run_every_path(pins, &program, &target, "kinds", &args, 64, fuel);
                    let trapped = matches!(results[0].0, Err(SimError::Trap(_)));
                    assert_eq!(trapped, fuel == fetched, "at {at}, fuel {fuel}");
                    assert!(
                        results.iter().all(|r| r == &results[0]),
                        "{timing:?}, trap at {at}, fuel {fuel}: paths diverged: {:?}",
                        results.iter().map(|r| (&r.0, &r.1)).collect::<Vec<_>>()
                    );
                }
            }
        }
        pins.check(14_007_678_668_843_600_635);
    }

    // --- named edges of pipelined timing: wherever the timing model's view
    // of a run depends on something only known at run time, both streams —
    // threaded welded and unwelded — must agree with each other and with the
    // recorded runs of the block walk on the whole `SimStats`,
    // `stalls`/`mispredicts`/`predicted` included.

    fn r(i: u16) -> PReg {
        PReg::int(i)
    }

    fn imm(dst: u16, value: i64) -> MInst {
        MInst::Imm { dst: r(dst), value }
    }

    fn alu(op: AluOp, dst: u16, lhs: u16, rhs: u16) -> MInst {
        MInst::IntOp {
            op,
            width: Width::W64,
            signed: true,
            dst: r(dst),
            lhs: r(lhs),
            rhs: r(rhs),
        }
    }

    fn icmp(pred: CmpPred, dst: u16, lhs: u16, rhs: u16) -> MInst {
        MInst::IntCmp {
            pred,
            width: Width::W64,
            signed: true,
            dst: r(dst),
            lhs: r(lhs),
            rhs: r(rhs),
        }
    }

    fn bnz(cond: u16, then_target: u32, else_target: u32) -> MInst {
        MInst::BranchNz {
            cond: r(cond),
            then_target,
            else_target,
        }
    }

    fn call(callee: &str, args: Vec<PReg>, ret: Option<PReg>) -> MInst {
        MInst::call(callee, args, ret)
    }

    fn ret(value: u16) -> MInst {
        MInst::Ret {
            value: Some(r(value)),
        }
    }

    fn func(name: &str, params: u16, blocks: Vec<Vec<MInst>>) -> MFunction {
        MFunction {
            name: name.into(),
            params: (0..params).map(r).collect(),
            blocks: blocks.into_iter().map(|insts| MBlock { insts }).collect(),
            num_slots: 0,
        }
    }

    fn program(functions: Vec<MFunction>) -> MProgram {
        MProgram {
            name: "m".into(),
            functions,
        }
    }

    /// Run `func(args)` on every path under both timing tiers, assert that
    /// the paths of a tier agree, and hand back the pipelined outcome.
    fn agree_on_both_tiers(
        pins: &mut Pins,
        program: &MProgram,
        func: &str,
        args: &[i64],
        fuel: u64,
    ) -> (RunOutcome, SimStats) {
        let args: Vec<MachineValue> = args.iter().copied().map(MachineValue::Int).collect();
        let mut pipelined = None;
        for timing in [TimingKind::Flat, TimingKind::InOrder] {
            let target = TargetDesc::x86_sse().with_timing(timing);
            let results = run_every_path(pins, program, &target, func, &args, 64, fuel);
            assert!(
                results.iter().all(|r| r == &results[0]),
                "{func}{args:?} under {timing:?}, fuel {fuel}: paths diverged: {:?}",
                results.iter().map(|r| (&r.0, &r.1)).collect::<Vec<_>>()
            );
            let (out, stats, _) = &results[0];
            pipelined = Some((out.clone(), *stats));
        }
        pipelined.expect("both tiers ran")
    }

    /// `fact(n)` recursive, and `sum(n)` calling it from a loop whose back
    /// edge is the induction-variable shape.
    fn calling_program() -> MProgram {
        let fact = func(
            "fact",
            1,
            vec![
                vec![imm(1, 1), icmp(CmpPred::Le, 2, 0, 1), bnz(2, 1, 2)],
                vec![ret(1)],
                vec![
                    alu(AluOp::Sub, 3, 0, 1),
                    call("fact", vec![r(3)], Some(r(4))),
                    alu(AluOp::Mul, 0, 0, 4),
                    ret(0),
                ],
            ],
        );
        let sum = func(
            "sum",
            1,
            vec![
                vec![imm(1, 0), imm(2, 1), imm(3, 0), MInst::Jump { target: 1 }],
                vec![
                    alu(AluOp::Mul, 5, 1, 1),
                    call("fact", vec![r(1)], Some(r(4))),
                    alu(AluOp::Add, 3, 3, 4),
                    alu(AluOp::Add, 1, 1, 2),
                    icmp(CmpPred::Lt, 5, 1, 0),
                    bnz(5, 1, 2),
                ],
                vec![ret(3)],
            ],
        );
        program(vec![fact, sum])
    }

    #[test]
    fn in_order_calls_in_a_loop_and_recursion_agree_at_every_fuel_value() {
        let pins = &mut Pins::default();
        // A call drains the pipeline and clears the scoreboard, the callee
        // retires on the caller's pipeline, and fuel may run dry anywhere —
        // inside the callee, or inside the after-call region of either
        // caller.
        let p = calling_program();
        let (out, full) = agree_on_both_tiers(pins, &p, "sum", &[5], DEFAULT_SIM_FUEL);
        assert_eq!(out, Ok(Some(MachineValue::Int(1 + 1 + 2 + 6 + 24))));
        assert!(full.stalls > 0 && full.mispredicts > 0, "{full:?}");
        for fuel in 0..=full.instructions {
            let (out, stats) = agree_on_both_tiers(pins, &p, "sum", &[5], fuel);
            if fuel < full.instructions {
                assert_eq!(out, Err(SimError::OutOfFuel), "fuel {fuel}");
                assert_eq!(stats.instructions, fuel);
            } else {
                assert_eq!(stats, full);
            }
        }
        pins.check(17_963_264_832_283_678_265);
    }

    #[test]
    fn in_order_traps_at_a_call_or_a_return_agree_on_every_path() {
        let pins = &mut Pins::default();
        // An unknown callee and a vector argument trap before the call is
        // charged; a vector return retires its move first. In each case the
        // multiply ahead of the trap has retired and nothing behind it has.
        let lead = alu(AluOp::Mul, 1, 0, 0);
        let traps = [
            (call("nowhere", vec![r(1)], Some(r(2))), "unknown callee"),
            (call("f", vec![PReg::vec(0)], None), "vector argument"),
            (
                MInst::Ret {
                    value: Some(PReg::vec(0)),
                },
                "vector return",
            ),
        ];
        for (trap, what) in traps {
            let body = vec![lead.clone(), trap, imm(2, 1), ret(2)];
            let p = program(vec![func("f", 1, vec![body])]);
            let (out, stats) = agree_on_both_tiers(pins, &p, "f", &[3], DEFAULT_SIM_FUEL);
            assert!(
                matches!(out, Err(SimError::Trap(_) | SimError::UnknownFunction(_))),
                "{what}: {out:?}"
            );
            assert_eq!(stats.instructions, 2, "{what}");
        }
        pins.check(5_081_620_875_485_787_330);
    }

    #[test]
    fn an_unknown_callee_traps_before_its_arguments_are_read_or_the_call_is_charged() {
        let pins = &mut Pins::default();
        // Found by the store's payload fuzz once its oracle became the
        // legacy walk: the walk read a call's arguments and charged the call
        // before it resolved the callee's name, where the prepared stream
        // resolves the name first. With a vector argument as well, the name
        // must still be what traps.
        for args in [vec![r(1)], vec![PReg::vec(0)]] {
            let body = vec![
                alu(AluOp::Mul, 1, 0, 0),
                call("nowhere", args, Some(r(2))),
                ret(2),
            ];
            let p = program(vec![func("f", 1, vec![body])]);
            let (out, stats) = agree_on_both_tiers(pins, &p, "f", &[3], DEFAULT_SIM_FUEL);
            assert_eq!(out, Err(SimError::UnknownFunction("nowhere".into())));
            assert_eq!(stats.instructions, 2);
        }
        pins.check(11_064_792_576_977_646_257);
    }

    #[test]
    fn in_order_branches_whose_sites_alias_in_the_bht_agree_on_every_path() {
        let pins = &mut Pins::default();
        // A parity branch at row 7 and the loop's back edge — an
        // induction-variable step — at 7 + 256 share one 2-bit counter: the
        // site must be the `BranchNz`'s own row on every path, or the
        // counter histories diverge.
        let mut filler: Vec<MInst> = (0..252).map(|k| imm(5, k)).collect();
        filler.push(MInst::Jump { target: 3 });
        let f = func(
            "f",
            1,
            vec![
                vec![imm(1, 0), imm(2, 1), imm(5, 0), MInst::Jump { target: 1 }],
                vec![
                    imm(5, 0),
                    alu(AluOp::And, 3, 1, 2),
                    icmp(CmpPred::Ne, 3, 3, 5),
                    bnz(3, 2, 3),
                ],
                filler,
                vec![
                    alu(AluOp::Add, 1, 1, 2),
                    icmp(CmpPred::Lt, 4, 1, 0),
                    bnz(4, 1, 4),
                ],
                vec![ret(1)],
            ],
        );
        let p = program(vec![f]);
        let prepared = PreparedProgram::prepare(&p, &TargetDesc::x86_sse()).unwrap();
        // Both rows are conditional branches: they count as branches, close
        // their regions and are charged only when they retire.
        let f = &prepared.functions[0];
        for row in [&f.info[7], &f.info[7 + 256]] {
            assert!(row.is(OpInfo::BRANCH | OpInfo::CLOSES) && row.cycles == 0);
        }
        // With welding on, the parity branch closes a welded compare-branch
        // pair and the back edge retires on its own record: the two sites
        // alias across both ways a branch is dispatched.
        assert!(dispatch::opens_pair(f, 6) && dispatch::opens_pair(f, 7 + 254));
        assert!(!dispatch::opens_pair(f, 7 + 255));
        let (out, stats) = agree_on_both_tiers(pins, &p, "f", &[9], DEFAULT_SIM_FUEL);
        assert_eq!(out, Ok(Some(MachineValue::Int(9))));
        assert!(stats.mispredicts > 2, "{stats:?}");
        assert_eq!(stats.predicted + stats.mispredicts, stats.branches);
        pins.check(13_450_099_493_915_888_476);
    }

    #[test]
    fn an_unlisted_pair_stays_unwelded_and_runs_as_its_own_records() {
        let pins = &mut Pins::default();
        // `IntOp -> Store` is in the weld table; `IntOp -> BranchNz`, which
        // the JIT never emits (its compares feed branches), is not. The
        // sweep welds rows 0–1 and leaves rows 2 and 3 on their own records.
        let store = MInst::Store {
            width: Width::W64,
            float: false,
            base: r(1),
            offset: 8,
            src: r(2),
        };
        let f = func(
            "f",
            2,
            vec![
                vec![
                    alu(AluOp::Add, 2, 0, 0),
                    store,
                    alu(AluOp::Sub, 3, 2, 0),
                    bnz(3, 1, 2),
                ],
                vec![ret(2)],
                vec![ret(3)],
            ],
        );
        let p = program(vec![f]);
        let welded = PreparedProgram::prepare_with(&p, &TargetDesc::x86_sse(), true).unwrap();
        let stats = welded.fusion_stats();
        assert_eq!((stats.pair, stats.unlisted), (1, 1), "{stats:?}");
        let text = welded.disasm(&p);
        let marked: Vec<_> = text.lines().filter(|l| l.contains("+@")).collect();
        assert!(
            marked.len() == 1 && marked[0].starts_with("     0+@0 "),
            "{text}"
        );
        // Welded and unwelded agree on results, memory and `SimStats` under
        // both tiers, on either way out of the branch.
        for n in [0, 21] {
            let (out, _) = agree_on_both_tiers(pins, &p, "f", &[n, 16], DEFAULT_SIM_FUEL);
            assert_eq!(out, Ok(Some(MachineValue::Int(2 * n))));
        }
        pins.check(10_339_735_099_568_126_287);
    }

    #[test]
    fn wide_vector_files_and_huge_costs_run_threaded_and_match_the_legacy_walk() {
        let pins = &mut Pins::default();
        // Byte offsets into a 64 x 2 KiB vector file do not fit 16 bits and
        // these costs overflow 32 once a region sums them; records carry
        // register numbers and no costs, so neither can fail to pack.
        let huge = u64::from(u32::MAX);
        let target = TargetDesc {
            vector: Some(crate::VectorUnit {
                bytes: 2048,
                regs: 64,
            }),
            cost: CostModel {
                int_op: huge,
                vec_op: huge + 7,
                branch_taken: huge + 3,
                ..CostModel::default()
            },
            ..TargetDesc::x86_sse()
        };
        let program = every_kind_program(63);
        let prepared = PreparedProgram::prepare(&program, &target).unwrap();
        assert!(prepared.disasm(&program).contains("dispatch: threaded"));
        assert!(prepared.fusion_stats().total() > 0);

        let results = run_every_path(
            pins,
            &program,
            &target,
            "kinds",
            &[MachineValue::Int(16)],
            16 + 32 + 2048,
            DEFAULT_SIM_FUEL,
        );
        assert!(results[0].0.is_ok(), "{:?}", results[0].0);
        assert!(results[0].1.cycles > 8 * huge, "{:?}", results[0].1);
        assert!(
            results.iter().all(|r| r == &results[0]),
            "paths diverged: {:?}",
            results
                .iter()
                .map(|(out, stats, _)| (out, stats))
                .collect::<Vec<_>>()
        );
        pins.check(7_612_094_044_783_309_446);
    }

    #[test]
    fn disasm_renders_weld_marks_and_region_charges() {
        let p = counting_loop();
        let target = TargetDesc::x86_sse();
        let welded = PreparedProgram::prepare_with(&p, &target, true).unwrap();
        let text = welded.disasm(&p);
        assert!(text.contains("dispatch: threaded"), "{text}");
        assert!(text.contains("entry charge"), "{text}");
        // Each row is written from its instruction, the branch's targets as
        // block numbers; a `+` after the record index marks a pair opener.
        assert!(
            text.contains("     0+@0        Imm { dst: r1, value: 0 } "),
            "{text}"
        );
        assert!(
            text.contains("     1 @1        Imm { dst: r2, value: 1 } "),
            "{text}"
        );
        let branch = "BranchNz { cond: r5, then_target: 1, else_target: 2 }";
        assert!(text.contains(branch), "{text}");
        let marks = |text: &str| text.lines().filter(|l| l.contains("+@")).count();
        assert_eq!(marks(&text) as u64, welded.fusion_stats().pair, "{text}");
        let unwelded = PreparedProgram::prepare_with(&p, &target, false).unwrap();
        assert_eq!(marks(&unwelded.disasm(&p)), 0, "no weld marks expected");
        // One listing for both tiers: in-order regions prepay no cycles,
        // every op names its latency class and every segment prints its
        // summary where it starts.
        assert!(!text.contains("; lat "), "{text}");
        assert!(!text.contains("; segment "), "{text}");
        let in_order = target.with_timing(TimingKind::InOrder);
        let text = PreparedProgram::prepare(&p, &in_order).unwrap().disasm(&p);
        assert!(text.contains("dispatch: threaded"), "{text}");
        assert!(!text.contains("prepaid"), "{text}");
        assert!(text.contains("; cycles 1 ; lat mov"), "{text}");
        // The loop body: `acc += i` and the step read their sources before
        // writing them, and the compare reads `n` in the fourth slot; the
        // exit region's segment runs through the `Ret`.
        let body = "; segment rows @4..8: 4 cycles, 0 stalls on a reset board; \
                    live-in r0@4 r1@1 r2@2 r3@1";
        assert!(text.contains(body), "{text}");
        assert!(text.contains("; segment rows @9..10: "), "{text}");
        assert_eq!(text.matches("; segment ").count(), 3, "{text}");
    }

    // --- segment summaries against the row walk, on real programs. The
    // catalogue is compiled by the online compiler, which links the library
    // build of this crate, so its programs are carried over into this
    // build's types field by field, through the shape table.

    use splitc::splitc_targets as lib;

    /// The same value as this build's type.
    trait Bridge<T> {
        fn bridge(&self) -> T;
    }

    impl<T: Clone> Bridge<T> for T {
        fn bridge(&self) -> T {
            self.clone()
        }
    }

    macro_rules! bridge_codes {
        ($($ty:ident)+) => {$(
            impl Bridge<$ty> for lib::$ty {
                fn bridge(&self) -> $ty {
                    $ty::from_code(self.code()).expect("one numbering")
                }
            }
        )+};
    }
    bridge_codes!(RegClass Width AluOp FpuOp CmpPred RedOp);

    impl Bridge<PReg> for lib::PReg {
        fn bridge(&self) -> PReg {
            PReg {
                class: self.class.bridge(),
                index: self.index,
            }
        }
    }

    impl Bridge<Option<PReg>> for Option<lib::PReg> {
        fn bridge(&self) -> Option<PReg> {
            self.as_ref().map(Bridge::bridge)
        }
    }

    impl Bridge<Vec<PReg>> for Vec<lib::PReg> {
        fn bridge(&self) -> Vec<PReg> {
            self.iter().map(Bridge::bridge).collect()
        }
    }

    impl Bridge<Box<crate::MCall>> for Box<lib::MCall> {
        fn bridge(&self) -> Box<crate::MCall> {
            Box::new(crate::MCall {
                callee: self.callee.clone(),
                args: self.args.bridge(),
            })
        }
    }

    macro_rules! bridge_inst {
        ($($tag:literal $variant:ident {
            $($role:ident $(($($class:tt)+))? $field:ident),*
        })*) => {
            impl Bridge<MInst> for lib::MInst {
                fn bridge(&self) -> MInst {
                    match self {
                        $(lib::MInst::$variant { $($field),* } => MInst::$variant {
                            $($field: Bridge::bridge($field)),*
                        },)*
                    }
                }
            }
        };
    }
    crate::minst_shapes!(bridge_inst);

    impl Bridge<MProgram> for lib::MProgram {
        fn bridge(&self) -> MProgram {
            let function = |f: &lib::MFunction| MFunction {
                name: f.name.clone(),
                params: f.params.bridge(),
                blocks: f
                    .blocks
                    .iter()
                    .map(|b| MBlock {
                        insts: b.insts.iter().map(Bridge::bridge).collect(),
                    })
                    .collect(),
                num_slots: f.num_slots,
            };
            MProgram {
                name: self.name.clone(),
                functions: self.functions.iter().map(function).collect(),
            }
        }
    }

    /// A branchy integer map and reduce the catalogue lacks.
    const TIGHT_LOOP: &str = "fn tight(n: i32, x: *i32, y: *i32) -> i32 {
        let acc: i32 = 0;
        for (let i: i32 = 0; i < n; i = i + 1) {
            let v: i32 = x[i];
            let w: i32 = (v * 3 + i) - (v / 7);
            if (w > 64) { y[i] = w - 64; } else { y[i] = 64 - w; }
        }
        for (let k: i32 = 0; k < n; k = k + 1) {
            acc = acc + y[k];
        }
        return acc;
    }";

    /// SplitMix64: seeded, so every board below is reproducible.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// A board as a run leaves one: a seeded prefix of ops on keys below
    /// `keys` (divides among them), on a third of the boards with a call's
    /// clear somewhere in it.
    fn entry_board(rng: &mut Rng, cost: &CostModel, keys: u64) -> (InOrderPipeline, SimStats) {
        use LatClass as L;
        let classes = [L::Alu, L::Mul, L::Div, L::FpAdd, L::FpDiv, L::Load, L::Mov];
        let mut tm = InOrderPipeline::new(cost);
        let mut stats = SimStats::default();
        let ops = rng.below(12);
        let clear_at = (rng.below(3) == 0).then(|| rng.below(ops + 1));
        for i in 0..=ops {
            if clear_at == Some(i) {
                tm.call(&mut stats, cost.call);
            }
            if i < ops {
                let class = classes[rng.below(classes.len() as u64) as usize];
                let latency = 1 + rng.below(24);
                let [dst, a, b] = [(); 3].map(|()| rng.below(keys) as u32);
                tm.op(&mut stats, class, latency, dst, a, b);
            }
        }
        (tm, stats)
    }

    #[test]
    fn segment_summaries_leave_what_the_row_walk_leaves_on_hostile_entry_boards() {
        // Every region of the catalogue and of `tight` is one segment. Each
        // segment, on two in-order presets, from seeded boards: settling it must leave the pipeline
        // (`now`, `horizon`, `ready`, the BHT) and `SimStats` exactly as
        // retiring its rows does. Besides the random boards, each segment
        // meets one with every live-in key ready at exactly its slot — the
        // summary must apply — and one with a live-in a cycle later — it
        // must not.
        let mut module = splitc::splitc_workloads::full_module("catalogue").unwrap();
        let mut tight = splitc::splitc_minic::compile_source(TIGHT_LOOP, "tight").unwrap();
        for m in [&mut module, &mut tight] {
            splitc::splitc_opt::optimize_module(m, &splitc::splitc_opt::OptOptions::full());
        }
        let mut rng = Rng(0x5eed);
        let (mut applied, mut walked, mut boundaries) = (0, 0, 0);
        for preset in ["x86-sse", "cell-ppe"] {
            let target = TargetDesc::preset(preset)
                .unwrap()
                .with_timing(TimingKind::InOrder);
            let keys = 2 * u64::from(target.int_regs.max(target.float_regs));
            let compiled = lib::TargetDesc::preset(preset).unwrap();
            for m in [&module, &tight] {
                let options = splitc::splitc_jit::JitOptions::split();
                let (program, _) = splitc::splitc_jit::compile_module(m, &compiled, &options)
                    .unwrap_or_else(|e| panic!("{} on {preset}: {e}", m.name));
                let prepared = PreparedProgram::prepare(&program.bridge(), &target).unwrap();
                for f in &prepared.functions {
                    // Exactly one segment per region, from its entry.
                    assert_eq!(f.segs.len(), f.targets.len(), "{} on {preset}", f.name);
                    for t in &f.targets {
                        let seg = &f.segs[t.seg as usize];
                        assert_eq!(seg.start, t.row, "{} on {preset}", f.name);
                    }
                    for seg in &f.segs {
                        let live = seg.summary.map_or(&[][..], |s| {
                            &f.keys[s.keys as usize..][..usize::from(s.live)]
                        });
                        for round in 0..8 {
                            let (mut board, stats) = entry_board(&mut rng, &target.cost, keys);
                            // Rounds 1 and 2 sit on the entry check's boundary.
                            let expect = match round {
                                1 | 2 => {
                                    let now = board.now();
                                    for k in live {
                                        let i = usize::from(k.key);
                                        if board.ready.len() <= i {
                                            board.ready.resize(i + 1, 0);
                                        }
                                        board.ready[i] = now + u64::from(k.at);
                                    }
                                    let late = round == 2 && !live.is_empty();
                                    if late {
                                        let k = &live[rng.below(live.len() as u64) as usize];
                                        board.ready[usize::from(k.key)] += 1;
                                    }
                                    boundaries += 1;
                                    Some(seg.summary.is_some() && !late)
                                }
                                _ => None,
                            };
                            let (mut row_board, mut row_stats) = (board.clone(), stats);
                            let rows = &f.info[seg.start as usize..seg.end as usize];
                            retire_run(rows, &mut row_stats, &mut row_board);
                            let mut seg_stats = stats;
                            let hit = dispatch::retire_segment(f, seg, &mut seg_stats, &mut board);
                            let at = format!(
                                "{} on {preset}, rows {}..{}, round {round}",
                                f.name, seg.start, seg.end
                            );
                            assert_eq!((&board, seg_stats), (&row_board, row_stats), "{at}");
                            if let Some(expect) = expect {
                                assert_eq!(hit, expect, "{at}");
                            }
                            if hit {
                                applied += 1;
                            } else {
                                walked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(boundaries > 0 && applied > 0 && walked > 0);
        assert!(applied > walked, "{applied} applied, {walked} walked");
    }
}
