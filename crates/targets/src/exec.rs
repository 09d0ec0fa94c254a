//! Pre-decoded execution: deploy-time preparation of machine programs.
//!
//! Split compilation moves work out of the latency-critical stage into an
//! earlier stage that runs once. This module applies the same discipline to
//! *execution*: a [`PreparedProgram`] is built once per `(program, target)`
//! pair — at deploy time, right after online compilation — and can then be
//! run any number of times with none of the per-run decoding the legacy
//! [`Simulator`](crate::Simulator) walk pays on every instruction:
//!
//! * every function's blocks are **flattened into one linear instruction
//!   stream**, with block jumps resolved to instruction offsets (no
//!   `blocks[b].insts[i]` double indirection, no per-step instruction clone);
//! * call targets are resolved from `&str` names to **dense function
//!   indices** (no per-call linear name lookup);
//! * every register index is **bounds-checked once at prepare time** against
//!   the target's register files, so the hot loop never re-validates;
//! * per-instruction cycle costs and vector lane counts are **precomputed**
//!   where they depend on the opcode;
//! * call frames come from a [`FramePool`] that recycles the register-file
//!   and spill-slot allocations across calls and across runs;
//! * on top of the flat stream, each function is lowered to a **threaded
//!   dispatch stream** of fn-pointer handlers over packed 32-byte operand
//!   records (see [`dispatch`](crate::exec) internals), with fuel and
//!   instruction accounting hoisted out of the per-instruction path into
//!   per-region charges, and adjacent instructions **fused into macro-ops**
//!   (compare+branch, load+op, induction-variable steps).
//!
//! Semantics are bit-identical to the legacy walk — results, traps and
//! [`SimStats`] alike — which the cross-crate differential tests assert.
//! The per-instruction enum interpreter survives as the *metered* path
//! ([`PreparedProgram::run_metered`]): it is the in-crate semantic reference,
//! the deoptimization target when fuel runs too low to prepay a region, and
//! the baseline side of the dispatch microbenchmark.
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
use crate::dispatch::{self, FuseKind, OpMeta, OpRecord, Threaded};
use crate::mcode::{
    AluOp, CmpPred, FpuOp, MFunction, MInst, MProgram, PReg, RedOp, RegClass, Width,
};
use crate::simulator::{
    alu, check_range, compare, fpu, normalize, read_lane_float, read_lane_int, read_mem,
    write_lane_float, write_lane_int, write_mem, MachineValue, SimError, SimStats,
    DEFAULT_SIM_FUEL, MAX_CALL_DEPTH,
};
use crate::timing::{FlatCost, InOrderPipeline, LatClass, TimingKind, TimingModel, NO_REG};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
/// The legacy simulator allocated four `Vec`s — including a `Vec<Vec<u8>>`
/// for the vector registers — on **every** call, including recursive ones.
/// A `FramePool` hands frames out of a free list instead: after a short
/// warm-up, running a kernel performs no allocation at all. Pools are
/// target-agnostic (frames are resized on acquire, reusing capacity), so one
/// pool can serve a whole sweep across many targets.
///
/// A pool can also carry an optional **cancellation token** for the runs it
/// backs ([`FramePool::set_cancel_token`]): the executor polls it at region
/// boundaries (region prepayment on the threaded path, back edges on the
/// metered path) and aborts with [`SimError::Cancelled`] once it flips —
/// the cooperative-cancellation hook the serving tier's deadlines use to
/// stop a runaway kernel without killing the worker thread.
#[derive(Debug, Default)]
pub struct FramePool {
    frames: Vec<Frame>,
    argv: Vec<Vec<MachineValue>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl FramePool {
    /// An empty pool; frames are created on first use and recycled after.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Frames currently sitting in the free list (for tests/diagnostics).
    pub fn pooled_frames(&self) -> usize {
        self.frames.len()
    }

    /// Arm cooperative cancellation for subsequent runs drawn from this
    /// pool: once `token` reads `true`, execution stops at the next region
    /// boundary with [`SimError::Cancelled`]. The token stays armed until
    /// [`FramePool::clear_cancel_token`]; callers that reuse one pool across
    /// requests must re-arm (or clear) per run.
    pub fn set_cancel_token(&mut self, token: Arc<AtomicBool>) {
        self.cancel = Some(token);
    }

    /// Disarm cooperative cancellation (subsequent runs are uncancellable).
    pub fn clear_cancel_token(&mut self) {
        self.cancel = None;
    }

    /// `true` once the armed token (if any) has been flipped. Hot-path
    /// polling site: a `None` token is a single branch.
    #[inline(always)]
    pub fn cancel_requested(&self) -> bool {
        match &self.cancel {
            Some(t) => t.load(Ordering::Relaxed),
            None => false,
        }
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

/// A register operand resolved to `(class, index)` with the index validated
/// at prepare time. For vector registers the `usize` is a *byte offset* into
/// the frame's flat vector buffer.
pub(crate) type RRef = (RegClass, usize);

/// Payload of a resolved call, boxed so [`PInst`] stays within its 32-byte
/// cache-footprint budget.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PCall {
    pub(crate) callee: usize,
    pub(crate) args: Box<[RRef]>,
    pub(crate) ret: Option<RRef>,
}

/// One pre-decoded instruction of the flat stream.
///
/// Operands are `u32` indices (validated at prepare time), block targets are
/// instruction offsets, call targets are function indices, and
/// opcode-dependent cycle costs / lane counts are baked in. The enum is kept
/// at or under 32 bytes (statically asserted below) so the metered stream
/// stays two instructions per cache line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PInst {
    Imm {
        dst: u32,
        value: i64,
    },
    FImm {
        dst: u32,
        value: f64,
    },
    MovInt {
        dst: u32,
        src: u32,
    },
    MovFloat {
        dst: u32,
        src: u32,
    },
    MovVec {
        dst: u32,
        src: u32,
    },
    IntOp {
        op: AluOp,
        width: Width,
        signed: bool,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cost: u64,
    },
    FloatOp {
        op: FpuOp,
        double: bool,
        dst: u32,
        lhs: u32,
        rhs: u32,
        cost: u64,
    },
    IntNeg {
        width: Width,
        dst: u32,
        src: u32,
    },
    IntNot {
        width: Width,
        dst: u32,
        src: u32,
    },
    FloatNeg {
        double: bool,
        dst: u32,
        src: u32,
    },
    IntCmp {
        pred: CmpPred,
        width: Width,
        signed: bool,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    FloatCmp {
        pred: CmpPred,
        double: bool,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    SelectInt {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    SelectFloat {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    SelectVec {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    IntToFloat {
        signed: bool,
        double: bool,
        dst: u32,
        src: u32,
    },
    FloatToInt {
        width: Width,
        signed: bool,
        dst: u32,
        src: u32,
    },
    FloatCvt {
        to_double: bool,
        dst: u32,
        src: u32,
    },
    IntResize {
        width: Width,
        signed: bool,
        dst: u32,
        src: u32,
    },
    LoadInt {
        width: Width,
        signed: bool,
        dst: u32,
        base: u32,
        offset: i64,
    },
    LoadFloat {
        width: Width,
        dst: u32,
        base: u32,
        offset: i64,
    },
    StoreInt {
        width: Width,
        base: u32,
        offset: i64,
        src: u32,
    },
    StoreFloat {
        width: Width,
        base: u32,
        offset: i64,
        src: u32,
    },
    VecLoad {
        dst: u32,
        base: u32,
        offset: i64,
    },
    VecStore {
        base: u32,
        offset: i64,
        src: u32,
    },
    VecSplatInt {
        elem: Width,
        lanes: u32,
        dst: u32,
        src: u32,
    },
    VecSplatFloat {
        elem: Width,
        lanes: u32,
        dst: u32,
        src: u32,
    },
    VecIntOp {
        op: AluOp,
        elem: Width,
        signed: bool,
        lanes: u32,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    VecFloatOp {
        op: FpuOp,
        elem: Width,
        double: bool,
        lanes: u32,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    VecReduceInt {
        op: RedOp,
        elem: Width,
        signed: bool,
        lanes: u32,
        dst: u32,
        src: u32,
    },
    VecReduceFloat {
        op: RedOp,
        elem: Width,
        lanes: u32,
        dst: u32,
        src: u32,
    },
    SpillInt {
        slot: u32,
        src: u32,
    },
    SpillFloat {
        slot: u32,
        src: u32,
    },
    SpillVec {
        slot: u32,
        src: u32,
    },
    Reload {
        slot: u32,
        class: RegClass,
        dst: u32,
    },
    Jump {
        target: u32,
    },
    BranchNz {
        cond: u32,
        then_target: u32,
        else_target: u32,
    },
    Call(Box<PCall>),
    /// A call whose target does not exist in the program. Kept as a runtime
    /// error (like the legacy walk) so dead malformed calls don't poison
    /// preparation of an otherwise-valid program.
    CallUnknown {
        name: Box<str>,
    },
    Ret {
        value: Option<RRef>,
    },
    /// Synthetic trap appended after any block that does not end in a
    /// terminator, preserving the legacy "fell off the end" behaviour in a
    /// flat stream.
    FellOff {
        block: u32,
    },
}

// The hot streams must stay cache-dense: the metered enum stream at two
// instructions per 64-byte line, the threaded operand records at exactly two
// per line. Fusion variants and new opcodes must not bloat either.
const _: () = assert!(std::mem::size_of::<PInst>() <= 32);
const _: () = assert!(std::mem::size_of::<OpRecord>() <= 32);

/// Scoreboard key of a flat *integer*-file register index for the timing
/// model (see [`crate::timing::InOrderPipeline`]).
#[inline(always)]
fn ik(r: u32) -> u32 {
    r << 1
}

/// Scoreboard key of a flat *float*-file register index for the timing model.
#[inline(always)]
fn fk(r: u32) -> u32 {
    (r << 1) | 1
}

/// One function of a [`PreparedProgram`]: a flat, pre-validated instruction
/// stream, the threaded dispatch stream lowered from it, and the frame layout
/// it needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PreparedFunction {
    pub(crate) name: String,
    pub(crate) params: Box<[RRef]>,
    pub(crate) num_slots: usize,
    /// The unfused per-instruction stream: metered reference and deopt target.
    pub(crate) code: Vec<PInst>,
    /// Enum-stream offset of every block (one synthetic block if none).
    pub(crate) block_offsets: Vec<u32>,
    /// The threaded stream: packed operand records dispatched by fn pointer.
    pub(crate) ops: Vec<OpRecord>,
    /// Per-op correction subtracted from the prepaid `stats.instructions`
    /// and static counter charges when the op raises an error (cold path).
    pub(crate) fixup: Vec<dispatch::FixupRec>,
    /// Per-op enum-stream span and fusion kind (disasm / accounting, cold).
    pub(crate) meta: Vec<OpMeta>,
    /// Region entries (block entries first, then after-call regions): where
    /// control can land plus the fuel/instruction charge and static counter
    /// sums prepaid on entry.
    pub(crate) targets: Vec<dispatch::BlockTarget>,
    /// Resolved call sites referenced by threaded call records.
    pub(crate) calls: Vec<dispatch::CallSite>,
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
    by_name: HashMap<String, usize>,
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
    /// `false` when the target's shape cannot be packed into 32-byte operand
    /// records (oversized custom cost model or vector file), **or** when the
    /// target's timing tier is not flat: region prepayment sums static per-op
    /// cycle charges, which is only sound when cycles are a pure per-op
    /// accumulator. Pipelined timing always runs the metered enum stream.
    pub(crate) threaded: bool,
    fused: bool,
    fusion: FusionStats,
}

impl PreparedProgram {
    /// Pre-decode `program` for `target`, with macro-op fusion enabled.
    ///
    /// All register indices, spill-slot indices, block targets and vector
    /// capabilities are validated here, **once**, so the execution loop never
    /// re-checks them.
    ///
    /// Validation is deliberately **eager and whole-program**: a malformed
    /// instruction fails deployment even if it sits in a function the
    /// deployment would never execute (where the legacy walk only trapped on
    /// execution). Failing at deploy time instead of on the Nth run is the
    /// point of preparation; only *unknown call targets* stay lazy (they are
    /// a name-resolution property, not a malformed-code one).
    ///
    /// # Errors
    ///
    /// Returns the same [`SimError`] variants the legacy walk would raise at
    /// run time: [`SimError::BadRegister`] for an index beyond the target's
    /// register file, [`SimError::NoVectorUnit`] for vector instructions on a
    /// scalar-only target, and [`SimError::Trap`] for malformed control flow.
    pub fn prepare(program: &MProgram, target: &TargetDesc) -> Result<PreparedProgram, SimError> {
        PreparedProgram::prepare_with(program, target, true)
    }

    /// Pre-decode `program` for `target`, choosing whether the threaded
    /// stream fuses adjacent instructions into macro-ops (`fuse = false` is
    /// the ablation/differential configuration; results, traps and
    /// [`SimStats`] are bit-identical either way).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::prepare`].
    pub fn prepare_with(
        program: &MProgram,
        target: &TargetDesc,
        fuse: bool,
    ) -> Result<PreparedProgram, SimError> {
        let mut by_name = HashMap::with_capacity(program.functions.len());
        for (i, f) in program.functions.iter().enumerate() {
            // First definition wins, matching `MProgram::function`.
            by_name.entry(f.name.clone()).or_insert(i);
        }
        let layout = Layout {
            int_regs: usize::from(target.int_regs),
            float_regs: usize::from(target.float_regs),
            vec_regs: target.vector.map(|v| usize::from(v.regs)).unwrap_or(0),
            vector_bytes: target.vector_bytes() as usize,
        };
        let vec_bytes_total = layout.vec_regs * layout.vector_bytes;
        // The packed operand records hold register/byte offsets in 16 bits
        // and baked costs in 32; a (hand-built) target outside those bounds
        // falls back to the metered stream rather than mis-packing.
        let threaded = vec_bytes_total <= usize::from(u16::MAX) + 1
            && dispatch::costs_fit_u32(&target.cost)
            && target.timing == TimingKind::Flat;
        let mut fusion = FusionStats::default();
        let mut functions = Vec::with_capacity(program.functions.len());
        for f in &program.functions {
            let mut pf = prepare_function(f, target, &layout, &by_name)?;
            if threaded {
                dispatch::build_threaded(&mut pf, &target.cost, fuse, &mut fusion);
            }
            functions.push(pf);
        }
        Ok(PreparedProgram {
            name: program.name.clone(),
            functions,
            by_name,
            int_regs: layout.int_regs,
            float_regs: layout.float_regs,
            vec_bytes_total,
            vector_bytes: layout.vector_bytes,
            cost: target.cost,
            timing: target.timing,
            threaded,
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

    /// `true` if the macro-op fusion pass ran over the threaded stream.
    pub fn fused(&self) -> bool {
        self.fused
    }

    /// Static macro-op fusion counts over the whole program (how many fused
    /// records of each kind the prepare-time pass emitted).
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
    /// This is the externally-pooled entry the engine and sweep workers use
    /// so frame allocations amortize across *runs*, not just across calls
    /// within one run. [`PreparedSimulator`] wraps it with an owned pool.
    /// Execution takes the threaded dispatch stream; fuel and instruction
    /// counts are prepaid per straight-line region and the engine deopts to
    /// the metered stream when a region's charge no longer fits the budget,
    /// so behaviour is bit-identical to [`PreparedProgram::run_metered`].
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
        fuel: u64,
        stats: &mut SimStats,
    ) -> Result<Option<MachineValue>, SimError> {
        *stats = SimStats::default();
        let fi = self
            .function_index(func)
            .ok_or_else(|| SimError::UnknownFunction(func.to_owned()))?;
        let mut fuel = fuel;
        match self.timing {
            TimingKind::Flat => {
                let mut tm = FlatCost;
                let r = self.exec(fi, args, mem, pool, &mut fuel, 0, stats, &mut tm);
                tm.finish(stats);
                r
            }
            TimingKind::InOrder => {
                let mut tm = InOrderPipeline::new(&self.cost);
                let r = self.exec(fi, args, mem, pool, &mut fuel, 0, stats, &mut tm);
                tm.finish(stats);
                r
            }
        }
    }

    /// Execute `func` on the metered per-instruction enum stream — the
    /// pre-threading prepared loop, kept as the in-crate semantic reference
    /// and the baseline side of the dispatch microbenchmark.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::run`].
    pub fn run_metered(
        &self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: u64,
        stats: &mut SimStats,
    ) -> Result<Option<MachineValue>, SimError> {
        *stats = SimStats::default();
        let fi = self
            .function_index(func)
            .ok_or_else(|| SimError::UnknownFunction(func.to_owned()))?;
        let mut fuel = fuel;
        match self.timing {
            TimingKind::Flat => {
                let mut tm = FlatCost;
                let r = self.exec_metered(fi, args, mem, pool, &mut fuel, 0, stats, &mut tm);
                tm.finish(stats);
                r
            }
            TimingKind::InOrder => {
                let mut tm = InOrderPipeline::new(&self.cost);
                let r = self.exec_metered(fi, args, mem, pool, &mut fuel, 0, stats, &mut tm);
                tm.finish(stats);
                r
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec<T: TimingModel>(
        &self,
        fi: usize,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: &mut u64,
        depth: usize,
        stats: &mut SimStats,
        tm: &mut T,
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
        let result = self.exec_in_frame(f, &mut frame, args, mem, pool, fuel, depth, stats, tm);
        pool.release(frame);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_metered<T: TimingModel>(
        &self,
        fi: usize,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: &mut u64,
        depth: usize,
        stats: &mut SimStats,
        tm: &mut T,
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
        let result = write_params(f, &mut frame, args)
            .and_then(|()| self.run_enum(f, &mut frame, mem, pool, fuel, depth, stats, 0, tm));
        pool.release(frame);
        result
    }

    /// Threaded entry: write parameters, prepay the entry region, and drive
    /// the fn-pointer dispatch loop; deopt to the metered stream whenever a
    /// region's charge no longer fits the remaining fuel (the metered loop
    /// then reproduces exact legacy out-of-fuel timing).
    #[allow(clippy::too_many_arguments)]
    fn exec_in_frame<T: TimingModel>(
        &self,
        f: &PreparedFunction,
        frame: &mut Frame,
        args: &[MachineValue],
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: &mut u64,
        depth: usize,
        stats: &mut SimStats,
        tm: &mut T,
    ) -> Result<Option<MachineValue>, SimError> {
        write_params(f, frame, args)?;
        if self.threaded {
            let entry = &f.targets[0];
            let charge = u64::from(entry.charge);
            if *fuel >= charge {
                *fuel -= charge;
                stats.instructions += charge;
                entry.stat.charge(stats);
                let entry_pc = entry.ops_pc;
                return match dispatch::run_ops(
                    self, f, frame, mem, pool, fuel, depth, stats, entry_pc,
                )? {
                    Threaded::Done(v) => Ok(v),
                    Threaded::Deopt(enum_pc) => self.run_enum(
                        f,
                        frame,
                        mem,
                        pool,
                        fuel,
                        depth,
                        stats,
                        enum_pc as usize,
                        tm,
                    ),
                };
            }
        }
        self.run_enum(f, frame, mem, pool, fuel, depth, stats, 0, tm)
    }

    /// The metered per-instruction interpreter over the enum stream, charging
    /// fuel and `stats.instructions` exactly like the legacy block walk. Runs
    /// the whole function when threading is off (or forced off via
    /// [`PreparedProgram::run_metered`]) and the post-deopt tail otherwise;
    /// calls made from metered code stay metered all the way down.
    #[allow(clippy::too_many_arguments, clippy::too_many_lines)]
    fn run_enum<T: TimingModel>(
        &self,
        f: &PreparedFunction,
        frame: &mut Frame,
        mem: &mut [u8],
        pool: &mut FramePool,
        fuel: &mut u64,
        depth: usize,
        stats: &mut SimStats,
        start: usize,
        tm: &mut T,
    ) -> Result<Option<MachineValue>, SimError> {
        let cost = &self.cost;
        let vb = self.vector_bytes;
        let code = &f.code;
        let mut pc = start;
        // Cooperative cancellation: poll at function entry (which is also
        // every post-deopt resumption) and at branches below, so a hot loop
        // cannot outrun a flipped token by more than one basic block.
        if pool.cancel_requested() {
            return Err(SimError::Cancelled);
        }
        loop {
            if *fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            *fuel -= 1;
            let inst = &code[pc];
            pc += 1;
            stats.instructions += 1;

            match inst {
                PInst::Imm { dst, value } => {
                    frame.int[*dst as usize] = *value;
                    tm.op(stats, LatClass::Mov, cost.mov, ik(*dst), NO_REG, NO_REG);
                }
                PInst::FImm { dst, value } => {
                    frame.float[*dst as usize] = *value;
                    tm.op(stats, LatClass::Mov, cost.mov, fk(*dst), NO_REG, NO_REG);
                }
                PInst::MovInt { dst, src } => {
                    frame.int[*dst as usize] = frame.int[*src as usize];
                    tm.op(stats, LatClass::Mov, cost.mov, ik(*dst), ik(*src), NO_REG);
                }
                PInst::MovFloat { dst, src } => {
                    frame.float[*dst as usize] = frame.float[*src as usize];
                    tm.op(stats, LatClass::Mov, cost.mov, fk(*dst), fk(*src), NO_REG);
                }
                PInst::MovVec { dst, src } => {
                    let (d, s) = (*dst as usize, *src as usize);
                    frame.vec.copy_within(s..s + vb, d);
                    tm.op(stats, LatClass::Mov, cost.mov, NO_REG, NO_REG, NO_REG);
                }
                PInst::IntOp {
                    op,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                    cost,
                } => {
                    let a = frame.int[*lhs as usize];
                    let b = frame.int[*rhs as usize];
                    frame.int[*dst as usize] = alu(*op, *width, *signed, a, b)?;
                    let class = match op {
                        AluOp::Mul => LatClass::Mul,
                        AluOp::Div | AluOp::Rem => LatClass::Div,
                        _ => LatClass::Alu,
                    };
                    tm.op(stats, class, *cost, ik(*dst), ik(*lhs), ik(*rhs));
                }
                PInst::FloatOp {
                    op,
                    double,
                    dst,
                    lhs,
                    rhs,
                    cost,
                } => {
                    let a = frame.float[*lhs as usize];
                    let b = frame.float[*rhs as usize];
                    frame.float[*dst as usize] = fpu(*op, *double, a, b);
                    let class = match op {
                        FpuOp::Mul => LatClass::FpMul,
                        FpuOp::Div => LatClass::FpDiv,
                        _ => LatClass::FpAdd,
                    };
                    tm.op(stats, class, *cost, fk(*dst), fk(*lhs), fk(*rhs));
                }
                PInst::IntNeg { width, dst, src } => {
                    let v = frame.int[*src as usize];
                    frame.int[*dst as usize] = normalize(*width, true, v.wrapping_neg());
                    tm.op(
                        stats,
                        LatClass::Alu,
                        cost.int_op,
                        ik(*dst),
                        ik(*src),
                        NO_REG,
                    );
                }
                PInst::IntNot { width, dst, src } => {
                    let v = frame.int[*src as usize];
                    frame.int[*dst as usize] = normalize(*width, false, !v);
                    tm.op(
                        stats,
                        LatClass::Alu,
                        cost.int_op,
                        ik(*dst),
                        ik(*src),
                        NO_REG,
                    );
                }
                PInst::FloatNeg { double, dst, src } => {
                    let v = frame.float[*src as usize];
                    frame.float[*dst as usize] = if *double { -v } else { f64::from(-(v as f32)) };
                    tm.op(
                        stats,
                        LatClass::FpAdd,
                        cost.fp_add,
                        fk(*dst),
                        fk(*src),
                        NO_REG,
                    );
                }
                PInst::IntCmp {
                    pred,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = normalize(*width, *signed, frame.int[*lhs as usize]);
                    let b = normalize(*width, *signed, frame.int[*rhs as usize]);
                    frame.int[*dst as usize] = if *signed {
                        compare(*pred, a, b)
                    } else {
                        compare(*pred, a as u64, b as u64)
                    };
                    tm.op(
                        stats,
                        LatClass::Alu,
                        cost.int_op,
                        ik(*dst),
                        ik(*lhs),
                        ik(*rhs),
                    );
                }
                PInst::FloatCmp {
                    pred,
                    double,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = frame.float[*lhs as usize];
                    let b = frame.float[*rhs as usize];
                    let (a, b) = if *double {
                        (a, b)
                    } else {
                        (f64::from(a as f32), f64::from(b as f32))
                    };
                    frame.int[*dst as usize] = if a.partial_cmp(&b).is_none() {
                        i64::from(*pred == CmpPred::Ne)
                    } else {
                        compare(*pred, a, b)
                    };
                    tm.op(
                        stats,
                        LatClass::FpAdd,
                        cost.fp_add,
                        ik(*dst),
                        fk(*lhs),
                        fk(*rhs),
                    );
                }
                PInst::SelectInt {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let chosen = if frame.int[*cond as usize] != 0 {
                        *if_true
                    } else {
                        *if_false
                    };
                    frame.int[*dst as usize] = frame.int[chosen as usize];
                    tm.op(
                        stats,
                        LatClass::Mov,
                        cost.mov,
                        ik(*dst),
                        ik(*cond),
                        ik(chosen),
                    );
                }
                PInst::SelectFloat {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let chosen = if frame.int[*cond as usize] != 0 {
                        *if_true
                    } else {
                        *if_false
                    };
                    frame.float[*dst as usize] = frame.float[chosen as usize];
                    tm.op(
                        stats,
                        LatClass::Mov,
                        cost.mov,
                        fk(*dst),
                        ik(*cond),
                        fk(chosen),
                    );
                }
                PInst::SelectVec {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let chosen = if frame.int[*cond as usize] != 0 {
                        *if_true as usize
                    } else {
                        *if_false as usize
                    };
                    frame.vec.copy_within(chosen..chosen + vb, *dst as usize);
                    tm.op(stats, LatClass::Mov, cost.mov, NO_REG, ik(*cond), NO_REG);
                }
                PInst::IntToFloat {
                    signed,
                    double,
                    dst,
                    src,
                } => {
                    let v = frame.int[*src as usize];
                    let x = if *signed { v as f64 } else { v as u64 as f64 };
                    frame.float[*dst as usize] = if *double { x } else { f64::from(x as f32) };
                    tm.op(
                        stats,
                        LatClass::Convert,
                        cost.convert,
                        fk(*dst),
                        ik(*src),
                        NO_REG,
                    );
                }
                PInst::FloatToInt {
                    width,
                    signed,
                    dst,
                    src,
                } => {
                    let v = frame.float[*src as usize];
                    frame.int[*dst as usize] = normalize(*width, *signed, v as i64);
                    tm.op(
                        stats,
                        LatClass::Convert,
                        cost.convert,
                        ik(*dst),
                        fk(*src),
                        NO_REG,
                    );
                }
                PInst::FloatCvt {
                    to_double,
                    dst,
                    src,
                } => {
                    let v = frame.float[*src as usize];
                    frame.float[*dst as usize] = if *to_double { v } else { f64::from(v as f32) };
                    tm.op(
                        stats,
                        LatClass::Convert,
                        cost.convert,
                        fk(*dst),
                        fk(*src),
                        NO_REG,
                    );
                }
                PInst::IntResize {
                    width,
                    signed,
                    dst,
                    src,
                } => {
                    let v = frame.int[*src as usize];
                    frame.int[*dst as usize] = normalize(*width, *signed, v);
                    tm.op(
                        stats,
                        LatClass::Alu,
                        cost.int_op,
                        ik(*dst),
                        ik(*src),
                        NO_REG,
                    );
                }
                PInst::LoadInt {
                    width,
                    signed,
                    dst,
                    base,
                    offset,
                } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    let raw = read_mem(mem, addr, width.bytes())?;
                    frame.int[*dst as usize] = normalize(*width, *signed, raw as i64);
                    tm.op(
                        stats,
                        LatClass::Load,
                        cost.load,
                        ik(*dst),
                        ik(*base),
                        NO_REG,
                    );
                    stats.loads += 1;
                }
                PInst::LoadFloat {
                    width,
                    dst,
                    base,
                    offset,
                } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    let raw = read_mem(mem, addr, width.bytes())?;
                    frame.float[*dst as usize] = match width {
                        Width::W32 => f64::from(f32::from_bits(raw as u32)),
                        _ => f64::from_bits(raw),
                    };
                    tm.op(
                        stats,
                        LatClass::Load,
                        cost.load,
                        fk(*dst),
                        ik(*base),
                        NO_REG,
                    );
                    stats.loads += 1;
                }
                PInst::StoreInt {
                    width,
                    base,
                    offset,
                    src,
                } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    write_mem(mem, addr, width.bytes(), frame.int[*src as usize] as u64)?;
                    tm.op(
                        stats,
                        LatClass::Store,
                        cost.store,
                        NO_REG,
                        ik(*base),
                        ik(*src),
                    );
                    stats.stores += 1;
                }
                PInst::StoreFloat {
                    width,
                    base,
                    offset,
                    src,
                } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    let v = frame.float[*src as usize];
                    let raw = match width {
                        Width::W32 => u64::from((v as f32).to_bits()),
                        _ => v.to_bits(),
                    };
                    write_mem(mem, addr, width.bytes(), raw)?;
                    tm.op(
                        stats,
                        LatClass::Store,
                        cost.store,
                        NO_REG,
                        ik(*base),
                        fk(*src),
                    );
                    stats.stores += 1;
                }
                PInst::VecLoad { dst, base, offset } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    check_range(mem, addr, vb as u64)?;
                    let d = *dst as usize;
                    frame.vec[d..d + vb].copy_from_slice(&mem[addr as usize..addr as usize + vb]);
                    tm.op(
                        stats,
                        LatClass::VecLoad,
                        cost.vec_load,
                        NO_REG,
                        ik(*base),
                        NO_REG,
                    );
                    stats.loads += 1;
                    stats.vector_ops += 1;
                }
                PInst::VecStore { base, offset, src } => {
                    let addr = frame.int[*base as usize].wrapping_add(*offset);
                    check_range(mem, addr, vb as u64)?;
                    let s = *src as usize;
                    mem[addr as usize..addr as usize + vb].copy_from_slice(&frame.vec[s..s + vb]);
                    tm.op(
                        stats,
                        LatClass::VecStore,
                        cost.vec_store,
                        NO_REG,
                        ik(*base),
                        NO_REG,
                    );
                    stats.stores += 1;
                    stats.vector_ops += 1;
                }
                PInst::VecSplatInt {
                    elem,
                    lanes,
                    dst,
                    src,
                } => {
                    let v = frame.int[*src as usize];
                    let d = *dst as usize;
                    let reg = &mut frame.vec[d..d + vb];
                    for lane in 0..*lanes as usize {
                        write_lane_int(reg, lane, *elem, v);
                    }
                    tm.op(stats, LatClass::Vec, cost.vec_op, NO_REG, ik(*src), NO_REG);
                    stats.vector_ops += 1;
                }
                PInst::VecSplatFloat {
                    elem,
                    lanes,
                    dst,
                    src,
                } => {
                    let v = frame.float[*src as usize];
                    let d = *dst as usize;
                    let reg = &mut frame.vec[d..d + vb];
                    for lane in 0..*lanes as usize {
                        write_lane_float(reg, lane, *elem, v);
                    }
                    tm.op(stats, LatClass::Vec, cost.vec_op, NO_REG, fk(*src), NO_REG);
                    stats.vector_ops += 1;
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
                    // Lane-by-lane read-then-write is aliasing-safe without
                    // the legacy per-op input clones: writing lane i of dst
                    // never changes a lane j > i of lhs/rhs.
                    let (d, l, r) = (*dst as usize, *lhs as usize, *rhs as usize);
                    for lane in 0..*lanes as usize {
                        let x = read_lane_int(&frame.vec[l..l + vb], lane, *elem, *signed);
                        let y = read_lane_int(&frame.vec[r..r + vb], lane, *elem, *signed);
                        let v = alu(*op, *elem, *signed, x, y)?;
                        write_lane_int(&mut frame.vec[d..d + vb], lane, *elem, v);
                    }
                    tm.op(stats, LatClass::Vec, cost.vec_op, NO_REG, NO_REG, NO_REG);
                    stats.vector_ops += 1;
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
                    let (d, l, r) = (*dst as usize, *lhs as usize, *rhs as usize);
                    for lane in 0..*lanes as usize {
                        let x = read_lane_float(&frame.vec[l..l + vb], lane, *elem);
                        let y = read_lane_float(&frame.vec[r..r + vb], lane, *elem);
                        let v = fpu(*op, *double, x, y);
                        write_lane_float(&mut frame.vec[d..d + vb], lane, *elem, v);
                    }
                    tm.op(stats, LatClass::Vec, cost.vec_op, NO_REG, NO_REG, NO_REG);
                    stats.vector_ops += 1;
                }
                PInst::VecReduceInt {
                    op,
                    elem,
                    signed,
                    lanes,
                    dst,
                    src,
                } => {
                    let s = *src as usize;
                    let reg = &frame.vec[s..s + vb];
                    let mut acc = read_lane_int(reg, 0, *elem, *signed);
                    for lane in 1..*lanes as usize {
                        let x = read_lane_int(reg, lane, *elem, *signed);
                        acc = match op {
                            RedOp::Add => alu(AluOp::Add, *elem, *signed, acc, x)?,
                            RedOp::Min => alu(AluOp::Min, *elem, *signed, acc, x)?,
                            RedOp::Max => alu(AluOp::Max, *elem, *signed, acc, x)?,
                        };
                    }
                    frame.int[*dst as usize] = acc;
                    tm.op(
                        stats,
                        LatClass::VecReduce,
                        cost.vec_reduce,
                        ik(*dst),
                        NO_REG,
                        NO_REG,
                    );
                    stats.vector_ops += 1;
                }
                PInst::VecReduceFloat {
                    op,
                    elem,
                    lanes,
                    dst,
                    src,
                } => {
                    let s = *src as usize;
                    let reg = &frame.vec[s..s + vb];
                    let double = *elem == Width::W64;
                    let mut acc = read_lane_float(reg, 0, *elem);
                    for lane in 1..*lanes as usize {
                        let x = read_lane_float(reg, lane, *elem);
                        acc = match op {
                            RedOp::Add => fpu(FpuOp::Add, double, acc, x),
                            RedOp::Min => fpu(FpuOp::Min, double, acc, x),
                            RedOp::Max => fpu(FpuOp::Max, double, acc, x),
                        };
                    }
                    frame.float[*dst as usize] = acc;
                    tm.op(
                        stats,
                        LatClass::VecReduce,
                        cost.vec_reduce,
                        fk(*dst),
                        NO_REG,
                        NO_REG,
                    );
                    stats.vector_ops += 1;
                }
                PInst::SpillInt { slot, src } => {
                    let value = SlotValue::Int(frame.int[*src as usize]);
                    *frame
                        .slots
                        .get_mut(*slot as usize)
                        .ok_or_else(|| SimError::Trap(format!("spill to invalid slot {slot}")))? =
                        value;
                    tm.op(
                        stats,
                        LatClass::SpillStore,
                        cost.spill_store,
                        NO_REG,
                        ik(*src),
                        NO_REG,
                    );
                    stats.spill_stores += 1;
                }
                PInst::SpillFloat { slot, src } => {
                    let value = SlotValue::Float(frame.float[*src as usize]);
                    *frame
                        .slots
                        .get_mut(*slot as usize)
                        .ok_or_else(|| SimError::Trap(format!("spill to invalid slot {slot}")))? =
                        value;
                    tm.op(
                        stats,
                        LatClass::SpillStore,
                        cost.spill_store,
                        NO_REG,
                        fk(*src),
                        NO_REG,
                    );
                    stats.spill_stores += 1;
                }
                PInst::SpillVec { slot, src } => {
                    let s = *src as usize;
                    *frame
                        .slots
                        .get_mut(*slot as usize)
                        .ok_or_else(|| SimError::Trap(format!("spill to invalid slot {slot}")))? =
                        SlotValue::Vec;
                    store_slot_vec(
                        &mut frame.slot_vec,
                        frame.slots.len(),
                        *slot as usize,
                        &frame.vec[s..s + vb],
                    );
                    tm.op(
                        stats,
                        LatClass::SpillStore,
                        cost.spill_store,
                        NO_REG,
                        NO_REG,
                        NO_REG,
                    );
                    stats.spill_stores += 1;
                }
                PInst::Reload { slot, class, dst } => {
                    let value = frame.slots.get(*slot as usize).ok_or_else(|| {
                        SimError::Trap(format!("reload from invalid slot {slot}"))
                    })?;
                    match (class, value) {
                        (RegClass::Int, SlotValue::Int(v)) => frame.int[*dst as usize] = *v,
                        (RegClass::Float, SlotValue::Float(v)) => {
                            frame.float[*dst as usize] = *v;
                        }
                        (RegClass::Vec, SlotValue::Vec) => {
                            let (d, at) = (*dst as usize, *slot as usize * vb);
                            frame.vec[d..d + vb].copy_from_slice(&frame.slot_vec[at..at + vb]);
                        }
                        (_, SlotValue::Empty) => {
                            return Err(SimError::Trap(format!(
                                "reload of uninitialized slot {slot}"
                            )));
                        }
                        _ => {
                            return Err(SimError::Trap(format!(
                                "reload class mismatch for slot {slot}"
                            )));
                        }
                    }
                    let dkey = match class {
                        RegClass::Int => ik(*dst),
                        RegClass::Float => fk(*dst),
                        RegClass::Vec => NO_REG,
                    };
                    tm.op(
                        stats,
                        LatClass::SpillReload,
                        cost.spill_load,
                        dkey,
                        NO_REG,
                        NO_REG,
                    );
                    stats.spill_reloads += 1;
                }
                PInst::Jump { target } => {
                    if pool.cancel_requested() {
                        return Err(SimError::Cancelled);
                    }
                    pc = *target as usize;
                    tm.jump(stats, cost.branch_taken);
                    stats.branches += 1;
                }
                PInst::BranchNz {
                    cond,
                    then_target,
                    else_target,
                } => {
                    if pool.cancel_requested() {
                        return Err(SimError::Cancelled);
                    }
                    let taken = frame.int[*cond as usize] != 0;
                    // Predictor site id: this branch's own enum-stream offset
                    // (`pc` already advanced past the fetch), captured before
                    // the redirect below.
                    let site = (pc - 1) as u32;
                    pc = if taken {
                        *then_target as usize
                    } else {
                        *else_target as usize
                    };
                    let c = if taken {
                        cost.branch_taken
                    } else {
                        cost.branch_not_taken
                    };
                    tm.branch(stats, site, taken, c, ik(*cond));
                    stats.branches += 1;
                }
                PInst::Call(call) => {
                    let mut argv = pool.take_argv();
                    for &(class, idx) in call.args.iter() {
                        argv.push(match class {
                            RegClass::Int => MachineValue::Int(frame.int[idx]),
                            RegClass::Float => MachineValue::Float(frame.float[idx]),
                            RegClass::Vec => {
                                return Err(SimError::Trap(
                                    "vector call arguments are unsupported".into(),
                                ));
                            }
                        });
                    }
                    tm.call(stats, cost.call);
                    // Calls made from metered code stay metered: once fuel is
                    // too low for region prepayment, the whole remaining
                    // execution runs per-instruction like the legacy walk.
                    let out = self.exec_metered(
                        call.callee,
                        &argv,
                        mem,
                        pool,
                        fuel,
                        depth + 1,
                        stats,
                        tm,
                    )?;
                    pool.give_argv(argv);
                    if let Some((class, idx)) = call.ret {
                        match (class, out) {
                            (RegClass::Int, Some(MachineValue::Int(v))) => frame.int[idx] = v,
                            (RegClass::Float, Some(MachineValue::Float(v))) => {
                                frame.float[idx] = v;
                            }
                            _ => {
                                return Err(SimError::Trap(format!(
                                    "call to {} did not produce the expected value",
                                    self.functions[call.callee].name
                                )));
                            }
                        }
                    }
                }
                PInst::CallUnknown { name } => {
                    return Err(SimError::UnknownFunction(name.to_string()));
                }
                PInst::Ret { value } => {
                    let src = match value {
                        Some((RegClass::Int, idx)) => ik(*idx as u32),
                        Some((RegClass::Float, idx)) => fk(*idx as u32),
                        _ => NO_REG,
                    };
                    tm.op(stats, LatClass::Mov, cost.mov, NO_REG, src, NO_REG);
                    return Ok(match value {
                        Some((RegClass::Int, idx)) => Some(MachineValue::Int(frame.int[*idx])),
                        Some((RegClass::Float, idx)) => {
                            Some(MachineValue::Float(frame.float[*idx]))
                        }
                        Some((RegClass::Vec, _)) => {
                            return Err(SimError::Trap(
                                "vector return values are unsupported".into(),
                            ));
                        }
                        None => None,
                    });
                }
                PInst::FellOff { block } => {
                    // The legacy walk charged fuel for the failed fetch but
                    // did not count an instruction; mirror that exactly.
                    stats.instructions -= 1;
                    return Err(SimError::Trap(format!(
                        "fell off the end of block {block} in {}",
                        f.name
                    )));
                }
            }
        }
    }

    /// Render the prepared (and fused) instruction streams of every function:
    /// resolved offsets, per-instruction cycle costs, fusion decisions and
    /// per-region fuel charges. This is the debugging surface behind
    /// `splitc disasm`.
    #[allow(clippy::too_many_lines)]
    pub fn disasm(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; prepared program `{}` — {} function(s), dispatch: {}, fusion: {}",
            self.name,
            self.functions.len(),
            if self.threaded {
                "threaded"
            } else {
                "metered (fallback)"
            },
            if self.fused { "on" } else { "off" },
        );
        let fs = self.fusion;
        let _ = writeln!(
            out,
            "; fused macro-ops: {} cmp+branch, {} load+op, {} indvar-step, {} paired, {} tripled",
            fs.cmp_branch, fs.load_op, fs.indvar, fs.pair, fs.triple
        );
        let _ = writeln!(out, "; timing model: {}", self.timing.label());
        for (fi, f) in self.functions.iter().enumerate() {
            let _ = writeln!(
                out,
                "\nfn {} (#{fi}) — params {}, slots {}, {} inst / {} op",
                f.name,
                f.params.len(),
                f.num_slots,
                f.code.len(),
                f.ops.len(),
            );
            if !self.threaded {
                // No threaded stream was built; dump the enum stream directly.
                for (pc, inst) in f.code.iter().enumerate() {
                    let block = f
                        .block_offsets
                        .iter()
                        .position(|&o| o as usize == pc)
                        .map(|b| format!("b{b}:"))
                        .unwrap_or_default();
                    // Under the pipelined model the baked charge doubles as
                    // the op's result latency; name its latency class so the
                    // stall attribution in `SimStats` can be traced per op.
                    let lat = if self.timing == TimingKind::InOrder {
                        pinst_lat_class(inst)
                            .map(|c| format!(" ; lat {}", c.label()))
                            .unwrap_or_default()
                    } else {
                        String::new()
                    };
                    let _ = writeln!(
                        out,
                        "  {block:>5} @{pc:<4} {:<60} ; cycles {}{lat}",
                        pinst_text(inst),
                        pinst_cost_text(inst, &self.cost)
                    );
                }
                continue;
            }
            for (pi, meta) in f.meta.iter().enumerate() {
                let enum_pc = meta.enum_pc as usize;
                // Block label + region charge when an op starts a region.
                if let Some(b) = f.block_offsets.iter().position(|&o| o as usize == enum_pc) {
                    let t = &f.targets[b];
                    let _ = writeln!(
                        out,
                        "  b{b}: (entry charge {} inst, prepaid {} cycles)",
                        t.charge, t.stat.cycles
                    );
                } else if let Some(t) = f
                    .targets
                    .iter()
                    .skip(f.block_offsets.len())
                    .find(|t| t.ops_pc as usize == pi)
                {
                    let _ = writeln!(
                        out,
                        "  .after-call: (entry charge {} inst, prepaid {} cycles)",
                        t.charge, t.stat.cycles
                    );
                }
                let span = if meta.len > 1 {
                    format!("@{enum_pc}..{}", enum_pc + meta.len as usize)
                } else {
                    format!("@{enum_pc}")
                };
                // A `+` (pair) or `*` (triple) after the record index marks
                // a weld opener: its handler also executes the next one or
                // two records printed below it.
                let pm = match meta.welded {
                    2 => "+",
                    3 => "*",
                    _ => " ",
                };
                match meta.fused {
                    FuseKind::None => {
                        let inst = &f.code[enum_pc];
                        let _ = writeln!(
                            out,
                            "  {pi:>4}{pm}{span:<9} {:<58} ; cycles {}",
                            pinst_text(inst),
                            pinst_cost_text(inst, &self.cost)
                        );
                    }
                    kind => {
                        let parts: Vec<String> = f.code[enum_pc..enum_pc + meta.len as usize]
                            .iter()
                            .map(pinst_text)
                            .collect();
                        let costs: Vec<String> = f.code[enum_pc..enum_pc + meta.len as usize]
                            .iter()
                            .map(|i| pinst_cost_text(i, &self.cost))
                            .collect();
                        let _ = writeln!(
                            out,
                            "  {pi:>4}{pm}{span:<9} fuse.{} {{ {} }} ; cycles {} ; fuel {}",
                            kind.label(),
                            parts.join(" ; "),
                            costs.join(" + "),
                            meta.len
                        );
                    }
                }
            }
        }
        out
    }
}

/// Copy `args` into the register files named by the function's parameters.
fn write_params(
    f: &PreparedFunction,
    frame: &mut Frame,
    args: &[MachineValue],
) -> Result<(), SimError> {
    for (&(class, idx), value) in f.params.iter().zip(args) {
        match (class, value) {
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

/// Compact one-line rendering of a pre-decoded instruction.
fn pinst_text(inst: &PInst) -> String {
    match inst {
        PInst::Call(c) => format!(
            "Call {{ callee: #{}, args: {:?}, ret: {:?} }}",
            c.callee, c.args, c.ret
        ),
        other => format!("{other:?}"),
    }
}

/// The cycle charge of one pre-decoded instruction as text (`taken/not`
/// for conditional branches, whose charge depends on the outcome).
fn pinst_cost_text(inst: &PInst, cost: &CostModel) -> String {
    match inst {
        PInst::Imm { .. }
        | PInst::FImm { .. }
        | PInst::MovInt { .. }
        | PInst::MovFloat { .. }
        | PInst::MovVec { .. }
        | PInst::SelectInt { .. }
        | PInst::SelectFloat { .. }
        | PInst::SelectVec { .. }
        | PInst::Ret { .. } => cost.mov.to_string(),
        PInst::IntOp { cost, .. } | PInst::FloatOp { cost, .. } => cost.to_string(),
        PInst::IntNeg { .. }
        | PInst::IntNot { .. }
        | PInst::IntCmp { .. }
        | PInst::IntResize { .. } => cost.int_op.to_string(),
        PInst::FloatNeg { .. } | PInst::FloatCmp { .. } => cost.fp_add.to_string(),
        PInst::IntToFloat { .. } | PInst::FloatToInt { .. } | PInst::FloatCvt { .. } => {
            cost.convert.to_string()
        }
        PInst::LoadInt { .. } | PInst::LoadFloat { .. } => cost.load.to_string(),
        PInst::StoreInt { .. } | PInst::StoreFloat { .. } => cost.store.to_string(),
        PInst::VecLoad { .. } => cost.vec_load.to_string(),
        PInst::VecStore { .. } => cost.vec_store.to_string(),
        PInst::VecSplatInt { .. }
        | PInst::VecSplatFloat { .. }
        | PInst::VecIntOp { .. }
        | PInst::VecFloatOp { .. } => cost.vec_op.to_string(),
        PInst::VecReduceInt { .. } | PInst::VecReduceFloat { .. } => cost.vec_reduce.to_string(),
        PInst::SpillInt { .. } | PInst::SpillFloat { .. } | PInst::SpillVec { .. } => {
            cost.spill_store.to_string()
        }
        PInst::Reload { .. } => cost.spill_load.to_string(),
        PInst::Jump { .. } => cost.branch_taken.to_string(),
        PInst::BranchNz { .. } => {
            format!("{}/{}", cost.branch_taken, cost.branch_not_taken)
        }
        PInst::Call(_) => cost.call.to_string(),
        PInst::CallUnknown { .. } | PInst::FellOff { .. } => "0 (trap)".to_string(),
    }
}

/// The latency class of one pre-decoded instruction under the pipelined
/// timing model, or `None` for instructions priced by control-flow hooks
/// (branches, jumps, calls) or synthetic traps.
fn pinst_lat_class(inst: &PInst) -> Option<LatClass> {
    Some(match inst {
        PInst::Imm { .. }
        | PInst::FImm { .. }
        | PInst::MovInt { .. }
        | PInst::MovFloat { .. }
        | PInst::MovVec { .. }
        | PInst::SelectInt { .. }
        | PInst::SelectFloat { .. }
        | PInst::SelectVec { .. }
        | PInst::Ret { .. } => LatClass::Mov,
        PInst::IntOp { op, .. } => match op {
            AluOp::Mul => LatClass::Mul,
            AluOp::Div | AluOp::Rem => LatClass::Div,
            _ => LatClass::Alu,
        },
        PInst::FloatOp { op, .. } => match op {
            FpuOp::Mul => LatClass::FpMul,
            FpuOp::Div => LatClass::FpDiv,
            _ => LatClass::FpAdd,
        },
        PInst::IntNeg { .. }
        | PInst::IntNot { .. }
        | PInst::IntCmp { .. }
        | PInst::IntResize { .. } => LatClass::Alu,
        PInst::FloatNeg { .. } | PInst::FloatCmp { .. } => LatClass::FpAdd,
        PInst::IntToFloat { .. } | PInst::FloatToInt { .. } | PInst::FloatCvt { .. } => {
            LatClass::Convert
        }
        PInst::LoadInt { .. } | PInst::LoadFloat { .. } => LatClass::Load,
        PInst::StoreInt { .. } | PInst::StoreFloat { .. } => LatClass::Store,
        PInst::VecLoad { .. } => LatClass::VecLoad,
        PInst::VecStore { .. } => LatClass::VecStore,
        PInst::VecSplatInt { .. }
        | PInst::VecSplatFloat { .. }
        | PInst::VecIntOp { .. }
        | PInst::VecFloatOp { .. } => LatClass::Vec,
        PInst::VecReduceInt { .. } | PInst::VecReduceFloat { .. } => LatClass::VecReduce,
        PInst::SpillInt { .. } | PInst::SpillFloat { .. } | PInst::SpillVec { .. } => {
            LatClass::SpillStore
        }
        PInst::Reload { .. } => LatClass::SpillReload,
        PInst::Jump { .. }
        | PInst::BranchNz { .. }
        | PInst::Call(_)
        | PInst::CallUnknown { .. }
        | PInst::FellOff { .. } => return None,
    })
}

/// Register-file shape of the target a program is being prepared for.
struct Layout {
    int_regs: usize,
    float_regs: usize,
    vec_regs: usize,
    vector_bytes: usize,
}

impl Layout {
    /// Validate `r` against its class's register file; returns the direct
    /// frame index (a byte offset for vector registers).
    fn resolve(&self, r: PReg, fname: &str) -> Result<u32, SimError> {
        let idx = usize::from(r.index);
        let ok = match r.class {
            RegClass::Int => idx < self.int_regs,
            RegClass::Float => idx < self.float_regs,
            RegClass::Vec => idx < self.vec_regs,
        };
        if !ok {
            return Err(SimError::BadRegister {
                reg: r.to_string(),
                function: fname.to_owned(),
            });
        }
        Ok(match r.class {
            RegClass::Vec => (idx * self.vector_bytes) as u32,
            _ => idx as u32,
        })
    }

    /// Resolve `r` as `(class, index)` for class-dispatched instructions.
    fn resolve_ref(&self, r: PReg, fname: &str) -> Result<RRef, SimError> {
        Ok((r.class, self.resolve(r, fname)? as usize))
    }
}

#[allow(clippy::too_many_lines)]
fn prepare_function(
    f: &MFunction,
    target: &TargetDesc,
    layout: &Layout,
    by_name: &HashMap<String, usize>,
) -> Result<PreparedFunction, SimError> {
    let fname = &f.name;
    // Pass 1: instruction offset of every block in the flat stream (blocks
    // that do not end in a terminator get a synthetic trap appended).
    let mut offsets = Vec::with_capacity(f.blocks.len());
    let mut len = 0u32;
    for b in &f.blocks {
        offsets.push(len);
        len += b.insts.len() as u32;
        if !b.insts.last().is_some_and(MInst::is_terminator) {
            len += 1;
        }
    }
    let block_offset = |target_block: u32| -> Result<u32, SimError> {
        offsets.get(target_block as usize).copied().ok_or_else(|| {
            SimError::Trap(format!("jump to invalid block {target_block} in {fname}"))
        })
    };
    let require_simd = || -> Result<(), SimError> {
        if target.has_simd() {
            Ok(())
        } else {
            Err(SimError::NoVectorUnit {
                function: fname.clone(),
            })
        }
    };
    let lanes_for = |elem: Width| (target.vector_bytes() / elem.bytes()) as u32;

    let mut params = Vec::with_capacity(f.params.len());
    for p in &f.params {
        params.push(layout.resolve_ref(*p, fname)?);
    }

    // Pass 2: pre-decode every instruction.
    let mut code = Vec::with_capacity(len as usize);
    for (bi, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            let p = match inst {
                MInst::Imm { dst, value } => PInst::Imm {
                    dst: layout.resolve(*dst, fname)?,
                    value: *value,
                },
                MInst::FImm { dst, value } => PInst::FImm {
                    dst: layout.resolve(*dst, fname)?,
                    value: *value,
                },
                MInst::Mov { dst, src } => {
                    let d = layout.resolve(*dst, fname)?;
                    let s = layout.resolve(*src, fname)?;
                    match dst.class {
                        RegClass::Int => PInst::MovInt { dst: d, src: s },
                        RegClass::Float => PInst::MovFloat { dst: d, src: s },
                        RegClass::Vec => PInst::MovVec { dst: d, src: s },
                    }
                }
                MInst::IntOp {
                    op,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => PInst::IntOp {
                    op: *op,
                    width: *width,
                    signed: *signed,
                    dst: layout.resolve(*dst, fname)?,
                    lhs: layout.resolve(*lhs, fname)?,
                    rhs: layout.resolve(*rhs, fname)?,
                    cost: match op {
                        AluOp::Mul => target.cost.int_mul,
                        AluOp::Div | AluOp::Rem => target.cost.int_div,
                        _ => target.cost.int_op,
                    },
                },
                MInst::FloatOp {
                    op,
                    double,
                    dst,
                    lhs,
                    rhs,
                } => PInst::FloatOp {
                    op: *op,
                    double: *double,
                    dst: layout.resolve(*dst, fname)?,
                    lhs: layout.resolve(*lhs, fname)?,
                    rhs: layout.resolve(*rhs, fname)?,
                    cost: match op {
                        FpuOp::Mul => target.cost.fp_mul,
                        FpuOp::Div => target.cost.fp_div,
                        _ => target.cost.fp_add,
                    },
                },
                MInst::IntNeg { width, dst, src } => PInst::IntNeg {
                    width: *width,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::IntNot { width, dst, src } => PInst::IntNot {
                    width: *width,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::FloatNeg { double, dst, src } => PInst::FloatNeg {
                    double: *double,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::IntCmp {
                    pred,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => PInst::IntCmp {
                    pred: *pred,
                    width: *width,
                    signed: *signed,
                    dst: layout.resolve(*dst, fname)?,
                    lhs: layout.resolve(*lhs, fname)?,
                    rhs: layout.resolve(*rhs, fname)?,
                },
                MInst::FloatCmp {
                    pred,
                    double,
                    dst,
                    lhs,
                    rhs,
                } => PInst::FloatCmp {
                    pred: *pred,
                    double: *double,
                    dst: layout.resolve(*dst, fname)?,
                    lhs: layout.resolve(*lhs, fname)?,
                    rhs: layout.resolve(*rhs, fname)?,
                },
                MInst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let d = layout.resolve(*dst, fname)?;
                    let c = layout.resolve(*cond, fname)?;
                    let t = layout.resolve(*if_true, fname)?;
                    let e = layout.resolve(*if_false, fname)?;
                    match dst.class {
                        RegClass::Int => PInst::SelectInt {
                            dst: d,
                            cond: c,
                            if_true: t,
                            if_false: e,
                        },
                        RegClass::Float => PInst::SelectFloat {
                            dst: d,
                            cond: c,
                            if_true: t,
                            if_false: e,
                        },
                        RegClass::Vec => PInst::SelectVec {
                            dst: d,
                            cond: c,
                            if_true: t,
                            if_false: e,
                        },
                    }
                }
                MInst::IntToFloat {
                    signed,
                    double,
                    dst,
                    src,
                } => PInst::IntToFloat {
                    signed: *signed,
                    double: *double,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::FloatToInt {
                    width,
                    signed,
                    dst,
                    src,
                } => PInst::FloatToInt {
                    width: *width,
                    signed: *signed,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::FloatCvt {
                    to_double,
                    dst,
                    src,
                } => PInst::FloatCvt {
                    to_double: *to_double,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::IntResize {
                    width,
                    signed,
                    dst,
                    src,
                } => PInst::IntResize {
                    width: *width,
                    signed: *signed,
                    dst: layout.resolve(*dst, fname)?,
                    src: layout.resolve(*src, fname)?,
                },
                MInst::Load {
                    width,
                    float,
                    signed,
                    dst,
                    base,
                    offset,
                } => {
                    let d = layout.resolve(*dst, fname)?;
                    let b = layout.resolve(*base, fname)?;
                    if *float {
                        PInst::LoadFloat {
                            width: *width,
                            dst: d,
                            base: b,
                            offset: *offset,
                        }
                    } else {
                        PInst::LoadInt {
                            width: *width,
                            signed: *signed,
                            dst: d,
                            base: b,
                            offset: *offset,
                        }
                    }
                }
                MInst::Store {
                    width,
                    float,
                    base,
                    offset,
                    src,
                } => {
                    let b = layout.resolve(*base, fname)?;
                    let s = layout.resolve(*src, fname)?;
                    if *float {
                        PInst::StoreFloat {
                            width: *width,
                            base: b,
                            offset: *offset,
                            src: s,
                        }
                    } else {
                        PInst::StoreInt {
                            width: *width,
                            base: b,
                            offset: *offset,
                            src: s,
                        }
                    }
                }
                MInst::VecLoad { dst, base, offset } => {
                    require_simd()?;
                    PInst::VecLoad {
                        dst: layout.resolve(*dst, fname)?,
                        base: layout.resolve(*base, fname)?,
                        offset: *offset,
                    }
                }
                MInst::VecStore { base, offset, src } => {
                    require_simd()?;
                    PInst::VecStore {
                        base: layout.resolve(*base, fname)?,
                        offset: *offset,
                        src: layout.resolve(*src, fname)?,
                    }
                }
                MInst::VecSplatInt { elem, dst, src } => {
                    require_simd()?;
                    PInst::VecSplatInt {
                        elem: *elem,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        src: layout.resolve(*src, fname)?,
                    }
                }
                MInst::VecSplatFloat { elem, dst, src } => {
                    require_simd()?;
                    PInst::VecSplatFloat {
                        elem: *elem,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        src: layout.resolve(*src, fname)?,
                    }
                }
                MInst::VecIntOp {
                    op,
                    elem,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => {
                    require_simd()?;
                    PInst::VecIntOp {
                        op: *op,
                        elem: *elem,
                        signed: *signed,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        lhs: layout.resolve(*lhs, fname)?,
                        rhs: layout.resolve(*rhs, fname)?,
                    }
                }
                MInst::VecFloatOp {
                    op,
                    elem,
                    dst,
                    lhs,
                    rhs,
                } => {
                    require_simd()?;
                    PInst::VecFloatOp {
                        op: *op,
                        elem: *elem,
                        double: *elem == Width::W64,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        lhs: layout.resolve(*lhs, fname)?,
                        rhs: layout.resolve(*rhs, fname)?,
                    }
                }
                MInst::VecReduceInt {
                    op,
                    elem,
                    signed,
                    dst,
                    src,
                } => {
                    require_simd()?;
                    PInst::VecReduceInt {
                        op: *op,
                        elem: *elem,
                        signed: *signed,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        src: layout.resolve(*src, fname)?,
                    }
                }
                MInst::VecReduceFloat { op, elem, dst, src } => {
                    require_simd()?;
                    PInst::VecReduceFloat {
                        op: *op,
                        elem: *elem,
                        lanes: lanes_for(*elem),
                        dst: layout.resolve(*dst, fname)?,
                        src: layout.resolve(*src, fname)?,
                    }
                }
                MInst::Spill { slot, src } => {
                    let s = layout.resolve(*src, fname)?;
                    let slot = *slot;
                    match src.class {
                        RegClass::Int => PInst::SpillInt { slot, src: s },
                        RegClass::Float => PInst::SpillFloat { slot, src: s },
                        RegClass::Vec => PInst::SpillVec { slot, src: s },
                    }
                }
                MInst::Reload { slot, dst } => PInst::Reload {
                    slot: *slot,
                    class: dst.class,
                    dst: layout.resolve(*dst, fname)?,
                },
                MInst::Jump { target } => PInst::Jump {
                    target: block_offset(*target)?,
                },
                MInst::BranchNz {
                    cond,
                    then_target,
                    else_target,
                } => PInst::BranchNz {
                    cond: layout.resolve(*cond, fname)?,
                    then_target: block_offset(*then_target)?,
                    else_target: block_offset(*else_target)?,
                },
                MInst::Call { callee, args, ret } => {
                    let mut resolved = Vec::with_capacity(args.len());
                    for a in args {
                        resolved.push(layout.resolve_ref(*a, fname)?);
                    }
                    let ret = match ret {
                        Some(r) => Some(layout.resolve_ref(*r, fname)?),
                        None => None,
                    };
                    match by_name.get(callee) {
                        Some(&index) => PInst::Call(Box::new(PCall {
                            callee: index,
                            args: resolved.into_boxed_slice(),
                            ret,
                        })),
                        None => PInst::CallUnknown {
                            name: callee.clone().into_boxed_str(),
                        },
                    }
                }
                MInst::Ret { value } => PInst::Ret {
                    value: match value {
                        Some(r) => Some(layout.resolve_ref(*r, fname)?),
                        None => None,
                    },
                },
            };
            code.push(p);
        }
        if !b.insts.last().is_some_and(MInst::is_terminator) {
            code.push(PInst::FellOff { block: bi as u32 });
        }
    }
    if f.blocks.is_empty() {
        code.push(PInst::FellOff { block: 0 });
        offsets.push(0);
    }
    Ok(PreparedFunction {
        name: f.name.clone(),
        params: params.into_boxed_slice(),
        num_slots: f.num_slots as usize,
        code,
        block_offsets: offsets,
        ops: Vec::new(),
        fixup: Vec::new(),
        meta: Vec::new(),
        targets: Vec::new(),
        calls: Vec::new(),
    })
}

/// A reusable executor over one [`PreparedProgram`]: owns a [`FramePool`] and
/// the fuel/stats bookkeeping, mirroring the [`Simulator`](crate::Simulator)
/// API for code that runs the same prepared program many times.
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

    /// Statistics from the most recent [`PreparedSimulator::run`] /
    /// [`PreparedSimulator::run_metered`].
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

    /// Execute `func` on the metered per-instruction stream (the reference
    /// loop the threaded path is differenced against).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedProgram::run`].
    pub fn run_metered(
        &mut self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
    ) -> Result<Option<MachineValue>, SimError> {
        self.program
            .run_metered(func, args, mem, &mut self.pool, self.fuel, &mut self.stats)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcode::{MBlock, MProgram};

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
                    MInst::Call {
                        callee: "sq".into(),
                        args: vec![PReg::float(0)],
                        ret: Some(PReg::float(1)),
                    },
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
    fn hostile_addresses_trap_identically_on_both_execution_paths() {
        // Negative bases, i64::MAX + positive offset (wraps negative) and a
        // vector access straddling the end of memory must all surface as
        // `SimError::Trap` — never a slice panic — and the prepared path must
        // agree with the legacy walk on each.
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
        for (program, func) in [(&scalar, "peek"), (&vector, "vpeek")] {
            let prepared = PreparedProgram::prepare(program, &target).unwrap();
            for base in bases {
                let mut mem = vec![0u8; mem_size];
                let mut legacy = crate::Simulator::new(program, &target);
                let legacy_err = legacy
                    .run_legacy(func, &[MachineValue::Int(base)], &mut mem)
                    .unwrap_err();
                assert!(
                    matches!(legacy_err, SimError::Trap(_)),
                    "{func} base {base} (legacy): {legacy_err:?}"
                );
                let mut sim = PreparedSimulator::new(&prepared);
                let prepared_err = sim
                    .run(func, &[MachineValue::Int(base)], &mut mem)
                    .unwrap_err();
                assert_eq!(
                    prepared_err, legacy_err,
                    "{func} base {base}: paths disagree on the trap"
                );
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
        let mut legacy = crate::Simulator::new(&vector, &target);
        assert_eq!(
            legacy
                .run_legacy("vpeek", &[MachineValue::Int(base)], &mut mem)
                .unwrap_err(),
            err
        );
        // In-bounds accesses still succeed on both paths.
        let ok = sim
            .run("vpeek", &[MachineValue::Int(64)], &mut mem)
            .unwrap();
        assert_eq!(ok, None);
    }

    #[test]
    fn vector_lane_shifts_mask_counts_like_the_scalar_alu() {
        // AluOp::Shl/Shr through the SIMD lane path: counts splatted across
        // the lanes mask modulo 64 exactly like the scalar ALU, on both the
        // legacy walk and the prepared stream.
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
        for (count, expect) in [(1i64, 2i32), (33, 0), (65, 2), (-1, 0), (64, 1)] {
            let program = lanes_program(count);
            let prepared = PreparedProgram::prepare(&program, &target).unwrap();
            let mut mem = vec![0u8; 64];
            for lane in 0..4 {
                mem[16 + lane * 4..16 + lane * 4 + 4].copy_from_slice(&1i32.to_le_bytes());
            }
            let mut legacy_mem = mem.clone();
            let mut sim = PreparedSimulator::new(&prepared);
            sim.run("vshift", &[MachineValue::Int(16)], &mut mem)
                .unwrap();
            let mut legacy = crate::Simulator::new(&program, &target);
            legacy
                .run_legacy("vshift", &[MachineValue::Int(16)], &mut legacy_mem)
                .unwrap();
            assert_eq!(mem, legacy_mem, "count {count}");
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
    }

    #[test]
    fn unterminated_blocks_trap_like_the_legacy_walk() {
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
        let prepared = PreparedProgram::prepare(&p, &TargetDesc::powerpc()).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 16];
        let err = sim.run("f", &[], &mut mem).unwrap_err();
        assert_eq!(
            err,
            SimError::Trap("fell off the end of block 0 in f".into())
        );
    }

    /// A counting loop whose back edge is the exact 4-instruction
    /// induction-variable shape the lowering emits (`add tmp,i,s ; mov i,tmp
    /// ; cmp t,i,n ; bnz t`), with a body op so fused and unfused streams
    /// differ in record count but must not differ in anything observable.
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
        // Backstop for the compile-time asserts: both per-op representations
        // must stay at two records per 64-byte cache line.
        assert!(
            std::mem::size_of::<PInst>() <= 32,
            "PInst grew past 32 bytes"
        );
        assert!(
            std::mem::size_of::<OpRecord>() <= 32,
            "OpRecord grew past 32 bytes"
        );
    }

    #[test]
    fn fusion_is_toggleable_and_bit_identical_on_the_indvar_loop() {
        let p = counting_loop();
        let target = TargetDesc::x86_sse();
        let fused = PreparedProgram::prepare_with(&p, &target, true).unwrap();
        let unfused = PreparedProgram::prepare_with(&p, &target, false).unwrap();
        assert!(fused.fused() && !unfused.fused());
        assert_eq!(fused.fusion_stats().indvar, 1, "back edge must fuse");
        assert_eq!(unfused.fusion_stats().total(), 0);
        // Fewer records with fusion on, same enum stream either way.
        assert!(fused.functions[0].ops.len() < unfused.functions[0].ops.len());
        assert_eq!(fused.functions[0].code, unfused.functions[0].code);

        let args = [MachineValue::Int(10)];
        let mut outs = Vec::new();
        for prog in [&fused, &unfused] {
            let mut mem = vec![0u8; 32];
            let mut sim = PreparedSimulator::new(prog);
            let out = sim.run("count", &args, &mut mem).unwrap();
            outs.push((out, sim.stats()));
            let out = sim.run_metered("count", &args, &mut mem).unwrap();
            outs.push((out, sim.stats()));
        }
        // 0+1+...+9 = 45; all four paths agree on result and full stats.
        assert_eq!(outs[0].0, Some(MachineValue::Int(45)));
        assert!(outs.iter().all(|o| o == &outs[0]), "{outs:?}");
    }

    #[test]
    fn fuel_exhaustion_is_identical_across_fused_unfused_and_metered() {
        // Satellite bugfix pin: `OutOfFuel` must trigger at the identical
        // retired-instruction count whether the back edge runs as one fused
        // record or four metered instructions — i.e. for every fuel value
        // from 0 to "just enough", including ones that land *inside* the
        // fused span, all paths agree on outcome and full stats.
        let p = counting_loop();
        let target = TargetDesc::x86_sse();
        let fused = PreparedProgram::prepare_with(&p, &target, true).unwrap();
        let unfused = PreparedProgram::prepare_with(&p, &target, false).unwrap();
        let args = [MachineValue::Int(4)];

        let total = {
            let mut mem = vec![0u8; 32];
            let mut sim = PreparedSimulator::new(&fused);
            sim.run("count", &args, &mut mem).unwrap();
            sim.stats().instructions
        };
        assert!(total > 8, "loop must straddle several fused back edges");

        for fuel in 0..=total + 1 {
            let mut results = Vec::new();
            for prog in [&fused, &unfused] {
                for metered in [false, true] {
                    let mut mem = vec![0u8; 32];
                    let mut sim = PreparedSimulator::new(prog).with_fuel(fuel);
                    let out = if metered {
                        sim.run_metered("count", &args, &mut mem)
                    } else {
                        sim.run("count", &args, &mut mem)
                    };
                    results.push((out, sim.stats()));
                }
            }
            assert!(
                results.iter().all(|r| r == &results[0]),
                "fuel {fuel}: paths diverged: {results:?}"
            );
            let (out, stats) = &results[0];
            if fuel >= total {
                assert!(out.is_ok(), "fuel {fuel}");
            } else {
                assert_eq!(out, &Err(SimError::OutOfFuel), "fuel {fuel}");
                // Exactly `fuel` source instructions retired before running dry.
                assert_eq!(stats.instructions, fuel, "fuel {fuel}");
            }
        }
    }

    #[test]
    fn disasm_renders_fused_spans_and_region_charges() {
        let p = counting_loop();
        let target = TargetDesc::x86_sse();
        let fused = PreparedProgram::prepare_with(&p, &target, true).unwrap();
        let text = fused.disasm();
        assert!(text.contains("dispatch: threaded"), "{text}");
        assert!(text.contains("fuse.indvar4"), "{text}");
        assert!(text.contains("entry charge"), "{text}");
        let unfused = PreparedProgram::prepare_with(&p, &target, false).unwrap();
        assert!(
            !unfused.disasm().contains("fuse."),
            "no fused spans expected"
        );
    }
}
