//! Cycle-cost simulator for the virtual ISA.
//!
//! The simulator stands in for the real x86/UltraSparc/PowerPC/ARM/Cell
//! hardware of the paper: it executes machine code produced by the online
//! compiler against a flat byte memory and charges each instruction the cost
//! given by the target's [`CostModel`](crate::CostModel). Functional results
//! must match the bytecode reference interpreter (this is checked by the
//! cross-crate differential tests); cycle counts are what the experiments
//! report.

use crate::desc::TargetDesc;
use crate::mcode::{
    AluOp, CmpPred, FpuOp, MFunction, MInst, MProgram, PReg, RedOp, RegClass, Width,
};
use crate::timing::{FlatCost, InOrderPipeline, LatClass, TimingKind, TimingModel, NO_REG};
use std::error::Error;
use std::fmt;

/// Default instruction budget before a run is aborted as runaway.
pub const DEFAULT_SIM_FUEL: u64 = 1_000_000_000;

/// Maximum call depth.
pub const MAX_CALL_DEPTH: usize = 256;

/// A scalar value passed to or returned from a simulated function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachineValue {
    /// Integer (or pointer) value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

impl MachineValue {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float.
    pub fn as_int(self) -> i64 {
        match self {
            MachineValue::Int(v) => v,
            MachineValue::Float(v) => panic!("expected integer, found float {v}"),
        }
    }

    /// The floating-point payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_float(self) -> f64 {
        match self {
            MachineValue::Float(v) => v,
            MachineValue::Int(v) => panic!("expected float, found integer {v}"),
        }
    }
}

/// An error raised during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The entry function does not exist.
    UnknownFunction(String),
    /// Wrong number of arguments for the entry function.
    BadArgumentCount {
        /// Expected parameter count.
        expected: usize,
        /// Supplied argument count.
        found: usize,
    },
    /// A register index exceeds the target's register file.
    BadRegister {
        /// The offending register.
        reg: String,
        /// The function being executed.
        function: String,
    },
    /// A vector instruction was executed on a target without a SIMD unit.
    NoVectorUnit {
        /// The function being executed.
        function: String,
    },
    /// Runtime fault (out-of-bounds access, division by zero, bad slot, ...).
    Trap(String),
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// Execution was cancelled cooperatively: the caller set a deadline on
    /// the run's `FramePool` and it passed (the serving tier sets each
    /// request's deadline this way). Unlike a trap this says nothing about
    /// the program — the same run without a deadline may have completed
    /// normally.
    Cancelled,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            SimError::BadArgumentCount { expected, found } => {
                write!(f, "expected {expected} arguments, found {found}")
            }
            SimError::BadRegister { reg, function } => {
                write!(f, "register {reg} out of range in {function}")
            }
            SimError::NoVectorUnit { function } => {
                write!(
                    f,
                    "vector instruction on a scalar-only target in {function}"
                )
            }
            SimError::Trap(msg) => write!(f, "trap: {msg}"),
            SimError::OutOfFuel => write!(f, "instruction budget exhausted"),
            SimError::Cancelled => write!(f, "execution cancelled"),
        }
    }
}

impl Error for SimError {}

/// Execution statistics of one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cost-model cycles.
    pub cycles: u64,
    /// Machine instructions executed.
    pub instructions: u64,
    /// Scalar and vector loads executed.
    pub loads: u64,
    /// Scalar and vector stores executed.
    pub stores: u64,
    /// Spill stores executed.
    pub spill_stores: u64,
    /// Spill reloads executed.
    pub spill_reloads: u64,
    /// Branches executed (conditional and unconditional).
    pub branches: u64,
    /// Vector instructions executed.
    pub vector_ops: u64,
    /// Pipeline hazard stall cycles (RAW + structural). Timing-class: always
    /// zero under the flat model, so whole-struct equality against flat
    /// references still pins the historical accounting.
    pub stalls: u64,
    /// Mispredicted conditional branches (timing-class; zero under flat).
    pub mispredicts: u64,
    /// Correctly predicted branches, including statically-predicted
    /// unconditional jumps (timing-class; zero under flat). Under the
    /// in-order model `predicted + mispredicts == branches`.
    pub predicted: u64,
}

/// Scoreboard key of a register for the timing model: `(index << 1) | float`.
/// Vector registers are not scoreboarded (see
/// [`InOrderPipeline`](crate::timing::InOrderPipeline)).
fn tkey(r: PReg) -> u32 {
    match r.class {
        RegClass::Int => u32::from(r.index) << 1,
        RegClass::Float => (u32::from(r.index) << 1) | 1,
        RegClass::Vec => NO_REG,
    }
}

#[derive(Debug, Clone, PartialEq)]
enum SlotValue {
    Empty,
    Int(i64),
    Float(f64),
    Vec(Vec<u8>),
}

struct Frame {
    int: Vec<i64>,
    float: Vec<f64>,
    vec: Vec<Vec<u8>>,
    slots: Vec<SlotValue>,
}

pub(crate) fn normalize(width: Width, signed: bool, v: i64) -> i64 {
    match (width, signed) {
        (Width::W8, true) => v as i8 as i64,
        (Width::W8, false) => i64::from(v as u8),
        (Width::W16, true) => v as i16 as i64,
        (Width::W16, false) => i64::from(v as u16),
        (Width::W32, true) => v as i32 as i64,
        (Width::W32, false) => i64::from(v as u32),
        (Width::W64, _) => v,
    }
}

/// Cold, out of line: keeps the `String` construction out of every ALU
/// handler's frame.
#[cold]
#[inline(never)]
fn zero_denominator(what: &str) -> SimError {
    SimError::Trap(format!("integer {what} by zero"))
}

pub(crate) fn alu(op: AluOp, width: Width, signed: bool, a: i64, b: i64) -> Result<i64, SimError> {
    let r = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                return Err(zero_denominator("division"));
            }
            if signed {
                a.wrapping_div(b)
            } else {
                ((a as u64) / (b as u64)) as i64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                return Err(zero_denominator("remainder"));
            }
            if signed {
                a.wrapping_rem(b)
            } else {
                ((a as u64) % (b as u64)) as i64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        // Counts mask modulo 64 — `b as u32` then `wrapping_shl`'s `& 63` —
        // mirroring the bytecode interpreter's `eval_bin` exactly (negative
        // and >= 64 counts reduce to `b & 63`, results then normalize to the
        // instruction width below).
        AluOp::Shl => a.wrapping_shl(b as u32),
        AluOp::Shr => {
            if signed {
                a.wrapping_shr(b as u32)
            } else {
                ((a as u64).wrapping_shr(b as u32)) as i64
            }
        }
        AluOp::Min => {
            if signed {
                a.min(b)
            } else {
                ((a as u64).min(b as u64)) as i64
            }
        }
        AluOp::Max => {
            if signed {
                a.max(b)
            } else {
                ((a as u64).max(b as u64)) as i64
            }
        }
    };
    Ok(normalize(width, signed, r))
}

pub(crate) fn fpu(op: FpuOp, double: bool, a: f64, b: f64) -> f64 {
    let r = match op {
        FpuOp::Add => a + b,
        FpuOp::Sub => a - b,
        FpuOp::Mul => a * b,
        FpuOp::Div => a / b,
        FpuOp::Min => a.min(b),
        FpuOp::Max => a.max(b),
    };
    if double {
        r
    } else {
        f64::from(r as f32)
    }
}

pub(crate) fn compare<T: PartialOrd>(pred: CmpPred, a: T, b: T) -> i64 {
    let r = match pred {
        CmpPred::Eq => a == b,
        CmpPred::Ne => a != b,
        CmpPred::Lt => a < b,
        CmpPred::Le => a <= b,
        CmpPred::Gt => a > b,
        CmpPred::Ge => a >= b,
    };
    i64::from(r)
}

/// The reference cycle-cost simulator for one target: the original
/// block-walking interpreter, which decodes every instruction as it goes.
///
/// Programs are *served* by the pre-decoded executor
/// ([`PreparedProgram`](crate::PreparedProgram), driven through
/// [`PreparedSimulator`](crate::PreparedSimulator)); this walk shares no
/// execution code with it and is the semantic reference the differential
/// tests compare the prepared path against, bit for bit.
///
/// # Examples
///
/// ```
/// use splitc_targets::{
///     MachineValue, MBlock, MFunction, MInst, MProgram, PReg, PreparedProgram,
///     PreparedSimulator, Simulator, TargetDesc, Width, AluOp,
/// };
///
/// // fn add1(r0) { r1 = 1; r0 = r0 + r1; return r0 }
/// let f = MFunction {
///     name: "add1".into(),
///     params: vec![PReg::int(0)],
///     blocks: vec![MBlock {
///         insts: vec![
///             MInst::Imm { dst: PReg::int(1), value: 1 },
///             MInst::IntOp {
///                 op: AluOp::Add, width: Width::W32, signed: true,
///                 dst: PReg::int(0), lhs: PReg::int(0), rhs: PReg::int(1),
///             },
///             MInst::Ret { value: Some(PReg::int(0)) },
///         ],
///     }],
///     num_slots: 0,
/// };
/// let program = MProgram { name: "demo".into(), functions: vec![f] };
/// let target = TargetDesc::x86_sse();
/// let prepared = PreparedProgram::prepare(&program, &target).unwrap();
/// let mut sim = PreparedSimulator::new(&prepared);
/// let mut mem = vec![0u8; 64];
/// let out = sim.run("add1", &[MachineValue::Int(41)], &mut mem).unwrap();
/// assert_eq!(out, Some(MachineValue::Int(42)));
/// assert!(sim.stats().cycles > 0);
///
/// // The reference walk agrees, result and statistics alike.
/// let mut reference = Simulator::new(&program, &target);
/// let same = reference.run_legacy("add1", &[MachineValue::Int(41)], &mut mem).unwrap();
/// assert_eq!((same, reference.stats()), (out, sim.stats()));
/// ```
#[derive(Debug)]
pub struct Simulator<'p> {
    program: &'p MProgram,
    target: &'p TargetDesc,
    fuel: u64,
    stats: SimStats,
}

impl<'p> Simulator<'p> {
    /// Create a simulator for `program` on `target`.
    pub fn new(program: &'p MProgram, target: &'p TargetDesc) -> Self {
        Simulator {
            program,
            target,
            fuel: DEFAULT_SIM_FUEL,
            stats: SimStats::default(),
        }
    }

    /// Override the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Statistics from the most recent [`Simulator::run_legacy`].
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Execute `func` with `args` against `mem` using the original
    /// block-walking interpreter (no preparation, per-instruction decode).
    ///
    /// This is the semantic reference: the differential suites assert the
    /// prepared path agrees with it bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on unknown functions, register-file violations,
    /// vector use on scalar-only targets, runtime traps or fuel exhaustion.
    pub fn run_legacy(
        &mut self,
        func: &str,
        args: &[MachineValue],
        mem: &mut [u8],
    ) -> Result<Option<MachineValue>, SimError> {
        self.stats = SimStats::default();
        let mut fuel = self.fuel;
        match self.target.timing {
            TimingKind::Flat => {
                let mut tm = FlatCost;
                let r = self.call(func, args, mem, &mut fuel, 0, &mut tm);
                tm.finish(&mut self.stats);
                r
            }
            TimingKind::InOrder => {
                let mut tm = InOrderPipeline::new(&self.target.cost);
                let r = self.call(func, args, mem, &mut fuel, 0, &mut tm);
                tm.finish(&mut self.stats);
                r
            }
        }
    }

    /// Lane count of `elem` on this target's vector unit, refusing (as
    /// `prepare` does) a scalar-only target or an element wider than the unit.
    fn lanes(&self, elem: Width, fname: &str) -> Result<usize, SimError> {
        self.require_simd(fname)?;
        lane_count(self.target.vector_bytes(), elem, fname)
    }

    fn new_frame(&self, f: &MFunction) -> Frame {
        Frame {
            int: vec![0; usize::from(self.target.int_regs)],
            float: vec![0.0; usize::from(self.target.float_regs)],
            // Scalar-only targets get an explicitly empty register file — no
            // per-call vector bookkeeping at all. (The prepared path goes
            // further and pools one flat buffer; see `exec::FramePool`.)
            vec: match self.target.vector {
                Some(v) => {
                    vec![vec![0u8; self.target.vector_bytes() as usize]; usize::from(v.regs)]
                }
                None => Vec::new(),
            },
            slots: vec![SlotValue::Empty; f.num_slots as usize],
        }
    }

    fn check_reg(&self, frame: &Frame, r: PReg, fname: &str) -> Result<(), SimError> {
        let ok = match r.class {
            RegClass::Int => usize::from(r.index) < frame.int.len(),
            RegClass::Float => usize::from(r.index) < frame.float.len(),
            RegClass::Vec => usize::from(r.index) < frame.vec.len(),
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::BadRegister {
                reg: r.to_string(),
                function: fname.to_owned(),
            })
        }
    }

    #[allow(clippy::too_many_lines)]
    fn call<T: TimingModel>(
        &mut self,
        name: &str,
        args: &[MachineValue],
        mem: &mut [u8],
        fuel: &mut u64,
        depth: usize,
        tm: &mut T,
    ) -> Result<Option<MachineValue>, SimError> {
        if depth > MAX_CALL_DEPTH {
            return Err(SimError::Trap("call depth exceeded".into()));
        }
        let f = self
            .program
            .function(name)
            .ok_or_else(|| SimError::UnknownFunction(name.to_owned()))?;
        crate::exec::check_frame_slots(f)?;
        if f.params.len() != args.len() {
            return Err(SimError::BadArgumentCount {
                expected: f.params.len(),
                found: args.len(),
            });
        }
        let mut frame = self.new_frame(f);
        for (preg, value) in f.params.iter().zip(args) {
            self.check_reg(&frame, *preg, &f.name)?;
            match (preg.class, value) {
                (RegClass::Int, MachineValue::Int(v)) => frame.int[usize::from(preg.index)] = *v,
                (RegClass::Float, MachineValue::Float(v)) => {
                    frame.float[usize::from(preg.index)] = *v;
                }
                (RegClass::Int, MachineValue::Float(v)) => {
                    frame.int[usize::from(preg.index)] = *v as i64;
                }
                (RegClass::Float, MachineValue::Int(v)) => {
                    frame.float[usize::from(preg.index)] = *v as f64;
                }
                (RegClass::Vec, _) => {
                    return Err(SimError::Trap(
                        "vector registers cannot be parameters".into(),
                    ));
                }
            }
        }

        let cost = &self.target.cost;
        // Offset of every block in the flat numbering the prepared stream
        // uses (an unterminated block holds one extra synthetic slot there):
        // branch-predictor site ids must agree across execution paths for
        // the timing-class counters to be comparable.
        let mut block_starts = Vec::with_capacity(f.blocks.len());
        let mut flat_len = 0u32;
        for b in &f.blocks {
            block_starts.push(flat_len);
            let terminated = b.insts.last().is_some_and(MInst::is_terminator);
            flat_len += b.insts.len() as u32 + u32::from(!terminated);
        }
        let mut block = 0usize;
        let mut index = 0usize;
        loop {
            if *fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            *fuel -= 1;
            let inst = f
                .blocks
                .get(block)
                .and_then(|b| b.insts.get(index))
                .ok_or_else(|| {
                    SimError::Trap(format!("fell off the end of block {block} in {name}"))
                })?
                .clone();
            index += 1;
            self.stats.instructions += 1;

            macro_rules! geti {
                ($r:expr) => {{
                    self.check_reg(&frame, $r, &f.name)?;
                    frame.int[usize::from($r.index)]
                }};
            }
            macro_rules! getf {
                ($r:expr) => {{
                    self.check_reg(&frame, $r, &f.name)?;
                    frame.float[usize::from($r.index)]
                }};
            }

            match inst {
                MInst::Imm { dst, value } => {
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = value;
                    tm.op(
                        &mut self.stats,
                        LatClass::Mov,
                        cost.mov,
                        tkey(dst),
                        NO_REG,
                        NO_REG,
                    );
                }
                MInst::FImm { dst, value } => {
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.float[usize::from(dst.index)] = value;
                    tm.op(
                        &mut self.stats,
                        LatClass::Mov,
                        cost.mov,
                        tkey(dst),
                        NO_REG,
                        NO_REG,
                    );
                }
                MInst::Mov { dst, src } => {
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, src, &f.name)?;
                    match dst.class {
                        RegClass::Int => {
                            frame.int[usize::from(dst.index)] = frame.int[usize::from(src.index)]
                        }
                        RegClass::Float => {
                            frame.float[usize::from(dst.index)] =
                                frame.float[usize::from(src.index)];
                        }
                        RegClass::Vec => {
                            let v = frame.vec[usize::from(src.index)].clone();
                            frame.vec[usize::from(dst.index)] = v;
                        }
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Mov,
                        cost.mov,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::IntOp {
                    op,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = geti!(lhs);
                    let b = geti!(rhs);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = alu(op, width, signed, a, b)?;
                    let (class, c) = match op {
                        AluOp::Mul => (LatClass::Mul, cost.int_mul),
                        AluOp::Div | AluOp::Rem => (LatClass::Div, cost.int_div),
                        _ => (LatClass::Alu, cost.int_op),
                    };
                    tm.op(&mut self.stats, class, c, tkey(dst), tkey(lhs), tkey(rhs));
                }
                MInst::FloatOp {
                    op,
                    double,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = getf!(lhs);
                    let b = getf!(rhs);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.float[usize::from(dst.index)] = fpu(op, double, a, b);
                    let (class, c) = match op {
                        FpuOp::Mul => (LatClass::FpMul, cost.fp_mul),
                        FpuOp::Div => (LatClass::FpDiv, cost.fp_div),
                        _ => (LatClass::FpAdd, cost.fp_add),
                    };
                    tm.op(&mut self.stats, class, c, tkey(dst), tkey(lhs), tkey(rhs));
                }
                MInst::IntNeg { width, dst, src } => {
                    let v = geti!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = normalize(width, true, v.wrapping_neg());
                    tm.op(
                        &mut self.stats,
                        LatClass::Alu,
                        cost.int_op,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::IntNot { width, dst, src } => {
                    let v = geti!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = normalize(width, false, !v);
                    tm.op(
                        &mut self.stats,
                        LatClass::Alu,
                        cost.int_op,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::FloatNeg { double, dst, src } => {
                    let v = getf!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.float[usize::from(dst.index)] =
                        if double { -v } else { f64::from(-(v as f32)) };
                    tm.op(
                        &mut self.stats,
                        LatClass::FpAdd,
                        cost.fp_add,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::IntCmp {
                    pred,
                    width,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = normalize(width, signed, geti!(lhs));
                    let b = normalize(width, signed, geti!(rhs));
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = if signed {
                        compare(pred, a, b)
                    } else {
                        compare(pred, a as u64, b as u64)
                    };
                    tm.op(
                        &mut self.stats,
                        LatClass::Alu,
                        cost.int_op,
                        tkey(dst),
                        tkey(lhs),
                        tkey(rhs),
                    );
                }
                MInst::FloatCmp {
                    pred,
                    double,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let a = getf!(lhs);
                    let b = getf!(rhs);
                    let (a, b) = if double {
                        (a, b)
                    } else {
                        (f64::from(a as f32), f64::from(b as f32))
                    };
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = if a.partial_cmp(&b).is_none() {
                        i64::from(pred == CmpPred::Ne)
                    } else {
                        compare(pred, a, b)
                    };
                    tm.op(
                        &mut self.stats,
                        LatClass::FpAdd,
                        cost.fp_add,
                        tkey(dst),
                        tkey(lhs),
                        tkey(rhs),
                    );
                }
                MInst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let c = geti!(cond) != 0;
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, if_true, &f.name)?;
                    self.check_reg(&frame, if_false, &f.name)?;
                    let chosen = if c { if_true } else { if_false };
                    match dst.class {
                        RegClass::Int => {
                            frame.int[usize::from(dst.index)] =
                                frame.int[usize::from(chosen.index)];
                        }
                        RegClass::Float => {
                            frame.float[usize::from(dst.index)] =
                                frame.float[usize::from(chosen.index)];
                        }
                        RegClass::Vec => {
                            let v = frame.vec[usize::from(chosen.index)].clone();
                            frame.vec[usize::from(dst.index)] = v;
                        }
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Mov,
                        cost.mov,
                        tkey(dst),
                        tkey(cond),
                        tkey(chosen),
                    );
                }
                MInst::IntToFloat {
                    signed,
                    double,
                    dst,
                    src,
                } => {
                    let v = geti!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    let x = if signed { v as f64 } else { v as u64 as f64 };
                    frame.float[usize::from(dst.index)] =
                        if double { x } else { f64::from(x as f32) };
                    tm.op(
                        &mut self.stats,
                        LatClass::Convert,
                        cost.convert,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::FloatToInt {
                    width,
                    signed,
                    dst,
                    src,
                } => {
                    let v = getf!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = normalize(width, signed, v as i64);
                    tm.op(
                        &mut self.stats,
                        LatClass::Convert,
                        cost.convert,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::FloatCvt {
                    to_double,
                    dst,
                    src,
                } => {
                    let v = getf!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.float[usize::from(dst.index)] =
                        if to_double { v } else { f64::from(v as f32) };
                    tm.op(
                        &mut self.stats,
                        LatClass::Convert,
                        cost.convert,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::IntResize {
                    width,
                    signed,
                    dst,
                    src,
                } => {
                    let v = geti!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.int[usize::from(dst.index)] = normalize(width, signed, v);
                    tm.op(
                        &mut self.stats,
                        LatClass::Alu,
                        cost.int_op,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                }
                MInst::Load {
                    width,
                    float,
                    signed,
                    dst,
                    base,
                    offset,
                } => {
                    let addr = geti!(base).wrapping_add(offset);
                    let raw = read_mem(mem, addr, width.bytes())?;
                    self.check_reg(&frame, dst, &f.name)?;
                    if float {
                        let x = match width {
                            Width::W32 => f64::from(f32::from_bits(raw as u32)),
                            _ => f64::from_bits(raw),
                        };
                        frame.float[usize::from(dst.index)] = x;
                    } else {
                        frame.int[usize::from(dst.index)] = normalize(width, signed, raw as i64);
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Load,
                        cost.load,
                        tkey(dst),
                        tkey(base),
                        NO_REG,
                    );
                    self.stats.loads += 1;
                }
                MInst::Store {
                    width,
                    float,
                    base,
                    offset,
                    src,
                } => {
                    let addr = geti!(base).wrapping_add(offset);
                    let raw = if float {
                        let v = getf!(src);
                        match width {
                            Width::W32 => u64::from((v as f32).to_bits()),
                            _ => v.to_bits(),
                        }
                    } else {
                        geti!(src) as u64
                    };
                    write_mem(mem, addr, width.bytes(), raw)?;
                    tm.op(
                        &mut self.stats,
                        LatClass::Store,
                        cost.store,
                        NO_REG,
                        tkey(base),
                        tkey(src),
                    );
                    self.stats.stores += 1;
                }
                MInst::VecLoad { dst, base, offset } => {
                    self.require_simd(&f.name)?;
                    let addr = geti!(base).wrapping_add(offset);
                    let width = self.target.vector_bytes();
                    check_range(mem, addr, width)?;
                    self.check_reg(&frame, dst, &f.name)?;
                    frame.vec[usize::from(dst.index)]
                        .copy_from_slice(&mem[addr as usize..(addr as usize + width as usize)]);
                    tm.op(
                        &mut self.stats,
                        LatClass::VecLoad,
                        cost.vec_load,
                        tkey(dst),
                        tkey(base),
                        NO_REG,
                    );
                    self.stats.loads += 1;
                    self.stats.vector_ops += 1;
                }
                MInst::VecStore { base, offset, src } => {
                    self.require_simd(&f.name)?;
                    let addr = geti!(base).wrapping_add(offset);
                    let width = self.target.vector_bytes();
                    check_range(mem, addr, width)?;
                    self.check_reg(&frame, src, &f.name)?;
                    let data = frame.vec[usize::from(src.index)].clone();
                    mem[addr as usize..(addr as usize + width as usize)].copy_from_slice(&data);
                    tm.op(
                        &mut self.stats,
                        LatClass::VecStore,
                        cost.vec_store,
                        NO_REG,
                        tkey(base),
                        tkey(src),
                    );
                    self.stats.stores += 1;
                    self.stats.vector_ops += 1;
                }
                MInst::VecSplatInt { elem, dst, src } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    let v = geti!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    let reg = &mut frame.vec[usize::from(dst.index)];
                    for lane in 0..lanes {
                        write_lane_int(reg, lane, elem, v);
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Vec,
                        cost.vec_op,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::VecSplatFloat { elem, dst, src } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    let v = getf!(src);
                    self.check_reg(&frame, dst, &f.name)?;
                    let reg = &mut frame.vec[usize::from(dst.index)];
                    for lane in 0..lanes {
                        write_lane_float(reg, lane, elem, v);
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Vec,
                        cost.vec_op,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::VecIntOp {
                    op,
                    elem,
                    signed,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, lhs, &f.name)?;
                    self.check_reg(&frame, rhs, &f.name)?;
                    let a = frame.vec[usize::from(lhs.index)].clone();
                    let b = frame.vec[usize::from(rhs.index)].clone();
                    let out = &mut frame.vec[usize::from(dst.index)];
                    for lane in 0..lanes {
                        let x = read_lane_int(&a, lane, elem, signed);
                        let y = read_lane_int(&b, lane, elem, signed);
                        write_lane_int(out, lane, elem, alu(op, elem, signed, x, y)?);
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Vec,
                        cost.vec_op,
                        tkey(dst),
                        tkey(lhs),
                        tkey(rhs),
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::VecFloatOp {
                    op,
                    elem,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, lhs, &f.name)?;
                    self.check_reg(&frame, rhs, &f.name)?;
                    let a = frame.vec[usize::from(lhs.index)].clone();
                    let b = frame.vec[usize::from(rhs.index)].clone();
                    let out = &mut frame.vec[usize::from(dst.index)];
                    for lane in 0..lanes {
                        let x = read_lane_float(&a, lane, elem);
                        let y = read_lane_float(&b, lane, elem);
                        write_lane_float(out, lane, elem, fpu(op, elem == Width::W64, x, y));
                    }
                    tm.op(
                        &mut self.stats,
                        LatClass::Vec,
                        cost.vec_op,
                        tkey(dst),
                        tkey(lhs),
                        tkey(rhs),
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::VecReduceInt {
                    op,
                    elem,
                    signed,
                    dst,
                    src,
                } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, src, &f.name)?;
                    let reg = frame.vec[usize::from(src.index)].clone();
                    let mut acc = read_lane_int(&reg, 0, elem, signed);
                    for lane in 1..lanes {
                        let x = read_lane_int(&reg, lane, elem, signed);
                        acc = match op {
                            RedOp::Add => alu(AluOp::Add, elem, signed, acc, x)?,
                            RedOp::Min => alu(AluOp::Min, elem, signed, acc, x)?,
                            RedOp::Max => alu(AluOp::Max, elem, signed, acc, x)?,
                        };
                    }
                    frame.int[usize::from(dst.index)] = acc;
                    tm.op(
                        &mut self.stats,
                        LatClass::VecReduce,
                        cost.vec_reduce,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::VecReduceFloat { op, elem, dst, src } => {
                    let lanes = self.lanes(elem, &f.name)?;
                    self.check_reg(&frame, dst, &f.name)?;
                    self.check_reg(&frame, src, &f.name)?;
                    let reg = frame.vec[usize::from(src.index)].clone();
                    let mut acc = read_lane_float(&reg, 0, elem);
                    for lane in 1..lanes {
                        let x = read_lane_float(&reg, lane, elem);
                        acc = match op {
                            RedOp::Add => fpu(FpuOp::Add, elem == Width::W64, acc, x),
                            RedOp::Min => fpu(FpuOp::Min, elem == Width::W64, acc, x),
                            RedOp::Max => fpu(FpuOp::Max, elem == Width::W64, acc, x),
                        };
                    }
                    frame.float[usize::from(dst.index)] = acc;
                    tm.op(
                        &mut self.stats,
                        LatClass::VecReduce,
                        cost.vec_reduce,
                        tkey(dst),
                        tkey(src),
                        NO_REG,
                    );
                    self.stats.vector_ops += 1;
                }
                MInst::Spill { slot, src } => {
                    self.check_reg(&frame, src, &f.name)?;
                    let value = match src.class {
                        RegClass::Int => SlotValue::Int(frame.int[usize::from(src.index)]),
                        RegClass::Float => SlotValue::Float(frame.float[usize::from(src.index)]),
                        RegClass::Vec => SlotValue::Vec(frame.vec[usize::from(src.index)].clone()),
                    };
                    *frame
                        .slots
                        .get_mut(slot as usize)
                        .ok_or_else(|| SimError::Trap(format!("spill to invalid slot {slot}")))? =
                        value;
                    tm.op(
                        &mut self.stats,
                        LatClass::SpillStore,
                        cost.spill_store,
                        NO_REG,
                        tkey(src),
                        NO_REG,
                    );
                    self.stats.spill_stores += 1;
                }
                MInst::Reload { slot, dst } => {
                    self.check_reg(&frame, dst, &f.name)?;
                    let value = frame.slots.get(slot as usize).cloned().ok_or_else(|| {
                        SimError::Trap(format!("reload from invalid slot {slot}"))
                    })?;
                    match (dst.class, value) {
                        (RegClass::Int, SlotValue::Int(v)) => frame.int[usize::from(dst.index)] = v,
                        (RegClass::Float, SlotValue::Float(v)) => {
                            frame.float[usize::from(dst.index)] = v
                        }
                        (RegClass::Vec, SlotValue::Vec(v)) => frame.vec[usize::from(dst.index)] = v,
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
                    tm.op(
                        &mut self.stats,
                        LatClass::SpillReload,
                        cost.spill_load,
                        tkey(dst),
                        NO_REG,
                        NO_REG,
                    );
                    self.stats.spill_reloads += 1;
                }
                MInst::Jump { target } => {
                    block = target as usize;
                    index = 0;
                    tm.jump(&mut self.stats, cost.branch_taken);
                    self.stats.branches += 1;
                }
                MInst::BranchNz {
                    cond,
                    then_target,
                    else_target,
                } => {
                    let taken = geti!(cond) != 0;
                    // Predictor site id: the branch's own flat offset,
                    // captured before the redirect below.
                    let site = block_starts[block] + index as u32 - 1;
                    block = if taken {
                        then_target as usize
                    } else {
                        else_target as usize
                    };
                    index = 0;
                    let c = if taken {
                        cost.branch_taken
                    } else {
                        cost.branch_not_taken
                    };
                    tm.branch(&mut self.stats, site, taken, c, tkey(cond));
                    self.stats.branches += 1;
                }
                MInst::Call { callee, args, ret } => {
                    // The name resolves before the arguments are read and the
                    // call is charged, as on the prepared stream.
                    if self.program.function(&callee).is_none() {
                        return Err(SimError::UnknownFunction(callee));
                    }
                    let mut argv = Vec::with_capacity(args.len());
                    for a in &args {
                        self.check_reg(&frame, *a, &f.name)?;
                        argv.push(match a.class {
                            RegClass::Int => MachineValue::Int(frame.int[usize::from(a.index)]),
                            RegClass::Float => {
                                MachineValue::Float(frame.float[usize::from(a.index)])
                            }
                            RegClass::Vec => {
                                return Err(SimError::Trap(
                                    "vector call arguments are unsupported".into(),
                                ));
                            }
                        });
                    }
                    tm.call(&mut self.stats, cost.call);
                    let out = self.call(&callee, &argv, mem, fuel, depth + 1, tm)?;
                    if let Some(r) = ret {
                        self.check_reg(&frame, r, &f.name)?;
                        match (r.class, out) {
                            (RegClass::Int, Some(MachineValue::Int(v))) => {
                                frame.int[usize::from(r.index)] = v;
                            }
                            (RegClass::Float, Some(MachineValue::Float(v))) => {
                                frame.float[usize::from(r.index)] = v;
                            }
                            _ => {
                                return Err(SimError::Trap(format!(
                                    "call to {callee} did not produce the expected value"
                                )));
                            }
                        }
                    }
                }
                MInst::Ret { value } => {
                    let src = value.map_or(NO_REG, tkey);
                    tm.op(
                        &mut self.stats,
                        LatClass::Mov,
                        cost.mov,
                        NO_REG,
                        src,
                        NO_REG,
                    );
                    return Ok(match value {
                        Some(r) => {
                            self.check_reg(&frame, r, &f.name)?;
                            Some(match r.class {
                                RegClass::Int => MachineValue::Int(frame.int[usize::from(r.index)]),
                                RegClass::Float => {
                                    MachineValue::Float(frame.float[usize::from(r.index)])
                                }
                                RegClass::Vec => {
                                    return Err(SimError::Trap(
                                        "vector return values are unsupported".into(),
                                    ));
                                }
                            })
                        }
                        None => None,
                    });
                }
            }
        }
    }

    fn require_simd(&self, fname: &str) -> Result<(), SimError> {
        if self.target.has_simd() {
            Ok(())
        } else {
            Err(SimError::NoVectorUnit {
                function: fname.to_owned(),
            })
        }
    }
}

/// Build the trap for a null/negative or out-of-range access. Out of line and
/// cold: the `format!` machinery would otherwise be inlined into every load
/// and store handler, bloating their frames.
#[cold]
#[inline(never)]
pub(crate) fn range_error(mem_len: usize, addr: i64, len: u64) -> SimError {
    if addr <= 0 {
        SimError::Trap(format!("null or negative address {addr}"))
    } else {
        SimError::Trap(format!(
            "out-of-bounds access at {addr}+{len} (memory size {mem_len})"
        ))
    }
}

pub(crate) fn check_range(mem: &[u8], addr: i64, len: u64) -> Result<(), SimError> {
    if addr > 0 && addr as u64 + len <= mem.len() as u64 {
        Ok(())
    } else {
        Err(range_error(mem.len(), addr, len))
    }
}

pub(crate) fn read_mem(mem: &[u8], addr: i64, len: u64) -> Result<u64, SimError> {
    check_range(mem, addr, len)?;
    // SAFETY: `check_range` proved `addr > 0` and `addr + len <= mem.len()`,
    // and `len` is a `Width::bytes()` — 1, 2, 4 or 8 — at every caller, so
    // the widest arm reads exactly the 8 bytes that were checked. This rests
    // on none of the prepare facts: an address is a run-time value, checked
    // here at every access. Reading a fixed width beats the variable-length
    // `copy_from_slice` (a memcpy call) this compiled to before; the vector
    // lane helpers (`lane` / `set_lane` below) follow the same rule, safely.
    let p = unsafe { mem.as_ptr().add(addr as usize) };
    Ok(unsafe {
        match len {
            1 => u64::from(*p),
            2 => u64::from(u16::from_le_bytes(*p.cast::<[u8; 2]>())),
            4 => u64::from(u32::from_le_bytes(*p.cast::<[u8; 4]>())),
            _ => u64::from_le_bytes(*p.cast::<[u8; 8]>()),
        }
    })
}

pub(crate) fn write_mem(mem: &mut [u8], addr: i64, len: u64, value: u64) -> Result<(), SimError> {
    check_range(mem, addr, len)?;
    let bytes = value.to_le_bytes();
    // SAFETY: as in `read_mem` (no prepare fact involved): `check_range`
    // just passed and `len` is a `Width::bytes()`, 1, 2, 4 or 8.
    let p = unsafe { mem.as_mut_ptr().add(addr as usize) };
    unsafe {
        match len {
            1 => *p = bytes[0],
            2 => *p.cast::<[u8; 2]>() = [bytes[0], bytes[1]],
            4 => *p.cast::<[u8; 4]>() = [bytes[0], bytes[1], bytes[2], bytes[3]],
            _ => *p.cast::<[u8; 8]>() = bytes,
        }
    }
    Ok(())
}

/// Lanes of `elem` in a `vector_bytes`-byte register. An element wider than
/// the register has no lane 0 for a reduction to start from, so the
/// instruction is refused: at prepare time by `prepare`, at run time by the
/// legacy walk, with the same trap.
pub(crate) fn lane_count(vector_bytes: u64, elem: Width, fname: &str) -> Result<usize, SimError> {
    match vector_bytes / elem.bytes() {
        0 => Err(SimError::Trap(format!(
            "{}-byte lanes in a {vector_bytes}-byte vector register in {fname}",
            elem.bytes()
        ))),
        lanes => Ok(lanes as usize),
    }
}

/// Bits of lane `i` of `reg`, `B` bytes wide, zero-extended. `B` is a
/// constant at each call, so this is one bounds-checked slice and a
/// fixed-width load, not a memcpy.
#[inline(always)]
fn lane<const B: usize>(reg: &[u8], i: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf[..B].copy_from_slice(&reg[i * B..i * B + B]);
    u64::from_le_bytes(buf)
}

/// Store the low `B` bytes of `bits` into lane `i` of `reg`.
#[inline(always)]
fn set_lane<const B: usize>(reg: &mut [u8], i: usize, bits: u64) {
    reg[i * B..i * B + B].copy_from_slice(&bits.to_le_bytes()[..B]);
}

#[inline(always)]
fn read_lane(reg: &[u8], i: usize, elem: Width) -> u64 {
    match elem {
        Width::W8 => lane::<1>(reg, i),
        Width::W16 => lane::<2>(reg, i),
        Width::W32 => lane::<4>(reg, i),
        Width::W64 => lane::<8>(reg, i),
    }
}

#[inline(always)]
fn write_lane(reg: &mut [u8], i: usize, elem: Width, bits: u64) {
    match elem {
        Width::W8 => set_lane::<1>(reg, i, bits),
        Width::W16 => set_lane::<2>(reg, i, bits),
        Width::W32 => set_lane::<4>(reg, i, bits),
        Width::W64 => set_lane::<8>(reg, i, bits),
    }
}

#[inline]
pub(crate) fn read_lane_int(reg: &[u8], lane: usize, elem: Width, signed: bool) -> i64 {
    normalize(elem, signed, read_lane(reg, lane, elem) as i64)
}

#[inline]
pub(crate) fn write_lane_int(reg: &mut [u8], lane: usize, elem: Width, value: i64) {
    write_lane(reg, lane, elem, value as u64);
}

#[inline]
pub(crate) fn read_lane_float(reg: &[u8], lane: usize, elem: Width) -> f64 {
    let bits = read_lane(reg, lane, elem);
    match elem {
        Width::W32 => f64::from(f32::from_bits(bits as u32)),
        _ => f64::from_bits(bits),
    }
}

#[inline]
pub(crate) fn write_lane_float(reg: &mut [u8], lane: usize, elem: Width, value: f64) {
    let bits = match elem {
        Width::W32 => u64::from((value as f32).to_bits()),
        _ => value.to_bits(),
    };
    write_lane(reg, lane, elem, bits);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{PreparedProgram, PreparedSimulator};
    use crate::mcode::{MBlock, MFunction};

    fn program(f: MFunction) -> MProgram {
        MProgram {
            name: "test".into(),
            functions: vec![f],
        }
    }

    fn straight(insts: Vec<MInst>, params: Vec<PReg>) -> MProgram {
        program(MFunction {
            name: "f".into(),
            params,
            blocks: vec![MBlock { insts }],
            num_slots: 4,
        })
    }

    #[test]
    fn integer_alu_semantics_match_wrapping_and_signedness() {
        assert_eq!(alu(AluOp::Add, Width::W8, false, 200, 100).unwrap(), 44);
        assert_eq!(alu(AluOp::Div, Width::W32, true, -7, 2).unwrap(), -3);
        assert_eq!(
            alu(AluOp::Div, Width::W32, false, -1i32 as i64 & 0xffff_ffff, 2).unwrap(),
            0x7fff_ffff
        );
        assert_eq!(alu(AluOp::Max, Width::W8, false, 0xf0, 0x10).unwrap(), 0xf0);
        assert_eq!(alu(AluOp::Max, Width::W8, true, -16, 16).unwrap(), 16);
        assert!(alu(AluOp::Div, Width::W32, true, 1, 0).is_err());
    }

    #[test]
    fn float_ops_round_through_f32_when_single_precision() {
        let a = 1.000_000_1_f64;
        let single = fpu(FpuOp::Add, false, a, a);
        let double = fpu(FpuOp::Add, true, a, a);
        assert_ne!(single, double);
        assert_eq!(single, f64::from((a as f32) + (a as f32)));
    }

    #[test]
    fn loads_stores_and_loop_execute_with_costs() {
        // r0 = base pointer, r1 = n; sum *u8 elements into r2 (wrapping at 8 bits).
        let f = MFunction {
            name: "sum".into(),
            params: vec![PReg::int(0), PReg::int(1)],
            blocks: vec![
                MBlock {
                    insts: vec![
                        MInst::Imm {
                            dst: PReg::int(2),
                            value: 0,
                        },
                        MInst::Imm {
                            dst: PReg::int(3),
                            value: 0,
                        },
                        MInst::Jump { target: 1 },
                    ],
                },
                MBlock {
                    insts: vec![
                        MInst::IntCmp {
                            pred: CmpPred::Lt,
                            width: Width::W32,
                            signed: true,
                            dst: PReg::int(4),
                            lhs: PReg::int(3),
                            rhs: PReg::int(1),
                        },
                        MInst::BranchNz {
                            cond: PReg::int(4),
                            then_target: 2,
                            else_target: 3,
                        },
                    ],
                },
                MBlock {
                    insts: vec![
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W64,
                            signed: true,
                            dst: PReg::int(5),
                            lhs: PReg::int(0),
                            rhs: PReg::int(3),
                        },
                        MInst::Load {
                            width: Width::W8,
                            float: false,
                            signed: false,
                            dst: PReg::int(5),
                            base: PReg::int(5),
                            offset: 0,
                        },
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W8,
                            signed: false,
                            dst: PReg::int(2),
                            lhs: PReg::int(2),
                            rhs: PReg::int(5),
                        },
                        MInst::Imm {
                            dst: PReg::int(5),
                            value: 1,
                        },
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W32,
                            signed: true,
                            dst: PReg::int(3),
                            lhs: PReg::int(3),
                            rhs: PReg::int(5),
                        },
                        MInst::Jump { target: 1 },
                    ],
                },
                MBlock {
                    insts: vec![MInst::Ret {
                        value: Some(PReg::int(2)),
                    }],
                },
            ],
            num_slots: 0,
        };
        let p = program(f);
        let target = TargetDesc::x86_sse();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 256];
        for i in 0..100u8 {
            mem[16 + i as usize] = i;
        }
        let out = sim
            .run(
                "sum",
                &[MachineValue::Int(16), MachineValue::Int(100)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(
            out,
            Some(MachineValue::Int(i64::from((0..100u32).sum::<u32>() as u8)))
        );
        let stats = sim.stats();
        assert_eq!(stats.loads, 100);
        assert!(stats.cycles > stats.instructions);
        assert!(stats.branches >= 101);
    }

    #[test]
    fn vector_ops_work_on_simd_targets_and_trap_on_scalar_targets() {
        let insts = vec![
            MInst::VecLoad {
                dst: PReg::vec(0),
                base: PReg::int(0),
                offset: 0,
            },
            MInst::VecIntOp {
                op: AluOp::Add,
                elem: Width::W8,
                signed: false,
                dst: PReg::vec(0),
                lhs: PReg::vec(0),
                rhs: PReg::vec(0),
            },
            MInst::VecReduceInt {
                op: RedOp::Max,
                elem: Width::W8,
                signed: false,
                dst: PReg::int(1),
                src: PReg::vec(0),
            },
            MInst::Ret {
                value: Some(PReg::int(1)),
            },
        ];
        let p = straight(insts, vec![PReg::int(0)]);
        let x86 = TargetDesc::x86_sse();
        let prepared = PreparedProgram::prepare(&p, &x86).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 64];
        for i in 0..16 {
            mem[16 + i] = i as u8 * 3;
        }
        let out = sim.run("f", &[MachineValue::Int(16)], &mut mem).unwrap();
        assert_eq!(out, Some(MachineValue::Int(90))); // max lane 15*3 doubled = 90
        assert_eq!(sim.stats().vector_ops, 3);

        // Scalar-only targets refuse the program when it is prepared.
        let sparc = TargetDesc::ultrasparc();
        let err = PreparedProgram::prepare(&p, &sparc).unwrap_err();
        assert!(matches!(err, SimError::NoVectorUnit { .. }));
    }

    #[test]
    fn spills_and_reloads_round_trip_and_are_counted() {
        let insts = vec![
            MInst::Imm {
                dst: PReg::int(0),
                value: 77,
            },
            MInst::Spill {
                slot: 2,
                src: PReg::int(0),
            },
            MInst::Imm {
                dst: PReg::int(0),
                value: 0,
            },
            MInst::Reload {
                slot: 2,
                dst: PReg::int(0),
            },
            MInst::Ret {
                value: Some(PReg::int(0)),
            },
        ];
        let p = straight(insts, vec![]);
        let target = TargetDesc::powerpc();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 32];
        assert_eq!(
            sim.run("f", &[], &mut mem).unwrap(),
            Some(MachineValue::Int(77))
        );
        assert_eq!(sim.stats().spill_stores, 1);
        assert_eq!(sim.stats().spill_reloads, 1);
    }

    #[test]
    fn register_file_limits_are_enforced() {
        let insts = vec![
            MInst::Imm {
                dst: PReg::int(40),
                value: 1,
            },
            MInst::Ret { value: None },
        ];
        let p = straight(insts, vec![]);
        let target = TargetDesc::x86_sse(); // only 6 integer registers
        assert!(matches!(
            PreparedProgram::prepare(&p, &target).unwrap_err(),
            SimError::BadRegister { .. }
        ));
    }

    #[test]
    fn out_of_bounds_and_unknown_functions_trap() {
        let insts = vec![
            MInst::Load {
                width: Width::W64,
                float: false,
                signed: true,
                dst: PReg::int(0),
                base: PReg::int(0),
                offset: 0,
            },
            MInst::Ret { value: None },
        ];
        let p = straight(insts, vec![PReg::int(0)]);
        let target = TargetDesc::arm_neon();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 16];
        assert!(matches!(
            sim.run("f", &[MachineValue::Int(12)], &mut mem)
                .unwrap_err(),
            SimError::Trap(_)
        ));
        assert!(matches!(
            sim.run("nope", &[], &mut mem).unwrap_err(),
            SimError::UnknownFunction(_)
        ));
        assert!(matches!(
            sim.run("f", &[], &mut mem).unwrap_err(),
            SimError::BadArgumentCount { .. }
        ));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let f = MFunction {
            name: "spin".into(),
            params: vec![],
            blocks: vec![MBlock {
                insts: vec![MInst::Jump { target: 0 }],
            }],
            num_slots: 0,
        };
        let p = program(f);
        let target = TargetDesc::x86_sse();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared).with_fuel(10_000);
        let mut mem = vec![0u8; 16];
        assert_eq!(
            sim.run("spin", &[], &mut mem).unwrap_err(),
            SimError::OutOfFuel
        );
    }

    #[test]
    fn prepared_and_legacy_walks_agree_on_results_and_stats() {
        // The sum-loop program from `loads_stores_and_loop_execute_with_costs`,
        // run through the prepared executor and the reference walk.
        let f = MFunction {
            name: "sum".into(),
            params: vec![PReg::int(0), PReg::int(1)],
            blocks: vec![
                MBlock {
                    insts: vec![
                        MInst::Imm {
                            dst: PReg::int(2),
                            value: 0,
                        },
                        MInst::Imm {
                            dst: PReg::int(3),
                            value: 0,
                        },
                        MInst::Jump { target: 1 },
                    ],
                },
                MBlock {
                    insts: vec![
                        MInst::IntCmp {
                            pred: CmpPred::Lt,
                            width: Width::W32,
                            signed: true,
                            dst: PReg::int(4),
                            lhs: PReg::int(3),
                            rhs: PReg::int(1),
                        },
                        MInst::BranchNz {
                            cond: PReg::int(4),
                            then_target: 2,
                            else_target: 3,
                        },
                    ],
                },
                MBlock {
                    insts: vec![
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W64,
                            signed: true,
                            dst: PReg::int(5),
                            lhs: PReg::int(0),
                            rhs: PReg::int(3),
                        },
                        MInst::Load {
                            width: Width::W8,
                            float: false,
                            signed: false,
                            dst: PReg::int(5),
                            base: PReg::int(5),
                            offset: 0,
                        },
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W8,
                            signed: false,
                            dst: PReg::int(2),
                            lhs: PReg::int(2),
                            rhs: PReg::int(5),
                        },
                        MInst::Imm {
                            dst: PReg::int(5),
                            value: 1,
                        },
                        MInst::IntOp {
                            op: AluOp::Add,
                            width: Width::W32,
                            signed: true,
                            dst: PReg::int(3),
                            lhs: PReg::int(3),
                            rhs: PReg::int(5),
                        },
                        MInst::Jump { target: 1 },
                    ],
                },
                MBlock {
                    insts: vec![MInst::Ret {
                        value: Some(PReg::int(2)),
                    }],
                },
            ],
            num_slots: 0,
        };
        let p = program(f);
        let args = [MachineValue::Int(16), MachineValue::Int(100)];
        for target in TargetDesc::presets() {
            let mut mem = vec![0u8; 256];
            for i in 0..100u8 {
                mem[16 + i as usize] = i;
            }
            let mut legacy_mem = mem.clone();
            let prepared = PreparedProgram::prepare(&p, &target).unwrap();
            let mut sim = PreparedSimulator::new(&prepared);
            let out = sim.run("sum", &args, &mut mem).unwrap();
            let mut legacy = Simulator::new(&p, &target);
            let legacy_out = legacy.run_legacy("sum", &args, &mut legacy_mem).unwrap();
            assert_eq!(out, legacy_out, "{}", target.name);
            assert_eq!(sim.stats(), legacy.stats(), "{}", target.name);
            assert_eq!(mem, legacy_mem, "{}", target.name);
        }
    }

    #[test]
    fn calls_copy_arguments_and_return_values() {
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
        let p = MProgram {
            name: "m".into(),
            functions: vec![callee, caller],
        };
        let target = TargetDesc::x86_sse();
        let prepared = PreparedProgram::prepare(&p, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 16];
        let out = sim
            .run("main", &[MachineValue::Float(3.0)], &mut mem)
            .unwrap();
        assert_eq!(out, Some(MachineValue::Float(9.0)));
    }
}
