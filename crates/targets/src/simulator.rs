//! What a simulated run takes and gives, and the semantics its handlers share.
//!
//! The simulator stands in for the real x86/UltraSparc/PowerPC/ARM/Cell
//! hardware of the paper: it executes machine code produced by the online
//! compiler against a flat byte memory and charges each instruction the cost
//! given by the target's [`CostModel`](crate::CostModel). The executor is
//! [`PreparedProgram`](crate::PreparedProgram); this module holds its run
//! types ([`MachineValue`], [`SimError`], [`SimStats`]) and the arithmetic,
//! compare, memory and vector-lane helpers its `dispatch.rs` handlers call.
//! Functional results must match the bytecode reference interpreter (checked
//! by the cross-crate differential tests); cycle counts are what the
//! experiments report.

use crate::mcode::{AluOp, CmpPred, FpuOp, Width};
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

/// `x`, with its quiet bit set if it is a NaN.
#[inline(always)]
fn quiet(x: f64) -> f64 {
    if x.is_nan() {
        f64::from_bits(x.to_bits() | 1 << 51)
    } else {
        x
    }
}

/// The NaN an invalid operation on numbers returns (0/0, ∞ − ∞, 0 × ∞,
/// ∞/∞): negative and quiet, what x86-64 computes at run time.
const INVALID_NAN: u64 = 0xfff8_0000_0000_0000;

/// `r`, the result of an arithmetic operation on `a` and `b`, with its NaN
/// spelled out: the first NaN operand, `a`'s before `b`'s, quieted, and
/// [`INVALID_NAN`] when both are numbers. Any NaN operand makes `r` a NaN,
/// so a number result costs one test.
#[inline(always)]
fn arith(a: f64, b: f64, r: f64) -> f64 {
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        quiet(a)
    } else if b.is_nan() {
        quiet(b)
    } else {
        f64::from_bits(INVALID_NAN)
    }
}

pub(crate) fn fpu(op: FpuOp, double: bool, a: f64, b: f64) -> f64 {
    // Which NaN comes back, and the sign of a ±0 min/max tie, are spelled
    // out, not left to codegen: Rust leaves them unspecified, and the
    // optimizer may commute an operation, pick another instruction for it or
    // fold it, so a scalar and a vectorized lane loop could differ. As the
    // recorded run digests were pinned on x86-64: arithmetic returns its
    // first NaN operand, `a`'s before `b`'s, quieted, and `INVALID_NAN` when
    // both operands are numbers; min/max return `a` on a tie, the other
    // operand for one NaN and `b` for two, never quieted.
    let r = match op {
        FpuOp::Add => arith(a, b, a + b),
        FpuOp::Sub => arith(a, b, a - b),
        FpuOp::Mul => arith(a, b, a * b),
        FpuOp::Div => arith(a, b, a / b),
        FpuOp::Min => {
            if a.is_nan() || b < a {
                b
            } else {
                a
            }
        }
        FpuOp::Max => {
            if a.is_nan() || b > a {
                b
            } else {
                a
            }
        }
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
/// the register has no lane 0 for a reduction to start from, so `prepare`
/// refuses the instruction with a trap.
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
        // Widened as `cvtss2sd` widens, a signalling NaN made quiet. Spelled
        // out: Rust leaves a widened NaN's quiet bit unspecified, and the
        // optimizer may drop a widening that a later narrowing undoes, which
        // would let a float min/max lane pass a signalling NaN through.
        Width::W32 => quiet(f64::from(f32::from_bits(bits as u32))),
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
pub(crate) mod tests {
    use super::*;
    use crate::desc::TargetDesc;
    use crate::exec::{PreparedProgram, PreparedSimulator};
    use crate::mcode::{MBlock, MFunction, MInst, MProgram, PReg, RedOp};
    use crate::Fnv1a;

    /// FNV-1a over one run: its outcome (variant, value bits, error text),
    /// all eleven [`SimStats`] counters and the whole memory image.
    pub(crate) fn run_digest(
        out: &Result<Option<MachineValue>, SimError>,
        stats: &SimStats,
        mem: &[u8],
    ) -> u64 {
        let mut h = Fnv1a::new();
        match out {
            Ok(Some(MachineValue::Int(v))) => {
                h.write(b"int");
                h.write(&v.to_le_bytes());
            }
            Ok(Some(MachineValue::Float(v))) => {
                h.write(b"float");
                h.write(&v.to_bits().to_le_bytes());
            }
            Ok(None) => h.write(b"none"),
            Err(e) => h.write(format!("{e:?}").as_bytes()),
        }
        let s = stats;
        for counter in [
            s.cycles,
            s.instructions,
            s.loads,
            s.stores,
            s.spill_stores,
            s.spill_reloads,
            s.branches,
            s.vector_ops,
            s.stalls,
            s.mispredicts,
            s.predicted,
        ] {
            h.write(&counter.to_le_bytes());
        }
        h.write(mem);
        h.finish()
    }

    /// The run digests of one test, in the order it made them. Every input
    /// a unit test runs is fixed, so each run's answer is a constant: the
    /// test folds the digests and compares the fold with the one it
    /// recorded, printing every cell's digest first on a mismatch so that
    /// the cell that moved shows in a diff against a tree where it held.
    #[derive(Debug, Default)]
    pub(crate) struct Pins(Vec<(String, u64)>);

    impl Pins {
        /// Note the [`run_digest`] of one run for `cell`.
        pub(crate) fn record(
            &mut self,
            cell: impl Into<String>,
            out: &Result<Option<MachineValue>, SimError>,
            stats: &SimStats,
            mem: &[u8],
        ) {
            self.note(cell, run_digest(out, stats, mem));
        }

        /// Note `digest`, of anything but a run, for `cell`.
        pub(crate) fn note(&mut self, cell: impl Into<String>, digest: u64) {
            self.0.push((cell.into(), digest));
        }

        /// Assert that the fold of every cell's digest is `pinned`.
        pub(crate) fn check(&self, pinned: u64) {
            let mut fold = Fnv1a::new();
            for (_, digest) in &self.0 {
                fold.write(&digest.to_le_bytes());
            }
            let got = fold.finish();
            if got != pinned {
                for (cell, digest) in &self.0 {
                    println!("{digest:016x} {cell}");
                }
                panic!("{} cells fold to {got}, recorded {pinned}", self.0.len());
            }
        }
    }

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

    /// `sum(base, n)`: the wrapping 8-bit sum of `n` bytes at `base`.
    fn sum_loop() -> MProgram {
        // r0 = base pointer, r1 = n; sum *u8 elements into r2 (wrapping at 8 bits).
        program(MFunction {
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
    fn float_min_max_define_signed_zero_ties_and_nans() {
        // (a, b, min, max) as f64 bit patterns: a tie returns `a`, one NaN
        // returns the other operand, two NaNs return `b`.
        let (n1, n2) = (0x7ff8_0000_0000_1234, 0xfff8_0000_0000_0042);
        let (zero, neg_zero, x) = (0.0f64.to_bits(), (-0.0f64).to_bits(), 2.5f64.to_bits());
        let cases = [
            (neg_zero, zero, neg_zero, neg_zero),
            (zero, neg_zero, zero, zero),
            (n1, n2, n2, n2),
            (n1, x, x, x),
            (x, n1, x, x),
        ];
        for (a, b, min, max) in cases {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b));
            assert_eq!(
                fpu(FpuOp::Min, true, a, b).to_bits(),
                min,
                "f64 min {a} {b}"
            );
            assert_eq!(
                fpu(FpuOp::Max, true, a, b).to_bits(),
                max,
                "f64 max {a} {b}"
            );
            // Single precision: the same operands as f32 lanes, widened.
            let single = |v: f64| f64::from(v as f32);
            let bits32 = |v: u64| (f64::from_bits(v) as f32).to_bits();
            let (a32, b32) = (single(a), single(b));
            let got = |op| (fpu(op, false, a32, b32) as f32).to_bits();
            assert_eq!(got(FpuOp::Min), bits32(min), "f32 min {a} {b}");
            assert_eq!(got(FpuOp::Max), bits32(max), "f32 max {a} {b}");
        }
    }

    #[test]
    fn float_arithmetic_returns_its_first_nan_operand_quieted() {
        let (signalling, quiet) = (0x7ff0_0000_0000_0001, 0xfff8_0400_0000_0000);
        let (s, q) = (f64::from_bits(signalling), f64::from_bits(quiet));
        for op in [FpuOp::Add, FpuOp::Sub, FpuOp::Mul, FpuOp::Div] {
            for (a, b, want) in [
                (s, q, signalling | 1 << 51),
                (q, s, quiet),
                (2.5, s, signalling | 1 << 51),
                (q, 2.5, quiet),
            ] {
                assert_eq!(fpu(op, true, a, b).to_bits(), want, "{op:?} {a} {b}");
            }
            // Single precision narrows the NaN, keeping its payload's top bits.
            assert_eq!((fpu(op, false, 2.5, q) as f32).to_bits(), 0xffc0_2000);
        }
    }

    #[test]
    fn an_invalid_operation_on_numbers_returns_the_negative_quiet_nan() {
        use std::hint::black_box;
        let (zero, inf) = (black_box(0.0f64), black_box(f64::INFINITY));
        for (op, a, b) in [
            (FpuOp::Div, zero, zero),
            (FpuOp::Sub, inf, inf),
            (FpuOp::Add, inf, -inf),
            (FpuOp::Mul, zero, inf),
            (FpuOp::Div, inf, inf),
        ] {
            let (a, b) = (black_box(a), black_box(b));
            assert_eq!(fpu(op, true, a, b).to_bits(), INVALID_NAN, "{op:?} {a} {b}");
            // Single precision: the f32 default NaN, widened.
            let single = fpu(op, false, a, b);
            assert_eq!(single.to_bits(), INVALID_NAN, "f32 {op:?} {a} {b}");
            assert_eq!((single as f32).to_bits(), 0xffc0_0000, "f32 {op:?} {a} {b}");
        }
    }

    #[test]
    fn a_single_precision_lane_widens_a_signalling_nan_to_a_quiet_one() {
        for (lane, quiet) in [(0xffa0_0001u32, 0xffe0_0001u32), (0x7fc0_1234, 0x7fc0_1234)] {
            let v = read_lane_float(&lane.to_le_bytes(), 0, Width::W32);
            assert_eq!((v as f32).to_bits(), quiet, "{lane:#x}");
            assert_ne!(v.to_bits() & 1 << 51, 0, "{lane:#x}: quiet bit");
        }
    }

    #[test]
    fn loads_stores_and_loop_execute_with_costs() {
        let p = sum_loop();
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
    fn scalar_stores_and_loads_move_exactly_their_width() {
        // Nothing else pins a 16-bit scalar store's bytes: the catalogue's
        // 16-bit kernels only load, and the generated programs are i32 / f32.
        let value = 0x0807_0605_0403_0201_i64;
        for width in [Width::W8, Width::W16, Width::W32, Width::W64] {
            let (base, src, dst) = (PReg::int(0), PReg::int(1), PReg::int(2));
            let insts = vec![
                MInst::Store {
                    width,
                    float: false,
                    base,
                    offset: 0,
                    src,
                },
                MInst::Load {
                    width,
                    float: false,
                    signed: false,
                    dst,
                    base,
                    offset: 0,
                },
                MInst::Ret { value: Some(dst) },
            ];
            let p = straight(insts, vec![base, src]);
            let prepared = PreparedProgram::prepare(&p, &TargetDesc::x86_sse()).unwrap();
            let mut mem = vec![0xaa_u8; 32];
            let args = [MachineValue::Int(8), MachineValue::Int(value)];
            let out = PreparedSimulator::new(&prepared).run("f", &args, &mut mem);
            let n = width.bytes() as usize;
            let loaded = normalize(width, false, value);
            assert_eq!(out, Ok(Some(MachineValue::Int(loaded))), "{width:?}");
            assert_eq!(mem[8..8 + n], value.to_le_bytes()[..n], "{width:?}");
            let around = mem[..8].iter().chain(&mem[8 + n..]);
            assert!(around.copied().all(|b| b == 0xaa), "{width:?}");
        }
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
        // The sum loop on every preset, flat: results, stats and memory as
        // the block walk this crate once carried left them, recorded.
        let p = sum_loop();
        let args = [MachineValue::Int(16), MachineValue::Int(100)];
        let mut pins = Pins::default();
        for target in TargetDesc::presets() {
            let mut mem = vec![0u8; 256];
            for i in 0..100u8 {
                mem[16 + i as usize] = i;
            }
            let prepared = PreparedProgram::prepare(&p, &target).unwrap();
            let mut sim = PreparedSimulator::new(&prepared);
            let out = sim.run("sum", &args, &mut mem);
            pins.record(&target.name, &out, &sim.stats(), &mem);
        }
        pins.check(3_770_951_366_358_797_952);
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
