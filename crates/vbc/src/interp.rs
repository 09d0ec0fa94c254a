//! Reference interpreter for the virtual bytecode.
//!
//! The interpreter defines the *semantics* of the bytecode independently of
//! any target. It is used for differential testing: whatever code the online
//! compiler produces for a simulated target must compute the same results as
//! the interpreter (see the cross-crate integration tests). The benchmark's
//! set-up checks every output against it too.
//!
//! What a step costs: one fuel check, one match on the instruction, and no
//! allocation once a run's vector registers hold vectors. A vector register
//! holds typed lanes ([`Lanes`]), so a vector instruction decides their kind
//! and its operator once and runs one loop over an `i64` or `f64` slice; a
//! vector load or store checks its bounds once and moves the lanes in bounds
//! in one pass. It builds its lanes in the scratch buffer of their kind and
//! swaps that into its destination register, whose old buffer becomes the
//! next scratch: only a register's first vector allocates
//! (`tests/interpreter_alloc.rs` gates the count).
//!
//! Ill-typed programs, which verification rejects, have no meaning here: a
//! lane-kind mismatch panics at the instruction that meets it, as a scalar
//! one does. Only a vector store of lanes of the wrong kind traps, at lane 0.

use crate::inst::{BinOp, CallSite, CmpOp, Inst, UnOp};
use crate::module::Module;
use crate::types::ScalarType;
use std::error::Error;
use std::fmt;
use std::mem::replace;

/// Default vector register width assumed by the interpreter (bytes).
///
/// Matches the 128-bit SIMD units (SSE/AltiVec/Neon) contemporary with the paper.
pub const DEFAULT_VECTOR_WIDTH_BYTES: u64 = 16;

/// Default instruction budget before an execution is aborted as runaway.
pub const DEFAULT_FUEL: u64 = 500_000_000;

/// A runtime value held in a virtual register.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer or pointer payload (already normalized to its static type).
    Int(i64),
    /// Floating-point payload.
    Float(f64),
    /// Vector payload: its lanes, all of one kind.
    Vector(Lanes),
}

/// The lanes of a vector value, all of one kind. A lane holds what a scalar
/// of the vector's element type would: an integer normalized to it, or a
/// float rounded to it.
#[derive(Debug, Clone, PartialEq)]
pub enum Lanes {
    /// Integer lanes.
    Int(Vec<i64>),
    /// Floating-point lanes.
    Float(Vec<f64>),
}

impl Lanes {
    fn len(&self) -> usize {
        match self {
            Lanes::Int(v) => v.len(),
            Lanes::Float(v) => v.len(),
        }
    }
}

/// A lane payload: `i64` for [`Lanes::Int`], `f64` for [`Lanes::Float`].
trait Lane: Sized {
    /// Decode scalars of type `ty` from the front of `bytes` into `out`.
    fn read(ty: ScalarType, bytes: &[u8], out: &mut [Self]);
    /// Encode `lanes` as scalars of type `ty` at the front of `bytes`.
    fn write(ty: ScalarType, lanes: &[Self], bytes: &mut [u8]);
}

impl Lane for i64 {
    fn read(ty: ScalarType, bytes: &[u8], out: &mut [i64]) {
        match ty {
            ScalarType::I8 => decode(bytes, out, |b| i64::from(i8::from_le_bytes(b))),
            ScalarType::U8 => decode(bytes, out, |b| i64::from(u8::from_le_bytes(b))),
            ScalarType::I16 => decode(bytes, out, |b| i64::from(i16::from_le_bytes(b))),
            ScalarType::U16 => decode(bytes, out, |b| i64::from(u16::from_le_bytes(b))),
            ScalarType::I32 => decode(bytes, out, |b| i64::from(i32::from_le_bytes(b))),
            ScalarType::U32 => decode(bytes, out, |b| i64::from(u32::from_le_bytes(b))),
            _ => decode(bytes, out, i64::from_le_bytes), // I64, U64 and Ptr
        }
    }

    fn write(ty: ScalarType, lanes: &[i64], bytes: &mut [u8]) {
        match ty.size_bytes() {
            1 => encode(lanes, bytes, |v| [v as u8]),
            2 => encode(lanes, bytes, |v| (v as u16).to_le_bytes()),
            4 => encode(lanes, bytes, |v| (v as u32).to_le_bytes()),
            _ => encode(lanes, bytes, i64::to_le_bytes),
        }
    }
}

impl Lane for f64 {
    fn read(ty: ScalarType, bytes: &[u8], out: &mut [f64]) {
        if ty == ScalarType::F32 {
            decode(bytes, out, |b| f64::from(f32::from_le_bytes(b)));
        } else {
            decode(bytes, out, f64::from_le_bytes);
        }
    }

    fn write(ty: ScalarType, lanes: &[f64], bytes: &mut [u8]) {
        if ty == ScalarType::F32 {
            encode(lanes, bytes, |v| (v as f32).to_le_bytes());
        } else {
            encode(lanes, bytes, f64::to_le_bytes);
        }
    }
}

/// `out[i] = f(the N bytes at N * i)`.
fn decode<const N: usize, T>(bytes: &[u8], out: &mut [T], f: impl Fn([u8; N]) -> T) {
    for (o, b) in out.iter_mut().zip(bytes.chunks_exact(N)) {
        *o = f(b.try_into().expect("chunks of N bytes"));
    }
}

/// `the N bytes at N * i = f(lanes[i])`.
fn encode<const N: usize, T: Copy>(lanes: &[T], bytes: &mut [u8], f: impl Fn(T) -> [u8; N]) {
    for (b, &v) in bytes.chunks_exact_mut(N).zip(lanes) {
        b.copy_from_slice(&f(v));
    }
}

/// `buf` holding `n` lanes, for a vector instruction to overwrite them all.
fn scratch<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    buf.resize(n, T::default());
    buf
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an [`Value::Int`].
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected integer value, found {other:?}"),
        }
    }

    /// The floating-point payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an [`Value::Float`].
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            other => panic!("expected float value, found {other:?}"),
        }
    }

    /// The vector lanes.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a [`Value::Vector`].
    pub fn as_vector(&self) -> &Lanes {
        match self {
            Value::Vector(v) => v,
            other => panic!("expected vector value, found {other:?}"),
        }
    }

    /// Copy `other` into `self`, reusing a vector's lane allocation instead
    /// of dropping and reallocating it (the interpreter's `Move` hot path
    /// goes through this).
    fn assign_from(&mut self, other: &Value) {
        match (self, other) {
            (Value::Vector(Lanes::Int(dst)), Value::Vector(Lanes::Int(src))) => dst.clone_from(src),
            (Value::Vector(Lanes::Float(dst)), Value::Vector(Lanes::Float(src))) => {
                dst.clone_from(src)
            }
            (dst, src) => *dst = src.clone(),
        }
    }
}

/// Copy register `src` into register `dst` (no-op when they alias), reusing
/// the destination's allocation for vector values.
fn copy_reg(regs: &mut [Value], dst: usize, src: usize) {
    if dst == src {
        return;
    }
    let (a, b) = if dst < src {
        let (lo, hi) = regs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    };
    a.assign_from(b);
}

/// An error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The requested entry function does not exist in the module.
    UnknownFunction(String),
    /// The argument count does not match the entry function's parameters.
    BadArgumentCount {
        /// Parameters expected by the function.
        expected: usize,
        /// Arguments supplied by the caller.
        found: usize,
    },
    /// A runtime fault: division by zero, out-of-bounds access, missing value.
    Trap(String),
    /// The instruction budget was exhausted (probable infinite loop).
    OutOfFuel,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownFunction(name) => write!(f, "unknown function {name}"),
            ExecError::BadArgumentCount { expected, found } => {
                write!(f, "expected {expected} arguments, found {found}")
            }
            ExecError::Trap(msg) => write!(f, "trap: {msg}"),
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

impl Error for ExecError {}

/// Flat linear memory shared by bytecode programs and simulated targets.
///
/// Addresses are byte offsets. Address `0` is reserved so that null pointers
/// trap. Allocation is a simple bump allocator aligned to 16 bytes (one vector
/// register), which is all the experiments need.
///
/// # Examples
///
/// ```
/// use splitc_vbc::Memory;
///
/// let mut mem = Memory::new(1 << 12);
/// let a = mem.alloc(4 * 4);
/// mem.write_f32s(a, &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(mem.read_f32s(a, 4), vec![1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Memory {
    bytes: Vec<u8>,
    next: u64,
}

impl Memory {
    /// Create a memory of `size` bytes, all zero.
    pub fn new(size: usize) -> Self {
        Memory {
            bytes: vec![0; size],
            next: 16,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Bump-allocate `size` bytes aligned to 16 and return the base address.
    ///
    /// # Panics
    ///
    /// Panics if the memory is exhausted.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let base = self.next;
        let aligned = size.div_ceil(16) * 16;
        assert!(
            base + aligned <= self.bytes.len() as u64,
            "out of simulated memory: requested {size} bytes at {base}"
        );
        self.next += aligned;
        base
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), ExecError> {
        if addr == 0 {
            return Err(ExecError::Trap("null pointer access".into()));
        }
        // Checked end-of-access arithmetic: an address near `u64::MAX` (a
        // negative base reinterpreted as unsigned) used to wrap `addr + len`
        // past the length comparison and panic on the slice below instead of
        // trapping.
        let oob = || {
            ExecError::Trap(format!(
                "out-of-bounds access at {addr}+{len} (memory size {})",
                self.bytes.len()
            ))
        };
        let end = addr.checked_add(len).ok_or_else(oob)?;
        if end > self.bytes.len() as u64 {
            return Err(oob());
        }
        Ok(())
    }

    /// Load one scalar of type `ty` from `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap on null or out-of-bounds access.
    pub fn load_scalar(&self, ty: ScalarType, addr: u64) -> Result<Value, ExecError> {
        self.check(addr, ty.size_bytes())?;
        let bytes = &self.bytes[addr as usize..];
        Ok(if ty.is_float() {
            let mut v = [0.0];
            f64::read(ty, bytes, &mut v);
            Value::Float(v[0])
        } else {
            let mut v = [0];
            i64::read(ty, bytes, &mut v);
            Value::Int(v[0])
        })
    }

    /// Store one scalar of type `ty` to `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap on null or out-of-bounds access, or if `value` has the
    /// wrong kind for `ty`.
    pub fn store_scalar(
        &mut self,
        ty: ScalarType,
        addr: u64,
        value: &Value,
    ) -> Result<(), ExecError> {
        self.check(addr, ty.size_bytes())?;
        let bytes = &mut self.bytes[addr as usize..];
        match value {
            Value::Int(v) if ty.is_int() => i64::write(ty, &[*v], bytes),
            Value::Float(v) if ty.is_float() => f64::write(ty, &[*v], bytes),
            v => return Err(ExecError::Trap(format!("cannot store {v:?} as {ty}"))),
        }
        Ok(())
    }

    /// How many of `lanes` consecutive scalars of type `ty` from `addr` on
    /// lie in bounds, and the trap [`Memory::check`] raises for the first
    /// that does not.
    fn fit(&self, ty: ScalarType, addr: u64, lanes: usize) -> (usize, Result<(), ExecError>) {
        let size = ty.size_bytes();
        let fit = ((self.bytes.len() as u64).saturating_sub(addr) / size).min(lanes as u64);
        let trap = self.check(addr, size * lanes as u64);
        let trap = trap.or_else(|_| self.check(addr + fit * size, size));
        (fit as usize, trap)
    }

    /// Load consecutive scalars of type `ty` from `addr` (not null) into `v`,
    /// or raise the trap of the first that does not lie in bounds.
    fn load_vec<T: Lane>(&self, ty: ScalarType, addr: u64, v: &mut [T]) -> Result<(), ExecError> {
        self.fit(ty, addr, v.len()).1?;
        T::read(ty, &self.bytes[addr as usize..], v);
        Ok(())
    }

    /// Store the lanes `v` as consecutive scalars of type `ty` from `addr`
    /// (not null), as one scalar store per lane would: the lanes that lie in
    /// bounds are written, then the first that does not raises its trap.
    fn store_vec<T: Lane>(&mut self, ty: ScalarType, addr: u64, v: &[T]) -> Result<(), ExecError> {
        let (fit, trap) = self.fit(ty, addr, v.len());
        if fit > 0 {
            T::write(ty, &v[..fit], &mut self.bytes[addr as usize..]);
        }
        trap
    }

    /// Write a slice of `f32` values starting at `addr`.
    pub fn write_f32s(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.store_scalar(
                ScalarType::F32,
                addr + 4 * i as u64,
                &Value::Float(f64::from(*v)),
            )
            .expect("write_f32s in bounds");
        }
    }

    /// Read `n` `f32` values starting at `addr`.
    pub fn read_f32s(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                self.load_scalar(ScalarType::F32, addr + 4 * i as u64)
                    .expect("read_f32s in bounds")
                    .as_float() as f32
            })
            .collect()
    }

    /// Write a slice of `u8` values starting at `addr`.
    pub fn write_u8s(&mut self, addr: u64, data: &[u8]) {
        self.bytes[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    /// Write a slice of `u16` values starting at `addr`.
    pub fn write_u16s(&mut self, addr: u64, data: &[u16]) {
        let at = addr as usize;
        encode(
            data,
            &mut self.bytes[at..at + 2 * data.len()],
            u16::to_le_bytes,
        );
    }

    /// Write a slice of `i32` values starting at `addr`.
    pub fn write_i32s(&mut self, addr: u64, data: &[i32]) {
        let at = addr as usize;
        encode(
            data,
            &mut self.bytes[at..at + 4 * data.len()],
            i32::to_le_bytes,
        );
    }

    /// Raw access to the underlying bytes (used by the target simulators so
    /// that bytecode and machine code share one address space).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Raw mutable access to the underlying bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

/// Compute the effective address `base + offset` with wrapping semantics,
/// trapping on null or negative results.
///
/// This mirrors the machine simulators' address discipline
/// (`frame.int[base].wrapping_add(offset)` followed by a `<= 0` trap): a
/// negative base or an `i64::MAX` base plus a positive offset is a
/// [`ExecError::Trap`], never an integer-overflow panic or an out-of-range
/// slice.
fn effective_addr(base: i64, offset: i64) -> Result<u64, ExecError> {
    let addr = base.wrapping_add(offset);
    if addr <= 0 {
        return Err(ExecError::Trap(format!("null or negative address {addr}")));
    }
    Ok(addr as u64)
}

/// Normalize a raw `i64` to scalar type `ty` (mask to width, then sign- or
/// zero-extend according to signedness).
pub fn normalize_int(ty: ScalarType, v: i64) -> i64 {
    match ty {
        ScalarType::I8 => v as i8 as i64,
        ScalarType::I16 => v as i16 as i64,
        ScalarType::I32 => v as i32 as i64,
        ScalarType::I64 => v,
        ScalarType::U8 => i64::from(v as u8),
        ScalarType::U16 => i64::from(v as u16),
        ScalarType::U32 => i64::from(v as u32),
        ScalarType::U64 | ScalarType::Ptr => v,
        ScalarType::F32 | ScalarType::F64 => v,
    }
}

/// `v` as a value of float type `ty`: for F32, rounded to single precision
/// and held in an `f64`. Narrowing a NaN keeps its sign and the top 22 bits
/// of its payload and sets its quiet bit, spelled out because `as f32` leaves
/// the NaN it returns unspecified.
fn round_to(ty: ScalarType, v: f64) -> f64 {
    if ty != ScalarType::F32 {
        v
    } else if v.is_nan() {
        f64::from_bits((v.to_bits() | 1 << 51) & !0x1fff_ffff)
    } else {
        f64::from(v as f32)
    }
}

/// The NaN an invalid operation on numbers returns (0/0, ∞ − ∞, 0 × ∞,
/// ∞/∞): negative and quiet, what x86-64 computes at run time, spelled out
/// because Rust leaves it to codegen (LLVM folds `0.0 / 0.0` to a positive
/// one).
const INVALID_NAN: u64 = 0xfff8_0000_0000_0000;

/// `r`, the result of an arithmetic operation on `a` and `b`, with its NaN
/// spelled out, not left to Rust's operators: the first NaN operand, `a`'s
/// before `b`'s, quieted, and [`INVALID_NAN`] when both are numbers.
fn arith(a: f64, b: f64, r: f64) -> f64 {
    if !r.is_nan() {
        r
    } else if a.is_nan() || b.is_nan() {
        let nan = if a.is_nan() { a } else { b };
        f64::from_bits(nan.to_bits() | 1 << 51)
    } else {
        f64::from_bits(INVALID_NAN)
    }
}

/// Evaluate a scalar binary operation with bytecode semantics.
///
/// # Errors
///
/// Returns a trap for division or remainder by zero.
pub fn eval_bin(op: BinOp, ty: ScalarType, lhs: &Value, rhs: &Value) -> Result<Value, ExecError> {
    if ty.is_float() {
        float_op(op, ty, Pair(lhs.as_float(), rhs.as_float())).map(Value::Float)
    } else {
        int_op(op, ty, Pair(lhs.as_int(), rhs.as_int())).map(Value::Int)
    }
}

/// How an operation is applied: to one pair of scalars ([`Pair`]) or lane
/// by lane ([`Zip`]). [`float_op`] and [`int_op`] pick the operation once and
/// pass it to `apply` as a closure of its own type, so a lane loop is
/// compiled once per operator.
trait Apply<T> {
    /// What applying the operation yields.
    type Out;
    /// The right-hand operands: what a division divides by.
    fn divisors(&self) -> &[T];
    /// Apply the operation `f`.
    fn apply(self, f: impl Fn(T, T) -> T) -> Self::Out;
}

/// One scalar operation: `f(a, b)`.
struct Pair<T>(T, T);

impl<T: Copy> Apply<T> for Pair<T> {
    type Out = T;
    fn divisors(&self) -> &[T] {
        std::slice::from_ref(&self.1)
    }
    fn apply(self, f: impl Fn(T, T) -> T) -> T {
        f(self.0, self.1)
    }
}

/// Lane by lane: `out[i] = f(a[i], b[i])`.
struct Zip<'a, T>(&'a [T], &'a [T], &'a mut [T]);

impl<T: Copy> Apply<T> for Zip<'_, T> {
    type Out = ();
    fn divisors(&self) -> &[T] {
        self.1
    }
    fn apply(self, f: impl Fn(T, T) -> T) {
        for ((o, &a), &b) in self.2.iter_mut().zip(self.0).zip(self.1) {
            *o = f(a, b);
        }
    }
}

/// Apply the float operation `op` on type `ty` (each result rounded to
/// `ty`): the one statement of float arithmetic, which [`eval_bin`],
/// `VecBin` and `VecReduce` all run.
fn float_op<A: Apply<f64>>(op: BinOp, ty: ScalarType, run: A) -> Result<A::Out, ExecError> {
    let round = move |r| round_to(ty, r);
    Ok(match op {
        BinOp::Add => run.apply(|a, b| round(arith(a, b, a + b))),
        BinOp::Sub => run.apply(|a, b| round(arith(a, b, a - b))),
        BinOp::Mul => run.apply(|a, b| round(arith(a, b, a * b))),
        BinOp::Div => run.apply(|a, b| round(arith(a, b, a / b))),
        // Spelled out, not `f64::min`/`max`, which leave the sign of a
        // ±0 tie and the NaN returned unspecified: a tie returns `a`, one
        // NaN returns the other operand, two NaNs return `b`.
        BinOp::Min => run.apply(|a, b| round(if a.is_nan() || b < a { b } else { a })),
        BinOp::Max => run.apply(|a, b| round(if a.is_nan() || b > a { b } else { a })),
        other => return Err(ExecError::Trap(format!("float {other} unsupported"))),
    })
}

/// Apply the integer operation `op` on type `ty` (each result normalized
/// to `ty`): the one statement of integer arithmetic, which [`eval_bin`],
/// `VecBin` and `VecReduce` all run. A zero divisor traps before any
/// operand is divided.
fn int_op<A: Apply<i64>>(op: BinOp, ty: ScalarType, run: A) -> Result<A::Out, ExecError> {
    if matches!(op, BinOp::Div | BinOp::Rem) && run.divisors().contains(&0) {
        let what = if op == BinOp::Div {
            "division"
        } else {
            "remainder"
        };
        return Err(ExecError::Trap(format!("integer {what} by zero")));
    }
    let n = move |r| normalize_int(ty, r);
    let unsigned = ty.is_unsigned();
    Ok(match op {
        BinOp::Add => run.apply(|a, b| n(a.wrapping_add(b))),
        BinOp::Sub => run.apply(|a, b| n(a.wrapping_sub(b))),
        BinOp::Mul => run.apply(|a, b| n(a.wrapping_mul(b))),
        BinOp::Div if unsigned => run.apply(|a, b| n(((a as u64) / (b as u64)) as i64)),
        BinOp::Div => run.apply(|a, b| n(a.wrapping_div(b))),
        BinOp::Rem if unsigned => run.apply(|a, b| n(((a as u64) % (b as u64)) as i64)),
        BinOp::Rem => run.apply(|a, b| n(a.wrapping_rem(b))),
        BinOp::And => run.apply(|a, b| n(a & b)),
        BinOp::Or => run.apply(|a, b| n(a | b)),
        BinOp::Xor => run.apply(|a, b| n(a ^ b)),
        // Shift counts are masked modulo 64 (see `BinOp::Shl`): `b as u32`
        // keeps the low 32 bits and `wrapping_shl`/`wrapping_shr` mask those
        // modulo 64, so negative and >= 64 counts reduce to `b & 63` — the
        // exact computation the machine-code `alu` helper performs, which is
        // what keeps all execution paths bit-identical on extreme counts.
        BinOp::Shl => run.apply(|a, b| n(a.wrapping_shl(b as u32))),
        BinOp::Shr if unsigned => run.apply(|a, b| n((a as u64).wrapping_shr(b as u32) as i64)),
        BinOp::Shr => run.apply(|a, b| n(a.wrapping_shr(b as u32))),
        BinOp::Min if unsigned => run.apply(|a, b| n((a as u64).min(b as u64) as i64)),
        BinOp::Min => run.apply(|a, b| n(a.min(b))),
        BinOp::Max if unsigned => run.apply(|a, b| n((a as u64).max(b as u64) as i64)),
        BinOp::Max => run.apply(|a, b| n(a.max(b))),
    })
}

/// Evaluate a scalar comparison with bytecode semantics; returns 0 or 1.
pub fn eval_cmp(op: CmpOp, ty: ScalarType, lhs: &Value, rhs: &Value) -> i64 {
    let ordering = if ty.is_float() {
        lhs.as_float().partial_cmp(&rhs.as_float())
    } else if ty.is_unsigned() {
        Some((lhs.as_int() as u64).cmp(&(rhs.as_int() as u64)))
    } else {
        Some(lhs.as_int().cmp(&rhs.as_int()))
    };
    let Some(ord) = ordering else {
        // NaN comparisons are all false except Ne.
        return i64::from(op == CmpOp::Ne);
    };
    let r = match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    };
    i64::from(r)
}

/// Evaluate a numeric cast with bytecode semantics.
pub fn eval_cast(from: ScalarType, to: ScalarType, v: &Value) -> Value {
    match (from.is_float(), to.is_float()) {
        (true, true) => Value::Float(round_to(to, v.as_float())),
        (true, false) => Value::Int(normalize_int(to, v.as_float() as i64)),
        (false, true) => {
            let x = v.as_int();
            let f = if from.is_unsigned() {
                x as u64 as f64
            } else {
                x as f64
            };
            Value::Float(round_to(to, f))
        }
        (false, false) => Value::Int(normalize_int(to, v.as_int())),
    }
}

/// Statistics collected during one interpreted execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Bytecode instructions executed.
    pub executed: u64,
    /// Scalar and vector memory operations executed.
    pub memory_ops: u64,
    /// Function calls performed (including the entry call).
    pub calls: u64,
}

/// The reference interpreter.
///
/// # Examples
///
/// ```
/// use splitc_vbc::{FunctionBuilder, Interpreter, Memory, Module, ScalarType, Type, Value, BinOp};
///
/// let mut b = FunctionBuilder::new(
///     "double",
///     &[Type::Scalar(ScalarType::I32)],
///     Some(Type::Scalar(ScalarType::I32)),
/// );
/// let x = b.param(0);
/// let two = b.const_int(ScalarType::I32, 2);
/// let y = b.bin(BinOp::Mul, ScalarType::I32, x, two);
/// b.ret(Some(y));
/// let mut m = Module::new("demo");
/// m.add_function(b.finish());
///
/// let mut interp = Interpreter::new(&m);
/// let mut mem = Memory::new(64);
/// let out = interp.run("double", &[Value::Int(21)], &mut mem).unwrap();
/// assert_eq!(out, Some(Value::Int(42)));
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    module: &'m Module,
    vector_width_bytes: u64,
    fuel: u64,
    stats: ExecStats,
    /// Recycled register files: one `Vec<Value>` per active call depth,
    /// returned here when the call ends so sibling and repeated calls reuse
    /// the allocation instead of building a fresh `vec![Value::Int(0); n]`.
    reg_pool: Vec<Vec<Value>>,
    /// Recycled call-argument scratch buffers (one per active call depth),
    /// so `Call` no longer collects a fresh `Vec<Value>` per invocation.
    argv_pool: Vec<Vec<Value>>,
    /// Scratch lane buffers, one per kind: a vector instruction builds its
    /// lanes in the one of their kind and swaps it into its destination
    /// register (see [`Interpreter::put_lanes`]).
    ints: Vec<i64>,
    floats: Vec<f64>,
}

impl<'m> Interpreter<'m> {
    /// Create an interpreter over `module` with the default vector width and fuel.
    pub fn new(module: &'m Module) -> Self {
        Interpreter {
            module,
            vector_width_bytes: DEFAULT_VECTOR_WIDTH_BYTES,
            fuel: DEFAULT_FUEL,
            stats: ExecStats::default(),
            reg_pool: Vec::new(),
            argv_pool: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
        }
    }

    /// Override the vector width (bytes) used for the portable vector builtins.
    pub fn with_vector_width(mut self, bytes: u64) -> Self {
        self.vector_width_bytes = bytes;
        self
    }

    /// Override the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Statistics from the most recent [`Interpreter::run`] call.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Execute `func` with `args` against `mem` and return its result.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on unknown functions, argument mismatches,
    /// runtime traps or fuel exhaustion.
    pub fn run(
        &mut self,
        func: &str,
        args: &[Value],
        mem: &mut Memory,
    ) -> Result<Option<Value>, ExecError> {
        self.stats = ExecStats::default();
        let mut fuel = self.fuel;
        let out = self.call_function(func, args, mem, &mut fuel);
        // Every step spends one unit of fuel, so the fuel spent counts them.
        self.stats.executed = self.fuel - fuel;
        out
    }

    /// Move the lanes just built in the scratch buffer of their kind into
    /// `dst`. A vector register of that kind hands its old buffer back as the
    /// next scratch; any other register takes the buffer, and a new one with
    /// room for the narrowest element's lanes replaces it, so none grows.
    fn put_lanes(&mut self, float: bool, dst: &mut Value) {
        let n = self.vector_width_bytes as usize;
        let (floats, ints) = (&mut self.floats, &mut self.ints);
        match (dst, float) {
            (Value::Vector(Lanes::Float(old)), true) => std::mem::swap(old, floats),
            (Value::Vector(Lanes::Int(old)), false) => std::mem::swap(old, ints),
            (dst, true) => {
                *dst = Value::Vector(Lanes::Float(replace(floats, Vec::with_capacity(n))))
            }
            (dst, false) => *dst = Value::Vector(Lanes::Int(replace(ints, Vec::with_capacity(n)))),
        }
    }

    fn call_function(
        &mut self,
        name: &str,
        args: &[Value],
        mem: &mut Memory,
        fuel: &mut u64,
    ) -> Result<Option<Value>, ExecError> {
        let f = self
            .module
            .function(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_owned()))?;
        if args.len() != f.params.len() {
            return Err(ExecError::BadArgumentCount {
                expected: f.params.len(),
                found: args.len(),
            });
        }
        self.stats.calls += 1;
        // The register file comes from the pool: repeated and sibling calls
        // reuse one allocation instead of building a fresh Vec per call.
        let mut regs = self.reg_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(f.num_vregs(), Value::Int(0));
        for ((r, _), v) in f.params.iter().zip(args) {
            regs[r.index()].assign_from(v);
        }
        let result = self.exec_function(f, &mut regs, mem, fuel);
        regs.clear();
        self.reg_pool.push(regs);
        result
    }

    fn exec_function(
        &mut self,
        f: &'m crate::Function,
        regs: &mut [Value],
        mem: &mut Memory,
        fuel: &mut u64,
    ) -> Result<Option<Value>, ExecError> {
        let mut block = f.entry;
        // The current block's instructions, fetched again only on a jump or
        // branch; borrowed (lifetime `'m`) rather than cloned per step.
        let mut insts = &f.block(block).insts[..];
        let mut index = 0usize;
        loop {
            if *fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            *fuel -= 1;
            let inst = insts
                .get(index)
                .ok_or_else(|| ExecError::Trap(format!("fell off the end of {block}")))?;
            index += 1;
            match *inst {
                Inst::Const { dst, ty, imm } => {
                    regs[dst.index()] = if ty.is_float() {
                        // Canonicalize even if the module carries an
                        // unrounded double (e.g. built by hand or decoded
                        // from an older wire format), so the interpreter
                        // agrees with every compiled path.
                        Value::Float(ty.canonicalize_float(imm.as_f64()))
                    } else {
                        Value::Int(normalize_int(ty, imm.as_i64()))
                    };
                }
                Inst::Move { dst, src, .. } => copy_reg(regs, dst.index(), src.index()),
                Inst::Bin {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[dst.index()] = eval_bin(op, ty, &regs[lhs.index()], &regs[rhs.index()])?;
                }
                Inst::Un { op, ty, dst, src } => {
                    let v = &regs[src.index()];
                    regs[dst.index()] = match op {
                        UnOp::Neg => {
                            if ty.is_float() {
                                Value::Float(-v.as_float())
                            } else {
                                Value::Int(normalize_int(ty, v.as_int().wrapping_neg()))
                            }
                        }
                        UnOp::Not => Value::Int(normalize_int(ty, !v.as_int())),
                    };
                }
                Inst::Cmp {
                    op,
                    ty,
                    dst,
                    lhs,
                    rhs,
                } => {
                    regs[dst.index()] =
                        Value::Int(eval_cmp(op, ty, &regs[lhs.index()], &regs[rhs.index()]));
                }
                Inst::Cast { dst, to, src, from } => {
                    regs[dst.index()] = eval_cast(from, to, &regs[src.index()]);
                }
                Inst::Load {
                    dst,
                    ty,
                    addr,
                    offset,
                } => {
                    self.stats.memory_ops += 1;
                    let a = effective_addr(regs[addr.index()].as_int(), offset)?;
                    regs[dst.index()] = mem.load_scalar(ty, a)?;
                }
                Inst::Store {
                    ty,
                    addr,
                    offset,
                    value,
                } => {
                    self.stats.memory_ops += 1;
                    let a = effective_addr(regs[addr.index()].as_int(), offset)?;
                    mem.store_scalar(ty, a, &regs[value.index()])?;
                }
                Inst::Call { dst, ref site } => {
                    let CallSite { callee, args } = &**site;
                    // The argument buffer comes from a pool instead of being
                    // collected fresh per call; the error paths just drop it
                    // (the pool refills on the next successful call).
                    let mut argv = self.argv_pool.pop().unwrap_or_default();
                    argv.clear();
                    argv.extend(args.iter().map(|r| regs[r.index()].clone()));
                    let out = self.call_function(callee, &argv, mem, fuel)?;
                    argv.clear();
                    self.argv_pool.push(argv);
                    if let Some(d) = dst {
                        regs[d.index()] = out.ok_or_else(|| {
                            ExecError::Trap(format!("call to {callee} produced no value"))
                        })?;
                    }
                }
                Inst::VecWidth { dst, elem } => {
                    regs[dst.index()] =
                        Value::Int(elem.lanes_for_width(self.vector_width_bytes) as i64);
                }
                Inst::VecSplat { dst, elem, src } => {
                    let lanes = elem.lanes_for_width(self.vector_width_bytes) as usize;
                    let (src, dst) = (src.index(), dst.index());
                    if elem.is_float() {
                        scratch(&mut self.floats, lanes).fill(regs[src].as_float());
                        self.put_lanes(true, &mut regs[dst]);
                    } else {
                        scratch(&mut self.ints, lanes).fill(regs[src].as_int());
                        self.put_lanes(false, &mut regs[dst]);
                    }
                }
                Inst::VecLoad {
                    dst,
                    elem,
                    addr,
                    offset,
                } => {
                    self.stats.memory_ops += 1;
                    let lanes = elem.lanes_for_width(self.vector_width_bytes) as usize;
                    let base = effective_addr(regs[addr.index()].as_int(), offset)?;
                    let dst = &mut regs[dst.index()];
                    if elem.is_float() {
                        mem.load_vec(elem, base, scratch(&mut self.floats, lanes))?;
                        self.put_lanes(true, dst);
                    } else {
                        mem.load_vec(elem, base, scratch(&mut self.ints, lanes))?;
                        self.put_lanes(false, dst);
                    }
                }
                Inst::VecStore {
                    elem,
                    addr,
                    offset,
                    value,
                } => {
                    self.stats.memory_ops += 1;
                    let base = effective_addr(regs[addr.index()].as_int(), offset)?;
                    match regs[value.index()].as_vector() {
                        Lanes::Int(v) if elem.is_int() => mem.store_vec(elem, base, v)?,
                        Lanes::Float(v) if elem.is_float() => mem.store_vec(elem, base, v)?,
                        // Lanes of the wrong kind trap as lane 0's scalar
                        // store does (bounds first) and write nothing.
                        Lanes::Int(v) => mem.store_scalar(elem, base, &Value::Int(v[0]))?,
                        Lanes::Float(v) => mem.store_scalar(elem, base, &Value::Float(v[0]))?,
                    }
                }
                Inst::VecBin {
                    op,
                    elem,
                    dst,
                    lhs,
                    rhs,
                } => {
                    let (a, b) = (regs[lhs.index()].as_vector(), regs[rhs.index()].as_vector());
                    if a.len() != b.len() {
                        return Err(ExecError::Trap("vector lane count mismatch".into()));
                    }
                    match (a, b) {
                        (Lanes::Float(a), Lanes::Float(b)) if elem.is_float() => {
                            let out = scratch(&mut self.floats, a.len());
                            float_op(op, elem, Zip(a, b, out))?;
                            self.put_lanes(true, &mut regs[dst.index()]);
                        }
                        (Lanes::Int(a), Lanes::Int(b)) if elem.is_int() => {
                            let out = scratch(&mut self.ints, a.len());
                            int_op(op, elem, Zip(a, b, out))?;
                            self.put_lanes(false, &mut regs[dst.index()]);
                        }
                        _ => panic!("vector {op}.{elem} of lanes of another kind: {a:?}, {b:?}"),
                    }
                }
                Inst::VecReduce { op, elem, dst, src } => {
                    let op = op.as_bin_op();
                    let empty = || ExecError::Trap("reduction of empty vector".into());
                    regs[dst.index()] = match regs[src.index()].as_vector() {
                        Lanes::Float(v) if elem.is_float() => {
                            let (&first, rest) = v.split_first().ok_or_else(empty)?;
                            let pair = |acc, &x| float_op(op, elem, Pair(acc, x));
                            Value::Float(rest.iter().try_fold(first, pair)?)
                        }
                        Lanes::Int(v) if elem.is_int() => {
                            let (&first, rest) = v.split_first().ok_or_else(empty)?;
                            let pair = |acc, &x| int_op(op, elem, Pair(acc, x));
                            Value::Int(rest.iter().try_fold(first, pair)?)
                        }
                        other => {
                            panic!("vector reduce {op}.{elem} of lanes of another kind: {other:?}")
                        }
                    };
                }
                Inst::Jump { target } => {
                    block = target;
                    insts = &f.block(block).insts;
                    index = 0;
                }
                Inst::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    block = if regs[cond.index()].as_int() != 0 {
                        then_bb
                    } else {
                        else_bb
                    };
                    insts = &f.block(block).insts;
                    index = 0;
                }
                Inst::Ret { value } => {
                    return Ok(value.map(|r| regs[r.index()].clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::ReduceOp;
    use crate::types::Type;

    fn run_simple(f: crate::Function, args: &[Value]) -> Option<Value> {
        let mut m = Module::new("t");
        let name = f.name.clone();
        m.add_function(f);
        let mut interp = Interpreter::new(&m);
        let mut mem = Memory::new(1 << 16);
        interp
            .run(&name, args, &mut mem)
            .expect("execution succeeds")
    }

    #[test]
    fn arithmetic_and_wrapping() {
        let mut b = FunctionBuilder::new(
            "wrap",
            &[Type::Scalar(ScalarType::U8), Type::Scalar(ScalarType::U8)],
            Some(Type::Scalar(ScalarType::U8)),
        );
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, ScalarType::U8, x, y);
        b.ret(Some(s));
        let out = run_simple(b.finish(), &[Value::Int(200), Value::Int(100)]);
        assert_eq!(out, Some(Value::Int(44))); // 300 mod 256
    }

    #[test]
    fn unsigned_vs_signed_comparison() {
        assert_eq!(
            eval_cmp(CmpOp::Lt, ScalarType::I8, &Value::Int(-1), &Value::Int(1)),
            1
        );
        assert_eq!(
            eval_cmp(CmpOp::Lt, ScalarType::U64, &Value::Int(-1), &Value::Int(1)),
            0,
            "-1 as unsigned is the maximum value"
        );
        assert_eq!(
            eval_cmp(
                CmpOp::Ne,
                ScalarType::F32,
                &Value::Float(f64::NAN),
                &Value::Float(1.0)
            ),
            1
        );
        assert_eq!(
            eval_cmp(
                CmpOp::Eq,
                ScalarType::F32,
                &Value::Float(f64::NAN),
                &Value::Float(1.0)
            ),
            0
        );
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
        let eval =
            |op, ty, a: f64, b: f64| match eval_bin(op, ty, &Value::Float(a), &Value::Float(b)) {
                Ok(Value::Float(v)) => v,
                other => panic!("{op} {ty}: {other:?}"),
            };
        for (a, b, min, max) in cases {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b));
            assert_eq!(eval(BinOp::Min, ScalarType::F64, a, b).to_bits(), min);
            assert_eq!(eval(BinOp::Max, ScalarType::F64, a, b).to_bits(), max);
            // Single precision: the same operands as f32 values, widened.
            let single = |v: f64| f64::from(v as f32);
            let bits32 = |v: u64| (f64::from_bits(v) as f32).to_bits();
            let (a32, b32) = (single(a), single(b));
            let got = |op| (eval(op, ScalarType::F32, a32, b32) as f32).to_bits();
            assert_eq!(got(BinOp::Min), bits32(min), "f32 min {a} {b}");
            assert_eq!(got(BinOp::Max), bits32(max), "f32 max {a} {b}");
        }
    }

    #[test]
    fn float_arithmetic_returns_its_first_nan_operand_quieted() {
        // f64 bit patterns: a signalling and a quiet NaN whose payloads fit
        // an f32 (the low 29 bits are clear), and a number.
        let (snan, qnan, x) = (
            0xfff4_0000_2000_0000,
            0x7ffa_bcde_0000_0000,
            1.5f64.to_bits(),
        );
        let quiet = |v: u64| v | 1 << 51;
        let cases = [
            (snan, x, quiet(snan)),
            (x, snan, quiet(snan)),
            (qnan, x, qnan),
            (x, qnan, qnan),
            (snan, qnan, quiet(snan)),
            (qnan, snan, qnan),
        ];
        let eval = |op, ty, a: u64, b: u64| {
            let (a, b) = (
                Value::Float(f64::from_bits(a)),
                Value::Float(f64::from_bits(b)),
            );
            match eval_bin(op, ty, &a, &b) {
                Ok(Value::Float(v)) => v.to_bits(),
                other => panic!("{op} {ty}: {other:?}"),
            }
        };
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            for (a, b, want) in cases {
                for ty in [ScalarType::F64, ScalarType::F32] {
                    assert_eq!(eval(op, ty, a, b), want, "{op} {ty} {a:#x} {b:#x}");
                }
            }
        }
        // Narrowing to f32 keeps a NaN's sign and the top 22 bits of its
        // payload, and sets its quiet bit.
        let (low, high) = (0x7ff0_0000_0000_0001, 0xfff0_0001_e000_0001);
        for (v, narrowed) in [(low, 0x7ff8_0000_0000_0000), (high, 0xfff8_0001_e000_0000)] {
            assert_eq!(eval(BinOp::Add, ScalarType::F32, v, x), narrowed, "{v:#x}");
            let cast = eval_cast(
                ScalarType::F64,
                ScalarType::F32,
                &Value::Float(f64::from_bits(v)),
            );
            assert_eq!(cast.as_float().to_bits(), narrowed, "{v:#x}");
        }
    }

    #[test]
    fn an_invalid_operation_on_numbers_returns_the_negative_quiet_nan() {
        use std::hint::black_box;
        let (zero, inf) = (black_box(0.0f64), black_box(f64::INFINITY));
        for (op, a, b) in [
            (BinOp::Div, zero, zero),
            (BinOp::Sub, inf, inf),
            (BinOp::Add, inf, -inf),
            (BinOp::Mul, zero, inf),
            (BinOp::Div, inf, inf),
        ] {
            let (a, b) = (Value::Float(black_box(a)), Value::Float(black_box(b)));
            let double = eval_bin(op, ScalarType::F64, &a, &b).unwrap().as_float();
            assert_eq!(double.to_bits(), INVALID_NAN, "{op} {a:?} {b:?}");
            // Single precision: the f32 default NaN, widened.
            let single = eval_bin(op, ScalarType::F32, &a, &b).unwrap().as_float();
            assert_eq!(single.to_bits(), INVALID_NAN, "f32 {op} {a:?} {b:?}");
            assert_eq!(
                (single as f32).to_bits(),
                0xffc0_0000,
                "f32 {op} {a:?} {b:?}"
            );
        }
    }

    #[test]
    fn division_by_zero_traps() {
        let mut b = FunctionBuilder::new(
            "div",
            &[Type::Scalar(ScalarType::I32), Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = b.param(0);
        let y = b.param(1);
        let q = b.bin(BinOp::Div, ScalarType::I32, x, y);
        b.ret(Some(q));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut interp = Interpreter::new(&m);
        let mut mem = Memory::new(64);
        let err = interp
            .run("div", &[Value::Int(1), Value::Int(0)], &mut mem)
            .unwrap_err();
        assert!(matches!(err, ExecError::Trap(_)));
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let mut b = FunctionBuilder::new(
            "copy4",
            &[Type::Scalar(ScalarType::Ptr), Type::Scalar(ScalarType::Ptr)],
            None,
        );
        let dst = b.param(0);
        let src = b.param(1);
        for i in 0..4 {
            let v = b.load(ScalarType::F32, src, i * 4);
            b.store(ScalarType::F32, dst, i * 4, v);
        }
        b.ret(None);
        let mut m = Module::new("t");
        m.add_function(b.finish());

        let mut mem = Memory::new(1 << 10);
        let src = mem.alloc(16);
        let dst = mem.alloc(16);
        mem.write_f32s(src, &[1.5, -2.0, 3.25, 0.0]);
        let mut interp = Interpreter::new(&m);
        interp
            .run(
                "copy4",
                &[Value::Int(dst as i64), Value::Int(src as i64)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(mem.read_f32s(dst, 4), vec![1.5, -2.0, 3.25, 0.0]);
        assert_eq!(interp.stats().memory_ops, 8);
    }

    #[test]
    fn vector_ops_match_scalar_semantics() {
        // Load 4 f32, multiply by a splat of 2.0, reduce-add.
        let mut b = FunctionBuilder::new(
            "vsum2x",
            &[Type::Scalar(ScalarType::Ptr)],
            Some(Type::Scalar(ScalarType::F32)),
        );
        let p = b.param(0);
        let two = b.const_float(ScalarType::F32, 2.0);
        let v = b.vec_load(ScalarType::F32, p, 0);
        let s = b.vec_splat(ScalarType::F32, two);
        let m_ = b.vec_bin(BinOp::Mul, ScalarType::F32, v, s);
        let r = b.vec_reduce(ReduceOp::Add, ScalarType::F32, m_);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());

        let mut mem = Memory::new(1 << 10);
        let p = mem.alloc(16);
        mem.write_f32s(p, &[1.0, 2.0, 3.0, 4.0]);
        let mut interp = Interpreter::new(&m);
        let out = interp
            .run("vsum2x", &[Value::Int(p as i64)], &mut mem)
            .unwrap();
        assert_eq!(out, Some(Value::Float(20.0)));
    }

    #[test]
    fn vec_width_respects_configuration() {
        let mut b = FunctionBuilder::new("w", &[], Some(Type::Scalar(ScalarType::I64)));
        let w = b.vec_width(ScalarType::U8);
        b.ret(Some(w));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut mem = Memory::new(64);
        let mut interp = Interpreter::new(&m).with_vector_width(32);
        assert_eq!(
            interp.run("w", &[], &mut mem).unwrap(),
            Some(Value::Int(32))
        );
        let mut interp16 = Interpreter::new(&m);
        assert_eq!(
            interp16.run("w", &[], &mut mem).unwrap(),
            Some(Value::Int(16))
        );
    }

    /// Run `f`, which verification rejects, to the panic it meets.
    fn run_ill_typed(f: crate::Function) {
        assert!(crate::verify_function(&f).is_err(), "{} verifies", f.name);
        run_simple(f, &[]);
    }

    #[test]
    #[should_panic(expected = "expected float value, found Vector")]
    fn splatting_a_vector_register_panics() {
        let mut b = FunctionBuilder::new("nest", &[], None);
        let one = b.const_float(ScalarType::F32, 1.0);
        let v = b.vec_splat(ScalarType::F32, one);
        b.vec_splat(ScalarType::F32, v);
        b.ret(None);
        run_ill_typed(b.finish());
    }

    #[test]
    #[should_panic(expected = "vector add.f32 of lanes of another kind")]
    fn a_float_vector_operation_over_int_lanes_panics() {
        let mut b = FunctionBuilder::new("mixed", &[], None);
        let one = b.const_int(ScalarType::I32, 1);
        let v = b.vec_splat(ScalarType::I32, one);
        b.vec_bin(BinOp::Add, ScalarType::F32, v, v);
        b.ret(None);
        run_ill_typed(b.finish());
    }

    #[test]
    fn shift_counts_mask_modulo_64_on_every_type() {
        let shl = |ty, a: i64, b: i64| {
            eval_bin(BinOp::Shl, ty, &Value::Int(a), &Value::Int(b))
                .unwrap()
                .as_int()
        };
        let shr = |ty, a: i64, b: i64| {
            eval_bin(BinOp::Shr, ty, &Value::Int(a), &Value::Int(b))
                .unwrap()
                .as_int()
        };
        // Counts >= 64 wrap around the 64-bit register width...
        assert_eq!(shl(ScalarType::I64, 1, 64), 1);
        assert_eq!(shl(ScalarType::I64, 1, 65), 2);
        assert_eq!(shl(ScalarType::I64, 1, 127), i64::MIN);
        // ...negative counts reduce to `count & 63`...
        assert_eq!(shl(ScalarType::I64, 1, -1), i64::MIN); // -1 & 63 == 63
        assert_eq!(shr(ScalarType::I64, i64::MIN, -1), -1); // arithmetic
                                                            // ...and the mask is 64-wide even for narrow types: the bit leaves
                                                            // the register's low 32 bits instead of wrapping at the type width.
        assert_eq!(shl(ScalarType::I32, 1, 33), 0);
        assert_eq!(shl(ScalarType::I32, 1, 65), 2);
        // Arithmetic vs logical right shift across the sign boundary.
        assert_eq!(shr(ScalarType::I32, -8, 1), -4);
        assert_eq!(shr(ScalarType::U32, 0xffff_ffff, 1), 0x7fff_ffff);
        // A narrow negative keeps its sign fill past the operand width.
        assert_eq!(shr(ScalarType::I8, -1, 40), -1);
    }

    #[test]
    fn hostile_effective_addresses_trap_instead_of_panicking() {
        // Regression: `(base + offset) as u64` used to panic on overflow in
        // debug builds (i64::MAX base) and, for small negative bases, wrap
        // `addr + len` past the bounds check and panic on the slice.
        let mut b = FunctionBuilder::new(
            "peek",
            &[Type::Scalar(ScalarType::Ptr)],
            Some(Type::Scalar(ScalarType::I64)),
        );
        let p = b.param(0);
        let v = b.load(ScalarType::I64, p, 8);
        b.ret(Some(v));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut interp = Interpreter::new(&m);
        let mut mem = Memory::new(1 << 10);
        for base in [
            -9i64,        // effective address -1: negative base
            -12,          // effective -4: wrapped `addr + len` over u64::MAX pre-fix
            i64::MIN,     // extreme negative
            i64::MAX,     // base + offset overflows i64 (panicked in debug pre-fix)
            i64::MAX - 8, // effective i64::MAX: far past the end, no i64 overflow
        ] {
            let err = interp
                .run("peek", &[Value::Int(base)], &mut mem)
                .unwrap_err();
            assert!(
                matches!(err, ExecError::Trap(_)),
                "base {base} must trap, got {err:?}"
            );
        }
        // The raw memory API rejects a wrapping `addr + len` as well (the
        // address a negative base reinterprets to, taken directly).
        assert!(matches!(
            mem.load_scalar(ScalarType::I64, u64::MAX - 4).unwrap_err(),
            ExecError::Trap(_)
        ));
        // A straddling access (valid base, end past the memory) traps too.
        let last = (1 << 10) - 4;
        let err = interp
            .run("peek", &[Value::Int(last - 8)], &mut mem)
            .unwrap_err();
        assert!(matches!(err, ExecError::Trap(_)));
        // And an in-bounds access still works.
        assert_eq!(
            interp.run("peek", &[Value::Int(16)], &mut mem).unwrap(),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn hostile_store_and_vector_addresses_trap_too() {
        let mut b = FunctionBuilder::new("poke", &[Type::Scalar(ScalarType::Ptr)], None);
        let p = b.param(0);
        let one = b.const_int(ScalarType::I32, 1);
        b.store(ScalarType::I32, p, 0, one);
        b.ret(None);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut interp = Interpreter::new(&m);
        let mut mem = Memory::new(256);
        for base in [-1i64, -4, i64::MAX] {
            let err = interp
                .run("poke", &[Value::Int(base)], &mut mem)
                .unwrap_err();
            assert!(matches!(err, ExecError::Trap(_)), "store base {base}");
        }

        let mut b = FunctionBuilder::new("vpeek", &[Type::Scalar(ScalarType::Ptr)], None);
        let p = b.param(0);
        let _ = b.vec_load(ScalarType::F32, p, 0);
        b.ret(None);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut interp = Interpreter::new(&m);
        for base in [-1i64, i64::MAX, 250] {
            // 250: the 16-byte vector straddles the end of the 256-byte memory.
            let err = interp
                .run("vpeek", &[Value::Int(base)], &mut mem)
                .unwrap_err();
            assert!(matches!(err, ExecError::Trap(_)), "vector base {base}");
        }
    }

    #[test]
    fn out_of_fuel_is_detected() {
        let mut b = FunctionBuilder::new("spin", &[], None);
        let header = b.new_block();
        b.jump(header);
        b.switch_to(header);
        b.jump(header);
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let mut interp = Interpreter::new(&m).with_fuel(1000);
        let mut mem = Memory::new(64);
        assert_eq!(
            interp.run("spin", &[], &mut mem).unwrap_err(),
            ExecError::OutOfFuel
        );
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut callee = FunctionBuilder::new(
            "square",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = callee.param(0);
        let s = callee.bin(BinOp::Mul, ScalarType::I32, x, x);
        callee.ret(Some(s));

        let mut caller = FunctionBuilder::new(
            "sum_of_squares",
            &[Type::Scalar(ScalarType::I32), Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let a = caller.param(0);
        let bb = caller.param(1);
        let sa = caller
            .call("square", &[a], Some(Type::Scalar(ScalarType::I32)))
            .unwrap();
        let sb = caller
            .call("square", &[bb], Some(Type::Scalar(ScalarType::I32)))
            .unwrap();
        let t = caller.bin(BinOp::Add, ScalarType::I32, sa, sb);
        caller.ret(Some(t));

        let mut m = Module::new("t");
        m.add_function(callee.finish());
        m.add_function(caller.finish());
        let mut interp = Interpreter::new(&m);
        let mut mem = Memory::new(64);
        let out = interp
            .run("sum_of_squares", &[Value::Int(3), Value::Int(4)], &mut mem)
            .unwrap();
        assert_eq!(out, Some(Value::Int(25)));
        assert_eq!(interp.stats().calls, 3);
    }

    #[test]
    fn null_and_out_of_bounds_accesses_trap() {
        let mut mem = Memory::new(32);
        assert!(mem.load_scalar(ScalarType::I32, 0).is_err());
        assert!(mem.load_scalar(ScalarType::I64, 30).is_err());
        assert!(mem
            .store_scalar(ScalarType::I32, 0, &Value::Int(1))
            .is_err());
    }

    #[test]
    fn casts_between_domains() {
        assert_eq!(
            eval_cast(ScalarType::F64, ScalarType::I32, &Value::Float(3.9)),
            Value::Int(3)
        );
        assert_eq!(
            eval_cast(ScalarType::I32, ScalarType::F32, &Value::Int(-2)),
            Value::Float(-2.0)
        );
        assert_eq!(
            eval_cast(ScalarType::U8, ScalarType::F32, &Value::Int(255)),
            Value::Float(255.0)
        );
        assert_eq!(
            eval_cast(ScalarType::I64, ScalarType::U8, &Value::Int(257)),
            Value::Int(1)
        );
    }
}
