//! Compact binary encoding of bytecode modules.
//!
//! The paper argues (Section 2.1, citing CLI size studies) that a
//! target-independent bytecode is a *compact* deployment format compared to
//! native binaries. This module provides the deployment format of the
//! reproduction: a byte-oriented encoding with LEB128 variable-length
//! integers, used by the code-size experiment (E5) and by round-trip tests.
//!
//! The decoder is a **trust boundary**: encoded modules travel across
//! processes and now persist on disk in the runtime's artifact store, where
//! they can be truncated, corrupted or version-skewed between the process
//! that wrote them and the one that reads them. Every length is
//! overflow-checked, every LEB128 terminator is validated for canonicality
//! (an overflowing or a padded encoding would let two byte strings alias one
//! value, and module identity is the encoding),
//! and a decode only succeeds if it consumes the buffer *exactly* —
//! trailing bytes are rejected, so a concatenated or padded entry can never
//! decode silently. Register and block numbers are 32-bit on both sides of
//! the wire: a LEB128 value past `u32::MAX` in such a position is an error,
//! never truncated to the index it would alias. Hostile inputs must always
//! produce a [`DecodeError`], never a panic and never a wrong module.
//!
//! Decoding is also the first thing a device does with a module, so it is
//! kept cheap: [`Reader::uleb`] reads the one-byte integers that make up most
//! of an encoding (register numbers, small counts) without entering the
//! general loop, strings are moved into the structures that own them, and
//! every collection is sized from its length field — through `cap_hint`, so
//! that a hostile count can claim at most `MAX_PREALLOC` elements of memory
//! before the truncated input fails. A function's annotations are the two
//! typed records online code reads, behind one presence byte: a keep ranking
//! costs one allocation, and kernel traits one byte.
//!
//! There is one codec trait, [`Wire`], for both wire formats of the
//! workspace: this module implements it for the bytecode, and the artifact
//! store implements it for compiled machine code. The primitives
//! ([`Writer`], [`Reader`]) and the format-independent impls (integers,
//! floats, strings, flags, `Option`, `Vec`, pairs) are shared, so each
//! strictness rule is written once. A change to a shared impl therefore
//! changes *both* formats: it must bump [`VERSION`], which every store entry
//! records in its header, so entries written under the old rules fail the
//! store's vbc-version rung instead of being misread.

use crate::annotations::{AnnotationSet, KernelTraits, SpillOrder};
use crate::function::{Block, Function};
use crate::inst::{
    inst_shapes, BinOp, BlockId, CallSite, CmpOp, Immediate, Inst, ReduceOp, UnOp, VReg,
};
use crate::module::Module;
use crate::types::{ScalarType, Type};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Magic bytes at the start of every encoded module.
pub const MAGIC: &[u8; 4] = b"SVBC";
/// Current format version.
pub const VERSION: u8 = 2;

/// An error raised while decoding a module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not supported.
    BadVersion(u8),
    /// The buffer ended in the middle of a field.
    UnexpectedEof,
    /// A tag byte does not correspond to any known construct.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A string field is not valid UTF-8.
    BadString,
    /// The buffer contains well-formed data followed by extra bytes. A
    /// decode must consume its input exactly: accepting a padded or
    /// concatenated buffer would let distinct byte strings decode to the
    /// same module.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "missing SVBC magic bytes"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            DecodeError::BadString => write!(f, "invalid UTF-8 in string field"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after a complete value"),
        }
    }
}

impl Error for DecodeError {}

/// Low-level encoder for the wire formats of this workspace: bytes, LEB128
/// variable-length integers (unsigned, and signed via zigzag), raw IEEE-754
/// doubles and length-prefixed UTF-8 strings.
///
/// Public so sibling wire formats (the runtime's on-disk artifact store)
/// encode with exactly the discipline [`encode_module`] uses, and decode
/// with the matching hardened [`Reader`].
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Default for Writer {
    fn default() -> Self {
        Writer::new()
    }
}

impl Writer {
    /// A writer that accumulates bytes into a buffer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }
    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a fixed-width little-endian `u64` (used by headers whose
    /// layout must not depend on the value, e.g. checksums).
    pub fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Append an unsigned LEB128 integer.
    pub fn uleb(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.u8(byte);
                break;
            }
            self.u8(byte | 0x80);
        }
    }
    /// Append a signed LEB128 integer (zigzag encoding).
    pub fn sleb(&mut self, v: i64) {
        self.uleb(((v << 1) ^ (v >> 63)) as u64);
    }
    /// Append an `f64` as its raw little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.uleb(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Cap on speculative `Vec::with_capacity` hints while decoding.
///
/// A corrupted length field can claim up to 2⁶⁴ elements; passing that to
/// `with_capacity` would turn one flipped bit into an allocation abort —
/// a panic the decoder promises never to produce. Collections still grow
/// to their true decoded size; this bounds only the pre-allocation hint,
/// and truncated inputs fail with [`DecodeError::UnexpectedEof`] long
/// before a hostile length is ever filled in.
const MAX_PREALLOC: usize = 1 << 12;

/// A pre-allocation hint that a hostile length cannot weaponize.
fn cap_hint(n: usize) -> usize {
    n.min(MAX_PREALLOC)
}

/// Hardened decoder over a byte slice, the counterpart of [`Writer`].
///
/// All reads are bounds-checked (no arithmetic overflow on hostile
/// lengths), LEB128 terminators are validated for canonicality, and the
/// caller can assert full consumption via [`Reader::finish`]. See the
/// [module documentation](self) for the trust-boundary rationale.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    /// The unconsumed tail of the buffer.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
    /// Assert the buffer was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if unconsumed bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(())
    }
    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] at the end of the buffer.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }
    /// Read a fixed-width little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn u64_le(&mut self) -> Result<u64, DecodeError> {
        if self.remaining() < 8 {
            return Err(DecodeError::UnexpectedEof);
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(bytes))
    }
    /// Read an unsigned LEB128 integer.
    ///
    /// Rejects non-canonical encodings: a final byte whose bits would be
    /// shifted past bit 63 is an error, never silently truncated, and so is
    /// a multi-byte encoding whose final byte adds no bits (`80 00` for 0).
    /// (The historical decoder kept only the low bit of a 10th byte, so e.g.
    /// `ff…ff 03` aliased to the same value as `ff…ff 01`, and it took any
    /// padding — two distinct byte strings decoding to one integer, which
    /// breaks every consumer that equates encodings with values: module
    /// identity is the encoding.) [`Writer::uleb`] only emits the minimal
    /// form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] on truncation, or
    /// [`DecodeError::BadTag`] if the value overflows 64 bits, the final
    /// byte carries discarded bits, or the encoding is padded.
    #[inline]
    pub fn uleb(&mut self) -> Result<u64, DecodeError> {
        // Register numbers, tags and most counts fit seven bits. A lone byte
        // below 0x80 is always the canonical encoding of its own value, so
        // this path has nothing to validate.
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.uleb_multibyte(),
        }
    }

    /// [`Reader::uleb`] when the first byte is a continuation byte (or
    /// missing): the general loop, with the canonicality checks.
    fn uleb_multibyte(&mut self) -> Result<u64, DecodeError> {
        let mut shift = 0u32;
        let mut out = 0u64;
        loop {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            // An 11th byte (shift 70) always overflows; a 10th byte
            // (shift 63) may only contribute its lowest bit.
            if shift >= 64 || (shift > 57 && bits >> (64 - shift) != 0) {
                return Err(DecodeError::BadTag {
                    what: "uleb128",
                    tag: b,
                });
            }
            out |= bits << shift;
            if b & 0x80 == 0 {
                // The first byte continued (or this is not the multi-byte
                // path), so a final byte without payload is padding.
                if bits == 0 {
                    return Err(DecodeError::BadTag {
                        what: "non-minimal LEB128",
                        tag: b,
                    });
                }
                return Ok(out);
            }
            shift += 7;
        }
    }
    /// Read a signed LEB128 integer (zigzag encoding).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Reader::uleb`].
    pub fn sleb(&mut self) -> Result<i64, DecodeError> {
        let z = self.uleb()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
    /// Read an `f64` from its raw little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64_le()?))
    }
    /// Read a length-prefixed UTF-8 string.
    ///
    /// The length is added to the cursor with `checked_add`: a hostile
    /// LEB128 length near `u64::MAX` must fail cleanly as truncation, not
    /// overflow `usize` (a panic in debug builds — or, worse, a wrapped
    /// bounds check that reads the wrong bytes in release builds).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEof`] if the claimed length
    /// overruns the buffer, or [`DecodeError::BadString`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = usize::try_from(self.uleb()?).map_err(|_| DecodeError::UnexpectedEof)?;
        let end = self
            .pos
            .checked_add(len)
            .ok_or(DecodeError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| DecodeError::BadString)?
            .to_owned();
        self.pos = end;
        Ok(s)
    }
}

/// How a value of one *field type* travels in wire format `F`. The codec of
/// an instruction is generated from its row of a shape table — tag, then
/// every field's `put` in row order; tag, then every field's `get` in the
/// same order — so a field's Rust type picks its encoding, in both directions
/// at once, and there is no second statement of the layout for the two to
/// disagree on.
///
/// `F` names the format: [`Module`] for the deployment encoding, the store's
/// artifact type for the runtime's on-disk entries. The impls for integers,
/// floats, strings, flags, `Option`, `Vec` and pairs hold for every format,
/// so both formats share one copy of the strictness rules: a flag is 0 or 1,
/// an index fits 32 bits, a wire length caps the pre-allocation it causes.
/// Every `get` is strict, because a byte string that decodes must be the
/// *only* one that decodes to its value.
pub trait Wire<F = Module>: Sized {
    /// Append the encoding of `self`.
    fn put(&self, w: &mut Writer);
    /// Read one value.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or on any byte string that is
    /// not the encoding of a value.
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Read a LEB128 integer that names a 32-bit index (a register, a block, a
/// slot).
///
/// A value past `u32::MAX` is rejected, never truncated: `81 80 80 80 10`
/// (2³² + 1) silently becoming register 1 would let two distinct byte strings
/// decode to one module, and module identity is the encoding.
fn read_u32(r: &mut Reader<'_>, what: &'static str) -> Result<u32, DecodeError> {
    let v = r.uleb()?;
    u32::try_from(v).map_err(|_| DecodeError::BadTag { what, tag: v as u8 })
}

impl<F> Wire<F> for u32 {
    fn put(&self, w: &mut Writer) {
        w.uleb(u64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        read_u32(r, "32-bit index")
    }
}

impl<F> Wire<F> for i64 {
    fn put(&self, w: &mut Writer) {
        w.sleb(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.sleb()
    }
}

impl<F> Wire<F> for f64 {
    fn put(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.f64()
    }
}

impl<F> Wire<F> for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.str()
    }
}

impl<F> Wire<F> for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { what: "flag", tag }),
        }
    }
}

/// A presence flag, then the value if there is one.
impl<F, T: Wire<F>> Wire<F> for Option<T> {
    fn put(&self, w: &mut Writer) {
        Wire::<F>::put(&self.is_some(), w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(if Wire::<F>::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A count, then the elements.
impl<F, T: Wire<F>> Wire<F> for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.uleb(self.len() as u64);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.uleb()? as usize;
        let mut out = Vec::with_capacity(cap_hint(n));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// The boxed value as itself: a box adds no byte.
impl<F, T: Wire<F>> Wire<F> for Box<T> {
    fn put(&self, w: &mut Writer) {
        T::put(self, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::get(r).map(Box::new)
    }
}

/// The two values in order.
impl<F, A: Wire<F>, B: Wire<F>> Wire<F> for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Wire for VReg {
    fn put(&self, w: &mut Writer) {
        w.uleb(u64::from(self.0));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        read_u32(r, "register").map(VReg)
    }
}

impl Wire for BlockId {
    fn put(&self, w: &mut Writer) {
        w.uleb(u64::from(self.0));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        read_u32(r, "block").map(BlockId)
    }
}

/// An enum as one byte: its position in `$table`.
macro_rules! wire_operator {
    ($ty:ty, $what:literal, $table:expr) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                let at = $table.iter().position(|v| v == self);
                w.u8(at.expect("every operator is in its table") as u8);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let tag = r.u8()?;
                $table
                    .get(usize::from(tag))
                    .copied()
                    .ok_or(DecodeError::BadTag { what: $what, tag })
            }
        }
    };
}
wire_operator!(ScalarType, "scalar type", ScalarType::ALL);
wire_operator!(BinOp, "binary operator", BinOp::ALL);
wire_operator!(CmpOp, "comparison operator", CmpOp::ALL);
wire_operator!(UnOp, "unary operator", [UnOp::Neg, UnOp::Not]);
wire_operator!(
    ReduceOp,
    "reduce operator",
    [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max]
);

/// A kind byte (0 scalar, 1 vector), then the scalar type. The scalar type is
/// checked before the kind.
impl Wire for Type {
    fn put(&self, w: &mut Writer) {
        let (kind, s) = match *self {
            Type::Scalar(s) => (0, s),
            Type::Vector(s) => (1, s),
        };
        w.u8(kind);
        s.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let kind = r.u8()?;
        let s = ScalarType::get(r)?;
        match kind {
            0 => Ok(Type::Scalar(s)),
            1 => Ok(Type::Vector(s)),
            tag => Err(DecodeError::BadTag { what: "type", tag }),
        }
    }
}

impl Wire for Immediate {
    fn put(&self, w: &mut Writer) {
        match self {
            Immediate::Int(v) => {
                w.u8(0);
                w.sleb(*v);
            }
            Immediate::Float(v) => {
                w.u8(1);
                w.f64(*v);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Immediate::Int(r.sleb()?)),
            1 => Ok(Immediate::Float(r.f64()?)),
            tag => Err(DecodeError::BadTag {
                what: "immediate",
                tag,
            }),
        }
    }
}

/// The callee name, then the arguments.
impl Wire for CallSite {
    fn put(&self, w: &mut Writer) {
        w.str(&self.callee);
        self.args.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CallSite {
            callee: r.str()?,
            args: Wire::get(r)?,
        })
    }
}

/// The codec of [`Inst`], generated from the rows of `inst_shapes!`.
macro_rules! inst_codec {
    ($($tag:literal $variant:ident { $($role:ident $field:ident),* })*) => {
        impl Wire for Inst {
            fn put(&self, w: &mut Writer) {
                match self {
                    $(Inst::$variant { $($field),* } => {
                        w.u8($tag);
                        $(<_ as Wire>::put($field, w);)*
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match r.u8()? {
                    $($tag => Inst::$variant { $($field: <_ as Wire>::get(r)?),* },)*
                    tag => {
                        return Err(DecodeError::BadTag {
                            what: "instruction",
                            tag,
                        })
                    }
                })
            }
        }
    };
}
inst_shapes!(inst_codec);

/// The keep ranking alone: a count, then each register, which like every
/// register on the wire must fit 32 bits.
impl Wire for SpillOrder {
    fn put(&self, w: &mut Writer) {
        self.keep_order.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SpillOrder {
            keep_order: Wire::get(r)?,
        })
    }
}

/// The three flags as bits 0–2 of one byte. A set bit above them is an
/// error, not ignored: it would be a second encoding of the same traits.
impl Wire for KernelTraits {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(self.uses_fp)
            | u8::from(self.uses_vector) << 1
            | u8::from(self.control_intensive) << 2);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let bits = r.u8()?;
        if bits >> 3 != 0 {
            return Err(DecodeError::BadTag {
                what: "kernel traits",
                tag: bits,
            });
        }
        Ok(KernelTraits {
            uses_fp: bits & 1 != 0,
            uses_vector: bits & 2 != 0,
            control_intensive: bits & 4 != 0,
        })
    }
}

/// One presence byte — bit 0 for a spill order, bit 1 for kernel traits, the
/// rest reserved and zero — then each record present, in that order.
impl Wire for AnnotationSet {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(self.spill_order.is_some()) | u8::from(self.kernel_traits.is_some()) << 1);
        if let Some(order) = &self.spill_order {
            order.put(w);
        }
        if let Some(traits) = &self.kernel_traits {
            traits.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let present = r.u8()?;
        if present >> 2 != 0 {
            return Err(DecodeError::BadTag {
                what: "annotation presence",
                tag: present,
            });
        }
        let spill_order = (present & 1 != 0).then(|| Wire::get(r)).transpose()?;
        let kernel_traits = (present & 2 != 0).then(|| Wire::get(r)).transpose()?;
        Ok(AnnotationSet {
            spill_order,
            kernel_traits,
        })
    }
}

fn write_function(w: &mut Writer, f: &Function) {
    w.str(&f.name);
    f.params.put(w);
    f.ret.put(w);
    f.vreg_types.put(w);
    f.entry.put(w);
    w.uleb(f.blocks.len() as u64);
    for b in &f.blocks {
        b.insts.put(w);
    }
    f.annotations.put(w);
}

fn read_function(r: &mut Reader<'_>) -> Result<Function, DecodeError> {
    let name = r.str()?;
    let params = Wire::get(r)?;
    let ret = Wire::get(r)?;
    let vreg_types = Wire::get(r)?;
    let entry = Wire::get(r)?;
    let nblocks = r.uleb()? as usize;
    let mut blocks = Vec::with_capacity(cap_hint(nblocks));
    for id in 0..nblocks {
        blocks.push(Block {
            id: BlockId(id as u32),
            insts: Wire::get(r)?,
        });
    }
    let annotations = Wire::get(r)?;
    Ok(Function {
        name,
        params,
        ret,
        vreg_types,
        blocks,
        entry,
        annotations,
    })
}

/// Encode a module into the compact deployment format.
///
/// # Examples
///
/// ```
/// use splitc_vbc::{encode_module, decode_module, Module};
///
/// let m = Module::new("empty");
/// let bytes = encode_module(&m);
/// assert_eq!(decode_module(&bytes).unwrap(), m);
/// ```
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut w = Writer::new();
    write_module(&mut w, m);
    w.into_bytes()
}

fn write_module(w: &mut Writer, m: &Module) {
    w.bytes(MAGIC);
    w.u8(VERSION);
    w.str(&m.name);
    w.uleb(m.functions().len() as u64);
    for f in m.functions() {
        write_function(w, f);
    }
}

/// Decode a module previously produced by [`encode_module`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the buffer is truncated, has the wrong magic
/// or version (a version-1 module, whose annotations were a string-keyed
/// tree, is [`DecodeError::BadVersion`]), contains invalid tags or a set
/// reserved bit, repeats a function name, or carries trailing bytes after
/// the module (a decode must consume its input exactly).
pub fn decode_module(bytes: &[u8]) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes);
    if bytes.len() < 4 || &bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    r.pos = 4;
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let name = r.str()?;
    let nfuncs = r.uleb()? as usize;
    let mut functions = Vec::with_capacity(cap_hint(nfuncs));
    for _ in 0..nfuncs {
        functions.push(read_function(&mut r)?);
    }
    // One pass over the names, not `Module::add_function`'s scan per
    // function — and a repeated name is an error, not a replacement: the
    // module would re-encode shorter, so two byte strings would decode to it.
    let mut names = HashSet::with_capacity(functions.len());
    if let Some(repeat) = functions
        .iter()
        .position(|f| !names.insert(f.name.as_str()))
    {
        return Err(DecodeError::BadTag {
            what: "duplicate function name",
            // No tag byte is at fault; report which function (low byte).
            tag: repeat as u8,
        });
    }
    r.finish()?;
    Ok(Module::from_parts(name, functions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{ScalarType, Type};

    fn sample_module() -> Module {
        let mut b = FunctionBuilder::new(
            "saxpy",
            &[
                Type::Scalar(ScalarType::I32),
                Type::Scalar(ScalarType::F32),
                Type::Scalar(ScalarType::Ptr),
                Type::Scalar(ScalarType::Ptr),
            ],
            None,
        );
        let x = b.param(2);
        let a = b.param(1);
        let v = b.vec_load(ScalarType::F32, x, 0);
        let s = b.vec_splat(ScalarType::F32, a);
        let p = b.vec_bin(BinOp::Mul, ScalarType::F32, v, s);
        b.vec_store(ScalarType::F32, x, 0, p);
        let c = b.const_int(ScalarType::I32, 0);
        let d = b.cmp(CmpOp::Eq, ScalarType::I32, c, c);
        let exit = b.new_block();
        b.branch(d, exit, exit);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        f.annotations = AnnotationSet {
            spill_order: Some(SpillOrder {
                keep_order: vec![x, a, d],
            }),
            kernel_traits: Some(KernelTraits {
                uses_fp: true,
                uses_vector: true,
                control_intensive: false,
            }),
        };
        let mut m = Module::new("kernels");
        m.add_function(f);
        m
    }

    #[test]
    fn round_trip_preserves_module() {
        let m = sample_module();
        let bytes = encode_module(&m);
        let decoded = decode_module(&bytes).expect("decodes");
        assert_eq!(decoded, m);
    }

    #[test]
    fn encoding_is_compact() {
        let m = sample_module();
        let compact = encode_module(&m).len();
        // The compact format should be far smaller than a naive debug dump.
        let debug = format!("{m:?}").len();
        assert!(compact * 4 < debug, "compact {compact} vs debug {debug}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(decode_module(b"XXXX"), Err(DecodeError::BadMagic));
        let mut bytes = encode_module(&Module::new("m"));
        bytes[4] = 99;
        assert_eq!(decode_module(&bytes), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn version_1_modules_are_refused() {
        // The empty module `m` as version 1 wrote it: name, no functions,
        // an empty module annotation map. There is no version-1 reader.
        assert_eq!(
            decode_module(b"SVBC\x01\x01m\x00\x00"),
            Err(DecodeError::BadVersion(1))
        );
        let mut bytes = encode_module(&sample_module());
        bytes[4] = 1;
        assert_eq!(decode_module(&bytes), Err(DecodeError::BadVersion(1)));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode_module(&sample_module());
        for cut in [5, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_module(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn leb128_round_trip_extremes() {
        let mut w = Writer::new();
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            w.sleb(v);
        }
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            w.uleb(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456_789] {
            assert_eq!(r.sleb().unwrap(), v);
        }
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            assert_eq!(r.uleb().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn uleb_rejects_non_canonical_final_bytes() {
        // u64::MAX canonical: nine 0xff continuation bytes then 0x01 — the
        // tenth byte may carry exactly one payload bit.
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(Reader::new(&max).uleb().unwrap(), u64::MAX);
        // A tenth byte with any discarded bit set used to alias to the same
        // value; it must be rejected now.
        for tenth in [0x02u8, 0x03, 0x7f] {
            let mut bytes = max;
            bytes[9] = tenth;
            assert!(
                matches!(
                    Reader::new(&bytes).uleb(),
                    Err(DecodeError::BadTag {
                        what: "uleb128",
                        ..
                    })
                ),
                "tenth byte {tenth:#04x} must be rejected"
            );
        }
        // An eleventh byte always overflows 64 bits.
        let eleven = [0xff; 11];
        assert!(Reader::new(&eleven).uleb().is_err());
        // Ten continuation bytes followed by a terminator likewise.
        let mut cont = [0xffu8; 11];
        cont[10] = 0x00;
        assert!(Reader::new(&cont).uleb().is_err());
        // A ninth-byte terminator may use all seven bits (shift 56).
        let mut nine = [0xffu8; 9];
        nine[8] = 0x7f;
        assert_eq!(Reader::new(&nine).uleb().unwrap(), u64::MAX >> 1);
    }

    #[test]
    fn uleb_boundaries_around_the_one_byte_path() {
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            r.uleb().map(|v| (v, r.pos))
        };
        // The largest value the one-byte path takes, and the first two the
        // general loop does.
        assert_eq!(read(&[0x7f]), Ok((127, 1)));
        assert_eq!(read(&[0x80, 0x01]), Ok((128, 2)));
        assert_eq!(read(&[0xff, 0x7f]), Ok((16_383, 2)));
        // Only the integer's own bytes are consumed.
        assert_eq!(read(&[0x05, 0xff]), Ok((5, 1)));
        // A continuation byte with nothing after it, and nothing at all.
        assert_eq!(read(&[0x80]), Err(DecodeError::UnexpectedEof));
        assert_eq!(read(&[]), Err(DecodeError::UnexpectedEof));
        // A padded (non-minimal) encoding is a second byte string for the
        // same integer: `80 00` must not read as 0 the way `00` does, however
        // long the padding.
        let padded = Err(DecodeError::BadTag {
            what: "non-minimal LEB128",
            tag: 0,
        });
        assert_eq!(read(&[0x80, 0x00]), padded);
        assert_eq!(read(&[0xff, 0x80, 0x00]), padded);
        assert_eq!(read(&[0x80, 0x80, 0x80, 0x00]), padded);
        assert_eq!(read(&[0x00]), Ok((0, 1)));
        // A zero byte in the middle is payload, not padding.
        assert_eq!(read(&[0x80, 0x80, 0x01]), Ok((1 << 14, 3)));
    }

    #[test]
    fn sleb_rejects_padded_encodings_too() {
        let read = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            r.sleb().map(|v| (v, r.pos))
        };
        // Signed integers are zigzag over `uleb`: −1 is `01`, and its padded
        // twin `81 00` is rejected; `ff 7f` is the minimal form of −8192.
        assert_eq!(read(&[0x01]), Ok((-1, 1)));
        assert!(matches!(
            read(&[0x81, 0x00]),
            Err(DecodeError::BadTag {
                what: "non-minimal LEB128",
                ..
            })
        ));
        assert_eq!(read(&[0xff, 0x7f]), Ok((-8192, 2)));
        // Everything the writer emits is minimal, at every length.
        for shift in 0..64 {
            let p = 1i64 << shift;
            for v in [p, p.wrapping_neg(), p.wrapping_sub(1)] {
                let mut w = Writer::new();
                w.sleb(v);
                let bytes = w.into_bytes();
                assert_eq!(read(&bytes), Ok((v, bytes.len())), "{v}");
            }
        }
    }

    /// The bytes of a module `m` holding one void function `f` with two
    /// `i32` registers, the given entry block and one block of `ninsts`
    /// instructions written by `insts`.
    fn one_block_module(entry: u64, ninsts: u64, insts: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.str("m");
        w.uleb(1);
        w.str("f");
        w.uleb(0); // parameters
        w.u8(0); // no return type
        w.uleb(2);
        Type::Scalar(ScalarType::I32).put(&mut w);
        Type::Scalar(ScalarType::I32).put(&mut w);
        w.uleb(entry);
        w.uleb(1); // blocks
        w.uleb(ninsts);
        insts(&mut w);
        w.u8(0); // no annotations
        w.into_bytes()
    }

    fn write_move(w: &mut Writer, dst: u64, src: u64) {
        w.u8(1);
        w.uleb(dst);
        ScalarType::I32.put(w);
        w.uleb(src);
    }

    fn write_ret_none(w: &mut Writer) {
        w.u8(18);
        w.u8(0);
    }

    #[test]
    fn indices_past_32_bits_are_rejected_not_truncated() {
        // `81 80 80 80 10` is 2^32 + 1. Truncated to 32 bits it would name
        // register 1, and two byte strings would decode to one module.
        let mut w = Writer::new();
        w.uleb((1 << 32) + 1);
        assert_eq!(w.into_bytes(), [0x81, 0x80, 0x80, 0x80, 0x10]);
        let with_dst = |dst: u64| {
            one_block_module(0, 2, |w| {
                write_move(w, dst, 0);
                write_ret_none(w);
            })
        };
        let honest = decode_module(&with_dst(1)).expect("register 1 decodes");
        assert_eq!(encode_module(&honest), with_dst(1));
        assert_eq!(
            decode_module(&with_dst((1 << 32) + 1)),
            Err(DecodeError::BadTag {
                what: "register",
                tag: 1
            })
        );
        // A read operand, likewise.
        let wide_src = one_block_module(0, 2, |w| {
            write_move(w, 1, 1 << 32);
            write_ret_none(w);
        });
        assert!(matches!(
            decode_module(&wide_src),
            Err(DecodeError::BadTag {
                what: "register",
                ..
            })
        ));

        // Block numbers: a jump, both arms of a branch, the entry block.
        let block_error = Err(DecodeError::BadTag {
            what: "block",
            tag: 0,
        });
        let jump = one_block_module(0, 1, |w| {
            w.u8(16);
            w.uleb(1 << 32);
        });
        assert_eq!(decode_module(&jump), block_error);
        for (then_bb, else_bb) in [(1 << 32, 0), (0, 1 << 32)] {
            let branch = one_block_module(0, 1, |w| {
                w.u8(17);
                w.uleb(0);
                w.uleb(then_bb);
                w.uleb(else_bb);
            });
            assert_eq!(decode_module(&branch), block_error);
        }
        assert_eq!(
            decode_module(&one_block_module(1 << 32, 1, write_ret_none)),
            block_error
        );
    }

    #[test]
    fn the_largest_32_bit_indices_decode_and_fail_in_the_verifier() {
        // `u32::MAX` is a legal number on the wire; that no such register or
        // block exists is the verifier's finding, not the decoder's.
        let register = one_block_module(0, 2, |w| {
            write_move(w, u64::from(u32::MAX), 0);
            write_ret_none(w);
        });
        let m = decode_module(&register).expect("u32::MAX fits a register number");
        assert_eq!(encode_module(&m), register);
        assert_eq!(
            crate::verify::verify_module(&m),
            Err(crate::verify::VerifyError::BadRegister {
                function: "f".into(),
                block: BlockId(0),
                reg: VReg(u32::MAX),
            })
        );

        let block = one_block_module(0, 1, |w| {
            w.u8(16);
            w.uleb(u64::from(u32::MAX));
        });
        let m = decode_module(&block).expect("u32::MAX fits a block number");
        assert_eq!(encode_module(&m), block);
        assert_eq!(
            crate::verify::verify_module(&m),
            Err(crate::verify::VerifyError::BadBlockTarget {
                function: "f".into(),
                block: BlockId(0),
                target: BlockId(u32::MAX),
            })
        );
    }

    #[test]
    fn hostile_string_length_fails_cleanly() {
        // A length-prefixed string claiming nearly u64::MAX bytes: `pos +
        // len` must not overflow, it must report truncation.
        let mut w = Writer::new();
        w.uleb(u64::MAX - 2);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).str(), Err(DecodeError::UnexpectedEof));
        // Same hostile length buried in a module name position.
        let mut module = encode_module(&Module::new("m"));
        module.truncate(5); // keep magic + version, replace the name
        module.extend_from_slice(&bytes);
        assert!(decode_module(&module).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let m = sample_module();
        let mut bytes = encode_module(&m);
        assert!(decode_module(&bytes).is_ok());
        bytes.push(0);
        assert_eq!(decode_module(&bytes), Err(DecodeError::TrailingBytes));
        // Two concatenated modules must not silently decode as the first.
        let mut twice = encode_module(&m);
        twice.extend_from_slice(&encode_module(&m));
        assert_eq!(decode_module(&twice), Err(DecodeError::TrailingBytes));
    }

    /// Deterministic xorshift64* PRNG — no external crates, stable seeds.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn corrupt_bytes_never_panic_or_alias() {
        let reference = sample_module();
        let bytes = encode_module(&reference);
        let mut rng = 0x05ee_ddac_2010_u64;
        for _ in 0..2_000 {
            let mut mutated = bytes.clone();
            // Flip 1–4 random bytes to random values.
            let flips = (xorshift(&mut rng) % 4 + 1) as usize;
            for _ in 0..flips {
                let idx = (xorshift(&mut rng) as usize) % mutated.len();
                mutated[idx] = xorshift(&mut rng) as u8;
            }
            if mutated == bytes {
                continue;
            }
            // The decoder must never panic, and a mutation that still
            // decodes must be the one encoding of what it decoded to: if it
            // re-encoded differently, two byte strings would name one module.
            if let Ok(m) = decode_module(&mutated) {
                assert_eq!(
                    encode_module(&m),
                    mutated,
                    "a decoded byte string is not its module's encoding"
                );
            }
        }
        // Every strict prefix must fail; a decode consumes its input exactly.
        for cut in 0..bytes.len() {
            assert!(decode_module(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    /// The bytes of a module named `m` with `functions` (already encoded,
    /// `count` of them).
    fn assemble(count: u64, functions: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.str("m");
        w.uleb(count);
        w.bytes(functions);
        w.into_bytes()
    }

    /// The encoding of a function `name` with no parameters, registers or
    /// blocks — the shortest one the decoder accepts.
    fn empty_function(w: &mut Writer, name: &str) {
        w.str(name);
        // params, no return type, vregs, entry, blocks, annotations.
        w.bytes(&[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn decoding_is_linear_in_the_function_count() {
        // Assembled from bytes, not through `Module::add_function`, whose
        // scan per function is what made the parent's decoder quadratic:
        // there this input takes minutes, so a regression hangs the suite
        // instead of flaking a timer.
        const FUNCTIONS: usize = 200_000;
        let mut w = Writer::new();
        for i in 0..FUNCTIONS {
            empty_function(&mut w, &format!("f{i}"));
        }
        let bytes = assemble(FUNCTIONS as u64, &w.into_bytes());
        let m = decode_module(&bytes).expect("decodes");
        assert_eq!(m.functions().len(), FUNCTIONS);
        assert_eq!(m.functions()[FUNCTIONS - 1].name, "f199999");
        assert_eq!(encode_module(&m), bytes, "re-encodes byte for byte");
    }

    #[test]
    fn verifying_is_linear_in_the_function_count() {
        // Every function calls the next one (the last calls the first), so a
        // verifier that resolves each callee by scanning the function list
        // makes n²/2 name comparisons here (2·10¹⁰): minutes, not a flaky
        // timer (such a verifier took 78 s in a debug build at half this
        // count).
        const FUNCTIONS: usize = 200_000;
        let mut w = Writer::new();
        for i in 0..FUNCTIONS {
            w.str(&format!("f{i}"));
            // params, no return type, vregs, entry, one block of two
            // instructions.
            w.bytes(&[0, 0, 0, 0, 1, 2]);
            w.bytes(&[9, 0]); // call without a result
            w.str(&format!("f{}", (i + 1) % FUNCTIONS));
            w.uleb(0); // arguments
            w.bytes(&[18, 0]); // ret
            w.u8(0); // annotations
        }
        let m = decode_module(&assemble(FUNCTIONS as u64, &w.into_bytes())).expect("decodes");
        assert_eq!(m.functions().len(), FUNCTIONS);
        assert_eq!(crate::verify_module(&m), Ok(()));
    }

    #[test]
    fn a_repeated_function_name_is_rejected() {
        // `add_function` would have replaced the first `twin` with the
        // second: a one-function module that re-encodes shorter, so two byte
        // strings for one module.
        let mut w = Writer::new();
        empty_function(&mut w, "twin");
        empty_function(&mut w, "other");
        empty_function(&mut w, "twin");
        assert_eq!(
            decode_module(&assemble(3, &w.into_bytes())),
            Err(DecodeError::BadTag {
                what: "duplicate function name",
                tag: 2
            })
        );
        let mut w = Writer::new();
        empty_function(&mut w, "twin");
        empty_function(&mut w, "other");
        let distinct = decode_module(&assemble(2, &w.into_bytes())).unwrap();
        assert_eq!(distinct.functions().len(), 2);
    }

    #[test]
    fn presence_flags_and_booleans_are_strictly_zero_or_one() {
        // `02` read as "present" (or `true`) would be a second encoding of
        // what `01` already encodes.
        let flag_error = |tag| Err(DecodeError::BadTag { what: "flag", tag });
        // `Ret.value`'s presence byte.
        let ret = |flag: u8| {
            one_block_module(0, 1, |w| {
                w.u8(18);
                w.u8(flag);
                if flag != 0 {
                    w.uleb(1);
                }
            })
        };
        // `Call.dst`'s presence byte.
        let call = |flag: u8| {
            one_block_module(0, 2, |w| {
                w.u8(9);
                w.u8(flag);
                if flag != 0 {
                    w.uleb(1);
                }
                w.str("g");
                w.uleb(0);
                write_ret_none(w);
            })
        };
        for bytes in [ret, call].map(|make| [make(0), make(1), make(2), make(0xff)]) {
            let [absent, present, two, high] = bytes;
            for honest in [absent, present] {
                let m = decode_module(&honest).expect("0 and 1 decode");
                assert_eq!(encode_module(&m), honest);
            }
            assert_eq!(decode_module(&two), flag_error(2));
            assert_eq!(decode_module(&high), flag_error(0xff));
        }
        // A function's return-type presence byte, likewise.
        let returning = |flag: u8| {
            let mut w = Writer::new();
            w.str("f");
            w.u8(0); // parameters
            w.u8(flag);
            if flag != 0 {
                Type::Scalar(ScalarType::I32).put(&mut w);
            }
            w.bytes(&[0, 0, 0, 0]); // vregs, entry, blocks, annotations
            assemble(1, &w.into_bytes())
        };
        assert!(decode_module(&returning(0)).is_ok());
        assert!(decode_module(&returning(1)).is_ok());
        assert_eq!(decode_module(&returning(2)), flag_error(2));
    }

    #[test]
    fn annotations_survive_round_trip() {
        let m = sample_module();
        let decoded = decode_module(&encode_module(&m)).unwrap();
        let saxpy = decoded.function("saxpy").unwrap();
        assert_eq!(saxpy.annotations, m.functions()[0].annotations);
        assert_eq!(
            saxpy
                .annotations
                .spill_order
                .as_ref()
                .map(|s| s.keep_order.len()),
            Some(3)
        );
        assert!(saxpy
            .annotations
            .kernel_traits
            .is_some_and(|t| t.uses_vector));
    }

    /// A module holding one of each instruction variant, with every scalar
    /// type in a type position, both immediate kinds, every operator, `Some`
    /// and `None`, empty and non-empty lists, and one- and multi-byte indices.
    fn every_variant_module() -> Module {
        let (a, b, c) = (VReg(0), VReg(200), VReg(u32::MAX));
        let mut insts = vec![
            Inst::Const {
                dst: a,
                ty: ScalarType::I64,
                imm: Immediate::Int(-70_000),
            },
            Inst::Const {
                dst: b,
                ty: ScalarType::F64,
                imm: Immediate::Float(-0.375),
            },
            Inst::Load {
                dst: a,
                ty: ScalarType::U16,
                addr: b,
                offset: -3,
            },
            Inst::Store {
                ty: ScalarType::I8,
                addr: c,
                offset: 1 << 40,
                value: a,
            },
            Inst::call(Some(c), "callee", vec![a, b, c]),
            Inst::call(None, "", Vec::new()),
            Inst::VecLoad {
                dst: b,
                elem: ScalarType::F32,
                addr: a,
                offset: 16,
            },
            Inst::VecStore {
                elem: ScalarType::U8,
                addr: a,
                offset: -16,
                value: b,
            },
        ];
        for ty in ScalarType::ALL {
            insts.push(Inst::Move { dst: a, ty, src: b });
            insts.push(Inst::Cast {
                dst: b,
                to: ty,
                src: c,
                from: ScalarType::ALL[10 - ty as usize],
            });
            insts.push(Inst::VecWidth { dst: c, elem: ty });
            insts.push(Inst::VecSplat {
                dst: a,
                elem: ty,
                src: b,
            });
        }
        for op in BinOp::ALL {
            insts.push(Inst::Bin {
                op,
                ty: ScalarType::I32,
                dst: a,
                lhs: b,
                rhs: c,
            });
            insts.push(Inst::VecBin {
                op,
                elem: ScalarType::I16,
                dst: c,
                lhs: a,
                rhs: b,
            });
        }
        for op in [UnOp::Neg, UnOp::Not] {
            insts.push(Inst::Un {
                op,
                ty: ScalarType::U32,
                dst: b,
                src: a,
            });
        }
        for op in CmpOp::ALL {
            insts.push(Inst::Cmp {
                op,
                ty: ScalarType::U64,
                dst: a,
                lhs: c,
                rhs: b,
            });
        }
        for op in [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max] {
            insts.push(Inst::VecReduce {
                op,
                elem: ScalarType::Ptr,
                dst: b,
                src: c,
            });
        }
        insts.push(Inst::Jump { target: BlockId(1) });
        let blocks = [
            insts,
            vec![Inst::Branch {
                cond: a,
                then_bb: BlockId(2),
                else_bb: BlockId(u32::MAX),
            }],
            vec![Inst::Ret { value: Some(b) }],
            vec![Inst::Ret { value: None }],
        ];
        let f = Function {
            name: "every".into(),
            params: vec![
                (a, Type::Scalar(ScalarType::I32)),
                (c, Type::Vector(ScalarType::F64)),
            ],
            ret: Some(Type::Vector(ScalarType::I8)),
            vreg_types: ScalarType::ALL
                .into_iter()
                .flat_map(|s| [Type::Scalar(s), Type::Vector(s)])
                .collect(),
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(id, insts)| Block {
                    id: BlockId(id as u32),
                    insts,
                })
                .collect(),
            entry: BlockId(3),
            annotations: AnnotationSet {
                spill_order: Some(SpillOrder {
                    keep_order: vec![c, a],
                }),
                kernel_traits: Some(KernelTraits {
                    uses_fp: true,
                    uses_vector: false,
                    control_intensive: true,
                }),
            },
        };
        let mut m = Module::new("variants");
        m.add_function(f);
        m
    }

    #[test]
    fn every_instruction_variant_encodes_to_the_recorded_bytes() {
        let m = every_variant_module();
        let bytes = encode_module(&m);
        assert_eq!(decode_module(&bytes), Ok(m));
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv1a), (859, 0xad18_e067_76b1_8b65));
    }

    #[test]
    fn a_retired_instruction_tag_is_refused() {
        // Tag 5 was a conditional select: a type and four registers. In
        // place of an instruction it is a bad tag, whatever follows it.
        let retired = one_block_module(0, 2, |w| {
            w.u8(5);
            ScalarType::I32.put(w);
            w.bytes(&[1, 0, 1, 1]);
            write_ret_none(w);
        });
        assert_eq!(
            decode_module(&retired),
            Err(DecodeError::BadTag {
                what: "instruction",
                tag: 5
            })
        );
        // The same registers moved instead decode.
        let honest = one_block_module(0, 2, |w| {
            write_move(w, 1, 0);
            write_ret_none(w);
        });
        assert!(decode_module(&honest).is_ok());
    }

    #[test]
    fn hostile_primitives_decode_to_the_recorded_errors() {
        // A flag byte of 2 (`Ret.value`'s presence), an index of 2^32 (the
        // entry block) and a count of 2^40 (the function count) followed by
        // nothing.
        let flag = one_block_module(0, 1, |w| {
            w.u8(18);
            w.u8(2);
        });
        let index = one_block_module(1 << 32, 1, write_ret_none);
        let mut count = Writer::new();
        count.bytes(MAGIC);
        count.u8(VERSION);
        count.str("m");
        count.uleb(1 << 40);
        let decoded = [flag, index, count.into_bytes()].map(|b| format!("{:?}", decode_module(&b)));
        assert_eq!(
            decoded,
            [
                r#"Err(BadTag { what: "flag", tag: 2 })"#,
                r#"Err(BadTag { what: "block", tag: 0 })"#,
                "Err(UnexpectedEof)",
            ]
        );
    }
}
