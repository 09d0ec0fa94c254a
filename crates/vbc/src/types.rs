//! Scalar and vector types of the virtual bytecode.
//!
//! The type system is deliberately small: the machine-level scalar types that a
//! C front end needs, plus *portable* vector types whose lane count is **not**
//! fixed in the bytecode — it is chosen by the online compiler for the concrete
//! target (this is the key enabler of split vectorization, Table 1 of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Machine-level scalar types representable in the bytecode.
///
/// `Ptr` is an abstract byte address into the process' linear memory; its width
/// is 64 bits in the reference interpreter and in all simulated targets.
///
/// # Examples
///
/// ```
/// use splitc_vbc::ScalarType;
///
/// assert_eq!(ScalarType::U8.size_bytes(), 1);
/// assert!(ScalarType::F32.is_float());
/// assert!(ScalarType::I16.is_signed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ScalarType {
    /// Signed 8-bit integer.
    I8,
    /// Signed 16-bit integer.
    I16,
    /// Signed 32-bit integer.
    I32,
    /// Signed 64-bit integer.
    I64,
    /// Unsigned 8-bit integer.
    U8,
    /// Unsigned 16-bit integer.
    U16,
    /// Unsigned 32-bit integer.
    U32,
    /// Unsigned 64-bit integer.
    U64,
    /// IEEE-754 single precision.
    F32,
    /// IEEE-754 double precision.
    F64,
    /// Abstract pointer (byte offset into linear memory).
    Ptr,
}

impl ScalarType {
    /// All scalar types in wire-tag order: the module format encodes a
    /// scalar type as its position here, so the order is part of the format.
    pub const ALL: [ScalarType; 11] = [
        ScalarType::I8,
        ScalarType::I16,
        ScalarType::I32,
        ScalarType::I64,
        ScalarType::U8,
        ScalarType::U16,
        ScalarType::U32,
        ScalarType::U64,
        ScalarType::F32,
        ScalarType::F64,
        ScalarType::Ptr,
    ];

    /// Size of one value of this type in bytes.
    pub fn size_bytes(self) -> u64 {
        match self {
            ScalarType::I8 | ScalarType::U8 => 1,
            ScalarType::I16 | ScalarType::U16 => 2,
            ScalarType::I32 | ScalarType::U32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::U64 | ScalarType::F64 | ScalarType::Ptr => 8,
        }
    }

    /// `true` for `F32` and `F64`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// Canonicalize a float value for this scalar type: `F32` rounds to
    /// single precision, every other type passes the value through.
    ///
    /// This is the one definition of the "an F32-typed value is always
    /// f32-representable" invariant. Constant producers (the bytecode
    /// builder) and constant consumers (the interpreter, the JIT's immediate
    /// lowering) all call it — an unrounded double reaching only *some*
    /// paths makes scalar and SIMD executions of the same program differ by
    /// an ULP.
    pub fn canonicalize_float(self, value: f64) -> f64 {
        if self == ScalarType::F32 {
            f64::from(value as f32)
        } else {
            value
        }
    }

    /// `true` for any integer or pointer type.
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// `true` for signed integer types.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::I64
        )
    }

    /// `true` for unsigned integer types (pointers count as unsigned).
    pub fn is_unsigned(self) -> bool {
        self.is_int() && !self.is_signed()
    }

    /// Number of lanes of this element type that fit in a vector register of
    /// `width_bytes` bytes (the paper's portable builtins leave this to the JIT).
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` is smaller than the element size.
    pub fn lanes_for_width(self, width_bytes: u64) -> u64 {
        assert!(
            width_bytes >= self.size_bytes(),
            "vector width {width_bytes} smaller than element size"
        );
        width_bytes / self.size_bytes()
    }

    /// Short lowercase mnemonic used by the textual listing (`i32`, `f64`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::U8 => "u8",
            ScalarType::U16 => "u16",
            ScalarType::U32 => "u32",
            ScalarType::U64 => "u64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
            ScalarType::Ptr => "ptr",
        }
    }

    /// Parse a mnemonic produced by [`ScalarType::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<ScalarType> {
        ScalarType::ALL.iter().copied().find(|t| t.mnemonic() == s)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A bytecode value type: either a scalar or a *portable* vector of scalars.
///
/// A `Vector(elem)` has no lane count: the online compiler picks the widest
/// vector the target supports (or scalarizes when there is no SIMD unit).
///
/// # Examples
///
/// ```
/// use splitc_vbc::{ScalarType, Type};
///
/// let v = Type::Vector(ScalarType::U8);
/// assert!(v.is_vector());
/// assert_eq!(v.elem(), ScalarType::U8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Type {
    /// A single scalar value.
    Scalar(ScalarType),
    /// A target-width vector of scalar elements.
    Vector(ScalarType),
}

impl Type {
    /// The element type: the scalar itself, or the vector's lane type.
    pub fn elem(self) -> ScalarType {
        match self {
            Type::Scalar(s) | Type::Vector(s) => s,
        }
    }

    /// `true` if this is a vector type.
    pub fn is_vector(self) -> bool {
        matches!(self, Type::Vector(_))
    }
}

impl From<ScalarType> for Type {
    fn from(s: ScalarType) -> Self {
        Type::Scalar(s)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Vector(s) => write!(f, "v<{s}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_machine_sizes() {
        assert_eq!(ScalarType::I8.size_bytes(), 1);
        assert_eq!(ScalarType::U16.size_bytes(), 2);
        assert_eq!(ScalarType::I32.size_bytes(), 4);
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::U64.size_bytes(), 8);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
        assert_eq!(ScalarType::Ptr.size_bytes(), 8);
    }

    #[test]
    fn signedness_partition() {
        for t in ScalarType::ALL {
            if t.is_float() {
                assert!(!t.is_signed());
                assert!(!t.is_unsigned());
            } else {
                assert!(t.is_signed() ^ t.is_unsigned(), "{t:?}");
            }
        }
    }

    #[test]
    fn lanes_for_16_byte_vector() {
        assert_eq!(ScalarType::U8.lanes_for_width(16), 16);
        assert_eq!(ScalarType::U16.lanes_for_width(16), 8);
        assert_eq!(ScalarType::F32.lanes_for_width(16), 4);
        assert_eq!(ScalarType::F64.lanes_for_width(16), 2);
    }

    #[test]
    #[should_panic(expected = "smaller than element size")]
    fn lanes_rejects_too_narrow_width() {
        let _ = ScalarType::F64.lanes_for_width(4);
    }

    #[test]
    fn mnemonic_round_trip() {
        for t in ScalarType::ALL {
            assert_eq!(ScalarType::from_mnemonic(t.mnemonic()), Some(t));
        }
        assert_eq!(ScalarType::from_mnemonic("i128"), None);
    }

    #[test]
    fn type_display_and_elem() {
        assert_eq!(Type::Scalar(ScalarType::I32).to_string(), "i32");
        assert_eq!(Type::Vector(ScalarType::F32).to_string(), "v<f32>");
        assert_eq!(Type::Vector(ScalarType::F32).elem(), ScalarType::F32);
        assert!(Type::Vector(ScalarType::F32).is_vector());
    }
}
