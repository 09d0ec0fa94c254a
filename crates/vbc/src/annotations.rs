//! Split-compilation annotations.
//!
//! Annotations are the channel through which the *offline* compiler transfers
//! the results of expensive analyses to the *online* (JIT) compiler — the core
//! mechanism of split compilation (Figure 1 of the paper). They are attached to
//! [`Module`](crate::Module)s and [`Function`](crate::Function)s as a small,
//! serializable key/value store, plus a set of well-known typed records used by
//! this reproduction:
//!
//! * [`SpillOrder`] — portable spill priorities computed offline (split register
//!   allocation, Section 4 / Diouf et al.).
//! * [`VectorizationSummary`] — which loops were auto-vectorized offline and with
//!   which element types (Table 1).
//! * [`KernelTraits`] — hardware requirements/affinities of a kernel (Section 3:
//!   "annotations may also express the hardware requirements or characteristics
//!   of a code module").

use crate::types::ScalarType;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed annotation value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnnotationValue {
    /// Integer payload.
    Int(i64),
    /// Floating-point payload.
    Float(f64),
    /// Boolean payload.
    Bool(bool),
    /// String payload.
    Str(String),
    /// Ordered list of values.
    List(Vec<AnnotationValue>),
    /// String-keyed map of values.
    Map(BTreeMap<String, AnnotationValue>),
}

impl AnnotationValue {
    /// The integer payload, if this value is an [`AnnotationValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AnnotationValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload, accepting integer values as exact floats.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            AnnotationValue::Float(v) => Some(*v),
            AnnotationValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this value is an [`AnnotationValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AnnotationValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this value is an [`AnnotationValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AnnotationValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The list payload, if this value is an [`AnnotationValue::List`].
    pub fn as_list(&self) -> Option<&[AnnotationValue]> {
        match self {
            AnnotationValue::List(v) => Some(v),
            _ => None,
        }
    }

    /// The map payload, if this value is an [`AnnotationValue::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, AnnotationValue>> {
        match self {
            AnnotationValue::Map(v) => Some(v),
            _ => None,
        }
    }
}

impl From<i64> for AnnotationValue {
    fn from(v: i64) -> Self {
        AnnotationValue::Int(v)
    }
}
impl From<f64> for AnnotationValue {
    fn from(v: f64) -> Self {
        AnnotationValue::Float(v)
    }
}
impl From<bool> for AnnotationValue {
    fn from(v: bool) -> Self {
        AnnotationValue::Bool(v)
    }
}
impl From<&str> for AnnotationValue {
    fn from(v: &str) -> Self {
        AnnotationValue::Str(v.to_owned())
    }
}
impl From<String> for AnnotationValue {
    fn from(v: String) -> Self {
        AnnotationValue::Str(v)
    }
}

impl fmt::Display for AnnotationValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnotationValue::Int(v) => write!(f, "{v}"),
            AnnotationValue::Float(v) => write!(f, "{v}"),
            AnnotationValue::Bool(v) => write!(f, "{v}"),
            AnnotationValue::Str(v) => write!(f, "{v:?}"),
            AnnotationValue::List(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            AnnotationValue::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, x)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {x}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Well-known annotation keys used by the offline compiler and the JIT.
pub mod keys {
    /// Portable spill-priority order ([`super::SpillOrder`]).
    pub const SPILL_ORDER: &str = "splitc.regalloc.spill_order";
    /// Summary of offline auto-vectorization ([`super::VectorizationSummary`]).
    pub const VECTORIZATION: &str = "splitc.vectorize.summary";
    /// Kernel hardware traits ([`super::KernelTraits`]).
    pub const KERNEL_TRAITS: &str = "splitc.kernel.traits";
    /// Module-level marker: the module was produced by the offline pipeline
    /// (so the JIT may skip its own analyses).
    pub const OFFLINE_OPTIMIZED: &str = "splitc.offline.optimized";
    /// Estimated trip count of the hottest loop of a function.
    pub const TRIP_COUNT_HINT: &str = "splitc.loop.trip_count_hint";
}

/// A set of annotations attached to a module or function.
///
/// # Examples
///
/// ```
/// use splitc_vbc::{AnnotationSet, AnnotationValue};
///
/// let mut a = AnnotationSet::new();
/// a.set("splitc.loop.trip_count_hint", 4096i64);
/// assert_eq!(a.get_int("splitc.loop.trip_count_hint"), Some(4096));
/// assert!(a.contains("splitc.loop.trip_count_hint"));
/// assert_eq!(a.get("missing"), None::<&AnnotationValue>);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AnnotationSet {
    entries: BTreeMap<String, AnnotationValue>,
}

impl AnnotationSet {
    /// Create an empty annotation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of annotations in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the set holds no annotations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The set holding exactly `entries` (what the decoder read, keys moved
    /// in rather than copied).
    pub(crate) fn from_map(entries: BTreeMap<String, AnnotationValue>) -> Self {
        AnnotationSet { entries }
    }

    /// The annotations by key (what the encoder writes).
    pub(crate) fn as_map(&self) -> &BTreeMap<String, AnnotationValue> {
        &self.entries
    }

    /// Insert or replace the annotation under `key`.
    pub fn set(&mut self, key: &str, value: impl Into<AnnotationValue>) {
        self.entries.insert(key.to_owned(), value.into());
    }

    /// Remove the annotation under `key`, returning its previous value.
    pub fn remove(&mut self, key: &str) -> Option<AnnotationValue> {
        self.entries.remove(key)
    }

    /// `true` if an annotation exists under `key`.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Look up the annotation under `key`.
    pub fn get(&self, key: &str) -> Option<&AnnotationValue> {
        self.entries.get(key)
    }

    /// Look up an integer annotation.
    pub fn get_int(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(AnnotationValue::as_int)
    }

    /// Look up a boolean annotation.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(AnnotationValue::as_bool)
    }

    /// Look up a string annotation.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(AnnotationValue::as_str)
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AnnotationValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Remove every annotation. Used to build the "no annotations" baseline of
    /// the split-compilation experiments.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Store the spill-order record ([`SpillOrder`]).
    pub fn set_spill_order(&mut self, order: &SpillOrder) {
        self.entries
            .insert(keys::SPILL_ORDER.to_owned(), order.to_value());
    }

    /// Retrieve the spill-order record, if present and well-formed.
    pub fn spill_order(&self) -> Option<SpillOrder> {
        self.get(keys::SPILL_ORDER).and_then(SpillOrder::from_value)
    }

    /// Store the vectorization summary ([`VectorizationSummary`]).
    pub fn set_vectorization(&mut self, summary: &VectorizationSummary) {
        self.entries
            .insert(keys::VECTORIZATION.to_owned(), summary.to_value());
    }

    /// Retrieve the vectorization summary, if present and well-formed.
    pub fn vectorization(&self) -> Option<VectorizationSummary> {
        self.get(keys::VECTORIZATION)
            .and_then(VectorizationSummary::from_value)
    }

    /// Store the kernel-traits record ([`KernelTraits`]).
    pub fn set_kernel_traits(&mut self, traits: &KernelTraits) {
        self.entries
            .insert(keys::KERNEL_TRAITS.to_owned(), traits.to_value());
    }

    /// Retrieve the kernel-traits record, if present and well-formed.
    pub fn kernel_traits(&self) -> Option<KernelTraits> {
        self.get(keys::KERNEL_TRAITS)
            .and_then(KernelTraits::from_value)
    }
}

/// Portable spill-priority annotation produced by split register allocation.
///
/// The offline step ranks virtual registers by how profitable they are to
/// *keep in registers* (descending). Given `k` physical registers at JIT time,
/// the online step keeps the first registers of `keep_order` that are
/// simultaneously live and spills the rest — a linear-time decision, as in the
/// split register allocation the paper cites.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpillOrder {
    /// Virtual register indices ranked from most to least profitable to keep.
    pub keep_order: Vec<u32>,
    /// Maximum number of simultaneously-live values (MAXLIVE) observed offline.
    pub max_pressure: u32,
}

impl SpillOrder {
    /// Encode into a generic [`AnnotationValue`].
    pub fn to_value(&self) -> AnnotationValue {
        let mut m = BTreeMap::new();
        m.insert(
            "keep_order".to_owned(),
            AnnotationValue::List(
                self.keep_order
                    .iter()
                    .map(|r| AnnotationValue::Int(i64::from(*r)))
                    .collect(),
            ),
        );
        m.insert(
            "max_pressure".to_owned(),
            AnnotationValue::Int(i64::from(self.max_pressure)),
        );
        AnnotationValue::Map(m)
    }

    /// Decode from a generic [`AnnotationValue`], returning `None` on shape mismatch.
    pub fn from_value(v: &AnnotationValue) -> Option<Self> {
        let m = v.as_map()?;
        let keep_order = m
            .get("keep_order")?
            .as_list()?
            .iter()
            .map(|x| x.as_int().map(|i| i as u32))
            .collect::<Option<Vec<_>>>()?;
        let max_pressure = m.get("max_pressure")?.as_int()? as u32;
        Some(SpillOrder {
            keep_order,
            max_pressure,
        })
    }
}

/// Description of one loop vectorized by the offline compiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorizedLoop {
    /// Block id of the vector loop body.
    pub body_block: u32,
    /// Element type of the vector operations.
    pub elem: ScalarType,
    /// `true` if the loop carries a reduction (sum/min/max).
    pub reduction: bool,
    /// Estimated trip count (elements), when known offline.
    pub trip_count_hint: Option<u64>,
}

/// Function-level summary of offline auto-vectorization.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct VectorizationSummary {
    /// One entry per vectorized loop.
    pub loops: Vec<VectorizedLoop>,
}

impl VectorizationSummary {
    /// `true` if at least one loop was vectorized.
    pub fn any(&self) -> bool {
        !self.loops.is_empty()
    }

    /// Encode into a generic [`AnnotationValue`].
    pub fn to_value(&self) -> AnnotationValue {
        AnnotationValue::List(
            self.loops
                .iter()
                .map(|l| {
                    let mut m = BTreeMap::new();
                    m.insert(
                        "body_block".to_owned(),
                        AnnotationValue::Int(i64::from(l.body_block)),
                    );
                    m.insert(
                        "elem".to_owned(),
                        AnnotationValue::Str(l.elem.mnemonic().to_owned()),
                    );
                    m.insert("reduction".to_owned(), AnnotationValue::Bool(l.reduction));
                    if let Some(tc) = l.trip_count_hint {
                        m.insert(
                            "trip_count_hint".to_owned(),
                            AnnotationValue::Int(tc as i64),
                        );
                    }
                    AnnotationValue::Map(m)
                })
                .collect(),
        )
    }

    /// Decode from a generic [`AnnotationValue`], returning `None` on shape mismatch.
    pub fn from_value(v: &AnnotationValue) -> Option<Self> {
        let list = v.as_list()?;
        let mut loops = Vec::with_capacity(list.len());
        for item in list {
            let m = item.as_map()?;
            loops.push(VectorizedLoop {
                body_block: m.get("body_block")?.as_int()? as u32,
                elem: ScalarType::from_mnemonic(m.get("elem")?.as_str()?)?,
                reduction: m.get("reduction")?.as_bool()?,
                trip_count_hint: m
                    .get("trip_count_hint")
                    .and_then(|x| x.as_int())
                    .map(|x| x as u64),
            });
        }
        Some(VectorizationSummary { loops })
    }
}

/// Hardware requirements and affinities of a kernel, used by the heterogeneous
/// runtime to map computations onto cores (Section 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KernelTraits {
    /// The kernel performs floating-point arithmetic.
    pub uses_fp: bool,
    /// The kernel contains portable vector builtins.
    pub uses_vector: bool,
    /// The kernel is dominated by control flow rather than data processing.
    pub control_intensive: bool,
    /// Estimated arithmetic operations per element processed.
    pub ops_per_element: f64,
    /// Estimated bytes of memory traffic per element processed.
    pub bytes_per_element: f64,
}

impl KernelTraits {
    /// Encode into a generic [`AnnotationValue`].
    pub fn to_value(&self) -> AnnotationValue {
        let mut m = BTreeMap::new();
        m.insert("uses_fp".to_owned(), AnnotationValue::Bool(self.uses_fp));
        m.insert(
            "uses_vector".to_owned(),
            AnnotationValue::Bool(self.uses_vector),
        );
        m.insert(
            "control_intensive".to_owned(),
            AnnotationValue::Bool(self.control_intensive),
        );
        m.insert(
            "ops_per_element".to_owned(),
            AnnotationValue::Float(self.ops_per_element),
        );
        m.insert(
            "bytes_per_element".to_owned(),
            AnnotationValue::Float(self.bytes_per_element),
        );
        AnnotationValue::Map(m)
    }

    /// Decode from a generic [`AnnotationValue`], returning `None` on shape mismatch.
    pub fn from_value(v: &AnnotationValue) -> Option<Self> {
        let m = v.as_map()?;
        Some(KernelTraits {
            uses_fp: m.get("uses_fp")?.as_bool()?,
            uses_vector: m.get("uses_vector")?.as_bool()?,
            control_intensive: m.get("control_intensive")?.as_bool()?,
            ops_per_element: m.get("ops_per_element")?.as_float()?,
            bytes_per_element: m.get("bytes_per_element")?.as_float()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut a = AnnotationSet::new();
        assert!(a.is_empty());
        a.set("x", 3i64);
        a.set("y", true);
        a.set("z", "hello");
        a.set("w", 2.5f64);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get_int("x"), Some(3));
        assert_eq!(a.get_bool("y"), Some(true));
        assert_eq!(a.get_str("z"), Some("hello"));
        assert_eq!(a.get("w").and_then(AnnotationValue::as_float), Some(2.5));
        assert_eq!(a.remove("x"), Some(AnnotationValue::Int(3)));
        assert!(!a.contains("x"));
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn spill_order_round_trip() {
        let s = SpillOrder {
            keep_order: vec![5, 2, 9, 0],
            max_pressure: 11,
        };
        let mut a = AnnotationSet::new();
        a.set_spill_order(&s);
        assert_eq!(a.spill_order(), Some(s));
    }

    #[test]
    fn vectorization_summary_round_trip() {
        let summary = VectorizationSummary {
            loops: vec![
                VectorizedLoop {
                    body_block: 2,
                    elem: ScalarType::F32,
                    reduction: false,
                    trip_count_hint: Some(4096),
                },
                VectorizedLoop {
                    body_block: 5,
                    elem: ScalarType::U8,
                    reduction: true,
                    trip_count_hint: None,
                },
            ],
        };
        let mut a = AnnotationSet::new();
        a.set_vectorization(&summary);
        assert_eq!(a.vectorization(), Some(summary));
        assert!(a.vectorization().unwrap().any());
    }

    #[test]
    fn kernel_traits_round_trip() {
        let t = KernelTraits {
            uses_fp: true,
            uses_vector: true,
            control_intensive: false,
            ops_per_element: 2.0,
            bytes_per_element: 12.0,
        };
        let mut a = AnnotationSet::new();
        a.set_kernel_traits(&t);
        assert_eq!(a.kernel_traits(), Some(t));
    }

    #[test]
    fn malformed_typed_annotation_is_rejected() {
        let mut a = AnnotationSet::new();
        a.set(keys::SPILL_ORDER, "not a map");
        assert_eq!(a.spill_order(), None);
        a.set(keys::VECTORIZATION, 7i64);
        assert_eq!(a.vectorization(), None);
        a.set(keys::KERNEL_TRAITS, false);
        assert_eq!(a.kernel_traits(), None);
    }

    #[test]
    fn display_of_values() {
        let v = AnnotationValue::List(vec![
            AnnotationValue::Int(1),
            AnnotationValue::Str("a".into()),
            AnnotationValue::Bool(false),
        ]);
        assert_eq!(v.to_string(), "[1, \"a\", false]");
    }
}
