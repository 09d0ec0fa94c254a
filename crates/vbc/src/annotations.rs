//! Split-compilation annotations.
//!
//! Annotations are the channel through which the *offline* compiler transfers
//! the results of expensive analyses to the *online* side — the core mechanism
//! of split compilation (Figure 1 of the paper). Each
//! [`Function`](crate::Function) carries an [`AnnotationSet`]: two typed
//! records, each optional, and nothing that online code does not read.
//!
//! * [`SpillOrder`] — the portable keep ranking computed offline, read by the
//!   JIT's register assignment (split register allocation, Section 4 /
//!   Diouf et al.).
//! * [`KernelTraits`] — hardware affinities of a kernel, read by the runtime's
//!   core chooser (Section 3: "annotations may also express the hardware
//!   requirements or characteristics of a code module").
//!
//! Both are hints from a party the device does not have to trust: a lying
//! record may cost speed, never change a result. The JIT ignores ranked
//! registers it does not know and ranks each register at most once, and every
//! core computes the same values.

use crate::inst::VReg;
use serde::{Deserialize, Serialize};

/// The annotations attached to one function.
///
/// # Examples
///
/// ```
/// use splitc_vbc::{AnnotationSet, KernelTraits, SpillOrder, VReg};
///
/// let mut a = AnnotationSet::default();
/// assert_eq!(a.spill_order, None);
/// a.spill_order = Some(SpillOrder { keep_order: vec![VReg(2), VReg(0)] });
/// a.kernel_traits = Some(KernelTraits { uses_fp: true, ..KernelTraits::default() });
/// assert_eq!(a.spill_order.as_ref().map(|s| s.keep_order.len()), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AnnotationSet {
    /// The offline keep ranking, read by the JIT.
    pub spill_order: Option<SpillOrder>,
    /// The kernel's hardware affinities, read by the runtime's core chooser.
    pub kernel_traits: Option<KernelTraits>,
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
    /// Virtual registers ranked from most to least profitable to keep.
    pub keep_order: Vec<VReg>,
}

/// Hardware requirements and affinities of a kernel, used by the heterogeneous
/// runtime to map computations onto cores (Section 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelTraits {
    /// The kernel performs floating-point arithmetic.
    pub uses_fp: bool,
    /// The kernel contains portable vector builtins.
    pub uses_vector: bool,
    /// The kernel is dominated by control flow rather than data processing.
    pub control_intensive: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{decode_module, encode_module, DecodeError, Writer, MAGIC, VERSION};
    use crate::function::Function;
    use crate::module::Module;

    /// A module holding one function `f` whose annotations are `a`.
    fn module_with(a: AnnotationSet) -> Module {
        let mut f = Function::new("f", &[], None);
        f.annotations = a;
        let mut m = Module::new("m");
        m.add_function(f);
        m
    }

    /// The bytes of a module holding one empty function `f` whose annotation
    /// section is `annotations`, verbatim.
    fn with_annotation_bytes(annotations: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.str("m");
        w.uleb(1);
        w.str("f");
        // params, no return type, vregs, entry, one block of no instructions.
        w.bytes(&[0, 0, 0, 0, 1, 0]);
        w.bytes(annotations);
        w.into_bytes()
    }

    #[test]
    fn spill_order_round_trip() {
        for keep_order in [
            vec![],
            vec![VReg(5), VReg(2), VReg(9), VReg(0)],
            vec![VReg(u32::MAX)],
        ] {
            let m = module_with(AnnotationSet {
                spill_order: Some(SpillOrder { keep_order }),
                kernel_traits: None,
            });
            assert_eq!(decode_module(&encode_module(&m)), Ok(m));
        }
    }

    #[test]
    fn kernel_traits_round_trip() {
        for bits in 0u8..8 {
            let t = KernelTraits {
                uses_fp: bits & 1 != 0,
                uses_vector: bits & 2 != 0,
                control_intensive: bits & 4 != 0,
            };
            let m = module_with(AnnotationSet {
                spill_order: None,
                kernel_traits: Some(t),
            });
            let bytes = encode_module(&m);
            assert_eq!(bytes[bytes.len() - 2..], [2, bits]);
            assert_eq!(decode_module(&bytes), Ok(m));
        }
    }

    #[test]
    fn malformed_typed_annotation_is_rejected() {
        // Presence: bit 0 a spill order, bit 1 kernel traits; the rest are
        // reserved. The honest forms first.
        for honest in [&[0][..], &[1, 0], &[2, 0], &[3, 1, 4, 7]] {
            let bytes = with_annotation_bytes(honest);
            let m = decode_module(&bytes).expect("an honest annotation section decodes");
            assert_eq!(encode_module(&m), bytes);
        }
        for present in [4u8, 8, 0x80, 0xff] {
            assert_eq!(
                decode_module(&with_annotation_bytes(&[present, 0, 0])),
                Err(DecodeError::BadTag {
                    what: "annotation presence",
                    tag: present
                })
            );
        }
        // Traits: bits 0–2 are the three flags; the rest are reserved.
        for traits in [8u8, 0x10, 0x80, 0xff] {
            assert_eq!(
                decode_module(&with_annotation_bytes(&[2, traits])),
                Err(DecodeError::BadTag {
                    what: "kernel traits",
                    tag: traits
                })
            );
        }
        // A ranking cut short, and a record claimed but missing.
        assert_eq!(
            decode_module(&with_annotation_bytes(&[1, 3, 0, 1])),
            Err(DecodeError::UnexpectedEof)
        );
        assert_eq!(
            decode_module(&with_annotation_bytes(&[3, 0])),
            Err(DecodeError::UnexpectedEof)
        );
    }

    #[test]
    fn a_ranking_entry_past_32_bits_is_rejected_not_truncated() {
        // `85 80 80 80 10` is 2³² + 5. The tree this record replaced read it
        // as an `i64` and cast it with `as u32`, silently ranking `v5`.
        let mut w = Writer::new();
        w.u8(1); // a spill order follows
        w.uleb(2);
        w.uleb(3);
        w.uleb((1 << 32) + 5);
        assert_eq!(
            decode_module(&with_annotation_bytes(&w.into_bytes())),
            Err(DecodeError::BadTag {
                what: "register",
                tag: 5
            })
        );
        let mut w = Writer::new();
        w.u8(1);
        w.uleb(1);
        w.uleb(u64::from(u32::MAX));
        let m = decode_module(&with_annotation_bytes(&w.into_bytes())).expect("u32::MAX ranks");
        assert_eq!(
            m.functions()[0].annotations.spill_order,
            Some(SpillOrder {
                keep_order: vec![VReg(u32::MAX)]
            })
        );
    }
}
