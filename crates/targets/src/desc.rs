//! Target descriptions and cost models.
//!
//! Each [`TargetDesc`] stands in for one of the machines of the paper's
//! evaluation (x86 with SSE, UltraSparc, PowerPC), for the heterogeneous
//! platforms of Section 3 (ARM with Neon, the Cell PPE/SPU pair, a DSP), or
//! for the two families added to stress the abstractions beyond the paper's
//! era: a RISC-V-class scalar core and a GPU-style wide-SIMD core with
//! 64-byte vectors.
//! The descriptions drive both the online compiler (how many registers, is
//! there a SIMD unit and how wide) and the cycle simulator (per-operation
//! costs). Absolute cycle counts are synthetic; what matters for the
//! reproduction is the *relative* behaviour between targets and between
//! scalar and vectorized code.

use crate::timing::TimingKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Pipeline-depth-class cycles a GPU front end needs to refill after a taken
/// scalar branch redirects fetch (the warp scheduler re-primes the issue
/// stage from the instruction cache).
const GPU_FRONTEND_REFILL: u64 = 8;

/// Extra scheduler passes a diverged warp pays to execute both sides of a
/// split and reconverge at the immediate post-dominator: two passes at the
/// GPU's 2-cycle scalar issue rate.
const GPU_RECONVERGE_PASSES: u64 = 2 * 2;

/// Taken-branch (divergence) cost of the GPU-style core, derived from its
/// timing parameters instead of hand-tuned: a taken scalar branch pays the
/// front-end refill plus the warp-reconvergence passes. This is the value the
/// in-order timing tier also derives its misprediction penalty from, so the
/// flat cost table and the pipelined model price divergence consistently.
pub const GPU_DIVERGENCE_PENALTY: u64 = GPU_FRONTEND_REFILL + GPU_RECONVERGE_PASSES;

/// Description of a SIMD unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorUnit {
    /// Width of one vector register in bytes (16 for SSE/AltiVec/Neon-era units).
    pub bytes: u16,
    /// Number of architectural vector registers.
    pub regs: u16,
}

/// Per-operation cycle costs of a target.
///
/// The numbers are coarse "effective latency" figures for an in-order core,
/// not a microarchitectural model: each executed machine instruction charges
/// its cost, plus branch and memory penalties.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Simple integer ALU operation.
    pub int_op: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide / remainder.
    pub int_div: u64,
    /// Floating-point add/subtract/compare/min/max.
    pub fp_add: u64,
    /// Floating-point multiply.
    pub fp_mul: u64,
    /// Floating-point divide.
    pub fp_div: u64,
    /// Scalar load (cache-hit latency).
    pub load: u64,
    /// Scalar store.
    pub store: u64,
    /// Register move / immediate materialization.
    pub mov: u64,
    /// Conversion between integer and floating point.
    pub convert: u64,
    /// Taken branch (includes the jump at the bottom of loops).
    pub branch_taken: u64,
    /// Not-taken branch.
    pub branch_not_taken: u64,
    /// SIMD arithmetic operation (whole vector).
    pub vec_op: u64,
    /// SIMD load (whole vector).
    pub vec_load: u64,
    /// SIMD store (whole vector).
    pub vec_store: u64,
    /// Horizontal reduction of one vector register.
    pub vec_reduce: u64,
    /// Call/return overhead (both sides combined).
    pub call: u64,
    /// Spill store to the stack.
    pub spill_store: u64,
    /// Reload from the stack.
    pub spill_load: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            int_op: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 3,
            fp_mul: 4,
            fp_div: 16,
            load: 3,
            store: 1,
            mov: 1,
            convert: 2,
            branch_taken: 2,
            branch_not_taken: 1,
            vec_op: 4,
            vec_load: 4,
            vec_store: 2,
            vec_reduce: 6,
            call: 10,
            spill_store: 3,
            spill_load: 4,
        }
    }
}

/// A virtual target: register files, optional SIMD unit and cost model.
///
/// Two descriptions are equal when every field is, `clock_scale` compared by
/// its bits (a NaN scale equals itself): equal targets compile to
/// interchangeable machine code, so engines and served batches share one
/// program between them (e.g. every SPU of a Cell blade).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetDesc {
    /// Human-readable target name (e.g. `"x86-sse"`).
    pub name: String,
    /// Number of allocatable integer registers.
    pub int_regs: u16,
    /// Number of allocatable floating-point registers.
    pub float_regs: u16,
    /// SIMD unit, if the core has one the JIT is allowed to use.
    pub vector: Option<VectorUnit>,
    /// Per-operation costs.
    pub cost: CostModel,
    /// Relative clock-speed factor applied when converting cycles to time in
    /// the heterogeneous runtime (1.0 = the x86 reference clock). Every
    /// reporting path must convert through [`TargetDesc::scaled_time`] so the
    /// factor is applied consistently.
    pub clock_scale: f64,
    /// Which timing model the simulator charges cycles through (defaults to
    /// [`TimingKind::Flat`], the differential reference). Part of the
    /// target's identity: the same core with a different timing tier
    /// compiles and caches separately.
    pub timing: TimingKind,
}

impl PartialEq for TargetDesc {
    fn eq(&self, other: &Self) -> bool {
        let TargetDesc {
            name,
            int_regs,
            float_regs,
            vector,
            cost,
            clock_scale,
            timing,
        } = self;
        *name == other.name
            && *int_regs == other.int_regs
            && *float_regs == other.float_regs
            && *vector == other.vector
            && *cost == other.cost
            && clock_scale.to_bits() == other.clock_scale.to_bits()
            && *timing == other.timing
    }
}

impl Eq for TargetDesc {}

impl TargetDesc {
    /// `true` if the JIT may emit SIMD instructions for this target.
    pub fn has_simd(&self) -> bool {
        self.vector.is_some()
    }

    /// A stable 64-bit digest of every field (name, register files, SIMD
    /// unit, cost model, clock scale and timing tier): the target's part of
    /// an on-disk artifact store key, the same in every process sharing a
    /// store directory. In memory, targets are compared by value.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical field serialization; no dependency on the
        // (unstable) std hasher so the value is reproducible across runs.
        let mut acc = crate::Fnv1a::new();
        let mut mix = |bytes: &[u8]| acc.write(bytes);
        mix(self.name.as_bytes());
        mix(&[0xff]); // terminator so "ab" + regs and "a" + b-ish regs differ
        mix(&self.int_regs.to_le_bytes());
        mix(&self.float_regs.to_le_bytes());
        match self.vector {
            Some(v) => {
                mix(&[1]);
                mix(&v.bytes.to_le_bytes());
                mix(&v.regs.to_le_bytes());
            }
            None => mix(&[0]),
        }
        let c = &self.cost;
        for field in [
            c.int_op,
            c.int_mul,
            c.int_div,
            c.fp_add,
            c.fp_mul,
            c.fp_div,
            c.load,
            c.store,
            c.mov,
            c.convert,
            c.branch_taken,
            c.branch_not_taken,
            c.vec_op,
            c.vec_load,
            c.vec_store,
            c.vec_reduce,
            c.call,
            c.spill_store,
            c.spill_load,
        ] {
            mix(&field.to_le_bytes());
        }
        mix(&self.clock_scale.to_bits().to_le_bytes());
        mix(&[self.timing.tag()]);
        acc.finish()
    }

    /// Convert simulated `cycles` on this target into relative time units
    /// (x86 reference cycles): the **single** cycles→time conversion every
    /// reporting path (sweep cells, bench rows, CPI tables) must go through,
    /// so the per-target clock factor cannot be applied inconsistently.
    pub fn scaled_time(&self, cycles: u64) -> f64 {
        cycles as f64 * self.clock_scale
    }

    /// This target with a different timing tier (same core otherwise): a
    /// different target, which engines compile and cache separately.
    #[must_use]
    pub fn with_timing(mut self, timing: TimingKind) -> Self {
        self.timing = timing;
        self
    }

    /// Width in bytes of the vector registers the JIT may use (0 without SIMD).
    pub fn vector_bytes(&self) -> u64 {
        self.vector.map(|v| u64::from(v.bytes)).unwrap_or(0)
    }

    /// The x86 workstation/desktop class machine of Table 1: 128-bit SSE,
    /// few architectural registers, low memory latency, good branch handling.
    pub fn x86_sse() -> Self {
        TargetDesc {
            name: "x86-sse".into(),
            int_regs: 6,
            float_regs: 8,
            vector: Some(VectorUnit { bytes: 16, regs: 8 }),
            cost: CostModel::default(),
            clock_scale: 1.0,
            timing: TimingKind::Flat,
        }
    }

    /// The UltraSparc class machine of Table 1: no SIMD unit used by the JIT,
    /// plenty of registers but long memory latency and expensive branches.
    pub fn ultrasparc() -> Self {
        TargetDesc {
            name: "ultrasparc".into(),
            int_regs: 12,
            float_regs: 16,
            vector: None,
            cost: CostModel {
                int_op: 1,
                int_mul: 4,
                int_div: 36,
                fp_add: 4,
                fp_mul: 4,
                fp_div: 22,
                load: 6,
                store: 3,
                mov: 1,
                convert: 3,
                branch_taken: 3,
                branch_not_taken: 1,
                // No SIMD unit: the vector costs are irrelevant (the JIT
                // scalarizes) but kept finite for robustness.
                vec_op: 16,
                vec_load: 24,
                vec_store: 12,
                vec_reduce: 24,
                call: 14,
                spill_store: 4,
                spill_load: 6,
            },
            clock_scale: 2.4,
            timing: TimingKind::Flat,
        }
    }

    /// The PowerPC class machine of Table 1: the JIT ignores AltiVec, but the
    /// core has many registers, short pipelines and cheap branches, so
    /// scalarized (unrolled) loops run slightly faster than the scalar code.
    pub fn powerpc() -> Self {
        TargetDesc {
            name: "powerpc".into(),
            int_regs: 26,
            float_regs: 26,
            vector: None,
            cost: CostModel {
                int_op: 1,
                int_mul: 3,
                int_div: 19,
                fp_add: 3,
                fp_mul: 3,
                fp_div: 18,
                load: 4,
                store: 2,
                mov: 1,
                convert: 2,
                branch_taken: 1,
                branch_not_taken: 1,
                vec_op: 12,
                vec_load: 16,
                vec_store: 8,
                vec_reduce: 16,
                call: 12,
                spill_store: 3,
                spill_load: 4,
            },
            clock_scale: 1.8,
            timing: TimingKind::Flat,
        }
    }

    /// An ARM application core with a Neon SIMD unit (the phone-class device
    /// of Section 3).
    pub fn arm_neon() -> Self {
        TargetDesc {
            name: "arm-neon".into(),
            int_regs: 12,
            float_regs: 16,
            vector: Some(VectorUnit {
                bytes: 16,
                regs: 16,
            }),
            cost: CostModel {
                int_op: 1,
                int_mul: 3,
                int_div: 28,
                fp_add: 4,
                fp_mul: 4,
                fp_div: 24,
                load: 4,
                store: 2,
                mov: 1,
                convert: 2,
                branch_taken: 2,
                branch_not_taken: 1,
                vec_op: 5,
                vec_load: 5,
                vec_store: 3,
                vec_reduce: 8,
                call: 12,
                spill_store: 3,
                spill_load: 4,
            },
            clock_scale: 2.0,
            timing: TimingKind::Flat,
        }
    }

    /// The Cell host core (PPE): in-order, two-way, no SIMD use by the JIT,
    /// long memory latency — good at control code, poor at numerics.
    pub fn cell_ppe() -> Self {
        TargetDesc {
            name: "cell-ppe".into(),
            int_regs: 26,
            float_regs: 26,
            vector: None,
            cost: CostModel {
                int_op: 1,
                int_mul: 4,
                int_div: 30,
                fp_add: 5,
                fp_mul: 5,
                fp_div: 30,
                load: 6,
                store: 3,
                mov: 1,
                convert: 3,
                branch_taken: 4,
                branch_not_taken: 1,
                vec_op: 14,
                vec_load: 18,
                vec_store: 10,
                vec_reduce: 20,
                call: 16,
                spill_store: 4,
                spill_load: 6,
            },
            clock_scale: 1.0,
            timing: TimingKind::Flat,
        }
    }

    /// A Cell synergistic processing unit (SPU): a wide SIMD engine with a
    /// large unified register file and a fast local store, but relatively slow
    /// scalar control code. Reached through DMA offload in the runtime.
    pub fn cell_spu() -> Self {
        TargetDesc {
            name: "cell-spu".into(),
            int_regs: 48,
            float_regs: 48,
            vector: Some(VectorUnit {
                bytes: 16,
                regs: 48,
            }),
            cost: CostModel {
                int_op: 2,
                int_mul: 4,
                int_div: 40,
                fp_add: 3,
                fp_mul: 3,
                fp_div: 20,
                load: 2, // local store
                store: 1,
                mov: 1,
                convert: 3,
                branch_taken: 6, // no branch prediction
                branch_not_taken: 1,
                vec_op: 2,
                vec_load: 2,
                vec_store: 1,
                vec_reduce: 8,
                call: 20,
                spill_store: 2,
                spill_load: 2,
            },
            clock_scale: 1.0,
            timing: TimingKind::Flat,
        }
    }

    /// A small fixed-point DSP: cheap multiply-accumulate, very expensive
    /// floating point (software emulation), tiny register file.
    pub fn dsp() -> Self {
        TargetDesc {
            name: "dsp".into(),
            int_regs: 8,
            float_regs: 4,
            vector: None,
            cost: CostModel {
                int_op: 1,
                int_mul: 1,
                int_div: 40,
                fp_add: 30,
                fp_mul: 40,
                fp_div: 120,
                load: 2,
                store: 1,
                mov: 1,
                convert: 12,
                branch_taken: 3,
                branch_not_taken: 1,
                vec_op: 30,
                vec_load: 30,
                vec_store: 20,
                vec_reduce: 40,
                call: 10,
                spill_store: 2,
                spill_load: 2,
            },
            clock_scale: 3.0,
            timing: TimingKind::Flat,
        }
    }

    /// A RISC-V-class 64-bit scalar core (RV64GC-style): a large uniform
    /// register file, no SIMD unit used by the JIT, and a load/store-biased
    /// cost model — arithmetic is cheap and single-cycle, but the simple
    /// in-order memory pipeline makes every load comparatively expensive, so
    /// code quality on this target is dominated by how well the register
    /// allocator keeps values out of memory.
    pub fn riscv_rv64() -> Self {
        TargetDesc {
            name: "riscv-rv64".into(),
            int_regs: 28,
            float_regs: 28,
            vector: None,
            cost: CostModel {
                int_op: 1,
                int_mul: 4,
                int_div: 24,
                fp_add: 4,
                fp_mul: 5,
                fp_div: 21,
                load: 5, // the load/store bias: memory dominates
                store: 2,
                mov: 1,
                convert: 2,
                branch_taken: 2,
                branch_not_taken: 1,
                // No SIMD unit: vector costs only matter for robustness.
                vec_op: 16,
                vec_load: 20,
                vec_store: 10,
                vec_reduce: 20,
                call: 12,
                spill_store: 3,
                spill_load: 5,
            },
            clock_scale: 2.2,
            timing: TimingKind::Flat,
        }
    }

    /// A GPU-style wide-SIMD core: 64-byte vector registers (16 f32 lanes —
    /// four times wider than every other SIMD preset), very cheap vector
    /// arithmetic, and expensive scalar control flow (a taken branch models
    /// divergence). Scalar memory access is slow (global-memory latency);
    /// vector access is fast (coalesced). Cross-lane reductions pay for the
    /// lane shuffles.
    pub fn gpu_wide() -> Self {
        TargetDesc {
            name: "gpu-wide".into(),
            int_regs: 16,
            float_regs: 16,
            vector: Some(VectorUnit {
                bytes: 64,
                regs: 32,
            }),
            cost: CostModel {
                int_op: 2,
                int_mul: 4,
                int_div: 48,
                fp_add: 2,
                fp_mul: 2,
                fp_div: 12,
                load: 8, // scalar loads hit global memory
                store: 4,
                mov: 1,
                convert: 2,
                branch_taken: GPU_DIVERGENCE_PENALTY, // derived above: refill + reconvergence
                branch_not_taken: 2,
                vec_op: 1,
                vec_load: 2, // coalesced
                vec_store: 1,
                vec_reduce: 10, // cross-lane shuffles
                call: 24,
                spill_store: 4,
                spill_load: 6,
            },
            clock_scale: 1.4,
            timing: TimingKind::Flat,
        }
    }

    /// The preset catalogue, built once per process.
    ///
    /// This is the single source of truth behind both [`TargetDesc::presets`]
    /// and [`TargetDesc::preset`]: a target added here is automatically
    /// enumerated by every driver, test and CLI listing, and the by-name
    /// lookup cannot drift out of sync with the enumeration.
    fn catalogue() -> &'static [TargetDesc] {
        static CATALOGUE: OnceLock<Vec<TargetDesc>> = OnceLock::new();
        CATALOGUE.get_or_init(|| {
            vec![
                TargetDesc::x86_sse(),
                TargetDesc::ultrasparc(),
                TargetDesc::powerpc(),
                TargetDesc::arm_neon(),
                TargetDesc::cell_ppe(),
                TargetDesc::cell_spu(),
                TargetDesc::dsp(),
                TargetDesc::riscv_rv64(),
                TargetDesc::gpu_wide(),
            ]
        })
    }

    /// All preset targets, keyed by name.
    pub fn presets() -> Vec<TargetDesc> {
        TargetDesc::catalogue().to_vec()
    }

    /// Look up a preset by name.
    ///
    /// Resolved against the lazily-built static catalogue — repeated lookups
    /// (the CLI and drivers call this per run) clone only the matching
    /// description instead of materializing every preset each time.
    pub fn preset(name: &str) -> Option<TargetDesc> {
        TargetDesc::catalogue()
            .iter()
            .find(|t| t.name == name)
            .cloned()
    }

    /// The three machines of Table 1, in the paper's column order.
    pub fn table1_targets() -> Vec<TargetDesc> {
        vec![
            TargetDesc::x86_sse(),
            TargetDesc::ultrasparc(),
            TargetDesc::powerpc(),
        ]
    }
}

impl fmt::Display for TargetDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.vector {
            Some(v) => write!(
                f,
                "{} ({} int / {} fp regs, {}-byte SIMD)",
                self.name, self.int_regs, self.float_regs, v.bytes
            ),
            None => write!(
                f,
                "{} ({} int / {} fp regs, no SIMD)",
                self.name, self.int_regs, self.float_regs
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_names_and_sane_register_files() {
        let presets = TargetDesc::presets();
        assert!(
            presets.len() >= 9,
            "the catalogue must include the RISC-V and GPU families"
        );
        let names: std::collections::BTreeSet<_> = presets.iter().map(|t| t.name.clone()).collect();
        assert_eq!(names.len(), presets.len());
        for t in &presets {
            assert!(
                t.int_regs >= 4,
                "{} needs at least 4 integer registers",
                t.name
            );
            assert!(t.float_regs >= 4);
            assert!(t.clock_scale > 0.0);
            if let Some(v) = t.vector {
                assert!(v.bytes >= 8 && v.bytes.is_power_of_two());
            }
        }
    }

    #[test]
    fn table1_targets_match_the_paper_columns() {
        let t = TargetDesc::table1_targets();
        assert_eq!(t.len(), 3);
        assert!(t[0].has_simd(), "x86 recognizes the vector builtins");
        assert!(!t[1].has_simd(), "the UltraSparc JIT scalarizes");
        assert!(!t[2].has_simd(), "the PowerPC JIT ignores vectorization");
        assert_eq!(t[0].vector_bytes(), 16);
        assert_eq!(t[1].vector_bytes(), 0);
    }

    #[test]
    fn every_preset_resolves_by_name_through_the_static_catalogue() {
        // `preset` and `presets` must never drift apart: each enumerated
        // target resolves to an identical description by name.
        for t in TargetDesc::presets() {
            let looked_up = TargetDesc::preset(&t.name)
                .unwrap_or_else(|| panic!("{} missing from the by-name lookup", t.name));
            assert_eq!(looked_up, t);
            assert_eq!(looked_up.fingerprint(), t.fingerprint());
        }
    }

    #[test]
    fn preset_lookup_and_display() {
        assert!(TargetDesc::preset("x86-sse").is_some());
        assert!(TargetDesc::preset("riscv-rv64").is_some());
        assert!(TargetDesc::preset("gpu-wide").is_some());
        assert!(TargetDesc::preset("vax").is_none());
        let shown = TargetDesc::x86_sse().to_string();
        assert!(shown.contains("x86-sse") && shown.contains("SIMD"));
        let shown = TargetDesc::powerpc().to_string();
        assert!(shown.contains("no SIMD"));
    }

    #[test]
    fn fingerprints_identify_target_configurations() {
        let presets = TargetDesc::presets();
        let prints: std::collections::BTreeSet<u64> =
            presets.iter().map(TargetDesc::fingerprint).collect();
        assert_eq!(
            prints.len(),
            presets.len(),
            "preset fingerprints must be distinct"
        );
        // Stable across calls and across clones.
        let a = TargetDesc::x86_sse();
        assert_eq!(a.fingerprint(), TargetDesc::x86_sse().fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Sensitive to every codegen-relevant knob, not just the name.
        let mut tweaked = TargetDesc::x86_sse();
        tweaked.int_regs += 1;
        assert_ne!(a.fingerprint(), tweaked.fingerprint());
        let mut recosted = TargetDesc::x86_sse();
        recosted.cost.fp_mul += 1;
        assert_ne!(a.fingerprint(), recosted.fingerprint());
        let mut reclocked = TargetDesc::x86_sse();
        reclocked.clock_scale *= 2.0;
        assert_ne!(a.fingerprint(), reclocked.fingerprint());
        // The two new families are sensitive to their distinguishing
        // cost-model fields too, not just their names: the load/store bias of
        // the RISC-V core and the branch-divergence penalty + vector width of
        // the GPU all feed the fingerprint.
        let riscv = TargetDesc::riscv_rv64();
        let mut cheap_loads = TargetDesc::riscv_rv64();
        cheap_loads.cost.load = 1;
        assert_ne!(riscv.fingerprint(), cheap_loads.fingerprint());
        let gpu = TargetDesc::gpu_wide();
        let mut tame_branches = TargetDesc::gpu_wide();
        tame_branches.cost.branch_taken = 1;
        assert_ne!(gpu.fingerprint(), tame_branches.fingerprint());
        let mut narrow = TargetDesc::gpu_wide();
        narrow.vector = Some(VectorUnit {
            bytes: 16,
            regs: 32,
        });
        assert_ne!(gpu.fingerprint(), narrow.fingerprint());
    }

    #[test]
    fn riscv_is_scalar_with_a_large_register_file_and_loadstore_bias() {
        let t = TargetDesc::riscv_rv64();
        assert!(!t.has_simd(), "the RISC-V JIT scalarizes");
        assert!(t.int_regs >= 24 && t.float_regs >= 24, "large uniform file");
        assert!(
            t.cost.load >= 4 * t.cost.int_op,
            "loads must dominate ALU work on the load/store-biased model"
        );
        assert!(t.cost.store > t.cost.int_op);
    }

    #[test]
    fn gpu_is_wide_with_cheap_vectors_and_expensive_branches() {
        let t = TargetDesc::gpu_wide();
        let v = t.vector.expect("the GPU target has a SIMD unit");
        assert_eq!(v.bytes, 64, "64-byte vectors = 16 f32 lanes");
        assert_eq!(t.vector_bytes() / 4, 16, "16 f32 lanes");
        assert!(
            t.cost.vec_op <= t.cost.int_op,
            "vector arithmetic is at least as cheap as scalar"
        );
        assert!(
            t.cost.branch_taken >= 4 * t.cost.vec_op,
            "taken branches (divergence) must dwarf vector ops"
        );
        assert!(
            t.cost.vec_load < t.cost.load,
            "coalesced vector access beats scalar global-memory access"
        );
    }

    #[test]
    fn timing_tier_defaults_to_flat_and_feeds_the_fingerprint() {
        for t in TargetDesc::presets() {
            assert_eq!(t.timing, TimingKind::Flat, "{}", t.name);
            let pipelined = t.clone().with_timing(TimingKind::InOrder);
            assert_ne!(
                t.fingerprint(),
                pipelined.fingerprint(),
                "{}: engine caches must distinguish timing tiers",
                t.name
            );
            // Same core otherwise: only the tier selector differs.
            assert_eq!(t.cost, pipelined.cost);
            assert_eq!(t.name, pipelined.name);
        }
    }

    #[test]
    fn scaled_time_applies_the_clock_factor_consistently() {
        // Pin the single cycles→time conversion every reporting path uses.
        for t in TargetDesc::presets() {
            assert!((t.scaled_time(1000) - 1000.0 * t.clock_scale).abs() < 1e-9);
            assert_eq!(t.scaled_time(0), 0.0);
        }
        // x86 is the reference clock: scaled time == cycles.
        let x86 = TargetDesc::x86_sse();
        assert!((x86.scaled_time(12345) - 12345.0).abs() < 1e-9);
        // A slower clock stretches time by exactly its factor.
        let dsp = TargetDesc::dsp();
        assert!((dsp.scaled_time(100) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_divergence_penalty_is_derived_not_hand_tuned() {
        let gpu = TargetDesc::gpu_wide();
        assert_eq!(gpu.cost.branch_taken, GPU_DIVERGENCE_PENALTY);
        assert_eq!(
            GPU_DIVERGENCE_PENALTY,
            GPU_FRONTEND_REFILL + GPU_RECONVERGE_PASSES,
            "front-end refill plus warp-reconvergence passes"
        );
        // The derivation preserves the historical flat value, so fingerprints
        // and every pinned cycle count are unchanged.
        assert_eq!(GPU_DIVERGENCE_PENALTY, 12);
    }

    #[test]
    fn dsp_punishes_floating_point() {
        let dsp = TargetDesc::dsp();
        assert!(dsp.cost.fp_add > 10 * dsp.cost.int_op);
        assert!(dsp.cost.int_mul <= 2, "the DSP has a hardware MAC");
    }
}
