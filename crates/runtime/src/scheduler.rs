//! Annotation-guided mapping.
//!
//! Section 3 of the paper argues that, because final code generation happens
//! at run time, "mapping and scheduling of computations can be performed
//! across all available processing nodes, independently from their underlying
//! architectures". This module implements that decision: kernel traits
//! (carried as bytecode annotations) steer each kernel to a suitable core.

use crate::platform::{Core, Platform};
use splitc_vbc::KernelTraits;

/// Score how well `core` suits a kernel with the given `traits`.
///
/// Higher is better. The heuristic mirrors the paper's motivation: vector
/// kernels want SIMD units, floating-point kernels must avoid
/// software-emulated FPUs (the DSP), and control-intensive code prefers the
/// host core with its cheap branches.
pub fn affinity(traits: &KernelTraits, core: &Core) -> f64 {
    let t = &core.target;
    let mut score = 10.0 / t.clock_scale;
    if traits.uses_vector {
        if t.has_simd() {
            score += 30.0;
        } else {
            score -= 5.0;
        }
    }
    if traits.uses_fp {
        // Penalize targets whose floating point is disproportionately slow.
        let fp_ratio = t.cost.fp_add as f64 / t.cost.int_op as f64;
        score -= fp_ratio;
    }
    if traits.control_intensive {
        score -= t.cost.branch_taken as f64 * 2.0;
    }
    score
}

/// Pick the most suitable core of `platform` for a kernel with `traits`.
///
/// Returns the host core when the platform has a single core.
pub fn choose_core<'p>(traits: &KernelTraits, platform: &'p Platform) -> &'p Core {
    platform
        .cores
        .iter()
        .max_by(|a, b| {
            affinity(traits, a)
                .partial_cmp(&affinity(traits, b))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(platform.host())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traits(vector: bool, fp: bool, control: bool) -> KernelTraits {
        KernelTraits {
            uses_fp: fp,
            uses_vector: vector,
            control_intensive: control,
        }
    }

    #[test]
    fn vector_kernels_prefer_simd_cores() {
        let phone = Platform::phone();
        let chosen = choose_core(&traits(true, true, false), &phone);
        assert_eq!(chosen.name, "arm");

        let cell = Platform::cell_blade(2);
        let chosen = choose_core(&traits(true, true, false), &cell);
        assert!(
            chosen.name.starts_with("spu"),
            "vector work goes to the SPUs, got {}",
            chosen.name
        );
    }

    #[test]
    fn fp_kernels_avoid_the_dsp_and_control_code_stays_on_the_host() {
        let phone = Platform::phone();
        let chosen = choose_core(&traits(false, true, false), &phone);
        assert_eq!(
            chosen.name, "arm",
            "software floating point on the DSP is a bad idea"
        );

        let cell = Platform::cell_blade(2);
        let chosen = choose_core(&traits(false, false, true), &cell);
        assert_eq!(chosen.name, "ppe", "branchy code prefers the host core");
    }
}
