//! Heterogeneous platform descriptions.
//!
//! A [`Platform`] is a set of [`Core`]s, each described by a virtual target,
//! plus an interconnect (DMA) cost model. The presets model the systems the
//! paper uses as motivation: a developer workstation, a phone-class SoC with
//! a DSP, and a Cell-style blade with a host core and SIMD accelerators.

use crate::offload::DmaModel;
use splitc_targets::TargetDesc;

/// One programmable core of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Core {
    /// Core identifier, unique within the platform.
    pub id: usize,
    /// Human-readable role name (e.g. `"ppe0"`, `"spu2"`).
    pub name: String,
    /// The virtual target describing this core.
    pub target: TargetDesc,
}

/// A heterogeneous multiprocessor: cores plus an interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Platform name.
    pub name: String,
    /// All programmable cores.
    pub cores: Vec<Core>,
    /// Cost model for moving data to/from accelerator cores.
    pub dma: DmaModel,
}

impl Platform {
    /// Build a platform from a list of `(role name, target)` pairs.
    pub fn new(name: &str, cores: Vec<(&str, TargetDesc)>, dma: DmaModel) -> Self {
        Platform {
            name: name.to_owned(),
            cores: cores
                .into_iter()
                .enumerate()
                .map(|(id, (n, target))| Core {
                    id,
                    name: n.to_owned(),
                    target,
                })
                .collect(),
            dma,
        }
    }

    /// The developer workstation: a single x86 core with SSE.
    pub fn workstation() -> Self {
        Platform::new(
            "workstation",
            vec![("x86", TargetDesc::x86_sse())],
            DmaModel::on_chip(),
        )
    }

    /// A phone-class SoC: an ARM application core with Neon plus a small DSP.
    pub fn phone() -> Self {
        Platform::new(
            "phone",
            vec![("arm", TargetDesc::arm_neon()), ("dsp", TargetDesc::dsp())],
            DmaModel::on_chip(),
        )
    }

    /// A Cell-style blade: one PowerPC host core (PPE) and `spus` synergistic
    /// units reachable through DMA.
    pub fn cell_blade(spus: usize) -> Self {
        let mut cores = vec![("ppe", TargetDesc::cell_ppe())];
        let spu_names: Vec<String> = (0..spus).map(|i| format!("spu{i}")).collect();
        for name in &spu_names {
            cores.push((name.as_str(), TargetDesc::cell_spu()));
        }
        Platform::new("cell-blade", cores, DmaModel::ring_bus())
    }

    /// A GPU compute node: a RISC-V-class host core driving a GPU-style
    /// wide-SIMD accelerator (64-byte vectors) over a slow off-chip link —
    /// the modern heterogeneity scenario the paper's split-compilation story
    /// extends to.
    pub fn gpu_node() -> Self {
        Platform::new(
            "gpu-node",
            vec![
                ("riscv", TargetDesc::riscv_rv64()),
                ("gpu", TargetDesc::gpu_wide()),
            ],
            DmaModel::off_chip(),
        )
    }

    /// A legacy scalar embedded board: a single UltraSparc-class core.
    pub fn embedded_scalar() -> Self {
        Platform::new(
            "embedded-scalar",
            vec![("sparc", TargetDesc::ultrasparc())],
            DmaModel::on_chip(),
        )
    }

    /// The host core (core 0).
    ///
    /// # Panics
    ///
    /// Panics if the platform has no cores.
    pub fn host(&self) -> &Core {
        &self.cores[0]
    }

    /// Look up a core by role name.
    pub fn core(&self, name: &str) -> Option<&Core> {
        self.cores.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let w = Platform::workstation();
        assert_eq!(w.cores.len(), 1);
        assert!(w.host().target.has_simd());

        let p = Platform::phone();
        assert_eq!(p.cores.len(), 2);
        assert!(p.core("dsp").is_some());

        let cell = Platform::cell_blade(4);
        assert_eq!(cell.cores.len(), 5);
        let spu = TargetDesc::cell_spu();
        assert!(cell.cores[1..].iter().all(|c| c.target == spu));
        assert!(!cell.host().target.has_simd());
        assert!(cell.core("spu3").is_some());
        assert!(cell.core("spu4").is_none());

        let gpu = Platform::gpu_node();
        assert_eq!(gpu.cores.len(), 2);
        assert!(!gpu.host().target.has_simd(), "the RISC-V host is scalar");
        let accel = gpu.core("gpu").expect("node has a GPU");
        assert_eq!(accel.target.vector_bytes(), 64);
    }

    #[test]
    fn homogeneous_platforms_replicate_the_target() {
        let quad = vec![("core", TargetDesc::arm_neon()); 4];
        let h = Platform::new("quad", quad, DmaModel::on_chip());
        assert_eq!(h.cores.len(), 4);
        assert!(h.cores.iter().all(|c| c.target.name == "arm-neon"));
        assert_eq!(h.cores[3].id, 3);
    }
}
