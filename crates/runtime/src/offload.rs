//! Interconnect / DMA cost model for accelerator offload.
//!
//! When the runtime decides to run a kernel on an accelerator (the Cell SPU
//! scenario of Section 3), the input data must be shipped to the accelerator's
//! local store and the results shipped back. This module models that transfer
//! cost, which is what determines the offload-profitability crossover studied
//! in experiment E4.

use crate::engine::Execution;

/// Cost model for one data transfer path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaModel {
    /// Sustained bandwidth in bytes per host cycle.
    pub bytes_per_cycle: f64,
    /// Fixed start-up latency per transfer, in host cycles.
    pub latency: u64,
}

impl DmaModel {
    /// Fast on-chip interconnect (shared memory, negligible start-up cost).
    pub fn on_chip() -> Self {
        DmaModel {
            bytes_per_cycle: 16.0,
            latency: 50,
        }
    }

    /// A Cell-style ring bus between the host and the accelerators.
    pub fn ring_bus() -> Self {
        DmaModel {
            bytes_per_cycle: 8.0,
            latency: 600,
        }
    }

    /// A slow off-chip link (e.g. an external accelerator board).
    pub fn off_chip() -> Self {
        DmaModel {
            bytes_per_cycle: 1.0,
            latency: 5_000,
        }
    }

    /// Cycles needed to move `bytes` bytes in one direction.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency + (bytes as f64 / self.bytes_per_cycle).ceil() as u64
    }

    /// Cycles for a round trip: ship `bytes_in` to the accelerator and
    /// `bytes_out` back to the host.
    pub fn round_trip_cycles(&self, bytes_in: u64, bytes_out: u64) -> u64 {
        self.transfer_cycles(bytes_in) + self.transfer_cycles(bytes_out)
    }
}

/// Breakdown of an offloaded kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadCost {
    /// Cycles spent computing on the accelerator (scaled to host cycles).
    pub compute_cycles: u64,
    /// Cycles spent transferring inputs and outputs.
    pub dma_cycles: u64,
}

impl OffloadCost {
    /// Total cycles as seen by the host.
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.dma_cycles
    }
}

/// The cost, as the host sees it, of having run a kernel on an accelerator
/// core: `run`'s compute cycles (already scaled to host cycles) plus shipping
/// `bytes_in` of input there and `bytes_out` of output back over `dma`.
pub fn run_offloaded(
    run: &Execution,
    dma: &DmaModel,
    bytes_in: u64,
    bytes_out: u64,
) -> OffloadCost {
    OffloadCost {
        compute_cycles: run.scaled_cycles as u64,
        dma_cycles: dma.round_trip_cycles(bytes_in, bytes_out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionEngine, Platform};
    use splitc_jit::JitOptions;
    use splitc_minic::compile_source;
    use splitc_targets::MachineValue;

    #[test]
    fn offload_accounts_for_dma() {
        let module = compile_source(
            "fn dscal(n: i32, a: f32, x: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
            }",
            "k",
        )
        .unwrap();
        let platform = Platform::cell_blade(1);
        let spu = platform.core("spu0").unwrap();
        let n = 64u64;
        let mut mem = vec![0u8; 4096];
        let args = [
            MachineValue::Int(n as i64),
            MachineValue::Float(0.5),
            MachineValue::Int(256),
        ];
        let run = ExecutionEngine::new(module)
            .run(&spu.target, &JitOptions::split(), "dscal", &args, &mut mem)
            .unwrap();
        let cost = run_offloaded(&run, &platform.dma, n * 4, n * 4);
        assert_eq!(cost.compute_cycles, run.scaled_cycles as u64);
        assert_eq!(
            cost.dma_cycles,
            platform.dma.round_trip_cycles(n * 4, n * 4)
        );
        assert!(cost.dma_cycles > 0);
        assert!(cost.total() > cost.compute_cycles);
    }

    #[test]
    fn transfer_cost_scales_with_size_and_includes_latency() {
        let dma = DmaModel::ring_bus();
        assert_eq!(dma.transfer_cycles(0), 0);
        let small = dma.transfer_cycles(64);
        let large = dma.transfer_cycles(64 * 1024);
        assert!(small >= dma.latency);
        assert!(large > small * 10);
        assert_eq!(
            dma.round_trip_cycles(1024, 512),
            dma.transfer_cycles(1024) + dma.transfer_cycles(512)
        );
    }

    #[test]
    fn interconnects_are_ordered_by_speed() {
        let n = 1 << 20;
        assert!(DmaModel::on_chip().transfer_cycles(n) < DmaModel::ring_bus().transfer_cycles(n));
        assert!(DmaModel::ring_bus().transfer_cycles(n) < DmaModel::off_chip().transfer_cycles(n));
    }

    #[test]
    fn offload_cost_totals() {
        let c = OffloadCost {
            compute_cycles: 1000,
            dma_cycles: 250,
        };
        assert_eq!(c.total(), 1250);
    }
}
