//! # splitc-targets — virtual ISAs, cost models and cycle simulators
//!
//! This crate stands in for the hardware of the DAC 2010 paper's evaluation.
//! The paper measured real x86 (SSE), UltraSparc and PowerPC machines plus the
//! heterogeneous platforms of Section 3 (ARM+Neon phones, Cell PPE/SPU, DSPs);
//! none of that hardware is available to this reproduction, so each machine is
//! modeled as a [`TargetDesc`] — register files, an optional SIMD unit and a
//! per-operation [`CostModel`] — together with a simulator that executes
//! the virtual machine code ([`MProgram`]) emitted by the online compiler and
//! reports deterministic cycle counts ([`SimStats`]): programs are prepared
//! once per target ([`PreparedProgram`]) and run through
//! [`PreparedSimulator`]. Each machine instruction's semantics is stated
//! once, by its handler. Two references check it: the vbc interpreter for
//! values and memory (`tests/differential.rs`, `tests/fuzz_differential.rs`),
//! and recorded digests of whole runs — outcome, every [`SimStats`] counter
//! and the memory image — for cycles, stalls and mispredicts, recorded from
//! the block walk this crate once carried beside the handlers
//! (`tests/prepared.rs`, the fuzz suite and the executor's unit tests).
//!
//! Absolute cycle numbers are synthetic; the experiments only rely on the
//! *relative* behaviour (scalar vs. vectorized code, one target vs. another),
//! which is what the paper's Table 1 reports as speedups.
//!
//! # Example
//!
//! ```
//! use splitc_targets::{
//!     AluOp, MBlock, MFunction, MInst, MProgram, MachineValue, PReg, PreparedProgram,
//!     PreparedSimulator, TargetDesc, Width,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A one-block function: return 2 * argument.
//! let f = MFunction {
//!     name: "double".into(),
//!     params: vec![PReg::int(0)],
//!     blocks: vec![MBlock {
//!         insts: vec![
//!             MInst::Imm { dst: PReg::int(1), value: 2 },
//!             MInst::IntOp {
//!                 op: AluOp::Mul, width: Width::W32, signed: true,
//!                 dst: PReg::int(0), lhs: PReg::int(0), rhs: PReg::int(1),
//!             },
//!             MInst::Ret { value: Some(PReg::int(0)) },
//!         ],
//!     }],
//!     num_slots: 0,
//! };
//! let program = MProgram { name: "demo".into(), functions: vec![f] };
//!
//! // The same code costs different cycles on different machines.
//! let mut mem = vec![0u8; 32];
//! let mut cycles = Vec::new();
//! for target in [TargetDesc::x86_sse(), TargetDesc::ultrasparc()] {
//!     let prepared = PreparedProgram::prepare(&program, &target)?;
//!     let mut sim = PreparedSimulator::new(&prepared);
//!     let out = sim.run("double", &[MachineValue::Int(21)], &mut mem)?;
//!     assert_eq!(out, Some(MachineValue::Int(42)));
//!     cycles.push(sim.stats().cycles);
//! }
//! assert_ne!(cycles[0], cycles[1]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod desc;
mod dispatch;
mod exec;
mod hash;
mod mcode;
mod simulator;
mod timing;

pub use desc::{CostModel, TargetDesc, VectorUnit, GPU_DIVERGENCE_PENALTY};
pub use exec::{FramePool, FusionStats, PreparedProgram, PreparedSimulator};
pub use hash::Fnv1a;
pub use mcode::{
    AluOp, CmpPred, FpuOp, MBlock, MCall, MFunction, MInst, MProgram, PReg, RedOp, RegClass, Width,
};
pub use simulator::{MachineValue, SimError, SimStats, DEFAULT_SIM_FUEL, MAX_CALL_DEPTH};
pub use timing::{InOrderPipeline, LatClass, TimingKind, TimingModel};
