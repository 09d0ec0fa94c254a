//! # splitc-jit — the online (JIT) compiler
//!
//! The device-side half of split compilation (Cohen & Rohou, DAC 2010). Given
//! a portable bytecode module — ideally one prepared by the offline optimizer
//! of `splitc-opt` — and a concrete [`TargetDesc`](splitc_targets::TargetDesc),
//! [`compile_module`] produces machine code for that target while staying
//! cheap enough to run on an embedded device:
//!
//! * the portable vector builtins are mapped directly onto the target's SIMD
//!   unit, or scalarized (unrolled) when there is none — no vectorization
//!   analysis happens online (that is Table 1's experiment);
//! * register assignment is driven by the offline spill-order annotation in
//!   linear time ([`RegAllocMode::SplitAnnotations`]); the baselines
//!   [`RegAllocMode::OnlineGreedy`] and [`RegAllocMode::OnlineAnalyze`]
//!   reproduce what a JIT does without the annotation (Section 4's split
//!   register allocation experiment);
//! * every phase reports work units in [`JitStats`], which is the online cost
//!   axis of the split-compilation flow (Figure 1).
//!
//! # Example
//!
//! ```
//! use splitc_jit::{compile_module, JitOptions};
//! use splitc_minic::compile_source;
//! use splitc_opt::{optimize_module, OptOptions};
//! use splitc_targets::{MachineValue, PreparedProgram, PreparedSimulator, TargetDesc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Offline: compile and optimize once, on the developer workstation.
//! let mut module = compile_source(
//!     "fn dscal(n: i32, a: f32, x: *f32) {
//!          for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
//!      }",
//!     "kernels",
//! )?;
//! optimize_module(&mut module, &OptOptions::full());
//!
//! // Online: compile the same bytecode for two very different machines.
//! for target in [TargetDesc::x86_sse(), TargetDesc::powerpc()] {
//!     let (program, stats) = compile_module(&module, &target, &JitOptions::split())?;
//!     let mut mem = vec![0u8; 4096];
//!     mem[256..260].copy_from_slice(&2.0f32.to_le_bytes());
//!     let prepared = PreparedProgram::prepare(&program, &target)?;
//!     let mut sim = PreparedSimulator::new(&prepared);
//!     sim.run(
//!         "dscal",
//!         &[MachineValue::Int(1), MachineValue::Float(0.5), MachineValue::Int(256)],
//!         &mut mem,
//!     )?;
//!     assert_eq!(&mem[256..260], &1.0f32.to_le_bytes());
//!     assert!(stats.total_work() > 0);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod compile;
mod lowering;
mod mir;
mod regassign;

pub use compile::{compile_module, JitError, JitOptions, JitStats};
pub use regassign::RegAllocMode;
