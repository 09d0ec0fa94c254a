//! # splitc — processor virtualization and split compilation
//!
//! A from-scratch Rust reproduction of **Cohen & Rohou, "Processor
//! Virtualization and Split Compilation for Heterogeneous Multicore Embedded
//! Systems" (DAC 2010)**.
//!
//! The system compiles portable kernels (a small C-like language) *offline*
//! into a target-independent bytecode with embedded annotations — automatic
//! vectorization to portable vector builtins, split register allocation,
//! kernel hardware traits — and then compiles that bytecode *online*, cheaply,
//! for whichever core it lands on: an x86 with SSE, a scalar UltraSparc or
//! PowerPC, an ARM with Neon, a Cell-style accelerator or a DSP, all modeled
//! as cycle-cost simulators.
//!
//! This crate is the facade: it wires the front end ([`splitc_minic`]), the
//! offline optimizer ([`splitc_opt`]), the online compiler ([`splitc_jit`]),
//! the virtual targets ([`splitc_targets`]) and the heterogeneous runtime
//! ([`splitc_runtime`]) into a single pipeline, hosts the experiment
//! drivers that regenerate every table and figure of the paper
//! (see [`experiments`]), provides the sweep layer (see [`sweep`]) that
//! runs kernel × target × repeat matrices over one shared engine cache,
//! and the serving layer
//! (see [`serve`]) that exposes deployments behind a bounded request queue
//! with shared engines deduplicated by module encoding, each compiling once
//! per (target, options) pair compared by value.
//!
//! # Quick start
//!
//! ```
//! use splitc::{offline_compile, run_on_target, Workspace};
//! use splitc_jit::JitOptions;
//! use splitc_opt::OptOptions;
//! use splitc_targets::{MachineValue, TargetDesc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Offline: compile and optimize once, on the developer workstation.
//! let (module, report) = offline_compile(
//!     "fn dscal(n: i32, a: f32, x: *f32) {
//!          for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
//!      }",
//!     "kernels",
//!     &OptOptions::full(),
//! )?;
//! assert_eq!(report.total_vectorized(), 1);
//!
//! // 2. Online: the same bytecode runs on any simulated target.
//! let mut ws = Workspace::new(1 << 14);
//! let x = ws.alloc(4 * 100);
//! ws.write_f32s(x, &vec![1.0; 100]);
//! let run = run_on_target(
//!     &module,
//!     &TargetDesc::x86_sse(),
//!     &JitOptions::split(),
//!     "dscal",
//!     &[MachineValue::Int(100), MachineValue::Float(3.0), MachineValue::Int(x as i64)],
//!     ws.bytes_mut(),
//! )?;
//! assert!(run.jit.used_simd);
//! assert_eq!(ws.read_f32s(x, 1), vec![3.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
mod harness;
mod report;
pub mod serve;
mod session;
pub mod sweep;

pub use harness::{checksum, checksum_bytes, prepare, PreparedKernel};
pub use report::{fmt_cache_line, fmt_speedup, TextTable};
pub use session::{offline_compile, run_on_target, PipelineError, Workspace};
pub use sweep::{SweepCell, SweepConfig, SweepResult};
// The shared execution layer, re-exported so facade users can hold a cached
// engine instead of paying one compilation per `run_on_target` call, plus
// the deploy-time preparation types (pre-decoded programs, frame pools).
pub use splitc_runtime::{
    ArtifactStore, CacheSnapshot, CacheStats, EngineError, Execution, ExecutionEngine, FramePool,
    PreparedProgram, PreparedSimulator, StoreKey, StoreLoad, StoredArtifact, STORE_FORMAT_VERSION,
    STORE_MAGIC,
};

// Re-export the component crates so that downstream users (examples, tests,
// the `splitc` binary) can reach the whole system through this facade.
pub use splitc_jit;
pub use splitc_minic;
pub use splitc_opt;
pub use splitc_runtime;
pub use splitc_targets;
pub use splitc_vbc;
pub use splitc_workloads;
