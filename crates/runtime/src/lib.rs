//! # splitc-runtime — the heterogeneous multicore runtime
//!
//! The deployment side of processor virtualization (Cohen & Rohou, DAC 2010,
//! Section 3): one portable bytecode module, many very different cores.
//!
//! * [`Platform`] / [`Core`] describe heterogeneous systems (workstation,
//!   phone SoC with a DSP, Cell-style blade with SIMD accelerators).
//! * [`ExecutionEngine`] is the shared, cached execution layer: one deployed
//!   module, one online compilation per distinct (target, JIT config)
//!   pair, both compared by value — guaranteed even under concurrent cold lookups by in-flight
//!   deduplication over a one-lock cache — compiled programs shared via `Arc`,
//!   and cache statistics for the paper's "online compilation pays for
//!   itself" story.
//! * [`serve`] is the request front-end for long-running deployments: a
//!   bounded MPMC work queue with backpressure, a worker pool, and shared
//!   engines deduplicated by module encoding, with graceful lossless
//!   shutdown and live [`serve::ServerStats`].
//! * [`choose_core`] maps a kernel onto a core, guided by the kernel-trait
//!   annotations the offline compiler left in the bytecode.
//! * [`DmaModel`] and [`run_offloaded`] account for the cost of shipping
//!   data to accelerators (the offload-profitability crossover of
//!   experiment E4).
//! * [`Network`] is a Kahn-process-network substrate for portable,
//!   deterministic concurrency (Section 4).
//!
//! # Example
//!
//! ```
//! use splitc_minic::compile_source;
//! use splitc_opt::{optimize_module, OptOptions};
//! use splitc_jit::JitOptions;
//! use splitc_runtime::{choose_core, ExecutionEngine, Platform};
//! use splitc_targets::MachineValue;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = compile_source(
//!     "fn dscal(n: i32, a: f32, x: *f32) {
//!          for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
//!      }",
//!     "kernels",
//! )?;
//! optimize_module(&mut module, &OptOptions::full());
//!
//! let platform = Platform::phone();
//! let traits = module.function("dscal").unwrap().annotations.kernel_traits.unwrap();
//! let core = choose_core(&traits, &platform);
//! assert_eq!(core.name, "arm"); // the vector-capable core, not the DSP
//!
//! let engine = ExecutionEngine::new(module);
//! let mut mem = vec![0u8; 1024];
//! mem[256..260].copy_from_slice(&4.0f32.to_le_bytes());
//! let args = [MachineValue::Int(1), MachineValue::Float(0.25), MachineValue::Int(256)];
//! engine.run(&core.target, &JitOptions::split(), "dscal", &args, &mut mem)?;
//! assert_eq!(&mem[256..260], &1.0f32.to_le_bytes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
pub mod hist;
mod kpn;
mod offload;
mod platform;
mod scheduler;
pub mod serve;
pub mod store;

pub use engine::{
    CacheSnapshot, CacheStats, CompiledModule, EngineError, Execution, ExecutionEngine,
};
pub use hist::{Histogram, EMPTY_QUANTILE};
pub use kpn::{pipeline, profile_pipeline, ChannelId, KpnReport, Network, Process, ProcessId};
pub use offload::{run_offloaded, DmaModel, OffloadCost};
pub use platform::{Core, Platform};
pub use scheduler::{affinity, choose_core};
pub use store::{
    ArtifactStore, StoreKey, StoreLoad, StoredArtifact, STORE_FORMAT_VERSION, STORE_MAGIC,
};
// Re-exported so engine callers can hold a frame pool (for `run_pooled`) and
// reach the prepared artifact without a direct `splitc-targets` dependency.
pub use splitc_targets::{FramePool, PreparedProgram, PreparedSimulator};
