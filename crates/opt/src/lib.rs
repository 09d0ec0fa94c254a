//! # splitc-opt — the offline optimizer
//!
//! The expensive half of split compilation (Cohen & Rohou, DAC 2010). This
//! crate analyzes and transforms the portable bytecode of [`splitc_vbc`]
//! *offline*, on the developer's machine, and records everything the online
//! compiler will need as bytecode annotations:
//!
//! * classical cleanups: [`fold_module`] (constant folding, copy propagation)
//!   and [`eliminate_dead_code_module`];
//! * loop analyses: [`LoopForest`], [`induction_variables`], [`loop_bound`];
//! * [`vectorize_module`] — automatic vectorization to the portable vector
//!   builtins (the Table 1 experiment);
//! * [`annotate_spill_orders`] — the offline half of split register
//!   allocation (the Section 4 experiment);
//! * [`annotate_module`] — kernel hardware-affinity traits for the
//!   heterogeneous runtime;
//! * [`optimize_module`] — the whole pipeline, with [`OptOptions`] selecting
//!   the baseline variants used by the experiments.
//!
//! # Example
//!
//! ```
//! use splitc_minic::compile_source;
//! use splitc_opt::{optimize_module, OptOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = compile_source(
//!     "fn dscal(n: i32, a: f32, x: *f32) {
//!          for (let i: i32 = 0; i < n; i = i + 1) { x[i] = a * x[i]; }
//!      }",
//!     "kernels",
//! )?;
//! let report = optimize_module(&mut module, &OptOptions::full());
//! assert_eq!(report.total_vectorized(), 1);
//! assert!(module.function("dscal").unwrap().uses_vector_builtins());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annotate;
pub mod cfg;
pub mod constfold;
pub mod dce;
pub mod defuse;
pub mod dom;
pub mod indvars;
pub mod liveness;
pub mod loops;
pub mod pipeline;
pub mod regalloc_split;
mod rows;
pub mod vectorize;

pub use annotate::{annotate_module, kernel_traits};
pub use constfold::{fold_function, fold_module, FoldStats};
pub use dce::{eliminate_dead_code, eliminate_dead_code_module};
pub use defuse::{DefUse, InstPos};
pub use indvars::{induction_variables, loop_bound, InductionVar, LoopBound};
pub use liveness::Liveness;
pub use loops::{Loop, LoopForest};
pub use pipeline::{optimize_module, OptOptions, OptReport};
pub use regalloc_split::{annotate_spill_orders, profiles, RegProfile};
pub use vectorize::{vectorize_function, vectorize_module, Reason, VectorizeReport};
