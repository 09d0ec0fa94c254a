//! # splitc-workloads — benchmark kernels and input data
//!
//! The workload side of the DAC 2010 reproduction: the six kernels of the
//! paper's Table 1 plus the additional kernels needed by the split register
//! allocation, heterogeneity and Kahn-network experiments, together with
//! seeded input-data generators.
//!
//! # Example
//!
//! ```
//! use splitc_workloads::{table1_kernels, module_for, DataGen};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernels = table1_kernels();
//! assert_eq!(kernels.len(), 6);
//! let module = module_for(&kernels, "table1")?;
//! assert!(module.function("saxpy_f32").is_some());
//!
//! let mut gen = DataGen::new(7);
//! let xs = gen.f32s(1024, 100.0);
//! assert_eq!(xs.len(), 1024);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod data;
mod kernels;

pub use data::{DataGen, DEFAULT_N};
pub use kernels::{
    all_kernels, full_module, kernel, module_for, pipeline_kernels, pressure_kernels,
    table1_kernels, Arg, Fill, Kernel, KernelKind, Len, BRIGHTEN_U8, COPY_U8, DOT_F32, DSCAL_F32,
    FIR4_F32, HISTOGRAM_U8, HORNER_F32, HOTCOLD_F32, HOTCOLD_I32, MAX_U8, MIN_I16, PREFIX_SUM_I32,
    SAXPY_F32, SUM_U16, SUM_U8, THRESHOLD_U8, VECADD_F32,
};
