//! Umbrella package for the `splitc` reproduction workspace.
//!
//! The real functionality lives in the `splitc*` crates under `crates/`.
//! This package only hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! Start with [`splitc`] for the high-level pipeline API.

#![forbid(unsafe_code)]

pub use splitc;
