//! Experiment drivers reproducing every table and figure of the paper.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — run times and speedups of split automatic vectorization |
//! | [`splitflow`] | Figure 1 — offline/online work split of split compilation |
//! | [`regalloc`] | Section 4 — split register allocation (spill reduction) |
//! | [`hetero`] | Section 3 — heterogeneous deployment and accelerator offload |
//! | [`codesize`] | Section 2.1 — compactness of the bytecode deployment format |
//! | [`kpn`] | Section 4 — Kahn process networks for portable concurrency |
//!
//! Every driver returns a structured result with a `render()` method that
//! prints a paper-style table; `splitc report` is a thin wrapper around
//! these functions.

pub mod codesize;
pub mod hetero;
pub mod kpn;
pub mod regalloc;
pub mod splitflow;
pub mod table1;
