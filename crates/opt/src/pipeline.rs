//! The offline optimization pipeline.
//!
//! [`optimize_module`] is what the paper calls the µProc-independent compiler's
//! optimization stage (Figure 1): it runs the expensive, target-independent
//! analyses once, on the developer's machine, and records their results as
//! annotations so that every JIT on every device can skip them.

use crate::annotate::annotate_module;
use crate::constfold::fold_module;
use crate::dce::eliminate_dead_code_module;
use crate::regalloc_split::annotate_spill_orders;
use crate::vectorize::{vectorize_module, Reason};
use splitc_vbc::Module;
use std::collections::BTreeMap;

/// Which offline steps to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptOptions {
    /// Constant folding and copy propagation.
    pub fold: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Automatic vectorization to portable builtins.
    pub vectorize: bool,
    /// Split register allocation (offline spill ordering).
    pub split_regalloc: bool,
    /// Kernel-trait annotations.
    pub annotate: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            fold: true,
            dce: true,
            vectorize: true,
            split_regalloc: true,
            annotate: true,
        }
    }
}

impl OptOptions {
    /// Everything enabled (the full offline step of split compilation).
    pub fn full() -> Self {
        Self::default()
    }

    /// No offline optimization at all: the bytecode is shipped as the front
    /// end produced it. This is the "traditional deferred compilation"
    /// baseline of experiment E2.
    pub fn none() -> Self {
        OptOptions {
            fold: false,
            dce: false,
            vectorize: false,
            split_regalloc: false,
            annotate: false,
        }
    }

    /// Cleanups only, no vectorization and no annotations — bytecode that a
    /// conventional offline compiler would ship.
    pub fn scalar_only() -> Self {
        OptOptions {
            fold: true,
            dce: true,
            vectorize: false,
            split_regalloc: false,
            annotate: false,
        }
    }
}

/// Measured outcome of one offline optimization run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Operands rewritten by copy propagation.
    pub copies_propagated: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// Loops vectorized, per function.
    pub vectorized_loops: BTreeMap<String, usize>,
    /// Loops examined but rejected, per function, with reasons.
    pub rejections: BTreeMap<String, Vec<Reason>>,
    /// Functions that received a spill-order annotation.
    pub spill_orders: usize,
    /// Functions that received kernel-trait annotations.
    pub annotated: usize,
    /// Abstract offline work units (the "complexity" axis of Figure 1).
    pub offline_work: u64,
}

impl OptReport {
    /// Total number of vectorized loops across all functions.
    pub fn total_vectorized(&self) -> usize {
        self.vectorized_loops.values().sum()
    }
}

/// Run the offline pipeline over `m` according to `opts`.
pub fn optimize_module(m: &mut Module, opts: &OptOptions) -> OptReport {
    let mut report = OptReport::default();

    if opts.fold {
        let s = fold_module(m);
        report.folded += s.folded;
        report.copies_propagated += s.copies_propagated;
        report.offline_work += m.num_insts() as u64 * 2;
    }
    if opts.dce {
        report.dce_removed += eliminate_dead_code_module(m);
        report.offline_work += m.num_insts() as u64;
    }
    if opts.vectorize {
        let reports = vectorize_module(m);
        for (f, r) in m.functions().iter().zip(reports) {
            report.offline_work += r.analysis_work;
            if r.count() > 0 {
                report.vectorized_loops.insert(f.name.clone(), r.count());
            }
            if !r.rejected.is_empty() {
                let reasons = r.rejected.into_iter().map(|(_, why)| why).collect();
                report.rejections.insert(f.name.clone(), reasons);
            }
        }
        // Clean up after the vectorizer: the cloned address chains leave some
        // dead scalar constants behind.
        if opts.fold {
            let s = fold_module(m);
            report.folded += s.folded;
            report.copies_propagated += s.copies_propagated;
        }
        if opts.dce {
            report.dce_removed += eliminate_dead_code_module(m);
        }
    }
    if opts.split_regalloc {
        report.spill_orders = annotate_spill_orders(m);
        report.offline_work += m.num_insts() as u64 * 3;
    }
    if opts.annotate {
        report.annotated = annotate_module(m);
        report.offline_work += m.num_insts() as u64;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;
    use splitc_vbc::verify_module;

    const KERNELS: &str = r#"
        fn vecadd(n: i32, x: *f32, y: *f32, z: *f32) {
            for (let i: i32 = 0; i < n; i = i + 1) { z[i] = x[i] + y[i]; }
        }
        fn sum_u8(n: i32, x: *u8) -> u8 {
            let s: u8 = 0;
            for (let i: i32 = 0; i < n; i = i + 1) { s = s + x[i]; }
            return s;
        }
    "#;

    #[test]
    fn full_pipeline_vectorizes_annotates_and_verifies() {
        let mut m = compile_source(KERNELS, "t").unwrap();
        let report = optimize_module(&mut m, &OptOptions::full());
        assert_eq!(report.total_vectorized(), 2);
        assert_eq!(report.spill_orders, 2);
        assert_eq!(report.annotated, 2);
        assert!(report.offline_work > 0);
        for f in m.functions() {
            assert!(f.annotations.spill_order.is_some(), "{}", f.name);
            assert!(f.annotations.kernel_traits.is_some(), "{}", f.name);
        }
        verify_module(&m).unwrap();
    }

    #[test]
    fn disabled_pipeline_leaves_the_module_untouched() {
        let mut m = compile_source(KERNELS, "t").unwrap();
        let original = m.clone();
        let report = optimize_module(&mut m, &OptOptions::none());
        assert_eq!(report.total_vectorized(), 0);
        assert_eq!(report.offline_work, 0);
        assert_eq!(m, original);
    }

    #[test]
    fn scalar_only_cleans_up_without_vector_builtins() {
        let mut m = compile_source(KERNELS, "t").unwrap();
        let report = optimize_module(&mut m, &OptOptions::scalar_only());
        assert_eq!(report.total_vectorized(), 0);
        assert!(m.functions().iter().all(|f| !f.uses_vector_builtins()));
        assert!(report.offline_work > 0);
        verify_module(&m).unwrap();
    }

    #[test]
    fn full_costs_more_offline_work_than_scalar_only() {
        let mut a = compile_source(KERNELS, "t").unwrap();
        let mut b = compile_source(KERNELS, "t").unwrap();
        let full = optimize_module(&mut a, &OptOptions::full());
        let scalar = optimize_module(&mut b, &OptOptions::scalar_only());
        assert!(
            full.offline_work > scalar.offline_work,
            "split compilation moves work offline: {} vs {}",
            full.offline_work,
            scalar.offline_work
        );
    }
}
