//! Kernel-trait annotation pass.
//!
//! Beyond the spill orders of split register allocation, the paper proposes
//! that annotations "express the hardware requirements or characteristics of
//! a code module" so that the runtime can map computations onto the right
//! core (Section 3). This pass derives those characteristics from the
//! bytecode: the three flags the runtime's core chooser reads.

use crate::loops::LoopForest;
use splitc_vbc::{Function, Inst, KernelTraits, Module};

/// Derive [`KernelTraits`] for one function.
pub fn kernel_traits(f: &Function) -> KernelTraits {
    traits_in(f, &LoopForest::compute(f))
}

/// [`kernel_traits`] of `f`, whose loops are `forest`.
fn traits_in(f: &Function, forest: &LoopForest) -> KernelTraits {
    let mut arith = 0usize;
    let mut branches = 0usize;

    // Judge the hottest (innermost) loops when there are any; otherwise the
    // whole function.
    let in_scope =
        |b: splitc_vbc::BlockId| forest.is_empty() || forest.innermost().any(|l| l.contains(b));

    for inst in f
        .blocks
        .iter()
        .filter(|block| in_scope(block.id))
        .flat_map(|block| &block.insts)
    {
        match inst {
            Inst::Bin { .. } | Inst::Un { .. } | Inst::VecBin { .. } | Inst::VecReduce { .. } => {
                arith += 1;
            }
            Inst::Branch { .. } => branches += 1,
            _ => {}
        }
    }

    KernelTraits {
        uses_fp: f.uses_float(),
        uses_vector: f.uses_vector_builtins(),
        control_intensive: branches >= 2 && branches * 2 >= arith.max(1),
    }
}

/// Attach kernel traits to every function. Returns the number of functions
/// annotated.
pub fn annotate_module(m: &mut Module) -> usize {
    // One forest, refilled for each function.
    let mut forest = LoopForest::default();
    for f in m.functions_mut() {
        forest.recompute(f);
        f.annotations.kernel_traits = Some(traits_in(f, &forest));
    }
    m.functions().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;

    #[test]
    fn traits_reflect_float_and_memory_usage() {
        let m = compile_source(
            r#"
            fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) { y[i] = a * x[i] + y[i]; }
            }
            "#,
            "t",
        )
        .unwrap();
        let t = kernel_traits(m.function("saxpy").unwrap());
        assert!(t.uses_fp);
        assert!(!t.uses_vector);
        assert!(!t.control_intensive);
    }

    #[test]
    fn control_heavy_code_is_flagged() {
        let m = compile_source(
            r#"
            fn steps(x: i32) -> i32 {
                let r: i32 = 0;
                if (x > 0) { r = 1; } else { r = 2; }
                if (x > 10) { r = r + 1; } else { r = r - 1; }
                if (x > 100) { r = r * 2; } else { r = r * 3; }
                return r;
            }
            "#,
            "t",
        )
        .unwrap();
        let t = kernel_traits(m.function("steps").unwrap());
        assert!(t.control_intensive);
        assert!(!t.uses_fp);
    }

    #[test]
    fn module_annotation_attaches_traits_to_every_function() {
        let mut m = compile_source(
            "fn fill(x: *u8) { for (let i: i32 = 0; i < 256; i = i + 1) { x[i] = 1; } }
             fn half(x: f32) -> f32 { return x * 0.5; }",
            "t",
        )
        .unwrap();
        assert_eq!(annotate_module(&mut m), 2);
        for f in m.functions() {
            assert_eq!(f.annotations.kernel_traits, Some(kernel_traits(f)));
            assert_eq!(f.annotations.spill_order, None, "{}", f.name);
        }
    }
}
