//! The benchmark kernels.
//!
//! The six kernels of the paper's Table 1 (`vecadd fp`, `saxpy fp`, `dscal fp`,
//! `max u8`, `sum u8`, `sum u16`) plus the extra kernels used by the other
//! experiments: register-pressure workloads for split register allocation,
//! pipeline stages for the Kahn-network experiment, and a few non-vectorizable
//! kernels that exercise the negative paths of the offline vectorizer.
//!
//! Note on the reduction kernels: the accumulators use the element's own width
//! (wrapping arithmetic), which keeps the vectorized and scalar versions
//! bit-identical; the paper does not specify the accumulation width.

use splitc_minic::{compile_source, CompileError};
use splitc_vbc::{Module, ScalarType};

/// How a kernel participates in the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// One of the six Table 1 kernels.
    Table1,
    /// Additional data-parallel kernel.
    DataParallel,
    /// Register-pressure workload for the split register allocation experiment.
    RegisterPressure,
    /// Pipeline stage used by the Kahn-network experiment.
    PipelineStage,
    /// Deliberately non-vectorizable kernel (negative test for the vectorizer).
    Scalar,
}

/// A named benchmark kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel (and bytecode function) name.
    pub name: &'static str,
    /// mini-C source text.
    pub source: &'static str,
    /// The calling convention: what the experiments pass for each parameter
    /// of the kernel's signature, in order.
    pub args: &'static [Arg],
    /// Role in the experiments.
    pub kind: KernelKind,
    /// `true` if the offline vectorizer is expected to vectorize its hot loop.
    pub vectorizable: bool,
}

/// One argument of a kernel invocation over `n` elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arg {
    /// The element count `n`.
    N,
    /// A fixed integer.
    Int(i64),
    /// A fixed float.
    Float(f64),
    /// The address of a fresh buffer, allocated and filled in argument
    /// order.
    Buf {
        /// Element type.
        elem: ScalarType,
        /// Length in elements.
        len: Len,
        /// Contents before the call.
        fill: Fill,
        /// `true` for the one buffer the kernel writes its result to.
        output: bool,
    },
}

/// A buffer's length in elements, for an invocation over `n` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Len {
    /// `n`.
    N,
    /// `n` plus a fixed tail (a stencil's extra taps).
    NPlus(usize),
    /// Fixed, whatever `n` is.
    Fixed(usize),
}

impl Len {
    /// The length of this buffer in an invocation over `n` elements.
    pub fn elems(self, n: usize) -> usize {
        match self {
            Len::N => n,
            Len::NPlus(extra) => n + extra,
            Len::Fixed(len) => len,
        }
    }
}

/// A buffer's contents before the call: zeroes, or one seeded
/// [`DataGen`](crate::DataGen) call for its element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// Zeroes: the buffer is not input.
    Zero,
    /// Seeded values over the element type's whole range (`u8`, `u16`, `i16`).
    Any,
    /// Seeded values in `[-bound, bound)` (`f32`, `i32`).
    Within(i32),
}

/// A buffer the kernel only reads.
const fn input(elem: ScalarType, len: Len, fill: Fill) -> Arg {
    Arg::Buf {
        elem,
        len,
        fill,
        output: false,
    }
}

/// The buffer the kernel writes its result to.
const fn output(elem: ScalarType, len: Len, fill: Fill) -> Arg {
    Arg::Buf {
        elem,
        len,
        fill,
        output: true,
    }
}

/// `vecadd fp` — element-wise single-precision addition (Table 1, row 1).
pub const VECADD_F32: &str = r#"
fn vecadd_f32(n: i32, x: *f32, y: *f32, z: *f32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        z[i] = x[i] + y[i];
    }
}
"#;

/// `saxpy fp` — single-precision a*x plus y (Table 1, row 2).
pub const SAXPY_F32: &str = r#"
fn saxpy_f32(n: i32, a: f32, x: *f32, y: *f32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        y[i] = a * x[i] + y[i];
    }
}
"#;

/// `dscal fp` — scale a vector in place (Table 1, row 3).
pub const DSCAL_F32: &str = r#"
fn dscal_f32(n: i32, a: f32, x: *f32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        x[i] = a * x[i];
    }
}
"#;

/// `max u8` — maximum of an unsigned byte array (Table 1, row 4).
pub const MAX_U8: &str = r#"
fn max_u8(n: i32, x: *u8) -> u8 {
    let m: u8 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        m = max(m, x[i]);
    }
    return m;
}
"#;

/// `sum u8` — wrapping sum of an unsigned byte array (Table 1, row 5).
pub const SUM_U8: &str = r#"
fn sum_u8(n: i32, x: *u8) -> u8 {
    let s: u8 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        s = s + x[i];
    }
    return s;
}
"#;

/// `sum u16` — wrapping sum of an unsigned 16-bit array (Table 1, row 6).
pub const SUM_U16: &str = r#"
fn sum_u16(n: i32, x: *u16) -> u16 {
    let s: u16 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        s = s + x[i];
    }
    return s;
}
"#;

/// Dot product of two single-precision vectors (extra data-parallel kernel).
pub const DOT_F32: &str = r#"
fn dot_f32(n: i32, x: *f32, y: *f32) -> f32 {
    let s: f32 = 0.0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        s = s + x[i] * y[i];
    }
    return s;
}
"#;

/// Minimum of a signed 16-bit array (extra data-parallel kernel).
pub const MIN_I16: &str = r#"
fn min_i16(n: i32, x: *i16) -> i16 {
    let m: i16 = 32767;
    for (let i: i32 = 0; i < n; i = i + 1) {
        m = min(m, x[i]);
    }
    return m;
}
"#;

/// Saturating-free brightness adjustment of a byte image (pipeline stage).
pub const BRIGHTEN_U8: &str = r#"
fn brighten_u8(n: i32, x: *u8, y: *u8) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        y[i] = x[i] + 16;
    }
}
"#;

/// Box blur of radius 0 (copy) — used as a cheap pipeline stage.
pub const COPY_U8: &str = r#"
fn copy_u8(n: i32, x: *u8, y: *u8) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        y[i] = x[i];
    }
}
"#;

/// Threshold a byte image against a constant (pipeline stage; vectorizable
/// because `min`/`max` keep it branch-free).
pub const THRESHOLD_U8: &str = r#"
fn threshold_u8(n: i32, x: *u8, y: *u8) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        y[i] = min(max(x[i], 64), 192);
    }
}
"#;

/// Histogram of a byte array — indirect stores make it non-vectorizable.
pub const HISTOGRAM_U8: &str = r#"
fn histogram_u8(n: i32, x: *u8, counts: *i32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        let bucket: i32 = x[i] as i32;
        counts[bucket] = counts[bucket] + 1;
    }
}
"#;

/// Prefix sum — the loop-carried dependence makes it non-vectorizable.
pub const PREFIX_SUM_I32: &str = r#"
fn prefix_sum_i32(n: i32, x: *i32, y: *i32) {
    let acc: i32 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        acc = acc + x[i];
        y[i] = acc;
    }
}
"#;

/// Degree-7 polynomial evaluation (Horner) — a float register-pressure kernel.
pub const HORNER_F32: &str = r#"
fn horner_f32(n: i32, x: *f32, y: *f32) {
    let c0: f32 = 1.5; let c1: f32 = 2.5; let c2: f32 = 3.5; let c3: f32 = 4.5;
    let c4: f32 = 5.5; let c5: f32 = 6.5; let c6: f32 = 7.5; let c7: f32 = 8.5;
    for (let i: i32 = 0; i < n; i = i + 1) {
        let v: f32 = x[i];
        y[i] = ((((((v * c7 + c6) * v + c5) * v + c4) * v + c3) * v + c2) * v + c1) * v + c0;
    }
}
"#;

/// Nested-loop kernel whose *cold* values are defined first and whose *hot*
/// values are used in the inner loop — the case where a first-come-first-served
/// online register allocator picks badly and the offline spill order pays off.
pub const HOTCOLD_F32: &str = r#"
fn hotcold_f32(n: i32, m: i32, x: *f32, y: *f32) -> f32 {
    let cold0: f32 = 0.125; let cold1: f32 = 0.25; let cold2: f32 = 0.375;
    let cold3: f32 = 0.5;   let cold4: f32 = 0.625; let cold5: f32 = 0.75;
    let hot0: f32 = 1.5; let hot1: f32 = 2.5; let hot2: f32 = 3.5; let hot3: f32 = 4.5;
    let acc: f32 = 0.0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        let base: f32 = y[i];
        for (let j: i32 = 0; j < m; j = j + 1) {
            let v: f32 = x[j];
            acc = acc + (v * hot0 + hot1) * (v * hot2 + hot3);
        }
        acc = acc + base * cold0 + cold1 * cold2 + cold3 * cold4 + cold5;
    }
    return acc;
}
"#;

/// Integer variant of the hot/cold register-pressure workload.
pub const HOTCOLD_I32: &str = r#"
fn hotcold_i32(n: i32, m: i32, x: *i32, y: *i32) -> i32 {
    let cold0: i32 = 11; let cold1: i32 = 13; let cold2: i32 = 17;
    let cold3: i32 = 19; let cold4: i32 = 23; let cold5: i32 = 29;
    let hot0: i32 = 3; let hot1: i32 = 5; let hot2: i32 = 7; let hot3: i32 = 9;
    let acc: i32 = 0;
    for (let i: i32 = 0; i < n; i = i + 1) {
        let base: i32 = y[i];
        for (let j: i32 = 0; j < m; j = j + 1) {
            let v: i32 = x[j];
            acc = acc + (v * hot0 + hot1) * (v * hot2 + hot3);
        }
        acc = acc + base * cold0 + cold1 * cold2 + cold3 * cold4 + cold5;
    }
    return acc;
}
"#;

/// FIR filter with a 4-tap constant kernel (extra data-parallel workload with
/// neighbouring loads; not vectorized by the current offline pass, which only
/// handles unit-stride `p[i]` accesses — it still runs everywhere).
pub const FIR4_F32: &str = r#"
fn fir4_f32(n: i32, x: *f32, y: *f32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        let j: i32 = i + 1; let k: i32 = i + 2; let l: i32 = i + 3;
        y[i] = 0.25 * x[i] + 0.3 * x[j] + 0.3 * x[k] + 0.15 * x[l];
    }
}
"#;

/// The catalogue, in order. Each kernel's `args` follow its mini-C
/// signature, parameter for parameter.
const CATALOGUE: [Kernel; 17] = {
    use Fill::{Any, Within, Zero};
    use ScalarType::{F32, I16, I32, U16, U8};
    [
        Kernel {
            name: "vecadd_f32",
            source: VECADD_F32,
            args: &[
                Arg::N,
                input(F32, Len::N, Within(100)),
                input(F32, Len::N, Within(100)),
                output(F32, Len::N, Zero),
            ],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "saxpy_f32",
            source: SAXPY_F32,
            args: &[
                Arg::N,
                Arg::Float(1.75),
                input(F32, Len::N, Within(100)),
                output(F32, Len::N, Within(100)),
            ],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "dscal_f32",
            source: DSCAL_F32,
            args: &[Arg::N, Arg::Float(0.5), output(F32, Len::N, Within(100))],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "max_u8",
            source: MAX_U8,
            args: &[Arg::N, input(U8, Len::N, Any)],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "sum_u8",
            source: SUM_U8,
            args: &[Arg::N, input(U8, Len::N, Any)],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "sum_u16",
            source: SUM_U16,
            args: &[Arg::N, input(U16, Len::N, Any)],
            kind: KernelKind::Table1,
            vectorizable: true,
        },
        Kernel {
            name: "dot_f32",
            source: DOT_F32,
            args: &[
                Arg::N,
                input(F32, Len::N, Within(10)),
                input(F32, Len::N, Within(10)),
            ],
            kind: KernelKind::DataParallel,
            vectorizable: true,
        },
        Kernel {
            name: "min_i16",
            source: MIN_I16,
            args: &[Arg::N, input(I16, Len::N, Any)],
            kind: KernelKind::DataParallel,
            vectorizable: true,
        },
        Kernel {
            name: "brighten_u8",
            source: BRIGHTEN_U8,
            args: &[Arg::N, input(U8, Len::N, Any), output(U8, Len::N, Zero)],
            kind: KernelKind::PipelineStage,
            vectorizable: true,
        },
        Kernel {
            name: "copy_u8",
            source: COPY_U8,
            args: &[Arg::N, input(U8, Len::N, Any), output(U8, Len::N, Zero)],
            kind: KernelKind::PipelineStage,
            vectorizable: true,
        },
        Kernel {
            name: "threshold_u8",
            source: THRESHOLD_U8,
            args: &[Arg::N, input(U8, Len::N, Any), output(U8, Len::N, Zero)],
            kind: KernelKind::PipelineStage,
            vectorizable: true,
        },
        Kernel {
            name: "histogram_u8",
            source: HISTOGRAM_U8,
            args: &[
                Arg::N,
                input(U8, Len::N, Any),
                output(I32, Len::Fixed(256), Zero),
            ],
            kind: KernelKind::Scalar,
            vectorizable: false,
        },
        Kernel {
            name: "prefix_sum_i32",
            source: PREFIX_SUM_I32,
            args: &[
                Arg::N,
                input(I32, Len::N, Within(1000)),
                output(I32, Len::N, Zero),
            ],
            kind: KernelKind::Scalar,
            vectorizable: false,
        },
        Kernel {
            name: "fir4_f32",
            source: FIR4_F32,
            args: &[
                Arg::N,
                input(F32, Len::NPlus(4), Within(10)),
                output(F32, Len::N, Zero),
            ],
            kind: KernelKind::Scalar,
            vectorizable: false,
        },
        Kernel {
            name: "horner_f32",
            source: HORNER_F32,
            args: &[
                Arg::N,
                input(F32, Len::N, Within(1)),
                output(F32, Len::N, Zero),
            ],
            kind: KernelKind::RegisterPressure,
            vectorizable: true,
        },
        Kernel {
            name: "hotcold_f32",
            source: HOTCOLD_F32,
            args: &[
                Arg::N,
                Arg::Int(32),
                input(F32, Len::Fixed(32), Within(1)),
                input(F32, Len::N, Within(1)),
            ],
            kind: KernelKind::RegisterPressure,
            vectorizable: true,
        },
        Kernel {
            name: "hotcold_i32",
            source: HOTCOLD_I32,
            args: &[
                Arg::N,
                Arg::Int(32),
                input(I32, Len::Fixed(32), Within(100)),
                input(I32, Len::N, Within(100)),
            ],
            kind: KernelKind::RegisterPressure,
            vectorizable: true,
        },
    ]
};

/// The complete kernel catalogue.
pub fn all_kernels() -> Vec<Kernel> {
    CATALOGUE.to_vec()
}

/// The six kernels of Table 1, in the paper's row order.
pub fn table1_kernels() -> Vec<Kernel> {
    all_kernels()
        .into_iter()
        .filter(|k| k.kind == KernelKind::Table1)
        .collect()
}

/// Kernels used by the split-register-allocation experiment.
pub fn pressure_kernels() -> Vec<Kernel> {
    all_kernels()
        .into_iter()
        .filter(|k| k.kind == KernelKind::RegisterPressure)
        .collect()
}

/// Kernels usable as pipeline stages in the Kahn-network experiment.
pub fn pipeline_kernels() -> Vec<Kernel> {
    all_kernels()
        .into_iter()
        .filter(|k| k.kind == KernelKind::PipelineStage)
        .collect()
}

/// Look up a kernel by name.
pub fn kernel(name: &str) -> Option<Kernel> {
    CATALOGUE.iter().find(|k| k.name == name).cloned()
}

/// Compile a set of kernels into a single (unoptimized) bytecode module.
///
/// # Errors
///
/// Returns the front-end error if any kernel fails to compile (which would be
/// a bug in this crate's sources).
pub fn module_for(kernels: &[Kernel], module_name: &str) -> Result<Module, CompileError> {
    let source: String = kernels
        .iter()
        .map(|k| k.source)
        .collect::<Vec<_>>()
        .join("\n");
    compile_source(&source, module_name)
}

/// Compile every kernel of the catalogue into one module.
///
/// # Errors
///
/// See [`module_for`].
pub fn full_module(module_name: &str) -> Result<Module, CompileError> {
    module_for(&all_kernels(), module_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_compiles_and_names_match() {
        for k in all_kernels() {
            let m = module_for(std::slice::from_ref(&k), "t")
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert!(
                m.function(k.name).is_some(),
                "kernel source of {} must define a function of the same name",
                k.name
            );
        }
    }

    #[test]
    fn table1_has_exactly_the_six_paper_kernels() {
        let names: Vec<_> = table1_kernels().iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            vec![
                "vecadd_f32",
                "saxpy_f32",
                "dscal_f32",
                "max_u8",
                "sum_u8",
                "sum_u16"
            ]
        );
    }

    #[test]
    fn catalogue_partitions_are_consistent() {
        assert!(pressure_kernels().len() >= 2);
        assert!(pipeline_kernels().len() >= 3);
        assert!(kernel("saxpy_f32").is_some());
        assert!(kernel("nope").is_none());
        let m = full_module("all").unwrap();
        assert_eq!(m.functions().len(), all_kernels().len());
    }

    #[test]
    fn vectorizable_flags_match_the_offline_vectorizer() {
        use splitc_opt::{optimize_module, OptOptions};
        for k in all_kernels() {
            let mut m = module_for(std::slice::from_ref(&k), "t").unwrap();
            let report = optimize_module(&mut m, &OptOptions::full());
            let vectorized = report.vectorized_loops.contains_key(k.name);
            assert_eq!(
                vectorized, k.vectorizable,
                "{}: expected vectorizable={} (rejections: {:?})",
                k.name, k.vectorizable, report.rejections
            );
        }
    }
}
