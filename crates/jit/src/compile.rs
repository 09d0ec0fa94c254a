//! The online compiler driver.

use crate::lowering::lower_function;
use crate::regassign::{RegAllocMode, RegAssigner};
use splitc_targets::{MProgram, TargetDesc};
use splitc_vbc::{verify_module, Module, VerifyError};
use std::error::Error;
use std::fmt;

/// Options controlling the online compilation of a module.
///
/// The type is `Copy + Eq` so that execution caches can key compiled code by
/// `(target, JitOptions)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JitOptions {
    /// How register assignment obtains its keep ranking.
    pub regalloc: RegAllocMode,
    /// Allow the use of the target's SIMD unit (when it has one). Disabling
    /// this reproduces a JIT that ignores the vector builtins even on a
    /// vector-capable machine.
    pub allow_simd: bool,
    /// Weld adjacent records in pairs when the deployment is prepared for
    /// execution (the first record's handler runs both). Purely a
    /// dispatch-speed knob: results, traps and `SimStats` are bit-identical
    /// with welding on or off, which the differential suites exploit by
    /// pinning `fuse: false` runs against welded ones.
    pub fuse: bool,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            regalloc: RegAllocMode::default(),
            allow_simd: false,
            fuse: true,
        }
    }
}

impl JitOptions {
    /// The split-compilation configuration: consume every annotation, use SIMD.
    pub fn split() -> Self {
        JitOptions {
            regalloc: RegAllocMode::SplitAnnotations,
            allow_simd: true,
            fuse: true,
        }
    }

    /// A fast, analysis-free baseline JIT: no annotations, greedy register assignment.
    pub fn online_greedy() -> Self {
        JitOptions {
            regalloc: RegAllocMode::OnlineGreedy,
            allow_simd: true,
            fuse: true,
        }
    }

    /// A thorough baseline JIT that redoes the analyses online.
    pub fn online_analyze() -> Self {
        JitOptions {
            regalloc: RegAllocMode::OnlineAnalyze,
            allow_simd: true,
            fuse: true,
        }
    }

    /// Stable FNV-1a fingerprint of the option set.
    ///
    /// Unlike `Hash`, whose output is unspecified across Rust versions and
    /// hasher seeds, this fingerprint is part of the artifact store's
    /// on-disk key — it must produce identical values in every process that
    /// shares a store directory. Changing the encoding here orphans every
    /// stored entry (which is safe: key misses fall back
    /// to a fresh compile), so keep it in sync with the fields of the
    /// struct and give new fields new byte positions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitc_targets::Fnv1a::new();
        h.write(&[
            match self.regalloc {
                RegAllocMode::SplitAnnotations => 0u8,
                RegAllocMode::OnlineGreedy => 1,
                RegAllocMode::OnlineAnalyze => 2,
            },
            self.allow_simd as u8,
            self.fuse as u8,
        ]);
        h.finish()
    }
}

/// Measured cost and outcome of one online compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Functions compiled.
    pub functions: u64,
    /// Work units spent verifying the incoming bytecode.
    pub verify_work: u64,
    /// Work units spent on instruction selection.
    pub lowering_work: u64,
    /// Work units spent on register assignment (including any online analysis).
    pub regalloc_work: u64,
    /// Spill instructions in the generated code (static count).
    pub static_spills: u64,
    /// Reload instructions in the generated code (static count).
    pub static_reloads: u64,
    /// `true` if split-compilation annotations were consumed.
    pub annotations_used: bool,
    /// `true` if SIMD instructions were emitted.
    pub used_simd: bool,
    /// `true` if portable vector builtins had to be scalarized.
    pub scalarized: bool,
}

impl JitStats {
    /// Total online work units — the "JIT compile time" axis of experiment E2.
    pub fn total_work(&self) -> u64 {
        self.verify_work + self.lowering_work + self.regalloc_work
    }
}

/// An error produced by the online compiler.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// The incoming bytecode failed verification.
    Verify(VerifyError),
    /// The target's register file cannot hold the function's values.
    RegisterPressure {
        /// Function being compiled.
        function: String,
        /// Explanation.
        detail: String,
    },
    /// An internal invariant was violated (a bug in the compiler).
    Internal(String),
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Verify(e) => write!(f, "bytecode verification failed: {e}"),
            JitError::RegisterPressure { function, detail } => {
                write!(f, "register pressure in {function}: {detail}")
            }
            JitError::Internal(msg) => write!(f, "internal JIT error: {msg}"),
        }
    }
}

impl Error for JitError {}

impl From<VerifyError> for JitError {
    fn from(e: VerifyError) -> Self {
        JitError::Verify(e)
    }
}

/// Compile a bytecode module to machine code for `target`.
///
/// This is the paper's µProc-specific online step: it runs on (or near) the
/// device, knows the exact hardware, and relies on the annotations embedded in
/// the module instead of re-running expensive analyses.
///
/// # Errors
///
/// Returns a [`JitError`] if the module does not verify, if a function's
/// values cannot be fitted to the target's register file, or on internal
/// lowering bugs.
///
/// # Examples
///
/// ```
/// use splitc_jit::{compile_module, JitOptions};
/// use splitc_minic::compile_source;
/// use splitc_targets::{MachineValue, PreparedProgram, PreparedSimulator, TargetDesc};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let module = compile_source("fn triple(x: i32) -> i32 { return 3 * x; }", "m")?;
/// let target = TargetDesc::arm_neon();
/// let (program, stats) = compile_module(&module, &target, &JitOptions::split())?;
/// assert!(stats.total_work() > 0);
///
/// let mut mem = vec![0u8; 64];
/// let prepared = PreparedProgram::prepare(&program, &target)?;
/// let mut sim = PreparedSimulator::new(&prepared);
/// assert_eq!(
///     sim.run("triple", &[MachineValue::Int(14)], &mut mem)?,
///     Some(MachineValue::Int(42)),
/// );
/// # Ok(())
/// # }
/// ```
pub fn compile_module(
    module: &Module,
    target: &TargetDesc,
    options: &JitOptions,
) -> Result<(MProgram, JitStats), JitError> {
    let mut stats = JitStats::default();

    // Load-time verification (cheap, always done by the device).
    verify_module(module)?;
    stats.verify_work += module.num_insts() as u64;

    let use_simd = options.allow_simd && target.has_simd();
    let mut program = MProgram {
        name: module.name.clone(),
        functions: Vec::with_capacity(module.functions().len()),
    };
    let mut regs = RegAssigner::new(target, options.regalloc);
    for func in module.functions() {
        let vf = lower_function(func, target, use_simd)?;
        stats.lowering_work += vf.emitted;
        stats.functions += 1;
        if func.uses_vector_builtins() {
            if use_simd {
                stats.used_simd = true;
            } else {
                stats.scalarized = true;
            }
        }
        program.functions.push(regs.assign(vf, func, &mut stats)?);
    }
    Ok((program, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_minic::compile_source;
    use splitc_opt::{optimize_module, OptOptions};
    use splitc_targets::{MachineValue, PreparedProgram, PreparedSimulator};

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

    fn optimized() -> Module {
        let mut m = compile_source(KERNELS, "k").unwrap();
        optimize_module(&mut m, &OptOptions::full());
        m
    }

    #[test]
    fn compiles_for_every_preset_target() {
        let m = optimized();
        for target in TargetDesc::presets() {
            let (program, stats) = compile_module(&m, &target, &JitOptions::split())
                .unwrap_or_else(|e| panic!("{}: {e}", target.name));
            assert_eq!(program.functions.len(), 2);
            assert!(stats.total_work() > 0, "{}", target.name);
            if target.has_simd() {
                assert!(stats.used_simd);
            } else {
                assert!(stats.scalarized);
            }
        }
    }

    #[test]
    fn vectorized_module_runs_correctly_on_simd_and_scalar_targets() {
        let m = optimized();
        let n = 53usize;
        for target in [
            TargetDesc::x86_sse(),
            TargetDesc::ultrasparc(),
            TargetDesc::powerpc(),
        ] {
            let (program, _) = compile_module(&m, &target, &JitOptions::split()).unwrap();
            let mut mem = vec![0u8; 1 << 14];
            let base = 64;
            for i in 0..n {
                mem[base + i] = (i * 7 % 251) as u8;
            }
            let prepared = PreparedProgram::prepare(&program, &target).unwrap();
            let mut sim = PreparedSimulator::new(&prepared);
            let out = sim
                .run(
                    "sum_u8",
                    &[MachineValue::Int(n as i64), MachineValue::Int(base as i64)],
                    &mut mem,
                )
                .unwrap();
            let expected = (0..n)
                .map(|i| (i * 7 % 251) as u8)
                .fold(0u8, u8::wrapping_add);
            assert_eq!(
                out,
                Some(MachineValue::Int(i64::from(expected))),
                "{}",
                target.name
            );
        }
    }

    #[test]
    fn annotations_reduce_online_work() {
        let annotated = optimized();
        let mut stripped = annotated.clone();
        stripped.strip_annotations();

        let target = TargetDesc::x86_sse();
        let (_, with) = compile_module(&annotated, &target, &JitOptions::split()).unwrap();
        let (_, thorough) =
            compile_module(&stripped, &target, &JitOptions::online_analyze()).unwrap();
        assert!(with.annotations_used);
        assert!(!thorough.annotations_used);
        assert!(
            with.total_work() < thorough.total_work(),
            "split {} should be cheaper than online analysis {}",
            with.total_work(),
            thorough.total_work()
        );
    }

    #[test]
    fn verification_failures_are_reported() {
        let mut m = Module::new("bad");
        let f = splitc_vbc::Function::new("broken", &[], None);
        m.add_function(f); // no terminator
        let err = compile_module(&m, &TargetDesc::x86_sse(), &JitOptions::default()).unwrap_err();
        assert!(matches!(err, JitError::Verify(_)));
        assert!(err.to_string().contains("verification"));
    }

    #[test]
    fn simd_can_be_disabled_for_ablation() {
        let m = optimized();
        let target = TargetDesc::x86_sse();
        let opts = JitOptions {
            regalloc: RegAllocMode::SplitAnnotations,
            allow_simd: false,
            fuse: true,
        };
        let (program, stats) = compile_module(&m, &target, &opts).unwrap();
        assert!(stats.scalarized);
        assert!(!stats.used_simd);
        assert!(program.functions.iter().all(|f| f
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .all(|i| !i.is_vector())));
    }
}
