//! Golden bit-identity of the online compiler's output.
//!
//! Register assignment is free to change *how* it works, never *what* it
//! emits: the artifact store, the differential suites and the benchmark's
//! exact counters (`code_minsts`, `sim_cycles`, `jit.*_work`) all assume that
//! one (module, target, options) triple compiles to one `MProgram` and one
//! `JitStats`. Each constant below is FNV-1a over the `{:?}` rendering of
//! `(MProgram, JitStats)`, folded over `TargetDesc::presets()` in order, for
//! one (module, option set) pair. They were recorded from the implementation
//! this file was first committed against and must only ever change together
//! with a deliberate, documented change of the generated code.

use splitc_jit::{compile_module, JitOptions, RegAllocMode};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::{Fnv1a, TargetDesc};
use splitc_vbc::Module;
use splitc_workloads::{full_module, module_for, table1_kernels};

/// The option sets under test, in column order of [`GOLDEN`].
fn option_sets() -> [(&'static str, JitOptions); 4] {
    [
        ("split", JitOptions::split()),
        ("online_greedy", JitOptions::online_greedy()),
        ("online_analyze", JitOptions::online_analyze()),
        (
            "split/no-simd",
            JitOptions {
                regalloc: RegAllocMode::SplitAnnotations,
                allow_simd: false,
                fuse: true,
            },
        ),
    ]
}

/// The 17-kernel catalogue module and the six Table 1 one-kernel modules,
/// optimized and annotated the way the offline step ships them.
fn modules() -> Vec<Module> {
    let mut modules = vec![full_module("catalogue").expect("catalogue compiles")];
    for kernel in table1_kernels() {
        modules
            .push(module_for(std::slice::from_ref(&kernel), kernel.name).expect("kernel compiles"));
    }
    for module in &mut modules {
        optimize_module(module, &OptOptions::full());
    }
    modules
}

/// Digest of what `compile_module` returns for `module` on every preset.
fn digest(module: &Module, options: &JitOptions) -> u64 {
    let mut h = Fnv1a::new();
    for target in TargetDesc::presets() {
        let compiled = compile_module(module, &target, options)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", module.name, target.name));
        h.write(format!("{compiled:?}").as_bytes());
    }
    h.finish()
}

/// One row per module of [`modules`], one column per set of [`option_sets`].
const GOLDEN: [(&str, [u64; 4]); 7] = [
    (
        "catalogue",
        [
            0x1918_a3ca_a7af_f8a6,
            0x4985_3bf7_b45a_3605,
            0x67e4_d0cc_ca28_68ec,
            0x85eb_69d8_b939_0456,
        ],
    ),
    (
        "vecadd_f32",
        [
            0xc254_2e3c_5009_f0fe,
            0x4b8a_c440_e348_b227,
            0xfc30_083c_51a6_df9a,
            0x5fd7_91d3_7b54_7a66,
        ],
    ),
    (
        "saxpy_f32",
        [
            0x5fc0_af77_bb6d_bae2,
            0xc9d2_c79c_3e83_b003,
            0x2584_388a_50ef_da98,
            0xb381_2223_750a_c018,
        ],
    ),
    (
        "dscal_f32",
        [
            0xba1f_f290_ec85_2f5c,
            0x7726_70f3_8e0f_cafa,
            0x5983_7bd5_a1c2_0425,
            0x292b_6e8a_25f8_58b7,
        ],
    ),
    (
        "max_u8",
        [
            0xafad_e304_7662_a4f4,
            0x2287_79b8_52f3_5d67,
            0x3cdd_d58e_1ee3_94e7,
            0x86f2_86c0_6056_4fac,
        ],
    ),
    (
        "sum_u8",
        [
            0x6317_a791_4e4a_558f,
            0x041a_9f5d_3361_897e,
            0x043d_8b26_767d_9036,
            0xb34f_5380_68d5_7f27,
        ],
    ),
    (
        "sum_u16",
        [
            0xab6c_2311_09e8_8b18,
            0xe07d_3287_5a50_a15d,
            0xca9c_5d51_782a_283d,
            0x4ee3_4c75_d152_6d0d,
        ],
    ),
];

#[test]
fn compiled_programs_and_stats_match_the_recorded_digests() {
    let modules = modules();
    assert_eq!(modules.len(), GOLDEN.len());
    let mut mismatches = Vec::new();
    for (module, (name, row)) in modules.iter().zip(&GOLDEN) {
        assert_eq!(module.name, *name);
        for ((label, options), want) in option_sets().iter().zip(row) {
            let got = digest(module, options);
            if got != *want {
                mismatches.push(format!(
                    "{name} / {label}: {got:#018x}, recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated code or JitStats changed:\n{}",
        mismatches.join("\n")
    );
}
