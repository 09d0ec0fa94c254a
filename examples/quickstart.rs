//! Quickstart: write a kernel once, run it on very different machines.
//!
//! This is the shortest end-to-end tour of the split-compilation pipeline:
//!
//! 1. compile a mini-C kernel *offline* to portable bytecode and let the
//!    offline optimizer vectorize and annotate it;
//! 2. deploy that same bytecode into a cached [`ExecutionEngine`] and let it
//!    JIT-compile *online* — exactly once per machine — for an x86 with SSE
//!    and for a scalar UltraSparc-class machine;
//! 3. run both on their cycle simulators and compare.
//!
//! Run with: `cargo run --example quickstart`

use splitc::splitc_jit::JitOptions;
use splitc::splitc_opt::OptOptions;
use splitc::splitc_targets::{MachineValue, TargetDesc};
use splitc::{offline_compile, ExecutionEngine, Workspace};

const KERNEL: &str = r#"
// Scale-and-accumulate, the BLAS "saxpy" kernel.
fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
    for (let i: i32 = 0; i < n; i = i + 1) {
        y[i] = a * x[i] + y[i];
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Offline step (developer workstation) -------------------------------
    let (module, report) = offline_compile(KERNEL, "quickstart", &OptOptions::full())?;
    println!("offline step:");
    println!("  vectorized loops : {}", report.total_vectorized());
    println!("  offline work     : {} units", report.offline_work);
    println!(
        "  bytecode size    : {} bytes",
        splitc::splitc_vbc::encode_module(&module).len()
    );
    println!();

    // --- Online step (each device) ------------------------------------------
    // Deploy once; the engine compiles each distinct machine exactly once and
    // serves every further run of the kernel from its code cache.
    let engine = ExecutionEngine::new(module);
    let n = 4096usize;
    for target in [TargetDesc::x86_sse(), TargetDesc::ultrasparc()] {
        let mut ws = Workspace::new(1 << 20);
        let x = ws.alloc(4 * n as u64);
        let y = ws.alloc(4 * n as u64);
        ws.write_f32s(x, &(0..n).map(|i| i as f32 * 0.25).collect::<Vec<_>>());
        ws.write_f32s(y, &vec![1.0; n]);

        let run = engine.run(
            &target,
            &JitOptions::split(),
            "saxpy",
            &[
                MachineValue::Int(n as i64),
                MachineValue::Float(2.0),
                MachineValue::Int(x as i64),
                MachineValue::Int(y as i64),
            ],
            ws.bytes_mut(),
        )?;

        println!("{target}:");
        println!("  online (JIT) work : {} units", run.jit.total_work());
        println!(
            "  vector builtins   : {}",
            if run.jit.used_simd {
                "mapped to SIMD"
            } else {
                "scalarized"
            }
        );
        println!("  simulated cycles  : {}", run.stats.cycles);
        println!("  y[1] = {}", ws.read_f32s(y, 2)[1]);
        println!();
    }
    println!(
        "engine cache: {} online compilations, {} cache hits",
        engine.stats().compiles,
        engine.stats().hits
    );
    Ok(())
}
