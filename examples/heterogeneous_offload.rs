//! The Cell scenario of Section 3: one bytecode, host or accelerator.
//!
//! The same vectorized kernel is deployed to a Cell-style blade. The runtime
//! can run it on the PowerPC host core (PPE) or offload it to a SIMD
//! accelerator (SPU), paying DMA transfers both ways. The example sweeps the
//! problem size to expose the offload-profitability crossover, and also shows
//! the annotation-guided core chooser picking a sensible core on a phone SoC.
//!
//! Run with: `cargo run --release --example heterogeneous_offload`

use splitc::experiments::hetero;
use splitc::splitc_opt::{optimize_module, OptOptions};
use splitc::splitc_runtime::{choose_core, Platform};
use splitc::splitc_workloads::{kernel, module_for};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The size sweep: where does offloading to the SPU start to pay off?
    let result = hetero::run("saxpy_f32", &[256, 1024, 4096, 16384, 65536])?;
    println!("{}", result.render());

    // Annotation-guided mapping on a phone SoC (ARM + DSP).
    let k = kernel("saxpy_f32").expect("catalogue kernel");
    let mut module = module_for(&[k], "phone-demo")?;
    optimize_module(&mut module, &OptOptions::full());
    let traits = module
        .function("saxpy_f32")
        .expect("kernel exists")
        .annotations
        .kernel_traits
        .expect("offline step attached kernel traits");
    let phone = Platform::phone();
    let core = choose_core(&traits, &phone);
    println!(
        "kernel traits: uses_fp={} uses_vector={} -> the runtime maps saxpy to the `{}` core of the {} platform",
        traits.uses_fp, traits.uses_vector, core.name, phone.name
    );
    Ok(())
}
