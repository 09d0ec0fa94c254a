//! Per-kernel input setup for the experiment drivers.
//!
//! Every benchmark kernel has its own signature; this module knows how to
//! allocate and fill its inputs in a [`Workspace`] and how to summarize its
//! outputs into a checksum so that different compilation strategies can be
//! checked against each other.

use crate::session::Workspace;
use splitc_targets::{Fnv1a, MachineValue};
use splitc_workloads::DataGen;

/// A kernel invocation prepared in a workspace.
#[derive(Debug, Clone)]
pub struct PreparedKernel {
    /// Kernel (function) name.
    pub name: String,
    /// Argument values, in signature order.
    pub args: Vec<MachineValue>,
    /// Address and byte length of the kernel's output region (used both for
    /// checksums and for offload-transfer accounting). May be empty for
    /// kernels that only return a scalar.
    pub output: Option<(u64, u64)>,
    /// Total bytes of input the kernel reads (for offload-transfer accounting).
    pub input_bytes: u64,
}

/// Prepare inputs for `kernel` processing `n` elements, using `seed` for data.
///
/// # Panics
///
/// Panics if the kernel name is not part of the workload catalogue understood
/// by this harness.
pub fn prepare(kernel: &str, n: usize, seed: u64, ws: &mut Workspace) -> PreparedKernel {
    let mut gen = DataGen::new(seed);
    let ni = n as i64;
    match kernel {
        "vecadd_f32" => {
            let x = ws.alloc(4 * n as u64);
            let y = ws.alloc(4 * n as u64);
            let z = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n, 100.0));
            ws.write_f32s(y, &gen.f32s(n, 100.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                    MachineValue::Int(z as i64),
                ],
                output: Some((z, 4 * n as u64)),
                input_bytes: 8 * n as u64,
            }
        }
        "saxpy_f32" => {
            let x = ws.alloc(4 * n as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n, 100.0));
            ws.write_f32s(y, &gen.f32s(n, 100.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Float(1.75),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: Some((y, 4 * n as u64)),
                input_bytes: 8 * n as u64,
            }
        }
        "dscal_f32" => {
            let x = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n, 100.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Float(0.5),
                    MachineValue::Int(x as i64),
                ],
                output: Some((x, 4 * n as u64)),
                input_bytes: 4 * n as u64,
            }
        }
        "max_u8" | "sum_u8" => {
            let x = ws.alloc(n as u64);
            ws.write_u8s(x, &gen.u8s(n));
            PreparedKernel {
                name: kernel.into(),
                args: vec![MachineValue::Int(ni), MachineValue::Int(x as i64)],
                output: None,
                input_bytes: n as u64,
            }
        }
        "sum_u16" => {
            let x = ws.alloc(2 * n as u64);
            ws.write_u16s(x, &gen.u16s(n));
            PreparedKernel {
                name: kernel.into(),
                args: vec![MachineValue::Int(ni), MachineValue::Int(x as i64)],
                output: None,
                input_bytes: 2 * n as u64,
            }
        }
        "min_i16" => {
            let x = ws.alloc(2 * n as u64);
            ws.write_i16s(x, &gen.i16s(n));
            PreparedKernel {
                name: kernel.into(),
                args: vec![MachineValue::Int(ni), MachineValue::Int(x as i64)],
                output: None,
                input_bytes: 2 * n as u64,
            }
        }
        "dot_f32" => {
            let x = ws.alloc(4 * n as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n, 10.0));
            ws.write_f32s(y, &gen.f32s(n, 10.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: None,
                input_bytes: 8 * n as u64,
            }
        }
        "brighten_u8" | "copy_u8" | "threshold_u8" => {
            let x = ws.alloc(n as u64);
            let y = ws.alloc(n as u64);
            ws.write_u8s(x, &gen.u8s(n));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: Some((y, n as u64)),
                input_bytes: n as u64,
            }
        }
        "histogram_u8" => {
            let x = ws.alloc(n as u64);
            let counts = ws.alloc(4 * 256);
            ws.write_u8s(x, &gen.u8s(n));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(counts as i64),
                ],
                output: Some((counts, 4 * 256)),
                input_bytes: n as u64,
            }
        }
        "prefix_sum_i32" => {
            let x = ws.alloc(4 * n as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_i32s(x, &gen.i32s(n, 1000));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: Some((y, 4 * n as u64)),
                input_bytes: 4 * n as u64,
            }
        }
        "fir4_f32" => {
            // The filter reads up to x[i+3]: allocate three extra taps.
            let x = ws.alloc(4 * (n as u64 + 4));
            let y = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n + 4, 10.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: Some((y, 4 * n as u64)),
                input_bytes: 4 * (n as u64 + 4),
            }
        }
        "horner_f32" => {
            let x = ws.alloc(4 * n as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(n, 1.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: Some((y, 4 * n as u64)),
                input_bytes: 4 * n as u64,
            }
        }
        "hotcold_f32" => {
            let m = 32usize;
            let x = ws.alloc(4 * m as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_f32s(x, &gen.f32s(m, 1.0));
            ws.write_f32s(y, &gen.f32s(n, 1.0));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(m as i64),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: None,
                input_bytes: 4 * (n + m) as u64,
            }
        }
        "hotcold_i32" => {
            let m = 32usize;
            let x = ws.alloc(4 * m as u64);
            let y = ws.alloc(4 * n as u64);
            ws.write_i32s(x, &gen.i32s(m, 100));
            ws.write_i32s(y, &gen.i32s(n, 100));
            PreparedKernel {
                name: kernel.into(),
                args: vec![
                    MachineValue::Int(ni),
                    MachineValue::Int(m as i64),
                    MachineValue::Int(x as i64),
                    MachineValue::Int(y as i64),
                ],
                output: None,
                input_bytes: 4 * (n + m) as u64,
            }
        }
        other => panic!("the experiment harness does not know kernel `{other}`"),
    }
}

/// Summarize a finished run (return value plus output region) into a checksum
/// that must agree across compilation strategies and targets.
///
/// Checksums are only ever compared *within* one build of this crate; the
/// committed `BENCH_sweep.json` golden (schema `splitc-bench-sweep/10`) pins
/// them per (kernel, target) cell, so a change to this function or to
/// [`Fnv1a`] must regenerate that file.
pub fn checksum(result: Option<MachineValue>, prepared: &PreparedKernel, ws: &Workspace) -> u64 {
    checksum_bytes(result, prepared, ws.bytes())
}

/// [`checksum`] over a raw memory image instead of a [`Workspace`].
///
/// The serving layer hands kernel memory back as a plain byte buffer
/// ([`splitc_runtime::serve::Response::mem`]); this computes the identical
/// checksum from it, so served results are bit-comparable to sweep cells.
pub fn checksum_bytes(result: Option<MachineValue>, prepared: &PreparedKernel, mem: &[u8]) -> u64 {
    let mut acc = Fnv1a::new();
    match result {
        Some(MachineValue::Int(v)) => acc.write(&v.to_le_bytes()),
        Some(MachineValue::Float(v)) => {
            // Round to a tolerant precision so that reassociated float
            // reductions (vectorized sums) still agree with the scalar result.
            let rounded = (v * 1e3).round() as i64;
            acc.write(&rounded.to_le_bytes());
        }
        None => {}
    }
    if let Some((addr, len)) = prepared.output {
        acc.write(&mem[addr as usize..addr as usize + len as usize]);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_workloads::all_kernels;

    #[test]
    fn every_catalogue_kernel_is_supported_by_the_harness() {
        for k in all_kernels() {
            let mut ws = Workspace::new(1 << 16);
            let prepared = prepare(k.name, 128, 1, &mut ws);
            assert_eq!(prepared.name, k.name);
            assert!(!prepared.args.is_empty());
            assert!(prepared.input_bytes > 0);
        }
    }

    #[test]
    fn preparation_is_deterministic_for_a_seed() {
        let mut a = Workspace::new(1 << 16);
        let mut b = Workspace::new(1 << 16);
        let pa = prepare("saxpy_f32", 64, 9, &mut a);
        let pb = prepare("saxpy_f32", 64, 9, &mut b);
        assert_eq!(pa.args, pb.args);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(checksum(None, &pa, &a), checksum(None, &pb, &b));
    }

    #[test]
    #[should_panic(expected = "does not know kernel")]
    fn unknown_kernels_are_rejected() {
        let mut ws = Workspace::new(1024);
        let _ = prepare("mystery", 16, 0, &mut ws);
    }

    #[test]
    fn checksum_bytes_matches_the_workspace_checksum() {
        let mut ws = Workspace::new(1 << 12);
        let p = prepare("vecadd_f32", 16, 5, &mut ws);
        assert_eq!(
            checksum(Some(MachineValue::Int(7)), &p, &ws),
            checksum_bytes(Some(MachineValue::Int(7)), &p, ws.bytes())
        );
        assert_eq!(
            checksum(None, &p, &ws),
            checksum_bytes(None, &p, ws.bytes())
        );
    }

    #[test]
    fn checksums_react_to_output_changes() {
        let mut ws = Workspace::new(1 << 12);
        let p = prepare("dscal_f32", 16, 3, &mut ws);
        let before = checksum(None, &p, &ws);
        let (addr, _) = p.output.unwrap();
        ws.write_f32s(addr, &[123.0]);
        assert_ne!(before, checksum(None, &p, &ws));
    }
}
