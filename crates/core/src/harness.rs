//! Catalogue-kernel invocations for the experiment drivers: inputs in, a
//! checksum out.
//!
//! [`prepare`] reads a kernel's calling convention from its catalogue entry
//! ([`splitc_workloads::Kernel::args`]) and builds its argument values and
//! buffers in a [`Workspace`]; this module names no kernel. [`checksum`]
//! folds a finished run's result and output buffer into one value, so that
//! compilation strategies and targets can be checked against each other.

use crate::session::Workspace;
use splitc_targets::{Fnv1a, MachineValue};
use splitc_vbc::ScalarType::{F32, I16, I32, U16, U8};
use splitc_workloads::{Arg, DataGen, Fill};

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

/// Prepare inputs for `kernel` processing `n` elements, using `seed` for data:
/// its declared [`Kernel::args`](splitc_workloads::Kernel::args), in order,
/// each buffer allocated in `ws` and filled from one [`DataGen`] stream.
///
/// # Panics
///
/// Panics if the kernel name is not part of the workload catalogue.
pub fn prepare(kernel: &str, n: usize, seed: u64, ws: &mut Workspace) -> PreparedKernel {
    let Some(k) = splitc_workloads::kernel(kernel) else {
        panic!("the experiment harness does not know kernel `{kernel}`");
    };
    let mut gen = DataGen::new(seed);
    let mut prepared = PreparedKernel {
        name: kernel.into(),
        args: Vec::with_capacity(k.args.len()),
        output: None,
        input_bytes: 0,
    };
    for arg in k.args {
        prepared.args.push(match *arg {
            Arg::N => MachineValue::Int(n as i64),
            Arg::Int(v) => MachineValue::Int(v),
            Arg::Float(v) => MachineValue::Float(v),
            Arg::Buf {
                elem,
                len,
                fill,
                output,
            } => {
                let len = len.elems(n);
                let bytes = len as u64 * elem.size_bytes();
                let addr = ws.alloc(bytes);
                let out = &mut ws.bytes_mut()[addr as usize..(addr + bytes) as usize];
                match (fill, elem) {
                    (Fill::Zero, _) => {}
                    (Fill::Any, U8) => put(out, gen.u8s(len), u8::to_le_bytes),
                    (Fill::Any, U16) => put(out, gen.u16s(len), u16::to_le_bytes),
                    (Fill::Any, I16) => put(out, gen.i16s(len), i16::to_le_bytes),
                    (Fill::Within(b), I32) => put(out, gen.i32s(len, b), i32::to_le_bytes),
                    (Fill::Within(b), F32) => put(out, gen.f32s(len, b as f32), f32::to_le_bytes),
                    _ => panic!("`{kernel}`: no generator fills {elem:?} with {fill:?}"),
                }
                if fill != Fill::Zero {
                    prepared.input_bytes += bytes;
                }
                if output {
                    prepared.output = Some((addr, bytes));
                }
                MachineValue::Int(addr as i64)
            }
        });
    }
    prepared
}

/// Write `values` into `out` as little-endian `W`-byte elements.
fn put<T, const W: usize>(out: &mut [u8], values: Vec<T>, le: fn(T) -> [u8; W]) {
    for (at, v) in out.chunks_exact_mut(W).zip(values) {
        at.copy_from_slice(&le(v));
    }
}

/// Summarize a finished run (return value plus output region) into a checksum
/// that must agree across compilation strategies and targets.
///
/// Checksums are only ever compared *within* one build of this crate; the
/// committed `BENCH_sweep.json` golden pins them per (kernel, target) cell,
/// so a change to this function, to [`prepare`] or to [`Fnv1a`] must
/// regenerate that file.
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
    use splitc_workloads::{all_kernels, module_for};

    #[test]
    fn every_kernel_declares_the_signature_it_compiles_to() {
        use splitc_vbc::{ScalarType, Type};
        for k in all_kernels() {
            let module = module_for(std::slice::from_ref(&k), "k").unwrap();
            let params = &module.function(k.name).unwrap().params;
            assert_eq!(k.args.len(), params.len(), "{}", k.name);
            for (arg, &(_, ty)) in k.args.iter().zip(params) {
                let Type::Scalar(ty) = ty else {
                    panic!("{}: vector parameter", k.name)
                };
                let fits = match arg {
                    Arg::N | Arg::Int(_) => ty.is_int() && ty != ScalarType::Ptr,
                    Arg::Float(_) => ty.is_float(),
                    Arg::Buf { .. } => ty == ScalarType::Ptr,
                };
                assert!(fits, "{}: {arg:?} passed as {ty:?}", k.name);
            }
            let outputs = k
                .args
                .iter()
                .filter(|a| matches!(a, Arg::Buf { output: true, .. }));
            assert!(outputs.count() <= 1, "{}", k.name);
            // Every size the drivers use fits the shared sizing rule.
            for n in [0, 1, 4096, 65_536] {
                let prepared = prepare(k.name, n, 1, &mut Workspace::sized_for(n));
                assert_eq!(prepared.args.len(), k.args.len());
            }
        }
    }

    /// One FNV digest per catalogue kernel over everything [`prepare`]
    /// produces — the args (floats as bits), `output`, `input_bytes` and the
    /// whole workspace image — for n ∈ {0, 1, 7, 64, 4096} × three seeds.
    #[test]
    fn every_kernel_prepares_the_recorded_inputs() {
        const RECORDED: [(&str, u64); 17] = [
            ("vecadd_f32", 0x4887_a7f0_bf66_8d48),
            ("saxpy_f32", 0x8737_f39c_8b0d_2d46),
            ("dscal_f32", 0xd2d0_3697_0a34_7b35),
            ("max_u8", 0x7bac_2f14_2add_aab3),
            ("sum_u8", 0x7bac_2f14_2add_aab3),
            ("sum_u16", 0xed5f_aa0a_4c8c_d3e1),
            ("dot_f32", 0x3d49_a248_3ecf_b4b2),
            ("min_i16", 0xed5f_aa0a_4c8c_d3e1),
            ("brighten_u8", 0xe402_21ca_85e9_a705),
            ("copy_u8", 0xe402_21ca_85e9_a705),
            ("threshold_u8", 0xe402_21ca_85e9_a705),
            ("histogram_u8", 0xc35d_e48c_b044_742f),
            ("prefix_sum_i32", 0xf197_3481_0c10_e99f),
            ("fir4_f32", 0x1cf8_0ad2_b30d_e332),
            ("horner_f32", 0xa0e4_6788_b226_c4d0),
            ("hotcold_f32", 0xca21_18c7_773e_8bfa),
            ("hotcold_i32", 0x5ad5_8afb_b864_2a33),
        ];
        let mut digests = Vec::new();
        for k in all_kernels() {
            let mut acc = Fnv1a::new();
            for n in [0, 1, 7, 64, 4096] {
                for seed in [0, 99, 0xdac] {
                    let mut ws = Workspace::sized_for(n);
                    let p = prepare(k.name, n, seed, &mut ws);
                    for arg in &p.args {
                        let bits = match *arg {
                            MachineValue::Int(v) => v as u64,
                            MachineValue::Float(v) => v.to_bits(),
                        };
                        acc.write(&bits.to_le_bytes());
                    }
                    let (addr, len) = p.output.unwrap_or((u64::MAX, u64::MAX));
                    for v in [addr, len, p.input_bytes] {
                        acc.write(&v.to_le_bytes());
                    }
                    acc.write(ws.bytes());
                }
            }
            digests.push((k.name, acc.finish()));
        }
        if digests != RECORDED {
            for (name, digest) in &digests {
                println!("(\"{name}\", {digest:#018x}),");
            }
        }
        assert_eq!(digests, RECORDED);
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
