//! Golden digests of the two wire formats: the deployment encoding of a
//! bytecode module (`splitc_vbc::encode_module`) and the artifact store's
//! `.svba` entries. Both are versioned formats that outlive the process that
//! wrote them, so a change to how an instruction is encoded must either leave
//! every byte where it was or bump `splitc_vbc::VERSION` /
//! `STORE_FORMAT_VERSION` — and then re-record these digests on purpose.
//!
//! Run this suite after touching either instruction enum (`splitc_vbc::Inst`,
//! `splitc_targets::MInst`) or its shape table.

use splitc::ArtifactStore;
use splitc_jit::{compile_module, JitOptions};
use splitc_opt::{optimize_module, OptOptions};
use splitc_runtime::StoreKey;
use splitc_targets::{Fnv1a, TargetDesc};
use splitc_vbc::{encode_module, Module};
use splitc_workloads::{all_kernels, module_for, Kernel};

/// One catalogue kernel as a module of its own, named after the kernel.
fn module_of(kernel: &Kernel, opt: &OptOptions) -> Module {
    let mut module =
        module_for(std::slice::from_ref(kernel), kernel.name).expect("catalogue compiles");
    optimize_module(&mut module, opt);
    module
}

/// What a digest covers: how many items, their total bytes, and FNV-1a over
/// every item's name followed by its bytes, in the order given.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    items: usize,
    bytes: usize,
    fnv1a: u64,
}

fn digest<'a>(items: impl IntoIterator<Item = (&'a str, &'a [u8])>) -> Digest {
    let mut out = Digest {
        items: 0,
        bytes: 0,
        fnv1a: 0,
    };
    let mut hash = Fnv1a::new();
    for (name, bytes) in items {
        hash.write(name.as_bytes());
        hash.write(bytes);
        out.items += 1;
        out.bytes += bytes.len();
    }
    out.fnv1a = hash.finish();
    out
}

#[test]
fn every_catalogue_module_encodes_to_the_recorded_bytes() {
    let mut encoded: Vec<(String, Vec<u8>)> = Vec::new();
    for kernel in all_kernels() {
        for (label, opt) in [("full", OptOptions::full()), ("none", OptOptions::none())] {
            let module = module_of(&kernel, &opt);
            encoded.push((format!("{}/{label}", kernel.name), encode_module(&module)));
        }
    }
    encoded.sort();
    assert_eq!(
        digest(encoded.iter().map(|(n, b)| (n.as_str(), b.as_slice()))),
        Digest {
            items: 34,
            bytes: 12_139,
            fnv1a: 0x2b87_c256_4c84_be28,
        }
    );
}

#[test]
fn every_store_entry_is_written_as_the_recorded_bytes() {
    let dir = std::env::temp_dir().join(format!("splitc-wire-golden-{}", std::process::id()));
    let store = ArtifactStore::open(&dir).expect("temp store opens");
    store.clear();
    let modes = [
        JitOptions::split(),
        JitOptions::online_greedy(),
        JitOptions::online_analyze(),
    ];
    for kernel in all_kernels() {
        let module = module_of(&kernel, &OptOptions::full());
        let module_fp = Fnv1a::hash(&encode_module(&module));
        for target in TargetDesc::presets() {
            for options in &modes {
                let (program, jit) =
                    compile_module(&module, &target, options).expect("catalogue compiles online");
                let key = StoreKey {
                    module_fp,
                    target_fp: target.fingerprint(),
                    options_fp: options.fingerprint(),
                };
                assert!(store.save(&key, &program, &jit), "entry is written");
            }
        }
    }
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("store dir readable")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "svba"))
        .map(|e| {
            let bytes = std::fs::read(e.path()).expect("entry readable");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    entries.sort();
    let found = digest(entries.iter().map(|(n, b)| (n.as_str(), b.as_slice())));
    store.clear();
    let _ = std::fs::remove_dir(&dir);
    assert_eq!(
        found,
        Digest {
            items: 459,
            bytes: 328_524,
            fnv1a: 0x69e9_54f5_8ce5_bbf6,
        }
    );
}
