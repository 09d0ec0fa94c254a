//! Persistent on-disk cache of compiled artifacts.
//!
//! Split compilation (Cohen & Rohou, DAC 2010) pays for compilation once, at
//! deployment, and amortizes it over every run. The in-memory code cache of
//! [`crate::ExecutionEngine`] enforces that within a process; this module
//! extends the split across *process lifetimes*: every restart, rollback and
//! crash-recovery of a serving fleet can reload yesterday's online
//! compilations from disk instead of redoing them, turning cold starts from
//! JIT work into validated reads.
//!
//! # On-disk layout
//!
//! One directory, one file per artifact, named by the full cache key:
//!
//! ```text
//! <dir>/<module_fp>-<target_fp>-<options_fp>.svba
//! ```
//!
//! where each fingerprint is a 16-digit lower-hex FNV-1a hash (module: over
//! the canonical vbc encoding; target: [`TargetDesc::fingerprint`]; options:
//! [`JitOptions::fingerprint`]). Each file is a fixed header followed by the
//! artifact payload:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `"SVBA"` |
//! | 4      | 1    | store format version ([`STORE_FORMAT_VERSION`]) |
//! | 5      | 1    | vbc encoding version ([`splitc_vbc::VERSION`]) |
//! | 6      | 8    | module fingerprint (u64 LE) |
//! | 14     | 8    | target fingerprint (u64 LE) |
//! | 22     | 8    | options fingerprint (u64 LE) |
//! | 30     | 8    | payload length (u64 LE) |
//! | 38     | 8    | FNV-1a checksum of the payload (u64 LE) |
//! | 46     | —    | payload: the wire-encoded [`MProgram`] + [`JitStats`] |
//!
//! The payload is encoded with the module codec's [`Wire`] trait, as the
//! format `Wire<StoredArtifact>`, over the vbc [`Writer`]/[`Reader`]
//! primitives, so the whole file is decoded by the same hardened machinery
//! the deployment format trusts. An instruction travels as the row of
//! `splitc_targets::minst_shapes!` that describes its variant — the row's
//! tag byte, then its fields in row order, each encoded as its Rust type
//! prescribes (a register is a class byte and a LEB128 index, an operand
//! enum its `code()`; integers, strings, flags, `Option` and `Vec` use the
//! impls shared with the module format) — and the encoder and the decoder
//! are both generated from those rows, so there is one statement of the
//! layout. A change to a shared impl changes this format too; it bumps
//! [`splitc_vbc::VERSION`], which the header's vbc-version rung checks.
//!
//! # Validation ladder, failure is fallback
//!
//! Store files outlive the process that wrote them: they can be truncated by
//! a crash, corrupted by the disk, or written by an older build. A load
//! therefore climbs a strict ladder — file present → header length → magic →
//! store version → vbc version → key triple → exact payload length →
//! checksum → hardened decode (which must consume the payload exactly) — and
//! *any* rung failing yields [`StoreLoad::Reject`], never an error the
//! caller must handle and never a panic. The engine reacts to a reject by
//! compiling fresh and overwriting the entry; a store can thus never produce
//! a wrong result, only a slower one.
//!
//! The checksum guards against accidents, not against whoever can write the
//! file: FNV-1a is recomputed in microseconds. What a decoded program may do
//! is therefore decided by the last rung, which the engine adds on every
//! load: `PreparedProgram::prepare_with` re-validates the whole program —
//! every operand's register class against the file its handler indexes,
//! every index against that file, block targets, the slot table's size — and
//! a program that fails it is booked as a reject like any other. The
//! executor's unchecked register accesses rest on that validation alone,
//! never on where a program came from.
//!
//! Writes are atomic: the entry is written to a unique temp file in the same
//! directory and `rename`d into place, so a crash mid-write leaves at worst
//! a stray temp file, never a half-entry a sibling process could load. All
//! I/O errors on the write path are swallowed (best-effort persistence — a
//! full disk degrades to the no-store behaviour).

use splitc_jit::JitStats;
use splitc_targets::{
    minst_shapes, AluOp, CmpPred, Fnv1a, FpuOp, MBlock, MFunction, MInst, MProgram, PReg, RedOp,
    RegClass, Width,
};
use splitc_vbc::{DecodeError, Reader, Wire, Writer};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes opening every store entry ("Split Virtual Bytecode Artifact").
pub const STORE_MAGIC: &[u8; 4] = b"SVBA";

/// Version of the store header + payload layout. Bump on any layout change;
/// old entries are then rejected (and overwritten) rather than misread.
pub const STORE_FORMAT_VERSION: u8 = 1;

/// Fixed byte length of the store entry header.
const HEADER_LEN: usize = 4 + 1 + 1 + 8 + 8 + 8 + 8 + 8;

/// The key triple identifying one artifact: which module, compiled for which
/// target, under which JIT configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// FNV-1a fingerprint of the module's canonical vbc encoding.
    pub module_fp: u64,
    /// The target's [`fingerprint`](splitc_targets::TargetDesc::fingerprint).
    pub target_fp: u64,
    /// The JIT configuration's
    /// [`fingerprint`](splitc_jit::JitOptions::fingerprint).
    pub options_fp: u64,
}

/// A compiled artifact as persisted: the machine program plus the JIT
/// statistics of the compilation that produced it. The prepared execution
/// form is *not* stored — preparation is cheap, deterministic and
/// version-coupled to the simulator, so the engine re-runs
/// `PreparedProgram::prepare_with` on every load.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredArtifact {
    /// The machine program.
    pub program: MProgram,
    /// Statistics of the online compilation that produced `program`.
    pub jit: JitStats,
}

/// Outcome of probing the store for a key.
#[derive(Debug)]
pub enum StoreLoad {
    /// A valid entry was found and decoded.
    Hit(Box<StoredArtifact>),
    /// No entry exists for the key.
    Miss,
    /// An entry exists but failed validation (truncated, corrupted,
    /// version-skewed, or keyed inconsistently). The caller should compile
    /// fresh and overwrite it.
    Reject,
}

/// An on-disk artifact cache rooted at one directory.
///
/// Safe to share between threads and — by design — between *processes*: all
/// writes are atomic renames, all reads validate before trusting, so any
/// number of engines in any number of processes can point at one directory.
/// See the [module documentation](self) for layout and semantics.
#[derive(Debug, PartialEq, Eq)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// Makes temp-file names unique within the process, across every handle:
/// two handles on one directory must never write the same temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ArtifactStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path an entry for `key` lives at.
    pub fn entry_path(&self, key: &StoreKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{:016x}-{:016x}.svba",
            key.module_fp, key.target_fp, key.options_fp
        ))
    }

    /// Probe the store for `key`, climbing the full validation ladder.
    ///
    /// Never fails and never panics: every way an entry can be wrong —
    /// missing rungs are enumerated in the [module documentation](self) —
    /// collapses into [`StoreLoad::Reject`] (or [`StoreLoad::Miss`] when no
    /// entry exists at all).
    pub fn load(&self, key: &StoreKey) -> StoreLoad {
        let bytes = match fs::read(self.entry_path(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return StoreLoad::Miss,
            Err(_) => return StoreLoad::Reject,
        };
        match decode_entry(&bytes, key) {
            Ok(artifact) => StoreLoad::Hit(Box::new(artifact)),
            Err(_) => StoreLoad::Reject,
        }
    }

    /// Persist an artifact under `key`, atomically replacing any existing
    /// entry.
    ///
    /// Best-effort: all I/O failures are swallowed (reported as `false`) —
    /// persistence is an optimization, and a full or read-only disk must
    /// degrade to the no-store behaviour, not fail the compile that just
    /// succeeded.
    pub fn save(&self, key: &StoreKey, program: &MProgram, jit: &JitStats) -> bool {
        let bytes = encode_entry(key, program, jit);
        let tmp = self.dir.join(format!(
            ".tmp-{:016x}-{}-{}",
            key.target_fp ^ key.options_fp,
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        if fs::write(&tmp, &bytes).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        // Atomic on POSIX: a concurrent load sees either the old complete
        // entry or the new complete entry, never a prefix.
        if fs::rename(&tmp, self.entry_path(key)).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// Remove the entry for `key`, if present. Returns `true` if a file was
    /// deleted.
    pub fn remove(&self, key: &StoreKey) -> bool {
        fs::remove_file(self.entry_path(key)).is_ok()
    }

    /// Remove every `.svba` entry in the store directory (temp files too).
    ///
    /// The cold half of a cold-vs-warm benchmark; also handy in tests.
    pub fn clear(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".svba") || name.starts_with(".tmp-") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// Number of `.svba` entries currently in the store directory.
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".svba"))
            .count()
    }

    /// `true` if the store directory holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serialize a full store entry (header + payload) for `key`.
fn encode_entry(key: &StoreKey, program: &MProgram, jit: &JitStats) -> Vec<u8> {
    let mut payload = Writer::new();
    write_artifact(&mut payload, program, jit);
    let payload = payload.into_bytes();
    let mut w = Writer::new();
    w.bytes(STORE_MAGIC);
    w.u8(STORE_FORMAT_VERSION);
    w.u8(splitc_vbc::VERSION);
    w.u64_le(key.module_fp);
    w.u64_le(key.target_fp);
    w.u64_le(key.options_fp);
    w.u64_le(payload.len() as u64);
    w.u64_le(Fnv1a::hash(&payload));
    w.bytes(&payload);
    w.into_bytes()
}

/// Decode and validate a full store entry against the key it was looked up
/// under. Every failure mode maps to a `DecodeError` (the caller collapses
/// them all into [`StoreLoad::Reject`]).
fn decode_entry(bytes: &[u8], key: &StoreKey) -> Result<StoredArtifact, DecodeError> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != STORE_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let mut r = Reader::new(&bytes[4..]);
    let store_version = r.u8()?;
    if store_version != STORE_FORMAT_VERSION {
        return Err(DecodeError::BadVersion(store_version));
    }
    let vbc_version = r.u8()?;
    if vbc_version != splitc_vbc::VERSION {
        return Err(DecodeError::BadVersion(vbc_version));
    }
    let module_fp = r.u64_le()?;
    let target_fp = r.u64_le()?;
    let options_fp = r.u64_le()?;
    if (module_fp, target_fp, options_fp) != (key.module_fp, key.target_fp, key.options_fp) {
        // A mis-keyed entry (renamed file, fingerprint scheme change) must
        // not be trusted: the name promised one artifact, the header claims
        // another.
        return Err(DecodeError::BadMagic);
    }
    let payload_len = r.u64_le()?;
    let stored_checksum = r.u64_le()?;
    let payload = r.rest();
    if payload_len != payload.len() as u64 {
        // Truncated (crash mid-write on a non-atomic filesystem) or padded.
        return Err(DecodeError::UnexpectedEof);
    }
    if Fnv1a::hash(payload) != stored_checksum {
        return Err(DecodeError::BadMagic);
    }
    let mut pr = Reader::new(payload);
    let artifact = read_artifact(&mut pr)?;
    pr.finish()?;
    Ok(artifact)
}

// ---------------------------------------------------------------------------
// Artifact payload codec: MProgram + JitStats as `Wire<StoredArtifact>`.
//
// This is a trust boundary exactly like `decode_module`: lengths are
// attacker-controlled (a flipped bit), so every tag is validated, and the
// impls shared with the module format (`u32`, `i64`, `f64`, `String`, `bool`,
// `Option`, `Vec`) keep a flag to 0 or 1, an index to 32 bits and capped
// pre-allocation. A change to what is written here — a row of `minst_shapes!`
// reordered or renumbered, an enum's `code()`, an impl below — requires
// bumping STORE_FORMAT_VERSION; a change to a shared impl changes both
// formats and bumps `splitc_vbc::VERSION`, which the header also checks.
// ---------------------------------------------------------------------------

fn bad(what: &'static str, tag: u8) -> DecodeError {
    DecodeError::BadTag { what, tag }
}

/// The operand enums travel as one byte, their `code()`.
macro_rules! wire_code {
    ($($ty:ident $what:literal),+) => {$(
        impl Wire<StoredArtifact> for $ty {
            fn put(&self, w: &mut Writer) {
                w.u8(self.code());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let tag = r.u8()?;
                $ty::from_code(tag).ok_or(bad($what, tag))
            }
        }
    )+};
}
wire_code!(
    RegClass "register class",
    Width "width",
    AluOp "alu op",
    FpuOp "fpu op",
    CmpPred "compare predicate",
    RedOp "reduce op"
);

impl Wire<StoredArtifact> for PReg {
    fn put(&self, w: &mut Writer) {
        self.class.put(w);
        w.uleb(u64::from(self.index));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let class = RegClass::get(r)?;
        let index = r.uleb()?;
        let index = u16::try_from(index).map_err(|_| bad("register index", index as u8))?;
        Ok(PReg { class, index })
    }
}

/// The codec of [`MInst`], generated from the rows of `minst_shapes!`.
macro_rules! minst_codec {
    ($($tag:literal $variant:ident {
        $($role:ident $(($($class:tt)+))? $field:ident),*
    })*) => {
        impl Wire<StoredArtifact> for MInst {
            fn put(&self, w: &mut Writer) {
                match self {
                    $(MInst::$variant { $($field),* } => {
                        w.u8($tag);
                        $(Wire::<StoredArtifact>::put($field, w);)*
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match r.u8()? {
                    $($tag => MInst::$variant {
                        $($field: Wire::<StoredArtifact>::get(r)?),*
                    },)*
                    tag => return Err(bad("machine instruction", tag)),
                })
            }
        }
    };
}
minst_shapes!(minst_codec);

impl Wire<StoredArtifact> for MBlock {
    fn put(&self, w: &mut Writer) {
        self.insts.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MBlock {
            insts: Wire::get(r)?,
        })
    }
}

impl Wire<StoredArtifact> for MFunction {
    fn put(&self, w: &mut Writer) {
        Wire::<StoredArtifact>::put(&self.name, w);
        self.params.put(w);
        Wire::<StoredArtifact>::put(&self.num_slots, w);
        self.blocks.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MFunction {
            name: Wire::<StoredArtifact>::get(r)?,
            params: Wire::get(r)?,
            num_slots: Wire::<StoredArtifact>::get(r)?,
            blocks: Wire::get(r)?,
        })
    }
}

fn write_artifact(w: &mut Writer, program: &MProgram, jit: &JitStats) {
    Wire::<StoredArtifact>::put(&program.name, w);
    program.functions.put(w);
    for count in [
        jit.functions,
        jit.verify_work,
        jit.lowering_work,
        jit.regalloc_work,
        jit.static_spills,
        jit.static_reloads,
    ] {
        w.uleb(count);
    }
    w.u8(u8::from(jit.annotations_used)
        | u8::from(jit.used_simd) << 1
        | u8::from(jit.scalarized) << 2);
}

fn read_artifact(r: &mut Reader<'_>) -> Result<StoredArtifact, DecodeError> {
    let program = MProgram {
        name: Wire::<StoredArtifact>::get(r)?,
        functions: Wire::get(r)?,
    };
    let mut counts = [0u64; 6];
    for count in &mut counts {
        *count = r.uleb()?;
    }
    let [functions, verify_work, lowering_work, regalloc_work, static_spills, static_reloads] =
        counts;
    let flags = r.u8()?;
    if flags > 0b111 {
        return Err(bad("jit stats flags", flags));
    }
    let jit = JitStats {
        functions,
        verify_work,
        lowering_work,
        regalloc_work,
        static_spills,
        static_reloads,
        annotations_used: flags & 1 != 0,
        used_simd: flags & 2 != 0,
        scalarized: flags & 4 != 0,
    };
    Ok(StoredArtifact { program, jit })
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_jit::{compile_module, JitOptions};
    use splitc_minic::compile_source;
    use splitc_targets::TargetDesc;

    fn temp_store(name: &str) -> ArtifactStore {
        let dir =
            std::env::temp_dir().join(format!("splitc-store-unit-{}-{name}", std::process::id()));
        let store = ArtifactStore::open(&dir).expect("temp store opens");
        store.clear();
        store
    }

    fn compiled_artifact() -> (StoredArtifact, StoreKey) {
        let module = compile_source(
            "fn mix(n: i32, a: f32, x: *f32) -> f32 {
                let acc: f32 = 0.0;
                for (let i: i32 = 0; i < n; i = i + 1) {
                    x[i] = a * x[i];
                    acc = acc + x[i];
                }
                return acc;
            }
            fn callit(n: i32, a: f32, x: *f32) -> f32 { return mix(n, a, x); }",
            "m",
        )
        .unwrap();
        let target = TargetDesc::x86_sse();
        let options = JitOptions::split();
        let (program, jit) = compile_module(&module, &target, &options).unwrap();
        let key = StoreKey {
            module_fp: Fnv1a::hash(&splitc_vbc::encode_module(&module)),
            target_fp: target.fingerprint(),
            options_fp: options.fingerprint(),
        };
        (StoredArtifact { program, jit }, key)
    }

    #[test]
    fn artifact_round_trips_through_the_wire_codec() {
        let (artifact, _) = compiled_artifact();
        let mut w = Writer::new();
        write_artifact(&mut w, &artifact.program, &artifact.jit);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = read_artifact(&mut r).expect("decodes");
        r.finish().expect("consumed exactly");
        assert_eq!(decoded, artifact);
    }

    #[test]
    fn a_saved_entry_decodes_and_re_encodes_byte_for_byte() {
        // The reader takes minimal LEB128 only, which is all the writer
        // emits: an entry on disk stays readable and is its own re-encoding.
        let (artifact, key) = compiled_artifact();
        let entry = encode_entry(&key, &artifact.program, &artifact.jit);
        let decoded = decode_entry(&entry, &key).expect("decodes");
        assert_eq!(encode_entry(&key, &decoded.program, &decoded.jit), entry);
    }

    #[test]
    fn save_then_load_round_trips_through_disk() {
        let store = temp_store("round-trip");
        let (artifact, key) = compiled_artifact();
        assert!(matches!(store.load(&key), StoreLoad::Miss));
        assert!(store.save(&key, &artifact.program, &artifact.jit));
        assert_eq!(store.len(), 1);
        match store.load(&key) {
            StoreLoad::Hit(loaded) => assert_eq!(*loaded, artifact),
            other => panic!("expected hit, got {other:?}"),
        }
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn every_header_rung_rejects_when_violated() {
        let store = temp_store("ladder");
        let (artifact, key) = compiled_artifact();
        store.save(&key, &artifact.program, &artifact.jit);
        let path = store.entry_path(&key);
        let good = std::fs::read(&path).unwrap();

        let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
        cases.push(("empty", Vec::new()));
        cases.push(("short", good[..HEADER_LEN - 1].to_vec()));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        cases.push(("magic", bad_magic));
        let mut bad_store_version = good.clone();
        bad_store_version[4] = STORE_FORMAT_VERSION + 1;
        cases.push(("store version", bad_store_version));
        let mut bad_vbc_version = good.clone();
        bad_vbc_version[5] = splitc_vbc::VERSION + 1;
        cases.push(("vbc version", bad_vbc_version));
        let mut bad_key = good.clone();
        bad_key[6] ^= 0xff; // module fingerprint
        cases.push(("key triple", bad_key));
        let mut truncated = good.clone();
        truncated.truncate(good.len() - 1);
        cases.push(("payload length", truncated));
        let mut padded = good.clone();
        padded.push(0);
        cases.push(("payload padding", padded));
        let mut corrupt = good.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        cases.push(("checksum", corrupt));

        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(store.load(&key), StoreLoad::Reject),
                "{what} violation must reject"
            );
        }

        // Restore the good entry: the ladder passes again.
        std::fs::write(&path, &good).unwrap();
        assert!(matches!(store.load(&key), StoreLoad::Hit(_)));
        store.clear();
    }

    #[test]
    fn save_overwrites_atomically() {
        let store = temp_store("overwrite");
        let (artifact, key) = compiled_artifact();
        store.save(&key, &artifact.program, &artifact.jit);
        // Corrupt in place, then save again: the entry must be whole.
        let path = store.entry_path(&key);
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(store.load(&key), StoreLoad::Reject));
        assert!(store.save(&key, &artifact.program, &artifact.jit));
        assert!(matches!(store.load(&key), StoreLoad::Hit(_)));
        assert!(store.remove(&key));
        assert!(matches!(store.load(&key), StoreLoad::Miss));
        store.clear();
    }

    #[test]
    fn two_handles_on_one_directory_never_share_a_temp_file() {
        // Two handles, one thread each, saving keys that differ only in the
        // module. Such keys share every part of a temp name but the counter,
        // so unless every handle draws from one counter, a save can fail or
        // publish another key's entry.
        const SAVES: u64 = 400;
        let first = temp_store("two-handles");
        let second = ArtifactStore::open(first.dir()).expect("second handle opens");
        let (artifact, key) = compiled_artifact();
        let keyed = |i: u64| StoreKey {
            module_fp: i,
            ..key
        };
        std::thread::scope(|scope| {
            for (parity, store) in [&first, &second].into_iter().enumerate() {
                let artifact = &artifact;
                scope.spawn(move || {
                    for i in 0..SAVES {
                        let key = keyed(2 * i + parity as u64);
                        assert!(store.save(&key, &artifact.program, &artifact.jit));
                    }
                });
            }
        });
        for i in 0..2 * SAVES {
            assert!(
                matches!(first.load(&keyed(i)), StoreLoad::Hit(_)),
                "key {i}"
            );
        }
        assert_eq!(first.len(), 2 * SAVES as usize);
        first.clear();
    }

    /// Deterministic xorshift64* PRNG — no external crates, stable seeds.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Every register operand of `inst`, definition and uses alike.
    macro_rules! registers_of {
        ($($tag:literal $variant:ident {
            $($role:ident $(($($class:tt)+))? $field:ident),*
        })*) => {
            #[allow(unused_variables)]
            fn registers_of(inst: &mut MInst) -> Vec<&mut PReg> {
                let mut out: Vec<&mut PReg> = Vec::new();
                match inst {
                    $(MInst::$variant { $($field),* } => {
                        $(registers_of!(@push $role $field out);)*
                    })*
                }
                out
            }
        };
        (@push val $x:ident $out:ident) => {};
        (@push def $x:ident $out:ident) => {
            $out.push($x)
        };
        (@push use $x:ident $out:ident) => {
            $out.push($x)
        };
        (@push $many:ident $x:ident $out:ident) => {
            $out.extend($x)
        };
    }
    minst_shapes!(registers_of);

    /// A store entry for `key` around an arbitrary payload, with the length
    /// and checksum an attacker (or a very unlucky disk) would recompute.
    fn entry_around(key: &StoreKey, payload: &[u8]) -> Vec<u8> {
        let (program, jit) = (MProgram::default(), JitStats::default());
        let mut entry = encode_entry(key, &program, &jit);
        entry.truncate(HEADER_LEN - 16);
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&Fnv1a::hash(payload).to_le_bytes());
        entry.extend_from_slice(payload);
        entry
    }

    /// One structural mutation of a program that still encodes: the decoder
    /// takes it, so preparation (or the run) has to.
    fn mutate_program(p: &mut MProgram, target: &TargetDesc, rng: &mut Rng) {
        let files = [
            target.int_regs,
            target.float_regs,
            target.vector.map_or(0, |v| v.regs),
        ];
        let nf = p.functions.len();
        let f = &mut p.functions[rng.below(nf)];
        let nblocks = f.blocks.len() as u32;
        let hostile_register = |r: &mut PReg, rng: &mut Rng| {
            let class = [RegClass::Int, RegClass::Float, RegClass::Vec][rng.below(3)];
            // The last register of some file, one past it, or the largest.
            let index = [
                files[rng.below(3)].saturating_sub(1),
                files[rng.below(3)],
                u16::MAX,
            ][rng.below(3)];
            match rng.below(3) {
                0 => r.class = class,
                1 => r.index = index,
                _ => *r = PReg { class, index },
            }
        };
        match rng.below(8) {
            0 if !f.params.is_empty() => {
                let at = rng.below(f.params.len());
                hostile_register(&mut f.params[at], rng);
            }
            1 => f.num_slots = [0, 1, u32::MAX][rng.below(3)],
            2 if f.blocks.len() > 1 => {
                f.blocks.remove(rng.below(f.blocks.len()));
            }
            _ => {
                let nb = f.blocks.len();
                let block = &mut f.blocks[rng.below(nb)];
                if block.insts.is_empty() {
                    return;
                }
                let at = rng.below(block.insts.len());
                let inst = &mut block.insts[at];
                let far = [nblocks, nblocks + 1, u32::MAX][rng.below(3)];
                match (rng.below(6), &mut *inst) {
                    (0, MInst::Spill { slot, .. } | MInst::Reload { slot, .. }) => *slot = far,
                    (0, MInst::Jump { target }) => *target = far,
                    (
                        0,
                        MInst::BranchNz {
                            then_target,
                            else_target,
                            ..
                        },
                    ) => *[then_target, else_target][rng.below(2)] = far,
                    (0, MInst::Call { callee, args, .. }) => match rng.below(3) {
                        0 => callee.push('?'),
                        1 => args.clear(),
                        _ => args.push(PReg::vec(0)),
                    },
                    (0, MInst::Load { float, .. } | MInst::Store { float, .. }) => *float = !*float,
                    (1, _) => {
                        block.insts.remove(at);
                    }
                    (2, _) => {
                        let copy = inst.clone();
                        let to = rng.below(block.insts.len() + 1);
                        block.insts.insert(to, copy);
                    }
                    _ => {
                        let mut regs = registers_of(inst);
                        if !regs.is_empty() {
                            let which = rng.below(regs.len());
                            hostile_register(regs[which], rng);
                        }
                    }
                }
            }
        }
    }

    /// One byte-level mutation of an encoded payload: what the decoder's
    /// tags, flags, lengths and indices are made of.
    fn mutate_payload(payload: &mut Vec<u8>, rng: &mut Rng) {
        if payload.is_empty() {
            return;
        }
        let at = rng.below(payload.len());
        match rng.below(6) {
            // Most tags, codes, classes and small indices live below 40.
            0 | 1 => payload[at] = rng.below(40) as u8,
            2 => payload[at] = rng.next() as u8,
            3 => {
                payload.insert(at, rng.below(40) as u8);
            }
            4 => {
                payload.remove(at);
            }
            _ => payload.truncate(at),
        }
    }

    /// FNV-1a over one run: its outcome (variant, value bits, error text),
    /// all eleven `SimStats` counters and the whole memory image.
    fn run_digest(
        out: &Result<Option<splitc_targets::MachineValue>, splitc_targets::SimError>,
        s: &splitc_targets::SimStats,
        mem: &[u8],
    ) -> u64 {
        use splitc_targets::MachineValue;
        let mut h = Fnv1a::new();
        match out {
            Ok(Some(MachineValue::Int(v))) => {
                h.write(b"int");
                h.write(&v.to_le_bytes());
            }
            Ok(Some(MachineValue::Float(v))) => {
                h.write(b"float");
                h.write(&v.to_bits().to_le_bytes());
            }
            Ok(None) => h.write(b"none"),
            Err(e) => h.write(format!("{e:?}").as_bytes()),
        }
        for counter in [
            s.cycles,
            s.instructions,
            s.loads,
            s.stores,
            s.spill_stores,
            s.spill_reloads,
            s.branches,
            s.vector_ops,
            s.stalls,
            s.mispredicts,
            s.predicted,
        ] {
            h.write(&counter.to_le_bytes());
        }
        h.write(mem);
        h.finish()
    }

    /// Run every function of `program`, as prepared in `prepared`, on a
    /// fresh image at a small fuel: the fold of the runs' digests.
    fn run_every_function(prepared: &splitc_targets::PreparedProgram, program: &MProgram) -> u64 {
        use splitc_targets::{FramePool, MachineValue, SimStats};
        const FUEL: u64 = 2_000;
        let mut pool = FramePool::new();
        let mut fold = Fnv1a::new();
        for f in &program.functions {
            let args: Vec<MachineValue> = f
                .params
                .iter()
                .zip([3, 64, 128, 5])
                .map(|(p, v)| match p.class {
                    RegClass::Float => MachineValue::Float(1.5),
                    _ => MachineValue::Int(v),
                })
                .collect();
            let mut mem: Vec<u8> = (0..=255).cycle().take(1024).collect();
            let mut stats = SimStats::default();
            let out = prepared.run(&f.name, &args, &mut mem, &mut pool, FUEL, &mut stats);
            fold.write(&run_digest(&out, &stats, &mem).to_le_bytes());
        }
        fold.finish()
    }

    /// The fold of every run's digest in the payload fuzz below.
    const PAYLOAD_FUZZ_PIN: u64 = 4_977_270_980_347_791_844;

    #[test]
    fn hostile_payloads_with_honest_checksums_never_panic() {
        // `corrupt_entries_never_panic` flips bytes of whole entries, so the
        // checksum rejects nearly every mutation before the payload decoder
        // runs. Here the length and FNV-1a are recomputed after the payload
        // is mutated — as anyone who can write the file would — so every
        // mutation reaches `MInst::get`, and what decodes reaches
        // `prepare_with` and the executor. Accepted outcomes: a reject, a
        // prepare error, or a run (result, trap or fuel exhaustion) whose
        // digest is the one recorded from the block walk of the loaded
        // program at the same fuel, welded or not. Never a panic — which
        // under `debug_assertions` includes the `debug_assert!`s beside the
        // executor's unchecked register reads.
        // The 2 400 entries split over two flat targets and one in-order
        // one; every other entry is prepared unwelded as well.
        use splitc_opt::{optimize_module, OptOptions};
        use splitc_targets::{PreparedProgram, TimingKind};
        let mut module = compile_source(
            "fn scale(n: i32, a: f32, x: *f32) -> f32 {
                let acc: f32 = 0.0;
                for (let i: i32 = 0; i < n; i = i + 1) {
                    x[i] = a * x[i];
                    acc = acc + x[i];
                }
                return acc;
            }
            fn sum(n: i32, x: *u8) -> i32 {
                let s: i32 = 0;
                for (let i: i32 = 0; i < n; i = i + 1) { s = s + (x[i] as i32); }
                return s;
            }
            fn busy(a: i32, b: i32, c: i32, x: *u8) -> i32 {
                let d: i32 = a + c; let e: i32 = a * b; let f: i32 = c * d;
                let g: i32 = a - d; let h: i32 = b - c; let i: i32 = e * f;
                let j: i32 = g * h;
                if (i < j) { return sum(a, x) + e + f + g + h; }
                return i + j + e + f + g + h + a + b + c + d;
            }
            fn both(n: i32, a: f32, x: *f32) -> f32 { return scale(n, a, x) + scale(n, a, x); }",
            "m",
        )
        .unwrap();
        optimize_module(&mut module, &OptOptions::full());
        let store = temp_store("payload-fuzz");
        let options = JitOptions::split();
        let mut rng = Rng(0x5eed_0021_c0de_u64);
        let (mut rejected, mut unprepared, mut ran, mut ran_unwelded) = (0, 0, 0, 0);
        let mut ran_in_order = 0;
        let mut cells = Vec::new();
        let targets = [
            TargetDesc::x86_sse(),
            TargetDesc::ultrasparc(),
            TargetDesc::x86_sse().with_timing(TimingKind::InOrder),
        ];
        for target in targets {
            let (program, jit) = compile_module(&module, &target, &options).unwrap();
            let key = StoreKey {
                module_fp: Fnv1a::hash(&splitc_vbc::encode_module(&module)),
                target_fp: target.fingerprint(),
                options_fp: options.fingerprint(),
            };
            let path = store.entry_path(&key);
            for entry in 0..800 {
                let mut hostile = program.clone();
                for _ in 0..rng.below(3) {
                    mutate_program(&mut hostile, &target, &mut rng);
                }
                let mut w = Writer::new();
                write_artifact(&mut w, &hostile, &jit);
                let mut payload = w.into_bytes();
                // Every third entry is a structural mutation alone.
                for _ in 0..rng.below(3) {
                    mutate_payload(&mut payload, &mut rng);
                }
                std::fs::write(&path, entry_around(&key, &payload)).unwrap();
                let StoreLoad::Hit(loaded) = store.load(&key) else {
                    rejected += 1;
                    continue;
                };
                let welded = PreparedProgram::prepare_with(&loaded.program, &target, true);
                let unwelded = (entry % 2 == 1)
                    .then(|| PreparedProgram::prepare_with(&loaded.program, &target, false));
                if let Some(unwelded) = &unwelded {
                    assert_eq!(
                        unwelded.is_ok(),
                        welded.is_ok(),
                        "welding decided whether {:?} prepares",
                        loaded.program
                    );
                }
                let Ok(prepared) = welded else {
                    unprepared += 1;
                    continue;
                };
                let digest = run_every_function(&prepared, &loaded.program);
                if let Some(Ok(unwelded)) = &unwelded {
                    assert_eq!(
                        run_every_function(unwelded, &loaded.program),
                        digest,
                        "welding changed a run of {:?}",
                        loaded.program
                    );
                    ran_unwelded += 1;
                }
                cells.push((format!("{} entry {entry}", target.name), digest));
                ran += 1;
                if target.timing == TimingKind::InOrder {
                    ran_in_order += 1;
                }
            }
        }
        // The mutations are seeded, so the split is a property of the code:
        // every outcome class is exercised, none by accident.
        println!(
            "payload fuzz: {rejected} rejected, {unprepared} failed to prepare, {ran} ran \
             ({ran_unwelded} unwelded too, {ran_in_order} in order)"
        );
        assert!(rejected > 200 && unprepared > 200 && ran > 200);
        assert!(ran_unwelded > 100 && ran_in_order > 100);
        // Every run's digest, recorded from the block walk's runs: on a
        // mismatch each entry's is printed, for a diff against a tree where
        // the fold held.
        let mut fold = Fnv1a::new();
        for (_, digest) in &cells {
            fold.write(&digest.to_le_bytes());
        }
        if fold.finish() != PAYLOAD_FUZZ_PIN {
            for (cell, digest) in &cells {
                println!("{digest:016x} {cell}");
            }
            panic!("{} runs fold to {}", cells.len(), fold.finish());
        }
        store.clear();
    }

    #[test]
    fn corrupt_entries_never_panic() {
        // Seeded random mutations of a valid entry: load() must only ever
        // answer Hit-with-the-original or Reject — never panic, never a
        // different artifact (the checksum makes surviving mutations
        // astronomically unlikely, but Hit(original) is the honest oracle).
        let store = temp_store("fuzz");
        let (artifact, key) = compiled_artifact();
        store.save(&key, &artifact.program, &artifact.jit);
        let path = store.entry_path(&key);
        let good = std::fs::read(&path).unwrap();
        let mut state = 0x5eed_0000_babe_u64;
        let mut rand = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..500 {
            let mut mutated = good.clone();
            for _ in 0..(rand() % 3 + 1) {
                let idx = (rand() as usize) % mutated.len();
                mutated[idx] = rand() as u8;
            }
            std::fs::write(&path, &mutated).unwrap();
            match store.load(&key) {
                StoreLoad::Hit(loaded) => assert_eq!(*loaded, artifact),
                StoreLoad::Reject | StoreLoad::Miss => {}
            }
        }
        store.clear();
    }

    const PIN_KEY: StoreKey = StoreKey {
        module_fp: 1,
        target_fp: 2,
        options_fp: 3,
    };

    /// A program with one of each machine instruction variant: every code of
    /// every operand enum, `Some` and `None`, empty and non-empty lists, and
    /// one-, two- and three-byte register indices.
    fn every_variant_program() -> MProgram {
        let (i, f, v) = (PReg::int(3), PReg::float(300), PReg::vec(u16::MAX));
        let mut insts = vec![
            MInst::Imm {
                dst: i,
                value: -70_000,
            },
            MInst::FImm {
                dst: f,
                value: -0.375,
            },
            MInst::Mov { dst: v, src: v },
            MInst::FloatNeg {
                double: true,
                dst: f,
                src: f,
            },
            MInst::Select {
                dst: f,
                cond: i,
                if_true: f,
                if_false: f,
            },
            MInst::VecLoad {
                dst: v,
                base: i,
                offset: 1 << 40,
            },
            MInst::VecStore {
                base: i,
                offset: -16,
                src: v,
            },
            MInst::Spill { slot: 7, src: f },
            MInst::Reload {
                slot: u32::MAX,
                dst: v,
            },
            MInst::Call {
                callee: "callee".into(),
                args: vec![i, f, v],
                ret: Some(f),
            },
            MInst::Call {
                callee: String::new(),
                args: Vec::new(),
                ret: None,
            },
            MInst::BranchNz {
                cond: i,
                then_target: 1,
                else_target: 300,
            },
        ];
        for signed in [false, true] {
            for double in [false, true] {
                insts.push(MInst::IntToFloat {
                    signed,
                    double,
                    dst: f,
                    src: i,
                });
            }
            insts.push(MInst::FloatCvt {
                to_double: signed,
                dst: f,
                src: f,
            });
        }
        for width in (0..).map_while(Width::from_code) {
            let signed = width.bytes() > 2;
            insts.extend([
                MInst::IntNeg {
                    width,
                    dst: i,
                    src: i,
                },
                MInst::IntNot {
                    width,
                    dst: i,
                    src: i,
                },
                MInst::FloatToInt {
                    width,
                    signed,
                    dst: i,
                    src: f,
                },
                MInst::IntResize {
                    width,
                    signed,
                    dst: i,
                    src: i,
                },
                MInst::Load {
                    width,
                    float: signed,
                    signed,
                    dst: i,
                    base: i,
                    offset: 8,
                },
                MInst::Store {
                    width,
                    float: !signed,
                    base: i,
                    offset: -8,
                    src: f,
                },
                MInst::VecSplatInt {
                    elem: width,
                    dst: v,
                    src: i,
                },
                MInst::VecSplatFloat {
                    elem: width,
                    dst: v,
                    src: f,
                },
            ]);
        }
        for op in (0..).map_while(AluOp::from_code) {
            insts.push(MInst::IntOp {
                op,
                width: Width::W32,
                signed: true,
                dst: i,
                lhs: i,
                rhs: i,
            });
            insts.push(MInst::VecIntOp {
                op,
                elem: Width::W16,
                signed: false,
                dst: v,
                lhs: v,
                rhs: v,
            });
        }
        for op in (0..).map_while(FpuOp::from_code) {
            insts.push(MInst::FloatOp {
                op,
                double: false,
                dst: f,
                lhs: f,
                rhs: f,
            });
            insts.push(MInst::VecFloatOp {
                op,
                elem: Width::W64,
                dst: v,
                lhs: v,
                rhs: v,
            });
        }
        for pred in (0..).map_while(CmpPred::from_code) {
            insts.push(MInst::IntCmp {
                pred,
                width: Width::W8,
                signed: true,
                dst: i,
                lhs: i,
                rhs: i,
            });
            insts.push(MInst::FloatCmp {
                pred,
                double: true,
                dst: i,
                lhs: f,
                rhs: f,
            });
        }
        for op in (0..).map_while(RedOp::from_code) {
            insts.push(MInst::VecReduceInt {
                op,
                elem: Width::W32,
                signed: true,
                dst: i,
                src: v,
            });
            insts.push(MInst::VecReduceFloat {
                op,
                elem: Width::W32,
                dst: f,
                src: v,
            });
        }
        insts.push(MInst::Jump { target: 2 });
        let blocks = [
            insts,
            vec![MInst::Ret { value: Some(i) }],
            vec![MInst::Ret { value: None }],
        ];
        MProgram {
            name: "variants".into(),
            functions: vec![
                MFunction {
                    name: "every".into(),
                    params: vec![i, f, v],
                    blocks: blocks.into_iter().map(|insts| MBlock { insts }).collect(),
                    num_slots: 1 << 20,
                },
                MFunction {
                    name: String::new(),
                    params: Vec::new(),
                    blocks: Vec::new(),
                    num_slots: 0,
                },
            ],
        }
    }

    #[test]
    fn every_machine_instruction_variant_is_written_as_the_recorded_bytes() {
        let program = every_variant_program();
        let jit = JitStats {
            functions: 2,
            verify_work: 300,
            lowering_work: 1 << 40,
            regalloc_work: 0,
            static_spills: 1,
            static_reloads: u64::MAX,
            annotations_used: true,
            used_simd: false,
            scalarized: true,
        };
        let entry = encode_entry(&PIN_KEY, &program, &jit);
        assert_eq!(
            decode_entry(&entry, &PIN_KEY),
            Ok(StoredArtifact { program, jit })
        );
        assert_eq!(
            (entry.len(), Fnv1a::hash(&entry)),
            (1184, 0xd479_e266_14ac_4255)
        );
    }

    #[test]
    fn hostile_primitives_decode_to_the_recorded_errors() {
        // A program `p` of `functions` functions, the first named `f` with no
        // parameters, `slots` spill slots and one block of one instruction.
        let payload = |functions: u64, slots: u64, inst: &[u8]| {
            let mut w = Writer::new();
            w.str("p");
            w.uleb(functions);
            if functions == 1 {
                w.str("f");
                w.uleb(0);
                w.uleb(slots);
                w.uleb(1);
                w.uleb(1);
                w.bytes(inst);
            }
            w.into_bytes()
        };
        // A flag byte of 2 (`Ret.value`'s presence), an index of 2^32 (the
        // slot count) and a count of 2^40 (the function count) followed by
        // nothing.
        let decoded = [
            payload(1, 0, &[30, 2]),
            payload(1, 1 << 32, &[30, 0]),
            payload(1 << 40, 0, &[]),
        ]
        .map(|p| format!("{:?}", decode_entry(&entry_around(&PIN_KEY, &p), &PIN_KEY)));
        assert_eq!(
            decoded,
            [
                r#"Err(BadTag { what: "flag", tag: 2 })"#,
                r#"Err(BadTag { what: "32-bit index", tag: 0 })"#,
                "Err(UnexpectedEof)",
            ]
        );
    }
}
