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
//! The payload uses the vbc [`Writer`]/[`Reader`] primitives (LEB128
//! integers, length-prefixed strings, raw f64 bits), so the whole file is
//! decoded by the same hardened machinery the deployment format trusts.
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
//! Writes are atomic: the entry is written to a unique temp file in the same
//! directory and `rename`d into place, so a crash mid-write leaves at worst
//! a stray temp file, never a half-entry a sibling process could load. All
//! I/O errors on the write path are swallowed (best-effort persistence — a
//! full disk degrades to the no-store behaviour).

use splitc_jit::JitStats;
use splitc_targets::{
    AluOp, CmpPred, Fnv1a, FpuOp, MBlock, MFunction, MInst, MProgram, PReg, RedOp, RegClass, Width,
};
use splitc_vbc::{DecodeError, Reader, Writer};
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

/// A persistent on-disk artifact cache rooted at one directory.
///
/// Safe to share between threads and — by design — between *processes*: all
/// writes are atomic renames, all reads validate before trusting, so any
/// number of engines in any number of processes can point at one directory.
/// See the [module documentation](self) for layout and semantics.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    /// Per-process counter making concurrent temp-file names unique.
    temp_seq: AtomicU64,
}

/// Two stores are the same store iff they persist into the same directory
/// (the temp-name counter is process-local bookkeeping, not identity).
impl PartialEq for ArtifactStore {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir
    }
}

impl Eq for ArtifactStore {}

impl ArtifactStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            temp_seq: AtomicU64::new(0),
        })
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
            self.temp_seq.fetch_add(1, Ordering::Relaxed),
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
// Artifact payload codec: MProgram + JitStats over the vbc wire primitives.
//
// This is a trust boundary exactly like `decode_module`: lengths are
// attacker-controlled (a flipped bit), so pre-allocation hints are capped and
// every tag is validated. The encoder and decoder must stay in exact
// lockstep; any change here requires bumping STORE_FORMAT_VERSION.
// ---------------------------------------------------------------------------

/// Cap on speculative pre-allocation from wire lengths (same rationale as
/// the vbc decoder: a corrupt length must fail as EOF, not abort on OOM).
const MAX_PREALLOC: usize = 1 << 12;

fn cap_hint(n: usize) -> usize {
    n.min(MAX_PREALLOC)
}

fn bad(what: &'static str, tag: u8) -> DecodeError {
    DecodeError::BadTag { what, tag }
}

fn write_artifact(w: &mut Writer, program: &MProgram, jit: &JitStats) {
    write_program(w, program);
    write_jit_stats(w, jit);
}

fn read_artifact(r: &mut Reader<'_>) -> Result<StoredArtifact, DecodeError> {
    let program = read_program(r)?;
    let jit = read_jit_stats(r)?;
    Ok(StoredArtifact { program, jit })
}

fn write_program(w: &mut Writer, p: &MProgram) {
    w.str(&p.name);
    w.uleb(p.functions.len() as u64);
    for f in &p.functions {
        write_function(w, f);
    }
}

fn read_program(r: &mut Reader<'_>) -> Result<MProgram, DecodeError> {
    let name = r.str()?;
    let nfuncs = r.uleb()? as usize;
    let mut functions = Vec::with_capacity(cap_hint(nfuncs));
    for _ in 0..nfuncs {
        functions.push(read_function(r)?);
    }
    Ok(MProgram { name, functions })
}

fn write_function(w: &mut Writer, f: &MFunction) {
    w.str(&f.name);
    w.uleb(f.params.len() as u64);
    for p in &f.params {
        write_preg(w, *p);
    }
    w.uleb(u64::from(f.num_slots));
    w.uleb(f.blocks.len() as u64);
    for b in &f.blocks {
        w.uleb(b.insts.len() as u64);
        for inst in &b.insts {
            write_inst(w, inst);
        }
    }
}

fn read_function(r: &mut Reader<'_>) -> Result<MFunction, DecodeError> {
    let name = r.str()?;
    let nparams = r.uleb()? as usize;
    let mut params = Vec::with_capacity(cap_hint(nparams));
    for _ in 0..nparams {
        params.push(read_preg(r)?);
    }
    let num_slots = read_u32(r, "num_slots")?;
    let nblocks = r.uleb()? as usize;
    let mut blocks = Vec::with_capacity(cap_hint(nblocks));
    for _ in 0..nblocks {
        let ninsts = r.uleb()? as usize;
        let mut insts = Vec::with_capacity(cap_hint(ninsts));
        for _ in 0..ninsts {
            insts.push(read_inst(r)?);
        }
        blocks.push(MBlock { insts });
    }
    Ok(MFunction {
        name,
        params,
        blocks,
        num_slots,
    })
}

fn write_jit_stats(w: &mut Writer, s: &JitStats) {
    w.uleb(s.functions);
    w.uleb(s.verify_work);
    w.uleb(s.lowering_work);
    w.uleb(s.regalloc_work);
    w.uleb(s.static_spills);
    w.uleb(s.static_reloads);
    w.u8(u8::from(s.annotations_used) | u8::from(s.used_simd) << 1 | u8::from(s.scalarized) << 2);
}

fn read_jit_stats(r: &mut Reader<'_>) -> Result<JitStats, DecodeError> {
    let functions = r.uleb()?;
    let verify_work = r.uleb()?;
    let lowering_work = r.uleb()?;
    let regalloc_work = r.uleb()?;
    let static_spills = r.uleb()?;
    let static_reloads = r.uleb()?;
    let flags = r.u8()?;
    if flags > 0b111 {
        return Err(bad("jit stats flags", flags));
    }
    Ok(JitStats {
        functions,
        verify_work,
        lowering_work,
        regalloc_work,
        static_spills,
        static_reloads,
        annotations_used: flags & 1 != 0,
        used_simd: flags & 2 != 0,
        scalarized: flags & 4 != 0,
    })
}

fn write_preg(w: &mut Writer, p: PReg) {
    w.u8(match p.class {
        RegClass::Int => 0,
        RegClass::Float => 1,
        RegClass::Vec => 2,
    });
    w.uleb(u64::from(p.index));
}

fn read_preg(r: &mut Reader<'_>) -> Result<PReg, DecodeError> {
    let class = match r.u8()? {
        0 => RegClass::Int,
        1 => RegClass::Float,
        2 => RegClass::Vec,
        tag => return Err(bad("register class", tag)),
    };
    let index = r.uleb()?;
    let index = u16::try_from(index).map_err(|_| bad("register index", index as u8))?;
    Ok(PReg { class, index })
}

fn write_opt_preg(w: &mut Writer, p: Option<PReg>) {
    match p {
        Some(p) => {
            w.u8(1);
            write_preg(w, p);
        }
        None => w.u8(0),
    }
}

fn read_opt_preg(r: &mut Reader<'_>) -> Result<Option<PReg>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_preg(r)?)),
        tag => Err(bad("optional register", tag)),
    }
}

fn write_width(w: &mut Writer, width: Width) {
    w.u8(match width {
        Width::W8 => 0,
        Width::W16 => 1,
        Width::W32 => 2,
        Width::W64 => 3,
    });
}

fn read_width(r: &mut Reader<'_>) -> Result<Width, DecodeError> {
    Ok(match r.u8()? {
        0 => Width::W8,
        1 => Width::W16,
        2 => Width::W32,
        3 => Width::W64,
        tag => return Err(bad("width", tag)),
    })
}

fn write_alu_op(w: &mut Writer, op: AluOp) {
    w.u8(match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
        AluOp::Min => 10,
        AluOp::Max => 11,
    });
}

fn read_alu_op(r: &mut Reader<'_>) -> Result<AluOp, DecodeError> {
    Ok(match r.u8()? {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        10 => AluOp::Min,
        11 => AluOp::Max,
        tag => return Err(bad("alu op", tag)),
    })
}

fn write_fpu_op(w: &mut Writer, op: FpuOp) {
    w.u8(match op {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
        FpuOp::Min => 4,
        FpuOp::Max => 5,
    });
}

fn read_fpu_op(r: &mut Reader<'_>) -> Result<FpuOp, DecodeError> {
    Ok(match r.u8()? {
        0 => FpuOp::Add,
        1 => FpuOp::Sub,
        2 => FpuOp::Mul,
        3 => FpuOp::Div,
        4 => FpuOp::Min,
        5 => FpuOp::Max,
        tag => return Err(bad("fpu op", tag)),
    })
}

fn write_pred(w: &mut Writer, pred: CmpPred) {
    w.u8(match pred {
        CmpPred::Eq => 0,
        CmpPred::Ne => 1,
        CmpPred::Lt => 2,
        CmpPred::Le => 3,
        CmpPred::Gt => 4,
        CmpPred::Ge => 5,
    });
}

fn read_pred(r: &mut Reader<'_>) -> Result<CmpPred, DecodeError> {
    Ok(match r.u8()? {
        0 => CmpPred::Eq,
        1 => CmpPred::Ne,
        2 => CmpPred::Lt,
        3 => CmpPred::Le,
        4 => CmpPred::Gt,
        5 => CmpPred::Ge,
        tag => return Err(bad("compare predicate", tag)),
    })
}

fn write_red_op(w: &mut Writer, op: RedOp) {
    w.u8(match op {
        RedOp::Add => 0,
        RedOp::Min => 1,
        RedOp::Max => 2,
    });
}

fn read_red_op(r: &mut Reader<'_>) -> Result<RedOp, DecodeError> {
    Ok(match r.u8()? {
        0 => RedOp::Add,
        1 => RedOp::Min,
        2 => RedOp::Max,
        tag => return Err(bad("reduce op", tag)),
    })
}

fn read_bool(r: &mut Reader<'_>, what: &'static str) -> Result<bool, DecodeError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(bad(what, tag)),
    }
}

fn read_u32(r: &mut Reader<'_>, what: &'static str) -> Result<u32, DecodeError> {
    let v = r.uleb()?;
    u32::try_from(v).map_err(|_| bad(what, v as u8))
}

fn write_inst(w: &mut Writer, inst: &MInst) {
    match inst {
        MInst::Imm { dst, value } => {
            w.u8(0);
            write_preg(w, *dst);
            w.sleb(*value);
        }
        MInst::FImm { dst, value } => {
            w.u8(1);
            write_preg(w, *dst);
            w.f64(*value);
        }
        MInst::Mov { dst, src } => {
            w.u8(2);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::IntOp {
            op,
            width,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(3);
            write_alu_op(w, *op);
            write_width(w, *width);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::FloatOp {
            op,
            double,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(4);
            write_fpu_op(w, *op);
            w.u8(u8::from(*double));
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::IntNeg { width, dst, src } => {
            w.u8(5);
            write_width(w, *width);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::IntNot { width, dst, src } => {
            w.u8(6);
            write_width(w, *width);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::FloatNeg { double, dst, src } => {
            w.u8(7);
            w.u8(u8::from(*double));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::IntCmp {
            pred,
            width,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(8);
            write_pred(w, *pred);
            write_width(w, *width);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::FloatCmp {
            pred,
            double,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(9);
            write_pred(w, *pred);
            w.u8(u8::from(*double));
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::Select {
            dst,
            cond,
            if_true,
            if_false,
        } => {
            w.u8(10);
            write_preg(w, *dst);
            write_preg(w, *cond);
            write_preg(w, *if_true);
            write_preg(w, *if_false);
        }
        MInst::IntToFloat {
            signed,
            double,
            dst,
            src,
        } => {
            w.u8(11);
            w.u8(u8::from(*signed));
            w.u8(u8::from(*double));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::FloatToInt {
            width,
            signed,
            dst,
            src,
        } => {
            w.u8(12);
            write_width(w, *width);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::FloatCvt {
            to_double,
            dst,
            src,
        } => {
            w.u8(13);
            w.u8(u8::from(*to_double));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::IntResize {
            width,
            signed,
            dst,
            src,
        } => {
            w.u8(14);
            write_width(w, *width);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::Load {
            width,
            float,
            signed,
            dst,
            base,
            offset,
        } => {
            w.u8(15);
            write_width(w, *width);
            w.u8(u8::from(*float));
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *base);
            w.sleb(*offset);
        }
        MInst::Store {
            width,
            float,
            base,
            offset,
            src,
        } => {
            w.u8(16);
            write_width(w, *width);
            w.u8(u8::from(*float));
            write_preg(w, *base);
            w.sleb(*offset);
            write_preg(w, *src);
        }
        MInst::VecLoad { dst, base, offset } => {
            w.u8(17);
            write_preg(w, *dst);
            write_preg(w, *base);
            w.sleb(*offset);
        }
        MInst::VecStore { base, offset, src } => {
            w.u8(18);
            write_preg(w, *base);
            w.sleb(*offset);
            write_preg(w, *src);
        }
        MInst::VecSplatInt { elem, dst, src } => {
            w.u8(19);
            write_width(w, *elem);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::VecSplatFloat { elem, dst, src } => {
            w.u8(20);
            write_width(w, *elem);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::VecIntOp {
            op,
            elem,
            signed,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(21);
            write_alu_op(w, *op);
            write_width(w, *elem);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::VecFloatOp {
            op,
            elem,
            dst,
            lhs,
            rhs,
        } => {
            w.u8(22);
            write_fpu_op(w, *op);
            write_width(w, *elem);
            write_preg(w, *dst);
            write_preg(w, *lhs);
            write_preg(w, *rhs);
        }
        MInst::VecReduceInt {
            op,
            elem,
            signed,
            dst,
            src,
        } => {
            w.u8(23);
            write_red_op(w, *op);
            write_width(w, *elem);
            w.u8(u8::from(*signed));
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::VecReduceFloat { op, elem, dst, src } => {
            w.u8(24);
            write_red_op(w, *op);
            write_width(w, *elem);
            write_preg(w, *dst);
            write_preg(w, *src);
        }
        MInst::Spill { slot, src } => {
            w.u8(25);
            w.uleb(u64::from(*slot));
            write_preg(w, *src);
        }
        MInst::Reload { slot, dst } => {
            w.u8(26);
            w.uleb(u64::from(*slot));
            write_preg(w, *dst);
        }
        MInst::Jump { target } => {
            w.u8(27);
            w.uleb(u64::from(*target));
        }
        MInst::BranchNz {
            cond,
            then_target,
            else_target,
        } => {
            w.u8(28);
            write_preg(w, *cond);
            w.uleb(u64::from(*then_target));
            w.uleb(u64::from(*else_target));
        }
        MInst::Call { callee, args, ret } => {
            w.u8(29);
            w.str(callee);
            w.uleb(args.len() as u64);
            for a in args {
                write_preg(w, *a);
            }
            write_opt_preg(w, *ret);
        }
        MInst::Ret { value } => {
            w.u8(30);
            write_opt_preg(w, *value);
        }
    }
}

fn read_inst(r: &mut Reader<'_>) -> Result<MInst, DecodeError> {
    Ok(match r.u8()? {
        0 => MInst::Imm {
            dst: read_preg(r)?,
            value: r.sleb()?,
        },
        1 => MInst::FImm {
            dst: read_preg(r)?,
            value: r.f64()?,
        },
        2 => MInst::Mov {
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        3 => MInst::IntOp {
            op: read_alu_op(r)?,
            width: read_width(r)?,
            signed: read_bool(r, "int op signed")?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        4 => MInst::FloatOp {
            op: read_fpu_op(r)?,
            double: read_bool(r, "float op double")?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        5 => MInst::IntNeg {
            width: read_width(r)?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        6 => MInst::IntNot {
            width: read_width(r)?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        7 => MInst::FloatNeg {
            double: read_bool(r, "float neg double")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        8 => MInst::IntCmp {
            pred: read_pred(r)?,
            width: read_width(r)?,
            signed: read_bool(r, "int cmp signed")?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        9 => MInst::FloatCmp {
            pred: read_pred(r)?,
            double: read_bool(r, "float cmp double")?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        10 => MInst::Select {
            dst: read_preg(r)?,
            cond: read_preg(r)?,
            if_true: read_preg(r)?,
            if_false: read_preg(r)?,
        },
        11 => MInst::IntToFloat {
            signed: read_bool(r, "int to float signed")?,
            double: read_bool(r, "int to float double")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        12 => MInst::FloatToInt {
            width: read_width(r)?,
            signed: read_bool(r, "float to int signed")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        13 => MInst::FloatCvt {
            to_double: read_bool(r, "float cvt to_double")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        14 => MInst::IntResize {
            width: read_width(r)?,
            signed: read_bool(r, "int resize signed")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        15 => MInst::Load {
            width: read_width(r)?,
            float: read_bool(r, "load float")?,
            signed: read_bool(r, "load signed")?,
            dst: read_preg(r)?,
            base: read_preg(r)?,
            offset: r.sleb()?,
        },
        16 => MInst::Store {
            width: read_width(r)?,
            float: read_bool(r, "store float")?,
            base: read_preg(r)?,
            offset: r.sleb()?,
            src: read_preg(r)?,
        },
        17 => MInst::VecLoad {
            dst: read_preg(r)?,
            base: read_preg(r)?,
            offset: r.sleb()?,
        },
        18 => MInst::VecStore {
            base: read_preg(r)?,
            offset: r.sleb()?,
            src: read_preg(r)?,
        },
        19 => MInst::VecSplatInt {
            elem: read_width(r)?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        20 => MInst::VecSplatFloat {
            elem: read_width(r)?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        21 => MInst::VecIntOp {
            op: read_alu_op(r)?,
            elem: read_width(r)?,
            signed: read_bool(r, "vec int op signed")?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        22 => MInst::VecFloatOp {
            op: read_fpu_op(r)?,
            elem: read_width(r)?,
            dst: read_preg(r)?,
            lhs: read_preg(r)?,
            rhs: read_preg(r)?,
        },
        23 => MInst::VecReduceInt {
            op: read_red_op(r)?,
            elem: read_width(r)?,
            signed: read_bool(r, "vec reduce signed")?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        24 => MInst::VecReduceFloat {
            op: read_red_op(r)?,
            elem: read_width(r)?,
            dst: read_preg(r)?,
            src: read_preg(r)?,
        },
        25 => MInst::Spill {
            slot: read_u32(r, "spill slot")?,
            src: read_preg(r)?,
        },
        26 => MInst::Reload {
            slot: read_u32(r, "reload slot")?,
            dst: read_preg(r)?,
        },
        27 => MInst::Jump {
            target: read_u32(r, "jump target")?,
        },
        28 => MInst::BranchNz {
            cond: read_preg(r)?,
            then_target: read_u32(r, "branch then target")?,
            else_target: read_u32(r, "branch else target")?,
        },
        29 => {
            let callee = r.str()?;
            let nargs = r.uleb()? as usize;
            let mut args = Vec::with_capacity(cap_hint(nargs));
            for _ in 0..nargs {
                args.push(read_preg(r)?);
            }
            let ret = read_opt_preg(r)?;
            MInst::Call { callee, args, ret }
        }
        30 => MInst::Ret {
            value: read_opt_preg(r)?,
        },
        tag => return Err(bad("machine instruction", tag)),
    })
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
}
