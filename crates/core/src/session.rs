//! High-level pipeline API: offline compile, deploy, run, measure.

use splitc_jit::JitOptions;
use splitc_opt::{optimize_module, OptOptions, OptReport};
use splitc_runtime::{EngineError, Execution, ExecutionEngine};
use splitc_targets::{MachineValue, TargetDesc};
use splitc_vbc::Module;

/// Any error that can occur along the offline/online pipeline.
///
/// Alias of the unified [`EngineError`] from the runtime layer: the offline
/// pipeline, the execution engine and the heterogeneous runtime all report
/// failures through one type (with `From` bridges from every layer's error).
pub type PipelineError = EngineError;

/// The offline step: parse, type-check, lower and optimize mini-C source.
///
/// # Errors
///
/// Returns a [`PipelineError::Frontend`] on any source error.
pub fn offline_compile(
    source: &str,
    module_name: &str,
    opts: &OptOptions,
) -> Result<(Module, OptReport), PipelineError> {
    let mut module = splitc_minic::compile_source(source, module_name)?;
    let report = optimize_module(&mut module, opts);
    Ok((module, report))
}

/// The online step plus execution, as a one-shot convenience: JIT-compile
/// `module` for `target`, run `kernel` with `args` against `mem`, and return
/// the measurements.
///
/// Every call compiles the module afresh (via
/// [`ExecutionEngine::run_once`]). Code that runs more than one kernel,
/// target or repetition should hold an [`ExecutionEngine`] instead, so each
/// distinct (target, options) pair is compiled exactly once and shared.
///
/// # Errors
///
/// Returns a [`PipelineError`] if online compilation or execution fails.
pub fn run_on_target(
    module: &Module,
    target: &TargetDesc,
    jit_options: &JitOptions,
    kernel: &str,
    args: &[MachineValue],
    mem: &mut [u8],
) -> Result<Execution, PipelineError> {
    ExecutionEngine::run_once(module, target, jit_options, kernel, args, mem)
}

/// A linear scratch memory for setting up kernel inputs and reading outputs.
///
/// Thin wrapper around a byte vector with a bump allocator, matching the flat
/// address space of both the reference interpreter and the target simulators.
///
/// # Examples
///
/// ```
/// use splitc::Workspace;
///
/// let mut ws = Workspace::new(1 << 12);
/// let a = ws.alloc(16);
/// ws.write_f32s(a, &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(ws.read_f32s(a, 4), vec![1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Workspace {
    bytes: Vec<u8>,
    next: u64,
}

impl Workspace {
    /// Create a workspace of `size` bytes.
    pub fn new(size: usize) -> Self {
        Workspace {
            bytes: vec![0; size],
            next: 64,
        }
    }

    /// Create a workspace sized for a catalogue-kernel invocation over `n`
    /// elements: room for four 4-byte buffers of length `n` plus 4 KiB for
    /// the fixed-length and padded ones, never smaller than 16 KiB. Every
    /// experiment driver (the KPN pipeline's stages included), the sweep
    /// layer and the stress tests share this one sizing rule; a test checks
    /// each kernel's declared arguments against it.
    pub fn sized_for(n: usize) -> Self {
        Workspace::new((16 * n + (1 << 12)).max(1 << 14))
    }

    /// Bump-allocate `size` bytes, 16-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if the workspace is exhausted. All arithmetic is checked, so a
    /// hostile `size` (e.g. `u64::MAX`) reports exhaustion instead of
    /// overflowing the offset computation.
    pub fn alloc(&mut self, size: u64) -> u64 {
        let base = self.next;
        let capacity = self.bytes.len() as u64;
        let end = size
            .checked_next_multiple_of(16)
            .and_then(|aligned| base.checked_add(aligned));
        match end {
            Some(end) if end <= capacity => {
                self.next = end;
                base
            }
            _ => panic!(
                "workspace exhausted: requested {size} bytes at offset {base} (capacity {capacity} bytes)"
            ),
        }
    }

    /// Reset the workspace to its freshly-constructed state: every byte
    /// zeroed, the bump pointer rewound.
    ///
    /// Sweep workers reuse one workspace allocation across many kernel
    /// invocations; a reset workspace is indistinguishable from
    /// `Workspace::new(size)`, so reuse never changes results.
    pub fn reset(&mut self) {
        self.bytes.fill(0);
        self.next = 64;
    }

    /// The raw bytes (to pass to a simulator).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// The raw bytes, read-only.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the workspace, yielding its backing buffer without a copy
    /// (for handing prepared memory to an owning consumer).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Write a slice of `f32` values at `addr`.
    pub fn write_f32s(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            let at = addr as usize + 4 * i;
            self.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read `n` `f32` values from `addr`.
    pub fn read_f32s(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let at = addr as usize + 4 * i;
                let mut b = [0u8; 4];
                b.copy_from_slice(&self.bytes[at..at + 4]);
                f32::from_le_bytes(b)
            })
            .collect()
    }

    /// Write a slice of `i32` values at `addr`.
    pub fn write_i32s(&mut self, addr: u64, data: &[i32]) {
        for (i, v) in data.iter().enumerate() {
            let at = addr as usize + 4 * i;
            self.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_workloads::SAXPY_F32;

    #[test]
    fn offline_then_online_round_trip() {
        let (module, report) =
            offline_compile(SAXPY_F32, "k", &OptOptions::full()).expect("offline compiles");
        assert_eq!(report.total_vectorized(), 1);

        let mut ws = Workspace::new(1 << 14);
        let n = 40usize;
        let x = ws.alloc(4 * n as u64);
        let y = ws.alloc(4 * n as u64);
        ws.write_f32s(x, &vec![1.0; n]);
        ws.write_f32s(y, &vec![2.0; n]);
        let target = TargetDesc::x86_sse();
        let run = run_on_target(
            &module,
            &target,
            &JitOptions::split(),
            "saxpy_f32",
            &[
                MachineValue::Int(n as i64),
                MachineValue::Float(3.0),
                MachineValue::Int(x as i64),
                MachineValue::Int(y as i64),
            ],
            ws.bytes_mut(),
        )
        .expect("runs");
        assert!(run.stats.cycles > 0);
        assert!(run.jit.used_simd);
        assert_eq!(ws.read_f32s(y, n), vec![5.0f32; n]);
    }

    #[test]
    fn workspace_round_trips_each_type() {
        let mut ws = Workspace::new(1024);
        let a = ws.alloc(32);
        let b = ws.alloc(32);
        assert_ne!(a, b);
        ws.write_f32s(a, &[1.5, -2.0]);
        assert_eq!(ws.read_f32s(a, 2), vec![1.5, -2.0]);
        ws.write_i32s(b, &[-5, 7]);
        assert_eq!(
            &ws.bytes()[b as usize..][..8],
            [251, 255, 255, 255, 7, 0, 0, 0]
        );
    }

    #[test]
    #[should_panic(expected = "workspace exhausted")]
    fn workspace_overflow_panics() {
        let mut ws = Workspace::new(128);
        let _ = ws.alloc(1024);
    }

    #[test]
    fn workspace_exhaustion_reports_the_capacity() {
        let mut ws = Workspace::new(128);
        let err = std::panic::catch_unwind(move || ws.alloc(1024)).unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message");
        assert!(msg.contains("capacity 128 bytes"), "got: {msg}");
    }

    #[test]
    #[should_panic(expected = "workspace exhausted")]
    fn workspace_alloc_rejects_hostile_sizes_without_overflowing() {
        // base + aligned(u64::MAX) would wrap; checked arithmetic must turn
        // this into the ordinary exhaustion panic instead.
        let mut ws = Workspace::new(1 << 12);
        let _ = ws.alloc(u64::MAX - 8);
    }

    #[test]
    fn pipeline_errors_are_reported() {
        let err = offline_compile("fn broken(", "k", &OptOptions::none()).unwrap_err();
        assert!(matches!(err, PipelineError::Frontend(_)));
        assert!(err.to_string().contains("front-end"));
    }
}
