//! Experiment E5 — compactness of the deployment format (Section 2.1).
//!
//! The paper argues (citing the authors' earlier CLI size studies) that a
//! processor-independent bytecode is a *compact* program representation
//! compared to native code, which matters for embedded deployment. This
//! experiment measures the size of the compact bytecode encoding of the whole
//! kernel suite against the estimated size of the native code the online
//! compiler generates for each target — and against shipping one native binary
//! per target, which is what the paper's "shipping many versions does not
//! scale" argument is about. The annotation overhead it reports is what the
//! records the online side reads cost: per function a presence byte, the
//! keep ranking at about a byte per register, and one byte of kernel traits.

use crate::report::TextTable;
use crate::session::PipelineError;
use splitc_jit::{compile_module, JitOptions};
use splitc_opt::{optimize_module, OptOptions};
use splitc_targets::TargetDesc;
use splitc_vbc::encode_module;
use splitc_workloads::full_module;

/// Native-code size for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSizeRow {
    /// Target name.
    pub target: String,
    /// Estimated native code bytes generated by the online compiler.
    pub native_bytes: u64,
    /// Ratio of native size to bytecode size.
    pub ratio: f64,
}

/// The complete experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeSize {
    /// Number of kernels in the measured module.
    pub kernels: usize,
    /// Bytes of the compact bytecode encoding (including annotations: each
    /// function's keep ranking and kernel traits).
    pub bytecode_bytes: u64,
    /// Bytes of the bytecode encoding with annotations stripped.
    pub bytecode_bytes_stripped: u64,
    /// Per-target native sizes.
    pub rows: Vec<CodeSizeRow>,
}

impl CodeSize {
    /// Sum of the native sizes — what shipping one binary per target costs.
    pub fn total_native_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.native_bytes).sum()
    }

    /// Annotation overhead as a fraction of the stripped bytecode size.
    pub fn annotation_overhead(&self) -> f64 {
        (self.bytecode_bytes as f64 - self.bytecode_bytes_stripped as f64)
            / self.bytecode_bytes_stripped as f64
    }

    /// Render the comparison.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(&["target", "native bytes", "native / bytecode"]);
        for r in &self.rows {
            table.row(vec![
                r.target.clone(),
                r.native_bytes.to_string(),
                format!("{:.2}x", r.ratio),
            ]);
        }
        format!(
            "Deployment-format size ({} kernels)\n\
             portable bytecode: {} bytes ({} bytes without annotations, {:.0}% annotation overhead)\n{}\
             shipping one native binary per target: {} bytes ({:.2}x the single portable module)\n",
            self.kernels,
            self.bytecode_bytes,
            self.bytecode_bytes_stripped,
            self.annotation_overhead() * 100.0,
            table.render(),
            self.total_native_bytes(),
            self.total_native_bytes() as f64 / self.bytecode_bytes as f64,
        )
    }
}

/// Run the code-size experiment over the full kernel suite.
///
/// # Errors
///
/// Returns a [`PipelineError`] if compilation fails.
pub fn run() -> Result<CodeSize, PipelineError> {
    let mut module = full_module("suite").map_err(PipelineError::Frontend)?;
    optimize_module(&mut module, &OptOptions::full());
    let bytecode_bytes = encode_module(&module).len() as u64;
    let mut stripped = module.clone();
    stripped.strip_annotations();
    let bytecode_bytes_stripped = encode_module(&stripped).len() as u64;

    let mut rows = Vec::new();
    for target in TargetDesc::presets() {
        // Deliberately calls the raw online compiler instead of going through
        // the cached ExecutionEngine: this experiment measures the size of
        // each fresh compilation's output, not execution.
        let (program, _) = compile_module(&module, &target, &JitOptions::split())?;
        let native_bytes = program.estimated_code_bytes();
        rows.push(CodeSizeRow {
            target: target.name.clone(),
            native_bytes,
            ratio: native_bytes as f64 / bytecode_bytes as f64,
        });
    }
    Ok(CodeSize {
        kernels: module.functions().len(),
        bytecode_bytes,
        bytecode_bytes_stripped,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytecode_is_more_compact_than_shipping_native_binaries() {
        let result = run().expect("experiment runs");
        assert!(result.kernels >= 15);
        assert!(result.bytecode_bytes > 0);
        assert!(result.bytecode_bytes_stripped <= result.bytecode_bytes);
        assert_eq!(result.rows.len(), TargetDesc::presets().len());
        // One portable module beats shipping a native binary for every target.
        assert!(
            result.total_native_bytes() > result.bytecode_bytes,
            "native total {} vs bytecode {}",
            result.total_native_bytes(),
            result.bytecode_bytes
        );
        // Annotations stay a small fraction of the code they describe.
        assert!(result.annotation_overhead() < 0.1);
        assert!(result.render().contains("portable bytecode"));
    }
}
