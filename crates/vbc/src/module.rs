//! Modules: the unit of deployment of the virtualization layer.

use crate::annotations::AnnotationSet;
use crate::function::Function;
use serde::{Deserialize, Serialize};

/// A deployable bytecode module: a set of uniquely named functions.
///
/// A module is what the paper ships to the device: target-independent code
/// with each function's annotations embedded, compiled to native code on (or
/// near) the system.
///
/// # Examples
///
/// ```
/// use splitc_vbc::{Function, Module, ScalarType, Type};
///
/// let mut m = Module::new("demo");
/// m.add_function(Function::new("noop", &[], None));
/// assert_eq!(m.functions().len(), 1);
/// assert!(m.function("noop").is_some());
/// assert!(m.function("missing").is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name.
    pub name: String,
    functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_owned(),
            functions: Vec::new(),
        }
    }

    /// Assemble a module from decoded parts. The caller has checked that the
    /// function names are distinct, which [`Module::add_function`] would
    /// re-establish with a scan per function.
    pub(crate) fn from_parts(name: String, functions: Vec<Function>) -> Self {
        Module { name, functions }
    }

    /// Add a function, replacing any existing function with the same name.
    ///
    /// The replace-or-append lookup compares `f`'s name with every function
    /// already in the module, so this is O(functions) per call — the
    /// builder's convenience, not a bulk-load path.
    pub fn add_function(&mut self, f: Function) {
        if let Some(slot) = self.functions.iter_mut().find(|g| g.name == f.name) {
            *slot = f;
        } else {
            self.functions.push(f);
        }
    }

    /// All functions, in insertion order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Mutable access to all functions.
    pub fn functions_mut(&mut self) -> &mut [Function] {
        &mut self.functions
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Mutable lookup of a function by name.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Total instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.functions.iter().map(Function::num_insts).sum()
    }

    /// Remove every annotation from all of the module's functions.
    ///
    /// This is how the experiments build the "plain bytecode, no split
    /// compilation" baseline: the same code, stripped of the information the
    /// offline step distilled.
    pub fn strip_annotations(&mut self) {
        for f in &mut self.functions {
            f.annotations = AnnotationSet::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{KernelTraits, SpillOrder};
    use crate::inst::VReg;

    #[test]
    fn add_and_lookup_functions() {
        let mut m = Module::new("m");
        m.add_function(Function::new("a", &[], None));
        m.add_function(Function::new("b", &[], None));
        assert_eq!(m.functions().len(), 2);
        assert!(m.function("a").is_some());
        assert!(m.function_mut("b").is_some());
        assert!(m.function("c").is_none());
    }

    #[test]
    fn add_function_replaces_same_name() {
        let mut m = Module::new("m");
        m.add_function(Function::new("a", &[], None));
        let mut replacement = Function::new("a", &[], None);
        replacement.annotations.kernel_traits = Some(KernelTraits::default());
        m.add_function(replacement);
        assert_eq!(m.functions().len(), 1);
        assert!(m.function("a").unwrap().annotations.kernel_traits.is_some());
    }

    #[test]
    fn strip_annotations_removes_module_and_function_annotations() {
        let mut m = Module::new("m");
        for name in ["a", "b"] {
            let mut f = Function::new(name, &[], None);
            f.annotations = AnnotationSet {
                spill_order: Some(SpillOrder {
                    keep_order: vec![VReg(0)],
                }),
                kernel_traits: Some(KernelTraits::default()),
            };
            m.add_function(f);
        }
        m.strip_annotations();
        for f in m.functions() {
            assert_eq!(f.annotations, AnnotationSet::default());
        }
    }

    #[test]
    fn num_insts_sums_over_functions() {
        let mut m = Module::new("m");
        let mut f = Function::new("a", &[], None);
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .push(crate::Inst::Ret { value: None });
        m.add_function(f);
        assert_eq!(m.num_insts(), 1);
    }
}
