//! Structural and type verification of bytecode.
//!
//! The verifier is the bytecode's "load-time check": the offline compiler runs
//! it before shipping a module and the JIT runs it before lowering, mirroring
//! the verification role that the paper assigns to the offline step of
//! traditional bytecode tool chains (Section 2.2).
//!
//! Because the device pays for it on every bring-up, verifying a well-formed
//! module without calls allocates nothing: operands are visited through
//! [`Inst::for_each_use`], the at most two successors of a terminator are
//! read in place, and types come straight out of the function's register
//! table; a module with calls allocates one name index for its callees, so
//! that verification stays linear in the module's size. Every error is
//! built in one cold function, `fail`, so the checks inline into the walk;
//! `tests/online_cost.rs` gates both counts exactly (0 and 1).

use crate::function::Function;
use crate::inst::{BlockId, CallSite, Inst, VReg};
use crate::module::Module;
use crate::types::{ScalarType, Type};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error found while verifying a function or module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block is empty or does not end with a terminator.
    MissingTerminator {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
    },
    /// A terminator appears before the end of a block.
    EarlyTerminator {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
        /// Index of the offending instruction within the block.
        index: usize,
    },
    /// A branch or jump targets a block that does not exist.
    BadBlockTarget {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
    /// An instruction references a register that was never allocated.
    BadRegister {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
        /// The out-of-range register.
        reg: VReg,
    },
    /// An operand or destination has the wrong type.
    TypeMismatch {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A call references a function that is not part of the module.
    UnknownCallee {
        /// Calling function.
        function: String,
        /// Name of the missing callee.
        callee: String,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// Calling function.
        function: String,
        /// Callee name.
        callee: String,
        /// Arguments expected by the callee.
        expected: usize,
        /// Arguments supplied at the call site.
        found: usize,
    },
    /// The function returns a value but `ret` is missing one (or vice versa).
    ReturnMismatch {
        /// Offending function.
        function: String,
        /// Offending block.
        block: BlockId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingTerminator { function, block } => {
                write!(f, "function {function}: block {block} has no terminator")
            }
            VerifyError::EarlyTerminator {
                function,
                block,
                index,
            } => write!(
                f,
                "function {function}: block {block} has a terminator at position {index} before the end"
            ),
            VerifyError::BadBlockTarget {
                function,
                block,
                target,
            } => write!(
                f,
                "function {function}: block {block} branches to nonexistent {target}"
            ),
            VerifyError::BadRegister {
                function,
                block,
                reg,
            } => write!(
                f,
                "function {function}: block {block} references unallocated register {reg}"
            ),
            VerifyError::TypeMismatch {
                function,
                block,
                detail,
            } => write!(f, "function {function}: block {block}: {detail}"),
            VerifyError::UnknownCallee { function, callee } => {
                write!(f, "function {function}: call to unknown function {callee}")
            }
            VerifyError::BadArity {
                function,
                callee,
                expected,
                found,
            } => write!(
                f,
                "function {function}: call to {callee} passes {found} arguments, expected {expected}"
            ),
            VerifyError::ReturnMismatch { function, block } => write!(
                f,
                "function {function}: block {block}: return value does not match the signature"
            ),
        }
    }
}

impl Error for VerifyError {}

/// The error `build` makes of `f`'s name. Every error of the verifier is
/// built here — cold and never inlined — so that the checks on the path a
/// well-formed module takes stay small enough to inline into the walk.
#[cold]
#[inline(never)]
fn fail<T>(f: &Function, build: impl FnOnce(String) -> VerifyError) -> Result<T, VerifyError> {
    Err(build(f.name.clone()))
}

#[inline]
fn expect_type(
    f: &Function,
    block: BlockId,
    reg: VReg,
    expected: Type,
    what: &str,
) -> Result<(), VerifyError> {
    let actual = f.vreg_type(reg);
    if actual != expected {
        return fail(f, |function| VerifyError::TypeMismatch {
            function,
            block,
            detail: format!("{what} {reg} has type {actual}, expected {expected}"),
        });
    }
    Ok(())
}

/// Every register the instruction names is below `num_vregs`. Reports the
/// first offender in operand order, the destination last.
#[inline]
fn check_regs(f: &Function, block: BlockId, inst: &Inst) -> Result<(), VerifyError> {
    let limit = f.num_vregs() as u32;
    let mut bad = None;
    let mut check = |r: VReg| {
        if bad.is_none() && r.0 >= limit {
            bad = Some(r);
        }
    };
    inst.for_each_use(&mut check);
    if let Some(d) = inst.dst() {
        check(d);
    }
    match bad {
        None => Ok(()),
        Some(reg) => fail(f, |function| VerifyError::BadRegister {
            function,
            block,
            reg,
        }),
    }
}

#[inline]
fn check_types(f: &Function, block: BlockId, inst: &Inst) -> Result<(), VerifyError> {
    let scalar = Type::Scalar;
    let vector = Type::Vector;
    match inst {
        Inst::Const { dst, ty, .. } => expect_type(f, block, *dst, scalar(*ty), "const dst"),
        Inst::Move { dst, ty, src } => {
            expect_type(f, block, *dst, scalar(*ty), "move dst")?;
            expect_type(f, block, *src, scalar(*ty), "move src")
        }
        Inst::Bin {
            ty,
            dst,
            lhs,
            rhs,
            op,
        } => {
            if op.int_only() && ty.is_float() {
                return fail(f, |function| VerifyError::TypeMismatch {
                    function,
                    block,
                    detail: format!("integer-only operator {op} applied to {ty}"),
                });
            }
            expect_type(f, block, *dst, scalar(*ty), "bin dst")?;
            expect_type(f, block, *lhs, scalar(*ty), "bin lhs")?;
            expect_type(f, block, *rhs, scalar(*ty), "bin rhs")
        }
        Inst::Un { ty, dst, src, .. } => {
            expect_type(f, block, *dst, scalar(*ty), "un dst")?;
            expect_type(f, block, *src, scalar(*ty), "un src")
        }
        Inst::Cmp {
            ty, dst, lhs, rhs, ..
        } => {
            expect_type(f, block, *dst, scalar(ScalarType::I32), "cmp dst")?;
            expect_type(f, block, *lhs, scalar(*ty), "cmp lhs")?;
            expect_type(f, block, *rhs, scalar(*ty), "cmp rhs")
        }
        Inst::Cast { dst, to, src, from } => {
            expect_type(f, block, *dst, scalar(*to), "cast dst")?;
            expect_type(f, block, *src, scalar(*from), "cast src")
        }
        Inst::Load { dst, ty, addr, .. } => {
            expect_type(f, block, *dst, scalar(*ty), "load dst")?;
            expect_type(f, block, *addr, scalar(ScalarType::Ptr), "load address")
        }
        Inst::Store {
            ty, addr, value, ..
        } => {
            expect_type(f, block, *addr, scalar(ScalarType::Ptr), "store address")?;
            expect_type(f, block, *value, scalar(*ty), "store value")
        }
        Inst::Call { .. } => Ok(()), // signature checked at module level
        Inst::VecWidth { dst, .. } => {
            expect_type(f, block, *dst, scalar(ScalarType::I64), "vecwidth dst")
        }
        Inst::VecSplat { dst, elem, src } => {
            expect_type(f, block, *dst, vector(*elem), "splat dst")?;
            expect_type(f, block, *src, scalar(*elem), "splat src")
        }
        Inst::VecLoad {
            dst, elem, addr, ..
        } => {
            expect_type(f, block, *dst, vector(*elem), "vload dst")?;
            expect_type(f, block, *addr, scalar(ScalarType::Ptr), "vload address")
        }
        Inst::VecStore {
            elem, addr, value, ..
        } => {
            expect_type(f, block, *addr, scalar(ScalarType::Ptr), "vstore address")?;
            expect_type(f, block, *value, vector(*elem), "vstore value")
        }
        Inst::VecBin {
            elem,
            dst,
            lhs,
            rhs,
            op,
        } => {
            if op.int_only() && elem.is_float() {
                return fail(f, |function| VerifyError::TypeMismatch {
                    function,
                    block,
                    detail: format!("integer-only operator {op} applied to vector of {elem}"),
                });
            }
            expect_type(f, block, *dst, vector(*elem), "vbin dst")?;
            expect_type(f, block, *lhs, vector(*elem), "vbin lhs")?;
            expect_type(f, block, *rhs, vector(*elem), "vbin rhs")
        }
        Inst::VecReduce { elem, dst, src, .. } => {
            expect_type(f, block, *dst, scalar(*elem), "vreduce dst")?;
            expect_type(f, block, *src, vector(*elem), "vreduce src")
        }
        Inst::Branch { cond, .. } => {
            expect_type(f, block, *cond, scalar(ScalarType::I32), "branch condition")
        }
        Inst::Jump { .. } => Ok(()),
        Inst::Ret { value } => match (value, f.ret) {
            (Some(v), Some(ty)) => expect_type(f, block, *v, ty, "return value"),
            (None, None) => Ok(()),
            _ => fail(f, |function| VerifyError::ReturnMismatch {
                function,
                block,
            }),
        },
    }
}

/// Verify a single function in isolation (no inter-procedural checks).
///
/// # Errors
///
/// Returns the first [`VerifyError`] found: malformed block structure,
/// out-of-range registers or block targets, or operand type mismatches.
pub fn verify_function(f: &Function) -> Result<(), VerifyError> {
    if f.entry.index() >= f.blocks.len() {
        return fail(f, |function| VerifyError::BadBlockTarget {
            function,
            block: f.entry,
            target: f.entry,
        });
    }
    for b in &f.blocks {
        if b.terminator().is_none() {
            return fail(f, |function| VerifyError::MissingTerminator {
                function,
                block: b.id,
            });
        }
        for (i, inst) in b.insts.iter().enumerate() {
            if inst.is_terminator() && i + 1 != b.insts.len() {
                return fail(f, |function| VerifyError::EarlyTerminator {
                    function,
                    block: b.id,
                    index: i,
                });
            }
            check_regs(f, b.id, inst)?;
            check_types(f, b.id, inst)?;
            for target in inst.successor_slots().into_iter().flatten() {
                if target.index() >= f.blocks.len() {
                    return fail(f, |function| VerifyError::BadBlockTarget {
                        function,
                        block: b.id,
                        target,
                    });
                }
            }
        }
    }
    Ok(())
}

/// The call `dst = site` in block `block` of `f` against its callee's
/// signature, found in `callees` (first definition of each name).
fn check_call(
    f: &Function,
    block: BlockId,
    dst: Option<VReg>,
    site: &CallSite,
    callees: &HashMap<&str, &Function>,
) -> Result<(), VerifyError> {
    let callee = &site.callee;
    let Some(target) = callees.get(callee.as_str()) else {
        return fail(f, |function| VerifyError::UnknownCallee {
            function,
            callee: callee.clone(),
        });
    };
    if target.params.len() != site.args.len() {
        return fail(f, |function| VerifyError::BadArity {
            function,
            callee: callee.clone(),
            expected: target.params.len(),
            found: site.args.len(),
        });
    }
    for (&arg, &(_, ty)) in site.args.iter().zip(&target.params) {
        expect_type(f, block, arg, ty, "call argument")?;
    }
    if let Some(dst) = dst {
        let Some(ret) = target.ret else {
            return fail(f, |function| VerifyError::TypeMismatch {
                function,
                block,
                detail: format!("call to void function {callee} expects a result"),
            });
        };
        expect_type(f, block, dst, ret, "call result")?;
    }
    Ok(())
}

/// Verify every function of a module plus inter-procedural call signatures.
///
/// Callees are resolved through one name index, built at the first call
/// (a module without calls allocates nothing), so verification is linear in
/// the module's size.
///
/// # Errors
///
/// Returns the first error found; see [`verify_function`] for intra-procedural
/// checks. Additionally reports unknown callees and arity mismatches.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut callees: Option<HashMap<&str, &Function>> = None;
    for f in m.functions() {
        verify_function(f)?;
        for (block, inst) in f.iter_insts() {
            if let Inst::Call { dst, site } = inst {
                let callees = callees.get_or_insert_with(|| {
                    let mut index = HashMap::with_capacity(m.functions().len());
                    for g in m.functions() {
                        // First definition wins, as in `Module::function`.
                        index.entry(g.name.as_str()).or_insert(g);
                    }
                    index
                });
                check_call(f, block, *dst, site, callees)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, Immediate};

    fn valid_add() -> Function {
        let mut b = FunctionBuilder::new(
            "add",
            &[Type::Scalar(ScalarType::I32), Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, ScalarType::I32, x, y);
        b.ret(Some(s));
        b.finish()
    }

    #[test]
    fn valid_function_passes() {
        assert_eq!(verify_function(&valid_add()), Ok(()));
    }

    #[test]
    fn missing_terminator_is_reported() {
        let mut f = valid_add();
        let entry = f.entry;
        f.block_mut(entry).insts.pop();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::MissingTerminator { .. })
        ));
    }

    #[test]
    fn early_terminator_is_reported() {
        let mut f = valid_add();
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .insert(0, Inst::Ret { value: None });
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::EarlyTerminator { .. })
        ));
    }

    #[test]
    fn bad_register_is_reported() {
        let mut f = valid_add();
        let entry = f.entry;
        f.block_mut(entry).insts.insert(
            0,
            Inst::Move {
                dst: VReg(90),
                ty: ScalarType::I32,
                src: VReg(0),
            },
        );
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::BadRegister { reg: VReg(90), .. })
        ));
    }

    #[test]
    fn bad_block_target_is_reported() {
        let mut f = valid_add();
        let entry = f.entry;
        let last = f.block_mut(entry).insts.len() - 1;
        f.block_mut(entry).insts[last] = Inst::Jump { target: BlockId(7) };
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::BadBlockTarget {
                target: BlockId(7),
                ..
            })
        ));
    }

    #[test]
    fn type_mismatch_is_reported() {
        let mut f = valid_add();
        let entry = f.entry;
        // Make the add operate on f32 while its operands are i32 registers.
        if let Inst::Bin { ty, .. } = &mut f.block_mut(entry).insts[0] {
            *ty = ScalarType::F32;
        }
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn int_only_op_on_float_is_reported() {
        let mut b = FunctionBuilder::new("f", &[Type::Scalar(ScalarType::F32)], None);
        let x = b.param(0);
        let y = b.bin(BinOp::Xor, ScalarType::F32, x, x);
        let _ = y;
        b.ret(None);
        assert!(matches!(
            verify_function(&b.finish()),
            Err(VerifyError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn return_mismatch_is_reported() {
        let mut b = FunctionBuilder::new("f", &[], Some(Type::Scalar(ScalarType::I32)));
        b.ret(None);
        assert!(matches!(
            verify_function(&b.finish()),
            Err(VerifyError::ReturnMismatch { .. })
        ));
    }

    #[test]
    fn module_checks_callee_and_arity() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("caller", &[], None);
        let x = b.const_int(ScalarType::I32, 1);
        b.call("callee", &[x], None);
        b.ret(None);
        m.add_function(b.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::UnknownCallee { .. })
        ));

        // Add a callee with the wrong arity.
        let mut c = FunctionBuilder::new("callee", &[], None);
        c.ret(None);
        m.add_function(c.finish());
        assert!(matches!(
            verify_module(&m),
            Err(VerifyError::BadArity { .. })
        ));
    }

    /// `twice(i32) -> i32` and a `main` whose body `call` builds.
    fn calling_twice(call: impl FnOnce(&mut FunctionBuilder)) -> Module {
        let mut m = Module::new("m");
        let i32 = Type::Scalar(ScalarType::I32);
        let mut b = FunctionBuilder::new("twice", &[i32], Some(i32));
        let x = b.param(0);
        let y = b.bin(BinOp::Add, ScalarType::I32, x, x);
        b.ret(Some(y));
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", &[], None);
        call(&mut b);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn a_call_argument_of_another_type_than_the_parameter_is_refused() {
        // Unchecked, the compiled module ran to a result while the
        // reference interpreter panicked on it.
        let m = calling_twice(|b| {
            let x = b.const_float(ScalarType::F32, 1.5);
            b.call("twice", &[x], Some(Type::Scalar(ScalarType::I32)));
        });
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::TypeMismatch { .. }), "{e:?}");
        assert!(e.to_string().contains("call argument"), "{e}");
    }

    #[test]
    fn a_call_result_of_another_type_than_the_return_type_is_refused() {
        let m = calling_twice(|b| {
            let x = b.const_int(ScalarType::I32, 1);
            b.call("twice", &[x], Some(Type::Scalar(ScalarType::F64)));
        });
        let e = verify_module(&m).unwrap_err();
        assert!(matches!(e, VerifyError::TypeMismatch { .. }), "{e:?}");
        assert!(e.to_string().contains("call result"), "{e}");
        // The same call taking an `i32` verifies.
        let m = calling_twice(|b| {
            let x = b.const_int(ScalarType::I32, 1);
            b.call("twice", &[x], Some(Type::Scalar(ScalarType::I32)));
        });
        assert_eq!(verify_module(&m), Ok(()));
    }

    #[test]
    fn a_taken_result_of_a_void_callee_names_the_block_of_the_call() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("nothing", &[], None);
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", &[], None);
        let later = b.new_block();
        b.jump(later);
        b.switch_to(later);
        b.call("nothing", &[], Some(Type::Scalar(ScalarType::I32)));
        b.ret(None);
        m.add_function(b.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(
            matches!(e, VerifyError::TypeMismatch { block, .. } if block == later),
            "{e:?}"
        );
        assert!(e.to_string().contains("void function nothing"), "{e}");
    }

    #[test]
    fn error_messages_are_nonempty() {
        let e = VerifyError::MissingTerminator {
            function: "f".into(),
            block: BlockId(0),
        };
        assert!(!e.to_string().is_empty());
        let e = VerifyError::BadArity {
            function: "f".into(),
            callee: "g".into(),
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains("expected 2"));
        let _ = Immediate::Int(0); // keep the import used in this test module
    }
}
