//! # splitc-vbc — the processor-virtualization layer
//!
//! A target-independent, typed, register-based bytecode with **portable vector
//! builtins** and a **split-compilation annotation** framework, reproducing
//! the virtualization layer of Cohen & Rohou, *"Processor Virtualization and
//! Split Compilation for Heterogeneous Multicore Embedded Systems"* (DAC 2010).
//!
//! The crate provides:
//!
//! * the IR itself: [`Module`], [`Function`], [`Block`], [`Inst`], [`Type`];
//! * [`FunctionBuilder`], a convenience API for emitting code;
//! * [`AnnotationSet`], each function's two typed annotation records
//!   ([`SpillOrder`] for the JIT, [`KernelTraits`] for the core chooser) —
//!   the channel through which the offline compiler talks to the online side;
//! * a [`verify_module`]/[`verify_function`] load-time verifier;
//! * a reference [`Interpreter`] and linear [`Memory`], defining the bytecode
//!   semantics used for differential testing of the JIT;
//! * a compact deployment encoding ([`encode_module`]/[`decode_module`]).
//!
//! # Example
//!
//! Build, verify, encode and execute a tiny function:
//!
//! ```
//! use splitc_vbc::{
//!     decode_module, encode_module, verify_module, BinOp, FunctionBuilder, Interpreter,
//!     Memory, Module, ScalarType, Type, Value,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FunctionBuilder::new(
//!     "axpb",
//!     &[Type::Scalar(ScalarType::F32), Type::Scalar(ScalarType::F32)],
//!     Some(Type::Scalar(ScalarType::F32)),
//! );
//! let a = b.param(0);
//! let x = b.param(1);
//! let two = b.const_float(ScalarType::F32, 2.0);
//! let ax = b.bin(BinOp::Mul, ScalarType::F32, a, x);
//! let r = b.bin(BinOp::Add, ScalarType::F32, ax, two);
//! b.ret(Some(r));
//!
//! let mut module = Module::new("demo");
//! module.add_function(b.finish());
//! verify_module(&module)?;
//!
//! let shipped = encode_module(&module);
//! let received = decode_module(&shipped)?;
//!
//! let mut interp = Interpreter::new(&received);
//! let mut mem = Memory::new(64);
//! let out = interp.run("axpb", &[Value::Float(3.0), Value::Float(4.0)], &mut mem)?;
//! assert_eq!(out, Some(Value::Float(14.0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod annotations;
mod builder;
mod encode;
mod function;
mod inst;
mod interp;
mod module;
mod pretty;
mod types;
mod verify;

pub use annotations::{AnnotationSet, KernelTraits, SpillOrder};
pub use builder::FunctionBuilder;
pub use encode::{
    decode_module, encode_module, encoded_size, DecodeError, Reader, Wire, Writer, MAGIC, VERSION,
};
pub use function::{Block, Function};
pub use inst::{BinOp, BlockId, CmpOp, Immediate, Inst, ReduceOp, UnOp, VReg};
pub use interp::{
    eval_bin, eval_cast, eval_cmp, normalize_int, ExecError, ExecStats, Interpreter, Memory, Value,
    DEFAULT_FUEL, DEFAULT_VECTOR_WIDTH_BYTES,
};
pub use module::Module;
pub use pretty::format_inst;
pub use types::{ScalarType, Type};
pub use verify::{verify_function, verify_module, VerifyError};
