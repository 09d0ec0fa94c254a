//! # splitc-minic — the mini-C kernel language front end
//!
//! A small C-like language and its compiler to the `splitc` virtual bytecode.
//! This is the offline compiler's front half in the DAC 2010 split-compilation
//! reproduction: developers write portable kernels once, the front end lowers
//! them to target-independent bytecode, and the `splitc-opt` crate then runs
//! the expensive offline analyses (vectorization, split register allocation)
//! over that bytecode.
//!
//! The language supports exactly what the paper's evaluation kernels need:
//! machine scalar types, one-level pointers with `p[i]` indexing, `let`/
//! assignments, `if`/`while`/`for`, function calls, explicit `as` casts and
//! the `min`/`max` intrinsics (so reduction kernels stay branch-free).
//!
//! # Example
//!
//! ```
//! use splitc_minic::compile_source;
//! use splitc_vbc::{Interpreter, Memory, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = compile_source(
//!     r#"
//!     fn dscal(n: i32, a: f32, x: *f32) {
//!         for (let i: i32 = 0; i < n; i = i + 1) {
//!             x[i] = a * x[i];
//!         }
//!     }
//!     "#,
//!     "kernels",
//! )?;
//!
//! let mut mem = Memory::new(1 << 12);
//! let x = mem.alloc(4 * 4);
//! mem.write_f32s(x, &[1.0, 2.0, 3.0, 4.0]);
//! let mut interp = Interpreter::new(&module);
//! interp.run("dscal", &[Value::Int(4), Value::Float(0.5), Value::Int(x as i64)], &mut mem)?;
//! assert_eq!(mem.read_f32s(x, 4), vec![0.5, 1.0, 1.5, 2.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
mod error;
mod lexer;
mod lower;
mod parser;
mod token;

pub use ast::{
    BinaryOp, BlockStmt, Expr, FuncDecl, LValue, MiniType, Param, Program, Stmt, UnaryOp,
};
pub use error::{CompileError, Stage};
pub use lexer::lex;
pub use lower::{compile_program, compile_source, signatures, FuncSig};
pub use parser::parse;
pub use token::{Span, Token, TokenKind};
