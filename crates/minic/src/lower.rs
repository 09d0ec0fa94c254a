//! Type checking and lowering of mini-C to the virtual bytecode.
//!
//! This is the first half of the paper's offline step: turn portable source
//! code into portable bytecode. The expensive analyses (vectorization, split
//! register allocation) live in the `splitc-opt` crate and run on the bytecode
//! produced here.

use crate::ast::{BinaryOp, BlockStmt, Expr, FuncDecl, LValue, MiniType, Program, Stmt, UnaryOp};
use crate::error::CompileError;
use crate::parser::parse;
use splitc_vbc::{
    verify_module, BinOp, CmpOp, FunctionBuilder, Module, ScalarType, Type, UnOp, VReg,
};

/// Compile a parsed program into a bytecode module named `module_name`.
///
/// # Errors
///
/// Returns a [`CompileError`] on any type error (mismatched operand types,
/// unknown variables or functions, bad argument counts, missing returns).
pub fn compile_program(program: &Program<'_>, module_name: &str) -> Result<Module, CompileError> {
    let mut module = Module::new(module_name);
    let mut symbols = Symbols::default();
    for f in &program.functions {
        module.add_function(lower_function(f, &program.functions, &mut symbols)?);
    }
    Ok(module)
}

/// Parse, type-check, lower and verify mini-C source into a bytecode module.
///
/// # Errors
///
/// Returns a [`CompileError`] from any front-end stage; an internal lowering
/// bug that produces unverifiable bytecode is also reported as an error.
///
/// # Examples
///
/// ```
/// use splitc_minic::compile_source;
///
/// let module = compile_source(
///     "fn twice(x: i32) -> i32 { return x * 2; }",
///     "demo",
/// ).unwrap();
/// assert!(module.function("twice").is_some());
/// ```
pub fn compile_source(source: &str, module_name: &str) -> Result<Module, CompileError> {
    let program = parse(source)?;
    let module = compile_program(&program, module_name)?;
    verify_module(&module).map_err(|e| {
        CompileError::lower(format!(
            "internal error: generated bytecode is invalid: {e}"
        ))
    })?;
    Ok(module)
}

struct VarInfo {
    reg: VReg,
    ty: MiniType,
}

/// The variables in scope while one function is lowered: one table per
/// function, reused for the next. A declaration is pushed on `vars` and a
/// name is looked up from the innermost declaration outwards, comparing
/// names borrowed from the syntax tree; closing a scope truncates `vars` to
/// where the scope began.
#[derive(Default)]
struct Symbols<'a> {
    vars: Vec<(&'a str, VarInfo)>,
    /// Where each open scope's declarations begin in `vars`.
    scopes: Vec<usize>,
}

struct Lowering<'p, 'a> {
    b: FunctionBuilder,
    /// Every function of the program, for the signatures of calls.
    functions: &'p [FuncDecl<'a>],
    symbols: &'p mut Symbols<'a>,
    ret: Option<MiniType>,
    func_name: &'a str,
}

fn lower_function<'a>(
    decl: &FuncDecl<'a>,
    functions: &[FuncDecl<'a>],
    symbols: &mut Symbols<'a>,
) -> Result<splitc_vbc::Function, CompileError> {
    let param_types: Vec<Type> = decl.params.iter().map(|p| p.ty.to_vbc()).collect();
    let ret_ty = decl.ret.map(MiniType::to_vbc);
    let b = FunctionBuilder::new(decl.name, &param_types, ret_ty);
    symbols.vars.clear();
    symbols.scopes.clear();
    let mut lowering = Lowering {
        b,
        functions,
        symbols,
        ret: decl.ret,
        func_name: decl.name,
    };
    lowering.open_scope();
    for (i, p) in decl.params.iter().enumerate() {
        let reg = lowering.b.param(i);
        lowering.declare(p.name, VarInfo { reg, ty: p.ty })?;
    }
    lowering.lower_block(&decl.body)?;
    lowering.terminate_open_blocks();
    Ok(lowering.b.finish())
}

impl<'a> Lowering<'_, 'a> {
    fn err(&self, msg: impl std::fmt::Display) -> CompileError {
        CompileError::lower(format!("in function `{}`: {msg}", self.func_name))
    }

    fn open_scope(&mut self) {
        self.symbols.scopes.push(self.symbols.vars.len());
    }

    fn close_scope(&mut self) {
        let start = self.symbols.scopes.pop().expect("a scope is open");
        self.symbols.vars.truncate(start);
    }

    fn declare(&mut self, name: &'a str, info: VarInfo) -> Result<(), CompileError> {
        let start = *self.symbols.scopes.last().expect("at least one scope");
        if self.symbols.vars[start..].iter().any(|(n, _)| *n == name) {
            return Err(CompileError::lower(format!(
                "in function `{}`: variable `{name}` is declared twice in the same scope",
                self.func_name
            )));
        }
        self.symbols.vars.push((name, info));
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<(VReg, MiniType), CompileError> {
        match self.symbols.vars.iter().rev().find(|(n, _)| *n == name) {
            Some((_, v)) => Ok((v.reg, v.ty)),
            None => Err(self.err(format!("unknown variable `{name}`"))),
        }
    }

    fn lower_block(&mut self, block: &BlockStmt<'a>) -> Result<(), CompileError> {
        self.open_scope();
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        self.close_scope();
        Ok(())
    }

    fn current_has_terminator(&self) -> bool {
        self.b
            .func()
            .block(self.b.current_block())
            .terminator()
            .is_some()
    }

    fn terminate_open_blocks(&mut self) {
        // Any block left without a terminator (fall-through at the end of the
        // function, or join blocks that turned out to be unreachable) gets a
        // default return so that the module verifies.
        let open: Vec<_> = self
            .b
            .func()
            .blocks
            .iter()
            .filter(|blk| blk.terminator().is_none())
            .map(|blk| blk.id)
            .collect();
        for id in open {
            self.b.switch_to(id);
            match self.ret {
                None => self.b.ret(None),
                Some(ty) => {
                    let elem = ty.elem();
                    let zero = if elem.is_float() {
                        self.b.const_float(elem, 0.0)
                    } else {
                        self.b.const_int(elem, 0)
                    };
                    self.b.ret(Some(zero));
                }
            }
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt<'a>) -> Result<(), CompileError> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                let (value, vty) = self.lower_expr(init, Some(*ty))?;
                if vty != *ty {
                    return Err(self.err(format!(
                        "cannot initialize `{name}: {ty}` with a value of type {vty}; add an explicit `as` cast"
                    )));
                }
                let reg = self.b.new_vreg(ty.to_vbc());
                self.emit_move(*ty, reg, value);
                self.declare(name, VarInfo { reg, ty: *ty })?;
                Ok(())
            }
            Stmt::Assign { target, value } => self.lower_assign(target, value),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => self.lower_if(cond, then_blk, else_blk.as_ref()),
            Stmt::While { cond, body } => self.lower_loop(cond, None, body),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.open_scope();
                self.lower_stmt(init)?;
                self.lower_loop(cond, Some(step), body)?;
                self.close_scope();
                Ok(())
            }
            Stmt::Return { value } => {
                match (value, self.ret) {
                    (Some(e), Some(ty)) => {
                        let (v, vty) = self.lower_expr(e, Some(ty))?;
                        if vty != ty {
                            return Err(self
                                .err(format!("return type mismatch: expected {ty}, found {vty}")));
                        }
                        self.b.ret(Some(v));
                    }
                    (None, None) => self.b.ret(None),
                    (Some(_), None) => {
                        return Err(self.err("void function cannot return a value"));
                    }
                    (None, Some(ty)) => {
                        return Err(self.err(format!("function must return a value of type {ty}")));
                    }
                }
                // Code after a return in the same block would be unreachable;
                // start a fresh block so that later statements still lower.
                let next = self.b.new_block();
                self.b.switch_to(next);
                Ok(())
            }
            Stmt::Expr { expr } => self.lower_expr(expr, None).map(|_| ()),
        }
    }

    fn emit_move(&mut self, ty: MiniType, dst: VReg, src: VReg) {
        let sty = match ty {
            MiniType::Scalar(s) => s,
            MiniType::Ptr(_) => ScalarType::Ptr,
        };
        self.b.push(splitc_vbc::Inst::Move { dst, ty: sty, src });
    }

    fn lower_assign(&mut self, target: &LValue<'a>, value: &Expr<'a>) -> Result<(), CompileError> {
        match target {
            LValue::Var(name) => {
                let (reg, ty) = self.lookup(name)?;
                let (v, vty) = self.lower_expr(value, Some(ty))?;
                if vty != ty {
                    return Err(self.err(format!(
                        "cannot assign a value of type {vty} to `{name}: {ty}`"
                    )));
                }
                self.emit_move(ty, reg, v);
                Ok(())
            }
            LValue::Index { ptr, index } => {
                let (_, pty) = self.lookup(ptr)?;
                let MiniType::Ptr(elem) = pty else {
                    return Err(self.err(format!("`{ptr}` is not a pointer and cannot be indexed")));
                };
                let (v, vty) = self.lower_expr(value, Some(MiniType::Scalar(elem)))?;
                if vty != MiniType::Scalar(elem) {
                    return Err(self.err(format!(
                        "cannot store a value of type {vty} into an array of {elem}"
                    )));
                }
                let addr = self.lower_address(ptr, index)?;
                self.b.store(elem, addr, 0, v);
                Ok(())
            }
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr<'a>,
        then_blk: &BlockStmt<'a>,
        else_blk: Option<&BlockStmt<'a>>,
    ) -> Result<(), CompileError> {
        let c = self.lower_condition(cond)?;
        let then_bb = self.b.new_block();
        let join_bb = self.b.new_block();
        let else_bb = if else_blk.is_some() {
            self.b.new_block()
        } else {
            join_bb
        };
        self.b.branch(c, then_bb, else_bb);

        self.b.switch_to(then_bb);
        self.lower_block(then_blk)?;
        if !self.current_has_terminator() {
            self.b.jump(join_bb);
        }

        if let Some(else_blk) = else_blk {
            self.b.switch_to(else_bb);
            self.lower_block(else_blk)?;
            if !self.current_has_terminator() {
                self.b.jump(join_bb);
            }
        }

        self.b.switch_to(join_bb);
        Ok(())
    }

    fn lower_loop(
        &mut self,
        cond: &Expr<'a>,
        step: Option<&Stmt<'a>>,
        body: &BlockStmt<'a>,
    ) -> Result<(), CompileError> {
        let header = self.b.new_block();
        let body_bb = self.b.new_block();
        let exit = self.b.new_block();
        self.b.jump(header);

        self.b.switch_to(header);
        let c = self.lower_condition(cond)?;
        self.b.branch(c, body_bb, exit);

        self.b.switch_to(body_bb);
        self.lower_block(body)?;
        if let Some(step) = step {
            self.lower_stmt(step)?;
        }
        if !self.current_has_terminator() {
            self.b.jump(header);
        }

        self.b.switch_to(exit);
        Ok(())
    }

    /// Lower a boolean context expression to an `i32` truth value.
    fn lower_condition(&mut self, cond: &Expr<'a>) -> Result<VReg, CompileError> {
        let (v, ty) = self.lower_expr(cond, Some(MiniType::Scalar(ScalarType::I32)))?;
        let MiniType::Scalar(s) = ty else {
            return Err(self.err("pointers cannot be used as conditions"));
        };
        if s == ScalarType::I32 {
            Ok(v)
        } else if s.is_int() {
            let zero = self.b.const_int(s, 0);
            Ok(self.b.cmp(CmpOp::Ne, s, v, zero))
        } else {
            let zero = self.b.const_float(s, 0.0);
            Ok(self.b.cmp(CmpOp::Ne, s, v, zero))
        }
    }

    /// Compute the byte address of `ptr[index]`.
    fn lower_address(&mut self, ptr: &str, index: &Expr<'a>) -> Result<VReg, CompileError> {
        let (preg, pty) = self.lookup(ptr)?;
        let MiniType::Ptr(elem) = pty else {
            return Err(self.err(format!("`{ptr}` is not a pointer and cannot be indexed")));
        };
        let (idx, ity) = self.lower_expr(index, Some(MiniType::Scalar(ScalarType::I64)))?;
        let MiniType::Scalar(is) = ity else {
            return Err(self.err("array index must be an integer"));
        };
        if !is.is_int() {
            return Err(self.err("array index must be an integer"));
        }
        let idx64 = if is == ScalarType::I64 {
            idx
        } else {
            self.b.cast(is, ScalarType::I64, idx)
        };
        let size = self.b.const_int(ScalarType::I64, elem.size_bytes() as i64);
        let scaled = self.b.bin(BinOp::Mul, ScalarType::I64, idx64, size);
        let scaled_ptr = self.b.cast(ScalarType::I64, ScalarType::Ptr, scaled);
        Ok(self.b.bin(BinOp::Add, ScalarType::Ptr, preg, scaled_ptr))
    }

    fn lower_expr(
        &mut self,
        expr: &Expr<'a>,
        hint: Option<MiniType>,
    ) -> Result<(VReg, MiniType), CompileError> {
        match expr {
            Expr::IntLit(v) => {
                let ty = match hint {
                    Some(MiniType::Scalar(s)) if s.is_int() => s,
                    Some(MiniType::Scalar(s)) if s.is_float() => {
                        return Ok((self.b.const_float(s, *v as f64), MiniType::Scalar(s)));
                    }
                    _ => ScalarType::I32,
                };
                Ok((self.b.const_int(ty, *v), MiniType::Scalar(ty)))
            }
            Expr::FloatLit(v) => {
                let ty = match hint {
                    Some(MiniType::Scalar(s)) if s.is_float() => s,
                    _ => ScalarType::F32,
                };
                Ok((self.b.const_float(ty, *v), MiniType::Scalar(ty)))
            }
            Expr::Var(name) => {
                let (reg, ty) = self.lookup(name)?;
                Ok((reg, ty))
            }
            Expr::Unary { op, expr } => self.lower_unary(*op, expr, hint),
            Expr::Binary { op, lhs, rhs } => self.lower_binary(*op, lhs, rhs, hint),
            Expr::Cast { expr, ty } => {
                let (v, vty) = self.lower_expr(expr, None)?;
                let MiniType::Scalar(to) = *ty else {
                    return Err(self.err("cannot cast to a pointer type"));
                };
                let MiniType::Scalar(from) = vty else {
                    return Err(self.err("cannot cast a pointer"));
                };
                Ok((self.b.cast(from, to, v), MiniType::Scalar(to)))
            }
            Expr::Call { name, args } => self.lower_call(name, args),
            Expr::Index { ptr, index } => {
                let (_, pty) = self.lookup(ptr)?;
                let MiniType::Ptr(elem) = pty else {
                    return Err(self.err(format!("`{ptr}` is not a pointer and cannot be indexed")));
                };
                let addr = self.lower_address(ptr, index)?;
                Ok((self.b.load(elem, addr, 0), MiniType::Scalar(elem)))
            }
        }
    }

    fn lower_unary(
        &mut self,
        op: UnaryOp,
        expr: &Expr<'a>,
        hint: Option<MiniType>,
    ) -> Result<(VReg, MiniType), CompileError> {
        let (v, ty) = self.lower_expr(expr, hint)?;
        let MiniType::Scalar(s) = ty else {
            return Err(self.err("unary operators cannot be applied to pointers"));
        };
        match op {
            UnaryOp::Neg => Ok((self.b.un(UnOp::Neg, s, v), ty)),
            UnaryOp::BitNot => {
                if !s.is_int() {
                    return Err(self.err("`~` requires an integer operand"));
                }
                Ok((self.b.un(UnOp::Not, s, v), ty))
            }
            UnaryOp::LogNot => {
                let zero = if s.is_float() {
                    self.b.const_float(s, 0.0)
                } else {
                    self.b.const_int(s, 0)
                };
                let r = self.b.cmp(CmpOp::Eq, s, v, zero);
                Ok((r, MiniType::Scalar(ScalarType::I32)))
            }
        }
    }

    fn lower_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr<'a>,
        rhs: &Expr<'a>,
        hint: Option<MiniType>,
    ) -> Result<(VReg, MiniType), CompileError> {
        if op.is_logical() {
            // Evaluate both sides to `i32` truth values; combine bitwise.
            // (No short-circuit: mini-C expressions are side-effect free apart
            // from calls, and this keeps the CFG simple for the vectorizer.)
            let l = self.lower_condition(lhs)?;
            let r = self.lower_condition(rhs)?;
            let bop = if op == BinaryOp::LogAnd {
                BinOp::And
            } else {
                BinOp::Or
            };
            let combined = self.b.bin(bop, ScalarType::I32, l, r);
            return Ok((combined, MiniType::Scalar(ScalarType::I32)));
        }

        // For comparisons the hint does not constrain the operands.
        let operand_hint = if op.is_comparison() { None } else { hint };
        let (lv, lty) = self.lower_expr(lhs, operand_hint)?;
        let (rv, rty) = self.lower_expr(rhs, Some(lty))?;
        if lty != rty {
            // One more chance: if the left side was a literal lowered without
            // context, retry it with the right side's type.
            if matches!(lhs, Expr::IntLit(_) | Expr::FloatLit(_)) {
                let (lv2, lty2) = self.lower_expr(lhs, Some(rty))?;
                return self.finish_binary(op, lv2, rv, lty2, rty);
            }
            return Err(self.err(format!(
                "operand type mismatch for `{op:?}`: {lty} vs {rty}; add an explicit `as` cast"
            )));
        }
        self.finish_binary(op, lv, rv, lty, rty)
    }

    fn finish_binary(
        &mut self,
        op: BinaryOp,
        lv: VReg,
        rv: VReg,
        lty: MiniType,
        rty: MiniType,
    ) -> Result<(VReg, MiniType), CompileError> {
        if lty != rty {
            return Err(self.err(format!(
                "operand type mismatch for `{op:?}`: {lty} vs {rty}"
            )));
        }
        let MiniType::Scalar(s) = lty else {
            return Err(self.err("arithmetic on pointers is not supported; index them instead"));
        };
        if op.is_comparison() {
            let c = match op {
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::Le => CmpOp::Le,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::Ge => CmpOp::Ge,
                BinaryOp::Eq => CmpOp::Eq,
                BinaryOp::Ne => CmpOp::Ne,
                _ => unreachable!("comparison operators handled above"),
            };
            return Ok((self.b.cmp(c, s, lv, rv), MiniType::Scalar(ScalarType::I32)));
        }
        let b = match op {
            BinaryOp::Add => BinOp::Add,
            BinaryOp::Sub => BinOp::Sub,
            BinaryOp::Mul => BinOp::Mul,
            BinaryOp::Div => BinOp::Div,
            BinaryOp::Rem => BinOp::Rem,
            BinaryOp::BitAnd => BinOp::And,
            BinaryOp::BitOr => BinOp::Or,
            BinaryOp::BitXor => BinOp::Xor,
            BinaryOp::Shl => BinOp::Shl,
            BinaryOp::Shr => BinOp::Shr,
            _ => unreachable!("logical and comparison operators handled above"),
        };
        if b.int_only() && !s.is_int() {
            return Err(self.err(format!("operator `{op:?}` requires integer operands")));
        }
        Ok((self.b.bin(b, s, lv, rv), lty))
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr<'a>],
    ) -> Result<(VReg, MiniType), CompileError> {
        // Intrinsics: element-wise min/max, which keep loop bodies branch-free
        // so that the offline vectorizer can handle reduction kernels.
        if name == "min" || name == "max" {
            if args.len() != 2 {
                return Err(self.err(format!("`{name}` takes exactly two arguments")));
            }
            let (a, aty) = self.lower_expr(&args[0], None)?;
            let (bv, bty) = self.lower_expr(&args[1], Some(aty))?;
            if aty != bty {
                return Err(self.err(format!(
                    "`{name}` operands have different types: {aty} vs {bty}"
                )));
            }
            let MiniType::Scalar(s) = aty else {
                return Err(self.err(format!("`{name}` cannot be applied to pointers")));
            };
            let op = if name == "min" {
                BinOp::Min
            } else {
                BinOp::Max
            };
            return Ok((self.b.bin(op, s, a, bv), aty));
        }

        // Of two functions with one name, a call sees the later.
        let functions = self.functions;
        let callee = functions
            .iter()
            .rev()
            .find(|f| f.name == name)
            .ok_or_else(|| self.err(format!("call to unknown function `{name}`")))?;
        if callee.params.len() != args.len() {
            return Err(self.err(format!(
                "`{name}` expects {} arguments, {} supplied",
                callee.params.len(),
                args.len()
            )));
        }
        let mut arg_regs = Vec::with_capacity(args.len());
        for (arg, pty) in args.iter().zip(callee.params.iter().map(|p| &p.ty)) {
            let (v, vty) = self.lower_expr(arg, Some(*pty))?;
            if vty != *pty {
                return Err(self.err(format!(
                    "argument type mismatch in call to `{name}`: expected {pty}, found {vty}"
                )));
            }
            arg_regs.push(v);
        }
        match callee.ret {
            Some(rty) => {
                let dst = self
                    .b
                    .call(name, &arg_regs, Some(rty.to_vbc()))
                    .expect("call with return type produces a register");
                Ok((dst, rty))
            }
            None => {
                self.b.call(name, &arg_regs, None);
                // A void call used as an expression gets a dummy i32 zero; the
                // statement lowering discards it.
                let dummy = self.b.const_int(ScalarType::I32, 0);
                Ok((dummy, MiniType::Scalar(ScalarType::I32)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{Interpreter, Memory, Value};

    fn run(src: &str, func: &str, args: &[Value], mem: &mut Memory) -> Option<Value> {
        let module = compile_source(src, "test").expect("compiles");
        let mut interp = Interpreter::new(&module);
        interp.run(func, args, mem).expect("runs")
    }

    #[test]
    fn arithmetic_function_computes_correctly() {
        let mut mem = Memory::new(64);
        let out = run(
            "fn poly(x: i32) -> i32 { return 3 * x * x + 2 * x + 1; }",
            "poly",
            &[Value::Int(5)],
            &mut mem,
        );
        assert_eq!(out, Some(Value::Int(86)));
    }

    #[test]
    fn saxpy_source_runs_end_to_end() {
        let src = r#"
            fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    y[i] = a * x[i] + y[i];
                }
            }
        "#;
        let mut mem = Memory::new(1 << 12);
        let x = mem.alloc(4 * 8);
        let y = mem.alloc(4 * 8);
        mem.write_f32s(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        mem.write_f32s(y, &[8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        run(
            src,
            "saxpy",
            &[
                Value::Int(8),
                Value::Float(2.0),
                Value::Int(x as i64),
                Value::Int(y as i64),
            ],
            &mut mem,
        );
        assert_eq!(
            mem.read_f32s(y, 8),
            vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        );
    }

    #[test]
    fn max_intrinsic_and_u8_loads() {
        let src = r#"
            fn max_u8(n: i32, x: *u8) -> u8 {
                let m: u8 = 0;
                for (let i: i32 = 0; i < n; i = i + 1) {
                    m = max(m, x[i]);
                }
                return m;
            }
        "#;
        let mut mem = Memory::new(1 << 10);
        let x = mem.alloc(16);
        mem.write_u8s(x, &[3, 200, 7, 77, 199, 0, 42, 1]);
        let out = run(
            src,
            "max_u8",
            &[Value::Int(8), Value::Int(x as i64)],
            &mut mem,
        );
        assert_eq!(out, Some(Value::Int(200)));
    }

    #[test]
    fn if_else_and_calls_between_functions() {
        let src = r#"
            fn abs_diff(a: i32, b: i32) -> i32 {
                if (a > b) { return a - b; } else { return b - a; }
            }
            fn total(a: i32, b: i32, c: i32) -> i32 {
                return abs_diff(a, b) + abs_diff(b, c);
            }
        "#;
        let mut mem = Memory::new(64);
        let out = run(
            src,
            "total",
            &[Value::Int(1), Value::Int(9), Value::Int(4)],
            &mut mem,
        );
        assert_eq!(out, Some(Value::Int(13)));
    }

    #[test]
    fn while_loop_and_casts() {
        let src = r#"
            fn mean(n: i32, x: *u16) -> f32 {
                let s: f32 = 0.0;
                let i: i32 = 0;
                while (i < n) {
                    s = s + (x[i] as f32);
                    i = i + 1;
                }
                return s / (n as f32);
            }
        "#;
        let mut mem = Memory::new(1 << 10);
        let x = mem.alloc(8);
        mem.write_u16s(x, &[10, 20, 30, 40]);
        let out = run(
            src,
            "mean",
            &[Value::Int(4), Value::Int(x as i64)],
            &mut mem,
        );
        assert_eq!(out, Some(Value::Float(25.0)));
    }

    #[test]
    fn logical_operators_lower_to_truth_values() {
        let src = r#"
            fn in_range(x: i32, lo: i32, hi: i32) -> i32 {
                return (x >= lo) && (x <= hi) || (x == 0 - 1);
            }
        "#;
        let mut mem = Memory::new(64);
        assert_eq!(
            run(
                src,
                "in_range",
                &[Value::Int(5), Value::Int(1), Value::Int(9)],
                &mut mem
            ),
            Some(Value::Int(1))
        );
        assert_eq!(
            run(
                src,
                "in_range",
                &[Value::Int(50), Value::Int(1), Value::Int(9)],
                &mut mem
            ),
            Some(Value::Int(0))
        );
        assert_eq!(
            run(
                src,
                "in_range",
                &[Value::Int(-1), Value::Int(1), Value::Int(9)],
                &mut mem
            ),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn type_errors_are_reported() {
        // Mixing f32 and i32 without a cast.
        let err = compile_source("fn f(a: f32, b: i32) -> f32 { return a + b; }", "t").unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");

        // Unknown variable.
        let err = compile_source("fn f() -> i32 { return y; }", "t").unwrap_err();
        assert!(err.to_string().contains("unknown variable"));

        // Unknown function.
        let err = compile_source("fn f() -> i32 { return g(1); }", "t").unwrap_err();
        assert!(err.to_string().contains("unknown function"));

        // Wrong arity.
        let err = compile_source(
            "fn g(a: i32) -> i32 { return a; } fn f() -> i32 { return g(1, 2); }",
            "t",
        )
        .unwrap_err();
        assert!(err.to_string().contains("expects 1 arguments"));

        // Assigning to an undeclared variable.
        let err = compile_source("fn f() { x = 1; }", "t").unwrap_err();
        assert!(err.to_string().contains("unknown variable"));

        // Duplicate declaration in one scope.
        let err = compile_source("fn f() { let x: i32 = 1; let x: i32 = 2; }", "t").unwrap_err();
        assert!(err.to_string().contains("declared twice"));

        // Returning a value from a void function.
        let err = compile_source("fn f() { return 3; }", "t").unwrap_err();
        assert!(err.to_string().contains("void function"));

        // Indexing a non-pointer.
        let err = compile_source("fn f(x: i32) -> i32 { return x[0]; }", "t").unwrap_err();
        assert!(err.to_string().contains("not a pointer"));
    }

    #[test]
    fn pointer_store_with_wrong_element_type_is_rejected() {
        let err = compile_source("fn f(p: *u8, v: f32) { p[0] = v; }", "t").unwrap_err();
        assert!(err.to_string().contains("cannot store"));
    }

    #[test]
    fn missing_return_value_falls_back_to_zero() {
        // A function whose control flow can fall off the end returns zero;
        // this mirrors the forgiving behaviour of the paper's C tool chain
        // (uninitialized return), but deterministically.
        let src = "fn f(x: i32) -> i32 { if (x > 0) { return x; } }";
        let mut mem = Memory::new(64);
        assert_eq!(
            run(src, "f", &[Value::Int(7)], &mut mem),
            Some(Value::Int(7))
        );
        assert_eq!(
            run(src, "f", &[Value::Int(-7)], &mut mem),
            Some(Value::Int(0))
        );
    }

    #[test]
    fn signatures_collects_all_functions() {
        // A call sees every function of the program, declared before or after it.
        let src =
            "fn c() -> f32 { a(1); return b(); } fn a(x: i32) {} fn b() -> f32 { return 0.0; }";
        let p = parse(src).unwrap();
        assert!(compile_program(&p, "check").is_ok());
        let err = compile_source("fn a(x: i32) {} fn c() { a(1.0); }", "t").unwrap_err();
        assert!(err.to_string().contains("argument type mismatch"), "{err}");
    }

    /// Compile `source`, in the test's own thread (2 MiB of stack unless
    /// `RUST_MIN_STACK` says otherwise), and say whether the parser refused
    /// it for nesting too deep.
    fn refused_as_too_deep(source: &str) -> bool {
        match compile_source(source, "deep") {
            Ok(_) => false,
            Err(e) => {
                let text = e.to_string();
                assert!(text.contains("nesting deeper than 128 levels"), "{text}");
                true
            }
        }
    }

    #[test]
    fn deep_nesting_of_parentheses_is_refused() {
        let nested = |n| {
            format!(
                "fn f() -> i32 {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(refused_as_too_deep(&nested(3_000)));
        assert!(!refused_as_too_deep(&nested(120)));
        // Near the limit on both counts, the parser's and the lowering's
        // recursion fit in the thread's stack, in a debug build too.
        let sums = |n| {
            format!(
                "fn f(x: i32) -> i32 {{ return {}x{}; }}",
                "x + (".repeat(n),
                ")".repeat(n)
            )
        };
        assert!(!refused_as_too_deep(&sums(125)));
        assert!(refused_as_too_deep(&sums(130)));
    }

    #[test]
    fn deep_nesting_of_if_blocks_is_refused() {
        // Each level opens an `if` statement and its block.
        let nested = |n| {
            format!(
                "fn f(x: i32) -> i32 {{ {} return x; {} return 0; }}",
                "if (x > 0) { ".repeat(n),
                "} ".repeat(n)
            )
        };
        assert!(refused_as_too_deep(&nested(10_000)));
        assert!(!refused_as_too_deep(&nested(60)));
        let chained = |n| {
            format!(
                "fn f(x: i32) -> i32 {{ {} {{ return 1; }} return 0; }}",
                "if (x > 0) { return 0; } else ".repeat(n)
            )
        };
        assert!(refused_as_too_deep(&chained(10_000)));
        assert!(!refused_as_too_deep(&chained(120)));
    }

    #[test]
    fn deep_nesting_of_unary_minus_is_refused() {
        let nested = |n| format!("fn f(x: i32) -> i32 {{ return {}x; }}", "-".repeat(n));
        assert!(refused_as_too_deep(&nested(100_000)));
        assert!(!refused_as_too_deep(&nested(120)));
        let casts = |n| format!("fn f(x: i32) -> i32 {{ return x{}; }}", " as i32".repeat(n));
        assert!(refused_as_too_deep(&casts(100_000)));
        assert!(!refused_as_too_deep(&casts(120)));
    }

    #[test]
    fn deep_nesting_of_an_operator_chain_is_refused() {
        // A left-deep tree: the parser loops, but lowering and `Drop` recurse.
        let chain = |n| format!("fn f(x: i32) -> i32 {{ return x{}; }}", " + x".repeat(n));
        assert!(refused_as_too_deep(&chain(100_000)));
        assert!(!refused_as_too_deep(&chain(120)));
        let err = compile_source(&chain(100_000), "deep").unwrap_err();
        // The 128th `+`, which would make the tree 129 levels high.
        let col = "fn f(x: i32) -> i32 { return x".len() + 127 * " + x".len() + 2;
        assert_eq!(
            err.to_string(),
            format!("parse error at 1:{col}: nesting deeper than 128 levels")
        );
    }
}
