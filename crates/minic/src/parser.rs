//! Recursive-descent parser for the mini-C kernel language.
//!
//! Binary operators are parsed by precedence climbing over one table,
//! [`binary_op`]; every level is left-associative, so the trees are those
//! of a grammar with one rule per level. Tokens are read in place: the
//! parser copies a token's kind (an identifier is a slice of the source)
//! and never clones it.
//!
//! The lowering and the tree's `Drop` recurse through the syntax tree, so
//! the parser refuses a source that nests deeper than [`MAX_NESTING`]:
//! blocks and `if` statements inside each other, parenthesized, indexed or
//! argument expressions, prefix operators, and the height of an expression
//! tree, which a chain of left-associative operators or casts grows one
//! level per operator.

use crate::ast::{
    BinaryOp, BlockStmt, Expr, FuncDecl, LValue, MiniType, Param, Program, Stmt, UnaryOp,
};
use crate::error::CompileError;
use crate::lexer::lex;
use crate::token::{Span, Token, TokenKind};
use splitc_vbc::ScalarType;

/// The deepest nesting a source may reach, counted separately for the
/// parser's recursion (blocks, `if` statements, sub-expressions and prefix
/// operators open around a token) and for the height of each expression
/// tree. The catalogue and the generated test programs reach 8 brackets and
/// expressions 15 high. At this limit a debug build parses and lowers the
/// deepest sources in 1 MiB of stack, half a test thread's.
pub const MAX_NESTING: u32 = 128;

/// Parse a whole mini-C source file into a [`Program`].
///
/// # Errors
///
/// Returns the first lexical or syntactic error found, and an error at the
/// first token that nests deeper than [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use splitc_minic::parse;
/// let program = parse("fn id(x: i32) -> i32 { return x; }").unwrap();
/// assert_eq!(program.functions.len(), 1);
/// assert_eq!(program.functions[0].name, "id");
/// ```
pub fn parse(source: &str) -> Result<Program<'_>, CompileError> {
    let tokens = lex(source)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    }
    .program()
}

fn too_deep(at: Span) -> CompileError {
    CompileError::parse(at, format!("nesting deeper than {MAX_NESTING} levels"))
}

/// The binary operator `kind` spells and its precedence level (higher binds
/// tighter), or `None` for a token that is not a binary operator.
fn binary_op(kind: &TokenKind<'_>) -> Option<(BinaryOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinaryOp::LogOr, 0),
        TokenKind::AndAnd => (BinaryOp::LogAnd, 1),
        TokenKind::Pipe => (BinaryOp::BitOr, 2),
        TokenKind::Caret => (BinaryOp::BitXor, 3),
        TokenKind::Amp => (BinaryOp::BitAnd, 4),
        TokenKind::EqEq => (BinaryOp::Eq, 5),
        TokenKind::NotEq => (BinaryOp::Ne, 5),
        TokenKind::Lt => (BinaryOp::Lt, 6),
        TokenKind::Le => (BinaryOp::Le, 6),
        TokenKind::Gt => (BinaryOp::Gt, 6),
        TokenKind::Ge => (BinaryOp::Ge, 6),
        TokenKind::Shl => (BinaryOp::Shl, 7),
        TokenKind::Shr => (BinaryOp::Shr, 7),
        TokenKind::Plus => (BinaryOp::Add, 8),
        TokenKind::Minus => (BinaryOp::Sub, 8),
        TokenKind::Star => (BinaryOp::Mul, 9),
        TokenKind::Slash => (BinaryOp::Div, 9),
        TokenKind::Percent => (BinaryOp::Rem, 9),
        _ => return None,
    })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Blocks, `if` statements, sub-expressions and prefix operators open
    /// around the current token.
    depth: u32,
    /// Height of the expression parsed last: 1 for a leaf.
    height: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Step past the current token; the end of input is never passed.
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind<'_>) -> Result<(), CompileError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(CompileError::parse(
                self.span(),
                format!("expected {kind}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<&'a str, CompileError> {
        match *self.peek() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(CompileError::parse(
                self.span(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    /// Open one more level of nesting at the token at `at`.
    fn enter(&mut self, at: Span) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(too_deep(at));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Record `height` as the height of the expression whose root is the
    /// token at `at`.
    fn set_height(&mut self, height: u32, at: Span) -> Result<(), CompileError> {
        if height > MAX_NESTING {
            return Err(too_deep(at));
        }
        self.height = height;
        Ok(())
    }

    fn program(&mut self) -> Result<Program<'a>, CompileError> {
        let mut functions = Vec::new();
        while self.peek() != &TokenKind::Eof {
            functions.push(self.func_decl()?);
        }
        Ok(Program { functions })
    }

    fn func_decl(&mut self) -> Result<FuncDecl<'a>, CompileError> {
        self.expect(&TokenKind::KwFn)?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let pname = self.ident()?;
                self.expect(&TokenKind::Colon)?;
                let ty = self.ty()?;
                params.push(Param { name: pname, ty });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let ret = if self.eat(&TokenKind::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
        })
    }

    fn ty(&mut self) -> Result<MiniType, CompileError> {
        let ptr = self.eat(&TokenKind::Star);
        let span = self.span();
        let name = self.ident()?;
        let scalar = ScalarType::from_mnemonic(name)
            .ok_or_else(|| CompileError::parse(span, format!("unknown type `{name}`")))?;
        Ok(if ptr {
            MiniType::Ptr(scalar)
        } else {
            MiniType::Scalar(scalar)
        })
    }

    fn block(&mut self) -> Result<BlockStmt<'a>, CompileError> {
        let at = self.span();
        self.expect(&TokenKind::LBrace)?;
        self.enter(at)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(CompileError::parse(self.span(), "unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.leave();
        self.expect(&TokenKind::RBrace)?;
        Ok(BlockStmt { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        match self.peek() {
            TokenKind::KwLet => {
                let s = self.let_stmt()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn let_stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        self.expect(&TokenKind::KwLet)?;
        let name = self.ident()?;
        self.expect(&TokenKind::Colon)?;
        let ty = self.ty()?;
        self.expect(&TokenKind::Assign)?;
        let init = self.expr()?;
        Ok(Stmt::Let { name, ty, init })
    }

    fn if_stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        let at = self.span();
        self.expect(&TokenKind::KwIf)?;
        // An `else if` chain nests one statement per link.
        self.enter(at)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_blk = self.block()?;
        let else_blk = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                let nested = self.if_stmt()?;
                Some(BlockStmt {
                    stmts: vec![nested],
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        self.leave();
        Ok(Stmt::If {
            cond,
            then_blk,
            else_blk,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        self.expect(&TokenKind::KwFor)?;
        self.expect(&TokenKind::LParen)?;
        let init = if self.peek() == &TokenKind::KwLet {
            self.let_stmt()?
        } else {
            self.simple_stmt()?
        };
        self.expect(&TokenKind::Semi)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        let step = self.simple_stmt()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt::For {
            init: Box::new(init),
            cond,
            step: Box::new(step),
            body,
        })
    }

    /// An assignment or expression statement, without the trailing `;`.
    fn simple_stmt(&mut self) -> Result<Stmt<'a>, CompileError> {
        let span = self.span();
        let expr = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            let target = match expr {
                Expr::Var(name) => LValue::Var(name),
                Expr::Index { ptr, index } => LValue::Index { ptr, index: *index },
                _ => {
                    return Err(CompileError::parse(
                        span,
                        "left-hand side of assignment must be a variable or an indexed pointer",
                    ));
                }
            };
            let value = self.expr()?;
            Ok(Stmt::Assign { target, value })
        } else {
            Ok(Stmt::Expr { expr })
        }
    }

    fn expr(&mut self) -> Result<Expr<'a>, CompileError> {
        self.enter(self.span())?;
        let e = self.binary(0)?;
        self.leave();
        Ok(e)
    }

    /// Precedence climbing: a unary operand, then every binary operator of
    /// level `min` or tighter, each taking as its right operand everything
    /// that binds tighter than itself.
    fn binary(&mut self, min: u8) -> Result<Expr<'a>, CompileError> {
        let mut lhs = self.unary()?;
        let mut height = self.height;
        while let Some((op, level)) = binary_op(self.peek()).filter(|&(_, level)| level >= min) {
            let at = self.span();
            self.bump();
            let rhs = self.binary(level + 1)?;
            self.set_height(height.max(self.height) + 1, at)?;
            height = self.height;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.height = height;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr<'a>, CompileError> {
        let op = match self.peek() {
            TokenKind::Minus => UnaryOp::Neg,
            TokenKind::Bang => UnaryOp::LogNot,
            TokenKind::Tilde => UnaryOp::BitNot,
            _ => return self.postfix(),
        };
        let at = self.span();
        self.bump();
        self.enter(at)?;
        let expr = self.unary()?;
        self.leave();
        self.set_height(self.height + 1, at)?;
        Ok(Expr::Unary {
            op,
            expr: Box::new(expr),
        })
    }

    fn postfix(&mut self) -> Result<Expr<'a>, CompileError> {
        let mut expr = self.primary()?;
        loop {
            let at = self.span();
            if !self.eat(&TokenKind::KwAs) {
                break;
            }
            let ty = self.ty()?;
            self.set_height(self.height + 1, at)?;
            expr = Expr::Cast {
                expr: Box::new(expr),
                ty,
            };
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr<'a>, CompileError> {
        let span = self.span();
        let token = *self.peek();
        self.bump();
        match token {
            TokenKind::Int(v) => {
                self.height = 1;
                Ok(Expr::IntLit(v))
            }
            TokenKind::Float(v) => {
                self.height = 1;
                Ok(Expr::FloatLit(v))
            }
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    let mut height = 0;
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            height = height.max(self.height);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    self.set_height(height + 1, span)?;
                    Ok(Expr::Call { name, args })
                } else if self.eat(&TokenKind::LBracket) {
                    let index = self.expr()?;
                    self.expect(&TokenKind::RBracket)?;
                    self.set_height(self.height + 1, span)?;
                    Ok(Expr::Index {
                        ptr: name,
                        index: Box::new(index),
                    })
                } else {
                    self.height = 1;
                    Ok(Expr::Var(name))
                }
            }
            other => Err(CompileError::parse(
                span,
                format!("expected an expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_saxpy() {
        let src = r#"
            fn saxpy(n: i32, a: f32, x: *f32, y: *f32) {
                for (let i: i32 = 0; i < n; i = i + 1) {
                    y[i] = a * x[i] + y[i];
                }
            }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions.len(), 1);
        let f = &p.functions[0];
        assert_eq!(f.params.len(), 4);
        assert_eq!(f.params[2].ty, MiniType::Ptr(ScalarType::F32));
        assert!(f.ret.is_none());
        assert!(matches!(f.body.stmts[0], Stmt::For { .. }));
    }

    #[test]
    fn parses_if_else_chain_and_calls() {
        let src = r#"
            fn classify(x: i32) -> i32 {
                if (x < 0) { return 0 - 1; }
                else if (x == 0) { return 0; }
                else { return helper(x, 2); }
            }
            fn helper(a: i32, b: i32) -> i32 { return a * b; }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.functions.len(), 2);
        let f = p.function("classify").unwrap();
        assert!(matches!(f.body.stmts[0], Stmt::If { .. }));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("fn f(a: i32, b: i32, c: i32) -> i32 { return a + b * c; }").unwrap();
        let Stmt::Return { value: Some(e) } = &p.functions[0].body.stmts[0] else {
            panic!("expected return");
        };
        let Expr::Binary {
            op: BinaryOp::Add,
            rhs,
            ..
        } = e
        else {
            panic!("expected top-level add, got {e:?}");
        };
        assert!(matches!(
            **rhs,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn precedence_comparison_below_shift_and_cast_postfix() {
        let p = parse("fn f(a: i32) -> i32 { return (a << 1) < 8; }").unwrap();
        let Stmt::Return { value: Some(e) } = &p.functions[0].body.stmts[0] else {
            panic!("expected return");
        };
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::Lt,
                ..
            }
        ));

        let p = parse("fn g(a: i32) -> f32 { return a as f32 * 2.0; }").unwrap();
        let Stmt::Return { value: Some(e) } = &p.functions[0].body.stmts[0] else {
            panic!("expected return");
        };
        let Expr::Binary {
            op: BinaryOp::Mul,
            lhs,
            ..
        } = e
        else {
            panic!("expected mul at top level");
        };
        assert!(matches!(**lhs, Expr::Cast { .. }));
    }

    #[test]
    fn index_assignment_and_while() {
        let src =
            "fn fill(p: *u8, n: i32) { let i: i32 = 0; while (i < n) { p[i] = 7; i = i + 1; } }";
        let p = parse(src).unwrap();
        let f = &p.functions[0];
        assert!(matches!(f.body.stmts[1], Stmt::While { .. }));
    }

    #[test]
    fn unary_operators_nest() {
        let p = parse("fn f(a: i32) -> i32 { return -~!a; }").unwrap();
        let Stmt::Return { value: Some(e) } = &p.functions[0].body.stmts[0] else {
            panic!("expected return");
        };
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn error_messages_carry_positions() {
        let err = parse("fn f( { }").unwrap_err();
        assert!(err.to_string().contains("parse error at 1:"));
        let err = parse("fn f() { let x: nosuch = 1; }").unwrap_err();
        assert!(err.to_string().contains("unknown type"));
        let err = parse("fn f() { 1 + ; }").unwrap_err();
        assert!(err.to_string().contains("expected an expression"));
        let err = parse("fn f() { 1 + 2 = 3; }").unwrap_err();
        assert!(err.to_string().contains("left-hand side"));
    }

    #[test]
    fn unterminated_block_is_an_error() {
        assert!(parse("fn f() { let x: i32 = 1;").is_err());
    }
}
