//! Abstract syntax tree of the mini-C kernel language.

use splitc_vbc::ScalarType;
use std::fmt;

/// A mini-C type: a scalar or a pointer to a scalar element type.
///
/// Pointers are one level deep only; that is all the paper's kernels need and
/// it keeps address arithmetic (`p[i]`) unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiniType {
    /// A scalar value type.
    Scalar(ScalarType),
    /// A pointer to elements of the given scalar type.
    Ptr(ScalarType),
}

impl MiniType {
    /// The scalar this type stores or points to.
    pub fn elem(self) -> ScalarType {
        match self {
            MiniType::Scalar(s) | MiniType::Ptr(s) => s,
        }
    }

    /// The bytecode type this mini-C type lowers to.
    pub fn to_vbc(self) -> splitc_vbc::Type {
        match self {
            MiniType::Scalar(s) => splitc_vbc::Type::Scalar(s),
            MiniType::Ptr(_) => splitc_vbc::Type::Scalar(ScalarType::Ptr),
        }
    }
}

impl fmt::Display for MiniType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiniType::Scalar(s) => write!(f, "{s}"),
            MiniType::Ptr(s) => write!(f, "*{s}"),
        }
    }
}

/// Binary operators of the source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinaryOp {
    /// `true` for comparison operators (result type `i32`).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge | BinaryOp::Eq | BinaryOp::Ne
        )
    }

    /// `true` for short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::LogAnd | BinaryOp::LogOr)
    }
}

/// Unary operators of the source language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Logical negation `!` (result `i32`).
    LogNot,
    /// Bitwise complement `~`.
    BitNot,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'a> {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Variable reference.
    Var(&'a str),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr<'a>>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr<'a>>,
        /// Right operand.
        rhs: Box<Expr<'a>>,
    },
    /// Explicit conversion `expr as T`.
    Cast {
        /// Converted expression.
        expr: Box<Expr<'a>>,
        /// Target type.
        ty: MiniType,
    },
    /// Function or intrinsic call.
    Call {
        /// Callee name.
        name: &'a str,
        /// Argument expressions.
        args: Vec<Expr<'a>>,
    },
    /// Pointer indexing `p[i]` (element load when used as a value).
    Index {
        /// Pointer variable name.
        ptr: &'a str,
        /// Element index expression.
        index: Box<Expr<'a>>,
    },
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue<'a> {
    /// A local variable or parameter.
    Var(&'a str),
    /// An element of an array pointed to by a pointer variable.
    Index {
        /// Pointer variable name.
        ptr: &'a str,
        /// Element index expression.
        index: Expr<'a>,
    },
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'a> {
    /// `let name: ty = init;`
    Let {
        /// Variable name.
        name: &'a str,
        /// Declared type.
        ty: MiniType,
        /// Initializer expression.
        init: Expr<'a>,
    },
    /// `target = value;`
    Assign {
        /// Assigned location.
        target: LValue<'a>,
        /// Assigned value.
        value: Expr<'a>,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: Expr<'a>,
        /// Then branch.
        then_blk: BlockStmt<'a>,
        /// Optional else branch.
        else_blk: Option<BlockStmt<'a>>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr<'a>,
        /// Loop body.
        body: BlockStmt<'a>,
    },
    /// `for (init; cond; step) { .. }`
    For {
        /// Initialization statement (a `let` or assignment).
        init: Box<Stmt<'a>>,
        /// Loop condition.
        cond: Expr<'a>,
        /// Step statement (an assignment).
        step: Box<Stmt<'a>>,
        /// Loop body.
        body: BlockStmt<'a>,
    },
    /// `return expr?;`
    Return {
        /// Returned value, if any.
        value: Option<Expr<'a>>,
    },
    /// An expression evaluated for its side effects (e.g. a call).
    Expr {
        /// The expression.
        expr: Expr<'a>,
    },
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockStmt<'a> {
    /// The statements, in order.
    pub stmts: Vec<Stmt<'a>>,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'a> {
    /// Parameter name.
    pub name: &'a str,
    /// Parameter type.
    pub ty: MiniType,
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDecl<'a> {
    /// Function name.
    pub name: &'a str,
    /// Parameters, in order.
    pub params: Vec<Param<'a>>,
    /// Return type, or `None` for a void function.
    pub ret: Option<MiniType>,
    /// Function body.
    pub body: BlockStmt<'a>,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<'a> {
    /// All function declarations.
    pub functions: Vec<FuncDecl<'a>>,
}

impl<'a> Program<'a> {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&FuncDecl<'a>> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_type_properties() {
        let p = MiniType::Ptr(ScalarType::F32);
        assert_eq!(p.elem(), ScalarType::F32);
        assert_eq!(p.to_vbc(), splitc_vbc::Type::Scalar(ScalarType::Ptr));
        assert_eq!(p.to_string(), "*f32");
        let s = MiniType::Scalar(ScalarType::U16);
        assert_eq!(s.to_vbc(), splitc_vbc::Type::Scalar(ScalarType::U16));
        assert_eq!(s.to_string(), "u16");
    }

    #[test]
    fn operator_classification() {
        assert!(BinaryOp::Lt.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert!(BinaryOp::LogAnd.is_logical());
        assert!(!BinaryOp::BitAnd.is_logical());
    }

    #[test]
    fn program_lookup() {
        let p = Program {
            functions: vec![FuncDecl {
                name: "f",
                params: vec![],
                ret: None,
                body: BlockStmt::default(),
            }],
        };
        assert!(p.function("f").is_some());
        assert!(p.function("g").is_none());
    }
}
