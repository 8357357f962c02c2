//! Abstract syntax tree for MiniC.

use crate::diag::Span;

/// A parsed translation unit: globals plus functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Global variable declarations, in source order.
    pub globals: Vec<GlobalVar>,
    /// Function definitions, in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// A global `int` scalar or array with optional constant initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalVar {
    /// Variable name.
    pub name: String,
    /// Array length expression; `None` for scalars. Must be constant.
    pub size: Option<Expr>,
    /// Initializer.
    pub init: Init,
    /// Source span of the declaration.
    pub span: Span,
}

/// Initializer of a global or local declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Init {
    /// No initializer; zero-filled.
    None,
    /// Scalar initializer, e.g. `int x = 3 * 4;`.
    Scalar(Expr),
    /// Brace list, e.g. `int t[3] = {1, 2, 3};`.
    List(Vec<Expr>),
}

/// Return type of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 32-bit signed integer with C wrapping semantics.
    Int,
    /// No value.
    Void,
}

/// One function parameter (always `int`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Source span.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters, in order.
    pub params: Vec<Param>,
    /// The body block.
    pub body: Block,
    /// Source span of the whole definition.
    pub span: Span,
}

/// A `{ ... }` statement list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Local declaration: `int x;`, `int x = e;`, `int t[N] = {..};`.
    Local {
        /// Variable name.
        name: String,
        /// Array length expression; `None` for scalars.
        size: Option<Expr>,
        /// Initializer.
        init: Init,
        /// Source span.
        span: Span,
    },
    /// An expression evaluated for its effect (a call).
    Expr(Expr),
    /// Assignment, optionally compound: `x = e`, `a[i] += e`, `x++`.
    Assign {
        /// Assignment target.
        target: LValue,
        /// `Some(op)` for compound assignment (`+=` carries [`BinOp::Add`]).
        op: Option<BinOp>,
        /// Right-hand side (for `x++` this is the literal 1).
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Else branch, if present.
        else_blk: Option<Block>,
        /// Source span of the `if` keyword.
        span: Span,
    },
    /// `switch (scrutinee) { case N: ... default: ... }` with C
    /// fallthrough semantics; `break` leaves the switch.
    Switch {
        /// The switched-on expression (evaluated once).
        scrutinee: Expr,
        /// Cases in source order.
        cases: Vec<SwitchCase>,
        /// Source span of the `switch` keyword.
        span: Span,
    },
    /// `do { .. } while (cond);`.
    DoWhile {
        /// Loop body (always runs at least once).
        body: Block,
        /// Loop condition, evaluated after the body.
        cond: Expr,
        /// Source span of the `do` keyword.
        span: Span,
    },
    /// `while (cond) { .. }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source span of the `while` keyword.
        span: Span,
    },
    /// `for (init; cond; step) { .. }`.
    For {
        /// Optional init statement (declaration or assignment).
        init: Option<Box<Stmt>>,
        /// Optional condition; absent means always true.
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
        /// Source span of the `for` keyword.
        span: Span,
    },
    /// `return;` or `return e;`.
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source span.
        span: Span,
    },
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// A nested block.
    Block(Block),
}

/// One arm of a `switch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchCase {
    /// Constant labels selecting this arm (`case 1: case 2:`); empty for a
    /// pure `default:`.
    pub labels: Vec<Expr>,
    /// Whether the arm also carries `default:`.
    pub is_default: bool,
    /// Statements until the next label (falls through to the next arm).
    pub body: Vec<Stmt>,
    /// Source span of the first label.
    pub span: Span,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A scalar variable.
    Var(String, Span),
    /// An array element `name[index]`.
    Index(String, Box<Expr>, Span),
}

impl LValue {
    /// The variable name being assigned.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(name, _) | LValue::Index(name, _, _) => name,
        }
    }

    /// The source span of the target.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, span) | LValue::Index(_, _, span) => *span,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Scalar variable reference.
    Var(String, Span),
    /// Array element read `name[index]`.
    Index(String, Box<Expr>, Span),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Span),
    /// Binary operation (including short-circuit `&&`/`||`).
    Binary(BinOp, Box<Expr>, Box<Expr>, Span),
    /// Function or intrinsic call.
    Call(String, Vec<Expr>, Span),
    /// C conditional `cond ? then : else` (short-circuit: only the chosen
    /// arm is evaluated).
    Cond(Box<Expr>, Box<Expr>, Box<Expr>, Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Var(_, s)
            | Expr::Index(_, _, s)
            | Expr::Unary(_, _, s)
            | Expr::Binary(_, _, _, s)
            | Expr::Call(_, _, s)
            | Expr::Cond(_, _, _, s) => *s,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e` (produces 0 or 1).
    Not,
    /// Bitwise complement `~e`.
    BitNot,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (C semantics: truncating; division by zero is a checked error)
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>` (arithmetic shift)
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
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

/// Wraps a value to C `int` (32-bit two's-complement) semantics.
pub fn wrap_i32(v: i64) -> i64 {
    i64::from(v as i32)
}

/// Evaluates a constant expression (literals, unary/binary operators over
/// constants). Used for array sizes and global initializers.
///
/// Returns `None` if the expression references variables, makes calls, or
/// divides by zero.
pub fn const_eval(expr: &Expr) -> Option<i64> {
    Some(match expr {
        Expr::Int(v, _) => wrap_i32(*v),
        Expr::Var(..) | Expr::Index(..) | Expr::Call(..) => return None,
        Expr::Unary(op, inner, _) => {
            let v = const_eval(inner)?;
            match op {
                UnOp::Neg => wrap_i32(v.wrapping_neg()),
                UnOp::Not => i64::from(v == 0),
                UnOp::BitNot => wrap_i32(!v),
            }
        }
        Expr::Binary(op, lhs, rhs, _) => {
            let l = const_eval(lhs)?;
            let r = const_eval(rhs)?;
            eval_binop(*op, l, r)?
        }
        Expr::Cond(cond, then, otherwise, _) => {
            if const_eval(cond)? != 0 {
                const_eval(then)?
            } else {
                const_eval(otherwise)?
            }
        }
    })
}

/// Applies a binary operator with C `int` semantics.
///
/// Returns `None` for division/remainder by zero (callers report it as the
/// appropriate error kind).
#[inline]
pub fn eval_binop(op: BinOp, l: i64, r: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => wrap_i32(l.wrapping_add(r)),
        BinOp::Sub => wrap_i32(l.wrapping_sub(r)),
        BinOp::Mul => wrap_i32(l.wrapping_mul(r)),
        BinOp::Div => {
            if r == 0 {
                return None;
            }
            wrap_i32((l as i32).wrapping_div(r as i32).into())
        }
        BinOp::Rem => {
            if r == 0 {
                return None;
            }
            wrap_i32((l as i32).wrapping_rem(r as i32).into())
        }
        BinOp::Shl => wrap_i32((l as i32).wrapping_shl(r as u32).into()),
        BinOp::Shr => wrap_i32((l as i32).wrapping_shr(r as u32).into()),
        BinOp::Lt => i64::from(l < r),
        BinOp::Le => i64::from(l <= r),
        BinOp::Gt => i64::from(l > r),
        BinOp::Ge => i64::from(l >= r),
        BinOp::Eq => i64::from(l == r),
        BinOp::Ne => i64::from(l != r),
        BinOp::BitAnd => wrap_i32(l & r),
        BinOp::BitOr => wrap_i32(l | r),
        BinOp::BitXor => wrap_i32(l ^ r),
        BinOp::LogAnd => i64::from(l != 0 && r != 0),
        BinOp::LogOr => i64::from(l != 0 || r != 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Expr {
        Expr::Int(v, Span::default())
    }

    #[test]
    fn const_eval_folds_arithmetic() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(int(2)),
            Box::new(Expr::Binary(BinOp::Mul, Box::new(int(3)), Box::new(int(4)), Span::default())),
            Span::default(),
        );
        assert_eq!(const_eval(&e), Some(14));
    }

    #[test]
    fn const_eval_rejects_variables() {
        let e = Expr::Var("x".into(), Span::default());
        assert_eq!(const_eval(&e), None);
    }

    #[test]
    fn division_semantics_truncate_toward_zero() {
        assert_eq!(eval_binop(BinOp::Div, -7, 2), Some(-3));
        assert_eq!(eval_binop(BinOp::Rem, -7, 2), Some(-1));
        assert_eq!(eval_binop(BinOp::Div, 1, 0), None);
    }

    #[test]
    fn int_wrapping_is_32_bit() {
        assert_eq!(eval_binop(BinOp::Add, i64::from(i32::MAX), 1), Some(i64::from(i32::MIN)));
        assert_eq!(eval_binop(BinOp::Mul, 0x10000, 0x10000), Some(0));
        assert_eq!(wrap_i32(0x1_0000_0001), 1);
    }

    #[test]
    fn shifts_are_arithmetic_and_masked() {
        assert_eq!(eval_binop(BinOp::Shr, -8, 1), Some(-4));
        assert_eq!(eval_binop(BinOp::Shl, 1, 33), Some(2), "shift count masked mod 32");
    }

    #[test]
    fn logical_ops_produce_bool_ints() {
        assert_eq!(eval_binop(BinOp::LogAnd, 5, 0), Some(0));
        assert_eq!(eval_binop(BinOp::LogOr, 0, 9), Some(1));
        assert_eq!(const_eval(&Expr::Unary(UnOp::Not, Box::new(int(3)), Span::default())), Some(0));
    }
}
