//! Recursive-descent parser for MiniC.

use crate::ast::{BinOp, UnOp};
use crate::ast::{
    Block, Expr, Function, GlobalVar, Init, LValue, Param, Program, Stmt, SwitchCase, Type,
};
use crate::diag::{ParseError, Span};
use crate::token::{Token, TokenKind};

/// Deepest syntax tree the parser builds. Every later pass recurses over
/// the tree, so without a bound a few kilobytes of `((((…` or `1+1+…`
/// would overflow the stack of whatever thread parses them. Counted:
/// statements, expressions, unary operators and binary-operator nodes.
const MAX_NESTING: usize = 128;

/// Parses a token stream (from [`crate::lex`]) into a [`Program`].
///
/// # Errors
///
/// Returns the first syntax error with its source location.
pub fn parse_tokens(source: &str, tokens: &[Token]) -> Result<Program, ParseError> {
    let mut parser = Parser { source, tokens, pos: 0, depth: 0 };
    parser.program()
}

struct Parser<'a> {
    source: &'a str,
    tokens: &'a [Token],
    pos: usize,
    /// Current nesting, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span, ParseError> {
        let span = self.peek_span();
        if self.peek() == kind {
            self.bump();
            Ok(span)
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.peek_span(), self.source)
    }

    /// Goes one level deeper, or fails past [`MAX_NESTING`]. Callers
    /// restore `depth` on success; an error ends the whole parse.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.enter()?;
        let parsed = parse(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            let start = self.peek_span();
            let ret = match self.bump() {
                TokenKind::KwInt => Type::Int,
                TokenKind::KwVoid => Type::Void,
                other => {
                    return Err(ParseError::new(
                        format!("expected `int` or `void` at top level, found {other}"),
                        start,
                        self.source,
                    ))
                }
            };
            let (name, name_span) = self.ident()?;
            if matches!(self.peek(), TokenKind::LParen) {
                functions.push(self.function(ret, name, start)?);
            } else {
                if ret == Type::Void {
                    return Err(ParseError::new(
                        "global variables must have type `int`",
                        name_span,
                        self.source,
                    ));
                }
                globals.push(self.global(name, start)?);
            }
        }
        Ok(Program { globals, functions })
    }

    fn global(&mut self, name: String, start: Span) -> Result<GlobalVar, ParseError> {
        let (size, init) = self.declarator_tail()?;
        let end = self.expect(&TokenKind::Semi)?;
        Ok(GlobalVar { name, size, init, span: start.merge(end) })
    }

    /// Parses the `[size]? (= init)?` tail shared by globals and locals.
    fn declarator_tail(&mut self) -> Result<(Option<Expr>, Init), ParseError> {
        let size = if self.eat(&TokenKind::LBracket) {
            let e = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            Some(e)
        } else {
            None
        };
        let init = if self.eat(&TokenKind::Assign) {
            if self.eat(&TokenKind::LBrace) {
                let mut items = vec![self.expr()?];
                while self.eat(&TokenKind::Comma) {
                    if matches!(self.peek(), TokenKind::RBrace) {
                        break; // trailing comma
                    }
                    items.push(self.expr()?);
                }
                self.expect(&TokenKind::RBrace)?;
                Init::List(items)
            } else {
                Init::Scalar(self.expr()?)
            }
        } else {
            Init::None
        };
        Ok((size, init))
    }

    fn function(&mut self, ret: Type, name: String, start: Span) -> Result<Function, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                self.expect(&TokenKind::KwInt)?;
                let (pname, pspan) = self.ident()?;
                params.push(Param { name: pname, span: pspan });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        let span = start.merge(self.tokens[self.pos.saturating_sub(1)].span);
        Ok(Function { name, ret, params, body, span })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            stmts.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    /// A block, or a single statement wrapped in a block (`if (c) x = 1;`).
    fn block_or_stmt(&mut self) -> Result<Block, ParseError> {
        if matches!(self.peek(), TokenKind::LBrace) {
            self.block()
        } else {
            Ok(Block { stmts: vec![self.stmt()?] })
        }
    }

    /// One statement. Statements nest through blocks, `if`/loop bodies
    /// and `switch` arms, so each counts one nesting level. The compound
    /// forms parse in functions of their own, so a level costs the stack
    /// frame of the form that nests, not of every form.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek_span();
        match self.peek().clone() {
            TokenKind::KwInt => {
                self.bump();
                let (name, _) = self.ident()?;
                let (size, init) = self.declarator_tail()?;
                let end = self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Local { name, size, init, span: start.merge(end) })
            }
            TokenKind::KwIf => self.if_stmt(start),
            TokenKind::KwWhile => self.while_stmt(start),
            TokenKind::KwSwitch => self.switch_stmt(start),
            TokenKind::KwDo => self.do_while_stmt(start),
            TokenKind::KwFor => self.for_stmt(start),
            TokenKind::KwReturn => {
                self.bump();
                let value =
                    if matches!(self.peek(), TokenKind::Semi) { None } else { Some(self.expr()?) };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value, span: start })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break(start))
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue(start))
            }
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            _ => {
                let stmt = self.simple_stmt()?;
                self.expect(&TokenKind::Semi)?;
                Ok(stmt)
            }
        }
    }

    /// `if (cond) … [else …]`, from its keyword.
    fn if_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_blk = self.block_or_stmt()?;
        let else_blk =
            if self.eat(&TokenKind::KwElse) { Some(self.block_or_stmt()?) } else { None };
        Ok(Stmt::If { cond, then_blk, else_blk, span: start })
    }

    /// `while (cond) …`, from its keyword.
    fn while_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::While { cond, body, span: start })
    }

    /// `switch (x) { case …: … }`, from its keyword.
    fn switch_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let scrutinee = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::LBrace)?;
        let mut cases: Vec<SwitchCase> = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            let case_span = self.peek_span();
            let mut labels = Vec::new();
            let mut is_default = false;
            // One arm may stack several labels.
            loop {
                match self.peek() {
                    TokenKind::KwCase => {
                        self.bump();
                        labels.push(self.expr()?);
                        self.expect(&TokenKind::Colon)?;
                    }
                    TokenKind::KwDefault => {
                        self.bump();
                        self.expect(&TokenKind::Colon)?;
                        is_default = true;
                    }
                    _ => break,
                }
            }
            if labels.is_empty() && !is_default {
                return Err(
                    self.error(format!("expected `case` or `default`, found {}", self.peek()))
                );
            }
            let mut body = Vec::new();
            while !matches!(
                self.peek(),
                TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace | TokenKind::Eof
            ) {
                body.push(self.stmt()?);
            }
            cases.push(SwitchCase { labels, is_default, body, span: case_span });
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Stmt::Switch { scrutinee, cases, span: start })
    }

    /// `do … while (cond);`, from its keyword.
    fn do_while_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        let body = self.block_or_stmt()?;
        self.expect(&TokenKind::KwWhile)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::DoWhile { body, cond, span: start })
    }

    /// `for (init; cond; step) …`, from its keyword.
    fn for_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let init = if matches!(self.peek(), TokenKind::Semi) {
            None
        } else if matches!(self.peek(), TokenKind::KwInt) {
            self.bump();
            let (name, _) = self.ident()?;
            let (size, linit) = self.declarator_tail()?;
            Some(Box::new(Stmt::Local { name, size, init: linit, span: start }))
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(&TokenKind::Semi)?;
        let cond = if matches!(self.peek(), TokenKind::Semi) { None } else { Some(self.expr()?) };
        self.expect(&TokenKind::Semi)?;
        let step = if matches!(self.peek(), TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt()?))
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.block_or_stmt()?;
        Ok(Stmt::For { init, cond, step, body, span: start })
    }

    /// Assignment, increment/decrement or expression statement — the forms
    /// allowed without a trailing semicolon inside `for (...)` headers.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek_span();
        // Prefix increment/decrement.
        if matches!(self.peek(), TokenKind::PlusPlus | TokenKind::MinusMinus) {
            let op = if self.bump() == TokenKind::PlusPlus { BinOp::Add } else { BinOp::Sub };
            let target = self.lvalue()?;
            return Ok(Stmt::Assign {
                target,
                op: Some(op),
                value: Expr::Int(1, start),
                span: start,
            });
        }
        let expr = self.expr()?;
        let compound = |kind: &TokenKind| -> Option<BinOp> {
            Some(match kind {
                TokenKind::PlusAssign => BinOp::Add,
                TokenKind::MinusAssign => BinOp::Sub,
                TokenKind::StarAssign => BinOp::Mul,
                TokenKind::SlashAssign => BinOp::Div,
                TokenKind::PercentAssign => BinOp::Rem,
                TokenKind::ShlAssign => BinOp::Shl,
                TokenKind::ShrAssign => BinOp::Shr,
                TokenKind::AndAssign => BinOp::BitAnd,
                TokenKind::OrAssign => BinOp::BitOr,
                TokenKind::XorAssign => BinOp::BitXor,
                _ => return None,
            })
        };
        match self.peek().clone() {
            TokenKind::Assign => {
                self.bump();
                let target = self.expr_to_lvalue(expr)?;
                let value = self.expr()?;
                let span = start.merge(value.span());
                Ok(Stmt::Assign { target, op: None, value, span })
            }
            ref k if compound(k).is_some() => {
                let op = compound(k);
                self.bump();
                let target = self.expr_to_lvalue(expr)?;
                let value = self.expr()?;
                let span = start.merge(value.span());
                Ok(Stmt::Assign { target, op, value, span })
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let op = if self.bump() == TokenKind::PlusPlus { BinOp::Add } else { BinOp::Sub };
                let target = self.expr_to_lvalue(expr)?;
                Ok(Stmt::Assign { target, op: Some(op), value: Expr::Int(1, start), span: start })
            }
            _ => Ok(Stmt::Expr(expr)),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let (name, span) = self.ident()?;
        if self.eat(&TokenKind::LBracket) {
            let index = self.expr()?;
            let end = self.expect(&TokenKind::RBracket)?;
            Ok(LValue::Index(name, Box::new(index), span.merge(end)))
        } else {
            Ok(LValue::Var(name, span))
        }
    }

    fn expr_to_lvalue(&self, expr: Expr) -> Result<LValue, ParseError> {
        match expr {
            Expr::Var(name, span) => Ok(LValue::Var(name, span)),
            Expr::Index(name, index, span) => Ok(LValue::Index(name, index, span)),
            other => Err(ParseError::new(
                "assignment target must be a variable or array element",
                other.span(),
                self.source,
            )),
        }
    }

    /// One expression. Every path that nests expressions — parentheses,
    /// call arguments, indices, `?:` arms — comes back through here, so
    /// each counts one nesting level.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::conditional)
    }

    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if !self.eat(&TokenKind::Question) {
            return Ok(cond);
        }
        // C conditional expression; right-associative.
        let then = self.expr()?;
        self.expect(&TokenKind::Colon)?;
        let otherwise = self.expr()?;
        let span = cond.span().merge(otherwise.span());
        Ok(Expr::Cond(Box::new(cond), Box::new(then), Box::new(otherwise), span))
    }

    /// Precedence-climbing binary expression parser. Level 0 is `||`.
    fn binary(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, level)) = binop_of(self.peek()) {
            if level < min_level {
                break;
            }
            // Each operator wraps `lhs` one level deeper: a flat
            // `1+1+…` chain builds as deep a tree as nested parentheses.
            self.enter()?;
            self.bump();
            let rhs = self.binary(level + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), span);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::Tilde => Some(UnOp::BitNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.nested(Self::unary)?;
            let span = start.merge(inner.span());
            return Ok(Expr::Unary(op, Box::new(inner), span));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v, span))
            }
            TokenKind::LParen => {
                self.bump();
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek() {
                    TokenKind::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if !matches!(self.peek(), TokenKind::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                        }
                        let end = self.expect(&TokenKind::RParen)?;
                        Ok(Expr::Call(name, args, span.merge(end)))
                    }
                    TokenKind::LBracket => {
                        self.bump();
                        let index = self.expr()?;
                        let end = self.expect(&TokenKind::RBracket)?;
                        Ok(Expr::Index(name, Box::new(index), span.merge(end)))
                    }
                    _ => Ok(Expr::Var(name, span)),
                }
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

/// Operator and precedence level; higher binds tighter.
fn binop_of(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::LogOr, 0),
        TokenKind::AndAnd => (BinOp::LogAnd, 1),
        TokenKind::Pipe => (BinOp::BitOr, 2),
        TokenKind::Caret => (BinOp::BitXor, 3),
        TokenKind::Amp => (BinOp::BitAnd, 4),
        TokenKind::Eq => (BinOp::Eq, 5),
        TokenKind::Ne => (BinOp::Ne, 5),
        TokenKind::Lt => (BinOp::Lt, 6),
        TokenKind::Le => (BinOp::Le, 6),
        TokenKind::Gt => (BinOp::Gt, 6),
        TokenKind::Ge => (BinOp::Ge, 6),
        TokenKind::Shl => (BinOp::Shl, 7),
        TokenKind::Shr => (BinOp::Shr, 7),
        TokenKind::Plus => (BinOp::Add, 8),
        TokenKind::Minus => (BinOp::Sub, 8),
        TokenKind::Star => (BinOp::Mul, 9),
        TokenKind::Slash => (BinOp::Div, 9),
        TokenKind::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Program {
        parse_tokens(src, &lex(src).expect("lexes")).expect("parses")
    }

    fn parse_err(src: &str) -> ParseError {
        parse_tokens(src, &lex(src).expect("lexes")).expect_err("should fail")
    }

    #[test]
    fn globals_and_functions() {
        let p = parse("int x = 3; int tab[4] = {1, 2, 3, 4}; void main() { x = 1; }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.globals[0].name, "x");
        assert!(matches!(p.globals[1].init, Init::List(ref v) if v.len() == 4));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("int x = 1 + 2 * 3;");
        let Init::Scalar(e) = &p.globals[0].init else { panic!("scalar init") };
        assert_eq!(crate::ast::const_eval(e), Some(7));
    }

    #[test]
    fn precedence_comparison_vs_logical() {
        let p = parse("int x = 1 < 2 && 3 == 3 || 0;");
        let Init::Scalar(e) = &p.globals[0].init else { panic!("scalar init") };
        assert_eq!(crate::ast::const_eval(e), Some(1));
    }

    #[test]
    fn left_associativity_of_subtraction() {
        let p = parse("int x = 10 - 3 - 2;");
        let Init::Scalar(e) = &p.globals[0].init else { panic!("scalar init") };
        assert_eq!(crate::ast::const_eval(e), Some(5));
    }

    #[test]
    fn full_statement_zoo() {
        let p = parse(
            r#"
            void main() {
                int acc = 0;
                int buf[8];
                for (int i = 0; i < 8; i++) {
                    buf[i] = i * i;
                }
                int j = 0;
                while (j < 8) {
                    if (buf[j] % 2 == 0) {
                        acc += buf[j];
                    } else {
                        acc -= 1;
                    }
                    j++;
                }
                { acc <<= 1; }
                if (acc > 100) return;
                out(acc);
            }
        "#,
        );
        let f = p.function("main").expect("main exists");
        assert!(f.body.stmts.len() >= 7);
    }

    #[test]
    fn for_without_init_or_step() {
        let p = parse("void f() { for (;;) { break; } }");
        let Stmt::For { init, cond, step, .. } = &p.functions[0].body.stmts[0] else {
            panic!("for stmt")
        };
        assert!(init.is_none() && cond.is_none() && step.is_none());
    }

    #[test]
    fn prefix_and_postfix_increment() {
        let p = parse("void f() { int i = 0; ++i; i--; }");
        let stmts = &p.functions[0].body.stmts;
        assert!(matches!(&stmts[1], Stmt::Assign { op: Some(BinOp::Add), .. }));
        assert!(matches!(&stmts[2], Stmt::Assign { op: Some(BinOp::Sub), .. }));
    }

    #[test]
    fn single_statement_bodies_are_wrapped() {
        let p = parse("void f() { if (1) out(1); else out(2); while (0) out(3); }");
        let Stmt::If { then_blk, else_blk, .. } = &p.functions[0].body.stmts[0] else {
            panic!("if stmt")
        };
        assert_eq!(then_blk.stmts.len(), 1);
        assert_eq!(else_blk.as_ref().map(|b| b.stmts.len()), Some(1));
    }

    #[test]
    fn calls_with_arguments() {
        let p = parse("int add(int a, int b) { return a + b; } void f() { out(add(1, 2)); }");
        assert_eq!(p.functions[0].params.len(), 2);
    }

    #[test]
    fn error_on_bad_assignment_target() {
        let err = parse_err("void f() { 1 + 2 = 3; }");
        assert!(err.message.contains("assignment target"));
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_err("void f() { int x = 1 }");
        assert!(err.message.contains("`;`"), "{}", err.message);
    }

    #[test]
    fn error_on_void_global() {
        let err = parse_err("void x;");
        assert!(err.message.contains("int"));
    }

    #[test]
    fn do_while_parses() {
        let p = parse("void f() { int i = 0; do { i++; } while (i < 4); }");
        assert!(matches!(&p.functions[0].body.stmts[1], Stmt::DoWhile { .. }));
    }

    #[test]
    fn ternary_parses_and_folds() {
        let p = parse("int x = 1 < 2 ? 10 : 20;");
        let Init::Scalar(e) = &p.globals[0].init else { panic!("scalar init") };
        assert_eq!(crate::ast::const_eval(e), Some(10));
    }

    #[test]
    fn ternary_is_right_associative() {
        let p = parse("int x = 0 ? 1 : 0 ? 2 : 3;");
        let Init::Scalar(e) = &p.globals[0].init else { panic!("scalar init") };
        assert_eq!(crate::ast::const_eval(e), Some(3));
    }

    #[test]
    fn switch_parses_with_stacked_labels_and_default() {
        let p = parse(
            "void f(int x) {
                switch (x) {
                    case 1:
                    case 2: out(12); break;
                    case 3: out(3);
                    default: out(0);
                }
            }",
        );
        let Stmt::Switch { cases, .. } = &p.functions[0].body.stmts[0] else {
            panic!("switch stmt")
        };
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].labels.len(), 2);
        assert!(cases[2].is_default);
    }

    #[test]
    fn switch_requires_labels() {
        let err = parse_err("void f(int x) { switch (x) { out(1); } }");
        assert!(err.message.contains("case"), "{}", err.message);
    }

    #[test]
    fn trailing_comma_in_initializer() {
        let p = parse("int t[2] = {1, 2,};");
        assert!(matches!(p.globals[0].init, Init::List(ref v) if v.len() == 2));
    }

    /// Hostile nesting is a parse error, not a stack overflow: in a
    /// 2 MiB thread (a server worker's stack), 100k-deep chains of every
    /// nesting form fail cleanly, and nesting exactly at the budget still
    /// parses and type-checks.
    #[test]
    fn nesting_past_the_budget_is_an_error_not_a_stack_overflow() {
        // `void main() { out(…); }` spends three levels (statement, call
        // expression, argument) before the chain starts.
        type Form = fn(usize) -> String;
        let forms: [(&str, Form); 6] = [
            ("parentheses", |n| format!("out({}1{});", "(".repeat(n), ")".repeat(n))),
            ("unary minus", |n| format!("out({}1);", "- ".repeat(n))),
            ("conditional", |n| format!("out({}1{});", "1 ? ".repeat(n), " : 1".repeat(n))),
            ("binary chain", |n| format!("out(1{});", " + 1".repeat(n))),
            ("if", |n| format!("{}out(1);", "if (1) ".repeat(n))),
            ("braces", |n| format!("{}out(1);{}", "{".repeat(n), "}".repeat(n))),
        ];
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for (name, form) in forms {
                    let src = |n| format!("void main() {{ {} }}", form(n));
                    let at_budget = src(MAX_NESTING - 3);
                    assert!(crate::parse(&at_budget).is_ok(), "{name}: at the budget must parse");
                    for n in [MAX_NESTING - 2, 100_000] {
                        let err = crate::parse(&src(n)).expect_err(name);
                        assert_eq!(err.message, "nesting deeper than 128 levels", "{name} x{n}");
                    }
                }
            })
            .expect("spawns")
            .join()
            .expect("no stack overflow");
    }
}
