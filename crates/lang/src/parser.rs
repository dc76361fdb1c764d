//! Recursive-descent parser for MiniPy.
//!
//! The grammar is a small subset of Python sufficient for introductory
//! programming assignments: function definitions, assignments (including
//! augmented and subscript assignments), `if`/`elif`/`else`, `for`, `while`,
//! `return`, `print`, `pass`, `break`, `continue`, and the usual expression
//! syntax (arithmetic, comparisons, boolean operators, calls, method calls,
//! indexing, slicing, list and tuple displays).
//!
//! Nesting is bounded by [`MAX_NESTING`]: an expression deeper than that, or
//! a bracket, unary operator or block nested more often, is a parse error.
//! Everything that later recurses over the tree (lowering, the
//! interpreter, printing) therefore recurses a bounded number of levels,
//! and no input can overflow the stack of the thread that handles it.

use crate::ast::{BinOp, Expr, Function, Lit, SourceProgram, Stmt, Target, UnOp};
use crate::error::ParseError;
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// The deepest a program may nest, in each of three measures: the
/// [`Expr::json_depth`] of any expression, the brackets and unary operators
/// an expression sits inside, and the blocks a statement sits inside. Well
/// above anything a student writes by hand, and shallow enough that a
/// worker thread's stack holds every recursion over a program at this
/// depth. MiniC shares it.
pub const MAX_NESTING: usize = 200;

/// An expression and its [`Expr::json_depth`].
type Parsed = (Expr, usize);

/// Parses a full MiniPy source file into a [`SourceProgram`].
///
/// Top-level statements outside of a function definition are collected into an
/// implicit function called `__main__` with no parameters, which makes simple
/// script-style submissions parseable as well.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax error found.
pub fn parse_program(source: &str) -> Result<SourceProgram, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser::new(tokens);
    parser.parse_program()
}

/// Parses a single expression (useful in tests and for building rewrite
/// rules).
///
/// # Errors
///
/// Returns a [`ParseError`] if the source is not a single well-formed
/// expression.
pub fn parse_expression(source: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.parse_expr()?;
    parser.skip_newlines();
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Brackets, unary operators and blocks open at the current token.
    nesting: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, nesting: 0 }
    }

    fn too_deep(&self) -> ParseError {
        ParseError::new(self.peek_line(), format!("nested more than {MAX_NESTING} levels deep"))
    }

    /// Runs `parse` one nesting level further in.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T, ParseError>) -> Result<T, ParseError> {
        if self.nesting >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let result = parse(self);
        self.nesting -= 1;
        result
    }

    /// `expr` at `depth`, unless that is past [`MAX_NESTING`].
    fn node(&self, expr: Expr, depth: usize) -> Result<Parsed, ParseError> {
        if depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((expr, depth))
    }

    fn binary(&self, op: BinOp, (lhs, l): Parsed, (rhs, r): Parsed) -> Result<Parsed, ParseError> {
        self.node(Expr::bin(op, lhs, rhs), 1 + l.max(r))
    }

    /// A comma-separated list of expressions up to (not including) a token
    /// `end`, with the depth of its deepest item. A trailing comma is
    /// allowed.
    fn items(&mut self, end: &TokenKind) -> Result<(Vec<Expr>, usize), ParseError> {
        let (mut items, mut deepest) = (Vec::new(), 0);
        while !self.check(end) {
            let (item, depth) = self.expr()?;
            items.push(item);
            deepest = deepest.max(depth);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok((items, deepest))
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let tok = self.tokens[self.pos.min(self.tokens.len() - 1)].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        tok
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::new(self.peek_line(), format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.check(&TokenKind::Eof) {
            Ok(())
        } else {
            Err(ParseError::new(self.peek_line(), format!("expected end of input, found {}", self.peek())))
        }
    }

    fn skip_newlines(&mut self) {
        while self.check(&TokenKind::Newline) {
            self.bump();
        }
    }

    fn parse_program(&mut self) -> Result<SourceProgram, ParseError> {
        let mut functions = Vec::new();
        let mut top_level = Vec::new();
        loop {
            self.skip_newlines();
            if self.check(&TokenKind::Eof) {
                break;
            }
            if self.check(&TokenKind::Def) {
                functions.push(self.parse_function()?);
            } else if matches!(self.peek(), TokenKind::Import) {
                // `import` lines are accepted and ignored: student submissions
                // frequently import `math` even when they do not need it.
                while !self.check(&TokenKind::Newline) && !self.check(&TokenKind::Eof) {
                    self.bump();
                }
            } else if matches!(self.peek(), TokenKind::Class | TokenKind::Lambda | TokenKind::Global) {
                return Err(ParseError::new(
                    self.peek_line(),
                    format!("unsupported construct {}", self.peek()),
                ));
            } else {
                top_level.push(self.parse_statement()?);
            }
        }
        if !top_level.is_empty() {
            let line = top_level[0].line();
            functions.push(Function {
                name: "__main__".to_owned(),
                params: Vec::new(),
                body: top_level,
                line,
            });
        }
        Ok(SourceProgram { functions })
    }

    fn parse_function(&mut self) -> Result<Function, ParseError> {
        let line = self.peek_line();
        self.expect(&TokenKind::Def)?;
        let name = self.parse_name()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                params.push(self.parse_name()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(Function { name, params, body, line })
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            TokenKind::Name(name) => Ok(name),
            other => Err(ParseError::new(self.peek_line(), format!("expected identifier, found {other}"))),
        }
    }

    /// Parses an indented block: `NEWLINE INDENT stmt+ DEDENT`, or a single
    /// inline statement on the same line (`if x: return 1`).
    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(Self::parse_block_body)
    }

    fn parse_block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if !self.check(&TokenKind::Newline) {
            // Inline (suite on the same line).
            let stmt = self.parse_simple_statement()?;
            self.eat(&TokenKind::Newline);
            return Ok(vec![stmt]);
        }
        self.skip_newlines();
        self.expect(&TokenKind::Indent)?;
        let mut stmts = Vec::new();
        loop {
            self.skip_newlines();
            if self.eat(&TokenKind::Dedent) {
                break;
            }
            if self.check(&TokenKind::Eof) {
                break;
            }
            stmts.push(self.parse_statement()?);
        }
        if stmts.is_empty() {
            return Err(ParseError::new(self.peek_line(), "empty block"));
        }
        Ok(stmts)
    }

    fn parse_statement(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            TokenKind::If => self.parse_if(),
            TokenKind::While => self.parse_while(),
            TokenKind::For => self.parse_for(),
            TokenKind::Def | TokenKind::Class | TokenKind::Lambda | TokenKind::Global => {
                Err(ParseError::new(self.peek_line(), format!("unsupported construct {}", self.peek())))
            }
            _ => {
                let stmt = self.parse_simple_statement()?;
                if !self.check(&TokenKind::Eof) && !self.check(&TokenKind::Dedent) {
                    self.expect(&TokenKind::Newline)?;
                }
                Ok(stmt)
            }
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        self.bump(); // `if` or `elif`
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let then_body = self.parse_block()?;
        self.skip_newlines();
        let else_body = if self.check(&TokenKind::Elif) {
            // An `elif` nests into the `else` block.
            vec![self.nested(Self::parse_if)?]
        } else if self.eat(&TokenKind::Else) {
            self.expect(&TokenKind::Colon)?;
            self.parse_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_body, else_body, line })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        self.expect(&TokenKind::While)?;
        let cond = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(Stmt::While { cond, body, line })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        self.expect(&TokenKind::For)?;
        let var = self.parse_name()?;
        self.expect(&TokenKind::In)?;
        let iter = self.parse_expr()?;
        self.expect(&TokenKind::Colon)?;
        let body = self.parse_block()?;
        Ok(Stmt::For { var, iter, body, line })
    }

    fn parse_simple_statement(&mut self) -> Result<Stmt, ParseError> {
        let line = self.peek_line();
        match self.peek() {
            TokenKind::Return => {
                self.bump();
                let value = if self.check(&TokenKind::Newline)
                    || self.check(&TokenKind::Eof)
                    || self.check(&TokenKind::Dedent)
                {
                    None
                } else {
                    Some(self.parse_expr_list()?)
                };
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Print => {
                self.bump();
                let mut args = Vec::new();
                if !self.check(&TokenKind::Newline)
                    && !self.check(&TokenKind::Eof)
                    && !self.check(&TokenKind::Dedent)
                {
                    args.push(self.parse_expr()?);
                    while self.eat(&TokenKind::Comma) {
                        args.push(self.parse_expr()?);
                    }
                }
                // `print(a, b)` parses as a single tuple argument; flatten it
                // so both Python-2 and Python-3 style calls behave the same.
                if args.len() == 1 {
                    if let Expr::Tuple(items) = &args[0] {
                        args = items.clone();
                    }
                }
                Ok(Stmt::Print { args, line })
            }
            TokenKind::Pass => {
                self.bump();
                Ok(Stmt::Pass { line })
            }
            TokenKind::Break => {
                self.bump();
                Ok(Stmt::Break { line })
            }
            TokenKind::Continue => {
                self.bump();
                Ok(Stmt::Continue { line })
            }
            TokenKind::Lambda | TokenKind::Class | TokenKind::Global | TokenKind::Import => {
                Err(ParseError::new(line, format!("unsupported construct {}", self.peek())))
            }
            _ => self.parse_assignment_or_expr(line),
        }
    }

    fn parse_assignment_or_expr(&mut self, line: u32) -> Result<Stmt, ParseError> {
        let expr = self.parse_expr_list()?;
        let aug = match self.peek() {
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            TokenKind::PercentAssign => Some(BinOp::Mod),
            _ => None,
        };
        if aug.is_some() || self.check(&TokenKind::Assign) {
            self.bump();
            let value = self.parse_expr_list()?;
            let target = match expr {
                Expr::Var(name) => Target::Name(name),
                Expr::Index(base, idx) => match *base {
                    Expr::Var(name) => Target::Index(name, *idx),
                    _ => {
                        return Err(ParseError::new(line, "only simple variables can be subscript-assigned"))
                    }
                },
                _ => return Err(ParseError::new(line, "invalid assignment target")),
            };
            Ok(Stmt::Assign { target, op: aug, value, line })
        } else {
            Ok(Stmt::ExprStmt { expr, line })
        }
    }

    /// Parses a comma-separated expression list; more than one element forms
    /// a tuple (as in `return a, b`).
    fn parse_expr_list(&mut self) -> Result<Expr, ParseError> {
        let (first, depth) = self.expr()?;
        if !self.check(&TokenKind::Comma) {
            return Ok(first);
        }
        let (mut items, mut deepest) = (vec![first], depth);
        while self.eat(&TokenKind::Comma) {
            if self.check(&TokenKind::Newline)
                || self.check(&TokenKind::Eof)
                || self.check(&TokenKind::Assign)
                || self.check(&TokenKind::RParen)
            {
                break;
            }
            let (item, depth) = self.expr()?;
            items.push(item);
            deepest = deepest.max(depth);
        }
        Ok(self.node(Expr::Tuple(items), 2 + deepest)?.0)
    }

    /// An expression on its own (a statement's, or a whole input's).
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.expr()?.0)
    }

    /// `expr := or_expr`, one nesting level in.
    fn expr(&mut self) -> Result<Parsed, ParseError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::Or) {
            let rhs = self.parse_and()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.parse_not()?;
        while self.eat(&TokenKind::And) {
            let rhs = self.parse_not()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Parsed, ParseError> {
        if self.eat(&TokenKind::Not) {
            let (inner, depth) = self.nested(Self::parse_not)?;
            self.node(Expr::Unary(UnOp::Not, Box::new(inner)), 1 + depth)
        } else {
            self.parse_comparison()
        }
    }

    fn comparison_op(&self) -> Option<BinOp> {
        Some(match self.peek() {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::NotEq => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return None,
        })
    }

    fn parse_comparison(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.parse_additive()?;
        while let Some(op) = self.comparison_op() {
            self.bump();
            let rhs = self.parse_additive()?;
            // Chained comparisons (`a <= b < c`) are desugared to an `and`
            // of binary comparisons, as in Python.
            if let Some(next_op) = self.comparison_op() {
                self.bump();
                let third = self.parse_additive()?;
                let first = self.binary(op, lhs, rhs.clone())?;
                let second = self.binary(next_op, rhs, third)?;
                lhs = self.binary(BinOp::And, first, second)?;
            } else {
                lhs = self.binary(op, lhs, rhs)?;
            }
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Parsed, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::DoubleSlash => BinOp::FloorDiv,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Parsed, ParseError> {
        if self.eat(&TokenKind::Minus) {
            let (inner, depth) = self.nested(Self::parse_unary)?;
            return self.node(Expr::Unary(UnOp::Neg, Box::new(inner)), 1 + depth);
        }
        if self.eat(&TokenKind::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Parsed, ParseError> {
        let base = self.parse_postfix()?;
        if self.eat(&TokenKind::DoubleStar) {
            // Right-associative.
            let exponent = self.nested(Self::parse_unary)?;
            self.binary(BinOp::Pow, base, exponent)
        } else {
            Ok(base)
        }
    }

    /// An optional slice bound, ending at `:` or `]`.
    fn slice_bound(&mut self) -> Result<Option<Parsed>, ParseError> {
        if self.check(&TokenKind::RBracket) {
            Ok(None)
        } else {
            self.expr().map(Some)
        }
    }

    fn parse_postfix(&mut self) -> Result<Parsed, ParseError> {
        let (mut expr, mut depth) = self.parse_atom()?;
        loop {
            (expr, depth) = match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let (args, deepest) = self.items(&TokenKind::RParen)?;
                    self.expect(&TokenKind::RParen)?;
                    match expr {
                        Expr::Var(name) => self.node(Expr::Call(name, args), 2 + deepest)?,
                        // The bare method's depth already counts its receiver.
                        Expr::Method(recv, name, _empty) => {
                            self.node(Expr::Method(recv, name, args), depth.max(2 + deepest))?
                        }
                        other => {
                            return Err(ParseError::new(
                                self.peek_line(),
                                format!("cannot call expression {other:?}"),
                            ))
                        }
                    }
                }
                TokenKind::LBracket => {
                    self.bump();
                    // Either an index or a slice.
                    let lo = if self.check(&TokenKind::Colon) { None } else { Some(self.expr()?) };
                    if self.eat(&TokenKind::Colon) {
                        let hi = self.slice_bound()?;
                        self.expect(&TokenKind::RBracket)?;
                        let bounds = [&lo, &hi].iter().filter_map(|b| b.as_ref().map(|(_, d)| *d)).max();
                        let sliced = Expr::Slice(
                            Box::new(expr),
                            lo.map(|(e, _)| Box::new(e)),
                            hi.map(|(e, _)| Box::new(e)),
                        );
                        self.node(sliced, 1 + depth.max(bounds.unwrap_or(0)))?
                    } else {
                        self.expect(&TokenKind::RBracket)?;
                        let (index, index_depth) = lo.expect("an index unless a slice");
                        self.node(Expr::Index(Box::new(expr), Box::new(index)), 1 + depth.max(index_depth))?
                    }
                }
                TokenKind::Dot => {
                    self.bump();
                    let name = self.parse_name()?;
                    // A bare attribute access becomes a zero-argument method
                    // reference; the following `(` (if any) supplies the
                    // arguments.
                    self.node(Expr::Method(Box::new(expr), name, Vec::new()), 1 + depth.max(1))?
                }
                _ => break,
            };
        }
        Ok((expr, depth))
    }

    fn parse_atom(&mut self) -> Result<Parsed, ParseError> {
        let line = self.peek_line();
        let leaf = match self.bump() {
            TokenKind::Int(v) => Expr::Lit(Lit::Int(v)),
            TokenKind::Float(v) => Expr::Lit(Lit::Float(v)),
            TokenKind::Str(v) => Expr::Lit(Lit::Str(v)),
            TokenKind::True => Expr::Lit(Lit::Bool(true)),
            TokenKind::False => Expr::Lit(Lit::Bool(false)),
            TokenKind::None => Expr::Lit(Lit::None),
            TokenKind::Name(name) => Expr::Var(name),
            TokenKind::Print => Expr::Var("print".to_owned()),
            TokenKind::LParen => {
                if self.eat(&TokenKind::RParen) {
                    return Ok((Expr::Tuple(Vec::new()), 2));
                }
                let first = self.expr()?;
                if !self.check(&TokenKind::Comma) {
                    self.expect(&TokenKind::RParen)?;
                    return Ok(first);
                }
                self.bump();
                let (mut items, deepest) = self.items(&TokenKind::RParen)?;
                self.expect(&TokenKind::RParen)?;
                items.insert(0, first.0);
                return self.node(Expr::Tuple(items), 2 + deepest.max(first.1));
            }
            TokenKind::LBracket => {
                let (items, deepest) = self.items(&TokenKind::RBracket)?;
                self.expect(&TokenKind::RBracket)?;
                return self.node(Expr::List(items), 2 + deepest);
            }
            TokenKind::Lambda => return Err(ParseError::new(line, "unsupported construct `lambda`")),
            other => return Err(ParseError::new(line, format!("unexpected token {other}"))),
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_correct_attempt_c1() {
        let src = "\
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";
        let prog = parse_program(src).unwrap();
        assert_eq!(prog.functions.len(), 1);
        let f = &prog.functions[0];
        assert_eq!(f.name, "computeDeriv");
        assert_eq!(f.params, vec!["poly"]);
        assert_eq!(f.body.len(), 3);
        assert!(matches!(f.body[1], Stmt::For { .. }));
        assert!(matches!(f.body[2], Stmt::If { .. }));
    }

    #[test]
    fn parses_augmented_assignment_and_xrange() {
        let src = "\
def computeDeriv(poly):
    deriv = []
    for i in xrange(1,len(poly)):
        deriv+=[float(i)*poly[i]]
    if len(deriv)==0:
        return [0.0]
    return deriv
";
        let prog = parse_program(src).unwrap();
        let f = &prog.functions[0];
        assert_eq!(f.body.len(), 4);
        match &f.body[1] {
            Stmt::For { body, .. } => match &body[0] {
                Stmt::Assign { op, .. } => assert_eq!(*op, Some(BinOp::Add)),
                other => panic!("expected augmented assignment, got {other:?}"),
            },
            other => panic!("expected for loop, got {other:?}"),
        }
    }

    #[test]
    fn elif_chains_nest_into_else() {
        let src = "\
def f(x):
    if x > 0:
        return 1
    elif x == 0:
        return 0
    else:
        return -1
";
        let prog = parse_program(src).unwrap();
        match &prog.functions[0].body[0] {
            Stmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], Stmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn subscript_assignment() {
        let src = "def f(xs):\n    xs[0] = 1\n    return xs\n";
        let prog = parse_program(src).unwrap();
        match &prog.functions[0].body[0] {
            Stmt::Assign { target: Target::Index(name, _), .. } => assert_eq!(name, "xs"),
            other => panic!("expected subscript assignment, got {other:?}"),
        }
    }

    #[test]
    fn method_call_statement() {
        let src = "def f(xs, x):\n    xs.append(x)\n    return xs\n";
        let prog = parse_program(src).unwrap();
        match &prog.functions[0].body[0] {
            Stmt::ExprStmt { expr: Expr::Method(recv, name, args), .. } => {
                assert_eq!(**recv, Expr::var("xs"));
                assert_eq!(name, "append");
                assert_eq!(args.len(), 1);
            }
            other => panic!("expected method call, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("1 + 2 * 3 ** 2").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Add,
                Expr::int(1),
                Expr::bin(BinOp::Mul, Expr::int(2), Expr::bin(BinOp::Pow, Expr::int(3), Expr::int(2)))
            )
        );
    }

    #[test]
    fn boolean_operators_and_comparison() {
        let e = parse_expression("x > 0 and y == 2 or done").unwrap();
        match e {
            Expr::Binary(BinOp::Or, lhs, rhs) => {
                assert!(matches!(*lhs, Expr::Binary(BinOp::And, _, _)));
                assert_eq!(*rhs, Expr::var("done"));
            }
            other => panic!("unexpected parse {other:?}"),
        }
    }

    #[test]
    fn chained_comparison_desugars_to_and() {
        let e = parse_expression("0 <= x < 10").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn slices_and_indexing() {
        assert!(matches!(parse_expression("xs[1:]").unwrap(), Expr::Slice(_, Some(_), None)));
        assert!(matches!(parse_expression("xs[:n]").unwrap(), Expr::Slice(_, None, Some(_))));
        assert!(matches!(parse_expression("xs[i]").unwrap(), Expr::Index(_, _)));
    }

    #[test]
    fn print_forms() {
        let p3 = parse_program("def f(x):\n    print(x, 1)\n").unwrap();
        let p2 = parse_program("def f(x):\n    print x, 1\n").unwrap();
        match (&p3.functions[0].body[0], &p2.functions[0].body[0]) {
            (Stmt::Print { args: a3, .. }, Stmt::Print { args: a2, .. }) => {
                assert_eq!(a3.len(), 2);
                assert_eq!(a2.len(), 2);
            }
            other => panic!("expected print statements, got {other:?}"),
        }
    }

    #[test]
    fn top_level_statements_become_main() {
        let prog = parse_program("x = 1\nprint(x)\n").unwrap();
        assert_eq!(prog.functions.len(), 1);
        assert_eq!(prog.functions[0].name, "__main__");
        assert_eq!(prog.functions[0].body.len(), 2);
    }

    #[test]
    fn unsupported_constructs_are_rejected() {
        assert!(parse_program("def f(x):\n    g = lambda y: y\n    return g(x)\n").is_err());
        assert!(parse_program("class A:\n    pass\n").is_err());
    }

    #[test]
    fn tuples_parse_in_returns_and_parens() {
        let e = parse_expression("(1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::Tuple(items) if items.len() == 3));
        let empty = parse_expression("()").unwrap();
        assert!(matches!(empty, Expr::Tuple(items) if items.is_empty()));
        let single = parse_expression("(x,)").unwrap();
        assert!(matches!(single, Expr::Tuple(items) if items.len() == 1));
    }

    #[test]
    fn ast_size_and_statement_count() {
        let prog = parse_program("def f(x):\n    y = x + 1\n    return y\n").unwrap();
        assert_eq!(prog.statement_count(), 3);
        assert!(prog.ast_size() >= 5);
    }

    #[test]
    fn inline_suites() {
        let prog = parse_program("def f(x):\n    if x: return 1\n    return 0\n").unwrap();
        assert_eq!(prog.functions[0].body.len(), 2);
    }

    #[test]
    fn tracked_depth_is_the_json_depth() {
        for source in [
            "x",
            "-x",
            "not not x",
            "x + 1 * y - z",
            "a < b <= c",
            "f()",
            "f(x, [1, (2, 3)], -y)",
            "xs.append(x)",
            "xs.pop()",
            "xs.sort",
            "s.strip().split(',')",
            "xs[1:len(xs)-1]",
            "xs[:3]",
            "xs[1:]",
            "xs[i][j]",
            "()",
            "(1,)",
            "(a, [b, [c]])",
            "2 ** -x ** 2",
            "[[[]]]",
            "x or y and not z == [f(g(h(1)))]",
        ] {
            let mut parser = Parser::new(tokenize(source).unwrap());
            let (expr, depth) = parser.expr().unwrap();
            assert_eq!(depth, expr.json_depth(), "{source}");
        }
    }

    #[test]
    fn nesting_past_the_ceiling_is_a_parse_error() {
        let ret = |expr: String| format!("def f(x):\n    return {expr}\n");
        for n in [MAX_NESTING + 1, 1_000, 100_000] {
            let deep = [
                ret(format!("{}1{}", "(".repeat(n), ")".repeat(n))),
                ret(format!("{}1{}", "[".repeat(n), "]".repeat(n))),
                ret(format!("{}x{}", "f(".repeat(n), ")".repeat(n))),
                ret(format!("{}1", "-".repeat(n))),
                ret(format!("{}x", "not ".repeat(n))),
                ret(format!("x{}", " + 1".repeat(n))),
                ret(format!("x{}", "[0]".repeat(n))),
                ret(format!("x{}", ".y()".repeat(n))),
                ret(format!("2{}", " ** 2".repeat(n))),
            ];
            for source in deep {
                let err = parse_program(&source).unwrap_err();
                assert!(err.message.contains("levels deep"), "{err}");
            }
        }
        for n in [MAX_NESTING + 1, 1_000] {
            let mut source = String::from("def f(x):\n");
            for level in 1..=n {
                source.push_str(&format!("{}if x:\n", " ".repeat(level)));
            }
            source.push_str(&format!("{}return x\n", " ".repeat(n + 1)));
            let err = parse_program(&source).unwrap_err();
            assert!(err.message.contains("levels deep"), "{err}");
        }
    }

    #[test]
    fn nesting_within_the_ceiling_parses() {
        let shallow = MAX_NESTING - 10;
        let chain = parse_expression(&format!("x{}", " + 1".repeat(shallow))).unwrap();
        assert_eq!(chain.json_depth(), shallow + 1);
        let parens = parse_expression(&format!("{}1{}", "(".repeat(shallow), ")".repeat(shallow))).unwrap();
        assert_eq!(parens, Expr::int(1));
        let at_ceiling = parse_expression(&format!("x{}", " + 1".repeat(MAX_NESTING - 1))).unwrap();
        assert_eq!(at_ceiling.json_depth(), MAX_NESTING);
        assert!(parse_expression(&format!("x{}", " + 1".repeat(MAX_NESTING))).is_err());
    }

    #[test]
    fn parse_error_reports_line() {
        let err = parse_program("def f(x):\n    return )\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
