//! A recursive-descent parser for MiniC.
//!
//! The expression grammar follows C precedence (`?:` lowest, then `||`,
//! `&&`, equality, relational, additive, multiplicative, unary, postfix) and
//! produces shared [`Expr`] trees: `&&`/`||`/`!` map to the boolean
//! operators, `c ? a : b` to the model's `ite(...)`, and `a[i]` to
//! [`Expr::Index`]. `/` maps to integer (floor) division unless a float
//! literal appears in either operand — the C-typed division the intro
//! assignments in this corpus actually use.
//!
//! Nesting is bounded by MiniPy's [`MAX_NESTING`]: an expression deeper
//! than that, or a parenthesis, unary operator, conditional or block nested
//! more often, is a parse error, so nothing that recurses over a parsed
//! program can overflow the stack.

use std::fmt;

use clara_lang::ast::{Expr, Lit, Target};
use clara_lang::parser::MAX_NESTING;
use clara_lang::{BinOp, UnOp};

use crate::ast::{CFunction, CParam, CProgram, CStmt, CType};
use crate::lexer::{lex, SpannedTok, Tok};

/// A MiniC syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCError {
    /// 1-based source line of the offending token.
    pub line: u32,
    /// Human readable description of the problem.
    pub message: String,
}

impl ParseCError {
    fn new(line: u32, message: impl Into<String>) -> Self {
        ParseCError { line, message: message.into() }
    }
}

impl fmt::Display for ParseCError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseCError {}

const KEYWORDS: &[&str] =
    &["int", "float", "double", "void", "if", "else", "while", "for", "return", "break", "continue"];

/// Parses a MiniC source file.
///
/// # Errors
///
/// Returns a [`ParseCError`] describing the first syntax error.
pub fn parse_c_program(source: &str) -> Result<CProgram, ParseCError> {
    let toks = lex(source).map_err(|e| ParseCError::new(e.line, e.message))?;
    let mut parser = Parser { toks, pos: 0, nesting: 0 };
    let mut functions = Vec::new();
    while !parser.at_end() {
        functions.push(parser.function()?);
    }
    Ok(CProgram { functions })
}

/// Parses a single MiniC expression (used by tests and tools).
///
/// # Errors
///
/// Returns a [`ParseCError`] when the text is not exactly one expression.
pub fn parse_c_expression(source: &str) -> Result<Expr, ParseCError> {
    let toks = lex(source).map_err(|e| ParseCError::new(e.line, e.message))?;
    let mut parser = Parser { toks, pos: 0, nesting: 0 };
    let expr = parser.expression()?;
    if !parser.at_end() {
        let line = parser.line();
        return Err(ParseCError::new(line, "trailing input after expression"));
    }
    Ok(expr)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Parentheses, unary operators, conditionals and blocks open at the
    /// current token.
    nesting: usize,
}

/// An expression and its [`Expr::json_depth`].
type Parsed = (Expr, usize);

impl Parser {
    fn too_deep(&self) -> ParseCError {
        ParseCError::new(self.line(), format!("nested more than {MAX_NESTING} levels deep"))
    }

    /// Runs `parse` one nesting level further in.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseCError>,
    ) -> Result<T, ParseCError> {
        if self.nesting >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let result = parse(self);
        self.nesting -= 1;
        result
    }

    /// `expr` at `depth`, unless that is past [`MAX_NESTING`].
    fn node(&self, expr: Expr, depth: usize) -> Result<Parsed, ParseCError> {
        if depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((expr, depth))
    }

    fn binary(&self, op: BinOp, (lhs, l): Parsed, (rhs, r): Parsed) -> Result<Parsed, ParseCError> {
        self.node(Expr::bin(op, lhs, rhs), 1 + l.max(r))
    }
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map(|t| t.line).unwrap_or(1)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, offset: usize) -> Option<&Tok> {
        self.toks.get(self.pos + offset).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let tok = self.toks.get(self.pos).map(|t| t.tok.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(found)) if *found == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseCError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(name)) = self.peek() {
            if name == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(name)) if name == kw)
    }

    fn unexpected(&self, wanted: &str) -> ParseCError {
        let line = self.line();
        match self.peek() {
            Some(tok) => ParseCError::new(line, format!("expected {wanted}, found {tok}")),
            None => ParseCError::new(line, format!("expected {wanted}, found end of input")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, u32), ParseCError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::Ident(name)) if !KEYWORDS.contains(&name.as_str()) => {
                let name = name.clone();
                self.pos += 1;
                Ok((name, line))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn peek_type(&self) -> Option<CType> {
        match self.peek() {
            Some(Tok::Ident(name)) => match name.as_str() {
                "int" => Some(CType::Int),
                "float" | "double" => Some(CType::Float),
                "void" => Some(CType::Void),
                _ => None,
            },
            _ => None,
        }
    }

    fn type_keyword(&mut self) -> Result<CType, ParseCError> {
        match self.peek_type() {
            Some(ty) => {
                self.pos += 1;
                Ok(ty)
            }
            None => Err(self.unexpected("a type (`int`, `float`, `void`)")),
        }
    }

    fn function(&mut self) -> Result<CFunction, ParseCError> {
        let line = self.line();
        let ret = self.type_keyword()?;
        let (name, _) = self.ident("a function name")?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            if self.peek_keyword("void") && self.peek_at(1) == Some(&Tok::Punct(")")) {
                self.pos += 1;
            } else {
                loop {
                    let ty = self.type_keyword()?;
                    if ty == CType::Void {
                        return Err(ParseCError::new(self.line(), "`void` is not a parameter type"));
                    }
                    let (pname, _) = self.ident("a parameter name")?;
                    let mut array = false;
                    if self.eat_punct("[") {
                        self.expect_punct("]")?;
                        array = true;
                    }
                    params.push(CParam { name: pname, ty, array });
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            self.expect_punct(")")?;
        }
        let body = self.braced_block()?;
        let mut function = CFunction { name, ret, params, body, line };
        retype_divisions(&mut function);
        Ok(function)
    }

    fn braced_block(&mut self) -> Result<Vec<CStmt>, ParseCError> {
        self.nested(Self::braced_block_body)
    }

    fn braced_block_body(&mut self) -> Result<Vec<CStmt>, ParseCError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_end() {
                return Err(self.unexpected("`}`"));
            }
            self.statement_into(&mut stmts)?;
        }
        Ok(stmts)
    }

    /// A block body: either `{ ... }` or a single statement.
    fn block_or_stmt(&mut self) -> Result<Vec<CStmt>, ParseCError> {
        if self.peek() == Some(&Tok::Punct("{")) {
            self.braced_block()
        } else {
            let mut stmts = Vec::new();
            self.nested(|parser| parser.statement_into(&mut stmts))?;
            Ok(stmts)
        }
    }

    /// Parses one statement; declarations with several declarators push
    /// several statements.
    fn statement_into(&mut self, out: &mut Vec<CStmt>) -> Result<(), ParseCError> {
        let line = self.line();
        if self.eat_punct(";") {
            out.push(CStmt::Empty { line });
            return Ok(());
        }
        if self.peek_type().is_some() {
            self.declaration_into(out)?;
            self.expect_punct(";")?;
            return Ok(());
        }
        if self.eat_keyword("if") {
            out.push(self.if_statement(line)?);
            return Ok(());
        }
        if self.eat_keyword("while") {
            self.expect_punct("(")?;
            let cond = self.expression()?;
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            out.push(CStmt::While { cond, body, line });
            return Ok(());
        }
        if self.eat_keyword("for") {
            out.push(self.for_statement(line)?);
            return Ok(());
        }
        if self.eat_keyword("return") {
            let value = if self.peek() == Some(&Tok::Punct(";")) { None } else { Some(self.expression()?) };
            self.expect_punct(";")?;
            out.push(CStmt::Return { value, line });
            return Ok(());
        }
        if self.eat_keyword("break") {
            self.expect_punct(";")?;
            out.push(CStmt::Break { line });
            return Ok(());
        }
        if self.eat_keyword("continue") {
            self.expect_punct(";")?;
            out.push(CStmt::Continue { line });
            return Ok(());
        }
        if self.peek_keyword("printf") {
            out.push(self.printf_statement(line)?);
            return Ok(());
        }
        let stmt = self.simple_statement()?;
        self.expect_punct(";")?;
        out.push(stmt);
        Ok(())
    }

    fn if_statement(&mut self, line: u32) -> Result<CStmt, ParseCError> {
        self.expect_punct("(")?;
        let cond = self.expression()?;
        self.expect_punct(")")?;
        let then_body = self.block_or_stmt()?;
        let else_body = if self.eat_keyword("else") {
            if self.peek_keyword("if") {
                let nested_line = self.line();
                self.pos += 1;
                vec![self.nested(|parser| parser.if_statement(nested_line))?]
            } else {
                self.block_or_stmt()?
            }
        } else {
            Vec::new()
        };
        Ok(CStmt::If { cond, then_body, else_body, line })
    }

    fn for_statement(&mut self, line: u32) -> Result<CStmt, ParseCError> {
        self.expect_punct("(")?;
        let init = if self.peek() == Some(&Tok::Punct(";")) {
            None
        } else if self.peek_type().is_some() {
            let mut decls = Vec::new();
            self.declaration_into(&mut decls)?;
            if decls.len() != 1 {
                return Err(ParseCError::new(line, "a for-loop initialiser declares one variable"));
            }
            Some(Box::new(decls.remove(0)))
        } else {
            Some(Box::new(self.simple_statement()?))
        };
        self.expect_punct(";")?;
        let cond = if self.peek() == Some(&Tok::Punct(";")) { None } else { Some(self.expression()?) };
        self.expect_punct(";")?;
        let step = if self.peek() == Some(&Tok::Punct(")")) {
            None
        } else {
            Some(Box::new(self.simple_statement()?))
        };
        self.expect_punct(")")?;
        let body = self.block_or_stmt()?;
        Ok(CStmt::For { init, cond, step, body, line })
    }

    fn printf_statement(&mut self, line: u32) -> Result<CStmt, ParseCError> {
        self.pos += 1; // `printf`
        self.expect_punct("(")?;
        let format = match self.bump() {
            Some(Tok::Str(text)) => text,
            _ => {
                return Err(ParseCError::new(line, "printf needs a string-literal format as first argument"));
            }
        };
        let mut args = Vec::new();
        while self.eat_punct(",") {
            args.push(self.expression()?);
        }
        self.expect_punct(")")?;
        self.expect_punct(";")?;
        Ok(CStmt::Printf { format, args, line })
    }

    /// An assignment / increment / expression statement, without the
    /// trailing `;` (shared between statement position and for-headers).
    fn declaration_into(&mut self, out: &mut Vec<CStmt>) -> Result<(), ParseCError> {
        let ty = self.type_keyword()?;
        if ty == CType::Void {
            return Err(ParseCError::new(self.line(), "`void` is not a variable type"));
        }
        loop {
            let (name, line) = self.ident("a variable name")?;
            let init = if self.eat_punct("=") { Some(self.expression()?) } else { None };
            out.push(CStmt::Decl { name, ty, init, line });
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(())
    }

    fn simple_statement(&mut self) -> Result<CStmt, ParseCError> {
        let line = self.line();
        // Prefix increment/decrement.
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if self.peek() == Some(&Tok::Punct(p)) {
                self.pos += 1;
                let target = self.assignment_target(line)?;
                return Ok(CStmt::Assign { target, op: Some(op), value: Expr::int(1), line });
            }
        }
        let expr = self.expression()?;
        let assign_op = match self.peek() {
            Some(Tok::Punct("=")) => Some(None),
            Some(Tok::Punct("+=")) => Some(Some(BinOp::Add)),
            Some(Tok::Punct("-=")) => Some(Some(BinOp::Sub)),
            Some(Tok::Punct("*=")) => Some(Some(BinOp::Mul)),
            Some(Tok::Punct("/=")) => Some(Some(BinOp::FloorDiv)),
            Some(Tok::Punct("%=")) => Some(Some(BinOp::Mod)),
            _ => None,
        };
        if let Some(op) = assign_op {
            self.pos += 1;
            let target =
                expr_to_target(&expr).ok_or_else(|| ParseCError::new(line, "invalid assignment target"))?;
            let value = self.expression()?;
            return Ok(CStmt::Assign { target, op, value, line });
        }
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if self.peek() == Some(&Tok::Punct(p)) {
                self.pos += 1;
                let target = expr_to_target(&expr)
                    .ok_or_else(|| ParseCError::new(line, "invalid increment target"))?;
                return Ok(CStmt::Assign { target, op: Some(op), value: Expr::int(1), line });
            }
        }
        Ok(CStmt::ExprStmt { expr, line })
    }

    fn assignment_target(&mut self, line: u32) -> Result<Target, ParseCError> {
        let (name, _) = self.ident("a variable name")?;
        if self.eat_punct("[") {
            let index = self.expression()?;
            self.expect_punct("]")?;
            Ok(Target::Index(name, index))
        } else {
            let _ = line;
            Ok(Target::Name(name))
        }
    }

    // ---- expressions ----------------------------------------------------

    /// An expression on its own (a statement's, or a whole input's).
    fn expression(&mut self) -> Result<Expr, ParseCError> {
        Ok(self.expr()?.0)
    }

    /// An expression one nesting level in.
    fn expr(&mut self) -> Result<Parsed, ParseCError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Parsed, ParseCError> {
        let cond = self.logic_or()?;
        if self.eat_punct("?") {
            let then = self.expr()?;
            self.expect_punct(":")?;
            let otherwise = self.nested(Self::ternary)?;
            let depth = 2 + cond.1.max(then.1).max(otherwise.1);
            self.node(Expr::ite(cond.0, then.0, otherwise.0), depth)
        } else {
            Ok(cond)
        }
    }

    fn logic_or(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.logic_and()?;
        while self.eat_punct("||") {
            let rhs = self.logic_and()?;
            lhs = self.binary(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn logic_and(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.equality()?;
        while self.eat_punct("&&") {
            let rhs = self.equality()?;
            lhs = self.binary(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("==")) => BinOp::Eq,
                Some(Tok::Punct("!=")) => BinOp::Ne,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.relational()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("<")) => BinOp::Lt,
                Some(Tok::Punct("<=")) => BinOp::Le,
                Some(Tok::Punct(">")) => BinOp::Gt,
                Some(Tok::Punct(">=")) => BinOp::Ge,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.additive()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Parsed, ParseCError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("*")) => BinOp::Mul,
                Some(Tok::Punct("%")) => BinOp::Mod,
                Some(Tok::Punct("/")) => BinOp::Div, // fixed up below
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            // C `/` truncates on integers and is real division on floats.
            // At expression-parse time only literals are visible, so `/`
            // provisionally becomes FloorDiv unless a float literal appears;
            // `retype_divisions` revisits every division once the function's
            // declared float variables are known.
            let op = if op == BinOp::Div && !contains_float_literal(&lhs.0) && !contains_float_literal(&rhs.0)
            {
                BinOp::FloorDiv
            } else {
                op
            };
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Parsed, ParseCError> {
        for (p, op) in [("!", UnOp::Not), ("-", UnOp::Neg)] {
            if self.eat_punct(p) {
                let (inner, depth) = self.nested(Self::unary)?;
                return self.node(Expr::Unary(op, Box::new(inner)), 1 + depth);
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Parsed, ParseCError> {
        let (mut expr, mut depth) = self.primary()?;
        while self.eat_punct("[") {
            let (index, index_depth) = self.expr()?;
            self.expect_punct("]")?;
            (expr, depth) =
                self.node(Expr::Index(Box::new(expr), Box::new(index)), 1 + depth.max(index_depth))?;
        }
        Ok((expr, depth))
    }

    fn primary(&mut self) -> Result<Parsed, ParseCError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok((Expr::int(v), 1))
            }
            Some(Tok::Float(v)) => {
                self.pos += 1;
                Ok((Expr::float(v), 1))
            }
            Some(Tok::Str(text)) => {
                self.pos += 1;
                Ok((Expr::str(text), 1))
            }
            Some(Tok::Punct("(")) => {
                self.pos += 1;
                let expr = self.expr()?;
                self.expect_punct(")")?;
                Ok(expr)
            }
            Some(Tok::Ident(name)) if !KEYWORDS.contains(&name.as_str()) => {
                self.pos += 1;
                if self.eat_punct("(") {
                    let (mut args, mut deepest) = (Vec::new(), 0);
                    if !self.eat_punct(")") {
                        loop {
                            let (arg, depth) = self.expr()?;
                            args.push(arg);
                            deepest = deepest.max(depth);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                    }
                    self.node(Expr::call(name, args), 2 + deepest)
                } else {
                    Ok((Expr::var(name), 1))
                }
            }
            _ => Err(ParseCError::new(line, {
                match self.peek() {
                    Some(tok) => format!("expected an expression, found {tok}"),
                    None => "expected an expression, found end of input".to_owned(),
                }
            })),
        }
    }
}

fn expr_to_target(expr: &Expr) -> Option<Target> {
    match expr {
        Expr::Var(name) => Some(Target::Name(name.clone())),
        Expr::Index(base, index) => match base.as_ref() {
            Expr::Var(name) => Some(Target::Index(name.clone(), (**index).clone())),
            _ => None,
        },
        _ => None,
    }
}

/// Retypes the provisional integer divisions of a parsed function using its
/// declared types: a `/` (or `/=`) whose operand mentions a `float`-typed
/// parameter, array or local — or a float literal — is real division
/// ([`BinOp::Div`]), everything else stays C integer division
/// ([`BinOp::FloorDiv`]). The expression parser cannot see declarations, so
/// this runs as a fix-up once the whole function body is known.
fn retype_divisions(function: &mut CFunction) {
    let mut floats: Vec<String> =
        function.params.iter().filter(|p| p.ty == CType::Float).map(|p| p.name.clone()).collect();
    collect_float_decls(&function.body, &mut floats);
    retype_stmts(&mut function.body, &floats);
}

fn collect_float_decls(stmts: &[CStmt], out: &mut Vec<String>) {
    for stmt in stmts {
        match stmt {
            CStmt::Decl { name, ty: CType::Float, .. } => out.push(name.clone()),
            CStmt::If { then_body, else_body, .. } => {
                collect_float_decls(then_body, out);
                collect_float_decls(else_body, out);
            }
            CStmt::While { body, .. } => collect_float_decls(body, out),
            CStmt::For { init, body, .. } => {
                if let Some(init) = init {
                    collect_float_decls(std::slice::from_ref(init), out);
                }
                collect_float_decls(body, out);
            }
            _ => {}
        }
    }
}

fn retype_stmts(stmts: &mut [CStmt], floats: &[String]) {
    for stmt in stmts {
        match stmt {
            CStmt::Decl { init: Some(init), .. } => retype_expr(init, floats),
            CStmt::Decl { .. } | CStmt::Break { .. } | CStmt::Continue { .. } | CStmt::Empty { .. } => {}
            CStmt::Assign { target, op, value, .. } => {
                if let Target::Index(_, index) = target {
                    retype_expr(index, floats);
                }
                retype_expr(value, floats);
                let target_is_float = floats.iter().any(|f| f == target.base_name());
                if *op == Some(BinOp::FloorDiv) && (target_is_float || is_floatish(value, floats)) {
                    *op = Some(BinOp::Div);
                }
            }
            CStmt::If { cond, then_body, else_body, .. } => {
                retype_expr(cond, floats);
                retype_stmts(then_body, floats);
                retype_stmts(else_body, floats);
            }
            CStmt::While { cond, body, .. } => {
                retype_expr(cond, floats);
                retype_stmts(body, floats);
            }
            CStmt::For { init, cond, step, body, .. } => {
                if let Some(init) = init {
                    retype_stmts(std::slice::from_mut(init.as_mut()), floats);
                }
                if let Some(cond) = cond {
                    retype_expr(cond, floats);
                }
                if let Some(step) = step {
                    retype_stmts(std::slice::from_mut(step.as_mut()), floats);
                }
                retype_stmts(body, floats);
            }
            CStmt::Return { value: Some(value), .. } => retype_expr(value, floats),
            CStmt::Return { value: None, .. } => {}
            CStmt::Printf { args, .. } => {
                for arg in args {
                    retype_expr(arg, floats);
                }
            }
            CStmt::ExprStmt { expr, .. } => retype_expr(expr, floats),
        }
    }
}

fn retype_expr(expr: &mut Expr, floats: &[String]) {
    match expr {
        Expr::Lit(_) | Expr::Var(_) => {}
        Expr::List(items) | Expr::Tuple(items) => {
            for item in items {
                retype_expr(item, floats);
            }
        }
        Expr::Unary(_, inner) => retype_expr(inner, floats),
        Expr::Binary(op, lhs, rhs) => {
            retype_expr(lhs, floats);
            retype_expr(rhs, floats);
            if *op == BinOp::FloorDiv && (is_floatish(lhs, floats) || is_floatish(rhs, floats)) {
                *op = BinOp::Div;
            }
        }
        Expr::Index(base, idx) => {
            retype_expr(base, floats);
            retype_expr(idx, floats);
        }
        Expr::Slice(base, lo, hi) => {
            retype_expr(base, floats);
            if let Some(lo) = lo {
                retype_expr(lo, floats);
            }
            if let Some(hi) = hi {
                retype_expr(hi, floats);
            }
        }
        Expr::Call(_, args) => {
            for arg in args {
                retype_expr(arg, floats);
            }
        }
        Expr::Method(recv, _, args) => {
            retype_expr(recv, floats);
            for arg in args {
                retype_expr(arg, floats);
            }
        }
    }
}

/// `true` when the expression's value is (approximately) float-typed: it
/// mentions a float literal or a declared-float variable.
fn is_floatish(expr: &Expr, floats: &[String]) -> bool {
    if contains_float_literal(expr) {
        return true;
    }
    expr.variables().iter().any(|v| floats.iter().any(|f| f == v))
}

fn contains_float_literal(expr: &Expr) -> bool {
    match expr {
        Expr::Lit(Lit::Float(_)) => true,
        Expr::Lit(_) | Expr::Var(_) => false,
        Expr::List(items) | Expr::Tuple(items) => items.iter().any(contains_float_literal),
        Expr::Unary(_, inner) => contains_float_literal(inner),
        Expr::Binary(_, lhs, rhs) => contains_float_literal(lhs) || contains_float_literal(rhs),
        Expr::Index(base, idx) => contains_float_literal(base) || contains_float_literal(idx),
        Expr::Slice(base, lo, hi) => {
            contains_float_literal(base)
                || lo.as_ref().map(|e| contains_float_literal(e)).unwrap_or(false)
                || hi.as_ref().map(|e| contains_float_literal(e)).unwrap_or(false)
        }
        Expr::Call(_, args) => args.iter().any(contains_float_literal),
        Expr::Method(recv, _, args) => {
            contains_float_literal(recv) || args.iter().any(contains_float_literal)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracked_depth_is_the_json_depth() {
        for source in [
            "x",
            "-x",
            "!!x",
            "a + b * c - d",
            "a < b && c >= d || !e",
            "f()",
            "f(x, g(y), -z)",
            "xs[i][j + 1]",
            "c ? a : b",
            "c ? (d ? 1 : 2) : e ? 3 : 4",
            "x / 2.0",
        ] {
            let toks = lex(source).unwrap();
            let mut parser = Parser { toks, pos: 0, nesting: 0 };
            let (expr, depth) = parser.expr().unwrap();
            assert_eq!(depth, expr.json_depth(), "{source}");
        }
    }

    #[test]
    fn nesting_past_the_ceiling_is_a_parse_error() {
        let decl = |expr: String| format!("int f(int x) {{\n    int y = {expr};\n    return y;\n}}\n");
        for n in [MAX_NESTING + 1, 1_000, 100_000] {
            let deep = [
                decl(format!("{}1{}", "(".repeat(n), ")".repeat(n))),
                decl(format!("{}x{}", "f(".repeat(n), ")".repeat(n))),
                decl(format!("{}1", "- ".repeat(n))),
                decl(format!("{}x", "!".repeat(n))),
                decl(format!("x{}", " + 1".repeat(n))),
                decl(format!("x{}", "[0]".repeat(n))),
                decl(format!("{}0", "x ? 1 : ".repeat(n))),
                format!("int f(int x) {{\n{}return x;{}\n}}\n", "if (x) {".repeat(n), "}".repeat(n)),
                format!("int f(int x) {{\n{}return x;\n}}\n", "if (x) ".repeat(n)),
                format!("int f(int x) {{\n{}return x;\n}}\n", "while (x) ".repeat(n)),
            ];
            for source in deep {
                let err = parse_c_program(&source).unwrap_err();
                assert!(err.message.contains("levels deep"), "{err}");
            }
        }
        let within = MAX_NESTING - 10;
        assert!(parse_c_program(&decl(format!("{}1{}", "(".repeat(within), ")".repeat(within)))).is_ok());
        assert!(parse_c_program(&decl(format!("x{}", " + 1".repeat(within)))).is_ok());
    }

    #[test]
    fn parses_a_fibonacci_function() {
        let src = "\
#include <stdio.h>

int fib(int k) {
    int a = 1;
    int b = 1;
    int n = 1;
    while (b <= k) {
        int c = a + b;
        a = b;
        b = c;
        n = n + 1;
    }
    printf(\"%d\\n\", n);
    return 0;
}
";
        let program = parse_c_program(src).unwrap();
        assert_eq!(program.functions.len(), 1);
        let f = program.function("fib").unwrap();
        assert_eq!(f.param_names(), vec!["k".to_owned()]);
        assert_eq!(f.ret, CType::Int);
        assert!(matches!(f.body[3], CStmt::While { .. }));
        assert!(matches!(f.body[4], CStmt::Printf { .. }));
        assert!(program.ast_size() > 10);
    }

    #[test]
    fn parses_for_loops_and_increments() {
        let src = "\
void count(int n) {
    int i;
    for (i = 0; i < n; i++) {
        printf(\"%d\\n\", i);
    }
}
";
        let program = parse_c_program(src).unwrap();
        let f = program.function("count").unwrap();
        match &f.body[1] {
            CStmt::For { init, cond, step, body, .. } => {
                assert!(matches!(init.as_deref(), Some(CStmt::Assign { .. })));
                assert!(cond.is_some());
                assert!(
                    matches!(step.as_deref(), Some(CStmt::Assign { op: Some(BinOp::Add), .. })),
                    "{step:?}"
                );
                assert_eq!(body.len(), 1);
            }
            other => panic!("expected a for loop, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence_matches_c() {
        let e = parse_c_expression("a + b * c").unwrap();
        assert_eq!(
            e,
            Expr::bin(BinOp::Add, Expr::var("a"), Expr::bin(BinOp::Mul, Expr::var("b"), Expr::var("c")))
        );
        let e = parse_c_expression("a < b && !c || d").unwrap();
        assert_eq!(
            e,
            Expr::bin(
                BinOp::Or,
                Expr::bin(
                    BinOp::And,
                    Expr::bin(BinOp::Lt, Expr::var("a"), Expr::var("b")),
                    Expr::Unary(UnOp::Not, Box::new(Expr::var("c"))),
                ),
                Expr::var("d"),
            )
        );
        // Ternary becomes the model's ite(...).
        let e = parse_c_expression("x > 0 ? x : -x").unwrap();
        assert_eq!(
            e,
            Expr::ite(
                Expr::bin(BinOp::Gt, Expr::var("x"), Expr::int(0)),
                Expr::var("x"),
                Expr::Unary(UnOp::Neg, Box::new(Expr::var("x"))),
            )
        );
    }

    #[test]
    fn division_is_integer_unless_a_float_literal_appears() {
        assert_eq!(
            parse_c_expression("m / 10").unwrap(),
            Expr::bin(BinOp::FloorDiv, Expr::var("m"), Expr::int(10))
        );
        assert_eq!(
            parse_c_expression("m / 2.0").unwrap(),
            Expr::bin(BinOp::Div, Expr::var("m"), Expr::float(2.0))
        );
    }

    #[test]
    fn declared_float_types_make_division_real() {
        // No float literal in sight: the declared types decide.
        let src = "\
float half(float x) {
    float y = x / 2;
    y /= 3;
    return y;
}
";
        let program = parse_c_program(src).unwrap();
        let f = program.function("half").unwrap();
        match &f.body[0] {
            CStmt::Decl { init: Some(init), .. } => {
                assert_eq!(init, &Expr::bin(BinOp::Div, Expr::var("x"), Expr::int(2)), "{init:?}");
            }
            other => panic!("expected a float decl, got {other:?}"),
        }
        match &f.body[1] {
            CStmt::Assign { op, .. } => assert_eq!(*op, Some(BinOp::Div)),
            other => panic!("expected /=, got {other:?}"),
        }
        // Integer declarations keep C integer division, including /=.
        let src = "\
int quarter(int n) {
    int m = n / 2;
    m /= 2;
    return m;
}
";
        let program = parse_c_program(src).unwrap();
        let f = program.function("quarter").unwrap();
        match &f.body[0] {
            CStmt::Decl { init: Some(init), .. } => {
                assert_eq!(init, &Expr::bin(BinOp::FloorDiv, Expr::var("n"), Expr::int(2)));
            }
            other => panic!("expected an int decl, got {other:?}"),
        }
        match &f.body[1] {
            CStmt::Assign { op, .. } => assert_eq!(*op, Some(BinOp::FloorDiv)),
            other => panic!("expected /=, got {other:?}"),
        }
        // Float array parameters count as float-typed operands.
        let src = "\
float avg2(float xs[]) {
    return (xs[0] + xs[1]) / 2;
}
";
        let program = parse_c_program(src).unwrap();
        let f = program.function("avg2").unwrap();
        match &f.body[0] {
            CStmt::Return { value: Some(value), .. } => match value {
                Expr::Binary(op, _, _) => assert_eq!(*op, BinOp::Div, "{value:?}"),
                other => panic!("expected a division, got {other:?}"),
            },
            other => panic!("expected a return, got {other:?}"),
        }
    }

    #[test]
    fn else_if_chains_nest() {
        let src = "\
int sign(int x) {
    if (x > 0) {
        return 1;
    } else if (x == 0) {
        return 0;
    } else {
        return -1;
    }
}
";
        let program = parse_c_program(src).unwrap();
        let f = program.function("sign").unwrap();
        match &f.body[0] {
            CStmt::If { else_body, .. } => {
                assert_eq!(else_body.len(), 1);
                assert!(matches!(else_body[0], CStmt::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = parse_c_program("int f(int x) {\n    return x +;\n}\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("C parse error at line 2"), "{err}");
        assert!(parse_c_program("int f( {}").is_err());
        assert!(parse_c_program("int f(int x) { x = ; }").is_err());
    }

    #[test]
    fn array_params_and_index_assignments() {
        let src = "\
float head_or_zero(float xs[], int n) {
    float out[];
    if (n > 0) {
        out = xs;
        out[0] = xs[0] * 2.0;
        return out[0];
    }
    return 0.0;
}
";
        // `float out[];` is not in the subset — declarations are scalar.
        assert!(parse_c_program(src).is_err());
        let ok = "\
float first_doubled(float xs[], int n) {
    if (n > 0) {
        return xs[0] * 2.0;
    }
    return 0.0;
}
";
        let program = parse_c_program(ok).unwrap();
        let f = program.function("first_doubled").unwrap();
        assert!(f.params[0].array);
        assert!(!f.params[1].array);
    }
}
