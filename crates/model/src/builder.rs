//! The language-agnostic model builder: surface IR → Clara program model.
//!
//! The builder realises the modelling decisions of §2.1 and §3 of the paper
//! for *any* frontend that can express its programs in the surface IR
//! ([`crate::surface`]):
//!
//! * any maximal loop-free region becomes a single location (a *block*);
//!   loop-free conditionals inside a block are recursively converted into
//!   `ite(...)` expressions,
//! * iterator-style loops are desugared using an explicit iterator variable
//!   (`#it<n> = <iterable>` before the loop, `? = len(#it<n>) > 0` as the
//!   loop condition, and `x = head(#it<n>); #it<n> = tail(#it<n>)` at the top
//!   of the body),
//! * conditionals that contain loops become real branches in the control
//!   flow,
//! * early `return`s set the special variables `return` and `#ret`; loop
//!   conditions and later code are guarded by `#ret` so that the model's
//!   simultaneous-update semantics (Definition 3.5) coincides with ordinary
//!   sequential execution,
//! * output appends to the special output variable `#out`,
//! * `break` sets a per-loop flag `#brk<n>` that is conjoined into the loop
//!   condition; `continue` skips the remainder of the loop body.
//!
//! Within a block, statements are composed by symbolic substitution so that
//! every update expression ranges over the values *at block entry*; this is
//! exactly what makes the simultaneous semantics of Definition 3.5 agree with
//! sequential execution of the source program.

use std::collections::BTreeMap;
use std::fmt;

use clara_lang::ast::{BinOp, Expr, Lit, UnOp};

use crate::program::{special, Loc, LocInfo, LocKind, Program, StructSig, Succ};
use crate::surface::{SurfaceFunction, SurfaceStmt};

/// An error encountered while lowering a program into the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// 1-based source line the problem was detected at.
    pub line: u32,
    /// Description of the unsupported construct.
    pub message: String,
}

impl LowerError {
    /// Creates a lowering error at `line`; used by the builder and by the
    /// frontends' desugaring passes.
    pub fn new(line: u32, message: impl Into<String>) -> Self {
        LowerError { line, message: message.into() }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot model program (line {}): {}", self.line, self.message)
    }
}

impl std::error::Error for LowerError {}

const TRUE: Expr = Expr::Lit(Lit::Bool(true));
const FALSE: Expr = Expr::Lit(Lit::Bool(false));

fn is_true(e: &Expr) -> bool {
    matches!(e, Expr::Lit(Lit::Bool(true)))
}

fn is_false(e: &Expr) -> bool {
    matches!(e, Expr::Lit(Lit::Bool(false)))
}

fn make_not(e: Expr) -> Expr {
    if is_true(&e) {
        FALSE
    } else if is_false(&e) {
        TRUE
    } else if let Expr::Unary(UnOp::Not, inner) = e {
        *inner
    } else {
        Expr::Unary(UnOp::Not, Box::new(e))
    }
}

fn make_and(a: Expr, b: Expr) -> Expr {
    if is_true(&a) {
        b
    } else if is_true(&b) {
        a
    } else if is_false(&a) || is_false(&b) {
        FALSE
    } else {
        Expr::Binary(BinOp::And, Box::new(a), Box::new(b))
    }
}

fn make_ite(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
    if is_true(&cond) {
        return then;
    }
    if is_false(&cond) {
        return otherwise;
    }
    if then == otherwise {
        return then;
    }
    // `ite(not c, a, b)` → `ite(c, b, a)`: keeps composed guards in the same
    // polarity as the source condition, which makes mined expressions and
    // repair costs match what a human would write.
    if let Expr::Unary(UnOp::Not, inner) = &cond {
        return make_ite((**inner).clone(), otherwise, then);
    }
    // Boolean-shaped conditionals collapse to the condition itself (or its
    // negation).
    if is_false(&then) && is_true(&otherwise) {
        return make_not(cond);
    }
    if is_true(&then) && is_false(&otherwise) {
        return cond;
    }
    // A nested conditional on the same (pure) condition is redundant:
    // `ite(c, ite(c, x, y), z)` → `ite(c, x, z)` and symmetrically.
    let then = match then {
        Expr::Call(ref name, ref args) if name == "ite" && args.len() == 3 && args[0] == cond => {
            args[1].clone()
        }
        other => other,
    };
    let otherwise = match otherwise {
        Expr::Call(ref name, ref args) if name == "ite" && args.len() == 3 && args[0] == cond => {
            args[2].clone()
        }
        other => other,
    };
    if then == otherwise {
        return then;
    }
    Expr::ite(cond, then, otherwise)
}

/// Maximum number of AST nodes an update expression may grow to during block
/// composition; beyond this the program is rejected as unsupported (this only
/// triggers for pathological inputs, never for realistic student programs).
const MAX_EXPR_SIZE: usize = 20_000;

/// The deepest, in [`Expr::json_depth`], any expression of a built program
/// may nest. Composition nests deeper than the source (every straight-line
/// reassignment substitutes the previous value, every enclosing branch adds
/// an `ite`), so the bound is kept here rather than by the parsers: 3,000
/// lines of `x = x + 1` hold no expression deeper than 3, but compose to
/// one 3,000 levels deep. A saved cluster index stores every expression of
/// a learned program, and this is the deepest one it can load back.
pub const MAX_EXPR_DEPTH: usize = 122;

/// Refuses a composed expression past [`MAX_EXPR_SIZE`] or
/// [`MAX_EXPR_DEPTH`].
fn check_composed(expr: &Expr, line: u32) -> Result<(), LowerError> {
    let size = expr.size();
    if size > MAX_EXPR_SIZE {
        return Err(LowerError::new(line, "composed update expression grew too large"));
    }
    // A node nests its children at most two JSON levels deeper (a call's
    // arguments sit in an array of their own), so small expressions need
    // no second walk.
    if 2 * size <= MAX_EXPR_DEPTH {
        return Ok(());
    }
    let depth = expr.json_depth();
    if depth > MAX_EXPR_DEPTH {
        return Err(LowerError::new(
            line,
            format!("expression nested {depth} levels deep, a program may nest at most {MAX_EXPR_DEPTH}"),
        ));
    }
    Ok(())
}

#[derive(Debug, Clone)]
struct BlockCtx {
    /// Composed update expressions over block-entry values.
    env: BTreeMap<String, Expr>,
    /// Source line of the last statement assigning each variable.
    lines: BTreeMap<String, u32>,
    /// "Control is still flowing" guard, an expression over block-entry
    /// values.
    guard: Expr,
    /// Whether a `return` may have been executed in this block.
    maybe_returned: bool,
    /// The break flag of the innermost enclosing loop, if any.
    brk_flag: Option<String>,
}

impl BlockCtx {
    fn new(brk_flag: Option<String>) -> Self {
        BlockCtx {
            env: BTreeMap::new(),
            lines: BTreeMap::new(),
            guard: TRUE,
            maybe_returned: false,
            brk_flag,
        }
    }

    /// The current expression for `var` in terms of block-entry values.
    fn current(&self, var: &str) -> Expr {
        self.env.get(var).cloned().unwrap_or_else(|| Expr::Var(var.to_owned()))
    }

    /// Substitutes block-entry expressions into `expr`.
    fn subst(&self, expr: &Expr) -> Expr {
        expr.substitute(&|name| self.env.get(name).cloned())
    }

    /// Records the (guarded) assignment `var := value`.
    fn assign(&mut self, var: &str, value: Expr, line: u32) -> Result<(), LowerError> {
        let value =
            if is_true(&self.guard) { value } else { make_ite(self.guard.clone(), value, self.current(var)) };
        check_composed(&value, line)?;
        self.env.insert(var.to_owned(), value);
        self.lines.insert(var.to_owned(), line);
        Ok(())
    }
}

struct SeqOut {
    entry: Loc,
    exits: Vec<(Loc, bool)>,
    sigs: Vec<StructSig>,
    maybe_returned: bool,
}

/// Builds a model [`Program`] from a [`SurfaceFunction`].
///
/// One builder lowers one function; the per-loop counters behind the
/// generated `#it<n>`/`#brk<n>` names are builder state.
pub struct ModelBuilder {
    prog: Program,
    iter_count: usize,
    brk_count: usize,
}

impl ModelBuilder {
    /// Lowers a surface function into the Clara model.
    ///
    /// # Errors
    ///
    /// Returns a [`LowerError`] when the function uses a construct the model
    /// does not support (`break`/`continue` inside a loop body that itself
    /// contains loops, pathologically large composed expressions, ...).
    pub fn build(function: &SurfaceFunction) -> Result<Program, LowerError> {
        let builder = ModelBuilder {
            prog: Program::new(function.name.clone(), function.params.clone()),
            iter_count: 0,
            brk_count: 0,
        };
        builder.lower(function)
    }

    fn lower(mut self, function: &SurfaceFunction) -> Result<Program, LowerError> {
        for special_var in special::always_present() {
            self.prog.add_var(special_var);
        }
        for param in &function.params {
            self.prog.add_var(param);
        }
        let out = self.lower_seq(&function.body, false, Vec::new(), None, function.line)?;
        self.prog.init = out.entry;
        for (loc, branch) in out.exits {
            self.set_single_succ(loc, branch, Succ::End);
        }
        self.prog.signature = out.sigs;
        // Register every variable appearing in any update expression.
        let mut names = Vec::new();
        for loc in self.prog.locs().collect::<Vec<_>>() {
            for (var, expr) in self.prog.updates_at(loc) {
                names.push(var.clone());
                names.extend(expr.variables());
            }
        }
        for name in names {
            self.prog.add_var(&name);
        }
        Ok(self.prog)
    }

    fn set_single_succ(&mut self, loc: Loc, branch: bool, target: Succ) {
        let other = self.prog.succ(loc, !branch);
        if branch {
            self.prog.set_succ(loc, target, other);
        } else {
            self.prog.set_succ(loc, other, target);
        }
    }

    fn connect(&mut self, pending: &[(Loc, bool)], target: Loc) {
        for (loc, branch) in pending {
            self.set_single_succ(*loc, *branch, Succ::Loc(target));
        }
    }

    /// Lowers a statement sequence, returning its entry location and dangling
    /// exit edges.
    fn lower_seq(
        &mut self,
        stmts: &[SurfaceStmt],
        entry_maybe_returned: bool,
        first_prelude: Vec<(String, Expr, u32)>,
        brk_flag: Option<String>,
        anchor_line: u32,
    ) -> Result<SeqOut, LowerError> {
        let mut sigs = Vec::new();
        let mut entry: Option<Loc> = None;
        let mut pending: Vec<(Loc, bool)> = Vec::new();
        let mut maybe_returned = entry_maybe_returned;
        let mut prelude = first_prelude;
        let mut remaining = stmts;

        loop {
            let split = remaining.iter().position(SurfaceStmt::contains_loop);
            let (chunk, loopy, rest) = match split {
                Some(i) => (&remaining[..i], Some(&remaining[i]), &remaining[i + 1..]),
                None => (remaining, None, &remaining[..0]),
            };
            let chunk_line =
                chunk.first().map(SurfaceStmt::line).or(loopy.map(SurfaceStmt::line)).unwrap_or(anchor_line);

            match loopy {
                None => {
                    // Trailing block of the sequence.
                    let ctx = self.lower_block(
                        chunk,
                        std::mem::take(&mut prelude),
                        maybe_returned,
                        brk_flag.clone(),
                    )?;
                    let loc = self.emit_block(LocKind::Block, chunk_line, "block", &ctx);
                    self.connect(&pending, loc);
                    entry.get_or_insert(loc);
                    sigs.push(StructSig::Block);
                    maybe_returned |= ctx.maybe_returned;
                    return Ok(SeqOut {
                        entry: entry.expect("at least one location was emitted"),
                        exits: vec![(loc, true), (loc, false)],
                        sigs,
                        maybe_returned,
                    });
                }
                Some(stmt @ (SurfaceStmt::ForEach { .. } | SurfaceStmt::While { .. })) => {
                    let (loop_line, body) = match stmt {
                        SurfaceStmt::ForEach { line, body, .. } | SurfaceStmt::While { line, body, .. } => {
                            (*line, body)
                        }
                        _ => unreachable!("matched above"),
                    };
                    let body_has_loop = body.iter().any(SurfaceStmt::contains_loop);
                    let body_has_break = contains_break_or_continue(body);
                    if body_has_break && body_has_loop {
                        return Err(LowerError::new(
                            loop_line,
                            "break/continue inside a loop body that contains nested loops is not supported",
                        ));
                    }
                    let body_has_return = contains_return(body);

                    // Block before the loop.
                    let mut ctx = self.lower_block(
                        chunk,
                        std::mem::take(&mut prelude),
                        maybe_returned,
                        brk_flag.clone(),
                    )?;
                    let maybe_returned_before = maybe_returned || ctx.maybe_returned;

                    // Loop-specific initialisation appended to the before-block.
                    let (cond_expr, body_prelude) = match stmt {
                        SurfaceStmt::ForEach { var, iter, line, .. } => {
                            self.iter_count += 1;
                            let it = format!("#it{}", self.iter_count);
                            let iter_value = ctx.subst(iter);
                            ctx.assign(&it, iter_value, *line)?;
                            let cond = Expr::bin(
                                BinOp::Gt,
                                Expr::call("len", vec![Expr::var(it.clone())]),
                                Expr::int(0),
                            );
                            let prelude = vec![
                                (var.clone(), Expr::call("head", vec![Expr::var(it.clone())]), *line),
                                (it.clone(), Expr::call("tail", vec![Expr::var(it.clone())]), *line),
                            ];
                            (cond, prelude)
                        }
                        SurfaceStmt::While { cond, .. } => (cond.clone(), Vec::new()),
                        _ => unreachable!("matched above"),
                    };
                    let mut inner_brk = None;
                    if body_has_break {
                        self.brk_count += 1;
                        let flag = format!("#brk{}", self.brk_count);
                        ctx.assign(&flag, FALSE, loop_line)?;
                        inner_brk = Some(flag);
                    }

                    let before = self.emit_block(LocKind::Block, chunk_line, "before the loop", &ctx);
                    self.connect(&pending, before);
                    entry.get_or_insert(before);

                    // Loop-condition location.
                    let mut cond = cond_expr;
                    if let Some(flag) = &inner_brk {
                        cond = make_and(make_not(Expr::var(flag.clone())), cond);
                    }
                    if maybe_returned_before || body_has_return {
                        cond = make_and(make_not(Expr::var(special::RET_FLAG)), cond);
                    }
                    let cond_loc = self.prog.add_location(LocInfo {
                        kind: LocKind::LoopCond,
                        line: loop_line,
                        description: format!("the loop condition at line {loop_line}"),
                    });
                    check_composed(&cond, loop_line)?;
                    self.prog.set_update(cond_loc, special::COND, cond, loop_line);
                    self.prog.set_succ(before, Succ::Loc(cond_loc), Succ::Loc(cond_loc));

                    // Loop body.
                    let body_out = self.lower_seq(body, false, body_prelude, inner_brk.clone(), loop_line)?;
                    self.set_single_succ(cond_loc, true, Succ::Loc(body_out.entry));
                    for (loc, branch) in &body_out.exits {
                        self.set_single_succ(*loc, *branch, Succ::Loc(cond_loc));
                    }

                    sigs.push(StructSig::Block);
                    sigs.push(StructSig::Loop(body_out.sigs));
                    pending = vec![(cond_loc, false)];
                    maybe_returned = maybe_returned_before || body_out.maybe_returned;
                    remaining = rest;
                }
                Some(SurfaceStmt::If { cond, then_body, else_body, line }) => {
                    let ctx = self.lower_block(
                        chunk,
                        std::mem::take(&mut prelude),
                        maybe_returned,
                        brk_flag.clone(),
                    )?;
                    let maybe_returned_here = maybe_returned || ctx.maybe_returned;
                    let mut branch_cond = ctx.subst(cond);
                    if !is_true(&ctx.guard) {
                        branch_cond = make_ite(ctx.guard.clone(), branch_cond, FALSE);
                    }
                    check_composed(&branch_cond, *line)?;
                    let branch_loc = self.emit_block(LocKind::Branch, chunk_line, "before the branch", &ctx);
                    self.prog.set_update(branch_loc, special::COND, branch_cond, *line);
                    self.connect(&pending, branch_loc);
                    entry.get_or_insert(branch_loc);

                    let then_out =
                        self.lower_seq(then_body, maybe_returned_here, Vec::new(), brk_flag.clone(), *line)?;
                    let else_out =
                        self.lower_seq(else_body, maybe_returned_here, Vec::new(), brk_flag.clone(), *line)?;
                    self.prog.set_succ(branch_loc, Succ::Loc(then_out.entry), Succ::Loc(else_out.entry));

                    sigs.push(StructSig::Branch(then_out.sigs, else_out.sigs));
                    pending = then_out.exits.into_iter().chain(else_out.exits).collect();
                    maybe_returned =
                        maybe_returned_here || then_out.maybe_returned || else_out.maybe_returned;
                    remaining = rest;
                }
                Some(other) => {
                    return Err(LowerError::new(other.line(), "unexpected loop-carrying statement"));
                }
            }
        }
    }

    /// Emits a block location with the updates accumulated in `ctx`.
    fn emit_block(&mut self, kind: LocKind, line: u32, what: &str, ctx: &BlockCtx) -> Loc {
        let loc =
            self.prog.add_location(LocInfo { kind, line, description: format!("{what} at line {line}") });
        for (var, expr) in &ctx.env {
            let stmt_line = ctx.lines.get(var).copied().unwrap_or(line);
            self.prog.set_update(loc, var, expr.clone(), stmt_line);
        }
        loc
    }

    /// Composes a loop-free statement chunk into a single symbolic update
    /// environment (one location of the model).
    fn lower_block(
        &mut self,
        chunk: &[SurfaceStmt],
        prelude: Vec<(String, Expr, u32)>,
        entry_maybe_returned: bool,
        brk_flag: Option<String>,
    ) -> Result<BlockCtx, LowerError> {
        let mut ctx = BlockCtx::new(brk_flag);
        if entry_maybe_returned {
            ctx.guard = make_not(Expr::var(special::RET_FLAG));
        }
        for (var, expr, line) in prelude {
            // Loop preludes (iterator advance) happen unconditionally: the
            // loop condition already encodes every reason not to enter the
            // body.
            let composed = ctx.subst(&expr);
            let saved_guard = std::mem::replace(&mut ctx.guard, TRUE);
            ctx.assign(&var, composed, line)?;
            ctx.guard = saved_guard;
        }
        self.lower_stmts(chunk, &mut ctx)?;
        Ok(ctx)
    }

    fn lower_stmts(&mut self, stmts: &[SurfaceStmt], ctx: &mut BlockCtx) -> Result<(), LowerError> {
        for stmt in stmts {
            self.lower_stmt(stmt, ctx)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &SurfaceStmt, ctx: &mut BlockCtx) -> Result<(), LowerError> {
        match stmt {
            SurfaceStmt::Assign { var, value, line } => {
                let composed = ctx.subst(value);
                ctx.assign(var, composed, *line)?;
            }
            SurfaceStmt::If { cond, then_body, else_body, line } => {
                // If control may already have left (earlier return/break), the
                // condition must not be evaluated: guard it so the composed
                // expression cannot introduce spurious evaluation errors.
                let mut branch_cond = ctx.subst(cond);
                if !is_true(&ctx.guard) {
                    branch_cond = make_ite(ctx.guard.clone(), branch_cond, FALSE);
                }
                check_composed(&branch_cond, *line)?;
                let mut then_ctx = ctx.clone();
                let mut else_ctx = ctx.clone();
                self.lower_stmts(then_body, &mut then_ctx)?;
                self.lower_stmts(else_body, &mut else_ctx)?;
                // Merge the two branch environments with `ite`.
                let mut vars: Vec<String> = then_ctx.env.keys().cloned().collect();
                for var in else_ctx.env.keys() {
                    if !vars.contains(var) {
                        vars.push(var.clone());
                    }
                }
                for var in vars {
                    let then_value = then_ctx.current(&var);
                    let else_value = else_ctx.current(&var);
                    if then_value == else_value {
                        ctx.env.insert(var.clone(), then_value);
                    } else {
                        let merged = make_ite(branch_cond.clone(), then_value, else_value);
                        check_composed(&merged, stmt.line())?;
                        ctx.env.insert(var.clone(), merged);
                    }
                    let line = then_ctx
                        .lines
                        .get(&var)
                        .or_else(|| else_ctx.lines.get(&var))
                        .copied()
                        .unwrap_or(stmt.line());
                    ctx.lines.insert(var, line);
                }
                ctx.guard = make_ite(branch_cond, then_ctx.guard, else_ctx.guard);
                check_composed(&ctx.guard, stmt.line())?;
                ctx.maybe_returned |= then_ctx.maybe_returned || else_ctx.maybe_returned;
            }
            SurfaceStmt::Return { value, line } => {
                let rv = ctx.subst(value);
                ctx.assign(special::RETURN, rv, *line)?;
                ctx.assign(special::RET_FLAG, TRUE, *line)?;
                ctx.maybe_returned = true;
                ctx.guard = FALSE;
            }
            SurfaceStmt::Output { pieces, line } => {
                let mut composed = vec![ctx.current(special::OUT)];
                composed.extend(pieces.iter().map(|piece| ctx.subst(piece)));
                ctx.assign(special::OUT, Expr::call("concat", composed), *line)?;
            }
            SurfaceStmt::Nop { .. } => {}
            SurfaceStmt::Break { line } => {
                let flag =
                    ctx.brk_flag.clone().ok_or_else(|| LowerError::new(*line, "break outside of a loop"))?;
                ctx.assign(&flag, TRUE, *line)?;
                ctx.guard = FALSE;
            }
            SurfaceStmt::Continue { .. } => {
                ctx.guard = FALSE;
            }
            SurfaceStmt::While { line, .. } | SurfaceStmt::ForEach { line, .. } => {
                return Err(LowerError::new(*line, "internal error: loop statement reached block lowering"));
            }
        }
        Ok(())
    }
}

fn contains_return(stmts: &[SurfaceStmt]) -> bool {
    stmts.iter().any(|s| match s {
        SurfaceStmt::Return { .. } => true,
        SurfaceStmt::If { then_body, else_body, .. } => {
            contains_return(then_body) || contains_return(else_body)
        }
        SurfaceStmt::While { body, .. } | SurfaceStmt::ForEach { body, .. } => contains_return(body),
        _ => false,
    })
}

fn contains_break_or_continue(stmts: &[SurfaceStmt]) -> bool {
    stmts.iter().any(|s| match s {
        SurfaceStmt::Break { .. } | SurfaceStmt::Continue { .. } => true,
        SurfaceStmt::If { then_body, else_body, .. } => {
            contains_break_or_continue(then_body) || contains_break_or_continue(else_body)
        }
        // break/continue inside a *nested* loop belong to that loop.
        SurfaceStmt::While { .. } | SurfaceStmt::ForEach { .. } => false,
        _ => false,
    })
}
