//! # clara-autograder — the AutoGrader-style baseline
//!
//! The paper compares Clara against AutoGrader (Singh et al., PLDI 2013),
//! which repairs an incorrect student attempt by searching over a teacher
//! provided *error model*: a set of expression rewrite rules that describe
//! typical student mistakes. This crate re-implements that approach at the
//! granularity needed for the Table 1 / Fig. 7 comparison:
//!
//! * an [`ErrorModel`] is a set of rewrite rules applied to the expressions
//!   of the incorrect attempt (the MOOC-scaled "weak" model omits the more
//!   expensive rules, exactly as described in §6.2.1);
//! * the search tries every combination of at most `max_edits` single-site
//!   rewrites and accepts the first candidate that passes the full test
//!   suite, preferring candidates that modify fewer expressions;
//! * like the original, the baseline can neither introduce fresh variables
//!   nor add new statements — the fundamental limitations discussed in
//!   Appendix B of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use clara_lang::ast::{BinOp, Expr, Lit, SourceProgram, Stmt, Target};
use clara_lang::ProblemSpec;

/// Which rewrite rules the error model contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorModel {
    /// The MOOC-scaled model used in the paper's comparison: cheap,
    /// single-token rewrites only (constants, comparison operators,
    /// `range` bounds, index offsets).
    Weak,
    /// The full model: additionally rewrites variables to other variables,
    /// wraps values in conversions, and perturbs arithmetic.
    Full,
}

/// Configuration of the baseline repair search.
#[derive(Debug, Clone)]
pub struct AutoGraderConfig {
    /// The error model to use.
    pub model: ErrorModel,
    /// Maximum number of simultaneously rewritten expression sites.
    pub max_edits: usize,
    /// Upper bound on the number of candidate programs graded before giving
    /// up (keeps the search interactive, as in the MOOC-scaled deployment).
    pub max_candidates: usize,
}

impl Default for AutoGraderConfig {
    fn default() -> Self {
        AutoGraderConfig { model: ErrorModel::Weak, max_edits: 2, max_candidates: 50_000 }
    }
}

/// One applied rewrite.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedRewrite {
    /// Source line of the rewritten expression.
    pub line: u32,
    /// The original expression.
    pub old: Expr,
    /// The replacement expression.
    pub new: Expr,
    /// Name of the rewrite rule that produced the replacement.
    pub rule: &'static str,
}

/// A successful baseline repair.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoGraderRepair {
    /// The rewrites that were applied (one per modified expression).
    pub rewrites: Vec<AppliedRewrite>,
    /// The repaired program.
    pub repaired: SourceProgram,
    /// Number of candidate programs that were graded during the search.
    pub candidates_tried: usize,
}

impl AutoGraderRepair {
    /// Number of modified expressions (the Fig. 7 metric).
    pub fn modified_expression_count(&self) -> usize {
        self.rewrites.len()
    }
}

/// The AutoGrader-style baseline repairer.
#[derive(Debug, Clone, Default)]
pub struct AutoGrader {
    config: AutoGraderConfig,
}

impl AutoGrader {
    /// Creates a baseline repairer with the given configuration.
    pub fn new(config: AutoGraderConfig) -> Self {
        AutoGrader { config }
    }

    /// Creates the MOOC-scaled (weak error model) baseline used in the
    /// paper's comparison.
    pub fn mooc_scaled() -> Self {
        AutoGrader::new(AutoGraderConfig::default())
    }

    /// Attempts to repair `attempt` so that it passes every test of `spec`.
    ///
    /// Returns `None` when no combination of at most `max_edits` rewrites
    /// from the error model fixes the attempt (or the candidate budget runs
    /// out) — these are the "AutoGrader fails" cases of §6.2.1.
    pub fn repair(&self, attempt: &SourceProgram, spec: &ProblemSpec) -> Option<AutoGraderRepair> {
        if spec.is_correct(attempt) {
            return Some(AutoGraderRepair {
                rewrites: Vec::new(),
                repaired: attempt.clone(),
                candidates_tried: 0,
            });
        }
        let sites = collect_sites(attempt);
        let program_vars = collect_variables(attempt);
        // Candidate rewrites per site.
        let mut per_site: Vec<Vec<(Expr, &'static str)>> = Vec::with_capacity(sites.len());
        for site in &sites {
            per_site.push(expression_variants(&site.expr, self.config.model, &program_vars));
        }

        let mut tried = 0usize;

        // Breadth-first in the number of edits: single-site rewrites first,
        // then pairs, then triples.
        for edits in 1..=self.config.max_edits {
            let mut chosen: Vec<usize> = Vec::new();
            if let Some(repair) =
                self.search_combinations(attempt, spec, &sites, &per_site, 0, edits, &mut chosen, &mut tried)
            {
                return Some(repair);
            }
            if tried >= self.config.max_candidates {
                return None;
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn search_combinations(
        &self,
        attempt: &SourceProgram,
        spec: &ProblemSpec,
        sites: &[Site],
        per_site: &[Vec<(Expr, &'static str)>],
        start: usize,
        remaining: usize,
        chosen: &mut Vec<usize>,
        tried: &mut usize,
    ) -> Option<AutoGraderRepair> {
        if remaining == 0 {
            return None;
        }
        for site_index in start..sites.len() {
            for (variant_index, (variant, rule)) in per_site[site_index].iter().enumerate() {
                if *tried >= self.config.max_candidates {
                    return None;
                }
                chosen.push(site_index);
                let mut replacements: Vec<(usize, Expr, &'static str)> = chosen
                    .iter()
                    .map(|&s| {
                        if s == site_index {
                            (s, variant.clone(), *rule)
                        } else {
                            // Placeholder, replaced below for previously chosen
                            // sites.
                            (s, Expr::int(0), "")
                        }
                    })
                    .collect();
                // For multi-edit combinations we recurse with the current
                // variant fixed; single-edit case applies it directly.
                if remaining == 1 {
                    replacements.truncate(0);
                    replacements.push((site_index, variant.clone(), *rule));
                    let candidate = apply_replacements(attempt, sites, &replacements);
                    *tried += 1;
                    if spec.is_correct(&candidate) {
                        let rewrites = replacements
                            .iter()
                            .map(|(s, new, rule)| AppliedRewrite {
                                line: sites[*s].line,
                                old: sites[*s].expr.clone(),
                                new: new.clone(),
                                rule,
                            })
                            .collect();
                        return Some(AutoGraderRepair {
                            rewrites,
                            repaired: candidate,
                            candidates_tried: *tried,
                        });
                    }
                } else {
                    // Fix this (site, variant) and search for the remaining
                    // edits among later sites.
                    if let Some(mut repair) = self.search_with_prefix(
                        attempt,
                        spec,
                        sites,
                        per_site,
                        site_index,
                        variant_index,
                        remaining - 1,
                        tried,
                    ) {
                        repair.candidates_tried = *tried;
                        chosen.pop();
                        return Some(repair);
                    }
                }
                chosen.pop();
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn search_with_prefix(
        &self,
        attempt: &SourceProgram,
        spec: &ProblemSpec,
        sites: &[Site],
        per_site: &[Vec<(Expr, &'static str)>],
        fixed_site: usize,
        fixed_variant: usize,
        remaining: usize,
        tried: &mut usize,
    ) -> Option<AutoGraderRepair> {
        // Only pairs (and small triples) are searched; deeper nesting reuses
        // the same helper recursively.
        for site_index in (fixed_site + 1)..sites.len() {
            for (variant, rule) in &per_site[site_index] {
                if *tried >= self.config.max_candidates {
                    return None;
                }
                let mut replacements = vec![
                    (
                        fixed_site,
                        per_site[fixed_site][fixed_variant].0.clone(),
                        per_site[fixed_site][fixed_variant].1,
                    ),
                    (site_index, variant.clone(), *rule),
                ];
                if remaining > 1 {
                    // Three simultaneous edits: try every third site after
                    // this one.
                    for (third_site, third_variants) in per_site.iter().enumerate().skip(site_index + 1) {
                        for (third_variant, third_rule) in third_variants {
                            if *tried >= self.config.max_candidates {
                                return None;
                            }
                            let mut with_third = replacements.clone();
                            with_third.push((third_site, third_variant.clone(), *third_rule));
                            let candidate = apply_replacements(attempt, sites, &with_third);
                            *tried += 1;
                            if spec.is_correct(&candidate) {
                                return Some(make_repair(sites, &with_third, candidate, *tried));
                            }
                        }
                    }
                } else {
                    let candidate = apply_replacements(attempt, sites, &replacements);
                    *tried += 1;
                    if spec.is_correct(&candidate) {
                        return Some(make_repair(sites, &replacements, candidate, *tried));
                    }
                }
                replacements.clear();
            }
        }
        None
    }
}

fn make_repair(
    sites: &[Site],
    replacements: &[(usize, Expr, &'static str)],
    repaired: SourceProgram,
    tried: usize,
) -> AutoGraderRepair {
    AutoGraderRepair {
        rewrites: replacements
            .iter()
            .map(|(s, new, rule)| AppliedRewrite {
                line: sites[*s].line,
                old: sites[*s].expr.clone(),
                new: new.clone(),
                rule,
            })
            .collect(),
        repaired,
        candidates_tried: tried,
    }
}

/// An expression site that the error model may rewrite.
#[derive(Debug, Clone)]
struct Site {
    index: usize,
    line: u32,
    expr: Expr,
}

/// Collects every rewritable expression site of a program, in a deterministic
/// pre-order.
fn collect_sites(program: &SourceProgram) -> Vec<Site> {
    let mut sites = Vec::new();
    let mut counter = 0usize;
    let mut collect = |expr: &Expr, line: u32, sites: &mut Vec<Site>| {
        sites.push(Site { index: counter, line, expr: expr.clone() });
        counter += 1;
    };
    fn walk(stmts: &[Stmt], collect: &mut dyn FnMut(&Expr, u32, &mut Vec<Site>), sites: &mut Vec<Site>) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { value, target, line, .. } => {
                    if let Target::Index(_, index) = target {
                        collect(index, *line, sites);
                    }
                    collect(value, *line, sites);
                }
                Stmt::If { cond, then_body, else_body, line } => {
                    collect(cond, *line, sites);
                    walk(then_body, collect, sites);
                    walk(else_body, collect, sites);
                }
                Stmt::While { cond, body, line } => {
                    collect(cond, *line, sites);
                    walk(body, collect, sites);
                }
                Stmt::For { iter, body, line, .. } => {
                    collect(iter, *line, sites);
                    walk(body, collect, sites);
                }
                Stmt::Return { value: Some(value), line } => collect(value, *line, sites),
                Stmt::Print { args, line } => {
                    for arg in args {
                        collect(arg, *line, sites);
                    }
                }
                Stmt::ExprStmt { expr, line } => collect(expr, *line, sites),
                _ => {}
            }
        }
    }
    for function in &program.functions {
        walk(&function.body, &mut collect, &mut sites);
    }
    sites
}

/// Replaces the chosen sites and returns the rewritten program.
fn apply_replacements(
    program: &SourceProgram,
    sites: &[Site],
    replacements: &[(usize, Expr, &'static str)],
) -> SourceProgram {
    let mut result = program.clone();
    let mut counter = 0usize;
    fn walk(stmts: &mut [Stmt], counter: &mut usize, apply: &dyn Fn(usize, &Expr) -> Option<Expr>) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { value, target, .. } => {
                    if let Target::Index(_, index) = target {
                        if let Some(new) = apply(*counter, index) {
                            *index = new;
                        }
                        *counter += 1;
                    }
                    if let Some(new) = apply(*counter, value) {
                        *value = new;
                    }
                    *counter += 1;
                }
                Stmt::If { cond, then_body, else_body, .. } => {
                    if let Some(new) = apply(*counter, cond) {
                        *cond = new;
                    }
                    *counter += 1;
                    walk(then_body, counter, apply);
                    walk(else_body, counter, apply);
                }
                Stmt::While { cond, body, .. } => {
                    if let Some(new) = apply(*counter, cond) {
                        *cond = new;
                    }
                    *counter += 1;
                    walk(body, counter, apply);
                }
                Stmt::For { iter, body, .. } => {
                    if let Some(new) = apply(*counter, iter) {
                        *iter = new;
                    }
                    *counter += 1;
                    walk(body, counter, apply);
                }
                Stmt::Return { value: Some(value), .. } => {
                    if let Some(new) = apply(*counter, value) {
                        *value = new;
                    }
                    *counter += 1;
                }
                Stmt::Print { args, .. } => {
                    for arg in args {
                        if let Some(new) = apply(*counter, arg) {
                            *arg = new;
                        }
                        *counter += 1;
                    }
                }
                Stmt::ExprStmt { expr, .. } => {
                    if let Some(new) = apply(*counter, expr) {
                        *expr = new;
                    }
                    *counter += 1;
                }
                _ => {}
            }
        }
    }
    let apply = |index: usize, _old: &Expr| -> Option<Expr> {
        replacements.iter().find(|(s, _, _)| sites[*s].index == index).map(|(_, new, _)| new.clone())
    };
    for function in &mut result.functions {
        walk(&mut function.body, &mut counter, &apply);
    }
    result
}

/// Collects the variable names appearing anywhere in the program (used by the
/// full error model's variable-replacement rule).
fn collect_variables(program: &SourceProgram) -> Vec<String> {
    let mut vars = Vec::new();
    fn walk(stmts: &[Stmt], vars: &mut Vec<String>) {
        let push = |name: &str, vars: &mut Vec<String>| {
            if !vars.iter().any(|v| v == name) {
                vars.push(name.to_owned());
            }
        };
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, value, .. } => {
                    push(target.base_name(), vars);
                    for v in value.variables() {
                        push(&v, vars);
                    }
                }
                Stmt::If { cond, then_body, else_body, .. } => {
                    for v in cond.variables() {
                        push(&v, vars);
                    }
                    walk(then_body, vars);
                    walk(else_body, vars);
                }
                Stmt::While { cond, body, .. } => {
                    for v in cond.variables() {
                        push(&v, vars);
                    }
                    walk(body, vars);
                }
                Stmt::For { var, iter, body, .. } => {
                    push(var, vars);
                    for v in iter.variables() {
                        push(&v, vars);
                    }
                    walk(body, vars);
                }
                Stmt::Return { value: Some(value), .. } => {
                    for v in value.variables() {
                        push(&v, vars);
                    }
                }
                Stmt::Print { args, .. } => {
                    for arg in args {
                        for v in arg.variables() {
                            push(&v, vars);
                        }
                    }
                }
                Stmt::ExprStmt { expr, .. } => {
                    for v in expr.variables() {
                        push(&v, vars);
                    }
                }
                _ => {}
            }
        }
    }
    for function in &program.functions {
        for param in &function.params {
            if !vars.iter().any(|v| v == param) {
                vars.push(param.clone());
            }
        }
        walk(&function.body, &mut vars);
    }
    vars
}

/// All single-rule variants of an expression under the error model. Rules are
/// applied at every sub-expression position, each application yielding one
/// variant of the whole expression.
pub fn expression_variants(
    expr: &Expr,
    model: ErrorModel,
    program_vars: &[String],
) -> Vec<(Expr, &'static str)> {
    let mut variants: Vec<(Expr, &'static str)> = Vec::new();
    rewrite_positions(expr, &mut |sub| single_node_rewrites(sub, model, program_vars), &mut variants);
    // Whole-expression rules.
    variants.push((Expr::List(vec![expr.clone()]), "wrap-in-list"));
    if model == ErrorModel::Full {
        variants.push((Expr::call("float", vec![expr.clone()]), "wrap-in-float"));
        variants.push((Expr::Unary(clara_lang::UnOp::Not, Box::new(expr.clone())), "negate"));
    }
    // De-duplicate (keep first rule name) and drop no-op variants.
    let mut seen = std::collections::HashSet::new();
    variants
        .into_iter()
        .filter(|(v, _)| v != expr)
        .filter(|(v, _)| seen.insert(clara_lang::expr_to_string(v)))
        .collect()
}

/// Applies `rules` at every sub-expression position of `expr`, producing one
/// whole-expression variant per rewrite.
fn rewrite_positions(
    expr: &Expr,
    rules: &mut dyn FnMut(&Expr) -> Vec<(Expr, &'static str)>,
    out: &mut Vec<(Expr, &'static str)>,
) {
    // Rewrites of the node itself.
    for (new_node, rule) in rules(expr) {
        out.push((new_node, rule));
    }
    // Rewrites of children, spliced back into the parent.
    let rebuild = |children: Vec<Expr>| -> Expr { rebuild_with_children(expr, &children) };
    let children = expr_children(expr);
    for (child_index, child) in children.iter().enumerate() {
        let mut child_variants = Vec::new();
        rewrite_positions(child, rules, &mut child_variants);
        for (new_child, rule) in child_variants {
            let mut new_children = children.clone();
            new_children[child_index] = new_child;
            out.push((rebuild(new_children), rule));
        }
    }
}

fn expr_children(expr: &Expr) -> Vec<Expr> {
    match expr {
        Expr::Lit(_) | Expr::Var(_) => Vec::new(),
        Expr::List(items) | Expr::Tuple(items) => items.clone(),
        Expr::Unary(_, inner) => vec![(**inner).clone()],
        Expr::Binary(_, lhs, rhs) => vec![(**lhs).clone(), (**rhs).clone()],
        Expr::Index(base, idx) => vec![(**base).clone(), (**idx).clone()],
        Expr::Slice(base, lo, hi) => {
            let mut out = vec![(**base).clone()];
            if let Some(lo) = lo {
                out.push((**lo).clone());
            }
            if let Some(hi) = hi {
                out.push((**hi).clone());
            }
            out
        }
        Expr::Call(_, args) => args.clone(),
        Expr::Method(recv, _, args) => {
            let mut out = vec![(**recv).clone()];
            out.extend(args.clone());
            out
        }
    }
}

fn rebuild_with_children(expr: &Expr, children: &[Expr]) -> Expr {
    match expr {
        Expr::Lit(_) | Expr::Var(_) => expr.clone(),
        Expr::List(_) => Expr::List(children.to_vec()),
        Expr::Tuple(_) => Expr::Tuple(children.to_vec()),
        Expr::Unary(op, _) => Expr::Unary(*op, Box::new(children[0].clone())),
        Expr::Binary(op, _, _) => {
            Expr::Binary(*op, Box::new(children[0].clone()), Box::new(children[1].clone()))
        }
        Expr::Index(_, _) => Expr::Index(Box::new(children[0].clone()), Box::new(children[1].clone())),
        Expr::Slice(_, lo, hi) => {
            let mut index = 1;
            let new_lo = lo.as_ref().map(|_| {
                let value = Box::new(children[index].clone());
                index += 1;
                value
            });
            let new_hi = hi.as_ref().map(|_| Box::new(children[index].clone()));
            Expr::Slice(Box::new(children[0].clone()), new_lo, new_hi)
        }
        Expr::Call(name, _) => Expr::Call(name.clone(), children.to_vec()),
        Expr::Method(_, name, _) => {
            Expr::Method(Box::new(children[0].clone()), name.clone(), children[1..].to_vec())
        }
    }
}

/// The per-node rewrite rules of the error model.
fn single_node_rewrites(
    expr: &Expr,
    model: ErrorModel,
    program_vars: &[String],
) -> Vec<(Expr, &'static str)> {
    let mut out = Vec::new();
    match expr {
        Expr::Lit(Lit::Int(k)) => {
            out.push((Expr::int(k + 1), "constant+1"));
            out.push((Expr::int(k - 1), "constant-1"));
            if *k != 0 {
                out.push((Expr::int(0), "constant->0"));
            }
            if *k != 1 {
                out.push((Expr::int(1), "constant->1"));
            }
        }
        Expr::Lit(Lit::Float(f)) => {
            out.push((Expr::List(vec![Expr::float(*f)]), "float->list"));
        }
        Expr::Binary(op, lhs, rhs) if op.is_comparison() => {
            for new_op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne] {
                if new_op != *op {
                    out.push((Expr::Binary(new_op, lhs.clone(), rhs.clone()), "comparison-swap"));
                }
            }
        }
        Expr::Call(name, args) if (name == "range" || name == "xrange") && !args.is_empty() => {
            if args.len() == 1 {
                out.push((Expr::Call(name.clone(), vec![Expr::int(1), args[0].clone()]), "range-start-1"));
                out.push((
                    Expr::Call(
                        name.clone(),
                        vec![Expr::int(0), Expr::bin(BinOp::Add, args[0].clone(), Expr::int(1))],
                    ),
                    "range-stop+1",
                ));
            } else if args.len() == 2 {
                out.push((Expr::Call(name.clone(), vec![args[1].clone()]), "range-drop-start"));
                out.push((
                    Expr::Call(
                        name.clone(),
                        vec![args[0].clone(), Expr::bin(BinOp::Add, args[1].clone(), Expr::int(1))],
                    ),
                    "range-stop+1",
                ));
                out.push((
                    Expr::Call(
                        name.clone(),
                        vec![Expr::bin(BinOp::Add, args[0].clone(), Expr::int(1)), args[1].clone()],
                    ),
                    "range-start+1",
                ));
            }
        }
        Expr::Index(base, idx) => {
            out.push((
                Expr::Index(base.clone(), Box::new(Expr::bin(BinOp::Sub, (**idx).clone(), Expr::int(1)))),
                "index-1",
            ));
            out.push((
                Expr::Index(base.clone(), Box::new(Expr::bin(BinOp::Add, (**idx).clone(), Expr::int(1)))),
                "index+1",
            ));
        }
        Expr::Binary(
            op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::FloorDiv),
            lhs,
            rhs,
        ) if model == ErrorModel::Full => {
            let swapped = match op {
                BinOp::Add => BinOp::Sub,
                BinOp::Sub => BinOp::Add,
                BinOp::Mul => BinOp::Div,
                BinOp::Div | BinOp::FloorDiv => BinOp::Mul,
                _ => unreachable!("guarded by the pattern"),
            };
            out.push((Expr::Binary(swapped, lhs.clone(), rhs.clone()), "operator-swap"));
        }
        Expr::Var(name) if model == ErrorModel::Full => {
            for other in program_vars {
                if other != name {
                    out.push((Expr::var(other.clone()), "variable-swap"));
                }
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lang::{parse_program, ProblemSpec, TestCase, Value};

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    fn derivatives_spec() -> ProblemSpec {
        ProblemSpec::new(
            "derivatives",
            "computeDeriv",
            vec![
                TestCase::returning(vec![poly(&[6.3, 7.6, 12.14])], poly(&[7.6, 24.28])),
                TestCase::returning(vec![poly(&[3.0])], poly(&[0.0])),
                TestCase::returning(vec![poly(&[1.0, 2.0, 3.0, 4.0])], poly(&[2.0, 6.0, 12.0])),
            ],
        )
    }

    #[test]
    fn repairs_a_single_token_mistake() {
        // Off-by-one range start: the weak model's bread and butter.
        let attempt = parse_program(
            "def computeDeriv(poly):\n    result = []\n    for e in range(len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        )
        .unwrap();
        let repair = AutoGrader::mooc_scaled().repair(&attempt, &derivatives_spec()).expect("repairable");
        assert_eq!(repair.modified_expression_count(), 1);
        assert!(repair.rewrites[0].rule.starts_with("range"));
        assert!(derivatives_spec().is_correct(&repair.repaired));
    }

    #[test]
    fn repairs_a_wrong_return_constant() {
        // Fig. 2(e): `return 0.0` instead of `return [0.0]`.
        let attempt = parse_program(
            "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
        )
        .unwrap();
        let repair = AutoGrader::mooc_scaled().repair(&attempt, &derivatives_spec()).expect("repairable");
        assert_eq!(repair.modified_expression_count(), 1);
        assert!(derivatives_spec().is_correct(&repair.repaired));
    }

    #[test]
    fn cannot_repair_structural_mistakes() {
        // Fig. 8: requires a fresh variable and new statements — beyond the
        // error model's power.
        let attempt = parse_program(
            "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        result = float(poly[e]*e)\n    return result\n",
        )
        .unwrap();
        assert!(AutoGrader::mooc_scaled().repair(&attempt, &derivatives_spec()).is_none());
    }

    #[test]
    fn correct_attempts_need_no_rewrites() {
        let attempt = parse_program(
            "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        )
        .unwrap();
        let repair = AutoGrader::mooc_scaled().repair(&attempt, &derivatives_spec()).unwrap();
        assert_eq!(repair.modified_expression_count(), 0);
    }

    #[test]
    fn two_site_repairs_are_found_with_two_edits() {
        // Both the range start and the return constant are wrong.
        let attempt = parse_program(
            "def computeDeriv(poly):\n    new = []\n    for i in xrange(len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
        )
        .unwrap();
        let grader = AutoGrader::new(AutoGraderConfig { max_edits: 2, ..AutoGraderConfig::default() });
        let repair = grader.repair(&attempt, &derivatives_spec()).expect("repairable with two edits");
        assert_eq!(repair.modified_expression_count(), 2);
        assert!(derivatives_spec().is_correct(&repair.repaired));
        // With a single edit it is not repairable.
        let single = AutoGrader::new(AutoGraderConfig { max_edits: 1, ..AutoGraderConfig::default() });
        assert!(single.repair(&attempt, &derivatives_spec()).is_none());
    }

    #[test]
    fn full_model_repairs_variable_misuse() {
        // `poly[n]` should have been `poly[e]`: a variable-for-variable swap,
        // which only the full error model contains.
        let attempt = parse_program(
            "def computeDeriv(poly):\n    result = []\n    n = len(poly)\n    for e in range(1, n):\n        result.append(float(poly[n]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        )
        .unwrap();
        let weak = AutoGrader::mooc_scaled();
        assert!(weak.repair(&attempt, &derivatives_spec()).is_none());
        let full =
            AutoGrader::new(AutoGraderConfig { model: ErrorModel::Full, ..AutoGraderConfig::default() });
        let repair = full.repair(&attempt, &derivatives_spec()).expect("full model repairs variable misuse");
        assert!(derivatives_spec().is_correct(&repair.repaired));
    }

    #[test]
    fn variant_generation_is_deduplicated() {
        let expr = clara_lang::parse_expression("range(1, len(poly))").unwrap();
        let variants = expression_variants(&expr, ErrorModel::Weak, &[]);
        let rendered: Vec<String> = variants.iter().map(|(e, _)| clara_lang::expr_to_string(e)).collect();
        let unique: std::collections::HashSet<&String> = rendered.iter().collect();
        assert_eq!(rendered.len(), unique.len());
        assert!(!rendered.iter().any(|r| r == "range(1, len(poly))"));
    }
}
