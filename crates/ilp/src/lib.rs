//! # clara-ilp — an exact 0-1 integer linear programming solver
//!
//! Clara selects a minimal-cost consistent set of local repairs by encoding
//! the problem as a Zero-One ILP (Definition 5.5) and handing it to an
//! off-the-shelf solver (`lpsolve` in the original implementation). This
//! crate provides that substrate: a small, exact branch-and-bound solver for
//! 0-1 ILPs with integer coefficients.
//!
//! The solver is exact — it always returns an optimal solution if one exists
//! — and is designed for the problem shapes Clara produces: a few dozen
//! binary variables, "exactly one of these" rows, and implication rows
//! `x_p ≥ x_r`. It nevertheless handles arbitrary `=` / `≥` constraints with
//! integer coefficients.
//!
//! ```rust
//! use clara_ilp::{Cmp, IlpBuilder};
//!
//! // minimise 3a + b subject to a + b = 1
//! let mut ilp = IlpBuilder::new();
//! let a = ilp.add_var("a", 3);
//! let b = ilp.add_var("b", 1);
//! ilp.add_constraint(vec![(a, 1), (b, 1)], Cmp::Eq, 1);
//! let solution = ilp.solve().expect("feasible");
//! assert!(!solution.value(a) && solution.value(b));
//! assert_eq!(solution.objective, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// Index of a 0-1 variable in an [`IlpBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// The linear form must equal the right-hand side.
    Eq,
    /// The linear form must be greater than or equal to the right-hand side.
    Ge,
}

/// A linear constraint `Σ aᵢ·xᵢ (= | ≥) b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The terms `(variable, coefficient)`.
    pub terms: Vec<(VarId, i64)>,
    /// The comparison operator.
    pub cmp: Cmp,
    /// The right-hand side.
    pub rhs: i64,
}

/// A satisfying, objective-minimal assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The value of every variable.
    pub assignment: Vec<bool>,
    /// The objective value of the assignment.
    pub objective: i64,
}

impl Solution {
    /// The value assigned to `var`.
    pub fn value(&self, var: VarId) -> bool {
        self.assignment[var.0]
    }

    /// The variables assigned `true`.
    pub fn selected(&self) -> Vec<VarId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| if v { Some(VarId(i)) } else { None })
            .collect()
    }
}

/// Limits for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum number of explored branch-and-bound nodes.
    pub max_nodes: u64,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits { max_nodes: 2_000_000 }
    }
}

/// Error returned when the search budget is exhausted before optimality could
/// be proven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted;

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ILP node budget exhausted before proving optimality")
    }
}

impl std::error::Error for BudgetExhausted {}

/// Builder for (and solver of) a 0-1 ILP minimisation problem.
#[derive(Debug, Clone, Default)]
pub struct IlpBuilder {
    names: Vec<String>,
    weights: Vec<i64>,
    constraints: Vec<Constraint>,
}

impl IlpBuilder {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a 0-1 variable with the given objective weight (to be minimised)
    /// and returns its identifier. The name is only used for debugging.
    pub fn add_var(&mut self, name: impl Into<String>, weight: i64) -> VarId {
        self.names.push(name.into());
        self.weights.push(weight);
        VarId(self.names.len() - 1)
    }

    /// Number of variables added so far.
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints added so far.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The debug name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Adds the constraint `Σ coeff·var cmp rhs`.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, i64)>, cmp: Cmp, rhs: i64) {
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Convenience: adds `Σ vars = 1` ("exactly one of").
    pub fn add_exactly_one(&mut self, vars: &[VarId]) {
        self.add_constraint(vars.iter().map(|&v| (v, 1)).collect(), Cmp::Eq, 1);
    }

    /// Convenience: adds the implication `antecedent → consequent`, encoded
    /// as `-antecedent + consequent ≥ 0` (constraint (4) of Definition 5.5).
    pub fn add_implication(&mut self, antecedent: VarId, consequent: VarId) {
        self.add_constraint(vec![(antecedent, -1), (consequent, 1)], Cmp::Ge, 0);
    }

    /// Solves the problem with default limits. Returns `None` if infeasible.
    ///
    /// # Panics
    ///
    /// Panics if the default node budget is exhausted; use
    /// [`IlpBuilder::solve_with_limits`] to handle that case explicitly.
    pub fn solve(&self) -> Option<Solution> {
        self.solve_with_limits(SolveLimits::default()).expect("default ILP node budget exhausted")
    }

    /// Solves the problem. `Ok(None)` means the problem is infeasible.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if the node budget was reached before the
    /// search completed.
    pub fn solve_with_limits(&self, limits: SolveLimits) -> Result<Option<Solution>, BudgetExhausted> {
        // Var → constraints index so propagation only revisits constraints
        // whose support actually changed.
        let mut constraints_of: Vec<Vec<usize>> = vec![Vec::new(); self.names.len()];
        for (ci, constraint) in self.constraints.iter().enumerate() {
            for &(var, _) in &constraint.terms {
                if !constraints_of[var.0].contains(&ci) {
                    constraints_of[var.0].push(ci);
                }
            }
        }
        let mut solver = Solver {
            problem: self,
            constraints_of,
            assignment: vec![None; self.names.len()],
            in_queue: vec![false; self.constraints.len()],
            best: None,
            nodes: 0,
            limits,
        };
        solver.search(None)?;
        Ok(solver.best)
    }
}

struct Solver<'p> {
    problem: &'p IlpBuilder,
    /// For each variable, the constraints it occurs in.
    constraints_of: Vec<Vec<usize>>,
    assignment: Vec<Option<bool>>,
    /// Scratch de-duplication flags for the propagation worklist.
    in_queue: Vec<bool>,
    best: Option<Solution>,
    nodes: u64,
    limits: SolveLimits,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Propagation {
    /// Propagation completed; the set of forced assignments is recorded in
    /// the trail.
    Ok,
    /// The current partial assignment cannot be extended to a feasible one.
    Conflict,
}

impl Solver<'_> {
    /// Current objective of the fixed part plus an admissible lower bound for
    /// the free part: free variables contribute their weight only if negative
    /// (setting them to 0 is otherwise always possible), and every
    /// unsatisfied `= 1` row over variable-disjoint supports must still pay
    /// for its cheapest free variable. Disjointness (enforced greedily, each
    /// free variable counted for at most one row) keeps the bound admissible:
    /// a single selected variable can satisfy several overlapping rows while
    /// paying its weight once.
    fn lower_bound(&self, counted: &mut [bool]) -> i64 {
        let mut bound = 0;
        for (i, value) in self.assignment.iter().enumerate() {
            counted[i] = false;
            let w = self.problem.weights[i];
            match value {
                Some(true) => bound += w,
                Some(false) => {}
                None => {
                    if w < 0 {
                        bound += w;
                    }
                }
            }
        }
        'rows: for constraint in &self.problem.constraints {
            if constraint.cmp != Cmp::Eq || constraint.rhs != 1 {
                continue;
            }
            let mut fixed_sum = 0i64;
            let mut min_free: Option<i64> = None;
            for &(var, coeff) in &constraint.terms {
                match self.assignment[var.0] {
                    Some(true) => fixed_sum += coeff,
                    Some(false) => {}
                    None => {
                        if counted[var.0] {
                            // Overlaps a row already counted; skip the row.
                            continue 'rows;
                        }
                        if coeff == 1 {
                            let w = self.problem.weights[var.0].max(0);
                            min_free = Some(min_free.map_or(w, |m: i64| m.min(w)));
                        } else {
                            // Negative/other coefficients break the "must
                            // pay for one of these" reading; skip the row.
                            continue 'rows;
                        }
                    }
                }
            }
            if fixed_sum != 0 {
                continue;
            }
            if let Some(min_free) = min_free {
                bound += min_free;
                for &(var, _) in &constraint.terms {
                    if self.assignment[var.0].is_none() {
                        counted[var.0] = true;
                    }
                }
            }
        }
        bound
    }

    fn objective_of(&self, assignment: &[Option<bool>]) -> i64 {
        assignment
            .iter()
            .enumerate()
            .map(|(i, v)| if v == &Some(true) { self.problem.weights[i] } else { 0 })
            .sum()
    }

    /// Checks constraints under the current partial assignment and derives
    /// forced values (unit propagation). Returns the indices of variables it
    /// fixed so the caller can undo them.
    ///
    /// `seed` is the variable just branched on, if any: only the constraints
    /// containing it (transitively, through forced variables) can yield new
    /// information, so propagation walks a worklist instead of rescanning the
    /// whole constraint set to a fixpoint.
    fn propagate(&mut self, trail: &mut Vec<usize>, seed: Option<usize>) -> Propagation {
        let mut queue: Vec<usize> = match seed {
            Some(var) => {
                for &ci in &self.constraints_of[var] {
                    self.in_queue[ci] = true;
                }
                self.constraints_of[var].clone()
            }
            None => {
                for flag in self.in_queue.iter_mut() {
                    *flag = true;
                }
                (0..self.problem.constraints.len()).collect()
            }
        };
        let mut head = 0;
        while head < queue.len() {
            let ci = queue[head];
            head += 1;
            self.in_queue[ci] = false;
            let constraint = &self.problem.constraints[ci];
            let mut fixed_sum = 0i64;
            let mut free_pos = 0i64;
            let mut free_neg = 0i64;
            for &(var, coeff) in &constraint.terms {
                match self.assignment[var.0] {
                    Some(true) => fixed_sum += coeff,
                    Some(false) => {}
                    None => {
                        if coeff > 0 {
                            free_pos += coeff;
                        } else {
                            free_neg += coeff;
                        }
                    }
                }
            }
            let max = fixed_sum + free_pos;
            let min = fixed_sum + free_neg;
            let feasible = match constraint.cmp {
                Cmp::Eq => constraint.rhs >= min && constraint.rhs <= max,
                Cmp::Ge => max >= constraint.rhs,
            };
            if !feasible {
                for &ci in &queue[head..] {
                    self.in_queue[ci] = false;
                }
                return Propagation::Conflict;
            }
            // Forced assignments: a free variable whose two possible values
            // leave the constraint satisfiable in only one way.
            for term_index in 0..constraint.terms.len() {
                let constraint = &self.problem.constraints[ci];
                let (var, coeff) = constraint.terms[term_index];
                if self.assignment[var.0].is_some() {
                    continue;
                }
                let force = |value: bool| -> bool {
                    // Would fixing `var := value` make the constraint
                    // unsatisfiable regardless of the other free vars?
                    let delta = if value { coeff } else { 0 };
                    let rest_pos = free_pos - if coeff > 0 { coeff } else { 0 };
                    let rest_neg = free_neg - if coeff < 0 { coeff } else { 0 };
                    let new_max = fixed_sum + delta + rest_pos;
                    let new_min = fixed_sum + delta + rest_neg;
                    match constraint.cmp {
                        Cmp::Eq => !(constraint.rhs >= new_min && constraint.rhs <= new_max),
                        Cmp::Ge => new_max < constraint.rhs,
                    }
                };
                let true_bad = force(true);
                let false_bad = force(false);
                let forced = if true_bad && false_bad {
                    for &ci in &queue[head..] {
                        self.in_queue[ci] = false;
                    }
                    return Propagation::Conflict;
                } else if true_bad {
                    self.assignment[var.0] = Some(false);
                    false
                } else if false_bad {
                    self.assignment[var.0] = Some(true);
                    true
                } else {
                    continue;
                };
                trail.push(var.0);
                // The constraint's own free/fixed split changed.
                if forced {
                    fixed_sum += coeff;
                }
                if coeff > 0 {
                    free_pos -= coeff;
                } else {
                    free_neg -= coeff;
                }
                for &other in &self.constraints_of[var.0] {
                    if !self.in_queue[other] {
                        self.in_queue[other] = true;
                        queue.push(other);
                    }
                }
            }
        }
        Propagation::Ok
    }

    fn all_assigned(&self) -> bool {
        self.assignment.iter().all(Option::is_some)
    }

    fn pick_branch_var(&self) -> Option<usize> {
        // Prefer a free variable that occurs in a constraint (so propagation
        // has something to chew on), with the largest absolute weight to make
        // pruning effective; fall back to the first free variable.
        let mut best: Option<(usize, i64)> = None;
        for constraint in &self.problem.constraints {
            for &(var, _) in &constraint.terms {
                if self.assignment[var.0].is_none() {
                    let weight = self.problem.weights[var.0].abs();
                    if best.map(|(_, w)| weight > w).unwrap_or(true) {
                        best = Some((var.0, weight));
                    }
                }
            }
        }
        best.map(|(i, _)| i).or_else(|| self.assignment.iter().position(Option::is_none))
    }

    fn search(&mut self, branched: Option<usize>) -> Result<(), BudgetExhausted> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            return Err(BudgetExhausted);
        }
        let mut trail = Vec::new();
        match self.propagate(&mut trail, branched) {
            Propagation::Conflict => {
                self.undo(&trail);
                return Ok(());
            }
            Propagation::Ok => {}
        }
        // Prune by bound.
        if let Some(best_objective) = self.best.as_ref().map(|b| b.objective) {
            let mut counted = vec![false; self.assignment.len()];
            if self.lower_bound(&mut counted) >= best_objective {
                self.undo(&trail);
                return Ok(());
            }
        }
        if self.all_assigned() {
            // Feasibility was maintained by propagation; double-check anyway.
            if self.is_feasible() {
                let objective = self.objective_of(&self.assignment);
                let better = self.best.as_ref().map(|b| objective < b.objective).unwrap_or(true);
                if better {
                    self.best = Some(Solution {
                        assignment: self.assignment.iter().map(|v| v.unwrap_or(false)).collect(),
                        objective,
                    });
                }
            }
            self.undo(&trail);
            return Ok(());
        }
        let var = self.pick_branch_var().expect("some variable is unassigned");
        // Try the cheaper value first.
        let order = if self.problem.weights[var] >= 0 { [false, true] } else { [true, false] };
        for value in order {
            self.assignment[var] = Some(value);
            self.search(Some(var))?;
            self.assignment[var] = None;
        }
        self.undo(&trail);
        Ok(())
    }

    fn undo(&mut self, trail: &[usize]) {
        for &index in trail {
            self.assignment[index] = None;
        }
    }

    fn is_feasible(&self) -> bool {
        self.problem.constraints.iter().all(|constraint| {
            let sum: i64 = constraint
                .terms
                .iter()
                .map(|&(var, coeff)| if self.assignment[var.0] == Some(true) { coeff } else { 0 })
                .sum();
            match constraint.cmp {
                Cmp::Eq => sum == constraint.rhs,
                Cmp::Ge => sum >= constraint.rhs,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_cheaper_of_two() {
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var("a", 3);
        let b = ilp.add_var("b", 1);
        ilp.add_exactly_one(&[a, b]);
        let sol = ilp.solve().unwrap();
        assert!(sol.value(b));
        assert!(!sol.value(a));
        assert_eq!(sol.objective, 1);
    }

    #[test]
    fn infeasible_problem_returns_none() {
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var("a", 1);
        ilp.add_constraint(vec![(a, 1)], Cmp::Eq, 2);
        assert!(ilp.solve().is_none());
    }

    #[test]
    fn implication_forces_consequent() {
        let mut ilp = IlpBuilder::new();
        let r = ilp.add_var("r", 0);
        let p = ilp.add_var("p", 5);
        let q = ilp.add_var("q", 1);
        ilp.add_exactly_one(&[r]);
        ilp.add_implication(r, p);
        // q is free; minimisation should leave it 0, but p is forced by r.
        let _ = q;
        let sol = ilp.solve().unwrap();
        assert!(sol.value(r));
        assert!(sol.value(p));
        assert!(!sol.value(q));
        assert_eq!(sol.objective, 5);
    }

    #[test]
    fn assignment_problem_finds_minimal_matching() {
        // 3x3 assignment problem encoded Clara-style: row and column
        // exactly-one constraints over pair variables.
        let costs = [[4, 1, 3], [2, 0, 5], [3, 2, 2]];
        let mut ilp = IlpBuilder::new();
        let mut vars = [[VarId(0); 3]; 3];
        for (i, row) in costs.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                vars[i][j] = ilp.add_var(format!("x{i}{j}"), c);
            }
        }
        for (i, row) in vars.iter().enumerate() {
            ilp.add_exactly_one(row);
            let column: Vec<VarId> = (0..3).map(|r| vars[r][i]).collect();
            ilp.add_exactly_one(&column);
        }
        let sol = ilp.solve().unwrap();
        // Optimal assignment: (0,1)+(1,0)+(2,2) = 1 + 2 + 2 = 5.
        assert_eq!(sol.objective, 5);
        assert!(sol.value(vars[0][1]));
        assert!(sol.value(vars[1][0]));
        assert!(sol.value(vars[2][2]));
    }

    #[test]
    fn ge_constraints_force_coverage() {
        // Minimal set cover: elements {1,2,3}, sets A={1,2} cost 3, B={2,3}
        // cost 3, C={1,2,3} cost 5.
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var("A", 3);
        let b = ilp.add_var("B", 3);
        let c = ilp.add_var("C", 5);
        ilp.add_constraint(vec![(a, 1), (c, 1)], Cmp::Ge, 1); // element 1
        ilp.add_constraint(vec![(a, 1), (b, 1), (c, 1)], Cmp::Ge, 1); // element 2
        ilp.add_constraint(vec![(b, 1), (c, 1)], Cmp::Ge, 1); // element 3
        let sol = ilp.solve().unwrap();
        assert_eq!(sol.objective, 5);
        assert!(sol.value(c) || (sol.value(a) && sol.value(b)));
    }

    #[test]
    fn negative_weights_are_taken() {
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var("a", -2);
        let b = ilp.add_var("b", 4);
        let sol = ilp.solve().unwrap();
        assert!(sol.value(a));
        assert!(!sol.value(b));
        assert_eq!(sol.objective, -2);
    }

    #[test]
    fn empty_problem_has_empty_solution() {
        let ilp = IlpBuilder::new();
        let sol = ilp.solve().unwrap();
        assert_eq!(sol.objective, 0);
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut ilp = IlpBuilder::new();
        let vars: Vec<VarId> = (0..30).map(|i| ilp.add_var(format!("x{i}"), 1)).collect();
        for chunk in vars.chunks(3) {
            ilp.add_exactly_one(chunk);
        }
        let result = ilp.solve_with_limits(SolveLimits { max_nodes: 1 });
        assert_eq!(result, Err(BudgetExhausted));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Brute-force reference solver.
        fn brute_force(ilp: &IlpBuilder) -> Option<i64> {
            let n = ilp.var_count();
            let mut best: Option<i64> = None;
            for mask in 0u32..(1 << n) {
                let assignment: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                let feasible = ilp_constraints_hold(ilp, &assignment);
                if feasible {
                    let obj: i64 =
                        assignment.iter().enumerate().map(|(i, &v)| if v { ilp.weights[i] } else { 0 }).sum();
                    best = Some(best.map_or(obj, |b: i64| b.min(obj)));
                }
            }
            best
        }

        fn ilp_constraints_hold(ilp: &IlpBuilder, assignment: &[bool]) -> bool {
            ilp.constraints.iter().all(|constraint| {
                let sum: i64 = constraint
                    .terms
                    .iter()
                    .map(|&(var, coeff)| if assignment[var.0] { coeff } else { 0 })
                    .sum();
                match constraint.cmp {
                    Cmp::Eq => sum == constraint.rhs,
                    Cmp::Ge => sum >= constraint.rhs,
                }
            })
        }

        fn arb_ilp() -> impl Strategy<Value = IlpBuilder> {
            (2usize..8, 0usize..6).prop_flat_map(|(num_vars, num_constraints)| {
                let weights = prop::collection::vec(-5i64..10, num_vars);
                let constraints = prop::collection::vec(
                    (
                        prop::collection::vec(
                            (0..num_vars, prop_oneof![Just(1i64), Just(-1i64)]),
                            1..=num_vars.min(4),
                        ),
                        prop_oneof![Just(Cmp::Eq), Just(Cmp::Ge)],
                        -1i64..3,
                    ),
                    num_constraints,
                );
                (weights, constraints).prop_map(|(weights, constraints)| {
                    let mut ilp = IlpBuilder::new();
                    for (i, w) in weights.iter().enumerate() {
                        ilp.add_var(format!("x{i}"), *w);
                    }
                    for (terms, cmp, rhs) in constraints {
                        let terms: Vec<(VarId, i64)> =
                            terms.into_iter().map(|(v, c)| (VarId(v), c)).collect();
                        ilp.add_constraint(terms, cmp, rhs);
                    }
                    ilp
                })
            })
        }

        proptest! {
            #[test]
            fn matches_brute_force(ilp in arb_ilp()) {
                let expected = brute_force(&ilp);
                let actual = ilp.solve().map(|s| s.objective);
                prop_assert_eq!(actual, expected);
            }

            #[test]
            fn returned_solutions_are_feasible(ilp in arb_ilp()) {
                if let Some(sol) = ilp.solve() {
                    prop_assert!(ilp_constraints_hold(&ilp, &sol.assignment));
                }
            }
        }
    }
}
