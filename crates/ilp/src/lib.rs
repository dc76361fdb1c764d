//! # clara-ilp — an exact 0-1 integer linear programming solver
//!
//! Clara selects a minimal-cost consistent set of local repairs by encoding
//! the problem as a Zero-One ILP (Definition 5.5) and handing it to an
//! off-the-shelf solver (`lpsolve` in the original implementation). This
//! crate provides that substrate: an exact branch-and-bound solver for 0-1
//! ILPs with integer coefficients.
//!
//! Clara's problems are "exactly one of these" rows over variable-pair,
//! addition, deletion and local-repair variables, and implication rows
//! `x_p ≥ x_r`. They reach 1,720 variables and 4,847 constraints on the
//! bundled `rhombus` problem. The solver nevertheless handles arbitrary
//! `=` / `≥` constraints with integer coefficients.
//!
//! ## Two searches
//!
//! Both are depth-first branch and bound with unit propagation over a
//! precomputed branching order. Each constraint keeps its fixed sum and
//! its free positive and negative sums up to date as variables are assigned
//! and undone, so checking a constraint costs O(1), and its terms are
//! scanned only when its slack lets it force a variable.
//!
//! * [`IlpBuilder::minimum`] finds only the optimal objective. It branches
//!   first on the variables that occur in the most constraints (in Clara's
//!   ILPs the variable pairs), which reaches and proves the optimum in far
//!   fewer nodes than the canonical order below.
//! * [`IlpBuilder::exact_search`] finds the assignment. It walks the
//!   canonical order and, given the optimum, prunes every node whose lower
//!   bound exceeds it and stops at the first optimal leaf.
//!
//! [`IlpBuilder::solve_with_limits`] runs the first and then the second.
//!
//! ## Which optimum comes back
//!
//! When several assignments reach the optimum, the one returned is the
//! first in a fixed order. The canonical branching order ranks variables
//! by descending |weight|, ties by their first occurrence in the
//! constraints (in the order they were added), and puts variables that
//! occur in no constraint last, by index. Each variable takes its cheaper
//! value first (`false` unless its weight is negative). Feasible leaves are
//! then visited in the lexicographic order of their values along that
//! ranking, whatever the search prunes. The first optimal leaf in it is
//! therefore the same with or without a known optimum, and no bound above
//! the optimum can prune it. The earlier single-search solver returned the
//! same leaf; the tests check both searches against it.
//!
//! Clara's feedback depends on this. Two repairs of the same cost can read
//! differently: "change `c` to `a + b`" against "add a new variable … with
//! `a + b`". Only the canonical order keeps each attempt's feedback what it
//! was, so `minimum`'s own leaf is never returned.
//!
//! ```rust
//! use clara_ilp::{Cmp, IlpBuilder};
//!
//! // minimise 3a + b subject to a + b = 1
//! let mut ilp = IlpBuilder::new();
//! let a = ilp.add_var(3);
//! let b = ilp.add_var(1);
//! ilp.add_constraint(vec![(a, 1), (b, 1)], Cmp::Eq, 1);
//! let solution = ilp.solve().expect("feasible");
//! assert!(!solution.value(a) && solution.value(b));
//! assert_eq!(solution.objective, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cmp::Reverse;
use std::fmt;

#[cfg(test)]
mod reference;

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
    weights: Vec<i64>,
    constraints: Vec<Constraint>,
}

impl IlpBuilder {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a 0-1 variable with the given objective weight (to be minimised)
    /// and returns its identifier.
    pub fn add_var(&mut self, weight: i64) -> VarId {
        self.weights.push(weight);
        VarId(self.weights.len() - 1)
    }

    /// Number of variables added so far.
    pub fn var_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of constraints added so far.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
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

    /// Solves the problem: [`IlpBuilder::minimum`], then
    /// [`IlpBuilder::exact_search`] at that optimum. When `minimum` runs out
    /// of nodes, the exact search runs without a known optimum. `Ok(None)`
    /// means the problem is infeasible.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if the node budget was reached before the
    /// search completed.
    pub fn solve_with_limits(&self, limits: SolveLimits) -> Result<Option<Solution>, BudgetExhausted> {
        match self.minimum(limits) {
            Ok(None) => Ok(None),
            Ok(Some(optimum)) => self.exact_search(Some(optimum), limits),
            Err(BudgetExhausted) => self.exact_search(None, limits),
        }
    }

    /// The optimal objective, or `Ok(None)` if the problem is infeasible.
    /// Branches first on the variables that occur in the most constraints,
    /// and tries `true` first on variables of weight 0.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if the node budget was reached before the
    /// optimum was proven.
    pub fn minimum(&self, limits: SolveLimits) -> Result<Option<i64>, BudgetExhausted> {
        let mut search = Search::new(self, Order::Degree, limits);
        Ok(search.run(None)?.map(|solution| solution.objective))
    }

    /// The optimal assignment in the canonical order (see the crate docs).
    /// With `optimum`, which must be what [`IlpBuilder::minimum`] returned,
    /// the search prunes every node whose lower bound exceeds it and stops
    /// at the first optimal leaf, so it explores a subset of the nodes of
    /// the search without it and never runs out where that one does not.
    /// `Ok(None)` means the problem is infeasible.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if the node budget was reached before the
    /// search completed.
    pub fn exact_search(
        &self,
        optimum: Option<i64>,
        limits: SolveLimits,
    ) -> Result<Option<Solution>, BudgetExhausted> {
        Search::new(self, Order::Canonical, limits).run(optimum.map(|optimum| optimum.saturating_add(1)))
    }
}

/// The branching order a [`Search`] walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// Descending |weight|, then first occurrence: fixes which optimum comes
    /// back (see the crate docs).
    Canonical,
    /// Most constraints first, then the canonical order.
    Degree,
}

/// One constraint as the search sees it: fixed facts about its terms, and
/// running sums over them under the current partial assignment. A variable
/// that occurs twice in a constraint counts twice, as in the constraint.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    eq: bool,
    rhs: i64,
    /// The largest |coefficient|: a row whose slack reaches it cannot force
    /// any variable.
    max_coeff: i64,
    /// `… = 1`: the lower bound reads it.
    eq_one: bool,
    /// The largest nonnegative weight of its variables.
    max_weight: i64,
    /// Σ coefficients of the terms set true.
    fixed: i64,
    /// Σ positive coefficients of the free terms.
    free_pos: i64,
    /// Σ negative coefficients of the free terms.
    free_neg: i64,
    /// Number of free terms.
    free: u32,
    /// Number of free terms whose coefficient is not 1.
    free_non_unit: u32,
    /// Number of free terms whose variable's weight is not positive.
    free_costless: u32,
}

impl Row {
    /// The lowest and highest sums the row can still reach.
    fn range(&self) -> (i64, i64) {
        (self.fixed + self.free_neg, self.fixed + self.free_pos)
    }

    fn infeasible(&self) -> bool {
        let (min, max) = self.range();
        if self.eq {
            self.rhs < min || self.rhs > max
        } else {
            max < self.rhs
        }
    }

    /// Whether some free term may have only one value left.
    fn may_force(&self) -> bool {
        let (min, max) = self.range();
        let slack = if self.eq { (max - self.rhs).min(self.rhs - min) } else { max - self.rhs };
        self.free > 0 && slack < self.max_coeff
    }

    /// Whether the lower bound may charge this row more than zero: an
    /// unsatisfied `… = 1` row over free terms of coefficient 1, none of
    /// them free of cost.
    fn may_charge(&self) -> bool {
        self.eq_one && self.fixed == 0 && self.free > 0 && self.free_non_unit == 0 && self.free_costless == 0
    }

    /// Fixes a free term to `value` (`fix`), or frees a term fixed to
    /// `value` again (`!fix`). `costless` says whether its variable's
    /// weight is not positive.
    fn shift(&mut self, coeff: i64, value: bool, costless: bool, fix: bool) {
        let sign = if fix { 1 } else { -1 };
        if coeff > 0 {
            self.free_pos -= sign * coeff;
        } else {
            self.free_neg -= sign * coeff;
        }
        if value {
            self.fixed += sign * coeff;
        }
        let count = |n: u32| if fix { n - 1 } else { n + 1 };
        self.free = count(self.free);
        if coeff != 1 {
            self.free_non_unit = count(self.free_non_unit);
        }
        if costless {
            self.free_costless = count(self.free_costless);
        }
    }
}

/// One depth-first branch-and-bound search.
struct Search<'p> {
    weights: &'p [i64],
    constraints: &'p [Constraint],
    limits: SolveLimits,
    nodes: u64,
    /// `(row, coefficient)` of every term, grouped by variable: the terms
    /// of variable `v` are `terms[term_start[v]..term_start[v + 1]]`.
    term_start: Vec<usize>,
    terms: Vec<(usize, i64)>,
    rows: Vec<Row>,
    /// The `… = 1` rows, in order: the lower bound reads them.
    eq_one_rows: Vec<usize>,
    /// Σ `max_weight` of the rows that [`Row::may_charge`]: the lower
    /// bound's row part never exceeds it.
    chargeable: i64,
    value: Vec<Option<bool>>,
    /// Which order `order` follows.
    kind: Order,
    /// Branching order: constrained variables, then the others by index.
    order: Vec<usize>,
    /// Assigned variables, in assignment order.
    trail: Vec<usize>,
    /// Propagation worklist and its membership flags.
    queue: Vec<usize>,
    queued: Vec<bool>,
    /// Set when an assignment leaves some row unsatisfiable.
    conflict: bool,
    /// Lower-bound scratch: variable `v` is counted when `counted[v] == stamp`.
    counted: Vec<u32>,
    stamp: u32,
    /// Σ weights of the variables set true.
    objective: i64,
    /// Σ negative weights of the free variables.
    free_negative: i64,
    /// Nodes whose lower bound reaches this are pruned: the cutoff, then the
    /// objective of each better leaf.
    bound: Option<i64>,
    /// Stop at the first leaf (set when a cutoff is given).
    first_leaf_only: bool,
    best: Option<Solution>,
}

impl<'p> Search<'p> {
    fn new(problem: &'p IlpBuilder, order: Order, limits: SolveLimits) -> Self {
        let weights = &problem.weights[..];
        let constraints = &problem.constraints[..];
        let n = weights.len();
        let mut term_start = vec![0usize; n + 1];
        let mut first_seen = vec![usize::MAX; n];
        let mut rows = Vec::with_capacity(constraints.len());
        let mut eq_one_rows = Vec::new();
        let mut position = 0usize;
        for (index, constraint) in constraints.iter().enumerate() {
            let eq = constraint.cmp == Cmp::Eq;
            let eq_one = eq && constraint.rhs == 1;
            let mut row = Row { eq, rhs: constraint.rhs, eq_one, ..Row::default() };
            if eq_one {
                eq_one_rows.push(index);
            }
            for &(var, coeff) in &constraint.terms {
                term_start[var.0 + 1] += 1;
                if first_seen[var.0] == usize::MAX {
                    first_seen[var.0] = position;
                }
                position += 1;
                row.max_coeff = row.max_coeff.max(coeff.abs());
                row.max_weight = row.max_weight.max(weights[var.0]);
                // Every term starts free.
                row.shift(coeff, false, weights[var.0] <= 0, false);
            }
            rows.push(row);
        }
        let degree: Vec<usize> = (0..n).map(|v| term_start[v + 1]).collect();
        for v in 0..n {
            term_start[v + 1] += term_start[v];
        }
        let mut fill = term_start.clone();
        let mut terms = vec![(0usize, 0i64); position];
        for (row, constraint) in constraints.iter().enumerate() {
            for &(var, coeff) in &constraint.terms {
                terms[fill[var.0]] = (row, coeff);
                fill[var.0] += 1;
            }
        }
        let (mut constrained, unconstrained): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&v| first_seen[v] != usize::MAX);
        let canonical = |v: &usize| (Reverse(weights[*v].abs()), first_seen[*v]);
        match order {
            Order::Canonical => constrained.sort_by_key(canonical),
            Order::Degree => constrained.sort_by_key(|v| (Reverse(degree[*v]), canonical(v))),
        }
        constrained.extend(unconstrained);
        let chargeable = rows.iter().filter(|row| row.may_charge()).map(|row| row.max_weight).sum();
        Search {
            weights,
            constraints,
            limits,
            nodes: 0,
            term_start,
            terms,
            rows,
            eq_one_rows,
            chargeable,
            value: vec![None; n],
            kind: order,
            order: constrained,
            trail: Vec::with_capacity(n),
            queue: Vec::with_capacity(constraints.len()),
            queued: vec![false; constraints.len()],
            conflict: false,
            counted: vec![0; n],
            stamp: 0,
            objective: 0,
            free_negative: weights.iter().filter(|w| **w < 0).sum(),
            bound: None,
            first_leaf_only: false,
            best: None,
        }
    }

    /// Searches from the root. With a `cutoff`, only leaves below it count
    /// and the first one ends the search.
    fn run(&mut self, cutoff: Option<i64>) -> Result<Option<Solution>, BudgetExhausted> {
        self.bound = cutoff;
        self.first_leaf_only = cutoff.is_some();
        // The root checks every constraint.
        self.queue.extend(0..self.constraints.len());
        self.queued.fill(true);
        self.node(0)?;
        Ok(self.best.take())
    }

    /// Explores the node whose branching variable was just assigned;
    /// `start` is where the next free variable of the order may be. Returns
    /// `true` when the search is over.
    fn node(&mut self, start: usize) -> Result<bool, BudgetExhausted> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            return Err(BudgetExhausted);
        }
        let mark = self.trail.len();
        let done = self.expand(start);
        self.undo(mark);
        done
    }

    fn expand(&mut self, start: usize) -> Result<bool, BudgetExhausted> {
        if !self.propagate() {
            return Ok(false);
        }
        if let Some(bound) = self.bound {
            if self.lower_bound_reaches(bound) {
                return Ok(false);
            }
        }
        let Some(offset) = self.order[start..].iter().position(|&v| self.value[v].is_none()) else {
            // Propagation has checked every constraint since its last
            // change, so the full assignment is feasible; the bound check
            // above saw its objective below `bound`.
            self.best = Some(Solution {
                assignment: self.value.iter().map(|v| *v == Some(true)).collect(),
                objective: self.objective,
            });
            self.bound = Some(self.objective);
            return Ok(self.first_leaf_only);
        };
        let next = start + offset;
        let var = self.order[next];
        // The cheaper value first. In the degree order a variable of weight
        // 0 takes `true` first: in Clara's ILPs it is a variable pair or a
        // kept expression, and committing to it settles its rows at once.
        let weight = self.weights[var];
        let first = weight < 0 || (weight == 0 && self.kind == Order::Degree);
        for value in [first, !first] {
            let mark = self.trail.len();
            self.assign(var, value);
            let done = self.node(next + 1);
            self.undo(mark);
            if done? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Assigns `var` and queues each of its rows that may now be
    /// infeasible or force a variable.
    fn assign(&mut self, var: usize, value: bool) {
        self.value[var] = Some(value);
        self.trail.push(var);
        let weight = self.weights[var];
        if weight < 0 {
            self.free_negative -= weight;
        }
        if value {
            self.objective += weight;
        }
        for &(index, coeff) in &self.terms[self.term_start[var]..self.term_start[var + 1]] {
            let row = &mut self.rows[index];
            let charged = row.may_charge();
            row.shift(coeff, value, weight <= 0, true);
            if charged != row.may_charge() {
                self.chargeable += if charged { -row.max_weight } else { row.max_weight };
            }
            if row.infeasible() {
                self.conflict = true;
            } else if !self.queued[index] && row.may_force() {
                self.queued[index] = true;
                self.queue.push(index);
            }
        }
    }

    /// Unassigns the trail back to length `mark`.
    fn undo(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let var = self.trail.pop().expect("the trail is longer than the mark");
            let value = self.value[var].take() == Some(true);
            let weight = self.weights[var];
            if weight < 0 {
                self.free_negative += weight;
            }
            if value {
                self.objective -= weight;
            }
            for &(index, coeff) in &self.terms[self.term_start[var]..self.term_start[var + 1]] {
                let row = &mut self.rows[index];
                let charged = row.may_charge();
                row.shift(coeff, value, weight <= 0, false);
                if charged != row.may_charge() {
                    self.chargeable += if charged { -row.max_weight } else { row.max_weight };
                }
            }
        }
    }

    /// Checks the queued rows and assigns the values they force (unit
    /// propagation), queueing the rows of each forced variable in turn.
    /// Returns `false` on a conflict. The forced values do not depend on
    /// the queue order: forcing only grows with the assignment.
    fn propagate(&mut self) -> bool {
        let mut head = 0;
        while !self.conflict {
            let Some(&row) = self.queue.get(head) else { break };
            head += 1;
            self.queued[row] = false;
            self.settle(row);
        }
        for &row in &self.queue[head..] {
            self.queued[row] = false;
        }
        self.queue.clear();
        !std::mem::take(&mut self.conflict)
    }

    /// Checks one row and assigns every free variable it leaves only one
    /// value, stopping at a conflict.
    fn settle(&mut self, index: usize) {
        if self.rows[index].infeasible() {
            self.conflict = true;
            return;
        }
        if !self.rows[index].may_force() {
            return;
        }
        for &(var, coeff) in &self.constraints[index].terms {
            if self.conflict {
                return;
            }
            if self.value[var.0].is_some() {
                continue;
            }
            // The row with this term fixed to either value, the other free
            // terms still free.
            let fixed_to = |value: bool| {
                let mut row = self.rows[index];
                row.shift(coeff, value, false, true);
                row.infeasible()
            };
            match (fixed_to(true), fixed_to(false)) {
                (true, true) => self.conflict = true,
                (true, false) => self.assign(var.0, false),
                (false, true) => self.assign(var.0, true),
                (false, false) => {}
            }
        }
    }

    /// Whether an admissible lower bound on every completion of the current
    /// node reaches `bound`. The bound is the fixed objective, plus the
    /// negative weights of the free variables, plus, for each `… = 1` row
    /// not yet satisfied whose free terms all have coefficient 1, the
    /// cheapest nonnegative weight among them. A free variable is counted
    /// for at most one such row (greedily, in row order), because one
    /// selected variable can satisfy several overlapping rows while paying
    /// its weight once. The row part is skipped when even
    /// [`Search::chargeable`] cannot reach `bound`.
    fn lower_bound_reaches(&mut self, bound: i64) -> bool {
        let mut total = self.objective + self.free_negative;
        if total >= bound {
            return true;
        }
        if total + self.chargeable < bound {
            return false;
        }
        if self.stamp == u32::MAX {
            self.counted.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        'rows: for &index in &self.eq_one_rows {
            let row = &self.rows[index];
            if row.fixed != 0 || row.free == 0 || row.free_non_unit != 0 {
                continue;
            }
            let terms = &self.constraints[index].terms;
            let mut cheapest = i64::MAX;
            for &(var, _) in terms {
                if self.value[var.0].is_none() {
                    if self.counted[var.0] == self.stamp {
                        continue 'rows;
                    }
                    cheapest = cheapest.min(self.weights[var.0].max(0));
                }
            }
            total += cheapest;
            if total >= bound {
                return true;
            }
            for &(var, _) in terms {
                if self.value[var.0].is_none() {
                    self.counted[var.0] = self.stamp;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_cheaper_of_two() {
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var(3);
        let b = ilp.add_var(1);
        ilp.add_exactly_one(&[a, b]);
        let sol = ilp.solve().unwrap();
        assert!(sol.value(b));
        assert!(!sol.value(a));
        assert_eq!(sol.objective, 1);
    }

    #[test]
    fn infeasible_problem_returns_none() {
        let mut ilp = IlpBuilder::new();
        let a = ilp.add_var(1);
        ilp.add_constraint(vec![(a, 1)], Cmp::Eq, 2);
        assert!(ilp.solve().is_none());
    }

    #[test]
    fn implication_forces_consequent() {
        let mut ilp = IlpBuilder::new();
        let r = ilp.add_var(0);
        let p = ilp.add_var(5);
        let q = ilp.add_var(1);
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
                vars[i][j] = ilp.add_var(c);
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
        let a = ilp.add_var(3);
        let b = ilp.add_var(3);
        let c = ilp.add_var(5);
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
        let a = ilp.add_var(-2);
        let b = ilp.add_var(4);
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
        let vars: Vec<VarId> = (0..30).map(|_| ilp.add_var(1)).collect();
        for chunk in vars.chunks(3) {
            ilp.add_exactly_one(chunk);
        }
        let result = ilp.solve_with_limits(SolveLimits { max_nodes: 1 });
        assert_eq!(result, Err(BudgetExhausted));
    }

    /// Two optima of cost 3, `{r2, p2}` and `{r1, p1}`, each one local
    /// repair with the variable pair it needs; `p1` occurs in the most
    /// constraints.
    fn two_equal_optima() -> (IlpBuilder, [VarId; 4]) {
        let mut ilp = IlpBuilder::new();
        let p1 = ilp.add_var(0);
        let p2 = ilp.add_var(0);
        let r1 = ilp.add_var(3);
        let r2 = ilp.add_var(3);
        ilp.add_exactly_one(&[p1, p2]);
        ilp.add_exactly_one(&[r1, r2]);
        ilp.add_implication(r1, p1);
        ilp.add_implication(r2, p2);
        // Two constraints that always hold make `p1` the busiest variable.
        ilp.add_constraint(vec![(p1, 1), (r1, 1)], Cmp::Ge, 0);
        ilp.add_constraint(vec![(p1, 1)], Cmp::Ge, 0);
        (ilp, [p1, p2, r1, r2])
    }

    #[test]
    fn equal_cost_optima_resolve_in_the_canonical_order() {
        let (ilp, [p1, p2, r1, r2]) = two_equal_optima();
        // The canonical order branches on `r1` first and tries it false.
        let solution = ilp.solve().unwrap();
        assert_eq!(solution.objective, 3);
        assert_eq!(solution.selected(), vec![p2, r2]);
        let (reference, _) = reference::solve(&ilp, SolveLimits::default());
        assert_eq!(reference, Ok(Some(solution)));
        // Branching on the busiest variable first (`p1` true) reaches the
        // other optimum: only the objective may come from that order.
        let other = Search::new(&ilp, Order::Degree, SolveLimits::default()).run(None).unwrap().unwrap();
        assert_eq!(other.selected(), vec![p1, r1]);
        assert_eq!(ilp.minimum(SolveLimits::default()), Ok(Some(3)));
    }

    #[test]
    fn a_budget_the_reference_meets_is_enough() {
        // A 6×6 assignment problem full of equal-cost optima.
        let mut ilp = IlpBuilder::new();
        let vars: Vec<Vec<VarId>> =
            (0..6).map(|i| (0..6).map(|j| ilp.add_var((i * j % 3) as i64)).collect()).collect();
        for (i, row) in vars.iter().enumerate() {
            ilp.add_exactly_one(row);
            let column: Vec<VarId> = vars.iter().map(|r| r[i]).collect();
            ilp.add_exactly_one(&column);
        }
        let (expected, nodes) = reference::solve(&ilp, SolveLimits::default());
        let expected = expected.unwrap();
        assert!(nodes > 1);
        assert_eq!(ilp.solve_with_limits(SolveLimits { max_nodes: nodes }), Ok(expected.clone()));
        let mut exhaustive = Search::new(&ilp, Order::Canonical, SolveLimits::default());
        assert_eq!(exhaustive.run(None), Ok(expected));
        assert_eq!(exhaustive.nodes, nodes);
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
                    for w in &weights {
                        ilp.add_var(*w);
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

        /// Clara-shaped problems biased towards ties: weights in `0..3`,
        /// overlapping "exactly one" rows, implications and a few `≥` rows.
        fn arb_tied_ilp() -> impl Strategy<Value = IlpBuilder> {
            (4usize..16, 1usize..7, 0usize..8, 0usize..3).prop_flat_map(
                |(num_vars, exactly_one, implications, at_least)| {
                    let weights = prop::collection::vec(0i64..3, num_vars);
                    let rows = prop::collection::vec(prop::collection::vec(0..num_vars, 1..=5), exactly_one);
                    let implications = prop::collection::vec((0..num_vars, 0..num_vars), implications);
                    let at_least =
                        prop::collection::vec((prop::collection::vec(0..num_vars, 1..=3), 0i64..2), at_least);
                    (weights, rows, implications, at_least).prop_map(
                        |(weights, rows, implications, at_least)| {
                            let mut ilp = IlpBuilder::new();
                            for w in &weights {
                                ilp.add_var(*w);
                            }
                            for mut row in rows {
                                row.sort_unstable();
                                row.dedup();
                                ilp.add_exactly_one(&row.into_iter().map(VarId).collect::<Vec<_>>());
                            }
                            for (a, b) in implications {
                                ilp.add_implication(VarId(a), VarId(b));
                            }
                            for (vars, rhs) in at_least {
                                ilp.add_constraint(
                                    vars.into_iter().map(|v| (VarId(v), 1)).collect(),
                                    Cmp::Ge,
                                    rhs,
                                );
                            }
                            ilp
                        },
                    )
                },
            )
        }

        /// Checks every search against the reference solver: the same
        /// `Solution`, the same optimum, the same nodes for the canonical
        /// search without a cutoff, no more with one, and no budget
        /// exhaustion within the reference's node count.
        fn agrees_with_the_reference(ilp: &IlpBuilder) -> Result<(), String> {
            let (expected, nodes) = reference::solve(ilp, SolveLimits::default());
            let expected = expected.map_err(|e| e.to_string())?;
            let check = |what: &str, ok: bool| if ok { Ok(()) } else { Err(format!("{what} differs")) };
            check("solution", ilp.solve_with_limits(SolveLimits::default()).as_ref() == Ok(&expected))?;
            check(
                "minimum",
                ilp.minimum(SolveLimits::default()) == Ok(expected.as_ref().map(|s| s.objective)),
            )?;
            let mut exhaustive = Search::new(ilp, Order::Canonical, SolveLimits::default());
            check("exhaustive solution", exhaustive.run(None).as_ref() == Ok(&expected))?;
            check("exhaustive node count", exhaustive.nodes == nodes)?;
            if let Some(solution) = &expected {
                let mut exact = Search::new(ilp, Order::Canonical, SolveLimits::default());
                check("exact solution", exact.run(Some(solution.objective + 1)).as_ref() == Ok(&expected))?;
                check("exact node count", exact.nodes <= nodes)?;
            }
            check(
                "budgeted solution",
                ilp.solve_with_limits(SolveLimits { max_nodes: nodes }) == Ok(expected),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn tied_problems_match_the_reference(ilp in arb_tied_ilp()) {
                prop_assert_eq!(agrees_with_the_reference(&ilp), Ok(()));
            }

            #[test]
            fn general_problems_match_the_reference(ilp in arb_ilp()) {
                prop_assert_eq!(agrees_with_the_reference(&ilp), Ok(()));
            }
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
