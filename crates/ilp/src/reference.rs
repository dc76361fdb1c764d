//! Today's branch-and-bound search, kept as the reference the faster
//! searches of the crate are tested against.
//!
//! It picks the branching variable at every node by scanning the
//! constraints for the free variable of largest |weight|, re-sums a
//! constraint's terms each time it checks it, and recomputes the lower
//! bound from scratch. [`solve`] returns its answer and the number of nodes
//! it explored.

use crate::{BudgetExhausted, Cmp, IlpBuilder, Solution, SolveLimits};

/// Solves `problem` the reference way; the node count is reported even
/// when the budget ran out.
pub(crate) fn solve(
    problem: &IlpBuilder,
    limits: SolveLimits,
) -> (Result<Option<Solution>, BudgetExhausted>, u64) {
    // Var → constraints index so propagation only revisits constraints
    // whose support actually changed.
    let mut constraints_of: Vec<Vec<usize>> = vec![Vec::new(); problem.var_count()];
    for (ci, constraint) in problem.constraints.iter().enumerate() {
        for &(var, _) in &constraint.terms {
            if !constraints_of[var.0].contains(&ci) {
                constraints_of[var.0].push(ci);
            }
        }
    }
    let mut solver = Solver {
        problem,
        constraints_of,
        assignment: vec![None; problem.var_count()],
        in_queue: vec![false; problem.constraints.len()],
        best: None,
        nodes: 0,
        limits,
    };
    let outcome = solver.search(None).map(|()| solver.best.take());
    (outcome, solver.nodes)
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
