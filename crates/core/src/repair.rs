//! The repair algorithm (§5 of the paper).
//!
//! Given an incorrect implementation and a cluster of correct solutions with
//! the same control flow, the algorithm
//!
//! 1. generates *local repairs* for every location/variable pair of the
//!    implementation (Fig. 5): either the implementation expression already
//!    matches a representative expression under a partial variable relation
//!    (`(ω, •)`), or a cluster expression translated to implementation
//!    variables replaces it (`(ω⁻¹, ω(e))`);
//! 2. encodes the choice of a consistent, minimal-cost subset of local
//!    repairs as a 0-1 ILP over constraints (1)–(4) of Definition 5.5 and
//!    finds its optimum, the repair's cost, with `clara-ilp`'s `minimum`;
//! 3. for the cheapest cluster only, finds the optimal assignment with the
//!    ILP's exact search, decodes it into concrete [`RepairAction`]s, builds
//!    the repaired program, and (optionally) verifies the soundness theorem
//!    `P_C ∼_I P_repaired` (Theorem 5.3) by re-running the matcher.
//!
//! Among several optimal assignments the exact search returns the first in
//! `clara-ilp`'s canonical order, and the feedback depends on which one it
//! is, so step 3 must not take its assignment from `minimum`'s search.
//!
//! Variable addition and deletion (the `⋆` / `−` extension of §5) is
//! supported: every cluster variable may map to a fresh implementation
//! variable and every implementation variable may be deleted, which makes the
//! trivial repair always available and the algorithm complete for clusters
//! with matching control flow.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use clara_ilp::{BudgetExhausted, IlpBuilder, Solution, SolveLimits, VarId};
use clara_lang::{Expr, Value};
use clara_model::{Fuel, Loc, Program};
use clara_ted::{expr_tree_size, PreparedTree};

use crate::analysis::AnalyzedProgram;
use crate::cluster::Cluster;
use crate::index::{CandidateIndex, QuerySignals};
use crate::matching::{exprs_match, find_matching, pinned, vars_compatible, VarMap};
use crate::sigcache::SignatureCache;

/// Configuration of the repair algorithm.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Execution fuel used when re-running repaired programs for
    /// verification.
    pub fuel: Fuel,
    /// Cap on the number of partial variable relations enumerated per
    /// expression (the iteration of lines 9 and 13 in Fig. 5).
    pub max_relations_per_expr: usize,
    /// Branch-and-bound budget of the ILP solver.
    pub ilp_limits: SolveLimits,
    /// Verify `P_C ∼_I P_repaired` after decoding (Theorem 5.3).
    pub verify: bool,
    /// Process clusters on multiple threads (the paper notes Clara processes
    /// clusters in parallel, §6.2 "Clusters").
    pub parallel: bool,
    /// Answer expression-matching queries through the per-cluster
    /// [`SignatureCache`] (each distinct expression is evaluated once per
    /// location) instead of re-evaluating both expressions pairwise per
    /// query. The two paths are equivalent (property-tested); the flag
    /// exists so equivalence can be asserted end to end and regressions
    /// bisected.
    pub use_signature_cache: bool,
    /// Shortlist candidate clusters through the pre-search
    /// [`CandidateIndex`] before any trace-based matching runs
    /// (search–align–repair). Mirrors the `use_signature_cache` seam:
    /// retrieval never changes the repaired/no-repair verdict — a
    /// low-confidence query or an empty-handed shortlist falls back to the
    /// full scan — so the flag exists to assert equivalence end to end and
    /// to bisect regressions.
    pub use_candidate_index: bool,
    /// How many clusters the pre-search shortlists (the top-k of the
    /// overlap ranking).
    pub candidate_top_k: usize,
    /// Minimum overlap score the best-ranked cluster must reach for the
    /// shortlist to be trusted; below it the overlap evidence is noise and
    /// the repair scans every candidate.
    pub candidate_min_score: u32,
    /// When the strict repair fails with
    /// [`RepairFailure::NoMatchingControlFlow`], retry through the
    /// flexible-alignment fallback (see [`crate::align`]): the attempt's
    /// surface IR is normalized through loop drop/unwrap/merge rewrites,
    /// trace-agreement-gated, and re-repaired. Soundness (Theorem 5.3) is
    /// unaffected — the matcher still verifies every accepted repair.
    pub flexible_alignment: bool,
    /// Cap on the number of normalization candidates the alignment fallback
    /// lowers and re-executes per attempt.
    pub max_alignment_candidates: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            fuel: Fuel::default(),
            max_relations_per_expr: 2_000,
            ilp_limits: SolveLimits::default(),
            verify: true,
            parallel: true,
            use_signature_cache: true,
            use_candidate_index: true,
            candidate_top_k: 16,
            candidate_min_score: 3,
            flexible_alignment: true,
            max_alignment_candidates: 16,
        }
    }
}

/// One concrete modification of the implementation.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairAction {
    /// Replace the expression assigned to `var` at `loc`.
    Modify {
        /// Location of the modification.
        loc: Loc,
        /// The implementation variable whose update changes.
        var: String,
        /// Source line of the original expression, if known.
        line: Option<u32>,
        /// The original expression.
        old: Expr,
        /// The replacement expression (over implementation variables).
        new: Expr,
        /// Tree-edit-distance cost of this modification.
        cost: i64,
    },
    /// Add an assignment for a freshly introduced variable.
    AddAssignment {
        /// Location of the new assignment.
        loc: Loc,
        /// Name of the fresh variable.
        var: String,
        /// The assigned expression (over implementation variables).
        expr: Expr,
        /// Cost (AST size of the added expression).
        cost: i64,
    },
    /// Delete the assignment of a removed variable.
    DeleteAssignment {
        /// Location of the deleted assignment.
        loc: Loc,
        /// The deleted variable.
        var: String,
        /// The expression that was assigned.
        old: Expr,
        /// Cost (AST size of the removed expression).
        cost: i64,
    },
}

impl RepairAction {
    /// The cost contribution of the action.
    pub fn cost(&self) -> i64 {
        match self {
            RepairAction::Modify { cost, .. }
            | RepairAction::AddAssignment { cost, .. }
            | RepairAction::DeleteAssignment { cost, .. } => *cost,
        }
    }
}

/// The repair produced against one cluster.
#[derive(Debug, Clone)]
pub struct ClusterRepair {
    /// Index of the cluster (into the slice passed to [`repair_attempt`]).
    pub cluster_index: usize,
    /// Total cost (the ILP objective).
    pub total_cost: i64,
    /// The concrete modifications, in location order.
    pub actions: Vec<RepairAction>,
    /// The total variable relation `τ` for kept variables
    /// (implementation variable → representative variable).
    pub var_map: VarMap,
    /// Freshly added variables: `(representative variable, fresh name)`.
    pub added_vars: Vec<(String, String)>,
    /// Deleted implementation variables.
    pub deleted_vars: Vec<String>,
    /// The repaired model program.
    pub repaired: Program,
    /// Whether `P_C ∼_I P_repaired` was re-established by the matcher
    /// (Theorem 5.3); `None` if verification was disabled.
    pub verified: Option<bool>,
    /// `true` when the repair is the whole-program rewrite used for empty
    /// attempts (its action locations refer to the representative, not the
    /// attempt).
    pub is_rewrite: bool,
}

impl ClusterRepair {
    /// Number of modified expressions (the metric of Fig. 7).
    pub fn modified_expression_count(&self) -> usize {
        self.actions.iter().filter(|a| a.cost() > 0).count()
    }

    /// Relative repair size: cost divided by the AST size of the original
    /// program (Fig. 6). Returns `f64::INFINITY` when the original program
    /// has no expressions at all (empty attempts).
    pub fn relative_size(&self, original_ast_size: usize) -> f64 {
        if original_ast_size == 0 {
            f64::INFINITY
        } else {
            self.total_cost as f64 / original_ast_size as f64
        }
    }
}

/// Why no repair was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairFailure {
    /// No cluster has the same control flow as the attempt (the fundamental
    /// limitation discussed in §6.2 (1) and §8).
    NoMatchingControlFlow,
    /// Some cluster shares the attempt's control flow, but none admits a
    /// consistent repair: a pinned variable has no candidate local repair,
    /// or the ILP is infeasible.
    NoFeasibleRepair,
    /// No candidate cluster yielded a repair, and the ILP solver exhausted
    /// its budget on at least one of them.
    SolverBudgetExhausted,
}

impl RepairFailure {
    /// A stable snake_case name for metric labels and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RepairFailure::NoMatchingControlFlow => "no_matching_control_flow",
            RepairFailure::NoFeasibleRepair => "no_feasible_repair",
            RepairFailure::SolverBudgetExhausted => "solver_budget_exhausted",
        }
    }
}

impl std::fmt::Display for RepairFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairFailure::NoMatchingControlFlow => {
                write!(f, "no correct solution with the same control flow exists")
            }
            RepairFailure::NoFeasibleRepair => {
                write!(f, "no consistent repair exists against any same-control-flow cluster")
            }
            RepairFailure::SolverBudgetExhausted => write!(f, "ILP solver budget exhausted"),
        }
    }
}

/// How the pre-search shaped one repair request (see
/// [`repair_attempt_retrieved`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetrievalOutcome {
    /// Clusters with the attempt's control flow before shortlisting.
    pub control_flow_candidates: usize,
    /// Clusters the confident shortlist narrowed the scan to (equal to
    /// `control_flow_candidates` when the pool was small enough to scan
    /// outright).
    pub shortlisted: usize,
    /// Whether the full scan ran anyway — the overlap confidence was low,
    /// or the shortlisted clusters produced no repair.
    pub fell_back: bool,
}

/// The outcome of the top-level repair procedure.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// The minimal-cost repair across all candidate clusters.
    pub best: Option<ClusterRepair>,
    /// Why no repair was found (when `best` is `None`).
    pub failure: Option<RepairFailure>,
    /// Number of clusters with matching control flow that were tried
    /// (after pre-search shortlisting, when it applied).
    pub candidate_clusters: usize,
    /// How the candidate pre-search behaved; `None` when no index was
    /// consulted (retrieval disabled or not wired in).
    pub retrieval: Option<RetrievalOutcome>,
    /// `true` when the repair was found through the flexible-alignment
    /// fallback (the attempt's control flow was normalized before matching;
    /// see [`crate::align`]). Action locations then refer to the normalized
    /// program.
    pub realigned: bool,
    /// Wall-clock time of the whole repair.
    pub elapsed: Duration,
}

/// Repairs an incorrect attempt against every cluster and returns the
/// minimal-cost repair (the top-level procedure sketched in Fig. 1 and §2.2).
pub fn repair_attempt(
    clusters: &[Cluster],
    attempt: &AnalyzedProgram,
    inputs: &[Vec<Value>],
    config: &RepairConfig,
) -> RepairResult {
    repair_attempt_retrieved(clusters, None, attempt, inputs, config)
}

/// [`repair_attempt`] with an optional candidate pre-search: when an index
/// and the attempt's query signals are supplied (and
/// [`RepairConfig::use_candidate_index`] is on), overlap scoring shortlists
/// the top-k clusters and only those go through matching and the ILP. The
/// shortlist is an optimisation, never a semantic gate — a low-confidence
/// query scans everything, and a shortlist that yields no repair falls back
/// to the remaining candidates, so the repaired/no-repair verdict is
/// identical to the full scan (the repair itself may come from a different
/// cluster only when the shortlist misses the global cost optimum).
pub fn repair_attempt_retrieved(
    clusters: &[Cluster],
    retrieval: Option<(&CandidateIndex, &QuerySignals)>,
    attempt: &AnalyzedProgram,
    inputs: &[Vec<Value>],
    config: &RepairConfig,
) -> RepairResult {
    let start = Instant::now();
    let candidates: Vec<(usize, &Cluster)> = clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.representative.program.same_control_flow(&attempt.program))
        .collect();

    if candidates.is_empty() {
        // Completely empty attempts (no expressions at all) are still
        // repaired by the trivial rewrite against the largest cluster; this
        // mirrors Clara's behaviour on the 436 empty attempts of the MOOC
        // dataset (their relative repair size is reported as ∞ in Fig. 6).
        if attempt_is_empty(&attempt.program) {
            if let Some(rewrite) = trivial_rewrite_repair(clusters, attempt) {
                return RepairResult {
                    best: Some(rewrite),
                    failure: None,
                    candidate_clusters: 0,
                    retrieval: None,
                    realigned: false,
                    elapsed: start.elapsed(),
                };
            }
        }
        return RepairResult {
            best: None,
            failure: Some(RepairFailure::NoMatchingControlFlow),
            candidate_clusters: 0,
            retrieval: None,
            realigned: false,
            elapsed: start.elapsed(),
        };
    }

    // Pre-search (search–align–repair): score the index's buckets and keep
    // only the top-k candidates for the expensive alignment below. Pools no
    // larger than k are scanned outright — the shortlist would be the whole
    // pool anyway.
    let mut outcome: Option<RetrievalOutcome> = None;
    let mut shortlist: Option<Vec<(usize, &Cluster)>> = None;
    let mut ranked: Vec<usize> = Vec::new();
    if config.use_candidate_index {
        if let Some((index, query)) = retrieval {
            let _timer = crate::timing::StageTimer::start(crate::timing::Stage::CandidateSearch);
            if candidates.len() > config.candidate_top_k && !index.is_empty() {
                let found = index.query(query, config.candidate_top_k, config.candidate_min_score);
                let keep: Vec<(usize, &Cluster)> = candidates
                    .iter()
                    .copied()
                    .filter(|(i, _)| found.shortlist.binary_search(i).is_ok())
                    .collect();
                if found.confident && !keep.is_empty() && keep.len() < candidates.len() {
                    ranked = found.ranked;
                    outcome = Some(RetrievalOutcome {
                        control_flow_candidates: candidates.len(),
                        shortlisted: keep.len(),
                        fell_back: false,
                    });
                    shortlist = Some(keep);
                } else {
                    outcome = Some(RetrievalOutcome {
                        control_flow_candidates: candidates.len(),
                        shortlisted: candidates.len(),
                        fell_back: true,
                    });
                }
            } else {
                outcome = Some(RetrievalOutcome {
                    control_flow_candidates: candidates.len(),
                    shortlisted: candidates.len(),
                    fell_back: false,
                });
            }
        }
    }

    // Per-cluster repairs run with verification off: only the winning
    // repair's `verified` flag is observable from here, so Theorem 5.3 is
    // re-established once for the minimal-cost repair instead of once per
    // candidate cluster (verification re-executes the repaired program on
    // every input and re-runs the matcher — as expensive as the repair
    // itself when many clusters share the attempt's control flow).
    let cluster_config = RepairConfig { verify: false, ..config.clone() };
    let slot_exprs = slot_exprs(&attempt.program);
    let slots = ImplSlots::new(&slot_exprs, attempt.program.vars.len());
    let scanned = shortlist.as_ref().unwrap_or(&candidates);
    let mut examined = scanned.len();
    let mut budget_exhausted = false;
    let mut best = cheapest(
        run_candidates(scanned, attempt, &slots, &cluster_config, config.parallel),
        attempt,
        inputs,
        &cluster_config,
        &mut budget_exhausted,
    );
    if best.is_none() {
        if let (Some(keep), Some((index, _))) = (&shortlist, retrieval) {
            // Empty-handed shortlist: widen over the candidates it excluded
            // so the repaired/no-repair verdict matches the full scan
            // exactly. The widening follows the retrieval ranking in
            // doubling tiers — a near-miss (the match ranked just past
            // top-k) is found after one small batch, while a genuinely
            // unrepairable attempt still degrades gracefully to the cost of
            // the full scan it would have paid anyway.
            let kept: HashSet<usize> = keep.iter().map(|(i, _)| *i).collect();
            let by_index: HashMap<usize, (usize, &Cluster)> =
                candidates.iter().map(|&(i, c)| (i, (i, c))).collect();
            let mut queue: Vec<(usize, &Cluster)> = ranked
                .iter()
                .filter(|i| !kept.contains(i))
                .filter_map(|i| by_index.get(i).copied())
                .collect();
            let queued: HashSet<usize> = queue.iter().map(|(i, _)| *i).collect();
            // Zero-overlap candidates never entered the ranking; they are
            // the least likely to align, so they form the final tier.
            queue
                .extend(candidates.iter().copied().filter(|(i, _)| !kept.contains(i) && !queued.contains(i)));
            // Large pools are dominated by near-duplicates (one solution
            // family, thousands of trivially varied members), which flatten
            // the ranking tail: the shortlist's family already failed to
            // align, so its duplicates will too. Examine one representative
            // of each signal shape first — a structurally different donor
            // is then reached after tens, not thousands, of candidates.
            let mut seen_shapes: HashSet<u64> =
                keep.iter().map(|&(i, _)| index.shape_fingerprint(i)).collect();
            let mut duplicates: Vec<(usize, &Cluster)> = Vec::new();
            let mut ordered: Vec<(usize, &Cluster)> = Vec::with_capacity(queue.len());
            for entry in queue {
                if seen_shapes.insert(index.shape_fingerprint(entry.0)) {
                    ordered.push(entry);
                } else {
                    duplicates.push(entry);
                }
            }
            ordered.extend(duplicates);
            let queue = ordered;
            let mut tier = config.candidate_top_k.max(1);
            let mut offset = 0;
            while best.is_none() && offset < queue.len() {
                let batch = &queue[offset..(offset + tier).min(queue.len())];
                examined += batch.len();
                best = cheapest(
                    run_candidates(batch, attempt, &slots, &cluster_config, config.parallel),
                    attempt,
                    inputs,
                    &cluster_config,
                    &mut budget_exhausted,
                );
                offset += batch.len();
                tier *= 2;
            }
            if let Some(o) = outcome.as_mut() {
                o.fell_back = true;
            }
        }
    }
    if config.verify {
        if let Some(repair) = best.as_mut() {
            let _timer = crate::timing::StageTimer::start(crate::timing::Stage::Verify);
            let analyzed = AnalyzedProgram::from_program(repair.repaired.clone(), inputs, config.fuel);
            let rep = &clusters[repair.cluster_index].representative;
            repair.verified = Some(find_matching(rep, &analyzed).is_some());
        }
    }
    let failure = match (&best, budget_exhausted) {
        (Some(_), _) => None,
        (None, true) => Some(RepairFailure::SolverBudgetExhausted),
        (None, false) => Some(RepairFailure::NoFeasibleRepair),
    };
    RepairResult {
        best,
        failure,
        candidate_clusters: examined,
        retrieval: outcome,
        realigned: false,
        elapsed: start.elapsed(),
    }
}

/// The minimal-cost repair among staged clusters: the winner by
/// `(cost, cluster index)` runs the exact search and is decoded. Should that
/// search run out of nodes, the next staged cluster in the same order wins.
/// Sets `budget_exhausted` when any cluster ran the ILP solver out of
/// budget.
fn cheapest(
    staged: Vec<Result<StagedRepair<'_>, RepairFailure>>,
    attempt: &AnalyzedProgram,
    inputs: &[Vec<Value>],
    cluster_config: &RepairConfig,
    budget_exhausted: &mut bool,
) -> Option<ClusterRepair> {
    let mut staged: Vec<StagedRepair<'_>> = staged
        .into_iter()
        .filter_map(|result| {
            result
                .map_err(|failure| *budget_exhausted |= failure == RepairFailure::SolverBudgetExhausted)
                .ok()
        })
        .collect();
    staged.sort_by_key(|s| (s.cost, s.cluster_index));
    for winner in staged {
        match finish_repair(winner, attempt, inputs, cluster_config) {
            Ok(repair) => return Some(repair),
            Err(failure) => *budget_exhausted |= failure == RepairFailure::SolverBudgetExhausted,
        }
    }
    None
}

/// Stages every candidate cluster (local repairs, ILP, optimum; see
/// [`stage_cluster`]) and returns the results in candidate order. When
/// `parallel`, `available_parallelism - 1` helper threads and the calling
/// thread claim candidates in rank order from a shared counter. Each
/// candidate's stage spans are adopted into the caller's collector in
/// candidate order, so neither the results nor the span list depend on
/// which thread staged what.
fn run_candidates<'c>(
    candidates: &[(usize, &'c Cluster)],
    attempt: &AnalyzedProgram,
    slots: &ImplSlots<'_>,
    cluster_config: &RepairConfig,
    parallel: bool,
) -> Vec<Result<StagedRepair<'c>, RepairFailure>> {
    let stage = |&(index, cluster): &(usize, &'c Cluster)| {
        stage_cluster(cluster, index, attempt, slots, cluster_config)
    };
    let helpers = if parallel {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        (threads - 1).min(candidates.len().saturating_sub(1))
    } else {
        0
    };
    if helpers == 0 {
        return candidates.iter().map(stage).collect();
    }
    // The counter only hands out distinct indices; the results travel back
    // through `join`, so it publishes nothing and `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut staged = Vec::new();
        loop {
            let position = next.fetch_add(1, Ordering::Relaxed);
            let Some(candidate) = candidates.get(position) else { return staged };
            // Stage timers record to a thread-local collector; keep each
            // candidate's spans with its result.
            staged.push((position, crate::timing::collect(|| stage(candidate))));
        }
    };
    let mut slots: Vec<Option<_>> = (0..candidates.len()).map(|_| None).collect();
    let mut place = |staged: Vec<(usize, _)>| {
        for (position, result) in staged {
            slots[position] = Some(result);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(claim)).collect();
        place(claim());
        for handle in handles {
            place(handle.join().expect("repair worker panicked"));
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let (result, spans) = slot.expect("every candidate is claimed once");
            crate::timing::adopt(spans);
            result
        })
        .collect()
}

/// Removes strictly dominated local repairs: two candidates for the same
/// `(ℓ, v₂)` slot with identical dependency sets are interchangeable in every
/// ILP constraint, so the strictly more expensive one can never occur in an
/// optimal solution. Equal-cost candidates are all kept (they are distinct
/// repairs the solver may legitimately pick among). Shrinks the ILP the
/// solver has to chew on without changing the optimum.
fn prune_dominated(candidates: &mut Vec<CandidateRepair>, candidates_by_slot: &mut [Vec<usize>]) {
    let mut keep = vec![true; candidates.len()];
    for ids in candidates_by_slot.iter().filter(|ids| ids.len() > 1) {
        // A candidate's interchangeability class within its slot: its
        // sorted dependencies.
        let keys: Vec<Vec<&(String, MapTarget)>> = ids
            .iter()
            .map(|&i| {
                let mut deps: Vec<_> = candidates[i].dependencies.iter().collect();
                deps.sort();
                deps
            })
            .collect();
        // Dominance class → cheapest cost seen.
        let mut cheapest: HashMap<&[&(String, MapTarget)], i64> = HashMap::new();
        for (key, &i) in keys.iter().zip(ids) {
            let entry = cheapest.entry(key).or_insert(candidates[i].cost);
            *entry = (*entry).min(candidates[i].cost);
        }
        for (key, &i) in keys.iter().zip(ids) {
            keep[i] = candidates[i].cost <= cheapest[key.as_slice()];
        }
    }
    if keep.iter().all(|&k| k) {
        return;
    }
    // Compact the candidate list and remap the slot index.
    let mut remap: Vec<Option<usize>> = vec![None; candidates.len()];
    let mut next = 0usize;
    for (i, &k) in keep.iter().enumerate() {
        if k {
            remap[i] = Some(next);
            next += 1;
        }
    }
    let mut i = 0usize;
    candidates.retain(|_| {
        let kept = keep[i];
        i += 1;
        kept
    });
    for ids in candidates_by_slot.iter_mut() {
        ids.retain_mut(|id| match remap[*id] {
            Some(new_id) => {
                *id = new_id;
                true
            }
            None => false,
        });
    }
}

/// `true` when the attempt contains no expressions at all (an empty or
/// `pass`-only submission).
fn attempt_is_empty(program: &Program) -> bool {
    program.locs().all(|loc| program.updates_at(loc).is_empty())
}

/// The trivial rewrite used for completely empty attempts: replace the whole
/// submission with the representative of the largest cluster. Every
/// representative assignment counts as an added expression.
///
/// `added_vars` follows the same convention as the normal decode path:
/// `(representative variable, fresh implementation name)` pairs, restricted
/// to variables that are genuinely introduced (positionally shared
/// parameters are not additions), and the rewritten program actually uses
/// the fresh names.
fn trivial_rewrite_repair(clusters: &[Cluster], attempt: &AnalyzedProgram) -> Option<ClusterRepair> {
    let (cluster_index, cluster) = clusters.iter().enumerate().max_by_key(|(_, c)| c.size())?;
    let rep = &cluster.representative;
    let rep_params = &rep.program.params;
    let attempt_params = &attempt.program.params;
    let attempt_vars = &attempt.program.vars;

    // `taken` covers the attempt's variables, every representative variable
    // (a fresh name must not collide with a representative variable that is
    // itself being renamed) and the fresh names assigned so far.
    let mut taken: Vec<String> = attempt_vars.clone();
    taken.extend(rep.program.vars.iter().cloned());
    let added_vars: Vec<(String, String)> = rep
        .program
        .user_vars()
        .into_iter()
        .filter(|v| can_add(v, rep_params, attempt_params))
        .map(|v| {
            let fresh = fresh_name(&v, &taken);
            taken.push(fresh.clone());
            (v, fresh)
        })
        .collect();
    let rename: HashMap<String, String> =
        added_vars.iter().filter(|(v, fresh)| v != fresh).cloned().collect();

    // The repaired program is the representative with the added variables
    // renamed to their fresh implementation names (assignment slots moved and
    // every update expression rewritten).
    let mut repaired = rep.program.clone();
    if !rename.is_empty() {
        for loc in rep.program.locs() {
            for (var, expr) in rep.program.updates_at(loc) {
                let line = rep.program.update_line(loc, var).unwrap_or(0);
                let renamed_expr = expr.rename(&rename);
                if let Some(fresh) = rename.get(var) {
                    repaired.remove_update(loc, var);
                    repaired.set_update(loc, fresh, renamed_expr, line);
                } else {
                    repaired.set_update(loc, var, renamed_expr, line);
                }
            }
        }
        for (old, fresh) in &rename {
            repaired.remove_var(old);
            repaired.add_var(fresh);
        }
    }

    let mut actions = Vec::new();
    let mut total_cost = 0;
    for loc in repaired.locs() {
        for (var, expr) in repaired.updates_at(loc) {
            let cost = expr_tree_size(expr) as i64;
            total_cost += cost;
            actions.push(RepairAction::AddAssignment { loc, var: var.clone(), expr: expr.clone(), cost });
        }
    }
    Some(ClusterRepair {
        cluster_index,
        total_cost,
        actions,
        var_map: VarMap::new(),
        added_vars,
        deleted_vars: attempt
            .program
            .user_vars()
            .into_iter()
            .filter(|v| can_delete(v, attempt_params, rep_params))
            .collect(),
        repaired,
        verified: Some(true),
        is_rewrite: true,
    })
}

/// The target an expression variable is mapped to while enumerating partial
/// variable relations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum MapTarget {
    /// An existing variable of the other program.
    Existing(String),
    /// A fresh variable introduced for the given representative variable.
    Fresh(String),
}

/// Variable-compatibility data hoisted out of the per-candidate work of
/// [`repair_against_cluster`]: the `vars_compatible` matrix and the
/// add/delete permissions depend only on the two variable sets, so they are
/// computed once per cluster (O(vars²)) instead of per (location, candidate,
/// ω-extension).
struct CompatInfo {
    rep_index: HashMap<String, usize>,
    impl_index: HashMap<String, usize>,
    rep_count: usize,
    /// `matrix[impl_idx * rep_count + rep_idx]`.
    matrix: Vec<bool>,
    /// Indexed by representative variable.
    addable: Vec<bool>,
    /// Indexed by implementation variable.
    deletable: Vec<bool>,
}

impl CompatInfo {
    fn new(rep: &Program, attempt: &Program) -> Self {
        let rep_count = rep.vars.len();
        let rep_index: HashMap<String, usize> =
            rep.vars.iter().enumerate().map(|(i, v)| (v.clone(), i)).collect();
        let impl_index: HashMap<String, usize> =
            attempt.vars.iter().enumerate().map(|(i, v)| (v.clone(), i)).collect();
        let mut matrix = vec![false; attempt.vars.len() * rep_count];
        for (i, impl_var) in attempt.vars.iter().enumerate() {
            for (r, rep_var) in rep.vars.iter().enumerate() {
                matrix[i * rep_count + r] = vars_compatible(impl_var, rep_var, &attempt.params, &rep.params);
            }
        }
        let addable = rep.vars.iter().map(|v| can_add(v, &rep.params, &attempt.params)).collect();
        let deletable = attempt.vars.iter().map(|v| can_delete(v, &attempt.params, &rep.params)).collect();
        CompatInfo { rep_index, impl_index, rep_count, matrix, addable, deletable }
    }

    fn compatible(&self, impl_var: &str, rep_var: &str) -> bool {
        match (self.impl_index.get(impl_var), self.rep_index.get(rep_var)) {
            (Some(&i), Some(&r)) => self.matrix[i * self.rep_count + r],
            _ => false,
        }
    }

    fn can_add(&self, rep_var: &str) -> bool {
        self.rep_index.get(rep_var).is_some_and(|&r| self.addable[r])
    }

    fn can_delete(&self, impl_var: &str) -> bool {
        self.impl_index.get(impl_var).is_some_and(|&i| self.deletable[i])
    }
}

/// The update `U(ℓ, v)` of every location and variable of `program`, in
/// the slot order of [`ImplSlots`].
fn slot_exprs(program: &Program) -> Vec<Expr> {
    program.locs().flat_map(|loc| program.vars.iter().map(move |v| program.update(loc, v))).collect()
}

/// An attempt's `(ℓ, v₂)` slots: each slot's implementation expression and
/// its edit-distance tree. Built once per attempt, before any cluster is
/// staged, and shared read-only by every cluster staged against the
/// attempt, on every thread of [`run_candidates`].
struct ImplSlots<'a> {
    /// `exprs[ℓ × |V| + v₂]` is `U(ℓ, v₂)`, where `v₂` is the position of
    /// the variable in the attempt's `vars`.
    exprs: &'a [Expr],
    trees: Vec<PreparedTree<'a>>,
    var_count: usize,
}

impl<'a> ImplSlots<'a> {
    fn new(exprs: &'a [Expr], var_count: usize) -> Self {
        ImplSlots { exprs, trees: exprs.iter().map(PreparedTree::from_expr).collect(), var_count }
    }

    /// The slot of location `loc` and the attempt's `var`-th variable.
    fn index(&self, loc: Loc, var: usize) -> usize {
        loc.0 * self.var_count + var
    }
}

/// A candidate local repair (an element of `LR(ℓ, v)` in Definition 5.4).
#[derive(Debug, Clone)]
struct CandidateRepair {
    loc: Loc,
    var: String,
    /// Pair dependencies: representative variable → implementation target.
    dependencies: Vec<(String, MapTarget)>,
    /// `None` keeps the implementation expression (`(ω, •)`).
    replacement: Option<Expr>,
    cost: i64,
}

/// `true` when the representative variable may be introduced as a fresh
/// implementation variable (special variables and positionally-pinned
/// parameters never are).
fn can_add(rep_var: &str, rep_params: &[String], impl_params: &[String]) -> bool {
    if pinned(rep_var) {
        return false;
    }
    match rep_params.iter().position(|p| p == rep_var) {
        Some(position) => position >= impl_params.len(),
        None => true,
    }
}

/// `true` when the implementation variable may be deleted (special variables
/// and positionally-pinned parameters never are).
fn can_delete(impl_var: &str, impl_params: &[String], rep_params: &[String]) -> bool {
    if pinned(impl_var) {
        return false;
    }
    match impl_params.iter().position(|p| p == impl_var) {
        Some(position) => position >= rep_params.len(),
        None => true,
    }
}

/// Derives the fresh implementation-variable name for an added
/// representative variable.
pub fn fresh_name(rep_var: &str, taken: &[String]) -> String {
    let base = format!("new_{}", rep_var.trim_start_matches('#'));
    if !taken.iter().any(|v| v == &base) {
        return base;
    }
    let mut i = 2;
    loop {
        let candidate = format!("{base}_{i}");
        if !taken.iter().any(|v| v == &candidate) {
            return candidate;
        }
        i += 1;
    }
}

/// Runs the repair algorithm of Fig. 5 against a single cluster: stages it
/// (local repairs, the ILP and its optimum), then runs the ILP's exact
/// search and decodes the repair.
///
/// # Errors
///
/// Returns why the cluster cannot repair the attempt:
/// [`RepairFailure::NoMatchingControlFlow`] for a different control flow,
/// [`RepairFailure::NoFeasibleRepair`] when no consistent repair exists, and
/// [`RepairFailure::SolverBudgetExhausted`] when the ILP solver ran out of
/// budget.
pub fn repair_against_cluster(
    cluster: &Cluster,
    cluster_index: usize,
    attempt: &AnalyzedProgram,
    inputs: &[Vec<Value>],
    config: &RepairConfig,
) -> Result<ClusterRepair, RepairFailure> {
    let slot_exprs = slot_exprs(&attempt.program);
    let slots = ImplSlots::new(&slot_exprs, attempt.program.vars.len());
    finish_repair(stage_cluster(cluster, cluster_index, attempt, &slots, config)?, attempt, inputs, config)
}

/// One cluster's repair problem once the cost of its minimal repair is
/// known: the local repairs, their ILP, and what decoding a solution needs.
struct StagedRepair<'c> {
    cluster: &'c Cluster,
    cluster_index: usize,
    /// The ILP optimum: the cost of the minimal repair.
    cost: i64,
    /// The optimal assignment, when it is already known: after
    /// [`IlpBuilder::minimum`] ran out of nodes, the exact search ran
    /// without the optimum instead.
    solution: Option<Solution>,
    ilp: IlpBuilder,
    candidates: Vec<CandidateRepair>,
    /// The ILP variable selecting each candidate.
    repair_ids: Vec<VarId>,
    /// `(representative, implementation)` variable pair → its ILP variable.
    pair_vars: HashMap<(String, String), VarId>,
    /// Representative variable → the ILP variable adding it.
    add_vars: HashMap<String, VarId>,
    /// Implementation variable → the ILP variable deleting it.
    del_vars: HashMap<String, VarId>,
    fresh_names: HashMap<String, String>,
}

/// Generates the local repairs of `attempt` against `cluster`, encodes them
/// as an ILP and finds its optimum (steps 1 and 2 of the module docs).
///
/// Each candidate replacement's cost is its tree edit distance to the
/// slot's implementation expression, whose tree `slots` prepared once for
/// the whole attempt: staging another cluster, on this thread or another,
/// compares against the same read-only trees.
fn stage_cluster<'c>(
    cluster: &'c Cluster,
    cluster_index: usize,
    attempt: &AnalyzedProgram,
    slots: &ImplSlots<'_>,
    config: &RepairConfig,
) -> Result<StagedRepair<'c>, RepairFailure> {
    let rep = &cluster.representative;
    if !rep.program.same_control_flow(&attempt.program) {
        return Err(RepairFailure::NoMatchingControlFlow);
    }
    let rep_vars: Vec<String> = rep.program.vars.clone();
    let impl_vars: Vec<String> = attempt.program.vars.clone();
    let traces = &rep.traces;
    let compat = CompatInfo::new(&rep.program, &attempt.program);
    // One signature cache per cluster: every structurally distinct expression
    // is evaluated once per location, and each ω-enumeration query below
    // collapses to a table lookup plus a hash comparison.
    let mut sig_cache = if config.use_signature_cache { Some(SignatureCache::new(traces)) } else { None };
    // Fresh implementation names for representative variables introduced by
    // the ⋆ extension, assigned once (in `rep_vars` order, with `taken`
    // accumulating) so that candidate replacement expressions and the decoded
    // repair agree and two added variables never share a name (e.g. `#it1`
    // and `it1` both deriving `new_it1`).
    let fresh_names: HashMap<String, String> = {
        let mut taken: Vec<String> = impl_vars.clone();
        let mut map = HashMap::new();
        for v1 in &rep_vars {
            if compat.can_add(v1) {
                let fresh = fresh_name(v1, &taken);
                taken.push(fresh.clone());
                map.insert(v1.clone(), fresh);
            }
        }
        map
    };

    // ------------------------------------------------------------------
    // Step 1: generate the sets of possible local repairs LR(ℓ, v₂).
    // ------------------------------------------------------------------
    let mut candidates: Vec<CandidateRepair> = Vec::new();
    let hasher = RandomState::new();
    // Candidate indices per slot, indexed like `slots`.
    let mut candidates_by_slot: Vec<Vec<usize>> = vec![Vec::new(); slots.exprs.len()];

    for loc in attempt.program.locs() {
        for (v2_index, v2) in impl_vars.iter().enumerate() {
            let slot = slots.index(loc, v2_index);
            // Every replacement candidate's edit distance compares against
            // this slot's tree, flattened once per attempt.
            let (e_impl, impl_tree) = (&slots.exprs[slot], &slots.trees[slot]);
            let impl_sources: Vec<String> = {
                let mut vars = e_impl.variables();
                if !vars.contains(v2) {
                    vars.push(v2.clone());
                }
                vars
            };

            for v1 in &rep_vars {
                if !compat.compatible(v2, v1) {
                    continue;
                }
                let e_rep = rep.program.update(loc, v1);

                // (ω, •): the implementation expression already matches.
                // Every ω enumerated here is a distinct relation, so each
                // match is a distinct candidate.
                for_each_keep_relation(
                    &impl_sources,
                    v2,
                    v1,
                    &rep_vars,
                    &compat,
                    config.max_relations_per_expr,
                    &mut |omega| {
                        let matched = match sig_cache.as_mut() {
                            // ω(e_impl) is never materialised: e_impl is
                            // evaluated under a renaming view of each memory.
                            Some(cache) => cache.matches_under_renaming(&e_rep, e_impl, omega, loc),
                            None => {
                                let translated =
                                    e_impl.substitute(&|name| omega.get(name).map(|t| Expr::Var(t.clone())));
                                exprs_match(&e_rep, &translated, traces, loc)
                            }
                        };
                        if matched {
                            let dependencies = omega
                                .iter()
                                .map(|(impl_var, rep_var)| {
                                    (rep_var.clone(), MapTarget::Existing(impl_var.clone()))
                                })
                                .collect();
                            candidates_by_slot[slot].push(candidates.len());
                            candidates.push(CandidateRepair {
                                loc,
                                var: v2.clone(),
                                dependencies,
                                replacement: None,
                                cost: 0,
                            });
                        }
                    },
                );

                // (ω⁻¹, ω(e)): take a cluster expression and translate it to
                // implementation variables. Distinct expressions or relations
                // can translate alike; `replaced` keeps the first: the
                // indices of this `v₁`'s replace candidates by the hash of
                // their replacement.
                let mut replaced: HashMap<u64, Vec<usize>> = HashMap::new();
                for cluster_expr in cluster.expressions(loc, v1) {
                    let rep_sources: Vec<String> = {
                        let mut vars = cluster_expr.variables();
                        if !vars.contains(v1) {
                            vars.push(v1.clone());
                        }
                        vars
                    };
                    for_each_replace_relation(
                        &rep_sources,
                        v1,
                        v2,
                        &impl_vars,
                        &compat,
                        config.max_relations_per_expr,
                        &mut |omega| {
                            let replacement = cluster_expr.substitute(&|name| {
                                omega.get(name).map(|target| match target {
                                    MapTarget::Existing(impl_var) => Expr::Var(impl_var.clone()),
                                    MapTarget::Fresh(rep_var) => {
                                        Expr::Var(fresh_names[rep_var.as_str()].clone())
                                    }
                                })
                            });
                            let same_hash = replaced.entry(hasher.hash_one(&replacement)).or_default();
                            if same_hash
                                .iter()
                                .any(|&i| candidates[i].replacement.as_ref() == Some(&replacement))
                            {
                                return;
                            }
                            same_hash.push(candidates.len());
                            let cost = if replacement == *e_impl {
                                0
                            } else {
                                impl_tree.distance_to(&replacement) as i64
                            };
                            let dependencies = omega
                                .iter()
                                .map(|(rep_var, target)| (rep_var.clone(), target.clone()))
                                .collect();
                            candidates_by_slot[slot].push(candidates.len());
                            candidates.push(CandidateRepair {
                                loc,
                                var: v2.clone(),
                                dependencies,
                                replacement: Some(replacement),
                                cost,
                            });
                        },
                    );
                }
            }
        }
    }

    prune_dominated(&mut candidates, &mut candidates_by_slot);

    // ------------------------------------------------------------------
    // Step 2: encode constraints (1)–(4) of Definition 5.5 as a 0-1 ILP.
    // ------------------------------------------------------------------
    // This ILP span covers encoding and `minimum`; the guard drops right
    // after the optimum is known (or on an early bail-out). The winner's
    // exact search is a second ILP span, in `finish_repair`.
    let ilp_timer = crate::timing::StageTimer::start(crate::timing::Stage::Ilp);
    let mut ilp = IlpBuilder::new();
    let mut pair_vars: HashMap<(String, String), VarId> = HashMap::new(); // (rep, impl)
    let mut add_vars: HashMap<String, VarId> = HashMap::new(); // rep var → x_add
    let mut del_vars: HashMap<String, VarId> = HashMap::new(); // impl var → x_del

    for v1 in &rep_vars {
        for v2 in &impl_vars {
            if compat.compatible(v2, v1) {
                let id = ilp.add_var(0);
                pair_vars.insert((v1.clone(), v2.clone()), id);
            }
        }
        if compat.can_add(v1) {
            let cost = add_cost(&rep.program, cluster, v1);
            add_vars.insert(v1.clone(), ilp.add_var(cost));
        }
    }
    for v2 in &impl_vars {
        if compat.can_delete(v2) {
            let cost = delete_cost(&attempt.program, v2);
            del_vars.insert(v2.clone(), ilp.add_var(cost));
        }
    }

    // Constraint (1): every representative variable is matched exactly once
    // (to an implementation variable or to a fresh one).
    for v1 in &rep_vars {
        let mut row: Vec<VarId> =
            impl_vars.iter().filter_map(|v2| pair_vars.get(&(v1.clone(), v2.clone())).copied()).collect();
        if let Some(add) = add_vars.get(v1) {
            row.push(*add);
        }
        ilp.add_exactly_one(&row);
    }
    // Constraint (2): every implementation variable is matched exactly once
    // (to a representative variable or deleted).
    for v2 in &impl_vars {
        let mut row: Vec<VarId> =
            rep_vars.iter().filter_map(|v1| pair_vars.get(&(v1.clone(), v2.clone())).copied()).collect();
        if let Some(del) = del_vars.get(v2) {
            row.push(*del);
        }
        ilp.add_exactly_one(&row);
    }

    // Local-repair selection variables.
    let repair_ids: Vec<VarId> = candidates.iter().map(|c| ilp.add_var(c.cost)).collect();

    // Constraint (3): exactly one local repair per (ℓ, v₂) — or the variable
    // is deleted.
    for loc in attempt.program.locs() {
        for (v2_index, v2) in impl_vars.iter().enumerate() {
            let slot = slots.index(loc, v2_index);
            let mut row: Vec<VarId> = candidates_by_slot[slot].iter().map(|&i| repair_ids[i]).collect();
            if let Some(del) = del_vars.get(v2) {
                row.push(*del);
            }
            if row.is_empty() {
                // A pinned special variable with no candidate local repair:
                // the cluster cannot repair this attempt.
                return Err(RepairFailure::NoFeasibleRepair);
            }
            ilp.add_exactly_one(&row);
        }
    }

    // Constraint (4): a selected local repair forces its variable pairs.
    for (i, candidate) in candidates.iter().enumerate() {
        for (rep_var, target) in &candidate.dependencies {
            let pair_id = match target {
                MapTarget::Existing(impl_var) => pair_vars.get(&(rep_var.clone(), impl_var.clone())).copied(),
                MapTarget::Fresh(rep_var) => add_vars.get(rep_var).copied(),
            };
            match pair_id {
                Some(pair_id) => ilp.add_implication(repair_ids[i], pair_id),
                None => {
                    // The dependency can never be satisfied (e.g. a pinned
                    // variable paired with a different pinned variable);
                    // forbid the repair.
                    ilp.add_constraint(vec![(repair_ids[i], 1)], clara_ilp::Cmp::Eq, 0);
                }
            }
        }
    }

    // Only the optimum here: the exact search, which also fixes which
    // optimal repair comes back, runs for the winning cluster alone.
    let (cost, solution) = match ilp.minimum(config.ilp_limits) {
        Ok(None) => return Err(RepairFailure::NoFeasibleRepair),
        Ok(Some(cost)) => (cost, None),
        Err(BudgetExhausted) => {
            let solution = ilp
                .exact_search(None, config.ilp_limits)
                .map_err(|_| RepairFailure::SolverBudgetExhausted)?
                .ok_or(RepairFailure::NoFeasibleRepair)?;
            (solution.objective, Some(solution))
        }
    };
    drop(ilp_timer);
    Ok(StagedRepair {
        cluster,
        cluster_index,
        cost,
        solution,
        ilp,
        candidates,
        repair_ids,
        pair_vars,
        add_vars,
        del_vars,
        fresh_names,
    })
}

/// Finds the staged cluster's optimal assignment (step 3 of the module
/// docs) and decodes it into its repair, verifying the repair when
/// [`RepairConfig::verify`] is on.
///
/// # Errors
///
/// Returns [`RepairFailure::SolverBudgetExhausted`] when the exact search
/// runs out of nodes.
fn finish_repair(
    staged: StagedRepair<'_>,
    attempt: &AnalyzedProgram,
    inputs: &[Vec<Value>],
    config: &RepairConfig,
) -> Result<ClusterRepair, RepairFailure> {
    let StagedRepair {
        cluster,
        cluster_index,
        cost,
        solution,
        ilp,
        candidates,
        repair_ids,
        pair_vars,
        add_vars,
        del_vars,
        fresh_names,
    } = staged;
    let solution = match solution {
        Some(solution) => solution,
        None => {
            let _timer = crate::timing::StageTimer::start(crate::timing::Stage::Ilp);
            ilp.exact_search(Some(cost), config.ilp_limits)
                .map_err(|_| RepairFailure::SolverBudgetExhausted)?
                .expect("the exact search reaches the optimum `minimum` found")
        }
    };
    let rep = &cluster.representative;
    let rep_vars = &rep.program.vars;
    let impl_vars = &attempt.program.vars;

    let mut var_map = VarMap::new();
    for ((v1, v2), id) in &pair_vars {
        if solution.value(*id) {
            var_map.insert(v2.clone(), v1.clone());
        }
    }
    // In `rep_vars` and `impl_vars` order (deterministic — `add_vars` and
    // `del_vars` are hash maps), using the fresh names fixed before
    // candidate generation.
    let added_vars: Vec<(String, String)> = rep_vars
        .iter()
        .filter(|v1| add_vars.get(*v1).is_some_and(|id| solution.value(*id)))
        .map(|v1| (v1.clone(), fresh_names[v1.as_str()].clone()))
        .collect();
    let deleted_vars: Vec<String> = impl_vars
        .iter()
        .filter(|v2| del_vars.get(*v2).is_some_and(|id| solution.value(*id)))
        .cloned()
        .collect();

    // Translation of representative variables back to implementation
    // variables (τ⁻¹ extended with the fresh names).
    let mut back_map: HashMap<String, String> = HashMap::new();
    for (v2, v1) in &var_map {
        back_map.insert(v1.clone(), v2.clone());
    }
    for (v1, fresh) in &added_vars {
        back_map.insert(v1.clone(), fresh.clone());
    }

    let mut actions: Vec<RepairAction> = Vec::new();
    let mut repaired = attempt.program.clone();

    // Selected local repairs.
    for (i, candidate) in candidates.iter().enumerate() {
        if !solution.value(repair_ids[i]) {
            continue;
        }
        if let Some(new_expr) = &candidate.replacement {
            let old = attempt.program.update(candidate.loc, &candidate.var);
            if *new_expr != old {
                repaired.set_update(
                    candidate.loc,
                    &candidate.var,
                    new_expr.clone(),
                    attempt.program.update_line(candidate.loc, &candidate.var).unwrap_or(0),
                );
                actions.push(RepairAction::Modify {
                    loc: candidate.loc,
                    var: candidate.var.clone(),
                    line: attempt.program.update_line(candidate.loc, &candidate.var),
                    old,
                    new: new_expr.clone(),
                    cost: candidate.cost,
                });
            }
        }
    }

    // Added variables: copy the representative's assignments, translated back
    // to implementation variables.
    for (v1, fresh) in &added_vars {
        repaired.add_var(fresh);
        for loc in rep.program.locs() {
            if let Some(rep_expr) = rep.program.explicit_update(loc, v1) {
                let translated =
                    rep_expr.substitute(&|name| back_map.get(name).map(|target| Expr::Var(target.clone())));
                let cost = expr_tree_size(&translated) as i64;
                repaired.set_update(
                    loc,
                    fresh,
                    translated.clone(),
                    rep.program.update_line(loc, v1).unwrap_or(0),
                );
                actions.push(RepairAction::AddAssignment { loc, var: fresh.clone(), expr: translated, cost });
            }
        }
    }

    // Deleted variables: drop their assignments.
    for v2 in &deleted_vars {
        for loc in attempt.program.locs() {
            if let Some(old) = attempt.program.explicit_update(loc, v2) {
                let cost = expr_tree_size(old) as i64;
                actions.push(RepairAction::DeleteAssignment { loc, var: v2.clone(), old: old.clone(), cost });
                repaired.remove_update(loc, v2);
            }
        }
        repaired.remove_var(v2);
    }

    actions.sort_by_key(|a| match a {
        RepairAction::Modify { loc, .. }
        | RepairAction::AddAssignment { loc, .. }
        | RepairAction::DeleteAssignment { loc, .. } => loc.0,
    });

    // Optional verification of Theorem 5.3.
    let verified = if config.verify {
        let analyzed = AnalyzedProgram::from_program(repaired.clone(), inputs, config.fuel);
        Some(find_matching(rep, &analyzed).is_some())
    } else {
        None
    };

    Ok(ClusterRepair {
        cluster_index,
        total_cost: solution.objective,
        actions,
        var_map,
        added_vars,
        deleted_vars,
        repaired,
        verified,
        is_rewrite: false,
    })
}

/// Cost of introducing the representative variable `v1` into the
/// implementation: the representative's assignments have to be added.
fn add_cost(rep: &Program, _cluster: &Cluster, v1: &str) -> i64 {
    rep.locs().filter_map(|loc| rep.explicit_update(loc, v1)).map(|e| expr_tree_size(e) as i64).sum()
}

/// Cost of deleting the implementation variable `v2`: all its assignments are
/// removed.
fn delete_cost(attempt: &Program, v2: &str) -> i64 {
    attempt.locs().filter_map(|loc| attempt.explicit_update(loc, v2)).map(|e| expr_tree_size(e) as i64).sum()
}

/// Enumerates the injective partial relations ω mapping the implementation
/// variables `sources` (which include `v2`) to representative variables, with
/// `ω(v2) = v1` fixed, invoking `visit` for each relation. Used for
/// `(ω, •)` local repairs. Visitor style: the relation map is reused across
/// the whole enumeration instead of being cloned per result.
fn for_each_keep_relation(
    sources: &[String],
    v2: &str,
    v1: &str,
    rep_vars: &[String],
    compat: &CompatInfo,
    cap: usize,
    visit: &mut dyn FnMut(&HashMap<String, String>),
) {
    let others: Vec<&String> = sources.iter().filter(|s| s.as_str() != v2).collect();
    let mut current: HashMap<String, String> = HashMap::new();
    current.insert(v2.to_owned(), v1.to_owned());
    let mut used: HashSet<String> = HashSet::new();
    used.insert(v1.to_owned());
    let mut visited = 0usize;

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        index: usize,
        others: &[&String],
        rep_vars: &[String],
        compat: &CompatInfo,
        current: &mut HashMap<String, String>,
        used: &mut HashSet<String>,
        visited: &mut usize,
        cap: usize,
        visit: &mut dyn FnMut(&HashMap<String, String>),
    ) {
        if *visited >= cap {
            return;
        }
        if index == others.len() {
            *visited += 1;
            visit(current);
            return;
        }
        let source = others[index];
        for target in rep_vars {
            if used.contains(target) || !compat.compatible(source, target) {
                continue;
            }
            current.insert(source.to_string(), target.clone());
            used.insert(target.clone());
            recurse(index + 1, others, rep_vars, compat, current, used, visited, cap, visit);
            used.remove(target);
            current.remove(source.as_str());
        }
    }
    recurse(0, &others, rep_vars, compat, &mut current, &mut used, &mut visited, cap, visit);
}

/// Enumerates the injective partial relations ω mapping the representative
/// variables `sources` (which include `v1`) to implementation variables or
/// fresh variables, with `ω(v1) = v2` fixed. Used for `(ω⁻¹, ω(e))` local
/// repairs.
fn for_each_replace_relation(
    sources: &[String],
    v1: &str,
    v2: &str,
    impl_vars: &[String],
    compat: &CompatInfo,
    cap: usize,
    visit: &mut dyn FnMut(&HashMap<String, MapTarget>),
) {
    let others: Vec<&String> = sources.iter().filter(|s| s.as_str() != v1).collect();
    let mut current: HashMap<String, MapTarget> = HashMap::new();
    current.insert(v1.to_owned(), MapTarget::Existing(v2.to_owned()));
    let mut used: HashSet<String> = HashSet::new();
    used.insert(v2.to_owned());
    let mut visited = 0usize;

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        index: usize,
        others: &[&String],
        impl_vars: &[String],
        compat: &CompatInfo,
        current: &mut HashMap<String, MapTarget>,
        used: &mut HashSet<String>,
        visited: &mut usize,
        cap: usize,
        visit: &mut dyn FnMut(&HashMap<String, MapTarget>),
    ) {
        if *visited >= cap {
            return;
        }
        if index == others.len() {
            *visited += 1;
            visit(current);
            return;
        }
        let source = others[index];
        for target in impl_vars {
            if used.contains(target) || !compat.compatible(target, source) {
                continue;
            }
            current.insert(source.to_string(), MapTarget::Existing(target.clone()));
            used.insert(target.clone());
            recurse(index + 1, others, impl_vars, compat, current, used, visited, cap, visit);
            used.remove(target);
            current.remove(source.as_str());
        }
        // The representative variable may also map to a fresh implementation
        // variable (the ⋆ extension of §5).
        if compat.can_add(source) {
            current.insert(source.to_string(), MapTarget::Fresh(source.to_string()));
            recurse(index + 1, others, impl_vars, compat, current, used, visited, cap, visit);
            current.remove(source.as_str());
        }
    }
    recurse(0, &others, impl_vars, compat, &mut current, &mut used, &mut visited, cap, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalyzedProgram;
    use crate::cluster::cluster_programs;
    use crate::feedback::{render_feedback, FeedbackOptions};
    use clara_model::special;

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    fn inputs() -> Vec<Vec<Value>> {
        vec![
            vec![poly(&[6.3, 7.6, 12.14])],
            vec![poly(&[3.0])],
            vec![poly(&[1.0, 2.0, 3.0, 4.0])],
            vec![poly(&[])],
        ]
    }

    const C1: &str = "\
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";

    const C2: &str = "\
def computeDeriv(poly):
    deriv = []
    for i in xrange(1,len(poly)):
        deriv+=[float(i)*poly[i]]
    if len(deriv)==0:
        return [0.0]
    return deriv
";

    fn analyze(src: &str) -> AnalyzedProgram {
        AnalyzedProgram::from_text(src, "computeDeriv", &inputs(), clara_model::Fuel::default()).unwrap()
    }

    fn derivatives_clusters() -> Vec<Cluster> {
        cluster_programs(vec![analyze(C1), analyze(C2)])
    }

    #[test]
    fn repairing_the_representative_costs_nothing() {
        let clusters = derivatives_clusters();
        let result = repair_attempt(&clusters, &analyze(C1), &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        assert_eq!(repair.total_cost, 0);
        assert!(repair.added_vars.is_empty());
        assert!(repair.deleted_vars.is_empty());
        assert_eq!(repair.verified, Some(true));
        assert!(!repair.is_rewrite);
    }

    #[test]
    fn repair_respects_parameter_pinning() {
        // The parameter must map to the representative's parameter, never be
        // deleted or replaced by a fresh variable.
        let clusters = derivatives_clusters();
        let attempt = analyze(
            "def computeDeriv(values):\n    out = []\n    for i in range(len(values)):\n        out.append(float(values[i]*i))\n    if out == []:\n        return [0.0]\n    return out\n",
        );
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        assert_eq!(repair.var_map.get("values").map(String::as_str), Some("poly"));
        assert!(!repair.deleted_vars.contains(&"values".to_owned()));
        assert!(repair.added_vars.iter().all(|(rep_var, _)| rep_var != "poly"));
        assert_eq!(repair.verified, Some(true));
    }

    #[test]
    fn special_variables_always_map_to_themselves() {
        let clusters = derivatives_clusters();
        let attempt = analyze(
            "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
        );
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        for name in [special::COND, special::RETURN, special::RET_FLAG, special::OUT] {
            assert_eq!(repair.var_map.get(name).map(String::as_str), Some(name));
        }
    }

    #[test]
    fn missing_guard_is_repaired_with_a_conditional_expression() {
        // Dropping the `i > 0` filter means index 0 is included; the minimal
        // repair has to reintroduce the distinction, either in the iterator
        // or in the appended expression.
        let clusters = derivatives_clusters();
        let attempt = analyze(
            "def computeDeriv(poly):\n    result = []\n    for e in range(len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        );
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        assert_eq!(repair.verified, Some(true));
        assert!(repair.total_cost >= 1);
        assert!(repair.modified_expression_count() >= 1);
    }

    #[test]
    fn cheaper_cluster_wins_when_several_match() {
        // Two separate clusters (for-based and while-based); the attempt is a
        // broken while-based solution, so the while cluster must be chosen.
        let while_ok = "\
def computeDeriv(poly):
    result = []
    i = 1
    while i < len(poly):
        result.append(float(poly[i] * i))
        i = i + 1
    if result == []:
        return [0.0]
    return result
";
        let clusters = cluster_programs(vec![analyze(C1), analyze(while_ok)]);
        assert_eq!(clusters.len(), 2);
        let attempt = analyze(
            "def computeDeriv(poly):\n    result = []\n    i = 0\n    while i < len(poly):\n        result.append(float(poly[i] * i))\n        i = i + 1\n    if result == []:\n        return [0.0]\n    return result\n",
        );
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        // Both clusters share the loop skeleton (a for-loop and a while-loop
        // lower to the same structure), but the while-based cluster yields the
        // cheaper repair and must win.
        assert_eq!(result.candidate_clusters, 2);
        assert_eq!(repair.cluster_index, 1, "the while-based cluster gives the minimal repair");
        assert!(repair.total_cost <= 2, "cost was {}", repair.total_cost);
        assert_eq!(repair.verified, Some(true));
    }

    #[test]
    fn sequential_and_parallel_cluster_processing_agree() {
        let clusters = derivatives_clusters();
        let attempt = analyze(
            "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
        );
        let sequential = RepairConfig { parallel: false, ..RepairConfig::default() };
        let parallel = RepairConfig { parallel: true, ..RepairConfig::default() };
        let a = repair_attempt(&clusters, &attempt, &inputs(), &sequential).best.unwrap();
        let b = repair_attempt(&clusters, &attempt, &inputs(), &parallel).best.unwrap();
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.cluster_index, b.cluster_index);
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        assert_eq!(fresh_name("n", &["x".to_owned()]), "new_n");
        assert_eq!(fresh_name("#it1", &[]), "new_it1");
        assert_eq!(fresh_name("n", &["new_n".to_owned()]), "new_n_2");
    }

    #[test]
    fn cached_and_uncached_repair_agree() {
        // The signature cache is a pure optimisation: candidate sets, ILP and
        // decoded repairs must be identical with and without it.
        let clusters = derivatives_clusters();
        for attempt_src in [
            C1,
            "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n",
            "def computeDeriv(poly):\n    result = []\n    for e in range(len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        ] {
            let attempt = analyze(attempt_src);
            let cached = RepairConfig { use_signature_cache: true, ..RepairConfig::default() };
            let uncached = RepairConfig { use_signature_cache: false, ..RepairConfig::default() };
            let a = repair_attempt(&clusters, &attempt, &inputs(), &cached).best.unwrap();
            let b = repair_attempt(&clusters, &attempt, &inputs(), &uncached).best.unwrap();
            assert_eq!(a.total_cost, b.total_cost);
            assert_eq!(a.cluster_index, b.cluster_index);
            assert_eq!(a.actions.len(), b.actions.len());
            assert_eq!(a.var_map, b.var_map);
            assert_eq!(a.verified, b.verified);
        }
    }

    #[test]
    fn trivial_rewrite_reports_fresh_added_vars() {
        // The rewrite path must report `added_vars` as representative →
        // fresh-name pairs, exclude positionally shared parameters, and the
        // rewritten program must actually use the fresh names.
        let clusters = derivatives_clusters();
        let attempt = analyze("def computeDeriv(poly):\n    pass\n");
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        assert!(repair.is_rewrite);
        // The shared parameter is never an addition.
        assert!(repair.added_vars.iter().all(|(rep_var, _)| rep_var != "poly"));
        assert!(!repair.added_vars.is_empty());
        for (rep_var, fresh) in &repair.added_vars {
            assert_ne!(rep_var, fresh, "fresh names follow the decode-path convention");
            assert!(fresh.starts_with("new_"), "got fresh name {fresh}");
            assert!(
                repair.repaired.vars.iter().any(|v| v == fresh),
                "repaired program must define the fresh variable {fresh}"
            );
            assert!(
                !repair.repaired.vars.iter().any(|v| v == rep_var),
                "repaired program must not keep the original name {rep_var}"
            );
        }
        // Every added assignment refers to a variable of the repaired
        // program (i.e. uses fresh names, not representative names).
        for action in &repair.actions {
            if let RepairAction::AddAssignment { var, expr, .. } = action {
                assert!(repair.repaired.vars.iter().any(|v| v == var));
                for used in expr.variables() {
                    assert!(
                        repair.repaired.vars.iter().any(|v| v == &used),
                        "expression variable {used} missing from repaired program"
                    );
                }
            }
        }
    }

    #[test]
    fn relative_size_handles_empty_programs() {
        let clusters = derivatives_clusters();
        let attempt = analyze("def computeDeriv(poly):\n    pass\n");
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        let repair = result.best.unwrap();
        assert!(repair.is_rewrite);
        assert!(repair.relative_size(0).is_infinite());
        assert!(repair.relative_size(100) > 0.0);
    }

    #[test]
    fn no_matching_control_flow_is_reported() {
        let clusters = derivatives_clusters();
        let attempt = analyze(
            "def computeDeriv(poly):\n    result = []\n    for i in range(len(poly)):\n        for j in range(i):\n            result.append(float(poly[i]))\n    return result\n",
        );
        let result = repair_attempt(&clusters, &attempt, &inputs(), &RepairConfig::default());
        assert!(result.best.is_none());
        assert_eq!(result.failure, Some(RepairFailure::NoMatchingControlFlow));
        assert_eq!(result.candidate_clusters, 0);
    }

    /// Fig. 2's `I1`: same control flow as `C1`, but returns `0.0` where
    /// `C1` returns `[0.0]`.
    const I1: &str = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";

    #[test]
    fn infeasible_clusters_are_not_reported_as_budget_exhaustion() {
        // A cluster with no mined expressions offers no replacement for
        // I1's wrong return value, and the pinned return variable cannot be
        // deleted: the only same-control-flow cluster admits no repair.
        let bare = vec![Cluster::from_parts(analyze(C1), vec![0], Vec::new())];
        let attempt = analyze(I1);
        let config = RepairConfig::default();
        assert_eq!(
            repair_against_cluster(&bare[0], 0, &attempt, &inputs(), &config).err(),
            Some(RepairFailure::NoFeasibleRepair)
        );
        let result = repair_attempt(&bare, &attempt, &inputs(), &config);
        assert!(result.best.is_none());
        assert_eq!(result.candidate_clusters, 1);
        assert_eq!(result.failure, Some(RepairFailure::NoFeasibleRepair));

        // The same attempt against the real clusters is repairable, so only
        // a solver that runs out of nodes fails it — and says so.
        let starved = RepairConfig { ilp_limits: SolveLimits { max_nodes: 0 }, ..RepairConfig::default() };
        let result = repair_attempt(&derivatives_clusters(), &attempt, &inputs(), &starved);
        assert!(result.best.is_none());
        assert_eq!(result.failure, Some(RepairFailure::SolverBudgetExhausted));
    }

    #[test]
    fn deleted_variables_render_in_program_order_on_every_repair() {
        // Two dead variables, assigned out of alphabetical order: both must
        // be deleted, and the feedback must list them the same way on every
        // computation (the ILP's deletion variables sit in a hash map).
        let attempt = analyze(
            "def computeDeriv(poly):\n    zed = 1\n    alpha = 2\n    result = []\n    for e in range(1, len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
        );
        let clusters = derivatives_clusters();
        let config = RepairConfig { parallel: false, ..RepairConfig::default() };
        let expected: Vec<String> =
            attempt.program.vars.iter().filter(|v| *v == "zed" || *v == "alpha").cloned().collect();
        assert_eq!(expected.len(), 2);
        let render = || {
            let repair = repair_attempt(&clusters, &attempt, &inputs(), &config).best.unwrap();
            assert_eq!(repair.deleted_vars, expected);
            render_feedback(&repair, &attempt.program, &FeedbackOptions::default()).lines()
        };
        let first = render();
        let deletions: Vec<&String> = first.iter().filter(|line| line.starts_with("Delete")).collect();
        assert_eq!(deletions.len(), 2, "{first:?}");
        for (line, var) in deletions.iter().zip(&expected) {
            assert!(line.contains(&format!("to {var} ")), "{line} should delete {var}");
        }
        for _ in 0..16 {
            assert_eq!(render(), first);
        }
    }
}
