//! Clustering of correct student solutions (§4, Definition 4.7).
//!
//! Clusters are the equivalence classes of the matching relation `∼_I`. Each
//! cluster keeps an arbitrary representative and the set of *cluster
//! expressions* `E_C(ℓ, v)`: all dynamically equivalent (but possibly
//! syntactically different) expressions contributed by its members,
//! translated to range over the representative's variables. The repair
//! algorithm later mines these expressions to build candidate local repairs.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use clara_lang::Expr;
use clara_model::Loc;

use crate::analysis::AnalyzedProgram;
use crate::matching::{apply_var_map, find_matching, VarMap};

/// A cluster of dynamically equivalent correct solutions.
///
/// Cloning a cluster is cheap: the representative and the expression slot
/// table sit behind `Arc`s, so a clone shares them and copies only the
/// member list. Writes go through [`Arc::make_mut`], which copies a shared
/// slot table first. Both writers check read-only before they write, so a
/// cluster that an insertion does not change stays shared with the
/// snapshot it was cloned from. That is what lets the online pool (§2)
/// publish a successor index that copies only the cluster a learn joined
/// or opened.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The cluster representative `P_C`.
    pub representative: Arc<AnalyzedProgram>,
    /// Indices (into the input list of [`cluster_programs`]) of the members.
    pub member_ids: Vec<usize>,
    /// The cluster expressions `E_C(ℓ, v)`, shared between clones until one
    /// of them changes.
    slots: Arc<Slots>,
}

/// The cluster expressions `E_C(ℓ, v)` over the representative's
/// variables, de-duplicated structurally.
#[derive(Debug, Clone, Default)]
struct Slots {
    /// The expressions of each `(loc, var)` slot, in mining order.
    by_key: HashMap<(usize, String), Vec<Expr>>,
    /// Set view of `by_key` for O(1) structural dedup (Expr is
    /// `Eq + Hash`).
    set: HashSet<(usize, String, Expr)>,
}

impl Cluster {
    fn new(representative: AnalyzedProgram, id: usize) -> Self {
        let representative = Arc::new(representative);
        let mut cluster = Cluster {
            representative: Arc::clone(&representative),
            member_ids: vec![id],
            slots: Arc::default(),
        };
        let identity: VarMap = representative.program.vars.iter().map(|v| (v.clone(), v.clone())).collect();
        cluster.absorb_expressions_with(&identity, &representative.program);
        cluster
    }

    /// Number of member programs.
    pub fn size(&self) -> usize {
        self.member_ids.len()
    }

    /// The cluster expressions for `(loc, var)`, where `var` is a variable of
    /// the representative.
    pub fn expressions(&self, loc: Loc, var: &str) -> &[Expr] {
        self.slots.by_key.get(&(loc.0, var.to_owned())).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(loc, var)` pairs that have at least one cluster expression.
    pub fn expression_keys(&self) -> impl Iterator<Item = (Loc, &str)> {
        self.slots.by_key.keys().map(|(loc, var)| (Loc(*loc), var.as_str()))
    }

    /// Total number of stored cluster expressions (after de-duplication).
    pub fn expression_count(&self) -> usize {
        self.slots.by_key.values().map(Vec::len).sum()
    }

    /// Exports the mined cluster expressions in a deterministic order
    /// (sorted by location, then variable), preserving the per-slot mining
    /// order that repair candidate enumeration sees. This is the
    /// serialization contract of the persistent cluster index: feeding the
    /// result to [`Cluster::from_parts`] reconstructs an equivalent cluster.
    pub fn export_expressions(&self) -> Vec<(usize, String, Vec<Expr>)> {
        let mut out: Vec<(usize, String, Vec<Expr>)> =
            self.slots.by_key.iter().map(|((loc, var), exprs)| (*loc, var.clone(), exprs.clone())).collect();
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    /// Rebuilds a cluster from a previously exported state: the re-analysed
    /// representative, the stored member ids and the expression slots from
    /// [`Cluster::export_expressions`]. Expressions are taken as-is — the
    /// representative's own contributions must already be included (they
    /// always are in an exported cluster).
    pub fn from_parts(
        representative: AnalyzedProgram,
        member_ids: Vec<usize>,
        expression_slots: Vec<(usize, String, Vec<Expr>)>,
    ) -> Self {
        let mut slots = Slots::default();
        for (loc, var, exprs) in expression_slots {
            for expr in &exprs {
                slots.set.insert((loc, var.clone(), expr.clone()));
            }
            slots.by_key.insert((loc, var), exprs);
        }
        Cluster { representative: Arc::new(representative), member_ids, slots: Arc::new(slots) }
    }

    /// Caps every expression slot at `max_exprs` variants, keeping the
    /// mining order's prefix (earliest contributions — always including the
    /// representative's own expression, mined first). Returns whether
    /// anything was dropped. Idempotent: capping an already-capped cluster
    /// is a no-op, and a no-op leaves a shared slot table shared.
    pub fn cap_expression_slots(&mut self, max_exprs: usize) -> bool {
        let max_exprs = max_exprs.max(1);
        // Compaction calls this on every cluster after every insertion once
        // the pool outgrows its budget, so only an actual drop may copy.
        if self.slots.by_key.values().all(|exprs| exprs.len() <= max_exprs) {
            return false;
        }
        let Slots { by_key, set } = Arc::make_mut(&mut self.slots);
        for ((loc, var), exprs) in by_key.iter_mut() {
            for dropped in exprs.drain(max_exprs.min(exprs.len())..) {
                set.remove(&(*loc, var.clone(), dropped));
            }
        }
        true
    }

    pub(crate) fn absorb_member(&mut self, member: &AnalyzedProgram, witness: &VarMap, id: usize) {
        self.member_ids.push(id);
        self.absorb_expressions_with(witness, &member.program);
    }

    /// Mines `program`'s updates into the slots, translated through
    /// `witness`. A member that contributes nothing new (the common case
    /// for a large cluster) leaves a shared slot table shared.
    fn absorb_expressions_with(&mut self, witness: &VarMap, program: &clara_model::Program) {
        let mut fresh = Vec::new();
        for loc in program.locs() {
            for (var, expr) in program.updates_at(loc) {
                let rep_var = witness.get(var).cloned().unwrap_or_else(|| var.clone());
                let key = (loc.0, rep_var, apply_var_map(expr, witness));
                if !self.slots.set.contains(&key) {
                    fresh.push(key);
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        let Slots { by_key, set } = Arc::make_mut(&mut self.slots);
        for (loc, rep_var, translated) in fresh {
            if set.insert((loc, rep_var.clone(), translated.clone())) {
                by_key.entry((loc, rep_var)).or_default().push(translated);
            }
        }
    }
}

/// Bounds on stored cluster state, applied after every insertion so
/// warm-start memory stays bounded as the correct pool grows without limit.
///
/// Compaction is lossy only for mined repair-expression *variants* — the
/// clusters themselves (the `∼_I` equivalence classes), their
/// representatives and member counts are never merged or dropped, because
/// matching is transitive: two clusters that could be merged would never
/// have formed separately. Defaults are generous enough that classroom-size
/// pools are unaffected.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Per-`(loc, var)` cap on mined expression variants in a full cluster.
    pub max_exprs_per_slot: usize,
    /// Cluster-count budget: when the pool holds more clusters than this,
    /// clusters outside the largest-`max_full_clusters` (by member count,
    /// earliest index winning ties) are demoted to representative-only
    /// expression skeletons (one expression per slot).
    pub max_full_clusters: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig { max_exprs_per_slot: 64, max_full_clusters: 256 }
    }
}

/// Applies `config` to every cluster: caps each slot, then demotes clusters
/// beyond the count budget to skeletons. Returns the number of clusters
/// that lost expressions. Idempotent for a fixed cluster population, and a
/// cluster that is already within bounds keeps a shared slot table shared.
pub fn compact_clusters(clusters: &mut [Cluster], config: &CompactionConfig) -> usize {
    let mut touched = 0;
    for cluster in clusters.iter_mut() {
        if cluster.cap_expression_slots(config.max_exprs_per_slot) {
            touched += 1;
        }
    }
    if clusters.len() > config.max_full_clusters {
        // Rank by member count (descending; ties keep the earlier cluster)
        // and demote everything past the budget.
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(clusters[i].size()), i));
        for &i in &order[config.max_full_clusters..] {
            if clusters[i].cap_expression_slots(1) {
                touched += 1;
            }
        }
    }
    touched
}

/// Summary statistics of a clustering run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteringStats {
    /// Number of programs that were clustered.
    pub program_count: usize,
    /// Number of clusters produced.
    pub cluster_count: usize,
    /// Size of the largest cluster.
    pub largest_cluster: usize,
    /// Total number of mined cluster expressions.
    pub expression_count: usize,
}

/// Groups correct solutions into clusters (equivalence classes of `∼_I`).
///
/// Programs are matched against existing cluster representatives; the
/// behaviour fingerprint and structural signature serve as cheap pre-filters
/// before the full matching algorithm of Fig. 4 runs.
pub fn cluster_programs(programs: Vec<AnalyzedProgram>) -> Vec<Cluster> {
    let mut clusters: Vec<Cluster> = Vec::new();
    // Index clusters by fingerprint for a fast pre-filter.
    let mut by_fingerprint: HashMap<u64, Vec<usize>> = HashMap::new();

    for (id, program) in programs.into_iter().enumerate() {
        let mut placed = false;
        if let Some(candidates) = by_fingerprint.get(&program.fingerprint) {
            for &cluster_index in candidates {
                let witness = find_matching(&clusters[cluster_index].representative, &program);
                if let Some(witness) = witness {
                    clusters[cluster_index].absorb_member(&program, &witness, id);
                    placed = true;
                    break;
                }
            }
        }
        if !placed {
            let fingerprint = program.fingerprint;
            clusters.push(Cluster::new(program, id));
            by_fingerprint.entry(fingerprint).or_default().push(clusters.len() - 1);
        }
    }
    clusters
}

/// Computes summary statistics for a set of clusters.
pub fn clustering_stats(clusters: &[Cluster]) -> ClusteringStats {
    ClusteringStats {
        program_count: clusters.iter().map(Cluster::size).sum(),
        cluster_count: clusters.len(),
        largest_cluster: clusters.iter().map(Cluster::size).max().unwrap_or(0),
        expression_count: clusters.iter().map(Cluster::expression_count).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lang::{expr_to_string, Value};
    use clara_model::Fuel;

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

    fn analyze(src: &str) -> AnalyzedProgram {
        AnalyzedProgram::from_text(src, "computeDeriv", &inputs(), Fuel::default()).unwrap()
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

    const C3: &str = "\
def computeDeriv(poly):
    out = []
    for k in range(1, len(poly)):
        out = out + [1.0 * poly[k] * k]
    if len(out) > 0:
        return out
    else:
        return [0.0]
";

    const WHILE_VERSION: &str = "\
def computeDeriv(poly):
    result = []
    i = 1
    while i < len(poly):
        result.append(float(poly[i]*i))
        i = i + 1
    if result == []:
        return [0.0]
    return result
";

    #[test]
    fn equivalent_solutions_form_one_cluster() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(C2), analyze(C3)]);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].size(), 3);
    }

    #[test]
    fn structurally_different_solutions_form_separate_clusters() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(WHILE_VERSION), analyze(C2)]);
        assert_eq!(clusters.len(), 2);
        let stats = clustering_stats(&clusters);
        assert_eq!(stats.program_count, 3);
        assert_eq!(stats.largest_cluster, 2);
    }

    #[test]
    fn cluster_expressions_are_mined_from_all_members() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(C2), analyze(C3)]);
        let cluster = &clusters[0];
        // The loop-body assignment to `result` (location 2) has one expression
        // per syntactically distinct member contribution (Fig. 2(c)).
        let loop_exprs = cluster.expressions(Loc(2), "result");
        assert!(loop_exprs.len() >= 3, "expected ≥3 mined expressions, got {}", loop_exprs.len());
        let rendered: Vec<String> = loop_exprs.iter().map(expr_to_string).collect();
        assert!(rendered.iter().any(|s| s.contains("append")), "{rendered:?}");
        assert!(rendered.iter().any(|s| s.contains("+ [")), "{rendered:?}");
        // The return expression variants of Fig. 2(d).
        let return_exprs = cluster.expressions(Loc(3), "return");
        assert!(return_exprs.len() >= 2);
    }

    #[test]
    fn expressions_are_translated_to_representative_variables() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(C2)]);
        let cluster = &clusters[0];
        for exprs in cluster.slots.by_key.values() {
            for expr in exprs {
                for var in expr.variables() {
                    assert!(
                        cluster.representative.program.vars.contains(&var),
                        "expression {} refers to non-representative variable {var}",
                        expr_to_string(expr)
                    );
                }
            }
        }
    }

    #[test]
    fn export_and_from_parts_reconstruct_the_cluster() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(C2), analyze(C3)]);
        let original = &clusters[0];
        let rebuilt = Cluster::from_parts(
            (*original.representative).clone(),
            original.member_ids.clone(),
            original.export_expressions(),
        );
        assert_eq!(rebuilt.size(), original.size());
        assert_eq!(rebuilt.expression_count(), original.expression_count());
        for (loc, var) in original.expression_keys() {
            assert_eq!(rebuilt.expressions(loc, var), original.expressions(loc, var), "({loc:?}, {var})");
        }
        // Export order is deterministic (sorted), so exporting the rebuilt
        // cluster reproduces the exact same listing.
        assert_eq!(rebuilt.export_expressions(), original.export_expressions());
    }

    #[test]
    fn slot_capping_keeps_the_mining_prefix_and_is_idempotent() {
        let clusters = cluster_programs(vec![analyze(C1), analyze(C2), analyze(C3)]);
        let mut cluster = clusters[0].clone();
        let full = cluster.expressions(Loc(2), "result").to_vec();
        assert!(full.len() >= 3);

        assert!(cluster.cap_expression_slots(2), "capping below slot size drops variants");
        assert_eq!(cluster.expressions(Loc(2), "result"), &full[..2], "prefix survives");
        // Idempotence: re-capping at the same bound changes nothing.
        let exported = cluster.export_expressions();
        assert!(!cluster.cap_expression_slots(2));
        assert_eq!(cluster.export_expressions(), exported);
        // The set view stays consistent: a dropped expression can be mined
        // again by a later member without being treated as a duplicate.
        let dropped = full[2].clone();
        assert!(!cluster.export_expressions().iter().any(|(_, _, exprs)| exprs.contains(&dropped)));
    }

    #[test]
    fn compaction_demotes_only_clusters_beyond_the_budget() {
        let mut clusters =
            cluster_programs(vec![analyze(C1), analyze(C2), analyze(C3), analyze(WHILE_VERSION)]);
        assert_eq!(clusters.len(), 2);
        let big_before = clusters[0].expression_count();
        let config = CompactionConfig { max_exprs_per_slot: 64, max_full_clusters: 1 };
        compact_clusters(&mut clusters, &config);
        // The larger cluster (3 members) keeps its mined variants; the
        // singleton beyond the budget shrinks to one expression per slot.
        assert_eq!(clusters[0].expression_count(), big_before);
        assert!(clusters[1].expression_keys().all(|(loc, var)| clusters[1].expressions(loc, var).len() == 1));
        // Cluster identity (count, membership, order) is untouched.
        assert_eq!(clusters[0].size(), 3);
        assert_eq!(clusters[1].size(), 1);
        // Idempotent on a fixed population.
        let snapshot: Vec<_> = clusters.iter().map(Cluster::export_expressions).collect();
        compact_clusters(&mut clusters, &config);
        let again: Vec<_> = clusters.iter().map(Cluster::export_expressions).collect();
        assert_eq!(snapshot, again);
    }

    #[test]
    fn duplicate_programs_do_not_duplicate_expressions() {
        let clusters_once = cluster_programs(vec![analyze(C1), analyze(C2)]);
        let clusters_twice = cluster_programs(vec![analyze(C1), analyze(C2), analyze(C2), analyze(C1)]);
        assert_eq!(clusters_once.len(), 1);
        assert_eq!(clusters_twice.len(), 1);
        assert_eq!(clusters_once[0].expression_count(), clusters_twice[0].expression_count());
        assert_eq!(clusters_twice[0].size(), 4);
    }
}
