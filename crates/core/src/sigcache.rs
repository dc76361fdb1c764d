//! Semantic-signature cache for expression matching (Definition 4.5).
//!
//! Expression matching `e1 ≃_{Γ,ℓ} e2` asks whether two expressions evaluate
//! to the same value on every memory occurring at location `ℓ` in the traces
//! `Γ`. The repair algorithm's ω-enumeration (Fig. 5) asks this question for
//! thousands of candidate pairs per location, and the *same* representative
//! expression appears on one side of almost all of them. A
//! [`SignatureCache`] evaluates each structurally distinct expression **once
//! per location** into a *value-vector signature* — the vector of its values
//! over the location's memories plus a hash of that vector — and answers
//! subsequent matching queries with a hash-map lookup and a hash comparison.
//!
//! Soundness: the hash is computed through `Value`'s `py_eq`-consistent
//! `Hash` impl, so dynamically equivalent value vectors always hash equally;
//! on hash equality the cached vectors are compared value by value, so a hash
//! collision can never produce a false match. The cache therefore agrees
//! exactly with the direct pairwise evaluation in
//! [`crate::matching::exprs_match`] (property-tested below).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use clara_lang::{eval_expr, Expr, Value};
use clara_model::{Loc, Memory, Trace};

/// The evaluation signature of one expression at one location: its values
/// over the memories occurring at the location, plus a hash of that vector.
#[derive(Debug, Clone)]
pub struct ValueSignature {
    hash: u64,
    values: Rc<[Value]>,
}

impl ValueSignature {
    /// `true` when the two signatures describe dynamically equivalent
    /// expressions: equal hashes (cheap negative filter) confirmed by the
    /// exact `py_eq` comparison of the value vectors (collision guard).
    pub fn matches(&self, other: &ValueSignature) -> bool {
        self.hash == other.hash && self.values[..] == other.values[..]
    }
}

struct LocSignatures<'t> {
    /// The memories occurring at the location, over all traces, in order.
    memories: Vec<Memory<'t>>,
    /// Signature per structurally distinct expression.
    table: HashMap<Expr, ValueSignature>,
}

/// Memoized expression evaluation over the memories of a fixed trace set.
///
/// One cache is built per `repair_against_cluster` call (the traces are the
/// representative's); it is intentionally single-threaded — cluster-level
/// parallelism builds one cache per worker.
pub struct SignatureCache<'t> {
    traces: &'t [Trace],
    locs: HashMap<usize, LocSignatures<'t>>,
}

impl<'t> SignatureCache<'t> {
    /// Creates an empty cache over `traces`. Per-location memory lists are
    /// materialised lazily on first use.
    pub fn new(traces: &'t [Trace]) -> Self {
        SignatureCache { traces, locs: HashMap::new() }
    }

    /// The signature of `expr` at `loc`: evaluated on first request,
    /// memoized (keyed on the expression's structural hash) afterwards.
    /// Evaluation errors yield `⊥`, exactly as in direct matching.
    pub fn signature(&mut self, expr: &Expr, loc: Loc) -> ValueSignature {
        let traces = self.traces;
        let entry = self.locs.entry(loc.0).or_insert_with(|| LocSignatures {
            memories: traces.iter().flat_map(|t| t.memories_at(loc)).collect(),
            table: HashMap::new(),
        });
        if let Some(sig) = entry.table.get(expr) {
            return sig.clone();
        }
        // Only cache misses pay for evaluation; time them so the sigcache
        // stage histogram reflects real work, not memo lookups.
        let _timer = crate::timing::StageTimer::start(crate::timing::Stage::SigCache);
        let values: Vec<Value> =
            entry.memories.iter().map(|m| eval_expr(expr, m).unwrap_or(Value::Undef)).collect();
        let mut hasher = DefaultHasher::new();
        values.len().hash(&mut hasher);
        for value in &values {
            value.hash(&mut hasher);
        }
        let sig = ValueSignature { hash: hasher.finish(), values: values.into() };
        entry.table.insert(expr.clone(), sig.clone());
        sig
    }

    /// Cached form of [`crate::matching::exprs_match`]: `true` iff the two
    /// expressions evaluate to the same value on every memory at `loc`.
    ///
    /// `e1` is signatured (and memoized) in full — in the repair loops it is
    /// the representative expression shared by thousands of queries. `e2` is
    /// first looked up in the memo table; on a miss it is evaluated
    /// *incrementally* against `e1`'s cached values with an early exit on the
    /// first mismatch (most candidates fail on the first memory, and a
    /// mismatching candidate is rarely queried twice, so memoizing it would
    /// cost more than it saves). Fully matching evaluations are memoized.
    pub fn exprs_match(&mut self, e1: &Expr, e2: &Expr, loc: Loc) -> bool {
        if e1 == e2 {
            // Structurally identical expressions are trivially equivalent.
            return true;
        }
        let s1 = self.signature(e1, loc);
        let entry = self.locs.get_mut(&loc.0).expect("loc entry created by signature()");
        if let Some(s2) = entry.table.get(e2) {
            return s1.matches(s2);
        }
        let mut values = Vec::with_capacity(entry.memories.len());
        for (i, memory) in entry.memories.iter().enumerate() {
            let value = eval_expr(e2, memory).unwrap_or(Value::Undef);
            if !value.py_eq(&s1.values[i]) {
                return false;
            }
            values.push(value);
        }
        // Full match: the values are py_eq-equal to `s1`'s, so the
        // (py_eq-consistent) hash is necessarily equal too.
        entry.table.insert(e2.clone(), ValueSignature { hash: s1.hash, values: values.into() });
        true
    }

    /// Like [`SignatureCache::exprs_match`] for the pair `(e1, ω(e2))`, but
    /// without constructing the substituted expression: `ω(e2)` evaluated on
    /// a memory `σ` equals `e2` evaluated on `σ ∘ ω`, so `e2` is evaluated
    /// under a renaming view of each memory. This is the `(ω, •)` fast path
    /// of the repair enumeration, where each `(e2, ω)` pair is queried
    /// exactly once and building `ω(e2)` would only serve the comparison.
    /// `rename` is ω: the name a variable of `e2` reads, or `None` to read
    /// the variable itself.
    pub fn matches_under_renaming<'r, R>(&mut self, e1: &Expr, e2: &Expr, rename: &R, loc: Loc) -> bool
    where
        R: Fn(&str) -> Option<&'r str>,
    {
        if eq_under_renaming(e1, e2, rename) {
            // ω(e2) is structurally identical to e1 (the common case for
            // identity updates and for the representative's own expression):
            // trivially equivalent, no evaluation needed.
            return true;
        }
        let s1 = self.signature(e1, loc);
        let entry = self.locs.get_mut(&loc.0).expect("loc entry created by signature()");
        for (i, memory) in entry.memories.iter().enumerate() {
            let env = RenamedEnv { rename, memory: *memory };
            let value = eval_expr(e2, &env).unwrap_or(Value::Undef);
            if !value.py_eq(&s1.values[i]) {
                return false;
            }
        }
        true
    }

    /// Number of distinct (expression, location) signatures currently
    /// memoized (observability hook for benchmarks and tests).
    pub fn cached_signatures(&self) -> usize {
        self.locs.values().map(|l| l.table.len()).sum()
    }
}

/// Structural equality of `e1` and `ω(e2)` without materialising `ω(e2)`.
fn eq_under_renaming<'r>(e1: &Expr, e2: &Expr, rename: &impl Fn(&str) -> Option<&'r str>) -> bool {
    match (e1, e2) {
        (Expr::Var(a), Expr::Var(b)) => a == rename(b).unwrap_or(b),
        (Expr::Lit(a), Expr::Lit(b)) => a == b,
        (Expr::List(a), Expr::List(b)) | (Expr::Tuple(a), Expr::Tuple(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| eq_under_renaming(x, y, rename))
        }
        (Expr::Unary(op1, a), Expr::Unary(op2, b)) => op1 == op2 && eq_under_renaming(a, b, rename),
        (Expr::Binary(op1, l1, r1), Expr::Binary(op2, l2, r2)) => {
            op1 == op2 && eq_under_renaming(l1, l2, rename) && eq_under_renaming(r1, r2, rename)
        }
        (Expr::Index(b1, i1), Expr::Index(b2, i2)) => {
            eq_under_renaming(b1, b2, rename) && eq_under_renaming(i1, i2, rename)
        }
        (Expr::Slice(b1, l1, h1), Expr::Slice(b2, l2, h2)) => {
            let opt_eq = |x: &Option<Box<Expr>>, y: &Option<Box<Expr>>| match (x, y) {
                (Some(x), Some(y)) => eq_under_renaming(x, y, rename),
                (None, None) => true,
                _ => false,
            };
            eq_under_renaming(b1, b2, rename) && opt_eq(l1, l2) && opt_eq(h1, h2)
        }
        (Expr::Call(n1, a1), Expr::Call(n2, a2)) => {
            n1 == n2
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| eq_under_renaming(x, y, rename))
        }
        (Expr::Method(r1, n1, a1), Expr::Method(r2, n2, a2)) => {
            n1 == n2
                && eq_under_renaming(r1, r2, rename)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| eq_under_renaming(x, y, rename))
        }
        _ => false,
    }
}

/// A memory viewed through a variable renaming ω: looking up `name` reads
/// `ω(name)` (or `name` itself when unmapped) from the underlying memory.
struct RenamedEnv<'a, R> {
    rename: &'a R,
    memory: Memory<'a>,
}

impl<'r, R: Fn(&str) -> Option<&'r str>> clara_lang::Env for RenamedEnv<'_, R> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.memory.get((self.rename)(name).unwrap_or(name)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::exprs_match;
    use clara_lang::parse_expression;
    use clara_model::{Slots, Step, TraceStatus};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// One memory as `(variable, value)` pairs. The memories of one test
    /// trace name the same variables in the same order.
    type Row = Vec<(&'static str, Value)>;

    fn memory(pairs: &[(&'static str, Value)]) -> Row {
        pairs.to_vec()
    }

    /// Builds one trace whose steps place each memory at the location cycle
    /// ℓ0, ℓ1, ℓ0, ℓ1, ... so both locations see a disjoint memory subset.
    /// A step's pre-state is the previous step's post-state, so step `i`
    /// stores memory `i + 1` (the last step repeats its own).
    fn trace_over(memories: Vec<Row>) -> Trace {
        let slots = Arc::new(Slots::new(memories[0].iter().map(|(name, _)| *name)));
        let frame = |row: &Row| -> Arc<[Value]> { row.iter().map(|(_, value)| value.clone()).collect() };
        let last = memories.len() - 1;
        let steps = (0..memories.len())
            .map(|i| Step { loc: Loc(i % 2), post: frame(&memories[(i + 1).min(last)]) })
            .collect();
        Trace::new(slots, frame(&memories[0]), steps, TraceStatus::Completed)
    }

    #[test]
    fn cache_agrees_on_the_papers_examples() {
        let mems = vec![
            memory(&[
                ("result", Value::list(vec![])),
                ("poly", Value::list(vec![Value::Float(6.3), Value::Float(7.6)])),
                ("e", Value::Int(1)),
            ]),
            memory(&[
                ("result", Value::list(vec![Value::Float(7.6)])),
                ("poly", Value::list(vec![Value::Float(6.3), Value::Float(7.6)])),
                ("e", Value::Int(1)),
            ]),
        ];
        let traces = vec![trace_over(mems)];
        let a = parse_expression("result + [float(poly[e]*e)]").unwrap();
        let b = parse_expression("result + [float(e)*poly[e]]").unwrap();
        let c = parse_expression("result + [poly[e]]").unwrap();
        let mut cache = SignatureCache::new(&traces);
        for loc in [Loc(0), Loc(1)] {
            for (x, y) in [(&a, &b), (&a, &c), (&b, &c)] {
                assert_eq!(cache.exprs_match(x, y, loc), exprs_match(x, y, &traces, loc));
            }
        }
        assert!(cache.cached_signatures() > 0);
    }

    #[test]
    fn numeric_type_mixes_match_like_py_eq() {
        // 1 and 1.0 are py_eq-equal: the signature hash must agree.
        let mems = vec![memory(&[("x", Value::Int(2))])];
        let traces = vec![trace_over(mems)];
        let int_expr = parse_expression("x * 1").unwrap();
        let float_expr = parse_expression("x * 1.0").unwrap();
        let mut cache = SignatureCache::new(&traces);
        assert!(exprs_match(&int_expr, &float_expr, &traces, Loc(0)));
        assert!(cache.exprs_match(&int_expr, &float_expr, Loc(0)));
    }

    #[test]
    fn repeated_queries_hit_the_memo_table() {
        let mems = vec![memory(&[("x", Value::Int(3))])];
        let traces = vec![trace_over(mems)];
        let a = parse_expression("x + 1").unwrap();
        let b = parse_expression("1 + x").unwrap();
        let mut cache = SignatureCache::new(&traces);
        assert!(cache.exprs_match(&a, &b, Loc(0)));
        let memoized = cache.cached_signatures();
        for _ in 0..10 {
            assert!(cache.exprs_match(&a, &b, Loc(0)));
        }
        assert_eq!(cache.cached_signatures(), memoized, "no re-evaluation on repeat queries");
    }

    // ------------------------------------------------------------------
    // Property: the cached matcher agrees with direct pairwise evaluation
    // on random expressions and random memories.
    // ------------------------------------------------------------------

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-5i64..6).prop_map(Value::Int),
            (-6i64..7).prop_map(|i| Value::Float(i as f64 * 0.5)),
            Just(Value::Bool(true)),
            Just(Value::Bool(false)),
            Just(Value::None),
            Just(Value::Undef),
            Just(Value::str("ab")),
            proptest::collection::vec((-3i64..4).prop_map(Value::Int), 0..4).prop_map(Value::list),
        ]
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-4i64..5).prop_map(Expr::int),
            (-4i64..5).prop_map(|i| Expr::float(i as f64 * 0.5)),
            proptest::sample::select(vec!["a", "b", "xs"]).prop_map(Expr::var),
        ];
        leaf.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    proptest::sample::select(vec![
                        clara_lang::BinOp::Add,
                        clara_lang::BinOp::Sub,
                        clara_lang::BinOp::Mul,
                        clara_lang::BinOp::Eq,
                        clara_lang::BinOp::Lt,
                    ])
                )
                    .prop_map(|(l, r, op)| Expr::bin(op, l, r)),
                (inner.clone(), inner.clone()).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
                inner.clone().prop_map(|e| Expr::call("len", vec![e])),
                proptest::collection::vec(inner, 0..3).prop_map(Expr::List),
            ]
        })
    }

    fn arb_memory() -> impl Strategy<Value = Row> {
        (arb_value(), arb_value(), arb_value())
            .prop_map(|(a, b, xs)| memory(&[("a", a), ("b", b), ("xs", xs)]))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn cached_matching_agrees_with_direct_evaluation(
            e1 in arb_expr(),
            e2 in arb_expr(),
            mems in proptest::collection::vec(arb_memory(), 1..5),
        ) {
            let traces = vec![trace_over(mems)];
            let mut cache = SignatureCache::new(&traces);
            for loc in [Loc(0), Loc(1), Loc(7)] {
                let direct = exprs_match(&e1, &e2, &traces, loc);
                prop_assert_eq!(cache.exprs_match(&e1, &e2, loc), direct);
                // And again, now that both signatures are memoized.
                prop_assert_eq!(cache.exprs_match(&e1, &e2, loc), direct);
            }
        }

        #[test]
        fn renamed_matching_agrees_with_substitution(
            e1 in arb_expr(),
            e2 in arb_expr(),
            mems in proptest::collection::vec(arb_memory(), 1..5),
            targets in proptest::collection::vec(
                proptest::sample::select(vec!["a", "b", "xs"]), 3),
        ) {
            // An arbitrary (not necessarily injective) renaming over the
            // variables of the test universe.
            let omega: HashMap<String, String> = ["a", "b", "xs"]
                .iter()
                .zip(&targets)
                .map(|(from, to)| ((*from).to_owned(), (*to).to_owned()))
                .collect();
            let rename = |name: &str| omega.get(name).map(String::as_str);
            let substituted = e2.substitute(&|name| rename(name).map(Expr::var));
            let traces = vec![trace_over(mems)];
            let mut cache = SignatureCache::new(&traces);
            for loc in [Loc(0), Loc(1)] {
                let direct = exprs_match(&e1, &substituted, &traces, loc);
                prop_assert_eq!(cache.matches_under_renaming(&e1, &e2, &rename, loc), direct);
            }
        }
    }
}
