//! # clara-ted — Zhang–Shasha ordered tree edit distance
//!
//! Clara's repair cost metric (`diff` in Definition 5.1) is the tree edit
//! distance between the abstract syntax trees of the original and the
//! repaired expression. The original implementation used the Python
//! `zhang-shasha` package; this crate implements the same algorithm
//! (K. Zhang and D. Shasha, *Simple fast algorithms for the editing distance
//! between trees and related problems*, SIAM J. Comput. 1989) from scratch.
//!
//! The distance is computed over labelled, ordered trees with unit costs:
//! deleting a node costs 1, inserting a node costs 1, and relabelling costs 1
//! (0 if the labels are equal).
//!
//! ```rust
//! use clara_lang::parse_expression;
//! use clara_ted::expr_edit_distance;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = parse_expression("range(len(poly))")?;
//! let b = parse_expression("range(1, len(poly))")?;
//! assert_eq!(expr_edit_distance(&a, &b), 1); // insert the literal `1`
//! # Ok(())
//! # }
//! ```
//!
//! ## Labels
//!
//! A node's label is borrowed from the expression it labels: a small `Copy`
//! value holding the node kind and its payload (an operator, a literal, or
//! a `&str` name), never a rendered `String`. Two labels are equal exactly
//! when the text labels `kind:payload` that earlier versions rendered with
//! `format!` are equal (`"var:x"`, `"call:len"`, `"float:-0"`, …): `Str("x")`
//! differs from `Var("x")`, `Call("len")` from `Method("len")`, `Float(1.0)`
//! from `Int(1)`, `0.0` from `-0.0`, and every `NaN` equals every other
//! `NaN`. The costs, and so every repair's cost, are those of the text
//! labels; a test-only copy of the text-label algorithm (`reference.rs`)
//! checks this on random expressions.
//!
//! ## Buffers
//!
//! One side of a comparison is a [`PreparedTree`], flattened once and
//! compared many times: the repair loop prepares each implementation
//! expression once per attempt and compares it with every candidate
//! replacement through [`PreparedTree::distance_to`]. Its distinct labels
//! are numbered, the other side is flattened into per-thread buffers with
//! each label replaced by that number, and the distance and forest
//! matrices are flat per-thread buffers too, so a comparison allocates
//! nothing once its thread has seen trees as large. Keyroots are found
//! while flattening (the root and every child but the left-most), in
//! linear time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;

use clara_lang::ast::{BinOp, Expr, Lit, UnOp};

#[cfg(test)]
mod reference;

/// A labelled ordered tree, the input of the Zhang–Shasha algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelTree {
    /// The node label.
    pub label: String,
    /// The ordered children.
    pub children: Vec<LabelTree>,
}

impl LabelTree {
    /// Creates a leaf node.
    pub fn leaf(label: impl Into<String>) -> Self {
        LabelTree { label: label.into(), children: Vec::new() }
    }

    /// Creates an inner node.
    pub fn node(label: impl Into<String>, children: Vec<LabelTree>) -> Self {
        LabelTree { label: label.into(), children }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(LabelTree::size).sum::<usize>()
    }
}

/// A node label, borrowed from the tree it labels (see the crate docs for
/// when two labels are equal).
#[derive(Debug, Clone, Copy)]
enum Label<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
    None,
    Var(&'a str),
    List,
    Tuple,
    Unary(UnOp),
    Binary(BinOp),
    Index,
    Slice,
    Call(&'a str),
    Method(&'a str),
    /// The label of a [`LabelTree`] node.
    Text(&'a str),
}

impl PartialEq for Label<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Label::Int(a), Label::Int(b)) => a == b,
            // Rendered floats are equal iff their bits are, except that
            // every NaN renders as `NaN`.
            (Label::Float(a), Label::Float(b)) => a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            (Label::Bool(a), Label::Bool(b)) => a == b,
            (Label::Unary(a), Label::Unary(b)) => a == b,
            (Label::Binary(a), Label::Binary(b)) => a == b,
            (Label::Str(a), Label::Str(b))
            | (Label::Var(a), Label::Var(b))
            | (Label::Call(a), Label::Call(b))
            | (Label::Method(a), Label::Method(b))
            | (Label::Text(a), Label::Text(b)) => a == b,
            (Label::None, Label::None)
            | (Label::List, Label::List)
            | (Label::Tuple, Label::Tuple)
            | (Label::Index, Label::Index)
            | (Label::Slice, Label::Slice) => true,
            _ => false,
        }
    }
}

/// A tree the distance runs on: each node splits into its label, up to
/// three leading children and a slice of further children, in order.
trait Node: Sized {
    fn split(&self) -> (Label<'_>, [Option<&Self>; 3], &[Self]);
}

impl Node for Expr {
    fn split(&self) -> (Label<'_>, [Option<&Self>; 3], &[Self]) {
        match self {
            Expr::Lit(lit) => {
                let label = match lit {
                    Lit::Int(v) => Label::Int(*v),
                    Lit::Float(v) => Label::Float(*v),
                    Lit::Str(v) => Label::Str(v),
                    Lit::Bool(v) => Label::Bool(*v),
                    Lit::None => Label::None,
                };
                (label, [None; 3], &[])
            }
            Expr::Var(name) => (Label::Var(name), [None; 3], &[]),
            Expr::List(items) => (Label::List, [None; 3], items),
            Expr::Tuple(items) => (Label::Tuple, [None; 3], items),
            Expr::Unary(op, inner) => (Label::Unary(*op), [Some(inner), None, None], &[]),
            Expr::Binary(op, lhs, rhs) => (Label::Binary(*op), [Some(lhs), Some(rhs), None], &[]),
            Expr::Index(base, idx) => (Label::Index, [Some(base), Some(idx), None], &[]),
            Expr::Slice(base, lo, hi) => (Label::Slice, [Some(base), lo.as_deref(), hi.as_deref()], &[]),
            Expr::Call(name, args) => (Label::Call(name), [None; 3], args),
            Expr::Method(recv, name, args) => (Label::Method(name), [Some(recv), None, None], args),
        }
    }
}

impl Node for LabelTree {
    fn split(&self) -> (Label<'_>, [Option<&Self>; 3], &[Self]) {
        (Label::Text(&self.label), [None; 3], &self.children)
    }
}

fn children<'a, N: Node>(fixed: [Option<&'a N>; 3], rest: &'a [N]) -> impl Iterator<Item = &'a N> {
    fixed.into_iter().flatten().chain(rest)
}

/// The tree edit distance between two expressions (the paper's `diff`).
pub fn expr_edit_distance(a: &Expr, b: &Expr) -> usize {
    PreparedTree::from_expr(a).distance_to(b)
}

/// Number of AST nodes of an expression, i.e. the edit distance from the
/// empty tree (used for relative repair size and add/delete costs).
pub fn expr_tree_size(expr: &Expr) -> usize {
    let (_, fixed, rest) = expr.split();
    1 + children(fixed, rest).map(expr_tree_size).sum::<usize>()
}

/// The Zhang–Shasha tree edit distance with unit costs.
pub fn tree_edit_distance(a: &LabelTree, b: &LabelTree) -> usize {
    PreparedTree::from_tree(a).distance(b)
}

/// A tree in post order: each node's left-most leaf and label number, and
/// the keyroots in ascending order.
#[derive(Default)]
struct Flat {
    /// `lml[i]` is the post-order index of the left-most leaf of the
    /// subtree rooted at node `i`.
    lml: Vec<usize>,
    /// `class[i]` numbers node `i`'s label: nodes of the two compared trees
    /// have equal labels iff their numbers are equal.
    class: Vec<usize>,
    keyroots: Vec<usize>,
}

impl Flat {
    fn clear(&mut self) {
        self.lml.clear();
        self.class.clear();
        self.keyroots.clear();
    }

    /// Appends `root`'s tree in post order, numbering each label with
    /// `number`.
    fn push_tree<'a, N: Node>(&mut self, root: &'a N, number: &mut impl FnMut(Label<'a>) -> usize) {
        let root = self.push(root, number);
        self.keyroots.push(root);
    }

    fn push<'a, N: Node>(&mut self, node: &'a N, number: &mut impl FnMut(Label<'a>) -> usize) -> usize {
        let (label, fixed, rest) = node.split();
        let mut first_leaf = None;
        for child in children(fixed, rest) {
            let index = self.push(child, number);
            match first_leaf {
                None => first_leaf = Some(self.lml[index]),
                // A child right of the left-most shares its left-most leaf
                // with no later node: a keyroot. Pushed as soon as its
                // subtree is done, so the keyroots stay in post order.
                Some(_) => self.keyroots.push(index),
            }
        }
        let index = self.lml.len();
        self.lml.push(first_leaf.unwrap_or(index));
        self.class.push(number(label));
        index
    }

    fn len(&self) -> usize {
        self.lml.len()
    }
}

/// A tree flattened once into the post-order arrays of Zhang–Shasha, to be
/// compared with many others through [`PreparedTree::distance_to`].
pub struct PreparedTree<'a> {
    flat: Flat,
    /// The distinct labels, numbered by position.
    labels: Vec<Label<'a>>,
}

/// Per-thread buffers of [`PreparedTree::distance_to`]: the other tree,
/// the subtree distances and the forest distances.
#[derive(Default)]
struct Scratch {
    other: Flat,
    dist: Vec<usize>,
    forest: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Matrix cells a thread keeps between distances (512 KiB per matrix):
/// 40 times the largest forest matrix the repair benchmark's corpus
/// needs (1,600 cells).
const RETAINED_CELLS: usize = 1 << 16;

impl<'a> PreparedTree<'a> {
    /// Flattens an expression.
    pub fn from_expr(expr: &'a Expr) -> Self {
        Self::prepare(expr)
    }

    /// Flattens a label tree.
    pub fn from_tree(tree: &'a LabelTree) -> Self {
        Self::prepare(tree)
    }

    fn prepare<N: Node>(root: &'a N) -> Self {
        let mut flat = Flat::default();
        let mut labels: Vec<Label<'a>> = Vec::new();
        flat.push_tree(root, &mut |label| match labels.iter().position(|l| *l == label) {
            Some(number) => number,
            None => {
                labels.push(label);
                labels.len() - 1
            }
        });
        PreparedTree { flat, labels }
    }

    /// The tree edit distance from this tree to `other`.
    pub fn distance_to(&self, other: &Expr) -> usize {
        self.distance(other)
    }

    fn distance<N: Node>(&self, other: &N) -> usize {
        SCRATCH.with(|scratch| {
            let Scratch { other: flat, dist, forest } = &mut *scratch.borrow_mut();
            flat.clear();
            // A label this tree lacks gets a number none of its labels has.
            flat.push_tree(other, &mut |label| {
                self.labels.iter().position(|l| *l == label).unwrap_or(usize::MAX)
            });
            let distance = zhang_shasha(&self.flat, flat, dist, forest);
            // One pair of huge trees must not pin its matrices to the
            // thread for good.
            for buffer in [dist, forest] {
                if buffer.len() > RETAINED_CELLS {
                    *buffer = Vec::new();
                }
            }
            distance
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// `true` when the tree is empty (never the case for expression trees).
    pub fn is_empty(&self) -> bool {
        self.flat.len() == 0
    }
}

/// The Zhang–Shasha distance between `a` and `b`, whose label numbers are
/// comparable. `dist` and `forest` are working buffers of any contents.
fn zhang_shasha(a: &Flat, b: &Flat, dist: &mut Vec<usize>, forest: &mut Vec<usize>) -> usize {
    let (na, nb) = (a.len(), b.len());
    // Every entry is written before it is read, so stale contents are fine.
    dist.resize(na * nb, 0);
    forest.resize((na + 1) * (nb + 1), 0);
    for &i in &a.keyroots {
        for &j in &b.keyroots {
            forest_distances(a, b, i, j, dist, forest);
        }
    }
    dist[na * nb - 1]
}

/// Fills the forest distances of keyroots `i` of `a` and `j` of `b`, and
/// `dist[x * b.len() + y]` for every pair of nodes `x`, `y` on their
/// left-most paths.
fn forest_distances(a: &Flat, b: &Flat, i: usize, j: usize, dist: &mut [usize], forest: &mut [usize]) {
    let nb = b.len();
    let (li, lj) = (a.lml[i], b.lml[j]);
    let cols = j - lj + 2;
    // forest[x * cols + y] is the distance between the forests
    // a[li .. li + x] and b[lj .. lj + y].
    for (y, cell) in forest[..cols].iter_mut().enumerate() {
        *cell = y;
    }
    for x in 1..i - li + 2 {
        let node_a = li + x - 1;
        let (row, above) = (x * cols, (x - 1) * cols);
        forest[row] = x;
        let a_on_path = a.lml[node_a] == li;
        let a_forest = (a.lml[node_a] - li) * cols;
        let dist_row = node_a * nb;
        for y in 1..cols {
            let node_b = lj + y - 1;
            let edit = (forest[above + y] + 1).min(forest[row + y - 1] + 1);
            forest[row + y] = if a_on_path && b.lml[node_b] == lj {
                let rename = usize::from(a.class[node_a] != b.class[node_b]);
                let d = edit.min(forest[above + y - 1] + rename);
                dist[dist_row + node_b] = d;
                d
            } else {
                edit.min(forest[a_forest + b.lml[node_b] - lj] + dist[dist_row + node_b])
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lang::parse_expression;

    fn dist(a: &str, b: &str) -> usize {
        expr_edit_distance(&parse_expression(a).unwrap(), &parse_expression(b).unwrap())
    }

    #[test]
    fn identical_expressions_have_distance_zero() {
        for src in ["x", "range(1, len(poly))", "result + [float(e)*poly[e]]"] {
            assert_eq!(dist(src, src), 0, "distance of `{src}` to itself");
        }
    }

    #[test]
    fn single_node_changes_cost_one() {
        assert_eq!(dist("x", "y"), 1);
        assert_eq!(dist("x + 1", "x + 2"), 1);
        assert_eq!(dist("x + 1", "x - 1"), 1);
    }

    #[test]
    fn insertion_of_an_argument() {
        // The paper's Fig. 2(h) first modification.
        assert_eq!(dist("range(len(poly))", "range(1, len(poly))"), 1);
    }

    #[test]
    fn the_papers_i1_repair_cost_is_small() {
        // Fig. 2(g): change `0.0` to `[0.0]` — one list node is inserted.
        assert_eq!(dist("0.0", "[0.0]"), 1);
    }

    #[test]
    fn known_textbook_example() {
        // Classic Zhang–Shasha example: f(d(a c(b)) e) vs f(c(d(a b)) e) has
        // distance 2.
        let t1 = LabelTree::node(
            "f",
            vec![
                LabelTree::node(
                    "d",
                    vec![LabelTree::leaf("a"), LabelTree::node("c", vec![LabelTree::leaf("b")])],
                ),
                LabelTree::leaf("e"),
            ],
        );
        let t2 = LabelTree::node(
            "f",
            vec![
                LabelTree::node(
                    "c",
                    vec![LabelTree::node("d", vec![LabelTree::leaf("a"), LabelTree::leaf("b")])],
                ),
                LabelTree::leaf("e"),
            ],
        );
        assert_eq!(tree_edit_distance(&t1, &t2), 2);
        assert_eq!(tree_edit_distance(&t2, &t1), 2);
    }

    #[test]
    fn distance_to_a_leaf_is_bounded_by_size() {
        let big = parse_expression("result + [float(e) * poly[e]]").unwrap();
        let small = parse_expression("x").unwrap();
        let d = expr_edit_distance(&big, &small);
        // Everything is deleted except one node which is renamed.
        assert_eq!(d, expr_tree_size(&big));
    }

    #[test]
    fn sizes_count_nodes() {
        assert_eq!(expr_tree_size(&parse_expression("x").unwrap()), 1);
        assert_eq!(expr_tree_size(&parse_expression("x + 1").unwrap()), 3);
        assert_eq!(expr_tree_size(&parse_expression("f(x, y + 1)").unwrap()), 5);
    }

    #[test]
    fn completely_different_expressions() {
        let d = dist("result.append(float(poly[e]*e))", "0");
        assert!(d >= 7, "expected a large distance, got {d}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_tree() -> impl Strategy<Value = LabelTree> {
            let leaf = prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(LabelTree::leaf);
            leaf.prop_recursive(3, 12, 3, |inner| {
                (prop::sample::select(vec!["f", "g", "h"]), prop::collection::vec(inner, 0..3))
                    .prop_map(|(label, children)| LabelTree::node(label, children))
            })
        }

        proptest! {
            #[test]
            fn distance_is_zero_for_equal_trees(t in arb_tree()) {
                prop_assert_eq!(tree_edit_distance(&t, &t), 0);
            }

            #[test]
            fn distance_is_symmetric(a in arb_tree(), b in arb_tree()) {
                prop_assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
            }

            #[test]
            fn distance_is_bounded_by_sizes(a in arb_tree(), b in arb_tree()) {
                let d = tree_edit_distance(&a, &b);
                prop_assert!(d <= a.size() + b.size());
                prop_assert!(d >= a.size().abs_diff(b.size()));
            }

            #[test]
            fn triangle_inequality(a in arb_tree(), b in arb_tree(), c in arb_tree()) {
                let ab = tree_edit_distance(&a, &b);
                let bc = tree_edit_distance(&b, &c);
                let ac = tree_edit_distance(&a, &c);
                prop_assert!(ac <= ab + bc, "d(a,c)={} > d(a,b)+d(b,c)={}", ac, ab + bc);
            }

            #[test]
            fn unequal_trees_have_positive_distance(a in arb_tree(), b in arb_tree()) {
                if a != b {
                    prop_assert!(tree_edit_distance(&a, &b) > 0);
                }
            }
        }
    }

    #[test]
    fn label_edge_cases_cost_what_the_text_labels_cost() {
        let x = || Expr::var("x");
        let float = Expr::float;
        let method = |name: &str| Expr::Method(Box::new(x()), name.to_owned(), Vec::new());
        let slice = |lo: Option<Expr>, hi: Option<Expr>| {
            Expr::Slice(Box::new(x()), lo.map(Box::new), hi.map(Box::new))
        };
        let cases = [
            (float(f64::NAN), float(f64::NAN), 0),
            (float(f64::NAN), float(-f64::NAN), 0),
            (float(0.0), float(-0.0), 1),
            (float(0.0), float(0.0), 0),
            (float(1.0), Expr::int(1), 1),
            (Expr::str("x"), x(), 1),
            (Expr::call("len", vec![x()]), method("len"), 1),
            (slice(None, None), slice(Some(Expr::int(1)), None), 1),
            (slice(Some(Expr::int(1)), None), slice(None, Some(Expr::int(1))), 0),
            (slice(Some(Expr::int(1)), Some(Expr::int(2))), slice(None, None), 2),
        ];
        for (a, b, expected) in cases {
            assert_eq!(expr_edit_distance(&a, &b), expected, "{a:?} vs {b:?}");
            assert_eq!(reference::expr_edit_distance(&a, &b), expected, "reference: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn huge_pairs_free_their_matrices() {
        let list = |n: i64| Expr::List((0..n).map(Expr::int).collect());
        let (a, b) = (list(300), list(299));
        assert_eq!(expr_edit_distance(&a, &b), 1);
        SCRATCH.with(|scratch| {
            let scratch = scratch.borrow();
            assert!(scratch.dist.capacity() <= RETAINED_CELLS && scratch.forest.capacity() <= RETAINED_CELLS);
        });
        assert_eq!(dist("x + 1", "x - 1"), 1);
    }

    mod reference_equivalence {
        use super::*;
        use clara_lang::ast::{BinOp, UnOp};
        use proptest::prelude::*;

        fn arb_float() -> impl Strategy<Value = f64> {
            prop_oneof![
                prop::sample::select(vec![
                    f64::NAN,
                    -f64::NAN,
                    0.0,
                    -0.0,
                    1.0,
                    0.5,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e300,
                ]),
                (0u64..u64::MAX).prop_map(f64::from_bits),
            ]
        }

        /// Expressions over small alphabets, so that equal labels are
        /// common and the labels the text form tells apart meet: `Int(1)`
        /// and `Float(1.0)`, `Str("x")` and `Var("x")`, `Call("len")` and
        /// `Method("len")`.
        fn arb_expr() -> impl Strategy<Value = Expr> {
            let names = || prop::sample::select(vec!["x", "y", "len", "1", ""]);
            let leaf = prop_oneof![
                (-1i64..3).prop_map(Expr::int),
                arb_float().prop_map(Expr::float),
                names().prop_map(Expr::str),
                prop::sample::select(vec![true, false]).prop_map(Expr::bool),
                Just(Expr::Lit(Lit::None)),
                names().prop_map(Expr::var),
            ];
            leaf.prop_recursive(4, 24, 3, move |inner| {
                let ops = vec![BinOp::Add, BinOp::Sub, BinOp::Lt, BinOp::Le, BinOp::And];
                let optional = {
                    let inner = inner.clone();
                    move || prop_oneof![Just(None), inner.clone().prop_map(|e| Some(Box::new(e)))]
                };
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::List),
                    prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::Tuple),
                    (prop::sample::select(vec![UnOp::Neg, UnOp::Not]), inner.clone())
                        .prop_map(|(op, e)| Expr::Unary(op, Box::new(e))),
                    (prop::sample::select(ops), inner.clone(), inner.clone())
                        .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
                    (inner.clone(), inner.clone()).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
                    (inner.clone(), optional(), optional()).prop_map(|(b, lo, hi)| Expr::Slice(
                        Box::new(b),
                        lo,
                        hi
                    )),
                    (names(), prop::collection::vec(inner.clone(), 0..3))
                        .prop_map(|(name, args)| Expr::call(name, args)),
                    (inner.clone(), names(), prop::collection::vec(inner.clone(), 0..2))
                        .prop_map(|(recv, name, args)| Expr::Method(Box::new(recv), name.to_owned(), args)),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn distances_equal_the_text_label_reference(a in arb_expr(), b in arb_expr()) {
                prop_assert_eq!(expr_edit_distance(&a, &b), reference::expr_edit_distance(&a, &b));
                prop_assert_eq!(expr_tree_size(&a), reference::expr_to_tree(&a).size());
            }

            #[test]
            fn one_prepared_tree_serves_many_distances(
                a in arb_expr(),
                others in prop::collection::vec(arb_expr(), 1..6),
            ) {
                // The per-thread buffers are reused from call to call and
                // between trees of different sizes.
                let prepared = PreparedTree::from_expr(&a);
                for b in &others {
                    prop_assert_eq!(prepared.distance_to(b), reference::expr_edit_distance(&a, b));
                }
            }

            #[test]
            fn label_trees_equal_the_reference(a in arb_expr(), b in arb_expr()) {
                let (a, b) = (reference::expr_to_tree(&a), reference::expr_to_tree(&b));
                prop_assert_eq!(tree_edit_distance(&a, &b), reference::tree_edit_distance(&a, &b));
            }
        }
    }
}
