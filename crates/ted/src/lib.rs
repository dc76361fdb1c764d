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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use clara_lang::ast::{Expr, Lit};

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

/// Converts an expression AST into the labelled tree the edit distance is
/// computed on.
pub fn expr_to_tree(expr: &Expr) -> LabelTree {
    match expr {
        Expr::Lit(lit) => LabelTree::leaf(lit_label(lit)),
        Expr::Var(name) => LabelTree::leaf(format!("var:{name}")),
        Expr::List(items) => LabelTree::node("list", items.iter().map(expr_to_tree).collect()),
        Expr::Tuple(items) => LabelTree::node("tuple", items.iter().map(expr_to_tree).collect()),
        Expr::Unary(op, inner) => LabelTree::node(format!("unary:{op:?}"), vec![expr_to_tree(inner)]),
        Expr::Binary(op, lhs, rhs) => {
            LabelTree::node(format!("binop:{}", op.symbol()), vec![expr_to_tree(lhs), expr_to_tree(rhs)])
        }
        Expr::Index(base, idx) => LabelTree::node("index", vec![expr_to_tree(base), expr_to_tree(idx)]),
        Expr::Slice(base, lo, hi) => {
            let mut children = vec![expr_to_tree(base)];
            if let Some(lo) = lo {
                children.push(expr_to_tree(lo));
            }
            if let Some(hi) = hi {
                children.push(expr_to_tree(hi));
            }
            LabelTree::node("slice", children)
        }
        Expr::Call(name, args) => {
            LabelTree::node(format!("call:{name}"), args.iter().map(expr_to_tree).collect())
        }
        Expr::Method(recv, name, args) => {
            let mut children = vec![expr_to_tree(recv)];
            children.extend(args.iter().map(expr_to_tree));
            LabelTree::node(format!("method:{name}"), children)
        }
    }
}

fn lit_label(lit: &Lit) -> String {
    match lit {
        Lit::Int(v) => format!("int:{v}"),
        Lit::Float(v) => format!("float:{v}"),
        Lit::Str(v) => format!("str:{v}"),
        Lit::Bool(v) => format!("bool:{v}"),
        Lit::None => "none".to_owned(),
    }
}

/// The tree edit distance between two expressions (the paper's `diff`).
pub fn expr_edit_distance(a: &Expr, b: &Expr) -> usize {
    prepared_edit_distance(&PreparedTree::from_expr(a), &PreparedTree::from_expr(b))
}

/// Number of AST nodes of an expression, i.e. the edit distance from the
/// empty tree (used for relative repair size and add/delete costs).
pub fn expr_tree_size(expr: &Expr) -> usize {
    expr_to_tree(expr).size()
}

/// The Zhang–Shasha tree edit distance with unit costs.
pub fn tree_edit_distance(a: &LabelTree, b: &LabelTree) -> usize {
    prepared_edit_distance(&PreparedTree::from_tree(a), &PreparedTree::from_tree(b))
}

/// The Zhang–Shasha tree edit distance between two pre-flattened trees.
///
/// When one side participates in many comparisons (the repair loop compares
/// each implementation expression against every candidate replacement),
/// prepare it once and reuse it here instead of re-flattening per call.
pub fn prepared_edit_distance(fa: &PreparedTree, fb: &PreparedTree) -> usize {
    let mut dist = vec![vec![0usize; fb.len()]; fa.len()];

    for &i in &fa.keyroots {
        for &j in &fb.keyroots {
            tree_dist(fa, fb, i, j, &mut dist);
        }
    }
    dist[fa.len() - 1][fb.len() - 1]
}

/// A tree flattened into the post-order arrays required by Zhang–Shasha.
/// Prepare once, compare many times with [`prepared_edit_distance`].
pub struct PreparedTree {
    labels: Vec<String>,
    /// `lml[i]` is the post-order index of the left-most leaf of the subtree
    /// rooted at node `i`.
    lml: Vec<usize>,
    keyroots: Vec<usize>,
}

impl PreparedTree {
    /// Flattens an expression.
    pub fn from_expr(expr: &Expr) -> Self {
        Self::from_owned_tree(expr_to_tree(expr))
    }

    /// Flattens a label tree.
    pub fn from_tree(tree: &LabelTree) -> Self {
        let mut labels = Vec::new();
        let mut lml = Vec::new();
        fn visit(node: &LabelTree, labels: &mut Vec<String>, lml: &mut Vec<usize>) -> usize {
            let mut first_leaf = None;
            for child in &node.children {
                let child_index = visit(child, labels, lml);
                if first_leaf.is_none() {
                    first_leaf = Some(lml[child_index]);
                }
            }
            let index = labels.len();
            labels.push(node.label.clone());
            lml.push(first_leaf.unwrap_or(index));
            index
        }
        visit(tree, &mut labels, &mut lml);
        Self::finish(labels, lml)
    }

    /// Flattens a label tree by value, reusing its label allocations.
    fn from_owned_tree(tree: LabelTree) -> Self {
        let mut labels = Vec::new();
        let mut lml = Vec::new();
        fn visit(node: LabelTree, labels: &mut Vec<String>, lml: &mut Vec<usize>) -> usize {
            let mut first_leaf = None;
            for child in node.children {
                let child_index = visit(child, labels, lml);
                if first_leaf.is_none() {
                    first_leaf = Some(lml[child_index]);
                }
            }
            let index = labels.len();
            labels.push(node.label);
            lml.push(first_leaf.unwrap_or(index));
            index
        }
        visit(tree, &mut labels, &mut lml);
        Self::finish(labels, lml)
    }

    fn finish(labels: Vec<String>, lml: Vec<usize>) -> Self {
        // Keyroots: a node i is a keyroot iff no node j > i has the same
        // left-most leaf (this includes the root).
        let n = labels.len();
        let mut keyroots = Vec::new();
        for i in 0..n {
            if !(i + 1..n).any(|j| lml[j] == lml[i]) {
                keyroots.push(i);
            }
        }
        PreparedTree { labels, lml, keyroots }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the tree is empty (never the case for expression trees).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

fn tree_dist(a: &PreparedTree, b: &PreparedTree, i: usize, j: usize, dist: &mut [Vec<usize>]) {
    let li = a.lml[i];
    let lj = b.lml[j];
    let rows = i - li + 2;
    let cols = j - lj + 2;
    // Forest distance matrix; fd[x][y] is the distance between the forests
    // a[li .. li+x-1] and b[lj .. lj+y-1].
    let mut fd = vec![vec![0usize; cols]; rows];
    for x in 1..rows {
        fd[x][0] = fd[x - 1][0] + 1;
    }
    for y in 1..cols {
        fd[0][y] = fd[0][y - 1] + 1;
    }
    for x in 1..rows {
        for y in 1..cols {
            let node_a = li + x - 1;
            let node_b = lj + y - 1;
            if a.lml[node_a] == li && b.lml[node_b] == lj {
                let rename_cost = usize::from(a.labels[node_a] != b.labels[node_b]);
                fd[x][y] = (fd[x - 1][y] + 1).min(fd[x][y - 1] + 1).min(fd[x - 1][y - 1] + rename_cost);
                dist[node_a][node_b] = fd[x][y];
            } else {
                let prev_x = a.lml[node_a] - li;
                let prev_y = b.lml[node_b] - lj;
                fd[x][y] =
                    (fd[x - 1][y] + 1).min(fd[x][y - 1] + 1).min(fd[prev_x][prev_y] + dist[node_a][node_b]);
            }
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
}
