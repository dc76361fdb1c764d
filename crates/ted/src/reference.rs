//! The `String`-label Zhang–Shasha the crate used to run, kept as the
//! reference the allocation-free distance is tested against.
//!
//! Every node of an expression gets a `format!`ed label (`"var:x"`,
//! `"float:-0"`, `"call:len"`, …), keyroots are found by a quadratic scan,
//! and every keyroot pair allocates its own forest matrix. Two nodes have
//! equal labels exactly when these strings are equal, which is the contract
//! the crate's borrowed labels keep.

use clara_lang::ast::{Expr, Lit};

use crate::LabelTree;

/// Converts an expression into the labelled tree the distance runs on.
pub(crate) fn expr_to_tree(expr: &Expr) -> LabelTree {
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

/// The reference edit distance between two expressions.
pub(crate) fn expr_edit_distance(a: &Expr, b: &Expr) -> usize {
    tree_edit_distance(&expr_to_tree(a), &expr_to_tree(b))
}

/// The reference edit distance between two label trees.
pub(crate) fn tree_edit_distance(a: &LabelTree, b: &LabelTree) -> usize {
    let (fa, fb) = (Flattened::new(a), Flattened::new(b));
    let mut dist = vec![vec![0usize; fb.labels.len()]; fa.labels.len()];
    for &i in &fa.keyroots {
        for &j in &fb.keyroots {
            tree_dist(&fa, &fb, i, j, &mut dist);
        }
    }
    dist[fa.labels.len() - 1][fb.labels.len() - 1]
}

/// A tree in post order: labels, left-most leaves and keyroots.
struct Flattened {
    labels: Vec<String>,
    lml: Vec<usize>,
    keyroots: Vec<usize>,
}

impl Flattened {
    fn new(tree: &LabelTree) -> Self {
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
        // A node i is a keyroot iff no node j > i has the same left-most
        // leaf (this includes the root).
        let n = labels.len();
        let keyroots = (0..n).filter(|&i| !(i + 1..n).any(|j| lml[j] == lml[i])).collect();
        Flattened { labels, lml, keyroots }
    }
}

fn tree_dist(a: &Flattened, b: &Flattened, i: usize, j: usize, dist: &mut [Vec<usize>]) {
    let li = a.lml[i];
    let lj = b.lml[j];
    let rows = i - li + 2;
    let cols = j - lj + 2;
    // fd[x][y] is the distance between the forests a[li .. li+x-1] and
    // b[lj .. lj+y-1].
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
