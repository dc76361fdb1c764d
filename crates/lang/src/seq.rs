//! Persistent sequences: the payload of MiniPy lists and tuples.
//!
//! A [`Seq`] is immutable; every update builds a new sequence that shares
//! structure with the one it came from. Up to [`WIDTH`] elements live in one
//! flat allocation. Longer sequences are a 32-way trie of full leaves plus a
//! tail of the last 1 to 32 elements, with an offset for elements dropped
//! from the front:
//!
//! | operation | flat | trie |
//! |---|---|---|
//! | `get` | O(1) | O(log₃₂ n) |
//! | `push`, `pop`, `set` | O(n) ≤ 32 copies | O(32 · log₃₂ n) |
//! | `concat` | O(m) | O(m + log₃₂ n), sharing the left operand |
//! | `tail`, a suffix `slice` | O(n) ≤ 32 copies | O(1) (plus the dropped elements' size units) |
//!
//! So a loop that appends to a list costs O(n log n) time and O(n) memory
//! over all the versions a trace keeps alive, where copying the whole list
//! per append costs O(n²) of both.
//!
//! A trie also caches its [size units](Value::size_units) once they are
//! known, and passes them on to the versions built from it, so the program
//! model's per-update size check stays O(1) along an append loop. The cache
//! is filled on demand: the interpreter, which never asks, never pays for it.
//!
//! Nothing outside this module can tell the two layouts apart: iteration,
//! `Debug` and everything `Value` builds on them see one sequence.

use std::fmt;
use std::iter::once;
use std::sync::{Arc, OnceLock};

use crate::value::Value;

const BITS: u32 = 5;

/// Elements per flat sequence and per trie leaf; children per trie branch.
pub const WIDTH: usize = 1 << BITS;

const MASK: usize = WIDTH - 1;

/// An immutable, persistent sequence of values. Cloning is O(1).
#[derive(Clone)]
pub struct Seq(Repr);

#[derive(Clone)]
enum Repr {
    /// At most [`WIDTH`] elements in one allocation.
    Flat(Arc<[Value]>),
    /// More than [`WIDTH`] elements.
    Tree(Arc<Tree>),
}

struct Tree {
    /// The children of the trie's root, never empty. All leaves are full,
    /// packed to the left.
    root: Arc<[Node]>,
    /// The index shift of the root's children: [`BITS`] when they are
    /// leaves, [`BITS`] more per level above that.
    shift: u32,
    /// The last 1..=[`WIDTH`] elements, not yet in the trie.
    tail: Arc<[Value]>,
    /// Elements dropped from the front: element `i` sits at physical
    /// position `start + i`.
    start: usize,
    /// Physical length: the trie's elements plus the tail's.
    len: usize,
    /// The size units of the elements (from `start` on), once known.
    units: OnceLock<usize>,
}

#[derive(Clone)]
enum Node {
    Branch(Arc<[Node]>),
    Leaf(Arc<[Value]>),
}

impl Seq {
    /// The number of elements.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Flat(items) => items.len(),
            Repr::Tree(tree) => tree.len - tree.start,
        }
    }

    /// `true` when the sequence has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `index`, if there is one.
    pub fn get(&self, index: usize) -> Option<&Value> {
        match &self.0 {
            Repr::Flat(items) => items.get(index),
            Repr::Tree(tree) => {
                let p = tree.start.checked_add(index).filter(|&p| p < tree.len)?;
                let (chunk_start, chunk) = tree.chunk_at(p);
                Some(&chunk[p - chunk_start])
            }
        }
    }

    /// The first element, if any.
    pub fn first(&self) -> Option<&Value> {
        self.get(0)
    }

    /// The elements in order.
    pub fn iter(&self) -> Iter<'_> {
        self.chunks().flatten()
    }

    /// The elements in order, as the contiguous slices they are stored in.
    pub fn chunks(&self) -> Chunks<'_> {
        let (lo, hi) = match &self.0 {
            Repr::Flat(items) => (0, items.len()),
            Repr::Tree(tree) => (tree.start, tree.len),
        };
        Chunks { seq: self, lo, hi }
    }

    /// The elements, copied into a vector.
    pub fn to_vec(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            out.extend_from_slice(chunk);
        }
        out
    }

    /// The sum of the elements' [size units](Value::size_units). O(1) for a
    /// trie whose units are known; a flat sequence sums its elements.
    pub fn size_units(&self) -> usize {
        match &self.0 {
            Repr::Flat(items) => sum_units(items.iter()),
            Repr::Tree(tree) => *tree.units.get_or_init(|| sum_units(self.iter())),
        }
    }

    /// [`Seq::size_units`] if it is at most `limit`; otherwise some number
    /// above `limit`, found without counting past it. A trie whose units
    /// come out within the limit caches them.
    pub(crate) fn units_up_to(&self, limit: usize) -> usize {
        let tree = match &self.0 {
            Repr::Flat(items) => return units_up_to(items.iter(), limit),
            Repr::Tree(tree) => tree,
        };
        if let Some(units) = tree.known_units() {
            return units;
        }
        let units = units_up_to(self.iter(), limit);
        if units <= limit {
            tree.units.get_or_init(|| units);
        }
        units
    }

    /// The sequence with `item` appended. A full flat sequence or a full
    /// tail becomes a trie leaf as it is, without a copy.
    pub fn push(&self, item: Value) -> Seq {
        let tree = match &self.0 {
            Repr::Flat(items) if items.len() < WIDTH => {
                return Seq(Repr::Flat(items.iter().cloned().chain(once(item)).collect()));
            }
            Repr::Flat(items) => {
                return Seq::tree(Tree {
                    root: Arc::from([Node::Leaf(Arc::clone(items))]),
                    shift: BITS,
                    tail: Arc::from([item]),
                    start: 0,
                    len: WIDTH + 1,
                    units: OnceLock::new(),
                });
            }
            Repr::Tree(tree) => tree,
        };
        let units = tree.known_units().map(|units| units.saturating_add(item.size_units()));
        let (root, shift, tail) = if tree.tail.len() < WIDTH {
            (Arc::clone(&tree.root), tree.shift, tree.tail.iter().cloned().chain(once(item)).collect())
        } else {
            let (root, shift) = push_leaf(&tree.root, tree.shift, tree.tail_offset(), Arc::clone(&tree.tail));
            (root, shift, Arc::from([item]))
        };
        Seq::tree(Tree { root, shift, tail, len: tree.len + 1, units: cached(units), ..**tree })
    }

    /// The elements of `self` followed by those of `other`; `self`'s
    /// structure is shared.
    pub fn concat(&self, other: &Seq) -> Seq {
        match (&self.0, &other.0) {
            _ if other.is_empty() => self.clone(),
            _ if self.is_empty() => other.clone(),
            (Repr::Flat(a), Repr::Flat(b)) if a.len() + b.len() <= WIDTH => {
                Seq(Repr::Flat(a.iter().chain(b.iter()).cloned().collect()))
            }
            _ => self.extended(other.iter().cloned()),
        }
    }

    /// The sequence with `items` appended.
    fn extended(&self, items: impl Iterator<Item = Value>) -> Seq {
        let tree = match &self.0 {
            Repr::Flat(flat) => {
                let mut all = flat.to_vec();
                all.extend(items);
                return Seq::from(all);
            }
            Repr::Tree(tree) => tree,
        };
        let mut root = Arc::clone(&tree.root);
        let mut shift = tree.shift;
        let mut tail = tree.tail.to_vec();
        let mut len = tree.len;
        let mut units = tree.known_units();
        for item in items {
            if tail.len() == WIDTH {
                let leaf = std::mem::replace(&mut tail, Vec::with_capacity(WIDTH));
                (root, shift) = push_leaf(&root, shift, len - WIDTH, leaf.into());
            }
            units = units.map(|units| units.saturating_add(item.size_units()));
            tail.push(item);
            len += 1;
        }
        Seq::tree(Tree { root, shift, tail: tail.into(), len, units: cached(units), ..**tree })
    }

    /// The sequence without its last element, or `None` when it is empty.
    pub fn pop(&self) -> Option<Seq> {
        let tree = match &self.0 {
            Repr::Flat(items) => return items.split_last().map(|(_, rest)| Seq(Repr::Flat(rest.into()))),
            Repr::Tree(tree) => tree,
        };
        if self.len() - 1 <= WIDTH {
            return Some(self.copied(0, self.len() - 1));
        }
        let (last, rest) = tree.tail.split_last().expect("a trie's tail is never empty");
        let units = tree.known_units().map(|units| units - last.size_units());
        let popped = if rest.is_empty() {
            let (root, shift, leaf) = pop_leaf(&tree.root, tree.shift, tree.len - 1 - WIDTH);
            Tree { root, shift, tail: leaf, len: tree.len - 1, units: cached(units), ..**tree }
        } else {
            Tree {
                root: Arc::clone(&tree.root),
                tail: rest.into(),
                len: tree.len - 1,
                units: cached(units),
                ..**tree
            }
        };
        Some(Seq::tree(popped))
    }

    /// The sequence with the element at `index` replaced by `item`, or
    /// `None` when `index` is out of range.
    pub fn set(&self, index: usize, item: Value) -> Option<Seq> {
        if index >= self.len() {
            return None;
        }
        let tree = match &self.0 {
            Repr::Flat(items) => {
                let mut out: Arc<[Value]> = Arc::from(&items[..]);
                Arc::get_mut(&mut out).expect("a fresh copy is unshared")[index] = item;
                return Some(Seq(Repr::Flat(out)));
            }
            Repr::Tree(tree) => tree,
        };
        let p = tree.start + index;
        let old = self.get(index).expect("index is in range");
        let units =
            tree.known_units().map(|units| (units - old.size_units()).saturating_add(item.size_units()));
        let tail_offset = tree.tail_offset();
        let (root, tail) = if p >= tail_offset {
            let mut tail = tree.tail.to_vec();
            tail[p - tail_offset] = item;
            (Arc::clone(&tree.root), tail.into())
        } else {
            (set_in(&tree.root, tree.shift, p, item), Arc::clone(&tree.tail))
        };
        Some(Seq::tree(Tree { root, tail, units: cached(units), ..**tree }))
    }

    /// The sequence without its first element (empty stays empty).
    pub fn tail(&self) -> Seq {
        self.drop_front(self.len().min(1))
    }

    /// The elements `lo..hi`; `lo <= hi <= len` is the caller's to ensure.
    /// A suffix of a trie shares the trie; any other slice is copied.
    pub fn slice(&self, lo: usize, hi: usize) -> Seq {
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} of a sequence of {}", self.len());
        if hi == self.len() {
            self.drop_front(lo)
        } else {
            self.copied(lo, hi)
        }
    }

    /// The elements `lo..hi`, copied.
    fn copied(&self, lo: usize, hi: usize) -> Seq {
        match &self.0 {
            Repr::Flat(items) => Seq(Repr::Flat(items[lo..hi].into())),
            Repr::Tree(_) => self.iter().skip(lo).take(hi - lo).cloned().collect(),
        }
    }

    /// The sequence without its first `k <= len` elements.
    fn drop_front(&self, k: usize) -> Seq {
        if k == 0 {
            return self.clone();
        }
        match &self.0 {
            Repr::Tree(tree) if self.len() - k > WIDTH => {
                let units = tree.known_units().map(|units| units - sum_units(self.iter().take(k)));
                let (root, tail) = (Arc::clone(&tree.root), Arc::clone(&tree.tail));
                Seq::tree(Tree { root, tail, start: tree.start + k, units: cached(units), ..**tree })
            }
            _ => self.copied(k, self.len()),
        }
    }

    fn tree(tree: Tree) -> Seq {
        Seq(Repr::Tree(Arc::new(tree)))
    }
}

impl Tree {
    fn known_units(&self) -> Option<usize> {
        self.units.get().copied()
    }

    /// The physical position of the tail's first element.
    fn tail_offset(&self) -> usize {
        self.len - self.tail.len()
    }

    /// The chunk holding physical position `p < len`, and the physical
    /// position of its first element.
    fn chunk_at(&self, p: usize) -> (usize, &[Value]) {
        let tail_offset = self.tail_offset();
        if p >= tail_offset {
            return (tail_offset, &self.tail);
        }
        let mut children: &[Node] = &self.root;
        let mut shift = self.shift;
        loop {
            match &children[(p >> shift) & MASK] {
                Node::Branch(grandchildren) => {
                    children = grandchildren;
                    shift -= BITS;
                }
                Node::Leaf(leaf) => return (p & !MASK, leaf),
            }
        }
    }
}

/// The root's children and shift after appending `leaf` at physical
/// position `offset` (a multiple of [`WIDTH`], the trie's length).
fn push_leaf(root: &Arc<[Node]>, shift: u32, offset: usize, leaf: Arc<[Value]>) -> (Arc<[Node]>, u32) {
    if offset == WIDTH << shift {
        let grown: Arc<[Node]> = Arc::from([Node::Branch(Arc::clone(root)), path_to(shift, leaf)]);
        (grown, shift + BITS)
    } else {
        (push_into(root, shift, offset, leaf), shift)
    }
}

/// A copy of `children` (at `shift`) with `leaf` added at `offset`.
fn push_into(children: &[Node], shift: u32, offset: usize, leaf: Arc<[Value]>) -> Arc<[Node]> {
    let index = (offset >> shift) & MASK;
    let mut out = children.to_vec();
    if shift == BITS {
        out.push(Node::Leaf(leaf));
    } else if let Some(Node::Branch(grandchildren)) = children.get(index) {
        out[index] = Node::Branch(push_into(grandchildren, shift - BITS, offset, leaf));
    } else {
        out.push(path_to(shift - BITS, leaf));
    }
    out.into()
}

/// A node whose children sit at `shift`, holding only `leaf`; the leaf itself
/// at shift 0.
fn path_to(shift: u32, leaf: Arc<[Value]>) -> Node {
    if shift == 0 {
        Node::Leaf(leaf)
    } else {
        Node::Branch(Arc::from([path_to(shift - BITS, leaf)]))
    }
}

/// The root's children and shift without the last leaf (at physical
/// position `offset`), and that leaf.
fn pop_leaf(root: &[Node], shift: u32, offset: usize) -> (Arc<[Node]>, u32, Arc<[Value]>) {
    let (children, leaf) = pop_from(root, shift, offset);
    match &children[..] {
        [Node::Branch(only)] if shift > BITS => (Arc::clone(only), shift - BITS, leaf),
        _ => (children, shift, leaf),
    }
}

/// A copy of `children` (at `shift`) without the leaf at `offset`, the last
/// one; an emptied branch is removed too.
fn pop_from(children: &[Node], shift: u32, offset: usize) -> (Arc<[Node]>, Arc<[Value]>) {
    let index = (offset >> shift) & MASK;
    let mut out = children[..index].to_vec();
    let leaf = match &children[index] {
        Node::Leaf(leaf) => Arc::clone(leaf),
        Node::Branch(grandchildren) => {
            let (rest, leaf) = pop_from(grandchildren, shift - BITS, offset);
            if !rest.is_empty() {
                out.push(Node::Branch(rest));
            }
            leaf
        }
    };
    (out.into(), leaf)
}

/// A copy of `children` (at `shift`) with physical position `p` set to
/// `item`.
fn set_in(children: &[Node], shift: u32, p: usize, item: Value) -> Arc<[Node]> {
    let index = (p >> shift) & MASK;
    let mut out = children.to_vec();
    out[index] = match &children[index] {
        Node::Branch(grandchildren) => Node::Branch(set_in(grandchildren, shift - BITS, p, item)),
        Node::Leaf(leaf) => {
            let mut leaf = leaf.to_vec();
            leaf[p & MASK] = item;
            Node::Leaf(leaf.into())
        }
    };
    out.into()
}

/// A size-unit cache holding `units` if they are known.
fn cached(units: Option<usize>) -> OnceLock<usize> {
    units.map_or_else(OnceLock::new, OnceLock::from)
}

fn sum_units<'a>(items: impl Iterator<Item = &'a Value>) -> usize {
    items.fold(0, |sum, item| sum.saturating_add(item.size_units()))
}

/// The elements' summed units if at most `limit`, else some number above it.
fn units_up_to<'a>(items: impl Iterator<Item = &'a Value>, limit: usize) -> usize {
    let mut sum = 0usize;
    for item in items {
        sum = sum.saturating_add(item.units_up_to(limit - sum));
        if sum > limit {
            break;
        }
    }
    sum
}

/// The empty sequence.
impl Default for Seq {
    fn default() -> Self {
        Seq(Repr::Flat(Arc::from(Vec::new())))
    }
}

impl From<Vec<Value>> for Seq {
    fn from(items: Vec<Value>) -> Seq {
        if items.len() <= WIDTH {
            return Seq(Repr::Flat(items.into()));
        }
        let len = items.len();
        let tail_len = (len - 1) % WIDTH + 1;
        let mut items = items.into_iter();
        let mut nodes: Vec<Node> =
            (0..(len - tail_len) / WIDTH).map(|_| Node::Leaf(items.by_ref().take(WIDTH).collect())).collect();
        let mut shift = BITS;
        while nodes.len() > WIDTH {
            let mut level = nodes.into_iter();
            let mut branches = Vec::new();
            while !level.as_slice().is_empty() {
                branches.push(Node::Branch(level.by_ref().take(WIDTH).collect()));
            }
            nodes = branches;
            shift += BITS;
        }
        Seq::tree(Tree {
            root: nodes.into(),
            shift,
            tail: items.collect(),
            start: 0,
            len,
            units: OnceLock::new(),
        })
    }
}

impl FromIterator<Value> for Seq {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Seq {
        Seq::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Prints like a slice: `[a, b, c]`.
impl fmt::Debug for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The contiguous slices of a [`Seq`], in order (see [`Seq::chunks`]).
#[derive(Clone)]
pub struct Chunks<'a> {
    seq: &'a Seq,
    /// The physical range not yet yielded.
    lo: usize,
    hi: usize,
}

impl<'a> Chunks<'a> {
    /// The chunk holding physical position `p`, and its first position.
    fn chunk_at(&self, p: usize) -> (usize, &'a [Value]) {
        match &self.seq.0 {
            Repr::Flat(items) => (0, items),
            Repr::Tree(tree) => tree.chunk_at(p),
        }
    }
}

impl<'a> Iterator for Chunks<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.lo >= self.hi {
            return None;
        }
        let (start, chunk) = self.chunk_at(self.lo);
        let piece = &chunk[self.lo - start..chunk.len().min(self.hi - start)];
        self.lo += piece.len();
        Some(piece)
    }
}

impl<'a> DoubleEndedIterator for Chunks<'a> {
    fn next_back(&mut self) -> Option<&'a [Value]> {
        if self.lo >= self.hi {
            return None;
        }
        let (start, chunk) = self.chunk_at(self.hi - 1);
        let piece = &chunk[self.lo.max(start) - start..self.hi - start];
        self.hi -= piece.len();
        Some(piece)
    }
}

/// The elements of a [`Seq`], in order (see [`Seq::iter`]).
pub type Iter<'a> = std::iter::Flatten<Chunks<'a>>;

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::hash::{Hash, Hasher};

    use proptest::prelude::*;

    use super::*;

    /// The bytes a `Hash` impl writes.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Hasher for Bytes {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    /// A value of one of several kinds, by seed; `NaN` included.
    fn value(seed: i64) -> Value {
        match seed.rem_euclid(9) {
            0 => Value::Float(seed as f64 * 0.5),
            1 => Value::str(format!("s{seed}")),
            2 => Value::list(vec![Value::Int(seed), Value::None]),
            3 if seed % 5 == 0 => Value::Float(f64::NAN),
            _ => Value::Int(seed),
        }
    }

    fn values(len: usize, seed: i64) -> Vec<Value> {
        (0..len as i64).map(|i| value(seed.wrapping_mul(31).wrapping_add(i))).collect()
    }

    /// What hashing a list of `items` writes, element by element.
    fn reference_hash(items: &[Value]) -> Vec<u8> {
        let mut bytes = Bytes::default();
        bytes.write_u8(3);
        bytes.write_usize(items.len());
        for item in items {
            item.hash(&mut bytes);
        }
        bytes.0
    }

    fn reference_eq(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.py_eq(y))
    }

    fn reference_cmp(a: &[Value], b: &[Value]) -> Option<Ordering> {
        for (x, y) in a.iter().zip(b) {
            match x.py_cmp(y) {
                Some(Ordering::Equal) => continue,
                other => return other,
            }
        }
        Some(a.len().cmp(&b.len()))
    }

    /// Every read of `seq` agrees with the reference `items`.
    fn assert_same(seq: &Seq, items: &[Value]) {
        let debug = |v: &Value| format!("{v:?}");
        assert_eq!(seq.len(), items.len());
        assert_eq!(seq.is_empty(), items.is_empty());
        assert_eq!(format!("{seq:?}"), format!("{items:?}"));
        assert_eq!(format!("{:?}", Value::List(seq.clone())), format!("List({items:?})"));
        assert_eq!(
            seq.iter().rev().map(debug).collect::<Vec<_>>(),
            items.iter().rev().map(debug).collect::<Vec<_>>()
        );
        let chunked: Vec<String> = seq.chunks().flatten().map(debug).collect();
        assert_eq!(chunked, items.iter().map(debug).collect::<Vec<_>>());
        assert!(seq.chunks().all(|chunk| !chunk.is_empty() && chunk.len() <= WIDTH));
        assert_eq!(seq.to_vec().iter().map(debug).collect::<Vec<_>>(), chunked);
        for i in [0, 1, WIDTH - 1, WIDTH, items.len() / 2, items.len().saturating_sub(1), items.len()] {
            assert_eq!(seq.get(i).map(debug), items.get(i).map(debug), "get({i})");
        }
        let mut hashed = Bytes::default();
        Value::List(seq.clone()).hash(&mut hashed);
        assert_eq!(hashed.0, reference_hash(items));
        assert_eq!(seq.size_units(), items.iter().map(Value::size_units).sum::<usize>());
        let front_and_back: Vec<String> = {
            let mut iter = seq.iter();
            let mut out = Vec::new();
            while let (Some(a), b) = (iter.next(), iter.next_back()) {
                out.push(debug(a));
                out.extend(b.map(debug));
            }
            out
        };
        assert_eq!(front_and_back.len(), items.len());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Push(i64),
        Pop,
        Set(usize, i64),
        Tail,
        Slice(usize, usize),
        Concat(usize, i64),
        Rebuild,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0usize..100_000, 0usize..100_000, -1_000i64..1_000).prop_map(
            |(kind, a, b, seed)| match kind {
                0..=2 => Op::Push(seed),
                3 => Op::Pop,
                4 => Op::Set(a, seed),
                5 => Op::Tail,
                6 => Op::Slice(a, b),
                7 => Op::Slice(a, usize::MAX),
                8 => Op::Concat(a % 1_500, seed),
                _ => Op::Rebuild,
            },
        )
    }

    /// Applies `op` to the sequence and to its reference.
    fn apply(op: &Op, seq: &Seq, items: &[Value]) -> (Seq, Vec<Value>) {
        let mut reference = items.to_vec();
        let seq = match *op {
            Op::Push(seed) => {
                reference.push(value(seed));
                seq.push(value(seed))
            }
            Op::Pop => match reference.pop() {
                Some(_) => seq.pop().expect("a non-empty sequence pops"),
                None => {
                    assert!(seq.pop().is_none());
                    seq.clone()
                }
            },
            Op::Set(index, seed) => {
                let index = index % (items.len() + 1);
                match reference.get_mut(index) {
                    Some(slot) => {
                        *slot = value(seed);
                        seq.set(index, value(seed)).expect("an index in range is set")
                    }
                    None => {
                        assert!(seq.set(index, value(seed)).is_none());
                        seq.clone()
                    }
                }
            }
            Op::Tail => {
                reference = items.iter().skip(1).cloned().collect();
                seq.tail()
            }
            Op::Slice(a, b) => {
                let lo = a % (items.len() + 1);
                let hi = if b == usize::MAX { items.len() } else { b % (items.len() + 1) };
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                reference = items[lo..hi].to_vec();
                seq.slice(lo, hi)
            }
            Op::Concat(len, seed) => {
                let other = values(len, seed);
                reference.extend(other.iter().cloned());
                seq.concat(&Seq::from(other))
            }
            Op::Rebuild => seq.iter().cloned().collect(),
        };
        (seq, reference)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn every_operation_matches_a_vec_reference(
            len in prop_oneof![0usize..70, 980usize..1_130],
            seed in -1_000i64..1_000,
            ops in prop::collection::vec(op(), 0..40),
        ) {
            let items = values(len, seed);
            let mut versions = vec![(Seq::from(items.clone()), items)];
            for op in &ops {
                let (seq, items) = versions.last().expect("one version at least");
                let next = apply(op, seq, items);
                assert_same(&next.0, &next.1);
                versions.push(next);
            }
            // Persistence: no update touched an earlier version.
            for (seq, items) in &versions {
                assert_same(seq, items);
            }
        }

        #[test]
        fn comparisons_match_a_vec_reference(
            len in prop_oneof![0usize..40, 0usize..1_200],
            other_len in prop_oneof![0usize..40, 0usize..1_200],
            change in 0usize..1_300,
            delta in -2i64..3,
        ) {
            let a: Vec<Value> = (0..len as i64).map(Value::Int).collect();
            let mut b: Vec<Value> = (0..other_len as i64).map(Value::Int).collect();
            if let Some(slot) = b.get_mut(change) {
                *slot = Value::Float(change as f64 + delta as f64);
            }
            // One side grown by pushes, the other built at once.
            let grown = a.iter().cloned().fold(Seq::default(), |seq, item| seq.push(item));
            let (x, y) = (Value::List(grown), Value::List(Seq::from(b.clone())));
            prop_assert_eq!(x.py_eq(&y), reference_eq(&a, &b));
            prop_assert_eq!(y.py_eq(&x), reference_eq(&b, &a));
            prop_assert_eq!(x.py_cmp(&y), reference_cmp(&a, &b));
            prop_assert_eq!(y.py_cmp(&x), reference_cmp(&b, &a));
            prop_assert_eq!(x.to_string(), Value::List(Seq::from(a.clone())).to_string());
        }
    }

    #[test]
    fn pushes_and_pops_cross_three_trie_levels() {
        // 32 flat, then a trie one level deep to 32 + 32², two levels deep
        // to 32 + 32³, and three levels beyond.
        let n = WIDTH + WIDTH * WIDTH * WIDTH + 100;
        let mut reference = Vec::with_capacity(n);
        let mut versions = vec![Seq::default()];
        for i in 0..n {
            reference.push(Value::Int(i as i64));
            let next = versions.last().unwrap().push(Value::Int(i as i64));
            assert_eq!(next.len(), i + 1);
            assert_eq!(next.get(i).map(|v| format!("{v:?}")), Some(format!("Int({i})")));
            versions.push(next);
        }
        let full = versions.last().unwrap().clone();
        assert_same(&full, &reference);
        let mut seq = full.clone();
        while let Some(popped) = seq.pop() {
            reference.pop();
            seq = popped;
            let len = seq.len();
            if len % 997 == 0 || len.abs_diff(WIDTH + WIDTH * WIDTH) <= 2 || len <= WIDTH + 1 {
                assert_same(&seq, &reference);
            }
        }
        assert!(reference.is_empty());
        // Building at once gives the same sequence as pushing, at every
        // level; every version pushed along the way is intact.
        let built: Seq = (0..n as i64).map(Value::Int).collect();
        assert_eq!(format!("{built:?}"), format!("{full:?}"));
        for (len, version) in versions.iter().enumerate().step_by(4_099) {
            assert_eq!(version.len(), len);
            assert!(version.iter().enumerate().all(|(i, v)| matches!(v, Value::Int(x) if *x == i as i64)));
        }
    }

    #[test]
    fn a_suffix_of_a_trie_shares_it_and_keeps_its_size_units() {
        let items = values(3 * WIDTH + 5, 7);
        let seq = Seq::from(items.clone());
        let units = seq.size_units();
        let suffix = seq.tail().slice(2, seq.len() - 1);
        assert_same(&suffix, &items[3..]);
        assert_eq!(suffix.size_units(), units - items[..3].iter().map(Value::size_units).sum::<usize>());
        let short = seq.slice(2 * WIDTH + 4, seq.len());
        assert_same(&short, &items[2 * WIDTH + 4..]);
    }

    #[test]
    fn a_sequence_is_two_words_and_a_value_three() {
        assert_eq!(std::mem::size_of::<Seq>(), 16);
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }
}
