//! Dynamic values of the MiniPy language (the computation domain `D` of the
//! paper, Definition 3.3).
//!
//! The domain contains booleans, integers, floats, strings, lists, tuples,
//! `None` and the undefined value `⊥` ([`Value::Undef`]). All operations
//! follow Python-like semantics; any failing operation reports an
//! [`EvalError`] which the program model maps to `⊥`.
//!
//! Values are immutable and cloning one is O(1): a string is an [`Arc`], and
//! lists and tuples are persistent [`Seq`]uences, which share structure with
//! the version they were built from. Trace execution keeps every step's
//! memory alive and every environment lookup clones the looked-up value, so
//! cheap clones keep the matching/repair hot path out of `memcpy`, and
//! sharing keeps a loop that appends to a list at O(n log n) time and O(n)
//! memory over its whole trace instead of O(n²). Since nothing is mutated
//! in place, sharing is never observable. `Arc` rather than `Rc` because
//! repair processes clusters on multiple threads and traces are shared
//! across them.
//!
//! Integer arithmetic wraps at 64 bits instead of panicking, and the
//! operations that build a sequence or a string refuse to build one longer
//! than [`MAX_SEQUENCE_LEN`] before they allocate it.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::{EvalError, EvalErrorKind};
pub use crate::seq::{Seq, WIDTH};

/// The longest list, tuple or string (in bytes) an operation may build.
/// Far above what any assignment builds; it bounds what a diverging or
/// hostile program can make one step allocate.
pub const MAX_SEQUENCE_LEN: usize = 1 << 20;

/// The largest value, in [`Value::size_units`], a program may hold in a
/// variable. Far above what a correct solution of an introductory
/// assignment builds; a value that doubles through sharing (`x = [x, x]`)
/// reaches it in 16 steps, and every walk over a value (`str`, `==`,
/// hashing) stays proportional to it.
pub const MAX_VALUE_UNITS: usize = 64 * 1024;

/// `Ok` when a sequence of `len` elements may be built.
///
/// # Errors
///
/// Returns an error when `len` exceeds [`MAX_SEQUENCE_LEN`].
pub fn check_sequence_len(len: usize) -> Result<(), EvalError> {
    if len > MAX_SEQUENCE_LEN {
        Err(EvalError::other(format!("sequence of {len} elements exceeds the limit of {MAX_SEQUENCE_LEN}")))
    } else {
        Ok(())
    }
}

/// A runtime value of the MiniPy language. Cloning is O(1): the sequence and
/// string payloads are shared.
#[derive(Debug, Clone)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit floating point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(Arc<str>),
    /// A list of values.
    List(Seq),
    /// A tuple of values.
    Tuple(Seq),
    /// Python's `None`.
    None,
    /// The undefined value `⊥` of the computation domain (Definition 3.3).
    Undef,
}

impl Value {
    /// Builds a string value from anything convertible to a shared string.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a list value from a vector (or a [`Seq`]) of values.
    pub fn list(items: impl Into<Seq>) -> Value {
        Value::List(items.into())
    }

    /// Builds a tuple value from a vector (or a [`Seq`]) of values.
    pub fn tuple(items: impl Into<Seq>) -> Value {
        Value::Tuple(items.into())
    }

    /// Approximate size of the value: scalars count 1, strings 1 plus their
    /// length in bytes, and lists and tuples 1 plus the sum over their
    /// elements. O(1) for a long sequence whose size is already known (see
    /// [`Seq::size_units`]).
    pub fn size_units(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::None | Value::Undef => 1,
            Value::Str(s) => 1 + s.len(),
            Value::List(items) | Value::Tuple(items) => items.size_units().saturating_add(1),
        }
    }

    /// `true` when [`Value::size_units`] exceeds `limit`. Counting stops
    /// past the limit, so the cost is bounded by it however much the value
    /// shares (a list holding itself twice, 40 levels deep, counts 2^40).
    pub fn exceeds_units(&self, limit: usize) -> bool {
        self.units_up_to(limit) > limit
    }

    /// [`Value::size_units`] if it is at most `limit`; otherwise some
    /// number above `limit`.
    pub(crate) fn units_up_to(&self, limit: usize) -> usize {
        match self {
            Value::List(items) | Value::Tuple(items) => match limit.checked_sub(1) {
                Some(rest) => items.units_up_to(rest).saturating_add(1),
                None => 1,
            },
            scalar => scalar.size_units(),
        }
    }

    /// Returns `true` if the value is the undefined value `⊥`.
    pub fn is_undef(&self) -> bool {
        matches!(self, Value::Undef)
    }

    /// Returns the numeric value as `f64` if the value is numeric
    /// (`Int`, `Float` or `Bool`).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Returns the truthiness of the value following Python rules.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is `⊥` (its truthiness is not defined).
    pub fn truthy(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Int(i) => Ok(*i != 0),
            Value::Float(f) => Ok(*f != 0.0),
            Value::Str(s) => Ok(!s.is_empty()),
            Value::List(v) | Value::Tuple(v) => Ok(!v.is_empty()),
            Value::None => Ok(false),
            Value::Undef => Err(EvalError::new(EvalErrorKind::UndefinedValue)),
        }
    }

    /// A short name of the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Tuple(_) => "tuple",
            Value::None => "NoneType",
            Value::Undef => "undef",
        }
    }

    /// Python-style `str()` conversion.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Str(s) => s.to_string(),
            other => format!("{other}"),
        }
    }

    /// Structural equality following Python semantics: `1 == 1.0` is true and
    /// `True == 1` is true; sequences compare element-wise. `⊥` is only equal
    /// to `⊥` (this is what trace comparison needs).
    pub fn py_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undef, Value::Undef) => true,
            (Value::Undef, _) | (_, Value::Undef) => false,
            (Value::None, Value::None) => true,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) | (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            _ => match (self.as_number(), other.as_number()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Python-style ordering comparison. Returns `None` when the values are
    /// not comparable (e.g. an int and a list).
    pub fn py_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering;
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::List(a), Value::List(b)) | (Value::Tuple(a), Value::Tuple(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.py_cmp(y) {
                        Some(Ordering::Equal) => continue,
                        other => return other,
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => {
                let a = self.as_number()?;
                let b = other.as_number()?;
                a.partial_cmp(&b)
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.py_eq(other)
    }
}

/// Hashing is consistent with [`Value::py_eq`] (the `PartialEq` impl):
/// `a.py_eq(b)` implies equal hashes. Numerics (`Int`, `Float`, `Bool`)
/// compare across types, so they all hash through their canonical `f64`
/// representation (with `-0.0` normalised to `0.0`); lists and tuples are
/// distinct types under `py_eq` and hash with distinct discriminants. This is
/// what lets trace signatures, projections and behaviour fingerprints use
/// hashing as a sound pre-filter for dynamic equivalence.
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_chunked(state, hash_slice);
    }
}

impl Value {
    /// Writes to `state` what [`Hash`] writes, except that each full
    /// [`WIDTH`]-element chunk of this list or tuple (not of nested ones) is
    /// handed to `full_chunk`, which must write what hashing the chunk's
    /// elements in order writes.
    ///
    /// The consecutive versions of a long list share most of their chunks,
    /// so a caller hashing many of them can write each shared chunk's bytes
    /// from a record instead of walking its elements again.
    pub fn hash_chunked<H: Hasher>(&self, state: &mut H, mut full_chunk: impl FnMut(&[Value], &mut H)) {
        match self {
            Value::Undef => state.write_u8(0),
            Value::None => state.write_u8(1),
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            Value::List(items) | Value::Tuple(items) => {
                state.write_u8(if matches!(self, Value::List(_)) { 3 } else { 4 });
                state.write_usize(items.len());
                for chunk in items.chunks() {
                    if chunk.len() == WIDTH {
                        full_chunk(chunk, state);
                    } else {
                        hash_slice(chunk, state);
                    }
                }
            }
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => {
                state.write_u8(5);
                let n = self.as_number().expect("numeric value");
                let bits = if n == 0.0 { 0.0f64.to_bits() } else { n.to_bits() };
                state.write_u64(bits);
            }
        }
    }
}

/// Hashes the elements in order, without a length.
pub fn hash_slice<H: Hasher>(items: &[Value], state: &mut H) {
    for item in items {
        item.hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e16 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                if items.len() == 1 {
                    write!(f, ",")?;
                }
                write!(f, ")")
            }
            Value::None => write!(f, "None"),
            Value::Undef => write!(f, "⊥"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v.into())
    }
}

/// The integer value of an index operand (`Int` or `Bool`).
fn int_index(idx: &Value, what: &str) -> Result<i64, EvalError> {
    match idx {
        Value::Int(i) => Ok(*i),
        Value::Bool(b) => Ok(i64::from(*b)),
        _ => Err(EvalError::type_error(format!("{what} must be integers, not {}", idx.type_name()))),
    }
}

/// The position `i` (negative counts from the end) names in a sequence of
/// `n` elements, if it is in range.
fn resolve_index(i: i64, n: usize) -> Option<usize> {
    let n = n as i64;
    let real = if i < 0 { i + n } else { i };
    (0..n).contains(&real).then_some(real as usize)
}

fn type_error(op: &str, a: &Value, b: &Value) -> EvalError {
    EvalError::type_error(format!(
        "unsupported operand types for {op}: {} and {}",
        a.type_name(),
        b.type_name()
    ))
}

fn both_ints(a: &Value, b: &Value) -> Option<(i64, i64)> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some((*x, *y)),
        (Value::Bool(x), Value::Int(y)) => Some((i64::from(*x), *y)),
        (Value::Int(x), Value::Bool(y)) => Some((*x, i64::from(*y))),
        (Value::Bool(x), Value::Bool(y)) => Some((i64::from(*x), i64::from(*y))),
        _ => None,
    }
}

/// Binary arithmetic and comparison operations on [`Value`]s.
///
/// These free functions implement the semantics of the corresponding MiniPy
/// operators; they are used both by the expression evaluator and by the
/// direct interpreter.
pub mod ops {
    use super::*;

    /// Addition / concatenation (`+`).
    pub fn add(a: &Value, b: &Value) -> Result<Value, EvalError> {
        match (a, b) {
            (Value::Str(x), Value::Str(y)) => {
                check_sequence_len(x.len() + y.len())?;
                Ok(Value::str(format!("{x}{y}")))
            }
            (Value::List(x), Value::List(y)) => {
                check_sequence_len(x.len() + y.len())?;
                Ok(Value::List(x.concat(y)))
            }
            (Value::Tuple(x), Value::Tuple(y)) => {
                check_sequence_len(x.len() + y.len())?;
                Ok(Value::Tuple(x.concat(y)))
            }
            _ => {
                if let Some((x, y)) = both_ints(a, b) {
                    Ok(Value::Int(x.wrapping_add(y)))
                } else if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
                    Ok(Value::Float(x + y))
                } else {
                    Err(type_error("+", a, b))
                }
            }
        }
    }

    /// Subtraction (`-`).
    pub fn sub(a: &Value, b: &Value) -> Result<Value, EvalError> {
        if let Some((x, y)) = both_ints(a, b) {
            Ok(Value::Int(x.wrapping_sub(y)))
        } else if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
            Ok(Value::Float(x - y))
        } else {
            Err(type_error("-", a, b))
        }
    }

    /// Multiplication / repetition (`*`).
    pub fn mul(a: &Value, b: &Value) -> Result<Value, EvalError> {
        /// The repetition count of `len` elements `n` times, if the result
        /// may be built.
        fn times(len: usize, n: i64) -> Result<usize, EvalError> {
            let n = usize::try_from(n).unwrap_or(0);
            check_sequence_len(len.saturating_mul(n))?;
            Ok(n)
        }
        fn repeat(items: &Seq, n: i64) -> Result<Seq, EvalError> {
            let n = times(items.len(), n)?;
            Ok((0..n).flat_map(|_| items.iter().cloned()).collect())
        }
        match (a, b) {
            (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) => {
                Ok(Value::str(s.repeat(times(s.len(), *n)?)))
            }
            (Value::List(v), Value::Int(n)) | (Value::Int(n), Value::List(v)) => {
                Ok(Value::List(repeat(v, *n)?))
            }
            (Value::Tuple(v), Value::Int(n)) | (Value::Int(n), Value::Tuple(v)) => {
                Ok(Value::Tuple(repeat(v, *n)?))
            }
            _ => {
                if let Some((x, y)) = both_ints(a, b) {
                    Ok(Value::Int(x.wrapping_mul(y)))
                } else if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
                    Ok(Value::Float(x * y))
                } else {
                    Err(type_error("*", a, b))
                }
            }
        }
    }

    /// True division (`/`); integer operands produce a float, as in Python 3.
    pub fn div(a: &Value, b: &Value) -> Result<Value, EvalError> {
        match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => {
                if y == 0.0 {
                    Err(EvalError::new(EvalErrorKind::DivisionByZero))
                } else {
                    Ok(Value::Float(x / y))
                }
            }
            _ => Err(type_error("/", a, b)),
        }
    }

    /// Floor division (`//`).
    pub fn floor_div(a: &Value, b: &Value) -> Result<Value, EvalError> {
        if let Some((x, y)) = both_ints(a, b) {
            if y == 0 {
                return Err(EvalError::new(EvalErrorKind::DivisionByZero));
            }
            Ok(Value::Int(x.wrapping_div_euclid(y)))
        } else if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
            if y == 0.0 {
                return Err(EvalError::new(EvalErrorKind::DivisionByZero));
            }
            Ok(Value::Float((x / y).floor()))
        } else {
            Err(type_error("//", a, b))
        }
    }

    /// Modulo (`%`), following Python's sign convention.
    pub fn modulo(a: &Value, b: &Value) -> Result<Value, EvalError> {
        if let Some((x, y)) = both_ints(a, b) {
            if y == 0 {
                return Err(EvalError::new(EvalErrorKind::DivisionByZero));
            }
            Ok(Value::Int(x.wrapping_rem_euclid(y)))
        } else if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
            if y == 0.0 {
                return Err(EvalError::new(EvalErrorKind::DivisionByZero));
            }
            Ok(Value::Float(x - y * (x / y).floor()))
        } else {
            Err(type_error("%", a, b))
        }
    }

    /// Exponentiation (`**`).
    pub fn pow(a: &Value, b: &Value) -> Result<Value, EvalError> {
        if let Some((x, y)) = both_ints(a, b) {
            if y >= 0 {
                let exp = u32::try_from(y.min(u32::MAX as i64)).unwrap_or(u32::MAX);
                return Ok(Value::Int(x.wrapping_pow(exp)));
            }
        }
        match (a.as_number(), b.as_number()) {
            (Some(x), Some(y)) => Ok(Value::Float(x.powf(y))),
            _ => Err(type_error("**", a, b)),
        }
    }

    /// Unary negation (`-`).
    pub fn neg(a: &Value) -> Result<Value, EvalError> {
        match a {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(b) => Ok(Value::Int(-i64::from(*b))),
            _ => Err(EvalError::type_error(format!("bad operand type for unary -: {}", a.type_name()))),
        }
    }

    /// Ordering comparison; `op` is one of `<`, `<=`, `>`, `>=`.
    pub fn compare(op: &str, a: &Value, b: &Value) -> Result<Value, EvalError> {
        use std::cmp::Ordering;
        let ord = a.py_cmp(b).ok_or_else(|| type_error(op, a, b))?;
        let result = match op {
            "<" => ord == Ordering::Less,
            "<=" => ord != Ordering::Greater,
            ">" => ord == Ordering::Greater,
            ">=" => ord != Ordering::Less,
            _ => return Err(EvalError::other(format!("unknown comparison operator `{op}`"))),
        };
        Ok(Value::Bool(result))
    }

    /// Sequence/string indexing with Python negative-index semantics.
    pub fn index(base: &Value, idx: &Value) -> Result<Value, EvalError> {
        let i = int_index(idx, "indices")?;
        match base {
            Value::List(v) | Value::Tuple(v) => resolve_index(i, v.len())
                .and_then(|real| v.get(real))
                .cloned()
                .ok_or_else(|| EvalError::index_error("list index out of range")),
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                resolve_index(i, chars.len())
                    .map(|real| Value::str(chars[real].to_string()))
                    .ok_or_else(|| EvalError::index_error("string index out of range"))
            }
            _ => Err(EvalError::type_error(format!("{} is not subscriptable", base.type_name()))),
        }
    }

    /// Slicing `base[lo:hi]` with Python clamping semantics.
    pub fn slice(base: &Value, lo: Option<&Value>, hi: Option<&Value>) -> Result<Value, EvalError> {
        /// The clamped `lo..hi` of a sequence of `n` elements (empty when
        /// `lo >= hi`).
        fn bounds(lo: Option<&Value>, hi: Option<&Value>, n: usize) -> Result<(usize, usize), EvalError> {
            let clamp = |idx: Option<&Value>, default: usize| -> Result<usize, EvalError> {
                let Some(idx) = idx else { return Ok(default) };
                let raw = int_index(idx, "slice indices")?;
                let adjusted = if raw < 0 { raw + n as i64 } else { raw };
                Ok(adjusted.clamp(0, n as i64) as usize)
            };
            let lo = clamp(lo, 0)?;
            let hi = clamp(hi, n)?;
            Ok((lo.min(hi), hi))
        }
        match base {
            Value::List(v) => {
                let (lo, hi) = bounds(lo, hi, v.len())?;
                Ok(Value::List(v.slice(lo, hi)))
            }
            Value::Tuple(v) => {
                let (lo, hi) = bounds(lo, hi, v.len())?;
                Ok(Value::Tuple(v.slice(lo, hi)))
            }
            Value::Str(s) => {
                let chars: Vec<char> = s.chars().collect();
                let (lo, hi) = bounds(lo, hi, chars.len())?;
                Ok(Value::str(chars[lo..hi].iter().collect::<String>()))
            }
            _ => Err(EvalError::type_error(format!("{} is not sliceable", base.type_name()))),
        }
    }

    /// Stores `value` at index `idx` of `base`, returning the updated sequence.
    ///
    /// This is the functional form of `base[idx] = value` used by the program
    /// model (`store(base, idx, value)`).
    pub fn store(base: &Value, idx: &Value, value: &Value) -> Result<Value, EvalError> {
        let i = int_index(idx, "indices")?;
        match base {
            Value::List(v) => resolve_index(i, v.len())
                .and_then(|real| v.set(real, value.clone()))
                .map(Value::List)
                .ok_or_else(|| EvalError::index_error("list assignment index out of range")),
            _ => Err(EvalError::type_error(format!("{} does not support item assignment", base.type_name()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ops;
    use super::*;

    #[test]
    fn exceeds_units_agrees_with_size_units_and_stops_at_the_limit() {
        let mut doubled = Value::list(vec![Value::Int(1)]);
        let mut values = vec![Value::Undef, Value::str("abc"), Value::list(Vec::new())];
        for _ in 0..12 {
            doubled = Value::list(vec![doubled.clone(), doubled]);
            values.push(doubled.clone());
        }
        values.push(Value::list((0..100).map(Value::Int).collect::<Vec<_>>()));
        values.push(Value::tuple((0..40).map(|_| doubled.clone()).collect::<Vec<_>>()));
        for value in &values {
            let units = value.size_units();
            for limit in [0, 1, 2, 3, 50, units.saturating_sub(1), units, units + 1, MAX_VALUE_UNITS] {
                assert_eq!(value.exceeds_units(limit), units > limit, "{limit} vs {units}");
            }
        }
        // 60 doublings share one list per level: 2^60 units, counted only
        // as far as the limit.
        for _ in 0..48 {
            doubled = Value::list(vec![doubled.clone(), doubled]);
        }
        assert!(doubled.exceeds_units(MAX_VALUE_UNITS));
        let many = ops::mul(&Value::list(vec![doubled]), &Value::Int(MAX_SEQUENCE_LEN as i64)).unwrap();
        assert!(many.exceeds_units(MAX_VALUE_UNITS));
    }

    #[test]
    fn numeric_equality_crosses_types() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Int(1), Value::Str("1".into()));
        assert_eq!(Value::list(vec![Value::Int(0)]), Value::list(vec![Value::Float(0.0)]));
    }

    #[test]
    fn undef_only_equals_undef() {
        assert_eq!(Value::Undef, Value::Undef);
        assert_ne!(Value::Undef, Value::None);
        assert_ne!(Value::Undef, Value::Int(0));
    }

    #[test]
    fn add_concatenates_sequences() {
        let a = Value::list(vec![Value::Int(1)]);
        let b = Value::list(vec![Value::Int(2)]);
        assert_eq!(ops::add(&a, &b).unwrap(), Value::list(vec![Value::Int(1), Value::Int(2)]));
        assert_eq!(
            ops::add(&Value::Str("ab".into()), &Value::Str("cd".into())).unwrap(),
            Value::Str("abcd".into())
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(ops::div(&Value::Int(1), &Value::Int(0)).is_err());
        assert!(ops::modulo(&Value::Int(1), &Value::Int(0)).is_err());
        assert!(ops::floor_div(&Value::Int(1), &Value::Int(0)).is_err());
    }

    #[test]
    fn int_division_produces_float() {
        assert_eq!(ops::div(&Value::Int(3), &Value::Int(2)).unwrap(), Value::Float(1.5));
        assert_eq!(ops::floor_div(&Value::Int(3), &Value::Int(2)).unwrap(), Value::Int(1));
        assert_eq!(ops::floor_div(&Value::Int(-3), &Value::Int(2)).unwrap(), Value::Int(-2));
    }

    #[test]
    fn modulo_follows_python_sign() {
        assert_eq!(ops::modulo(&Value::Int(-7), &Value::Int(3)).unwrap(), Value::Int(2));
        assert_eq!(ops::modulo(&Value::Int(7), &Value::Int(3)).unwrap(), Value::Int(1));
    }

    #[test]
    fn string_repetition() {
        assert_eq!(ops::mul(&Value::Str("ab".into()), &Value::Int(3)).unwrap(), Value::Str("ababab".into()));
        assert_eq!(ops::mul(&Value::Str("ab".into()), &Value::Int(-1)).unwrap(), Value::str(""));
    }

    #[test]
    fn negative_indexing() {
        let lst = Value::list(vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(ops::index(&lst, &Value::Int(-1)).unwrap(), Value::Int(30));
        assert!(ops::index(&lst, &Value::Int(3)).is_err());
        assert!(ops::index(&lst, &Value::Int(-4)).is_err());
    }

    #[test]
    fn slicing_clamps() {
        let lst = Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(
            ops::slice(&lst, Some(&Value::Int(1)), None).unwrap(),
            Value::list(vec![Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            ops::slice(&lst, Some(&Value::Int(-2)), Some(&Value::Int(100))).unwrap(),
            Value::list(vec![Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn store_replaces_element() {
        let lst = Value::list(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            ops::store(&lst, &Value::Int(1), &Value::Int(9)).unwrap(),
            Value::list(vec![Value::Int(1), Value::Int(9)])
        );
        assert!(ops::store(&lst, &Value::Int(2), &Value::Int(9)).is_err());
    }

    #[test]
    fn integer_overflow_wraps_instead_of_panicking() {
        let (min, minus_one) = (Value::Int(i64::MIN), Value::Int(-1));
        assert_eq!(ops::floor_div(&min, &minus_one).unwrap(), Value::Int(i64::MIN));
        assert_eq!(ops::modulo(&min, &minus_one).unwrap(), Value::Int(0));
        assert_eq!(ops::neg(&min).unwrap(), Value::Int(i64::MIN));
        assert_eq!(
            ops::index(&Value::list(vec![Value::Int(7)]), &min).unwrap_err().kind.to_string(),
            "index error: list index out of range"
        );
    }

    #[test]
    fn sequences_past_the_ceiling_are_refused_before_they_are_built() {
        let over = Value::Int(MAX_SEQUENCE_LEN as i64 + 1);
        assert!(ops::mul(&Value::list(vec![Value::Int(0)]), &over).is_err());
        assert!(ops::mul(&Value::Int(1_000_000_000_000), &Value::tuple(vec![Value::None])).is_err());
        assert!(ops::mul(&Value::str("ab"), &Value::Int(i64::MAX)).is_err());
        assert!(ops::mul(&Value::list(vec![Value::Int(0); 3]), &Value::Int(i64::MAX / 2)).is_err());
        let half = Value::str("a".repeat(MAX_SEQUENCE_LEN / 2 + 1));
        assert!(ops::add(&half, &half).is_err());
        // At the ceiling itself a string is still built.
        let exact = ops::mul(&Value::str("a"), &Value::Int(MAX_SEQUENCE_LEN as i64)).unwrap();
        assert_eq!(exact.size_units(), MAX_SEQUENCE_LEN + 1);
        assert_eq!(ops::mul(&Value::str("ab"), &Value::Int(i64::MIN)).unwrap(), Value::str(""));
    }

    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::list(vec![]).truthy().unwrap());
        assert!(Value::list(vec![Value::Int(0)]).truthy().unwrap());
        assert!(!Value::str("").truthy().unwrap());
        assert!(Value::Undef.truthy().is_err());
    }

    #[test]
    fn ordering_comparisons() {
        assert_eq!(ops::compare("<", &Value::Int(1), &Value::Float(1.5)).unwrap(), Value::Bool(true));
        assert_eq!(
            ops::compare(">=", &Value::Str("b".into()), &Value::Str("a".into())).unwrap(),
            Value::Bool(true)
        );
        assert!(ops::compare("<", &Value::Int(1), &Value::list(vec![])).is_err());
    }

    #[test]
    fn display_formats_like_python() {
        assert_eq!(Value::Float(7.6).to_string(), "7.6");
        assert_eq!(Value::Float(1.0).to_string(), "1.0");
        assert_eq!(Value::list(vec![Value::Float(0.0)]).to_string(), "[0.0]");
        assert_eq!(Value::tuple(vec![Value::Int(1)]).to_string(), "(1,)");
        assert_eq!(Value::Bool(true).to_string(), "True");
    }
}
