//! Pure expression evaluation (the function `⟦·⟧ : E → Σ → D` of
//! Definition 3.4).
//!
//! Expressions are evaluated against a read-only environment mapping variable
//! names to [`Value`]s. Any failure (unknown variable, type error, index out
//! of range, ...) is reported as an [`EvalError`]; the program model maps
//! those to the undefined value `⊥`.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, Lit, UnOp};
use crate::error::{EvalError, EvalErrorKind};
use crate::value::{check_sequence_len, ops, Value};

/// A read-only variable environment used during expression evaluation.
pub trait Env {
    /// Looks up the value of `name`, or `None` when the variable is unknown.
    fn lookup(&self, name: &str) -> Option<Value>;

    /// Gives the environment a chance to handle a call to a non-builtin
    /// function (e.g. a helper function defined by the student program).
    ///
    /// The default implementation handles nothing, so unknown calls are
    /// reported as [`EvalErrorKind::UnknownFunction`].
    fn call_function(&self, _name: &str, _args: &[Value]) -> Option<Result<Value, EvalError>> {
        None
    }
}

impl Env for HashMap<String, Value> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.get(name).cloned()
    }
}

impl<T: Env + ?Sized> Env for &T {
    fn lookup(&self, name: &str) -> Option<Value> {
        (**self).lookup(name)
    }

    fn call_function(&self, name: &str, args: &[Value]) -> Option<Result<Value, EvalError>> {
        (**self).call_function(name, args)
    }
}

/// Evaluates `expr` in environment `env`.
///
/// # Errors
///
/// Returns an [`EvalError`] if the expression cannot be evaluated (unknown
/// variable or function, type error, out-of-range index, division by zero,
/// or an operation applied to the undefined value `⊥`).
pub fn eval_expr<E: Env>(expr: &Expr, env: &E) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(lit) => Ok(eval_lit(lit)),
        Expr::Var(name) => match env.lookup(name) {
            Some(Value::Undef) | None => Err(EvalError::new(EvalErrorKind::UndefinedVariable(name.clone()))),
            Some(value) => Ok(value),
        },
        Expr::List(items) => {
            let values = items.iter().map(|e| eval_expr(e, env)).collect::<Result<Vec<_>, _>>()?;
            Ok(Value::list(values))
        }
        Expr::Tuple(items) => {
            let values = items.iter().map(|e| eval_expr(e, env)).collect::<Result<Vec<_>, _>>()?;
            Ok(Value::tuple(values))
        }
        Expr::Unary(op, inner) => {
            let value = eval_expr(inner, env)?;
            match op {
                UnOp::Neg => ops::neg(&value),
                UnOp::Not => Ok(Value::Bool(!value.truthy()?)),
            }
        }
        Expr::Binary(op, lhs, rhs) => eval_binary(*op, lhs, rhs, env),
        Expr::Index(base, idx) => {
            let base = eval_expr(base, env)?;
            let idx = eval_expr(idx, env)?;
            ops::index(&base, &idx)
        }
        Expr::Slice(base, lo, hi) => {
            let base = eval_expr(base, env)?;
            let lo = lo.as_ref().map(|e| eval_expr(e, env)).transpose()?;
            let hi = hi.as_ref().map(|e| eval_expr(e, env)).transpose()?;
            ops::slice(&base, lo.as_ref(), hi.as_ref())
        }
        Expr::Call(name, args) => eval_call(name, args, env),
        Expr::Method(recv, name, args) => {
            let recv = eval_expr(recv, env)?;
            let args = args.iter().map(|e| eval_expr(e, env)).collect::<Result<Vec<_>, _>>()?;
            eval_method(&recv, name, &args)
        }
    }
}

fn eval_lit(lit: &Lit) -> Value {
    match lit {
        Lit::Int(v) => Value::Int(*v),
        Lit::Float(v) => Value::Float(*v),
        Lit::Str(v) => Value::str(v.as_str()),
        Lit::Bool(v) => Value::Bool(*v),
        Lit::None => Value::None,
    }
}

fn eval_binary<E: Env>(op: BinOp, lhs: &Expr, rhs: &Expr, env: &E) -> Result<Value, EvalError> {
    // `and` / `or` are short-circuiting and return one of the operands, as in
    // Python (`result or [0.0]`).
    match op {
        BinOp::And => {
            let left = eval_expr(lhs, env)?;
            if left.truthy()? {
                eval_expr(rhs, env)
            } else {
                Ok(left)
            }
        }
        BinOp::Or => {
            let left = eval_expr(lhs, env)?;
            if left.truthy()? {
                Ok(left)
            } else {
                eval_expr(rhs, env)
            }
        }
        _ => {
            let a = eval_expr(lhs, env)?;
            let b = eval_expr(rhs, env)?;
            apply_binop(op, &a, &b)
        }
    }
}

/// Applies a non-short-circuiting binary operator to two values.
pub fn apply_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value, EvalError> {
    match op {
        BinOp::Add => ops::add(a, b),
        BinOp::Sub => ops::sub(a, b),
        BinOp::Mul => ops::mul(a, b),
        BinOp::Div => ops::div(a, b),
        BinOp::FloorDiv => ops::floor_div(a, b),
        BinOp::Mod => ops::modulo(a, b),
        BinOp::Pow => ops::pow(a, b),
        BinOp::Eq => Ok(Value::Bool(a.py_eq(b))),
        BinOp::Ne => Ok(Value::Bool(!a.py_eq(b))),
        BinOp::Lt => ops::compare("<", a, b),
        BinOp::Le => ops::compare("<=", a, b),
        BinOp::Gt => ops::compare(">", a, b),
        BinOp::Ge => ops::compare(">=", a, b),
        BinOp::And | BinOp::Or => {
            // Without access to the unevaluated operands we fall back to a
            // strict interpretation; callers normally go through
            // `eval_binary` which short-circuits.
            let left = a.truthy()?;
            match op {
                BinOp::And => Ok(if left { b.clone() } else { a.clone() }),
                _ => Ok(if left { a.clone() } else { b.clone() }),
            }
        }
    }
}

fn arity_error(name: &str, expected: &str, actual: usize) -> EvalError {
    EvalError::new(EvalErrorKind::ArityError(format!("{name}() expects {expected} arguments, got {actual}")))
}

fn eval_call<E: Env>(name: &str, args: &[Expr], env: &E) -> Result<Value, EvalError> {
    // `ite` is lazy: only the selected branch is evaluated, mirroring the
    // semantics of the if-then-else statements it encodes.
    if name == "ite" {
        if args.len() != 3 {
            return Err(arity_error("ite", "3", args.len()));
        }
        let cond = eval_expr(&args[0], env)?;
        return if cond.truthy()? { eval_expr(&args[1], env) } else { eval_expr(&args[2], env) };
    }
    let values = args.iter().map(|e| eval_expr(e, env)).collect::<Result<Vec<_>, _>>()?;
    if let Some(result) = env.call_function(name, &values) {
        return result;
    }
    call_builtin(name, &values)
}

/// Calls a builtin function on already-evaluated arguments.
///
/// Besides the Python builtins used by student programs (`range`, `len`,
/// `float`, `int`, `str`, `abs`, `min`, `max`, `sum`, ...), this includes the
/// program-model builtins `head`, `tail`, `store`, `concat` and `append`.
///
/// # Errors
///
/// Returns an [`EvalError`] for unknown functions, arity mismatches or
/// argument type errors.
pub fn call_builtin(name: &str, args: &[Value]) -> Result<Value, EvalError> {
    match name {
        "range" | "xrange" => {
            let ints: Vec<i64> = args
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Ok(*i),
                    Value::Bool(b) => Ok(i64::from(*b)),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
                    other => Err(EvalError::type_error(format!(
                        "range() arguments must be integers, got {}",
                        other.type_name()
                    ))),
                })
                .collect::<Result<_, _>>()?;
            let (start, stop, step) = match ints.len() {
                1 => (0, ints[0], 1),
                2 => (ints[0], ints[1], 1),
                3 => (ints[0], ints[1], ints[2]),
                n => return Err(arity_error("range", "1 to 3", n)),
            };
            if step == 0 {
                return Err(EvalError::other("range() step must not be zero"));
            }
            // ceil((stop - start) / step), in i128 so no operand overflows.
            let (span, step) = (i128::from(stop) - i128::from(start), i128::from(step));
            let count =
                if (span > 0) == (step > 0) && span != 0 { (span.abs() - 1) / step.abs() + 1 } else { 0 };
            check_sequence_len(usize::try_from(count).unwrap_or(usize::MAX))?;
            let values = (0..count).map(|k| Value::Int((i128::from(start) + k * step) as i64));
            Ok(Value::List(values.collect()))
        }
        "len" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => Ok(Value::Int(v.len() as i64)),
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [other] => {
                Err(EvalError::type_error(format!("object of type {} has no len()", other.type_name())))
            }
            _ => Err(arity_error("len", "1", args.len())),
        },
        "float" => match args {
            [v] => match v.as_number() {
                Some(f) => Ok(Value::Float(f)),
                Option::None => match v {
                    Value::Str(s) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| EvalError::type_error("could not convert string to float")),
                    _ => Err(EvalError::type_error(format!(
                        "float() argument must be a number, got {}",
                        v.type_name()
                    ))),
                },
            },
            _ => Err(arity_error("float", "1", args.len())),
        },
        "int" => match args {
            [v] => match v {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
                Value::Float(f) => Ok(Value::Int(f.trunc() as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| EvalError::type_error("invalid literal for int()")),
                _ => Err(EvalError::type_error(format!(
                    "int() argument must be a number, got {}",
                    v.type_name()
                ))),
            },
            _ => Err(arity_error("int", "1", args.len())),
        },
        "str" => match args {
            [v] => Ok(Value::str(v.to_display_string())),
            _ => Err(arity_error("str", "1", args.len())),
        },
        "bool" => match args {
            [v] => Ok(Value::Bool(v.truthy()?)),
            _ => Err(arity_error("bool", "1", args.len())),
        },
        "abs" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.wrapping_abs())),
            [Value::Float(f)] => Ok(Value::Float(f.abs())),
            [Value::Bool(b)] => Ok(Value::Int(i64::from(*b))),
            [other] => {
                Err(EvalError::type_error(format!("bad operand type for abs(): {}", other.type_name())))
            }
            _ => Err(arity_error("abs", "1", args.len())),
        },
        "min" | "max" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => extreme(name, v.iter()),
            _ if args.len() >= 2 => extreme(name, args.iter()),
            _ => Err(arity_error(name, "an iterable or at least 2", args.len())),
        },
        "sum" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => {
                let mut acc = Value::Int(0);
                for item in v.iter() {
                    acc = ops::add(&acc, item)?;
                }
                Ok(acc)
            }
            _ => Err(arity_error("sum", "1 (a sequence)", args.len())),
        },
        "round" => match args {
            [v] => match v.as_number() {
                Some(f) => Ok(Value::Float(f.round())),
                Option::None => Err(EvalError::type_error("round() argument must be a number")),
            },
            [v, Value::Int(nd)] => match v.as_number() {
                Some(f) => {
                    let factor = 10f64.powi(*nd as i32);
                    Ok(Value::Float((f * factor).round() / factor))
                }
                Option::None => Err(EvalError::type_error("round() argument must be a number")),
            },
            _ => Err(arity_error("round", "1 or 2", args.len())),
        },
        "sorted" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => {
                let mut out = v.to_vec();
                out.sort_by(|a, b| a.py_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                Ok(Value::list(out))
            }
            _ => Err(arity_error("sorted", "1 (a sequence)", args.len())),
        },
        "reversed" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => Ok(Value::List(v.iter().rev().cloned().collect())),
            [Value::Str(s)] => Ok(Value::str(s.chars().rev().collect::<String>())),
            _ => Err(arity_error("reversed", "1 (a sequence)", args.len())),
        },
        "list" => match args {
            [] => Ok(Value::list(Vec::new())),
            [Value::List(v)] | [Value::Tuple(v)] => Ok(Value::List(v.clone())),
            [Value::Str(s)] => Ok(Value::List(s.chars().map(|c| Value::str(c.to_string())).collect())),
            _ => Err(arity_error("list", "0 or 1", args.len())),
        },
        "tuple" => match args {
            [] => Ok(Value::tuple(Vec::new())),
            [Value::List(v)] | [Value::Tuple(v)] => Ok(Value::Tuple(v.clone())),
            _ => Err(arity_error("tuple", "0 or 1", args.len())),
        },
        // --- Program-model builtins -------------------------------------
        "append" => match args {
            [Value::List(v), item] => {
                check_sequence_len(v.len() + 1)?;
                Ok(Value::List(v.push(item.clone())))
            }
            [other, _] => {
                Err(EvalError::type_error(format!("append() expects a list, got {}", other.type_name())))
            }
            _ => Err(arity_error("append", "2", args.len())),
        },
        "head" => match args {
            [Value::List(v)] | [Value::Tuple(v)] => {
                v.first().cloned().ok_or_else(|| EvalError::index_error("head of empty sequence"))
            }
            [Value::Str(s)] => s
                .chars()
                .next()
                .map(|c| Value::str(c.to_string()))
                .ok_or_else(|| EvalError::index_error("head of empty string")),
            _ => Err(arity_error("head", "1 (a sequence)", args.len())),
        },
        "tail" => match args {
            [Value::List(v)] => Ok(Value::List(v.tail())),
            [Value::Tuple(v)] => Ok(Value::Tuple(v.tail())),
            [Value::Str(s)] => Ok(Value::str(s.chars().skip(1).collect::<String>())),
            _ => Err(arity_error("tail", "1 (a sequence)", args.len())),
        },
        "store" => match args {
            [base, idx, value] => ops::store(base, idx, value),
            _ => Err(arity_error("store", "3", args.len())),
        },
        "concat" => {
            let mut out = String::new();
            for arg in args {
                out.push_str(&arg.to_display_string());
            }
            Ok(Value::str(out))
        }
        "ite" => match args {
            [cond, then, otherwise] => {
                if cond.truthy()? {
                    Ok(then.clone())
                } else {
                    Ok(otherwise.clone())
                }
            }
            _ => Err(arity_error("ite", "3", args.len())),
        },
        other => Err(EvalError::new(EvalErrorKind::UnknownFunction(other.to_owned()))),
    }
}

/// The least (`min`) or greatest (`max`) of `items`; the first of equals.
fn extreme<'a>(name: &str, mut items: impl Iterator<Item = &'a Value>) -> Result<Value, EvalError> {
    let mut best = items.next().ok_or_else(|| EvalError::other(format!("{name}() of empty sequence")))?;
    for item in items {
        let ord = item.py_cmp(best).ok_or_else(|| EvalError::type_error("values are not comparable"))?;
        let take = if name == "min" { ord.is_lt() } else { ord.is_gt() };
        if take {
            best = item;
        }
    }
    Ok(best.clone())
}

fn eval_method(recv: &Value, name: &str, args: &[Value]) -> Result<Value, EvalError> {
    match (recv, name) {
        (Value::List(_), "append") => {
            if args.len() != 1 {
                return Err(arity_error("append", "1", args.len()));
            }
            call_builtin("append", &[recv.clone(), args[0].clone()])
        }
        (Value::List(v), "pop") => {
            if !args.is_empty() {
                return Err(arity_error("pop", "0", args.len()));
            }
            v.pop().map(Value::List).ok_or_else(|| EvalError::index_error("pop from empty list"))
        }
        (Value::List(v), "index") => match args {
            [needle] => v
                .iter()
                .position(|x| x.py_eq(needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| EvalError::other("value not in list")),
            _ => Err(arity_error("index", "1", args.len())),
        },
        (Value::List(v) | Value::Tuple(v), "count") => match args {
            [needle] => Ok(Value::Int(v.iter().filter(|x| x.py_eq(needle)).count() as i64)),
            _ => Err(arity_error("count", "1", args.len())),
        },
        _ => Err(EvalError::type_error(format!("{} object has no usable method `{name}`", recv.type_name()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn env(pairs: &[(&str, Value)]) -> HashMap<String, Value> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
    }

    fn eval(src: &str, e: &HashMap<String, Value>) -> Result<Value, EvalError> {
        eval_expr(&parse_expression(src).unwrap(), e)
    }

    #[test]
    fn arithmetic_and_precedence() {
        let e = env(&[]);
        assert_eq!(eval("1 + 2 * 3", &e).unwrap(), Value::Int(7));
        assert_eq!(eval("2 ** 3 ** 2", &e).unwrap(), Value::Int(512));
        assert_eq!(eval("7 // 2", &e).unwrap(), Value::Int(3));
        assert_eq!(eval("7 % 3", &e).unwrap(), Value::Int(1));
    }

    #[test]
    fn the_papers_loop_body_expression() {
        // append(result, float(poly[e]*e)) on the paper's example input.
        let e = env(&[
            ("poly", Value::list(vec![Value::Float(6.3), Value::Float(7.6), Value::Float(12.14)])),
            ("result", Value::list(vec![])),
            ("e", Value::Int(1)),
        ]);
        let v = eval("result + [float(poly[e]*e)]", &e).unwrap();
        assert_eq!(v, Value::list(vec![Value::Float(7.6)]));
        let v2 = eval("result + [float(e)*poly[e]]", &e).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn or_returns_operand_like_python() {
        let e = env(&[("result", Value::list(vec![]))]);
        assert_eq!(eval("result or [0.0]", &e).unwrap(), Value::list(vec![Value::Float(0.0)]));
        let e2 = env(&[("result", Value::list(vec![Value::Int(1)]))]);
        assert_eq!(eval("result or [0.0]", &e2).unwrap(), Value::list(vec![Value::Int(1)]));
    }

    #[test]
    fn and_short_circuits() {
        let e = env(&[("xs", Value::list(vec![]))]);
        // Without short-circuiting `xs[0]` would raise an index error.
        assert_eq!(eval("len(xs) > 0 and xs[0] == 1", &e).unwrap(), Value::Bool(false));
    }

    #[test]
    fn ite_is_lazy() {
        let e = env(&[("xs", Value::list(vec![]))]);
        let expr = Expr::ite(
            parse_expression("len(xs) == 0").unwrap(),
            parse_expression("[0.0]").unwrap(),
            parse_expression("xs[0]").unwrap(),
        );
        assert_eq!(eval_expr(&expr, &e).unwrap(), Value::list(vec![Value::Float(0.0)]));
    }

    #[test]
    fn range_variants() {
        let e = env(&[]);
        assert_eq!(
            eval("range(3)", &e).unwrap(),
            Value::list(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            eval("range(1, 4)", &e).unwrap(),
            Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval("range(0, 6, 2)", &e).unwrap(),
            Value::list(vec![Value::Int(0), Value::Int(2), Value::Int(4)])
        );
        assert_eq!(eval("xrange(2)", &e).unwrap(), eval("range(2)", &e).unwrap());
        assert_eq!(
            eval("range(5, 0, -2)", &e).unwrap(),
            Value::list(vec![Value::Int(5), Value::Int(3), Value::Int(1)])
        );
    }

    #[test]
    fn overflowing_integer_builtins_wrap_or_stop() {
        let e = env(&[]);
        assert_eq!(eval("(-9223372036854775807 - 1) // -1", &e).unwrap(), Value::Int(i64::MIN));
        assert_eq!(eval("(-9223372036854775807 - 1) % -1", &e).unwrap(), Value::Int(0));
        assert_eq!(eval("-(-9223372036854775807 - 1)", &e).unwrap(), Value::Int(i64::MIN));
        assert_eq!(eval("abs(-9223372036854775807 - 1)", &e).unwrap(), Value::Int(i64::MIN));
        // The next element would pass `i64::MAX`: the range stops, as it
        // does in Python.
        assert_eq!(
            eval("range(9223372036854775805, 9223372036854775807, 3)", &e).unwrap(),
            Value::list(vec![Value::Int(i64::MAX - 2)])
        );
        assert_eq!(
            eval("range(-9223372036854775807, -9223372036854775807 - 1, -5)", &e).unwrap(),
            Value::list(vec![Value::Int(-i64::MAX)])
        );
        assert_eq!(
            eval("len(range(-9223372036854775807, 9223372036854775807, 9223372036854775807))", &e).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn range_refuses_a_sequence_past_the_ceiling_before_building_it() {
        let e = env(&[]);
        assert!(eval("range(1000000000000)", &e).is_err());
        assert!(eval("range(-9223372036854775807, 9223372036854775807)", &e).is_err());
        assert!(eval("[0] * 1000000000000", &e).is_err());
        assert!(eval("'a' * 1000000000000", &e).is_err());
    }

    #[test]
    fn undefined_variables_error() {
        let e = env(&[]);
        assert!(eval("x + 1", &e).is_err());
        let e2 = env(&[("x", Value::Undef)]);
        assert!(eval("x + 1", &e2).is_err());
    }

    #[test]
    fn model_builtins() {
        let e = env(&[("it", Value::list(vec![Value::Int(1), Value::Int(2)]))]);
        assert_eq!(eval("head(it)", &e).unwrap(), Value::Int(1));
        assert_eq!(eval("tail(it)", &e).unwrap(), Value::list(vec![Value::Int(2)]));
        assert_eq!(eval("len(it) > 0", &e).unwrap(), Value::Bool(true));
        assert_eq!(eval("store(it, 0, 9)", &e).unwrap(), Value::list(vec![Value::Int(9), Value::Int(2)]));
        assert_eq!(eval("concat('a', 1, 'b')", &e).unwrap(), Value::Str("a1b".into()));
    }

    #[test]
    fn method_calls_evaluate_functionally() {
        let e = env(&[("xs", Value::list(vec![Value::Int(1)]))]);
        assert_eq!(eval("xs.count(1)", &e).unwrap(), Value::Int(1));
        assert!(eval("xs.length()", &e).is_err());
    }

    #[test]
    fn string_builtins() {
        let e = env(&[]);
        assert_eq!(eval("str(12) + '!'", &e).unwrap(), Value::Str("12!".into()));
        assert_eq!(eval("len('abc')", &e).unwrap(), Value::Int(3));
        assert_eq!(eval("int('42')", &e).unwrap(), Value::Int(42));
        assert_eq!(eval("'ab' * 2", &e).unwrap(), Value::Str("abab".into()));
    }

    #[test]
    fn aggregate_builtins() {
        let e = env(&[("xs", Value::list(vec![Value::Int(3), Value::Int(1), Value::Int(2)]))]);
        assert_eq!(eval("sum(xs)", &e).unwrap(), Value::Int(6));
        assert_eq!(eval("min(xs)", &e).unwrap(), Value::Int(1));
        assert_eq!(eval("max(xs)", &e).unwrap(), Value::Int(3));
        assert_eq!(eval("max(1, 5)", &e).unwrap(), Value::Int(5));
        assert_eq!(
            eval("sorted(xs)", &e).unwrap(),
            Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn unknown_function_is_an_error() {
        let e = env(&[]);
        assert!(matches!(eval("frobnicate(1)", &e).unwrap_err().kind, EvalErrorKind::UnknownFunction(_)));
    }
}
