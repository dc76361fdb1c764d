//! Direct interpreter for MiniPy source programs.
//!
//! The interpreter executes the surface AST (it does not go through the Clara
//! program model) and is used to grade student attempts: an attempt is
//! *correct* when it produces the expected return value / output on every
//! test input. It is also used for differential testing of the program-model
//! executor in `clara-model`.
//!
//! Besides its step budget, a run is bounded in the work one step can do:
//! no variable, argument or return value may exceed
//! [`MAX_VALUE_UNITS`], so a value that doubles through sharing (`x = [x,
//! x]`) stops the run before `str`, `print` or `==` has to walk 2^40 paths,
//! and calls nest at most [`MAX_CALL_DEPTH`] deep and hold at most
//! [`MAX_CALL_LEVELS`] levels of blocks and expressions between them, so
//! recursion through deeply nested expressions cannot overflow the stack.

use std::collections::HashMap;

use crate::ast::{Expr, Function, SourceProgram, Stmt, Target};
use crate::error::{EvalError, EvalErrorKind, InterpError};
use crate::eval::{apply_binop, eval_expr, Env};
use crate::value::{ops, Value, MAX_VALUE_UNITS};

/// How deep user-defined function calls may nest before the run stops
/// with a recursion error, like Python's `RecursionError`.
pub const MAX_CALL_DEPTH: usize = 50;

/// The most levels the active calls may hold between them, each counting
/// its function's [`frame_levels`]. Evaluating an expression recurses once
/// per level, so this bounds the stack of a recursion through deep
/// expressions (a function returning `-(-(…f(n - 1)…))` 190 levels deep
/// may recurse 10 times, not 50).
pub const MAX_CALL_LEVELS: usize = 2_000;

/// The observable outcome of running a program on one input.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// The value returned by the entry function (`Value::None` if it fell off
    /// the end without an explicit `return`).
    pub return_value: Value,
    /// Everything printed by the program.
    pub output: String,
    /// Number of statements executed (a rough cost measure).
    pub steps: u64,
}

/// Execution limits for the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of executed statements before aborting with
    /// [`InterpError::OutOfFuel`].
    pub max_steps: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_steps: 200_000 }
    }
}

/// Runs `entry` of `program` on the given argument values.
///
/// # Errors
///
/// Returns an [`InterpError`] when the entry function is missing, the arity
/// does not match, evaluation of an expression fails, calls nest past
/// [`MAX_CALL_DEPTH`] or [`MAX_CALL_LEVELS`], or the step limit or the
/// value-size ceiling ([`InterpError::OutOfFuel`]) is exceeded.
pub fn run_function(
    program: &SourceProgram,
    entry: &str,
    args: &[Value],
    limits: Limits,
) -> Result<Execution, InterpError> {
    let function = program.function(entry).ok_or_else(|| InterpError::MissingFunction(entry.to_owned()))?;
    if function.params.len() != args.len() {
        return Err(InterpError::ArityMismatch { expected: function.params.len(), actual: args.len() });
    }
    let interp = Interp {
        program,
        state: std::cell::RefCell::new(RunState {
            output: String::new(),
            steps: 0,
            calls: 0,
            levels: 0,
            frame_levels: HashMap::new(),
        }),
        limits,
    };
    let mut env: HashMap<String, Value> = HashMap::new();
    for (param, value) in function.params.iter().zip(args) {
        env.insert(param.clone(), value.clone());
    }
    let flow = interp.run_block(&function.body, &mut env)?;
    let return_value = match flow {
        Flow::Return(value) => value,
        _ => Value::None,
    };
    let state = interp.state.into_inner();
    Ok(Execution { return_value, output: state.output, steps: state.steps })
}

/// Control-flow outcome of executing a statement or block.
#[derive(Debug, Clone, PartialEq)]
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

struct RunState<'p> {
    output: String,
    steps: u64,
    /// User-defined calls currently active.
    calls: usize,
    /// The [`frame_levels`] of the active calls, summed.
    levels: usize,
    /// [`frame_levels`] of each function called so far.
    frame_levels: HashMap<&'p str, usize>,
}

/// The deepest a statement of `stmts` nests: a level per enclosing block
/// plus its deepest expression's [`Expr::json_depth`].
fn frame_levels(stmts: &[Stmt]) -> usize {
    let deepest = |exprs: &mut dyn Iterator<Item = &Expr>| exprs.map(Expr::json_depth).max().unwrap_or(0);
    stmts
        .iter()
        .map(|stmt| match stmt {
            Stmt::Assign { target, value, .. } => {
                let index = match target {
                    Target::Index(_, index) => Some(index),
                    Target::Name(_) => None,
                };
                deepest(&mut index.into_iter().chain([value]))
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                cond.json_depth().max(1 + frame_levels(then_body).max(frame_levels(else_body)))
            }
            Stmt::While { cond: head, body, .. } | Stmt::For { iter: head, body, .. } => {
                head.json_depth().max(1 + frame_levels(body))
            }
            Stmt::Return { value, .. } => deepest(&mut value.iter()),
            Stmt::Print { args, .. } => deepest(&mut args.iter()),
            Stmt::ExprStmt { expr, .. } => expr.json_depth(),
            Stmt::Pass { .. } | Stmt::Break { .. } | Stmt::Continue { .. } => 0,
        })
        .max()
        .unwrap_or(0)
}

/// `value`, or [`InterpError::OutOfFuel`] when it exceeds
/// [`MAX_VALUE_UNITS`].
fn bounded(value: Value) -> Result<Value, InterpError> {
    if value.exceeds_units(MAX_VALUE_UNITS) {
        Err(InterpError::OutOfFuel)
    } else {
        Ok(value)
    }
}

struct Interp<'p> {
    program: &'p SourceProgram,
    state: std::cell::RefCell<RunState<'p>>,
    limits: Limits,
}

/// Evaluation environment that resolves variables from the current frame and
/// dispatches calls to user-defined helper functions back into the
/// interpreter.
struct CallEnv<'a, 'p> {
    vars: &'a HashMap<String, Value>,
    interp: &'a Interp<'p>,
}

impl Env for CallEnv<'_, '_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.vars.get(name).cloned()
    }

    fn call_function(&self, name: &str, args: &[Value]) -> Option<Result<Value, EvalError>> {
        let callee = self.interp.program.function(name)?;
        let result = self.interp.call_user_function(callee, args);
        Some(result.map_err(|err| match err {
            InterpError::Eval(e) => e,
            other => EvalError::other(other.to_string()),
        }))
    }
}

impl<'p> Interp<'p> {
    fn tick(&self) -> Result<(), InterpError> {
        let mut state = self.state.borrow_mut();
        state.steps += 1;
        if state.steps > self.limits.max_steps {
            Err(InterpError::OutOfFuel)
        } else {
            Ok(())
        }
    }

    fn eval(&self, expr: &Expr, env: &HashMap<String, Value>) -> Result<Value, InterpError> {
        let wrapper = CallEnv { vars: env, interp: self };
        eval_expr(expr, &wrapper).map_err(InterpError::from)
    }

    fn call_user_function(&self, callee: &'p Function, args: &[Value]) -> Result<Value, InterpError> {
        if callee.params.len() != args.len() {
            return Err(InterpError::ArityMismatch { expected: callee.params.len(), actual: args.len() });
        }
        self.tick()?;
        let mut env: HashMap<String, Value> = HashMap::new();
        for (param, value) in callee.params.iter().zip(args) {
            env.insert(param.clone(), bounded(value.clone())?);
        }
        let levels = {
            let mut state = self.state.borrow_mut();
            let levels =
                1 + *state.frame_levels.entry(&callee.name).or_insert_with(|| frame_levels(&callee.body));
            if state.calls >= MAX_CALL_DEPTH || state.levels + levels > MAX_CALL_LEVELS {
                return Err(InterpError::Eval(EvalError::other("maximum recursion depth exceeded")));
            }
            state.calls += 1;
            state.levels += levels;
            levels
        };
        let flow = self.run_block(&callee.body, &mut env);
        {
            let mut state = self.state.borrow_mut();
            state.calls -= 1;
            state.levels -= levels;
        }
        Ok(match flow? {
            Flow::Return(value) => value,
            _ => Value::None,
        })
    }

    fn run_block(&self, stmts: &[Stmt], env: &mut HashMap<String, Value>) -> Result<Flow, InterpError> {
        for stmt in stmts {
            match self.run_stmt(stmt, env)? {
                Flow::Normal => continue,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn run_stmt(&self, stmt: &Stmt, env: &mut HashMap<String, Value>) -> Result<Flow, InterpError> {
        self.tick()?;
        match stmt {
            Stmt::Assign { target, op, value, .. } => {
                let rhs = self.eval(value, env)?;
                match target {
                    Target::Name(name) => {
                        let new_value = match op {
                            Some(binop) => {
                                let current = env.get(name).cloned().ok_or_else(|| {
                                    InterpError::Eval(EvalError::new(EvalErrorKind::UndefinedVariable(
                                        name.clone(),
                                    )))
                                })?;
                                apply_binop(*binop, &current, &rhs)?
                            }
                            None => rhs,
                        };
                        env.insert(name.clone(), bounded(new_value)?);
                    }
                    Target::Index(name, index) => {
                        let index_value = self.eval(index, env)?;
                        let current = env.get(name).cloned().ok_or_else(|| {
                            InterpError::Eval(EvalError::new(EvalErrorKind::UndefinedVariable(name.clone())))
                        })?;
                        let stored = match op {
                            Some(binop) => {
                                let old = ops::index(&current, &index_value)?;
                                apply_binop(*binop, &old, &rhs)?
                            }
                            None => rhs,
                        };
                        let updated = ops::store(&current, &index_value, &stored)?;
                        env.insert(name.clone(), bounded(updated)?);
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_body, else_body, .. } => {
                let value = self.eval(cond, env)?;
                let truth = value.truthy().map_err(InterpError::from)?;
                if truth {
                    self.run_block(then_body, env)
                } else {
                    self.run_block(else_body, env)
                }
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.tick()?;
                    let value = self.eval(cond, env)?;
                    if !value.truthy().map_err(InterpError::from)? {
                        break;
                    }
                    match self.run_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For { var, iter, body, .. } => {
                let iterable = self.eval(iter, env)?;
                let items: Vec<Value> = match iterable {
                    Value::List(v) | Value::Tuple(v) => v.to_vec(),
                    Value::Str(s) => s.chars().map(|c| Value::str(c.to_string())).collect(),
                    other => {
                        return Err(InterpError::Eval(EvalError::type_error(format!(
                            "{} object is not iterable",
                            other.type_name()
                        ))))
                    }
                };
                for item in items {
                    self.tick()?;
                    env.insert(var.clone(), item);
                    match self.run_block(body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let result = match value {
                    Some(expr) => bounded(self.eval(expr, env)?)?,
                    None => Value::None,
                };
                Ok(Flow::Return(result))
            }
            Stmt::Print { args, .. } => {
                let mut pieces = Vec::with_capacity(args.len());
                for arg in args {
                    pieces.push(self.eval(arg, env)?.to_display_string());
                }
                let mut state = self.state.borrow_mut();
                state.output.push_str(&pieces.join(" "));
                state.output.push('\n');
                Ok(Flow::Normal)
            }
            Stmt::ExprStmt { expr, .. } => {
                // Mutating method calls on variables (`xs.append(e)`, `xs.pop()`)
                // update the environment; any other expression is evaluated for
                // its side conditions (errors) and discarded.
                if let Expr::Method(recv, name, args) = expr {
                    if let Expr::Var(var_name) = recv.as_ref() {
                        if matches!(name.as_str(), "append" | "pop") {
                            let mut call_args = vec![Expr::Var(var_name.clone())];
                            call_args.extend(args.iter().cloned());
                            let result = if name == "append" {
                                let base = self.eval(&call_args[0], env)?;
                                let item = self.eval(&call_args[1], env)?;
                                crate::eval::call_builtin("append", &[base, item])
                                    .map_err(InterpError::from)?
                            } else {
                                let base = self.eval(&call_args[0], env)?;
                                match base {
                                    Value::List(v) => v.pop().map(Value::List).ok_or_else(|| {
                                        InterpError::Eval(EvalError::index_error("pop from empty list"))
                                    })?,
                                    other => {
                                        return Err(InterpError::Eval(EvalError::type_error(format!(
                                            "{} object has no method pop",
                                            other.type_name()
                                        ))))
                                    }
                                }
                            };
                            env.insert(var_name.clone(), bounded(result)?);
                            return Ok(Flow::Normal);
                        }
                    }
                }
                self.eval(expr, env)?;
                Ok(Flow::Normal)
            }
            Stmt::Pass { .. } => Ok(Flow::Normal),
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, entry: &str, args: &[Value]) -> Execution {
        let prog = parse_program(src).unwrap();
        run_function(&prog, entry, args, Limits::default()).unwrap()
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

    #[test]
    fn papers_correct_attempts_agree() {
        let poly = Value::list(vec![Value::Float(6.3), Value::Float(7.6), Value::Float(12.14)]);
        let r1 = run(C1, "computeDeriv", std::slice::from_ref(&poly));
        let r2 = run(C2, "computeDeriv", &[poly]);
        assert_eq!(r1.return_value, Value::list(vec![Value::Float(7.6), Value::Float(24.28)]));
        assert_eq!(r1.return_value, r2.return_value);
    }

    #[test]
    fn derivative_of_constant_is_zero_list() {
        let r = run(C1, "computeDeriv", &[Value::list(vec![Value::Float(3.0)])]);
        assert_eq!(r.return_value, Value::list(vec![Value::Float(0.0)]));
    }

    #[test]
    fn incorrect_attempt_i1_returns_wrong_type() {
        let i1 = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";
        let r = run(i1, "computeDeriv", &[Value::list(vec![Value::Float(3.0)])]);
        assert_eq!(r.return_value, Value::Float(0.0));
        assert_ne!(r.return_value, Value::list(vec![Value::Float(0.0)]));
    }

    #[test]
    fn incorrect_attempt_i2_raises_index_error() {
        let i2 = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        result[i]=float((i)*poly[i])
    return result
";
        let prog = parse_program(i2).unwrap();
        let out = run_function(
            &prog,
            "computeDeriv",
            &[Value::list(vec![Value::Float(1.0), Value::Float(2.0)])],
            Limits::default(),
        );
        assert!(out.is_err());
    }

    #[test]
    fn while_loop_and_augmented_assignment() {
        let src = "\
def fact(n):
    result = 1
    i = 1
    while i <= n:
        result *= i
        i += 1
    return result
";
        assert_eq!(run(src, "fact", &[Value::Int(5)]).return_value, Value::Int(120));
    }

    #[test]
    fn print_accumulates_output() {
        let src = "\
def main(n):
    i = 1
    while i <= n:
        print(i)
        i += 1
";
        let r = run(src, "main", &[Value::Int(3)]);
        assert_eq!(r.output, "1\n2\n3\n");
        assert_eq!(r.return_value, Value::None);
    }

    #[test]
    fn break_and_continue() {
        let src = "\
def f(n):
    total = 0
    for i in range(n):
        if i == 3:
            break
        if i % 2 == 0:
            continue
        total += i
    return total
";
        assert_eq!(run(src, "f", &[Value::Int(10)]).return_value, Value::Int(1));
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let src = "\
def f(n):
    while True:
        n = n + 1
    return n
";
        let prog = parse_program(src).unwrap();
        let out = run_function(&prog, "f", &[Value::Int(0)], Limits { max_steps: 1000 });
        assert_eq!(out.unwrap_err(), InterpError::OutOfFuel);
    }

    #[test]
    fn values_doubling_through_sharing_stop_at_the_size_ceiling() {
        // 40 doublings make 2^40 units from 40 allocations; `str` would walk
        // every path. The run must stop at the ceiling instead, in time.
        let start = std::time::Instant::now();
        let doubling = "def f(n):\n    x = [1]\n    i = 0\n    while i < n:\n        x = [x, x]\n        i += 1\n    s = str(x)\n    return n\n";
        let recursive = "def g(x, n):\n    if n == 0:\n        return str(x)\n    return g([x, x], n - 1)\n\ndef f(n):\n    return g([1], n)\n";
        let appending = "def f(n):\n    x = [1]\n    i = 0\n    while i < n:\n        x.append(x)\n        i += 1\n    return str(x)\n";
        for src in [doubling, recursive, appending] {
            let prog = parse_program(src).unwrap();
            let shallow = run_function(&prog, "f", &[Value::Int(4)], Limits { max_steps: 10_000 });
            assert!(shallow.is_ok(), "{src}: {shallow:?}");
            let deep = run_function(&prog, "f", &[Value::Int(40)], Limits { max_steps: 10_000 });
            assert!(deep.is_err(), "{src}");
        }
        assert!(start.elapsed().as_secs() < 5, "took {:?}", start.elapsed());
    }

    #[test]
    fn unbounded_recursion_stops_at_the_call_depth() {
        let prog = parse_program("def f(n):\n    return f(n + 1)\n").unwrap();
        let err = run_function(&prog, "f", &[Value::Int(0)], Limits { max_steps: 1_000_000 }).unwrap_err();
        assert!(err.to_string().contains("recursion depth"), "{err}");
        let counting = "def down(n):\n    if n == 0:\n        return 0\n    return 1 + down(n - 1)\n\ndef f(n):\n    return down(n)\n";
        let depth = MAX_CALL_DEPTH as i64 - 2;
        assert_eq!(run(counting, "f", &[Value::Int(depth)]).return_value, Value::Int(depth));
        let prog = parse_program(counting).unwrap();
        assert!(run_function(&prog, "f", &[Value::Int(depth + 10)], Limits::default()).is_err());

        // Recursion through expressions near the parser's nesting ceiling
        // stops at the level budget, well inside a 2 MiB thread stack.
        let negations = crate::parser::MAX_NESTING - 10;
        let deep = format!(
            "def down(n):\n    if n == 0:\n        return 0\n    return {}down(n - 1)\n\ndef f(n):\n    return down(n)\n",
            "-".repeat(negations)
        );
        let prog = parse_program(&deep).unwrap();
        let runs = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let ok = run_function(&prog, "f", &[Value::Int(3)], Limits::default());
                let too_deep = run_function(&prog, "f", &[Value::Int(40)], Limits::default());
                (ok.map(|e| e.return_value), too_deep.map_err(|e| e.to_string()))
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(runs.0, Ok(Value::Int(0)));
        assert!(runs.1.unwrap_err().contains("recursion depth"));
    }

    #[test]
    fn helper_functions_are_callable() {
        let src = "\
def double(x):
    return x * 2

def f(n):
    return double(n) + 1
";
        assert_eq!(run(src, "f", &[Value::Int(5)]).return_value, Value::Int(11));
    }

    #[test]
    fn subscript_assignment_updates_list() {
        let src = "\
def f(xs):
    xs[0] = 99
    return xs
";
        assert_eq!(
            run(src, "f", &[Value::list(vec![Value::Int(1), Value::Int(2)])]).return_value,
            Value::list(vec![Value::Int(99), Value::Int(2)])
        );
    }

    #[test]
    fn string_building_pattern() {
        let src = "\
def trapezoid(h, b):
    i = 0
    while i < h:
        print(' ' * (h - 1 - i) + '*' * (b - 2 * (h - 1 - i)))
        i += 1
";
        let r = run(src, "trapezoid", &[Value::Int(2), Value::Int(6)]);
        assert_eq!(r.output, " ****\n******\n");
    }

    #[test]
    fn missing_entry_function() {
        let prog = parse_program("def g(x):\n    return x\n").unwrap();
        assert!(matches!(
            run_function(&prog, "f", &[Value::Int(1)], Limits::default()),
            Err(InterpError::MissingFunction(_))
        ));
    }
}
