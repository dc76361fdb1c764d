//! Direct interpreter for MiniPy source programs.
//!
//! The interpreter executes the surface AST (it does not go through the Clara
//! program model) and is used to grade student attempts: an attempt is
//! *correct* when it produces the expected return value / output on every
//! test input. It is also used for differential testing of the program-model
//! executor in `clara-model`.

use std::collections::HashMap;

use crate::ast::{Expr, Function, SourceProgram, Stmt, Target};
use crate::error::{EvalError, EvalErrorKind, InterpError};
use crate::eval::{apply_binop, eval_expr, Env};
use crate::value::{ops, Value};

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
/// does not match, evaluation of an expression fails, or the step limit is
/// exceeded.
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
        state: std::cell::RefCell::new(RunState { output: String::new(), steps: 0 }),
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

struct RunState {
    output: String,
    steps: u64,
}

struct Interp<'p> {
    program: &'p SourceProgram,
    state: std::cell::RefCell<RunState>,
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

    fn call_user_function(&self, callee: &Function, args: &[Value]) -> Result<Value, InterpError> {
        if callee.params.len() != args.len() {
            return Err(InterpError::ArityMismatch { expected: callee.params.len(), actual: args.len() });
        }
        self.tick()?;
        let mut env: HashMap<String, Value> = HashMap::new();
        for (param, value) in callee.params.iter().zip(args) {
            env.insert(param.clone(), value.clone());
        }
        let flow = self.run_block(&callee.body, &mut env)?;
        Ok(match flow {
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
                        env.insert(name.clone(), new_value);
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
                        env.insert(name.clone(), updated);
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
                    Some(expr) => self.eval(expr, env)?,
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
                            env.insert(var_name.clone(), result);
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
