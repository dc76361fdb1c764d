//! # clara-model — the Clara program model
//!
//! This crate implements §3 of *"Automated Clustering and Program Repair for
//! Introductory Programming Assignments"* (PLDI 2018): programs as tuples
//! `(L, ℓ_init, V, U, S)` of locations, variables, update expressions and a
//! successor function, together with
//!
//! * [`lower`]: the front-end that turns a parsed MiniPy function into a
//!   model [`Program`] (loop-free regions collapse to single locations,
//!   loop-free branching becomes `ite` expressions, `for`-loops are desugared
//!   with explicit iterator variables, early returns / `print` / `break` are
//!   encoded with special variables), and
//! * [`exec`]: the dynamic semantics of Definition 3.5 producing [`Trace`]s,
//!   which the matching, clustering and repair algorithms of `clara-core`
//!   consume.
//!
//! ## Example
//!
//! ```rust
//! use clara_lang::{parse_program, Value};
//! use clara_model::{execute, lower_entry, Fuel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let source = parse_program(
//!     "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
//! )?;
//! let program = lower_entry(&source, "computeDeriv")?;
//! assert_eq!(program.location_count(), 4); // ℓ_before, ℓ_cond, ℓ_loop, ℓ_after
//! let trace = execute(
//!     &program,
//!     &[Value::list(vec![Value::Float(6.3), Value::Float(7.6), Value::Float(12.14)])],
//!     Fuel::default(),
//! );
//! assert_eq!(trace.return_value(), Value::list(vec![Value::Float(7.6), Value::Float(24.28)]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod exec;
pub mod frontend;
pub mod lower;
pub mod program;
pub mod surface;
pub mod unparse;

pub use builder::{ModelBuilder, MAX_EXPR_DEPTH};
pub use exec::{execute, execute_on_inputs, initial_memory, Fuel, Memory, Slots, Step, Trace, TraceStatus};
pub use frontend::{Frontend, FrontendError, Lang, MiniPyFrontend, ParsedSubmission, MINIPY};
pub use lower::{lower_entry, lower_function, surface_function, LowerError};
pub use program::{special, Loc, LocInfo, LocKind, Program, StructSig, Succ};
pub use surface::{SurfaceFunction, SurfaceStmt};
pub use unparse::{minipy_function, minipy_source, UnparseError};

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lang::{parse_program, run_function, Limits, Value};

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

    fn lower_src(src: &str, entry: &str) -> Program {
        lower_entry(&parse_program(src).unwrap(), entry).unwrap()
    }

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    #[test]
    fn c1_has_the_papers_four_locations() {
        let p = lower_src(C1, "computeDeriv");
        assert_eq!(p.location_count(), 4);
        assert_eq!(StructSig::sequence_key(&p.signature), "BL(B)B");
    }

    #[test]
    fn c1_trace_matches_the_paper() {
        let p = lower_src(C1, "computeDeriv");
        let trace = execute(&p, &[poly(&[6.3, 7.6, 12.14])], Fuel::default());
        assert_eq!(trace.status, TraceStatus::Completed);
        // result: [] before the loop, [7.6], [7.6, 24.28] inside, unchanged after.
        let result_values: Vec<&Value> = trace.projection("result").collect();
        assert_eq!(result_values[0], &Value::list(vec![]));
        assert!(result_values.contains(&&Value::list(vec![Value::Float(7.6)])));
        assert!(result_values.contains(&&Value::list(vec![Value::Float(7.6), Value::Float(24.28)])));
        assert_eq!(trace.return_value(), Value::list(vec![Value::Float(7.6), Value::Float(24.28)]));
    }

    #[test]
    fn c1_and_c2_have_the_same_control_flow() {
        let p1 = lower_src(C1, "computeDeriv");
        let p2 = lower_src(C2, "computeDeriv");
        assert!(p1.same_control_flow(&p2));
    }

    #[test]
    fn model_and_interpreter_agree_on_correct_programs() {
        for src in [C1, C2] {
            let source = parse_program(src).unwrap();
            let program = lower_entry(&source, "computeDeriv").unwrap();
            for input in [poly(&[6.3, 7.6, 12.14]), poly(&[3.0]), poly(&[]), poly(&[1.0, 2.0, 3.0, 4.0])] {
                let trace = execute(&program, std::slice::from_ref(&input), Fuel::default());
                let direct = run_function(&source, "computeDeriv", &[input], Limits::default()).unwrap();
                assert_eq!(trace.return_value(), direct.return_value, "mismatch for {src}");
            }
        }
    }

    #[test]
    fn early_return_inside_loop_is_guarded() {
        let src = "\
def find(xs, x):
    for i in range(len(xs)):
        if xs[i] == x:
            return i
    return -1
";
        let source = parse_program(src).unwrap();
        let program = lower_entry(&source, "find").unwrap();
        let xs = Value::list(vec![Value::Int(5), Value::Int(7), Value::Int(9)]);
        for needle in [Value::Int(7), Value::Int(42)] {
            let trace = execute(&program, &[xs.clone(), needle.clone()], Fuel::default());
            let direct = run_function(&source, "find", &[xs.clone(), needle], Limits::default()).unwrap();
            assert_eq!(trace.return_value(), direct.return_value);
        }
    }

    #[test]
    fn while_loop_with_print_builds_output() {
        let src = "\
def main(n):
    i = 1
    while i <= n:
        print(i)
        i = i + 1
";
        let source = parse_program(src).unwrap();
        let program = lower_entry(&source, "main").unwrap();
        let trace = execute(&program, &[Value::Int(3)], Fuel::default());
        let direct = run_function(&source, "main", &[Value::Int(3)], Limits::default()).unwrap();
        assert_eq!(trace.output(), direct.output);
        assert_eq!(trace.output(), "1\n2\n3\n");
    }

    #[test]
    fn break_is_modelled_with_a_flag() {
        let src = "\
def first_even(xs):
    found = -1
    for x in xs:
        if x % 2 == 0:
            found = x
            break
    return found
";
        let source = parse_program(src).unwrap();
        let program = lower_entry(&source, "first_even").unwrap();
        let xs = Value::list(vec![Value::Int(3), Value::Int(4), Value::Int(5), Value::Int(6)]);
        let trace = execute(&program, std::slice::from_ref(&xs), Fuel::default());
        let direct = run_function(&source, "first_even", &[xs], Limits::default()).unwrap();
        assert_eq!(trace.return_value(), direct.return_value);
        assert_eq!(trace.return_value(), Value::Int(4));
    }

    #[test]
    fn nested_loops_produce_nested_signatures() {
        let src = "\
def rhombus(h):
    for i in range(h):
        row = ''
        for j in range(i + 1):
            row = row + str(j)
        print(row)
";
        let p = lower_src(src, "rhombus");
        assert_eq!(StructSig::sequence_key(&p.signature), "BL(BL(B)B)B");
        let source = parse_program(src).unwrap();
        let trace = execute(&p, &[Value::Int(3)], Fuel::default());
        let direct = run_function(&source, "rhombus", &[Value::Int(3)], Limits::default()).unwrap();
        assert_eq!(trace.output(), direct.output);
    }

    #[test]
    fn branch_containing_loop_creates_branch_structure() {
        let src = "\
def f(n):
    total = 0
    if n > 0:
        for i in range(n):
            total = total + i
    else:
        total = -1
    return total
";
        let p = lower_src(src, "f");
        assert_eq!(StructSig::sequence_key(&p.signature), "I(BL(B)B|B)B");
        let source = parse_program(src).unwrap();
        for n in [Value::Int(4), Value::Int(0), Value::Int(-2)] {
            let trace = execute(&p, std::slice::from_ref(&n), Fuel::default());
            let direct = run_function(&source, "f", &[n], Limits::default()).unwrap();
            assert_eq!(trace.return_value(), direct.return_value);
        }
    }

    #[test]
    fn loop_free_program_is_one_block() {
        let src = "\
def sign(x):
    if x > 0:
        return 1
    elif x == 0:
        return 0
    else:
        return -1
";
        let p = lower_src(src, "sign");
        assert_eq!(p.location_count(), 1);
        for x in [Value::Int(5), Value::Int(0), Value::Int(-3)] {
            let trace = execute(&p, std::slice::from_ref(&x), Fuel::default());
            let source = parse_program(src).unwrap();
            let direct = run_function(&source, "sign", &[x], Limits::default()).unwrap();
            assert_eq!(trace.return_value(), direct.return_value);
        }
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let src = "\
def f(n):
    while True:
        n = n + 1
    return n
";
        let p = lower_src(src, "f");
        // Fuel runs out at exactly `max_steps` steps.
        for max_steps in [0, 1, 2, 7, 100] {
            let trace = execute(&p, &[Value::Int(0)], Fuel { max_steps, ..Fuel::default() });
            assert_eq!(trace.status, TraceStatus::OutOfFuel);
            assert_eq!(trace.steps.len(), max_steps);
        }
    }

    #[test]
    fn undefined_branch_condition_gets_stuck() {
        let src = "\
def f(xs):
    while xs[10] > 0:
        xs = xs
    return xs
";
        let p = lower_src(src, "f");
        let trace = execute(&p, &[Value::list(vec![])], Fuel::default());
        assert_eq!(trace.status, TraceStatus::StuckBranch);
        // The trace ends with the step whose condition is `⊥`.
        assert_eq!(trace.post(trace.steps.len() - 1).get(special::COND), Some(&Value::Undef));
        assert_eq!(trace.return_value(), Value::Undef);
    }

    #[test]
    fn helper_functions_are_unsupported() {
        let src = "\
def helper(x):
    return x * 2

def f(n):
    return helper(n)
";
        let source = parse_program(src).unwrap();
        assert!(lower_entry(&source, "f").is_err());
    }

    #[test]
    fn incorrect_attempt_i2_still_lowers_and_runs() {
        // I2 from Fig. 2(f): crashes at runtime (index error) but must still
        // have a model trace, with ⊥ values where evaluation fails.
        let src = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        result[i]=float((i)*poly[i])
    return result
";
        let p = lower_src(src, "computeDeriv");
        assert_eq!(p.location_count(), 4);
        let trace = execute(&p, &[poly(&[1.0, 2.0, 3.0])], Fuel::default());
        assert_eq!(trace.status, TraceStatus::Completed);
        assert!(trace.projection("result").any(Value::is_undef));
    }

    #[test]
    fn projections_and_memories_at() {
        let p = lower_src(C1, "computeDeriv");
        let trace = execute(&p, &[poly(&[1.0, 2.0, 3.0])], Fuel::default());
        let cond_values: Vec<&Value> = trace.projection(special::COND).collect();
        assert!(cond_values.contains(&&Value::Bool(true)));
        assert!(cond_values.contains(&&Value::Bool(false)));
        // The loop body location (ℓ2) is visited twice for a 3-element input.
        assert_eq!(trace.memories_at(Loc(2)).count(), 2);
    }

    #[test]
    fn update_lines_point_at_source() {
        let p = lower_src(C1, "computeDeriv");
        // `result` is assigned at line 2 in the before-block (location 0).
        assert_eq!(p.update_line(Loc(0), "result"), Some(2));
        // The loop-body assignment to `result` is at line 4.
        assert_eq!(p.update_line(Loc(2), "result"), Some(4));
    }
}
