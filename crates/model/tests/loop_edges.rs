//! Loop edge cases of the lowering, asserted by *trace equivalence*: for
//! every test input, the lowered model's observables (return value, printed
//! output) must equal the MiniPy interpreter's. These are exactly the
//! interactions the `#ret`/`#brk` special-variable encoding has to get
//! right: nested loops with `break` plus early `return`, `continue`
//! skipping (or rather *not* skipping) the iterator update, and `while`
//! conditions reading variables mutated on the `break` path.

use clara_lang::{parse_program, run_function, Limits, Value};
use clara_model::{execute, lower_entry, Fuel, TraceStatus};

/// Asserts model/interpreter agreement on every input.
fn assert_trace_equivalent(src: &str, entry: &str, inputs: &[Vec<Value>]) {
    let source = parse_program(src).expect("test program parses");
    let program = lower_entry(&source, entry).expect("test program lowers");
    for args in inputs {
        let trace = execute(&program, args, Fuel::default());
        assert_eq!(trace.status, TraceStatus::Completed, "model diverged on {args:?}:\n{src}");
        let direct = run_function(&source, entry, args, Limits::default())
            .unwrap_or_else(|e| panic!("interpreter failed on {args:?}: {e}\n{src}"));
        assert!(
            trace.return_value().py_eq(&direct.return_value) || {
                // Functions that fall off the end return None in the
                // interpreter and leave `return` undefined in the model.
                trace.return_value() == Value::Undef && direct.return_value == Value::None
            },
            "return diverged on {args:?}: model {:?}, interpreter {:?}\n{src}",
            trace.return_value(),
            direct.return_value,
        );
        assert_eq!(trace.output(), direct.output, "output diverged on {args:?}\n{src}");
    }
}

fn ints(values: &[i64]) -> Vec<Vec<Value>> {
    values.iter().map(|v| vec![Value::Int(*v)]).collect()
}

#[test]
fn nested_loops_with_inner_break_and_early_return() {
    // The inner loop breaks (inner `#brk`), and an early `return` fires from
    // inside it on some inputs — the `#ret` guard must stop both the inner
    // and the outer loop, and the code after the loops must not re-execute.
    let src = "\
def f(n):
    total = 0
    i = 0
    while i < n:
        j = 0
        while j < n:
            if total > 20:
                return total
            if j == i:
                total = total + i
                break
            j = j + 1
        i = i + 1
    return total
";
    assert_trace_equivalent(src, "f", &ints(&[0, 1, 3, 5, 8, 13]));
}

#[test]
fn early_return_from_the_outer_loop_skips_inner_loops() {
    let src = "\
def f(n):
    acc = 0
    for i in range(n):
        if i == 3:
            return acc
        for j in range(i):
            acc = acc + j
    return acc
";
    assert_trace_equivalent(src, "f", &ints(&[0, 2, 3, 4, 10]));
}

#[test]
fn continue_does_not_skip_the_iterator_update() {
    // `continue` skips the remainder of the body, but the desugared
    // iterator advance (`x = head(#it); #it = tail(#it)`) is a loop
    // *prelude* that must run unconditionally — otherwise the model spins
    // on the same element forever.
    let src = "\
def f(n):
    total = 0
    for x in range(n):
        if x % 2 == 0:
            continue
        total = total + x
    return total
";
    assert_trace_equivalent(src, "f", &ints(&[0, 1, 2, 5, 10]));
}

#[test]
fn continue_before_the_manual_update_in_a_while_loop() {
    // The classic while-loop variant: `continue` placed after the manual
    // increment keeps the loop productive; the guard composition must not
    // resurrect the skipped statements.
    let src = "\
def f(n):
    i = 0
    out = 0
    while i < n:
        i = i + 1
        if i % 3 == 0:
            continue
        out = out + i
    return out
";
    assert_trace_equivalent(src, "f", &ints(&[0, 1, 3, 7, 12]));
}

#[test]
fn while_condition_reads_a_variable_mutated_on_the_break_path() {
    // `done` is both the loop condition's input and mutated immediately
    // before `break`: the composed block must order the mutation before the
    // break flag, and the loop condition must see the pre-iteration value.
    let src = "\
def f(n):
    done = 0
    count = 0
    while done < n:
        count = count + 1
        if count > 4:
            done = n + 10
            break
        done = done + 2
    return done + count
";
    assert_trace_equivalent(src, "f", &ints(&[0, 1, 4, 9, 30]));
}

#[test]
fn break_and_return_in_the_same_loop_body() {
    let src = "\
def f(n):
    i = 0
    while i < n:
        if i == 7:
            return 100
        if i * i > n:
            break
        i = i + 1
    return i
";
    assert_trace_equivalent(src, "f", &ints(&[0, 3, 10, 40, 100]));
}

#[test]
fn print_inside_nested_loops_with_break() {
    let src = "\
def f(n):
    for i in range(n):
        row = ''
        j = 0
        while j < n:
            if j > i:
                break
            row = row + str(j)
            j = j + 1
        print(row)
";
    assert_trace_equivalent(src, "f", &ints(&[0, 1, 3, 5]));
}

#[test]
fn composition_past_the_depth_bound_is_unsupported() {
    // Every statement is three levels deep, but straight-line composition
    // substitutes each `x` into the next: 3,000 lines would compose to one
    // expression 3,000 levels deep.
    let lines = |n: usize| format!("def f(x):\n{}    return x\n", "    x = x + 1\n".repeat(n));
    let err = lower_entry(&parse_program(&lines(3_000)).unwrap(), "f").unwrap_err();
    assert!(err.message.contains("levels deep"), "{err}");
    // Nested branches compose `ite` guards the same way.
    let mut nested = String::from("def f(x):\n");
    for level in 1..=120 {
        nested.push_str(&format!("{}if x > {level}:\n", "    ".repeat(level)));
    }
    nested.push_str(&format!("{}x = 0\n    return x\n", "    ".repeat(121)));
    let err = lower_entry(&parse_program(&nested).unwrap(), "f").unwrap_err();
    assert!(err.message.contains("levels deep"), "{err}");

    let deepest = lower_entry(&parse_program(&lines(clara_model::MAX_EXPR_DEPTH - 1)).unwrap(), "f").unwrap();
    let depth = deepest.locs().flat_map(|loc| deepest.updates_at(loc)).map(|(_, e)| e.json_depth()).max();
    assert_eq!(depth, Some(clara_model::MAX_EXPR_DEPTH));
    assert_trace_equivalent(&lines(clara_model::MAX_EXPR_DEPTH - 1), "f", &ints(&[0, 5]));
}
