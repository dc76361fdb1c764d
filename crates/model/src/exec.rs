//! Trace execution of model programs (the semantics of Definition 3.5).
//!
//! Executing a [`Program`] on an input memory produces a [`Trace`]: the
//! sequence of location/memory pairs visited by the program. Every update
//! expression is evaluated on the *old* memory (the values at location
//! entry); evaluation errors produce the undefined value `⊥`, exactly as
//! prescribed by Definition 3.4.
//!
//! Memories are dense. A program's variables are interned once into a
//! [`Slots`] table that every trace of the program shares, and a memory is
//! one value per slot. A step stores only its post-state, as one
//! `Arc<[Value]>`; its pre-state is the previous step's post-state (the
//! input memory for step 0), and a step that updates nothing shares its
//! pre-state's allocation. Update targets are resolved to slots once per
//! execution, so a step costs one frame copy of reference-counted values
//! plus the evaluation of its updates.

use std::collections::HashMap;
use std::sync::Arc;

use clara_lang::{eval_expr, Env, Expr, Value};

use crate::program::{special, Loc, Program, Succ};

/// The interned variables of a program: each name's slot in a memory.
#[derive(Debug)]
pub struct Slots {
    index: HashMap<String, usize>,
}

impl Slots {
    /// A table over `names`, in order; repeated names keep their first slot.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let mut index = HashMap::new();
        for name in names {
            let next = index.len();
            index.entry(name.into()).or_insert(next);
        }
        Slots { index }
    }

    /// The table of `program`: its variables and parameters, the special
    /// variables and every update target.
    pub fn of(program: &Program) -> Self {
        let vars = program.vars.iter().chain(&program.params).map(String::as_str);
        let targets =
            program.locs().flat_map(|loc| program.updates_at(loc).iter().map(|(var, _)| var.as_str()));
        Slots::new(vars.chain(special::always_present()).chain(targets))
    }

    /// The slot of `name`, if the table has one.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

/// A memory `σ : V → D`: one value per slot of a [`Slots`] table. A
/// borrowed view into a trace; expression matching evaluates candidate
/// expressions on it through [`Env`].
#[derive(Debug, Clone, Copy)]
pub struct Memory<'a> {
    slots: &'a Slots,
    values: &'a [Value],
}

impl<'a> Memory<'a> {
    /// The value of `name`, or `None` when the memory has no such variable.
    pub fn get(&self, name: &str) -> Option<&'a Value> {
        self.slots.slot(name).map(|slot| &self.values[slot])
    }

    /// The values in slot order.
    pub fn values(&self) -> &'a [Value] {
        self.values
    }
}

impl Env for Memory<'_> {
    fn lookup(&self, name: &str) -> Option<Value> {
        self.get(name).cloned()
    }
}

/// One element of a trace: the location and the memory after evaluating it
/// (the new/primed values `σ(v')`). The memory before it (the old values
/// `σ(v)`) is the previous step's `post`; see [`Trace::pre`].
#[derive(Debug, Clone)]
pub struct Step {
    /// The location evaluated at this step.
    pub loc: Loc,
    /// Variable values after evaluating the location, one per slot of the
    /// trace's [`Slots`].
    pub post: Arc<[Value]>,
}

/// Why a trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStatus {
    /// The successor function reached `end`.
    Completed,
    /// The step budget was exhausted (the program most likely diverges).
    OutOfFuel,
    /// A branching location was reached but the branch condition `?`
    /// evaluated to `⊥`, so no successor could be chosen.
    StuckBranch,
}

/// The trace `⟦P⟧(ρ)` of a program on one input.
///
/// Construct traces with [`Trace::new`]: it precomputes a per-location index
/// over the steps, so [`Trace::memories_at`] — the inner loop of expression
/// matching (Definition 4.5) — is a slice walk instead of a scan over the
/// whole trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The visited steps in order.
    pub steps: Vec<Step>,
    /// How the trace ended.
    pub status: TraceStatus,
    slots: Arc<Slots>,
    /// The input memory `ρ`: step 0's pre-state.
    input: Arc<[Value]>,
    /// `loc_index[loc]` lists the indices of the steps at location `loc`, in
    /// visit order.
    loc_index: Vec<Vec<u32>>,
}

impl Trace {
    /// Builds a trace from its input memory and steps, precomputing the
    /// per-location step index.
    ///
    /// # Panics
    ///
    /// Panics when the input or a post-state does not hold one value per
    /// slot.
    pub fn new(slots: Arc<Slots>, input: Arc<[Value]>, steps: Vec<Step>, status: TraceStatus) -> Self {
        assert!(
            input.len() == slots.len() && steps.iter().all(|s| s.post.len() == slots.len()),
            "a memory holds one value per slot"
        );
        let max_loc = steps.iter().map(|s| s.loc.0 + 1).max().unwrap_or(0);
        let mut loc_index: Vec<Vec<u32>> = vec![Vec::new(); max_loc];
        for (i, step) in steps.iter().enumerate() {
            loc_index[step.loc.0].push(i as u32);
        }
        Trace { steps, status, slots, input, loc_index }
    }

    /// The memory before step `i` (the old values `σ(v)`): the input memory
    /// for step 0, the previous step's post-state otherwise.
    pub fn pre(&self, i: usize) -> Memory<'_> {
        let values = if i == 0 { &self.input } else { &self.steps[i - 1].post };
        Memory { slots: &self.slots, values }
    }

    /// The memory after step `i` (the new values `σ(v')`).
    pub fn post(&self, i: usize) -> Memory<'_> {
        Memory { slots: &self.slots, values: &self.steps[i].post }
    }

    /// The projection `γ|v`: the sequence of new values of `var` along the
    /// trace (used by the matching algorithm, Fig. 4), read as one column of
    /// the post-states. A variable the trace does not know is `⊥` throughout.
    pub fn projection(&self, var: &str) -> impl Iterator<Item = &Value> + '_ {
        static UNDEF: Value = Value::Undef;
        let slot = self.slots.slot(var);
        self.steps.iter().map(move |s| slot.map_or(&UNDEF, |slot| &s.post[slot]))
    }

    /// Indices (into [`Trace::steps`]) of the steps at `loc`, in visit order.
    pub fn step_indices_at(&self, loc: Loc) -> &[u32] {
        self.loc_index.get(loc.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The sequence of visited locations.
    pub fn locations(&self) -> Vec<Loc> {
        self.steps.iter().map(|s| s.loc).collect()
    }

    /// The final value of `var`, if the trace has a step and a slot for it.
    fn last(&self, var: &str) -> Option<&Value> {
        let last = self.steps.len().checked_sub(1)?;
        self.post(last).get(var)
    }

    /// The final value of the `return` variable, if the trace completed.
    pub fn return_value(&self) -> Value {
        self.last(special::RETURN).cloned().unwrap_or(Value::Undef)
    }

    /// The final value of the output variable `#out`.
    pub fn output(&self) -> String {
        match self.last(special::OUT) {
            Some(Value::Str(s)) => s.to_string(),
            _ => String::new(),
        }
    }

    /// The memories (old values) at a given location, in visit order; this is
    /// what expression matching (Definition 4.5) evaluates candidate
    /// expressions on.
    pub fn memories_at(&self, loc: Loc) -> impl Iterator<Item = Memory<'_>> {
        self.step_indices_at(loc).iter().map(|&i| self.pre(i as usize))
    }
}

/// Execution budget for trace execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    /// Maximum number of trace steps (locations visited).
    pub max_steps: usize,
    /// Maximum size of any single value produced by an update, in
    /// [`Value::size_units`]. A trace keeps every step's post-state alive, so
    /// a diverging program that *grows* data every iteration (`out = out +
    /// line` in an infinite loop) would otherwise stay within `max_steps`
    /// while the values its trace holds balloon to gigabytes. Defaults to
    /// [`clara_lang::value::MAX_VALUE_UNITS`], the grading interpreter's
    /// ceiling.
    pub max_value_units: usize,
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel { max_steps: 5_000, max_value_units: clara_lang::value::MAX_VALUE_UNITS }
    }
}

/// Builds the initial memory for `program`, laid out by `slots`, from
/// positional argument values: every variable is `⊥` except the return
/// flag (`false`), the output (`""`) and the parameters.
///
/// # Panics
///
/// Panics when `slots` lacks a special variable or a parameter of
/// `program` (a table from [`Slots::of`] has them all).
pub fn initial_memory(program: &Program, slots: &Slots, args: &[Value]) -> Arc<[Value]> {
    let mut memory = vec![Value::Undef; slots.len()];
    let mut set =
        |name: &str, value| memory[slots.slot(name).expect("specials and parameters have slots")] = value;
    set(special::RET_FLAG, Value::Bool(false));
    set(special::OUT, Value::str(""));
    for (param, value) in program.params.iter().zip(args) {
        set(param, value.clone());
    }
    memory.into()
}

/// A program prepared for execution: its slot table and every location's
/// updates resolved to slots.
struct Executor<'p> {
    program: &'p Program,
    slots: Arc<Slots>,
    /// `updates[loc]`: the explicit updates at `loc` as `(slot, expression)`.
    updates: Vec<Vec<(usize, &'p Expr)>>,
    cond: usize,
}

impl<'p> Executor<'p> {
    fn new(program: &'p Program) -> Self {
        let slots = Slots::of(program);
        let updates = program
            .locs()
            .map(|loc| {
                let resolve =
                    |(var, expr): &'p (String, Expr)| (slots.slot(var).expect("targets have slots"), expr);
                program.updates_at(loc).iter().map(resolve).collect()
            })
            .collect();
        let cond = slots.slot(special::COND).expect("the condition variable has a slot");
        Executor { program, slots: Arc::new(slots), updates, cond }
    }

    fn run(&self, args: &[Value], fuel: Fuel) -> Trace {
        let input = initial_memory(self.program, &self.slots, args);
        let mut steps = Vec::new();
        let mut pre = Arc::clone(&input);
        let mut loc = self.program.init;
        let mut status = TraceStatus::Completed;

        loop {
            if steps.len() >= fuel.max_steps {
                status = TraceStatus::OutOfFuel;
                break;
            }
            let updates = &self.updates[loc.0];
            let mut oversized = false;
            let post = if updates.is_empty() {
                Arc::clone(&pre)
            } else {
                let mut post = Arc::<[Value]>::from(&pre[..]);
                let values = Arc::get_mut(&mut post).expect("a fresh frame is unshared");
                let memory = Memory { slots: &self.slots, values: &pre };
                for &(slot, expr) in updates {
                    let value = eval_expr(expr, &memory).unwrap_or(Value::Undef);
                    oversized |= value.exceeds_units(fuel.max_value_units);
                    values[slot] = value;
                }
                post
            };
            steps.push(Step { loc, post: Arc::clone(&post) });
            if oversized {
                status = TraceStatus::OutOfFuel;
                break;
            }

            let branch = if self.program.is_branching(loc) {
                match post[self.cond].truthy() {
                    Ok(b) => b,
                    Err(_) => {
                        status = TraceStatus::StuckBranch;
                        break;
                    }
                }
            } else {
                true
            };
            match self.program.succ(loc, branch) {
                Succ::End => break,
                Succ::Loc(next) => {
                    pre = post;
                    loc = next;
                }
            }
        }

        Trace::new(Arc::clone(&self.slots), input, steps, status)
    }
}

/// Executes `program` on positional arguments, producing its trace.
pub fn execute(program: &Program, args: &[Value], fuel: Fuel) -> Trace {
    Executor::new(program).run(args, fuel)
}

/// Executes `program` on every input of `inputs` (the set `I` of the paper).
/// The traces share one slot table.
pub fn execute_on_inputs(program: &Program, inputs: &[Vec<Value>], fuel: Fuel) -> Vec<Trace> {
    let executor = Executor::new(program);
    inputs.iter().map(|args| executor.run(args, fuel)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_entry;
    use clara_lang::parse_program;

    fn lower(src: &str, entry: &str) -> Program {
        lower_entry(&parse_program(src).unwrap(), entry).unwrap()
    }

    const COUNT_DOWN: &str = "\
def f(n):
    total = 0
    while n > 0:
        total = total + n
        n = n - 1
    return total
";

    #[test]
    fn step_zero_starts_from_the_initial_memory() {
        let program = lower(COUNT_DOWN, "f");
        let trace = execute(&program, &[Value::Int(3)], Fuel::default());
        let initial = initial_memory(&program, &Slots::of(&program), &[Value::Int(3)]);
        assert_eq!(trace.pre(0).values(), &initial[..]);
        assert_eq!(trace.pre(0).get("n"), Some(&Value::Int(3)));
        assert_eq!(trace.pre(0).get("total"), Some(&Value::Undef));
        assert_eq!(trace.pre(0).get(special::RET_FLAG), Some(&Value::Bool(false)));
        assert_eq!(trace.pre(0).get(special::OUT), Some(&Value::str("")));
        assert_eq!(trace.pre(0).get("nowhere"), None);
    }

    #[test]
    fn each_step_starts_from_the_previous_post_state() {
        let program = lower(COUNT_DOWN, "f");
        let trace = execute(&program, &[Value::Int(3)], Fuel::default());
        assert_eq!(trace.status, TraceStatus::Completed);
        assert_eq!(trace.return_value(), Value::Int(6));
        for i in 1..trace.steps.len() {
            assert!(std::ptr::eq(trace.pre(i).values(), trace.post(i - 1).values()), "step {i}");
        }
        // The loop body updates `total` from the old `n`, not the new one.
        let body = trace.step_indices_at(Loc(2))[0] as usize;
        assert_eq!(trace.pre(body).get("n"), Some(&Value::Int(3)));
        assert_eq!(trace.post(body).get("total"), Some(&Value::Int(3)));
        assert_eq!(trace.post(body).get("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn a_program_needing_exactly_max_steps_completes() {
        let program = lower(COUNT_DOWN, "f");
        let needed = execute(&program, &[Value::Int(3)], Fuel::default()).steps.len();
        let exact = execute(&program, &[Value::Int(3)], Fuel { max_steps: needed, ..Fuel::default() });
        assert_eq!(exact.status, TraceStatus::Completed);
        let short = execute(&program, &[Value::Int(3)], Fuel { max_steps: needed - 1, ..Fuel::default() });
        assert_eq!(short.status, TraceStatus::OutOfFuel);
        assert_eq!(short.steps.len(), needed - 1);
    }

    #[test]
    fn an_oversized_value_stops_the_trace_after_its_step() {
        let program = lower("def f(s):\n    while True:\n        s = s + s\n    return s\n", "f");
        let fuel = Fuel { max_steps: 1_000, max_value_units: 100 };
        let trace = execute(&program, &[Value::str("ab")], fuel);
        assert_eq!(trace.status, TraceStatus::OutOfFuel);
        let last = trace.post(trace.steps.len() - 1);
        assert!(last.get("s").unwrap().size_units() > 100);
        let before = trace.pre(trace.steps.len() - 1);
        assert!(before.get("s").unwrap().size_units() <= 100);
    }
}
