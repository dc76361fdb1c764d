//! Pins trace execution over the whole synthetic dataset.
//!
//! Matching, clustering and repair all read the traces of `clara_model`'s
//! executor, so a change to the executor that alters any trace can change a
//! verdict. `dataset_traces_match_the_pinned_digest` fixes every trace of
//! every dataset attempt of all twelve problems, correct and incorrect, to
//! one FNV-1a digest; `correct_solutions_complete_under_default_fuel`
//! checks that the analysis budget never cuts a correct solution short.
//!
//! `dataset_behaviour_hashes_match_the_pinned_digest` fixes the hashes the
//! cluster store persists: every attempt's behaviour `fingerprint` and its
//! `behaviour_signals` (which carry the per-variable projection hashes).
//! They hash values through `Value`'s `Hash`, so a change to how values are
//! represented must leave those byte streams exactly as they were.

use std::fmt::Write as _;

use clara_core::{behaviour_signals, AnalyzedProgram};
use clara_corpus::{all_problems_all_langs, frontend_for, generate_dataset_for, DatasetConfig};
use clara_lang::Value;
use clara_model::{execute_on_inputs, Fuel, Program, TraceStatus};

/// The digest of the default-config datasets' traces. A change here means
/// the executor produces different traces: find out why before updating it.
const PINNED_DIGEST: u64 = 0x8232_8939_0644_9b9c;

/// The number of traces behind [`PINNED_DIGEST`].
const PINNED_TRACES: usize = 11_308;

/// The digest of the default-config datasets' behaviour fingerprints and
/// signals, plus [`APPENDING_ATTEMPT`]'s. Taken before lists became
/// persistent sequences: a change here means a stored index would no
/// longer find what it holds.
const PINNED_BEHAVIOUR_DIGEST: u64 = 0xafd4_c220_9180_e52a;

/// A `derivatives` attempt whose loop appends and never advances: its
/// traces hold thousands of list versions, each one element longer.
const APPENDING_ATTEMPT: &str = "\
def computeDeriv(poly):
    result = []
    e = 1
    while e < len(poly):
        result.append(float(poly[e] * e))
    return result
";

/// FNV-1a over bytes: fixed by its specification, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The model program of `source`, or why there is none.
fn lower(problem: &clara_corpus::Problem, source: &str) -> Result<Program, &'static str> {
    let parsed = frontend_for(problem.lang).parse(source).map_err(|_| "unparsable")?;
    parsed.lower(problem.entry).map_err(|_| "unlowerable")
}

#[test]
fn dataset_traces_match_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut line = String::new();
    let mut traces = 0usize;
    for problem in all_problems_all_langs() {
        let dataset = generate_dataset_for(&problem, DatasetConfig::default());
        let inputs = problem.inputs();
        for attempt in dataset.correct.iter().chain(&dataset.incorrect) {
            digest.bytes(problem.name.as_bytes());
            let program = match lower(&problem, &attempt.source) {
                Ok(program) => program,
                Err(why) => {
                    digest.bytes(why.as_bytes());
                    continue;
                }
            };
            for trace in execute_on_inputs(&program, &inputs, Fuel::default()) {
                traces += 1;
                line.clear();
                write!(line, "{:?}|", trace.status).unwrap();
                for step in &trace.steps {
                    write!(line, "{};", step.loc.0).unwrap();
                }
                digest.bytes(line.as_bytes());
                for i in 0..trace.steps.len() {
                    let post = trace.post(i);
                    line.clear();
                    for var in &program.vars {
                        write!(line, "{:?},", post.get(var).unwrap_or(&Value::Undef)).unwrap();
                    }
                    digest.bytes(line.as_bytes());
                }
            }
        }
    }
    assert_eq!(traces, PINNED_TRACES);
    assert_eq!(digest.0, PINNED_DIGEST, "trace digest {:#018x}", digest.0);
}

#[test]
fn correct_solutions_complete_under_default_fuel() {
    // Grading allows 10 000 steps, analysis `Fuel::default()`'s 5 000. Were
    // a correct solution to need more than 5 000, it would be clustered with
    // an `OutOfFuel` trace. Over the default datasets and the 600-solution
    // pools (8 640 solutions, both languages) none does; the longest correct
    // trace is 121 steps.
    let pool = DatasetConfig { correct_count: 600, incorrect_count: 0, ..DatasetConfig::default() };
    let mut longest = 0;
    for problem in all_problems_all_langs() {
        let inputs = problem.inputs();
        for config in [DatasetConfig::default(), pool] {
            for attempt in generate_dataset_for(&problem, config).correct {
                let program = lower(&problem, &attempt.source).expect("correct solutions lower");
                for trace in execute_on_inputs(&program, &inputs, Fuel::default()) {
                    assert_eq!(trace.status, TraceStatus::Completed, "{}: {}", problem.name, attempt.source);
                    longest = longest.max(trace.steps.len());
                }
            }
        }
    }
    assert!(longest * 10 < Fuel::default().max_steps, "longest correct trace: {longest} steps");
}

#[test]
fn dataset_behaviour_hashes_match_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut analysed = 0usize;
    for problem in all_problems_all_langs() {
        let dataset = generate_dataset_for(&problem, DatasetConfig::default());
        let inputs = problem.inputs();
        let appending = (problem.name == "derivatives").then_some(APPENDING_ATTEMPT);
        let sources = dataset.correct.iter().chain(&dataset.incorrect).map(|a| a.source.as_str());
        for source in sources.chain(appending) {
            digest.bytes(problem.name.as_bytes());
            match AnalyzedProgram::from_text_in(problem.lang, source, problem.entry, &inputs, Fuel::default())
            {
                Ok(analyzed) => {
                    analysed += 1;
                    digest.bytes(&analyzed.fingerprint.to_le_bytes());
                    for signal in behaviour_signals(&analyzed) {
                        digest.bytes(&signal.to_le_bytes());
                    }
                }
                Err(e) => digest.bytes(e.to_string().as_bytes()),
            }
        }
    }
    assert!(analysed > 0);
    assert_eq!(digest.0, PINNED_BEHAVIOUR_DIGEST, "behaviour digest {:#018x}", digest.0);
}

#[test]
fn the_appending_attempt_grows_its_list_until_fuel_runs_out() {
    let problem = clara_corpus::mooc::derivatives();
    let inputs = problem.inputs();
    let analyzed =
        AnalyzedProgram::from_text(APPENDING_ATTEMPT, problem.entry, &inputs, Fuel::default()).unwrap();
    let longest = analyzed
        .traces
        .iter()
        .filter(|trace| trace.status == TraceStatus::OutOfFuel)
        .filter_map(|trace| match trace.post(trace.steps.len() - 1).get("result") {
            Some(Value::List(items)) => Some(items.len()),
            _ => None,
        })
        .max();
    assert!(longest.is_some_and(|n| n > 1_000), "longest list: {longest:?}");
}
