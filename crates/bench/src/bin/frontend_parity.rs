//! Cross-frontend parity benchmark: the same assignments served in MiniPy
//! and MiniC.
//!
//! CLARA's §3 claim is that one program model serves multiple source
//! languages. This binary measures that claim on the three translated
//! problem pairs (`fibonacci`/`fibonacci_c`, ...):
//!
//! * **parity** — the reference solutions of a pair lower to *isomorphic*
//!   model programs: identical control-flow signatures and identical traces
//!   (location sequence, printed output) on the shared grading inputs;
//! * **performance** — clustering and repair timings per frontend over the
//!   pair's corpora, so a frontend regression (e.g. a MiniC lowering change
//!   that splits blocks differently) shows up as a parity break or a timing
//!   skew.
//!
//! Writes `BENCH_frontends.json` in `--smoke` mode (uploaded by CI next to
//! the other bench artifacts).

#![forbid(unsafe_code)]

use std::time::Instant;

use clara_bench::{average, emit_json_report, RunMode};
use clara_core::{AnalyzedProgram, Clara, ClaraConfig};
use clara_corpus::minic::{fibonacci_c, reverse_difference_c, special_number_c};
use clara_corpus::study::{fibonacci, reverse_difference, special_number};
use clara_corpus::{generate_dataset_for, DatasetConfig, Problem};
use clara_model::Fuel;
use serde::Serialize;

/// Per-frontend measurements for one problem of a pair.
#[derive(Serialize)]
struct LangSide {
    problem: String,
    lang: String,
    correct_pool: usize,
    clusters: usize,
    attempts: usize,
    repaired: usize,
    clustering_seconds: f64,
    avg_repair_seconds: f64,
    feedback_sample: Vec<String>,
}

/// One MiniPy/MiniC problem pair.
#[derive(Serialize)]
struct PairReport {
    same_signature: bool,
    same_traces: bool,
    minipy: LangSide,
    minic: LangSide,
}

#[derive(Serialize)]
struct FrontendsReport {
    corpus: String,
    pairs: Vec<PairReport>,
    /// True iff every pair's references lower to isomorphic models.
    all_parity: bool,
}

/// Lowers a problem's reference and executes it on the problem's inputs.
fn analyze_reference(problem: &Problem) -> AnalyzedProgram {
    AnalyzedProgram::from_text_in(
        problem.lang,
        problem.reference,
        problem.entry,
        &problem.inputs(),
        Fuel::default(),
    )
    .expect("reference solutions analyse")
}

fn run_side(problem: &Problem, config: DatasetConfig) -> LangSide {
    let dataset = generate_dataset_for(problem, config);
    let mut engine = Clara::new_in(problem.lang, problem.entry, problem.inputs(), ClaraConfig::default());
    let clustering_start = Instant::now();
    let mut usable = 0usize;
    for attempt in &dataset.correct {
        if engine.add_correct_solution(&attempt.source).is_ok() {
            usable += 1;
        }
    }
    let clustering_seconds = clustering_start.elapsed().as_secs_f64();

    let mut repaired = 0usize;
    let mut seconds = Vec::new();
    let mut feedback_sample = Vec::new();
    for attempt in &dataset.incorrect {
        let start = Instant::now();
        if let Ok(outcome) = engine.repair_source(&attempt.source) {
            if outcome.result.best.is_some() {
                repaired += 1;
                if feedback_sample.is_empty() {
                    feedback_sample = outcome.feedback.lines();
                }
            }
        }
        seconds.push(start.elapsed().as_secs_f64());
    }
    LangSide {
        problem: problem.name.to_owned(),
        lang: problem.lang.as_str().to_owned(),
        correct_pool: usable,
        clusters: engine.clusters().len(),
        attempts: dataset.incorrect.len(),
        repaired,
        clustering_seconds,
        avg_repair_seconds: average(seconds.into_iter()),
        feedback_sample,
    }
}

fn run_pair(py: &Problem, c: &Problem, config: DatasetConfig) -> PairReport {
    let py_ref = analyze_reference(py);
    let c_ref = analyze_reference(c);
    let same_signature = py_ref.program.same_control_flow(&c_ref.program);
    // Return values may legitimately differ (MiniC mains return 0, MiniPy
    // functions return None); the location sequence and the printed output
    // are the shared observables for all three pairs.
    let same_traces = py_ref.location_sequence() == c_ref.location_sequence()
        && py_ref.traces.iter().zip(&c_ref.traces).all(|(a, b)| a.output() == b.output());
    PairReport { same_signature, same_traces, minipy: run_side(py, config), minic: run_side(c, config) }
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let config = if mode.smoke {
        DatasetConfig { correct_count: 10, incorrect_count: 5, seed: 0xFACADE, ..DatasetConfig::default() }
    } else {
        DatasetConfig { correct_count: 40, incorrect_count: 20, seed: 0xFACADE, ..DatasetConfig::default() }
    };
    let pairs = vec![
        (fibonacci(), fibonacci_c()),
        (special_number(), special_number_c()),
        (reverse_difference(), reverse_difference_c()),
    ];

    let mut report = FrontendsReport {
        corpus: format!(
            "{} correct + {} incorrect per problem per frontend",
            config.correct_count, config.incorrect_count
        ),
        pairs: Vec::new(),
        all_parity: true,
    };
    println!("Frontend parity: one program model, two source languages");
    for (py, c) in &pairs {
        let pair = run_pair(py, c, config);
        println!(
            "  {} / {}: signature parity {}, trace parity {} — minipy {}/{} repaired ({:.1} ms avg), minic {}/{} repaired ({:.1} ms avg)",
            py.name,
            c.name,
            pair.same_signature,
            pair.same_traces,
            pair.minipy.repaired,
            pair.minipy.attempts,
            pair.minipy.avg_repair_seconds * 1e3,
            pair.minic.repaired,
            pair.minic.attempts,
            pair.minic.avg_repair_seconds * 1e3,
        );
        report.all_parity &= pair.same_signature && pair.same_traces;
        report.pairs.push(pair);
    }
    // Sanity: a sample of MiniC feedback must be C-flavoured when present.
    for pair in &report.pairs {
        for line in &pair.minic.feedback_sample {
            assert!(!line.contains(" and "), "MiniC feedback leaked Python syntax: {line}");
        }
    }
    assert!(report.all_parity, "reference pairs must lower to isomorphic models");

    emit_json_report("frontends", mode, &report);
}
