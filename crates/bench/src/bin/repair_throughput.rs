//! End-to-end repair throughput: attempts repaired per second on the
//! synthetic corpus.
//!
//! This is the trajectory benchmark for the matching/repair hot path (the
//! cost the paper's §6.2 scalability claim rests on): it clusters the
//! correct pool once per problem, repairs every incorrect attempt, and
//! reports attempts-repaired-per-second overall and per problem. In
//! `--smoke` mode the JSON report (with a top-level `repairs_per_sec`
//! field) is mirrored to stdout and `BENCH_throughput.json`.
//!
//! The report also prices one step of trace analysis against one step of
//! the MiniPy interpreter on the same fixed diverging attempt
//! ([`DIVERGING_ATTEMPT`]): both run out of fuel, so the figures are pure
//! per-step cost. Their ratio does not depend on how fast the host is; CI
//! caps it (`ci/throughput_baseline.json`).
//!
//! The same probe on [`APPENDING_ATTEMPT`], whose loop appends to a list
//! and never advances, prices a growing list: its analysis and its grading
//! (the interpreter) per step, each divided by the interpreter's cost per
//! step on the scalar attempt. A list that is copied on every append makes
//! both quadratic in the loop length; CI caps both ratios. It also times
//! one whole `Clara::repair_source` of that attempt against the clusters of
//! the default `derivatives` dataset, in the same unit: an incorrect
//! attempt analysed to full fuel, thousands of steps past anything a stored
//! solution can match, trips that cap.
//!
//! It prices the ILP the same way: the ILP-stage time of one repair of the
//! fixed `rhombus` attempt [`RHOMBUS_ATTEMPT`], whose ILP is the largest of
//! the bundled corpus, divided by the interpreter's cost per step. CI caps
//! that ratio too.
//!
//! And it prices the tree edit distance, the repair cost of every candidate
//! local repair: the mean time of one distance over a fixed pair set (each
//! `rhombus` attempt expression against every cluster expression of its
//! location, the way the repair loop compares them), divided by the
//! interpreter's cost per step. CI caps that ratio as well.

#![forbid(unsafe_code)]

use std::time::Instant;

use clara_bench::{emit_json_report, run_clara, RunMode};
use clara_core::timing::{self, Stage};
use clara_core::{AnalyzedProgram, Clara, ClaraConfig};
use clara_corpus::mooc::{all_mooc_problems, derivatives};
use clara_corpus::study::rhombus;
use clara_corpus::{generate_dataset_for, DatasetConfig};
use clara_lang::{parse_program, run_function, Expr, InterpError, Limits};
use clara_model::{lower_entry, Fuel};
use clara_ted::PreparedTree;
use serde::Serialize;

/// A `derivatives` attempt whose loop never advances: every input with two
/// or more coefficients runs out of fuel on scalar updates only.
const DIVERGING_ATTEMPT: &str = "\
def computeDeriv(poly):
    result = []
    e = 1
    while e < len(poly):
        d = float(poly[e] * e)
    return result
";

/// [`DIVERGING_ATTEMPT`] appending to `result` in its loop: every input with
/// two or more coefficients runs out of fuel with a list thousands of
/// elements long.
const APPENDING_ATTEMPT: &str = "\
def computeDeriv(poly):
    result = []
    e = 1
    while e < len(poly):
        result.append(float(poly[e] * e))
    return result
";

/// A `rhombus` attempt that prints `mid` instead of the row. Against the
/// clusters of the default `rhombus` dataset its repair costs 1, and its ILP
/// has about 1,720 variables and 4,850 constraints.
const RHOMBUS_ATTEMPT: &str = "\
def rhombus(h):
    mid = (h + 1) // 2
    for r in range(1, h + 1):
        d = mid - r
        if d < 0:
            d = -d
        line = ' ' * d
        for c in range(d + 1, h - d + 1):
            line = line + str(c % 10)
        print(mid)
";

/// Timing repetitions of the step-cost, ILP and edit-distance probes; the
/// fastest one is reported.
const STEP_COST_REPS: usize = 5;

/// Passes over the edit-distance pair set in one timing repetition (one
/// pass takes well under a millisecond).
const TED_PASSES: usize = 20;

#[derive(Serialize)]
struct ProblemThroughput {
    problem: String,
    correct: usize,
    clusters: usize,
    attempts: usize,
    repaired: usize,
    clustering_seconds: f64,
    repair_seconds: f64,
    repairs_per_sec: f64,
}

#[derive(Serialize)]
struct ThroughputReport {
    corpus: String,
    attempts: usize,
    repaired: usize,
    clustering_seconds: f64,
    repair_seconds: f64,
    /// Attempts repaired per second of repair time, across all problems.
    repairs_per_sec: f64,
    /// Nanoseconds per model step of `AnalyzedProgram::from_program` (trace
    /// execution plus projections) on [`DIVERGING_ATTEMPT`].
    analysis_ns_per_step: f64,
    /// Nanoseconds per interpreter step on the same attempt and inputs.
    interpreter_ns_per_step: f64,
    /// `analysis_ns_per_step / interpreter_ns_per_step`.
    analysis_interpreter_ratio: f64,
    /// Nanoseconds per model step of `AnalyzedProgram::from_program` on
    /// [`APPENDING_ATTEMPT`].
    append_analysis_ns_per_step: f64,
    /// Nanoseconds per interpreter step (grading) on [`APPENDING_ATTEMPT`].
    append_grade_ns_per_step: f64,
    /// `append_analysis_ns_per_step / interpreter_ns_per_step`.
    append_analysis_interpreter_ratio: f64,
    /// `append_grade_ns_per_step / interpreter_ns_per_step`.
    append_grade_interpreter_ratio: f64,
    /// Nanoseconds of one `Clara::repair_source` of [`APPENDING_ATTEMPT`]
    /// against the default `derivatives` dataset's clusters.
    append_repair_ns: f64,
    /// `append_repair_ns / interpreter_ns_per_step`.
    append_repair_interpreter_ratio: f64,
    /// Nanoseconds of the ILP stage (encoding and solving, every cluster)
    /// in one repair of [`RHOMBUS_ATTEMPT`].
    rhombus_ilp_ns: f64,
    /// `rhombus_ilp_ns / interpreter_ns_per_step`.
    ilp_interpreter_ratio: f64,
    /// Number of expression pairs [`rhombus_ted_ns`] times.
    ted_pairs: usize,
    /// Nanoseconds per tree edit distance over those pairs.
    ted_ns_per_distance: f64,
    /// `ted_ns_per_distance / interpreter_ns_per_step`.
    ted_interpreter_ratio: f64,
    problems: Vec<ProblemThroughput>,
}

/// The fastest of [`STEP_COST_REPS`] runs of `run`, in nanoseconds per step
/// (`run` returns its step count).
fn ns_per_step(mut run: impl FnMut() -> u64) -> f64 {
    (0..STEP_COST_REPS)
        .map(|_| {
            let start = Instant::now();
            let steps = run();
            start.elapsed().as_nanos() as f64 / steps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(analysis ns/step, interpreter ns/step)` on `attempt`, a `derivatives`
/// attempt that runs out of fuel.
fn step_costs(attempt: &str) -> (f64, f64) {
    let problem = derivatives();
    let inputs = problem.inputs();
    let source = parse_program(attempt).expect("the diverging attempt parses");
    let program = lower_entry(&source, problem.entry).expect("the diverging attempt lowers");
    let analysis = ns_per_step(|| {
        let analyzed = AnalyzedProgram::from_program(program.clone(), &inputs, Fuel::default());
        analyzed.traces.iter().map(|t| t.steps.len() as u64).sum()
    });
    let limits = Limits { max_steps: problem.spec.limits.max_steps };
    let interpreter = ns_per_step(|| {
        let steps = inputs.iter().map(|args| match run_function(&source, problem.entry, args, limits) {
            Ok(execution) => execution.steps,
            Err(InterpError::OutOfFuel) => limits.max_steps,
            Err(e) => panic!("the diverging attempt must only run out of fuel: {e}"),
        });
        steps.sum()
    });
    (analysis, interpreter)
}

/// Nanoseconds of one repair of [`APPENDING_ATTEMPT`] against the default
/// `derivatives` dataset's clusters, fastest of [`STEP_COST_REPS`].
fn append_repair_ns() -> f64 {
    let problem = derivatives();
    let mut engine = Clara::new_in(problem.lang, problem.entry, problem.inputs(), ClaraConfig::default());
    for solution in generate_dataset_for(&problem, DatasetConfig::default()).correct {
        engine.add_correct_solution(&solution.source).expect("correct derivatives solutions analyse");
    }
    (0..STEP_COST_REPS)
        .map(|_| {
            let start = Instant::now();
            let outcome = engine.repair_source(APPENDING_ATTEMPT).expect("the appending attempt analyses");
            let nanos = start.elapsed().as_nanos() as f64;
            std::hint::black_box(outcome);
            nanos
        })
        .fold(f64::INFINITY, f64::min)
}

/// A sequential engine holding the default `rhombus` dataset's correct
/// solutions, the clusters [`RHOMBUS_ATTEMPT`] is repaired against.
fn rhombus_engine() -> Clara {
    let problem = rhombus();
    let mut config = ClaraConfig::default();
    config.repair.parallel = false;
    let mut engine = Clara::new_in(problem.lang, problem.entry, problem.inputs(), config);
    for solution in generate_dataset_for(&problem, DatasetConfig::default()).correct {
        engine.add_correct_solution(&solution.source).expect("correct rhombus solutions analyse");
    }
    engine
}

/// Nanoseconds of [`Stage::Ilp`] in one sequential repair of
/// [`RHOMBUS_ATTEMPT`] against `engine`'s clusters, fastest of
/// [`STEP_COST_REPS`].
fn rhombus_ilp_ns(engine: &Clara) -> f64 {
    (0..STEP_COST_REPS)
        .map(|_| {
            let (outcome, spans) = timing::collect(|| engine.repair_source(RHOMBUS_ATTEMPT));
            let cost = outcome.expect("the rhombus attempt analyses").result.best.map(|r| r.total_cost);
            assert_eq!(cost, Some(1), "the rhombus attempt must stay a cost-1 repair");
            spans.iter().filter(|span| span.stage == Stage::Ilp).map(|span| span.nanos as f64).sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(pairs, ns per distance)` of the tree edit distance between every
/// update `U(ℓ, v₂)` of [`RHOMBUS_ATTEMPT`] and every cluster expression at
/// `ℓ` of each cluster with its control flow, fastest of
/// [`STEP_COST_REPS`] runs of [`TED_PASSES`] passes. Each attempt
/// expression is prepared once per cluster and compared with each of that
/// cluster's expressions.
fn rhombus_ted_ns(engine: &Clara) -> (usize, f64) {
    let source = parse_program(RHOMBUS_ATTEMPT).expect("the rhombus attempt parses");
    let attempt = lower_entry(&source, rhombus().entry).expect("the rhombus attempt lowers");
    let mut pairs: Vec<(Expr, Vec<&Expr>)> = Vec::new();
    for cluster in engine.clusters() {
        let rep = &cluster.representative.program;
        if !rep.same_control_flow(&attempt) {
            continue;
        }
        for loc in attempt.locs() {
            let exprs: Vec<&Expr> = rep.vars.iter().flat_map(|v1| cluster.expressions(loc, v1)).collect();
            pairs.extend(attempt.vars.iter().map(|v2| (attempt.update(loc, v2), exprs.clone())));
        }
    }
    let count: usize = pairs.iter().map(|(_, exprs)| exprs.len()).sum();
    assert!(count > 0, "the rhombus attempt must share its control flow with a cluster");
    let ns = (0..STEP_COST_REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..TED_PASSES {
                for (e_impl, exprs) in &pairs {
                    let prepared = PreparedTree::from_expr(e_impl);
                    std::hint::black_box(exprs.iter().map(|e| prepared.distance_to(e)).sum::<usize>());
                }
            }
            start.elapsed().as_nanos() as f64 / (count * TED_PASSES) as f64
        })
        .fold(f64::INFINITY, f64::min);
    (count, ns)
}

fn per_sec(count: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let scale = mode.scale();
    println!("Repair throughput — attempts repaired per second ({}):", mode.corpus_label(scale));
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>12} {:>12} {:>14}",
        "problem", "#correct", "clusters", "attempts", "repaired", "cluster s", "repair s", "repairs/s"
    );

    let mut problems = Vec::new();
    let (mut attempts, mut repaired) = (0usize, 0usize);
    let (mut clustering_seconds, mut repair_seconds) = (0f64, 0f64);

    for problem in mode.problems(all_mooc_problems()) {
        let dataset = mode.dataset(&problem, scale, 0x7432);
        let run = run_clara(&dataset);
        let row = ProblemThroughput {
            problem: run.problem.clone(),
            correct: run.correct,
            clusters: run.clusters,
            attempts: run.attempts.len(),
            repaired: run.repaired_count(),
            clustering_seconds: run.clustering_seconds,
            repair_seconds: run.attempts.iter().map(|a| a.seconds).sum(),
            repairs_per_sec: 0.0,
        };
        let row = ProblemThroughput { repairs_per_sec: per_sec(row.repaired, row.repair_seconds), ..row };
        println!(
            "{:<20} {:>9} {:>9} {:>9} {:>9} {:>12.3} {:>12.3} {:>14.1}",
            row.problem,
            row.correct,
            row.clusters,
            row.attempts,
            row.repaired,
            row.clustering_seconds,
            row.repair_seconds,
            row.repairs_per_sec,
        );
        attempts += row.attempts;
        repaired += row.repaired;
        clustering_seconds += row.clustering_seconds;
        repair_seconds += row.repair_seconds;
        problems.push(row);
    }

    let (analysis_ns_per_step, interpreter_ns_per_step) = step_costs(DIVERGING_ATTEMPT);
    let (append_analysis_ns_per_step, append_grade_ns_per_step) = step_costs(APPENDING_ATTEMPT);
    let append_repair_ns = append_repair_ns();
    let engine = rhombus_engine();
    let rhombus_ilp_ns = rhombus_ilp_ns(&engine);
    let (ted_pairs, ted_ns_per_distance) = rhombus_ted_ns(&engine);
    let report = ThroughputReport {
        corpus: mode.corpus_label(scale),
        attempts,
        repaired,
        clustering_seconds,
        repair_seconds,
        repairs_per_sec: per_sec(repaired, repair_seconds),
        analysis_ns_per_step,
        interpreter_ns_per_step,
        analysis_interpreter_ratio: analysis_ns_per_step / interpreter_ns_per_step,
        append_analysis_ns_per_step,
        append_grade_ns_per_step,
        append_analysis_interpreter_ratio: append_analysis_ns_per_step / interpreter_ns_per_step,
        append_grade_interpreter_ratio: append_grade_ns_per_step / interpreter_ns_per_step,
        append_repair_ns,
        append_repair_interpreter_ratio: append_repair_ns / interpreter_ns_per_step,
        rhombus_ilp_ns,
        ilp_interpreter_ratio: rhombus_ilp_ns / interpreter_ns_per_step,
        ted_pairs,
        ted_ns_per_distance,
        ted_interpreter_ratio: ted_ns_per_distance / interpreter_ns_per_step,
        problems,
    };
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>12.3} {:>12.3} {:>14.1}",
        "Total",
        "-",
        "-",
        report.attempts,
        report.repaired,
        report.clustering_seconds,
        report.repair_seconds,
        report.repairs_per_sec,
    );
    println!(
        "Per-step cost on a diverging attempt: analysis {:.0} ns, interpreter {:.0} ns (ratio {:.2})",
        report.analysis_ns_per_step, report.interpreter_ns_per_step, report.analysis_interpreter_ratio,
    );
    println!(
        "Per-step cost on an appending attempt: analysis {:.0} ns ({:.2} scalar interpreter steps), \
         grading {:.0} ns ({:.2})",
        report.append_analysis_ns_per_step,
        report.append_analysis_interpreter_ratio,
        report.append_grade_ns_per_step,
        report.append_grade_interpreter_ratio,
    );
    println!(
        "One repair of the appending attempt: {:.2} ms ({:.0} interpreter steps)",
        report.append_repair_ns / 1e6,
        report.append_repair_interpreter_ratio,
    );
    println!(
        "ILP stage of the fixed rhombus repair: {:.2} ms ({:.0} interpreter steps)",
        report.rhombus_ilp_ns / 1e6,
        report.ilp_interpreter_ratio,
    );
    println!(
        "Tree edit distance over {} rhombus expression pairs: {:.0} ns each ({:.2} interpreter steps)",
        report.ted_pairs, report.ted_ns_per_distance, report.ted_interpreter_ratio,
    );
    println!();
    println!("The paper reports ~3s median repair time per attempt (§6.2); this bench tracks");
    println!("the reproduction's end-to-end throughput trajectory across PRs.");

    emit_json_report("throughput", mode, &report);
}
