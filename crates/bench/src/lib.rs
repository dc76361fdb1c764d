//! # clara-bench — reproduction harness for the paper's evaluation
//!
//! This crate regenerates every table and figure of §6 of the paper on the
//! synthetic corpus (`clara-corpus`):
//!
//! * `table1` — the MOOC evaluation and AutoGrader comparison (Table 1),
//! * `fig6` — the histogram of relative repair sizes (Fig. 6),
//! * `fig7` — repair-size comparison against AutoGrader (Fig. 7a/7b),
//! * `table2` — the user-study performance columns (Table 2),
//! * `quality` — the automated stand-in for the manual repair-quality
//!   inspection of §6.2 (3).
//!
//! The binaries print the same rows/series the paper reports and also write
//! machine-readable JSON next to their textual output. Absolute numbers are
//! not expected to match the paper (the corpus is synthetic and hardware
//! differs); the *shape* — who wins, by roughly what factor, where the mass
//! of each distribution lies — is the reproduction target. See
//! `EXPERIMENTS.md` for the recorded comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::time::{Duration, Instant};

use serde::Serialize;

use clara_autograder::{AutoGrader, AutoGraderConfig, ErrorModel};
use clara_core::{frontend, AnalyzedProgram, Clara, ClaraConfig, Feedback, RepairFailure};
use clara_corpus::{generate_dataset, AttemptKind, Dataset, DatasetConfig, Problem};
use clara_lang::parse_program;

/// Experiment scale: the synthetic corpus sizes are the paper's submission
/// counts multiplied by this factor (clamped to sane minima so that every
/// problem still has a meaningful corpus).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to the paper's per-problem counts.
    pub factor: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { factor: 0.02 }
    }
}

impl Scale {
    /// Reads the scale from the `CLARA_SCALE` environment variable, falling
    /// back to the default (2% of the paper's corpus sizes).
    pub fn from_env() -> Self {
        match std::env::var("CLARA_SCALE").ok().and_then(|s| s.parse::<f64>().ok()) {
            Some(factor) if factor > 0.0 => Scale { factor },
            _ => Scale::default(),
        }
    }

    /// Scales a paper count, keeping at least `min`.
    pub fn apply(&self, paper_count: usize, min: usize) -> usize {
        ((paper_count as f64 * self.factor).round() as usize).max(min)
    }
}

/// Invocation mode of the reproduction binaries.
///
/// Every binary accepts `--smoke` (or `CLARA_SMOKE=1` in the environment):
/// a fast sanity path that runs the first problem of the family on a tiny
/// corpus, finishes in seconds, and mirrors the JSON report to stdout and a
/// `BENCH_<name>.json` file in the working directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMode {
    /// Whether the tiny smoke subset was requested.
    pub smoke: bool,
    /// Whether the fault-injection chaos scenario was requested
    /// (`--chaos` / `CLARA_CHAOS`; honoured by `serve_throughput`).
    pub chaos: bool,
}

impl RunMode {
    /// Reads `--smoke` from the command line or `CLARA_SMOKE` from the
    /// environment (any value except empty/`0` enables it); likewise
    /// `--chaos` / `CLARA_CHAOS` for the fault-injection scenario.
    pub fn from_env_and_args() -> Self {
        let flag = |arg: &str, var: &str| {
            std::env::args().any(|a| a == arg) || std::env::var(var).is_ok_and(|v| !v.is_empty() && v != "0")
        };
        RunMode { smoke: flag("--smoke", "CLARA_SMOKE"), chaos: flag("--chaos", "CLARA_CHAOS") }
    }

    /// The corpus scale for this mode (smoke keeps the default).
    pub fn scale(self) -> Scale {
        if self.smoke {
            Scale::default()
        } else {
            Scale::from_env()
        }
    }

    /// Restricts a problem list to the smoke subset (its first problem).
    pub fn problems(self, all: Vec<Problem>) -> Vec<Problem> {
        if self.smoke {
            all.into_iter().take(1).collect()
        } else {
            all
        }
    }

    /// Human-readable description of the corpus this mode builds, for report
    /// headers (the scale factor is not used in smoke mode, so printing it
    /// there would be misleading).
    pub fn corpus_label(self, scale: Scale) -> String {
        if self.smoke {
            "smoke subset: first problem, 10 correct + 5 incorrect".to_owned()
        } else {
            format!("corpus scale factor {}", scale.factor)
        }
    }

    /// Builds the dataset for `problem` under this mode: a tiny fixed-size
    /// corpus in smoke mode, the paper-derived scaled corpus otherwise.
    pub fn dataset(self, problem: &Problem, scale: Scale, seed: u64) -> Dataset {
        if self.smoke {
            generate_dataset(
                problem,
                DatasetConfig { correct_count: 10, incorrect_count: 5, seed, ..DatasetConfig::default() },
            )
        } else {
            build_dataset(problem, scale, seed)
        }
    }
}

/// The paper's per-problem submission counts (Table 1 / Table 2), used to
/// derive the synthetic corpus sizes.
pub fn paper_counts(problem: &str) -> (usize, usize) {
    match problem {
        "derivatives" => (1472, 481),
        "oddTuples" => (9001, 3584),
        "polynomials" => (2500, 228),
        "fibonacci" => (596, 572),
        "special_number" => (417, 121),
        "reverse_difference" => (388, 103),
        "factorial_interval" => (435, 234),
        "trapezoid" => (322, 143),
        "rhombus" => (302, 525),
        _ => (300, 100),
    }
}

/// Builds the synthetic dataset for a problem at the given scale.
pub fn build_dataset(problem: &Problem, scale: Scale, seed: u64) -> Dataset {
    let (paper_correct, paper_incorrect) = paper_counts(problem.name);
    let config = DatasetConfig {
        correct_count: scale.apply(paper_correct, 25),
        incorrect_count: scale.apply(paper_incorrect, 12),
        seed,
        ..DatasetConfig::default()
    };
    generate_dataset(problem, config)
}

/// Why Clara produced no repair for an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FailureReason {
    /// The attempt does not parse or uses unsupported constructs.
    Unsupported,
    /// No correct solution with the same control flow exists.
    NoMatchingControlFlow,
    /// A cluster shares the control flow, but no consistent repair exists.
    Infeasible,
    /// The solver budget was exhausted.
    Budget,
}

/// Per-attempt result of running Clara.
#[derive(Debug, Clone, Serialize)]
pub struct ClaraAttemptResult {
    /// Attempt identifier within the dataset.
    pub id: usize,
    /// How the attempt was generated (seed/variant/mutant/empty/unsupported).
    pub kind: String,
    /// Number of injected faults.
    pub fault_count: usize,
    /// Whether a repair was produced.
    pub repaired: bool,
    /// Why no repair was produced (when `repaired` is false).
    pub failure: Option<FailureReason>,
    /// Total repair cost (tree edit distance).
    pub cost: Option<i64>,
    /// Relative repair size (cost / AST size), `None` if not repaired;
    /// `f64::INFINITY` for empty attempts.
    pub relative_size: Option<f64>,
    /// Number of modified expressions.
    pub modified_expressions: Option<usize>,
    /// Whether the repair used expressions from at least two different
    /// member solutions of the winning cluster.
    pub verified: Option<bool>,
    /// Whether the feedback shown would be concrete repair feedback (as
    /// opposed to the generic strategy fallback).
    pub repair_feedback: bool,
    /// Wall-clock repair time.
    pub seconds: f64,
}

/// Per-attempt result of running the AutoGrader baseline.
#[derive(Debug, Clone, Serialize)]
pub struct AutoGraderAttemptResult {
    /// Attempt identifier within the dataset.
    pub id: usize,
    /// Whether a repair was found.
    pub repaired: bool,
    /// Number of modified expressions.
    pub modified_expressions: Option<usize>,
    /// Wall-clock repair time.
    pub seconds: f64,
}

/// The result of running Clara over a whole dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ClaraRun {
    /// Problem name.
    pub problem: String,
    /// Number of correct solutions ingested.
    pub correct: usize,
    /// Number of correct solutions that could be analysed (parsed + lowered).
    pub usable_correct: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Median lines of code over all attempts.
    pub median_loc: usize,
    /// Median AST size over all attempts.
    pub median_ast: usize,
    /// Per-attempt repair results.
    pub attempts: Vec<ClaraAttemptResult>,
    /// Time spent clustering.
    pub clustering_seconds: f64,
}

impl ClaraRun {
    /// Number of repaired attempts.
    pub fn repaired_count(&self) -> usize {
        self.attempts.iter().filter(|a| a.repaired).count()
    }

    /// Fraction of repaired attempts.
    pub fn repaired_rate(&self) -> f64 {
        if self.attempts.is_empty() {
            0.0
        } else {
            self.repaired_count() as f64 / self.attempts.len() as f64
        }
    }

    /// Average repair time in seconds.
    pub fn average_seconds(&self) -> f64 {
        average(self.attempts.iter().map(|a| a.seconds))
    }

    /// Median repair time in seconds.
    pub fn median_seconds(&self) -> f64 {
        median_f64(self.attempts.iter().map(|a| a.seconds).collect())
    }
}

/// Runs Clara (clustering + repair) over a dataset.
pub fn run_clara(dataset: &Dataset) -> ClaraRun {
    let problem = &dataset.problem;
    let mut clara = Clara::new(problem.entry, problem.inputs(), ClaraConfig::default());

    let clustering_start = Instant::now();
    let mut usable_correct = 0usize;
    for attempt in &dataset.correct {
        if clara.add_correct_solution(&attempt.source).is_ok() {
            usable_correct += 1;
        }
    }
    let clustering_seconds = clustering_start.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(dataset.incorrect.len());
    for attempt in &dataset.incorrect {
        let start = Instant::now();
        let parsed = frontend(clara.lang()).parse(&attempt.source);
        let (repaired, failure, cost, relative, modified, verified, repair_feedback) = match parsed {
            Err(_) => (false, Some(FailureReason::Unsupported), None, None, None, None, false),
            Ok(parsed) => {
                let ast_size = if matches!(attempt.kind, AttemptKind::Empty) { 0 } else { parsed.ast_size() };
                match clara.repair_parsed(parsed.as_ref()) {
                    Err(_) => (false, Some(FailureReason::Unsupported), None, None, None, None, false),
                    Ok(outcome) => match outcome.result.best {
                        Some(repair) => {
                            let relative = repair.relative_size(ast_size);
                            let feedback = matches!(outcome.feedback, Feedback::Suggestions(_));
                            (
                                true,
                                None,
                                Some(repair.total_cost),
                                Some(relative),
                                Some(repair.modified_expression_count()),
                                repair.verified,
                                feedback,
                            )
                        }
                        None => {
                            let reason = match outcome.result.failure {
                                Some(RepairFailure::NoMatchingControlFlow) => {
                                    FailureReason::NoMatchingControlFlow
                                }
                                Some(RepairFailure::NoFeasibleRepair) => FailureReason::Infeasible,
                                _ => FailureReason::Budget,
                            };
                            (false, Some(reason), None, None, None, None, false)
                        }
                    },
                }
            }
        };
        results.push(ClaraAttemptResult {
            id: attempt.id,
            kind: format!("{:?}", attempt.kind),
            fault_count: attempt.fault_count,
            repaired,
            failure,
            cost,
            relative_size: relative,
            modified_expressions: modified,
            verified,
            repair_feedback,
            seconds: start.elapsed().as_secs_f64(),
        });
    }

    let (median_loc, median_ast) = corpus_size_stats(dataset);
    ClaraRun {
        problem: problem.name.to_owned(),
        correct: dataset.correct.len(),
        usable_correct,
        clusters: clara.clusters().len(),
        median_loc,
        median_ast,
        attempts: results,
        clustering_seconds,
    }
}

/// Runs the AutoGrader baseline over the incorrect attempts of a dataset.
pub fn run_autograder(
    dataset: &Dataset,
    model: ErrorModel,
    max_edits: usize,
) -> Vec<AutoGraderAttemptResult> {
    let grader = AutoGrader::new(AutoGraderConfig { model, max_edits, ..AutoGraderConfig::default() });
    dataset
        .incorrect
        .iter()
        .map(|attempt| {
            let start = Instant::now();
            let result = parse_program(&attempt.source)
                .ok()
                .and_then(|parsed| grader.repair(&parsed, &dataset.problem.spec));
            AutoGraderAttemptResult {
                id: attempt.id,
                repaired: result.is_some(),
                modified_expressions: result.as_ref().map(|r| r.modified_expression_count()),
                seconds: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

fn corpus_size_stats(dataset: &Dataset) -> (usize, usize) {
    let mut locs = Vec::new();
    let mut asts = Vec::new();
    for attempt in dataset.correct.iter().chain(&dataset.incorrect) {
        locs.push(attempt.source.lines().filter(|l| !l.trim().is_empty()).count());
        if let Ok(parsed) = parse_program(&attempt.source) {
            asts.push(parsed.ast_size());
        }
    }
    (median_usize(locs), median_usize(asts))
}

/// Median of a list of `usize` values (0 for an empty list).
pub fn median_usize(mut values: Vec<usize>) -> usize {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    values[values.len() / 2]
}

/// Median of a list of `f64` values (0 for an empty list).
pub fn median_f64(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values[values.len() / 2]
}

/// Average of an iterator of `f64` values (0 for an empty iterator).
pub fn average(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

/// Formats a `Duration`-like number of seconds the way the paper does
/// ("3.2s (2.7s)").
pub fn format_seconds(avg: f64, median: f64) -> String {
    format!("{avg:.2}s ({median:.2}s)")
}

/// Pre-analyses a program for micro-benchmarks.
pub fn analyze_for_bench(problem: &Problem, source: &str) -> AnalyzedProgram {
    AnalyzedProgram::from_text(source, problem.entry, &problem.inputs(), clara_model::Fuel::default())
        .expect("benchmark program must analyse")
}

/// Writes a JSON report next to the textual output of a binary.
pub fn write_json_report<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("target").join("experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(json) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, json);
            eprintln!("(json report written to {})", path.display());
        }
    }
}

/// Writes the JSON report like [`write_json_report`]; in smoke mode the
/// report is also printed to stdout and written to `BENCH_<name>.json` in the
/// working directory (the machine-readable smoke contract).
pub fn emit_json_report<T: Serialize>(name: &str, mode: RunMode, value: &T) {
    write_json_report(name, value);
    if mode.smoke {
        if let Ok(json) = serde_json::to_string_pretty(value) {
            println!("{json}");
            let path = format!("BENCH_{name}.json");
            match std::fs::write(&path, &json) {
                Ok(()) => eprintln!("(smoke json written to {path})"),
                Err(e) => eprintln!("(could not write {path}: {e})"),
            }
        }
    }
}

/// Returns elapsed seconds of a closure.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_corpus::mooc::derivatives;

    #[test]
    fn scale_is_clamped_to_minima() {
        let scale = Scale { factor: 0.001 };
        assert_eq!(scale.apply(1472, 25), 25);
        let scale = Scale { factor: 0.1 };
        assert_eq!(scale.apply(1000, 25), 100);
    }

    #[test]
    fn clara_run_on_a_tiny_dataset() {
        let problem = derivatives();
        let dataset = generate_dataset(
            &problem,
            DatasetConfig { correct_count: 12, incorrect_count: 4, seed: 1, ..DatasetConfig::default() },
        );
        let run = run_clara(&dataset);
        assert_eq!(run.attempts.len(), 4);
        assert!(run.clusters >= 1);
        assert!(run.repaired_rate() > 0.5, "repair rate was {}", run.repaired_rate());
    }

    #[test]
    fn autograder_run_on_a_tiny_dataset() {
        let problem = derivatives();
        let dataset = generate_dataset(
            &problem,
            DatasetConfig { correct_count: 8, incorrect_count: 4, seed: 2, ..DatasetConfig::default() },
        );
        let results = run_autograder(&dataset, ErrorModel::Weak, 2);
        assert_eq!(results.len(), 4);
        // The baseline repairs strictly fewer attempts than Clara on the same
        // data (the central claim of Table 1).
        let clara = run_clara(&dataset);
        assert!(results.iter().filter(|r| r.repaired).count() <= clara.repaired_count());
    }

    #[test]
    fn repair_rates_are_reproducible_across_runs() {
        // The corpus RNG is fully seed-plumbed (DatasetConfig::seed), so two
        // identical runs must agree repair-by-repair, not just in aggregate.
        let problem = derivatives();
        let config =
            DatasetConfig { correct_count: 10, incorrect_count: 5, seed: 99, ..DatasetConfig::default() };
        let a = run_clara(&generate_dataset(&problem, config));
        let b = run_clara(&generate_dataset(&problem, config));
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.repaired_count(), b.repaired_count());
        let outcomes = |run: &ClaraRun| {
            run.attempts.iter().map(|x| (x.repaired, x.cost, x.modified_expressions)).collect::<Vec<_>>()
        };
        assert_eq!(outcomes(&a), outcomes(&b));
    }

    #[test]
    fn medians_and_averages() {
        assert_eq!(median_usize(vec![3, 1, 2]), 2);
        assert_eq!(median_usize(vec![]), 0);
        assert!((median_f64(vec![1.0, 9.0, 5.0]) - 5.0).abs() < 1e-9);
        assert!((average([1.0, 2.0, 3.0].into_iter()) - 2.0).abs() < 1e-9);
    }
}
