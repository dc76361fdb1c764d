//! Regenerates **Table 1** of the paper: the MOOC evaluation with the
//! AutoGrader comparison.
//!
//! For each of the three MITx problems (`derivatives`, `oddTuples`,
//! `polynomials`) the binary builds a synthetic corpus (scaled by
//! `CLARA_SCALE`, default 2% of the paper's submission counts), clusters the
//! correct pool, repairs every incorrect attempt with both Clara and the
//! AutoGrader baseline, and prints the same columns the paper reports.

#![forbid(unsafe_code)]

use clara_autograder::ErrorModel;
use clara_bench::{emit_json_report, format_seconds, run_autograder, run_clara, RunMode};
use clara_corpus::mooc::all_mooc_problems;
use serde::Serialize;

#[derive(Serialize)]
struct Table1Row {
    problem: String,
    median_loc: usize,
    median_ast: usize,
    correct: usize,
    clusters: usize,
    cluster_percent: f64,
    incorrect: usize,
    clara_repaired: usize,
    clara_repaired_percent: f64,
    autograder_repaired: usize,
    autograder_repaired_percent: f64,
    clara_avg_s: f64,
    clara_median_s: f64,
    autograder_avg_s: f64,
    autograder_median_s: f64,
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let scale = mode.scale();
    println!("Table 1 — MOOC evaluation with AutoGrader comparison ({}):", mode.corpus_label(scale));
    println!(
        "{:<14} {:>4} {:>4} {:>9} {:>16} {:>11} {:>22} {:>22} {:>16} {:>16}",
        "problem",
        "LOC",
        "AST",
        "#correct",
        "#clusters (%)",
        "#incorrect",
        "#repaired Clara (%)",
        "#repaired AutoGr (%)",
        "Clara avg (med)",
        "AutoGr avg (med)"
    );

    let mut rows = Vec::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut all_clara_times = Vec::new();
    let mut all_ag_times = Vec::new();

    for problem in mode.problems(all_mooc_problems()) {
        let dataset = mode.dataset(&problem, scale, 0xC1A7A);
        let clara_run = run_clara(&dataset);
        let autograder_results = run_autograder(&dataset, ErrorModel::Weak, 2);

        let incorrect = clara_run.attempts.len();
        let clara_repaired = clara_run.repaired_count();
        let ag_repaired = autograder_results.iter().filter(|r| r.repaired).count();
        let cluster_percent = 100.0 * clara_run.clusters as f64 / clara_run.correct.max(1) as f64;
        let clara_pct = 100.0 * clara_repaired as f64 / incorrect.max(1) as f64;
        let ag_pct = 100.0 * ag_repaired as f64 / incorrect.max(1) as f64;
        let ag_avg = clara_bench::average(autograder_results.iter().map(|r| r.seconds));
        let ag_median = clara_bench::median_f64(autograder_results.iter().map(|r| r.seconds).collect());

        println!(
            "{:<14} {:>4} {:>4} {:>9} {:>10} ({:>4.1}%) {:>11} {:>14} ({:>5.2}%) {:>14} ({:>5.2}%) {:>16} {:>16}",
            clara_run.problem,
            clara_run.median_loc,
            clara_run.median_ast,
            clara_run.correct,
            clara_run.clusters,
            cluster_percent,
            incorrect,
            clara_repaired,
            clara_pct,
            ag_repaired,
            ag_pct,
            format_seconds(clara_run.average_seconds(), clara_run.median_seconds()),
            format_seconds(ag_avg, ag_median),
        );

        totals.0 += clara_run.correct;
        totals.1 += clara_run.clusters;
        totals.2 += incorrect;
        totals.3 += clara_repaired;
        totals.4 += ag_repaired;
        all_clara_times.extend(clara_run.attempts.iter().map(|a| a.seconds));
        all_ag_times.extend(autograder_results.iter().map(|r| r.seconds));

        rows.push(Table1Row {
            problem: clara_run.problem.clone(),
            median_loc: clara_run.median_loc,
            median_ast: clara_run.median_ast,
            correct: clara_run.correct,
            clusters: clara_run.clusters,
            cluster_percent,
            incorrect,
            clara_repaired,
            clara_repaired_percent: clara_pct,
            autograder_repaired: ag_repaired,
            autograder_repaired_percent: ag_pct,
            clara_avg_s: clara_run.average_seconds(),
            clara_median_s: clara_run.median_seconds(),
            autograder_avg_s: ag_avg,
            autograder_median_s: ag_median,
        });
    }

    println!(
        "{:<14} {:>4} {:>4} {:>9} {:>10} ({:>4.1}%) {:>11} {:>14} ({:>5.2}%) {:>14} ({:>5.2}%) {:>16} {:>16}",
        "Total",
        "-",
        "-",
        totals.0,
        totals.1,
        100.0 * totals.1 as f64 / totals.0.max(1) as f64,
        totals.2,
        totals.3,
        100.0 * totals.3 as f64 / totals.2.max(1) as f64,
        totals.4,
        100.0 * totals.4 as f64 / totals.2.max(1) as f64,
        format_seconds(
            clara_bench::average(all_clara_times.iter().copied()),
            clara_bench::median_f64(all_clara_times.clone())
        ),
        format_seconds(
            clara_bench::average(all_ag_times.iter().copied()),
            clara_bench::median_f64(all_ag_times.clone())
        ),
    );
    println!();
    println!("Paper (Table 1, full corpus): Clara repairs 97.44% of 4,293 attempts in 3.2s (2.7s) avg;");
    println!("AutoGrader repairs 19.29% in 19.7s (6.3s).  The reproduction target is the shape:");
    println!("Clara repairs nearly everything, AutoGrader a small fraction, Clara is faster per attempt.");

    emit_json_report("table1", mode, &rows);
}
