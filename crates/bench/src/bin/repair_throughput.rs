//! End-to-end repair throughput: attempts repaired per second on the
//! synthetic corpus.
//!
//! This is the trajectory benchmark for the matching/repair hot path (the
//! cost the paper's §6.2 scalability claim rests on): it clusters the
//! correct pool once per problem, repairs every incorrect attempt, and
//! reports attempts-repaired-per-second overall and per problem. In
//! `--smoke` mode the JSON report (with a top-level `repairs_per_sec`
//! field) is mirrored to stdout and `BENCH_throughput.json`.

#![forbid(unsafe_code)]

use clara_bench::{emit_json_report, run_clara, RunMode};
use clara_corpus::mooc::all_mooc_problems;
use serde::Serialize;

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
    problems: Vec<ProblemThroughput>,
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

    let report = ThroughputReport {
        corpus: mode.corpus_label(scale),
        attempts,
        repaired,
        clustering_seconds,
        repair_seconds,
        repairs_per_sec: per_sec(repaired, repair_seconds),
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
    println!();
    println!("The paper reports ~3s median repair time per attempt (§6.2); this bench tracks");
    println!("the reproduction's end-to-end throughput trajectory across PRs.");

    emit_json_report("throughput", mode, &report);
}
