//! Retrieval scaling: matching cost against the size of the correct pool.
//!
//! The paper's pipeline scans every control-flow-compatible cluster per
//! repair, so matching cost grows linearly with the solution pool. The
//! candidate-retrieval index (structural n-grams + behaviour fingerprints)
//! shortlists a constant-size candidate set instead. This benchmark grows
//! one assignment's correct pool (60 → 1k → 10k solutions, generated as
//! verified still-correct variants by `clara_corpus`), repairs the same
//! wrong-answer mutants with and without the index, and reports candidates
//! examined, repair latency, repair-rate delta (must be zero — retrieval
//! never changes the verdict) and the index's resident size. It also times
//! the online write path at each pool size: a learn clones the engine and
//! inserts one held-out correct solution, as the feedback service does.
//!
//! `--smoke` restricts the pools to 60/1k and mirrors the JSON report to
//! `BENCH_retrieval.json`; the full run covers 10k and writes the same
//! file.

#![forbid(unsafe_code)]

use std::time::Instant;

use clara_bench::{emit_json_report, RunMode};
use clara_core::{frontend, repair_attempt, AnalyzedProgram, Clara, ClaraConfig};
use clara_corpus::{correct_pool, derive_mutants, mooc::derivatives, MutantBucket, MutationConfig};
use clara_model::frontend::ParsedSubmission;
use serde::Serialize;

#[derive(Serialize)]
struct PoolRow {
    pool: usize,
    usable: usize,
    clusters: usize,
    index_resident_bytes: usize,
    attempts: usize,
    /// Mean clusters examined per attempt, exhaustive scan.
    full_candidates_mean: f64,
    /// Mean clusters examined per attempt with the retrieval index.
    indexed_candidates_mean: f64,
    full_ms_per_attempt: f64,
    indexed_ms_per_attempt: f64,
    full_repaired: usize,
    indexed_repaired: usize,
    /// |indexed rate − full rate|; the fallback contract keeps this at 0.
    repair_rate_delta: f64,
    /// Attempts where the shortlist came back empty-handed and the scan
    /// widened back to the full candidate set.
    fallbacks: usize,
    /// Median over the held-out solutions of one learn: clone the engine,
    /// insert the solution, drop the successor.
    learn_ms_p50: f64,
}

#[derive(Serialize)]
struct RetrievalReport {
    problem: String,
    corpus: String,
    pools: Vec<PoolRow>,
    /// Indexed ms/attempt at the largest pool over the smallest — the
    /// sublinearity headline (a full scan scales as the pool ratio).
    indexed_latency_ratio: f64,
    full_latency_ratio: f64,
    /// Learn p50 at the largest pool over the smallest; a learn that
    /// copied the pool would scale as the pool ratio.
    learn_latency_ratio: f64,
    max_repair_rate_delta: f64,
}

/// Held-out correct solutions learned once each per pool size.
const LEARN_SAMPLES: usize = 16;

fn mean(values: &[usize]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<usize>() as f64 / values.len() as f64
    }
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let problem = derivatives();
    let pool_sizes: &[usize] = if mode.smoke { &[60, 1_000] } else { &[60, 1_000, 10_000] };
    let attempt_target = if mode.smoke { 8 } else { 12 };
    // The pool generator is prefix-stable, so one run serves every pool
    // size, and the solutions past the largest pool are in none of them.
    let largest = pool_sizes.iter().copied().max().unwrap_or(0);
    let sources = correct_pool(&problem, largest + LEARN_SAMPLES, 0xC0FFEE);
    let held_out: Vec<Box<dyn ParsedSubmission>> = sources[largest.min(sources.len())..]
        .iter()
        .filter_map(|s| frontend(problem.lang).parse(s).ok())
        .collect();

    // One fixed set of wrong-answer attempts is reused across every pool
    // size, so the rows differ only in the pool.
    let (mutants, _) = derive_mutants(
        &problem,
        &MutationConfig { seed: 0x9E7A11, target_wrong_answer: attempt_target, max_attempts: 4_000 },
    );
    // Each attempt is parsed once, up front; both passes at every pool size
    // analyse and repair from that parse.
    let wrong: Vec<Box<dyn ParsedSubmission>> = mutants
        .iter()
        .filter(|m| m.bucket == MutantBucket::WrongAnswer)
        .take(attempt_target)
        .filter_map(|m| frontend(problem.lang).parse(&m.source).ok())
        .collect();
    assert!(!wrong.is_empty(), "mutation engine produced no wrong-answer attempts");

    println!("Retrieval scaling — {} wrong-answer attempts on `{}`:", wrong.len(), problem.name);
    println!(
        "{:>7} {:>9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "pool",
        "clusters",
        "full cand",
        "idx cand",
        "full ms",
        "idx ms",
        "fallbacks",
        "index bytes",
        "learn ms"
    );

    let mut rows = Vec::new();
    for &target in pool_sizes {
        let mut engine = Clara::new_in(
            problem.lang,
            problem.entry.to_owned(),
            problem.spec.inputs(),
            ClaraConfig::default(),
        );
        let mut usable = 0usize;
        for source in &sources[..target.min(sources.len())] {
            if engine.add_correct_solution(source).is_ok() {
                usable += 1;
            }
        }

        // Exhaustive baseline: the pre-index repair path over every cluster.
        // Both passes time analysis plus repair of the same parses.
        let mut full_config = engine.config().repair.clone();
        full_config.use_candidate_index = false;
        let mut full_candidates = Vec::new();
        let mut full_repaired = 0usize;
        let full_start = Instant::now();
        for parsed in &wrong {
            let Ok(attempt) =
                AnalyzedProgram::from_parsed(parsed.as_ref(), problem.entry, engine.inputs(), engine.fuel())
            else {
                continue;
            };
            let result = repair_attempt(engine.clusters(), &attempt, engine.inputs(), &full_config);
            full_candidates.push(result.candidate_clusters);
            full_repaired += usize::from(result.best.is_some());
        }
        let full_seconds = full_start.elapsed().as_secs_f64();

        // Indexed pass: the production path (shortlist + fallback).
        let mut indexed_candidates = Vec::new();
        let mut indexed_repaired = 0usize;
        let mut fallbacks = 0usize;
        let indexed_start = Instant::now();
        for parsed in &wrong {
            let Ok(outcome) = engine.repair_parsed(parsed.as_ref()) else { continue };
            indexed_candidates.push(outcome.result.candidate_clusters);
            indexed_repaired += usize::from(outcome.result.best.is_some());
            fallbacks += usize::from(outcome.result.retrieval.is_some_and(|r| r.fell_back));
        }
        let indexed_seconds = indexed_start.elapsed().as_secs_f64();

        // Online learns, each from this pool: the service clones its
        // snapshot's engine and inserts into the clone.
        let mut learn_ms: Vec<f64> = held_out
            .iter()
            .map(|parsed| {
                let start = Instant::now();
                let mut next = engine.clone();
                let _ = next.add_correct_parsed(parsed.as_ref());
                drop(next);
                start.elapsed().as_secs_f64() * 1_000.0
            })
            .collect();
        learn_ms.sort_by(f64::total_cmp);

        let attempts = full_candidates.len();
        let count = attempts.max(1);
        let full_rate = full_repaired as f64 / count as f64;
        let indexed_rate = indexed_repaired as f64 / count as f64;
        let row = PoolRow {
            pool: target,
            usable,
            clusters: engine.clusters().len(),
            index_resident_bytes: engine.candidate_index().resident_bytes(),
            attempts,
            full_candidates_mean: mean(&full_candidates),
            indexed_candidates_mean: mean(&indexed_candidates),
            full_ms_per_attempt: full_seconds * 1_000.0 / count as f64,
            indexed_ms_per_attempt: indexed_seconds * 1_000.0 / count as f64,
            full_repaired,
            indexed_repaired,
            repair_rate_delta: (full_rate - indexed_rate).abs(),
            fallbacks,
            learn_ms_p50: learn_ms.get(learn_ms.len() / 2).copied().unwrap_or(0.0),
        };
        println!(
            "{:>7} {:>9} {:>12.1} {:>12.1} {:>12.2} {:>12.2} {:>10} {:>12} {:>10.2}",
            row.pool,
            row.clusters,
            row.full_candidates_mean,
            row.indexed_candidates_mean,
            row.full_ms_per_attempt,
            row.indexed_ms_per_attempt,
            row.fallbacks,
            row.index_resident_bytes,
            row.learn_ms_p50
        );
        rows.push(row);
    }

    let ratio = |f: fn(&PoolRow) -> f64| match (rows.first(), rows.last()) {
        (Some(small), Some(large)) if f(small) > 0.0 => f(large) / f(small),
        _ => 0.0,
    };
    let report = RetrievalReport {
        problem: problem.name.to_owned(),
        corpus: format!("pools {pool_sizes:?}, still-correct variants, seed 0xC0FFEE"),
        indexed_latency_ratio: ratio(|r| r.indexed_ms_per_attempt),
        full_latency_ratio: ratio(|r| r.full_ms_per_attempt),
        learn_latency_ratio: ratio(|r| r.learn_ms_p50),
        max_repair_rate_delta: rows.iter().map(|r| r.repair_rate_delta).fold(0.0, f64::max),
        pools: rows,
    };
    println!(
        "latency ratio largest/smallest pool: indexed {:.2}x, full scan {:.2}x, learn {:.2}x (max repair-rate delta {:.4})",
        report.indexed_latency_ratio,
        report.full_latency_ratio,
        report.learn_latency_ratio,
        report.max_repair_rate_delta
    );

    emit_json_report("retrieval", mode, &report);
    if !mode.smoke {
        // The full run is the recorded evidence (EXPERIMENTS.md); mirror it
        // to the same file the smoke contract uses.
        if let Ok(json) = serde_json::to_string_pretty(&report) {
            if let Err(e) = std::fs::write("BENCH_retrieval.json", &json) {
                eprintln!("(could not write BENCH_retrieval.json: {e})");
            }
        }
    }
}
