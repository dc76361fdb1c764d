//! Differential repair oracle over generated buggy corpora
//! (`BENCH_mutation.json`).
//!
//! For every problem the surface-IR mutation engine derives buggy variants
//! of the correct seeds, the grader sorts them into `still-correct` /
//! `wrong-answer` / `crashes-or-diverges` buckets, and the differential
//! oracle runs the full cluster → match → repair pipeline on each
//! wrong-answer variant, asserting **soundness** (a claimed repair must make
//! the specification pass — Theorem 5.3 made executable) and reporting
//! repair rate and mean relative patch size *per mutation operator*.
//!
//! The binary exits non-zero on any soundness violation, so the CI
//! bench-smoke job fails if the pipeline ever claims an unsound repair. In
//! `--smoke` mode it also enforces the corpus contract: ≥ 25 distinct
//! wrong-answer mutants per problem across ≥ 2 problems in each language.

#![forbid(unsafe_code)]

use clara_bench::{emit_json_report, RunMode};
use clara_core::{ClaraConfig, DifferentialOracle, OracleVerdict};
use clara_corpus::minic::{fibonacci_c, special_number_c};
use clara_corpus::study::{fibonacci, special_number};
use clara_corpus::{
    all_problems_all_langs, derive_mutants, minimize_steps, replay_steps, save_regression_file,
    MultiFaultConfig, MutantBucket, MutationConfig, MutationOp, Problem, RegressionEntry, RegressionFile,
    RegressionStep, SurfaceMutant, REGRESSION_FORMAT_VERSION,
};
use serde::Serialize;

/// Per-operator aggregate over one problem's mutants.
#[derive(Serialize, Default, Clone)]
struct OperatorReport {
    op: String,
    generated: usize,
    still_correct: usize,
    wrong_answer: usize,
    crashes_or_diverges: usize,
    repaired: usize,
    unsupported: usize,
    soundness_violations: usize,
    repair_rate: f64,
    mean_relative_patch_size: f64,
}

#[derive(Serialize)]
struct ProblemReport {
    problem: String,
    lang: String,
    seeds: usize,
    usable_references: usize,
    mutants: usize,
    distinct_wrong_answer: usize,
    still_correct: usize,
    crashes_or_diverges: usize,
    mutation_attempts: usize,
    operators: Vec<OperatorReport>,
    soundness_violations: usize,
}

/// Per-problem aggregate of the multi-fault adversary: 2–4-operator chains,
/// every killed mutant delta-debugged to its smallest still-failing core.
#[derive(Serialize)]
struct MultiFaultProblemReport {
    problem: String,
    lang: String,
    chains_generated: usize,
    wrong_answer: usize,
    distinct_minimized: usize,
    chains_shrunk: usize,
    mean_original_chain_len: f64,
    mean_minimized_core_len: f64,
    repaired: usize,
    soundness_violations: usize,
}

#[derive(Serialize)]
struct MultiFaultReport {
    problems: Vec<MultiFaultProblemReport>,
    distinct_minimized_total: usize,
    soundness_violations: usize,
}

/// Per-problem repair rate on the loop-structure-divergent pool, with the
/// flexible-alignment fallback off (the committed baseline) and on.
#[derive(Serialize)]
struct StructureDivergentProblemReport {
    problem: String,
    lang: String,
    wrong_answer: usize,
    baseline_repaired: usize,
    aligned_repaired: usize,
    realigned_repairs: usize,
    soundness_violations: usize,
}

#[derive(Serialize)]
struct StructureDivergentReport {
    problems: Vec<StructureDivergentProblemReport>,
    pool_wrong_answer: usize,
    baseline_repaired: usize,
    baseline_repair_rate: f64,
    aligned_repaired: usize,
    aligned_repair_rate: f64,
    soundness_violations: usize,
}

#[derive(Serialize)]
struct MutationQualityReport {
    corpus: String,
    problems: Vec<ProblemReport>,
    total_wrong_answer: usize,
    total_repaired: usize,
    multi_fault: MultiFaultReport,
    structure_divergent: StructureDivergentReport,
    total_soundness_violations: usize,
}

fn run_problem(problem: &Problem, config: &MutationConfig) -> ProblemReport {
    let (mutants, stats) = derive_mutants(problem, config);
    let (oracle, usable) = DifferentialOracle::new(
        problem.lang,
        problem.spec.clone(),
        problem.seeds.iter().copied(),
        ClaraConfig::default(),
    );

    let mut operators: Vec<OperatorReport> = MutationOp::all()
        .iter()
        .map(|op| OperatorReport { op: op.name().to_owned(), ..OperatorReport::default() })
        .collect();
    let index_of = |op: MutationOp| MutationOp::all().iter().position(|o| *o == op).expect("catalog op");

    let mut violations = 0usize;
    let mut relative_sizes: Vec<Vec<f64>> = vec![Vec::new(); operators.len()];
    for mutant in &mutants {
        let entry = &mut operators[index_of(mutant.op)];
        entry.generated += 1;
        match mutant.bucket {
            MutantBucket::StillCorrect => entry.still_correct += 1,
            MutantBucket::WrongAnswer => entry.wrong_answer += 1,
            MutantBucket::CrashesOrDiverges => entry.crashes_or_diverges += 1,
        }
        if mutant.bucket != MutantBucket::WrongAnswer {
            continue;
        }
        match oracle.check(&mutant.source) {
            OracleVerdict::Repaired(check) => {
                // An unsound claim is a pipeline bug, not a repair: it must
                // not inflate the per-operator repair rate it invalidates.
                if check.sound {
                    entry.repaired += 1;
                    if check.relative_size.is_finite() {
                        relative_sizes[index_of(mutant.op)].push(check.relative_size);
                    }
                } else {
                    entry.soundness_violations += 1;
                    violations += 1;
                    eprintln!(
                        "SOUNDNESS VIOLATION [{} / {}]:\n{}",
                        problem.name,
                        mutant.op.name(),
                        mutant.source
                    );
                }
            }
            OracleVerdict::Unsupported => entry.unsupported += 1,
            OracleVerdict::NotRepaired { .. } => {}
        }
    }
    for (entry, sizes) in operators.iter_mut().zip(&relative_sizes) {
        entry.repair_rate =
            if entry.wrong_answer > 0 { entry.repaired as f64 / entry.wrong_answer as f64 } else { 0.0 };
        entry.mean_relative_patch_size =
            if sizes.is_empty() { 0.0 } else { sizes.iter().sum::<f64>() / sizes.len() as f64 };
    }
    operators.retain(|o| o.generated > 0);

    let bucket_count = |b: MutantBucket| mutants.iter().filter(|m: &&SurfaceMutant| m.bucket == b).count();
    ProblemReport {
        problem: problem.name.to_owned(),
        lang: problem.lang.as_str().to_owned(),
        seeds: problem.seeds.len(),
        usable_references: usable,
        mutants: mutants.len(),
        distinct_wrong_answer: bucket_count(MutantBucket::WrongAnswer),
        still_correct: bucket_count(MutantBucket::StillCorrect),
        crashes_or_diverges: bucket_count(MutantBucket::CrashesOrDiverges),
        mutation_attempts: stats.attempts,
        operators,
        soundness_violations: violations,
    }
}

/// Builds the problem's differential oracle with the flexible-alignment
/// fallback on or off (the before/after axis of the structure-divergent
/// section).
fn oracle_for(problem: &Problem, flexible: bool) -> DifferentialOracle {
    let mut config = ClaraConfig::default();
    config.repair.flexible_alignment = flexible;
    let (oracle, _) =
        DifferentialOracle::new(problem.lang, problem.spec.clone(), problem.seeds.iter().copied(), config);
    oracle
}

/// Most minimized mutants promoted into one problem's regression corpus
/// file — keeps the committed JSON reviewable.
const MAX_PROMOTED: usize = 25;

fn run_multi_fault(
    problem: &Problem,
    config: &MultiFaultConfig,
    corpus_out: &mut Vec<RegressionFile>,
) -> MultiFaultProblemReport {
    let (mutants, _) = clara_corpus::derive_multi_fault_mutants(problem, config);
    let oracle = oracle_for(problem, true);
    let mut seen = std::collections::HashSet::new();
    let mut entries: Vec<RegressionEntry> = Vec::new();
    let mut wrong_answer = 0usize;
    let mut distinct = 0usize;
    let mut shrunk = 0usize;
    let mut repaired = 0usize;
    let mut violations = 0usize;
    let mut original_len = 0usize;
    let mut core_len = 0usize;
    for mutant in mutants.iter().filter(|m| m.bucket == MutantBucket::WrongAnswer) {
        wrong_answer += 1;
        // Delta-debug the chain down to its smallest still-failing core.
        let core = minimize_steps(problem, mutant.seed_index, &mutant.steps);
        original_len += mutant.steps.len();
        core_len += core.len();
        if core.len() < mutant.steps.len() {
            shrunk += 1;
        }
        let Some((source, hash)) = replay_steps(problem, mutant.seed_index, &core) else {
            continue;
        };
        if !seen.insert(hash) {
            continue;
        }
        distinct += 1;
        let mut entry_repaired = false;
        match oracle.check(&source) {
            OracleVerdict::Repaired(check) if check.sound => {
                entry_repaired = true;
                repaired += 1;
            }
            OracleVerdict::Repaired(_) => {
                violations += 1;
                eprintln!("SOUNDNESS VIOLATION [{} / multi-fault]:\n{source}", problem.name);
            }
            _ => {}
        }
        if entries.len() < MAX_PROMOTED {
            entries.push(RegressionEntry {
                seed_index: mutant.seed_index,
                steps: core
                    .iter()
                    .map(|s| RegressionStep { op: s.op.name().to_owned(), seed: s.seed })
                    .collect(),
                source,
                structural_hash: hash,
                repaired: entry_repaired,
            });
        }
    }
    corpus_out.push(RegressionFile {
        version: REGRESSION_FORMAT_VERSION,
        problem: problem.name.to_owned(),
        lang: problem.lang.as_str().to_owned(),
        mutation_seed: config.seed,
        entries,
    });
    let mean = |sum: usize| if wrong_answer == 0 { 0.0 } else { sum as f64 / wrong_answer as f64 };
    MultiFaultProblemReport {
        problem: problem.name.to_owned(),
        lang: problem.lang.as_str().to_owned(),
        chains_generated: mutants.len(),
        wrong_answer,
        distinct_minimized: distinct,
        chains_shrunk: shrunk,
        mean_original_chain_len: mean(original_len),
        mean_minimized_core_len: mean(core_len),
        repaired,
        soundness_violations: violations,
    }
}

fn run_structure_divergent(problem: &Problem, config: &MultiFaultConfig) -> StructureDivergentProblemReport {
    // The pool this PR exists for: every chain leads with a structural
    // operator (duplicate-loop / guard-loop), so the killed mutants diverge
    // in control flow from the seeds they came from.
    let pool_config = MultiFaultConfig { require_structural: true, ..*config };
    let (mutants, _) = clara_corpus::derive_multi_fault_mutants(problem, &pool_config);
    let baseline_oracle = oracle_for(problem, false);
    let aligned_oracle = oracle_for(problem, true);
    let mut report = StructureDivergentProblemReport {
        problem: problem.name.to_owned(),
        lang: problem.lang.as_str().to_owned(),
        wrong_answer: 0,
        baseline_repaired: 0,
        aligned_repaired: 0,
        realigned_repairs: 0,
        soundness_violations: 0,
    };
    for mutant in mutants.iter().filter(|m| m.bucket == MutantBucket::WrongAnswer) {
        report.wrong_answer += 1;
        for (oracle, aligned) in [(&baseline_oracle, false), (&aligned_oracle, true)] {
            match oracle.check(&mutant.source) {
                OracleVerdict::Repaired(check) if check.sound => {
                    if aligned {
                        report.aligned_repaired += 1;
                        if check.realigned {
                            report.realigned_repairs += 1;
                        }
                    } else {
                        report.baseline_repaired += 1;
                    }
                }
                OracleVerdict::Repaired(_) => {
                    report.soundness_violations += 1;
                    eprintln!(
                        "SOUNDNESS VIOLATION [{} / structure-divergent, alignment={aligned}]:\n{}",
                        problem.name, mutant.source
                    );
                }
                _ => {}
            }
        }
    }
    report
}

fn main() {
    let mode = RunMode::from_env_and_args();
    // Smoke: two problems per language, the acceptance floor of 25
    // wrong-answer mutants each. Full: every problem of every frontend with
    // a deeper pool.
    let (problems, config) = if mode.smoke {
        (
            vec![fibonacci(), special_number(), fibonacci_c(), special_number_c()],
            MutationConfig { seed: 0xB0661E5, target_wrong_answer: 25, max_attempts: 4_000 },
        )
    } else {
        (
            all_problems_all_langs(),
            MutationConfig { seed: 0xB0661E5, target_wrong_answer: 60, max_attempts: 10_000 },
        )
    };

    let multi_config = if mode.smoke {
        MultiFaultConfig { target_wrong_answer: 55, max_attempts: 10_000, ..MultiFaultConfig::default() }
    } else {
        MultiFaultConfig { target_wrong_answer: 60, max_attempts: 12_000, ..MultiFaultConfig::default() }
    };

    let mut report = MutationQualityReport {
        corpus: format!(
            "{} problems, ≥{} wrong-answer mutants each (mutation seed {:#x})",
            problems.len(),
            config.target_wrong_answer,
            config.seed
        ),
        problems: Vec::new(),
        total_wrong_answer: 0,
        total_repaired: 0,
        multi_fault: MultiFaultReport {
            problems: Vec::new(),
            distinct_minimized_total: 0,
            soundness_violations: 0,
        },
        structure_divergent: StructureDivergentReport {
            problems: Vec::new(),
            pool_wrong_answer: 0,
            baseline_repaired: 0,
            baseline_repair_rate: 0.0,
            aligned_repaired: 0,
            aligned_repair_rate: 0.0,
            soundness_violations: 0,
        },
        total_soundness_violations: 0,
    };

    println!("Differential repair oracle over generated buggy corpora:");
    for problem in &problems {
        let problem_report = run_problem(problem, &config);
        let repaired: usize = problem_report.operators.iter().map(|o| o.repaired).sum();
        println!(
            "  {:22} [{}]: {:3} mutants ({} wrong-answer / {} still-correct / {} diverging), {} repaired, {} violations",
            problem_report.problem,
            problem_report.lang,
            problem_report.mutants,
            problem_report.distinct_wrong_answer,
            problem_report.still_correct,
            problem_report.crashes_or_diverges,
            repaired,
            problem_report.soundness_violations,
        );
        for op in &problem_report.operators {
            if op.wrong_answer > 0 {
                println!(
                    "      {:20} {:3} wrong-answer, repair rate {:>5.1}%, mean relative patch {:.3}",
                    op.op,
                    op.wrong_answer,
                    100.0 * op.repair_rate,
                    op.mean_relative_patch_size,
                );
            }
        }
        report.total_wrong_answer += problem_report.distinct_wrong_answer;
        report.total_repaired += repaired;
        report.total_soundness_violations += problem_report.soundness_violations;
        report.problems.push(problem_report);
    }
    println!(
        "TOTAL: {} wrong-answer mutants, {} repaired, {} soundness violations",
        report.total_wrong_answer, report.total_repaired, report.total_soundness_violations
    );

    // Multi-fault adversary: 2–4-operator chains, delta-debugged cores,
    // distinct minimized mutants promoted into the regression corpus.
    println!("Multi-fault chains (2–4 composed operators, minimized cores):");
    let mut corpus_files: Vec<RegressionFile> = Vec::new();
    for problem in &problems {
        let section = run_multi_fault(problem, &multi_config, &mut corpus_files);
        println!(
            "  {:22} [{}]: {} chains, {} killed, {} distinct minimized ({} shrunk, mean {:.2}→{:.2} ops), {} repaired, {} violations",
            section.problem,
            section.lang,
            section.chains_generated,
            section.wrong_answer,
            section.distinct_minimized,
            section.chains_shrunk,
            section.mean_original_chain_len,
            section.mean_minimized_core_len,
            section.repaired,
            section.soundness_violations,
        );
        report.multi_fault.distinct_minimized_total += section.distinct_minimized;
        report.multi_fault.soundness_violations += section.soundness_violations;
        report.multi_fault.problems.push(section);
    }
    println!(
        "  multi-fault TOTAL: {} distinct minimized mutants, {} violations",
        report.multi_fault.distinct_minimized_total, report.multi_fault.soundness_violations
    );

    // The regression corpus is regenerated on demand (CLARA_WRITE_REGRESSION=1)
    // so promotion stays an explicit, reviewable act; CI replays the
    // committed files instead of rewriting them.
    if std::env::var_os("CLARA_WRITE_REGRESSION").is_some() {
        let dir = clara_corpus::regression_dir();
        for file in &corpus_files {
            match save_regression_file(&dir, file) {
                Ok(path) => eprintln!("(regression corpus written to {})", path.display()),
                Err(e) => eprintln!("(could not write regression corpus for {}: {e})", file.problem),
            }
        }
    }

    // Structure-divergent pool: repair rate before/after flexible alignment.
    println!("Structure-divergent pool (chains led by duplicate-loop/guard-loop):");
    for problem in &problems {
        let section = run_structure_divergent(problem, &multi_config);
        println!(
            "  {:22} [{}]: {} killed, baseline {} repaired, aligned {} repaired ({} via realignment), {} violations",
            section.problem,
            section.lang,
            section.wrong_answer,
            section.baseline_repaired,
            section.aligned_repaired,
            section.realigned_repairs,
            section.soundness_violations,
        );
        report.structure_divergent.pool_wrong_answer += section.wrong_answer;
        report.structure_divergent.baseline_repaired += section.baseline_repaired;
        report.structure_divergent.aligned_repaired += section.aligned_repaired;
        report.structure_divergent.soundness_violations += section.soundness_violations;
        report.structure_divergent.problems.push(section);
    }
    let rate = |repaired: usize| {
        if report.structure_divergent.pool_wrong_answer == 0 {
            0.0
        } else {
            repaired as f64 / report.structure_divergent.pool_wrong_answer as f64
        }
    };
    report.structure_divergent.baseline_repair_rate = rate(report.structure_divergent.baseline_repaired);
    report.structure_divergent.aligned_repair_rate = rate(report.structure_divergent.aligned_repaired);
    println!(
        "  structure-divergent TOTAL: {} killed, repair rate {:.1}% → {:.1}% with alignment",
        report.structure_divergent.pool_wrong_answer,
        100.0 * report.structure_divergent.baseline_repair_rate,
        100.0 * report.structure_divergent.aligned_repair_rate,
    );
    report.total_soundness_violations +=
        report.multi_fault.soundness_violations + report.structure_divergent.soundness_violations;

    if mode.smoke {
        // The corpus contract of the smoke gate: every problem reaches the
        // 25-distinct floor and both languages field ≥ 2 problems.
        for problem in &report.problems {
            assert!(
                problem.distinct_wrong_answer >= 25,
                "{}: only {} distinct wrong-answer mutants",
                problem.problem,
                problem.distinct_wrong_answer
            );
        }
        for lang in ["minipy", "minic"] {
            let count = report.problems.iter().filter(|p| p.lang == lang).count();
            assert!(count >= 2, "smoke must cover ≥2 {lang} problems, has {count}");
        }
        // The multi-fault contract: ≥100 distinct minimized 2–4-fault
        // mutants across both languages, none of them repaired unsoundly.
        assert!(
            report.multi_fault.distinct_minimized_total >= 100,
            "only {} distinct minimized multi-fault mutants (need ≥100)",
            report.multi_fault.distinct_minimized_total
        );
        for lang in ["minipy", "minic"] {
            let count: usize = report
                .multi_fault
                .problems
                .iter()
                .filter(|p| p.lang == lang)
                .map(|p| p.distinct_minimized)
                .sum();
            assert!(count > 0, "no minimized multi-fault mutants in {lang}");
        }
        // The alignment contract: flexible alignment must strictly improve
        // the repair rate on the structure-divergent pool.
        assert!(
            report.structure_divergent.aligned_repaired > report.structure_divergent.baseline_repaired,
            "flexible alignment did not improve the structure-divergent repair rate \
             (baseline {}, aligned {})",
            report.structure_divergent.baseline_repaired,
            report.structure_divergent.aligned_repaired
        );
    }

    emit_json_report("mutation", mode, &report);

    if report.total_soundness_violations > 0 {
        eprintln!(
            "{} soundness violations: the repair pipeline claimed repairs that fail the spec",
            report.total_soundness_violations
        );
        std::process::exit(1);
    }
}
