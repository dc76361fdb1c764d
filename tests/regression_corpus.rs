//! CI replay of the committed multi-fault regression corpus.
//!
//! `corpus/regression/` holds minimized multi-fault mutants promoted by the
//! `mutation_quality` harness (regenerate with `CLARA_WRITE_REGRESSION=1
//! cargo run --release -p clara-bench --bin mutation_quality -- --smoke`).
//! Every entry is a previously observed wrong-answer mutant: this test
//! replays each fault chain from its recorded per-step seeds and demands
//!
//! 1. the chain still produces byte-identical source (the mutation engine
//!    stayed deterministic),
//! 2. the mutant still fails its assignment (the corpus has not gone stale),
//! 3. the full repair pipeline stays sound on it, and
//! 4. entries that were repairable when promoted are still repaired — a
//!    previously-fixed failure mode coming back fails CI here.

use clara_core::{ClaraConfig, DifferentialOracle, OracleVerdict};
use clara_corpus::{
    all_problems_all_langs, load_regression_dir, regression_dir, replay_entry, Problem, ReplayOutcome,
};
use clara_server::{ClusterStore, FeedbackService, Request, ServiceConfig, Status};

fn problem_named(name: &str) -> Problem {
    all_problems_all_langs()
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("regression corpus references unknown problem {name:?}"))
}

fn oracle_for(problem: &Problem) -> DifferentialOracle {
    let (oracle, usable) = DifferentialOracle::new(
        problem.lang,
        problem.spec.clone(),
        problem.seeds.iter().copied(),
        ClaraConfig::default(),
    );
    assert!(usable > 0, "no usable reference solutions for {}", problem.name);
    oracle
}

#[test]
fn committed_regression_corpus_replays_and_stays_sound() {
    let files = load_regression_dir(&regression_dir()).expect("corpus/regression is readable");
    // Silent deletion of the corpus must not pass as vacuous success: the
    // repo commits one file per (problem, language) pair.
    assert!(
        files.len() >= 4,
        "expected at least 4 committed regression files, found {} in {}",
        files.len(),
        regression_dir().display()
    );

    for file in &files {
        let problem = problem_named(&file.problem);
        assert!(!file.entries.is_empty(), "{}: empty regression file", file.problem);
        let oracle = oracle_for(&problem);

        for entry in &file.entries {
            let outcome = replay_entry(&problem, entry);
            assert_eq!(
                outcome,
                ReplayOutcome::Reproduced,
                "{} seed #{}: minimized chain {:?} no longer reproduces",
                file.problem,
                entry.seed_index,
                entry.steps.iter().map(|s| s.op.as_str()).collect::<Vec<_>>(),
            );

            let verdict = oracle.check(&entry.source);
            assert!(
                !verdict.is_soundness_violation(),
                "{} seed #{}: unsound repair on regression mutant:\n{}",
                file.problem,
                entry.seed_index,
                entry.source,
            );
            if entry.repaired {
                match verdict {
                    OracleVerdict::Repaired(check) => assert!(check.sound),
                    other => panic!(
                        "{} seed #{}: previously-repaired mutant regressed to {other:?}:\n{}",
                        file.problem, entry.seed_index, entry.source,
                    ),
                }
            }
        }
    }
}

/// The serving path must agree with the engine's text entry point on every
/// committed entry. The service parses each submission once and hands that
/// parse to grading and repair; the guard-loop and duplicate-loop entries
/// repair only through flexible alignment, which needs the surface IR built
/// from that same parse, so a service that dropped it would turn them into
/// `no_repair` here.
#[test]
fn committed_regression_corpus_repairs_identically_through_the_service() {
    let files = load_regression_dir(&regression_dir()).expect("corpus/regression is readable");
    assert!(files.len() >= 4, "expected at least 4 committed regression files, found {}", files.len());
    let problems: Vec<Problem> = files.iter().map(|file| problem_named(&file.problem)).collect();
    let stores: Vec<ClusterStore> = problems
        .iter()
        .map(|problem| ClusterStore::build(problem, problem.seeds.iter().copied(), ClaraConfig::default()).0)
        .collect();
    let config = ServiceConfig { learn: false, ..ServiceConfig::default() };
    let service = FeedbackService::new(stores.clone(), config);

    let mut id = 0u64;
    for (file, store) in files.iter().zip(&stores) {
        for entry in &file.entries {
            id += 1;
            let request = Request {
                id,
                problem: file.problem.clone(),
                lang: None,
                source: entry.source.clone(),
                learn: None,
                trace: None,
            };
            let response = service.handle(&request);
            let (status, cost) = match store.engine().repair_source(&entry.source) {
                Ok(outcome) => match &outcome.result.best {
                    Some(repair) => (Status::Repaired, Some(repair.total_cost)),
                    None => (Status::NoRepair, None),
                },
                Err(_) => (Status::Error, None),
            };
            let context = format!("{} seed #{}:\n{}", file.problem, entry.seed_index, entry.source);
            assert_eq!(response.status, status, "{context}");
            assert_eq!(response.cost, cost, "{context}");
            if entry.repaired {
                assert_eq!(response.status, Status::Repaired, "{context}");
            }
        }
    }
}
