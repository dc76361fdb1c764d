//! # clara-corpus — synthetic student-submission corpus
//!
//! The paper evaluates Clara on 17,266 MITx MOOC submissions and on an
//! ESC-101 (IIT Kanpur) archive; both datasets are proprietary. This crate is
//! the substitute substrate (see `crates/corpus/DESIGN.md` for the design
//! rationale and the traffic model): it defines the nine
//! assignments of Appendix A ([`mooc`] and [`study`]), hand-written seed
//! solutions implementing genuinely different strategies, a
//! semantics-preserving [`variation`] engine that expands the seeds into a
//! large pool of correct solutions, and a fault-injection [`mutation`] engine
//! that derives realistic incorrect attempts. [`dataset`] combines these into
//! deterministic, seeded corpora used by the benchmark harness, and
//! [`workload`] turns the corpora into a Zipf-style duplicate-heavy request
//! stream for the feedback service.
//!
//! ```rust
//! use clara_corpus::{generate_dataset, mooc, DatasetConfig};
//!
//! let problem = mooc::derivatives();
//! let dataset = generate_dataset(
//!     &problem,
//!     DatasetConfig { correct_count: 50, incorrect_count: 20, ..DatasetConfig::default() },
//! );
//! assert_eq!(dataset.correct.len(), 50);
//! assert!(dataset.incorrect.iter().all(|a| !a.is_correct));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod minic;
pub mod mooc;
pub mod mutate;
pub mod mutation;
pub mod problem;
pub mod regression;
pub mod study;
pub mod variation;
pub mod workload;

pub use dataset::{generate_dataset, Attempt, AttemptKind, Dataset, DatasetConfig, DatasetStats};
pub use minic::{all_minic_problems, generate_minic_dataset, minic_incorrect_attempts};
pub use mutate::{
    apply_step, chain_still_fails, classify, correct_pool, derive_multi_fault_mutants, derive_mutants,
    frontend_for, minimize_steps, realize_variant, replay_steps, FaultStep, MultiFaultConfig,
    MultiFaultMutant, MutantBucket, MutationConfig, MutationOp, MutationStats, SurfaceMutant,
};
pub use mutation::{empty_attempt, mutate, unsupported_attempt, FaultKind, Mutant};
pub use problem::{GradingMode, Problem};
pub use regression::{
    load_regression_dir, regression_dir, replay_entry, save_regression_file, RegressionEntry, RegressionFile,
    RegressionStep, ReplayOutcome, REGRESSION_FORMAT_VERSION,
};
pub use variation::{rename_variables, rename_with, tweak_expressions, vary_seed};
pub use workload::{
    duplicate_fraction, generate_workload, language_mix, partition_workload, RequestKind, WorkloadConfig,
    WorkloadRequest,
};

use clara_model::frontend::Lang;

/// A stable FNV-1a hash of a problem name, used to derive independent
/// per-problem RNG streams from one corpus seed. Hand-rolled on purpose:
/// `DefaultHasher` is only documented as deterministic within a process, so
/// keying RNG streams on it would let a std upgrade silently change every
/// "seeded" corpus. Byte-identical datasets across builds require a hash
/// that is ours.
pub(crate) fn stable_name_hash(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// All nine MiniPy problems of the paper's evaluation (Table 1 + Table 2).
pub fn all_problems() -> Vec<Problem> {
    let mut problems = mooc::all_mooc_problems();
    problems.extend(study::all_study_problems());
    problems
}

/// Every problem across every frontend: the nine MiniPy problems plus the
/// MiniC translations. Problem names are globally unique, so the combined
/// set can be served by one service.
pub fn all_problems_all_langs() -> Vec<Problem> {
    let mut problems = all_problems();
    problems.extend(all_minic_problems());
    problems
}

/// Builds the dataset for a problem with the generator matching its
/// language (the MiniPy variation/mutation engines, or the seed-cycling
/// MiniC generator).
pub fn generate_dataset_for(problem: &Problem, config: DatasetConfig) -> Dataset {
    match problem.lang {
        Lang::MiniPy => generate_dataset(problem, config),
        Lang::MiniC => generate_minic_dataset(problem, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_pinned_to_the_specified_fnv1a() {
        // The per-problem RNG streams are keyed on FNV-1a of the problem
        // name. FNV-1a is a fixed public algorithm, so these values must
        // never change — a change means every "seeded" corpus silently
        // regenerated differently (the bug this replaced `DefaultHasher`
        // over).
        assert_eq!(stable_name_hash("fibonacci"), 0x76c50fd017aaf2c3);
        assert_eq!(stable_name_hash("fibonacci_c"), 0xd6b3c7a644b9d735);
    }

    #[test]
    fn datasets_are_byte_identical_across_lang_mixes_and_generation_order() {
        // Regression: two runs with the same DatasetConfig::seed must
        // produce byte-identical per-problem datasets no matter which other
        // problems (or languages) are generated around them, in what order.
        let config = DatasetConfig {
            correct_count: 12,
            incorrect_count: 8,
            seed: 0xD15EED,
            ..DatasetConfig::default()
        };
        let fingerprint = |d: &dataset::Dataset| {
            d.correct
                .iter()
                .chain(&d.incorrect)
                .map(|a| (a.id, a.source.clone(), a.is_correct))
                .collect::<Vec<_>>()
        };
        let mut mixed = all_problems_all_langs();
        let solo: Vec<_> = mixed.iter().map(|p| fingerprint(&generate_dataset_for(p, config))).collect();
        // Same problems, reversed generation order, interleaving the
        // languages differently.
        mixed.reverse();
        let reversed: Vec<_> = mixed.iter().map(|p| fingerprint(&generate_dataset_for(p, config))).collect();
        for (i, problem) in mixed.iter().enumerate() {
            let original = &solo[solo.len() - 1 - i];
            assert_eq!(
                &reversed[i], original,
                "`{}` generated differently depending on corpus mix/order",
                problem.name
            );
        }
    }

    #[test]
    fn there_are_nine_problems() {
        let problems = all_problems();
        assert_eq!(problems.len(), 9);
        let names: Vec<&str> = problems.iter().map(|p| p.name).collect();
        assert!(names.contains(&"derivatives"));
        assert!(names.contains(&"rhombus"));
    }

    #[test]
    fn every_problem_has_a_consistent_reference() {
        for problem in all_problems() {
            assert_eq!(
                problem.grade_source(problem.reference),
                Some(true),
                "reference of {} is not correct",
                problem.name
            );
        }
    }
}
