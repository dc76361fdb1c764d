//! Persistence contract of the cluster index: a warm-loaded store must be
//! indistinguishable — byte-for-byte in its feedback — from the cold-built
//! store it was serialized from, and incremental insertion must agree with
//! batch clustering.

use proptest::prelude::*;

use clara_core::{cluster_programs, clustering_stats, AnalyzedProgram, ClaraConfig};
use clara_corpus::mooc::derivatives;
use clara_corpus::{generate_dataset, DatasetConfig};
use clara_lang::parse_program;
use clara_model::Fuel;
use clara_server::{ClusterStore, FeedbackService, Request, ServiceConfig};

/// The smoke dataset of the bench harness (first problem, 10 correct + 5
/// incorrect).
fn smoke_dataset() -> clara_corpus::Dataset {
    generate_dataset(
        &derivatives(),
        DatasetConfig { correct_count: 10, incorrect_count: 5, ..DatasetConfig::default() },
    )
}

#[test]
fn warm_loaded_store_yields_byte_identical_feedback_on_the_smoke_dataset() {
    let dataset = smoke_dataset();
    let (cold, usable) = ClusterStore::build(
        &dataset.problem,
        dataset.correct.iter().map(|a| a.source.as_str()),
        ClaraConfig::default(),
    );
    assert!(usable >= 8, "most of the correct pool must be usable, got {usable}");

    let json = cold.to_json();
    let warm = ClusterStore::from_json(&json, &dataset.problem, ClaraConfig::default()).unwrap();
    assert_eq!(warm.stats(), cold.stats());

    let cold_service = FeedbackService::new(vec![cold], ServiceConfig::default());
    let warm_service = FeedbackService::new(vec![warm], ServiceConfig::default());
    for attempt in dataset.correct.iter().chain(&dataset.incorrect) {
        let request = Request {
            id: attempt.id as u64,
            problem: dataset.problem.name.to_owned(),
            lang: None,
            source: attempt.source.clone(),
            learn: None,
            trace: None,
        };
        let cold_response = cold_service.handle(&request);
        let warm_response = warm_service.handle(&request);
        assert_eq!(cold_response.status, warm_response.status, "status diverged on attempt {}", attempt.id);
        // The acceptance criterion: byte-identical feedback, warm vs cold.
        assert_eq!(
            cold_response.feedback, warm_response.feedback,
            "feedback diverged on attempt {}:\n{}",
            attempt.id, attempt.source
        );
        assert_eq!(cold_response.cost, warm_response.cost);
        assert_eq!(cold_response.error, warm_response.error);
    }
}

#[test]
fn stored_index_roundtrips_through_disk() {
    let dataset = smoke_dataset();
    let (store, _) = ClusterStore::build(
        &dataset.problem,
        dataset.correct.iter().map(|a| a.source.as_str()),
        ClaraConfig::default(),
    );
    let dir = std::env::temp_dir().join(format!("clara-persistence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save(&dir).unwrap();
    let loaded = ClusterStore::load(&dir, &dataset.problem, ClaraConfig::default())
        .unwrap()
        .expect("index file exists");
    assert_eq!(loaded.to_json(), store.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn longest_trace_only_grows_under_learns_and_survives_a_warm_load() {
    let problem = derivatives();
    let dataset = generate_dataset(
        &problem,
        DatasetConfig { correct_count: 30, incorrect_count: 0, ..DatasetConfig::default() },
    );
    let inputs = problem.inputs();
    let (mut store, _) = ClusterStore::build(&problem, std::iter::empty(), ClaraConfig::default());
    assert_eq!(store.engine().longest_trace(), 0);
    let (mut learned, mut longest_learned) = (0, 0);
    for solution in &dataset.correct {
        let before = store.engine().longest_trace();
        let Ok((next, _)) = store.with_learned(&solution.source) else { continue };
        store = next;
        learned += 1;
        let analyzed =
            AnalyzedProgram::from_text(&solution.source, problem.entry, &inputs, Fuel::default()).unwrap();
        longest_learned = analyzed.traces.iter().map(|t| t.steps.len()).fold(longest_learned, usize::max);
        assert!(store.engine().longest_trace() >= before, "a learn lowered the longest trace");
        assert_eq!(store.engine().longest_trace(), longest_learned);
    }
    assert!(learned >= 20, "only {learned} solutions learned");

    let warm = ClusterStore::from_json(&store.to_json(), &problem, ClaraConfig::default()).unwrap();
    assert_eq!(warm.engine().longest_trace(), store.engine().longest_trace());
    assert_eq!(warm.engine().attempt_fuel(), store.engine().attempt_fuel());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Incremental insertion (the online path of `ClusterStore`) produces
    /// the same clustering as batch `cluster_programs` over any prefix and
    /// order of the correct pool: same cluster count, same sizes, same
    /// number of mined expressions.
    #[test]
    fn incremental_insertion_matches_batch_clustering(seed in 0u64..500, take in 2usize..10) {
        let problem = derivatives();
        let dataset = generate_dataset(
            &problem,
            DatasetConfig { correct_count: 10, incorrect_count: 0, seed, ..DatasetConfig::default() },
        );
        let sources: Vec<&str> = dataset.correct.iter().take(take).map(|a| a.source.as_str()).collect();

        // Batch: analyse everything, then cluster in one call.
        let inputs = problem.inputs();
        let analyzed: Vec<AnalyzedProgram> = sources
            .iter()
            .filter_map(|s| AnalyzedProgram::from_text(s, problem.entry, &inputs, Fuel::default()).ok())
            .collect();
        let batch = cluster_programs(analyzed);
        let batch_stats = clustering_stats(&batch);

        // Incremental: insert one at a time (the service's online path).
        let (store, usable) = ClusterStore::build(&problem, sources.iter().copied(), ClaraConfig::default());
        prop_assert_eq!(usable, batch_stats.program_count);
        let incremental_stats = store.stats();

        prop_assert_eq!(incremental_stats.cluster_count, batch_stats.cluster_count);
        prop_assert_eq!(incremental_stats.program_count, batch_stats.program_count);
        prop_assert_eq!(incremental_stats.largest_cluster, batch_stats.largest_cluster);
        prop_assert_eq!(incremental_stats.expression_count, batch_stats.expression_count);
    }

    /// Persistence round-trips under arbitrary corpus seeds, not just the
    /// smoke corpus: serialize → deserialize → identical serialization and
    /// identical repair feedback on a mutant attempt.
    #[test]
    fn roundtrip_feedback_matches_for_arbitrary_corpora(seed in 0u64..200) {
        let problem = derivatives();
        let dataset = generate_dataset(
            &problem,
            DatasetConfig { correct_count: 6, incorrect_count: 2, seed, ..DatasetConfig::default() },
        );
        let (cold, _) = ClusterStore::build(
            &problem,
            dataset.correct.iter().map(|a| a.source.as_str()),
            ClaraConfig::default(),
        );
        let json = cold.to_json();
        let warm = ClusterStore::from_json(&json, &problem, ClaraConfig::default()).unwrap();
        prop_assert_eq!(warm.to_json(), json);

        for attempt in &dataset.incorrect {
            if parse_program(&attempt.source).is_err() {
                continue;
            }
            let cold_outcome = cold.engine().repair_source(&attempt.source);
            let warm_outcome = warm.engine().repair_source(&attempt.source);
            match (cold_outcome, warm_outcome) {
                (Ok(cold_outcome), Ok(warm_outcome)) => {
                    prop_assert_eq!(
                        cold_outcome.feedback.lines(),
                        warm_outcome.feedback.lines(),
                        "feedback diverged on attempt {}", attempt.id
                    );
                }
                (Err(cold_error), Err(warm_error)) => {
                    prop_assert_eq!(cold_error.to_string(), warm_error.to_string());
                }
                (cold_outcome, warm_outcome) => {
                    panic!(
                        "cold/warm divergence on attempt {}: {:?} vs {:?}",
                        attempt.id,
                        cold_outcome.map(|o| o.feedback.lines()),
                        warm_outcome.map(|o| o.feedback.lines()),
                    );
                }
            }
        }
    }
}
