//! An incorrect attempt is analysed only as far as the pool can match it.
//!
//! `Clara::repair_parsed` analyses an attempt at `Clara::attempt_fuel`: every
//! trace stops one step past the longest stored trace. A trace that long
//! overlaps no stored retrieval signal however long it runs, and the
//! alignment fallback re-analyses a cut attempt at full fuel, so the
//! repair must come out exactly as from a full-fuel analysis.
//! `bounded_and_full_fuel_attempts_repair_alike` checks that on every
//! incorrect attempt of the default datasets of all twelve problems.

use clara_core::{frontend, AnalyzedProgram, Clara, ClaraConfig, RepairOutcome};
use clara_corpus::{all_problems_all_langs, generate_dataset_for, DatasetConfig};
use clara_model::TraceStatus;

/// Everything a caller can observe of a repair outcome, elapsed time aside.
fn observable(outcome: &RepairOutcome) -> String {
    let result = &outcome.result;
    format!(
        "{:?} {:?} {:?} {} {:?} {} {:?}",
        result.best.as_ref().map(|r| r.total_cost),
        result.best.as_ref().map(|r| r.cluster_index),
        result.failure,
        result.candidate_clusters,
        result.retrieval,
        result.realigned,
        outcome.feedback.lines(),
    )
}

#[test]
fn bounded_and_full_fuel_attempts_repair_alike() {
    let (mut attempts, mut cut) = (0usize, 0usize);
    for problem in all_problems_all_langs() {
        let dataset = generate_dataset_for(&problem, DatasetConfig::default());
        let mut engine = Clara::new_in(problem.lang, problem.entry, problem.inputs(), ClaraConfig::default());
        for solution in &dataset.correct {
            engine.add_correct_solution(&solution.source).expect("correct solutions analyse");
        }
        let bounded_fuel = engine.attempt_fuel();
        assert!(bounded_fuel.max_steps <= engine.fuel().max_steps);
        assert_eq!(
            bounded_fuel.max_steps,
            (engine.longest_trace() + 1).min(engine.fuel().max_steps),
            "{}",
            problem.name
        );
        for attempt in &dataset.incorrect {
            let Ok(parsed) = frontend(problem.lang).parse(&attempt.source) else { continue };
            let analyse =
                |fuel| AnalyzedProgram::from_parsed(parsed.as_ref(), problem.entry, engine.inputs(), fuel);
            let (Ok(full), Ok(bounded)) = (analyse(engine.fuel()), analyse(bounded_fuel)) else { continue };
            attempts += 1;
            if bounded.traces.iter().any(|t| t.status == TraceStatus::OutOfFuel)
                && full.traces.iter().any(|t| t.steps.len() > bounded_fuel.max_steps)
            {
                cut += 1;
            }
            let surface = parsed.surface(problem.entry).ok();
            let from_full = engine.repair_with_surface(&full, surface.as_ref());
            let from_bounded = engine.repair_with_surface(&bounded, surface.as_ref());
            assert_eq!(
                observable(&from_full),
                observable(&from_bounded),
                "{} attempt {} repairs differently at the bound:\n{}",
                problem.name,
                attempt.id,
                attempt.source
            );
            let through_engine = engine.repair_parsed(parsed.as_ref()).expect("the attempt analysed above");
            assert_eq!(observable(&through_engine), observable(&from_full));
        }
    }
    assert!(attempts > 400, "only {attempts} attempts analysed");
    // The bound must actually cut some attempts, or the test shows nothing.
    assert!(cut > 20, "only {cut} attempts were cut at the bound");
}
