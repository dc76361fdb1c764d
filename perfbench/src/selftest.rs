//! Exact-count self-test: counts the program makes on a tiny corpus must
//! repeat exactly for one seed, and a second seed must change the inputs.

use clara_core::timing::{self, Stage};
use clara_core::{frontend, AnalyzedProgram};
use clara_server::{parse_request, FeedbackService, ServiceConfig, Status};

use crate::inputs::{Plan, Truth};
use crate::run::{build_stores, Checker};

/// Deterministic counts of one tiny run.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    fingerprint: u64,
    clusters: usize,
    repaired: u64,
    cost_sum: i64,
    learned: u64,
    cache_hits: u64,
    cache_misses: u64,
    candidates_examined: usize,
    ilp_solves: usize,
    realigned: usize,
}

fn counts(seed: u64) -> Counts {
    let plan = Plan::tiny(seed);
    let stores = build_stores(&plan);
    let clusters = stores.iter().map(|s| s.engine().clusters().len()).sum();
    let service = FeedbackService::new(stores.clone(), ServiceConfig::default());
    let (mut repaired, mut cost_sum, mut learned) = (0, 0, 0);
    for &op in &plan.ops {
        let request = parse_request(&plan.lines[op].text).expect("self-test lines are well-formed");
        let response = service.handle(&request);
        if response.status == Status::Repaired && !response.cache_hit {
            repaired += 1;
            cost_sum += response.cost.unwrap_or(0);
        }
        learned += u64::from(response.learned);
    }
    let (cache_hits, cache_misses) = service.cache_counters();
    let (mut candidates_examined, mut ilp_solves, mut realigned) = (0, 0, 0);
    for sub in plan.subs.iter().filter(|s| s.truth == Truth::Incorrect) {
        let problem = &plan.problems[sub.problem];
        let engine = stores[sub.problem].engine();
        let Ok(analyzed) = AnalyzedProgram::from_text_in(
            problem.lang,
            &sub.source,
            problem.entry,
            engine.inputs(),
            engine.fuel(),
        ) else {
            continue;
        };
        let surface =
            frontend(problem.lang).parse(&sub.source).ok().and_then(|p| p.surface(problem.entry).ok());
        let (outcome, stages) = timing::collect(|| engine.repair_with_surface(&analyzed, surface.as_ref()));
        candidates_examined += outcome.result.candidate_clusters;
        ilp_solves += stages.iter().filter(|s| s.stage == Stage::Ilp).count();
        realigned += usize::from(outcome.result.realigned);
    }
    Counts {
        fingerprint: plan.fingerprint(),
        clusters,
        repaired,
        cost_sum,
        learned,
        cache_hits,
        cache_misses,
        candidates_examined,
        ilp_solves,
        realigned,
    }
}

/// Runs the self-test for `seed`, recording its two checks, and returns a
/// one-line summary of the counts.
pub fn run(seed: u64, checker: &mut Checker) -> String {
    let first = counts(seed);
    let second = counts(seed);
    checker.record((first != second).then(|| format!("self-test counts differ: {first:?} vs {second:?}")));
    let other = counts(seed.wrapping_add(1));
    checker.record(
        (other.fingerprint == first.fingerprint)
            .then(|| "self-test: a second seed generated the same inputs".to_owned()),
    );
    format!("{first:?}")
}
