//! `clara_repair_failures_total{reason}` counts each computed "no repair"
//! outcome once, under the reason the engine reported.

use clara_core::ClaraConfig;
use clara_corpus::mooc::derivatives;
use clara_server::{ClusterStore, FeedbackService, Request, ServiceConfig, Status};

fn failures(service: &FeedbackService, reason: &str) -> u64 {
    service.registry().dump(0).counter("clara_repair_failures_total", &[("reason", reason)])
}

fn request(id: u64, source: &str) -> Request {
    Request {
        id,
        problem: "derivatives".to_owned(),
        lang: None,
        source: source.to_owned(),
        learn: None,
        trace: None,
    }
}

#[test]
fn unrepaired_attempts_are_counted_by_reason_once_per_computation() {
    let problem = derivatives();
    let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
    let service = FeedbackService::new(vec![store], ServiceConfig::default());

    // Loop-free, while every seed loops: no cluster shares its control flow.
    let loop_free = "def computeDeriv(poly):\n    return [0.0]\n";
    assert_eq!(failures(&service, "no_matching_control_flow"), 0);
    let first = service.handle(&request(1, loop_free));
    assert_eq!(first.status, Status::NoRepair);
    assert!(!first.cache_hit);
    assert_eq!(failures(&service, "no_matching_control_flow"), 1);

    // The same outcome served from the cache is not counted again.
    let again = service.handle(&request(2, loop_free));
    assert!(again.cache_hit);
    assert_eq!(failures(&service, "no_matching_control_flow"), 1);

    // Correct and repaired submissions count no failure.
    let seed = problem.seeds[0];
    assert_eq!(service.handle(&request(3, seed)).status, Status::Correct);
    let off_by_one = seed.replacen("range(1, len(poly))", "range(0, len(poly))", 1);
    assert_ne!(off_by_one, seed);
    assert_eq!(service.handle(&request(4, &off_by_one)).status, Status::Repaired);
    let reasons = ["no_matching_control_flow", "no_feasible_repair", "solver_budget_exhausted"];
    assert_eq!(reasons.iter().map(|r| failures(&service, r)).sum::<u64>(), 1);
}
