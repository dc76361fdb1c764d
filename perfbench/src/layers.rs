//! The traced run's per-layer figures.
//!
//! Request-path figures come from the spans of the traced passes and from
//! the metrics registry (the service's own stage histograms, as deltas over
//! those passes). Layer figures come from a probe pass: every distinct
//! submission of the workload is sent once to a fresh service (and once
//! more, as a cache hit), then walked through the public call of each layer
//! in turn — frontend parse, grading, analysis, surface lowering, retrieval
//! query, repair on the workload's engine and flexible alignment — each in
//! its own span, with the repair inside `clara_core::timing::collect` so the
//! core's stage spans become its children.

use clara_core::timing::{self, Stage};
use clara_core::{frontend, realign_attempt, AnalyzedProgram, QuerySignals, RepairFailure};
use clara_corpus::all_problems_all_langs;
use clara_model::frontend::Lang;
use clara_server::{obs::MetricsDump, ClusterStore, FeedbackService, Request, Status};

use crate::inputs::Plan;
use crate::run::{Checker, Measured};
use crate::stats::{histogram_delta_quantile, mean, quantile, ratio};
use crate::trace::Tracer;

/// A per-layer figure: (name, value, unit).
pub type Metric = (String, f64, &'static str);

fn us_p50(tracer: &Tracer, name: &str) -> f64 {
    quantile(&tracer.durations(name), 0.5) / 1e3
}

/// Figures of the traced request passes, taken before the probe pass adds
/// spans of its own.
pub fn request_path(
    tracer: &Tracer,
    traced: &Measured,
    before: &MetricsDump,
    after: &MetricsDump,
) -> Vec<Metric> {
    let stage = |name: &str| {
        let find = |dump: &MetricsDump| {
            dump.histograms
                .iter()
                .find(|h| {
                    h.name == "clara_stage_duration_us"
                        && h.labels.iter().any(|l| l.k == "stage" && l.v == name)
                })
                .map(|h| h.hist.clone())
        };
        find(after).map_or(0.0, |a| histogram_delta_quantile(find(before).as_ref(), &a, 0.5))
    };
    let (hits, misses) = traced.cache;
    vec![
        ("protocol.decode_us_p50".into(), us_p50(tracer, "protocol.decode"), "us"),
        ("protocol.encode_us_p50".into(), us_p50(tracer, "protocol.encode"), "us"),
        ("service.cache_hit_ratio".into(), ratio(hits as f64, (hits + misses) as f64), "ratio"),
        ("service.retrieval_read_ratio".into(), ratio(traced.reads.1 as f64, traced.reads.0 as f64), "ratio"),
        ("stage.parse_us_p50".into(), stage("parse"), "us"),
        ("stage.cache_probe_us_p50".into(), stage("cache_probe"), "us"),
        ("stage.snapshot_resolve_us_p50".into(), stage("snapshot_resolve"), "us"),
    ]
}

/// Counters of the probe pass.
#[derive(Default)]
struct Tally {
    handled_ns: f64,
    explained_ns: f64,
    repaired: u64,
    examined: Vec<f64>,
    retrievals: u64,
    fallbacks: u64,
    shortlisted: Vec<f64>,
    realigned: u64,
    align_attempts: u64,
    align_found: u64,
    stage_ns: [f64; Stage::ALL.len()],
    ilp_ns: Vec<f64>,
}

/// Runs the probe pass over every distinct submission of `plan` against
/// `stores` and returns the layer figures. Every repair must be verified
/// (Theorem 5.3), and its verdict and cost must equal the service's.
pub fn probe(
    plan: &Plan,
    stores: &[ClusterStore],
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Vec<Metric> {
    let service = FeedbackService::new(stores.to_vec(), Default::default());
    let mut tally = Tally::default();
    let mut parsed_langs = Vec::new();
    for (i, sub) in plan.subs.iter().enumerate() {
        let id = 1_000_000 + i as u32;
        let problem = &plan.problems[sub.problem];
        let engine = stores[sub.problem].engine();
        let request = Request {
            id: i as u64,
            problem: problem.name.to_owned(),
            lang: None,
            source: sub.source.clone(),
            learn: None,
            trace: None,
        };
        let root = tracer.open("probe", id);
        let (response, handled) = tracer.span("probe.handle", id, || service.handle(&request));
        tracer.span("probe.handle_hit", id, || service.handle(&request));
        let mut explained = 0u64;
        let expect = |checker: &mut Checker, ok: bool, what: &str| {
            checker.record((!ok).then(|| {
                format!("{}: probe found {what}, service said {}", problem.name, response.status.as_str())
            }));
        };
        let (parsed, nanos) =
            tracer.span(frontend_span(problem.lang), id, || frontend(problem.lang).parse(&sub.source));
        explained += nanos;
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(_) => {
                expect(checker, response.status == Status::Error, "a syntax error");
                tracer.close(root);
                continue;
            }
        };
        parsed_langs.push(problem.lang);
        let (passes, nanos) = tracer.span("grade.passes", id, || parsed.passes(&problem.spec));
        explained += nanos;
        if passes {
            expect(checker, response.status == Status::Correct, "a correct submission");
        } else {
            let (analyzed, nanos) = tracer.span("analysis.analyze", id, || {
                AnalyzedProgram::from_text_in(
                    problem.lang,
                    &sub.source,
                    problem.entry,
                    engine.inputs(),
                    engine.fuel(),
                )
            });
            explained += nanos;
            match analyzed {
                Err(_) => expect(checker, response.status == Status::Error, "an unanalysable submission"),
                Ok(analyzed) => {
                    let (surface, nanos) =
                        tracer.span("model.surface", id, || parsed.surface(problem.entry).ok());
                    explained += nanos;
                    let config = &engine.config().repair;
                    // The repair below runs the same query again, so its
                    // time is already part of the repair span.
                    tracer.span("index.query", id, || {
                        let query = QuerySignals::for_program(&analyzed, surface.as_ref());
                        engine.candidate_index().query(
                            &query,
                            config.candidate_top_k,
                            config.candidate_min_score,
                        )
                    });
                    let span = tracer.open("repair.attempt", id);
                    let (outcome, stages) =
                        timing::collect(|| engine.repair_with_surface(&analyzed, surface.as_ref()));
                    explained += tracer.close(span);
                    tracer.adopt_stages(span, &stages);
                    for stage in &stages {
                        let index = Stage::ALL.iter().position(|s| *s == stage.stage).unwrap_or(0);
                        tally.stage_ns[index] += stage.nanos as f64;
                        if stage.stage == Stage::Ilp {
                            tally.ilp_ns.push(stage.nanos as f64);
                        }
                    }
                    let result = &outcome.result;
                    tally.examined.push(result.candidate_clusters as f64);
                    if let Some(retrieval) = &result.retrieval {
                        tally.retrievals += 1;
                        tally.fallbacks += u64::from(retrieval.fell_back);
                        tally.shortlisted.push(retrieval.shortlisted as f64);
                    }
                    tally.realigned += u64::from(result.realigned);
                    match &result.best {
                        Some(repair) => {
                            tally.repaired += 1;
                            expect(
                                checker,
                                repair.verified == Some(true)
                                    && response.status == Status::Repaired
                                    && response.cost == Some(repair.total_cost),
                                "a verified repair with the same cost",
                            );
                        }
                        None => expect(checker, response.status == Status::NoRepair, "no repair"),
                    }
                    if let Some(surface) = &surface {
                        if result.failure == Some(RepairFailure::NoMatchingControlFlow)
                            || result.realigned
                            || tally.align_attempts < ALIGN_PROBES
                        {
                            let (found, _) = tracer.span("align.attempt", id, || {
                                realign_attempt(
                                    engine.clusters(),
                                    &analyzed,
                                    surface,
                                    engine.inputs(),
                                    config,
                                )
                            });
                            tally.align_attempts += 1;
                            tally.align_found += u64::from(found.is_some());
                        }
                    }
                }
            }
        }
        tracer.close(root);
        tally.handled_ns += handled as f64;
        tally.explained_ns += explained as f64;
    }
    // A frontend the workload does not send to is timed on its problems'
    // seed solutions, so every layer figure is measured in every workload.
    for lang in Lang::all() {
        if !parsed_langs.contains(&lang) {
            for problem in all_problems_all_langs().iter().filter(|p| p.lang == lang) {
                for seed in &problem.seeds {
                    let (parsed, _) = tracer.span(frontend_span(lang), 0, || frontend(lang).parse(seed));
                    checker
                        .record(parsed.is_err().then(|| format!("{}: a seed does not parse", problem.name)));
                }
            }
        }
    }
    // Copy-on-write learning on a bench-held mirror of each store.
    let rounds = STORE_PROBES.div_ceil(stores.len());
    for _ in 0..rounds {
        for (store, pool) in stores.iter().zip(&plan.pools) {
            let (mirror, _) = tracer.span("store.clone", 0, || store.clone());
            let source = pool.last().expect("stores are built from non-empty pools");
            let (learned, _) = tracer.span("store.with_learned", 0, || mirror.with_learned(source));
            checker.record(
                learned
                    .is_err()
                    .then(|| format!("{}: a pooled solution did not learn", store.problem().name)),
            );
        }
    }

    let ms = |name: &str| tracer.durations(name).iter().map(|d| d / 1e6).collect::<Vec<f64>>();
    let stage_ms =
        |stage: Stage| tally.stage_ns[Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0)] / 1e6;
    let ilp_count = tally.ilp_ns.len() as f64;
    let repair_ms = ms("repair.attempt");
    vec![
        ("service.handle_hit_us_p50".into(), us_p50(tracer, "probe.handle_hit"), "us"),
        (
            "service.unattributed_ratio".into(),
            ratio(tally.handled_ns - tally.explained_ns, tally.handled_ns),
            "ratio",
        ),
        ("frontend.minipy.parse_us_p50".into(), us_p50(tracer, frontend_span(Lang::MiniPy)), "us"),
        ("frontend.minic.parse_us_p50".into(), us_p50(tracer, frontend_span(Lang::MiniC)), "us"),
        ("grade.passes_us_p50".into(), us_p50(tracer, "grade.passes"), "us"),
        ("analysis.analyze_ms_p50".into(), quantile(&ms("analysis.analyze"), 0.5), "ms"),
        ("index.query_us_p50".into(), us_p50(tracer, "index.query"), "us"),
        ("index.shortlisted_mean".into(), mean(&tally.shortlisted), "clusters"),
        ("index.fallback_ratio".into(), ratio(tally.fallbacks as f64, tally.retrievals as f64), "ratio"),
        ("repair.attempt_ms_p50".into(), quantile(&repair_ms, 0.5), "ms"),
        ("repair.attempt_ms_p90".into(), quantile(&repair_ms, 0.9), "ms"),
        ("repair.candidates_examined_mean".into(), mean(&tally.examined), "clusters"),
        ("stage.cluster_match_ms_total".into(), stage_ms(Stage::ClusterMatch), "ms"),
        ("stage.sigcache_ms_total".into(), stage_ms(Stage::SigCache), "ms"),
        ("stage.ilp_ms_total".into(), stage_ms(Stage::Ilp), "ms"),
        ("stage.ilp_count".into(), ilp_count, "count"),
        ("stage.ilp_us_p50".into(), quantile(&tally.ilp_ns, 0.5) / 1e3, "us"),
        ("stage.verify_ms_total".into(), stage_ms(Stage::Verify), "ms"),
        ("ilp.useful_ratio".into(), ratio(tally.repaired as f64, ilp_count), "ratio"),
        ("align.realigned_count".into(), tally.realigned as f64, "count"),
        ("align.success_ratio".into(), ratio(tally.align_found as f64, tally.align_attempts as f64), "ratio"),
        ("align.attempt_ms_p50".into(), quantile(&ms("align.attempt"), 0.5), "ms"),
        ("store.clone_ms_p50".into(), quantile(&ms("store.clone"), 0.5), "ms"),
        ("store.with_learned_ms_p50".into(), quantile(&ms("store.with_learned"), 0.5), "ms"),
    ]
}

/// Analysable attempts whose alignment is probed even when strict matching
/// repaired them (attempts strict matching rejects are always probed).
const ALIGN_PROBES: u64 = 40;

/// Mirror-store clone and copy-on-write learn samples per probe pass.
const STORE_PROBES: usize = 12;

fn frontend_span(lang: Lang) -> &'static str {
    match lang {
        Lang::MiniPy => "frontend.minipy.parse",
        Lang::MiniC => "frontend.minic.parse",
    }
}

/// Total self time in milliseconds of the spans the per-layer table names.
pub fn self_times(tracer: &Tracer) -> Vec<Metric> {
    let totals = tracer.self_times();
    SELF_SPANS
        .iter()
        .map(|&name| (format!("self.{name}_ms"), totals.get(name).copied().unwrap_or(0.0) / 1e6, "ms"))
        .collect()
}

/// Spans whose self time the traced run reports.
const SELF_SPANS: [&str; 14] = [
    "request",
    "protocol.decode",
    "service.handle",
    "protocol.encode",
    "frontend.minipy.parse",
    "grade.passes",
    "analysis.analyze",
    "model.surface",
    "index.query",
    "repair.attempt",
    "core.sigcache",
    "core.ilp",
    "core.verify",
    "align.attempt",
];
