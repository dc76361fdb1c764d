//! The closed-loop client and the pass runner.
//!
//! One client thread sends a request, waits for the response, then sends
//! the next, through the public serving path: `parse_request` →
//! `FeedbackService::handle` → `render_response`. A pass sends the plan's
//! request sequence once, and a run makes a fixed number of passes. Host
//! noise only ever adds time, and on a shared host it comes in spells that
//! can cover most of a run, so the figures lean to the fast side of the
//! passes; [`end_to_end`] says how for each kind of workload.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use clara_server::{
    parse_request, render_response, ClusterStore, FeedbackService, Response, ServiceConfig, Status,
};

use crate::inputs::{Line, Plan, Truth};
use crate::layers::Metric;
use crate::stats::{quantile, ratio};
use crate::trace::Tracer;

/// Sends one request line through the serving path; returns the response
/// and the client-side latency in nanoseconds (decode + handle + encode).
/// With a tracer, each of the three calls gets its own span under a
/// `request` span.
fn call(service: &FeedbackService, line: &str, tracer: Option<(&mut Tracer, u32)>) -> (Response, u64) {
    match tracer {
        None => {
            let start = Instant::now();
            let request = parse_request(line).expect("benchmark request lines are well-formed");
            let response = service.handle(&request);
            let rendered = render_response(&response);
            let nanos = start.elapsed().as_nanos() as u64;
            black_box(rendered.len());
            (response, nanos)
        }
        Some((tracer, id)) => {
            let root = tracer.open("request", id);
            let (request, _) = tracer.span("protocol.decode", id, || parse_request(line));
            let request = request.expect("benchmark request lines are well-formed");
            let (response, _) = tracer.span("service.handle", id, || service.handle(&request));
            let (rendered, _) = tracer.span("protocol.encode", id, || render_response(&response));
            let nanos = tracer.close(root);
            black_box(rendered.len());
            (response, nanos)
        }
    }
}

/// Counts operations and their failures; keeps the first few failure
/// descriptions for the report.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checker {
    /// Records one operation, failed when `problem` is `Some`.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(message) = problem {
            self.failed += 1;
            if self.messages.len() < 10 {
                self.messages.push(message);
            }
        }
    }
}

/// Whether `response` is a valid answer to `line` given the submission's
/// ground truth.
fn truth_problem(plan: &Plan, line: &Line, response: &Response) -> Option<String> {
    let sub = &plan.subs[line.sub];
    let ok = match sub.truth {
        Truth::Correct => response.status == Status::Correct && (!line.learn || response.learned),
        Truth::Incorrect => matches!(response.status, Status::Repaired | Status::NoRepair),
        Truth::Error => response.status == Status::Error,
    };
    (!ok).then(|| {
        format!(
            "{}: {:?} submission answered {} (learn {}, learned {}): {:?}",
            plan.problems[sub.problem].name,
            sub.truth,
            response.status.as_str(),
            line.learn,
            response.learned,
            response.error
        )
    })
}

/// A hash of everything an answer says: status, cost and feedback lines,
/// in order (`ordered`) or as a multiset.
fn verdict(response: &Response, ordered: bool) -> u64 {
    let mut hasher = DefaultHasher::new();
    response.status.as_str().hash(&mut hasher);
    response.cost.hash(&mut hasher);
    if ordered {
        response.feedback.hash(&mut hasher);
    } else {
        let mut lines: Vec<&String> = response.feedback.iter().collect();
        lines.sort();
        lines.hash(&mut hasher);
    }
    hasher.finish()
}

/// The first computed answer to each distinct incorrect submission.
#[derive(Default)]
pub struct RepairTally {
    pub analysable: u64,
    pub repaired: u64,
    pub cost_sum: i64,
    seen: HashSet<usize>,
}

impl RepairTally {
    fn add(&mut self, sub: usize, truth: Truth, response: &Response) {
        if truth != Truth::Incorrect || response.cache_hit || !self.seen.insert(sub) {
            return;
        }
        self.analysable += 1;
        if response.status == Status::Repaired {
            self.repaired += 1;
            self.cost_sum += response.cost.unwrap_or(0);
        }
    }
}

/// Latencies of the passes of one phase.
pub struct Measured {
    /// `[pass][op]` client latency in nanoseconds.
    pub op_ns: Vec<Vec<u64>>,
    /// `[pass][probe × round]` latency of the mirror learn probes.
    pub probe_ns: Vec<Vec<u64>>,
    /// Result-cache hits and misses of the measured service(s).
    pub cache: (u64, u64),
    /// Reads (requests without `learn`) and the reads the service answered
    /// by a repair search, which is where retrieval runs.
    pub reads: (u64, u64),
}

impl Measured {
    /// Each pass's requests per second: its requests ÷ the sum of their
    /// latencies.
    pub fn pass_rates(&self) -> Vec<f64> {
        self.op_ns
            .iter()
            .map(|pass| ratio(pass.len() as f64, pass.iter().sum::<u64>() as f64 / 1e9))
            .collect()
    }
}

/// Runs passes of a plan against services built from `stores`.
pub struct Runner<'a> {
    plan: &'a Plan,
    stores: &'a [ClusterStore],
    /// The warm service serving every pass (plans without fresh passes).
    shared: Option<FeedbackService>,
    /// Verdict per (submission, index generation) seen by the shared
    /// service; a cached answer must equal the computed one.
    shared_verdicts: HashMap<(usize, u32), u64>,
    /// Answer of every request of the first fresh pass (ordered, multiset);
    /// later passes must repeat its status, cost and feedback lines.
    first_pass: Option<Vec<(u64, u64)>>,
    pub checker: Checker,
    /// Answers that repeated the first pass's feedback lines in another
    /// order: the service does not fix the order of a repair's lines, so
    /// this is counted and reported rather than failed.
    pub reordered: u64,
    pub tally: RepairTally,
}

impl<'a> Runner<'a> {
    /// A runner; plans that reuse one service get it built and warmed here
    /// (every distinct submission sent once, untimed).
    pub fn new(plan: &'a Plan, stores: &'a [ClusterStore]) -> Runner<'a> {
        let mut runner = Runner {
            plan,
            stores,
            shared: None,
            shared_verdicts: HashMap::new(),
            first_pass: None,
            checker: Checker::default(),
            reordered: 0,
            tally: RepairTally::default(),
        };
        if !plan.fresh_per_pass {
            let service = runner.service();
            let mut seen = vec![false; plan.lines.len()];
            for &op in &plan.ops {
                if std::mem::replace(&mut seen[op], true) {
                    continue;
                }
                let line = &plan.lines[op];
                let (response, _) = call(&service, &line.text, None);
                let problem = truth_problem(plan, line, &response);
                runner.checker.record(problem);
                runner.tally.add(line.sub, plan.subs[line.sub].truth, &response);
                runner.shared_verdicts.insert((line.sub, 0), verdict(&response, true));
            }
            runner.shared = Some(service);
        }
        runner
    }

    /// A fresh service over clones of the stores, default configuration.
    fn service(&self) -> FeedbackService {
        FeedbackService::new(self.stores.to_vec(), ServiceConfig::default())
    }

    /// Runs `passes` passes, calling `after_pass` with each pass's index
    /// once it is done.
    pub fn run(
        &mut self,
        passes: usize,
        mut tracer: Option<&mut Tracer>,
        mut after_pass: impl FnMut(usize),
    ) -> Measured {
        let plan = self.plan;
        let mut measured = Measured { op_ns: Vec::new(), probe_ns: Vec::new(), cache: (0, 0), reads: (0, 0) };
        let cache_before = self.shared.as_ref().map_or((0, 0), FeedbackService::cache_counters);
        let mut request_id = 0u32;
        for pass in 0..passes {
            let fresh = if plan.fresh_per_pass { Some(self.service()) } else { None };
            let service = fresh.as_ref().or(self.shared.as_ref()).expect("a service per pass");
            let mut op_ns = Vec::with_capacity(plan.ops.len());
            let mut mirror = None;
            let mut probe_ns = Vec::with_capacity(plan.probes.len());
            let mut verdicts = Vec::with_capacity(plan.ops.len());
            let mut generation = vec![0u32; plan.problems.len()];
            let mut pass_verdicts: HashMap<(usize, u32), u64> = HashMap::new();
            let mut probes = plan.probes.iter().peekable();
            for (position, &op) in plan.ops.iter().enumerate() {
                let line = &plan.lines[op];
                let sub = &plan.subs[line.sub];
                let (response, nanos) =
                    call(service, &line.text, tracer.as_deref_mut().map(|t| (t, request_id)));
                request_id += 1;
                op_ns.push(nanos);
                let mut problem = truth_problem(plan, line, &response);
                let this = verdict(&response, true);
                let known = if plan.fresh_per_pass { &mut pass_verdicts } else { &mut self.shared_verdicts };
                let expected = *known.entry((line.sub, generation[sub.problem])).or_insert(this);
                if problem.is_none() && expected != this {
                    problem = Some(format!(
                        "{}: answer differs from the one computed earlier at the same index generation",
                        plan.problems[sub.problem].name
                    ));
                }
                if response.learned {
                    generation[sub.problem] += 1;
                }
                if !line.learn {
                    measured.reads.0 += 1;
                    measured.reads.1 += u64::from(
                        !response.cache_hit && matches!(response.status, Status::Repaired | Status::NoRepair),
                    );
                }
                self.tally.add(line.sub, sub.truth, &response);
                self.checker.record(problem);
                verdicts.push((this, verdict(&response, false)));
                while let Some(&&(_, probe_line)) = probes.peek().filter(|(at, _)| *at == position) {
                    probes.next();
                    if probe_ns.len() % plan.probe_round == 0 {
                        mirror = Some(self.service());
                    }
                    let mirror = mirror.as_ref().expect("a mirror per probe round");
                    let line = &plan.lines[probe_line];
                    let (response, nanos) = call(mirror, &line.text, None);
                    probe_ns.push(nanos);
                    self.checker.record(truth_problem(plan, line, &response));
                }
            }
            if plan.fresh_per_pass {
                let first = self.first_pass.get_or_insert_with(|| verdicts.clone());
                let differing = first.iter().zip(&verdicts).filter(|(a, b)| a.1 != b.1).count();
                self.reordered +=
                    first.iter().zip(&verdicts).filter(|(a, b)| a.1 == b.1 && a.0 != b.0).count() as u64;
                self.checker.record(
                    (differing > 0).then(|| format!("{differing} answers differ from the first pass")),
                );
            }
            if let Some(service) = &fresh {
                let (hits, misses) = service.cache_counters();
                measured.cache.0 += hits;
                measured.cache.1 += misses;
            }
            measured.op_ns.push(op_ns);
            measured.probe_ns.push(probe_ns);
            after_pass(pass);
        }
        if let Some(service) = &self.shared {
            let (hits, misses) = service.cache_counters();
            measured.cache = (hits - cache_before.0, misses - cache_before.1);
        }
        measured
    }
}

/// The end-to-end metrics of one measured phase.
///
/// A workload that replays its passes on fresh services (`novel_repair`,
/// `learn_mix`) spends its passes in repairs and learns of milliseconds to
/// a quarter of a second: each timing figure is computed per pass and
/// reported as its fast quartile over the passes, the lower quartile of a
/// latency and the upper quartile of a rate. A warm-cache workload
/// (`zipf_warm`) has requests of 20–40 µs, the size of the host's own
/// interruptions, each timed once per pass: its figures are computed from
/// each request's fastest timing over the passes.
pub fn end_to_end(plan: &Plan, measured: &Measured, tally: &RepairTally) -> Vec<Metric> {
    let ms = |ns: &[u64]| ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<f64>>();
    let learns = |latencies: &[f64], probe_ms: Vec<f64>| -> Vec<f64> {
        if plan.probes.is_empty() {
            plan.ops.iter().zip(latencies).filter(|(op, _)| plan.lines[**op].learn).map(|(_, m)| *m).collect()
        } else {
            probe_ms
        }
    };
    let timings = if plan.fresh_per_pass {
        let per_pass: Vec<[f64; 6]> = measured
            .op_ns
            .iter()
            .zip(&measured.probe_ns)
            .map(|(op_ns, probe_ns)| {
                let latencies = ms(op_ns);
                let learns = learns(&latencies, ms(probe_ns));
                timing_figures(&latencies, &learns)
            })
            .collect();
        std::array::from_fn(|i| {
            let values: Vec<f64> = per_pass.iter().map(|figures| figures[i]).collect();
            quantile(&values, if i == 0 { 0.75 } else { 0.25 })
        })
    } else {
        let latencies = fastest_ms(&measured.op_ns);
        let learns = learns(&latencies, fastest_ms(&measured.probe_ns));
        timing_figures(&latencies, &learns)
    };
    let names = [
        "throughput_rps",
        "latency_p50_ms",
        "latency_p90_ms",
        "latency_p99_ms",
        "learn_p50_ms",
        "learn_p90_ms",
    ];
    let mut metrics: Vec<Metric> = names
        .iter()
        .zip(timings)
        .map(|(name, value)| (name.to_string(), value, if *name == "throughput_rps" { "1/s" } else { "ms" }))
        .collect();
    metrics.push(("repair_rate".into(), ratio(tally.repaired as f64, tally.analysable as f64), "ratio"));
    metrics.push(("mean_repair_cost".into(), ratio(tally.cost_sum as f64, tally.repaired as f64), "edits"));
    metrics
}

/// Requests per second, p50/p90/p99 latency and p50/p90 learn latency of
/// one set of latencies in milliseconds.
fn timing_figures(latencies: &[f64], learns: &[f64]) -> [f64; 6] {
    [
        ratio(latencies.len() as f64, latencies.iter().sum::<f64>() / 1e3),
        quantile(latencies, 0.5),
        quantile(latencies, 0.9),
        quantile(latencies, 0.99),
        quantile(learns, 0.5),
        quantile(learns, 0.9),
    ]
}

/// Each column's fastest latency over the passes, in milliseconds.
fn fastest_ms(per_pass: &[Vec<u64>]) -> Vec<f64> {
    let width = per_pass.first().map_or(0, Vec::len);
    (0..width).map(|i| per_pass.iter().map(|pass| pass[i]).min().unwrap_or(0) as f64 / 1e6).collect()
}

/// Cold-builds every store of the plan (clustering plus retrieval index)
/// with the default configuration.
pub fn build_stores(plan: &Plan) -> Vec<ClusterStore> {
    plan.problems
        .iter()
        .zip(&plan.pools)
        .map(|(problem, pool)| {
            ClusterStore::build(problem, pool.iter().map(String::as_str), clara_core::ClaraConfig::default())
                .0
        })
        .collect()
}
