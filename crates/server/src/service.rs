//! The sharded feedback service.
//!
//! A [`FeedbackService`] owns one shard per problem. Each shard keeps its
//! current [`ClusterStore`] as an `Arc` snapshot behind a std `RwLock`: a
//! request takes the read lock only long enough to clone the `Arc`, then
//! runs the whole repair pipeline against that immutable snapshot without
//! holding any lock. A learn serializes with other learns on a per-shard
//! mutex, builds the successor store outside the `RwLock` (a clone plus
//! [`ClusterStore::insert_correct`]) and takes the write lock only to swap
//! the new `Arc` in, so readers never wait on a learn's clone-and-insert.
//! The clone shares every cluster with the current snapshot, and the insert
//! copies only the cluster it joins or opens, so a learn costs what it
//! changes rather than a copy of the pool (see [`crate::store`]).
//!
//! The result cache in front is a [`StripedCache`]: independently locked
//! LRU segments keyed by a splitmix-mixed combination of shard, language,
//! **snapshot generation** and structural program hash. Folding the
//! generation into the key makes cache invalidation free: publishing a new
//! index rotates that shard's keys, so stale feedback simply stops being
//! addressable and ages out of the LRU — no scan, no epoch bookkeeping.
//! Concurrent duplicates of a submission that missed the cache share one
//! computation through single-flight coalescing.
//!
//! The service counts everything in a [`Registry`] of its own, whose
//! instrument handles it resolves once at construction: a request only
//! increments handles. `/stats`, `/health` and `/metrics` are views of that
//! registry merged with the global stage histograms.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use clara_core::timing::{self, Stage, StageTimer};
use clara_core::{frontend, ClaraConfig, RepairFailure, RepairResult};
use clara_corpus::Problem;
use clara_model::frontend::{Lang, ParsedSubmission};

use crate::cache::StripedCache;
use crate::obs::{self, Counter, Gauge, Histogram, Registry};
use crate::protocol::{Request, Response, Status};
use crate::shard::ShardSpec;
use crate::store::ClusterStore;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Approximate capacity of the structural-hash result cache (0 disables
    /// it; rounded up to a multiple of `cache_stripes`).
    pub cache_capacity: usize,
    /// Lock stripes of the result cache (rounded up to a power of two).
    pub cache_stripes: usize,
    /// Whether `learn` requests may insert verified-correct submissions
    /// into the cluster index.
    pub learn: bool,
    /// This process's position in the fleet; requests for problems owned by
    /// another shard are rejected with a routing error.
    pub shard: ShardSpec,
    /// Engine configuration used for analysis and repair.
    pub clara: ClaraConfig,
    /// Slow-request threshold in milliseconds: requests at or above it —
    /// and failed requests — dump their full span tree as a structured log
    /// line. `Some(0)` dumps every request; `None` disables dumps.
    pub slow_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 4096,
            cache_stripes: 8,
            learn: true,
            shard: ShardSpec::solo(),
            clara: ClaraConfig::default(),
            slow_ms: None,
        }
    }
}

/// The service's registry and its instrument handles, resolved once.
struct ServiceMetrics {
    registry: Registry,
    /// `clara_requests_total`: a row per loaded problem in shard order, then
    /// the `unknown` row, each indexed by `status as usize`.
    requests: Vec<[Arc<Counter>; 4]>,
    durations: [Arc<Histogram>; 4],
    /// Requests answered from the result cache, at the first probe or at a
    /// flight leader's re-check.
    cache_hits: Arc<Counter>,
    /// Requests whose flight leader found no cached outcome and computed one.
    cache_misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    learned: Arc<Counter>,
    /// By reason: `syntax`, `unsupported`.
    learn_refused: [Arc<Counter>; 2],
    /// `clara_repair_failures_total{reason}`, one per [`RepairFailure`].
    no_matching_control_flow: Arc<Counter>,
    no_feasible_repair: Arc<Counter>,
    solver_budget_exhausted: Arc<Counter>,
    /// `clara_index_retrievals_total{outcome}`, one per outcome.
    shortlisted: Arc<Counter>,
    full_scan: Arc<Counter>,
    fallback: Arc<Counter>,
    candidates: Arc<Histogram>,
    /// One per shard, set by every learn.
    generations: Vec<Arc<Gauge>>,
}

impl ServiceMetrics {
    fn new(problems: &[&str], shard: ShardSpec) -> ServiceMetrics {
        let registry = Registry::default();
        let shard = shard.to_string();
        let failure =
            |f: RepairFailure| registry.counter("clara_repair_failures_total", &[("reason", f.as_str())]);
        let retrieval = |outcome| registry.counter("clara_index_retrievals_total", &[("outcome", outcome)]);
        ServiceMetrics {
            requests: problems
                .iter()
                .chain(&["unknown"])
                .map(|p| {
                    Status::ALL.map(|status| {
                        registry
                            .counter("clara_requests_total", &[("problem", p), ("status", status.as_str())])
                    })
                })
                .collect(),
            durations: Status::ALL.map(|status| {
                registry.histogram("clara_request_duration_us", &[("status", status.as_str())])
            }),
            cache_hits: registry.counter("clara_cache_hits_total", &[]),
            cache_misses: registry.counter("clara_cache_misses_total", &[]),
            coalesced: registry.counter("clara_coalesced_total", &[]),
            learned: registry.counter("clara_learned_total", &[]),
            learn_refused: ["syntax", "unsupported"]
                .map(|reason| registry.counter("clara_learn_refused_total", &[("reason", reason)])),
            no_matching_control_flow: failure(RepairFailure::NoMatchingControlFlow),
            no_feasible_repair: failure(RepairFailure::NoFeasibleRepair),
            solver_budget_exhausted: failure(RepairFailure::SolverBudgetExhausted),
            shortlisted: retrieval("shortlisted"),
            full_scan: retrieval("full_scan"),
            fallback: retrieval("fallback"),
            candidates: registry.histogram("clara_index_candidates_examined", &[]),
            generations: problems
                .iter()
                .map(|p| registry.gauge("clara_snapshot_generation", &[("problem", p), ("shard", &shard)]))
                .collect(),
            registry,
        }
    }
}

/// The cached portion of a response (everything except per-request fields).
#[derive(Debug, Clone)]
struct CachedOutcome {
    status: Status,
    feedback: Vec<String>,
    cost: Option<i64>,
    error: Option<String>,
}

/// State of one in-flight computation slot.
enum FlightState {
    /// The leader is still computing.
    Pending,
    /// The leader finished; followers take the outcome.
    Done(CachedOutcome),
    /// The leader died (panicked) without completing; followers re-join and
    /// one of them becomes the new leader.
    Abandoned,
}

struct FlightSlot {
    state: Mutex<FlightState>,
    ready: Condvar,
}

/// Single-flight registry: at most one computation per cache key is in
/// flight at a time. Concurrent structural duplicates of a *novel*
/// submission — the measured cause of serve throughput bimodality, each one
/// recomputing the same ~1 s repair — instead wait for the leader's result.
#[derive(Default)]
struct Flights {
    inflight: Mutex<HashMap<u64, Arc<FlightSlot>>>,
}

/// What [`Flights::join`] resolved to.
enum Flight<'a> {
    /// This caller computes; it MUST settle the guard (drop = abandoned).
    Leader(FlightGuard<'a>),
    /// Another caller computed; here is its outcome.
    Coalesced(CachedOutcome),
}

/// The leader's obligation to publish an outcome. Dropping without
/// [`FlightGuard::complete`] (e.g. a panic unwinding through the repair
/// pipeline) marks the slot abandoned so waiting followers recompute
/// instead of hanging.
struct FlightGuard<'a> {
    flights: &'a Flights,
    key: u64,
    slot: Arc<FlightSlot>,
    settled: bool,
}

impl Flights {
    fn lock_map(&self) -> MutexGuard<'_, HashMap<u64, Arc<FlightSlot>>> {
        self.inflight.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// later callers block until the leader settles. An abandoned flight is
    /// re-joined until some leader completes.
    fn join(&self, key: u64) -> Flight<'_> {
        loop {
            let slot = {
                let mut map = self.lock_map();
                match map.entry(key) {
                    Entry::Vacant(entry) => {
                        let slot = Arc::new(FlightSlot {
                            state: Mutex::new(FlightState::Pending),
                            ready: Condvar::new(),
                        });
                        entry.insert(Arc::clone(&slot));
                        return Flight::Leader(FlightGuard { flights: self, key, slot, settled: false });
                    }
                    Entry::Occupied(entry) => Arc::clone(entry.get()),
                }
            };
            let mut state = slot.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = slot.ready.wait(state).unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                    FlightState::Done(outcome) => return Flight::Coalesced(outcome.clone()),
                    FlightState::Abandoned => break,
                }
            }
        }
    }
}

impl FlightGuard<'_> {
    /// Publishes the leader's outcome and releases every follower.
    fn complete(mut self, outcome: CachedOutcome) {
        self.settle(FlightState::Done(outcome));
    }

    fn settle(&mut self, state: FlightState) {
        self.settled = true;
        // Unregister first: a caller joining after this point leads a fresh
        // flight, and finds the outcome in the result cache when it
        // re-checks (the leader inserts before completing).
        self.flights.lock_map().remove(&self.key);
        *self.slot.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = state;
        self.slot.ready.notify_all();
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.settle(FlightState::Abandoned);
        }
    }
}

/// An immutable cluster store plus the generation it was published at (the
/// initial store is generation 0; every learn publishes the next one).
struct Snapshot {
    generation: u64,
    store: ClusterStore,
}

/// One problem shard. Readers clone the current snapshot's `Arc` under the
/// read lock; learns serialize on `write`, build the successor store outside
/// the `RwLock` and take its write lock only to swap the `Arc`.
struct ProblemShard {
    problem: Problem,
    current: RwLock<Arc<Snapshot>>,
    write: Mutex<()>,
}

impl ProblemShard {
    /// The current snapshot. The read guard lives only for the `Arc` clone.
    /// A poisoned lock still holds a whole `Arc` (the swap cannot panic
    /// halfway), so it is read through.
    fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn generation(&self) -> u64 {
        self.current.read().unwrap_or_else(PoisonError::into_inner).generation
    }
}

/// The snapshot-fronted, sharded feedback service.
pub struct FeedbackService {
    shards: Vec<ProblemShard>,
    by_problem: HashMap<String, usize>,
    cache: StripedCache<CachedOutcome>,
    flights: Flights,
    metrics: ServiceMetrics,
    config: ServiceConfig,
}

impl FeedbackService {
    /// Builds a service from per-problem cluster stores.
    pub fn new(stores: Vec<ClusterStore>, config: ServiceConfig) -> Self {
        let shards: Vec<ProblemShard> = stores
            .into_iter()
            .map(|store| ProblemShard {
                problem: store.problem().clone(),
                current: RwLock::new(Arc::new(Snapshot { generation: 0, store })),
                write: Mutex::new(()),
            })
            .collect();
        let by_problem = shards.iter().enumerate().map(|(i, s)| (s.problem.name.to_owned(), i)).collect();
        let names: Vec<&str> = shards.iter().map(|s| s.problem.name).collect();
        let metrics = ServiceMetrics::new(&names, config.shard);
        // Stage timers in the core pipeline feed the process-wide latency
        // histograms from here on.
        obs::install_stage_metrics();
        FeedbackService {
            shards,
            by_problem,
            cache: StripedCache::new(config.cache_capacity, config.cache_stripes),
            flights: Flights::default(),
            metrics,
            config,
        }
    }

    /// The problems this service can answer for.
    pub fn problems(&self) -> Vec<&Problem> {
        self.shards.iter().map(|s| &s.problem).collect()
    }

    /// Everything the service counts: requests by problem and status,
    /// request latencies, cache hits, coalesced duplicates, learns and
    /// refused learns, repair failures, retrieval outcomes and each
    /// problem's snapshot generation. A [`crate::Server`] adds its queue,
    /// worker and shed instruments here too.
    pub fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Persists every shard's cluster index under `dir`.
    ///
    /// # Errors
    ///
    /// Returns the first save failure.
    pub fn save_indexes(&self, dir: &std::path::Path) -> Result<(), crate::store::StoreError> {
        for shard in &self.shards {
            shard.snapshot().store.save(dir)?;
        }
        Ok(())
    }

    /// Handles one request synchronously on the calling thread.
    pub fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        // The trace id arrives with the request (router-forwarded or
        // client-chosen) or is minted here at ingress for direct traffic.
        let trace = obs::trace_or_mint(request.trace.as_deref());
        let shard_index = self.by_problem.get(&request.problem).copied();
        let (mut response, spans) = timing::collect(|| self.handle_one(request, shard_index, &trace));
        response.id = request.id;
        response.elapsed_us = start.elapsed().as_micros() as u64;
        response.trace = Some(trace.clone());
        self.observe(request, shard_index, &response, &spans, &trace);
        response
    }

    /// Counts the request and dumps its span tree when it was slow or
    /// failed (per `slow_ms`).
    fn observe(
        &self,
        request: &Request,
        shard_index: Option<usize>,
        response: &Response,
        spans: &[timing::Span],
        trace: &str,
    ) {
        // Problem names come from the client: unloaded ones all count in
        // the `unknown` row, so arbitrary names cannot grow the registry.
        let row = shard_index.unwrap_or(self.shards.len());
        let status = response.status as usize;
        self.metrics.requests[row][status].inc();
        self.metrics.durations[status].record(response.elapsed_us);
        let failed = response.status == Status::Error;
        let dump =
            self.config.slow_ms.is_some_and(|ms| failed || response.elapsed_us >= ms.saturating_mul(1_000));
        if dump {
            obs::log(if failed { "warn" } else { "info" }, "slow_request")
                .str_field("trace_id", trace)
                .str_field("problem", &request.problem)
                .str_field("status", response.status.as_str())
                .num_field("elapsed_us", response.elapsed_us)
                .raw_field("cache_hit", if response.cache_hit { "true" } else { "false" })
                .raw_field("spans", &obs::spans_json(spans))
                .emit();
        }
    }

    fn handle_one(&self, request: &Request, shard_index: Option<usize>, trace: &str) -> Response {
        let Some(shard_index) = shard_index else {
            let spec = self.config.shard;
            let detail = if spec.is_solo() {
                String::from("see `clara-cli problems`")
            } else {
                format!("not loaded on shard {spec}; check the fleet routing")
            };
            return Response::error(request.id, format!("unknown problem `{}` ({detail})", request.problem));
        };
        let shard = &self.shards[shard_index];
        let lang = shard.problem.lang;

        // The language tag is validation: each problem has exactly one
        // language, and a contradicting tag is a client error worth naming
        // (not a confusing downstream syntax error).
        if let Some(tag) = &request.lang {
            match Lang::from_tag(tag) {
                Some(requested) if requested == lang => {}
                Some(requested) => {
                    return Response::error(
                        request.id,
                        format!("problem `{}` expects {lang} submissions, not {requested}", request.problem),
                    );
                }
                None => {
                    return Response::error(request.id, format!("unknown language tag `{tag}`"));
                }
            }
        }

        // The request's only parse: the cache key, grading, repair and the
        // learn all reuse it. Unparseable submissions have no structural
        // hash and bypass the cache.
        let parsed = {
            let _timer = StageTimer::start(Stage::Parse);
            frontend(lang).parse(&request.source)
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return Response::error(request.id, format!("syntax error: {e}")),
        };

        // Everything below runs against this immutable snapshot; the read
        // lock is held only for the `Arc` clone.
        let snapshot = {
            let _timer = StageTimer::start(Stage::SnapshotResolve);
            shard.snapshot()
        };
        let key = cache_key(shard_index, snapshot.generation, lang, parsed.structural_hash());

        let probed = {
            let _timer = StageTimer::start(Stage::CacheProbe);
            self.cache.get(key)
        };
        if let Some(cached) = probed {
            self.metrics.cache_hits.inc();
            // A cache hit answers the *feedback* question, but a learn
            // request must still reach the index — the first occurrence may
            // have been cached without the learn flag.
            let learned = cached.status == Status::Correct
                && self.learn_if_requested(request, shard_index, parsed.as_ref(), trace);
            return Response {
                id: request.id,
                status: cached.status,
                feedback: cached.feedback,
                cost: cached.cost,
                cache_hit: true,
                learned,
                error: cached.error,
                elapsed_us: 0,
                trace: None,
            };
        }

        let compute = || {
            if parsed.passes(&shard.problem.spec) {
                CachedOutcome { status: Status::Correct, feedback: Vec::new(), cost: None, error: None }
            } else {
                // The repair runs against the immutable snapshot with no
                // lock held, so a concurrent learn (publishing a successor
                // index) never stalls it — the answer reflects the
                // snapshot's generation.
                match snapshot.store.engine().repair_parsed(parsed.as_ref()) {
                    Ok(outcome) => {
                        self.record_repair(&outcome.result);
                        let status =
                            if outcome.result.best.is_some() { Status::Repaired } else { Status::NoRepair };
                        CachedOutcome {
                            status,
                            feedback: outcome.feedback.lines(),
                            cost: outcome.result.best.as_ref().map(|r| r.total_cost),
                            error: None,
                        }
                    }
                    Err(err) => {
                        let label = if err.is_syntax_error() { "syntax error" } else { "unsupported" };
                        CachedOutcome {
                            status: Status::Error,
                            feedback: Vec::new(),
                            cost: None,
                            error: Some(format!("{label}: {err}")),
                        }
                    }
                }
            }
        };

        // Single-flight: concurrent workers computing the same key share
        // one computation. The first joiner leads and computes; the rest
        // block on the slot (the ~1 s repair dominates the wait) and take
        // the leader's outcome instead of recomputing it. A leader re-checks
        // the cache first: a previous leader may have inserted and settled
        // between this request's probe and its join. Repair is
        // deterministic given the snapshot, and the generation is part of
        // the key, so feedback computed against generation `g` is only ever
        // served to requests that resolved `g`.
        let (outcome, shared) = match self.flights.join(key) {
            Flight::Coalesced(outcome) => {
                self.metrics.coalesced.inc();
                (outcome, true)
            }
            Flight::Leader(guard) => match self.cache.get(key) {
                Some(cached) => {
                    self.metrics.cache_hits.inc();
                    guard.complete(cached.clone());
                    (cached, true)
                }
                None => {
                    self.metrics.cache_misses.inc();
                    let outcome = compute();
                    // Cache before completing, so that no duplicate can miss
                    // both the flight and the cache.
                    self.cache.insert(key, outcome.clone());
                    guard.complete(outcome.clone());
                    (outcome, false)
                }
            },
        };

        // Online clustering (§2): verified-correct submissions grow the
        // index when the client asks for it and the service allows it. Runs
        // per request, never under the flight slot: a coalesced learn must
        // still insert, and the leader must not hold followers hostage to
        // the writer mutex.
        let learned = outcome.status == Status::Correct
            && self.learn_if_requested(request, shard_index, parsed.as_ref(), trace);
        if learned {
            // The learn published a new generation, which leaves the entry
            // above unreachable; a correct verdict does not depend on the
            // index, so file it under the new generation too.
            let key = cache_key(shard_index, shard.generation(), lang, parsed.structural_hash());
            self.cache.insert(key, outcome.clone());
        }

        Response {
            id: request.id,
            status: outcome.status,
            feedback: outcome.feedback,
            cost: outcome.cost,
            cache_hit: shared,
            learned,
            error: outcome.error,
            elapsed_us: 0,
            trace: None,
        }
    }

    /// Reports one computed repair: why it found nothing, in
    /// `clara_repair_failures_total{reason}` (the labels are
    /// [`RepairFailure::as_str`]), and how the candidate pre-search behaved,
    /// in `clara_index_retrievals_total{outcome}` and the
    /// examined-candidate-set-size histogram. Cache hits and coalesced
    /// followers reuse an outcome and are not reported again.
    fn record_repair(&self, result: &RepairResult) {
        let metrics = &self.metrics;
        if let Some(failure) = &result.failure {
            match failure {
                RepairFailure::NoMatchingControlFlow => &metrics.no_matching_control_flow,
                RepairFailure::NoFeasibleRepair => &metrics.no_feasible_repair,
                RepairFailure::SolverBudgetExhausted => &metrics.solver_budget_exhausted,
            }
            .inc();
        }
        let Some(retrieval) = &result.retrieval else { return };
        if retrieval.fell_back {
            &metrics.fallback
        } else if retrieval.shortlisted < retrieval.control_flow_candidates {
            &metrics.shortlisted
        } else {
            &metrics.full_scan
        }
        .inc();
        metrics.candidates.record(result.candidate_clusters as u64);
    }

    /// Inserts a verified-correct submission into the shard's cluster index
    /// when the request asks for it and learning is enabled. The insertion
    /// is copy-on-write: the successor store is built under the shard's
    /// writer mutex but outside its `RwLock`, whose write lock is taken only
    /// to swap the new snapshot in. The successor shares every untouched
    /// cluster with the current snapshot, so dropping the replaced snapshot
    /// frees only the old copy of the one cluster the learn changed.
    /// A refused insertion is counted in `clara_learn_refused_total{reason}`
    /// and logged. Returns whether an insertion happened.
    fn learn_if_requested(
        &self,
        request: &Request,
        shard_index: usize,
        parsed: &dyn ParsedSubmission,
        trace: &str,
    ) -> bool {
        if !(self.config.learn && request.learn.unwrap_or(false)) {
            return false;
        }
        let shard = &self.shards[shard_index];
        let _timer = StageTimer::start(Stage::Learn);
        // Learns serialize here, so each one extends the latest snapshot
        // and no generation is lost. A poisoned lock (a panicked writer)
        // must not take the shard's learns down with it: the store itself
        // is copy-on-write, so the guard data is always consistent.
        let _writer = shard.write.lock().unwrap_or_else(PoisonError::into_inner);
        let current = shard.snapshot();
        let mut store = current.store.clone();
        if let Err(err) = store.insert_correct(parsed, &request.source) {
            self.metrics.learn_refused[usize::from(!err.is_syntax_error())].inc();
            obs::log("warn", "learn_refused")
                .str_field("trace_id", trace)
                .str_field("problem", &request.problem)
                .str_field("error", &err.to_string())
                .emit();
            return false;
        }
        let generation = current.generation + 1;
        // `current` still holds the old snapshot, so the swap never frees a
        // store while readers wait on the lock.
        *shard.current.write().unwrap_or_else(PoisonError::into_inner) =
            Arc::new(Snapshot { generation, store });
        self.metrics.generations[shard_index].set(generation as i64);
        self.metrics.learned.inc();
        true
    }

    /// The result cache's `(hits, misses)`: `clara_cache_hits_total` and
    /// `clara_cache_misses_total` of the service's registry.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.metrics.cache_hits.get(), self.metrics.cache_misses.get())
    }
}

/// Combines the shard index, index-snapshot generation, language and
/// structural hash into one cache key. The language participates so that a
/// MiniPy and a MiniC submission can never collide, whatever their
/// per-frontend hashes do; the generation participates so that publishing a
/// new index invalidates the shard's entries by construction.
fn cache_key(shard_index: usize, generation: u64, lang: Lang, structural_hash: u64) -> u64 {
    // splitmix64-style mixing so that every input disturbs all bits.
    let salt =
        (shard_index as u64) ^ ((lang as u64 + 1) << 56) ^ generation.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut x = structural_hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_corpus::mooc::derivatives;

    fn service() -> FeedbackService {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        FeedbackService::new(vec![store], ServiceConfig::default())
    }

    /// The sum of counter family `name` in the service's registry.
    fn counter(service: &FeedbackService, name: &str) -> u64 {
        service.registry().dump(0).counter(name, &[])
    }

    /// The snapshot generation of the service's (one) problem.
    fn generation(service: &FeedbackService) -> u64 {
        let generation = service.registry().dump(0).gauge("clara_snapshot_generation", &[]);
        generation.expect("the service exports its snapshot generation").unsigned_abs()
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

    const INCORRECT: &str = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";

    #[test]
    fn incorrect_attempts_get_repair_feedback() {
        let service = service();
        let response = service.handle(&request(1, INCORRECT));
        assert_eq!(response.status, Status::Repaired);
        assert!(!response.feedback.is_empty());
        assert!(response.cost.unwrap() > 0);
        assert!(!response.cache_hit);
    }

    #[test]
    fn duplicate_submissions_hit_the_cache_with_identical_feedback() {
        let service = service();
        let first = service.handle(&request(1, INCORRECT));
        // Same program, different formatting — structurally identical.
        let reformatted = INCORRECT.replace("    if new==[]:", "\n    if new==[]:");
        let second = service.handle(&request(2, &reformatted));
        assert!(second.cache_hit, "structural duplicate must hit the cache");
        assert_eq!(second.feedback, first.feedback);
        assert_eq!(second.cost, first.cost);
        assert_eq!(second.id, 2);
        let stats = service.registry().dump(0);
        assert_eq!(stats.counter("clara_cache_hits_total", &[]), 1);
        assert_eq!(stats.counter("clara_cache_misses_total", &[]), 1);
        assert_eq!(stats.counter("clara_requests_total", &[]), 2);
        assert_eq!(service.cache_counters(), (1, 1));
    }

    #[test]
    fn correct_submissions_are_recognised_and_learned() {
        let service = service();
        let problem = derivatives();
        let mut learn_request = request(1, problem.seeds[1]);
        learn_request.learn = Some(true);
        let response = service.handle(&learn_request);
        assert_eq!(response.status, Status::Correct);
        assert!(response.learned);
        assert_eq!(counter(&service, "clara_learned_total"), 1);
        // The insertion published a new index snapshot.
        assert_eq!(generation(&service), 1);
    }

    #[test]
    fn learn_requests_reach_the_index_even_on_cache_hits() {
        // Regression: the first occurrence is cached *without* the learn
        // flag; a later structurally identical request with learn:true must
        // still be inserted.
        let service = service();
        let problem = derivatives();
        let plain = service.handle(&request(1, problem.seeds[1]));
        assert_eq!(plain.status, Status::Correct);
        assert!(!plain.learned);
        let mut learn_request = request(2, problem.seeds[1]);
        learn_request.learn = Some(true);
        let hit = service.handle(&learn_request);
        assert!(hit.cache_hit);
        assert!(hit.learned, "learn must not be swallowed by the cache");
        assert_eq!(counter(&service, "clara_learned_total"), 1);
    }

    #[test]
    fn learning_publishes_a_new_snapshot_and_rotates_cache_keys() {
        // The generation participates in the cache key: after an online
        // insertion the shard's cached outcomes stop being addressable, so
        // later duplicates recompute against the new index instead of
        // serving feedback from the superseded one.
        let service = service();
        let problem = derivatives();
        let first = service.handle(&request(1, INCORRECT));
        assert!(!first.cache_hit);
        let hit = service.handle(&request(2, INCORRECT));
        assert!(hit.cache_hit, "pre-learn duplicate hits");

        let mut learn = request(3, problem.seeds[1]);
        learn.learn = Some(true);
        assert!(service.handle(&learn).learned);
        assert_eq!(generation(&service), 1);

        let after = service.handle(&request(4, INCORRECT));
        assert!(!after.cache_hit, "the learn must invalidate the shard's cached outcomes");
        let again = service.handle(&request(5, INCORRECT));
        assert!(again.cache_hit, "the recomputed outcome is cached under the new generation");
    }

    #[test]
    fn concurrent_duplicates_of_a_novel_submission_coalesce() {
        // Four threads submit the same novel incorrect program at once. The
        // leader runs the ~1 s repair; the other three must share it via
        // single-flight (or, if they lose the race entirely, via the result
        // cache) — the repair pipeline runs exactly once.
        let service = Arc::new(service());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let service = Arc::clone(&service);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    service.handle(&request(t, INCORRECT))
                })
            })
            .collect();
        let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for response in &responses {
            assert_eq!(response.status, Status::Repaired, "{:?}", response.error);
            assert_eq!(response.feedback, responses[0].feedback);
        }
        let (coalesced, hits) =
            (counter(&service, "clara_coalesced_total"), counter(&service, "clara_cache_hits_total"));
        assert_eq!(coalesced + hits, 3, "exactly one computation for four requests");
        assert_eq!(counter(&service, "clara_cache_misses_total"), 1, "one leader computed");
        assert!(coalesced >= 1, "concurrent duplicates must coalesce: {coalesced} coalesced, {hits} hits");
        assert_eq!(responses.iter().filter(|r| !r.cache_hit).count(), 1);
    }

    #[test]
    fn concurrent_duplicates_never_miss_both_the_flight_and_the_cache() {
        // Regression: a leader used to settle its flight before caching its
        // outcome, so a duplicate that missed the cache and joined in
        // between led a second computation. A fast correct submission makes
        // that window as wide as it gets relative to the computation.
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let correct = problem.seeds[1];
        for round in 0..64 {
            let service = Arc::new(FeedbackService::new(vec![store.clone()], ServiceConfig::default()));
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let service = Arc::clone(&service);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        service.handle(&request(t, correct))
                    })
                })
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap().status, Status::Correct);
            }
            let (coalesced, hits) =
                (counter(&service, "clara_coalesced_total"), counter(&service, "clara_cache_hits_total"));
            assert_eq!(coalesced + hits, 3, "round {round}: one computation for four: {coalesced} + {hits}");
        }
    }

    #[test]
    fn unknown_problem_names_never_become_metric_labels() {
        let service = service();
        for i in 0..100u64 {
            let mut unknown = request(i, "def f(x):\n    return x\n");
            unknown.problem = format!("no_such_problem_{i}");
            assert_eq!(service.handle(&unknown).status, Status::Error);
        }
        let dump = service.registry().dump(0);
        let labels: Vec<&obs::LabelDump> = dump
            .counters
            .iter()
            .flat_map(|c| &c.labels)
            .chain(dump.gauges.iter().flat_map(|g| &g.labels))
            .chain(dump.histograms.iter().flat_map(|h| &h.labels))
            .collect();
        assert!(!labels.iter().any(|l| l.v.starts_with("no_such_problem_")), "client-chosen names leaked");
        assert!(
            labels.iter().any(|l| l.k == "problem" && l.v == "unknown"),
            "unknown problems are still counted"
        );
    }

    #[test]
    fn concurrent_learners_serialize_and_never_lose_generations() {
        // Four learners insert distinct correct solutions while two readers
        // repair. Learns serialize on the shard's writer mutex, so each one
        // extends the latest snapshot and publishes exactly one generation.
        let problem = derivatives();
        let seeds: Vec<&'static str> = problem.seeds.clone();
        assert!(seeds.len() >= 5, "four distinct seeds to learn");
        let (store, _) = ClusterStore::build(&problem, seeds[..1].iter().copied(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let learners: Vec<_> = (1..5u64)
            .map(|i| {
                let service = Arc::clone(&service);
                let source = seeds[i as usize];
                std::thread::spawn(move || {
                    let mut learn = request(100 + i, source);
                    learn.learn = Some(true);
                    let response = service.handle(&learn);
                    assert_eq!(response.id, 100 + i);
                    assert_eq!(response.status, Status::Correct, "{:?}", response.error);
                    response.learned
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u64)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..3u64 {
                        let response = service.handle(&request(t * 10 + i, INCORRECT));
                        assert_eq!(response.id, t * 10 + i);
                        assert!(response.trace.is_some());
                        assert!(
                            matches!(response.status, Status::Repaired | Status::NoRepair),
                            "{:?}",
                            response.error
                        );
                        assert_eq!(response.cost.is_some(), response.status == Status::Repaired);
                    }
                })
            })
            .collect();
        let learned =
            learners.into_iter().map(|h| h.join().expect("learner panicked")).filter(|l| *l).count();
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        assert_eq!(learned, 4, "every distinct correct solution is learned");
        assert_eq!(generation(&service), counter(&service, "clara_learned_total"));
        assert_eq!(counter(&service, "clara_learned_total"), 4);
    }

    #[test]
    fn learns_too_deep_to_store_are_refused_and_counted() {
        // Each `0 + (...)` nests the appended expression one level deeper;
        // this many nests past the store's depth guard.
        let depth = crate::store::MAX_STORED_EXPR_DEPTH;
        let source = format!(
            "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        \
             result.append(float({}poly[e]*e{}))\n    if result == []:\n        return [0.0]\n    \
             else:\n        return result\n",
            "0 + (".repeat(depth),
            ")".repeat(depth)
        );
        let service = service();
        let mut learn = request(1, &source);
        learn.learn = Some(true);
        let response = service.handle(&learn);
        assert_eq!(response.status, Status::Correct, "{:?}", response.error);
        assert!(!response.learned, "a solution the index could not load back must not learn");
        let stats = service.registry().dump(0);
        assert_eq!(stats.counter("clara_learn_refused_total", &[("reason", "unsupported")]), 1);
        assert_eq!(stats.counter("clara_learn_refused_total", &[]), 1);
        assert!(stats.counters.iter().any(|c| c.name == "clara_learned_total"), "{stats:?}");
        assert_eq!(stats.counter("clara_learned_total", &[]), 0);
        assert_eq!(generation(&service), 0);
    }

    #[test]
    fn abandoned_flights_release_their_followers() {
        // A leader that dies without completing (panic in the repair
        // pipeline) must not strand followers: they re-join and recompute.
        let flights = Arc::new(Flights::default());
        let Flight::Leader(guard) = flights.join(7) else {
            panic!("first joiner must lead");
        };
        let follower = std::thread::spawn({
            let flights = Arc::clone(&flights);
            move || match flights.join(7) {
                Flight::Leader(guard) => {
                    guard.complete(CachedOutcome {
                        status: Status::Correct,
                        feedback: Vec::new(),
                        cost: None,
                        error: None,
                    });
                    true
                }
                Flight::Coalesced(_) => false,
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard); // leader dies without completing
        assert!(follower.join().unwrap(), "follower must take over an abandoned flight");
        assert!(flights.lock_map().is_empty(), "settled flights unregister");
    }

    #[test]
    fn responses_echo_or_mint_trace_ids_and_report_elapsed() {
        let service = service();
        let mut traced = request(1, INCORRECT);
        traced.trace = Some("00c0ffee00c0ffee".to_owned());
        let response = service.handle(&traced);
        assert_eq!(response.trace.as_deref(), Some("00c0ffee00c0ffee"), "client trace ids are echoed");
        assert!(response.elapsed_us > 0, "a real repair takes measurable time");

        let minted = service.handle(&request(2, INCORRECT)).trace.expect("a trace id is always assigned");
        assert_eq!(minted.len(), 16);
        assert!(minted.chars().all(|c| c.is_ascii_hexdigit()), "minted ids are hex: {minted}");

        // Error responses carry a trace and a real elapsed time too.
        let error = service.handle(&request(3, "def broken(:\n"));
        assert_eq!(error.status, Status::Error);
        assert!(error.trace.is_some());
    }

    #[test]
    fn per_shard_request_counts_are_tracked() {
        let service = service();
        let _ = service.handle(&request(1, INCORRECT));
        let _ = service.handle(&request(2, INCORRECT));
        let stats = service.registry().dump(0);
        let problems: Vec<&obs::GaugeDump> =
            stats.gauges.iter().filter(|g| g.name == "clara_snapshot_generation").collect();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].labels.iter().any(|l| l.k == "problem" && l.v == "derivatives"));
        assert_eq!(stats.counter("clara_requests_total", &[("problem", "derivatives")]), 2);
        assert_eq!(problems[0].value, 0);
    }

    #[test]
    fn minic_shards_serve_c_submissions_with_c_feedback() {
        let problem = clara_corpus::minic::fibonacci_c();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, usable) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        assert!(usable >= 2, "C seeds must cluster");
        let service = FeedbackService::new(vec![store], ServiceConfig::default());
        let buggy = clara_corpus::minic::fibonacci_c_incorrect()[0];
        let response = service.handle(&Request {
            id: 1,
            problem: "fibonacci_c".to_owned(),
            lang: Some("c".to_owned()),
            source: buggy.to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(response.status, Status::Repaired, "{:?}", response.error);
        let text = response.feedback.join("\n");
        assert!(text.contains("<="), "feedback should show the C condition repair: {text}");
        assert!(!text.contains(" and "), "C feedback must not use Python operators: {text}");
        // Correct submissions are recognised through model-execution grading.
        let correct = service.handle(&Request {
            id: 2,
            problem: "fibonacci_c".to_owned(),
            lang: None,
            source: problem.seeds[1].to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(correct.status, Status::Correct);
        // Structural duplicates (reformatted C) hit the cache.
        let dup = service.handle(&Request {
            id: 3,
            problem: "fibonacci_c".to_owned(),
            lang: None,
            source: buggy.replace("    int a = 1;", "    /* init */\n    int a = 1;"),
            learn: None,
            trace: None,
        });
        assert!(dup.cache_hit, "reformatted C submission must hit the cache");
        assert_eq!(dup.feedback, response.feedback);
    }

    #[test]
    fn matching_language_tags_pass_validation() {
        let service = service();
        let mut request = request(1, "def computeDeriv(poly):\n    return poly\n");
        request.lang = Some("python".to_owned());
        let response = service.handle(&request);
        assert_ne!(response.status, Status::Error, "{:?}", response.error);
    }

    #[test]
    fn contradicting_or_unknown_language_tags_are_rejected() {
        let service = service();
        let mut request = request(1, "def computeDeriv(poly):\n    return poly\n");
        request.lang = Some("c".to_owned());
        let response = service.handle(&request);
        assert_eq!(response.status, Status::Error);
        assert!(response.error.unwrap().contains("expects minipy submissions"), "wrong-lang error");
        request.lang = Some("cobol".to_owned());
        let response = service.handle(&request);
        assert_eq!(response.status, Status::Error);
        assert!(response.error.unwrap().contains("unknown language tag"));
    }

    #[test]
    fn cache_keys_are_salted_by_shard_lang_and_generation() {
        // Two structurally identical programs in different languages must
        // never share a cache entry: the per-frontend structural hashes are
        // independent hash spaces, so even an accidental collision between a
        // MiniPy and a MiniC hash must be separated by the language salt.
        for hash in [0u64, 1, 0xDEADBEEF, u64::MAX] {
            assert_ne!(
                cache_key(0, 0, Lang::MiniPy, hash),
                cache_key(0, 0, Lang::MiniC, hash),
                "lang salt missing for hash {hash:#x}"
            );
            // Different shards (problems) never share entries either.
            assert_ne!(cache_key(0, 0, Lang::MiniPy, hash), cache_key(1, 0, Lang::MiniPy, hash));
            // Publishing a new index generation rotates the keys.
            assert_ne!(cache_key(0, 0, Lang::MiniPy, hash), cache_key(0, 1, Lang::MiniPy, hash));
        }
        // The key still depends on the hash itself.
        assert_ne!(cache_key(0, 0, Lang::MiniPy, 1), cache_key(0, 0, Lang::MiniPy, 2));
    }

    #[test]
    fn result_cache_eviction_is_observable_and_correct() {
        // A capacity-1, single-stripe cache: the second distinct submission
        // evicts the first, so resubmitting the first misses (and recomputes
        // the same feedback); resubmitting the still-cached entry hits.
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let config = ServiceConfig { cache_capacity: 1, cache_stripes: 1, ..ServiceConfig::default() };
        let service = FeedbackService::new(vec![store], config);

        let other = "def computeDeriv(poly):\n    return poly\n";
        let first = service.handle(&request(1, INCORRECT));
        assert!(!first.cache_hit);
        let second = service.handle(&request(2, other));
        assert!(!second.cache_hit);
        // INCORRECT was evicted by `other`.
        let third = service.handle(&request(3, INCORRECT));
        assert!(!third.cache_hit, "evicted entry must not hit");
        assert_eq!(third.feedback, first.feedback, "recomputed feedback is identical");
        assert_eq!(third.cost, first.cost);
        // `other` was evicted in turn by the INCORRECT recomputation.
        let fourth = service.handle(&request(4, other));
        assert!(!fourth.cache_hit);
        // ... and INCORRECT again misses, but an immediate duplicate hits.
        let fifth = service.handle(&request(5, INCORRECT));
        assert!(!fifth.cache_hit);
        let sixth = service.handle(&request(6, INCORRECT));
        assert!(sixth.cache_hit);
        assert_eq!(counter(&service, "clara_cache_hits_total"), 1);
    }

    #[test]
    fn sharded_services_name_the_shard_in_routing_errors() {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let config = ServiceConfig { shard: ShardSpec { index: 1, count: 4 }, ..ServiceConfig::default() };
        let service = FeedbackService::new(vec![store], config);
        let response = service.handle(&Request {
            id: 1,
            problem: "not_here".to_owned(),
            lang: None,
            source: "def f(x):\n    return x\n".to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(response.status, Status::Error);
        let message = response.error.unwrap();
        assert!(message.contains("shard 1/4"), "routing errors name the shard: {message}");
    }

    #[test]
    fn pathological_submissions_are_rejected_not_crashed() {
        let service = service();
        let garbage = service.handle(&request(1, "def broken(:\n    return ][\n"));
        assert_eq!(garbage.status, Status::Error);
        assert!(garbage.error.unwrap().contains("syntax error"));
        let unknown = service.handle(&Request {
            id: 2,
            problem: "nope".to_owned(),
            lang: None,
            source: "def f(x):\n    return x\n".to_owned(),
            learn: None,
            trace: None,
        });
        assert_eq!(unknown.status, Status::Error);
        assert!(unknown.error.unwrap().contains("unknown problem"));
        let unsupported = service.handle(&request(
            3,
            "def helper(x):\n    return x\n\ndef computeDeriv(poly):\n    return helper(poly)\n",
        ));
        assert_eq!(unsupported.status, Status::Error);
        assert!(unsupported.error.unwrap().contains("unsupported"));
    }

    #[test]
    fn concurrent_learns_and_repairs_do_not_block_each_other() {
        // Readers run repairs against immutable snapshots while a writer
        // thread publishes successive index generations; every response must
        // be well-formed and the final generation must count every learn.
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds[..2].iter().copied(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));

        let writer = {
            let service = Arc::clone(&service);
            let sources: Vec<String> = seeds.iter().skip(2).take(3).map(|s| (*s).to_owned()).collect();
            std::thread::spawn(move || {
                for (i, source) in sources.iter().enumerate() {
                    let mut learn = Request {
                        id: 100 + i as u64,
                        problem: "derivatives".to_owned(),
                        lang: None,
                        source: source.clone(),
                        learn: Some(true),
                        trace: None,
                    };
                    learn.learn = Some(true);
                    let response = service.handle(&learn);
                    assert_ne!(response.status, Status::Error, "{:?}", response.error);
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|t| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    for i in 0..4u64 {
                        let response = service.handle(&request(t * 10 + i, INCORRECT));
                        assert!(
                            matches!(response.status, Status::Repaired | Status::NoRepair),
                            "{:?}",
                            response.error
                        );
                    }
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        let generation = generation(&service);
        assert_eq!(generation, counter(&service, "clara_learned_total"));
        assert!(generation >= 1, "at least one learn must land");
    }
}
