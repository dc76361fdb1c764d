//! The fault-tolerant router: forwards each request to the replica set
//! owning its problem×language key.
//!
//! A router process holds no cluster indexes. It derives the same
//! [`HashRing`] every shard derives from the fleet size, resolves each
//! request's canonical language from the problem catalog (clients may omit
//! or alias the `lang` tag, but ring keys must be canonical or router and
//! shard would disagree), and forwards the NDJSON line to the owning shard
//! over a pooled upstream connection. Responses come back on the same line
//! framing with the client's `id` intact, so the router never rewrites
//! payloads.
//!
//! Fault tolerance (see [`crate::retry`]):
//!
//! * every upstream has a small **connection pool** — one slow exchange no
//!   longer serializes the whole upstream behind a mutex;
//! * every exchange runs under a [`RetryPolicy`]: bounded attempts,
//!   exponential backoff with seeded jitter, and a per-request deadline
//!   that becomes each attempt's socket timeout;
//! * every upstream has a consecutive-failure [`CircuitBreaker`]; an open
//!   breaker short-circuits straight to the ring successor instead of
//!   burning the deadline on a shard known to be down;
//! * **reads fail over**: if the owner is down, the same key's first ring
//!   successor — which holds a replica of the index (see
//!   [`REPLICATION_FACTOR`]) — serves the request;
//! * **learns replicate**: a `learn` request is written to the owner *and*
//!   its successor, so a later owner crash loses no learned solutions.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clara_core::timing::{Stage, StageTimer};
use serde::{Deserialize, Serialize};

use crate::obs::{self, render_prometheus, CounterDump, LabelDump, MetricsDump, Registry};
use crate::pool::{admission_bound, PoolClosed, TrySubmitError, WorkerPool};
use crate::protocol::{render_response, Request, Response};
use crate::retry::{CircuitBreaker, RetryPolicy, SplitMix64};
use crate::shard::{HashRing, REPLICATION_FACTOR};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Forwarding worker threads (each blocks on one upstream exchange).
    pub workers: usize,
    /// Queue slots per worker: the forwarding pool's one queue holds
    /// `workers × queue_capacity + 256` requests.
    pub queue_capacity: usize,
    /// Retry/backoff/deadline budget for each client request.
    pub retry: RetryPolicy,
    /// Consecutive failures before an upstream's breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Idle connections kept per upstream.
    pub pool_per_upstream: usize,
    /// Seed for backoff jitter (mixed with each request id).
    pub seed: u64,
    /// Connect/read/write timeout for each per-shard `/metrics` probe.
    /// Was hard-coded to 2s, which made fleet-wide metrics scrapes stall
    /// for `2s × shards` behind upstreams that accept but never answer.
    pub metrics_probe_timeout: Duration,
    /// Total wall-clock budget for one metrics aggregation pass across
    /// *all* upstreams. Probes that would start (or run) past the budget
    /// are cut short or skipped, so `/metrics` latency stays bounded no
    /// matter how many shards are wedged.
    pub metrics_probe_budget: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            pool_per_upstream: 4,
            seed: 0,
            metrics_probe_timeout: Duration::from_secs(2),
            metrics_probe_budget: Duration::from_secs(5),
        }
    }
}

/// One shard process the router forwards to.
struct Upstream {
    addr: String,
    /// Idle pooled connections; an exchange checks one out (or dials a new
    /// one) and returns it on success, so concurrent exchanges with the
    /// same shard proceed in parallel.
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    breaker: CircuitBreaker,
    forwarded: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
}

impl Upstream {
    fn new(addr: String, config: &RouterConfig) -> Upstream {
        Upstream {
            addr,
            idle: Mutex::new(Vec::new()),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    fn checkout(&self) -> Option<BufReader<TcpStream>> {
        self.idle.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).pop()
    }

    fn checkin(&self, conn: BufReader<TcpStream>, cap: usize) {
        let mut idle = self.idle.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if idle.len() < cap {
            idle.push(conn);
        }
    }
}

/// Stats payload of a router process (`GET /stats`, NDJSON `stats` probes).
/// The `router` marker distinguishes it from a shard's `StatsReport`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterReport {
    /// Correlation id of the stats request.
    pub id: u64,
    /// Always `true`: marks this process as a router.
    pub router: bool,
    /// Fleet size the ring was built for.
    pub shards: u64,
    /// Requests forwarded successfully since startup.
    pub forwarded: u64,
    /// Forwarding failures (upstream unreachable / broken exchange).
    pub upstream_errors: u64,
    /// Re-attempts after a failed exchange (beyond each first try).
    pub retries: u64,
    /// Requests served by a ring successor after the owner failed.
    pub failovers: u64,
    /// Learn requests successfully written to a second replica.
    pub replicated_learns: u64,
    /// Learn requests whose replica write failed (primary still answered).
    pub replication_errors: u64,
    /// Requests shed at the front door (forwarding queue full).
    pub shed_requests: u64,
    /// Per-upstream forwarding counts and breaker state.
    pub upstreams: Vec<UpstreamStat>,
}

/// Per-upstream slice of a [`RouterReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpstreamStat {
    /// The shard's NDJSON listen address.
    pub addr: String,
    /// Requests forwarded to this shard.
    pub forwarded: u64,
    /// Failed exchanges with this shard.
    pub errors: u64,
    /// Re-attempts against this shard.
    pub retries: u64,
    /// Circuit-breaker state: `closed`, `open` or `half-open`.
    pub breaker: String,
    /// Consecutive failures currently recorded by the breaker.
    pub consecutive_failures: u64,
}

type RouterJob = (Request, Box<dyn FnOnce(String) + Send>);

/// Cross-upstream resilience counters.
#[derive(Default)]
struct RouterCounters {
    failovers: AtomicU64,
    replicated_learns: AtomicU64,
    replication_errors: AtomicU64,
    shed: AtomicU64,
}

/// A forwarding router over a fleet of shard processes.
pub struct Router {
    upstreams: Arc<Vec<Upstream>>,
    ring: HashRing,
    /// problem name → canonical language tag, from the problem catalog.
    catalog: HashMap<String, String>,
    counters: Arc<RouterCounters>,
    pool: WorkerPool<RouterJob>,
    config: RouterConfig,
}

/// Everything a forwarding worker needs, shared across workers.
struct Forwarder {
    upstreams: Arc<Vec<Upstream>>,
    ring: HashRing,
    catalog: HashMap<String, String>,
    counters: Arc<RouterCounters>,
    config: RouterConfig,
}

impl Router {
    /// Builds a router over shards listening at `addrs` (index = shard
    /// index). `catalog` maps every known problem to its canonical language
    /// tag; requests for unknown problems are still routed (deterministically
    /// by whatever tag the client sent) and answered by the owning shard's
    /// unknown-problem error.
    pub fn new(
        addrs: Vec<String>,
        catalog: impl IntoIterator<Item = (String, String)>,
        config: RouterConfig,
    ) -> Router {
        let upstreams: Arc<Vec<Upstream>> =
            Arc::new(addrs.into_iter().map(|addr| Upstream::new(addr, &config)).collect());
        let ring = HashRing::new(upstreams.len());
        let catalog: HashMap<String, String> = catalog.into_iter().collect();
        let counters = Arc::new(RouterCounters::default());
        let forwarder = Arc::new(Forwarder {
            upstreams: Arc::clone(&upstreams),
            ring: ring.clone(),
            catalog: catalog.clone(),
            counters: Arc::clone(&counters),
            config,
        });
        let bound = admission_bound(config.workers, config.queue_capacity);
        let pool = WorkerPool::new(config.workers, bound, move |(request, reply): RouterJob| {
            reply(forwarder.handle(request));
        });
        obs::install_stage_metrics();
        Router { upstreams, ring, catalog, counters, pool, config }
    }

    /// The shard index owning `request`'s problem×language key. The
    /// catalog's canonical tag wins over the client's alias — shards load
    /// their indexes under canonical tags, and router and shard must hash
    /// identical keys.
    pub fn route(&self, request: &Request) -> usize {
        self.ring.owner(&request.problem, canonical_lang(&self.catalog, request))
    }

    /// The replica set for `request`'s key: owner first, then its distinct
    /// ring successors.
    pub fn replicas(&self, request: &Request) -> Vec<usize> {
        self.ring.owners(&request.problem, canonical_lang(&self.catalog, request), REPLICATION_FACTOR)
    }

    /// Queues `request` for forwarding without blocking; `reply` receives
    /// the upstream's response line (or a local error line).
    ///
    /// # Errors
    ///
    /// Hands the request back, with `reply` dropped uncalled, when the
    /// forwarding queue is full or after [`Router::shutdown`].
    pub fn try_submit(
        &self,
        request: Request,
        reply: Box<dyn FnOnce(String) + Send>,
    ) -> Result<(), TrySubmitError<Request>> {
        self.pool.try_submit((request, reply)).map_err(|refused| refused.map(|(request, _)| request))
    }

    /// Blocking forward for synchronous callers (tests, CLI probes).
    ///
    /// # Errors
    ///
    /// [`PoolClosed`] after [`Router::shutdown`].
    pub fn submit(&self, request: Request, reply: Box<dyn FnOnce(String) + Send>) -> Result<(), PoolClosed> {
        self.pool.submit((request, reply))
    }

    /// Records a request shed at the front door (forwarding queue full), so
    /// overload shows up in `/stats`.
    pub fn note_shed(&self) {
        self.counters.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// The router's stats report.
    pub fn report(&self, id: u64) -> RouterReport {
        let upstreams: Vec<UpstreamStat> = self
            .upstreams
            .iter()
            .map(|u| UpstreamStat {
                addr: u.addr.clone(),
                forwarded: u.forwarded.load(Ordering::Relaxed),
                errors: u.errors.load(Ordering::Relaxed),
                retries: u.retries.load(Ordering::Relaxed),
                breaker: u.breaker.state().name().to_owned(),
                consecutive_failures: u64::from(u.breaker.consecutive_failures()),
            })
            .collect();
        RouterReport {
            id,
            router: true,
            shards: self.upstreams.len() as u64,
            forwarded: upstreams.iter().map(|u| u.forwarded).sum(),
            upstream_errors: upstreams.iter().map(|u| u.errors).sum(),
            retries: upstreams.iter().map(|u| u.retries).sum(),
            failovers: self.counters.failovers.load(Ordering::Relaxed),
            replicated_learns: self.counters.replicated_learns.load(Ordering::Relaxed),
            replication_errors: self.counters.replication_errors.load(Ordering::Relaxed),
            shed_requests: self.counters.shed.load(Ordering::Relaxed),
            upstreams,
        }
    }

    /// The stats report as one JSON line.
    pub fn stats_line(&self, id: u64) -> String {
        serde_json::to_string(&self.report(id)).expect("report serialization is infallible")
    }

    /// The fleet-level metrics view: this process's registry, the router's
    /// own resilience counters, and every reachable shard's dump merged in
    /// (histograms add bucket-wise — the shared fixed layout makes the
    /// merge exact). Unreachable shards are logged and skipped; the view
    /// stays useful in a degraded fleet.
    pub fn metrics_dump(&self, id: u64) -> MetricsDump {
        let mut dump = Registry::global().dump(id);
        let report = self.report(id);
        let fleet: [(&str, u64); 6] = [
            ("clara_router_forwarded_total", report.forwarded),
            ("clara_router_upstream_errors_total", report.upstream_errors),
            ("clara_router_retries_total", report.retries),
            ("clara_router_failovers_total", report.failovers),
            ("clara_router_replicated_learns_total", report.replicated_learns),
            ("clara_router_shed_total", report.shed_requests),
        ];
        for (name, value) in fleet {
            dump.counters.push(CounterDump { name: name.to_owned(), labels: Vec::new(), value });
        }
        for upstream_stat in &report.upstreams {
            dump.counters.push(CounterDump {
                name: "clara_router_upstream_forwarded_total".to_owned(),
                labels: vec![LabelDump { k: "upstream".to_owned(), v: upstream_stat.addr.clone() }],
                value: upstream_stat.forwarded,
            });
        }
        // Each probe gets the configured per-shard timeout, clipped to
        // whatever is left of the total budget; once the budget is spent
        // the remaining shards are skipped outright. Without the cap a
        // fleet of N wedged shards held every scrape for N × timeout.
        let probe_start = Instant::now();
        for upstream in self.upstreams.iter() {
            let remaining = self.config.metrics_probe_budget.saturating_sub(probe_start.elapsed());
            let timeout = self.config.metrics_probe_timeout.min(remaining);
            if timeout.is_zero() {
                obs::log("warn", "metrics_probe_budget_exhausted")
                    .str_field("upstream", &upstream.addr)
                    .emit();
                continue;
            }
            match probe_upstream_metrics(upstream, timeout, self.config.pool_per_upstream) {
                Ok(shard_dump) => dump.merge(&shard_dump),
                Err(e) => obs::log("warn", "metrics_probe_failed")
                    .str_field("upstream", &upstream.addr)
                    .str_field("error", &e.to_string())
                    .emit(),
            }
        }
        dump.metrics_dump = true;
        dump.id = id;
        dump
    }

    /// The merged metrics dump as one JSON line (NDJSON `{"metrics":true}`).
    pub fn metrics_line(&self, id: u64) -> String {
        serde_json::to_string(&self.metrics_dump(id))
            .unwrap_or_else(|e| render_response(&Response::error(id, format!("metrics failed: {e}"))))
    }

    /// The merged metrics dump in Prometheus text format (`GET /metrics`).
    pub fn metrics_text(&self) -> String {
        render_prometheus(&self.metrics_dump(0))
    }

    /// Closes the forwarding queue and joins the workers.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }
}

fn canonical_lang<'a>(catalog: &'a HashMap<String, String>, request: &'a Request) -> &'a str {
    catalog.get(&request.problem).map(String::as_str).or(request.lang.as_deref()).unwrap_or("")
}

impl Forwarder {
    /// Forwards one request to its replica set and renders the response
    /// line. Reads try the owner then fail over to successors; learns are
    /// written to every replica. The router is an ingress: a request
    /// arriving without a trace id is assigned one here, and the id rides
    /// the forwarded line so the owning shard (and any failover successor)
    /// logs the same id.
    fn handle(&self, mut request: Request) -> String {
        let trace = obs::trace_or_mint(request.trace.as_deref());
        request.trace = Some(trace.clone());
        let replicas =
            self.ring.owners(&request.problem, canonical_lang(&self.catalog, &request), REPLICATION_FACTOR);
        let line = serde_json::to_string(&request).expect("request serialization is infallible");
        let start = Instant::now();
        // Jitter stream is deterministic per (router seed, request id).
        let mut rng = SplitMix64::new(self.config.seed ^ request.id.wrapping_mul(0x9e37_79b9_7f4a_7c15));

        if request.learn == Some(true) {
            self.handle_learn(&request, &replicas, &line, start, &mut rng, &trace)
        } else {
            self.handle_read(&request, &replicas, &line, start, &mut rng, &trace)
        }
    }

    /// The all-replicas-unreachable error line, with the real elapsed time
    /// and the trace id attached.
    fn unreachable_response(
        &self,
        request: &Request,
        index: usize,
        replica_count: usize,
        error: &io::Error,
        start: Instant,
        trace: &str,
    ) -> String {
        obs::log("error", "upstream_unreachable")
            .str_field("trace_id", trace)
            .str_field("upstream", &self.upstreams[index].addr)
            .str_field("error", &error.to_string())
            .num_field("replicas", replica_count as u64)
            .emit();
        let response = Response::error(
            request.id,
            format!(
                "shard {index} ({}) unreachable after {replica_count} replica(s): {error}",
                self.upstreams[index].addr
            ),
        )
        .with_elapsed(start.elapsed().as_micros() as u64)
        .with_trace(Some(trace.to_owned()));
        render_response(&response)
    }

    /// Reads: first replica that answers wins; answering from a non-owner
    /// counts as a failover.
    fn handle_read(
        &self,
        request: &Request,
        replicas: &[usize],
        line: &str,
        start: Instant,
        rng: &mut SplitMix64,
        trace: &str,
    ) -> String {
        let mut last_error: Option<(usize, io::Error)> = None;
        for (rank, &index) in replicas.iter().enumerate() {
            match self.exchange_with_retries(index, line, start, rng, trace) {
                Ok(response) => {
                    if rank > 0 {
                        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                        obs::log("warn", "failover")
                            .str_field("trace_id", trace)
                            .str_field("upstream", &self.upstreams[index].addr)
                            .num_field("replica_rank", rank as u64)
                            .emit();
                    }
                    return response;
                }
                Err(e) => last_error = Some((index, e)),
            }
        }
        let (index, e) = last_error.expect("at least one replica attempted");
        self.unreachable_response(request, index, replicas.len(), &e, start, trace)
    }

    /// Learns: written to every replica so an owner crash loses nothing.
    /// The owner's response is preferred; any replica's success answers the
    /// client.
    fn handle_learn(
        &self,
        request: &Request,
        replicas: &[usize],
        line: &str,
        start: Instant,
        rng: &mut SplitMix64,
        trace: &str,
    ) -> String {
        let mut first_success: Option<(usize, String)> = None;
        let mut last_error: Option<(usize, io::Error)> = None;
        for (rank, &index) in replicas.iter().enumerate() {
            // Writes beyond the first successful replica are replication.
            let replicating = rank > 0 && first_success.is_some();
            let exchanged = if replicating {
                let _timer = StageTimer::start(Stage::Replicate);
                self.exchange_with_retries(index, line, start, rng, trace)
            } else {
                self.exchange_with_retries(index, line, start, rng, trace)
            };
            match exchanged {
                Ok(response) => {
                    if replicating {
                        self.counters.replicated_learns.fetch_add(1, Ordering::Relaxed);
                    }
                    if first_success.is_none() {
                        if rank > 0 {
                            self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                            obs::log("warn", "failover")
                                .str_field("trace_id", trace)
                                .str_field("upstream", &self.upstreams[index].addr)
                                .num_field("replica_rank", rank as u64)
                                .emit();
                        }
                        first_success = Some((rank, response));
                    }
                }
                Err(e) => {
                    if first_success.is_some() {
                        self.counters.replication_errors.fetch_add(1, Ordering::Relaxed);
                        obs::log("warn", "replication_failed")
                            .str_field("trace_id", trace)
                            .str_field("upstream", &self.upstreams[index].addr)
                            .str_field("error", &e.to_string())
                            .emit();
                    }
                    last_error = Some((index, e));
                }
            }
        }
        match first_success {
            Some((_, response)) => response,
            None => {
                let (index, e) = last_error.expect("at least one replica attempted");
                self.unreachable_response(request, index, replicas.len(), &e, start, trace)
            }
        }
    }

    /// Runs the retry loop against one upstream: bounded attempts, jittered
    /// backoff, per-attempt socket timeouts carved from the remaining
    /// deadline, breaker consulted before every attempt.
    fn exchange_with_retries(
        &self,
        index: usize,
        line: &str,
        start: Instant,
        rng: &mut SplitMix64,
        trace: &str,
    ) -> io::Result<String> {
        let upstream = &self.upstreams[index];
        let policy = self.config.retry;
        let mut last_error: Option<io::Error> = None;
        for attempt in 0..policy.max_attempts {
            let Some(remaining) = policy.remaining(start) else {
                return Err(last_error.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::TimedOut, "request deadline exhausted")
                }));
            };
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt, rng).min(remaining));
                upstream.retries.fetch_add(1, Ordering::Relaxed);
                obs::log("info", "retry")
                    .str_field("trace_id", trace)
                    .str_field("upstream", &upstream.addr)
                    .num_field("attempt", u64::from(attempt))
                    .emit();
            }
            if !upstream.breaker.allow() {
                return Err(last_error.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::ConnectionRefused, "circuit breaker open")
                }));
            }
            // Split the remaining budget over the attempts left so a hung
            // exchange (e.g. an injected drop) can't eat the whole deadline.
            let attempt_timeout = remaining / (policy.max_attempts - attempt);
            let exchange_timer = Instant::now();
            match self.exchange_once(upstream, line, attempt_timeout) {
                Ok(response) => {
                    upstream.breaker.on_success();
                    upstream.forwarded.fetch_add(1, Ordering::Relaxed);
                    Registry::global()
                        .histogram("clara_forward_duration_us", &[("upstream", &upstream.addr)])
                        .record(exchange_timer.elapsed().as_micros() as u64);
                    return Ok(response);
                }
                Err(e) => {
                    upstream.breaker.on_failure();
                    last_error = Some(e);
                }
            }
        }
        upstream.errors.fetch_add(1, Ordering::Relaxed);
        Err(last_error.unwrap_or_else(|| io::Error::other("forwarding failed")))
    }

    /// One request/response exchange over a pooled (or fresh) connection.
    /// The connection returns to the pool only after a clean round trip; any
    /// error discards it so the next attempt dials fresh.
    fn exchange_once(&self, upstream: &Upstream, line: &str, timeout: Duration) -> io::Result<String> {
        let timeout = timeout.max(Duration::from_millis(1));
        let mut conn = match upstream.checkout() {
            Some(conn) => conn,
            None => BufReader::new(connect(&upstream.addr, timeout)?),
        };
        conn.get_ref().set_read_timeout(Some(timeout))?;
        conn.get_ref().set_write_timeout(Some(timeout))?;
        match exchange(&mut conn, line) {
            Ok(response) => {
                // A response the fleet can't parse (e.g. injected garbage)
                // is a failed exchange, not a payload to forward.
                if serde_json::from_str::<Response>(&response).is_err() {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "unparseable upstream response"));
                }
                upstream.checkin(conn, self.config.pool_per_upstream);
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }
}

/// One `{"metrics":true}` probe against a shard, over a pooled (or fresh)
/// connection.
fn probe_upstream_metrics(
    upstream: &Upstream,
    timeout: Duration,
    pool_cap: usize,
) -> io::Result<MetricsDump> {
    let mut conn = match upstream.checkout() {
        Some(conn) => conn,
        None => BufReader::new(connect(&upstream.addr, timeout)?),
    };
    conn.get_ref().set_read_timeout(Some(timeout))?;
    conn.get_ref().set_write_timeout(Some(timeout))?;
    let response = exchange(&mut conn, r#"{"id":0,"metrics":true}"#)?;
    let dump: MetricsDump = serde_json::from_str(&response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("unparseable metrics dump: {e}")))?;
    upstream.checkin(conn, pool_cap);
    Ok(dump)
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to nothing"))?;
    let stream = TcpStream::connect_timeout(&resolved, timeout)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn exchange(reader: &mut BufReader<TcpStream>, line: &str) -> io::Result<String> {
    let stream = reader.get_mut();
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut response = String::new();
    if reader.read_line(&mut response)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "shard closed the connection"));
    }
    Ok(response.trim_end().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn request(id: u64, problem: &str) -> Request {
        Request {
            id,
            problem: problem.to_owned(),
            lang: None,
            source: "def f(x):\n    return x\n".to_owned(),
            learn: None,
            trace: None,
        }
    }

    fn fast_config(workers: usize, queue_capacity: usize) -> RouterConfig {
        RouterConfig {
            workers,
            queue_capacity,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(10),
                deadline: Duration::from_secs(10),
            },
            ..RouterConfig::default()
        }
    }

    /// A fake shard: accepts connections, echoes every request line back as
    /// an error response tagged with the shard's name.
    fn fake_shard(name: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                        let id = parse_request(line.trim()).map(|r| r.id).unwrap_or(0);
                        let response = render_response(&Response::error(id, format!("answered by {name}")));
                        if writeln!(writer, "{response}").is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    /// An upstream that accepts connections but never answers: the worst
    /// case for the metrics probe, which must rely on its read timeout.
    fn silent_shard() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                held.push(stream);
            }
        });
        addr
    }

    #[test]
    fn metrics_probes_are_configurable_and_budgeted() {
        // Regression test: the per-shard probe timeout was hard-coded to
        // 2s, so three accepting-but-mute shards held every `/metrics`
        // scrape for 6s. With a configurable timeout and a total budget
        // the whole pass must finish well under the old single-shard cost
        // and still produce the router's own counters.
        let addrs = vec![silent_shard(), silent_shard(), silent_shard()];
        let catalog = vec![("derivatives".to_owned(), "minipy".to_owned())];
        let config = RouterConfig {
            metrics_probe_timeout: Duration::from_millis(150),
            metrics_probe_budget: Duration::from_millis(250),
            ..fast_config(1, 4)
        };
        let router = Router::new(addrs, catalog, config);
        let start = Instant::now();
        let line = router.metrics_line(7);
        let elapsed = start.elapsed();
        let dump: MetricsDump = serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 7);
        assert!(
            dump.counters.iter().any(|c| c.name == "clara_router_forwarded_total"),
            "fleet counters must survive unprobeable shards"
        );
        assert!(elapsed < Duration::from_secs(2), "metrics pass blew its probe budget: {elapsed:?}");
    }

    #[test]
    fn requests_reach_the_shard_owning_their_key() {
        let addrs = vec![fake_shard("shard-zero"), fake_shard("shard-one")];
        let catalog = vec![
            ("derivatives".to_owned(), "minipy".to_owned()),
            ("fibonacci_c".to_owned(), "minic".to_owned()),
        ];
        let router = Router::new(addrs, catalog, fast_config(2, 8));
        let ring = HashRing::new(2);

        for (id, problem, lang) in [(1, "derivatives", "minipy"), (2, "fibonacci_c", "minic")] {
            let expected = ring.owner(problem, lang);
            let (tx, rx) = mpsc::channel();
            router.submit(request(id, problem), Box::new(move |line| tx.send(line).unwrap())).unwrap();
            let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let response: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(response.id, id);
            let expected_name = if expected == 0 { "shard-zero" } else { "shard-one" };
            assert!(
                response.error.as_deref().unwrap_or("").contains(expected_name),
                "request {id} should reach shard {expected}: {line}"
            );
        }

        let report = router.report(7);
        assert!(report.router);
        assert_eq!(report.id, 7);
        assert_eq!(report.shards, 2);
        assert_eq!(report.forwarded, 2);
        assert_eq!(report.upstream_errors, 0);
        assert_eq!(report.failovers, 0);
        assert!(report.upstreams.iter().all(|u| u.breaker == "closed"));
    }

    #[test]
    fn canonical_language_wins_over_client_aliases() {
        // Clients may tag MiniPy submissions "python"; the ring key must use
        // the canonical catalog tag or the router would hash a different key
        // than the shard that loaded the index.
        let catalog = vec![("derivatives".to_owned(), "minipy".to_owned())];
        let router = Router::new(vec!["127.0.0.1:1".to_owned(); 4], catalog, fast_config(1, 1));
        let canonical = HashRing::new(4).owner("derivatives", "minipy");
        let mut aliased = request(1, "derivatives");
        aliased.lang = Some("python".to_owned());
        assert_eq!(router.route(&aliased), canonical);
        assert_eq!(router.route(&request(2, "derivatives")), canonical);
        let replicas = router.replicas(&aliased);
        assert_eq!(replicas.len(), REPLICATION_FACTOR);
        assert_eq!(replicas[0], canonical);
    }

    #[test]
    fn unreachable_shards_produce_explicit_errors() {
        // Nothing listens on this address (port 1 is reserved and unbound).
        let router = Router::new(vec!["127.0.0.1:1".to_owned()], Vec::new(), fast_config(1, 2));
        let (tx, rx) = mpsc::channel();
        router.submit(request(9, "whatever"), Box::new(move |line| tx.send(line).unwrap())).unwrap();
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let response: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(response.id, 9);
        assert!(response.error.as_deref().unwrap_or("").contains("unreachable"), "{line}");
        let report = router.report(0);
        assert_eq!(report.upstream_errors, 1);
        assert!(report.retries >= 1, "a failed exchange must be retried before giving up");
    }

    #[test]
    fn reads_fail_over_to_the_ring_successor() {
        // Two-shard fleet where one shard is dead: every key's replica set
        // contains both shards, so the live one must answer regardless of
        // which is the owner.
        let live = fake_shard("survivor");
        let dead = "127.0.0.1:1".to_owned();
        for owner_is_dead in [true, false] {
            let addrs = if owner_is_dead {
                vec![dead.clone(), live.clone()]
            } else {
                vec![live.clone(), dead.clone()]
            };
            let router = Router::new(addrs, Vec::new(), fast_config(1, 4));
            // Find a problem owned by shard 0 so the scenario is forced.
            let ring = HashRing::new(2);
            let problem = (0..100)
                .map(|i| format!("p{i}"))
                .find(|p| ring.owner(p, "") == 0)
                .expect("some key lands on shard 0");
            let (tx, rx) = mpsc::channel();
            router.submit(request(5, &problem), Box::new(move |line| tx.send(line).unwrap())).unwrap();
            let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let response: Response = serde_json::from_str(&line).unwrap();
            assert!(
                response.error.as_deref().unwrap_or("").contains("answered by survivor"),
                "the live shard must answer: {line}"
            );
            let report = router.report(0);
            if owner_is_dead {
                assert_eq!(report.failovers, 1, "successor served: counts as failover");
            } else {
                assert_eq!(report.failovers, 0, "owner served: no failover");
            }
        }
    }

    #[test]
    fn learns_are_replicated_to_owner_and_successor() {
        let addrs = vec![fake_shard("a"), fake_shard("b")];
        let router = Router::new(addrs, Vec::new(), fast_config(1, 4));
        let mut learn = request(3, "some_problem");
        learn.learn = Some(true);
        let (tx, rx) = mpsc::channel();
        router.submit(learn, Box::new(move |line| tx.send(line).unwrap())).unwrap();
        rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let report = router.report(0);
        assert_eq!(report.forwarded, 2, "learn must reach both replicas");
        assert_eq!(report.replicated_learns, 1);
        assert!(report.upstreams.iter().all(|u| u.forwarded == 1), "{report:?}");
    }

    #[test]
    fn breaker_opens_after_repeated_failures_and_skips_the_dead_shard() {
        let config = RouterConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            ..fast_config(1, 8)
        };
        let router = Router::new(vec!["127.0.0.1:1".to_owned()], Vec::new(), config);
        for id in 0..3 {
            let (tx, rx) = mpsc::channel();
            router.submit(request(id, "p"), Box::new(move |line| tx.send(line).unwrap())).unwrap();
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        let report = router.report(0);
        assert_eq!(report.upstreams[0].breaker, "open", "{report:?}");
        assert!(report.upstreams[0].consecutive_failures >= 2);
    }

    #[test]
    fn metrics_dumps_survive_unprobeable_upstreams() {
        let addrs = vec![fake_shard("metrics-shard")];
        let catalog = vec![("derivatives".to_owned(), "minipy".to_owned())];
        let router = Router::new(addrs, catalog, fast_config(1, 4));
        let (tx, rx) = mpsc::channel();
        router.submit(request(1, "derivatives"), Box::new(move |line| tx.send(line).unwrap())).unwrap();
        rx.recv_timeout(Duration::from_secs(30)).unwrap();

        // The fake shard answers the `{"metrics":true}` probe with a plain
        // error response, not a dump: aggregation must degrade to the
        // router's own fleet counters instead of failing the request.
        let line = router.metrics_line(3);
        let dump: MetricsDump = serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 3);
        let forwarded =
            dump.counters.iter().find(|c| c.name == "clara_router_forwarded_total").expect("fleet counter");
        assert!(forwarded.value >= 1, "{forwarded:?}");
        assert!(
            dump.counters.iter().any(|c| c.name == "clara_router_upstream_forwarded_total"),
            "per-upstream counters present"
        );

        let text = router.metrics_text();
        assert!(text.contains("# TYPE clara_router_forwarded_total counter"), "{text}");
    }
}
