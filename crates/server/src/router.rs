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
//!
//! The router counts in a [`Registry`] of its own: per-upstream forwards,
//! errors, retries and `clara_forward_duration_us`, plus failovers,
//! replicated learns, replication errors and sheds. Breaker states are
//! gauges set just before each [`Router::stats_dump`]; `/metrics` adds
//! every shard's dump to it ([`Router::metrics_dump`]).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clara_core::timing::{Stage, StageTimer};
use serde::Deserialize;

use crate::obs::{self, Counter, Histogram, MetricsDump, Registry};
use crate::pool::{admission_bound, PoolClosed, TrySubmitError, WorkerPool};
use crate::protocol::{render_response, Request, Response};
use crate::retry::{BreakerState, CircuitBreaker, RetryPolicy, SplitMix64};
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
    /// `clara_router_forwarded_total{upstream}`: successful exchanges.
    forwarded: Arc<Counter>,
    /// `clara_router_upstream_errors_total{upstream}`: requests this shard
    /// failed after every retry.
    errors: Arc<Counter>,
    /// `clara_router_retries_total{upstream}`: re-attempts beyond each
    /// first try.
    retries: Arc<Counter>,
    /// `clara_forward_duration_us{upstream}`.
    duration: Arc<Histogram>,
}

impl Upstream {
    fn new(addr: String, config: &RouterConfig, registry: &Registry) -> Upstream {
        let labels = [("upstream", addr.as_str())];
        Upstream {
            idle: Mutex::new(Vec::new()),
            breaker: CircuitBreaker::new(config.breaker_threshold, config.breaker_cooldown),
            forwarded: registry.counter("clara_router_forwarded_total", &labels),
            errors: registry.counter("clara_router_upstream_errors_total", &labels),
            retries: registry.counter("clara_router_retries_total", &labels),
            duration: registry.histogram("clara_forward_duration_us", &labels),
            addr,
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

    /// One exchange over a pooled (or fresh) connection whose answer line
    /// must parse as a `T`. The connection returns to the pool only after a
    /// clean round trip; any error — an answer the fleet cannot parse (e.g.
    /// injected garbage) included — discards it, so the next attempt dials
    /// fresh.
    fn call<T: Deserialize>(
        &self,
        line: &str,
        timeout: Duration,
        pool_cap: usize,
    ) -> io::Result<(String, T)> {
        let timeout = timeout.max(Duration::from_millis(1));
        let mut conn = match self.checkout() {
            Some(conn) => conn,
            None => BufReader::new(connect(&self.addr, timeout)?),
        };
        conn.get_ref().set_read_timeout(Some(timeout))?;
        conn.get_ref().set_write_timeout(Some(timeout))?;
        let answer = exchange(&mut conn, line)?;
        let parsed = serde_json::from_str(&answer).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("unparseable upstream answer: {e}"))
        })?;
        self.checkin(conn, pool_cap);
        Ok((answer, parsed))
    }
}

type RouterJob = (Request, Box<dyn FnOnce(String) + Send>);

/// A forwarding router over a fleet of shard processes.
pub struct Router {
    forwarder: Arc<Forwarder>,
    registry: Registry,
    /// `clara_router_shed_total`: requests shed at the front door.
    shed: Arc<Counter>,
    pool: WorkerPool<RouterJob>,
}

/// Everything a forwarding worker needs, shared across workers.
struct Forwarder {
    upstreams: Vec<Upstream>,
    ring: HashRing,
    /// problem name → canonical language tag, from the problem catalog.
    catalog: HashMap<String, String>,
    /// `clara_router_failovers_total`: requests served by a ring successor
    /// after the owner failed.
    failovers: Arc<Counter>,
    /// `clara_router_replicated_learns_total`: learns written to a second
    /// replica.
    replicated_learns: Arc<Counter>,
    /// `clara_router_replication_errors_total`: learns whose replica write
    /// failed (a replica still answered).
    replication_errors: Arc<Counter>,
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
        let registry = Registry::default();
        registry.gauge("clara_router_shards", &[]).set(addrs.len() as i64);
        let forwarder = Arc::new(Forwarder {
            ring: HashRing::new(addrs.len()),
            upstreams: addrs.into_iter().map(|addr| Upstream::new(addr, &config, &registry)).collect(),
            catalog: catalog.into_iter().collect(),
            failovers: registry.counter("clara_router_failovers_total", &[]),
            replicated_learns: registry.counter("clara_router_replicated_learns_total", &[]),
            replication_errors: registry.counter("clara_router_replication_errors_total", &[]),
            config,
        });
        let bound = admission_bound(config.workers, config.queue_capacity);
        let worker = Arc::clone(&forwarder);
        let pool = WorkerPool::new(config.workers, bound, move |(request, reply): RouterJob| {
            reply(worker.handle(request));
        });
        obs::install_stage_metrics();
        let shed = registry.counter("clara_router_shed_total", &[]);
        Router { forwarder, registry, shed, pool }
    }

    /// The shard index owning `request`'s problem×language key. The
    /// catalog's canonical tag wins over the client's alias — shards load
    /// their indexes under canonical tags, and router and shard must hash
    /// identical keys.
    pub fn route(&self, request: &Request) -> usize {
        self.forwarder.replicas(request)[0]
    }

    /// The replica set for `request`'s key: owner first, then its distinct
    /// ring successors.
    pub fn replicas(&self, request: &Request) -> Vec<usize> {
        self.forwarder.replicas(request)
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
        self.shed.inc();
    }

    /// The router process's stats dump (`/stats`, `/health`, NDJSON
    /// `stats` probes): its registry, with every upstream's breaker state
    /// set just now, merged with the global stage histograms. A breaker is
    /// one-hot `clara_router_breaker{upstream,state}` plus its consecutive
    /// failures in `clara_router_breaker_failures{upstream}`.
    pub fn stats_dump(&self, id: u64) -> MetricsDump {
        for upstream in &self.forwarder.upstreams {
            let current = upstream.breaker.state();
            for state in [BreakerState::Closed, BreakerState::HalfOpen, BreakerState::Open] {
                self.registry
                    .gauge("clara_router_breaker", &[("upstream", &upstream.addr), ("state", state.name())])
                    .set(i64::from(state == current));
            }
            self.registry
                .gauge("clara_router_breaker_failures", &[("upstream", &upstream.addr)])
                .set(i64::from(upstream.breaker.consecutive_failures()));
        }
        self.registry.process_dump(id)
    }

    /// The fleet-level metrics view (`GET /metrics`, NDJSON `metrics`
    /// probes): [`Router::stats_dump`] with every reachable shard's dump
    /// merged in (histograms add bucket-wise — the shared fixed layout
    /// makes the merge exact). Unreachable shards are logged and skipped;
    /// the view stays useful in a degraded fleet.
    pub fn metrics_dump(&self, id: u64) -> MetricsDump {
        let mut dump = self.stats_dump(id);
        // Each probe gets the configured per-shard timeout, clipped to
        // whatever is left of the total budget; once the budget is spent
        // the remaining shards are skipped outright. Without the cap a
        // fleet of N wedged shards held every scrape for N × timeout.
        let probe_start = Instant::now();
        let config = &self.forwarder.config;
        for upstream in &self.forwarder.upstreams {
            let remaining = config.metrics_probe_budget.saturating_sub(probe_start.elapsed());
            let timeout = config.metrics_probe_timeout.min(remaining);
            if timeout.is_zero() {
                obs::log("warn", "metrics_probe_budget_exhausted")
                    .str_field("upstream", &upstream.addr)
                    .emit();
                continue;
            }
            let probe = r#"{"id":0,"metrics":true}"#;
            match upstream.call::<MetricsDump>(probe, timeout, config.pool_per_upstream) {
                Ok((_, shard_dump)) => dump.merge(&shard_dump),
                Err(e) => obs::log("warn", "metrics_probe_failed")
                    .str_field("upstream", &upstream.addr)
                    .str_field("error", &e.to_string())
                    .emit(),
            }
        }
        dump
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
    /// See [`Router::replicas`].
    fn replicas(&self, request: &Request) -> Vec<usize> {
        self.ring.owners(&request.problem, canonical_lang(&self.catalog, request), REPLICATION_FACTOR)
    }

    /// Forwards one request to its replica set and renders the response
    /// line. Reads try the owner then fail over to successors; learns are
    /// written to every replica. The router is an ingress: a request
    /// arriving without a trace id is assigned one here, and the id rides
    /// the forwarded line so the owning shard (and any failover successor)
    /// logs the same id.
    fn handle(&self, mut request: Request) -> String {
        let trace = obs::trace_or_mint(request.trace.as_deref());
        request.trace = Some(trace.clone());
        let replicas = self.replicas(&request);
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
                        self.failovers.inc();
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
                        self.replicated_learns.inc();
                    }
                    if first_success.is_none() {
                        if rank > 0 {
                            self.failovers.inc();
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
                        self.replication_errors.inc();
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
                upstream.retries.inc();
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
            match upstream.call::<Response>(line, attempt_timeout, self.config.pool_per_upstream) {
                Ok((response, _)) => {
                    upstream.breaker.on_success();
                    upstream.forwarded.inc();
                    upstream.duration.record(exchange_timer.elapsed().as_micros() as u64);
                    return Ok(response);
                }
                Err(e) => {
                    upstream.breaker.on_failure();
                    last_error = Some(e);
                }
            }
        }
        upstream.errors.inc();
        Err(last_error.unwrap_or_else(|| io::Error::other("forwarding failed")))
    }
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
pub(crate) mod tests {
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

    pub(crate) fn fast_config(workers: usize, queue_capacity: usize) -> RouterConfig {
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
    pub(crate) fn fake_shard(name: &'static str) -> String {
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
        let dump = router.metrics_dump(7);
        let elapsed = start.elapsed();
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

        let report = router.stats_dump(7);
        assert_eq!(report.id, 7);
        assert_eq!(report.gauge("clara_router_shards", &[]), Some(2), "a router's dump names its fleet size");
        assert_eq!(report.counter("clara_router_forwarded_total", &[]), 2);
        for family in ["clara_router_upstream_errors_total", "clara_router_failovers_total"] {
            assert!(report.counters.iter().any(|c| c.name == family), "{family} is exported");
            assert_eq!(report.counter(family, &[]), 0, "{family}");
        }
        assert_eq!(
            report.gauge("clara_router_breaker", &[("state", "closed")]),
            Some(2),
            "every breaker closed"
        );
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
        let report = router.stats_dump(0);
        assert_eq!(report.counter("clara_router_upstream_errors_total", &[]), 1);
        assert!(
            report.counter("clara_router_retries_total", &[]) >= 1,
            "a failed exchange must be retried before giving up"
        );
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
            let failovers = router.stats_dump(0).counter("clara_router_failovers_total", &[]);
            if owner_is_dead {
                assert_eq!(failovers, 1, "successor served: counts as failover");
            } else {
                assert_eq!(failovers, 0, "owner served: no failover");
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
        let report = router.stats_dump(0);
        assert_eq!(report.counter("clara_router_forwarded_total", &[]), 2, "learn must reach both replicas");
        assert_eq!(report.counter("clara_router_replicated_learns_total", &[]), 1);
        let per_upstream: Vec<u64> = report
            .counters
            .iter()
            .filter(|c| c.name == "clara_router_forwarded_total")
            .map(|c| c.value)
            .collect();
        assert_eq!(per_upstream, vec![1, 1], "{report:?}");
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
        let report = router.stats_dump(0);
        assert_eq!(report.gauge("clara_router_breaker", &[("state", "open")]), Some(1), "{report:?}");
        assert!(report.gauge("clara_router_breaker_failures", &[]) >= Some(2));
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
        let dump = router.metrics_dump(3);
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 3);
        let forwarded = dump.counter("clara_router_forwarded_total", &[]);
        assert!(forwarded >= 1, "{dump:?}");
        assert!(
            dump.counters
                .iter()
                .any(|c| c.name == "clara_router_forwarded_total"
                    && c.labels.iter().any(|l| l.k == "upstream")),
            "per-upstream counters present"
        );

        let text = crate::obs::render_prometheus(&router.metrics_dump(0));
        assert!(text.contains("# TYPE clara_router_forwarded_total counter"), "{text}");
    }
}
