//! Serving throughput: the feedback service under Zipf-style MOOC traffic,
//! in-process and across a multi-process shard fleet.
//!
//! Part one is the single-process trajectory benchmark from PR 3: build the
//! per-problem cluster indexes cold, persist them, warm-load them back
//! (asserting byte-identical feedback), then replay a deterministic
//! duplicate-heavy workload through the worker pool and report requests/sec,
//! p50/p95 latency and the cache hit rate.
//!
//! Part two is the fleet benchmark for the PR 6 serving layer: spawn real
//! `clara-cli serve --listen … --shard i/N` processes for N ∈ {1, 2, 4},
//! partition a mixed-language Zipf workload across them with the same
//! consistent-hash ring the fleet uses, replay it over TCP with closed-loop
//! clients, and report per-shard and aggregate req/s plus latency
//! percentiles. In `--smoke` mode the JSON report is mirrored to stdout and
//! `BENCH_serve.json`; CI guards the aggregate req/s against the committed
//! baseline.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clara_bench::{emit_json_report, median_f64, paper_counts, RunMode};
use clara_core::ClaraConfig;
use clara_corpus::mooc::all_mooc_problems;
use clara_corpus::{
    all_minic_problems, duplicate_fraction, generate_dataset, generate_minic_dataset, generate_workload,
    partition_workload, Dataset, DatasetConfig, Problem, WorkloadConfig, WorkloadRequest,
};
use clara_model::frontend::Lang;
use clara_server::{
    ClusterStore, FeedbackService, HashRing, MetricsDump, Request, Response, Server, ServerConfig,
    ServiceConfig, Status,
};
use serde::Serialize;

#[derive(Serialize)]
struct ServeReport {
    corpus: String,
    problems: usize,
    requests: usize,
    /// Logical cores of the benchmark machine (scaling context: on one core
    /// a 2-shard fleet cannot beat one shard).
    cores: usize,
    /// End-to-end requests per second through the in-process worker pool.
    requests_per_sec: f64,
    /// Per-request latency percentiles (enqueue → response), milliseconds.
    p50_latency_ms: f64,
    p95_latency_ms: f64,
    /// Fraction of requests answered from the structural-hash cache.
    cache_hit_rate: f64,
    /// Upper bound on the cache hit rate: fraction of the workload that
    /// repeats an earlier submission verbatim.
    workload_duplicate_fraction: f64,
    /// Structural-dedup rate of the underlying datasets (what a stored
    /// corpus could be deduplicated to).
    dataset_dedup_rate: f64,
    /// Cold index bring-up: cluster the full correct pool.
    cold_build_seconds: f64,
    /// Warm index bring-up: load the persisted index (re-analyses only the
    /// cluster representatives).
    warm_load_seconds: f64,
    /// cold_build_seconds / warm_load_seconds.
    warm_speedup: f64,
    /// Whether warm and cold indexes produced byte-identical feedback on
    /// every probe attempt (the persistence acceptance criterion).
    warm_cold_identical: bool,
    /// Response status counts over the workload.
    correct: u64,
    repaired: u64,
    no_repair: u64,
    errors: u64,
    /// Workload requests whose source fails frontend analysis (the corpus
    /// deliberately includes submissions using constructs outside the
    /// modelled subset, e.g. MiniC attempts defining helper functions).
    /// Every `errors` response must come from this population and vice
    /// versa; anything else would be a serving bug, so the replay asserts
    /// `errors == unanalysable_requests`.
    unanalysable_requests: u64,
    /// Jobs lost to worker panics (must be 0).
    worker_panics: u64,
    /// Multi-process fleet runs (empty when `clara-cli` was not found next
    /// to this benchmark binary).
    shard_scaling: Vec<ShardScalePoint>,
    /// Aggregate req/s at 2 shards over 1 shard (0 when not measured).
    scaling_2x: f64,
    /// Per-stage latency quantiles from the process-global stage histograms
    /// (`clara_stage_duration_us`), measured over the in-process replay.
    latency_breakdown: Vec<StageLatency>,
}

/// Microsecond latency summary of one pipeline stage.
#[derive(Serialize)]
struct StageLatency {
    stage: String,
    count: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
    mean_us: f64,
}

/// One fleet size of the multi-process benchmark.
#[derive(Serialize)]
struct ShardScalePoint {
    shards: usize,
    requests: usize,
    /// Total requests / wall-clock of the parallel replay.
    aggregate_rps: f64,
    p50_latency_ms: f64,
    p95_latency_ms: f64,
    per_shard: Vec<ShardSide>,
}

/// Per-shard slice of a fleet run.
#[derive(Serialize)]
struct ShardSide {
    shard: String,
    addr: String,
    requests: usize,
    /// This shard's requests / its own replay elapsed.
    rps: f64,
    cache_hit_rate: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let index = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[index]
}

/// The mixed-language problem set: both frontends must appear so the fleet
/// splits MiniPy and MiniC indexes across shards.
///
/// The smoke subset is one problem per shard of a 2-shard ring, the second
/// of the other frontend, so that the 2-shard fleet run loads both shard
/// processes (of the first two problems of each frontend, three hash to
/// the same shard). The chaos scenario keeps those four problems.
fn select_problems(mode: RunMode) -> Vec<Problem> {
    if mode.chaos {
        let mut problems: Vec<Problem> = all_mooc_problems().into_iter().take(2).collect();
        problems.extend(all_minic_problems().into_iter().take(2));
        problems
    } else if mode.smoke {
        let ring = HashRing::new(2);
        let candidates: Vec<Problem> = all_mooc_problems().into_iter().chain(all_minic_problems()).collect();
        let owned_by = |shard: usize, other_than: Option<Lang>| {
            candidates
                .iter()
                .find(|p| ring.owner(p.name, p.lang.as_str()) == shard && Some(p.lang) != other_than)
                .cloned()
                .expect("every shard of a 2-shard ring owns a problem")
        };
        let first = owned_by(0, None);
        let second = owned_by(1, Some(first.lang));
        vec![first, second]
    } else {
        let mut problems = mode.problems(all_mooc_problems());
        problems.extend(all_minic_problems());
        problems
    }
}

fn build_dataset(problem: &Problem, config: DatasetConfig) -> Dataset {
    match problem.lang {
        Lang::MiniPy => generate_dataset(problem, config),
        Lang::MiniC => generate_minic_dataset(problem, config),
    }
}

/// `clara-cli` next to the running benchmark binary (both live in the same
/// cargo target directory; bench binaries may sit one level down in
/// `deps/`).
fn find_clara_cli() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join("clara-cli");
    candidate.is_file().then_some(candidate)
}

struct ShardProc {
    child: Child,
    addr: String,
}

/// Extra knobs of a spawned serve process (the chaos scenario uses all of
/// them; the plain fleet benchmark uses none).
#[derive(Default, Clone)]
struct SpawnOptions {
    /// Bind this concrete address instead of an ephemeral port (a restarted
    /// shard must come back on the address the router holds).
    listen: Option<String>,
    /// `--faults` spec armed on the process.
    faults: Option<String>,
    /// Allow online learning (`--no-learn` is passed otherwise).
    learn: bool,
}

/// Spawns one serve process and waits for its NDJSON endpoint line.
/// Returns `None` when the process exits before reporting an endpoint
/// (e.g. its port is still in TIME_WAIT after a kill) — callers may retry.
fn try_spawn_serve(
    cli: &Path,
    role_args: &[String],
    problems: &[String],
    options: &SpawnOptions,
) -> Option<ShardProc> {
    let listen = options.listen.clone().unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let mut command = Command::new(cli);
    command
        .arg("serve")
        .args(["--listen", &listen])
        .args(role_args)
        .args(["--workers", "2", "--queue", "64"])
        .args(problems)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if !options.learn {
        command.arg("--no-learn");
    }
    if let Some(spec) = &options.faults {
        command.args(["--faults", spec]);
    }
    let mut child = command.spawn().expect("spawning clara-cli serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = channel::<String>();
    std::thread::spawn(move || {
        // Forward the endpoint line, then keep draining so the child never
        // blocks on a full stderr pipe.
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("(ndjson endpoint on ") {
                let _ = tx.send(rest.trim_end_matches(')').to_owned());
            }
        }
    });
    for _ in 0..1200 {
        match rx.recv_timeout(Duration::from_millis(250)) {
            Ok(addr) => return Some(ShardProc { child, addr }),
            Err(_) => {
                if let Ok(Some(_status)) = child.try_wait() {
                    return None; // bind failed (or the process died early)
                }
                // Still building its indexes; keep waiting (index builds
                // are slow, not absent).
            }
        }
    }
    let _ = child.kill();
    panic!("serve process never reported its NDJSON endpoint");
}

/// Spawns one shard process and waits for its NDJSON endpoint line.
fn spawn_shard(cli: &Path, index: usize, count: usize, problems: &[String], pool_size: usize) -> ShardProc {
    spawn_shard_with(cli, index, count, problems, pool_size, &SpawnOptions::default())
}

fn spawn_shard_with(
    cli: &Path,
    index: usize,
    count: usize,
    problems: &[String],
    pool_size: usize,
    options: &SpawnOptions,
) -> ShardProc {
    let role = vec![
        "--shard".to_owned(),
        format!("{index}/{count}"),
        "--pool-size".to_owned(),
        pool_size.to_string(),
    ];
    // A freshly killed shard's port can linger in TIME_WAIT; rebinding it
    // deserves a few patient attempts before giving up.
    for _ in 0..40 {
        if let Some(proc) = try_spawn_serve(cli, &role, problems, options) {
            return proc;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    panic!("shard {index}/{count} never came up on {:?}", options.listen);
}

/// Spawns a router process over the given shard addresses.
fn spawn_router(cli: &Path, shard_addrs: &[String]) -> ShardProc {
    let role = vec!["--router".to_owned(), "--shards".to_owned(), shard_addrs.join(",")];
    try_spawn_serve(cli, &role, &[], &SpawnOptions::default()).expect("router process comes up")
}

/// Replays `chunk` over one closed-loop TCP connection; returns per-request
/// latencies in milliseconds.
fn replay_chunk(addr: &str, chunk: &[WorkloadRequest]) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connecting to shard");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let mut latencies = Vec::with_capacity(chunk.len());
    let mut line = String::new();
    for request in chunk {
        let payload = serde_json::to_string(&Request {
            id: request.id as u64,
            problem: request.problem.clone(),
            lang: Some(request.lang.clone()),
            source: request.source.clone(),
            learn: None,
            trace: None,
        })
        .expect("request serializes");
        let sent = Instant::now();
        writeln!(writer, "{payload}").expect("writing request");
        line.clear();
        reader.read_line(&mut line).expect("reading response");
        let _: Response = serde_json::from_str(line.trim()).expect("well-formed response");
        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

/// One `{"stats":true}` probe against a shard or a router.
fn probe_stats(addr: &str) -> Option<MetricsDump> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writeln!(writer, r#"{{"id":0,"stats":true}}"#).ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    serde_json::from_str(line.trim()).ok()
}

/// The fraction of a service's requests answered from its result cache.
fn cache_hit_rate(stats: &MetricsDump) -> f64 {
    stats.counter("clara_cache_hits_total", &[]) as f64
        / stats.counter("clara_requests_total", &[]).max(1) as f64
}

/// A chaos-aware NDJSON client: reconnects on broken exchanges, retries
/// transient error responses with a small backoff, and counts what it had
/// to absorb. This is what a sane fleet client looks like, and it is the
/// measurement instrument for "bounded client-visible error rate".
struct ResilientClient {
    addr: String,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    /// Extra attempts beyond each request's first.
    retries: u64,
    /// Requests that stayed failed after the whole retry budget.
    errors: u64,
}

impl ResilientClient {
    fn new(addr: &str) -> ResilientClient {
        ResilientClient { addr: addr.to_owned(), conn: None, retries: 0, errors: 0 }
    }

    fn connect(&mut self) -> Option<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).ok()?;
            stream.set_nodelay(true).ok()?;
            stream.set_read_timeout(Some(Duration::from_secs(60))).ok()?;
            let reader = BufReader::new(stream.try_clone().ok()?);
            self.conn = Some((stream, reader));
        }
        self.conn.as_mut()
    }

    fn exchange_once(&mut self, payload: &str) -> Option<Response> {
        let (writer, reader) = self.connect()?;
        if writeln!(writer, "{payload}").is_err() {
            self.conn = None;
            return None;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => match serde_json::from_str::<Response>(line.trim()) {
                Ok(response) => Some(response),
                Err(_) => {
                    // A garbled line poisons the stream framing; reconnect.
                    self.conn = None;
                    None
                }
            },
            _ => {
                self.conn = None;
                None
            }
        }
    }

    /// Sends one request with up to `attempts` tries; `None` only after the
    /// whole budget failed (counted in `errors`).
    fn call(&mut self, request: &Request, attempts: u32) -> Option<Response> {
        let payload = serde_json::to_string(request).expect("request serializes");
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(Duration::from_millis(25 * u64::from(attempt)));
            }
            // A broken exchange (`None`) reconnects and retries; a reply is
            // returned unless it names a transient fleet condition.
            if let Some(response) = self.exchange_once(&payload) {
                let transient = response.status == Status::Error
                    && response.error.as_deref().is_some_and(|e| {
                        e.contains("unreachable")
                            || e.contains("overloaded")
                            || e.contains("shutting down")
                            || e.contains("circuit breaker")
                            || e.contains("timed out")
                    });
                if !transient {
                    return Some(response);
                }
            }
        }
        self.errors += 1;
        None
    }
}

/// The JSON contract of the `--chaos` run (`BENCH_serve_chaos.json`): a
/// three-shard fleet behind a router, deterministic net-layer faults on
/// every shard, one owner shard killed and restarted mid-workload.
#[derive(Serialize)]
struct ChaosReport {
    corpus: String,
    shards: usize,
    fault_spec: String,
    /// Feedback requests replayed through the router (all phases).
    requests: usize,
    /// Client-side extra attempts absorbed by retry/reconnect.
    client_retries: u64,
    /// Requests still failed after the client's whole retry budget.
    client_errors: u64,
    /// `client_errors / requests`.
    error_rate: f64,
    /// Learn requests sent / acknowledged (`learned: true` responses);
    /// `lost_learns` must be 0 — replication's acceptance criterion.
    learn_attempts: usize,
    learn_acks: usize,
    lost_learns: usize,
    /// Concurrent duplicate novel submissions in the single-flight probe
    /// and how many of the `N-1` followers were answered without a
    /// duplicate repair (coalesced in flight or served from cache).
    coalesce_probe_requests: usize,
    coalesced: u64,
    coalesce_cache_hits: u64,
    coalescing_hit_rate: f64,
    /// The killed owner shard and how long until the first successful
    /// response for one of its problems (served by the ring successor).
    killed_shard: String,
    recovery_seconds: f64,
    /// Successful responses for the dead shard's problems while it was down.
    served_during_outage: usize,
    /// Router counters at the end of the run.
    router_forwarded: u64,
    router_retries: u64,
    router_failovers: u64,
    router_replicated_learns: u64,
    router_upstream_errors: u64,
    shed_requests: u64,
    /// Worker panics summed over every surviving process (must be 0).
    worker_panics: u64,
}

const CLIENTS_PER_SHARD: usize = 2;

/// Runs the workload against a fleet of `shards` real serve processes.
fn run_fleet(
    cli: &Path,
    shards: usize,
    problem_names: &[String],
    pool_size: usize,
    workload: &[WorkloadRequest],
) -> ShardScalePoint {
    let ring = HashRing::new(shards);
    let partitions = partition_workload(workload, shards, |r| ring.owner(&r.problem, &r.lang));

    let procs: Vec<ShardProc> =
        (0..shards).map(|i| spawn_shard(cli, i, shards, problem_names, pool_size)).collect();

    // Closed-loop replay: every shard serves its partition concurrently,
    // split over a few connections each.
    let replay_start = Instant::now();
    let mut handles = Vec::new();
    for (shard, partition) in partitions.iter().enumerate() {
        if partition.is_empty() {
            continue;
        }
        let addr = procs[shard].addr.clone();
        let chunks: Vec<Vec<WorkloadRequest>> = (0..CLIENTS_PER_SHARD)
            .map(|c| partition.iter().skip(c).step_by(CLIENTS_PER_SHARD).cloned().collect())
            .collect();
        handles.push(std::thread::spawn(move || {
            let shard_start = Instant::now();
            let mut clients = Vec::new();
            for chunk in chunks {
                let addr = addr.clone();
                clients.push(std::thread::spawn(move || replay_chunk(&addr, &chunk)));
            }
            let latencies: Vec<f64> =
                clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
            (shard, latencies, shard_start.elapsed().as_secs_f64())
        }));
    }
    let mut all_latencies: Vec<f64> = Vec::with_capacity(workload.len());
    let mut per_shard_elapsed = vec![0.0f64; shards];
    for handle in handles {
        let (shard, latencies, elapsed) = handle.join().expect("shard replay thread");
        per_shard_elapsed[shard] = elapsed;
        all_latencies.extend(latencies);
    }
    let wall = replay_start.elapsed().as_secs_f64();

    let per_shard: Vec<ShardSide> = procs
        .iter()
        .enumerate()
        .map(|(i, proc)| {
            let stats = probe_stats(&proc.addr);
            ShardSide {
                shard: format!("{i}/{shards}"),
                addr: proc.addr.clone(),
                requests: partitions[i].len(),
                rps: if per_shard_elapsed[i] > 0.0 {
                    partitions[i].len() as f64 / per_shard_elapsed[i]
                } else {
                    0.0
                },
                cache_hit_rate: stats.as_ref().map_or(0.0, cache_hit_rate),
            }
        })
        .collect();

    // stdin EOF is the shutdown signal.
    for mut proc in procs {
        drop(proc.child.stdin.take());
        let _ = proc.child.wait();
    }

    all_latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    assert_eq!(all_latencies.len(), workload.len(), "every fleet request must be answered");
    ShardScalePoint {
        shards,
        requests: workload.len(),
        aggregate_rps: workload.len() as f64 / wall.max(1e-9),
        p50_latency_ms: median_f64(all_latencies.clone()),
        p95_latency_ms: percentile(&all_latencies, 0.95),
        per_shard,
    }
}

/// A server's `clara_worker_panics` gauge. A dump without it fails the run
/// rather than reading as zero panics.
fn worker_panics(dump: &MetricsDump) -> u64 {
    dump.gauge("clara_worker_panics", &[])
        .expect("a server's dump carries clara_worker_panics")
        .unsigned_abs()
}

/// Sums a per-shard figure over every reachable shard.
fn sum_shard_stats(addrs: &[String], pick: impl Fn(&MetricsDump) -> u64) -> u64 {
    addrs.iter().filter_map(|a| probe_stats(a)).map(|s| pick(&s)).sum()
}

/// The `--chaos` scenario: a 3-shard fleet behind a router, deterministic
/// net-layer faults on every shard, one owner shard killed and restarted
/// mid-workload. Asserts the PR's acceptance criteria directly: zero lost
/// learns, failover to the ring successor within the retry budget, bounded
/// client-visible error rate, and effective single-flight coalescing.
fn run_chaos(mode: RunMode) {
    const SHARDS: usize = 3;
    const FAULT_SPEC: &str = "seed=11,close=0.02,garble=0.03,delay=0.1,delay_ms=5";
    const LEARNS: usize = 8;
    const COALESCE_CLIENTS: usize = 8;
    let request_budget = if mode.smoke { 120 } else { 600 };

    let Some(cli) = find_clara_cli() else {
        eprintln!("chaos: clara-cli not found next to this binary — build it first");
        std::process::exit(1);
    };

    let corpus_label = format!("chaos fleet: {SHARDS} shards + router, faults {FAULT_SPEC}");
    println!("Serve chaos — fault-injected fleet with shard kill/restart ({corpus_label}):");

    let problems = select_problems(mode);
    let datasets: Vec<Dataset> = problems
        .iter()
        .map(|problem| {
            build_dataset(
                problem,
                DatasetConfig {
                    correct_count: 20,
                    incorrect_count: 6,
                    seed: 0x53E5,
                    duplicate_rate: 0.3,
                    ..DatasetConfig::default()
                },
            )
        })
        .collect();
    let workload = generate_workload(
        &datasets,
        WorkloadConfig { requests: request_budget, ..WorkloadConfig::default() },
    );
    // Novel sources the main workload never saw: correct ones to learn,
    // an incorrect one for the single-flight probe.
    let extra: Vec<Dataset> = problems
        .iter()
        .map(|problem| {
            build_dataset(
                problem,
                DatasetConfig {
                    correct_count: LEARNS,
                    incorrect_count: 2,
                    seed: 0xC0A1,
                    ..DatasetConfig::default()
                },
            )
        })
        .collect();

    let problem_names: Vec<String> = problems.iter().map(|p| p.name.to_owned()).collect();
    let shard_options = SpawnOptions { listen: None, faults: Some(FAULT_SPEC.to_owned()), learn: true };
    println!("(spawning {SHARDS} fault-injected shard(s) and a router)");
    let mut shards: Vec<ShardProc> =
        (0..SHARDS).map(|i| spawn_shard_with(&cli, i, SHARDS, &problem_names, 12, &shard_options)).collect();
    let shard_addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let router = spawn_router(&cli, &shard_addrs);

    let ring = HashRing::new(SHARDS);
    let victim = ring.owner(problems[0].name, problems[0].lang.as_str());
    let dead_owned: Vec<&Problem> =
        problems.iter().filter(|p| ring.owner(p.name, p.lang.as_str()) == victim).collect();

    let mut client = ResilientClient::new(&router.addr);
    let third = workload.len() / 3;
    let mut next_id = 1_000_000u64;
    let replay = |client: &mut ResilientClient, slice: &[WorkloadRequest]| -> usize {
        let mut answered = 0usize;
        for request in slice {
            let ok = client
                .call(
                    &Request {
                        id: request.id as u64,
                        problem: request.problem.clone(),
                        lang: Some(request.lang.clone()),
                        source: request.source.clone(),
                        learn: None,
                        trace: None,
                    },
                    5,
                )
                .is_some();
            answered += usize::from(ok);
        }
        answered
    };

    // Phase A — healthy fleet: first third of the workload, then the learns
    // (each replicated by the router to owner AND ring successor).
    println!("(phase A: healthy replay + {LEARNS} learns per problem's extra pool)");
    replay(&mut client, &workload[..third]);
    let mut learn_attempts = 0usize;
    let mut learn_acks = 0usize;
    let mut learned_sources: Vec<(String, String, String)> = Vec::new();
    for (problem, dataset) in problems.iter().zip(&extra) {
        for attempt in dataset.correct.iter().take(LEARNS / problems.len().max(1) + 1) {
            learn_attempts += 1;
            next_id += 1;
            let response = client.call(
                &Request {
                    id: next_id,
                    problem: problem.name.to_owned(),
                    lang: Some(problem.lang.as_str().to_owned()),
                    source: attempt.source.clone(),
                    learn: Some(true),
                    trace: None,
                },
                6,
            );
            if response.is_some_and(|r| r.status == Status::Correct) {
                learn_acks += 1;
                learned_sources.push((
                    problem.name.to_owned(),
                    problem.lang.as_str().to_owned(),
                    attempt.source.clone(),
                ));
            }
        }
    }

    // Single-flight probe: concurrent duplicates of one novel incorrect
    // submission must share one repair (coalesced or cache-hit followers).
    println!("(coalescing probe: {COALESCE_CLIENTS} concurrent duplicates of a novel submission)");
    let before_coalesced = sum_shard_stats(&shard_addrs, |s| s.counter("clara_coalesced_total", &[]));
    let before_hits = sum_shard_stats(&shard_addrs, |s| s.counter("clara_cache_hits_total", &[]));
    let probe_problem = &problems[0];
    let probe_source = extra[0]
        .incorrect
        .first()
        .map(|a| a.source.clone())
        .unwrap_or_else(|| extra[0].correct.last().expect("extra pool is non-empty").source.clone());
    let router_addr = router.addr.clone();
    let coalesce_threads: Vec<_> = (0..COALESCE_CLIENTS)
        .map(|i| {
            let addr = router_addr.clone();
            let problem = probe_problem.name.to_owned();
            let lang = probe_problem.lang.as_str().to_owned();
            let source = probe_source.clone();
            std::thread::spawn(move || {
                let mut client = ResilientClient::new(&addr);
                client
                    .call(
                        &Request {
                            id: 2_000_000 + i as u64,
                            problem,
                            lang: Some(lang),
                            source,
                            learn: None,
                            trace: None,
                        },
                        5,
                    )
                    .is_some()
            })
        })
        .collect();
    let coalesce_answered = coalesce_threads.into_iter().map(false_on_panic).filter(|&ok| ok).count();
    let coalesced =
        sum_shard_stats(&shard_addrs, |s| s.counter("clara_coalesced_total", &[])) - before_coalesced;
    let coalesce_cache_hits =
        sum_shard_stats(&shard_addrs, |s| s.counter("clara_cache_hits_total", &[])) - before_hits;
    let coalescing_hit_rate =
        (coalesced + coalesce_cache_hits) as f64 / (COALESCE_CLIENTS.saturating_sub(1)).max(1) as f64;

    // Kill the owner of the first problem; the ring successor holds the
    // replica and must serve its problems within the retry budget.
    println!(
        "(killing shard {victim}/{SHARDS} — owner of {})",
        dead_owned.iter().map(|p| p.name).collect::<Vec<_>>().join(", ")
    );
    let _ = shards[victim].child.kill();
    let _ = shards[victim].child.wait();
    let killed_at = Instant::now();
    next_id += 1;
    let recovery_probe = Request {
        id: next_id,
        problem: probe_problem.name.to_owned(),
        lang: Some(probe_problem.lang.as_str().to_owned()),
        source: datasets[0].correct[0].source.clone(),
        learn: None,
        trace: None,
    };
    let recovered = client.call(&recovery_probe, 8).is_some();
    let recovery_seconds = killed_at.elapsed().as_secs_f64();

    // Phase B — outage: second third of the workload against 2 live shards.
    println!("(phase B: replay during the outage)");
    let outage_slice = &workload[third..2 * third];
    let served_during_outage = replay(&mut client, outage_slice) + usize::from(recovered);

    // Restart the dead shard on the address the router still holds; its
    // breaker half-opens after the cooldown and the probe re-closes it.
    println!("(restarting shard {victim}/{SHARDS} on {})", shard_addrs[victim]);
    let restart_options = SpawnOptions {
        listen: Some(shard_addrs[victim].clone()),
        faults: Some(FAULT_SPEC.to_owned()),
        learn: true,
    };
    shards[victim] = spawn_shard_with(&cli, victim, SHARDS, &problem_names, 12, &restart_options);

    // Phase C — recovered fleet: the rest of the workload, then verify every
    // acknowledged learn is still served (the successor kept the replica).
    println!("(phase C: replay after restart + learn verification)");
    replay(&mut client, &workload[2 * third..]);
    let mut reread_failures = 0usize;
    for (problem, lang, source) in &learned_sources {
        next_id += 1;
        let response = client.call(
            &Request {
                id: next_id,
                problem: problem.clone(),
                lang: Some(lang.clone()),
                source: source.clone(),
                learn: None,
                trace: None,
            },
            6,
        );
        if !response.is_some_and(|r| r.status == Status::Correct) {
            reread_failures += 1;
        }
    }
    let lost_learns = (learn_attempts - learn_acks) + reread_failures;

    let router_report = probe_stats(&router.addr).unwrap_or_default();
    let router_counter = |name: &str| router_report.counter(name, &[]);
    let worker_panics = sum_shard_stats(&shard_addrs, worker_panics);
    let shard_shed = sum_shard_stats(&shard_addrs, |s| s.counter("clara_shed_total", &[]));
    let total_requests = workload.len() + learn_attempts + learned_sources.len() + COALESCE_CLIENTS + 1;
    let report = ChaosReport {
        corpus: corpus_label,
        shards: SHARDS,
        fault_spec: FAULT_SPEC.to_owned(),
        requests: total_requests,
        client_retries: client.retries,
        client_errors: client.errors + (COALESCE_CLIENTS - coalesce_answered) as u64,
        error_rate: (client.errors as f64 + (COALESCE_CLIENTS - coalesce_answered) as f64)
            / total_requests as f64,
        learn_attempts,
        learn_acks,
        lost_learns,
        coalesce_probe_requests: COALESCE_CLIENTS,
        coalesced,
        coalesce_cache_hits,
        coalescing_hit_rate,
        killed_shard: format!("{victim}/{SHARDS}"),
        recovery_seconds,
        served_during_outage,
        router_forwarded: router_counter("clara_router_forwarded_total"),
        router_retries: router_counter("clara_router_retries_total"),
        router_failovers: router_counter("clara_router_failovers_total"),
        router_replicated_learns: router_counter("clara_router_replicated_learns_total"),
        router_upstream_errors: router_counter("clara_router_upstream_errors_total"),
        shed_requests: router_counter("clara_router_shed_total") + shard_shed,
        worker_panics,
    };

    // Shut the fleet down before asserting, so failures don't leak children.
    let mut procs = shards;
    procs.push(router);
    for mut proc in procs {
        drop(proc.child.stdin.take());
        let _ = proc.child.wait();
    }

    println!("{:<28} {:>10}", "requests (all phases)", report.requests);
    println!("{:<28} {:>10}", "client retries", report.client_retries);
    println!("{:<28} {:>10}", "client errors", report.client_errors);
    println!("{:<28} {:>9.2}%", "error rate", report.error_rate * 100.0);
    println!("{:<28} {:>7}/{:<2}", "learn acks", report.learn_acks, report.learn_attempts);
    println!("{:<28} {:>10}", "lost learns", report.lost_learns);
    println!("{:<28} {:>9.1}%", "coalescing hit rate", report.coalescing_hit_rate * 100.0);
    println!("{:<28} {:>10.2}", "failover recovery (s)", report.recovery_seconds);
    println!("{:<28} {:>10}", "served during outage", report.served_during_outage);
    println!("{:<28} {:>10}", "router failovers", report.router_failovers);
    println!("{:<28} {:>10}", "router retries", report.router_retries);
    println!("{:<28} {:>10}", "replicated learns", report.router_replicated_learns);
    println!("{:<28} {:>10}", "worker panics", report.worker_panics);

    emit_json_report("serve_chaos", mode, &report);

    assert_eq!(report.lost_learns, 0, "replication must lose zero learns");
    assert_eq!(report.worker_panics, 0, "no worker may panic under chaos");
    assert!(recovered, "the ring successor must serve the dead shard's problems");
    assert!(
        report.error_rate <= 0.05,
        "client-visible error rate {:.3} exceeds the 5% chaos budget",
        report.error_rate
    );
    assert!(report.router_failovers >= 1, "the outage must be served via failover");
    assert!(report.router_replicated_learns >= 1, "learns must reach a second replica");
    assert!(
        report.coalescing_hit_rate >= 0.5,
        "single-flight must absorb most duplicate followers (got {:.2})",
        report.coalescing_hit_rate
    );
    println!();
    println!("chaos run passed: zero lost learns, failover within budget, coalescing effective");
}

/// `thread::join` as a boolean: a panicked probe thread counts as failure.
fn false_on_panic(handle: std::thread::JoinHandle<bool>) -> bool {
    handle.join().unwrap_or(false)
}

fn main() {
    let mode = RunMode::from_env_and_args();
    if mode.chaos {
        run_chaos(mode);
        return;
    }
    let scale = mode.scale();
    let corpus_label = if mode.smoke {
        "smoke subset: 1 MiniPy + 1 MiniC problem, one per shard of a 2-shard ring, 40 correct + 8 incorrect each, 150 requests".to_owned()
    } else {
        format!("{} + MiniC translations", mode.corpus_label(scale))
    };
    println!("Serve throughput — feedback service under mixed-language Zipf traffic ({corpus_label}):");

    let problems = select_problems(mode);
    let datasets: Vec<Dataset> = problems
        .iter()
        .map(|problem| {
            let (paper_correct, paper_incorrect) = paper_counts(problem.name);
            let config = if mode.smoke {
                // Large enough that cold clustering visibly dominates warm
                // representative re-analysis, small enough for a fast smoke.
                DatasetConfig {
                    correct_count: 40,
                    incorrect_count: 8,
                    seed: 0x53E5,
                    duplicate_rate: 0.3,
                    ..DatasetConfig::default()
                }
            } else {
                DatasetConfig {
                    correct_count: scale.apply(paper_correct, 25),
                    incorrect_count: scale.apply(paper_incorrect, 12),
                    seed: 0x53E5,
                    duplicate_rate: 0.3,
                    ..DatasetConfig::default()
                }
            };
            build_dataset(problem, config)
        })
        .collect();
    let dataset_dedup_rate = {
        let stats: Vec<f64> = datasets.iter().map(|d| d.stats().structural_dedup_rate).collect();
        stats.iter().sum::<f64>() / stats.len() as f64
    };

    // Cold bring-up: cluster every correct pool from scratch.
    let cold_start = Instant::now();
    let cold_stores: Vec<ClusterStore> = datasets
        .iter()
        .map(|dataset| {
            let (store, _) = ClusterStore::build(
                &dataset.problem,
                dataset.correct.iter().map(|a| a.source.as_str()),
                ClaraConfig::default(),
            );
            store
        })
        .collect();
    let cold_build_seconds = cold_start.elapsed().as_secs_f64();

    // Persist, then warm bring-up from the stored indexes.
    let index_dir = std::env::temp_dir().join(format!("clara-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&index_dir);
    for store in &cold_stores {
        store.save(&index_dir).expect("persisting the cluster index");
    }
    let warm_start = Instant::now();
    let warm_stores: Vec<ClusterStore> = datasets
        .iter()
        .map(|dataset| {
            ClusterStore::load(&index_dir, &dataset.problem, ClaraConfig::default())
                .expect("loading the cluster index")
                .expect("index file exists")
        })
        .collect();
    let warm_load_seconds = warm_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&index_dir);

    // Byte-identical feedback, warm vs cold, on every incorrect attempt.
    let cold_service = FeedbackService::new(cold_stores, ServiceConfig::default());
    let probe_service = FeedbackService::new(warm_stores.clone(), ServiceConfig::default());
    let mut warm_cold_identical = true;
    for dataset in &datasets {
        for attempt in &dataset.incorrect {
            let request = Request {
                id: attempt.id as u64,
                problem: dataset.problem.name.to_owned(),
                lang: None,
                source: attempt.source.clone(),
                learn: None,
                trace: None,
            };
            let cold = cold_service.handle(&request);
            let warm = probe_service.handle(&request);
            if cold.feedback != warm.feedback || cold.status != warm.status {
                warm_cold_identical = false;
                eprintln!("(warm/cold divergence on {} attempt {})", dataset.problem.name, attempt.id);
            }
        }
    }

    // Replay the Zipf workload through the pooled in-process service.
    let workload_config = if mode.smoke {
        WorkloadConfig { requests: 150, ..WorkloadConfig::default() }
    } else {
        WorkloadConfig { requests: scale.apply(17_266, 400), ..WorkloadConfig::default() }
    };
    let workload = generate_workload(&datasets, workload_config);
    let workload_duplicate_fraction = duplicate_fraction(&workload);

    // The corpus deliberately seeds the incorrect pools with submissions
    // using constructs outside the frontend's modelled subset (e.g. MiniC
    // attempts defining helper functions), and the Zipf sampler replays
    // them like any other attempt. Exactly those — the requests whose
    // source fails frontend analysis — must come back as `Status::Error`.
    let unanalysable_requests = {
        let by_name: std::collections::HashMap<&str, &Problem> =
            problems.iter().map(|p| (p.name, p)).collect();
        workload
            .iter()
            .filter(|r| {
                by_name.get(r.problem.as_str()).is_some_and(|p| {
                    clara_core::frontend(p.lang)
                        .parse(&r.source)
                        .ok()
                        .and_then(|parsed| parsed.lower(p.entry).ok())
                        .is_none()
                })
            })
            .count() as u64
    };

    let service = Arc::new(FeedbackService::new(warm_stores, ServiceConfig::default()));
    let mut server = Server::new(Arc::clone(&service), ServerConfig { workers: 4, queue_capacity: 32 });
    let (reply, responses) = channel::<(Status, f64)>();
    let replay_start = Instant::now();
    for request in &workload {
        let reply = reply.clone();
        let submitted = Instant::now();
        server
            .submit(
                Request {
                    id: request.id as u64,
                    problem: request.problem.clone(),
                    lang: Some(request.lang.clone()),
                    source: request.source.clone(),
                    learn: None,
                    trace: None,
                },
                move |response| {
                    let _ = reply.send((response.status, submitted.elapsed().as_secs_f64() * 1e3));
                },
            )
            .expect("pool accepts jobs");
    }
    drop(reply);
    server.shutdown();
    let replay_seconds = replay_start.elapsed().as_secs_f64();

    let collected: Vec<(Status, f64)> = responses.iter().collect();
    assert_eq!(collected.len(), workload.len(), "every request must be answered");
    let mut latencies: Vec<f64> = collected.iter().map(|(_, ms)| *ms).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let count_status = |status: Status| collected.iter().filter(|(s, _)| *s == status).count() as u64;
    // Classify the error responses: the service must reject exactly the
    // deliberately-unanalysable population, nothing more (a serving bug) and
    // nothing less (a silently swallowed rejection).
    assert_eq!(
        count_status(Status::Error),
        unanalysable_requests,
        "error responses must map 1:1 to the workload's unanalysable submissions"
    );

    // The multi-process fleet: 1/2/4 shard processes over TCP.
    let problem_names: Vec<String> = problems.iter().map(|p| p.name.to_owned()).collect();
    let fleet_sizes: &[usize] = if mode.smoke { &[1, 2] } else { &[1, 2, 4] };
    let fleet_pool_size = if mode.smoke { 12 } else { 40 };
    let shard_scaling: Vec<ShardScalePoint> = match find_clara_cli() {
        Some(cli) => fleet_sizes
            .iter()
            .map(|&n| {
                println!("(fleet: replaying {} requests against {n} shard process(es))", workload.len());
                run_fleet(&cli, n, &problem_names, fleet_pool_size, &workload)
            })
            .collect(),
        None => {
            println!("(fleet: clara-cli not found next to this binary — skipping multi-process runs)");
            Vec::new()
        }
    };
    let rps_at =
        |n: usize| shard_scaling.iter().find(|p| p.shards == n).map(|p| p.aggregate_rps).unwrap_or(0.0);
    let scaling_2x = if rps_at(1) > 0.0 { rps_at(2) / rps_at(1) } else { 0.0 };

    // Per-stage latency breakdown from the process-global registry. The
    // fleet runs are separate processes, so this reflects exactly the
    // in-process traffic above (warm/cold probes plus the replay).
    let latency_breakdown: Vec<StageLatency> = clara_server::Registry::global()
        .dump(0)
        .histograms
        .iter()
        .filter(|h| h.name == "clara_stage_duration_us")
        .map(|h| StageLatency {
            stage: h.labels.first().map(|l| l.v.clone()).unwrap_or_default(),
            count: h.hist.count,
            p50_us: h.hist.quantile(0.5),
            p90_us: h.hist.quantile(0.9),
            p99_us: h.hist.quantile(0.99),
            max_us: h.hist.max,
            mean_us: h.hist.mean(),
        })
        .filter(|s| s.count > 0)
        .collect();

    let stats = service.registry().dump(0);
    let report = ServeReport {
        corpus: corpus_label,
        problems: datasets.len(),
        requests: workload.len(),
        cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        requests_per_sec: workload.len() as f64 / replay_seconds,
        p50_latency_ms: median_f64(latencies.clone()),
        p95_latency_ms: percentile(&latencies, 0.95),
        cache_hit_rate: cache_hit_rate(&stats),
        workload_duplicate_fraction,
        dataset_dedup_rate,
        cold_build_seconds,
        warm_load_seconds,
        warm_speedup: cold_build_seconds / warm_load_seconds.max(1e-9),
        warm_cold_identical,
        correct: count_status(Status::Correct),
        repaired: count_status(Status::Repaired),
        no_repair: count_status(Status::NoRepair),
        errors: count_status(Status::Error),
        unanalysable_requests,
        worker_panics: worker_panics(&server.stats_dump(0)),
        shard_scaling,
        scaling_2x,
        latency_breakdown,
    };

    println!("{:<28} {:>10}", "requests", report.requests);
    println!("{:<28} {:>10.1}", "requests/sec (in-process)", report.requests_per_sec);
    println!("{:<28} {:>10.2}", "p50 latency (ms)", report.p50_latency_ms);
    println!("{:<28} {:>10.2}", "p95 latency (ms)", report.p95_latency_ms);
    println!("{:<28} {:>9.1}%", "cache hit rate", report.cache_hit_rate * 100.0);
    println!("{:<28} {:>9.1}%", "workload duplicates", report.workload_duplicate_fraction * 100.0);
    println!("{:<28} {:>10.3}", "cold build (s)", report.cold_build_seconds);
    println!("{:<28} {:>10.3}", "warm load (s)", report.warm_load_seconds);
    println!("{:<28} {:>9.1}x", "warm speedup", report.warm_speedup);
    println!("{:<28} {:>10}", "warm == cold feedback", report.warm_cold_identical);
    for point in &report.shard_scaling {
        println!(
            "{:<28} {:>10.1}  (p50 {:.2} ms, p95 {:.2} ms)",
            format!("fleet req/s @ {} shard(s)", point.shards),
            point.aggregate_rps,
            point.p50_latency_ms,
            point.p95_latency_ms
        );
        for side in &point.per_shard {
            println!(
                "    shard {:<6} {:>6} reqs {:>9.1} req/s  cache {:>5.1}%",
                side.shard,
                side.requests,
                side.rps,
                side.cache_hit_rate * 100.0
            );
        }
    }
    if report.scaling_2x > 0.0 {
        println!("{:<28} {:>9.2}x  ({} cores)", "2-shard scaling", report.scaling_2x, report.cores);
    }
    if !report.latency_breakdown.is_empty() {
        println!("per-stage latency (us):");
        for stage in &report.latency_breakdown {
            println!(
                "    {:<16} n={:<7} p50 {:>8} p90 {:>8} p99 {:>8} max {:>9}",
                stage.stage, stage.count, stage.p50_us, stage.p90_us, stage.p99_us, stage.max_us
            );
        }
    }
    println!();
    println!("The cache hit rate is bounded above by the workload duplicate fraction; the");
    println!("gap is the (problem, structural-hash) pairs evicted or not yet seen.");

    emit_json_report("serve", mode, &report);
}
