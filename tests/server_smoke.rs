//! Integration smoke test of the serving front end: spawns the real
//! `clara-cli` binary, drives the NDJSON protocol over its stdio, and
//! asserts the meaningful exit codes of the one-shot subcommands.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use clara_server::{MetricsDump, Response, Status};

const CLI: &str = env!("CARGO_BIN_EXE_clara-cli");

const CORRECT: &str = "\
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";

const INCORRECT: &str = "\
def computeDeriv(poly):
    new = []
    for i in xrange(1,len(poly)):
        new.append(float(i*poly[i]))
    if new==[]:
        return 0.0
    return new
";

/// §6.2 (1): no correct solution shares this nested-loop control flow, so no
/// repair exists.
const NO_REPAIR: &str = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        for j in range(i):
            for k in range(j):
                result.append(float(poly[i]))
    return result
";

const GARBAGE: &str = "def broken(:\n    return ][\n";

const BUGGY_FIB_C: &str = "\
int fib(int k) {
    int a = 1;
    int b = 1;
    int n = 1;
    while (b < k) {
        int c = a + b;
        a = b;
        b = c;
        n = n + 1;
    }
    printf(\"%d\\n\", n);
    return 0;
}
";

const CORRECT_FIB_C: &str = "\
int fib(int k) {
    int prev = 1;
    int cur = 1;
    int count = 1;
    while (cur <= k) {
        int temp = cur;
        cur = cur + prev;
        prev = temp;
        count = count + 1;
    }
    printf(\"%d\\n\", count);
    return 0;
}
";

fn request_line_for(id: u64, problem: &str, lang: Option<&str>, source: &str) -> String {
    serde_json::to_string(&clara_server::Request {
        id,
        problem: problem.to_owned(),
        lang: lang.map(str::to_owned),
        source: source.to_owned(),
        learn: None,
        trace: None,
    })
    .unwrap()
}

fn request_line(id: u64, source: &str) -> String {
    request_line_for(id, "derivatives", None, source)
}

#[test]
fn serve_answers_ndjson_requests_and_shuts_down_cleanly() {
    let mut child = Command::new(CLI)
        .args(["serve", "derivatives", "--pool-size", "12", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning clara-cli serve");

    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        for (id, source) in [(1u64, CORRECT), (2, INCORRECT), (3, GARBAGE)] {
            writeln!(stdin, "{}", request_line(id, source)).expect("writing request");
        }
    }
    // Closing stdin is the shutdown signal (EOF after in-flight jobs drain).
    drop(child.stdin.take());

    let stdout = child.stdout.take().expect("piped stdout");
    let responses: Vec<Response> = BufReader::new(stdout)
        .lines()
        .map(|line| {
            let line = line.expect("reading response line");
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("malformed response `{line}`: {e}"))
        })
        .collect();
    assert_eq!(responses.len(), 3, "one response per request");

    let by_id = |id: u64| {
        responses
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no response with id {id}: {responses:?}"))
    };
    assert_eq!(by_id(1).status, Status::Correct);
    let repaired = by_id(2);
    assert_eq!(repaired.status, Status::Repaired);
    assert!(!repaired.feedback.is_empty(), "repair feedback must not be empty");
    assert!(repaired.cost.unwrap_or(0) > 0);
    let garbage = by_id(3);
    assert_eq!(garbage.status, Status::Error);
    assert!(garbage.error.as_deref().unwrap_or("").contains("syntax error"), "{garbage:?}");

    let status = child.wait().expect("waiting for clara-cli serve");
    assert!(status.success(), "serve must exit 0 on EOF, got {status:?}");
}

/// A correct `derivatives` solution that also computes `i64::MIN // -1`,
/// `i64::MIN % -1`, `-i64::MIN`, `abs(i64::MIN)` and a range ending at
/// `i64::MAX`: every one of them overflows 64 bits.
const OVERFLOWING: &str = "\
def computeDeriv(poly):
    low = -9223372036854775807 - 1
    spare = [low // -1, low % -1, -low, abs(low)]
    for k in range(9223372036854775805, 9223372036854775807, 3):
        spare.append(k)
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";

/// An attempt that asks for a list of 10^12 elements.
const OVERSIZED: &str = "\
def computeDeriv(poly):
    result = [0.0] * 1000000000000
    return result
";

#[test]
fn serve_answers_overflowing_and_oversized_arithmetic() {
    let mut child = Command::new(CLI)
        .args(["serve", "derivatives", "--pool-size", "12", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning clara-cli serve");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        for (id, source) in [(1u64, OVERFLOWING), (2, OVERSIZED), (3, CORRECT)] {
            writeln!(stdin, "{}", request_line(id, source)).expect("writing request");
        }
    }
    drop(child.stdin.take());

    let stdout = child.stdout.take().expect("piped stdout");
    let responses: Vec<Response> = BufReader::new(stdout)
        .lines()
        .map(|line| serde_json::from_str(&line.expect("reading response line")).expect("a response"))
        .collect();
    assert_eq!(responses.len(), 3, "one response per request: {responses:?}");
    let by_id = |id: u64| responses.iter().find(|r| r.id == id).expect("response by id");
    // Overflow wraps, so grading runs to the end and passes.
    assert_eq!(by_id(1).status, Status::Correct, "{:?}", by_id(1));
    // The oversized list is an evaluation error: the attempt is graded
    // incorrect and goes to repair.
    assert!(matches!(by_id(2).status, Status::Repaired | Status::NoRepair), "{:?}", by_id(2));
    assert_eq!(by_id(3).status, Status::Correct);
    assert!(child.wait().expect("waiting for clara-cli serve").success());
}

/// The MiniC end-to-end smoke: `clara-cli serve` brings a MiniC problem
/// online (parse → cluster), repairs a buggy C submission through the same
/// NDJSON protocol, and the feedback renders expressions in C syntax.
#[test]
fn serve_handles_minic_submissions_end_to_end() {
    let mut child = Command::new(CLI)
        .args(["serve", "fibonacci_c", "--pool-size", "8", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning clara-cli serve");

    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        let lines = [
            request_line_for(1, "fibonacci_c", Some("c"), BUGGY_FIB_C),
            request_line_for(2, "fibonacci_c", None, CORRECT_FIB_C),
            // A Python submission tagged as such against a C problem is a
            // named client error, not a syntax error.
            request_line_for(3, "fibonacci_c", Some("python"), CORRECT),
        ];
        for line in lines {
            writeln!(stdin, "{line}").expect("writing request");
        }
    }
    drop(child.stdin.take());

    let stdout = child.stdout.take().expect("piped stdout");
    let responses: Vec<Response> = BufReader::new(stdout)
        .lines()
        .map(|line| {
            let line = line.expect("reading response line");
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("malformed response `{line}`: {e}"))
        })
        .collect();
    assert_eq!(responses.len(), 3, "one response per request: {responses:?}");
    let by_id = |id: u64| responses.iter().find(|r| r.id == id).expect("response by id");

    let repaired = by_id(1);
    assert_eq!(repaired.status, Status::Repaired, "{repaired:?}");
    let text = repaired.feedback.join("\n");
    assert!(text.contains("`b <= k`"), "expected the C-syntax condition fix, got: {text}");
    assert_eq!(by_id(2).status, Status::Correct, "{:?}", by_id(2));
    let mismatch = by_id(3);
    assert_eq!(mismatch.status, Status::Error);
    assert!(mismatch.error.as_deref().unwrap_or("").contains("expects minic submissions"), "{mismatch:?}");

    let status = child.wait().expect("waiting for clara-cli serve");
    assert!(status.success(), "serve must exit 0 on EOF, got {status:?}");
}

/// Correct `special_number_c` submission (the problem's reference); at two
/// shards the consistent-hash ring places `special_number_c` on shard 0 and
/// `derivatives`/`fibonacci_c` on shard 1, so this request set exercises
/// both sides of the fleet.
const CORRECT_SPECIAL_C: &str = "\
int special(int n) {
    int s = 0;
    int m = n;
    while (m > 0) {
        int d = m % 10;
        s = s + d * d * d;
        m = m / 10;
    }
    if (s == n) {
        printf(\"YES\\n\");
    } else {
        printf(\"NO\\n\");
    }
    return 0;
}
";

/// Spawns `clara-cli serve` with `args`, keeping stdin open (EOF is the
/// shutdown signal), and returns the child plus the NDJSON endpoint it
/// reported on stderr.
fn spawn_listener(args: &[String]) -> (std::process::Child, String) {
    let mut child = Command::new(CLI)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning clara-cli serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = std::sync::mpsc::channel::<String>();
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
    let addr = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("serve process reports its NDJSON endpoint");
    (child, addr)
}

/// The PR 6 fleet smoke: two real `--shard i/2` serve processes plus a
/// router process, all over loopback TCP. Requests for problems owned by
/// each shard round-trip through the router with their ids intact, and the
/// router's own stats report accounts for every forwarded request.
#[test]
fn router_forwards_to_two_shard_processes_over_tcp() {
    let problems = ["derivatives", "fibonacci_c", "special_number_c"];
    let shard_procs: Vec<(std::process::Child, String)> = (0..2)
        .map(|i| {
            let mut args: Vec<String> = vec!["serve".into()];
            args.extend(problems.iter().map(|p| p.to_string()));
            args.extend(
                ["--listen", "127.0.0.1:0", "--pool-size", "8", "--workers", "1", "--no-learn"]
                    .map(String::from),
            );
            args.extend(["--shard".into(), format!("{i}/2")]);
            spawn_listener(&args)
        })
        .collect();

    // Both shards must own at least one of the three problems, or the test
    // silently stops covering the fleet path.
    let ring = clara_server::HashRing::new(2);
    let owners: Vec<usize> =
        [("derivatives", "minipy"), ("fibonacci_c", "minic"), ("special_number_c", "minic")]
            .iter()
            .map(|(p, l)| ring.owner(p, l))
            .collect();
    assert!(owners.contains(&0) && owners.contains(&1), "ring no longer splits {owners:?}");

    let shard_addrs: Vec<String> = shard_procs.iter().map(|(_, addr)| addr.clone()).collect();
    let router_args: Vec<String> =
        ["serve", "--router", "--shards", &shard_addrs.join(","), "--listen", "127.0.0.1:0"]
            .map(String::from)
            .to_vec();
    let (mut router, router_addr) = spawn_listener(&router_args);

    let stream = std::net::TcpStream::connect(&router_addr).expect("connecting to router");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let lines = [
        request_line_for(1, "derivatives", None, CORRECT),
        request_line_for(2, "derivatives", Some("python"), INCORRECT),
        request_line_for(3, "fibonacci_c", Some("c"), BUGGY_FIB_C),
        request_line_for(4, "special_number_c", None, CORRECT_SPECIAL_C),
    ];
    for line in &lines {
        writeln!(writer, "{line}").expect("writing request");
    }
    let responses: Vec<Response> = (0..lines.len())
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reading response line");
            serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("malformed response `{line}`: {e}"))
        })
        .collect();
    let by_id = |id: u64| {
        responses
            .iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("no response with id {id}: {responses:?}"))
    };
    assert_eq!(by_id(1).status, Status::Correct, "{:?}", by_id(1));
    assert_eq!(by_id(2).status, Status::Repaired, "{:?}", by_id(2));
    let fib = by_id(3);
    assert_eq!(fib.status, Status::Repaired, "{fib:?}");
    assert!(fib.feedback.join("\n").contains("`b <= k`"), "{fib:?}");
    assert_eq!(by_id(4).status, Status::Correct, "{:?}", by_id(4));

    // A stats request against the router is answered by the router itself
    // and accounts for every forwarded feedback request.
    writeln!(writer, r#"{{"id":9,"stats":true}}"#).expect("writing stats request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reading stats line");
    let stats: MetricsDump = serde_json::from_str(line.trim()).expect("stats json");
    assert_eq!(stats.id, 9, "{stats:?}");
    assert_eq!(
        stats.gauge("clara_router_shards", &[]),
        Some(2),
        "a router answers with its fleet size: {stats:?}"
    );
    assert_eq!(stats.counter("clara_router_forwarded_total", &[]), 4, "{stats:?}");
    assert!(stats.counters.iter().any(|c| c.name == "clara_router_upstream_errors_total"), "{stats:?}");
    assert_eq!(stats.counter("clara_router_upstream_errors_total", &[]), 0, "{stats:?}");
    assert!(
        shard_addrs
            .iter()
            .all(|addr| stats.counter("clara_router_forwarded_total", &[("upstream", addr)]) > 0),
        "every shard must see traffic: {stats:?}"
    );

    // stdin EOF shuts each process down in dependency order: router first
    // (so it stops holding upstream connections), then the shards.
    drop(writer);
    drop(reader);
    drop(router.stdin.take());
    let status = router.wait().expect("waiting for router");
    assert!(status.success(), "router must exit 0 on EOF, got {status:?}");
    for (mut shard, _) in shard_procs {
        drop(shard.stdin.take());
        let status = shard.wait().expect("waiting for shard");
        assert!(status.success(), "shard must exit 0 on EOF, got {status:?}");
    }
}

/// A correct `derivatives` solution the seed pool never saw (renamed
/// variables): the learn-replication probe of the failover test.
const NOVEL_CORRECT: &str = "\
def computeDeriv(poly):
    deriv = []
    for k in range(1, len(poly)):
        deriv.append(float(poly[k]*k))
    if deriv == []:
        return [0.0]
    return deriv
";

/// The PR 7 failover smoke, three real processes over loopback TCP: two
/// `--shard i/2` serve processes (at replication factor 2 each holds the
/// other's replica) plus a router. A learn is replicated to both shards;
/// then the shard owning `derivatives` is killed and the router must serve
/// the problem from the ring successor within its retry budget.
#[test]
fn router_fails_over_to_the_ring_successor_when_the_owner_dies() {
    let mut shard_procs: Vec<(std::process::Child, String)> = (0..2)
        .map(|i| {
            let mut args: Vec<String> = vec!["serve".into(), "derivatives".into()];
            args.extend(["--listen", "127.0.0.1:0", "--pool-size", "8", "--workers", "1"].map(String::from));
            args.extend(["--shard".into(), format!("{i}/2")]);
            spawn_listener(&args)
        })
        .collect();
    let shard_addrs: Vec<String> = shard_procs.iter().map(|(_, addr)| addr.clone()).collect();
    let router_args: Vec<String> =
        ["serve", "--router", "--shards", &shard_addrs.join(","), "--listen", "127.0.0.1:0"]
            .map(String::from)
            .to_vec();
    let (mut router, router_addr) = spawn_listener(&router_args);

    let stream = std::net::TcpStream::connect(&router_addr).expect("connecting to router");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(120))).expect("read timeout");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    fn exchange(
        writer: &mut std::net::TcpStream,
        reader: &mut BufReader<std::net::TcpStream>,
        line: &str,
    ) -> Response {
        writeln!(writer, "{line}").expect("writing request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reading response line");
        serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("malformed response `{reply}`: {e}"))
    }

    // A healthy read, then a learn: the router writes the learn to the
    // owner AND the ring successor, so the coming crash loses nothing.
    let healthy = exchange(&mut writer, &mut reader, &request_line_for(1, "derivatives", None, CORRECT));
    assert_eq!(healthy.status, Status::Correct, "{healthy:?}");
    let learn = serde_json::to_string(&clara_server::Request {
        id: 2,
        problem: "derivatives".to_owned(),
        lang: None,
        source: NOVEL_CORRECT.to_owned(),
        learn: Some(true),
        trace: None,
    })
    .unwrap();
    let learned = exchange(&mut writer, &mut reader, &learn);
    assert_eq!(learned.status, Status::Correct, "{learned:?}");

    writeln!(writer, r#"{{"id":3,"stats":true}}"#).expect("writing stats request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reading stats line");
    let stats: MetricsDump = serde_json::from_str(line.trim()).expect("stats json");
    assert_eq!(
        stats.counter("clara_router_replicated_learns_total", &[]),
        1,
        "the learn must reach the successor too: {stats:?}"
    );
    assert!(stats.counters.iter().any(|c| c.name == "clara_router_failovers_total"), "{stats:?}");
    assert_eq!(stats.counter("clara_router_failovers_total", &[]), 0, "{stats:?}");

    // Kill the owner. Reads must fail over to the successor's replica.
    let owner = clara_server::HashRing::new(2).owner("derivatives", "minipy");
    shard_procs[owner].0.kill().expect("killing the owner shard");
    shard_procs[owner].0.wait().expect("reaping the owner shard");

    let survived = exchange(&mut writer, &mut reader, &request_line_for(4, "derivatives", None, INCORRECT));
    assert_eq!(survived.status, Status::Repaired, "served by the successor: {survived:?}");
    let relearned =
        exchange(&mut writer, &mut reader, &request_line_for(5, "derivatives", None, NOVEL_CORRECT));
    assert_eq!(relearned.status, Status::Correct, "the replicated learn survives: {relearned:?}");

    writeln!(writer, r#"{{"id":6,"stats":true}}"#).expect("writing stats request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reading stats line");
    let stats: MetricsDump = serde_json::from_str(line.trim()).expect("stats json");
    assert!(
        stats.counter("clara_router_failovers_total", &[]) >= 1,
        "the outage must be served via failover: {stats:?}"
    );

    drop(writer);
    drop(reader);
    drop(router.stdin.take());
    let status = router.wait().expect("waiting for router");
    assert!(status.success(), "router must exit 0 on EOF, got {status:?}");
    let (mut survivor, _) = shard_procs.remove(1 - owner);
    drop(survivor.stdin.take());
    let status = survivor.wait().expect("waiting for the surviving shard");
    assert!(status.success(), "survivor must exit 0 on EOF, got {status:?}");
}

/// Like [`spawn_listener`], but also captures every stderr line the child
/// emits (structured logs included) into a shared buffer for inspection.
fn spawn_listener_logged(
    args: &[String],
) -> (std::process::Child, String, std::sync::Arc<std::sync::Mutex<Vec<String>>>) {
    let mut child = Command::new(CLI)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning clara-cli serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let logs: std::sync::Arc<std::sync::Mutex<Vec<String>>> = std::sync::Arc::default();
    let sink = std::sync::Arc::clone(&logs);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("(ndjson endpoint on ") {
                let _ = tx.send(rest.trim_end_matches(')').to_owned());
            }
            sink.lock().unwrap().push(line);
        }
    });
    let addr = rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("serve process reports its NDJSON endpoint");
    (child, addr, logs)
}

/// Polls a captured log buffer until a line containing every needle shows
/// up (the capture thread races the assertion) or the deadline passes.
fn wait_for_log_line(logs: &std::sync::Mutex<Vec<String>>, needles: &[&str]) -> Option<String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(line) = logs.lock().unwrap().iter().find(|line| needles.iter().all(|n| line.contains(n)))
        {
            return Some(line.clone());
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

/// The PR 8 observability smoke: a client-supplied trace id must ride a
/// request through the router into the shard fleet and come out in every
/// process's structured logs — including on the failover path, where the
/// retry against the dead owner and the successor's answer must both be
/// attributable to the same trace. Shards run with `--slow-ms 0` so every
/// request dumps its span breakdown.
#[test]
fn trace_ids_propagate_from_router_to_shards_across_failover() {
    let mut shard_procs: Vec<(std::process::Child, String, _)> = (0..2)
        .map(|i| {
            let mut args: Vec<String> = vec!["serve".into(), "derivatives".into()];
            args.extend(
                ["--listen", "127.0.0.1:0", "--pool-size", "8", "--workers", "1", "--slow-ms", "0"]
                    .map(String::from),
            );
            args.extend(["--shard".into(), format!("{i}/2")]);
            spawn_listener_logged(&args)
        })
        .collect();
    let shard_addrs: Vec<String> = shard_procs.iter().map(|(_, addr, _)| addr.clone()).collect();
    let router_args: Vec<String> =
        ["serve", "--router", "--shards", &shard_addrs.join(","), "--listen", "127.0.0.1:0"]
            .map(String::from)
            .to_vec();
    let (mut router, router_addr, router_logs) = spawn_listener_logged(&router_args);

    let stream = std::net::TcpStream::connect(&router_addr).expect("connecting to router");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(120))).expect("read timeout");
    let mut writer = stream.try_clone().expect("cloning stream");
    let mut reader = BufReader::new(stream);
    let traced_request = |id: u64, trace: &str| {
        serde_json::to_string(&clara_server::Request {
            id,
            problem: "derivatives".to_owned(),
            lang: None,
            source: INCORRECT.to_owned(),
            learn: None,
            trace: Some(trace.to_owned()),
        })
        .unwrap()
    };
    let exchange = |writer: &mut std::net::TcpStream,
                    reader: &mut BufReader<std::net::TcpStream>,
                    line: &str|
     -> Response {
        writeln!(writer, "{line}").expect("writing request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reading response line");
        serde_json::from_str(reply.trim()).unwrap_or_else(|e| panic!("malformed response `{reply}`: {e}"))
    };

    // Healthy path: the trace id is echoed in the response and shows up in
    // the owning shard's slow-request span dump.
    let owner = clara_server::HashRing::new(2).owner("derivatives", "minipy");
    let healthy = exchange(&mut writer, &mut reader, &traced_request(1, "feedface00000001"));
    assert_eq!(healthy.status, Status::Repaired, "{healthy:?}");
    assert_eq!(healthy.trace.as_deref(), Some("feedface00000001"), "{healthy:?}");
    let owner_line = wait_for_log_line(
        &shard_procs[owner].2,
        &["\"event\":\"slow_request\"", "\"trace_id\":\"feedface00000001\""],
    )
    .expect("the owner shard logs the traced request");
    assert!(owner_line.contains("\"spans\":"), "span breakdown attached: {owner_line}");

    // Kill the owner: the router's retry/failover events and the ring
    // successor's span dump must carry the SAME trace id the client sent.
    shard_procs[owner].0.kill().expect("killing the owner shard");
    shard_procs[owner].0.wait().expect("reaping the owner shard");
    let survived = exchange(&mut writer, &mut reader, &traced_request(2, "feedface00000002"));
    assert_eq!(survived.status, Status::Repaired, "served by the successor: {survived:?}");
    assert_eq!(survived.trace.as_deref(), Some("feedface00000002"), "{survived:?}");
    wait_for_log_line(&router_logs, &["\"event\":\"failover\"", "\"trace_id\":\"feedface00000002\""])
        .expect("the router logs the failover under the client's trace id");
    wait_for_log_line(
        &shard_procs[1 - owner].2,
        &["\"event\":\"slow_request\"", "\"trace_id\":\"feedface00000002\""],
    )
    .expect("the surviving shard logs the failed-over request under the same trace id");

    drop(writer);
    drop(reader);
    drop(router.stdin.take());
    let status = router.wait().expect("waiting for router");
    assert!(status.success(), "router must exit 0 on EOF, got {status:?}");
    let (mut survivor, _, _) = shard_procs.remove(1 - owner);
    drop(survivor.stdin.take());
    let status = survivor.wait().expect("waiting for the surviving shard");
    assert!(status.success(), "survivor must exit 0 on EOF, got {status:?}");
}

fn run_repair(source: &str) -> i32 {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("clara-smoke-{}-{:x}.py", std::process::id(), source.len()));
    std::fs::write(&path, source).expect("writing attempt file");
    let status = Command::new(CLI)
        .args(["repair", "derivatives"])
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running clara-cli repair");
    let _ = std::fs::remove_file(&path);
    status.code().expect("exit code")
}

#[test]
fn repair_exit_codes_are_meaningful() {
    // 0 — a repair was found (and also for already-correct attempts).
    assert_eq!(run_repair(INCORRECT), 0);
    assert_eq!(run_repair(CORRECT), 0);
    // 1 — analysable but no repair exists.
    assert_eq!(run_repair(NO_REPAIR), 1);
    // 2 — the attempt does not parse.
    assert_eq!(run_repair(GARBAGE), 2);
}

#[test]
fn usage_errors_exit_2() {
    let status = Command::new(CLI)
        .args(["frobnicate"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running clara-cli");
    assert_eq!(status.code(), Some(2));
    let status = Command::new(CLI)
        .args(["repair", "no-such-problem", "/dev/null"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("running clara-cli");
    assert_eq!(status.code(), Some(2));
}
