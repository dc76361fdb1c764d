//! The pooled server: a [`FeedbackService`] behind a [`WorkerPool`].
//!
//! Every front end in [`crate::net`] (NDJSON over TCP or stdio, HTTP)
//! submits requests here, one request per [`FeedbackService::handle`] call.
//! The pool's one bounded queue gives the service backpressure: once it is
//! full the front door sheds a flooding client's requests instead of
//! ballooning memory.
//! Every submitted request is answered exactly once: if its handler panics,
//! the reply still goes out as an internal error.
//!
//! The server counts in its service's registry: sheds as they happen, and
//! queue depth, worker count and worker panics as gauges set just before
//! each [`Server::stats_dump`], the one dump behind `/stats`, `/health` and
//! `/metrics`.

use std::sync::Arc;

use crate::obs::{Counter, MetricsDump};
use crate::pool::{admission_bound, PoolClosed, TrySubmitError, WorkerPool};
use crate::protocol::{Request, Response};
use crate::service::FeedbackService;

/// Worker-pool sizing of a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Queue slots per worker: the pool's one queue holds
    /// `workers × queue_capacity + 256` jobs, and submission blocks or is
    /// shed when it is full.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: default_workers(), queue_capacity: 64 }
    }
}

/// The default worker count: the `CLARA_WORKERS` environment variable when
/// set (and a positive integer), otherwise the detected core count capped at
/// 8. The default is clamped to the cores actually present — on a 1-core
/// box one worker, not a hardcoded floor of two threads contending for the
/// same core. `serve --workers N` overrides both.
pub fn default_workers() -> usize {
    if let Some(n) =
        std::env::var("CLARA_WORKERS").ok().and_then(|v| v.parse::<usize>().ok()).filter(|n| *n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

type Callback = Box<dyn FnOnce(Response) + Send>;
type Job = (Request, Callback);

/// A running request's response callback, answered exactly once. Dropping
/// it unanswered — a handler panic unwinding past it — sends an
/// internal-error response instead, so the client is never left waiting.
struct Reply {
    id: u64,
    trace: Option<String>,
    callback: Option<Callback>,
}

impl Reply {
    fn new(request: &Request, callback: Callback) -> Reply {
        Reply { id: request.id, trace: request.trace.clone(), callback: Some(callback) }
    }

    fn send(mut self, response: Response) {
        if let Some(callback) = self.callback.take() {
            callback(response);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(callback) = self.callback.take() {
            callback(Response::error(self.id, "internal error").with_trace(self.trace.take()));
        }
    }
}

/// A [`FeedbackService`] behind a panic-isolated worker pool.
pub struct Server {
    service: Arc<FeedbackService>,
    pool: WorkerPool<Job>,
    /// `clara_shed_total`.
    shed: Arc<Counter>,
}

impl Server {
    /// Spawns the worker pool over `service`.
    pub fn new(service: Arc<FeedbackService>, config: ServerConfig) -> Self {
        let handler_service = Arc::clone(&service);
        let bound = admission_bound(config.workers, config.queue_capacity);
        let pool = WorkerPool::new(config.workers, bound, move |(request, callback): Job| {
            // Armed only once a worker runs the job: a job the pool hands
            // back (full queue, shutdown) is the submitter's to answer.
            let reply = Reply::new(&request, callback);
            reply.send(handler_service.handle(&request));
        });
        let shed = service.registry().counter("clara_shed_total", &[]);
        Server { service, pool, shed }
    }

    /// Enqueues a request; `on_response` runs on a worker thread when the
    /// request completes. Blocks while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`PoolClosed`] after [`Server::shutdown`].
    pub fn submit(
        &self,
        request: Request,
        on_response: impl FnOnce(Response) + Send + 'static,
    ) -> Result<(), PoolClosed> {
        self.pool.submit((request, Box::new(on_response)))
    }

    /// Enqueues a request without blocking.
    ///
    /// # Errors
    ///
    /// Hands the request back, with `on_response` dropped uncalled, when
    /// the queue is full (the front door sheds it) or after
    /// [`Server::shutdown`].
    pub fn try_submit(
        &self,
        request: Request,
        on_response: impl FnOnce(Response) + Send + 'static,
    ) -> Result<(), TrySubmitError<Request>> {
        self.pool
            .try_submit((request, Box::new(on_response)))
            .map_err(|refused| refused.map(|(request, _)| request))
    }

    /// Handles a request synchronously on the calling thread (bypasses the
    /// queue; used by tests and one-shot tooling).
    pub fn handle_sync(&self, request: &Request) -> Response {
        self.service.handle(request)
    }

    /// Records a request shed at the front door (queue full), so overload
    /// shows up in `/stats`.
    pub fn note_shed(&self) {
        self.shed.inc();
    }

    /// This process's stats dump: the service's registry, with the pool's
    /// live gauges set just now, merged with the global stage histograms.
    pub fn stats_dump(&self, id: u64) -> MetricsDump {
        let registry = self.service.registry();
        registry.gauge("clara_queue_depth", &[]).set(self.pool.queued() as i64);
        registry.gauge("clara_workers", &[]).set(self.pool.worker_count() as i64);
        registry.gauge("clara_worker_panics", &[]).set(self.pool.panic_count() as i64);
        registry.process_dump(id)
    }

    /// Drains the queue and joins the workers.
    pub fn shutdown(&mut self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{run_ndjson, Backend, FrontDoor};
    use crate::service::ServiceConfig;
    use crate::store::ClusterStore;
    use clara_core::ClaraConfig;
    use clara_corpus::mooc::derivatives;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Mutex;

    /// Serves the HTTP API on `listener` until shutdown is requested.
    fn serve_http(server: Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
        FrontDoor::new(Backend::Local(server), None).with_http_listener(listener).run()
    }

    fn test_server(config: ServerConfig) -> Server {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        Server::new(service, config)
    }

    fn ndjson_request(id: u64, source: &str) -> String {
        render_request(&Request {
            id,
            problem: "derivatives".to_owned(),
            lang: None,
            source: source.to_owned(),
            learn: None,
            trace: None,
        })
    }

    fn render_request(request: &Request) -> String {
        serde_json::to_string(request).unwrap()
    }

    /// A `Write` handle appending into a shared buffer, for capturing the
    /// writer thread's output.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ndjson_round_trip_over_in_memory_pipes() {
        let server = Arc::new(test_server(ServerConfig { workers: 2, queue_capacity: 4 }));
        let input = [
            ndjson_request(1, "def computeDeriv(poly):\n    return poly\n"),
            "not json".to_owned(),
            ndjson_request(2, derivatives().seeds[0]),
            r#"{"id":77,"stats":true}"#.to_owned(),
        ]
        .join("\n");
        let output: Arc<Mutex<Vec<u8>>> = Arc::default();
        run_ndjson(server, input.as_bytes(), SharedBuf(Arc::clone(&output))).unwrap();
        let text = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        let mut responses = Vec::new();
        let mut stats = Vec::new();
        for line in text.lines() {
            if line.contains("\"metrics_dump\":true") {
                stats.push(serde_json::from_str::<MetricsDump>(line).expect(line));
            } else {
                responses.push(serde_json::from_str::<Response>(line).expect(line));
            }
        }
        assert_eq!(responses.len(), 3);
        // The malformed line gets id 0; the real requests echo their ids.
        let mut ids: Vec<u64> = responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        let by_id = |id: u64| responses.iter().find(|r| r.id == id).unwrap();
        assert_eq!(by_id(2).status, crate::protocol::Status::Correct);
        assert_eq!(by_id(0).status, crate::protocol::Status::Error);
        // The stats control line got a dump with its id echoed.
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].id, 77);
        assert_eq!(stats[0].gauge("clara_workers", &[]), Some(2));
        assert_eq!(stats[0].gauges.iter().filter(|g| g.name == "clara_snapshot_generation").count(), 1);
    }

    #[test]
    fn oversized_stdin_lines_are_rejected_unparsed() {
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4 }));
        // A well-formed request padded to one byte over the 1 MiB line cap:
        // parsing it would answer id 5, the cap answers id 0.
        let request = ndjson_request(5, "def computeDeriv(poly):\n    return poly\n");
        let padding = (1 << 20) + 1 - request.len();
        let line = format!("{}{}", " ".repeat(padding), request);
        assert_eq!(line.len(), (1 << 20) + 1);
        let output: Arc<Mutex<Vec<u8>>> = Arc::default();
        run_ndjson(server, format!("{line}\n").as_bytes(), SharedBuf(Arc::clone(&output))).unwrap();
        let text = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        let replies: Vec<Response> = text.lines().map(|l| serde_json::from_str(l).expect(l)).collect();
        assert_eq!(replies.len(), 1, "{text}");
        assert_eq!(replies[0].id, 0);
        assert_eq!(replies[0].error.as_deref(), Some("request too large"));
    }

    #[test]
    fn submit_delivers_responses_through_the_pool() {
        let mut server = test_server(ServerConfig { workers: 2, queue_capacity: 8 });
        let (reply, responses) = channel::<Response>();
        for id in 0..6u64 {
            let reply: Sender<Response> = reply.clone();
            server
                .submit(
                    Request {
                        id,
                        problem: "derivatives".to_owned(),
                        lang: None,
                        source: derivatives().seeds[0].to_owned(),
                        learn: None,
                        trace: None,
                    },
                    move |response| {
                        let _ = reply.send(response);
                    },
                )
                .unwrap();
        }
        drop(reply);
        server.shutdown();
        let collected: Vec<Response> = responses.iter().collect();
        assert_eq!(collected.len(), 6);
        assert!(collected.iter().all(|r| r.status == crate::protocol::Status::Correct));
        // All but the first are structural duplicates → cache hits.
        assert_eq!(collected.iter().filter(|r| r.cache_hit).count(), 5);
    }

    #[test]
    fn unanswered_replies_send_an_internal_error() {
        let (reply, responses) = channel::<Response>();
        let request = Request {
            id: 42,
            problem: "derivatives".to_owned(),
            lang: None,
            source: String::new(),
            learn: None,
            trace: Some("00000000000000aa".to_owned()),
        };
        drop(Reply::new(
            &request,
            Box::new(move |response| {
                let _ = reply.send(response);
            }),
        ));
        let response = responses.try_recv().expect("a dropped reply must answer");
        assert_eq!(response.id, 42);
        assert_eq!(response.status, crate::protocol::Status::Error);
        assert_eq!(response.error.as_deref(), Some("internal error"));
        assert_eq!(response.trace.as_deref(), Some("00000000000000aa"));
        assert!(responses.try_recv().is_err(), "exactly one answer");
    }

    #[test]
    fn http_endpoint_answers_repair_health_and_stats() {
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        let body = ndjson_request(9, "def computeDeriv(poly):\n    return poly\n");
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /repair HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let json = reply.split("\r\n\r\n").nth(1).unwrap();
        let response: Response = serde_json::from_str(json).unwrap();
        assert_eq!(response.id, 9);

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"clara_requests_total\""), "{reply}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /stats HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        let json = reply.split("\r\n\r\n").nth(1).unwrap();
        let report: MetricsDump = serde_json::from_str(json).unwrap();
        assert_eq!(
            report.gauge("clara_snapshot_generation", &[("problem", "derivatives"), ("shard", "0/1")]),
            Some(0)
        );
        assert_eq!(report.gauges.iter().filter(|g| g.name == "clara_snapshot_generation").count(), 1);
        assert!(report.counter("clara_requests_total", &[]) >= 1, "the repair above is counted");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("text/plain"), "Prometheus content type: {reply}");
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("# TYPE clara_requests_total counter"), "{body}");
        assert!(body.contains("# TYPE clara_request_duration_us histogram"), "{body}");
        assert!(body.contains("clara_stage_duration_us_bucket{stage=\"parse\""), "{body}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
    }

    #[test]
    fn http_connections_are_served_concurrently() {
        // A connection that has sent only half its request must not delay
        // a complete one on another connection.
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        // A slow connection: headers announced, body never sent.
        let mut slow = TcpStream::connect(addr).unwrap();
        write!(slow, "POST /repair HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n").unwrap();

        // A complete request right behind it must be answered promptly.
        let mut fast = TcpStream::connect(addr).unwrap();
        fast.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
        write!(fast, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut reply = String::new();
        fast.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "slow client starved the loop: {reply}");
        drop(slow);
    }

    #[test]
    fn http_malformed_requests_get_clean_400s() {
        let server = Arc::new(test_server(ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let loop_server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_http(loop_server, listener);
        });

        let roundtrip = |raw: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            // Half-close the write side so truncated bodies hit EOF instead
            // of the idle timeout.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        };
        let json_error = |reply: &str| -> Response {
            let json = reply.split("\r\n\r\n").nth(1).expect("a body");
            serde_json::from_str(json).expect("a JSON error body")
        };

        // Malformed JSON body.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("malformed request"));

        // Truncated body: fewer bytes than announced.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"id\":1");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("truncated body"));

        // An absurd Content-Length that does not even parse as usize.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("invalid Content-Length"));

        // A parseable but oversized Content-Length is bounded, not allocated.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");

        // Missing Content-Length entirely.
        let reply = roundtrip("POST /repair HTTP/1.1\r\nHost: localhost\r\n\r\n{}");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(json_error(&reply).error.unwrap().contains("missing Content-Length"));
    }

    #[test]
    fn stats_report_tracks_queue_and_cache() {
        let server = test_server(ServerConfig { workers: 1, queue_capacity: 4 });
        let request = Request {
            id: 1,
            problem: "derivatives".to_owned(),
            lang: None,
            source: derivatives().seeds[0].to_owned(),
            learn: None,
            trace: None,
        };
        let _ = server.handle_sync(&request);
        let _ = server.handle_sync(&request);
        server.note_shed();
        let report = server.stats_dump(5);
        assert_eq!(report.id, 5);
        assert_eq!(report.counter("clara_requests_total", &[]), 2);
        assert_eq!(report.counter("clara_cache_hits_total", &[]), 1);
        assert_eq!(report.counter("clara_shed_total", &[]), 1);
        assert_eq!(report.gauge("clara_queue_depth", &[]), Some(0));
        assert_eq!(report.gauge("clara_worker_panics", &[]), Some(0));
        assert_eq!(report.gauge("clara_workers", &[]), Some(1));
        assert_eq!(report.counter("clara_requests_total", &[("problem", "derivatives")]), 2);
        assert!(
            report.histograms.iter().any(|h| h.name == "clara_stage_duration_us"),
            "the global stage histograms are merged in"
        );
    }

    #[test]
    fn default_worker_count_respects_the_machine() {
        let workers = ServerConfig::default().workers;
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert!(workers >= 1);
        // CLARA_WORKERS may raise it in exotic environments; without the
        // env var the default never exceeds min(cores, 8).
        if std::env::var("CLARA_WORKERS").is_err() {
            assert!(workers <= cores.min(8), "workers {workers} vs cores {cores}");
        }
    }
}
