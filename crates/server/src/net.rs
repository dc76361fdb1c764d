//! The front door: NDJSON and HTTP over blocking std sockets, one thread
//! per connection, and the NDJSON connection loop that also serves
//! stdin/stdout ([`run_ndjson`]).
//!
//! * **Listeners** — each has one accept thread. At most 256 connections
//!   are live; past that cap, or when no
//!   thread can be spawned for it, a connection gets one `server
//!   overloaded` reply and is closed.
//! * **NDJSON** — the fleet protocol: one request per line, one response
//!   per line, out-of-order completion correlated by `id`. A connection has
//!   a reader thread that parses lines and submits requests, and a writer
//!   thread that receives finished lines through a channel. Workers never
//!   write to a socket, so a client that stops reading stalls only its own
//!   writer.
//! * **HTTP** — `POST /repair`, `GET /health`, `GET /stats`,
//!   `GET /metrics`. A connection's thread reads the head and body,
//!   submits, waits for the reply, writes it and closes.
//! * **Observability** — `/health`, `/stats` and NDJSON `{"stats":true}`
//!   answer the backend's stats dump as one JSON line; `/metrics` renders
//!   the same dump as Prometheus text, and NDJSON `{"metrics":true}`
//!   answers it as JSON. On a router, both metrics views also merge every
//!   shard's dump.
//! * **Overload** — a request goes straight into the [`Backend`]'s worker
//!   queue without blocking. When that bounded queue is full the request is
//!   shed with an explicit `server overloaded` error so clients can back
//!   off. Under a chaos fault plan a delayed request sleeps on a thread of
//!   its own; past 64 such threads a further delayed request is shed too.
//!
//! The [`Backend`] is either a local [`Server`] (a shard process) or a
//! [`Router`] forwarding each request to the shard owning its
//! problem×language key.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Scope};
use std::time::{Duration, Instant};

use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::obs::{render_prometheus, MetricsDump};
use crate::pool::TrySubmitError;
use crate::protocol::{parse_incoming, parse_request, render_response, Incoming, Request, Response};
use crate::router::Router;
use crate::serve::Server;

/// Input cap: an NDJSON line, an HTTP request (head and body) or an
/// announced HTTP body larger than this is rejected unparsed.
const MAX_INPUT: usize = 1 << 20;

/// Live TCP connections; each further one is answered `server overloaded`
/// and closed.
const MAX_CONNECTIONS: usize = 256;

/// An HTTP connection that sends nothing for this long mid-request is
/// dropped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a connection whose request was rejected as too large keeps
/// reading (and dropping) input before it is closed. Closing a socket with
/// unread input makes the kernel send RST instead of FIN, and an RST that
/// overtakes the reply can destroy it; reading to the peer's EOF avoids
/// that, and the deadline bounds what a peer that never stops sending costs.
const DISCARD_GRACE: Duration = Duration::from_secs(2);

/// Fault-delayed requests waiting at once across the front door, each on
/// its own sleeping thread; each further one is answered `server
/// overloaded`.
const MAX_DELAYED: usize = 64;

const OK: &str = "200 OK";
const BAD_REQUEST: &str = "400 Bad Request";
const NOT_FOUND: &str = "404 Not Found";
const TOO_LARGE: &str = "413 Payload Too Large";
const UNAVAILABLE: &str = "503 Service Unavailable";
const OVERLOADED: &str = "server overloaded, retry later";

/// What the front door serves: a local shard process or a forwarding
/// router. All request handling below the socket layer goes through this.
pub enum Backend {
    /// A local [`Server`]: requests run on this process's worker pool.
    Local(Arc<Server>),
    /// A [`Router`]: requests are forwarded to the shard owning their key.
    Router(Arc<Router>),
}

/// Receives a request's rendered NDJSON response line.
type ReplyFn = Box<dyn FnOnce(String) + Send>;

impl Backend {
    /// Submits a request without blocking, or hands it back (`reply`
    /// dropped unanswered) when the queue is full or closed.
    fn try_submit(&self, request: Request, reply: ReplyFn) -> Result<(), TrySubmitError<Request>> {
        match self {
            Backend::Local(server) => {
                server.try_submit(request, move |response| reply(render_response(&response)))
            }
            Backend::Router(router) => router.try_submit(request, reply),
        }
    }

    /// The process's stats dump, or with `fleet` the metrics view, which
    /// on a router also merges every reachable shard's dump.
    fn dump(&self, id: u64, fleet: bool) -> MetricsDump {
        match self {
            Backend::Local(server) => server.stats_dump(id),
            Backend::Router(router) if fleet => router.metrics_dump(id),
            Backend::Router(router) => router.stats_dump(id),
        }
    }

    /// Records one request shed at the front door (worker queue full).
    fn note_shed(&self) {
        match self {
            Backend::Local(server) => server.note_shed(),
            Backend::Router(router) => router.note_shed(),
        }
    }
}

/// A dump as one JSON line, or a well-formed error line should it fail to
/// serialize (it never should, but the front door must not panic for it).
fn dump_line(dump: &MetricsDump) -> String {
    serde_json::to_string(dump).unwrap_or_else(|error| {
        render_response(&Response::error(dump.id, format!("stats serialization failed: {error}")))
    })
}

/// One answer on its way to a connection: the HTTP status line (ignored
/// by NDJSON) and the payload.
type Out = (&'static str, String);

/// Answers request `id`, accepted at `accepted`, with an error instead of
/// running it.
fn refuse(out: &Sender<Out>, id: u64, trace: Option<String>, accepted: Instant, message: &str) {
    let error =
        Response::error(id, message).with_elapsed(accepted.elapsed().as_micros() as u64).with_trace(trace);
    let _ = out.send((UNAVAILABLE, render_response(&error)));
}

#[derive(Clone, Copy)]
enum Proto {
    Ndjson,
    Http,
}

#[derive(Default)]
struct State {
    /// Live TCP connections, each with a handle so shutdown can end its
    /// reads.
    conns: HashMap<u64, TcpStream>,
    next_conn: u64,
}

/// Everything the threads of one front door share.
struct Shared {
    backend: Backend,
    /// The seeded fault schedule, when chaos testing is enabled.
    faults: Option<Mutex<FaultInjector>>,
    /// Set once by shutdown; stored before the state lock is taken so that
    /// a connection registered under the lock either sees it or is seen by
    /// the shutdown sweep.
    stopping: AtomicBool,
    /// Fault-delayed requests still sleeping, at most [`MAX_DELAYED`].
    delayed: AtomicUsize,
    state: Mutex<State>,
    /// Signalled by shutdown, which [`FrontDoor::run`] waits for.
    stopped: Condvar,
}

impl Shared {
    fn new(backend: Backend, faults: Option<FaultPlan>) -> Shared {
        Shared {
            backend,
            faults: faults.filter(|plan| !plan.is_noop()).map(|plan| Mutex::new(plan.injector())),
            stopping: AtomicBool::new(false),
            delayed: AtomicUsize::new(0),
            state: Mutex::new(State::default()),
            stopped: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update of the state is a single insert or remove, so a
        // thread that panicked while holding the lock left it consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Stops accepting and reading: every live connection's read half is
    /// shut, so its thread sees EOF, answers what it owes and exits.
    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let state = self.lock();
        for conn in state.conns.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        self.stopped.notify_all();
    }

    /// Serves one accepted connection on its own thread, or answers
    /// `server overloaded` and closes it when `limit` connections are live
    /// or the thread cannot be spawned.
    fn admit<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        stream: TcpStream,
        proto: Proto,
        limit: usize,
    ) {
        let registered = {
            let mut state = self.lock();
            if self.stopping() {
                return;
            }
            match stream.try_clone() {
                Ok(handle) if state.conns.len() < limit => {
                    let id = state.next_conn;
                    state.next_conn += 1;
                    state.conns.insert(id, handle);
                    Some(id)
                }
                _ => None,
            }
        };
        let Some(id) = registered else { return reject(&stream, proto) };
        let spawned = thread::Builder::new().name("clara-conn".to_owned()).spawn_scoped(scope, move || {
            match proto {
                Proto::Ndjson => {
                    let _ = self.serve_ndjson(BufReader::new(&stream), &stream, Some(&stream));
                }
                Proto::Http => self.serve_http(&stream),
            }
            self.unregister(id);
        });
        if spawned.is_err() {
            if let Some(handle) = self.unregister(id) {
                reject(&handle, proto);
            }
        }
    }

    fn unregister(&self, id: u64) -> Option<TcpStream> {
        self.lock().conns.remove(&id)
    }

    /// Accepts connections until shutdown.
    fn accept<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>, listener: TcpListener, proto: Proto) {
        for stream in listener.incoming() {
            if self.stopping() {
                return;
            }
            match stream {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    self.admit(scope, stream, proto, MAX_CONNECTIONS);
                }
                // Transient accept errors (ECONNABORTED, EMFILE…) must not
                // end the listener; the pause keeps EMFILE from spinning.
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// The fault-schedule decision for the next feedback request.
    fn fault(&self) -> FaultAction {
        self.faults.as_ref().map_or(FaultAction::None, |faults| {
            faults.lock().unwrap_or_else(PoisonError::into_inner).decide()
        })
    }

    /// Submits a request accepted at `accepted` without blocking; when the
    /// worker queue is full it is shed, when the pool has shut down it is
    /// refused.
    fn enqueue(&self, request: Request, accepted: Instant, out: &Sender<Out>) {
        let (request, message) = match self.backend.try_submit(request, reply_to(out.clone())) {
            Ok(()) => return,
            Err(TrySubmitError::Full(request)) => {
                self.backend.note_shed();
                (request, OVERLOADED)
            }
            Err(TrySubmitError::Closed(request)) => (request, "service is shutting down"),
        };
        refuse(out, request.id, request.trace, accepted, message);
    }

    /// Serves one NDJSON connection: reads request lines from `input` until
    /// EOF, shutdown or a fault-injected close, while a writer thread writes
    /// the replies to `output`. Returns once every reply owed is written.
    /// `socket` is the connection's socket (`None` on stdio): a rejected
    /// connection bounds its discard through it, a `close` fault slams it
    /// shut, and its write half is shut once the replies are out.
    ///
    /// A line longer than 1 MiB is answered `request too large` unparsed,
    /// and the rest of the input is dropped until EOF (or the discard grace
    /// on a socket).
    ///
    /// # Errors
    ///
    /// Returns the first read error, or the writer thread's spawn error
    /// (after answering `server overloaded` on a socket).
    fn serve_ndjson(
        &self,
        mut input: impl BufRead,
        output: impl Write + Send,
        socket: Option<&TcpStream>,
    ) -> io::Result<()> {
        thread::scope(|scope| {
            let (out, replies) = channel::<Out>();
            let writer = thread::Builder::new().name("clara-ndjson-writer".to_owned()).spawn_scoped(
                scope,
                move || {
                    write_lines(replies, output);
                    if let Some(socket) = socket {
                        let _ = socket.shutdown(Shutdown::Write);
                    }
                },
            );
            if let Err(error) = writer {
                if let Some(socket) = socket {
                    reject(socket, Proto::Ndjson);
                }
                return Err(error);
            }
            let mut line = Vec::new();
            loop {
                line.clear();
                // One byte past the cap tells an oversized line from one
                // that ends at EOF without a newline.
                if input.by_ref().take(MAX_INPUT as u64 + 1).read_until(b'\n', &mut line)? == 0
                    || self.stopping()
                {
                    return Ok(());
                }
                if line.last() == Some(&b'\n') {
                    line.pop();
                } else if line.len() > MAX_INPUT {
                    let _ = out.send((TOO_LARGE, error_body("request too large")));
                    drop(out);
                    discard(&mut input, socket);
                    return Ok(());
                }
                if !self.serve_line(scope, &String::from_utf8_lossy(&line), &out, socket) {
                    return Ok(());
                }
            }
        })
    }

    /// Answers or submits one NDJSON line; `false` when a fault closed the
    /// connection. A fault-delayed request waits on its own thread in the
    /// connection's `scope`.
    fn serve_line<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        line: &str,
        out: &Sender<Out>,
        socket: Option<&TcpStream>,
    ) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let answer = match parse_incoming(line) {
            Ok(Incoming::Stats { id }) => dump_line(&self.backend.dump(id, false)),
            // Metrics probes, like stats, bypass fault injection: the fleet
            // must stay observable under chaos.
            Ok(Incoming::Metrics { id }) => dump_line(&self.backend.dump(id, true)),
            Ok(Incoming::Feedback(request)) => match self.fault() {
                FaultAction::None => {
                    self.enqueue(request, Instant::now(), out);
                    return true;
                }
                FaultAction::Drop => return true, // swallowed: the client sees silence
                FaultAction::Close => {
                    // Abrupt close: replies still owed are abandoned, like a
                    // crash mid-exchange.
                    if let Some(socket) = socket {
                        let _ = socket.shutdown(Shutdown::Both);
                    }
                    return false;
                }
                FaultAction::Garble => "{\"garbled\":tru".to_owned(), // deliberately unparseable
                FaultAction::Delay(by) => {
                    self.delay(scope, request, by, out);
                    return true;
                }
            },
            Err(message) => error_body(&format!("malformed request: {message}")),
        };
        let _ = out.send((OK, answer));
        true
    }

    /// Enqueues `request` after `by` on a thread of its own in the
    /// connection's `scope`. Past [`MAX_DELAYED`] sleeping requests, or
    /// when no thread can be spawned, the request is shed instead.
    fn delay<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        request: Request,
        by: Duration,
        out: &Sender<Out>,
    ) {
        let accepted = Instant::now();
        let (id, trace) = (request.id, request.trace.clone());
        if self.delayed.fetch_add(1, Ordering::SeqCst) < MAX_DELAYED {
            let delayed_out = out.clone();
            let spawned =
                thread::Builder::new().name("clara-delay".to_owned()).spawn_scoped(scope, move || {
                    thread::sleep(by);
                    self.enqueue(request, accepted, &delayed_out);
                    self.delayed.fetch_sub(1, Ordering::SeqCst);
                });
            if spawned.is_ok() {
                return;
            }
        }
        self.delayed.fetch_sub(1, Ordering::SeqCst);
        self.backend.note_shed();
        refuse(out, id, trace, accepted, OVERLOADED);
    }

    /// Serves one HTTP exchange on `stream` and closes it.
    fn serve_http(&self, stream: &TcpStream) {
        if stream.set_read_timeout(Some(IDLE_TIMEOUT)).is_err() {
            return;
        }
        match self.http_response(&mut BufReader::new(stream.take(MAX_INPUT as u64 + 1))) {
            Ok((status, content_type, body)) => write_http(stream, status, content_type, &body),
            Err(Stop::Gone) => {}
            Err(Stop::TooLarge) => {
                write_http(stream, TOO_LARGE, JSON, &error_body("request too large"));
                let _ = stream.shutdown(Shutdown::Write);
                discard(&mut BufReader::new(stream), Some(stream));
            }
        }
    }

    /// Reads one HTTP request from `input` (the connection, limited to one
    /// byte past the input cap) and works out its response.
    fn http_response(&self, input: &mut impl BufRead) -> Result<HttpReply, Stop> {
        let bad_request = |message: &str| Ok((BAD_REQUEST, JSON, error_body(message)));
        let mut head = Vec::new();
        while !head.ends_with(b"\r\n\r\n") {
            if input.read_until(b'\n', &mut head).map_err(|_| Stop::Gone)? == 0 {
                self.early_eof(head.len())?;
                return bad_request("truncated request head");
            }
        }
        let head_text = String::from_utf8_lossy(&head);
        let mut lines = head_text.split("\r\n");
        let mut parts = lines.next().unwrap_or("").split_whitespace();
        let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        let mut content_length = None;
        for header in lines {
            if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = Some(value.trim().parse::<usize>());
            }
        }
        let length = match (method, path) {
            ("GET", "/health" | "/stats") => return Ok((OK, JSON, dump_line(&self.backend.dump(0, false)))),
            ("GET", "/metrics") => {
                return Ok((OK, PROMETHEUS, render_prometheus(&self.backend.dump(0, true))))
            }
            ("POST", "/repair") => match content_length {
                None => return bad_request("missing Content-Length header"),
                Some(Err(_)) => return bad_request("invalid Content-Length header"),
                Some(Ok(n)) if n > MAX_INPUT => return Ok((TOO_LARGE, JSON, error_body("body too large"))),
                Some(Ok(n)) => n,
            },
            (method, path) => return Ok((NOT_FOUND, JSON, error_body(&format!("no route {method} {path}")))),
        };
        let mut body = Vec::new();
        input.by_ref().take(length as u64).read_to_end(&mut body).map_err(|_| Stop::Gone)?;
        if body.len() < length {
            self.early_eof(head.len() + body.len())?;
            return bad_request(&format!("truncated body: got {} of {length} bytes", body.len()));
        }
        let request = match std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(|s| parse_request(s).map_err(|e| e.to_string()))
        {
            Ok(request) => request,
            Err(message) => return bad_request(&format!("malformed request: {message}")),
        };
        let (out, reply) = channel();
        self.enqueue(request, Instant::now(), &out);
        drop(out);
        let (status, body) = reply.recv().map_err(|_| Stop::Gone)?;
        Ok((status, JSON, body))
    }

    /// Classifies an HTTP connection's EOF after `read` bytes of an
    /// unfinished request: past the input cap it is too large, with nothing
    /// sent or during shutdown it closes silently, otherwise (`Ok`) the
    /// request is truncated.
    fn early_eof(&self, read: usize) -> Result<(), Stop> {
        if read > MAX_INPUT {
            Err(Stop::TooLarge)
        } else if read == 0 || self.stopping() {
            Err(Stop::Gone)
        } else {
            Ok(())
        }
    }
}

const JSON: &str = "application/json";
const PROMETHEUS: &str = "text/plain; version=0.0.4";

/// An HTTP response: status line, content type, body.
type HttpReply = (&'static str, &'static str, String);

/// Why an HTTP exchange ends without a regular reply.
enum Stop {
    /// Over the input cap: answered 413, then the input is discarded.
    TooLarge,
    /// Idle past the timeout, reset, or shut down: closed without a reply.
    Gone,
}

fn error_body(message: &str) -> String {
    render_response(&Response::error(0, message))
}

/// A worker-side reply callback that hands the rendered line to a
/// connection.
fn reply_to(out: Sender<Out>) -> ReplyFn {
    Box::new(move |line| {
        let _ = out.send((OK, line));
    })
}

/// Answers a connection the front door will not serve and closes it.
fn reject(mut stream: &TcpStream, proto: Proto) {
    let body = error_body(OVERLOADED);
    match proto {
        Proto::Ndjson => {
            let _ = stream.write_all(format!("{body}\n").as_bytes());
        }
        Proto::Http => write_http(stream, UNAVAILABLE, JSON, &body),
    }
}

fn write_http(mut stream: &TcpStream, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes()).and_then(|()| stream.write_all(body.as_bytes()));
}

/// The NDJSON writer: blocks for the next reply, then drains whatever else
/// is ready before flushing once, so bursts of replies coalesce into few
/// `write(2)` calls. Returns when every sender is gone: after a failed
/// write the replies still owed are received and dropped, so a connection
/// ends only once all of its work has.
fn write_lines(replies: Receiver<Out>, output: impl Write) {
    let mut out = BufWriter::new(output);
    let mut write = || -> io::Result<()> {
        while let Ok((_, line)) = replies.recv() {
            writeln!(out, "{line}")?;
            while let Ok((_, line)) = replies.try_recv() {
                writeln!(out, "{line}")?;
            }
            out.flush()?;
        }
        Ok(())
    };
    let _ = write();
    for _ in replies {}
}

/// Drops input until EOF, an error, or `DISCARD_GRACE` from now (the
/// deadline needs a `socket` to time reads out).
fn discard(input: &mut impl BufRead, socket: Option<&TcpStream>) {
    let deadline = Instant::now() + DISCARD_GRACE;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || socket.is_some_and(|socket| socket.set_read_timeout(Some(left)).is_err()) {
            return;
        }
        match input.fill_buf() {
            Ok([]) => return,
            Ok(available) => {
                let n = available.len();
                input.consume(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// The TCP front door over a [`Backend`]. See the module docs for the
/// threads it runs.
pub struct FrontDoor {
    shared: Arc<Shared>,
    listeners: Vec<(TcpListener, Proto)>,
}

impl FrontDoor {
    /// A front door over `backend` with no listeners attached yet. `faults`
    /// is applied to parsed NDJSON feedback requests (chaos testing); `None`
    /// serves faithfully.
    pub fn new(backend: Backend, faults: Option<FaultPlan>) -> FrontDoor {
        FrontDoor { shared: Arc::new(Shared::new(backend, faults)), listeners: Vec::new() }
    }

    /// Attaches the NDJSON-over-TCP listener (the fleet protocol).
    pub fn with_ndjson_listener(mut self, listener: TcpListener) -> FrontDoor {
        self.listeners.push((listener, Proto::Ndjson));
        self
    }

    /// Attaches the HTTP listener.
    pub fn with_http_listener(mut self, listener: TcpListener) -> FrontDoor {
        self.listeners.push((listener, Proto::Http));
        self
    }

    /// A handle for requesting shutdown from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serves until shutdown is requested, then returns once every
    /// connection has been answered what it is owed and closed.
    ///
    /// # Errors
    ///
    /// Fails when a listener's address cannot be read or a listener thread
    /// cannot be spawned; per-connection I/O errors only drop that
    /// connection.
    pub fn run(self) -> io::Result<()> {
        let addrs: Vec<SocketAddr> =
            self.listeners.iter().map(|(listener, _)| listener.local_addr()).collect::<io::Result<_>>()?;
        let shared = &*self.shared;
        thread::scope(|scope| {
            let spawned = self.listeners.into_iter().try_for_each(|(listener, proto)| {
                thread::Builder::new()
                    .name("clara-accept".to_owned())
                    .spawn_scoped(scope, move || shared.accept(scope, listener, proto))
                    .map(drop)
            });
            if spawned.is_err() {
                shared.stop();
            }
            let mut state = shared.lock();
            while !shared.stopping() {
                state = shared.stopped.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            drop(state);
            // Each accept thread is blocked in accept(2): one connection
            // wakes it to see the flag.
            for mut addr in addrs {
                if addr.ip().is_unspecified() {
                    addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into());
                }
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            spawned
        })
    }
}

/// Requests shutdown of a running [`FrontDoor`] from another thread (the
/// stdio anchor of `clara-cli serve` uses this on stdin EOF).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Asks the front door to stop accepting and reading, answer in-flight
    /// work and return.
    pub fn request_shutdown(&self) {
        self.shared.stop();
    }
}

/// Runs the NDJSON protocol over `reader`/`writer` (stdin/stdout for
/// `clara-cli serve`): one request per line, one response per line
/// (possibly out of order; correlate by `id`), with the TCP front door's
/// limits. Returns after EOF once every in-flight request is answered.
///
/// # Errors
///
/// Returns the first read error, or the writer thread's spawn error.
pub fn run_ndjson(server: Arc<Server>, reader: impl BufRead, writer: impl Write + Send) -> io::Result<()> {
    Shared::new(Backend::Local(server), None).serve_ndjson(reader, writer, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Server, ServerConfig};
    use crate::service::{FeedbackService, ServiceConfig};
    use crate::store::ClusterStore;
    use clara_core::ClaraConfig;
    use clara_corpus::mooc::derivatives;
    use std::io::{BufRead, BufReader, Read};

    fn spawn_ndjson_server() -> (std::net::SocketAddr, ShutdownHandle) {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 2, queue_capacity: 8 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let event_loop = FrontDoor::new(Backend::Local(server), None).with_ndjson_listener(listener);
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });
        (addr, handle)
    }

    #[test]
    fn ndjson_over_tcp_round_trips_requests_stats_and_errors() {
        let (addr, handle) = spawn_ndjson_server();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let request = serde_json::to_string(&Request {
            id: 1,
            problem: "derivatives".to_owned(),
            lang: None,
            source: "def computeDeriv(poly):\n    return poly\n".to_owned(),
            learn: None,
            trace: None,
        })
        .unwrap();
        writeln!(writer, "{request}").unwrap();
        writeln!(writer, r#"{{"id":50,"stats":true}}"#).unwrap();
        writeln!(writer, "oops not json").unwrap();

        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line);
        }
        let mut saw_response = false;
        let mut saw_stats = false;
        let mut saw_malformed = false;
        for line in &lines {
            if line.contains("\"metrics_dump\":true") {
                saw_stats = true;
                assert!(line.contains("\"id\":50"), "{line}");
            } else if line.contains("malformed request") {
                saw_malformed = true;
            } else {
                let response: Response = serde_json::from_str(line).unwrap();
                assert_eq!(response.id, 1);
                saw_response = true;
            }
        }
        assert!(saw_response && saw_stats && saw_malformed, "{lines:?}");

        // Several connections multiplex over the same loop.
        let second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut second_writer = second.try_clone().unwrap();
        writeln!(second_writer, "{request}").unwrap();
        let mut line = String::new();
        BufReader::new(second).read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(&line).unwrap();
        assert!(response.cache_hit, "same submission over a second connection hits the cache");

        handle.request_shutdown();
    }

    #[test]
    fn shutdown_drains_and_stops_the_loop() {
        let (addr, handle) = spawn_ndjson_server();
        // Connect, then ask for shutdown: the loop must close our idle
        // connection and exit rather than hang on it.
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        handle.request_shutdown();
        // The loop closes the connection: read sees EOF — or, when shutdown
        // wins the race with accept, the dying listener resets it. Either
        // way the loop exits instead of hanging on the idle connection.
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) => assert_eq!(n, 0, "idle connection closed on shutdown, got {line:?}"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }
    }

    #[test]
    fn run_returns_after_shutdown_with_idle_connections_open() {
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let ndjson = TcpListener::bind("127.0.0.1:0").unwrap();
        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let (ndjson_addr, http_addr) = (ndjson.local_addr().unwrap(), http.local_addr().unwrap());
        let front_door = FrontDoor::new(Backend::Local(server), None)
            .with_ndjson_listener(ndjson)
            .with_http_listener(http);
        let handle = front_door.handle();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(front_door.run().is_ok()).unwrap());

        // An NDJSON client that got its answer and stays connected (its
        // reader is blocked at shutdown), and an HTTP client stuck mid-head
        // (blocked, or refused if shutdown wins the race with accept).
        let stream = TcpStream::connect(ndjson_addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{}", feedback_line(1)).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut half = TcpStream::connect(http_addr).unwrap();
        half.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        write!(half, "GET /health HTTP/1.1\r\n").unwrap();

        handle.request_shutdown();
        assert_eq!(finished.recv_timeout(Duration::from_secs(10)), Ok(true), "run must return");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "NDJSON client sees EOF: {line:?}");
        // The HTTP client is dropped unanswered: EOF, or a reset when its
        // unread request head is still queued at the close.
        let mut rest = String::new();
        match half.read_to_string(&mut rest) {
            Ok(n) => assert_eq!(n, 0, "{rest:?}"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }
    }

    #[test]
    fn oversized_ndjson_lines_are_rejected() {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let event_loop = FrontDoor::new(Backend::Local(server), None).with_ndjson_listener(listener);
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let huge = "x".repeat(MAX_INPUT + 1);
        let _ = writeln!(stream, "{huge}");
        let mut reply = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut reply).unwrap();
        assert!(reply.contains("request too large"), "{reply}");
        // The connection is closed after the error.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0);
        handle.request_shutdown();
    }

    #[test]
    fn rejected_lines_get_the_error_then_a_clean_eof() {
        // A line one byte over the cap: the reply must arrive, then EOF,
        // never a connection reset, on every run.
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let event_loop = FrontDoor::new(Backend::Local(server), None).with_ndjson_listener(listener);
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });

        let huge = "x".repeat(MAX_INPUT + 1);
        for run in 0..20 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            writeln!(stream, "{huge}").unwrap();
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap_or_else(|e| panic!("run {run}: reply lost: {e}"));
            assert!(reply.contains("request too large"), "run {run}: {reply}");
            let mut rest = String::new();
            let eof = reader.read_line(&mut rest).unwrap_or_else(|e| panic!("run {run}: no clean EOF: {e}"));
            assert_eq!(eof, 0, "run {run}: {rest}");
        }
        handle.request_shutdown();
    }

    #[test]
    fn fault_injection_garbles_feedback_lines_but_not_control_probes() {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let faults = Some("seed=3,garble=1".parse().unwrap());
        let event_loop = FrontDoor::new(Backend::Local(server), faults).with_ndjson_listener(listener);
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let request = serde_json::to_string(&Request {
            id: 1,
            problem: "derivatives".to_owned(),
            lang: None,
            source: "def computeDeriv(poly):\n    return poly\n".to_owned(),
            learn: None,
            trace: None,
        })
        .unwrap();
        writeln!(writer, "{request}").unwrap();
        let mut garbled = String::new();
        reader.read_line(&mut garbled).unwrap();
        assert!(
            serde_json::from_str::<Response>(garbled.trim()).is_err(),
            "a garble fault must produce an unparseable response line: {garbled}"
        );
        // Control probes bypass the fault schedule: stats stay observable
        // even under chaos, so the harness can always read counters.
        writeln!(writer, r#"{{"id":9,"stats":true}}"#).unwrap();
        let mut stats = String::new();
        reader.read_line(&mut stats).unwrap();
        assert!(stats.contains("\"clara_snapshot_generation\""), "{stats}");
        // Metrics probes are exempt too and answer with a parseable dump.
        writeln!(writer, r#"{{"id":11,"metrics":true}}"#).unwrap();
        let mut metrics = String::new();
        reader.read_line(&mut metrics).unwrap();
        let dump: crate::obs::MetricsDump = serde_json::from_str(metrics.trim()).unwrap();
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 11);
        handle.request_shutdown();
    }

    fn spawn_loop(backend: Backend) -> (std::net::SocketAddr, ShutdownHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let event_loop = FrontDoor::new(backend, None).with_ndjson_listener(listener);
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });
        (addr, handle)
    }

    fn feedback_line(id: u64) -> String {
        serde_json::to_string(&Request {
            id,
            problem: "derivatives".to_owned(),
            lang: None,
            source: "def computeDeriv(poly):\n    return poly\n".to_owned(),
            learn: None,
            trace: None,
        })
        .unwrap()
    }

    #[test]
    fn overload_sheds_with_the_request_id_and_counts_it() {
        // An upstream that accepts connections and never answers holds the
        // router's only worker (and its one queue slot) for the whole test.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let router = Arc::new(Router::new(
            vec![upstream.local_addr().unwrap().to_string()],
            vec![("derivatives".to_owned(), "minipy".to_owned())],
            crate::router::RouterConfig { workers: 1, queue_capacity: 1, ..Default::default() },
        ));
        let (addr, handle) = spawn_loop(Backend::Router(router));
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // More requests than the worker and its queue (one slot plus 256)
        // hold, then a stats probe. Sheds are answered as their
        // lines are read, so every one of them precedes the stats reply.
        let total = 400u64;
        let mut burst = String::new();
        for id in 1..=total {
            burst.push_str(&feedback_line(id));
            burst.push('\n');
        }
        burst.push_str("{\"id\":9999,\"stats\":true}\n");
        writer.write_all(burst.as_bytes()).unwrap();

        let mut shed = Vec::new();
        let report = loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.contains("\"metrics_dump\":true") {
                break serde_json::from_str::<MetricsDump>(line.trim()).unwrap();
            }
            let response: Response = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(response.error.as_deref(), Some("server overloaded, retry later"), "{line}");
            shed.push(response.id);
        };
        assert!(!shed.is_empty(), "a full pending ring must shed");
        assert!(shed.iter().all(|id| (1..=total).contains(id)), "sheds echo their request ids: {shed:?}");
        assert_eq!(report.counter("clara_router_shed_total", &[]), shed.len() as u64);
        handle.request_shutdown();
    }

    #[test]
    fn a_client_that_never_reads_does_not_stall_others() {
        let (addr, handle) = spawn_ndjson_server();
        // Far more metrics dumps than the socket buffers hold, pipelined by
        // a client that never reads a byte.
        let mut flood = TcpStream::connect(addr).unwrap();
        let flooder = std::thread::spawn(move || {
            for id in 0..4000 {
                if writeln!(flood, "{{\"id\":{id},\"metrics\":true}}").is_err() {
                    break;
                }
            }
            flood
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for id in [1, 2] {
            writeln!(writer, "{}", feedback_line(id)).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("a second client is answered while the first never reads");
            let response: Response = serde_json::from_str(line.trim()).unwrap();
            assert_eq!(response.id, id);
        }
        drop(flooder.join().unwrap());
        handle.request_shutdown();
    }

    #[test]
    fn connections_past_the_cap_get_one_overloaded_reply_and_close() {
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 1 }));
        let shared = Shared::new(Backend::Local(server), None);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        for proto in [Proto::Ndjson, Proto::Http] {
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let (accepted, _) = listener.accept().unwrap();
            std::thread::scope(|scope| shared.admit(scope, accepted, proto, 0));
            let mut reply = String::new();
            BufReader::new(client).read_to_string(&mut reply).unwrap();
            let body = match proto {
                Proto::Ndjson => reply.strip_suffix('\n').unwrap(),
                Proto::Http => {
                    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
                    reply.split("\r\n\r\n").nth(1).unwrap()
                }
            };
            let response: Response = serde_json::from_str(body).unwrap_or_else(|e| panic!("{reply}: {e}"));
            assert_eq!(response.error.as_deref(), Some(OVERLOADED));
        }
        assert!(shared.lock().conns.is_empty(), "rejected connections are never registered");
    }

    #[test]
    fn a_delayed_request_does_not_hold_up_later_ones() {
        // A seed whose schedule delays the first feedback request by 2 s and
        // passes the second through.
        let plan = |seed| FaultPlan { seed, delay: 0.5, delay_ms: 2000, ..FaultPlan::default() };
        let seed = (0..)
            .find(|&seed| {
                let mut injector = plan(seed).injector();
                matches!(injector.decide(), FaultAction::Delay(_)) && injector.decide() == FaultAction::None
            })
            .unwrap();
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front_door =
            FrontDoor::new(Backend::Local(server), Some(plan(seed))).with_ndjson_listener(listener);
        let handle = front_door.handle();
        std::thread::spawn(move || {
            let _ = front_door.run();
        });

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{}\n{}", feedback_line(1), feedback_line(2)).unwrap();
        let mut ids = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            ids.push(serde_json::from_str::<Response>(line.trim()).unwrap().id);
        }
        assert_eq!(ids, vec![2, 1], "the undelayed request is answered first");
        handle.request_shutdown();
    }

    /// Serves `lines` over one in-memory NDJSON connection under `plan`
    /// and returns the parsed replies.
    fn serve_lines_with_faults(server: Server, plan: FaultPlan, lines: &[String]) -> Vec<Response> {
        let shared = Shared::new(Backend::Local(Arc::new(server)), Some(plan));
        let input: String = lines.iter().map(|line| format!("{line}\n")).collect();
        let mut output = Vec::new();
        shared.serve_ndjson(input.as_bytes(), &mut output, None).unwrap();
        assert_eq!(shared.delayed.load(Ordering::SeqCst), 0, "every delay thread finished");
        String::from_utf8(output).unwrap().lines().map(|line| serde_json::from_str(line).unwrap()).collect()
    }

    fn derivatives_server(workers: usize, queue_capacity: usize) -> Server {
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        Server::new(service, ServerConfig { workers, queue_capacity })
    }

    #[test]
    fn delayed_requests_past_the_cap_are_shed() {
        // Every request is delayed long enough that the whole pipelined
        // batch is read while the first MAX_DELAYED still sleep.
        let plan = FaultPlan { seed: 1, delay: 1.0, delay_ms: 1000, ..FaultPlan::default() };
        let lines: Vec<String> = (1..=MAX_DELAYED as u64 + 2).map(feedback_line).collect();
        let responses = serve_lines_with_faults(derivatives_server(1, 4), plan, &lines);
        assert_eq!(responses.len(), lines.len());
        let mut shed: Vec<u64> =
            responses.iter().filter(|r| r.error.as_deref() == Some(OVERLOADED)).map(|r| r.id).collect();
        shed.sort_unstable();
        assert_eq!(shed, vec![MAX_DELAYED as u64 + 1, MAX_DELAYED as u64 + 2]);
        assert!(responses.iter().filter(|r| r.id <= MAX_DELAYED as u64).all(|r| r.error.is_none()));
    }

    #[test]
    fn a_refused_delayed_request_reports_its_delay_as_elapsed() {
        let plan = FaultPlan { seed: 1, delay: 1.0, delay_ms: 200, ..FaultPlan::default() };
        let mut server = derivatives_server(1, 4);
        server.shutdown();
        let responses = serve_lines_with_faults(server, plan, &[feedback_line(1)]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].error.as_deref(), Some("service is shutting down"));
        assert!(responses[0].elapsed_us >= 200_000, "elapsed {} µs", responses[0].elapsed_us);
    }

    #[test]
    fn deeply_nested_json_is_malformed_not_fatal() {
        // ~100 KB, well under the input cap: without a nesting limit the
        // JSON decoder recursed once per bracket and overflowed the stack.
        let depth = 50_000;
        let deep = format!(
            r#"{{"id":1,"problem":"derivatives","source":"","trace":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let input = format!("{deep}\n{}\n", feedback_line(2));
        let mut output = Vec::new();
        run_ndjson(Arc::new(derivatives_server(1, 4)), input.as_bytes(), &mut output).unwrap();
        let output = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 2, "{output}");
        assert!(lines[0].contains("malformed request"), "{}", lines[0]);
        let response: Response = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(response.id, 2);
        assert!(response.error.is_none(), "{}", lines[1]);
    }

    /// Serves `backend` over HTTP; returns a function GETting a path's body.
    fn spawn_http(backend: Backend) -> (impl Fn(&str) -> String, ShutdownHandle) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front_door = FrontDoor::new(backend, None).with_http_listener(listener);
        let handle = front_door.handle();
        std::thread::spawn(move || {
            let _ = front_door.run();
        });
        let get = move |path: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
            reply.split_once("\r\n\r\n").unwrap().1.to_owned()
        };
        (get, handle)
    }

    /// Asserts that `/stats` and `/health` answer one dump, and that each of
    /// its counters appears in the `/metrics` text with the same value.
    /// Returns the dump.
    fn assert_endpoints_are_views_of_one_dump(get: impl Fn(&str) -> String) -> MetricsDump {
        let stats: MetricsDump = serde_json::from_str(&get("/stats")).unwrap();
        let health: MetricsDump = serde_json::from_str(&get("/health")).unwrap();
        let metrics = get("/metrics");
        assert!(!stats.counters.is_empty());
        for counter in &stats.counters {
            let alone = MetricsDump { counters: vec![counter.clone()], ..MetricsDump::default() };
            let rendered = render_prometheus(&alone);
            let line = rendered.lines().last().unwrap();
            assert!(metrics.lines().any(|l| l == line), "`{line}` is not in /metrics:\n{metrics}");
            assert_eq!(
                health.counter(&counter.name, &[]),
                stats.counter(&counter.name, &[]),
                "{}",
                counter.name
            );
        }
        stats
    }

    #[test]
    fn a_shard_answers_stats_health_and_metrics_from_one_registry() {
        let server = Arc::new(derivatives_server(1, 4));
        let (get, handle) = spawn_http(Backend::Local(Arc::clone(&server)));
        let correct = derivatives().seeds[1];
        for (id, source, learn) in
            [(1, "def computeDeriv(poly):\n    return poly\n", None), (2, correct, None)]
        {
            let mut request = Request {
                id,
                problem: "derivatives".to_owned(),
                lang: None,
                source: source.to_owned(),
                learn,
                trace: None,
            };
            assert_ne!(server.handle_sync(&request).status, crate::protocol::Status::Error);
            request.id += 10;
            request.learn = Some(true);
            let _ = server.handle_sync(&request);
        }
        server.note_shed();
        let stats = assert_endpoints_are_views_of_one_dump(get);
        assert_eq!(stats.counter("clara_requests_total", &[]), 4);
        assert_eq!(stats.counter("clara_cache_hits_total", &[]), 2);
        assert_eq!(stats.counter("clara_learned_total", &[]), 1);
        assert_eq!(stats.counter("clara_shed_total", &[]), 1);
        assert_eq!(
            stats.gauge("clara_snapshot_generation", &[("problem", "derivatives"), ("shard", "0/1")]),
            Some(1)
        );
        handle.request_shutdown();
    }

    #[test]
    fn a_router_answers_stats_health_and_metrics_from_one_registry() {
        // A two-shard fleet with one dead shard: a learn owned by the live
        // shard fails to replicate, a read owned by the dead one fails over.
        let live = crate::router::tests::fake_shard("live");
        let dead = "127.0.0.1:1".to_owned();
        let router =
            Arc::new(Router::new(vec![live, dead], Vec::new(), crate::router::tests::fast_config(1, 4)));
        let ring = crate::shard::HashRing::new(2);
        let owned_by =
            |shard: usize| (0..100).map(|i| format!("p{i}")).find(|p| ring.owner(p, "") == shard).unwrap();
        for (id, problem, learn) in [(1, owned_by(0), Some(true)), (2, owned_by(1), None)] {
            let request = Request { id, problem, lang: None, source: "x".to_owned(), learn, trace: None };
            let (tx, rx) = channel();
            router.submit(request, Box::new(move |line| tx.send(line).unwrap())).unwrap();
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        router.note_shed();
        let (get, handle) = spawn_http(Backend::Router(router));
        let stats = assert_endpoints_are_views_of_one_dump(get);
        assert_eq!(stats.counter("clara_router_replication_errors_total", &[]), 1);
        assert_eq!(stats.counter("clara_router_failovers_total", &[]), 1);
        assert_eq!(stats.counter("clara_router_shed_total", &[]), 1);
        // Both requests failed at the dead upstream: the learn's
        // replication ran out of attempts, and the breaker cut the read's
        // retries short.
        assert_eq!(stats.counter("clara_router_upstream_errors_total", &[("upstream", "127.0.0.1:1")]), 2);
        handle.request_shutdown();
    }

    #[test]
    fn ndjson_metrics_probes_return_request_histograms() {
        let (addr, handle) = spawn_ndjson_server();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let request = serde_json::to_string(&Request {
            id: 1,
            problem: "derivatives".to_owned(),
            lang: None,
            source: "def computeDeriv(poly):\n    return poly\n".to_owned(),
            learn: None,
            trace: Some("feedbeeffeedbeef".to_owned()),
        })
        .unwrap();
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(response.trace.as_deref(), Some("feedbeeffeedbeef"), "trace echoed over the wire");

        writeln!(writer, r#"{{"id":2,"metrics":true}}"#).unwrap();
        let mut metrics = String::new();
        reader.read_line(&mut metrics).unwrap();
        let dump: MetricsDump = serde_json::from_str(metrics.trim()).unwrap();
        assert_eq!(dump.counter("clara_requests_total", &[]), 1, "the request must be counted: {dump:?}");
        let duration = dump
            .histograms
            .iter()
            .find(|h| {
                h.name == "clara_request_duration_us"
                    && h.labels.iter().any(|l| l.k == "status" && l.v == response.status.as_str())
            })
            .expect("request duration histogram present");
        assert_eq!(duration.hist.count, 1);
        assert!(duration.hist.quantile(0.5) <= duration.hist.quantile(0.99).max(1));
        assert!(
            dump.histograms.iter().any(|h| h.name == "clara_stage_duration_us"),
            "stage histograms registered"
        );
        handle.request_shutdown();
    }
}
