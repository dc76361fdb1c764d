//! The nonblocking accept loop: `poll(2)`-driven socket multiplexing over a
//! hand-declared two-symbol FFI surface (the offline build has no
//! `libc`/`mio`/`tokio`).
//!
//! One thread owns every socket: the NDJSON and HTTP listeners (accepted
//! nonblocking), all client connections (per-connection read/write buffers)
//! and a loopback waker pair. Parsed requests are handed to the worker pool
//! with `try_submit` — never a blocking call, so one flooding client cannot
//! wedge the loop — and finished responses come back through a completion
//! queue plus a waker byte. When every worker queue is full, requests park
//! in a bounded pending ring (retried each iteration); past that bound the
//! loop sheds load with an explicit `overloaded` error instead of buffering
//! without limit.
//!
//! The same loop serves two protocols and two deployment roles:
//!
//! * **NDJSON over TCP** — the fleet protocol: one request per line, one
//!   response per line, out-of-order completion correlated by `id`.
//! * **HTTP** — `POST /repair`, `GET /health`, `GET /stats`, parsed
//!   incrementally (a half-sent request never blocks other connections).
//! * The [`Backend`] is either a local [`Server`] (a shard process) or a
//!   [`Router`] forwarding each request to the shard owning its
//!   problem×language key.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::obs::{render_prometheus, Registry};
use crate::pool::PoolClosed;
use crate::protocol::{parse_incoming, render_response, Incoming, Request, Response};
use crate::router::Router;
use crate::serve::Server;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (negative entries are ignored by the kernel).
    pub fd: i32,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events (may include [`POLLERR`] / [`POLLHUP`] unrequested).
    pub revents: i16,
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;
/// An error condition is pending on the descriptor.
pub const POLLERR: i16 = 0x008;
/// The peer hung up.
pub const POLLHUP: i16 = 0x010;

unsafe extern "C" {
    /// `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Blocks until one of `fds` is ready or `timeout_ms` elapses; returns the
/// number of descriptors with non-zero `revents` (0 on timeout). `EINTR` is
/// surfaced as `Ok(0)` — callers loop anyway.
///
/// # Errors
///
/// Propagates the OS error for anything other than `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `#[repr(C)]`
    // pollfd-layout structs, and the kernel writes only to `revents`.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Tuning knobs of the event loop.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// Per-connection input-buffer cap; an NDJSON line or HTTP request
    /// larger than this is rejected and the connection closed.
    pub max_buffer: usize,
    /// Parsed requests parked while every worker queue is full; past this
    /// the loop sheds with an `overloaded` error response.
    pub max_pending: usize,
    /// Connections idle longer than this mid-request are dropped.
    pub idle_timeout: Duration,
    /// Deterministic fault injection applied to parsed NDJSON feedback
    /// requests (chaos testing); `None` serves faithfully.
    pub faults: Option<FaultPlan>,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            max_buffer: 1 << 20,
            max_pending: 256,
            idle_timeout: Duration::from_secs(10),
            faults: None,
        }
    }
}

/// What the event loop serves: a local shard process or a forwarding
/// router. All request handling below the socket layer goes through this.
pub enum Backend {
    /// A local [`Server`]: requests run on this process's worker pool.
    Local(Arc<Server>),
    /// A [`Router`]: requests are forwarded to the shard owning their key.
    Router(Arc<Router>),
}

impl Backend {
    /// Wraps a local server.
    pub fn local(server: Arc<Server>) -> Backend {
        Backend::Local(server)
    }

    /// Wraps a router.
    pub fn router(router: Arc<Router>) -> Backend {
        Backend::Router(router)
    }

    /// Submits a request without blocking; the callback receives the
    /// rendered NDJSON response line. `Ok(false)` means every queue is full.
    fn try_submit(
        &self,
        request: Request,
        reply: Box<dyn FnOnce(String) + Send>,
    ) -> Result<bool, PoolClosed> {
        match self {
            Backend::Local(server) => {
                server.try_submit(request, move |response| reply(render_response(&response)))
            }
            Backend::Router(router) => router.try_submit(request, reply),
        }
    }

    /// The one-line JSON stats report (NDJSON `{"stats":true}` and
    /// `GET /stats`).
    fn stats_line(&self, id: u64) -> String {
        match self {
            Backend::Local(server) => {
                serde_json::to_string(&server.stats_report(id)).unwrap_or_else(|e| stats_error_line(id, &e))
            }
            Backend::Router(router) => router.stats_line(id),
        }
    }

    /// The `GET /health` body: service counters for a shard, the routing
    /// report for a router.
    fn health_line(&self) -> String {
        match self {
            Backend::Local(server) => {
                serde_json::to_string(&server.service().stats()).unwrap_or_else(|e| stats_error_line(0, &e))
            }
            Backend::Router(router) => router.stats_line(0),
        }
    }

    /// The one-line JSON metrics dump (NDJSON `{"metrics":true}`): this
    /// process's registry for a shard, the merged fleet view for a router.
    fn metrics_line(&self, id: u64) -> String {
        match self {
            Backend::Local(_) => serde_json::to_string(&Registry::global().dump(id))
                .unwrap_or_else(|e| stats_error_line(id, &e)),
            Backend::Router(router) => router.metrics_line(id),
        }
    }

    /// The `GET /metrics` body in Prometheus text format.
    fn metrics_text(&self) -> String {
        match self {
            Backend::Local(_) => render_prometheus(&Registry::global().dump(0)),
            Backend::Router(router) => router.metrics_text(),
        }
    }

    /// Records one request shed at the front door (pending ring full).
    fn note_shed(&self) {
        match self {
            Backend::Local(server) => server.note_shed(),
            Backend::Router(router) => router.note_shed(),
        }
    }
}

/// A well-formed fallback line when a stats report fails to serialize (our
/// own structs never should, but the front door must not panic for it).
fn stats_error_line(id: u64, error: &impl std::fmt::Display) -> String {
    render_response(&Response::error(id, format!("stats serialization failed: {error}")))
}

/// Wakes the event loop from worker threads: one byte down a loopback TCP
/// pair whose read end sits in the poll set. Writes are nonblocking — a
/// full socket buffer already guarantees a pending wakeup, so `WouldBlock`
/// is a success.
struct Waker {
    tx: TcpStream,
}

impl Waker {
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Finished responses on their way back to the loop thread: rendered
/// payloads tagged with the owning connection.
struct Completions {
    ready: Mutex<Vec<(u64, String)>>,
    waker: Waker,
    shutdown: AtomicBool,
}

impl Completions {
    fn push(&self, conn: u64, payload: String) {
        // A worker that panicked while holding the lock left a usable queue
        // behind; losing completions is worse than seeing its partial state.
        self.ready.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).push((conn, payload));
        self.waker.wake();
    }
}

/// A handle for requesting event-loop shutdown from another thread (the
/// stdio anchor of `clara-cli serve` uses this on stdin EOF).
#[derive(Clone)]
pub struct LoopHandle {
    completions: Arc<Completions>,
}

impl LoopHandle {
    /// Asks the loop to stop accepting, finish in-flight work and return.
    pub fn request_shutdown(&self) {
        self.completions.shutdown.store(true, Ordering::SeqCst);
        self.completions.waker.wake();
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Proto {
    Ndjson,
    Http,
}

/// Incremental HTTP request state.
#[derive(Default)]
struct HttpState {
    /// Byte offset where the body starts (headers parsed), if known.
    body_start: Option<usize>,
    method: String,
    path: String,
    /// `Some(Ok(n))` parsed, `Some(Err(()))` malformed, `None` absent.
    content_length: Option<Result<usize, ()>>,
    /// A response has been produced (queued or in flight); input ignored.
    responded: bool,
}

/// How long a connection whose request was rejected as too large keeps
/// reading (and dropping) input before it is closed. Closing a socket with
/// unread input makes the kernel send RST instead of FIN, and an RST that
/// overtakes the reply can destroy it; reading to the peer's EOF avoids
/// that, and the deadline bounds what a peer that never stops sending costs.
const DISCARD_GRACE: Duration = Duration::from_secs(2);

struct Conn {
    stream: TcpStream,
    proto: Proto,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Requests submitted or parked whose responses have not been written.
    inflight: usize,
    /// Peer half-closed, or the connection is committed to closing.
    input_done: bool,
    http: HttpState,
    last_activity: Instant,
    /// Set when a request was rejected as too large: input is dropped until
    /// the peer's EOF or this instant, and the write half is shut down once
    /// the owed replies are flushed.
    discard_until: Option<Instant>,
    write_shut: bool,
}

impl Conn {
    fn new(stream: TcpStream, proto: Proto) -> Conn {
        Conn {
            stream,
            proto,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            inflight: 0,
            input_done: false,
            http: HttpState::default(),
            last_activity: Instant::now(),
            discard_until: None,
            write_shut: false,
        }
    }

    fn has_unwritten(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    fn wants_read(&self) -> bool {
        let responded = self.proto == Proto::Http && self.http.responded && self.discard_until.is_none();
        !(self.input_done || responded)
    }

    /// A connection can be dropped when nothing remains to write and no
    /// response is still owed. HTTP connections close after their response
    /// (`Connection: close`); NDJSON connections and rejected ones close on
    /// peer EOF (or when their discard deadline passes, see `sweep`).
    fn can_close(&self) -> bool {
        let responded = self.proto == Proto::Http && self.http.responded && self.discard_until.is_none();
        !self.has_unwritten() && self.inflight == 0 && (self.input_done || responded)
    }

    /// Rejects the connection's input as too large: answers with an error,
    /// then drops further input (see [`DISCARD_GRACE`]).
    fn reject_oversized(&mut self) {
        self.read_buf.clear();
        self.discard_until = Some(Instant::now() + DISCARD_GRACE);
        respond(self, "413 Payload Too Large", &render_response(&Response::error(0, "request too large")));
    }
}

/// The poll(2) event loop. See the module docs for the architecture.
pub struct EventLoop {
    backend: Backend,
    config: EventLoopConfig,
    ndjson: Option<TcpListener>,
    http: Option<TcpListener>,
    wake_rx: TcpStream,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Requests parked while the pool was full, retried each iteration
    /// (tagged with their accept instant so shed/shutdown errors report the
    /// real time the request spent waiting).
    pending: VecDeque<(u64, Instant, Request)>,
    /// The seeded fault schedule, when chaos testing is enabled.
    injector: Option<FaultInjector>,
    /// Fault-delayed requests waiting for their release instant.
    delayed: VecDeque<(Instant, u64, Request)>,
}

/// A connected loopback TCP pair (the poll waker; `pipe(2)` would need a
/// third FFI symbol, and a localhost socket pair behaves identically here).
fn tcp_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    Ok((tx, rx))
}

impl EventLoop {
    /// Creates a loop over `backend` with no listeners attached yet.
    ///
    /// # Errors
    ///
    /// Fails when the loopback waker pair cannot be created.
    pub fn new(backend: Backend, config: EventLoopConfig) -> io::Result<EventLoop> {
        let (tx, rx) = tcp_pair()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        rx.set_nonblocking(true)?;
        let completions = Arc::new(Completions {
            ready: Mutex::new(Vec::new()),
            waker: Waker { tx },
            shutdown: AtomicBool::new(false),
        });
        let injector = config.faults.filter(|plan| !plan.is_noop()).map(|plan| plan.injector());
        Ok(EventLoop {
            backend,
            config,
            ndjson: None,
            http: None,
            wake_rx: rx,
            completions,
            conns: HashMap::new(),
            next_conn: 0,
            pending: VecDeque::new(),
            injector,
            delayed: VecDeque::new(),
        })
    }

    /// Attaches the NDJSON-over-TCP listener (the fleet protocol).
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be made nonblocking.
    pub fn with_ndjson_listener(mut self, listener: TcpListener) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        self.ndjson = Some(listener);
        Ok(self)
    }

    /// Attaches the HTTP listener.
    ///
    /// # Errors
    ///
    /// Fails when the listener cannot be made nonblocking.
    pub fn with_http_listener(mut self, listener: TcpListener) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        self.http = Some(listener);
        Ok(self)
    }

    /// A handle for requesting shutdown from another thread.
    pub fn handle(&self) -> LoopHandle {
        LoopHandle { completions: Arc::clone(&self.completions) }
    }

    /// Runs the loop until shutdown is requested and in-flight work has
    /// drained.
    ///
    /// # Errors
    ///
    /// Returns a fatal `poll(2)` error; per-connection I/O errors only drop
    /// that connection.
    pub fn run(mut self) -> io::Result<()> {
        loop {
            let shutting_down = self.completions.shutdown.load(Ordering::SeqCst);
            if shutting_down {
                // Stop taking input; drop connections as their in-flight
                // work drains. Exit once nothing is owed to anyone.
                for conn in self.conns.values_mut() {
                    conn.input_done = true;
                }
                self.conns.retain(|_, c| !c.can_close());
                if self.conns.is_empty() && self.pending.is_empty() {
                    return Ok(());
                }
            }

            // (pollfd, what it maps to) — ids resolved after poll returns.
            let mut fds: Vec<PollFd> = Vec::with_capacity(3 + self.conns.len());
            let mut tags: Vec<Tag> = Vec::with_capacity(fds.capacity());
            fds.push(PollFd { fd: self.wake_rx.as_raw_fd(), events: POLLIN, revents: 0 });
            tags.push(Tag::Waker);
            if !shutting_down {
                if let Some(listener) = &self.ndjson {
                    fds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
                    tags.push(Tag::NdjsonListener);
                }
                if let Some(listener) = &self.http {
                    fds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
                    tags.push(Tag::HttpListener);
                }
            }
            for (&id, conn) in &self.conns {
                let mut events = 0i16;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.has_unwritten() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
                    tags.push(Tag::Conn(id));
                }
            }

            let mut timeout = if self.pending.is_empty() { 200 } else { 20 };
            if let Some(due) = self.delayed.iter().map(|(at, _, _)| *at).min() {
                let until = due.saturating_duration_since(Instant::now()).as_millis() as i32;
                timeout = timeout.min(until.max(1));
            }
            poll_fds(&mut fds, timeout)?;

            // Waker bytes: drain and discard (their meaning is "look at the
            // completion queue / shutdown flag").
            if fds[0].revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                let mut sink = [0u8; 64];
                while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
            }

            self.drain_completions();
            self.release_due_delays();
            self.retry_pending();

            for (fd, tag) in fds.iter().zip(&tags).skip(1) {
                if fd.revents == 0 {
                    continue;
                }
                match tag {
                    Tag::Waker => {}
                    Tag::NdjsonListener => self.accept_all(Proto::Ndjson),
                    Tag::HttpListener => self.accept_all(Proto::Http),
                    Tag::Conn(id) => {
                        let id = *id;
                        if fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                            self.read_conn(id);
                        }
                        if fd.revents & POLLOUT != 0 {
                            if let Some(conn) = self.conns.get_mut(&id) {
                                flush_conn(conn);
                            }
                        }
                    }
                }
            }

            self.sweep(shutting_down);
        }
    }

    fn accept_all(&mut self, proto: Proto) {
        loop {
            let listener = match proto {
                Proto::Ndjson => self.ndjson.as_ref(),
                Proto::Http => self.http.as_ref(),
            };
            let Some(listener) = listener else { return };
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream, proto));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED, EMFILE…): skip this
                // round rather than killing the loop.
                Err(_) => return,
            }
        }
    }

    fn drain_completions(&mut self) {
        let ready = {
            let mut queue = self.completions.ready.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *queue)
        };
        for (id, payload) in ready {
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            conn.inflight = conn.inflight.saturating_sub(1);
            match conn.proto {
                Proto::Ndjson => {
                    conn.write_buf.extend_from_slice(payload.as_bytes());
                    conn.write_buf.push(b'\n');
                }
                Proto::Http => append_http(conn, "200 OK", &payload),
            }
            flush_conn(conn);
        }
    }

    /// Retries parked requests against the pool; what still doesn't fit
    /// stays parked.
    fn retry_pending(&mut self) {
        while let Some((id, accepted, request)) = self.pending.pop_front() {
            if !self.conns.contains_key(&id) {
                continue;
            }
            match self.submit(id, accepted, request) {
                Submitted::Yes => {}
                Submitted::Parked(request) => {
                    self.pending.push_front((id, accepted, request));
                    return;
                }
                Submitted::Closed => return,
            }
        }
    }

    fn submit(&mut self, conn_id: u64, accepted: Instant, request: Request) -> Submitted {
        let completions = Arc::clone(&self.completions);
        let reply: Box<dyn FnOnce(String) + Send> = Box::new(move |line| completions.push(conn_id, line));
        match self.backend.try_submit(request.clone(), reply) {
            Ok(true) => Submitted::Yes,
            Ok(false) => Submitted::Parked(request),
            Err(PoolClosed) => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    let error = Response::error(request.id, "service is shutting down")
                        .with_elapsed(accepted.elapsed().as_micros() as u64)
                        .with_trace(request.trace.clone());
                    respond(conn, "503 Service Unavailable", &render_response(&error));
                }
                Submitted::Closed
            }
        }
    }

    /// Re-enqueues fault-delayed requests whose release instant has passed.
    fn release_due_delays(&mut self) {
        let now = Instant::now();
        for _ in 0..self.delayed.len() {
            let Some((due, conn_id, request)) = self.delayed.pop_front() else { break };
            if due > now {
                self.delayed.push_back((due, conn_id, request));
                continue;
            }
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                // Drop the park-time hold; `enqueue` re-counts the request.
                conn.inflight = conn.inflight.saturating_sub(1);
                self.enqueue(conn_id, request);
            }
        }
    }

    /// Applies the fault schedule to a freshly parsed feedback request.
    /// Returns `true` when the request was consumed by a fault.
    fn inject_fault(&mut self, conn_id: u64, request: &Request) -> bool {
        let Some(injector) = self.injector.as_mut() else { return false };
        match injector.decide() {
            FaultAction::None => false,
            FaultAction::Drop => true, // swallowed: the client sees silence
            FaultAction::Close => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    // Abrupt close: pending output and owed responses are
                    // abandoned, exactly like a crash mid-exchange.
                    conn.input_done = true;
                    conn.read_buf.clear();
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    conn.inflight = 0;
                }
                true
            }
            FaultAction::Garble => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    respond(conn, "200 OK", "{\"garbled\":tru"); // deliberately unparseable
                }
                true
            }
            FaultAction::Delay(by) => {
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    // Hold the connection open while the request is parked.
                    conn.inflight += 1;
                    self.delayed.push_back((Instant::now() + by, conn_id, request.clone()));
                }
                true
            }
        }
    }

    /// Enqueues a freshly parsed request: submit, park, or shed.
    fn enqueue(&mut self, conn_id: u64, request: Request) {
        let accepted = Instant::now();
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.inflight += 1;
        }
        if self.pending.len() >= self.config.max_pending {
            // The pending ring is the overload buffer; past it, shed with an
            // explicit error so clients can back off.
            self.backend.note_shed();
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.inflight = conn.inflight.saturating_sub(1);
                let error = Response::error(request.id, "server overloaded, retry later")
                    .with_elapsed(accepted.elapsed().as_micros() as u64)
                    .with_trace(request.trace.clone());
                respond(conn, "503 Service Unavailable", &render_response(&error));
            }
            return;
        }
        if !self.pending.is_empty() {
            // Preserve submission order behind already-parked requests.
            self.pending.push_back((conn_id, accepted, request));
            return;
        }
        if let Submitted::Parked(request) = self.submit(conn_id, accepted, request) {
            self.pending.push_back((conn_id, accepted, request));
        }
    }

    fn read_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.input_done = true;
                    break;
                }
                // A rejected connection drops its input; past the deadline
                // it stops reading, and `sweep` closes it.
                Ok(_) if conn.discard_until.is_some_and(|at| Instant::now() >= at) => break,
                Ok(_) if conn.discard_until.is_some() => {}
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if conn.read_buf.len() > self.config.max_buffer {
                        conn.reject_oversized();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.input_done = true;
                    break;
                }
            }
        }
        match conn.proto {
            Proto::Ndjson => self.process_ndjson(id),
            Proto::Http => self.process_http(id),
        }
    }

    fn process_ndjson(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            let Some(newline) = conn.read_buf.iter().position(|&b| b == b'\n') else { return };
            let line_bytes: Vec<u8> = conn.read_buf.drain(..=newline).collect();
            let line = String::from_utf8_lossy(&line_bytes[..newline]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_incoming(line) {
                Ok(Incoming::Stats { id: request_id }) => {
                    let stats = self.backend.stats_line(request_id);
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    conn.write_buf.extend_from_slice(stats.as_bytes());
                    conn.write_buf.push(b'\n');
                    flush_conn(conn);
                }
                // Metrics probes, like stats, bypass fault injection: the
                // fleet must stay observable under chaos.
                Ok(Incoming::Metrics { id: request_id }) => {
                    let dump = self.backend.metrics_line(request_id);
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    conn.write_buf.extend_from_slice(dump.as_bytes());
                    conn.write_buf.push(b'\n');
                    flush_conn(conn);
                }
                Ok(Incoming::Feedback(request)) => {
                    if !self.inject_fault(id, &request) {
                        self.enqueue(id, request);
                    }
                }
                Err(message) => {
                    let error = render_response(&Response::error(0, format!("malformed request: {message}")));
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    conn.write_buf.extend_from_slice(error.as_bytes());
                    conn.write_buf.push(b'\n');
                    flush_conn(conn);
                }
            }
        }
    }

    fn process_http(&mut self, id: u64) {
        const MAX_BODY: usize = 1 << 20;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.http.responded {
            return;
        }
        if conn.http.body_start.is_none() {
            let Some(headers_end) = find_subsequence(&conn.read_buf, b"\r\n\r\n") else {
                // Headers incomplete; EOF here means the client gave up.
                if conn.input_done && !conn.read_buf.is_empty() {
                    respond(
                        conn,
                        "400 Bad Request",
                        &render_response(&Response::error(0, "truncated request head")),
                    );
                }
                return;
            };
            let head = String::from_utf8_lossy(&conn.read_buf[..headers_end]).into_owned();
            conn.http.body_start = Some(headers_end + 4);
            let mut lines = head.split("\r\n");
            let request_line = lines.next().unwrap_or("");
            let mut parts = request_line.split_whitespace();
            conn.http.method = parts.next().unwrap_or("").to_owned();
            conn.http.path = parts.next().unwrap_or("").to_owned();
            for header in lines {
                if let Some(value) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    conn.http.content_length = Some(value.trim().parse::<usize>().map_err(|_| ()));
                }
            }
        }

        let body_start = conn.http.body_start.expect("set above");
        let bad_request =
            |message: String| ("400 Bad Request", render_response(&Response::error(0, message)));
        match (conn.http.method.as_str(), conn.http.path.as_str()) {
            ("GET", "/health") => {
                let body = self.backend.health_line();
                let Some(conn) = self.conns.get_mut(&id) else { return };
                respond(conn, "200 OK", &body);
            }
            ("GET", "/stats") => {
                let body = self.backend.stats_line(0);
                let Some(conn) = self.conns.get_mut(&id) else { return };
                respond(conn, "200 OK", &body);
            }
            ("GET", "/metrics") => {
                let body = self.backend.metrics_text();
                let Some(conn) = self.conns.get_mut(&id) else { return };
                append_http_with_type(conn, "200 OK", "text/plain; version=0.0.4", &body);
                flush_conn(conn);
            }
            ("POST", "/repair") => match conn.http.content_length {
                None => {
                    let (status, body) = bad_request("missing Content-Length header".to_owned());
                    respond(conn, status, &body);
                }
                Some(Err(())) => {
                    let (status, body) = bad_request("invalid Content-Length header".to_owned());
                    respond(conn, status, &body);
                }
                Some(Ok(n)) if n > MAX_BODY => {
                    respond(
                        conn,
                        "413 Payload Too Large",
                        &render_response(&Response::error(0, "body too large")),
                    );
                }
                Some(Ok(n)) => {
                    let received = conn.read_buf.len().saturating_sub(body_start);
                    if received < n {
                        if conn.input_done {
                            let (status, body) =
                                bad_request(format!("truncated body: got {received} of {n} bytes"));
                            respond(conn, status, &body);
                        }
                        return; // keep waiting for the rest of the body
                    }
                    let body = &conn.read_buf[body_start..body_start + n];
                    match std::str::from_utf8(body)
                        .map_err(|e| e.to_string())
                        .and_then(|s| crate::protocol::parse_request(s).map_err(|e| e.to_string()))
                    {
                        Ok(request) => {
                            conn.http.responded = true; // the completion writes the response
                            self.enqueue(id, request);
                        }
                        Err(message) => {
                            let (status, body) = bad_request(format!("malformed request: {message}"));
                            respond(conn, status, &body);
                        }
                    }
                }
            },
            (method, path) => {
                let body = render_response(&Response::error(0, format!("no route {method} {path}")));
                respond(conn, "404 Not Found", &body);
            }
        }
    }

    /// Drops finished, broken and idle connections.
    fn sweep(&mut self, shutting_down: bool) {
        let idle_timeout = self.config.idle_timeout;
        self.conns.retain(|_, conn| {
            if conn.can_close() {
                return false;
            }
            let discard_expired = conn.discard_until.is_some_and(|at| Instant::now() >= at);
            if discard_expired && conn.inflight == 0 && !conn.has_unwritten() {
                return false;
            }
            // Mid-request idle connections (e.g. an HTTP client that never
            // sends its announced body) are dropped after the timeout; a
            // connection with work in flight is never dropped.
            if conn.inflight == 0
                && !conn.has_unwritten()
                && conn.last_activity.elapsed() > idle_timeout
                && (conn.proto == Proto::Http || shutting_down)
            {
                return false;
            }
            true
        });
    }
}

enum Submitted {
    Yes,
    Parked(Request),
    Closed,
}

enum Tag {
    Waker,
    NdjsonListener,
    HttpListener,
    Conn(u64),
}

/// Appends an HTTP response envelope around `body` and marks the exchange
/// finished.
fn append_http(conn: &mut Conn, status: &str, body: &str) {
    append_http_with_type(conn, status, "application/json", body);
}

/// [`append_http`] with an explicit content type (`GET /metrics` serves
/// Prometheus text, not JSON).
fn append_http_with_type(conn: &mut Conn, status: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_buf.extend_from_slice(head.as_bytes());
    conn.write_buf.extend_from_slice(body.as_bytes());
    conn.http.responded = true;
}

/// Queues a response on the right protocol framing and flushes
/// opportunistically. For NDJSON the HTTP status is ignored.
fn respond(conn: &mut Conn, http_status: &str, payload: &str) {
    match conn.proto {
        Proto::Ndjson => {
            conn.write_buf.extend_from_slice(payload.as_bytes());
            conn.write_buf.push(b'\n');
        }
        Proto::Http => append_http(conn, http_status, payload),
    }
    flush_conn(conn);
}

/// Writes as much buffered output as the socket accepts; compacts the
/// buffer when fully drained. Write errors mark the connection closed. A
/// rejected connection's write half is shut down once nothing more is owed,
/// so the peer reads the error reply and then a clean EOF.
fn flush_conn(conn: &mut Conn) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.input_done = true;
                conn.write_buf.clear();
                conn.write_pos = 0;
                return;
            }
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.input_done = true;
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.inflight = 0;
                return;
            }
        }
    }
    conn.write_buf.clear();
    conn.write_pos = 0;
    if conn.discard_until.is_some() && conn.inflight == 0 && !conn.write_shut {
        conn.write_shut = true;
        let _ = conn.stream.shutdown(Shutdown::Write);
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Server, ServerConfig};
    use crate::service::{FeedbackService, ServiceConfig};
    use crate::store::ClusterStore;
    use clara_core::ClaraConfig;
    use clara_corpus::mooc::derivatives;
    use std::io::{BufRead, BufReader};

    fn tcp_pair_for_test() -> (TcpStream, TcpStream) {
        tcp_pair().unwrap()
    }

    #[test]
    fn poll_times_out_on_idle_sockets() {
        let (client, _server) = tcp_pair_for_test();
        let mut fds = [PollFd { fd: client.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 50).unwrap(), 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn poll_reports_readable_after_a_write() {
        let (client, mut server) = tcp_pair_for_test();
        server.write_all(b"ping").unwrap();
        let mut fds = [PollFd { fd: client.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        let mut buf = [0u8; 4];
        let mut client = client;
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn poll_reports_hangup_or_readable_eof_on_close() {
        let (client, server) = tcp_pair_for_test();
        drop(server);
        let mut fds = [PollFd { fd: client.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 1_000).unwrap(), 1);
        // A closed peer shows up as POLLIN (read returns 0) and/or POLLHUP.
        assert_ne!(fds[0].revents & (POLLIN | POLLHUP), 0);
    }

    fn spawn_ndjson_server() -> (std::net::SocketAddr, LoopHandle) {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 2, queue_capacity: 8 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let event_loop = EventLoop::new(Backend::local(server), EventLoopConfig::default())
            .unwrap()
            .with_ndjson_listener(listener)
            .unwrap();
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
            if line.contains("\"snapshot_generation\"") {
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
    fn oversized_ndjson_lines_are_rejected() {
        let problem = derivatives();
        let seeds: Vec<&str> = problem.seeds.clone();
        let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = EventLoopConfig { max_buffer: 1024, ..EventLoopConfig::default() };
        let event_loop =
            EventLoop::new(Backend::local(server), config).unwrap().with_ndjson_listener(listener).unwrap();
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let huge = "x".repeat(4096);
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
        // A 64 KiB line against a 1 KiB buffer: the reply must arrive, then
        // EOF, never a connection reset, on every run.
        let problem = derivatives();
        let (store, _) = ClusterStore::build(&problem, problem.seeds.clone(), ClaraConfig::default());
        let service = Arc::new(FeedbackService::new(vec![store], ServiceConfig::default()));
        let server = Arc::new(Server::new(service, ServerConfig { workers: 1, queue_capacity: 4 }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = EventLoopConfig { max_buffer: 1024, ..EventLoopConfig::default() };
        let event_loop =
            EventLoop::new(Backend::local(server), config).unwrap().with_ndjson_listener(listener).unwrap();
        let handle = event_loop.handle();
        std::thread::spawn(move || {
            let _ = event_loop.run();
        });

        let huge = "x".repeat(64 * 1024);
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
        let config = EventLoopConfig {
            faults: Some("seed=3,garble=1".parse().unwrap()),
            ..EventLoopConfig::default()
        };
        let event_loop =
            EventLoop::new(Backend::local(server), config).unwrap().with_ndjson_listener(listener).unwrap();
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
        assert!(stats.contains("\"snapshot_generation\""), "{stats}");
        // Metrics probes are exempt too and answer with a parseable dump.
        writeln!(writer, r#"{{"id":11,"metrics":true}}"#).unwrap();
        let mut metrics = String::new();
        reader.read_line(&mut metrics).unwrap();
        let dump: crate::obs::MetricsDump = serde_json::from_str(metrics.trim()).unwrap();
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 11);
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
        let dump: crate::obs::MetricsDump = serde_json::from_str(metrics.trim()).unwrap();
        let requests: u64 =
            dump.counters.iter().filter(|c| c.name == "clara_requests_total").map(|c| c.value).sum();
        assert!(requests >= 1, "the request must be counted: {dump:?}");
        // The registry is process-global and other tests run in parallel,
        // so assert presence and sanity, not exact counts.
        let duration = dump
            .histograms
            .iter()
            .find(|h| h.name == "clara_request_duration_us")
            .expect("request duration histogram present");
        assert!(duration.hist.count >= 1);
        assert!(duration.hist.quantile(0.5) <= duration.hist.quantile(0.99).max(1));
        assert!(
            dump.histograms.iter().any(|h| h.name == "clara_stage_duration_us"),
            "stage histograms registered"
        );
        handle.request_shutdown();
    }
}
