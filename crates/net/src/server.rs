//! The network front end: accept loop, connection handlers, routing, and
//! the request → lifecycle mapping.
//!
//! A [`NetServer`] owns a [`Server`](naru_serve::Server) and exposes it
//! over TCP: one accept thread feeds accepted connections through a
//! channel to a small pool of handler threads, each of which runs the
//! keep-alive request loop for one connection at a time. Three routes:
//!
//! * `POST /estimate` — body is the line-oriented query format
//!   ([`naru_query::wire`]); the response body is the `key value` estimate
//!   format ([`crate::wire`]). An `X-Naru-Priority` header picks the
//!   [`Priority`] lane, `X-Naru-Timeout-Ms` becomes a [`Deadline`], and
//!   every [`ServeError`] maps to its own status code
//!   ([`status_for`](crate::error::status_for)).
//! * `GET /metrics` — the server's [`MetricsSnapshot`] as JSON (the same
//!   rendering `bench_serve` embeds in its report).
//! * `GET /healthz` — liveness probe, `200 ok`.
//!
//! **Disconnect cancels work.** While a request waits on its
//! [`Ticket`](naru_serve::Ticket), the handler polls the socket; a client
//! that hangs up has its ticket cancelled, so workers skip the abandoned
//! request (counted `cancelled`, never `served`).
//!
//! **Shutdown drains.** [`NetServer::shutdown`] stops accepting, lets
//! every live connection finish its in-flight request, joins the handler
//! pool, and only then drains the serve queue — no accepted work is lost,
//! and the final [`MetricsSnapshot`] satisfies the accounting identity.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use naru_query::wire::{decode_query_with, WireLimits};
use naru_serve::{Deadline, MetricsSnapshot, Priority, Server, SubmitOptions};

use crate::error::status_for;
use crate::http::{read_request, write_response, HttpLimits, ReadOutcome, Request};
use crate::wire::encode_served;

/// Front-end knobs. The defaults suit loopback tests and examples; a real
/// deployment mostly raises `handler_threads`.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Connection-handler threads; each runs one connection at a time, so
    /// this bounds concurrent connections.
    pub handler_threads: usize,
    /// HTTP parser caps.
    pub limits: HttpLimits,
    /// Query-decoder caps.
    pub wire_limits: WireLimits,
    /// Socket read timeout and ticket-wait tick: how often an idle
    /// connection polls the shutdown flag, and how often a waiting request
    /// polls for client disconnect.
    pub poll_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            handler_threads: 2,
            limits: HttpLimits::default(),
            wire_limits: WireLimits::default(),
            poll_interval: Duration::from_millis(25),
        }
    }
}

impl NetConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the handler-thread count (clamped to at least 1 at start).
    pub fn with_handler_threads(mut self, handler_threads: usize) -> Self {
        self.handler_threads = handler_threads;
        self
    }

    /// Sets the poll tick (clamped to at least 1ms at start).
    pub fn with_poll_interval(mut self, poll_interval: Duration) -> Self {
        self.poll_interval = poll_interval;
        self
    }
}

/// State shared by the accept thread and every handler thread.
struct Shared {
    serve: Server,
    limits: HttpLimits,
    wire_limits: WireLimits,
    poll_interval: Duration,
    shutdown: AtomicBool,
}

/// The running front end. Dropping it (or calling
/// [`NetServer::shutdown`]) stops accepting, drains connections, then
/// drains the serve queue.
pub struct NetServer {
    /// `Some` until `shutdown` consumes it; `Drop` handles the remainder.
    shared: Option<Arc<Shared>>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds the listener and spawns the accept + handler threads around
    /// an already-started [`Server`].
    pub fn start(serve: Server, config: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            serve,
            limits: config.limits,
            wire_limits: config.wire_limits,
            poll_interval: config.poll_interval.max(Duration::from_millis(1)),
            shutdown: AtomicBool::new(false),
        });

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let handler_threads: Vec<JoinHandle<()>> = (0..config.handler_threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::spawn(move || handler_loop(&shared, &conn_rx))
            })
            .collect();

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || {
            // `incoming` blocks; shutdown() wakes it with a dummy connect
            // after raising the flag, so the check always runs promptly.
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A send can only fail if every handler died; drop the
                    // connection rather than wedge the accept loop.
                    let _ = conn_tx.send(stream);
                }
            }
            // conn_tx drops here: handlers drain the backlog and exit.
        });

        Ok(NetServer { shared: Some(shared), local_addr, accept_thread: Some(accept_thread), handler_threads })
    }

    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the underlying serve-layer counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.shared {
            Some(shared) => shared.serve.metrics(),
            None => EMPTY_SNAPSHOT,
        }
    }

    /// Graceful shutdown: stop accepting, drain live connections, join the
    /// handler pool, then drain the serve queue. Returns the final
    /// counters (for which the accounting identity holds exactly).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_threads();
        match self.shared.take() {
            Some(shared) => drain_serve(shared),
            // Unreachable: `shared` is only taken here, and `shutdown`
            // consumes `self`.
            None => EMPTY_SNAPSHOT,
        }
    }

    /// Raises the shutdown flag, wakes the accept loop, joins every
    /// thread. Idempotent.
    fn stop_threads(&mut self) {
        if let Some(shared) = &self.shared {
            shared.shutdown.store(true, Ordering::Release);
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for handle in self.handler_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_threads();
        // Dropping the last `Shared` reference drops the `Server`, whose
        // own Drop drains the queue and joins the workers.
        drop(self.shared.take());
    }
}

/// The all-zero snapshot returned from the unreachable already-consumed
/// branches of `metrics`/`shutdown`.
const EMPTY_SNAPSHOT: MetricsSnapshot = MetricsSnapshot {
    accepted: 0,
    rejected: 0,
    served: 0,
    failed: 0,
    shed: 0,
    cancelled: 0,
    batches: 0,
    // Always 0 in every snapshot; kept for struct compatibility.
    fused_batches: 0,
    tier0_served: 0,
    tier1_served: 0,
    tier2_served: 0,
    // Always 0 in every snapshot; kept for struct compatibility.
    relaxed_served: 0,
    degraded_served: 0,
    worker_respawns: 0,
    cache_hits: 0,
    cache_misses: 0,
    cache_evictions: 0,
};

/// Consumes the last `Shared` reference and drains the serve layer.
fn drain_serve(shared: Arc<Shared>) -> MetricsSnapshot {
    match Arc::try_unwrap(shared) {
        Ok(shared) => shared.serve.shutdown(),
        // Unreachable once every thread is joined; close-and-snapshot is
        // the safe fallback.
        Err(shared) => {
            shared.serve.close();
            shared.serve.metrics()
        }
    }
}

/// One handler thread: pull connections off the channel until the accept
/// thread drops the sender and the backlog drains.
fn handler_loop(shared: &Shared, conn_rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => break,
        }
    }
}

/// The keep-alive loop for one connection.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(shared.poll_interval)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    loop {
        match read_request(&mut reader, &shared.limits) {
            Ok(ReadOutcome::Request(request)) => {
                let keep_alive = respond(shared, &request, &mut stream);
                if !keep_alive || shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(err) => {
                if let Some((status, reason)) = err.status() {
                    let body = format!("{err}\n");
                    let _ = write_response(&mut stream, status, reason, "text/plain", body.as_bytes(), false);
                }
                break;
            }
        }
    }
}

/// Routes one request and writes its response. Returns whether the
/// connection should stay open.
fn respond(shared: &Shared, request: &Request, stream: &mut TcpStream) -> bool {
    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => write_ok(stream, request, "text/plain", "ok\n"),
        ("GET", "/metrics") => {
            let mut body = shared.serve.metrics().to_json();
            body.push('\n');
            write_ok(stream, request, "application/json", &body)
        }
        ("POST", "/estimate") => respond_estimate(shared, request, stream),
        (_, "/healthz" | "/metrics" | "/estimate") => {
            write_error(stream, request, 405, "Method Not Allowed", "method not allowed for this path\n")
        }
        (_, _) => write_error(stream, request, 404, "Not Found", "unknown path\n"),
    }
}

/// The `POST /estimate` path: headers → options, body → query, ticket →
/// response, with disconnect polling while the ticket waits.
fn respond_estimate(shared: &Shared, request: &Request, stream: &mut TcpStream) -> bool {
    let options = match submit_options(request) {
        Ok(options) => options,
        Err(message) => return write_error(stream, request, 400, "Bad Request", &message),
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return write_error(stream, request, 400, "Bad Request", "body is not valid UTF-8\n"),
    };
    let query = match decode_query_with(body, shared.wire_limits) {
        Ok(query) => query,
        Err(err) => return write_error(stream, request, 400, "Bad Request", &format!("{err}\n")),
    };

    let submitted = shared.serve.try_submit_with(query, options);
    let mut ticket = match submitted {
        Ok(ticket) => ticket,
        Err(err) => {
            let (status, reason) = status_for(&err);
            return write_error(stream, request, status, reason, &format!("{err}\n"));
        }
    };

    // Poll for client disconnect while the request queues/executes; a
    // vanished client cancels the ticket so workers skip the work.
    let response = loop {
        match ticket.wait_timeout(shared.poll_interval) {
            Ok(response) => break response,
            Err(pending) => {
                if client_gone(stream) {
                    pending.cancel();
                    return false;
                }
                ticket = pending;
            }
        }
    };

    match response {
        Ok(served) => write_ok(stream, request, "text/plain", &encode_served(&served)),
        Err(err) => {
            let (status, reason) = status_for(&err);
            write_error(stream, request, status, reason, &format!("{err}\n"))
        }
    }
}

/// Builds [`SubmitOptions`] from the `X-Naru-*` headers, or a 400 body.
fn submit_options(request: &Request) -> Result<SubmitOptions, String> {
    let mut options = SubmitOptions::new();
    if let Some(label) = request.header("x-naru-priority") {
        match Priority::from_label(&label.to_ascii_lowercase()) {
            Some(priority) => options = options.with_priority(priority),
            None => {
                return Err(format!("unknown priority `{label}` (expected interactive, batch, or best_effort)\n"));
            }
        }
    }
    if let Some(value) = request.header("x-naru-timeout-ms") {
        match value.trim().parse::<u64>() {
            Ok(ms) => options = options.with_deadline(Deadline::within(Duration::from_millis(ms))),
            Err(_) => return Err(format!("invalid X-Naru-Timeout-Ms `{value}` (expected milliseconds)\n")),
        }
    }
    Ok(options)
}

/// Whether the peer has hung up: a non-blocking peek seeing EOF (or a hard
/// error) means gone; pending bytes or `WouldBlock` mean alive.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    gone
}

fn write_ok(stream: &mut impl Write, request: &Request, content_type: &str, body: &str) -> bool {
    write_response(stream, 200, "OK", content_type, body.as_bytes(), request.keep_alive).is_ok() && request.keep_alive
}

fn write_error(stream: &mut impl Write, request: &Request, status: u16, reason: &'static str, body: &str) -> bool {
    write_response(stream, status, reason, "text/plain", body.as_bytes(), request.keep_alive).is_ok()
        && request.keep_alive
}
