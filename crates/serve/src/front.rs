//! The HTTP front end shared by `hbc-serve` and the `hbc-cluster`
//! coordinator: acceptor, bounded admission queue, handler pool,
//! per-request deadline, graceful drain, spans, status counters, and the
//! endpoints both answer the same way.
//!
//! ```text
//!            accept           bounded queue            handler pool
//!  clients ─────────▶ acceptor ──────────────▶ handlers ── POST /run ──▶ Backend
//!                        │ queue full / draining
//!                        ▼
//!                   429 / 503
//! ```
//!
//! What a request turns into is the [`Backend`]'s business. There are
//! exactly two: the local one ([`crate::server::LocalBackend`]: result
//! cache, single-flight, simulation) behind [`crate::server::Server`],
//! and the remote one (rendezvous routing, forward, failover) behind the
//! cluster coordinator.
//!
//! Policy, in one place:
//!
//! * **Backpressure** — the admission queue holds at most
//!   [`FrontConfig::queue_capacity`] connections; beyond that the
//!   acceptor answers `429` at once instead of letting latency grow
//!   without bound.
//! * **Deadline** — every request carries a deadline from the moment it
//!   was accepted. One that spends it in the queue gets a `504`; the
//!   backend answers `504` when its own work misses it.
//! * **Drain** — `POST /shutdown` (or [`FrontHandle::shutdown`]) lets the
//!   handlers finish queued and in-flight requests while the acceptor
//!   answers every *new* connection with an orderly `503`, until
//!   [`Front::join`] has joined the handlers. Anything still queued then
//!   gets a `503` too.
//! * **Trace context** — span and request IDs start above the bound port
//!   shifted into the high 32 bits, so the rings of a coordinator and its
//!   workers merge without two processes sharing an ID. A request whose
//!   query carries `trace=REQUEST.SPAN` (a coordinator's forward) records
//!   every span under that request, parented on that span, so the
//!   federated trace holds one tree per request across processes.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbc_probe::Stage;

use crate::http::{self, HttpError};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::spans::ServeSpans;
use crate::spec::{ExperimentId, Preset};
use crate::Locked;

/// What sits behind the front end: it answers `POST /run`, renders
/// `GET /metrics`, and may claim endpoints of its own.
pub trait Backend: Send + Sync + Sized + 'static {
    /// Names the front end in refusals (`"{ROLE} is draining"`) and
    /// thread names (`hbc-{ROLE}-acceptor`).
    const ROLE: &'static str;
    /// Paths [`route`](Self::route) may claim, so a wrong method on one
    /// answers `405` rather than `404`.
    const PATHS: &'static [&'static str];

    /// Answers one `POST /run` whose body is `body`.
    fn run(&self, out: &mut Responder<'_, Self>, body: &[u8]);

    /// Renders `GET /metrics` in the Prometheus text format from the
    /// front end's counters and span stages plus the backend's own.
    fn prometheus(&self, front: &Metrics, spans: &ServeSpans) -> String;

    /// Answers a backend-specific request and returns `true`, or returns
    /// `false` to leave it to the shared routes. `query` is the text
    /// after `?` (empty when there is none).
    fn route(&self, out: &mut Responder<'_, Self>, method: &str, path: &str, query: &str) -> bool;

    /// Counts a response status [`Metrics`] has no row for, returning
    /// whether it did; uncounted statuses land in `responses_error`.
    fn count_status(&self, _status: u16) -> bool {
        false
    }

    /// Called once, when drain begins.
    fn on_drain(&self) {}
}

/// Front-end construction parameters, filled from the server's or the
/// coordinator's own config.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Handler threads serving the admission queue. `0` is permitted
    /// (nothing drains the queue — used by overload tests).
    pub handlers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept.
    pub request_timeout: Duration,
}

/// One accepted connection waiting for a handler. Its spans are recorded
/// once the request is read, which may name the trace they belong to.
struct QueuedConn {
    stream: TcpStream,
    accepted: Instant,
    /// When the acceptor took the connection, on the span clock.
    accept_us: u64,
    /// When the connection entered the queue, on the span clock.
    queued_us: u64,
}

/// State shared by the acceptor, the handlers, and every handle.
struct Shared<B> {
    addr: SocketAddr,
    request_timeout: Duration,
    backend: B,
    metrics: Arc<Metrics>,
    spans: Arc<ServeSpans>,
    queue: Locked<VecDeque<QueuedConn>>,
    queue_capacity: usize,
    /// Draining: handlers finish the queue, the acceptor answers `503`.
    draining: AtomicBool,
    /// Fully stopped: the acceptor exits (set by `join`).
    stopped: AtomicBool,
}

/// A running front end. Lifecycle: [`Front::start`] → clients →
/// `POST /shutdown` (or [`FrontHandle::shutdown`]) → [`Front::join`].
pub struct Front<B> {
    shared: Arc<Shared<B>>,
    acceptor: JoinHandle<()>,
    handlers: Vec<JoinHandle<()>>,
}

/// A cloneable reference to a running front end.
pub struct FrontHandle<B> {
    shared: Arc<Shared<B>>,
}

impl<B> Clone for FrontHandle<B> {
    fn clone(&self) -> Self {
        FrontHandle { shared: Arc::clone(&self.shared) }
    }
}

impl<B: Backend> Front<B> {
    /// Binds the listener, spawns the acceptor and handler threads, and
    /// returns immediately. The span ring keeps the `span_capacity` most
    /// recent spans, with IDs namespaced by the bound port. `backend`
    /// builds the backend from the metrics and spans it shares with the
    /// front end, which it counts and traces its own stages into.
    pub fn start(
        config: FrontConfig,
        span_capacity: usize,
        backend: impl FnOnce(&Arc<Metrics>, &Arc<ServeSpans>) -> B,
    ) -> io::Result<Front<B>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let id_base = u64::from(addr.port()) << 32;
        let spans = Arc::new(ServeSpans::with_id_base(span_capacity, id_base));
        let metrics = Arc::default();
        let backend = backend(&metrics, &spans);
        let shared = Arc::new(Shared {
            addr,
            request_timeout: config.request_timeout,
            backend,
            metrics,
            spans,
            queue: Locked::default(),
            queue_capacity: config.queue_capacity,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hbc-{}-acceptor", B::ROLE))
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let mut handlers = Vec::with_capacity(config.handlers);
        for i in 0..config.handlers {
            let shared = Arc::clone(&shared);
            handlers.push(
                std::thread::Builder::new()
                    .name(format!("hbc-{}-handler-{i}", B::ROLE))
                    .spawn(move || handler_loop(&shared))?,
            );
        }
        Ok(Front { shared, acceptor, handlers })
    }

    /// The bound address (the real port even when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> FrontHandle<B> {
        FrontHandle { shared: Arc::clone(&self.shared) }
    }

    /// Blocks until drain completes: handlers finish queued and in-flight
    /// requests, then the acceptor (which answered `503` meanwhile) exits
    /// and anything still queued gets a `503`.
    pub fn join(self) {
        for handler in self.handlers {
            let _ = handler.join();
        }
        // Handlers are gone; flip the acceptor from 503-mode to exit.
        self.shared.stopped.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
        let _ = self.acceptor.join();
        // No handlers configured, or a push that raced the last handler's
        // exit: answer with an orderly refusal.
        let leftovers = self.shared.queue.with(std::mem::take);
        for conn in leftovers {
            self.shared.metrics.queue_pop();
            self.shared.metrics.responses_unavailable.inc();
            respond_without_reading(conn.stream, 503, &format!("{} is shutting down", B::ROLE));
        }
    }
}

impl<B: Backend> FrontHandle<B> {
    /// Requests graceful drain: queued and in-flight requests finish, new
    /// connections get `503`.
    pub fn shutdown(&self) {
        initiate_drain(&self.shared);
    }

    /// The live front-end metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The backend behind this front end.
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

fn initiate_drain<B: Backend>(shared: &Shared<B>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.notify_all();
    shared.backend.on_drain();
}

fn accept_loop<B: Backend>(shared: &Shared<B>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.draining.load(Ordering::SeqCst) {
            shared.metrics.responses_unavailable.inc();
            respond_without_reading(stream, 503, &format!("{} is draining", B::ROLE));
            continue;
        }
        let accept_us = shared.spans.now_us();
        let queued = shared.queue.with(|queue| {
            if queue.len() >= shared.queue_capacity {
                return Err(stream);
            }
            let queued_us = shared.spans.now_us();
            queue.push_back(QueuedConn { stream, accepted: Instant::now(), accept_us, queued_us });
            shared.metrics.queue_push();
            Ok(())
        });
        if let Err(stream) = queued {
            shared.metrics.responses_rejected.inc();
            respond_without_reading(stream, 429, "admission queue is full, retry later");
            continue;
        }
        shared.queue.notify_one();
    }
}

/// Writes an error response to a connection whose request was never read
/// (admission rejection, drain), then sinks the unread request bytes so
/// closing the socket does not RST the response away.
fn respond_without_reading(mut stream: TcpStream, status: u16, message: &str) {
    let short = Duration::from_millis(500);
    let _ = stream.set_write_timeout(Some(short));
    let _ = stream.set_read_timeout(Some(short));
    let body = error_body(status, message);
    if http::write_response(&mut stream, status, "application/json", &[], body.as_bytes()).is_ok() {
        use std::io::Read as _;
        let mut sink = [0u8; 512];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    }
}

fn handler_loop<B: Backend>(shared: &Shared<B>) {
    let ready =
        |queue: &VecDeque<QueuedConn>| !queue.is_empty() || shared.draining.load(Ordering::SeqCst);
    // Empty only once draining: the handler's work is done.
    while let Some(conn) = shared.queue.wait_until(None, ready, |queue, _| queue.pop_front()) {
        shared.metrics.queue_pop();
        handle_conn(shared, conn);
    }
}

/// JSON error envelope: `{"error":…,"status":…}`.
fn error_body(status: u16, message: &str) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("error".to_string(), Json::Str(message.to_string()));
    obj.insert("status".to_string(), Json::U64(u64::from(status)));
    Json::Obj(obj).render()
}

/// One request being answered: the connection, its deadline, and its
/// span-trace context. Every response goes through
/// [`respond`](Self::respond), which counts it by status, records the
/// serialize and write spans, and records the end-to-end latency.
pub struct Responder<'a, B> {
    shared: &'a Shared<B>,
    stream: &'a mut TcpStream,
    accepted: Instant,
    /// The request's deadline (accept time plus the request timeout).
    pub deadline: Instant,
    /// The span-trace request ID: this front end's own, or the one a
    /// forwarding coordinator sent in `?trace=`.
    pub request_id: u64,
    /// The span this request's spans hang under: the forwarding
    /// coordinator's `cluster.forward` span, or 0 for a request that came
    /// with no trace context.
    pub parent: u64,
}

impl<B: Backend> Responder<'_, B> {
    /// The front end's span sink.
    pub fn spans(&self) -> &ServeSpans {
        &self.shared.spans
    }

    /// Whether drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Writes one response.
    pub fn respond(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) {
        let shared = self.shared;
        let m = &shared.metrics;
        match status {
            200 => m.responses_ok.inc(),
            400 | 405 => m.responses_bad_request.inc(),
            404 => m.responses_not_found.inc(),
            429 => m.responses_rejected.inc(),
            503 => m.responses_unavailable.inc(),
            504 => m.responses_timeout.inc(),
            _ if shared.backend.count_status(status) => {}
            _ => m.responses_error.inc(),
        }
        let (spans, id, parent) = (&shared.spans, self.request_id, self.parent);
        let serialize_start_us = spans.now_us();
        let bytes = http::render_response(status, content_type, extra_headers, body);
        let write_start_us = spans.now_us();
        spans.record_at(Stage::ServeSerialize, id, parent, serialize_start_us, write_start_us);
        use std::io::Write as _;
        debug_assert!(!Locked::held(), "socket I/O inside a critical section");
        let _ = self.stream.write_all(&bytes).and_then(|()| self.stream.flush());
        spans.record_at(Stage::ServeWrite, id, parent, write_start_us, spans.now_us());
        let micros = u64::try_from(self.accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
        m.record_latency(micros);
    }

    /// Writes one JSON error envelope.
    pub fn error(&mut self, status: u16, message: &str) {
        let body = error_body(status, message);
        self.respond(status, "application/json", &[], body.as_bytes());
    }
}

/// The endpoints every front end answers; a backend adds its own.
const SHARED_PATHS: &[&str] =
    &["/run", "/metrics", "/trace", "/healthz", "/experiments", "/shutdown"];

/// The `trace=REQUEST.SPAN` pair of a query, if it names two nonzero IDs.
fn trace_context(query: &str) -> Option<(u64, u64)> {
    let value = query.split('&').find_map(|pair| pair.strip_prefix("trace="))?;
    let (request, span) = value.split_once('.')?;
    let ids = (request.parse().ok()?, span.parse().ok()?);
    (ids.0 != 0 && ids.1 != 0).then_some(ids)
}

fn handle_conn<B: Backend>(shared: &Shared<B>, conn: QueuedConn) {
    let QueuedConn { mut stream, accepted, accept_us, queued_us } = conn;
    let spans = &shared.spans;
    let dequeued_us = spans.now_us();
    let deadline = accepted + shared.request_timeout;
    let now = Instant::now();
    // `None`: the request spent its whole budget in the queue.
    let parsed = (now < deadline).then(|| {
        // The socket read budget is the smaller of the request deadline and
        // a fixed cap, so an idle client cannot pin a handler for long.
        let io_budget = (deadline - now).min(Duration::from_secs(10));
        let _ = stream.set_read_timeout(Some(io_budget));
        let _ = stream.set_write_timeout(Some(io_budget));
        let parse_start_us = spans.now_us();
        (parse_start_us, http::read_request(&mut stream), spans.now_us())
    });
    let context = match &parsed {
        Some((_, Ok(request), _)) => {
            request.path.split_once('?').and_then(|(_, q)| trace_context(q))
        }
        _ => None,
    };
    let (request_id, parent) = context.unwrap_or_else(|| (spans.begin_request(), 0));
    spans.record_at(Stage::ServeAccept, request_id, parent, accept_us, queued_us);
    spans.record_at(Stage::ServeQueueWait, request_id, parent, queued_us, dequeued_us);
    let mut out = Responder { shared, stream: &mut stream, accepted, deadline, request_id, parent };
    let Some((parse_start_us, parsed, parse_end_us)) = parsed else {
        shared.metrics.requests.inc();
        out.error(504, "request timed out in queue");
        return;
    };
    spans.record_at(Stage::ServeParse, request_id, parent, parse_start_us, parse_end_us);
    let request = match parsed {
        Ok(request) => request,
        // Nothing useful (or nobody) to answer: closed early or dead socket.
        Err(HttpError::Closed | HttpError::Io(_)) => return,
        Err(err @ (HttpError::Malformed(_) | HttpError::TooLarge(_))) => {
            shared.metrics.requests.inc();
            out.error(400, &err.to_string());
            return;
        }
    };
    shared.metrics.requests.inc();

    // `Request.path` carries the query string verbatim; split it off so
    // `/trace?federated=1` reaches the trace endpoint.
    let (path, query) = request.path.split_once('?').unwrap_or((request.path.as_str(), ""));
    let method = request.method.as_str();
    if shared.backend.route(&mut out, method, path, query) {
        return;
    }
    match (method, path) {
        ("POST", "/run") => shared.backend.run(&mut out, &request.body),
        ("GET", "/metrics") => {
            let body = shared.backend.prometheus(&shared.metrics, &shared.spans);
            out.respond(200, "text/plain; version=0.0.4", &[], body.as_bytes());
        }
        ("GET", "/trace") => {
            // The drop count rides in a header so a federating coordinator
            // can flag an incomplete ring without a second request.
            let dropped = shared.spans.log().dropped().to_string();
            let body = shared.spans.to_jsonl();
            out.respond(
                200,
                "application/x-ndjson",
                &[("X-Span-Dropped", &dropped)],
                body.as_bytes(),
            );
        }
        ("GET", "/healthz") => out.respond(200, "text/plain", &[], b"ok\n"),
        ("GET", "/experiments") => {
            out.respond(200, "application/json", &[], experiments_body().as_bytes());
        }
        ("POST", "/shutdown") => {
            // Drain first: once the client reads this answer, every new
            // connection is refused.
            initiate_drain(shared);
            out.respond(200, "text/plain", &[], b"draining\n");
        }
        (_, path) if SHARED_PATHS.contains(&path) || B::PATHS.contains(&path) => {
            out.error(405, "method not allowed");
        }
        _ => out.error(404, "no such endpoint"),
    }
}

/// `GET /experiments`: what the service can run.
fn experiments_body() -> String {
    let experiments = ExperimentId::ALL.map(|id| Json::Str(id.name().to_string())).to_vec();
    let presets = [Preset::Fast, Preset::Standard, Preset::Full]
        .map(|p| Json::Str(p.name().to_string()))
        .to_vec();
    let mut obj = BTreeMap::new();
    obj.insert("experiments".to_string(), Json::Arr(experiments));
    obj.insert("presets".to_string(), Json::Arr(presets));
    Json::Obj(obj).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_valid_json() {
        let body = error_body(400, "field `seed`: expected \"quote\"");
        let v = Json::parse(&body).expect("envelope parses");
        assert_eq!(v.as_obj().unwrap()["status"].as_u64(), Some(400));
    }

    #[test]
    fn trace_context_needs_two_nonzero_ids() {
        assert_eq!(trace_context("trace=7.42"), Some((7, 42)));
        assert_eq!(trace_context("x=1&trace=7.42"), Some((7, 42)));
        for query in ["", "trace=7", "trace=0.42", "trace=7.0", "trace=a.b", "trace=7.42.1"] {
            assert_eq!(trace_context(query), None, "{query}");
        }
    }

    #[test]
    fn experiments_body_lists_everything() {
        let v = Json::parse(&experiments_body()).unwrap();
        let obj = v.as_obj().unwrap();
        assert!(matches!(&obj["experiments"], Json::Arr(a) if a.len() == 10));
        assert!(matches!(&obj["presets"], Json::Arr(a) if a.len() == 3));
    }
}
