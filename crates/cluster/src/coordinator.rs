//! The cluster coordinator: the `hbc-serve` HTTP front end
//! ([`hbc_serve::front`]) over a remote backend that fans out to worker
//! processes over the binary wire protocol.
//!
//! ```text
//!            front end (accept, queue, handlers)      remote backend
//!  clients ───────────────────────────────────▶ POST /run ── route ──▶ worker (wire)
//!                                                              │ transport failure
//!                                                              ▼
//!                                                  mark unhealthy, failover
//!                                                  to the next candidate
//! ```
//!
//! Routing is rendezvous hashing ([`crate::ring`]) on the canonical spec
//! hash, so one spec always lands on the same worker while that worker is
//! up — its in-memory LRU and `results/cache/` shard stay hot. Each
//! forward opens a one-shot connection (no pooling: nothing idles on a
//! draining worker), bounded by a per-worker in-flight window.
//!
//! Failure policy, in one place:
//!
//! * **Transport failure** (connect refused, timeout, severed mid-frame)
//!   marks the worker unhealthy and fails over to the next rendezvous
//!   candidate. The background prober revives workers that answer
//!   `Health` again.
//! * **Worker-reported errors** (`RunErr`, e.g. a malformed spec or a
//!   simulation panic) are forwarded verbatim and never retried: the
//!   stack is deterministic, so a second worker would fail identically.
//! * **Exhausted candidates** answer `502`; a blown deadline answers
//!   `504`, mirroring `hbc-serve`.
//!
//! Admission, deadlines and drain are the shared front end's:
//! `POST /shutdown` (or [`CoordinatorHandle::shutdown`]) lets queued and
//! in-flight requests finish while *new* connections get an immediate
//! `503` until [`Coordinator::join`] completes. Workers are left running
//! — they are separate processes with their own drain.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hbc_probe::{Histogram, Stage};
use hbc_serve::front::{Backend, Front, FrontConfig, FrontHandle, Responder};
use hbc_serve::json::Json;
use hbc_serve::metrics::{family, summary, write_stages, AtomicCounter, Metrics};
use hbc_serve::spans::ServeSpans;
use hbc_serve::spec::RunRequest;
use hbc_serve::Locked;

use crate::ring;
use crate::wire::{self, Msg, TraceCtx};

/// Coordinator construction parameters.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker addresses (`host:port`), the rendezvous membership. Order
    /// does not matter — routing depends only on the set.
    pub workers: Vec<String>,
    /// Handler threads serving the admission queue.
    pub handlers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept, spanning every
    /// failover attempt.
    pub request_timeout: Duration,
    /// Per-attempt budget for one worker forward (connect + request +
    /// response), clamped to the remaining request deadline.
    pub wire_timeout: Duration,
    /// Per-worker bound on concurrently forwarded requests.
    pub window: usize,
    /// Background health-probe period.
    pub probe_interval: Duration,
    /// Most recent spans retained for `GET /trace`.
    pub span_capacity: usize,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            handlers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(600),
            wire_timeout: Duration::from_secs(120),
            window: 32,
            probe_interval: Duration::from_secs(2),
            span_capacity: 4096,
        }
    }
}

/// Coordinator-side view of one worker: health, the in-flight window,
/// and per-shard counters.
struct Target {
    addr: String,
    healthy: AtomicBool,
    /// Requests forwarded and not yet answered, bounded by the window.
    in_flight: Locked<usize>,
    forwarded: AtomicCounter,
    failures: AtomicCounter,
    hits_memory: AtomicCounter,
    hits_disk: AtomicCounter,
    misses: AtomicCounter,
    latency_micros: Locked<Histogram>,
}

impl Target {
    fn new(addr: String) -> Self {
        Target {
            addr,
            healthy: AtomicBool::new(true),
            in_flight: Locked::new(0),
            forwarded: AtomicCounter::default(),
            failures: AtomicCounter::default(),
            hits_memory: AtomicCounter::default(),
            hits_disk: AtomicCounter::default(),
            misses: AtomicCounter::default(),
            latency_micros: Locked::default(),
        }
    }

    /// Claims one in-flight slot, waiting until `deadline` if the window
    /// is full. `false` means the deadline passed first.
    fn acquire(&self, window: usize, deadline: Instant) -> bool {
        let open = |count: &usize| *count < window;
        self.in_flight.wait_until(Some(deadline), open, |count, open| {
            if open {
                *count += 1;
            }
            open
        })
    }

    fn release(&self) {
        self.in_flight.with(|count| *count = count.saturating_sub(1));
        self.in_flight.notify_one();
    }
}

/// Coordinator-only counters; requests, responses by status and the
/// queue gauges are the front end's [`Metrics`].
#[derive(Debug, Default)]
struct ClusterMetrics {
    failovers: AtomicCounter,
    retries_exhausted: AtomicCounter,
    responses_bad_gateway: AtomicCounter,
}

/// The remote backend: rendezvous plan, windowed forward with failover,
/// the health prober's state, and the coordinator-only endpoints
/// (`GET /cluster`, `GET /trace?federated=1`).
struct RemoteBackend {
    targets: Vec<Target>,
    worker_names: Vec<String>,
    window: usize,
    wire_timeout: Duration,
    probe_interval: Duration,
    metrics: ClusterMetrics,
    /// Paces the prober; drain wakes it.
    probe_wake: Locked<()>,
}

impl RemoteBackend {
    fn new(config: &CoordinatorConfig) -> Self {
        RemoteBackend {
            targets: config.workers.iter().cloned().map(Target::new).collect(),
            worker_names: config.workers.clone(),
            window: config.window.max(1),
            wire_timeout: config.wire_timeout,
            probe_interval: config.probe_interval,
            metrics: ClusterMetrics::default(),
            probe_wake: Locked::new(()),
        }
    }
}

/// A running coordinator: the shared front end over the remote backend,
/// plus the health prober. Lifecycle: [`Coordinator::bind`] → clients →
/// `POST /shutdown` (or [`CoordinatorHandle::shutdown`]) →
/// [`Coordinator::join`].
pub struct Coordinator {
    front: Front<RemoteBackend>,
    prober: JoinHandle<()>,
}

/// A cloneable reference to a running coordinator.
#[derive(Clone)]
pub struct CoordinatorHandle {
    front: FrontHandle<RemoteBackend>,
}

impl Coordinator {
    /// Binds the listener and spawns the acceptor, handler pool, and
    /// health prober. Fails fast on an empty worker list.
    pub fn bind(config: CoordinatorConfig) -> io::Result<Coordinator> {
        if config.workers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a coordinator needs at least one worker address",
            ));
        }
        let backend = RemoteBackend::new(&config);
        let front = FrontConfig {
            addr: config.addr,
            handlers: config.handlers,
            queue_capacity: config.queue_capacity,
            request_timeout: config.request_timeout,
        };
        let spans = Arc::new(ServeSpans::new(config.span_capacity));
        let front = Front::start(front, backend, Arc::default(), spans)?;
        let prober = {
            let handle = front.handle();
            std::thread::Builder::new()
                .name("hbc-cluster-prober".to_string())
                .spawn(move || probe_loop(&handle))?
        };
        Ok(Coordinator { front, prober })
    }

    /// The bound address (the real port even when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// A handle for shutdown and inspection.
    pub fn handle(&self) -> CoordinatorHandle {
        CoordinatorHandle { front: self.front.handle() }
    }

    /// Blocks until drain completes: handlers finish queued and in-flight
    /// requests, then the acceptor (which answered `503` meanwhile) and
    /// the prober exit.
    pub fn join(self) {
        self.front.join();
        let _ = self.prober.join();
    }
}

impl CoordinatorHandle {
    /// Requests graceful drain: in-flight and queued requests finish, new
    /// connections get `503`.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// The live front-end metrics (requests, responses by status, queue).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.front.metrics()
    }

    /// Health flags by worker address, in configured order.
    pub fn worker_health(&self) -> Vec<(String, bool)> {
        let targets = &self.front.backend().targets;
        targets.iter().map(|t| (t.addr.clone(), t.healthy.load(Ordering::SeqCst))).collect()
    }

    /// Total requests forwarded to workers (all attempts that got an
    /// answer).
    pub fn forwarded(&self) -> u64 {
        self.front.backend().targets.iter().map(|t| t.forwarded.get()).sum()
    }

    /// Failovers: attempts abandoned on one worker and retried on the
    /// next rendezvous candidate.
    pub fn failovers(&self) -> u64 {
        self.front.backend().metrics.failovers.get()
    }
}

/// Background health prober: one `Health` frame per worker per period.
/// A worker that answers (and is not itself draining) is revived; one
/// that refuses or stalls is demoted.
fn probe_loop(handle: &FrontHandle<RemoteBackend>) {
    let backend = handle.backend();
    let timeout = backend.wire_timeout.min(Duration::from_secs(2));
    loop {
        if handle.is_draining() {
            return;
        }
        for target in &backend.targets {
            let alive = matches!(
                wire::exchange(&target.addr, &Msg::Health, timeout),
                Ok(Msg::HealthOk { draining: false, .. })
            );
            target.healthy.store(alive, Ordering::SeqCst);
        }
        let wake = Instant::now().checked_add(backend.probe_interval);
        if backend.probe_wake.wait_until(wake, |()| handle.is_draining(), |(), draining| draining) {
            return;
        }
    }
}

impl Backend for RemoteBackend {
    const ROLE: &'static str = "coordinator";
    const PATHS: &'static [&'static str] = &["/cluster"];

    fn run(&self, out: &mut Responder<'_, Self>, body: &[u8]) {
        handle_run(self, out, body);
    }

    fn prometheus(&self, front: &Metrics, spans: &ServeSpans) -> String {
        render_prometheus(self, front, spans)
    }

    fn route(&self, out: &mut Responder<'_, Self>, method: &str, path: &str, query: &str) -> bool {
        let body = match (method, path) {
            ("GET", "/cluster") => cluster_body(self, out.is_draining()),
            ("GET", "/trace") if query.split('&').any(|pair| pair == "federated=1") => {
                federated_trace_body(self, out.spans())
            }
            _ => return false,
        };
        let content_type =
            if path == "/cluster" { "application/json" } else { "application/x-ndjson" };
        out.respond(200, content_type, &[], body.as_bytes());
        true
    }

    fn count_status(&self, status: u16) -> bool {
        if status == 502 {
            self.metrics.responses_bad_gateway.inc();
        }
        status == 502
    }

    fn on_drain(&self) {
        self.probe_wake.notify_all();
    }
}

/// `GET /cluster`: topology and live per-worker stats (best-effort wire
/// `Stats` probes with a short budget).
fn cluster_body(backend: &RemoteBackend, draining: bool) -> String {
    let stats_budget = backend.wire_timeout.min(Duration::from_secs(2));
    let mut workers = Vec::new();
    for target in &backend.targets {
        let mut obj = BTreeMap::new();
        obj.insert("addr".to_string(), Json::Str(target.addr.clone()));
        obj.insert("healthy".to_string(), Json::Bool(target.healthy.load(Ordering::SeqCst)));
        obj.insert("forwarded".to_string(), Json::U64(target.forwarded.get()));
        obj.insert("failures".to_string(), Json::U64(target.failures.get()));
        if let Ok(Msg::StatsOk { pairs }) = wire::exchange(&target.addr, &Msg::Stats, stats_budget)
        {
            let mut stats = BTreeMap::new();
            for (name, value) in pairs {
                stats.insert(name, Json::U64(value));
            }
            obj.insert("stats".to_string(), Json::Obj(stats));
        }
        workers.push(Json::Obj(obj));
    }
    let mut obj = BTreeMap::new();
    obj.insert("draining".to_string(), Json::Bool(draining));
    obj.insert("failovers".to_string(), Json::U64(backend.metrics.failovers.get()));
    obj.insert("workers".to_string(), Json::Arr(workers));
    Json::Obj(obj).render()
}

/// `GET /trace?federated=1`: the coordinator's own span ring plus every
/// healthy worker's, pulled over `Trace` frames and merged into one
/// JSONL stream. Each source opens with a meta line carrying its drop
/// accounting (`{"trace_meta":1,"node":…,"dropped":…,"retained":…}`), so
/// a truncated ring is visible in the merge instead of silently reading
/// as a complete trace. The bare `GET /trace` body is unchanged.
fn federated_trace_body(backend: &RemoteBackend, spans: &ServeSpans) -> String {
    let trace_budget = backend.wire_timeout.min(Duration::from_secs(2));
    let mut out = String::new();
    push_trace_source(&mut out, "coordinator", spans.log().dropped(), &spans.to_jsonl());
    for target in &backend.targets {
        if !target.healthy.load(Ordering::SeqCst) {
            continue;
        }
        if let Ok(Msg::TraceOk { worker_id, dropped, jsonl }) =
            wire::exchange(&target.addr, &Msg::Trace, trace_budget)
        {
            push_trace_source(&mut out, &worker_id, dropped, &jsonl);
        }
    }
    out
}

/// Routes and forwards one `POST /run`, with failover.
fn handle_run(backend: &RemoteBackend, out: &mut Responder<'_, RemoteBackend>, body: &[u8]) {
    let Ok(text) = std::str::from_utf8(body) else {
        out.error(400, "request body is not UTF-8");
        return;
    };
    // Validate locally so garbage never costs a forward, and compute the
    // routing hash. The *original* spec text is what gets forwarded — the
    // worker derives the identical canonical form and cache key.
    let run = match RunRequest::from_json_text(text) {
        Ok(run) => run,
        Err(err) => {
            out.error(400, &err.to_string());
            return;
        }
    };
    let hash = run.spec_hash();
    let request_id = out.request_id;
    let deadline = out.deadline;

    let route_start_us = out.spans().now_us();
    let order = ring::candidates(&hash, &backend.worker_names);
    // Healthy candidates first (rendezvous order preserved), then the
    // unhealthy rest as a last resort — the prober's view may be stale,
    // and trying a dead worker only costs one fast connect failure.
    let mut plan: Vec<usize> = Vec::with_capacity(order.len());
    plan.extend(order.iter().filter(|&&i| backend.targets[i].healthy.load(Ordering::SeqCst)));
    plan.extend(order.iter().filter(|&&i| !backend.targets[i].healthy.load(Ordering::SeqCst)));
    let spans = out.spans();
    spans.record_at(Stage::ClusterRoute, request_id, 0, route_start_us, spans.now_us());

    for (attempt, &index) in plan.iter().enumerate() {
        let target = &backend.targets[index];
        if Instant::now() >= deadline {
            break;
        }
        if !target.acquire(backend.window, deadline) {
            break; // Window never opened before the deadline.
        }
        if attempt > 0 {
            backend.metrics.failovers.inc();
        }
        let budget = backend.wire_timeout.min(deadline.saturating_duration_since(Instant::now()));
        // The forward span's ID is allocated before the exchange so it
        // can ride in the wire trace context: the worker records its
        // spans under this request ID, parented on this span, and the
        // federated trace stitches into one tree. Each failover attempt
        // gets its own forward span.
        let spans = out.spans();
        let forward_span = spans.alloc_span();
        let trace = Some(TraceCtx { request: request_id, parent: forward_span });
        let forward_start_us = spans.now_us();
        let forward_start = Instant::now();
        let run_msg = Msg::Run { spec_json: text.to_string(), trace };
        let outcome = wire::exchange(&target.addr, &run_msg, budget);
        let micros = u64::try_from(forward_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        spans.record_linked(
            Stage::ClusterForward,
            forward_span,
            request_id,
            0,
            forward_start_us,
            spans.now_us(),
        );
        target.release();
        match outcome {
            Ok(Msg::RunOk { cache, spec_hash, body }) => {
                target.forwarded.inc();
                target.latency_micros.with(|h| h.record(micros));
                match cache.as_str() {
                    "hit-memory" => target.hits_memory.inc(),
                    "hit-disk" => target.hits_disk.inc(),
                    _ => target.misses.inc(),
                }
                let headers = [
                    ("X-Cache", cache.as_str()),
                    ("X-Spec-Hash", spec_hash.as_str()),
                    ("X-Worker", target.addr.as_str()),
                ];
                out.respond(200, "text/plain", &headers, body.as_bytes());
                return;
            }
            Ok(Msg::RunErr { status, message }) => {
                // The worker answered: the stack is deterministic, so a
                // retry elsewhere would fail identically. Forward as-is.
                target.forwarded.inc();
                target.latency_micros.with(|h| h.record(micros));
                let status = if (400..=599).contains(&status) { status } else { 500 };
                out.error(status, &message);
                return;
            }
            // A transport failure, or a well-framed but nonsensical
            // reply: treat the worker as broken and fail over.
            Ok(_) | Err(_) => {
                target.failures.inc();
                target.healthy.store(false, Ordering::SeqCst);
            }
        }
    }

    if Instant::now() >= deadline {
        out.error(504, "request deadline passed before any worker answered");
    } else {
        backend.metrics.retries_exhausted.inc();
        out.error(502, "no worker answered this request; every rendezvous candidate failed");
    }
}

/// Renders `GET /metrics` in the Prometheus text exposition format —
/// accepted by `hbc_serve::metrics::parse_prometheus`, same conventions
/// as the single-node server.
fn render_prometheus(backend: &RemoteBackend, front: &Metrics, spans: &ServeSpans) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &backend.metrics;

    family(
        &mut out,
        "cluster_requests_total",
        "counter",
        "HTTP requests that reached a coordinator handler.",
    );
    let _ = writeln!(out, "cluster_requests_total {}", front.requests.get());

    let bad_gateway = [("502", m.responses_bad_gateway.get())];
    front.write_responses(&mut out, "cluster_responses_total", &bad_gateway);

    family(
        &mut out,
        "cluster_forwarded_total",
        "counter",
        "Requests answered by each worker (RunOk or RunErr).",
    );
    for t in &backend.targets {
        let _ =
            writeln!(out, "cluster_forwarded_total{{worker=\"{}\"}} {}", t.addr, t.forwarded.get());
    }

    family(
        &mut out,
        "cluster_worker_failures_total",
        "counter",
        "Transport failures per worker (connect refused, timeout, severed frame).",
    );
    for t in &backend.targets {
        let _ = writeln!(
            out,
            "cluster_worker_failures_total{{worker=\"{}\"}} {}",
            t.addr,
            t.failures.get()
        );
    }

    family(
        &mut out,
        "cluster_failovers_total",
        "counter",
        "Attempts abandoned on one worker and retried on the next rendezvous candidate.",
    );
    let _ = writeln!(out, "cluster_failovers_total {}", m.failovers.get());

    family(
        &mut out,
        "cluster_retries_exhausted_total",
        "counter",
        "Requests answered 502 after every rendezvous candidate failed.",
    );
    let _ = writeln!(out, "cluster_retries_exhausted_total {}", m.retries_exhausted.get());

    family(
        &mut out,
        "cluster_worker_healthy",
        "gauge",
        "1 if the worker's last health probe (or forward) succeeded.",
    );
    for t in &backend.targets {
        let healthy = u64::from(t.healthy.load(Ordering::SeqCst));
        let _ = writeln!(out, "cluster_worker_healthy{{worker=\"{}\"}} {healthy}", t.addr);
    }

    family(
        &mut out,
        "cluster_shard_hits_total",
        "counter",
        "Worker-reported cache hits by shard and serving tier.",
    );
    for t in &backend.targets {
        let _ = writeln!(
            out,
            "cluster_shard_hits_total{{worker=\"{}\",tier=\"memory\"}} {}",
            t.addr,
            t.hits_memory.get()
        );
        let _ = writeln!(
            out,
            "cluster_shard_hits_total{{worker=\"{}\",tier=\"disk\"}} {}",
            t.addr,
            t.hits_disk.get()
        );
    }
    family(
        &mut out,
        "cluster_shard_misses_total",
        "counter",
        "Worker-reported cache misses (a simulation ran on that shard).",
    );
    for t in &backend.targets {
        let _ =
            writeln!(out, "cluster_shard_misses_total{{worker=\"{}\"}} {}", t.addr, t.misses.get());
    }

    front.write_queue(&mut out, "cluster", spans.log().dropped());

    family(
        &mut out,
        "cluster_worker_latency_microseconds",
        "summary",
        "Forward round-trip latency per worker (connect to reply read).",
    );
    for t in &backend.targets {
        summary(
            &mut out,
            "cluster_worker_latency_microseconds",
            &format!("worker=\"{}\"", t.addr),
            &t.latency_micros.with(|h| h.clone()),
        );
    }

    write_stages(
        &mut out,
        "cluster_stage_duration_microseconds",
        "Span duration per coordinator lifecycle stage.",
        &spans.stage_histograms(),
    );
    out
}

fn push_trace_source(out: &mut String, node: &str, dropped: u64, jsonl: &str) {
    use std::fmt::Write as _;
    let retained = jsonl.lines().count();
    let _ = writeln!(
        out,
        "{{\"trace_meta\":1,\"node\":\"{node}\",\"dropped\":{dropped},\"retained\":{retained}}}"
    );
    out.push_str(jsonl);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_serve::metrics::parse_prometheus;

    #[test]
    fn empty_worker_list_is_rejected_at_bind() {
        let err = Coordinator::bind(CoordinatorConfig::default())
            .err()
            .expect("bind must fail without workers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn prometheus_rendering_is_strictly_parseable() {
        let workers = vec!["127.0.0.1:9101".to_string(), "127.0.0.1:9102".to_string()];
        let backend = RemoteBackend::new(&CoordinatorConfig { workers, ..Default::default() });
        let front = Metrics::default();
        let spans = ServeSpans::new(8);
        front.requests.inc();
        backend.targets[0].forwarded.inc();
        backend.targets[1].healthy.store(false, Ordering::SeqCst);
        assert!(backend.count_status(502), "502 is the coordinator's own row");
        spans.record_at(Stage::ClusterRoute, 1, 0, 0, 5);
        let text = backend.prometheus(&front, &spans);
        let samples = parse_prometheus(&text).expect("strict parse succeeds");
        let healthy: Vec<f64> = samples
            .iter()
            .filter(|s| s.name == "cluster_worker_healthy")
            .map(|s| s.value)
            .collect();
        assert_eq!(healthy, [1.0, 0.0]);
        assert!(samples.iter().any(|s| s.name == "cluster_forwarded_total"
            && s.label("worker") == Some("127.0.0.1:9101")
            && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name == "cluster_responses_total"
            && s.label("status") == Some("502")
            && s.value == 1.0));
        assert!(
            samples.iter().any(|s| s.name == "hbc_span_dropped_total" && s.value == 0.0),
            "span drop accounting must be exported"
        );
    }

    #[test]
    fn federated_trace_meta_lines_carry_drop_accounting() {
        let mut out = String::new();
        push_trace_source(&mut out, "coordinator", 0, "{\"request\":1}\n{\"request\":1}\n");
        push_trace_source(&mut out, "127.0.0.1:9101", 7, "");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[0],
            "{\"trace_meta\":1,\"node\":\"coordinator\",\"dropped\":0,\"retained\":2}"
        );
        assert_eq!(
            lines[3],
            "{\"trace_meta\":1,\"node\":\"127.0.0.1:9101\",\"dropped\":7,\"retained\":0}"
        );
        for line in &lines {
            Json::parse(line).expect("every merged line is valid JSON");
        }
    }

    #[test]
    fn window_acquire_honours_the_deadline() {
        let target = Target::new("127.0.0.1:1".to_string());
        assert!(target.acquire(1, Instant::now() + Duration::from_secs(1)));
        // Window of 1 is now full; a second acquire must time out.
        let start = Instant::now();
        assert!(!target.acquire(1, Instant::now() + Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        target.release();
        assert!(target.acquire(1, Instant::now() + Duration::from_secs(1)));
    }
}
