//! The cluster worker: a TCP server speaking the binary wire protocol,
//! embedding the full `hbc-serve` result stack (spec validation, the
//! content-addressed cache, the simulation drivers).
//!
//! One thread per connection; each connection serves frames sequentially
//! until the peer closes (the coordinator opens one connection per
//! forwarded request, so the bounded in-flight window lives on the
//! coordinator side). A `Run` frame answers exactly the bytes a direct
//! `hbc-serve` hit would: cache lookup by canonical spec hash first,
//! then a real simulation guarded by `catch_unwind`, persisted into the
//! shard's cache directory.
//!
//! Graceful drain (a `Drain` frame or [`WorkerHandle::drain`]) stops the
//! acceptor, half-closes every connection's read side so idle handlers
//! wake, and lets in-flight frames finish and answer before their
//! handlers exit. [`WorkerHandle::kill`] is the abrupt variant for
//! failover tests: it severs every connection mid-flight, the way a
//! crashed process would.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hbc_serve::cache::{ResultCache, Tier};
use hbc_serve::spans::ServeSpans;
use hbc_serve::spec::RunRequest;

use crate::lock;
use crate::wire::{self, Msg, TraceCtx, WireError};

/// Worker construction parameters.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Upper bound on the per-request `jobs` field (clamped, as in
    /// `hbc-serve`).
    pub max_jobs: usize,
    /// This shard's result-cache directory; `None` disables persistence.
    pub cache_dir: Option<std::path::PathBuf>,
    /// In-memory result-cache entries.
    pub cache_entries: usize,
    /// Most recent spans retained (exported as quantiles via `Stats`).
    pub span_capacity: usize,
    /// Read timeout per connection: an idle or wedged peer releases its
    /// handler thread after this long.
    pub idle_timeout: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_jobs: 8,
            cache_dir: Some(std::path::PathBuf::from("results/cache")),
            cache_entries: 64,
            span_capacity: 4096,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Counters the worker reports through `Stats` frames.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicU64,
    executed: AtomicU64,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    panics: AtomicU64,
}

struct WorkerShared {
    addr: SocketAddr,
    max_jobs: usize,
    cache: ResultCache,
    spans: ServeSpans,
    counters: Counters,
    draining: AtomicBool,
    /// Live connections by ID, for drain (read half-close) and kill.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    idle_timeout: Duration,
}

impl WorkerShared {
    fn worker_id(&self) -> String {
        self.addr.to_string()
    }

    /// Half-closes (drain) or severs (kill) every registered connection.
    fn close_conns(&self, how: Shutdown) {
        for stream in lock(&self.conns).values() {
            let _ = stream.shutdown(how);
        }
    }

    /// Wakes the acceptor out of its blocking `accept`.
    fn poke_acceptor(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A running worker. Lifecycle: [`Worker::bind`] → coordinator traffic →
/// `Drain` frame (or [`WorkerHandle::drain`]) → [`Worker::join`].
pub struct Worker {
    shared: Arc<WorkerShared>,
    acceptor: JoinHandle<()>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// A cloneable reference to a running worker, for drain/kill and stats.
#[derive(Clone)]
pub struct WorkerHandle {
    shared: Arc<WorkerShared>,
}

impl Worker {
    /// Binds the listener and spawns the acceptor thread.
    pub fn bind(config: WorkerConfig) -> io::Result<Worker> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::new(dir.clone(), config.cache_entries),
            None => ResultCache::in_memory(config.cache_entries),
        };
        // Span/request IDs are namespaced by the bound port so a
        // federated trace merge (coordinator ring + every worker ring)
        // never sees two processes allocate the same ID. Coordinator IDs
        // stay small (base 0); worker IDs live above port << 32.
        let span_id_base = u64::from(addr.port()) << 32;
        let shared = Arc::new(WorkerShared {
            addr,
            max_jobs: config.max_jobs,
            cache,
            spans: ServeSpans::with_id_base(config.span_capacity, span_id_base),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            conns: Mutex::new(BTreeMap::new()),
            next_conn: AtomicU64::new(1),
            idle_timeout: config.idle_timeout,
        });
        let handlers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("hbc-cluster-worker-acceptor".to_string())
                .spawn(move || accept_loop(&shared, &listener, &handlers))?
        };
        Ok(Worker { shared, acceptor, handlers })
    }

    /// The bound address (the real port even when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for drain/kill and stats inspection.
    pub fn handle(&self) -> WorkerHandle {
        WorkerHandle { shared: Arc::clone(&self.shared) }
    }

    /// Blocks until drain (or kill), then joins the acceptor and every
    /// connection handler.
    pub fn join(self) {
        let _ = self.acceptor.join();
        // The acceptor has exited, so no new handlers appear; drain the
        // list outside the lock before joining.
        let handlers: Vec<JoinHandle<()>> = lock(&self.handlers).drain(..).collect();
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl WorkerHandle {
    /// Graceful drain: in-flight frames finish and answer, idle
    /// connections close, the acceptor exits.
    pub fn drain(&self) {
        initiate_drain(&self.shared);
    }

    /// Abrupt death for failover tests: severs every connection
    /// mid-flight and stops accepting, the way a crashed process would.
    pub fn kill(&self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.close_conns(Shutdown::Both);
        self.shared.poke_acceptor();
    }

    /// Requests served (all frame kinds answered).
    pub fn served(&self) -> u64 {
        self.shared.counters.served.load(Ordering::Relaxed)
    }

    /// Simulations actually executed (cache misses that ran).
    pub fn executed(&self) -> u64 {
        self.shared.counters.executed.load(Ordering::Relaxed)
    }
}

fn initiate_drain(shared: &WorkerShared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    // Half-close every connection's read side: idle handlers wake with a
    // clean EOF, while a handler mid-execution still owns an open write
    // half to answer on.
    shared.close_conns(Shutdown::Read);
    shared.poke_acceptor();
}

fn accept_loop(
    shared: &Arc<WorkerShared>,
    listener: &TcpListener,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        reap_finished(handlers);
        let Ok(stream) = stream else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hbc-cluster-worker-conn".to_string())
            .spawn(move || {
                serve_conn(&conn_shared, stream);
                lock(&conn_shared.conns).remove(&conn_id);
            });
        match spawned {
            Ok(handle) => lock(handlers).push(handle),
            Err(_) => {
                lock(&shared.conns).remove(&conn_id);
            }
        }
    }
}

/// Joins the handlers whose connections have closed, so a long-lived
/// worker retains only live threads. The finished handles leave the list
/// under the lock and are joined after it is released.
fn reap_finished(handlers: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> =
        lock(handlers).extract_if(.., |handle| handle.is_finished()).collect();
    for handle in finished {
        let _ = handle.join();
    }
}

/// Serves one connection: frames in sequence until the peer closes, an
/// unrecoverable wire error, or drain.
fn serve_conn(shared: &Arc<WorkerShared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.idle_timeout));
    loop {
        let msg = match wire::read_msg(&mut stream) {
            Ok(msg) => msg,
            // Closed, timed out, or severed mid-frame: nothing to answer.
            Err(WireError::Closed | WireError::Truncated | WireError::Io(_)) => return,
            // A well-framed peer speaking garbage gets one typed error.
            Err(e) => {
                let reply = Msg::RunErr { status: 400, message: e.to_string() };
                let _ = wire::write_msg(&mut stream, &reply);
                return;
            }
        };
        let reply = match msg {
            Msg::Run { spec_json, trace } => {
                let (reply, rt) = handle_run(shared, &spec_json, trace);
                shared.counters.served.fetch_add(1, Ordering::Relaxed);
                // Encode (the serialize span) and close out the request's
                // root span *before* the socket write, so a `Trace` frame
                // sent the instant the reply lands can never observe a
                // ring missing this request's spans.
                let serialize_start_us = shared.spans.now_us();
                let frame = wire::encode(&reply);
                let end_us = shared.spans.now_us();
                shared.spans.record_at(
                    "serve.serialize",
                    rt.request,
                    rt.exec_span,
                    serialize_start_us,
                    end_us,
                );
                shared.spans.record_linked(
                    "cluster.worker_execute",
                    rt.exec_span,
                    rt.request,
                    rt.parent,
                    rt.start_us,
                    end_us,
                );
                if stream.write_all(&frame).is_err() || shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Msg::Health => Msg::HealthOk {
                worker_id: shared.worker_id(),
                draining: shared.draining.load(Ordering::SeqCst),
            },
            Msg::Stats => Msg::StatsOk { pairs: stats_pairs(shared) },
            Msg::Trace => Msg::TraceOk {
                worker_id: shared.worker_id(),
                dropped: shared.spans.log().dropped(),
                jsonl: shared.spans.to_jsonl(),
            },
            Msg::Drain => {
                initiate_drain(shared);
                Msg::DrainOk { worker_id: shared.worker_id() }
            }
            // Reply kinds arriving at a worker are a protocol violation.
            Msg::RunOk { .. }
            | Msg::RunErr { .. }
            | Msg::HealthOk { .. }
            | Msg::StatsOk { .. }
            | Msg::DrainOk { .. }
            | Msg::TraceOk { .. } => {
                Msg::RunErr { status: 400, message: "unexpected reply kind".to_string() }
            }
        };
        shared.counters.served.fetch_add(1, Ordering::Relaxed);
        if wire::write_msg(&mut stream, &reply).is_err() {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Where one `Run` frame's spans attach: the (possibly remote) request
/// ID, the parent span named by the coordinator's trace context (0 when
/// the frame carried none), and the pre-allocated root span covering the
/// whole handling, closed out by `serve_conn` after the reply encodes.
struct RunTrace {
    request: u64,
    parent: u64,
    exec_span: u64,
    start_us: u64,
}

/// Executes (or replays) one spec; the body answered is byte-identical
/// to a direct `hbc-serve` hit for the same spec. When the frame carried
/// a trace context, every span joins the coordinator's request ID and
/// hangs (via `exec_span`) under its `cluster.forward` span; otherwise
/// the worker allocates a fresh local root.
fn handle_run(
    shared: &Arc<WorkerShared>,
    spec_json: &str,
    trace: Option<TraceCtx>,
) -> (Msg, RunTrace) {
    let (request, parent) = match trace {
        Some(ctx) => (ctx.request, ctx.parent),
        None => (shared.spans.begin_request(), 0),
    };
    let rt = RunTrace {
        request,
        parent,
        exec_span: shared.spans.alloc_span(),
        start_us: shared.spans.now_us(),
    };
    let reply = handle_run_inner(shared, spec_json, &rt);
    (reply, rt)
}

fn handle_run_inner(shared: &Arc<WorkerShared>, spec_json: &str, rt: &RunTrace) -> Msg {
    let mut run = match RunRequest::from_json_text(spec_json) {
        Ok(run) => run,
        Err(err) => return Msg::RunErr { status: 400, message: err.to_string() },
    };
    if run.jobs > shared.max_jobs {
        run.jobs = shared.max_jobs;
    }
    let hash = run.spec_hash();
    let canonical = run.canonical();

    let lookup_start_us = shared.spans.now_us();
    let cached = shared.cache.get(&hash, &canonical);
    shared.spans.record_at(
        "serve.cache_lookup",
        rt.request,
        rt.exec_span,
        lookup_start_us,
        shared.spans.now_us(),
    );
    if let Some((body, tier)) = cached {
        let (label, counter) = match tier {
            Tier::Memory => ("hit-memory", &shared.counters.hits_memory),
            Tier::Disk => ("hit-disk", &shared.counters.hits_disk),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        return Msg::RunOk { cache: label.to_string(), spec_hash: hash, body };
    }

    shared.counters.misses.fetch_add(1, Ordering::Relaxed);
    shared.counters.executed.fetch_add(1, Ordering::Relaxed);
    let simulate_start_us = shared.spans.now_us();
    let result = catch_unwind(AssertUnwindSafe(|| run.execute()));
    shared.spans.record_at(
        "serve.simulate",
        rt.request,
        rt.exec_span,
        simulate_start_us,
        shared.spans.now_us(),
    );
    match result {
        Ok(body) => {
            if let Err(e) = shared.cache.put(&hash, &canonical, &body) {
                eprintln!("hbc-cluster worker: persisting cache entry {hash} failed: {e}");
            }
            Msg::RunOk { cache: "miss".to_string(), spec_hash: hash, body }
        }
        Err(_) => {
            shared.counters.panics.fetch_add(1, Ordering::Relaxed);
            Msg::RunErr {
                status: 500,
                message: format!("simulation for spec {hash} panicked; see worker logs"),
            }
        }
    }
}

/// The flattened counter snapshot a `Stats` frame answers: counters plus
/// execute-stage latency quantiles, sorted by name.
fn stats_pairs(shared: &WorkerShared) -> Vec<(String, u64)> {
    let c = &shared.counters;
    let mut pairs = vec![
        ("worker.executed".to_string(), c.executed.load(Ordering::Relaxed)),
        ("worker.hits_disk".to_string(), c.hits_disk.load(Ordering::Relaxed)),
        ("worker.hits_memory".to_string(), c.hits_memory.load(Ordering::Relaxed)),
        ("worker.misses".to_string(), c.misses.load(Ordering::Relaxed)),
        ("worker.panics".to_string(), c.panics.load(Ordering::Relaxed)),
        ("worker.served".to_string(), c.served.load(Ordering::Relaxed)),
    ];
    // hbc-allow: probe-coverage (a span-stage histogram lookup, not a registry read; the stage is in STAGE_NAMES)
    if let Some(h) = shared.spans.stage_histograms().get("cluster.worker_execute") {
        pairs.push(("worker.execute_p50_us".to_string(), h.quantile(0.5)));
        pairs.push(("worker.execute_p95_us".to_string(), h.quantile(0.95)));
        pairs.push(("worker.execute_p99_us".to_string(), h.quantile(0.99)));
    }
    pairs.sort();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_worker() -> Worker {
        let config = WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            idle_timeout: Duration::from_secs(30),
            ..WorkerConfig::default()
        };
        Worker::bind(config).expect("bind")
    }

    fn roundtrip(addr: SocketAddr, msg: &Msg) -> Msg {
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_msg(&mut stream, msg).expect("write");
        wire::read_msg(&mut stream).expect("read")
    }

    #[test]
    fn health_and_stats_answer() {
        let worker = test_worker();
        let addr = worker.addr();
        match roundtrip(addr, &Msg::Health) {
            Msg::HealthOk { worker_id, draining } => {
                assert_eq!(worker_id, addr.to_string());
                assert!(!draining);
            }
            other => panic!("expected HealthOk, got {other:?}"),
        }
        match roundtrip(addr, &Msg::Stats) {
            Msg::StatsOk { pairs } => {
                assert!(pairs.iter().any(|(name, _)| name == "worker.served"));
            }
            other => panic!("expected StatsOk, got {other:?}"),
        }
        worker.handle().drain();
        worker.join();
    }

    #[test]
    fn run_frame_matches_direct_execution_and_caches() {
        let worker = test_worker();
        let addr = worker.addr();
        let spec = r#"{"experiment":"table2","preset":"fast","seed":3}"#;
        let expected = RunRequest::from_json_text(spec).expect("spec parses").execute();
        match roundtrip(addr, &Msg::Run { spec_json: spec.to_string(), trace: None }) {
            Msg::RunOk { cache, body, .. } => {
                assert_eq!(cache, "miss");
                assert_eq!(body, expected, "wire payload must be byte-identical");
            }
            other => panic!("expected RunOk, got {other:?}"),
        }
        match roundtrip(addr, &Msg::Run { spec_json: spec.to_string(), trace: None }) {
            Msg::RunOk { cache, body, .. } => {
                assert_eq!(cache, "hit-memory");
                assert_eq!(body, expected);
            }
            other => panic!("expected RunOk, got {other:?}"),
        }
        assert_eq!(worker.handle().executed(), 1, "the hit must not re-simulate");
        worker.handle().drain();
        worker.join();
    }

    #[test]
    fn bad_spec_is_a_400_not_a_dead_worker() {
        let worker = test_worker();
        let addr = worker.addr();
        match roundtrip(addr, &Msg::Run { spec_json: "not json".to_string(), trace: None }) {
            Msg::RunErr { status, .. } => assert_eq!(status, 400),
            other => panic!("expected RunErr, got {other:?}"),
        }
        // Still alive and serving.
        assert!(matches!(roundtrip(addr, &Msg::Health), Msg::HealthOk { .. }));
        worker.handle().drain();
        worker.join();
    }

    /// Pulls the worker's span ring and returns its JSONL body.
    fn fetch_trace(addr: SocketAddr) -> String {
        match roundtrip(addr, &Msg::Trace) {
            Msg::TraceOk { worker_id, jsonl, .. } => {
                assert_eq!(worker_id, addr.to_string());
                jsonl
            }
            other => panic!("expected TraceOk, got {other:?}"),
        }
    }

    #[test]
    fn trace_context_re_parents_worker_spans() {
        let worker = test_worker();
        let addr = worker.addr();
        let spec = r#"{"experiment":"table2","preset":"fast","seed":4}"#;
        let trace = Some(TraceCtx { request: 7, parent: 42 });
        let run = Msg::Run { spec_json: spec.to_string(), trace };
        assert!(matches!(roundtrip(addr, &run), Msg::RunOk { .. }));

        let jsonl = fetch_trace(addr);
        let root = jsonl
            .lines()
            .find(|l| l.contains("cluster.worker_execute"))
            .expect("a worker_execute root span");
        assert!(root.contains("\"request\":7"), "root must join the remote request: {root}");
        assert!(root.contains("\"parent\":42"), "root must hang under the forward span: {root}");
        for line in jsonl.lines() {
            assert!(line.contains("\"request\":7"), "unlinked span: {line}");
        }
        // The root's own ID is port-namespaced, and the child stages
        // (cache lookup, simulate, serialize) all parent on it.
        let exec_span: u64 = root
            .split("\"span\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|id| id.parse().ok())
            .expect("root span ID");
        assert!(exec_span > u64::from(addr.port()) << 32, "span IDs must be port-namespaced");
        for stage in ["serve.cache_lookup", "serve.simulate", "serve.serialize"] {
            let line = jsonl.lines().find(|l| l.contains(stage)).expect(stage);
            assert!(line.contains(&format!("\"parent\":{exec_span}")), "detached child: {line}");
        }
        worker.handle().drain();
        worker.join();
    }

    #[test]
    fn untraced_run_allocates_a_local_root() {
        let worker = test_worker();
        let addr = worker.addr();
        let spec = r#"{"experiment":"table2","preset":"fast","seed":5}"#;
        let run = Msg::Run { spec_json: spec.to_string(), trace: None };
        assert!(matches!(roundtrip(addr, &run), Msg::RunOk { .. }));

        let jsonl = fetch_trace(addr);
        let root = jsonl
            .lines()
            .find(|l| l.contains("cluster.worker_execute"))
            .expect("a worker_execute root span");
        let local_root = (u64::from(addr.port()) << 32) + 1;
        assert!(root.contains(&format!("\"request\":{local_root}")), "{root}");
        assert!(root.contains("\"parent\":0"), "an untraced run is its own root: {root}");
        worker.handle().drain();
        worker.join();
    }

    #[test]
    fn finished_handlers_are_reaped() {
        let worker = test_worker();
        let addr = worker.addr();
        // The client has hung up: its handler deregisters the connection
        // and exits, and every handle the acceptor has pushed is finished.
        let settled = || {
            let closed = lock(&worker.shared.conns).is_empty();
            closed && lock(&worker.handlers).iter().all(|h| h.is_finished())
        };
        for _ in 0..40 {
            assert!(matches!(roundtrip(addr, &Msg::Health), Msg::HealthOk { .. }));
            while !settled() {
                std::thread::yield_now();
            }
        }
        // Each accept joins every finished handler. What remains is the
        // newest connection's handle and at most one the acceptor pushed
        // after the test last looked, never one per forward.
        let retained = lock(&worker.handlers).len();
        assert!(retained <= 2, "{retained} connection handles retained after 40 forwards");
        worker.handle().drain();
        worker.join();
    }

    #[test]
    fn drain_frame_acknowledges_then_join_returns() {
        let worker = test_worker();
        let addr = worker.addr();
        match roundtrip(addr, &Msg::Drain) {
            Msg::DrainOk { worker_id } => assert_eq!(worker_id, addr.to_string()),
            other => panic!("expected DrainOk, got {other:?}"),
        }
        worker.join();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "a drained worker must not accept new connections"
        );
    }
}
