//! The cluster worker: a TCP server speaking the binary wire protocol,
//! embedding the full `hbc-serve` result stack (spec validation, the
//! content-addressed cache, the simulation drivers).
//!
//! One thread per connection; each connection serves frames sequentially
//! until the peer closes (the coordinator opens one connection per
//! forwarded request, so the bounded in-flight window lives on the
//! coordinator side). A `Run` frame goes through `hbc-serve`'s local
//! backend ([`hbc_serve::server::LocalBackend`]) and answers exactly the
//! bytes a direct `hbc-serve` would: cache lookup by canonical spec hash
//! first, then a simulation guarded by `catch_unwind` and persisted into
//! the shard's cache directory. Concurrent identical frames coalesce onto
//! one simulation (`cache: "coalesced"` in the reply).
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hbc_probe::Stage;
use hbc_serve::cache::ResultCache;
use hbc_serve::metrics::AtomicCounter;
use hbc_serve::server::{LocalBackend, Outcome};
use hbc_serve::spans::ServeSpans;
use hbc_serve::Locked;

use crate::wire::{self, Msg, WireError};

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

/// Worker-only counters reported through `Stats` frames; the cache and
/// execution counts are the local backend's metrics.
#[derive(Debug, Default)]
struct Counters {
    served: AtomicCounter,
    /// `Run` frames answered 500 (a simulation panicked).
    panics: AtomicCounter,
}

struct WorkerShared {
    addr: SocketAddr,
    local: LocalBackend,
    spans: Arc<ServeSpans>,
    counters: Counters,
    draining: AtomicBool,
    /// Live connections by ID, for drain (read half-close) and kill.
    conns: Locked<BTreeMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    idle_timeout: Duration,
}

impl WorkerShared {
    fn worker_id(&self) -> String {
        self.addr.to_string()
    }

    /// Half-closes (drain) or severs (kill) every registered connection.
    fn close_conns(&self, how: Shutdown) {
        // `shutdown` does not block on the peer, so it may run under the lock.
        self.conns.with(|conns| {
            for stream in conns.values() {
                let _ = stream.shutdown(how);
            }
        });
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
    handlers: Arc<Locked<Vec<JoinHandle<()>>>>,
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
        let spans = Arc::new(ServeSpans::with_id_base(config.span_capacity, span_id_base));
        let local = LocalBackend::new(cache, config.max_jobs, Arc::clone(&spans), "worker");
        let shared = Arc::new(WorkerShared {
            addr,
            local,
            spans,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            conns: Locked::default(),
            next_conn: AtomicU64::new(1),
            idle_timeout: config.idle_timeout,
        });
        let handlers = Arc::new(Locked::default());
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
        let handlers = self.handlers.with(std::mem::take);
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
        self.shared.counters.served.get()
    }

    /// Simulations actually executed (cache misses that ran; coalesced
    /// frames share one).
    pub fn executed(&self) -> u64 {
        self.shared.local.metrics().exec_runs.get()
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
    handlers: &Arc<Locked<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        reap_finished(handlers);
        let Ok(stream) = stream else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared.conns.with(|conns| conns.insert(conn_id, clone));
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("hbc-cluster-worker-conn".to_string())
            .spawn(move || {
                serve_conn(&conn_shared, stream);
                conn_shared.conns.with(|conns| conns.remove(&conn_id));
            });
        match spawned {
            Ok(handle) => handlers.with(|h| h.push(handle)),
            Err(_) => {
                shared.conns.with(|conns| conns.remove(&conn_id));
            }
        }
    }
}

/// Joins the handlers whose connections have closed, so a long-lived
/// worker retains only live threads. The finished handles leave the list
/// under the lock and are joined after it is released.
fn reap_finished(handlers: &Locked<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> =
        handlers.with(|h| h.extract_if(.., |handle| handle.is_finished()).collect());
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
                // With a trace context every span joins the coordinator's
                // request ID and hangs (via `exec_span`) under its
                // `cluster.forward` span; without one the worker allocates
                // a fresh local root.
                let spans = &shared.spans;
                let (request, parent) = match trace {
                    Some(ctx) => (ctx.request, ctx.parent),
                    None => (spans.begin_request(), 0),
                };
                let (exec_span, start_us) = (spans.alloc_span(), spans.now_us());
                let reply = run_reply(shared, &spec_json, request, exec_span);
                shared.counters.served.inc();
                // Encode (the serialize span) and close out the request's
                // root span *before* the socket write, so a `Trace` frame
                // sent the instant the reply lands can never observe a
                // ring missing this request's spans.
                let serialize_start_us = spans.now_us();
                let frame = wire::encode(&reply);
                let end_us = spans.now_us();
                spans.record_at(
                    Stage::ServeSerialize,
                    request,
                    exec_span,
                    serialize_start_us,
                    end_us,
                );
                spans.record_linked(
                    Stage::ClusterWorkerExecute,
                    exec_span,
                    request,
                    parent,
                    start_us,
                    end_us,
                );
                debug_assert!(!Locked::held(), "socket I/O inside a critical section");
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
        shared.counters.served.inc();
        if wire::write_msg(&mut stream, &reply).is_err() {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Executes, coalesces or replays one spec through the local backend;
/// the body answered is byte-identical to a direct `hbc-serve` for the
/// same spec. Spans record under `request`, parented on `exec_span`.
fn run_reply(shared: &WorkerShared, spec_json: &str, request: u64, exec_span: u64) -> Msg {
    // No deadline: the coordinator's wire budget bounds the exchange.
    match shared.local.run_spec(spec_json, None, request, exec_span) {
        Outcome::Served(cache, spec_hash, body) => {
            Msg::RunOk { cache: cache.to_string(), spec_hash, body }
        }
        Outcome::Failed(status, message) => {
            if status == 500 {
                shared.counters.panics.inc();
            }
            Msg::RunErr { status, message }
        }
    }
}

/// The flattened counter snapshot a `Stats` frame answers: counters plus
/// execute-stage latency quantiles, sorted by name.
fn stats_pairs(shared: &WorkerShared) -> Vec<(String, u64)> {
    let (c, m) = (&shared.counters, shared.local.metrics());
    let mut pairs = vec![
        ("worker.executed".to_string(), m.exec_runs.get()),
        ("worker.hits_disk".to_string(), m.cache_hits_disk.get()),
        ("worker.hits_memory".to_string(), m.cache_hits_memory.get()),
        ("worker.misses".to_string(), m.cache_misses.get()),
        ("worker.panics".to_string(), c.panics.get()),
        ("worker.served".to_string(), c.served.get()),
    ];
    if let Some(h) = shared.spans.stage_histograms().get(&Stage::ClusterWorkerExecute) {
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
    use crate::wire::TraceCtx;
    use hbc_serve::spec::RunRequest;

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
    fn concurrent_identical_runs_simulate_once() {
        let worker = test_worker();
        let addr = worker.addr();
        let spec = r#"{"experiment":"fig4","preset":"fast","seed":13}"#;
        // Both frames go out together, well inside one simulation's time.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    let run = Msg::Run { spec_json: spec.to_string(), trace: None };
                    barrier.wait();
                    wire::write_msg(&mut stream, &run).expect("write");
                    wire::read_msg(&mut stream).expect("read")
                })
            })
            .collect();
        let bodies: Vec<String> = clients
            .into_iter()
            .map(|client| match client.join().expect("client thread") {
                Msg::RunOk { body, .. } => body,
                other => panic!("expected RunOk, got {other:?}"),
            })
            .collect();
        assert_eq!(bodies[0], bodies[1], "coalesced replies must be byte-identical");
        assert_eq!(
            worker.handle().executed(),
            1,
            "identical concurrent frames share one simulation"
        );
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
            worker.shared.conns.with(|conns| conns.is_empty())
                && worker.handlers.with(|h| h.iter().all(JoinHandle::is_finished))
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
        let retained = worker.handlers.with(|h| h.len());
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
