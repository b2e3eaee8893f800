//! The simulation server: the shared HTTP front end ([`crate::front`])
//! over the local backend — result cache, single-flight execution, and
//! the simulation drivers.
//!
//! ```text
//!            front end (accept, queue, handlers)      local backend
//!  clients ───────────────────────────────────▶ POST /run ──┬─ cache hit ─▶ respond
//!                                                           └─ miss ─▶ single-flight
//!                                                                      runner thread
//!                                                                      (hbc-exec)
//! ```
//!
//! Robustness decisions, in one place (admission, deadline and drain
//! are the front end's and are documented there):
//!
//! * **Timeouts** — a simulation that misses the request deadline gets a
//!   `504`, while the runner thread finishes in the background and
//!   populates the result cache, so a retry is a hit.
//! * **Single-flight** — concurrent identical requests coalesce onto one
//!   simulation; followers wait on the leader's flight and serve the
//!   same bytes. `serve.exec.runs` counts real simulations only.
//! * **Forwarded requests** — a cluster worker *is* this server. A
//!   `POST /run` a coordinator forwards carries its trace context, and
//!   its lookup and simulation spans hang under one
//!   `cluster.worker_execute` span parented on the coordinator's forward
//!   span.

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbc_probe::{Probe, Stage};

use crate::cache::{ResultCache, Tier};
use crate::front::{Backend, Front, FrontConfig, FrontHandle, Responder};
use crate::metrics::Metrics;
use crate::spans::ServeSpans;
use crate::spec::RunRequest;
use crate::Locked;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads serving requests. `0` is permitted (nothing drains
    /// the queue — used by overload tests); the CLI requires ≥ 1.
    pub workers: usize,
    /// Bounded admission-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Per-request deadline, measured from accept. A simulation that
    /// misses it returns `504` (and keeps running into the cache).
    pub request_timeout: Duration,
    /// Upper bound on the per-request `jobs` field (worker threads inside
    /// the `hbc-exec` engine). Requests asking for more are clamped.
    pub max_jobs: usize,
    /// Result-cache directory; `None` disables persistence.
    pub cache_dir: Option<std::path::PathBuf>,
    /// In-memory result-cache entries.
    pub cache_entries: usize,
    /// Most recent spans retained for `GET /trace`.
    pub span_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            request_timeout: Duration::from_secs(600),
            max_jobs: 8,
            cache_dir: Some(std::path::PathBuf::from("results/cache")),
            cache_entries: 64,
            span_capacity: 4096,
        }
    }
}

/// How one in-flight simulation ended.
#[derive(Debug, Clone)]
enum FlightState {
    Running,
    Done(String),
    Failed(String),
}

/// A single-flight slot: the leader executes, followers wait here.
#[derive(Debug)]
struct Flight(Locked<FlightState>);

impl Flight {
    fn new() -> Self {
        Flight(Locked::new(FlightState::Running))
    }

    fn finish(&self, state: FlightState) {
        self.0.with(|s| *s = state);
        self.0.notify_all();
    }

    /// Waits until the flight lands or `deadline` passes; `Running` means
    /// the deadline passed first.
    fn wait(&self, deadline: Instant) -> FlightState {
        let landed = |s: &FlightState| !matches!(s, FlightState::Running);
        self.0.wait_until(Some(deadline), landed, |s, _| s.clone())
    }
}

/// How one spec was answered: how it was served (`hit-memory`,
/// `hit-disk`, `miss` or `coalesced`), the spec hash and the payload, or
/// an error status (`400` bad spec, `500` failed simulation, `504` missed
/// deadline) and its message.
type Answer = Result<(&'static str, String, String), (u16, String)>;

/// The local backend: content-addressed result cache, single-flight
/// coalescing, and simulation on a runner thread.
pub struct LocalBackend {
    inner: Arc<Local>,
}

struct Local {
    max_jobs: usize,
    cache: ResultCache,
    metrics: Arc<Metrics>,
    spans: Arc<ServeSpans>,
    in_flight: Locked<BTreeMap<String, Arc<Flight>>>,
}

impl LocalBackend {
    /// Answers one spec: cache lookup, then single-flight simulation.
    /// `deadline` bounds the wait for a simulation; a missed deadline
    /// answers `504` while the simulation runs on into the cache. Spans
    /// record under `request`, parented on `parent`.
    fn answer(&self, spec_json: &str, deadline: Instant, request: u64, parent: u64) -> Answer {
        let (local, spans) = (&self.inner, &self.inner.spans);
        let mut run = match RunRequest::from_json_text(spec_json) {
            Ok(run) => run,
            Err(err) => return Err((400, err.to_string())),
        };
        // `jobs` is execution-only (absent from the cache key); clamp it so
        // a request cannot commandeer the host.
        if run.jobs > local.max_jobs {
            run.jobs = local.max_jobs;
        }
        let spec_hash = run.spec_hash();
        let canonical = run.canonical();

        let lookup_start_us = spans.now_us();
        let cached = local.cache.get(&spec_hash, &canonical);
        let lookup_end_us = spans.now_us();
        spans.record_at(Stage::ServeCacheLookup, request, parent, lookup_start_us, lookup_end_us);
        if let Some((body, tier)) = cached {
            let (cache, counter) = match tier {
                Tier::Memory => ("hit-memory", &local.metrics.cache_hits_memory),
                Tier::Disk => ("hit-disk", &local.metrics.cache_hits_disk),
            };
            counter.inc();
            return Ok((cache, spec_hash, body));
        }

        // Single-flight: the first requester for this hash leads and
        // executes; concurrent identical requests wait on the same flight.
        let (flight, leader) = local.in_flight.with(|in_flight| match in_flight.get(&spec_hash) {
            Some(flight) => (Arc::clone(flight), false),
            None => {
                let flight = Arc::new(Flight::new());
                in_flight.insert(spec_hash.clone(), Arc::clone(&flight));
                (flight, true)
            }
        });
        if leader {
            local.metrics.cache_misses.inc();
            let key = (spec_hash.clone(), canonical);
            self.run_flight(run, key, (request, parent), &flight);
        } else {
            local.metrics.coalesced.inc();
        }

        let wait_start_us = spans.now_us();
        let outcome = flight.wait(deadline);
        let wait_end_us = spans.now_us();
        spans.record_at(Stage::ServeSingleFlightWait, request, parent, wait_start_us, wait_end_us);
        match outcome {
            FlightState::Done(body) => {
                Ok((if leader { "miss" } else { "coalesced" }, spec_hash, body))
            }
            FlightState::Failed(message) => Err((500, message)),
            FlightState::Running => Err((
                504,
                "simulation exceeded the request timeout; it continues into the result cache \
                 — retry to fetch it"
                    .to_string(),
            )),
        }
    }

    /// Runs one simulation on a detached runner thread and completes its
    /// [`Flight`]. The runner finishes even if every waiter times out, so
    /// the result still lands in the cache and a retry is a hit.
    fn run_flight(
        &self,
        run: RunRequest,
        (hash, canonical): (String, String),
        (request, parent): (u64, u64),
        flight: &Arc<Flight>,
    ) {
        let local = Arc::clone(&self.inner);
        let (runner_flight, runner_hash) = (Arc::clone(flight), hash.clone());
        let simulate = move || {
            let (flight, hash) = (runner_flight, runner_hash);
            local.metrics.exec_runs.inc();
            let sim_start_us = local.spans.now_us();
            let result = catch_unwind(AssertUnwindSafe(|| run.execute()));
            // The simulate span carries the leader's request ID; coalesced
            // followers share this one simulation, so their traces show a
            // single-flight wait instead.
            let sim_end_us = local.spans.now_us();
            local.spans.record_at(Stage::ServeSimulate, request, parent, sim_start_us, sim_end_us);
            let state = match result {
                Ok(body) => {
                    if let Err(e) = local.cache.put(&hash, &canonical, &body) {
                        let role = LocalBackend::ROLE;
                        eprintln!("{role}: persisting cache entry {hash} failed: {e}");
                    }
                    FlightState::Done(body)
                }
                Err(_) => FlightState::Failed(format!(
                    "simulation for spec {hash} panicked; see {} logs",
                    LocalBackend::ROLE
                )),
            };
            local.in_flight.with(|in_flight| in_flight.remove(&hash));
            flight.finish(state);
        };
        let runner = std::thread::Builder::new().name("hbc-serve-runner".to_string());
        if let Err(e) = runner.spawn(simulate) {
            self.inner.in_flight.with(|in_flight| in_flight.remove(&hash));
            flight.finish(FlightState::Failed(format!("cannot spawn runner thread: {e}")));
        }
    }
}

impl Backend for LocalBackend {
    const ROLE: &'static str = "server";
    const PATHS: &'static [&'static str] = &["/metrics.json"];

    fn run(&self, out: &mut Responder<'_, Self>, body: &[u8]) {
        let (spans, request, forward) = (&self.inner.spans, out.request_id, out.parent);
        // A forwarded request hangs its work under one execute span, closed
        // before the reply is written: a trace fetched the moment the reply
        // lands already holds the whole subtree.
        let (exec_span, start_us) =
            if forward == 0 { (0, 0) } else { (spans.alloc_span(), spans.now_us()) };
        let answer = match std::str::from_utf8(body) {
            Ok(text) => self.answer(text, out.deadline, request, exec_span),
            Err(_) => Err((400, "request body is not UTF-8".to_string())),
        };
        if exec_span != 0 {
            let (stage, end_us) = (Stage::ClusterWorkerExecute, spans.now_us());
            spans.record_linked(stage, exec_span, request, forward, start_us, end_us);
        }
        match answer {
            Ok((cache, spec_hash, body)) => {
                let headers = [("X-Cache", cache), ("X-Spec-Hash", spec_hash.as_str())];
                out.respond(200, "text/plain", &headers, body.as_bytes());
            }
            Err((status, message)) => out.error(status, &message),
        }
    }

    fn prometheus(&self, front: &Metrics, spans: &ServeSpans) -> String {
        front.to_prometheus(
            self.inner.cache.evictions(),
            spans.log().dropped(),
            &spans.stage_histograms(),
        )
    }

    /// `GET /metrics.json`: the legacy registry snapshot — service
    /// counters plus the result cache's eviction count, rendered as
    /// deterministic `hbc-probe` JSON.
    fn route(&self, out: &mut Responder<'_, Self>, method: &str, path: &str, _query: &str) -> bool {
        if (method, path) != ("GET", "/metrics.json") {
            return false;
        }
        let mut reg = self.inner.metrics.to_registry();
        reg.set(Probe::ServeCacheEvictions, self.inner.cache.evictions());
        out.respond(200, "application/json", &[], reg.to_json().as_bytes());
        true
    }
}

/// A running server: the shared front end over a [`LocalBackend`]. The
/// usual lifecycle is [`Server::bind`] → clients → `POST /shutdown` (or
/// [`ServerHandle::shutdown`]) → [`Front::join`].
pub type Server = Front<LocalBackend>;

/// A cloneable reference to a running server, for shutdown and metrics.
pub type ServerHandle = FrontHandle<LocalBackend>;

impl Server {
    /// Binds the listener, spawns the acceptor and worker threads, and
    /// returns immediately.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::new(dir.clone(), config.cache_entries),
            None => ResultCache::in_memory(config.cache_entries),
        };
        let front = FrontConfig {
            addr: config.addr,
            handlers: config.workers,
            queue_capacity: config.queue_capacity,
            request_timeout: config.request_timeout,
        };
        let max_jobs = config.max_jobs;
        Front::start(front, config.span_capacity, |metrics, spans| {
            let (metrics, spans, in_flight) =
                (Arc::clone(metrics), Arc::clone(spans), Locked::default());
            LocalBackend { inner: Arc::new(Local { max_jobs, cache, metrics, spans, in_flight }) }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_wait_times_out_and_completes() {
        let flight = Flight::new();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(flight.wait(deadline), FlightState::Running));
        flight.finish(FlightState::Done("x".to_string()));
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(flight.wait(deadline), FlightState::Done(b) if b == "x"));
    }
}
