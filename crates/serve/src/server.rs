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
//!   same bytes. `serve.exec.runs` counts real simulations only. The
//!   cluster worker answers its `Run` frames through the same backend.

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

    /// Waits until the flight lands, or until `deadline` if there is one;
    /// `Running` means the deadline passed first.
    fn wait(&self, deadline: Option<Instant>) -> FlightState {
        let landed = |s: &FlightState| !matches!(s, FlightState::Running);
        self.0.wait_until(deadline, landed, |s, _| s.clone())
    }
}

/// How [`LocalBackend::run_spec`] answered one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// How it was served (`hit-memory`, `hit-disk`, `miss` or
    /// `coalesced`), the spec hash, and the payload — byte-identical to
    /// the figure binary's output.
    Served(&'static str, String, String),
    /// An error status (`400` bad spec, `500` failed simulation, `504`
    /// missed deadline) and its message.
    Failed(u16, String),
}

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
    /// Names the process in panic messages (`see {role} logs`).
    role: String,
}

impl LocalBackend {
    /// A backend over `cache` that clamps `jobs` to `max_jobs` and traces
    /// into `spans`. `role` names the process in error messages.
    pub fn new(cache: ResultCache, max_jobs: usize, spans: Arc<ServeSpans>, role: &str) -> Self {
        let (metrics, in_flight) = (Arc::default(), Locked::default());
        let role = role.to_string();
        LocalBackend { inner: Arc::new(Local { max_jobs, cache, metrics, spans, in_flight, role }) }
    }

    /// The cache and execution counters (shared with the front end).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Answers one spec: cache lookup, then single-flight simulation.
    /// `deadline` bounds the wait for a simulation; a missed deadline
    /// answers `504` while the simulation runs on into the cache. With
    /// `None` the leader simulates on the calling thread. Spans record
    /// under `request`, parented on `parent`.
    pub fn run_spec(
        &self,
        spec_json: &str,
        deadline: Option<Instant>,
        request: u64,
        parent: u64,
    ) -> Outcome {
        let (local, spans) = (&self.inner, &self.inner.spans);
        let mut run = match RunRequest::from_json_text(spec_json) {
            Ok(run) => run,
            Err(err) => return Outcome::Failed(400, err.to_string()),
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
            return Outcome::Served(cache, spec_hash, body);
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
            self.run_flight(run, key, (request, parent), &flight, deadline);
        } else {
            local.metrics.coalesced.inc();
        }

        let wait_start_us = spans.now_us();
        let outcome = flight.wait(deadline);
        let wait_end_us = spans.now_us();
        spans.record_at(Stage::ServeSingleFlightWait, request, parent, wait_start_us, wait_end_us);
        match outcome {
            FlightState::Done(body) => {
                Outcome::Served(if leader { "miss" } else { "coalesced" }, spec_hash, body)
            }
            FlightState::Failed(message) => Outcome::Failed(500, message),
            FlightState::Running => Outcome::Failed(
                504,
                "simulation exceeded the request timeout; it continues into the result cache \
                 — retry to fetch it"
                    .to_string(),
            ),
        }
    }

    /// Runs one simulation and completes its [`Flight`]. Without a
    /// deadline nobody can give up waiting, so it runs on this thread.
    /// With one it runs on a detached runner thread that finishes even if
    /// every waiter times out, so the result still lands in the cache and
    /// a retry is a hit.
    fn run_flight(
        &self,
        run: RunRequest,
        (hash, canonical): (String, String),
        (request, parent): (u64, u64),
        flight: &Arc<Flight>,
        deadline: Option<Instant>,
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
                        eprintln!("{}: persisting cache entry {hash} failed: {e}", local.role);
                    }
                    FlightState::Done(body)
                }
                Err(_) => FlightState::Failed(format!(
                    "simulation for spec {hash} panicked; see {} logs",
                    local.role
                )),
            };
            local.in_flight.with(|in_flight| in_flight.remove(&hash));
            flight.finish(state);
        };
        if deadline.is_none() {
            return simulate();
        }
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
        let Ok(text) = std::str::from_utf8(body) else {
            out.error(400, "request body is not UTF-8");
            return;
        };
        match self.run_spec(text, Some(out.deadline), out.request_id, 0) {
            Outcome::Served(cache, spec_hash, body) => {
                let headers = [("X-Cache", cache), ("X-Spec-Hash", spec_hash.as_str())];
                out.respond(200, "text/plain", &headers, body.as_bytes());
            }
            Outcome::Failed(status, message) => out.error(status, &message),
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
        let spans = Arc::new(ServeSpans::new(config.span_capacity));
        let backend = LocalBackend::new(cache, config.max_jobs, Arc::clone(&spans), "server");
        let metrics = Arc::clone(backend.metrics());
        let front = FrontConfig {
            addr: config.addr,
            handlers: config.workers,
            queue_capacity: config.queue_capacity,
            request_timeout: config.request_timeout,
        };
        Front::start(front, backend, metrics, spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_wait_times_out_and_completes() {
        let flight = Flight::new();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(flight.wait(Some(deadline)), FlightState::Running));
        flight.finish(FlightState::Done("x".to_string()));
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(flight.wait(Some(deadline)), FlightState::Done(b) if b == "x"));
        assert!(matches!(flight.wait(None), FlightState::Done(b) if b == "x"));
    }
}
