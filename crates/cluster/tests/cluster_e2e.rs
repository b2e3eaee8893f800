//! End-to-end cluster tests: determinism through routing, failover on a
//! killed worker, the failure policy on odd worker answers, and graceful
//! coordinator drain.
//!
//! The serving contract under test: a response fetched through the
//! coordinator is byte-identical to `RunRequest::execute` for the same
//! spec — no matter which worker answered, and no matter whether the
//! spec's primary worker died first. A worker is an `hbc-serve` server:
//! in-process where it only serves, a real `hbc-cluster worker` child
//! process where a test kills it.

#![expect(clippy::expect_used, reason = "setup helpers fail the test on a socket or server error")]

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use hbc_cluster::ring;
use hbc_serve::client::HttpClient;
use hbc_serve::json::Json;
use hbc_serve::metrics::{parse_prometheus, AtomicCounter};
use hbc_serve::server::{Server, ServerConfig};
use hbc_serve::spec::{mixed_request, RunRequest};

/// The coordinator's per-request deadline, which also bounds each forward.
/// A sanitized debug sweep takes 25–40 s alone on a 2-vCPU host, and
/// longer beside the other tests in this file; release answers in
/// milliseconds.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(240);
/// Outlasts `REQUEST_TIMEOUT`, so a slow request ends in the coordinator's
/// own answer rather than a client read timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(300);

fn http() -> HttpClient {
    HttpClient::new(CLIENT_TIMEOUT)
}

/// An in-process worker: the same server `hbc-cluster worker` runs.
fn test_worker() -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: None, // No on-disk shard: tests must not write results/cache.
        ..ServerConfig::default()
    };
    Server::bind(config).expect("worker binds")
}

/// A real `hbc-cluster worker` process, killed on drop.
struct WorkerProcess {
    child: Child,
    /// Held open so the worker's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl WorkerProcess {
    /// Starts the worker and waits for the address on its first line.
    fn spawn() -> WorkerProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hbc-cluster"))
            .args(["worker", "--addr", "127.0.0.1:0", "--cache-dir", "none"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("hbc-cluster worker starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("worker prints its address");
        let addr = line.split_whitespace().last().and_then(|a| a.parse().ok());
        WorkerProcess {
            child,
            _stdout: stdout,
            addr: addr.expect("a socket address ends the line"),
        }
    }

    /// Abrupt death: the process is gone, every connection with it, the
    /// way a crashed worker dies.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

fn test_config(workers: &[SocketAddr]) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: workers.iter().map(SocketAddr::to_string).collect(),
        handlers: 2,
        request_timeout: REQUEST_TIMEOUT,
        wire_timeout: REQUEST_TIMEOUT,
        probe_interval: Duration::from_millis(100),
        ..CoordinatorConfig::default()
    }
}

fn test_coordinator(workers: &[SocketAddr]) -> Coordinator {
    Coordinator::bind(test_config(workers)).expect("coordinator binds")
}

/// The first spec of seed `seed`'s mixed stream whose rendezvous primary
/// among `workers` is `workers[primary]`.
fn spec_with_primary(seed: u64, workers: &[SocketAddr], primary: usize) -> RunRequest {
    let names: Vec<String> = workers.iter().map(SocketAddr::to_string).collect();
    (0..)
        .map(|index| mixed_request(seed, index))
        .find(|spec| ring::candidates(&spec.spec_hash(), &names)[0] == primary)
        .expect("some spec lands on every worker")
}

/// A coordinator over `[first, last]` whose prober has finished its first
/// round, with the next minutes away: the prober probes in list order, so
/// once `last` has been probed the verdict on `first` is stored, and no
/// later probe can revive or demote a worker mid-test (drain wakes the
/// prober, so shutdown does not wait it out).
fn probed_once(first: SocketAddr, last: &Server) -> Coordinator {
    let config = CoordinatorConfig {
        probe_interval: Duration::from_secs(600),
        ..test_config(&[first, last.addr()])
    };
    let coordinator = Coordinator::bind(config).expect("coordinator binds");
    let requests = last.handle().metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while requests.requests.get() == 0 {
        assert!(Instant::now() < deadline, "the first probe round never reached {}", last.addr());
        std::thread::yield_now();
    }
    coordinator
}

fn stop(server: Server) {
    server.handle().shutdown();
    server.join();
}

#[test]
fn responses_are_byte_identical_through_routing() {
    let w1 = test_worker();
    let w2 = test_worker();
    let coordinator = test_coordinator(&[w1.addr(), w2.addr()]);
    let addr = coordinator.addr();
    let names = vec![w1.addr().to_string(), w2.addr().to_string()];

    for index in 0..6u64 {
        let spec = mixed_request(7, index);
        let expected = spec.execute();
        let primary = names[ring::candidates(&spec.spec_hash(), &names)[0]].clone();

        let first =
            http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
        assert_eq!(first.status, 200, "spec {index}: {}", first.text());
        assert_eq!(
            first.body,
            expected.as_bytes(),
            "spec {index}: routed response must be byte-identical to direct execution"
        );
        assert_eq!(
            first.header("X-Worker"),
            Some(primary.as_str()),
            "spec {index} must land on its rendezvous primary"
        );

        // The repeat lands on the same shard and replays its cache.
        let second =
            http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
        assert_eq!(second.status, 200);
        assert_eq!(second.body, expected.as_bytes());
        assert_eq!(second.header("X-Worker"), Some(primary.as_str()));
        assert_eq!(
            second.header("X-Cache"),
            Some("hit-memory"),
            "spec {index}: the repeat must be a shard-local cache hit"
        );
    }

    // Both shards took traffic (the mixed stream spreads across workers).
    let metrics = http().get(addr, "/metrics").expect("metrics fetch");
    let samples = parse_prometheus(metrics.text().as_ref()).expect("metrics parse strictly");
    let forwarded: f64 =
        samples.iter().filter(|s| s.name == "cluster_forwarded_total").map(|s| s.value).sum();
    assert!(forwarded >= 12.0, "12 requests must all have been forwarded, saw {forwarded}");

    // `GET /cluster` carries each worker's live counters: six misses in
    // all, one per distinct spec.
    let cluster = Json::parse(&http().get(addr, "/cluster").expect("cluster fetch").text())
        .expect("GET /cluster is JSON");
    let Some(Json::Arr(workers)) = cluster.as_obj().and_then(|c| c.get("workers")) else {
        panic!("no workers array: {}", cluster.render());
    };
    let misses: Option<u64> = workers
        .iter()
        .map(|w| w.as_obj()?.get("stats")?.as_obj()?.get("serve.cache.misses")?.as_u64())
        .sum();
    assert_eq!(misses, Some(6), "{}", cluster.render());

    shutdown(&coordinator.handle(), addr);
    coordinator.join();
    stop(w1);
    stop(w2);
}

#[test]
fn killed_primary_fails_over_byte_identically() {
    let mut victim = WorkerProcess::spawn();
    let survivor = test_worker();
    let workers = [victim.addr, survivor.addr()];
    let coordinator = test_coordinator(&workers);
    let addr = coordinator.addr();

    // A spec whose rendezvous primary is the worker about to die.
    let spec = spec_with_primary(11, &workers, 0);
    let expected = spec.execute();
    let (victim_name, survivor_name) = (victim.addr.to_string(), survivor.addr().to_string());

    // Warm the routing path, then kill the primary mid-service.
    let warm = http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Worker"), Some(victim_name.as_str()));
    victim.kill();

    // The same spec now fails over to the survivor — same bytes.
    let after = http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
    assert_eq!(after.status, 200, "failover must succeed: {}", after.text());
    assert_eq!(
        after.body,
        expected.as_bytes(),
        "the failover response must be byte-identical to direct execution"
    );
    assert_eq!(after.header("X-Worker"), Some(survivor_name.as_str()));
    assert!(coordinator.handle().failovers() >= 1, "the failover must be counted");

    // The prober demotes the dead worker within a few probe periods.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = coordinator.handle().worker_health();
        let victim_healthy = health
            .iter()
            .find(|(name, _)| *name == victim_name)
            .map(|(_, healthy)| *healthy)
            .expect("victim is a known worker");
        if !victim_healthy {
            break;
        }
        assert!(Instant::now() < deadline, "prober never demoted the killed worker");
        std::thread::sleep(Duration::from_millis(50));
    }

    // A fresh spec stream keeps answering correctly on one worker.
    for index in 1..4u64 {
        let spec = mixed_request(11, index);
        let response =
            http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, spec.execute().as_bytes());
        assert_eq!(response.header("X-Worker"), Some(survivor_name.as_str()));
    }

    let metrics = http().get(addr, "/metrics").expect("metrics fetch");
    let samples = parse_prometheus(metrics.text().as_ref()).expect("metrics parse strictly");
    let failovers = samples
        .iter()
        .find(|s| s.name == "cluster_failovers_total")
        .map(|s| s.value)
        .expect("failover counter is exported");
    assert!(failovers >= 1.0);

    shutdown(&coordinator.handle(), addr);
    coordinator.join();
    stop(survivor);
}

#[test]
fn federated_trace_stitches_a_failover_into_one_tree() {
    let mut victim = WorkerProcess::spawn();
    let survivor = test_worker();
    let workers = [victim.addr, survivor.addr()];
    let spec = spec_with_primary(11, &workers, 0);
    let survivor_port = u64::from(survivor.addr().port());

    // The victim's healthy verdict is stored before it dies.
    let coordinator = probed_once(victim.addr, &survivor);
    let addr = coordinator.addr();

    // Kill the spec's rendezvous primary *before* the request: the
    // coordinator still plans it first, so one request carries a failed
    // forward and a failover retry — two `cluster.forward` spans under
    // one request ID.
    victim.kill();

    let response = http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
    assert_eq!(response.status, 200, "failover must succeed: {}", response.text());
    assert_eq!(response.header("X-Worker"), Some(survivor.addr().to_string().as_str()));

    // The failed forward demoted the victim, so the federation pass
    // polls only the survivor.
    let victim_name = victim.addr.to_string();
    assert!(
        coordinator.handle().worker_health().contains(&(victim_name, false)),
        "the failed forward must demote the killed worker"
    );

    let fetched = http().get(addr, "/trace?federated=1").expect("federated trace fetch");
    assert_eq!(fetched.status, 200);
    let set =
        hbc_trace::TraceSet::parse_jsonl(fetched.text().as_ref()).expect("federated stream parses");
    let report = hbc_trace::analyze(&set);

    // Both processes contributed a source, and no ring dropped spans.
    assert!(
        report.sources.iter().any(|s| s.node == "coordinator"),
        "coordinator source missing: {:?}",
        report.sources
    );
    assert!(
        report.sources.iter().any(|s| s.node == survivor.addr().to_string()),
        "survivor source missing: {:?}",
        report.sources
    );
    assert!(report.anomalies.dropped_sources.is_empty());

    // The failover request is one stitched tree: two forward attempts,
    // worker-side spans under the coordinator's request ID, no orphans.
    assert!(
        report.anomalies.orphans.is_empty(),
        "every span must link into its tree: {:?}",
        report.anomalies.orphans
    );
    assert_eq!(report.anomalies.failover_requests.len(), 1, "{report:?}");
    let failover_request = report.anomalies.failover_requests[0];
    let summary = report
        .requests
        .iter()
        .find(|r| r.request == failover_request)
        .expect("failover request is summarized");
    assert!(summary.forwards >= 2, "both forward attempts must be spans: {summary:?}");
    assert_eq!(summary.orphans, 0);
    let worker_base = survivor_port << 32;
    let cross_process = set.spans.iter().any(|s| {
        s.request == failover_request && s.stage == "cluster.worker_execute" && s.span > worker_base
    });
    assert!(cross_process, "the survivor's execute span must carry the coordinator's request ID");
    // The worker did real work for this request, so the simulation (or
    // its cache path) dominates somewhere in the stitched tree.
    assert!(
        set.spans.iter().any(|s| s.request == failover_request && s.stage == "serve.simulate"),
        "worker-side child spans must ride along in the federation"
    );

    shutdown(&coordinator.handle(), addr);
    coordinator.join();
    stop(survivor);
}

/// A stand-in worker that answers `/healthz` with `200` and every other
/// request with `status` and `body` under a spec hash no spec has, and
/// counts the other requests.
fn fake_worker(status: u16, body: &'static str) -> (SocketAddr, Arc<AtomicCounter>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    let runs = Arc::new(AtomicCounter::default());
    let counted = Arc::clone(&runs);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let Ok(request) = hbc_serve::http::read_request(&mut stream) else { continue };
            let (status, body) = if request.path == "/healthz" {
                (200, "ok\n")
            } else {
                counted.inc();
                (status, body)
            };
            let _ = hbc_serve::http::write_response(
                &mut stream,
                status,
                "application/json",
                &[("X-Spec-Hash", "0000")],
                body.as_bytes(),
            );
        }
    });
    (addr, runs)
}

#[test]
fn odd_worker_answers_follow_the_failure_policy() {
    // A 200 for some other spec (its `X-Spec-Hash` is not the
    // coordinator's) demotes the worker and fails over, byte-identically.
    let real = test_worker();
    let (wrong_hash, wrong_hash_runs) = fake_worker(200, "not this spec");
    let workers = [wrong_hash, real.addr()];
    let coordinator = probed_once(wrong_hash, &real);
    let spec = spec_with_primary(5, &workers, 0);
    let response =
        http().post(coordinator.addr(), "/run", spec.to_json().as_bytes()).expect("request");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.body, spec.execute().as_bytes());
    assert_eq!(response.header("X-Worker"), Some(real.addr().to_string().as_str()));
    assert_eq!(wrong_hash_runs.get(), 1);
    assert!(coordinator.handle().worker_health().contains(&(wrong_hash.to_string(), false)));
    shutdown(&coordinator.handle(), coordinator.addr());
    coordinator.join();
    stop(real);

    // A worker-reported 500 is relayed as-is and not retried elsewhere.
    let real = test_worker();
    let failure = r#"{"error":"simulation panicked","status":500}"#;
    let (failing, failing_runs) = fake_worker(500, failure);
    let workers = [failing, real.addr()];
    let coordinator = probed_once(failing, &real);
    let spec = spec_with_primary(5, &workers, 0);
    let response =
        http().post(coordinator.addr(), "/run", spec.to_json().as_bytes()).expect("request");
    assert_eq!(response.status, 500);
    assert_eq!(response.text(), failure);
    assert_eq!(failing_runs.get(), 1);
    assert_eq!(coordinator.handle().failovers(), 0, "a worker's own error is not retried");
    // Only probes reached the real worker: nothing asked it for a spec.
    assert_eq!(real.handle().metrics().cache_misses.get(), 0);
    shutdown(&coordinator.handle(), coordinator.addr());
    coordinator.join();
    stop(real);
}

#[test]
fn coordinator_drain_finishes_in_flight_and_refuses_new() {
    let worker = test_worker();
    let coordinator = test_coordinator(&[worker.addr()]);
    let addr = coordinator.addr();

    let spec = mixed_request(23, 1);
    let expected = spec.execute();
    let body = spec.to_json();

    // Put one request in flight, then drain while it runs.
    let in_flight = std::thread::spawn(move || http().post(addr, "/run", body.as_bytes()));
    // A handler has read the request once the coordinator counts it.
    let metrics = coordinator.handle().metrics();
    let started = Instant::now();
    while metrics.requests.get() < 1 {
        assert!(started.elapsed() < Duration::from_secs(10), "the request never reached a handler");
        std::thread::yield_now();
    }
    shutdown(&coordinator.handle(), addr);

    // New connections are refused with an orderly 503, not a reset.
    let refused = http()
        .post(addr, "/run", spec.to_json().as_bytes())
        .expect("a draining coordinator answers, it does not vanish");
    assert_eq!(refused.status, 503);

    // The in-flight request still completes, byte-identically.
    let response = in_flight
        .join()
        .expect("client thread survives")
        .expect("in-flight request completes through drain");
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected.as_bytes());

    // join() returns: the drain actually terminates the coordinator…
    coordinator.join();
    // …while the worker is still alive and serving.
    assert!(worker.handle().metrics().requests.get() >= 1);
    let alive = http().get(worker.addr(), "/healthz").expect("worker answers");
    assert_eq!(alive.status, 200, "drain of the coordinator must not touch workers");
    stop(worker);
}

/// `POST /shutdown` if the coordinator still answers; fall back to the
/// handle so a test never hangs on an already-draining front door.
fn shutdown(handle: &CoordinatorHandle, addr: std::net::SocketAddr) {
    match http().post(addr, "/shutdown", b"") {
        Ok(response) if response.status == 200 => {}
        _ => handle.shutdown(),
    }
}
