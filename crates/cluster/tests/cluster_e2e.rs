//! End-to-end cluster tests: determinism through routing, failover on a
//! killed worker, and graceful coordinator drain.
//!
//! The serving contract under test: a response fetched through the
//! coordinator is byte-identical to `RunRequest::execute` for the same
//! spec — no matter which worker answered, and no matter whether the
//! spec's primary worker died first.

#![expect(clippy::expect_used, reason = "setup helpers fail the test on a socket or server error")]

use std::time::{Duration, Instant};

use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use hbc_cluster::ring;
use hbc_cluster::worker::{Worker, WorkerConfig};
use hbc_serve::client::HttpClient;
use hbc_serve::metrics::parse_prometheus;
use hbc_serve::spec::mixed_request;

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

fn test_worker() -> Worker {
    let config = WorkerConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: None, // No on-disk shard: tests must not write results/cache.
        ..WorkerConfig::default()
    };
    Worker::bind(config).expect("worker binds")
}

fn test_config(workers: &[&Worker]) -> CoordinatorConfig {
    CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        handlers: 2,
        request_timeout: REQUEST_TIMEOUT,
        wire_timeout: REQUEST_TIMEOUT,
        probe_interval: Duration::from_millis(100),
        ..CoordinatorConfig::default()
    }
}

fn test_coordinator(workers: &[&Worker]) -> Coordinator {
    Coordinator::bind(test_config(workers)).expect("coordinator binds")
}

#[test]
fn responses_are_byte_identical_through_routing() {
    let w1 = test_worker();
    let w2 = test_worker();
    let coordinator = test_coordinator(&[&w1, &w2]);
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

    shutdown(&coordinator.handle(), addr);
    coordinator.join();
    for worker in [w1, w2] {
        worker.handle().drain();
        worker.join();
    }
}

#[test]
fn killed_primary_fails_over_byte_identically() {
    let w1 = test_worker();
    let w2 = test_worker();
    let coordinator = test_coordinator(&[&w1, &w2]);
    let addr = coordinator.addr();
    let names = vec![w1.addr().to_string(), w2.addr().to_string()];

    // Pick a spec and identify its rendezvous primary and survivor.
    let spec = mixed_request(11, 0);
    let expected = spec.execute();
    let order = ring::candidates(&spec.spec_hash(), &names);
    let (victim, survivor) = if order[0] == 0 { (&w1, &w2) } else { (&w2, &w1) };
    let survivor_name = survivor.addr().to_string();

    // Warm the routing path, then kill the primary mid-service: every
    // live connection is severed, the way a crashed process dies.
    let warm = http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Worker"), Some(names[order[0]].as_str()));
    victim.handle().kill();

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
    let victim_name = victim.addr().to_string();
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
    let _ = w1.handle();
    w1.handle().kill();
    w2.handle().drain();
    for worker in [w1, w2] {
        worker.join();
    }
}

#[test]
fn federated_trace_stitches_a_failover_into_one_tree() {
    let w1 = test_worker();
    let w2 = test_worker();
    let names = vec![w1.addr().to_string(), w2.addr().to_string()];
    let spec = mixed_request(11, 0);
    let order = ring::candidates(&spec.spec_hash(), &names);
    let (victim, survivor) = if order[0] == 0 { (&w1, &w2) } else { (&w2, &w1) };
    let survivor_port = u64::from(survivor.addr().port());

    // The victim is listed first and the prober probes in list order, so
    // once the survivor has answered a probe the victim's healthy verdict
    // is stored, and the next probe round is minutes away (drain wakes
    // the prober, so shutdown does not wait it out).
    let coordinator = Coordinator::bind(CoordinatorConfig {
        probe_interval: Duration::from_secs(600),
        ..test_config(&[victim, survivor])
    })
    .expect("coordinator binds");
    let addr = coordinator.addr();
    let deadline = Instant::now() + Duration::from_secs(10);
    while survivor.handle().served() == 0 {
        assert!(Instant::now() < deadline, "the first probe round never reached the survivor");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Kill the spec's rendezvous primary *before* the request: the
    // coordinator still plans it first, so one request carries a failed
    // forward and a failover retry — two `cluster.forward` spans under
    // one request ID.
    victim.handle().kill();

    let response = http().post(addr, "/run", spec.to_json().as_bytes()).expect("request completes");
    assert_eq!(response.status, 200, "failover must succeed: {}", response.text());
    assert_eq!(response.header("X-Worker"), Some(survivor.addr().to_string().as_str()));

    // The failed forward demoted the victim, so the federation pass
    // polls only the survivor.
    let victim_name = victim.addr().to_string();
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
    survivor.handle().drain();
    for worker in [w1, w2] {
        worker.join();
    }
}

#[test]
fn coordinator_drain_finishes_in_flight_and_refuses_new() {
    let worker = test_worker();
    let coordinator = test_coordinator(&[&worker]);
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
    assert!(worker.handle().served() >= 1);
    let alive = std::net::TcpStream::connect_timeout(&worker.addr(), Duration::from_secs(1));
    assert!(alive.is_ok(), "drain of the coordinator must not touch workers");
    worker.handle().drain();
    worker.join();
}

/// `POST /shutdown` if the coordinator still answers; fall back to the
/// handle so a test never hangs on an already-draining front door.
fn shutdown(handle: &CoordinatorHandle, addr: std::net::SocketAddr) {
    match http().post(addr, "/shutdown", b"") {
        Ok(response) if response.status == 200 => {}
        _ => handle.shutdown(),
    }
}
