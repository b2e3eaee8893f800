//! End-to-end tests of the service over real sockets: the bit-identity
//! contract (served payload == figure binary output), cache behavior
//! across tiers and server restarts, single-flight coalescing, overload
//! (429), per-request timeouts (504), and graceful shutdown.
//!
//! Every test binds `127.0.0.1:0`, so they run concurrently without port
//! coordination, and every assertion about racy behavior is phrased so it
//! holds on both sides of the race (e.g. "exactly one simulation ran"
//! rather than "the second request coalesced").

#![expect(clippy::expect_used, reason = "setup helpers fail the test on a socket or server error")]

use std::time::{Duration, Instant};

use hbc_core::experiments;
use hbc_serve::client::HttpClient;
use hbc_serve::json::Json;
use hbc_serve::metrics::parse_prometheus;
use hbc_serve::server::{Server, ServerConfig};
use hbc_serve::spec::{ExperimentId, Preset, RunRequest};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn http() -> HttpClient {
    HttpClient::new(CLIENT_TIMEOUT)
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hbc-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        request_timeout: Duration::from_secs(120),
        max_jobs: 2,
        cache_dir: None,
        cache_entries: 16,
        span_capacity: 1024,
    }
}

fn post_run(server: &Server, spec: &str) -> hbc_serve::http::Response {
    http().post(server.addr(), "/run", spec.as_bytes()).expect("request completes")
}

fn shut_down(server: Server) {
    server.handle().shutdown();
    server.join();
}

/// Cache-hit counter across both tiers, read from the Prometheus text at
/// `GET /metrics`.
fn metrics_cache_hits(server: &Server) -> u64 {
    let resp = http().get(server.addr(), "/metrics").expect("metrics request completes");
    assert_eq!(resp.status, 200);
    let samples = parse_prometheus(&resp.text()).expect("metrics body is valid Prometheus text");
    samples.iter().filter(|s| s.name == "serve_cache_hits_total").map(|s| s.value as u64).sum()
}

#[test]
fn served_figure_is_byte_identical_and_then_cached() {
    let mut request = RunRequest::new(ExperimentId::Fig4);
    request.preset = Preset::Fast;
    // The reference bytes, straight from the experiment driver — exactly
    // what `cargo run --bin fig4 -- --fast` prints.
    let expected = format!("{}\n", experiments::fig4::run(&request.to_params()));

    let server = Server::bind(test_config()).expect("bind");
    let first = post_run(&server, &request.to_json());
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(first.header("x-spec-hash"), Some(request.spec_hash().as_str()));
    assert_eq!(first.body, expected.as_bytes(), "served payload must be bit-identical");

    let second = post_run(&server, &request.to_json());
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit-memory"));
    assert_eq!(second.body, expected.as_bytes());
    assert!(metrics_cache_hits(&server) >= 1);
    shut_down(server);
}

#[test]
fn equivalent_specs_share_one_cache_entry() {
    let server = Server::bind(test_config()).expect("bind");
    let terse = r#"{"experiment":"table2","preset":"fast"}"#;
    let verbose = r#"{"experiment":"table2","jobs":2,"preset":"fast","reps":false,"seed":42}"#;
    let first = post_run(&server, terse);
    assert_eq!(first.status, 200, "{}", first.text());
    // Different spelling, same canonical spec: must hit, not re-simulate.
    let second = post_run(&server, verbose);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit-memory"));
    assert_eq!(second.body, first.body);
    assert_eq!(second.header("x-spec-hash"), first.header("x-spec-hash"));
    shut_down(server);
}

#[test]
fn disk_cache_replays_across_server_instances() {
    let dir = temp_dir("restart");
    let mut config = test_config();
    config.cache_dir = Some(dir.clone());
    let server = Server::bind(config).expect("bind");
    let spec = r#"{"experiment":"table2","preset":"fast","seed":7}"#;
    let first = post_run(&server, spec);
    assert_eq!(first.status, 200, "{}", first.text());
    shut_down(server);

    // A fresh server over the same directory: cold memory, warm disk.
    let mut config = test_config();
    config.cache_dir = Some(dir.clone());
    let server = Server::bind(config).expect("bind");
    let replay = post_run(&server, spec);
    assert_eq!(replay.status, 200);
    assert_eq!(replay.header("x-cache"), Some("hit-disk"));
    assert_eq!(replay.body, first.body, "disk replay must be bit-identical");
    shut_down(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_requests_run_one_simulation() {
    let mut config = test_config();
    config.workers = 4;
    let server = Server::bind(config).expect("bind");
    let addr = server.addr();
    let spec = r#"{"experiment":"fig6","preset":"fast","seed":9}"#;
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                http().post(addr, "/run", spec.as_bytes()).expect("request completes")
            })
        })
        .collect();
    let responses: Vec<_> = threads.into_iter().map(|t| t.join().expect("join")).collect();
    for resp in &responses {
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.body, responses[0].body);
    }
    // Whether the trailing requests coalesced onto the leader's flight or
    // arrived after it finished (a cache hit), exactly one simulation ran.
    let metrics = server.handle().metrics();
    assert_eq!(metrics.exec_runs.get(), 1);
    shut_down(server);
}

#[test]
fn overload_answers_429_and_shutdown_drains_with_503() {
    // No workers: nothing ever drains the queue, so the second connection
    // deterministically finds it full.
    let mut config = test_config();
    config.workers = 0;
    config.queue_capacity = 1;
    let server = Server::bind(config).expect("bind");
    let metrics = server.handle().metrics();

    use std::net::TcpStream;
    let mut queued = TcpStream::connect(server.addr()).expect("connect");
    let started = Instant::now();
    while metrics.queue_depth.load(std::sync::atomic::Ordering::Relaxed) < 1 {
        assert!(started.elapsed() < Duration::from_secs(10), "connection never queued");
        std::thread::sleep(Duration::from_millis(1));
    }

    let rejected = http()
        .post(server.addr(), "/run", br#"{"experiment":"table2"}"#)
        .expect("rejection is a real response, not a hang or reset");
    assert_eq!(rejected.status, 429);
    assert!(rejected.text().contains("queue"), "{}", rejected.text());

    // Drain: the still-queued connection gets an orderly 503.
    server.handle().shutdown();
    server.join();
    queued.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let drained = hbc_serve::http::read_response(&mut queued).expect("drained response");
    assert_eq!(drained.status, 503);
    assert_eq!(metrics.responses_rejected.get(), 1);
    assert_eq!(metrics.responses_unavailable.get(), 1);
}

#[test]
fn timed_out_request_gets_504_and_the_result_still_lands_in_the_cache() {
    let mut config = test_config();
    // Far too short for a simulation, ample for a memory cache hit.
    config.request_timeout = Duration::from_millis(25);
    let server = Server::bind(config).expect("bind");
    let spec = r#"{"experiment":"fig6","preset":"fast","seed":11}"#;

    let first = post_run(&server, spec);
    assert_eq!(first.status, 504, "{}", first.text());
    assert!(first.text().contains("retry"), "{}", first.text());

    // The detached runner keeps going; eventually a retry is a cache hit
    // that fits comfortably inside the same short deadline.
    let started = Instant::now();
    let hit = loop {
        assert!(started.elapsed() < Duration::from_secs(120), "runner never finished");
        let retry = post_run(&server, spec);
        if retry.status == 200 {
            break retry;
        }
        assert_eq!(retry.status, 504, "{}", retry.text());
        std::thread::sleep(Duration::from_millis(50));
    };
    // Either the retry found the finished entry in the cache, or it
    // joined the still-registered flight just as the runner completed —
    // both serve the one simulation's bytes without re-executing.
    assert!(hit
        .header("x-cache")
        .is_some_and(|label| label.starts_with("hit-") || label == "coalesced"));
    let metrics = server.handle().metrics();
    assert_eq!(metrics.exec_runs.get(), 1, "the timed-out simulation must not rerun");
    assert!(metrics.responses_timeout.get() >= 1);
    shut_down(server);
}

#[test]
fn malformed_requests_are_400_with_a_json_envelope() {
    let server = Server::bind(test_config()).expect("bind");
    for (body, expect) in [
        (&b"not json"[..], "invalid JSON"),
        (br#"{"experiment":"fig2"}"#, "expected one of"),
        (br#"{"experiment":"fig6","speed":1}"#, "unknown field"),
        (br#"[1,2]"#, "must be a JSON object"),
    ] {
        let resp = http().post(server.addr(), "/run", body).expect("request completes");
        assert_eq!(resp.status, 400, "{}", resp.text());
        let envelope = Json::parse(&resp.text()).expect("error envelope is JSON");
        let error = envelope.as_obj().expect("object")["error"].as_str().expect("message");
        assert!(error.contains(expect), "{error} should mention {expect}");
    }
    shut_down(server);
}

#[test]
fn routing_distinguishes_404_and_405() {
    let server = Server::bind(test_config()).expect("bind");
    let missing = http().get(server.addr(), "/nope").expect("request completes");
    assert_eq!(missing.status, 404);
    let wrong_method = http().get(server.addr(), "/run").expect("request completes");
    assert_eq!(wrong_method.status, 405);
    for path in ["/trace", "/metrics.json", "/metrics"] {
        let resp = http().post(server.addr(), path, b"").expect("request completes");
        assert_eq!(resp.status, 405, "POST {path} must be rejected, not routed");
    }

    let health = http().get(server.addr(), "/healthz").expect("request completes");
    assert_eq!((health.status, health.text().as_str()), (200, "ok\n"));

    let listing = http().get(server.addr(), "/experiments").expect("request completes");
    let v = Json::parse(&listing.text()).expect("listing parses");
    let experiments = &v.as_obj().expect("object")["experiments"];
    assert!(matches!(experiments, Json::Arr(items) if items.len() == 10));
    shut_down(server);
}

#[test]
fn metrics_is_valid_prometheus_and_metrics_json_keeps_the_registry() {
    let server = Server::bind(test_config()).expect("bind");
    let spec = r#"{"experiment":"table2","preset":"fast","seed":21}"#;
    assert_eq!(post_run(&server, spec).status, 200);
    assert_eq!(post_run(&server, spec).status, 200); // a cache hit

    // Latency is measured from accept to response written, so it is
    // recorded just after the client has its reply: wait for both counts.
    let metrics = server.handle().metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.latency_micros.with(|h| h.count()) < 2 {
        assert!(Instant::now() < deadline, "both request latencies are recorded");
        std::thread::yield_now();
    }

    let text = http().get(server.addr(), "/metrics").expect("metrics request completes");
    assert_eq!(text.status, 200);
    assert!(text.header("content-type").is_some_and(|ct| ct.starts_with("text/plain")));
    let samples = parse_prometheus(&text.text()).expect("whole body parses as Prometheus text");
    let value = |name: &str| {
        samples.iter().find(|s| s.name == name).map(|s| s.value).expect("sample present")
    };
    assert!(value("serve_http_requests_total") >= 2.0);
    assert!(value("serve_cache_misses_total") >= 1.0);
    assert_eq!(value("serve_cache_evictions_total"), 0.0);
    assert!(value("serve_queue_depth") >= 0.0);
    // Latency and stage summaries carry ordered quantiles and counts.
    let latency: Vec<_> =
        samples.iter().filter(|s| s.name == "serve_latency_microseconds").collect();
    assert_eq!(latency.len(), 3);
    assert!(latency[0].value <= latency[1].value && latency[1].value <= latency[2].value);
    assert!(value("serve_latency_microseconds_count") >= 2.0);
    let simulate = samples
        .iter()
        .find(|s| {
            s.name == "serve_stage_duration_microseconds_count"
                && s.label("stage") == Some("serve.simulate")
        })
        .expect("simulate stage summary present");
    assert_eq!(simulate.value, 1.0, "one simulation ran; the hit recorded no simulate span");

    // The legacy registry JSON moved to /metrics.json, now carrying the
    // eviction counter next to the original fifteen.
    let legacy =
        http().get(server.addr(), "/metrics.json").expect("metrics.json request completes");
    assert_eq!(legacy.status, 200);
    let v = Json::parse(&legacy.text()).expect("legacy metrics JSON parses");
    let counters = v.as_obj().expect("object")["counters"].as_obj().expect("counters");
    assert_eq!(counters.len(), 16);
    assert_eq!(counters["serve.cache.evictions"].as_u64(), Some(0));
    assert!(counters["serve.http.requests"].as_u64().unwrap() >= 2);
    shut_down(server);
}

#[test]
fn trace_replays_the_request_lifecycle_as_jsonl() {
    let server = Server::bind(test_config()).expect("bind");
    let spec = r#"{"experiment":"table2","preset":"fast","seed":23}"#;
    assert_eq!(post_run(&server, spec).status, 200); // miss: simulates
    assert_eq!(post_run(&server, spec).status, 200); // memory hit

    let resp = http().get(server.addr(), "/trace").expect("trace request completes");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    let text = resp.text();
    let mut stages = std::collections::BTreeSet::new();
    let mut requests = std::collections::BTreeSet::new();
    for line in text.lines() {
        let record = Json::parse(line).expect("every trace line is a JSON object");
        let obj = record.as_obj().expect("object");
        let stage = obj["stage"].as_str().expect("stage").to_string();
        assert!(hbc_probe::Stage::parse(&stage).is_some(), "unknown stage {stage:?}");
        assert!(obj["span"].as_u64().expect("span id") > 0);
        requests.insert(obj["request"].as_u64().expect("request id"));
        stages.insert(stage);
    }
    // Both /run requests (each with accept/queue/parse/lookup/serialize/
    // write), the miss's simulate + single-flight wait — but /trace's own
    // request hasn't finished when the body is rendered.
    for stage in [
        "serve.accept",
        "serve.queue_wait",
        "serve.parse",
        "serve.cache_lookup",
        "serve.single_flight_wait",
        "serve.simulate",
        "serve.serialize",
        "serve.write",
    ] {
        assert!(stages.contains(stage), "missing {stage} in trace: {stages:?}");
    }
    assert!(requests.len() >= 2, "the two /run requests have distinct request IDs");
    shut_down(server);
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let server = Server::bind(test_config()).expect("bind");
    let resp = http().post(server.addr(), "/shutdown", b"").expect("request completes");
    assert_eq!(resp.status, 200);
    // join() returning proves the acceptor and workers exited; a bug here
    // hangs the test rather than silently passing.
    server.join();
}
