//! Pins the shape of `GET /metrics` and `GET /metrics.json` on both
//! HTTP front ends: a live `hbc-serve` server and a live coordinator
//! over two workers. The shape is every `# TYPE` family with its kind and
//! the label keys its samples carry, plus the registry counter names;
//! values are not pinned. A family that is dropped, renamed or added
//! fails here before any dashboard or scrape config notices.

use std::collections::BTreeSet;
use std::time::Duration;

use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig};
use hbc_cluster::worker::{Worker, WorkerConfig};
use hbc_serve::client::HttpClient;
use hbc_serve::json::Json;
use hbc_serve::metrics::parse_prometheus;
use hbc_serve::server::{Server, ServerConfig};

const SPEC: &str = r#"{"experiment":"table2","preset":"fast","seed":31}"#;

fn http() -> HttpClient {
    HttpClient::new(Duration::from_secs(60))
}

/// `family kind key,key` per `# TYPE` line, sorted. Label keys are the
/// union over the family's samples (including `_sum`/`_count`).
fn shape(text: &str) -> Vec<String> {
    let samples = parse_prometheus(text).expect("body parses as Prometheus text");
    let mut out: Vec<String> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (family, kind) = rest.split_once(' ').expect("TYPE has a kind");
            let keys: BTreeSet<&str> = samples
                .iter()
                .filter(|s| {
                    s.name == family
                        || s.name.strip_prefix(family).is_some_and(|t| t == "_sum" || t == "_count")
                })
                .flat_map(|s| s.labels.iter().map(|(k, _)| k.as_str()))
                .collect();
            format!("{family} {kind} {}", keys.into_iter().collect::<Vec<_>>().join(","))
        })
        .collect();
    out.sort();
    out
}

/// The `status` label values of one responses family, in body order.
fn status_rows(text: &str, family: &str) -> Vec<String> {
    let samples = parse_prometheus(text).expect("body parses");
    samples
        .iter()
        .filter(|s| s.name == family)
        .filter_map(|s| s.label("status").map(str::to_string))
        .collect()
}

#[test]
fn server_metrics_shape_is_pinned() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_dir: None,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.addr();
    for _ in 0..2 {
        assert_eq!(http().post(addr, "/run", SPEC.as_bytes()).expect("run").status, 200);
    }
    let text = http().get(addr, "/metrics").expect("metrics").text();
    assert_eq!(
        shape(&text),
        [
            "hbc_span_dropped_total counter ",
            "serve_cache_coalesced_total counter ",
            "serve_cache_evictions_total counter ",
            "serve_cache_hits_total counter tier",
            "serve_cache_misses_total counter ",
            "serve_exec_runs_total counter ",
            "serve_http_requests_total counter ",
            "serve_http_responses_total counter status",
            "serve_latency_microseconds summary quantile",
            "serve_queue_depth gauge ",
            "serve_queue_peak gauge ",
            "serve_stage_duration_microseconds summary quantile,stage",
        ]
    );
    // A single node has no upstream to fail, so no 502 row.
    assert_eq!(
        status_rows(&text, "serve_http_responses_total"),
        ["200", "400", "404", "429", "500", "503", "504"]
    );

    let legacy = http().get(addr, "/metrics.json").expect("metrics.json");
    assert_eq!(legacy.status, 200);
    let v = Json::parse(&legacy.text()).expect("registry JSON parses");
    let counters: Vec<&str> = v.as_obj().expect("object")["counters"]
        .as_obj()
        .expect("counters")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        counters,
        [
            "serve.cache.coalesced",
            "serve.cache.evictions",
            "serve.cache.hits.disk",
            "serve.cache.hits.memory",
            "serve.cache.misses",
            "serve.exec.runs",
            "serve.http.requests",
            "serve.http.responses.bad_request",
            "serve.http.responses.error",
            "serve.http.responses.not_found",
            "serve.http.responses.ok",
            "serve.http.responses.rejected",
            "serve.http.responses.timeout",
            "serve.http.responses.unavailable",
            "serve.queue.depth",
            "serve.queue.peak",
        ]
    );
    server.handle().shutdown();
    server.join();
}

#[test]
fn coordinator_metrics_shape_is_pinned() {
    let worker = || {
        let config = WorkerConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            ..WorkerConfig::default()
        };
        Worker::bind(config).expect("worker binds")
    };
    let (w1, w2) = (worker(), worker());
    let config = CoordinatorConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: vec![w1.addr().to_string(), w2.addr().to_string()],
        handlers: 2,
        ..CoordinatorConfig::default()
    };
    let coordinator = Coordinator::bind(config).expect("coordinator binds");
    let addr = coordinator.addr();
    for _ in 0..2 {
        assert_eq!(http().post(addr, "/run", SPEC.as_bytes()).expect("run").status, 200);
    }
    let text = http().get(addr, "/metrics").expect("metrics").text();
    assert_eq!(
        shape(&text),
        [
            "cluster_failovers_total counter ",
            "cluster_forwarded_total counter worker",
            "cluster_queue_depth gauge ",
            "cluster_queue_peak gauge ",
            "cluster_requests_total counter ",
            "cluster_responses_total counter status",
            "cluster_retries_exhausted_total counter ",
            "cluster_shard_hits_total counter tier,worker",
            "cluster_shard_misses_total counter worker",
            "cluster_stage_duration_microseconds summary quantile,stage",
            "cluster_worker_failures_total counter worker",
            "cluster_worker_healthy gauge worker",
            "cluster_worker_latency_microseconds summary quantile,worker",
            "hbc_span_dropped_total counter ",
        ]
    );
    assert_eq!(
        status_rows(&text, "cluster_responses_total"),
        ["200", "400", "404", "429", "500", "502", "503", "504"]
    );
    // The coordinator exports no registry JSON.
    assert_eq!(http().get(addr, "/metrics.json").expect("metrics.json").status, 404);

    coordinator.handle().shutdown();
    coordinator.join();
    for w in [w1, w2] {
        w.handle().drain();
        w.join();
    }
}
