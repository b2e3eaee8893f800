//! `hbc-load`: a deterministic load generator for `hbc-serve` and the
//! `hbc-cluster` coordinator (same HTTP API).
//!
//! ```text
//! hbc-load --addr URL [--requests N] [--concurrency C1,C2,…]
//!          [--seed N] [--timeout-ms N]
//! hbc-load --addr URL --smoke
//! hbc-load --addr URL --cluster-smoke
//! hbc-load --addr URL --shutdown
//! ```
//!
//! The default mode replays the seeded request mix of
//! [`hbc_serve::spec::mixed_request`] — a pure function of `(seed, index)`,
//! so every run issues the same specs in the same order — at each requested
//! concurrency level, and prints each level's throughput, latency
//! percentiles and status/`X-Cache` tallies. It exits 1 unless every
//! request answered `200`, which makes it a CI gate under load (a worker
//! killed mid-run must be absorbed by failover). It times nothing that is
//! gated: wall-time regressions are the repository benchmark's job
//! (`benchmark/`).
//!
//! `--smoke` is the single-server CI gate: it computes one figure payload
//! in-process, requests it twice, and fails unless both responses are
//! `200` with byte-identical bodies and the second is a cache hit
//! (confirmed both by the `X-Cache` header and the `/metrics` counters).
//! `--cluster-smoke` is the coordinator equivalent: a fixed spec set is
//! computed in-process and every routed response must be byte-identical,
//! carry an `X-Worker` attribution, repeat as a shard-local cache hit,
//! and leave behind strictly parseable cluster metrics. `--shutdown`
//! POSTs `/shutdown` and exits.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use hbc_serve::client::{self, HttpClient};
use hbc_serve::json::Json;
use hbc_serve::spec::{mixed_request, ExperimentId, Preset, RunRequest};

struct Options {
    addr: SocketAddr,
    requests: u64,
    concurrency: Vec<usize>,
    seed: u64,
    timeout: Duration,
    smoke: bool,
    cluster_smoke: bool,
    shutdown: bool,
}

impl Options {
    fn http(&self) -> HttpClient {
        HttpClient::new(self.timeout)
    }
}

fn main() {
    let opts = options_from_args();
    if opts.shutdown {
        match opts.http().post(opts.addr, "/shutdown", b"") {
            Ok(resp) => println!("hbc-load: shutdown requested ({})", resp.status),
            Err(e) => fail(&format!("shutdown request failed: {e}")),
        }
        return;
    }
    if opts.smoke {
        smoke(&opts);
        return;
    }
    if opts.cluster_smoke {
        cluster_smoke(&opts);
        return;
    }
    load(&opts);
}

/// One recorded request: status, `X-Cache` label, latency.
struct Sample {
    status: u16,
    cache: String,
    micros: u64,
}

fn load(opts: &Options) {
    let mut refused = 0;
    for &concurrency in &opts.concurrency {
        let started = Instant::now();
        let samples = run_level(opts, concurrency);
        let wall = started.elapsed().as_secs_f64();
        let p = percentiles(&samples);
        let mut status = BTreeMap::<String, u64>::new();
        let mut cache = BTreeMap::<&str, u64>::new();
        for s in &samples {
            let key =
                if s.status == 0 { "transport-error".to_string() } else { s.status.to_string() };
            *status.entry(key).or_default() += 1;
            *cache.entry(&s.cache).or_default() += 1;
        }
        refused += samples.iter().filter(|s| s.status != 200).count();
        println!(
            "hbc-load: c={concurrency} {} requests in {wall:.2}s — {:.1} req/s, \
             p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms; status {status:?}, X-Cache {cache:?}",
            samples.len(),
            samples.len() as f64 / wall,
            p[0] as f64 / 1000.0,
            p[1] as f64 / 1000.0,
            p[2] as f64 / 1000.0,
        );
    }
    if refused > 0 {
        fail(&format!("{refused} request(s) did not answer 200"));
    }
}

/// Replays requests 0..`opts.requests` of the mix with `concurrency`
/// client threads pulling indices from a shared counter, and returns the
/// samples sorted by latency.
fn run_level(opts: &Options, concurrency: usize) -> Vec<Sample> {
    let next = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<Sample>();
    let mut threads = Vec::new();
    for _ in 0..concurrency.max(1) {
        let next = Arc::clone(&next);
        let tx = tx.clone();
        let (http, addr, seed, requests) = (opts.http(), opts.addr, opts.seed, opts.requests);
        threads.push(std::thread::spawn(move || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= requests {
                return;
            }
            let spec = mixed_request(seed, index).to_json();
            let t0 = Instant::now();
            let sample = match http.post(addr, "/run", spec.as_bytes()) {
                Ok(resp) => Sample {
                    status: resp.status,
                    cache: resp.header("x-cache").unwrap_or("none").to_string(),
                    micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                },
                Err(_) => Sample {
                    status: 0,
                    cache: "transport-error".to_string(),
                    micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
                },
            };
            if tx.send(sample).is_err() {
                return;
            }
        }));
    }
    drop(tx);
    let mut samples: Vec<Sample> = rx.iter().collect();
    for thread in threads {
        let _ = thread.join();
    }
    samples.sort_by_key(|s| s.micros);
    samples
}

/// Nearest-rank p50/p95/p99 (in microseconds) over samples sorted by
/// latency.
fn percentiles(sorted: &[Sample]) -> [u64; 3] {
    let n = sorted.len();
    if n == 0 {
        return [0; 3];
    }
    [50u64, 95, 99].map(|p| {
        let rank = (p as usize * n).div_ceil(100).clamp(1, n);
        sorted[rank - 1].micros
    })
}

/// The CI smoke gate: golden byte-identity plus a verified cache hit.
fn smoke(opts: &Options) {
    let http = opts.http();
    let addr = opts.addr;
    let mut request = RunRequest::new(ExperimentId::Fig4);
    request.preset = Preset::Fast;
    let expected = request.execute();
    let spec = request.to_json();

    let first = match http.post(addr, "/run", spec.as_bytes()) {
        Ok(resp) => resp,
        Err(e) => fail(&format!("first request failed: {e}")),
    };
    if first.status != 200 {
        fail(&format!("first request: expected 200, got {} ({})", first.status, first.text()));
    }
    if first.body != expected.as_bytes() {
        fail("first response body differs from the figure binary's output");
    }
    let second = match http.post(addr, "/run", spec.as_bytes()) {
        Ok(resp) => resp,
        Err(e) => fail(&format!("second request failed: {e}")),
    };
    let label = second.header("x-cache").unwrap_or("none").to_string();
    if second.status != 200 || second.body != expected.as_bytes() {
        fail(&format!(
            "second request: status {}, golden match {}",
            second.status,
            second.body == expected.as_bytes()
        ));
    }
    if !label.starts_with("hit-") {
        fail(&format!("second request was not served from the cache (X-Cache: {label})"));
    }
    let metrics = match http.get(addr, "/metrics") {
        Ok(resp) => resp,
        Err(e) => fail(&format!("metrics request failed: {e}")),
    };
    // `/metrics` is Prometheus text; the strict parser doubles as a
    // format-validity gate in CI.
    let samples = match hbc_serve::metrics::parse_prometheus(&metrics.text()) {
        Ok(samples) => samples,
        Err(e) => fail(&format!("metrics body is not valid Prometheus text: {e}")),
    };
    let hits: f64 =
        samples.iter().filter(|s| s.name == "serve_cache_hits_total").map(|s| s.value).sum();
    if samples.iter().all(|s| s.name != "serve_cache_hits_total") {
        fail("metrics response is missing the cache-hit counters");
    }
    if hits == 0.0 {
        fail("metrics report zero cache hits after a hit response");
    }
    let hits = hits as u64;
    // Capture the span trace: every line must be a JSON object naming a
    // known stage. Saved for CI to archive as an artifact.
    let trace = match http.get(addr, "/trace") {
        Ok(resp) => resp,
        Err(e) => fail(&format!("trace request failed: {e}")),
    };
    let trace_text = trace.text();
    let mut spans = 0usize;
    for line in trace_text.lines() {
        let record = Json::parse(line)
            .unwrap_or_else(|e| fail(&format!("trace line is not JSON ({e}): {line}")));
        let stage = record
            .as_obj()
            .and_then(|o| o.get("stage"))
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| fail(&format!("trace line has no stage: {line}")));
        if hbc_probe::Stage::parse(stage).is_none() {
            fail(&format!("trace carries unknown stage {stage:?}"));
        }
        spans += 1;
    }
    if spans == 0 {
        fail("trace is empty after served requests");
    }
    let trace_out = std::path::Path::new("results/TRACE_smoke.jsonl");
    if std::fs::create_dir_all("results").is_ok() {
        if let Err(e) = std::fs::write(trace_out, &trace_text) {
            eprintln!("note: could not write {}: {e}", trace_out.display());
        }
    }
    println!(
        "hbc-load smoke: ok ({} payload bytes, second request X-Cache: {label}, \
         {hits} cache hit(s) in /metrics, {spans} spans in /trace)",
        expected.len()
    );
}

/// The cluster CI gate, run against a coordinator: routed responses must
/// be byte-identical to in-process execution, attributed to a worker,
/// repeat as shard-local cache hits, and leave valid cluster metrics.
fn cluster_smoke(opts: &Options) {
    let http = opts.http();
    let addr = opts.addr;
    let mut bytes = 0usize;
    let mut workers = std::collections::BTreeSet::new();
    for index in 0..4u64 {
        let request = mixed_request(opts.seed, index);
        let expected = request.execute();
        let spec = request.to_json();
        let first = match http.post(addr, "/run", spec.as_bytes()) {
            Ok(resp) => resp,
            Err(e) => fail(&format!("request {index} failed: {e}")),
        };
        if first.status != 200 {
            fail(&format!(
                "request {index}: expected 200, got {} ({})",
                first.status,
                first.text()
            ));
        }
        if first.body != expected.as_bytes() {
            fail(&format!("request {index}: routed response differs from in-process execution"));
        }
        let worker = match first.header("x-worker") {
            Some(worker) => worker.to_string(),
            None => fail(&format!("request {index}: response carries no X-Worker attribution")),
        };
        // Rendezvous routing sends the identical spec to the same worker,
        // so the repeat must be a shard-local cache hit.
        let second = match http.post(addr, "/run", spec.as_bytes()) {
            Ok(resp) => resp,
            Err(e) => fail(&format!("repeat of request {index} failed: {e}")),
        };
        let label = second.header("x-cache").unwrap_or("none");
        if second.status != 200 || second.body != expected.as_bytes() {
            fail(&format!("repeat of request {index}: status {}", second.status));
        }
        if !label.starts_with("hit-") {
            fail(&format!("repeat of request {index} missed its shard cache (X-Cache: {label})"));
        }
        bytes += expected.len();
        workers.insert(worker);
    }
    let metrics = match http.get(addr, "/metrics") {
        Ok(resp) => resp,
        Err(e) => fail(&format!("metrics request failed: {e}")),
    };
    let samples = match hbc_serve::metrics::parse_prometheus(&metrics.text()) {
        Ok(samples) => samples,
        Err(e) => fail(&format!("metrics body is not valid Prometheus text: {e}")),
    };
    let forwarded: f64 =
        samples.iter().filter(|s| s.name == "cluster_forwarded_total").map(|s| s.value).sum();
    if forwarded < 8.0 {
        fail(&format!("cluster_forwarded_total is {forwarded}, expected at least 8"));
    }
    let healthy =
        samples.iter().filter(|s| s.name == "cluster_worker_healthy" && s.value == 1.0).count();
    if healthy == 0 {
        fail("no worker is marked healthy in /metrics");
    }
    println!(
        "hbc-load cluster-smoke: ok ({bytes} payload bytes over {} worker(s), \
         {forwarded} forwards, {healthy} healthy)",
        workers.len()
    );
}

fn options_from_args() -> Options {
    let mut addr = None;
    let mut opts = Options {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        requests: 64,
        concurrency: vec![1, 4],
        seed: 7,
        timeout: Duration::from_secs(120),
        smoke: false,
        cluster_smoke: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => match client::parse_addr(&value("--addr")) {
                Ok(parsed) if addr.is_none() => addr = Some(parsed),
                Ok(_) => usage("--addr takes one URL"),
                Err(e) => usage(&e),
            },
            "--requests" => opts.requests = parse(&value("--requests"), "--requests"),
            "--concurrency" => {
                opts.concurrency = value("--concurrency")
                    .split(',')
                    .map(|c| parse(c.trim(), "--concurrency"))
                    .collect();
                if opts.concurrency.is_empty() || opts.concurrency.contains(&0) {
                    usage("--concurrency needs positive levels, e.g. 1,4");
                }
            }
            "--seed" => opts.seed = parse(&value("--seed"), "--seed"),
            "--timeout-ms" => {
                opts.timeout = Duration::from_millis(parse(&value("--timeout-ms"), "--timeout-ms"));
            }
            "--smoke" => opts.smoke = true,
            "--cluster-smoke" => opts.cluster_smoke = true,
            "--shutdown" => opts.shutdown = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    opts.addr =
        addr.unwrap_or_else(|| usage("--addr is required (e.g. --addr http://127.0.0.1:8080)"));
    opts
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("{flag} needs an unsigned integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hbc-load --addr URL [--requests N] [--concurrency C1,C2,…] [--seed N] \
         [--timeout-ms N] [--smoke] [--cluster-smoke] [--shutdown]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("hbc-load: FAIL: {msg}");
    std::process::exit(1);
}
