//! `hbc-cluster`: run or operate the sharded serving layer.
//!
//! ```text
//! hbc-cluster worker      [--addr HOST:PORT] [--max-jobs N]
//!                         [--cache-dir PATH|none] [--cache-entries N]
//!                         [--span-capacity N]
//! hbc-cluster coordinator --worker HOST:PORT [--worker HOST:PORT …]
//!                         [--addr HOST:PORT] [--handlers N] [--queue N]
//!                         [--timeout-ms N] [--wire-timeout-ms N]
//!                         [--window N] [--probe-interval-ms N]
//!                         [--span-capacity N]
//! hbc-cluster health      --addr HOST:PORT
//! hbc-cluster stats       --addr HOST:PORT
//! hbc-cluster drain       --addr HOST:PORT
//! ```
//!
//! `worker` is an `hbc-serve` server (one cache shard per worker — point
//! each worker at its own `--cache-dir`). `coordinator` speaks the same
//! HTTP API and routes to workers by rendezvous hashing with failover.
//! `health` (`GET /healthz`), `stats` (the counters of
//! `GET /metrics.json`) and `drain` (`POST /shutdown`) are one-shot HTTP
//! clients for scripts and CI.

use std::time::Duration;

use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig};
use hbc_serve::client::{parse_addr, HttpClient};
use hbc_serve::json::Json;
use hbc_serve::server::{Server, ServerConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage("a subcommand is required") };
    let rest: Vec<String> = args.collect();
    match command.as_str() {
        "worker" => run_worker(&rest),
        "coordinator" => run_coordinator(&rest),
        "health" => worker_op(&rest, "health"),
        "stats" => worker_op(&rest, "stats"),
        "drain" => worker_op(&rest, "drain"),
        other => usage(&format!("unknown subcommand `{other}`")),
    }
}

fn run_worker(args: &[String]) {
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--max-jobs" => config.max_jobs = parse(&value("--max-jobs"), "--max-jobs"),
            "--cache-dir" => {
                let dir = value("--cache-dir");
                config.cache_dir =
                    if dir == "none" { None } else { Some(std::path::PathBuf::from(dir)) };
            }
            "--cache-entries" => {
                config.cache_entries = parse(&value("--cache-entries"), "--cache-entries");
            }
            "--span-capacity" => {
                config.span_capacity = parse(&value("--span-capacity"), "--span-capacity");
            }
            other => usage(&format!("unknown flag `{other}` for worker")),
        }
    }
    let worker = match Server::bind(config) {
        Ok(worker) => worker,
        Err(e) => fail(&format!("cannot start worker: {e}")),
    };
    println!("hbc-cluster worker listening on {}", worker.addr());
    worker.join();
    println!("hbc-cluster worker: drained and stopped");
}

fn run_coordinator(args: &[String]) {
    let mut config = CoordinatorConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--worker" => config.workers.push(value("--worker")),
            "--handlers" => {
                config.handlers = parse(&value("--handlers"), "--handlers");
                if config.handlers == 0 {
                    usage("--handlers must be at least 1");
                }
            }
            "--queue" => config.queue_capacity = parse(&value("--queue"), "--queue"),
            "--timeout-ms" => {
                config.request_timeout =
                    Duration::from_millis(parse(&value("--timeout-ms"), "--timeout-ms"));
            }
            "--wire-timeout-ms" => {
                config.wire_timeout =
                    Duration::from_millis(parse(&value("--wire-timeout-ms"), "--wire-timeout-ms"));
            }
            "--window" => config.window = parse(&value("--window"), "--window"),
            "--probe-interval-ms" => {
                config.probe_interval = Duration::from_millis(parse(
                    &value("--probe-interval-ms"),
                    "--probe-interval-ms",
                ));
            }
            "--span-capacity" => {
                config.span_capacity = parse(&value("--span-capacity"), "--span-capacity");
            }
            other => usage(&format!("unknown flag `{other}` for coordinator")),
        }
    }
    if config.workers.is_empty() {
        usage("coordinator needs at least one --worker HOST:PORT");
    }
    let coordinator = match Coordinator::bind(config) {
        Ok(coordinator) => coordinator,
        Err(e) => fail(&format!("cannot start coordinator: {e}")),
    };
    println!("hbc-cluster coordinator listening on http://{}", coordinator.addr());
    coordinator.join();
    println!("hbc-cluster coordinator: drained and stopped");
}

/// `health` / `stats` / `drain`: one HTTP request to one worker, result
/// on standard output, nonzero exit if the worker is unreachable,
/// draining, or answers something else.
fn worker_op(args: &[String], op: &str) {
    let mut addr = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().cloned(),
            other => usage(&format!("unknown flag `{other}` for {op}")),
        }
    }
    let Some(addr) = addr else { usage(&format!("{op} needs --addr HOST:PORT")) };
    let sock = parse_addr(&addr).unwrap_or_else(|e| usage(&e));
    let client = HttpClient::new(Duration::from_secs(5));
    let reply = match op {
        "health" => client.get(sock, "/healthz"),
        "stats" => client.get(sock, "/metrics.json"),
        _ => client.post(sock, "/shutdown", b""),
    }
    .unwrap_or_else(|e| fail(&format!("{op} against {addr} failed: {e}")));
    match (op, reply.status) {
        ("health", 200) => println!("worker {addr}: healthy"),
        ("health", 503) => {
            println!("worker {addr}: draining");
            std::process::exit(1);
        }
        ("stats", 200) => {
            let counters = Json::parse(&reply.text())
                .ok()
                .and_then(|registry| Some(registry.as_obj()?.get("counters")?.as_obj()?.clone()));
            let Some(counters) = counters else {
                fail(&format!("stats against {addr}: no counters"))
            };
            for (name, value) in counters {
                println!("{name} {}", value.render());
            }
        }
        ("drain", 200) => println!("worker {addr}: draining"),
        (_, status) => fail(&format!("{op} against {addr}: status {status}: {}", reply.text())),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> T {
    value.parse().unwrap_or_else(|_| usage(&format!("{flag} needs an unsigned integer")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hbc-cluster worker [--addr HOST:PORT] [--max-jobs N] [--cache-dir PATH|none] \
         [--cache-entries N] [--span-capacity N]\n\
         \x20      hbc-cluster coordinator --worker HOST:PORT [--worker HOST:PORT ...] \
         [--addr HOST:PORT] [--handlers N] [--queue N] [--timeout-ms N] [--wire-timeout-ms N] \
         [--window N] [--probe-interval-ms N] [--span-capacity N]\n\
         \x20      hbc-cluster health|stats|drain --addr HOST:PORT"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
