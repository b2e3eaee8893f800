//! `hbc-benchmark`: times the shipped `hbcache` binaries from outside.
//!
//! ```text
//! hbc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! hbc-benchmark run [--seed N] [--seconds S] [--repeat N] [--traced]
//! hbc-benchmark expect
//! ```
//!
//! Every form runs from the repository root and first builds the release
//! binaries there. The first form runs one workload and prints its result
//! as one JSON line, the last line of standard output: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. `run` runs all
//! four workloads, each in a fresh child process, prints every metric
//! with its unit and writes `benchmark/out/report.json`. `expect`
//! rewrites the response digests under `benchmark/expected/`.

mod bench;
mod expect;
mod host;
mod http;
mod json;
mod metrics;
mod procs;
mod report;
mod sha256;
mod stats;
mod workload;

use workload::Workload;

/// Seconds one run measures, as `BENCHMARK.json` sets `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run(&parse_report(&args[1..])),
        Some("expect") => expect::write_all(),
        _ => run_one(&parse_one(&args)),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run_one(opts: &bench::Options) -> Result<(), String> {
    let result = bench::run(opts)?;
    println!("{}", result.to_json_line());
    Ok(())
}

fn parse_one(args: &[String]) -> bench::Options {
    let mut workload = None;
    let mut opts = bench::Options {
        workload: Workload::ColdFig6,
        seed: workload::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("no workload `{name}`"))),
                );
            }
            "--seed" => opts.seed = number(&value(), flag),
            "--seconds" => opts.seconds = number(&value(), flag),
            "--trace" => {
                opts.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--quick" => opts.quick = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    opts.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    opts
}

fn parse_report(args: &[String]) -> report::Options {
    let mut opts = report::Options {
        seed: workload::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        repeat: 1,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--seed" => opts.seed = number(&value(), flag),
            "--seconds" => opts.seconds = number(&value(), flag),
            "--repeat" => opts.repeat = number(&value(), flag),
            "--traced" => opts.traced = true,
            other => usage(&format!("unknown flag `{other}` for run")),
        }
    }
    if opts.repeat == 0 || !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        usage("--repeat and --seconds must be positive");
    }
    opts
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| usage(&format!("{flag} needs a number, not `{text}`")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: hbc-benchmark --workload {} --seed N --seconds S --trace 0|1 [--quick]\n\
         \x20      hbc-benchmark run [--seed N] [--seconds S] [--repeat N] [--traced]\n\
         \x20      hbc-benchmark expect",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}
