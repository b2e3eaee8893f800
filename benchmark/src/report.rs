//! `hbc-benchmark run`: every workload, each in a fresh child process,
//! repeated with workload order rotated; prints each metric's median and
//! quartiles and writes `benchmark/out/report.json`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::metrics;
use crate::stats::{quartiles, supported_percentile};
use crate::workload::Workload;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Runs per workload; repetition `r` uses seed `seed + r`.
    pub repeat: usize,
    /// Also make a traced run per workload and repetition.
    pub traced: bool,
}

/// One child run and the result line it printed.
struct Run {
    workload: Workload,
    traced: bool,
    seed: u64,
    result: Value,
    line: String,
}

pub fn run(opts: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let modes: &[bool] = if opts.traced { &[false, true] } else { &[false] };
    let mut runs = Vec::new();
    for rep in 0..opts.repeat {
        let seed = opts.seed.wrapping_add(rep as u64);
        for k in 0..Workload::ALL.len() {
            let workload = Workload::ALL[(k + rep) % Workload::ALL.len()];
            for &traced in modes {
                let line = child(&exe, workload, seed, traced, opts)?;
                let result = json::parse(&line).map_err(|e| format!("result line: {e}"))?;
                runs.push(Run { workload, traced, seed, result, line });
            }
        }
    }
    let text = summarize(&runs);
    print!("{text}");
    let out = Path::new("benchmark/out");
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join("report.json");
    std::fs::write(&path, report_json(opts, &runs))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs one workload in a child process and returns its result line.
fn child(
    exe: &Path,
    w: Workload,
    seed: u64,
    traced: bool,
    opts: &Options,
) -> Result<String, String> {
    eprintln!("== {} seed {seed} trace {}", w.name(), u8::from(traced));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &opts.seconds.to_string(), "--trace", if traced { "1" } else { "0" }]);
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last() {
        Some(line) if out.status.success() => Ok(line.to_string()),
        _ => Err(format!("{} seed {seed} trace {traced} failed ({})", w.name(), out.status)),
    }
}

/// The values of `metric` over the runs of one workload and mode.
fn values(runs: &[&Run], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.result.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn field(run: &Run, key: &str) -> f64 {
    run.result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// `[q1, median, q3]`, or the lone value three times.
fn spread(values: &[f64]) -> [f64; 3] {
    quartiles(values).unwrap_or([values.first().copied().unwrap_or(0.0); 3])
}

fn summarize(runs: &[Run]) -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        for traced in [false, true] {
            let group: Vec<&Run> =
                runs.iter().filter(|r| r.workload == w && r.traced == traced).collect();
            if group.is_empty() {
                continue;
            }
            let attempted: f64 = group.iter().map(|r| field(r, "attempted")).sum();
            let failed: f64 = group.iter().map(|r| field(r, "failed")).sum();
            let correct = group
                .iter()
                .all(|r| r.result.get("correct").and_then(Value::as_bool) == Some(true));
            let _ = writeln!(
                out,
                "\n{} ({}, {} runs): {attempted} requests, {failed} failed, outputs {}",
                w.name(),
                if traced { "per layer" } else { "end to end" },
                group.len(),
                if correct { "correct" } else { "WRONG" }
            );
            for m in metrics::reported(traced) {
                let [q1, med, q3] = spread(&values(&group, m.name));
                let _ = writeln!(
                    out,
                    "  {:<38} {med:>14.4} {:<12} [q1 {q1:.4}, q3 {q3:.4}]",
                    m.name, m.unit
                );
            }
            if !traced {
                let n = (attempted / group.len() as f64) as usize;
                let tail = supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
                let _ = writeln!(
                    out,
                    "  ({n} samples per run: the highest percentile with 10 beyond it is {tail})"
                );
            }
        }
        if let Some(overhead) = tracing_overhead(runs, w) {
            let _ = writeln!(out, "  tracing overhead on p50 latency: {:+.1}%", overhead * 100.0);
        }
    }
    out
}

/// Traced over untraced median p50 latency, minus one.
fn tracing_overhead(runs: &[Run], w: Workload) -> Option<f64> {
    let median_of = |traced: bool, metric: &str| {
        let group: Vec<&Run> =
            runs.iter().filter(|r| r.workload == w && r.traced == traced).collect();
        let v = values(&group, metric);
        (!v.is_empty()).then(|| spread(&v)[1])
    };
    let untraced = median_of(false, "latency_p50_ms")?;
    let traced = median_of(true, "load.traced_latency_p50_ms")?;
    Some(traced / untraced - 1.0)
}

fn report_json(opts: &Options, runs: &[Run]) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"traced\": {},\n  \"runs\": [\n",
        opts.seed, opts.seconds, opts.repeat, opts.traced
    );
    let lines: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"result\": {}}}",
                json::quote(r.workload.name()),
                u8::from(r.traced),
                r.seed,
                r.line
            )
        })
        .collect();
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ],\n  \"summary\": {\n");
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut entries = Vec::new();
        for traced in [false, true] {
            let group: Vec<&Run> =
                runs.iter().filter(|r| r.workload == w && r.traced == traced).collect();
            if group.is_empty() {
                continue;
            }
            for m in metrics::reported(traced) {
                let v = values(&group, m.name);
                let [q1, med, q3] = spread(&v);
                let list: Vec<String> = v.iter().map(f64::to_string).collect();
                entries.push(format!(
                    "      {}: {{\"unit\": {}, \"median\": {med}, \"q1\": {q1}, \"q3\": {q3}, \"values\": [{}]}}",
                    json::quote(m.name),
                    json::quote(m.unit),
                    list.join(", ")
                ));
            }
        }
        if let Some(overhead) = tracing_overhead(runs, w) {
            entries.push(format!("      \"tracing_overhead\": {overhead}"));
        }
        if !entries.is_empty() {
            workloads.push(format!(
                "    {}: {{\n{}\n    }}",
                json::quote(w.name()),
                entries.join(",\n")
            ));
        }
    }
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}
