//! Shared plumbing for the figure-regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--fast` — short windows, representative benchmarks only;
//! * `--full` — 200 K-instruction windows, all nine benchmarks;
//! * `--reps` — restrict any preset to the three representatives;
//! * `--seed N` — workload seed;
//! * `--probes` — print a stall-cause breakdown and probe-registry table
//!   next to the figure (full per-cycle data needs the `probe` feature);
//! * `--trace-window N` — retain and dump the last N pipeline/cache events
//!   of each probe run as JSON lines;
//! * `--jobs N` — worker threads for the experiment sweeps (`0` or omitted:
//!   available parallelism; `1`: serial). Results are bit-identical for
//!   every value;
//! * `--spans out.jsonl` — write per-phase span records (warm-up, measured
//!   run, report, plus the exec engine's steal/run/merge) to a JSONL file
//!   after the run. Spans never change the figures;
//! * (default) — 60 K-instruction windows, all nine benchmarks.
//!
//! The binaries regenerate the paper's numbers. The wall time CI gates
//! on is measured from outside them, by the repository benchmark
//! (`benchmark/`, declared in `BENCHMARK.json`).

#![warn(missing_docs)]

use hbc_core::report::{probe_table, stall_table};
use hbc_core::{ExpParams, SimBuilder};

/// Parses the common experiment flags from `std::env::args`.
///
/// Unknown flags abort with a usage message rather than being silently
/// ignored.
pub fn params_from_args() -> ExpParams {
    params_from(std::env::args().skip(1))
}

/// Parses the common experiment flags from an explicit argument list.
///
/// # Example
///
/// ```
/// let p = hbc_bench::params_from(["--fast"].map(String::from));
/// assert_eq!(p.benchmarks.len(), 3);
/// ```
pub fn params_from(args: impl IntoIterator<Item = String>) -> ExpParams {
    let mut params = ExpParams::standard();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => params = ExpParams::fast(),
            "--full" => params = ExpParams::full(),
            "--reps" => params = params.representatives(),
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                params.seed = v.parse().unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--probes" => params.probes = true,
            "--trace-window" => {
                let v = args.next().unwrap_or_else(|| usage("--trace-window needs a value"));
                params.trace_window =
                    v.parse().unwrap_or_else(|_| usage("--trace-window needs an integer"));
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage("--jobs needs a value"));
                params.jobs = v.parse().unwrap_or_else(|_| usage("--jobs needs an integer"));
            }
            "--spans" => {
                let v = args.next().unwrap_or_else(|| usage("--spans needs a file path"));
                params.spans_out = Some(std::path::PathBuf::from(v));
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    params
}

/// Parses a lone `--jobs N` flag from `std::env::args`, for binaries that
/// take no experiment preset (`tune`, `ablation`). Returns `0` (available
/// parallelism) when absent; unknown flags abort with a usage message.
pub fn jobs_from_args() -> usize {
    let mut jobs = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage("--jobs needs a value"));
                jobs = v.parse().unwrap_or_else(|_| usage("--jobs needs an integer"));
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    jobs
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <bin> [--fast|--full] [--reps] [--seed N] [--probes] [--trace-window N] \
         [--jobs N] [--spans out.jsonl]"
    );
    std::process::exit(2);
}

/// Span-log retention while a figure binary runs: generous enough that a
/// full nine-benchmark sweep (a few spans per cell) never wraps.
const SPAN_CAPACITY: usize = 65_536;

/// Runs `f` with the span sink installed when the user asked for
/// `--spans out.jsonl`, then writes the recorded spans to that file.
///
/// Without the flag this is exactly `f()`. The sink is process-global,
/// so figure binaries install it exactly once, around their whole run.
pub fn with_spans<R>(params: &ExpParams, f: impl FnOnce() -> R) -> R {
    let Some(path) = &params.spans_out else {
        return f();
    };
    let log = hbc_core::spans::install(SPAN_CAPACITY);
    let out = f();
    hbc_core::spans::uninstall();
    if let Err(e) = std::fs::write(path, log.to_jsonl()) {
        eprintln!("error: cannot write spans to {}: {e}", path.display());
        std::process::exit(1);
    }
    if log.dropped() > 0 {
        eprintln!(
            "note: span ring wrapped; {} oldest spans were dropped (capacity {})",
            log.dropped(),
            SPAN_CAPACITY
        );
    }
    out
}

/// Emits the `--probes` / `--trace-window` report for a figure binary: one
/// probe-enabled run per benchmark × named configuration, printing the
/// stall-cause breakdown, the full probe registry, and (when a trace window
/// was requested) the retained pipeline events as JSON lines.
///
/// Does nothing unless the user passed `--probes` or `--trace-window`, so
/// figure binaries call it unconditionally after printing their table. When
/// the harness is built without the `probe` feature the event counters are
/// still exact but the per-cycle stall attribution and trace are empty; a
/// note says so.
///
/// # Example
///
/// ```
/// let params = hbc_bench::params_from(Vec::<String>::new());
/// // No --probes flag: returns immediately without simulating.
/// hbc_bench::emit_probes(&params, &[("base", &|s| s)]);
/// ```
pub fn emit_probes(params: &ExpParams, configs: &[(&str, SimConfig<'_>)]) {
    print!("{}", probe_report(params, configs));
}

/// A named simulator configuration hook, as taken by [`emit_probes`].
pub type SimConfig<'a> = &'a (dyn Fn(SimBuilder) -> SimBuilder + Sync);

/// Renders the [`emit_probes`] report to a string (empty unless `--probes`
/// or `--trace-window` was requested). The benchmark × configuration runs
/// go through the parallel execution engine; blocks are assembled in cell
/// index order, so the report is identical at every `--jobs` value.
pub fn probe_report(params: &ExpParams, configs: &[(&str, SimConfig<'_>)]) -> String {
    use std::fmt::Write as _;
    if !params.probes && params.trace_window == 0 {
        return String::new();
    }
    if !cfg!(feature = "probe") {
        eprintln!(
            "note: built without the `probe` feature; stall attribution and traces are \
             empty (rebuild with `--features probe` for per-cycle data)"
        );
    }
    let blocks = params.run_cells(params.benchmarks.len() * configs.len(), |i| {
        let b = params.benchmarks[i / configs.len()];
        let (label, configure) = &configs[i % configs.len()];
        let result = configure(params.sim(b).probes(true)).run();
        let mut out = String::new();
        let _ = writeln!(out, "== probes: {} / {label} (ipc {:.3}) ==", b.name(), result.ipc());
        if params.probes {
            // hbc-allow: panic (probes(true) is set on this builder two lines up)
            let reg = result.probes().expect("probes were enabled");
            let _ = writeln!(out, "{}", stall_table(&result.run().stall));
            let _ = writeln!(out, "{}", probe_table(reg));
        }
        if params.trace_window > 0 {
            let trace = result.trace_jsonl().unwrap_or("");
            let _ = writeln!(out, "-- trace: last {} events --", trace.lines().count());
            out.push_str(trace);
        }
        out
    });
    blocks.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_standard() {
        let p = params_from(Vec::<String>::new());
        assert_eq!(p, ExpParams::standard());
    }

    #[test]
    fn fast_then_reps_compose() {
        let p = params_from(["--full", "--reps"].map(String::from));
        assert_eq!(p.instructions, ExpParams::full().instructions);
        assert_eq!(p.benchmarks.len(), 3);
    }

    #[test]
    fn seed_parses() {
        let p = params_from(["--seed", "7"].map(String::from));
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn spans_flag_parses_and_with_spans_writes_the_file() {
        let p = params_from(["--spans", "out.jsonl"].map(String::from));
        assert_eq!(p.spans_out.as_deref(), Some(std::path::Path::new("out.jsonl")));
        assert!(params_from(Vec::<String>::new()).spans_out.is_none());

        let dir = std::env::temp_dir().join(format!("hbc_spans_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("spans.jsonl");
        let mut p = ExpParams::fast();
        p.spans_out = Some(path.clone());
        let got = with_spans(&p, || 42);
        assert_eq!(got, 42);
        let written = std::fs::read_to_string(&path).expect("spans file written");
        // Nothing simulated inside the closure, so the file is empty; the
        // point is that it exists.
        assert_eq!(written, "");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_flags_parse() {
        let p = params_from(["--probes", "--trace-window", "256"].map(String::from));
        assert!(p.probes);
        assert_eq!(p.trace_window, 256);
        let p = params_from(Vec::<String>::new());
        assert!(!p.probes);
        assert_eq!(p.trace_window, 0);
    }
}
