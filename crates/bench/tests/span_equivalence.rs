//! Golden zero-cost tests for span tracing: figure tables and probe
//! exports must be byte-identical with the span sink installed and
//! uninstalled, serial and `--jobs 4`.
//!
//! This is the observability analogue of `exec_equivalence`: spans are
//! metadata the simulation never reads, so recording them cannot change
//! a single simulated byte.

use hbc_core::experiments::{fig5, fig6, ExpParams};
use hbc_core::{spans, Benchmark, Stage};
use std::sync::Mutex;

/// The span sink is process-global, so the tests in this binary must not
/// interleave their install/uninstall windows.
static SINK_LOCK: Mutex<()> = Mutex::new(());

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a test-wide guard that must span each test body; it does no socket I/O"
)]
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Tiny but non-trivial parameters: two benchmarks so the sweeps have
/// several cells per figure, and windows short enough for debug builds.
fn reduced_params(jobs: usize) -> ExpParams {
    let mut p = ExpParams::fast();
    p.instructions = 4_000;
    p.warmup = 1_000;
    p.cache_warm = 50_000;
    p.benchmarks = vec![Benchmark::Gcc, Benchmark::Database];
    p.jobs = jobs;
    p
}

/// Runs `f` with the global span sink installed, returning the result and
/// the recorded span log.
fn with_sink<R>(f: impl FnOnce() -> R) -> (R, std::sync::Arc<hbc_core::SpanLog>) {
    let log = spans::install(16_384);
    let out = f();
    spans::uninstall();
    (out, log)
}

#[test]
fn figure_tables_are_identical_with_and_without_spans() {
    let _guard = serialized();
    for jobs in [1, 4] {
        for run in [fig5::run as fn(&ExpParams) -> hbc_core::report::Table, fig6::run] {
            let plain = run(&reduced_params(jobs)).to_csv();
            let (spanned, _log) = with_sink(|| run(&reduced_params(jobs)).to_csv());
            assert_eq!(
                plain, spanned,
                "span recording must not change figure output (jobs={jobs})"
            );
        }
    }
}

#[test]
fn probe_exports_are_identical_with_and_without_spans() {
    let _guard = serialized();
    let report = |jobs| {
        let mut p = reduced_params(jobs);
        p.probes = true;
        hbc_bench::probe_report(&p, &[("base", &|s| s)])
    };
    for jobs in [1, 4] {
        let plain = report(jobs);
        let (spanned, _log) = with_sink(|| report(jobs));
        assert!(!plain.is_empty(), "probe report must carry content");
        assert_eq!(plain, spanned, "span recording must not change probe exports (jobs={jobs})");
    }
}

#[test]
fn span_log_carries_the_expected_stages() {
    let _guard = serialized();
    use std::collections::BTreeSet;

    // Serial: every cell gets its own request with an exec.run span, and
    // the simulation phases nest under it.
    let (_, serial) = with_sink(|| fig6::run(&reduced_params(1)));
    let records = serial.snapshot();
    let stages: BTreeSet<Stage> = records.iter().map(|r| r.stage).collect();
    for stage in [Stage::ExecRun, Stage::SimWarmUp, Stage::SimMeasured] {
        assert!(stages.contains(&stage), "missing {stage:?} in serial run: {stages:?}");
    }
    assert!(records.iter().all(|r| r.span > 0), "span IDs are never zero");
    // The JSONL export names every stage by a name `Stage::parse` reads
    // back, as a `/trace` consumer would.
    for line in serial.to_jsonl().lines() {
        let name = line.split("\"stage\":\"").nth(1).and_then(|rest| rest.split('"').next());
        assert!(name.and_then(Stage::parse).is_some(), "unparseable stage in {line}");
    }
    // Simulation phases are children of the cell's exec.run span within
    // the same request.
    let runs: BTreeSet<(u64, u64)> =
        records.iter().filter(|r| r.stage == Stage::ExecRun).map(|r| (r.request, r.span)).collect();
    let measured: Vec<_> = records.iter().filter(|r| r.stage == Stage::SimMeasured).collect();
    assert!(!measured.is_empty());
    for m in &measured {
        assert!(
            runs.contains(&(m.request, m.parent)),
            "sim.measured must nest under its cell's exec.run span"
        );
    }

    // Parallel adds the engine stages; timings differ but stage coverage
    // and nesting discipline hold.
    let (_, parallel) = with_sink(|| fig6::run(&reduced_params(4)));
    let stages: BTreeSet<Stage> = parallel.snapshot().iter().map(|r| r.stage).collect();
    for stage in
        [Stage::ExecSteal, Stage::ExecRun, Stage::ExecMerge, Stage::SimWarmUp, Stage::SimMeasured]
    {
        assert!(stages.contains(&stage), "missing {stage:?} in parallel run: {stages:?}");
    }
}
