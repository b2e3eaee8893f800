//! Golden equivalence tests for the parallel execution engine: a sweep run
//! with `--jobs 4` must be byte-identical to the same sweep run with
//! `--jobs 1`, for the figure tables and the probe exports alike.
//!
//! These run plain and with `--features sanitize`, because the engine's
//! determinism argument (cell independence, fixed cell→index mapping,
//! index-ordered merge) must hold whatever checks are compiled in.

use hbc_core::experiments::{fig3, fig5, fig6, ExpParams};
use hbc_core::Benchmark;

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

#[test]
fn figure_tables_are_identical_serial_vs_parallel() {
    for run in [fig3::run as fn(&ExpParams) -> hbc_core::report::Table, fig5::run, fig6::run] {
        let serial = run(&reduced_params(1)).to_csv();
        let parallel = run(&reduced_params(4)).to_csv();
        assert_eq!(serial, parallel, "--jobs 4 must be byte-identical to --jobs 1");
    }
}

#[test]
fn probe_exports_are_identical_serial_vs_parallel() {
    let report = |jobs| {
        let mut p = reduced_params(jobs);
        p.probes = true;
        p.trace_window = 64;
        hbc_bench::probe_report(
            &p,
            &[("base", &|s| s), ("lb", &|s: hbc_core::SimBuilder| s.line_buffer(true))],
        )
    };
    let serial = report(1);
    let parallel = report(4);
    assert!(!serial.is_empty(), "probe report must carry content");
    assert_eq!(serial, parallel, "probe exports must not depend on worker count");
}

#[test]
fn jobs_zero_auto_matches_serial() {
    let serial = fig6::run(&reduced_params(1)).to_csv();
    let auto = fig6::run(&reduced_params(0)).to_csv();
    assert_eq!(serial, auto, "--jobs 0 (auto) must be byte-identical to serial");
}
