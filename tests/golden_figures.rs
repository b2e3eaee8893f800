//! Golden tests: figure CSVs regenerate bit-identically.
//!
//! These run plain and with `--features sanitize` and compare against the
//! same hashes, pinned in `hbc_core::pins`, so they prove the sanitizer
//! never perturbs published results.
//!
//! If a legitimate modelling change shifts the figures, regenerate the
//! constants with the command in the failure message.

use hbcache::core::experiments::{fig3, fig6, fig7, fig8, ExpParams};
use hbcache::core::pins;
use hbcache::core::Benchmark;

/// Tiny but non-trivial parameters so the golden runs stay fast in debug
/// builds while still exercising the cycle-accurate core.
fn golden_params() -> ExpParams {
    let mut p = ExpParams::fast();
    p.instructions = 6_000;
    p.warmup = 1_500;
    p.cache_warm = 100_000;
    p.benchmarks = vec![Benchmark::Gcc];
    p
}

#[test]
fn fig3_csv_is_bit_identical() {
    let csv = fig3::run(&golden_params()).to_csv();
    assert_eq!(
        pins::fnv1a(csv.as_bytes()),
        pins::FIG3,
        "fig3 CSV drifted; if the change is intentional, update FIG3 in \
         crates/core/src/pins.rs (actual hash of:\n{csv})"
    );
}

#[test]
fn fig6_csv_is_bit_identical() {
    let csv = fig6::run(&golden_params()).to_csv();
    assert_eq!(
        pins::fnv1a(csv.as_bytes()),
        pins::FIG6,
        "fig6 CSV drifted; if the change is intentional, update FIG6 in \
         crates/core/src/pins.rs (actual hash of:\n{csv})"
    );
}

/// Figure 7 switches the second level to the on-chip DRAM cache and its
/// 512-byte row-buffer L1, with and without the line buffer.
#[test]
fn fig7_csv_is_bit_identical() {
    let csv = fig7::run(&golden_params()).to_csv();
    assert_eq!(
        pins::fnv1a(csv.as_bytes()),
        pins::FIG7,
        "fig7 CSV drifted; if the change is intentional, update FIG7 in \
         crates/core/src/pins.rs (actual hash of:\n{csv})"
    );
}

/// Figure 8 runs a DRAM-cache cell and then sweeps SRAM L1 sizes across
/// several port/hit-time series inside one benchmark.
#[test]
fn fig8_csv_is_bit_identical() {
    let csv = fig8::run(&golden_params()).to_csv();
    assert_eq!(
        pins::fnv1a(csv.as_bytes()),
        pins::FIG8,
        "fig8 CSV drifted; if the change is intentional, update FIG8 in \
         crates/core/src/pins.rs (actual hash of:\n{csv})"
    );
}
