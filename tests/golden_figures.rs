//! Golden tests: figure CSVs regenerate bit-identically.
//!
//! These run in every feature combination — plain, `--features probe`,
//! `--features sanitize` — and compare against the same checked-in hashes,
//! so they prove the observability layer never perturbs published results:
//! the `probe` feature must be zero-cost *and* zero-effect.
//!
//! If a legitimate modelling change shifts the figures, regenerate the
//! constants with the command in the failure message.

use hbcache::core::experiments::{fig3, fig6, fig7, fig8, ExpParams};
use hbcache::core::Benchmark;

/// FNV-1a over the CSV bytes; dependency-free and stable across platforms.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

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
        fnv1a(&csv),
        FIG3_HASH,
        "fig3 CSV drifted; if the change is intentional, update FIG3_HASH in {} \
         (actual hash of:\n{csv})",
        file!()
    );
}

#[test]
fn fig6_csv_is_bit_identical() {
    let csv = fig6::run(&golden_params()).to_csv();
    assert_eq!(
        fnv1a(&csv),
        FIG6_HASH,
        "fig6 CSV drifted; if the change is intentional, update FIG6_HASH in {} \
         (actual hash of:\n{csv})",
        file!()
    );
}

/// Figure 7 switches the second level to the on-chip DRAM cache and its
/// 512-byte row-buffer L1, with and without the line buffer.
#[test]
fn fig7_csv_is_bit_identical() {
    let csv = fig7::run(&golden_params()).to_csv();
    assert_eq!(
        fnv1a(&csv),
        FIG7_HASH,
        "fig7 CSV drifted; if the change is intentional, update FIG7_HASH in {} \
         (actual hash of:\n{csv})",
        file!()
    );
}

/// Figure 8 runs a DRAM-cache cell and then sweeps SRAM L1 sizes across
/// several port/hit-time series inside one benchmark.
#[test]
fn fig8_csv_is_bit_identical() {
    let csv = fig8::run(&golden_params()).to_csv();
    assert_eq!(
        fnv1a(&csv),
        FIG8_HASH,
        "fig8 CSV drifted; if the change is intentional, update FIG8_HASH in {} \
         (actual hash of:\n{csv})",
        file!()
    );
}

// Checked-in golden hashes. Regenerate by running these tests and copying
// the hashes printed in the failure message:
//   cargo test --test golden_figures -- --nocapture
const FIG3_HASH: u64 = 11038098731853009402;
const FIG6_HASH: u64 = 1898047440568716518;
const FIG7_HASH: u64 = 11657777887182537203;
const FIG8_HASH: u64 = 7645899131930201708;
