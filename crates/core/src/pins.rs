//! The model's pinned digests, in one place.
//!
//! Each constant is the FNV-1a digest of simulated output that a test
//! asserts byte for byte: [`CELLS`] by `crates/core/tests/cell_pins.rs`,
//! the `FIG*` hashes by `tests/golden_figures.rs`. Together they name the
//! model a build simulates, so [`model_digest`] — one digest over all of
//! them — keys anything persisted across builds (the serving layer's disk
//! cache). Re-pinning after a modelling change moves that key with no
//! version constant to bump by hand.
//!
//! ```
//! use hbc_core::pins;
//!
//! assert_eq!(pins::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(pins::model_digest().len(), 16);
//! ```

/// Exact results of the `cell_pins` matrix: `RunStats`, `MemStats`,
/// simulated and skipped cycles, skip spans, the probe export and a
/// 64-event trace window of every cell.
pub const CELLS: u64 = 0x8267_5f3d_b925_babc;
/// The golden Figure 3 CSV.
pub const FIG3: u64 = 11038098731853009402;
/// The golden Figure 6 CSV.
pub const FIG6: u64 = 1898047440568716518;
/// The golden Figure 7 CSV.
pub const FIG7: u64 = 11657777887182537203;
/// The golden Figure 8 CSV.
pub const FIG8: u64 = 7645899131930201708;

/// FNV-1a over `bytes`: the hash every pin is taken with.
/// Dependency-free and stable across platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// One digest over every pin, as 16 lowercase hex characters.
pub fn model_digest() -> String {
    let pins: Vec<u8> =
        [CELLS, FIG3, FIG6, FIG7, FIG8].iter().flat_map(|pin| pin.to_le_bytes()).collect();
    format!("{:016x}", fnv1a(&pins))
}
