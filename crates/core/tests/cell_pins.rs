//! Exact per-cell results, pinned.
//!
//! The golden figure CSVs print IPC to three decimals, so a one-cycle drift
//! in a cell passes them. This test folds the exact outputs of a fixed
//! matrix of small cells — `RunStats`, `MemStats`, total simulated cycles,
//! skipped cycles and skip spans — into one FNV-1a digest and pins it.
//! `probe` builds also fold in each cell's probe export and a 64-event
//! trace window, against a second pinned digest.
//!
//! The matrix covers every port organization the figures sweep (ideal 1, 2
//! and 4 ports, 2 and 8 banks, duplicate), hit times 1–3, the line buffer
//! off and on, and the DRAM cache at 6 and 8 cycles, for three benchmarks.
//! Cells run benchmark-major on one thread, as the figure drivers do, so
//! the warm memo serves most of them from its recorded streams.
//!
//! If a deliberate modelling change moves a cell, print the new digest
//! with `cargo test -p hbc-core --test cell_pins -- --nocapture` (and again
//! with `--features probe`) and update the constant.

use hbc_core::{Benchmark, SimBuilder};
use hbc_mem::PortModel;

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::Compress, Benchmark::Tomcatv];

const PORTS: [PortModel; 6] = [
    PortModel::Ideal(1),
    PortModel::Ideal(2),
    PortModel::Ideal(4),
    PortModel::Banked(2),
    PortModel::Banked(8),
    PortModel::Duplicate,
];

/// Digest of the default build: simulation results only.
#[cfg(not(feature = "probe"))]
const PINNED: u64 = 0xce1c_a4c0_f29d_f36b;

/// Digest of the `probe` build: simulation results (whose stall and
/// issue-width fields are now populated), probe exports and trace windows.
#[cfg(feature = "probe")]
const PINNED: u64 = 0x8267_5f3d_b925_babc;

/// FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// One small cell: short enough that the whole matrix stays well under
/// three seconds in a debug build, long enough that the window fills,
/// loads miss, ports reject and DRAM stalls are skipped.
fn cell(benchmark: Benchmark) -> SimBuilder {
    SimBuilder::new(benchmark)
        .seed(3)
        .instructions(2_000)
        .warmup(500)
        .cache_warm(4_000)
        .cache_size_kib(8)
        .probes(cfg!(feature = "probe"))
        .trace_window(if cfg!(feature = "probe") { 64 } else { 0 })
}

fn cells() -> Vec<SimBuilder> {
    let mut out = Vec::new();
    for b in BENCHMARKS {
        for ports in PORTS {
            for hit in 1..=3 {
                for lb in [false, true] {
                    out.push(cell(b).ports(ports).hit_cycles(hit).line_buffer(lb));
                }
            }
        }
        for dram in [6, 8] {
            out.push(cell(b).dram_cache(dram));
        }
    }
    out
}

#[test]
fn cell_results_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut rejections, mut skipped) = (0, 0);
    for sim in cells() {
        let r = sim.run();
        rejections += r.mem().load_rejections;
        skipped += r.skipped_cycles();
        h.write(&format!(
            "{:?}|{:?}|{}|{}|{}\n",
            r.run(),
            r.mem(),
            r.sim_cycles(),
            r.skipped_cycles(),
            r.skip_spans()
        ));
        if cfg!(feature = "probe") {
            h.write(&r.probes().map(|p| p.to_json()).unwrap_or_default());
            h.write(r.trace_jsonl().unwrap_or_default());
        }
    }
    // The pin is vacuous for paths the matrix never reaches.
    assert!(rejections > 0 && skipped > 0, "{rejections} rejections, {skipped} skipped cycles");
    println!("cell digest: {:#018x}", h.0);
    assert_eq!(h.0, PINNED, "a pinned cell result moved (digest {:#018x})", h.0);
}
