//! Exact per-cell results, pinned.
//!
//! The golden figure CSVs print IPC to three decimals, so a one-cycle drift
//! in a cell passes them. This test folds the exact outputs of a fixed
//! matrix of small cells — `RunStats` (stall attribution and issue-width
//! histogram included), `MemStats`, total simulated cycles, skipped cycles,
//! skip spans, the probe export and a 64-event trace window — into one
//! FNV-1a digest and pins it as `hbc_core::pins::CELLS`.
//!
//! The matrix covers every port organization the figures sweep (ideal 1, 2
//! and 4 ports, 2 and 8 banks, duplicate), hit times 1–3, the line buffer
//! off and on, and the DRAM cache at 6 and 8 cycles, for three benchmarks.
//! Cells run benchmark-major on one thread, as the figure drivers do, so
//! the warm memo serves most of them from its recorded streams.
//!
//! If a deliberate modelling change moves a cell, print the new digest
//! with `cargo test -p hbc-core --test cell_pins -- --nocapture` and update
//! the constant in `crates/core/src/pins.rs`.

use hbc_core::pins;
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
        .probes(true)
        .trace_window(64)
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
    let mut text = String::new();
    let (mut rejections, mut skipped) = (0, 0);
    for sim in cells() {
        let r = sim.run();
        rejections += r.mem().load_rejections;
        skipped += r.skipped_cycles();
        text.push_str(&format!(
            "{:?}|{:?}|{}|{}|{}\n",
            r.run(),
            r.mem(),
            r.sim_cycles(),
            r.skipped_cycles(),
            r.skip_spans()
        ));
        text.push_str(&r.probes().map(|p| p.to_json()).unwrap_or_default());
        text.push_str(r.trace_jsonl().unwrap_or_default());
    }
    // The pin is vacuous for paths the matrix never reaches.
    assert!(rejections > 0 && skipped > 0, "{rejections} rejections, {skipped} skipped cycles");
    let digest = pins::fnv1a(text.as_bytes());
    println!("cell digest: {digest:#018x}");
    assert_eq!(digest, pins::CELLS, "a pinned cell result moved (digest {digest:#018x})");
}
