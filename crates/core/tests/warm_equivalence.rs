//! Property test: restoring memoized warm state is architecturally
//! invisible.
//!
//! `SimBuilder::run` warms each cell from a per-thread memo that restores
//! snapshots of the warmed hierarchy by geometry (`crates/core/src/warm.rs`).
//! For randomized `(benchmark, seed, cache_warm)` streams, a sequence of
//! configurations run back to back on one thread (the memo hot, the
//! geometry changing from cell to cell) must produce results identical to
//! the same configurations each run on a fresh thread, where the memo is
//! cold and every warm-up replays the whole stream.

use hbc_core::{Benchmark, SimBuilder, SimResult};
use hbc_mem::{MemConfig, PortModel};
use hbc_ptest::Gen;

const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Gcc,
    Benchmark::Li,
    Benchmark::Compress,
    Benchmark::Tomcatv,
    Benchmark::Pmake,
    Benchmark::Database,
];

/// An SRAM cell. Sizes come from a small set so geometries repeat within
/// a sequence, while ports and hit times vary freely underneath them.
fn sram(g: &mut Gen, base: &SimBuilder) -> SimBuilder {
    let ports = match g.u64_below(3) {
        0 => PortModel::Ideal(g.u32_in(1, 4)),
        1 => PortModel::Banked(1 << g.u32_in(0, 3)),
        _ => PortModel::Duplicate,
    };
    base.clone()
        .cache_size_kib(*g.pick(&[4, 8, 32]))
        .hit_cycles(g.u64_in(1, 3))
        .ports(ports)
        .line_buffer(g.bool())
}

/// A DRAM-cache cell: the 512-byte row-buffer L1 over the DRAM second
/// level, a different geometry at both levels.
fn dram(g: &mut Gen, base: &SimBuilder) -> SimBuilder {
    base.clone().dram_cache(g.u64_in(6, 8)).line_buffer(g.bool())
}

/// The warm-state geometry of a configuration at both levels.
fn geometry(cfg: &MemConfig) -> impl PartialEq + std::fmt::Debug {
    let lb = cfg.l1.line_buffer.map(|lb| (lb.entries, lb.line_bytes));
    ((cfg.l1.size_bytes, cfg.l1.assoc, cfg.l1.line_bytes, lb), cfg.l2.geometry())
}

#[test]
fn restored_warm_state_matches_a_cold_memo() {
    let repeated = std::cell::Cell::new(0u32);
    hbc_ptest::check("warm_equivalence", 16, |g| {
        let base = SimBuilder::new(*g.pick(&BENCHMARKS))
            .seed(g.u64_in(0, 1 << 16))
            .cache_warm(g.u64_in(0, 30_000))
            .instructions(g.u64_in(1_000, 4_000))
            .warmup(g.u64_in(0, 1_000))
            .probes(true);
        let n = g.usize_in(4, 8);
        // A DRAM cell followed by an SRAM one switches both levels' geometry
        // mid-stream, as fig8 does.
        let switch_at = g.usize_in(0, n - 2);
        let sims: Vec<SimBuilder> = (0..n)
            .map(|i| {
                if i == switch_at {
                    dram(g, &base)
                } else if i == switch_at + 1 || g.u64_below(4) != 0 {
                    sram(g, &base)
                } else {
                    dram(g, &base)
                }
            })
            .collect();

        let geometries: Vec<_> = sims.iter().map(|s| geometry(&s.mem_config())).collect();
        for (i, geo) in geometries.iter().enumerate() {
            if geometries[..i].contains(geo) {
                repeated.set(repeated.get() + 1);
            }
        }

        let hot: Vec<SimResult> = sims.iter().map(SimBuilder::run).collect();
        for (sim, hot) in sims.into_iter().zip(&hot) {
            let cold = std::thread::spawn(move || sim.run()).join().expect("cold-memo run");
            assert_eq!(&cold, hot, "restored warm state diverged from a full replay");
        }
    });
    // The property is vacuous if no sequence ever restored a snapshot.
    assert!(repeated.get() > 0, "no case repeated a warm geometry");
}
