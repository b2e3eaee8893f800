//! Property test: event-horizon cycle skipping is architecturally invisible.
//!
//! For randomized `(benchmark, cache configuration, seed, window)` triples,
//! a run with skipping enabled must produce bit-identical processor stats,
//! memory stats, and probe exports to the reference tick-by-tick loop
//! (`event_horizon(false)`). This is the external contract DESIGN.md §12
//! states; the `sanitize` feature additionally re-executes every skipped
//! span in lockstep inside the engine itself.

use hbc_core::{Benchmark, SimBuilder};
use hbc_mem::PortModel;
use hbc_ptest::Gen;

const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Gcc,
    Benchmark::Li,
    Benchmark::Compress,
    Benchmark::Tomcatv,
    Benchmark::Pmake,
    Benchmark::Database,
];

/// A random simulation: any benchmark, any memory organization the figure
/// drivers use (SRAM ideal/banked/duplicate ports or the DRAM cache, with
/// or without the line buffer), small measurement windows.
fn random_sim(g: &mut Gen) -> SimBuilder {
    let b = SimBuilder::new(*g.pick(&BENCHMARKS))
        .seed(g.u64_in(0, 1 << 16))
        .instructions(g.u64_in(2_000, 8_000))
        .warmup(g.u64_in(0, 1_500))
        .cache_warm(g.u64_in(0, 20_000))
        .probes(true);
    let b = match g.u64_below(4) {
        0 => b.dram_cache(g.u64_in(6, 8)),
        kind => {
            let ports = match kind {
                1 => PortModel::Ideal(g.u32_in(1, 4)),
                2 => PortModel::Banked(1 << g.u32_in(0, 3)),
                _ => PortModel::Duplicate,
            };
            b.cache_size_kib(1 << g.u32_in(2, 7)).hit_cycles(g.u64_in(1, 3)).ports(ports)
        }
    };
    if g.bool() {
        b.line_buffer(true)
    } else {
        b
    }
}

#[test]
fn skipping_matches_the_tick_loop_bit_for_bit() {
    let total_skipped = std::cell::Cell::new(0u64);
    hbc_ptest::check("skip_equivalence", 24, |g| {
        let sim = random_sim(g);
        let ticked = sim.clone().event_horizon(false).run();
        let skipped = sim.run();
        assert_eq!(ticked.run(), skipped.run(), "RunStats diverged");
        assert_eq!(ticked.mem(), skipped.mem(), "MemStats diverged");
        assert_eq!(ticked.probes(), skipped.probes(), "probe export diverged");
        assert_eq!(ticked.trace_jsonl(), skipped.trace_jsonl());
        assert_eq!(ticked.skipped_cycles(), 0, "disabled engine must not skip");
        total_skipped.set(total_skipped.get() + skipped.skipped_cycles());
    });
    // The property is vacuous if no case ever exercised the fast-forward
    // path; the mix above always includes configurations that stall.
    assert!(total_skipped.get() > 0, "no case skipped any cycles");
}

/// Compress on a DRAM cache with an 8-cycle hit and a line buffer: a
/// miss-heavy configuration the engine fast-forwards through. Its skip
/// statistics are properties of the simulation, not of the host, so they
/// are pinned exactly; any change to them is a change to the engine.
#[test]
fn dram8_skip_statistics_are_pinned() {
    let run = |skip: bool| {
        SimBuilder::new(Benchmark::Compress)
            .dram_cache(8)
            .line_buffer(true)
            .instructions(60_000)
            .warmup(0)
            .cache_warm(100_000)
            .event_horizon(skip)
            .run()
    };
    let (skipped, ticked) = (run(true), run(false));
    for r in [&skipped, &ticked] {
        assert_eq!(r.sim_cycles(), 85_046);
        assert_eq!(r.ipc().to_bits(), 0x3fe6_938e_8dd3_5775);
    }
    assert_eq!(skipped.skipped_cycles(), 51_597);
    assert_eq!(skipped.skip_spans(), 1_777);
    assert_eq!((ticked.skipped_cycles(), ticked.skip_spans()), (0, 0));
}
