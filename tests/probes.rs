//! Property tests for the `hbc-probe` observability layer: the per-cycle
//! stall attribution is complete (every cycle charged to exactly one
//! cause), the issue-width histogram covers every cycle, and the registry
//! mirrors the legacy stat getters — across benchmarks, port structures,
//! and hit times.

use hbc_ptest::check;
use hbcache::core::{Benchmark, SimBuilder};
use hbcache::mem::PortModel;
use hbcache::probe::{Probe, StallCause};

const BENCHMARKS: [Benchmark; 3] = [Benchmark::Gcc, Benchmark::Tomcatv, Benchmark::Database];
const PORTS: [PortModel; 3] = [PortModel::Ideal(2), PortModel::Banked(8), PortModel::Duplicate];

fn sim(g: &mut hbc_ptest::Gen) -> SimBuilder {
    let b = *g.pick(&BENCHMARKS);
    let ports = *g.pick(&PORTS);
    SimBuilder::new(b)
        .cache_size_kib(32)
        .ports(ports)
        .hit_cycles(g.u64_in(1, 3))
        .line_buffer(g.bool())
        .seed(g.u64_in(1, 1 << 20))
        .instructions(4_000)
        .warmup(1_000)
        .cache_warm(50_000)
        .probes(true)
}

#[test]
fn stall_attribution_is_complete() {
    check("stall_attribution_is_complete", 12, |g| {
        let result = sim(g).run();
        let run = result.run();
        assert_eq!(
            run.stall.total(),
            run.cycles,
            "every measured cycle must be charged to exactly one stall cause"
        );
        let issue_total: u64 = run.issue_width.iter().sum();
        assert_eq!(issue_total, run.cycles, "issue-width histogram must cover every cycle");
    });
}

#[test]
fn registry_mirrors_legacy_getters() {
    check("registry_mirrors_legacy_getters", 8, |g| {
        let result = sim(g).run();
        let reg = result.probes().expect("probes enabled");
        let (run, mem) = (result.run(), result.mem());
        assert_eq!(reg.get(Probe::CpuRunCycles), Some(run.cycles));
        assert_eq!(reg.get(Probe::CpuRetireInstructions), Some(run.instructions));
        assert_eq!(reg.get(Probe::CpuRetireLoads), Some(run.loads));
        assert_eq!(reg.get(Probe::CpuRetireMispredicts), Some(run.mispredicts));
        assert_eq!(reg.get(Probe::MemL1LoadHits), Some(mem.l1_load_hits));
        assert_eq!(reg.get(Probe::MemL1LoadMisses), Some(mem.l1_load_misses));
        assert_eq!(reg.get(Probe::MemLbHits), Some(mem.lb_hits));
        for cause in StallCause::ALL {
            assert_eq!(reg.get(Probe::Stall(cause)), Some(run.stall.get(cause)));
        }
    });
}

#[test]
fn probes_never_perturb_the_simulation() {
    check("probes_never_perturb_the_simulation", 6, |g| {
        let builder = sim(g);
        let plain = builder.clone().probes(false).run();
        let probed = builder.trace_window(64).run();
        assert_eq!(plain.ipc(), probed.ipc());
        assert_eq!(plain.mem(), probed.mem());
    });
}
