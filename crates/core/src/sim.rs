//! Simulation configuration and runner.

use hbc_cpu::{Core, CpuConfig, RunStats};
use hbc_isa::DynInst;
use hbc_mem::{MemConfig, MemStats, MemSystem, PortModel};
use hbc_probe::{ProbeExport, ProbeRegistry, Stage};
use hbc_workloads::{Benchmark, BenchmarkSpec, WorkloadGen};

/// Default instructions simulated per configuration.
pub const DEFAULT_INSTRUCTIONS: u64 = 200_000;
/// Default warm-up instructions (excluded from statistics).
pub const DEFAULT_WARMUP: u64 = 10_000;
/// Default instructions used to functionally pre-warm the caches before
/// cycle-accurate simulation (emulating the steady state of the paper's
/// 100M+-instruction traces).
pub const DEFAULT_CACHE_WARM: u64 = 2_000_000;

/// Builder for one simulation: a benchmark, a memory configuration, and a
/// measurement window.
///
/// # Example
///
/// ```
/// use hbc_core::{Benchmark, SimBuilder};
/// use hbc_mem::PortModel;
///
/// let result = SimBuilder::new(Benchmark::Gcc)
///     .cache_size_kib(32)
///     .hit_cycles(2)
///     .ports(PortModel::Duplicate)
///     .line_buffer(true)
///     .instructions(10_000)
///     .warmup(2_000)
///     .run();
/// assert!(result.ipc() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    benchmark: Benchmark,
    spec_override: Option<BenchmarkSpec>,
    cache_kib: u64,
    hit_cycles: u64,
    ports: PortModel,
    line_buffer: bool,
    dram_hit: Option<u64>,
    l2_hit_override: Option<u64>,
    mem_latency_override: Option<u64>,
    instructions: u64,
    warmup: u64,
    cache_warm: u64,
    seed: u64,
    cpu: CpuConfig,
    probes: bool,
    trace_window: u64,
    event_horizon: bool,
}

impl SimBuilder {
    /// Starts a simulation of `benchmark` with the paper's defaults: 32 KB
    /// two-ideal-port single-cycle cache, no line buffer, 200 K + 30 K
    /// instructions.
    pub fn new(benchmark: Benchmark) -> Self {
        SimBuilder {
            benchmark,
            spec_override: None,
            cache_kib: 32,
            hit_cycles: 1,
            ports: PortModel::Ideal(2),
            line_buffer: false,
            dram_hit: None,
            l2_hit_override: None,
            mem_latency_override: None,
            instructions: DEFAULT_INSTRUCTIONS,
            warmup: DEFAULT_WARMUP,
            cache_warm: DEFAULT_CACHE_WARM,
            seed: 42,
            cpu: CpuConfig::paper(),
            probes: false,
            trace_window: 0,
            event_horizon: true,
        }
    }

    /// Replaces the benchmark's stock spec (custom workloads).
    pub fn spec(mut self, spec: BenchmarkSpec) -> Self {
        self.spec_override = Some(spec);
        self
    }

    /// Primary cache capacity in KiB.
    pub fn cache_size_kib(mut self, kib: u64) -> Self {
        self.cache_kib = kib;
        self
    }

    /// Pipelined hit time in cycles (1–3 in the study).
    pub fn hit_cycles(mut self, cycles: u64) -> Self {
        self.hit_cycles = cycles;
        self
    }

    /// Port structure.
    pub fn ports(mut self, ports: PortModel) -> Self {
        self.ports = ports;
        self
    }

    /// Enables or disables the 32-entry line buffer.
    pub fn line_buffer(mut self, enabled: bool) -> Self {
        self.line_buffer = enabled;
        self
    }

    /// Switches to the DRAM-cache memory system with the given DRAM hit
    /// time (6–8); the primary cache becomes the 16 KB row-buffer cache and
    /// `cache_size_kib`/`hit_cycles`/`ports` are ignored.
    pub fn dram_cache(mut self, dram_hit_cycles: u64) -> Self {
        self.dram_hit = Some(dram_hit_cycles);
        self
    }

    /// Overrides the L2 hit time in cycles (execution-time study).
    pub fn l2_hit_cycles(mut self, cycles: u64) -> Self {
        self.l2_hit_override = Some(cycles);
        self
    }

    /// Overrides the memory latency in cycles (execution-time study).
    pub fn mem_latency(mut self, cycles: u64) -> Self {
        self.mem_latency_override = Some(cycles);
        self
    }

    /// Measured instruction count.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Warm-up instruction count (excluded from statistics).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Instructions used to functionally pre-warm the caches (no timing).
    pub fn cache_warm(mut self, n: u64) -> Self {
        self.cache_warm = n;
        self
    }

    /// Workload seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Processor configuration.
    pub fn cpu(mut self, cpu: CpuConfig) -> Self {
        self.cpu = cpu;
        self
    }

    /// Exports a [`ProbeRegistry`] snapshot with the result (`--probes`).
    /// The registry is built after the run, so enabling it never perturbs
    /// the simulation; the per-cycle stall and issue-width probes carry
    /// data only when the `probe` feature is compiled in.
    pub fn probes(mut self, enabled: bool) -> Self {
        self.probes = enabled;
        self
    }

    /// Retains the last `events` pipeline/cache events as a JSONL trace
    /// (`--trace-window N`; zero disables). Events are recorded only in
    /// `probe` builds.
    pub fn trace_window(mut self, events: u64) -> Self {
        self.trace_window = events;
        self
    }

    /// Enables or disables event-horizon cycle skipping (on by default).
    /// Skipping fast-forwards through provably idle stall spans; every
    /// exported statistic is bit-identical either way — disabling it only
    /// forces the reference tick-by-tick loop (used by the equivalence
    /// property tests).
    pub fn event_horizon(mut self, enabled: bool) -> Self {
        self.event_horizon = enabled;
        self
    }

    /// The memory configuration this builder will run.
    pub fn mem_config(&self) -> MemConfig {
        let mut cfg = match self.dram_hit {
            Some(hit) => MemConfig::paper_dram(hit),
            None => MemConfig::paper_sram(self.cache_kib << 10, self.hit_cycles, self.ports),
        };
        if self.line_buffer {
            cfg = cfg.with_line_buffer();
        }
        if let Some(l2) = self.l2_hit_override {
            cfg = cfg.with_l2_hit_cycles(l2);
        }
        if let Some(m) = self.mem_latency_override {
            cfg = cfg.with_mem_latency(m);
        }
        cfg
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (the experiment drivers only
    /// construct valid ones).
    pub fn run(&self) -> SimResult {
        let mut mem = MemSystem::new(self.mem_config()).expect("valid memory configuration");
        // Functional pre-warming: bring the hierarchy to the steady state a
        // trace as long as the paper's would reach, then measure. The warm
        // fast path advances the generator with full draw parity while
        // skipping instruction assembly, so the measured stream is the one
        // `next_inst` alone would produce. Stock-benchmark streams are
        // memoized per thread (`crate::warm`): every cell of a sweep shares
        // the same warm and measured streams, cells of a known geometry
        // restore a snapshot of the warmed hierarchy instead of replaying
        // it, and cells after the first replay the recorded measured
        // stream instead of generating it.
        let mut core = {
            let _span = crate::spans::enter(Stage::SimWarmUp);
            let stream = match &self.spec_override {
                Some(spec) => {
                    let mut gen = WorkloadGen::from_spec(spec.clone(), self.seed);
                    for _ in 0..self.cache_warm {
                        if let Some(addr) = gen.next_warm() {
                            mem.warm_touch(addr);
                        }
                    }
                    Measured::Generated(Box::new(gen))
                }
                None => {
                    // The core fetches what it retires (each run may
                    // overshoot its target by under a commit width), a full
                    // window and one staged instruction.
                    let draws = self.warmup
                        + self.instructions
                        + 2 * u64::from(self.cpu.commit_width)
                        + self.cpu.rob_entries as u64
                        + 1;
                    let replay = crate::warm::warm(
                        self.benchmark,
                        self.seed,
                        self.cache_warm,
                        draws,
                        &mut mem,
                    );
                    Measured::Replayed(replay)
                }
            };
            let mut core =
                Core::new(self.cpu.clone(), mem, stream).expect("valid CPU configuration");
            core.set_event_horizon(self.event_horizon);
            if self.trace_window > 0 {
                core.enable_trace(self.trace_window as usize);
            }
            if self.warmup > 0 {
                core.run(self.warmup);
            }
            core
        };
        let run = {
            let _span = crate::spans::enter(Stage::SimMeasured);
            core.run(self.instructions)
        };
        let probes = self.probes.then(|| {
            let mut reg = ProbeRegistry::new();
            run.export_probes(&mut reg);
            core.mem().export_probes(&mut reg);
            reg
        });
        let trace = core.trace_jsonl();
        SimResult {
            benchmark: self.benchmark,
            run,
            mem: core.mem().stats().clone(),
            probes,
            trace,
            skipped_cycles: core.skipped_cycles(),
            sim_cycles: core.now(),
            skip_spans: core.skip_spans(),
        }
    }
}

/// Where a run's measured instructions come from.
enum Measured {
    /// A generator of the run's own (custom specs bypass the memo).
    Generated(Box<WorkloadGen>),
    /// The warm memo's recorded stream.
    Replayed(crate::warm::Replay),
}

impl Iterator for Measured {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self {
            Measured::Generated(gen) => gen.next(),
            Measured::Replayed(replay) => replay.next(),
        }
    }
}

/// Outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    benchmark: Benchmark,
    run: RunStats,
    mem: MemStats,
    probes: Option<ProbeRegistry>,
    trace: Option<String>,
    /// Cycles fast-forwarded by the event-horizon engine over the whole run
    /// (warm-up included). Diagnostic only: deliberately not part of
    /// [`RunStats`] or the probe export, which stay bit-identical whether
    /// skipping ran or not.
    skipped_cycles: u64,
    /// Total cycles simulated (warm-up included), skipped or ticked.
    sim_cycles: u64,
    /// Fast-forward jumps the engine took (warm-up included).
    skip_spans: u64,
}

impl SimResult {
    /// The simulated benchmark.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// Instructions per cycle over the measured window.
    pub fn ipc(&self) -> f64 {
        self.run.ipc()
    }

    /// Processor statistics.
    pub fn run(&self) -> &RunStats {
        &self.run
    }

    /// Memory statistics (cumulative, including warm-up).
    pub fn mem(&self) -> &MemStats {
        &self.mem
    }

    /// The probe registry snapshot, when requested via
    /// [`SimBuilder::probes`].
    pub fn probes(&self) -> Option<&ProbeRegistry> {
        self.probes.as_ref()
    }

    /// The retained cycle trace as JSON lines, when requested via
    /// [`SimBuilder::trace_window`].
    pub fn trace_jsonl(&self) -> Option<&str> {
        self.trace.as_deref()
    }

    /// Cycles the event-horizon engine fast-forwarded instead of ticking.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Fast-forward jumps the event-horizon engine took.
    pub fn skip_spans(&self) -> u64 {
        self.skip_spans
    }

    /// Total cycles simulated (warm-up included), skipped or ticked.
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Fraction of simulated cycles that were skipped rather than ticked
    /// (zero when skipping is disabled or the run never stalled).
    pub fn skip_rate(&self) -> f64 {
        self.skipped_cycles as f64 / self.sim_cycles.max(1) as f64
    }

    /// Primary-cache load misses per measured instruction.
    pub fn misses_per_instruction(&self) -> f64 {
        // Memory stats are cumulative; scale by the measured fraction.
        self.mem.l1_load_misses as f64 / (self.run.instructions.max(1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(b: Benchmark) -> SimBuilder {
        SimBuilder::new(b).instructions(40_000).warmup(8_000)
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(Benchmark::Gcc).run();
        let b = quick(Benchmark::Gcc).run();
        assert_eq!(a.ipc(), b.ipc());
        assert_eq!(a.mem(), b.mem());
    }

    #[test]
    fn different_seeds_vary_slightly() {
        let a = quick(Benchmark::Gcc).seed(1).run();
        let b = quick(Benchmark::Gcc).seed(2).run();
        assert_ne!(a.ipc(), b.ipc());
        let rel = (a.ipc() - b.ipc()).abs() / a.ipc();
        assert!(rel < 0.2, "seeds should not change the story: {} vs {}", a.ipc(), b.ipc());
    }

    #[test]
    fn larger_cache_never_much_worse() {
        let small = quick(Benchmark::Gcc).cache_size_kib(4).run();
        let large = quick(Benchmark::Gcc).cache_size_kib(256).run();
        assert!(large.ipc() > small.ipc() * 0.95, "{} vs {}", small.ipc(), large.ipc());
    }

    #[test]
    fn dram_builder_selects_row_cache() {
        let r = quick(Benchmark::Gcc).dram_cache(6).line_buffer(true).run();
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn probes_do_not_perturb_results() {
        let base = quick(Benchmark::Li).run();
        let probed = quick(Benchmark::Li).probes(true).trace_window(128).run();
        assert_eq!(base.ipc(), probed.ipc(), "observability must not change the simulation");
        assert_eq!(base.mem(), probed.mem());
        assert!(base.probes().is_none());
        let reg = probed.probes().expect("registry requested");
        assert_eq!(reg.get("cpu.retire.instructions"), Some(probed.run().instructions));
        assert_eq!(reg.get("mem.l1.load_misses"), Some(probed.mem().l1_load_misses));
        // Shim equivalence: the legacy getters and the registry read the
        // same underlying fields.
        assert_eq!(reg.get("mem.lb.hits"), Some(probed.mem().lb_hits));
        #[cfg(feature = "probe")]
        {
            assert_eq!(reg.get("cpu.stall.commit").map(|c| c > 0), Some(true));
            assert!(probed.trace_jsonl().is_some_and(|t| !t.is_empty()));
        }
    }

    #[test]
    fn event_horizon_skipping_is_invisible() {
        let ticked = quick(Benchmark::Gcc).dram_cache(7).event_horizon(false).run();
        let skipped = quick(Benchmark::Gcc).dram_cache(7).run();
        assert_eq!(ticked.run(), skipped.run(), "skipping must not change processor stats");
        assert_eq!(ticked.mem(), skipped.mem(), "skipping must not change memory stats");
        assert_eq!(ticked.skipped_cycles(), 0);
        assert_eq!(ticked.sim_cycles, skipped.sim_cycles);
        assert!(skipped.skipped_cycles() > 0, "a DRAM-cache run must skip stall spans");
        assert!(skipped.skip_rate() > 0.0 && skipped.skip_rate() < 1.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let b =
            SimBuilder::new(Benchmark::Li).l2_hit_cycles(25).mem_latency(150).cache_size_kib(64);
        let cfg = b.mem_config();
        assert_eq!(cfg.l2.hit_cycles(), 25);
        assert_eq!(cfg.mem_latency, 150);
        assert_eq!(cfg.l1.size_bytes, 64 << 10);
    }
}
