//! `hbc-benchmark-layers`: the per-layer half of a traced benchmark run.
//!
//! ```text
//! hbc-benchmark-layers stages AFTER < trace.jsonl
//! hbc-benchmark-layers replay-fig6 SEED
//! hbc-benchmark-layers replay-fig3 SEED
//! ```
//!
//! `stages` reduces a `GET /trace` (or federated) export to per-stage self
//! times, over the requests numbered above `AFTER`. `replay-fig6` and
//! `replay-fig3` run one cold sweep's cells twice: through the
//! simulator's own runner, timed per cell, and through the public
//! functions of each crate, timed per call. Output is one `name value`
//! line per metric.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Read as _;
use std::time::Instant;

use hbc_core::experiments::fig4::HITS;
use hbc_core::{misses_per_instruction, ExpParams};
use hbc_cpu::{Core, CpuConfig};
use hbc_mem::{CacheArray, MemStats, MemSystem, PortModel};
use hbc_timing::CacheSize;
use hbc_trace::TraceSet;
use hbc_workloads::WorkloadGen;

#[path = "../../src/stats.rs"]
#[allow(dead_code)]
mod stats;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = || -> u64 {
        args.get(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| fail("a numeric argument is required"))
    };
    let metrics = match args.first().map(String::as_str) {
        Some("stages") => stages(number()),
        Some("replay-fig6") => replay_fig6(number()),
        Some("replay-fig3") => replay_fig3(number()),
        _ => fail("usage: hbc-benchmark-layers stages AFTER | replay-fig6 SEED | replay-fig3 SEED"),
    };
    for (name, value) in metrics {
        println!("{name} {value}");
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Per-stage self times (a span's duration minus its direct children's)
/// of the trace on standard input, with `trace.*` anomaly counts. Only
/// requests numbered above `after` count: earlier ones were set-up.
fn stages(after: u64) -> Vec<(String, f64)> {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        fail(&format!("reading the trace: {e}"));
    }
    let mut set = TraceSet::parse_jsonl(&text).unwrap_or_else(|e| fail(&format!("trace: {e}")));
    set.spans.retain(|s| s.request > after);
    let report = hbc_trace::analyze(&set);

    let mut child_us: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for s in set.spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry((s.request, s.parent)).or_default() += s.dur_us;
    }
    let mut self_us: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &set.spans {
        let children = child_us.get(&(s.request, s.span)).copied().unwrap_or(0);
        self_us.entry(&s.stage).or_default().push(s.dur_us.saturating_sub(children) as f64);
    }
    let mut out = Vec::new();
    for (stage, mut v) in self_us {
        v.sort_by(f64::total_cmp);
        out.push((format!("{stage}.self_us.p50"), stats::percentile_sorted(&v, 50.0)));
        out.push((format!("{stage}.self_us.p99"), stats::percentile_sorted(&v, 99.0)));
        out.push((format!("{stage}.self_us.mean"), v.iter().sum::<f64>() / v.len() as f64));
    }
    out.push(("trace.spans".to_string(), set.spans.len() as f64));
    out.push(("trace.orphans".to_string(), report.anomalies.orphans.len() as f64));
    out.push((
        "trace.failover_requests".to_string(),
        report.anomalies.failover_requests.len() as f64,
    ));
    out.push(("trace.dropped".to_string(), set.sources.iter().map(|s| s.dropped as f64).sum()));
    out
}

/// Host-time and event totals of one replayed sweep.
#[derive(Default)]
struct Totals {
    cell_ms: Vec<f64>,
    gen_ms: f64,
    gen_insts: u64,
    warm_replay_ms: f64,
    touch_ms: f64,
    touches: u64,
    warmup_ms: f64,
    measured_ms: f64,
    retired: u64,
    sim_cycles: u64,
    skipped: u64,
    skip_spans: u64,
    mem: MemStats,
    mismatches: u64,
}

impl Totals {
    fn metrics(&self) -> Vec<(String, f64)> {
        let sweep_ms: f64 = self.cell_ms.iter().sum();
        let decomposed =
            self.gen_ms + self.warm_replay_ms + self.touch_ms + self.warmup_ms + self.measured_ms;
        let cpu_ms = self.warmup_ms + self.measured_ms;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let m = &self.mem;
        [
            ("core.cells", self.cell_ms.len() as f64),
            ("core.cell_ms.p50", stats::percentile(&self.cell_ms, 50.0)),
            ("core.cell_ms.max", stats::percentile(&self.cell_ms, 100.0)),
            ("core.decomp_gap_frac", ratio(sweep_ms - decomposed, sweep_ms)),
            ("cpu.warmup_ms", self.warmup_ms),
            ("cpu.measured_ms", self.measured_ms),
            ("cpu.minst_per_s", ratio(self.retired as f64, cpu_ms * 1e3)),
            ("cpu.ns_per_sim_cycle", ratio(cpu_ms * 1e6, self.sim_cycles as f64)),
            ("cpu.sim_cycles", self.sim_cycles as f64),
            ("cpu.skip_rate", ratio(self.skipped as f64, self.sim_cycles as f64)),
            ("cpu.skip_spans", self.skip_spans as f64),
            ("mem.warm_replay_ms", self.warm_replay_ms),
            ("mem.cache_touch_ms", self.touch_ms),
            ("mem.touches", self.touches as f64),
            ("mem.load_requests", m.load_requests as f64),
            ("mem.load_reject_ratio", ratio(m.load_rejections as f64, m.load_requests as f64)),
            ("mem.l1_load_misses", m.l1_load_misses as f64),
            ("mem.lb_hits", m.lb_hits as f64),
            ("mem.l2_misses", m.l2_misses as f64),
            ("workloads.warm_gen_ms", self.gen_ms),
            ("workloads.minst_per_s", ratio(self.gen_insts as f64, self.gen_ms * 1e3)),
            ("replay.mismatches", self.mismatches as f64),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Generates `n` warm instructions of `b`, returning the post-warm
/// generator and every address touched.
fn warm_stream(b: hbc_workloads::Benchmark, seed: u64, n: u64) -> (WorkloadGen, Vec<u64>) {
    let mut gen = WorkloadGen::new(b, seed);
    let addrs = (0..n).filter_map(|_| gen.next_warm()).collect();
    (gen, addrs)
}

/// One `fig6` fast sweep: every (benchmark, organization, hit time, line
/// buffer) cell. The replay mirrors `SimBuilder::run`: one warm stream
/// per benchmark, replayed into each cell's fresh hierarchy, then the
/// core's warm-up and measured windows. Each replayed cell's IPC must
/// equal the runner's.
fn replay_fig6(seed: u64) -> Vec<(String, f64)> {
    let p = ExpParams { seed, ..ExpParams::fast() };
    let mut t = Totals::default();
    for &b in &p.benchmarks {
        let start = Instant::now();
        let (gen, addrs) = warm_stream(b, seed, p.cache_warm);
        t.gen_ms += ms(start);
        t.gen_insts += p.cache_warm;
        for ports in [PortModel::Banked(8), PortModel::Duplicate] {
            for hit in HITS {
                for lb in [false, true] {
                    let builder =
                        p.sim(b).cache_size_kib(32).hit_cycles(hit).ports(ports).line_buffer(lb);
                    let start = Instant::now();
                    let expected = builder.run().ipc();
                    t.cell_ms.push(ms(start));

                    let start = Instant::now();
                    let mut mem = MemSystem::new(builder.mem_config())
                        .expect("a valid fig6 memory configuration");
                    for &addr in &addrs {
                        mem.warm_touch(addr);
                    }
                    t.warm_replay_ms += ms(start);
                    t.touches += addrs.len() as u64;

                    let mut core = Core::new(CpuConfig::paper(), mem, gen.clone())
                        .expect("the paper's CPU configuration");
                    let start = Instant::now();
                    core.run(p.warmup);
                    t.warmup_ms += ms(start);
                    let start = Instant::now();
                    let run = core.run(p.instructions);
                    t.measured_ms += ms(start);

                    t.mismatches += u64::from(run.ipc() != expected);
                    t.retired += p.warmup + p.instructions;
                    t.sim_cycles += core.now();
                    t.skipped += core.skipped_cycles();
                    t.skip_spans += core.skip_spans();
                    let s = core.mem().stats();
                    t.mem.load_requests += s.load_requests;
                    t.mem.load_rejections += s.load_rejections;
                    t.mem.l1_load_misses += s.l1_load_misses;
                    t.mem.lb_hits += s.lb_hits;
                    t.mem.l2_misses += s.l2_misses;
                }
            }
        }
    }
    t.metrics()
}

/// One `fig3` standard sweep of the representatives: a cell per
/// benchmark, each `misses_per_instruction` over the SRAM size sweep.
/// The replay splits a cell into generating the warm stream and touching
/// a bare tag array with it; each replayed miss rate must equal the
/// runner's.
fn replay_fig3(seed: u64) -> Vec<(String, f64)> {
    let p = ExpParams { seed, ..ExpParams::standard().representatives() };
    let sizes: Vec<u64> = CacheSize::sram_sweep().iter().map(|s| s.kib()).collect();
    let n = p.instructions * 4;
    let warmup = n / 8;
    let mut t = Totals::default();
    for &b in &p.benchmarks {
        let start = Instant::now();
        let expected: Vec<f64> =
            sizes.iter().map(|&kib| black_box(misses_per_instruction(b, kib, n, seed))).collect();
        t.cell_ms.push(ms(start));
        for (&kib, &mpi) in sizes.iter().zip(&expected) {
            // Misses count only after the first `warmup` instructions.
            let start = Instant::now();
            let mut gen = WorkloadGen::new(b, seed);
            let early: Vec<u64> = (0..warmup).filter_map(|_| gen.next_warm()).collect();
            let late: Vec<u64> = (0..n).filter_map(|_| gen.next_warm()).collect();
            t.gen_ms += ms(start);
            t.gen_insts += warmup + n;

            let start = Instant::now();
            let mut cache = CacheArray::new(kib << 10, 2, 32);
            for &addr in &early {
                cache.touch(addr);
            }
            let misses = late.iter().filter(|&&addr| !cache.touch(addr)).count();
            t.touch_ms += ms(start);
            t.touches += (early.len() + late.len()) as u64;
            t.mismatches += u64::from(misses as f64 / n as f64 != mpi);
        }
    }
    t.metrics()
}
