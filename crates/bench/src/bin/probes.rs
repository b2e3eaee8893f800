//! Stall-cause breakdown per benchmark × port organization — the main
//! consumer of the `hbc-probe` layer.
//!
//! For every benchmark in the chosen preset and each of the three leading
//! port organizations (two ideal ports, eight banks, duplicate arrays),
//! runs one probe-enabled simulation and reports the per-cycle stall
//! attribution, the IPC, and the host-side simulation throughput.
//!
//! ```text
//! cargo run --release -p hbc-bench --bin probes -- [--fast|--full] [--json]
//! ```
//!
//! `--json` emits one machine-readable document on standard output (the CI
//! stall-breakdown artifact) instead of tables.

use std::time::Instant;

use hbc_core::report::{fmt_f, stall_table};
use hbc_core::Benchmark;
use hbc_mem::PortModel;

const CONFIGS: [(&str, PortModel); 3] = [
    ("ideal2", PortModel::Ideal(2)),
    ("banked8", PortModel::Banked(8)),
    ("duplicate", PortModel::Duplicate),
];

struct Run {
    benchmark: Benchmark,
    config: &'static str,
    ipc: f64,
    cycles: u64,
    host_mips: f64,
    wall_s: f64,
    stall: hbc_core::StallBreakdown,
}

fn main() {
    let mut json = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .collect();
    let params = hbc_bench::params_from(args);

    let t_all = Instant::now();
    let runs = params.run_cells(params.benchmarks.len() * CONFIGS.len(), |i| {
        let b = params.benchmarks[i / CONFIGS.len()];
        let (config, ports) = CONFIGS[i % CONFIGS.len()];
        // Bare 32 KB 2-cycle organizations, as in Figures 4-5: no line
        // buffer, so the port-structure contrasts stay visible.
        let sim = params.sim(b).probes(true).cache_size_kib(32).hit_cycles(2).ports(ports);
        let t0 = Instant::now();
        let result = sim.run();
        let wall_s = t0.elapsed().as_secs_f64();
        let simulated = params.instructions + params.warmup;
        Run {
            benchmark: b,
            config,
            ipc: result.ipc(),
            cycles: result.run().cycles,
            host_mips: simulated as f64 / 1e6 / wall_s.max(1e-9),
            wall_s,
            stall: result.run().stall,
        }
    });
    let wall_s = t_all.elapsed().as_secs_f64();

    if json {
        println!("{}", to_json(&runs, &params, wall_s));
    } else {
        for r in &runs {
            println!(
                "== {} / {} — ipc {} — host {} Msim-inst/s ==",
                r.benchmark.name(),
                r.config,
                fmt_f(r.ipc, 3),
                fmt_f(r.host_mips, 2),
            );
            println!("{}", stall_table(&r.stall));
        }
    }
}

/// Renders the run list as one JSON document (no dependencies, so this is
/// hand-rolled like `hbc-probe`'s own exporters). Host wall-clock fields
/// (`wall_s`, `host_mips`, the aggregate block) vary run to run; everything
/// else is deterministic.
fn to_json(runs: &[Run], params: &hbc_core::ExpParams, wall_s: f64) -> String {
    let simulated: u64 = (params.instructions + params.warmup) * runs.len() as u64;
    let mut out = format!(
        "{{\"jobs\":{},\"wall_s\":{:.6},\"sims_per_sec\":{:.3},\"agg_mips\":{:.3},\"runs\":[",
        params.jobs,
        wall_s,
        runs.len() as f64 / wall_s.max(1e-9),
        simulated as f64 / 1e6 / wall_s.max(1e-9),
    );
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"benchmark\":\"{}\",\"config\":\"{}\",\"ipc\":{:.6},\"cycles\":{},\
             \"host_mips\":{:.3},\"wall_s\":{:.6},\"stall\":{{",
            r.benchmark.name(),
            r.config,
            r.ipc,
            r.cycles,
            r.host_mips,
            r.wall_s,
        ));
        for (j, (cause, cycles)) in r.stall.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{cycles}", cause.label()));
        }
        out.push_str(&format!("}},\"stall_total\":{}}}", r.stall.total()));
    }
    out.push_str("]}");
    out
}
