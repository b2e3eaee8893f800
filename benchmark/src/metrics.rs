//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! declares the same two lists; a test keeps them equal.

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the service sees, reported by untraced runs. Times are
/// scaled to the reference host's speed (see `host.rs`).
pub const END_TO_END: &[Metric] = &[
    m("latency_p50_ms", "ms"),
    m("latency_p90_ms", "ms"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// One layer each, reported by traced runs. A layer a workload bypasses
/// reads zero on it.
pub const PER_LAYER: &[Metric] = &[
    // The host, and the benchmark's own load generator.
    m("host.probe_ms", "ms"),
    m("load.request_us.p50", "us"),
    m("load.request_us.p99", "us"),
    m("load.late_ms.p99", "ms"),
    m("load.traced_latency_p50_ms", "ms"),
    // hbc-serve's request stages (also recorded by the cluster). Stages
    // shorter than the span clock's 1 us tick report a mean, since their
    // p50 reads the same whole microsecond on every run.
    m("serve.accept.self_us.mean", "us"),
    m("serve.parse.self_us.p50", "us"),
    m("serve.cache_lookup.self_us.mean", "us"),
    m("serve.serialize.self_us.mean", "us"),
    m("serve.write.self_us.p50", "us"),
    m("serve.queue_wait.self_us.p99", "us"),
    m("serve.cache_lookup.self_us.p99", "us"),
    m("serve.single_flight_wait.self_us.p99", "us"),
    m("serve.write.self_us.p99", "us"),
    m("serve.simulate.self_us.p50", "us"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.cache_evictions", "count"),
    m("serve.span_dropped", "count"),
    // hbc-cluster: routing, the forward over the wire, the worker.
    m("cluster.route.self_us.mean", "us"),
    m("cluster.forward.self_us.p50", "us"),
    m("cluster.forward.self_us.p99", "us"),
    m("cluster.worker_execute.self_us.p50", "us"),
    m("cluster.forwarded", "count"),
    m("cluster.failovers", "count"),
    m("cluster.orphans", "count"),
    m("cluster.worker_maps_per_forward", "maps/forward"),
    // hbc-core: one replayed sweep, cell by cell.
    m("core.cells", "count"),
    m("core.cell_ms.p50", "ms"),
    m("core.cell_ms.max", "ms"),
    m("core.decomp_gap_frac", "ratio"),
    // hbc-cpu: Core::run.
    m("cpu.warmup_ms", "ms"),
    m("cpu.measured_ms", "ms"),
    m("cpu.minst_per_s", "Minst/s"),
    m("cpu.ns_per_sim_cycle", "ns"),
    m("cpu.sim_cycles", "count"),
    m("cpu.skip_rate", "ratio"),
    m("cpu.skip_spans", "count"),
    // hbc-mem: MemSystem::warm_touch replay and CacheArray::touch.
    m("mem.warm_replay_ms", "ms"),
    m("mem.cache_touch_ms", "ms"),
    m("mem.touches", "count"),
    m("mem.load_requests", "count"),
    m("mem.load_reject_ratio", "ratio"),
    m("mem.l1_load_misses", "count"),
    m("mem.lb_hits", "count"),
    m("mem.l2_misses", "count"),
    // hbc-workloads: WorkloadGen::next_warm.
    m("workloads.warm_gen_ms", "ms"),
    m("workloads.minst_per_s", "Minst/s"),
];

/// The metrics a run reports: end to end untraced, per layer traced.
pub fn reported(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::Workload;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && m.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {:?}",
                m.name
            );
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                m.unit,
                m.name
            );
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Value::Arr(entries)) = doc.get(list) else { panic!("no {list} list") };
        let text = |e: &Value, key: &str| match e.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{list} entry without a string {key}: {other:?}"),
        };
        entries.iter().map(|e| (text(e, "name"), text(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let ours = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(crate::DEFAULT_SECONDS));
        let Some(Value::Arr(workloads)) = doc.get("workloads") else { panic!("no workloads") };
        let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let ours: Vec<Value> =
            Workload::ALL.iter().map(|w| Value::Str(w.name().to_string())).collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());
    }
}
