//! The probe registry: one namespace for every counter in the workspace.

use std::collections::BTreeMap;

use crate::counter::Histogram;
use crate::id::{HistogramProbe, Probe};

/// A deterministic registry of counters and [`Histogram`]s, keyed by the
/// closed id types [`Probe`] and [`HistogramProbe`].
///
/// Storage is `BTreeMap` over ids that order by name, so iteration,
/// reports, and JSON exports are byte-stable across runs — the same
/// determinism contract as the simulator itself.
///
/// # Example
///
/// ```
/// use hbc_probe::{Probe, ProbeRegistry};
///
/// let mut reg = ProbeRegistry::new();
/// reg.set(Probe::MemL1LoadMisses, 2);
/// reg.set(Probe::MemL1LoadHits, 10);
/// assert_eq!(reg.get(Probe::MemL1LoadHits), Some(10));
/// let names: Vec<&str> = reg.counters().map(|(p, _)| p.name()).collect();
/// assert_eq!(names, ["mem.l1.load_hits", "mem.l1.load_misses"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeRegistry {
    counters: BTreeMap<Probe, u64>,
    histograms: BTreeMap<HistogramProbe, Histogram>,
}

impl ProbeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers counter `probe` with `value`, replacing any earlier value.
    pub fn set(&mut self, probe: Probe, value: u64) {
        self.counters.insert(probe, value);
    }

    /// Registers histogram `probe`, replacing any earlier one.
    pub fn set_histogram(&mut self, probe: HistogramProbe, histogram: Histogram) {
        self.histograms.insert(probe, histogram);
    }

    /// The value of counter `probe`, if registered.
    pub fn get(&self, probe: Probe) -> Option<u64> {
        self.counters.get(&probe).copied()
    }

    /// The histogram registered under `probe`, if any.
    pub fn get_histogram(&self, probe: HistogramProbe) -> Option<&Histogram> {
        self.histograms.get(&probe)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (Probe, u64)> + '_ {
        self.counters.iter().map(|(&p, &v)| (p, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (HistogramProbe, &Histogram)> {
        self.histograms.iter().map(|(&p, h)| (p, h))
    }

    /// A deterministic JSON object:
    /// `{"counters":{name:value,...},"histograms":{name:{...},...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (probe, value)) in self.counters().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{value}", probe.name()));
        }
        out.push_str("},\"histograms\":{");
        for (i, (probe, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", probe.name(), h.to_json()));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_replaces() {
        let mut reg = ProbeRegistry::new();
        reg.set(Probe::MemLbHits, 1);
        reg.set(Probe::MemLbHits, 3);
        assert_eq!(reg.get(Probe::MemLbHits), Some(3));
        assert_eq!(reg.get(Probe::MemLbLookups), None);
        assert_eq!(reg.counters().count(), 1);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut reg = ProbeRegistry::new();
        reg.set(Probe::ServeQueuePeak, 1);
        reg.set(Probe::CpuRunCycles, 2);
        let mut h = Histogram::default();
        h.record(4);
        reg.set_histogram(HistogramProbe::ServeLatencyMicros, h);
        let json = reg.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"cpu.run.cycles\":2,\"serve.queue.peak\":1},\
             \"histograms\":{\"serve.latency.micros\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4,\"mean\":4.0000}}}"
        );
        assert_eq!(reg.clone().to_json(), json);
    }
}
