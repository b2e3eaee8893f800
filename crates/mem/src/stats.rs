//! Memory-system statistics.

use hbc_probe::{Probe, ProbeRegistry};

/// Counters accumulated by [`crate::MemSystem`] over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Load requests presented (including retried rejections).
    pub load_requests: u64,
    /// Loads satisfied by the line buffer in one cycle.
    pub lb_hits: u64,
    /// Loads that hit in the primary cache.
    pub l1_load_hits: u64,
    /// Loads that missed in the primary cache (primary or secondary miss).
    pub l1_load_misses: u64,
    /// Loads merged into an outstanding miss.
    pub miss_merges: u64,
    /// Loads denied a port or bank this cycle.
    pub load_rejections: u64,
    /// Loads denied because all MSHRs were busy.
    pub mshr_rejections: u64,
    /// Stores accepted into the store buffer.
    pub stores: u64,
    /// Stores that missed in the primary cache when draining.
    pub store_misses: u64,
    /// Second-level (L2 SRAM or DRAM cache) hits.
    pub l2_hits: u64,
    /// Second-level misses (fills from main memory).
    pub l2_misses: u64,
}

impl MemStats {
    /// Loads actually serviced (line buffer + cache hits + misses).
    pub fn loads_serviced(&self) -> u64 {
        self.lb_hits + self.l1_load_hits + self.l1_load_misses
    }

    /// Fraction of serviced loads satisfied by the line buffer.
    pub fn lb_hit_ratio(&self) -> f64 {
        ratio(self.lb_hits, self.loads_serviced())
    }

    /// L1 miss ratio over serviced loads (line-buffer hits count as hits).
    pub fn load_miss_ratio(&self) -> f64 {
        ratio(self.l1_load_misses, self.loads_serviced())
    }

    /// Second-level miss ratio.
    pub fn l2_miss_ratio(&self) -> f64 {
        ratio(self.l2_misses, self.l2_hits + self.l2_misses)
    }

    /// Registers every field in `reg`.
    pub(crate) fn export_probes(&self, reg: &mut ProbeRegistry) {
        reg.set(Probe::MemLoadRequests, self.load_requests);
        reg.set(Probe::MemLbHits, self.lb_hits);
        reg.set(Probe::MemL1LoadHits, self.l1_load_hits);
        reg.set(Probe::MemL1LoadMisses, self.l1_load_misses);
        reg.set(Probe::MemL1MissMerges, self.miss_merges);
        reg.set(Probe::MemL1LoadRejections, self.load_rejections);
        reg.set(Probe::MemL1MshrRejections, self.mshr_rejections);
        reg.set(Probe::MemStoreAccepted, self.stores);
        reg.set(Probe::MemStoreMisses, self.store_misses);
        reg.set(Probe::MemL2Hits, self.l2_hits);
        reg.set(Probe::MemL2Misses, self.l2_misses);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = MemStats::default();
        assert_eq!(s.lb_hit_ratio(), 0.0);
        assert_eq!(s.load_miss_ratio(), 0.0);
        assert_eq!(s.l2_miss_ratio(), 0.0);
    }

    #[test]
    fn export_mirrors_fields() {
        let s = MemStats { lb_hits: 7, l1_load_misses: 3, l2_hits: 1, ..MemStats::default() };
        let mut reg = ProbeRegistry::new();
        s.export_probes(&mut reg);
        assert_eq!(reg.get(Probe::MemLbHits), Some(7));
        assert_eq!(reg.get(Probe::MemL1LoadMisses), Some(3));
        assert_eq!(reg.get(Probe::MemL2Hits), Some(1));
        assert_eq!(reg.get(Probe::MemL2Misses), Some(0));
        assert_eq!(reg.counters().count(), 11, "one counter per MemStats field");
    }

    #[test]
    fn ratios_compute() {
        let s = MemStats {
            lb_hits: 50,
            l1_load_hits: 40,
            l1_load_misses: 10,
            l2_hits: 8,
            l2_misses: 2,
            ..MemStats::default()
        };
        assert_eq!(s.loads_serviced(), 100);
        assert!((s.lb_hit_ratio() - 0.5).abs() < 1e-12);
        assert!((s.load_miss_ratio() - 0.1).abs() < 1e-12);
        assert!((s.l2_miss_ratio() - 0.2).abs() < 1e-12);
    }
}
