//! Processor statistics.

use hbc_probe::{Histogram, HistogramProbe, Probe, ProbeRegistry, StallBreakdown};

/// Statistics for one measured simulation window.
///
/// Produced by [`crate::Core::run`]; instructions retired during the window
/// divided by the cycles it took give the paper's IPC metric.
///
/// The per-cycle fields ([`RunStats::stall`], [`RunStats::issue_width`])
/// are filled in every build; skipped spans are charged once per span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Mispredicted control transfers retired.
    pub mispredicts: u64,
    /// Cycles in which nothing could be dispatched because the reorder
    /// buffer was full.
    pub rob_full_cycles: u64,
    /// Cycles in which a memory operation could not dispatch because the
    /// load/store queue was full.
    pub lsq_full_cycles: u64,
    /// Cycles fetch was squelched waiting for a mispredicted branch.
    pub fetch_stall_cycles: u64,
    /// Cycles commit was blocked by a full store buffer.
    pub store_stall_cycles: u64,
    /// Sum over retired loads of (completion - dispatch) cycles.
    pub load_latency_sum: u64,
    /// Every cycle of the window charged to exactly one stall cause (sums
    /// to [`RunStats::cycles`]).
    pub stall: StallBreakdown,
    /// `issue_width[w]` counts cycles that issued exactly `w` instructions
    /// (the last slot aggregates anything wider).
    pub issue_width: [u64; 8],
}

impl RunStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mean latency from dispatch to data return over retired loads.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.loads as f64
        }
    }

    /// Registers every field, the stall breakdown, and the issue-width
    /// histogram in `reg`.
    pub fn export_probes(&self, reg: &mut ProbeRegistry) {
        reg.set(Probe::CpuRunCycles, self.cycles);
        reg.set(Probe::CpuRetireInstructions, self.instructions);
        reg.set(Probe::CpuRetireLoads, self.loads);
        reg.set(Probe::CpuRetireStores, self.stores);
        reg.set(Probe::CpuRetireMispredicts, self.mispredicts);
        reg.set(Probe::CpuRetireLoadLatencySum, self.load_latency_sum);
        reg.set(Probe::CpuFetchRobFullCycles, self.rob_full_cycles);
        reg.set(Probe::CpuFetchLsqFullCycles, self.lsq_full_cycles);
        reg.set(Probe::CpuFetchSquelchCycles, self.fetch_stall_cycles);
        reg.set(Probe::CpuCommitStoreStallCycles, self.store_stall_cycles);
        self.stall.export(reg);
        let mut h = Histogram::default();
        for (w, &n) in self.issue_width.iter().enumerate() {
            h.record_n(w as u64, n);
        }
        reg.set_histogram(HistogramProbe::CpuIssueWidthUsed, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_probe::StallCause;

    #[test]
    fn ipc_math() {
        let s = RunStats { instructions: 200, cycles: 100, ..RunStats::default() };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    #[test]
    fn load_latency_math() {
        let s = RunStats { loads: 4, load_latency_sum: 20, ..RunStats::default() };
        assert!((s.avg_load_latency() - 5.0).abs() < 1e-12);
        assert_eq!(RunStats::default().avg_load_latency(), 0.0);
    }

    #[test]
    fn export_covers_fields_stalls_and_issue_widths() {
        let mut s = RunStats { cycles: 10, instructions: 8, ..RunStats::default() };
        for _ in 0..10 {
            s.stall.charge(StallCause::Commit);
        }
        s.issue_width[0] = 2;
        s.issue_width[4] = 8;
        let mut reg = ProbeRegistry::new();
        s.export_probes(&mut reg);
        assert_eq!(reg.get(Probe::CpuRunCycles), Some(10));
        assert_eq!(reg.get(Probe::Stall(StallCause::Commit)), Some(10));
        assert_eq!(reg.get(Probe::Stall(StallCause::DramBusy)), Some(0));
        let h = reg.get_histogram(HistogramProbe::CpuIssueWidthUsed).unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 32);
        assert!((h.mean() - 3.2).abs() < 1e-12);
    }
}
