//! The per-cycle stall taxonomy: where did the cycles go?

use crate::counter::saturating_count;
use crate::id::Probe;
use crate::registry::ProbeRegistry;

/// What a simulated cycle was spent on.
///
/// The core charges every cycle to exactly one cause, chosen by a fixed
/// priority cascade (documented in `hbc-cpu`): useful commit first, then
/// the reason the window head could not retire, then front-end reasons.
/// Because the charge is total and exclusive, a [`StallBreakdown`] sums
/// exactly to the cycles of its run window — the completeness invariant the
/// `sanitize` feature asserts and the property tests check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// At least one instruction retired this cycle (useful work).
    Commit,
    /// Nothing retired; the window is full behind a long-latency head.
    RobFull,
    /// Nothing retired; the load/store queue is full.
    LsqFull,
    /// Nothing retired and no execution blocked on memory: the window ran
    /// out of completed work (dependence chains, functional-unit latency,
    /// or an empty window).
    IssueEmpty,
    /// Fetch is squelched waiting for a mispredicted branch to resolve and
    /// redirect.
    BranchRecovery,
    /// The head load is blocked on the data cache itself: denied a port or
    /// bank this cycle, or its pipelined hit is still in the array.
    DcachePortConflict,
    /// The head load could not start its miss because every miss status
    /// handling register is occupied.
    MshrFull,
    /// Commit is blocked writing a store into a full store buffer.
    StoreBufferFull,
    /// The head load is waiting on the levels below the primary cache
    /// (L2 SRAM, the on-chip DRAM, buses, or main memory).
    DramBusy,
}

impl StallCause {
    /// Every cause, in display order.
    pub const ALL: [StallCause; 9] = [
        StallCause::Commit,
        StallCause::RobFull,
        StallCause::LsqFull,
        StallCause::IssueEmpty,
        StallCause::BranchRecovery,
        StallCause::DcachePortConflict,
        StallCause::MshrFull,
        StallCause::StoreBufferFull,
        StallCause::DramBusy,
    ];

    /// Number of causes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable index into a [`StallBreakdown`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human label (`commit`, `rob_full`, …).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Commit => "commit",
            StallCause::RobFull => "rob_full",
            StallCause::LsqFull => "lsq_full",
            StallCause::IssueEmpty => "issue_empty",
            StallCause::BranchRecovery => "branch_recovery",
            StallCause::DcachePortConflict => "dcache_port_conflict",
            StallCause::MshrFull => "mshr_full",
            StallCause::StoreBufferFull => "store_buffer_full",
            StallCause::DramBusy => "dram_busy",
        }
    }

    /// Export name of its [`Probe::Stall`] counter (`cpu.stall.<label>`).
    pub fn probe_name(self) -> &'static str {
        match self {
            StallCause::Commit => "cpu.stall.commit",
            StallCause::RobFull => "cpu.stall.rob_full",
            StallCause::LsqFull => "cpu.stall.lsq_full",
            StallCause::IssueEmpty => "cpu.stall.issue_empty",
            StallCause::BranchRecovery => "cpu.stall.branch_recovery",
            StallCause::DcachePortConflict => "cpu.stall.dcache_port_conflict",
            StallCause::MshrFull => "cpu.stall.mshr_full",
            StallCause::StoreBufferFull => "cpu.stall.store_buffer_full",
            StallCause::DramBusy => "cpu.stall.dram_busy",
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles charged per [`StallCause`] over one run window.
///
/// # Example
///
/// ```
/// use hbc_probe::{StallBreakdown, StallCause};
///
/// let mut b = StallBreakdown::default();
/// b.charge(StallCause::Commit);
/// b.charge(StallCause::DramBusy);
/// assert_eq!(b.total(), 2);
/// assert_eq!(b.get(StallCause::DramBusy), 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    counts: [u64; StallCause::COUNT],
}

impl StallBreakdown {
    /// Charges one cycle to `cause`.
    pub fn charge(&mut self, cause: StallCause) {
        saturating_count(&mut self.counts[cause.index()], 1);
    }

    /// Charges `cycles` cycles to `cause` at once — bulk attribution for a
    /// fast-forwarded span whose per-cycle cause is provably constant.
    pub fn charge_n(&mut self, cause: StallCause, cycles: u64) {
        saturating_count(&mut self.counts[cause.index()], cycles);
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total cycles charged; equals the window's cycle count for a
    /// breakdown the core filled in.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Fraction of charged cycles attributed to `cause` (zero when empty).
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(cause) as f64 / total as f64
        }
    }

    /// `(cause, cycles)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(|&c| (c, self.get(c)))
    }

    /// Accumulates `other` into `self` (merging run windows).
    pub fn merge(&mut self, other: &StallBreakdown) {
        for (slot, &add) in self.counts.iter_mut().zip(&other.counts) {
            saturating_count(slot, add);
        }
    }

    /// Registers every cause as its [`Probe::Stall`] counter.
    pub fn export(&self, reg: &mut ProbeRegistry) {
        for (cause, cycles) in self.iter() {
            reg.set(Probe::Stall(cause), cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let mut labels: Vec<&str> = StallCause::ALL.iter().map(|c| c.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), StallCause::COUNT);
    }

    #[test]
    fn charge_and_merge() {
        let mut a = StallBreakdown::default();
        a.charge(StallCause::Commit);
        a.charge(StallCause::Commit);
        a.charge(StallCause::MshrFull);
        let mut b = StallBreakdown::default();
        b.charge(StallCause::MshrFull);
        a.merge(&b);
        assert_eq!(a.get(StallCause::Commit), 2);
        assert_eq!(a.get(StallCause::MshrFull), 2);
        assert_eq!(a.total(), 4);
        assert!((a.fraction(StallCause::Commit) - 0.5).abs() < 1e-12);
        assert_eq!(StallBreakdown::default().fraction(StallCause::Commit), 0.0);
    }

    #[test]
    fn export_registers_every_cause() {
        let mut b = StallBreakdown::default();
        b.charge(StallCause::DramBusy);
        let mut reg = ProbeRegistry::new();
        b.export(&mut reg);
        assert_eq!(reg.counters().count(), StallCause::COUNT);
        assert_eq!(reg.get(Probe::Stall(StallCause::DramBusy)), Some(1));
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(StallCause::RobFull.to_string(), "rob_full");
    }
}
