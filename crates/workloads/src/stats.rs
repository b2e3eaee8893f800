//! Instruction-stream characterization (paper Table 2 reproduction).

use std::collections::BTreeSet;

use hbc_isa::{ExecMode, OpClass};
use hbc_probe::saturating_count;

use crate::WorkloadGen;

/// Aggregate statistics of a generated instruction stream.
///
/// # Example
///
/// ```
/// use hbc_workloads::{Benchmark, StreamStats, WorkloadGen};
///
/// let mut gen = WorkloadGen::new(Benchmark::Gcc, 1);
/// let stats = StreamStats::characterize(&mut gen, 50_000);
/// assert!((stats.load_pct() - 28.1).abs() < 2.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    instructions: u64,
    loads: u64,
    stores: u64,
    branches: u64,
    jumps: u64,
    mispredicted: u64,
    fp_ops: u64,
    kernel: u64,
    distinct_lines: u64,
}

impl StreamStats {
    /// Consumes `n` instructions from `gen` and tallies them.
    pub fn characterize(gen: &mut WorkloadGen, n: u64) -> Self {
        let mut s = StreamStats {
            instructions: n,
            loads: 0,
            stores: 0,
            branches: 0,
            jumps: 0,
            mispredicted: 0,
            fp_ops: 0,
            kernel: 0,
            distinct_lines: 0,
        };
        let mut lines: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..n {
            let i = gen.next_inst();
            match i.op() {
                OpClass::Load => saturating_count(&mut s.loads, 1),
                OpClass::Store => saturating_count(&mut s.stores, 1),
                OpClass::Branch => saturating_count(&mut s.branches, 1),
                OpClass::Jump => saturating_count(&mut s.jumps, 1),
                op if op.is_fp() => saturating_count(&mut s.fp_ops, 1),
                _ => {}
            }
            if i.op().is_control() && i.mispredicted() {
                saturating_count(&mut s.mispredicted, 1);
            }
            if i.mode() == ExecMode::Kernel {
                saturating_count(&mut s.kernel, 1);
            }
            if let Some(a) = i.addr() {
                lines.insert(a / 32);
            }
        }
        s.distinct_lines = lines.len() as u64;
        s
    }

    /// Number of instructions characterized.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Percentage of loads in the stream.
    pub fn load_pct(&self) -> f64 {
        100.0 * self.loads as f64 / self.instructions as f64
    }

    /// Percentage of stores in the stream.
    pub fn store_pct(&self) -> f64 {
        100.0 * self.stores as f64 / self.instructions as f64
    }

    /// Percentage of control transfers (branches plus jumps).
    pub fn control_pct(&self) -> f64 {
        100.0 * (self.branches + self.jumps) as f64 / self.instructions as f64
    }

    /// Percentage of floating-point operations.
    pub fn fp_pct(&self) -> f64 {
        100.0 * self.fp_ops as f64 / self.instructions as f64
    }

    /// Percentage of instructions executed in kernel mode.
    pub fn kernel_pct(&self) -> f64 {
        100.0 * self.kernel as f64 / self.instructions as f64
    }

    /// Fraction of control transfers the front end mispredicts.
    pub fn mispredict_rate(&self) -> f64 {
        let c = self.branches + self.jumps;
        if c == 0 {
            0.0
        } else {
            self.mispredicted as f64 / c as f64
        }
    }

    /// Number of distinct 32-byte lines touched — a working-set proxy.
    pub fn distinct_lines(&self) -> u64 {
        self.distinct_lines
    }

    /// Touched bytes (distinct lines times the 32-byte line size).
    pub fn touched_bytes(&self) -> u64 {
        self.distinct_lines * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn table2_mix_reproduced_for_all_benchmarks() {
        for b in Benchmark::ALL {
            let spec = b.spec();
            let mut gen = WorkloadGen::new(b, 42);
            let s = StreamStats::characterize(&mut gen, 80_000);
            assert!(
                (s.load_pct() - spec.table2.load_pct).abs() < 1.5,
                "{b}: loads {:.1} vs {:.1}",
                s.load_pct(),
                spec.table2.load_pct
            );
            assert!(
                (s.store_pct() - spec.table2.store_pct).abs() < 1.0,
                "{b}: stores {:.1} vs {:.1}",
                s.store_pct(),
                spec.table2.store_pct
            );
        }
    }

    #[test]
    fn working_set_ordering_matches_groups() {
        let touched = |b: Benchmark| {
            let mut gen = WorkloadGen::new(b, 7);
            StreamStats::characterize(&mut gen, 200_000).touched_bytes()
        };
        let gcc = touched(Benchmark::Gcc);
        let database = touched(Benchmark::Database);
        assert!(database > 2 * gcc, "database WS ({database}) should dwarf gcc ({gcc})");
    }

    #[test]
    fn fp_pct_separates_groups() {
        let fp = |b: Benchmark| {
            let mut gen = WorkloadGen::new(b, 3);
            StreamStats::characterize(&mut gen, 30_000).fp_pct()
        };
        assert!(fp(Benchmark::Tomcatv) > 25.0);
        assert!(fp(Benchmark::Gcc) < 2.0);
    }

    #[test]
    fn control_pct_counts_branches_and_jumps() {
        let mut gen = WorkloadGen::new(Benchmark::Gcc, 1);
        let s = StreamStats::characterize(&mut gen, 40_000);
        // gcc's spec requests 16% control transfers.
        assert!((s.control_pct() - 16.0).abs() < 1.5, "control {}", s.control_pct());
        assert!(s.touched_bytes() > 0);
        assert_eq!(s.instructions(), 40_000);
    }

    #[test]
    fn mispredict_rate_in_range() {
        let mut gen = WorkloadGen::new(Benchmark::Compress, 5);
        let s = StreamStats::characterize(&mut gen, 100_000);
        let r = s.mispredict_rate();
        assert!(r > 0.03 && r < 0.15, "compress mispredict rate {r}");
    }
}
