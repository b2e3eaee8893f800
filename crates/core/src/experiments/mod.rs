//! One driver per table and figure of the paper.
//!
//! Each submodule exposes a `run(&ExpParams) -> Table`-style entry point
//! that regenerates the corresponding result:
//!
//! | paper item | module | content |
//! |---|---|---|
//! | Figure 1 | [`fig1`] | SRAM access times, single-ported vs 8-way banked |
//! | Table 1  | [`table1`] | the nine benchmarks |
//! | Table 2  | [`table2`] | mode/instruction-mix percentages, spec vs measured |
//! | Figure 3 | [`fig3`] | misses per instruction vs cache size |
//! | Figure 4 | [`fig4`] | IPC of ideal multi-ported multi-cycle caches |
//! | Figure 5 | [`fig5`] | IPC of banked multi-cycle caches |
//! | Figure 6 | [`fig6`] | line buffer on banked and duplicate caches |
//! | Figure 7 | [`fig7`] | the on-chip DRAM cache |
//! | Figure 8 | [`fig8`] | IPC vs cache size for the leading organizations |
//! | Figure 9 | [`fig9`] | normalized execution time vs processor cycle time |

pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use hbc_workloads::Benchmark;

/// Shared experiment parameters: how long to simulate and which benchmarks
/// to cover.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpParams {
    /// Measured instructions per configuration.
    pub instructions: u64,
    /// Cycle-level warm-up instructions.
    pub warmup: u64,
    /// Functional cache pre-warm instructions.
    pub cache_warm: u64,
    /// Workload seed (the same seed across configurations makes every
    /// comparison paired).
    pub seed: u64,
    /// Benchmarks to simulate.
    pub benchmarks: Vec<Benchmark>,
    /// Print a probe-registry breakdown next to each figure (`--probes`).
    pub probes: bool,
    /// Retain the last N pipeline/cache events per run (`--trace-window`);
    /// zero disables tracing.
    pub trace_window: u64,
    /// Worker threads for the experiment sweeps (`--jobs N`): `0` means
    /// the host's available parallelism, `1` the serial path. Results are
    /// bit-identical for every value — only wall-clock changes.
    pub jobs: usize,
    /// Write per-phase span records to this JSONL file after the run
    /// (`--spans out.jsonl`); `None` disables span collection. Spans
    /// never change the simulated numbers.
    pub spans_out: Option<std::path::PathBuf>,
}

impl ExpParams {
    /// Full fidelity: 200 K measured instructions, all nine benchmarks.
    pub fn full() -> Self {
        ExpParams {
            instructions: 200_000,
            warmup: 20_000,
            cache_warm: 2_000_000,
            seed: 42,
            benchmarks: Benchmark::ALL.to_vec(),
            probes: false,
            trace_window: 0,
            jobs: 0,
            spans_out: None,
        }
    }

    /// Standard fidelity (the default for the figure binaries): 60 K
    /// measured instructions, all nine benchmarks.
    pub fn standard() -> Self {
        ExpParams { instructions: 60_000, warmup: 10_000, ..ExpParams::full() }
    }

    /// Quick smoke-test fidelity: short windows, representatives only.
    pub fn fast() -> Self {
        ExpParams {
            instructions: 15_000,
            warmup: 3_000,
            cache_warm: 400_000,
            benchmarks: Benchmark::REPRESENTATIVES.to_vec(),
            ..ExpParams::full()
        }
    }

    /// Restricts the run to the three representative benchmarks.
    pub fn representatives(mut self) -> Self {
        self.benchmarks = Benchmark::REPRESENTATIVES.to_vec();
        self
    }

    /// Runs `cells` independent experiment cells on this preset's worker
    /// count ([`crate::exec::run_cells`] with `self.jobs`), returning the
    /// results in index order. Every experiment driver routes its sweep
    /// through here, so `--jobs` applies uniformly.
    pub fn run_cells<T, F>(&self, cells: usize, cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        crate::exec::run_cells(self.jobs, cells, cell)
    }

    /// Builds a [`crate::SimBuilder`] carrying these parameters.
    pub fn sim(&self, benchmark: Benchmark) -> crate::SimBuilder {
        crate::SimBuilder::new(benchmark)
            .instructions(self.instructions)
            .warmup(self.warmup)
            .cache_warm(self.cache_warm)
            .seed(self.seed)
            .probes(self.probes)
            .trace_window(self.trace_window)
    }
}

impl Default for ExpParams {
    fn default() -> Self {
        ExpParams::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_cost() {
        let fast = ExpParams::fast();
        let std = ExpParams::standard();
        let full = ExpParams::full();
        assert!(fast.instructions < std.instructions);
        assert!(std.instructions < full.instructions);
        assert_eq!(fast.benchmarks.len(), 3);
        assert_eq!(full.benchmarks.len(), 9);
    }

    #[test]
    fn sim_carries_params() {
        let p = ExpParams::fast();
        let result = p.sim(Benchmark::Li).run();
        assert!(result.ipc() > 0.0);
    }
}
