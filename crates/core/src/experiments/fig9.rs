//! **Figure 9** — normalized execution time versus processor cycle time
//! for multi-cycle duplicate caches with a line buffer.
//!
//! For each processor cycle time the largest duplicate cache buildable at
//! hit times of one, two and three cycles is selected from the Figure 1
//! access-time curves, the 50 ns L2 and 300 ns memory are rescaled into
//! cycles, and the execution time is measured and normalized to the paper's
//! reference point: a 10 FO4 processor with a 32 KB three-cycle pipelined
//! cache.

use hbc_mem::PortModel;
use hbc_timing::{pipeline, AccessTimeModel, CacheSize, Fo4, PortStructure, Technology};

use crate::exectime::{scaled_memory_cycles, time_per_instruction_ns};
use crate::experiments::ExpParams;
use crate::report::{fmt_f, Table};
use crate::Benchmark;

/// The cycle times swept by the figure (FO4).
pub const CYCLE_TIMES: [f64; 9] = [10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 27.5, 30.0];

/// One point of a Figure 9 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Point {
    /// Processor cycle time.
    pub cycle_fo4: f64,
    /// Cache pipeline depth (hit time in cycles).
    pub depth: u64,
    /// Largest duplicate cache buildable, if any.
    pub cache: Option<CacheSize>,
    /// Execution time normalized to the 10 FO4 / 32 KB / 3-cycle baseline.
    pub normalized_time: Option<f64>,
}

/// Computes the Figure 9 curves for one benchmark.
pub fn curves(benchmark: Benchmark, params: &ExpParams) -> Vec<Fig9Point> {
    let model = AccessTimeModel::default();
    let tech = Technology::default();
    // Cache selection is cheap; enumerate the sweep serially so every
    // simulation cell has a fixed index before execution starts.
    let mut pts = Vec::new();
    for &cycle in &CYCLE_TIMES {
        for depth in 1..=3u32 {
            let cache = pipeline::max_cache_size(
                &model,
                PortStructure::Duplicate,
                Fo4::new(cycle),
                &tech,
                depth,
            );
            pts.push((cycle, u64::from(depth), cache));
        }
    }
    // Cell 0 is the normalization baseline, cells 1.. the sweep points
    // (unbuildable caches simulate nothing and yield `None`).
    let times = params.run_cells(1 + pts.len(), |i| match i.checked_sub(1) {
        None => Some(time_at(benchmark, params, Fo4::new(10.0), 3, CacheSize::from_kib(32), &tech)),
        Some(j) => {
            let (cycle, depth, cache) = pts[j];
            cache.map(|c| time_at(benchmark, params, Fo4::new(cycle), depth, c, &tech))
        }
    });
    let baseline = times[0].unwrap_or(f64::NAN);
    pts.iter()
        .zip(&times[1..])
        .map(|(&(cycle_fo4, depth, cache), t)| Fig9Point {
            cycle_fo4,
            depth,
            cache,
            normalized_time: t.map(|t| t / baseline),
        })
        .collect()
}

fn time_at(
    benchmark: Benchmark,
    params: &ExpParams,
    cycle: Fo4,
    depth: u64,
    cache: CacheSize,
    tech: &Technology,
) -> f64 {
    let (l2, mem) = scaled_memory_cycles(cycle, tech);
    let result = params
        .sim(benchmark)
        .cache_size_kib(cache.kib())
        .hit_cycles(depth)
        .ports(PortModel::Duplicate)
        .line_buffer(true)
        .l2_hit_cycles(l2)
        .mem_latency(mem)
        .run();
    time_per_instruction_ns(result.run().cycles, result.run().instructions, cycle, tech)
}

/// Regenerates Figure 9 as a table: one row per (benchmark, depth), one
/// column per cycle time, each cell `normalized-time(cache-size)`, plus
/// average rows over the benchmark set.
///
/// # Example
///
/// ```
/// use hbc_core::experiments::{fig9, ExpParams};
///
/// let mut p = ExpParams::fast();
/// p.instructions = 5_000;
/// p.warmup = 1_000;
/// p.benchmarks.truncate(1);
/// let t = fig9::run(&p);
/// assert_eq!(t.len(), 6); // (benchmark + average) x 3 depths
/// ```
pub fn run(params: &ExpParams) -> Table {
    let mut headers = vec!["benchmark".to_string(), "hit".to_string()];
    headers.extend(CYCLE_TIMES.iter().map(|c| format!("{c} FO4")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Figure 9: normalized execution time vs cycle time, duplicate caches + line buffer",
        &header_refs,
    );
    let n = params.benchmarks.len() as f64;
    // avg[depth-1][cycle index] accumulates normalized times; count tracks
    // buildable points so partially-buildable cells average correctly.
    let mut avg = vec![vec![(0.0f64, 0u32); CYCLE_TIMES.len()]; 3];
    for &b in &params.benchmarks {
        let pts = curves(b, params);
        for depth in 1..=3usize {
            let mut row = vec![b.name().to_string(), format!("{depth}~")];
            for (ci, _) in CYCLE_TIMES.iter().enumerate() {
                let p = &pts[ci * 3 + (depth - 1)];
                match (p.cache, p.normalized_time) {
                    (Some(c), Some(t)) => {
                        avg[depth - 1][ci].0 += t;
                        avg[depth - 1][ci].1 += 1;
                        row.push(format!("{}({c})", fmt_f(t, 2)));
                    }
                    _ => row.push("-".to_string()),
                }
            }
            table.push(row);
        }
    }
    for depth in 1..=3usize {
        let mut row = vec!["average".to_string(), format!("{depth}~")];
        for (ci, _) in CYCLE_TIMES.iter().enumerate() {
            let (sum, count) = avg[depth - 1][ci];
            if count as f64 == n && n > 0.0 {
                row.push(fmt_f(sum / n, 2));
            } else {
                row.push("-".to_string());
            }
        }
        table.push(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpParams {
        let mut p = ExpParams::fast();
        p.instructions = 6_000;
        p.warmup = 1_000;
        p
    }

    #[test]
    fn cache_selection_matches_the_paper() {
        let params = quick();
        let pts = curves(Benchmark::Gcc, &params);
        let find = |cycle: f64, depth: u64| {
            pts.iter().find(|p| p.cycle_fo4 == cycle && p.depth == depth).unwrap().cache
        };
        // 30 FO4 accommodates a one-cycle 64 KB cache (29 FO4 access).
        assert_eq!(find(30.0, 1), Some(CacheSize::from_kib(64)));
        // 25 FO4: 8K one-cycle, 512K two-cycle, 1M three-cycle.
        assert_eq!(find(25.0, 1), Some(CacheSize::from_kib(8)));
        assert_eq!(find(25.0, 2), Some(CacheSize::from_kib(512)));
        assert_eq!(find(25.0, 3), Some(CacheSize::from_mib(1)));
        // Below 24 FO4 no single-cycle cache is buildable at all.
        assert_eq!(find(20.0, 1), None);
        // At 10 FO4 at least three cycles of pipelining are required.
        assert_eq!(find(10.0, 2), None);
        assert!(find(10.0, 3).is_some());
    }

    #[test]
    fn faster_clocks_reduce_execution_time_at_fixed_depth() {
        let params = quick();
        let pts = curves(Benchmark::Tomcatv, &params);
        let t = |cycle: f64, depth: u64| {
            pts.iter().find(|p| p.cycle_fo4 == cycle && p.depth == depth).unwrap().normalized_time
        };
        // Three-cycle caches exist across the sweep; 15 FO4 must beat 30 FO4.
        let fast = t(15.0, 3).unwrap();
        let slow = t(30.0, 3).unwrap();
        assert!(fast < slow, "faster clock lost: {fast} vs {slow}");
    }
}
