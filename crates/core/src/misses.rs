//! Fast functional miss-rate sweeps (paper Figure 3).
//!
//! Figure 3 only needs cache contents, not timing, so this module replays
//! the memory references of a workload through bare tag arrays — orders of
//! magnitude faster than the cycle-level simulator and therefore usable
//! with longer streams.
//!
//! A sweep generates its stream once and replays every reference through
//! one array per cache size, with identical counts to a pass per size.
//! The sizes share associativity and line size, use LRU and select sets
//! by the low line bits, so each larger cache includes every smaller one
//! (Mattson et al. 1970; Hill & Smith 1989): a line at recency rank `r` in
//! its set has rank at most `r` at every larger size. The replay walks the
//! arrays smallest first and stops at the first one whose most recent way
//! already holds the line, since every larger array holds it first too
//! and a touch there changes nothing. For the representative benchmarks,
//! three in four references stop at the smallest array. Debug builds
//! check on every reference that the arrays past the stop hold the line
//! first and that a hit at one size is a hit at every larger size.

use hbc_mem::CacheArray;
use hbc_workloads::{Benchmark, WorkloadGen};

/// Misses per instruction of `benchmark` for a single-ported two-way
/// 32-byte-line cache of each size in `sizes_kib`, over `instructions`
/// generated instructions after a one-eighth warm-up that is excluded from
/// the count.
///
/// # Example
///
/// ```
/// use hbc_core::{miss_curve, Benchmark};
///
/// let curve = miss_curve(Benchmark::Gcc, &[4, 64], 20_000, 1);
/// assert!(curve[0] > curve[1], "bigger caches miss less");
/// ```
pub fn miss_curve(
    benchmark: Benchmark,
    sizes_kib: &[u64],
    instructions: u64,
    seed: u64,
) -> Vec<f64> {
    let mut gen = WorkloadGen::new(benchmark, seed);
    // Smallest first, the order of the walk, but the big arrays are
    // allocated before the small ones.
    let mut order: Vec<usize> = (0..sizes_kib.len()).collect();
    order.sort_by_key(|&i| sizes_kib[i]);
    let mut caches: Vec<CacheArray> =
        order.iter().rev().map(|&i| CacheArray::new(sizes_kib[i] << 10, 2, 32)).collect();
    caches.reverse();
    let mut misses = vec![0u64; caches.len()];
    let warmup = instructions / 8;
    // Only addresses matter here; the warm fast path produces them with
    // full draw parity, so the counts match a `next_inst` replay exactly.
    for i in 0..(warmup + instructions) {
        let Some(addr) = gen.next_warm() else { continue };
        let counted = i >= warmup;
        let mut smaller_hit = false;
        let mut stop = caches.len();
        for (k, (cache, m)) in caches.iter_mut().zip(&mut misses).enumerate() {
            let rank = cache.touch_rank(addr);
            debug_assert!(
                !smaller_hit || rank.is_some(),
                "inclusion: {addr:#x} hit a smaller cache only"
            );
            smaller_hit = rank.is_some();
            *m += u64::from(counted && rank.is_none());
            if rank == Some(0) {
                // Every larger cache holds the line first in its set too,
                // so touching it there would change nothing.
                stop = k + 1;
                break;
            }
        }
        debug_assert!(
            caches[stop..].iter().all(|c| c.rank(addr) == Some(0)),
            "inclusion: {addr:#x} is most recent in a smaller cache only"
        );
    }
    let mut curve = vec![0.0; sizes_kib.len()];
    for (&i, &m) in order.iter().zip(&misses) {
        curve[i] = m as f64 / instructions as f64;
    }
    curve
}

/// Misses per instruction for one cache size: [`miss_curve`] at one point.
pub fn misses_per_instruction(
    benchmark: Benchmark,
    size_kib: u64,
    instructions: u64,
    seed: u64,
) -> f64 {
    miss_curve(benchmark, &[size_kib], instructions, seed)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_decrease_overall() {
        for b in [Benchmark::Gcc, Benchmark::Tomcatv, Benchmark::Database] {
            let c = miss_curve(b, &[4, 1024], 60_000, 1);
            assert!(c[0] > c[1], "{b}: {c:?}");
        }
    }

    #[test]
    fn integer_benchmarks_miss_least() {
        let gcc = misses_per_instruction(Benchmark::Gcc, 32, 80_000, 1);
        let db = misses_per_instruction(Benchmark::Database, 32, 80_000, 1);
        assert!(db > gcc, "database ({db}) must out-miss gcc ({gcc})");
    }

    #[test]
    fn deterministic() {
        let a = misses_per_instruction(Benchmark::Li, 16, 30_000, 9);
        let b = misses_per_instruction(Benchmark::Li, 16, 30_000, 9);
        assert_eq!(a, b);
    }

    const SIZES_KIB: [u64; 9] = [4, 8, 16, 32, 64, 128, 256, 512, 1024];

    #[expect(
        clippy::cast_possible_truncation,
        reason = "a miss count never exceeds the draw count `n`"
    )]
    fn miss_counts(b: Benchmark, sizes: &[u64], n: u64, seed: u64) -> Vec<u64> {
        miss_curve(b, sizes, n, seed).iter().map(|m| (m * n as f64).round() as u64).collect()
    }

    #[test]
    fn exact_miss_counts_are_pinned() {
        // Captured from the per-size replay this sweep replaced; the fig3
        // golden hash only sees percentages rounded to two places.
        assert_eq!(
            miss_counts(Benchmark::Database, &SIZES_KIB, 60_000, 7),
            [6131, 5814, 5504, 5174, 4771, 4398, 4253, 4201, 4161]
        );
        assert_eq!(
            miss_counts(Benchmark::Su2cor, &SIZES_KIB, 60_000, 7),
            [5009, 3954, 2858, 2489, 2326, 1647, 1508, 1508, 1507]
        );
        // Captured from the nine-array loop that touched every size with
        // every reference, before the walk stopped early; gcc's stack
        // references mostly hit the smallest cache's most recent way.
        assert_eq!(
            miss_counts(Benchmark::Gcc, &SIZES_KIB, 60_000, 7),
            [4122, 3459, 2663, 2207, 1886, 1833, 1809, 1800, 1782]
        );
    }

    /// One size replayed through its own array and its own stream,
    /// touching it with every reference.
    fn one_array_replay(b: Benchmark, kib: u64, instructions: u64, seed: u64) -> f64 {
        let mut gen = WorkloadGen::new(b, seed);
        let mut cache = CacheArray::new(kib << 10, 2, 32);
        let warmup = instructions / 8;
        let mut misses = 0u64;
        for i in 0..(warmup + instructions) {
            if let Some(addr) = gen.next_warm() {
                misses += u64::from(!cache.touch(addr) && i >= warmup);
            }
        }
        misses as f64 / instructions as f64
    }

    #[test]
    fn sweep_matches_one_array_replays() {
        hbc_ptest::check("miss curve vs one-array replays", 48, |g| {
            let b = *g.pick(&Benchmark::ALL);
            let seed = g.next_u64();
            let instructions = g.u64_in(1, 12_000);
            let sizes: Vec<u64> =
                (0..g.usize_in(1, 6)).map(|_| *g.pick(&[2, 4, 8, 16, 32, 64, 256, 1024])).collect();
            let curve = miss_curve(b, &sizes, instructions, seed);
            for (&kib, &m) in sizes.iter().zip(&curve) {
                assert_eq!(
                    m,
                    one_array_replay(b, kib, instructions, seed),
                    "{b} {kib}K in {sizes:?}"
                );
            }
        });
    }

    #[test]
    fn any_subset_or_order_of_sizes_gives_the_same_points() {
        let full = miss_curve(Benchmark::Tomcatv, &SIZES_KIB, 30_000, 3);
        for sizes in [&[1024, 4][..], &[64, 8, 512, 8], &[32], &[256, 128, 16, 4, 2]] {
            let curve = miss_curve(Benchmark::Tomcatv, sizes, 30_000, 3);
            for (&kib, &m) in sizes.iter().zip(&curve) {
                let expected = match SIZES_KIB.iter().position(|&k| k == kib) {
                    Some(j) => full[j],
                    None => misses_per_instruction(Benchmark::Tomcatv, kib, 30_000, 3),
                };
                assert_eq!(m, expected, "{kib}K in {sizes:?}");
            }
        }
    }
}
