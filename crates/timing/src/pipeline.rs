//! Pipelined cache fit rules (paper Section 2.2).
//!
//! Pipelining a cache into `d` stages inserts `d - 1` latches of 1.5 FO4
//! each, so a cache with access time `a` fits a hit time of `d` cycles at
//! cycle time `T` when `a + (d - 1) * latch <= d * T`.
//!
//! These are exactly the fits the paper states: at a 25 FO4 cycle the
//! 41.75 FO4 (512 KB) cache fits two cycles (41.75 + 1.5 = 43.25 ≤ 50) while
//! the 55 FO4 (1 MB) cache needs three (55 + 3 = 58 > 50).

use crate::{AccessTimeModel, CacheSize, Fo4, PortStructure, Technology};

/// Returns the smallest hit time, in whole processor cycles, at which a
/// cache with access time `access` can be pipelined given cycle time
/// `cycle`, searching up to `max_depth` stages.
///
/// Returns `None` if even `max_depth` stages do not fit (the per-stage latch
/// overhead eventually eats the whole cycle).
///
/// # Example
///
/// ```
/// use hbc_timing::pipeline::cycles_needed;
/// use hbc_timing::{Fo4, Technology};
///
/// let tech = Technology::default();
/// let cycle = Fo4::new(25.0);
/// assert_eq!(cycles_needed(Fo4::new(25.0), cycle, &tech, 3), Some(1)); // 8 KB
/// assert_eq!(cycles_needed(Fo4::new(41.75), cycle, &tech, 3), Some(2)); // 512 KB
/// assert_eq!(cycles_needed(Fo4::new(55.0), cycle, &tech, 3), Some(3)); // 1 MB
/// ```
pub fn cycles_needed(access: Fo4, cycle: Fo4, tech: &Technology, max_depth: u32) -> Option<u32> {
    (1..=max_depth).find(|&d| fits(access, cycle, tech, d))
}

/// `true` if a cache with access time `access` can be pipelined into a
/// `depth`-cycle hit at cycle time `cycle`.
#[expect(
    clippy::disallowed_types,
    reason = "a pipeline depth scales an FO4 delay as a bare factor"
)]
pub fn fits(access: Fo4, cycle: Fo4, tech: &Technology, depth: u32) -> bool {
    assert!(depth >= 1, "pipeline depth must be at least one");
    let latches = tech.latch_overhead() * f64::from(depth - 1);
    (access + latches).get() <= (cycle * f64::from(depth)).get() + 1e-9
}

/// The largest power-of-two cache in `model`'s range whose `ports` access
/// time fits a `depth`-cycle hit at cycle time `cycle`, or `None` if not
/// even the smallest modeled cache fits.
///
/// This is the selection Figure 9 performs for every processor cycle time:
/// "the maximum size duplicate SRAM cache that can be built with hit times
/// of one, two, and three processor cycles".
///
/// # Example
///
/// ```
/// use hbc_timing::pipeline::max_cache_size;
/// use hbc_timing::{AccessTimeModel, CacheSize, Fo4, PortStructure, Technology};
///
/// let model = AccessTimeModel::default();
/// let tech = Technology::default();
/// // A 29 FO4 cycle accommodates a one-cycle 64 KB duplicate cache (Sec 4.4).
/// let best = max_cache_size(&model, PortStructure::Duplicate, Fo4::new(29.0), &tech, 1);
/// assert_eq!(best, Some(CacheSize::from_kib(64)));
/// ```
pub fn max_cache_size(
    model: &AccessTimeModel,
    ports: PortStructure,
    cycle: Fo4,
    tech: &Technology,
    depth: u32,
) -> Option<CacheSize> {
    CacheSize::sram_sweep()
        .into_iter()
        .filter(|&s| {
            model.access_time(s, ports).map(|a| fits(a, cycle, tech, depth)).unwrap_or(false)
        })
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AccessTimeModel, Technology) {
        (AccessTimeModel::default(), Technology::default())
    }

    #[test]
    fn paper_fit_statements_hold() {
        let (model, tech) = setup();
        let cycle25 = Fo4::new(25.0);
        let at =
            |kib| model.access_time(CacheSize::from_kib(kib), PortStructure::SinglePorted).unwrap();
        // 512 KB fits two cycles at 25 FO4 with one 1.5 FO4 latch.
        assert_eq!(cycles_needed(at(512), cycle25, &tech, 3), Some(2));
        // 1 MB needs three cycles at 25 FO4.
        assert_eq!(cycles_needed(at(1024), cycle25, &tech, 3), Some(3));
        // 8 KB is single cycle at 25 FO4, 4 KB at 24 FO4 but not below.
        assert_eq!(cycles_needed(at(8), cycle25, &tech, 3), Some(1));
        assert!(fits(at(4), Fo4::new(24.0), &tech, 1));
        assert!(!fits(at(4), Fo4::new(23.9), &tech, 1));
    }

    #[test]
    fn max_cache_matches_conclusions() {
        let (model, tech) = setup();
        let max = |cycle, depth| {
            max_cache_size(&model, PortStructure::Duplicate, Fo4::new(cycle), &tech, depth)
        };
        // 29 FO4 -> 64 KB one-cycle cache.
        assert_eq!(max(29.0, 1), Some(CacheSize::from_kib(64)));
        // 25 FO4 -> 8 KB one-cycle, 512 KB two-cycle, 1 MB three-cycle.
        assert_eq!(max(25.0, 1), Some(CacheSize::from_kib(8)));
        assert_eq!(max(25.0, 2), Some(CacheSize::from_kib(512)));
        assert_eq!(max(25.0, 3), Some(CacheSize::from_mib(1)));
        // Below 24 FO4 no single-cycle cache exists at all (Section 5).
        assert_eq!(max(23.5, 1), None);
        // At 10 FO4 two cycles are still not enough; pipelining required.
        assert_eq!(max(10.0, 2), None);
    }

    #[test]
    fn deeper_pipelines_never_shrink_the_cache() {
        let (model, tech) = setup();
        for cycle in [10.0_f64, 15.0, 20.0, 25.0, 30.0] {
            let mut prev = None;
            for depth in 1..=3 {
                let m =
                    max_cache_size(&model, PortStructure::Duplicate, Fo4::new(cycle), &tech, depth);
                if let (Some(p), Some(c)) = (prev, m) {
                    assert!(c >= p, "deeper pipeline shrank cache at {cycle} FO4");
                }
                if m.is_some() {
                    prev = m;
                }
            }
        }
    }

    #[test]
    fn banked_fits_are_never_larger_than_duplicate() {
        let (model, tech) = setup();
        for cycle in [24.0_f64, 26.0, 28.0, 30.0] {
            for depth in 1..=3 {
                let dup =
                    max_cache_size(&model, PortStructure::Duplicate, Fo4::new(cycle), &tech, depth);
                let banked =
                    max_cache_size(&model, PortStructure::Banked8, Fo4::new(cycle), &tech, depth);
                match (dup, banked) {
                    (Some(d), Some(b)) => assert!(b <= d),
                    (None, Some(_)) => panic!("banked fits where duplicate does not"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_depth_rejected() {
        let (_, tech) = setup();
        let _ = fits(Fo4::new(25.0), Fo4::new(25.0), &tech, 0);
    }
}
