//! Calibrated Figure 1 access-time curves.

use std::error::Error;
use std::fmt;

use crate::{CacheSize, Fo4};

/// The port structure of a primary data cache, as far as access time is
/// concerned (paper Section 2.1).
///
/// * Duplicate caches pay no access-time penalty over a single-ported cache
///   of the same size (the extra load/store-buffer write port is assumed to
///   be absorbed by circuit design effort).
/// * Eight-way banked caches pay a wiring penalty below 16 KB; from 16 KB up
///   the best single-ported organization is already at least eight-way
///   internally banked, so the curves coincide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortStructure {
    /// One cache port.
    SinglePorted,
    /// Two ports by full duplication (DEC Alpha 21164 style).
    Duplicate,
    /// Eight independently addressed external banks (MIPS R10000 style,
    /// taken to eight banks).
    Banked8,
}

impl fmt::Display for PortStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortStructure::SinglePorted => write!(f, "single-ported"),
            PortStructure::Duplicate => write!(f, "duplicate"),
            PortStructure::Banked8 => write!(f, "8-way banked"),
        }
    }
}

/// Error returned when a size is outside the modeled 4 KB..=1 MB range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeOutOfRangeError {
    size: CacheSize,
}

impl SizeOutOfRangeError {
    /// The offending size.
    pub fn size(&self) -> CacheSize {
        self.size
    }
}

impl fmt::Display for SizeOutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache size {} outside the modeled 4K..=1M SRAM range", self.size)
    }
}

impl Error for SizeOutOfRangeError {}

/// One row of the paper's Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Row {
    /// Cache capacity.
    pub size: CacheSize,
    /// Access time of the single-ported (and duplicate) cache.
    pub single_ported: Fo4,
    /// Access time of the eight-way banked cache.
    pub banked8: Fo4,
}

/// SRAM access times in FO4 as a function of capacity — the paper's
/// **Figure 1**, produced by its modified CACTI and digitized here from the
/// anchor values stated in the text:
///
/// * 8 KB single-ported, single-cycle cache = 25 FO4 [Horo96],
/// * a 29 FO4 cycle accommodates a one-cycle 64 KB cache (Section 4.4),
/// * 512 KB = 1.67 cycles and 1 MB = 2.20 cycles at 25 FO4 (Section 2.2),
/// * below a 24 FO4 cycle not even a 4 KB cache fits in one cycle
///   (Section 5),
/// * eight-way banking costs extra wiring below 16 KB and is free at and
///   above 16 KB (Section 2.1).
///
/// Sizes between table points are interpolated linearly in `log2(bytes)`.
///
/// # Example
///
/// ```
/// use hbc_timing::{AccessTimeModel, CacheSize, PortStructure};
///
/// let m = AccessTimeModel::default();
/// let t512 = m.access_time(CacheSize::from_kib(512), PortStructure::SinglePorted)?;
/// let cycles = t512.get() / 25.0;
/// assert!((cycles - 1.67).abs() < 0.01); // the paper's 1.67-cycle 512 KB cache
/// # Ok::<(), hbc_timing::SizeOutOfRangeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AccessTimeModel {
    /// (log2 bytes, single-ported, 8-way banked), ascending.
    points: Vec<(u32, Fo4, Fo4)>,
}

impl AccessTimeModel {
    /// Builds a model from explicit `(size, single_ported, banked8)` control
    /// points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, if sizes are not strictly
    /// ascending powers of two, or if any banked time is below its
    /// single-ported time.
    pub fn from_points(points: &[(CacheSize, Fo4, Fo4)]) -> Self {
        assert!(points.len() >= 2, "need at least two control points");
        let mut table = Vec::with_capacity(points.len());
        let mut prev_log = 0;
        for (i, (size, single, banked)) in points.iter().enumerate() {
            let log = size.log2();
            if i > 0 {
                assert!(log > prev_log, "control point sizes must be strictly ascending");
            }
            assert!(
                banked.get() >= single.get() - 1e-9,
                "banked access time below single-ported at {size}"
            );
            table.push((log, *single, *banked));
            prev_log = log;
        }
        AccessTimeModel { points: table }
    }

    /// Smallest modeled capacity.
    pub fn min_size(&self) -> CacheSize {
        CacheSize::from_bytes(1 << self.points[0].0)
    }

    /// Largest modeled capacity.
    pub fn max_size(&self) -> CacheSize {
        CacheSize::from_bytes(1 << self.points[self.points.len() - 1].0)
    }

    /// Access time of a cache of `size` with the given port structure.
    ///
    /// # Errors
    ///
    /// Returns [`SizeOutOfRangeError`] if `size` lies outside the modeled
    /// range (4 KB..=1 MB for the default model).
    #[expect(
        clippy::disallowed_types,
        reason = "interpolation runs in raw log2(bytes) space between FO4 control points"
    )]
    pub fn access_time(
        &self,
        size: CacheSize,
        ports: PortStructure,
    ) -> Result<Fo4, SizeOutOfRangeError> {
        let x = (size.bytes() as f64).log2();
        let first = &self.points[0];
        let last = &self.points[self.points.len() - 1];
        if x < f64::from(first.0) - 1e-9 || x > f64::from(last.0) + 1e-9 {
            return Err(SizeOutOfRangeError { size });
        }
        let column = |p: &(u32, Fo4, Fo4)| match ports {
            PortStructure::SinglePorted | PortStructure::Duplicate => p.1.get(),
            PortStructure::Banked8 => p.2.get(),
        };
        for pair in self.points.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            if x <= f64::from(hi.0) + 1e-9 {
                let t = (x - f64::from(lo.0)) / f64::from(hi.0 - lo.0);
                return Ok(Fo4::new(column(lo) + t * (column(hi) - column(lo))));
            }
        }
        Ok(Fo4::new(column(last)))
    }

    /// The full Figure 1 table at the paper's nine sweep sizes.
    #[expect(clippy::expect_used, reason = "every sweep size is in the model's range")]
    pub fn figure1(&self) -> Vec<Fig1Row> {
        CacheSize::sram_sweep()
            .into_iter()
            .map(|size| Fig1Row {
                size,
                single_ported: self
                    .access_time(size, PortStructure::SinglePorted)
                    .expect("sweep sizes are in range"),
                banked8: self
                    .access_time(size, PortStructure::Banked8)
                    .expect("sweep sizes are in range"),
            })
            .collect()
    }
}

impl Default for AccessTimeModel {
    fn default() -> Self {
        let k = CacheSize::from_kib;
        let pts: Vec<(CacheSize, Fo4, Fo4)> = vec![
            (k(4), Fo4::new(24.0), Fo4::new(28.2)),
            (k(8), Fo4::new(25.0), Fo4::new(27.4)),
            (k(16), Fo4::new(26.3), Fo4::new(26.3)),
            (k(32), Fo4::new(27.6), Fo4::new(27.6)),
            (k(64), Fo4::new(29.0), Fo4::new(29.0)),
            (k(128), Fo4::new(31.5), Fo4::new(31.5)),
            (k(256), Fo4::new(35.2), Fo4::new(35.2)),
            (k(512), Fo4::new(41.75), Fo4::new(41.75)),
            (k(1024), Fo4::new(55.0), Fo4::new(55.0)),
        ];
        AccessTimeModel::from_points(&pts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AccessTimeModel {
        AccessTimeModel::default()
    }

    #[test]
    fn paper_anchor_points() {
        let m = model();
        let single =
            |kib| m.access_time(CacheSize::from_kib(kib), PortStructure::SinglePorted).unwrap();
        assert_eq!(single(8).get(), 25.0);
        assert_eq!(single(64).get(), 29.0);
        // 512 KB = 1.67 cycles at 25 FO4; 1 MB = 2.20 cycles.
        assert!((single(512).get() / 25.0 - 1.67).abs() < 0.01);
        assert!((single(1024).get() / 25.0 - 2.20).abs() < 0.01);
        assert_eq!(single(4).get(), 24.0);
    }

    #[test]
    fn duplicate_times_equal_single_ported() {
        let m = model();
        for s in CacheSize::sram_sweep() {
            assert_eq!(
                m.access_time(s, PortStructure::Duplicate).unwrap(),
                m.access_time(s, PortStructure::SinglePorted).unwrap()
            );
        }
    }

    #[test]
    fn banked_penalty_only_below_16k() {
        let m = model();
        for row in m.figure1() {
            if row.size < CacheSize::from_kib(16) {
                assert!(row.banked8 > row.single_ported, "banked must cost delay at {}", row.size);
            } else {
                assert_eq!(row.banked8, row.single_ported, "curves coincide at {}", row.size);
            }
        }
    }

    #[test]
    fn single_ported_curve_is_monotone() {
        let rows = model().figure1();
        for pair in rows.windows(2) {
            assert!(pair[1].single_ported >= pair[0].single_ported);
        }
    }

    #[test]
    fn interpolation_between_points() {
        let m = model();
        // 48 KB sits between 32 KB (27.6) and 64 KB (29.0) in log space.
        let t = m.access_time(CacheSize::from_kib(48), PortStructure::SinglePorted).unwrap();
        assert!(t.get() > 27.6 && t.get() < 29.0);
    }

    #[test]
    fn out_of_range_is_an_error() {
        let m = model();
        let e = m.access_time(CacheSize::from_kib(2), PortStructure::SinglePorted).unwrap_err();
        assert_eq!(e.size(), CacheSize::from_kib(2));
        assert!(e.to_string().contains("2K"));
        assert!(m.access_time(CacheSize::from_mib(4), PortStructure::Banked8).is_err());
    }

    #[test]
    fn figure1_has_nine_rows() {
        assert_eq!(model().figure1().len(), 9);
    }

    #[test]
    fn range_accessors() {
        let m = model();
        assert_eq!(m.min_size(), CacheSize::from_kib(4));
        assert_eq!(m.max_size(), CacheSize::from_mib(1));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_points_rejects_unsorted() {
        let k = CacheSize::from_kib;
        let _ = AccessTimeModel::from_points(&[
            (k(8), Fo4::new(25.0), Fo4::new(25.0)),
            (k(4), Fo4::new(24.0), Fo4::new(24.0)),
        ]);
    }

    mod properties {
        use super::*;

        /// Interpolated access times are always bracketed by the
        /// neighbouring control points.
        #[test]
        fn interpolation_is_bracketed() {
            hbc_ptest::check_default("interpolation_is_bracketed", |g| {
                let bytes = g.u64_in(4096, 1 << 20);
                let m = AccessTimeModel::default();
                let t = m.access_time(CacheSize::from_bytes(bytes), PortStructure::SinglePorted);
                let t = t.unwrap().get();
                assert!((24.0..=55.0).contains(&t), "t = {t}");
                // The banked curve never undercuts single-ported.
                let b = m.access_time(CacheSize::from_bytes(bytes), PortStructure::Banked8);
                assert!(b.unwrap().get() >= t - 1e-9);
            });
        }
    }

    #[test]
    #[should_panic(expected = "banked access time below")]
    fn from_points_rejects_banked_below_single() {
        let k = CacheSize::from_kib;
        let _ = AccessTimeModel::from_points(&[
            (k(4), Fo4::new(24.0), Fo4::new(23.0)),
            (k(8), Fo4::new(25.0), Fo4::new(25.0)),
        ]);
    }
}
