//! Process-technology parameters.

#![expect(
    clippy::disallowed_types,
    reason = "the newtype boundary: a feature size in micrometres and the FO4 duration in nanoseconds are the raw `f64`s every unit conversion starts from"
)]

use crate::Fo4;

/// Parameters of the modeled process technology.
///
/// The paper models a 0.5 um CMOS process via a modified CACTI and converts
/// everything to fan-out-of-four units, anchored by the observation that a
/// processor whose critical path is a single-ported single-cycle 8 KB data
/// cache has a 25 FO4 cycle [Horo96], which at the study's 200 MHz clock
/// makes one FO4 equal to 0.2 ns.
///
/// # Example
///
/// ```
/// use hbc_timing::Technology;
///
/// let tech = Technology::default();
/// assert_eq!(tech.fo4_ns(), 0.2);
/// assert_eq!(tech.baseline_cycle().get(), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    feature_um: f64,
    fo4_ns: f64,
    latch_overhead: Fo4,
    baseline_cycle: Fo4,
}

impl Technology {
    /// Creates a technology description.
    ///
    /// * `feature_um` — drawn feature size in micrometres (0.5 in the paper).
    /// * `fo4_ns` — duration of one FO4 delay in nanoseconds.
    /// * `latch_overhead` — delay added per pipeline latch (1.5 FO4 in the
    ///   paper, Section 2.2).
    /// * `baseline_cycle` — the reference processor cycle (25 FO4).
    ///
    /// # Panics
    ///
    /// Panics if `feature_um` or `fo4_ns` is not strictly positive.
    pub fn new(feature_um: f64, fo4_ns: f64, latch_overhead: Fo4, baseline_cycle: Fo4) -> Self {
        assert!(feature_um > 0.0, "feature size must be positive");
        assert!(fo4_ns > 0.0, "FO4 duration must be positive");
        Technology { feature_um, fo4_ns, latch_overhead, baseline_cycle }
    }

    /// Drawn feature size in micrometres.
    pub fn feature_um(&self) -> f64 {
        self.feature_um
    }

    /// Duration of one FO4 delay in nanoseconds.
    pub fn fo4_ns(&self) -> f64 {
        self.fo4_ns
    }

    /// Delay added by one pipeline latch.
    pub fn latch_overhead(&self) -> Fo4 {
        self.latch_overhead
    }

    /// The reference processor cycle time (25 FO4 in the paper).
    pub fn baseline_cycle(&self) -> Fo4 {
        self.baseline_cycle
    }

    /// Nanoseconds per processor cycle for a cycle time of `cycle_fo4`.
    pub fn cycle_ns(&self, cycle_fo4: Fo4) -> crate::Nanoseconds {
        cycle_fo4.to_nanoseconds(self)
    }
}

impl Default for Technology {
    /// The paper's technology: 0.5 um, FO4 = 0.2 ns, 1.5 FO4 latches,
    /// 25 FO4 baseline cycle.
    fn default() -> Self {
        Technology::new(0.5, 0.2, Fo4::new(1.5), Fo4::new(25.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let t = Technology::default();
        assert_eq!(t.feature_um(), 0.5);
        assert_eq!(t.fo4_ns(), 0.2);
        assert_eq!(t.latch_overhead().get(), 1.5);
        assert_eq!(t.baseline_cycle().get(), 25.0);
    }

    #[test]
    fn cycle_ns_scales_linearly() {
        let t = Technology::default();
        assert!((t.cycle_ns(Fo4::new(10.0)).get() - 2.0).abs() < 1e-12);
        assert!((t.cycle_ns(Fo4::new(30.0)).get() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_fo4_duration() {
        let _ = Technology::new(0.5, 0.0, Fo4::ZERO, Fo4::new(25.0));
    }
}
