//! A CACTI-style analytical cache-organization model.
//!
//! The paper uses a modified CACTI [Wilt96] (sub-array limit raised from 8 to
//! 32) to derive SRAM access times from 4 KB to 1 MB. This module implements
//! a simplified analytical model in the same spirit: a cache is split into
//! `ndwl * ndbl` sub-arrays, each component of the access path (decoder,
//! wordline, bitline, sense amplifier, tag comparison, output multiplexing,
//! and inter-sub-array routing) contributes a delay, and the best
//! organization is the one that minimizes the total.
//!
//! The model is used to *explain* the Figure 1 curves — in particular why
//! forcing eight-way banking hurts small caches but is free for caches of
//! 16 KB and more, whose best organization is already at least eight-way
//! banked internally — while the calibrated curves in
//! [`crate::AccessTimeModel`] are the authoritative reproduction of the
//! figure itself.
//!
//! Delays here are in *relative units* by design — the model compares
//! organizations against each other and is calibrated to FO4 only through
//! [`CactiModel::calibrate_fo4`], so its public surface is raw `f64`.
//!
//! # Example
//!
//! ```
//! use hbc_timing::cacti::CactiModel;
//! use hbc_timing::CacheSize;
//!
//! let model = CactiModel::default();
//! let single = model.single_ported_delay(CacheSize::from_kib(4));
//! let banked = model.effective_banked_delay(CacheSize::from_kib(4), 8);
//! // Externally banking a 4 KB cache eight ways costs delay.
//! assert!(banked > single);
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "relative delay units by design; FO4 enters only through `calibrate_fo4`"
)]

use crate::CacheSize;

/// The sub-array organization of a cache: how many times the wordlines
/// (`ndwl`) and bitlines (`ndbl`) are divided, and how many sets are mapped
/// to a single wordline (`nspd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Organization {
    /// Number of wordline divisions (columns of sub-arrays).
    pub ndwl: u32,
    /// Number of bitline divisions (rows of sub-arrays).
    pub ndbl: u32,
    /// Sets mapped per wordline.
    pub nspd: u32,
}

impl Organization {
    /// Total number of sub-arrays, `ndwl * ndbl`.
    pub fn subarrays(&self) -> u32 {
        self.ndwl * self.ndbl
    }
}

/// Per-component delays of one cache access, in relative delay units.
///
/// The absolute scale is arbitrary; [`CactiModel::calibrate_fo4`] maps it to
/// FO4 against the paper's anchors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentDelays {
    /// Address decoder.
    pub decoder: f64,
    /// Wordline drive across one sub-array.
    pub wordline: f64,
    /// Bitline discharge down one sub-array.
    pub bitline: f64,
    /// Sense amplifier.
    pub sense_amp: f64,
    /// Tag comparison (set-associative hit determination).
    pub comparator: f64,
    /// Output multiplexing across sub-arrays.
    pub mux_driver: f64,
    /// Routing to and from the sub-arrays (H-tree wires).
    pub routing: f64,
}

impl ComponentDelays {
    /// Total access delay in relative units.
    pub fn total(&self) -> f64 {
        self.decoder
            + self.wordline
            + self.bitline
            + self.sense_amp
            + self.comparator
            + self.mux_driver
            + self.routing
    }
}

/// Result of an organization search: the winning organization and its
/// component delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestOrganization {
    /// The minimizing organization.
    pub organization: Organization,
    /// Its component delays.
    pub delays: ComponentDelays,
}

/// The organization search space, mirroring the paper's modification of
/// CACTI: sub-array counts up to 32 (instead of CACTI's stock 8), with an
/// optional lower bound used to force external banking.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    min_subarrays: u32,
    max_subarrays: u32,
    max_nspd: u32,
}

impl SearchSpace {
    /// A search space forcing at least `min` sub-arrays (the paper forces 8
    /// to model eight-way banked caches).
    pub fn min_subarrays(min: u32) -> Self {
        SearchSpace { min_subarrays: min, ..SearchSpace::default() }
    }

    /// Lower bound on sub-array count.
    pub fn min(&self) -> u32 {
        self.min_subarrays
    }

    /// Upper bound on sub-array count.
    pub fn max(&self) -> u32 {
        self.max_subarrays
    }
}

impl Default for SearchSpace {
    /// Unconstrained organizations with up to 32 sub-arrays, as in the
    /// paper's modified CACTI.
    fn default() -> Self {
        SearchSpace { min_subarrays: 1, max_subarrays: 32, max_nspd: 8 }
    }
}

/// Analytical delay model coefficients.
///
/// All coefficients are in relative delay units; the defaults were chosen so
/// the best-organization delay curve has the shape of the paper's Figure 1
/// (roughly flat electronics plus a wire-delay term growing with the square
/// root of capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct CactiModel {
    line_bytes: u32,
    assoc: u32,
    decoder_base: f64,
    decoder_per_bit: f64,
    wordline_base: f64,
    wordline_per_col: f64,
    bitline_base: f64,
    bitline_per_row: f64,
    sense_amp: f64,
    comparator: f64,
    mux_base: f64,
    mux_per_level: f64,
    routing_per_edge: f64,
    routing_per_level: f64,
    bank_wire_fixed: f64,
    bank_wire_per_edge: f64,
}

impl CactiModel {
    /// Creates a model for caches with the given line size and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` or `assoc` is not a power of two.
    pub fn new(line_bytes: u32, assoc: u32) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(assoc.is_power_of_two(), "associativity must be a power of two");
        CactiModel {
            line_bytes,
            assoc,
            decoder_base: 2.0,
            decoder_per_bit: 0.55,
            wordline_base: 0.5,
            wordline_per_col: 0.004,
            bitline_base: 0.8,
            bitline_per_row: 0.012,
            sense_amp: 1.2,
            comparator: 1.6,
            mux_base: 1.0,
            mux_per_level: 0.9,
            routing_per_edge: 0.0115,
            routing_per_level: 0.15,
            bank_wire_fixed: 0.9,
            bank_wire_per_edge: 0.004,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Associativity.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Component delays of `size` organized as `org`.
    ///
    /// Returns `None` if the organization is degenerate for this size (fewer
    /// than one set row or fewer than eight columns per sub-array).
    pub fn delays(&self, size: CacheSize, org: Organization) -> Option<ComponentDelays> {
        let set_bytes = u64::from(self.line_bytes * self.assoc);
        if !size.bytes().is_multiple_of(set_bytes) {
            return None;
        }
        let sets = size.bytes() / set_bytes;
        if sets == 0
            || !(sets * u64::from(org.nspd)).is_multiple_of(u64::from(org.ndbl))
            || !u64::from(8 * self.line_bytes * self.assoc * org.nspd)
                .is_multiple_of(u64::from(org.ndwl))
        {
            return None;
        }
        // Rows of cells in one sub-array.
        let rows = sets * u64::from(org.nspd) / u64::from(org.ndbl);
        // Bit columns in one sub-array.
        let cols = u64::from(8 * self.line_bytes * self.assoc * org.nspd) / u64::from(org.ndwl);
        if rows < 1 || cols < 8 {
            return None;
        }
        let index_bits = (64 - (rows.max(2) - 1).leading_zeros()) as f64;
        let nsub = f64::from(org.subarrays());
        // Total bit area grows with capacity; the routed edge grows with its
        // square root. Extra sub-arrays lengthen the H-tree slightly.
        let bits = (size.bytes() * 8) as f64;
        let routing =
            self.routing_per_edge * bits.sqrt() * (1.0 + self.routing_per_level * nsub.log2());
        Some(ComponentDelays {
            decoder: self.decoder_base + self.decoder_per_bit * index_bits,
            wordline: self.wordline_base + self.wordline_per_col * cols as f64,
            bitline: self.bitline_base + self.bitline_per_row * rows as f64,
            sense_amp: self.sense_amp,
            comparator: self.comparator,
            mux_driver: self.mux_base + self.mux_per_level * nsub.log2(),
            routing,
        })
    }

    /// Searches `space` for the organization of `size` with the smallest
    /// total delay.
    ///
    /// # Panics
    ///
    /// Panics if no legal organization exists in `space` (only possible for
    /// degenerate sizes far below the paper's 4 KB floor).
    #[expect(clippy::panic, reason = "documented panic on a degenerate size")]
    pub fn best_organization(&self, size: CacheSize, space: &SearchSpace) -> BestOrganization {
        let mut best: Option<BestOrganization> = None;
        let mut ndwl = 1;
        while ndwl <= space.max_subarrays {
            let mut ndbl = 1;
            while ndbl <= space.max_subarrays {
                let mut nspd = 1;
                while nspd <= space.max_nspd {
                    let org = Organization { ndwl, ndbl, nspd };
                    let subs = org.subarrays();
                    if subs >= space.min_subarrays && subs <= space.max_subarrays {
                        if let Some(delays) = self.delays(size, org) {
                            let better = best
                                .as_ref()
                                .map(|b| delays.total() < b.delays.total())
                                .unwrap_or(true);
                            if better {
                                best = Some(BestOrganization { organization: org, delays });
                            }
                        }
                    }
                    nspd *= 2;
                }
                ndbl *= 2;
            }
            ndwl *= 2;
        }
        best.unwrap_or_else(|| panic!("no legal organization for {size} in {space:?}"))
    }

    /// Total delay of the best unconstrained (single-ported) organization of
    /// `size`, in relative units.
    pub fn single_ported_delay(&self, size: CacheSize) -> f64 {
        self.best_organization(size, &SearchSpace::default()).delays.total()
    }

    /// Delay of `size` split into `nbanks` independently addressed external
    /// banks: the best organization of one bank plus the inter-bank wiring
    /// overhead (paper Section 2.1: "an increase in the number of wires
    /// required to interconnect the banks").
    ///
    /// # Panics
    ///
    /// Panics if `nbanks` is not a power of two or does not divide `size`.
    pub fn external_banked_delay(&self, size: CacheSize, nbanks: u32) -> f64 {
        assert!(nbanks.is_power_of_two(), "bank count must be a power of two");
        assert!(size.bytes().is_multiple_of(u64::from(nbanks)), "banks must divide capacity");
        let bank = CacheSize::from_bytes(size.bytes() / u64::from(nbanks));
        let per_bank = self.single_ported_delay(bank);
        let levels = f64::from(nbanks).log2();
        let edge = ((size.bytes() * 8) as f64).sqrt();
        per_bank + self.bank_wire_fixed * levels + self.bank_wire_per_edge * edge * levels
    }

    /// The effective access delay of an externally banked cache, applying the
    /// paper's assumption that converting an *internally* banked organization
    /// to external banks carries no timing penalty: if the best free
    /// organization already uses at least `nbanks` sub-arrays, external
    /// banking is free; otherwise the cache pays the external-banking wiring
    /// overhead (and never beats the single-ported cache).
    pub fn effective_banked_delay(&self, size: CacheSize, nbanks: u32) -> f64 {
        let free = self.best_organization(size, &SearchSpace::default());
        let single = free.delays.total();
        if free.organization.subarrays() >= nbanks {
            single
        } else {
            single.max(self.external_banked_delay(size, nbanks))
        }
    }

    /// Returns an affine map from relative delay units to FO4, calibrated so
    /// the unconstrained best organizations of `anchor_a` and `anchor_b` hit
    /// `fo4_a` and `fo4_b` exactly.
    pub fn calibrate_fo4(
        &self,
        anchor_a: (CacheSize, f64),
        anchor_b: (CacheSize, f64),
    ) -> impl Fn(f64) -> f64 + use<> {
        let da = self.best_organization(anchor_a.0, &SearchSpace::default()).delays.total();
        let db = self.best_organization(anchor_b.0, &SearchSpace::default()).delays.total();
        let scale = (anchor_b.1 - anchor_a.1) / (db - da);
        let offset = anchor_a.1 - scale * da;
        move |relative| offset + scale * relative
    }
}

impl Default for CactiModel {
    /// The paper's primary-cache geometry: 32-byte lines, two-way set
    /// associative.
    fn default() -> Self {
        CactiModel::new(32, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> Vec<CacheSize> {
        CacheSize::sram_sweep()
    }

    #[test]
    fn best_delay_is_monotone_in_size() {
        let m = CactiModel::default();
        let mut prev = 0.0;
        for s in sizes() {
            let t = m.best_organization(s, &SearchSpace::default()).delays.total();
            assert!(t >= prev, "delay decreased at {s}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn external_banking_hurts_small_caches_only() {
        let m = CactiModel::default();
        for s in sizes() {
            let single = m.single_ported_delay(s);
            let banked = m.effective_banked_delay(s, 8);
            assert!(banked >= single - 1e-9, "banked beat single at {s}");
            if s >= CacheSize::from_kib(64) {
                // Large caches are internally banked already (paper Sec 2.1).
                assert!(
                    (banked - single).abs() < 1e-9,
                    "banked should equal single at {s}: {banked} vs {single}"
                );
            }
        }
        let s4 = CacheSize::from_kib(4);
        assert!(
            m.effective_banked_delay(s4, 8) > m.single_ported_delay(s4),
            "banking must cost delay at 4K"
        );
    }

    #[test]
    fn large_caches_prefer_many_subarrays() {
        let m = CactiModel::default();
        let best = m.best_organization(CacheSize::from_mib(1), &SearchSpace::default());
        assert!(best.organization.subarrays() >= 8, "1 MB best org should be >= 8 sub-arrays");
    }

    #[test]
    fn calibration_hits_anchors() {
        let m = CactiModel::default();
        let to_fo4 =
            m.calibrate_fo4((CacheSize::from_kib(8), 25.0), (CacheSize::from_mib(1), 55.0));
        let d8 =
            m.best_organization(CacheSize::from_kib(8), &SearchSpace::default()).delays.total();
        let d1m =
            m.best_organization(CacheSize::from_mib(1), &SearchSpace::default()).delays.total();
        assert!((to_fo4(d8) - 25.0).abs() < 1e-9);
        assert!((to_fo4(d1m) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_curve_stays_in_figure_one_envelope() {
        // The analytical curve need not match the digitized Figure 1 exactly,
        // but it should stay within a loose envelope of it.
        let m = CactiModel::default();
        let to_fo4 =
            m.calibrate_fo4((CacheSize::from_kib(8), 25.0), (CacheSize::from_mib(1), 55.0));
        for s in sizes() {
            let t = to_fo4(m.best_organization(s, &SearchSpace::default()).delays.total());
            assert!(t > 15.0 && t < 60.0, "calibrated {s} = {t} FO4 outside envelope");
        }
    }

    #[test]
    fn delays_rejects_degenerate_orgs() {
        let m = CactiModel::default();
        // More bitline divisions than the 4 KB cache has sets.
        let org = Organization { ndwl: 1, ndbl: 128, nspd: 1 };
        assert!(m.delays(CacheSize::from_kib(4), org).is_none());
        // Bank count must divide sets evenly.
        let odd = Organization { ndwl: 1, ndbl: 3, nspd: 1 };
        assert!(m.delays(CacheSize::from_kib(4), odd).is_none());
    }

    #[test]
    fn component_total_sums_fields() {
        let d = ComponentDelays {
            decoder: 1.0,
            wordline: 2.0,
            bitline: 3.0,
            sense_amp: 4.0,
            comparator: 5.0,
            mux_driver: 6.0,
            routing: 7.0,
        };
        assert_eq!(d.total(), 28.0);
    }
}
