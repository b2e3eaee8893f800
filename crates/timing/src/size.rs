//! Cache capacity newtype.

#![expect(
    clippy::disallowed_types,
    reason = "the newtype boundary: `CacheSize` wraps and unwraps the raw `u64` byte count"
)]

use std::fmt;

/// A cache capacity in bytes.
///
/// The study sweeps SRAM caches from 4 KB to 1 MB and a 4 MB on-chip DRAM
/// cache; this type carries the capacity and provides the sweep helpers the
/// experiments use.
///
/// # Example
///
/// ```
/// use hbc_timing::CacheSize;
///
/// let s = CacheSize::from_kib(32);
/// assert_eq!(s.bytes(), 32 * 1024);
/// assert_eq!(s.to_string(), "32K");
/// assert_eq!(CacheSize::from_mib(1).to_string(), "1M");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheSize(u64);

impl CacheSize {
    /// Creates a capacity of `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn from_bytes(bytes: u64) -> Self {
        assert!(bytes > 0, "cache size must be non-zero");
        CacheSize(bytes)
    }

    /// Creates a capacity of `kib` kibibytes.
    pub fn from_kib(kib: u64) -> Self {
        Self::from_bytes(kib * 1024)
    }

    /// Creates a capacity of `mib` mebibytes.
    pub fn from_mib(mib: u64) -> Self {
        Self::from_bytes(mib * 1024 * 1024)
    }

    /// Capacity in bytes.
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// Capacity in kibibytes, rounded down.
    pub fn kib(self) -> u64 {
        self.0 / 1024
    }

    /// Base-2 logarithm of the byte capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a power of two.
    pub fn log2(self) -> u32 {
        assert!(self.0.is_power_of_two(), "size {} is not a power of two", self.0);
        self.0.trailing_zeros()
    }

    /// `true` if the capacity is a power of two.
    pub fn is_power_of_two(self) -> bool {
        self.0.is_power_of_two()
    }

    /// The paper's primary-cache sweep: 4 KB, 8 KB, ..., 1 MB.
    ///
    /// ```
    /// use hbc_timing::CacheSize;
    ///
    /// let sweep = CacheSize::sram_sweep();
    /// assert_eq!(sweep.len(), 9);
    /// assert_eq!(sweep[0], CacheSize::from_kib(4));
    /// assert_eq!(sweep[8], CacheSize::from_mib(1));
    /// ```
    pub fn sram_sweep() -> Vec<CacheSize> {
        (2..=10).map(|i| CacheSize::from_kib(1 << i)).collect()
    }
}

impl fmt::Display for CacheSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MIB: u64 = 1024 * 1024;
        if self.0 >= MIB && self.0.is_multiple_of(MIB) {
            write!(f, "{}M", self.0 / MIB)
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}K", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(CacheSize::from_kib(1024), CacheSize::from_mib(1));
        assert_eq!(CacheSize::from_bytes(4096), CacheSize::from_kib(4));
    }

    #[test]
    fn ordering_follows_capacity() {
        assert!(CacheSize::from_kib(4) < CacheSize::from_kib(8));
        assert!(CacheSize::from_mib(1) > CacheSize::from_kib(512));
    }

    #[test]
    fn log2_of_power_of_two() {
        assert_eq!(CacheSize::from_kib(8).log2(), 13);
        assert_eq!(CacheSize::from_mib(1).log2(), 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn log2_rejects_non_power_of_two() {
        let _ = CacheSize::from_bytes(3000).log2();
    }

    #[test]
    fn display_forms() {
        assert_eq!(CacheSize::from_bytes(512).to_string(), "512B");
        assert_eq!(CacheSize::from_kib(512).to_string(), "512K");
        assert_eq!(CacheSize::from_mib(4).to_string(), "4M");
    }

    #[test]
    fn sram_sweep_is_the_paper_range() {
        let sweep = CacheSize::sram_sweep();
        let kib: Vec<u64> = sweep.iter().map(|s| s.kib()).collect();
        assert_eq!(kib, vec![4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_rejected() {
        let _ = CacheSize::from_bytes(0);
    }
}
