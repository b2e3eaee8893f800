//! Address arithmetic helpers.

/// Returns the line index of `addr` for `line_bytes`-byte lines.
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two.
///
/// # Example
///
/// ```
/// use hbc_mem::addr::line_index;
///
/// assert_eq!(line_index(0x0, 32), 0);
/// assert_eq!(line_index(0x1f, 32), 0);
/// assert_eq!(line_index(0x20, 32), 1);
/// ```
pub fn line_index(addr: u64, line_bytes: u64) -> u64 {
    assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
    addr >> line_bytes.trailing_zeros()
}

/// Returns the base address of the line containing `addr`.
pub fn line_base(addr: u64, line_bytes: u64) -> u64 {
    line_index(addr, line_bytes) << line_bytes.trailing_zeros()
}

/// Returns the bank that `addr` maps to under line interleaving across
/// `nbanks` banks (the scheme of the MIPS R10000's banked cache).
///
/// # Panics
///
/// Panics if `nbanks` is zero or `line_bytes` is not a power of two.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the value is `% u64::from(nbanks)`, so it fits u32"
)]
pub fn bank_of(addr: u64, line_bytes: u64, nbanks: u32) -> u32 {
    assert!(nbanks > 0, "bank count must be non-zero");
    (line_index(addr, line_bytes) % u64::from(nbanks)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_math() {
        assert_eq!(line_base(0x47, 32), 0x40);
        assert_eq!(line_index(0x47, 32), 2);
        assert_eq!(line_base(0x200, 512), 0x200);
    }

    #[test]
    fn banks_interleave_by_line() {
        assert_eq!(bank_of(0x00, 32, 8), 0);
        assert_eq!(bank_of(0x20, 32, 8), 1);
        assert_eq!(bank_of(0xE0, 32, 8), 7);
        assert_eq!(bank_of(0x100, 32, 8), 0);
        // Same line, same bank regardless of offset.
        assert_eq!(bank_of(0x21, 32, 8), bank_of(0x3f, 32, 8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_rejected() {
        let _ = line_index(0, 33);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_banks_rejected() {
        let _ = bank_of(0, 32, 0);
    }
}
