//! Probe-name validation: hierarchical dotted lowercase paths.

/// `true` when `name` is a well-formed probe name: two or more dot-separated
/// segments, each non-empty and drawn from `[a-z0-9_]`
/// (`^[a-z0-9_]+(\.[a-z0-9_]+)+$`).
///
/// Every [`Probe`](crate::Probe), [`HistogramProbe`](crate::HistogramProbe)
/// and [`Stage`](crate::Stage) name has this shape, as their unit tests
/// check.
///
/// # Example
///
/// ```
/// use hbc_probe::is_valid_probe_name;
///
/// assert!(is_valid_probe_name("mem.l1.bank_conflicts"));
/// assert!(!is_valid_probe_name("flat"));          // needs a hierarchy
/// assert!(!is_valid_probe_name("Mem.l1.hits"));   // lowercase only
/// assert!(!is_valid_probe_name("mem..hits"));     // empty segment
/// ```
pub fn is_valid_probe_name(name: &str) -> bool {
    let mut segments = 0;
    for segment in name.split('.') {
        if segment.is_empty()
            || !segment.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_hierarchical_lowercase() {
        for ok in ["cpu.stall.commit", "mem.lb.hits", "a.b", "x0.y_1.z2"] {
            assert!(is_valid_probe_name(ok), "{ok}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "flat", ".", "a.", ".b", "a..b", "A.b", "a.B", "a b.c", "a-b.c", "a.b."] {
            assert!(!is_valid_probe_name(bad), "{bad}");
        }
    }
}
