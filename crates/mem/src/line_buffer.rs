//! The line buffer: a small fully associative level-zero cache in the
//! load/store execution unit (paper Section 2.3, [Wils96]).

use crate::addr::line_index;
use hbc_probe::saturating_count;

/// A fully associative, multi-ported line buffer with LRU replacement.
///
/// Loads that hit return in a single cycle without occupying a cache port;
/// this both raises effective port bandwidth and hides the latency of
/// pipelined caches. The paper's configuration is 32 entries.
///
/// # Example
///
/// ```
/// use hbc_mem::LineBuffer;
///
/// let mut lb = LineBuffer::new(32, 32);
/// assert!(!lb.probe(0x400));
/// lb.fill(0x400);
/// assert!(lb.probe(0x41f)); // same 32-byte line
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LineBuffer {
    entries: usize,
    line_bytes: u64,
    /// Resident line indices in recency order: LRU at the front, MRU at
    /// the back. Per-entry use stamps would order entries identically
    /// (stamps increase strictly), but the explicit order makes eviction a
    /// front-removal instead of a second scan of the buffer.
    lines: Vec<u64>,
    hits: u64,
    lookups: u64,
}

impl LineBuffer {
    /// Creates a line buffer of `entries` lines of `line_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `line_bytes` is not a power of two.
    pub fn new(entries: usize, line_bytes: u64) -> Self {
        assert!(entries > 0, "line buffer needs at least one entry");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        LineBuffer { entries, line_bytes, lines: Vec::with_capacity(entries), hits: 0, lookups: 0 }
    }

    /// Capacity in entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Entry size in bytes.
    pub(crate) fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Looks up `addr`; on a hit refreshes LRU and returns `true`.
    pub fn lookup(&mut self, addr: u64) -> bool {
        saturating_count(&mut self.lookups, 1);
        let line = line_index(addr, self.line_bytes);
        if let Some(i) = self.position(line) {
            self.make_mru(i);
            saturating_count(&mut self.hits, 1);
            true
        } else {
            false
        }
    }

    /// The recency-list position of `line`, scanning MRU-first (temporal
    /// locality means hits cluster at the recent end).
    fn position(&self, line: u64) -> Option<usize> {
        self.lines.iter().rposition(|l| *l == line)
    }

    /// Moves the entry at `i` to the MRU end, preserving the order of the
    /// rest.
    fn make_mru(&mut self, i: usize) {
        let line = self.lines.remove(i);
        self.lines.push(line);
    }

    /// `true` if `addr`'s line is resident (no LRU update, no stats).
    pub fn probe(&self, addr: u64) -> bool {
        self.position(line_index(addr, self.line_bytes)).is_some()
    }

    /// Inserts `addr`'s line (typically when load data returns from the
    /// cache), evicting the LRU entry if full.
    pub fn fill(&mut self, addr: u64) {
        let line = line_index(addr, self.line_bytes);
        if let Some(i) = self.position(line) {
            self.make_mru(i);
            return;
        }
        if self.lines.len() == self.entries {
            self.lines.remove(0); // the LRU entry is the front of the list
        }
        self.lines.push(line);
    }

    /// Removes `addr`'s line if present (store invalidation / L1 eviction).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = line_index(addr, self.line_bytes);
        if let Some(i) = self.position(line) {
            self.lines.remove(i);
            true
        } else {
            false
        }
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup count.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Sanitizer: the resident line indices (unordered).
    #[cfg(feature = "sanitize")]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().copied()
    }

    /// Sanitizer: panics if occupancy exceeds capacity or lines duplicate.
    #[cfg(feature = "sanitize")]
    pub(crate) fn assert_sane(&self) {
        assert!(
            self.lines.len() <= self.entries,
            "sanitize: line buffer holds {} lines with only {} entries",
            self.lines.len(),
            self.entries
        );
        for (i, line) in self.lines.iter().enumerate() {
            assert!(
                !self.lines[..i].contains(line),
                "sanitize: duplicate line-buffer entries for line {line}"
            );
        }
    }

    /// Hit ratio over all lookups (zero when never used).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut lb = LineBuffer::new(4, 32);
        assert!(!lb.lookup(0x100));
        lb.fill(0x100);
        assert!(lb.lookup(0x110));
        assert_eq!(lb.hits(), 1);
        assert_eq!(lb.lookups(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut lb = LineBuffer::new(2, 32);
        lb.fill(0);
        lb.fill(32);
        assert!(lb.lookup(0)); // line 0 now most recent
        lb.fill(2 * 32); // evicts line 1
        assert!(lb.probe(0));
        assert!(!lb.probe(32));
        assert!(lb.probe(64));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut lb = LineBuffer::new(2, 32);
        lb.fill(0);
        lb.fill(0);
        lb.fill(32);
        lb.fill(64); // should evict line 0's competitor, not overflow
        assert!(lb.lines.len() <= 2);
    }

    #[test]
    fn invalidate() {
        let mut lb = LineBuffer::new(4, 32);
        lb.fill(0x200);
        assert!(lb.invalidate(0x200));
        assert!(!lb.probe(0x200));
        assert!(!lb.invalidate(0x200));
    }

    #[test]
    fn hit_ratio_tracks() {
        let mut lb = LineBuffer::new(4, 32);
        lb.fill(0);
        assert!(lb.lookup(0));
        assert!(!lb.lookup(0x1000));
        assert!((lb.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(LineBuffer::new(1, 32).hit_ratio(), 0.0);
    }

    #[test]
    fn sequential_words_hit_after_first() {
        // The spatial-locality effect the paper relies on: a stride-8 sweep
        // hits the line buffer three times per 32-byte line.
        let mut lb = LineBuffer::new(32, 32);
        let mut hits = 0;
        for i in 0..128u64 {
            if lb.lookup(i * 8) {
                hits += 1;
            } else {
                lb.fill(i * 8);
            }
        }
        assert_eq!(hits, 96); // 3 of every 4 accesses
    }
}
