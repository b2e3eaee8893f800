//! A generic set-associative cache tag array with LRU replacement.

use crate::addr::line_index;

/// A set-associative tag array (no data — the simulator is timing-only).
///
/// # Example
///
/// ```
/// use hbc_mem::CacheArray;
///
/// let mut c = CacheArray::new(4096, 2, 32); // 4 KB, 2-way, 32 B lines
/// assert!(!c.probe(0x1000));
/// c.touch(0x1000);
/// assert!(c.probe(0x1000));
/// ```
#[derive(Debug, PartialEq)]
pub struct CacheArray {
    size_bytes: u64,
    assoc: u32,
    line_bytes: u64,
    sets: u64,
    /// `sets - 1`: the set count is a validated power of two, so indexing
    /// is a mask rather than a hardware divide in the touch hot path.
    set_mask: u64,
    /// `ways[set * assoc + way]`: tag and LRU stamp interleaved so one
    /// set's ways share cache lines. A megabyte-scale simulated cache has
    /// megabytes of tag state; splitting tags and stamps into separate
    /// arrays would cost two host cache misses per touch instead of one.
    ways: Vec<Way>,
    clock: u64,
}

/// One cache way: the resident line index (or [`Way::INVALID`]) plus its
/// last-use stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Way {
    tag: u64,
    stamp: u64,
}

impl Way {
    /// Sentinel for an empty way. Line indices are addresses shifted right
    /// by the line-offset bits, so `u64::MAX` can never collide with one.
    const INVALID: u64 = u64::MAX;

    const EMPTY: Way = Way { tag: Way::INVALID, stamp: 0 };

    fn line(&self) -> Option<u64> {
        (self.tag != Way::INVALID).then_some(self.tag)
    }
}

impl Clone for CacheArray {
    fn clone(&self) -> Self {
        CacheArray { ways: self.ways.clone(), ..*self }
    }

    /// Reuses `self`'s way storage, so restoring a megabyte-scale warm
    /// snapshot into a freshly built array of the same geometry is a copy
    /// rather than a fresh allocation plus a free.
    fn clone_from(&mut self, source: &Self) {
        self.ways.clone_from(&source.ways);
        self.size_bytes = source.size_bytes;
        self.assoc = source.assoc;
        self.line_bytes = source.line_bytes;
        self.sets = source.sets;
        self.set_mask = source.set_mask;
        self.clock = source.clock;
    }
}

impl CacheArray {
    /// Creates a cache of `size_bytes` with `assoc` ways and
    /// `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, not a power of two where required,
    /// or if the geometry yields no sets.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_bytes > 0, "cache geometry must be non-zero");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let lines = size_bytes / line_bytes;
        assert!(lines >= u64::from(assoc), "cache smaller than one set");
        let sets = lines / u64::from(assoc);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            size_bytes,
            assoc,
            line_bytes,
            sets,
            set_mask: sets - 1,
            ways: vec![Way::EMPTY; (sets * u64::from(assoc)) as usize],
            clock: 0,
        }
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    fn set_of(&self, line: u64) -> u64 {
        line & self.set_mask
    }

    fn ways(&self, set: u64) -> std::ops::Range<usize> {
        let base = (set * u64::from(self.assoc)) as usize;
        base..base + self.assoc as usize
    }

    /// `true` if the line containing `addr` is present (does not update
    /// LRU state).
    pub fn probe(&self, addr: u64) -> bool {
        let line = line_index(addr, self.line_bytes);
        let set = self.set_of(line);
        self.ways(set).any(|w| self.ways[w].tag == line)
    }

    /// Accesses `addr`: on a hit, updates LRU and returns `true`; on a
    /// miss, inserts the line (evicting the LRU way) and returns `false`.
    ///
    /// Returns the evicted line index through [`CacheArray::touch_evict`]
    /// when the caller needs it.
    pub fn touch(&mut self, addr: u64) -> bool {
        self.touch_evict(addr).hit
    }

    /// Like [`CacheArray::touch`] but also reports any evicted line.
    pub fn touch_evict(&mut self, addr: u64) -> TouchResult {
        self.clock += 1;
        let line = line_index(addr, self.line_bytes);
        let set = self.set_of(line);
        for w in self.ways(set) {
            if self.ways[w].tag == line {
                self.ways[w].stamp = self.clock;
                return TouchResult { hit: true, evicted: None };
            }
        }
        // Miss: fill the invalid or least recently used way. Every set has
        // at least one way (associativity is validated non-zero), so the
        // fold over ways always yields a victim without a panic path.
        let mut victim = (set * u64::from(self.assoc)) as usize;
        let mut victim_key = (u8::MAX, u64::MAX);
        for w in self.ways(set) {
            let key =
                if self.ways[w].tag == Way::INVALID { (0, 0) } else { (1, self.ways[w].stamp) };
            if key < victim_key {
                victim = w;
                victim_key = key;
            }
        }
        let evicted = self.ways[victim].line();
        self.ways[victim] = Way { tag: line, stamp: self.clock };
        TouchResult { hit: false, evicted }
    }

    /// Removes the line containing `addr` if present; returns whether it
    /// was.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = line_index(addr, self.line_bytes);
        let set = self.set_of(line);
        for w in self.ways(set) {
            if self.ways[w].tag == line {
                self.ways[w] = Way::EMPTY;
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> u64 {
        self.ways.iter().filter(|w| w.tag != Way::INVALID).count() as u64
    }
}

/// Result of [`CacheArray::touch_evict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Line index displaced by the fill, if any.
    pub evicted: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = CacheArray::new(4096, 2, 32);
        assert!(!c.touch(0x100));
        assert!(c.touch(0x100));
        assert!(c.touch(0x104), "same line, different offset");
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish: 2 ways, force 3 lines into one set.
        let mut c = CacheArray::new(64, 2, 32); // one set, two ways
        assert_eq!(c.sets(), 1);
        c.touch(0);
        c.touch(32);
        c.touch(0); // line 0 most recent
        let r = c.touch_evict(2 * 32); // evicts line 1
        assert_eq!(r.evicted, Some(1));
        assert!(c.probe(0));
        assert!(!c.probe(32));
        assert!(c.probe(64));
    }

    #[test]
    fn sets_isolate_lines() {
        let mut c = CacheArray::new(4096, 2, 32); // 64 sets
        c.touch(0);
        c.touch(32); // different set
        assert!(c.probe(0) && c.probe(32));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = CacheArray::new(4096, 2, 32);
        c.touch(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn occupancy_counts_valid_lines() {
        let mut c = CacheArray::new(4096, 2, 32);
        assert_eq!(c.occupancy(), 0);
        for i in 0..10 {
            c.touch(i * 32);
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = CacheArray::new(4096, 2, 32);
        // Stream over 8 KB twice: second pass still misses (capacity).
        let mut second_pass_hits = 0;
        for _ in 0..2 {
            for i in 0..256u64 {
                if c.touch(i * 32) {
                    second_pass_hits += 1;
                }
            }
        }
        assert!(second_pass_hits < 200, "got {second_pass_hits} hits");
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        let mut c = CacheArray::new(4096, 2, 32);
        let mut hits = 0;
        for pass in 0..2 {
            for i in 0..64u64 {
                if c.touch(i * 32) {
                    hits += 1;
                }
            }
            if pass == 0 {
                assert_eq!(hits, 0);
            }
        }
        assert_eq!(hits, 64, "whole second pass must hit");
    }

    #[test]
    fn clone_from_copies_state_and_geometry() {
        let mut warm = CacheArray::new(4096, 2, 32);
        for i in 0..300u64 {
            warm.touch(i * 40);
        }
        let mut fresh = CacheArray::new(4096, 2, 32);
        fresh.clone_from(&warm);
        assert_eq!(fresh, warm);
        assert_eq!(fresh.touch_evict(0x9_0000), warm.touch_evict(0x9_0000));
        // A different geometry is overwritten wholesale, not mixed.
        let mut other = CacheArray::new(1024, 4, 64);
        other.clone_from(&warm);
        assert_eq!(other, warm);
        assert_eq!((other.size_bytes(), other.assoc(), other.line_bytes()), (4096, 2, 32));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size() {
        let _ = CacheArray::new(4096, 2, 48);
    }

    #[test]
    #[should_panic(expected = "smaller than one set")]
    fn cache_smaller_than_assoc() {
        let _ = CacheArray::new(32, 4, 32);
    }
}
