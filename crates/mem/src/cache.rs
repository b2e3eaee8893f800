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
    /// `ways[set * assoc..][..assoc]`: one set's resident line indices in
    /// recency order, most recently used first, with every valid way
    /// ahead of every [`INVALID`] one. The order is the LRU state, so a
    /// way is just its 8-byte tag: no per-way stamp and no global clock.
    /// That halves a megabyte-scale array's tag state and its warm
    /// snapshots, and lets one sweep keep a whole range of cache sizes
    /// live at once.
    ways: Vec<u64>,
}

/// Sentinel for an empty way. Line indices are addresses shifted right by
/// the line-offset bits, so `u64::MAX` can never collide with one.
const INVALID: u64 = u64::MAX;

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
            ways: vec![INVALID; (sets * u64::from(assoc)) as usize],
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

    /// The line index of `addr` and the range of its set's ways.
    fn locate(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
        let line = line_index(addr, self.line_bytes);
        let base = ((line & self.set_mask) * u64::from(self.assoc)) as usize;
        (line, base..base + self.assoc as usize)
    }

    /// `true` if the line containing `addr` is present (does not update
    /// LRU state).
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        self.ways[set].contains(&line)
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
        let (line, set) = self.locate(addr);
        let ways = &mut self.ways[set];
        // A hit at `p` moves the line to the front. A miss drops the LRU
        // tail, which is an invalid way if the set has one, and puts the
        // new line at the front. Both shift `ways[..p]` back by one.
        let hit_at = ways.iter().position(|&w| w == line);
        let p = hit_at.unwrap_or(ways.len() - 1);
        let victim = ways[p];
        ways.copy_within(..p, 1);
        ways[0] = line;
        match hit_at {
            Some(_) => TouchResult { hit: true, evicted: None },
            None => TouchResult { hit: false, evicted: (victim != INVALID).then_some(victim) },
        }
    }

    /// Removes the line containing `addr` if present; returns whether it
    /// was.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        let ways = &mut self.ways[set];
        let Some(p) = ways.iter().position(|&w| w == line) else {
            return false;
        };
        // Close the gap and park the freed way at the tail, behind every
        // valid way.
        ways.copy_within(p + 1.., p);
        ways[ways.len() - 1] = INVALID;
        true
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> u64 {
        self.ways.iter().filter(|&&w| w != INVALID).count() as u64
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

    /// The stamp-based array this one replaced: every way carries its
    /// last-use stamp from a global clock, a miss fills the first invalid
    /// way or else the smallest stamp. Kept as the reference model for the
    /// recency-ordered sets.
    #[derive(Clone)]
    struct StampArray {
        assoc: usize,
        line_bytes: u64,
        set_mask: u64,
        ways: Vec<(u64, u64)>,
        clock: u64,
    }

    impl StampArray {
        fn new(size_bytes: u64, assoc: u32, line_bytes: u64) -> Self {
            let sets = size_bytes / line_bytes / u64::from(assoc);
            let ways = vec![(INVALID, 0); (sets * u64::from(assoc)) as usize];
            StampArray { assoc: assoc as usize, line_bytes, set_mask: sets - 1, ways, clock: 0 }
        }

        fn set(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
            let line = line_index(addr, self.line_bytes);
            let base = (line & self.set_mask) as usize * self.assoc;
            (line, base..base + self.assoc)
        }

        fn probe(&self, addr: u64) -> bool {
            let (line, set) = self.set(addr);
            self.ways[set].iter().any(|w| w.0 == line)
        }

        fn touch_evict(&mut self, addr: u64) -> TouchResult {
            self.clock += 1;
            let (line, set) = self.set(addr);
            if let Some(w) = set.clone().find(|&w| self.ways[w].0 == line) {
                self.ways[w].1 = self.clock;
                return TouchResult { hit: true, evicted: None };
            }
            let victim = set
                .min_by_key(|&w| match self.ways[w] {
                    (INVALID, _) => (0, 0),
                    (_, stamp) => (1, stamp),
                })
                .unwrap();
            let evicted = (self.ways[victim].0 != INVALID).then_some(self.ways[victim].0);
            self.ways[victim] = (line, self.clock);
            TouchResult { hit: false, evicted }
        }

        fn invalidate(&mut self, addr: u64) -> bool {
            let (line, set) = self.set(addr);
            match set.into_iter().find(|&w| self.ways[w].0 == line) {
                Some(w) => {
                    self.ways[w] = (INVALID, 0);
                    true
                }
                None => false,
            }
        }

        fn occupancy(&self) -> u64 {
            self.ways.iter().filter(|w| w.0 != INVALID).count() as u64
        }
    }

    /// A random address over a footprint of a few times the cache's lines,
    /// so streams mix hits, conflict misses and invalidations of residents.
    fn addr(g: &mut hbc_ptest::Gen, lines: u64, line_bytes: u64) -> u64 {
        g.u64_below(lines * 3) * line_bytes + g.u64_below(line_bytes)
    }

    #[test]
    fn recency_order_matches_the_stamp_model() {
        hbc_ptest::check("cache matches stamp model", 128, |g| {
            let assoc = *g.pick(&[1u32, 2, 4, 8]);
            let line_bytes = *g.pick(&[16u64, 32, 64]);
            let sets = *g.pick(&[1u64, 2, 4, 16]);
            let size = sets * u64::from(assoc) * line_bytes;
            let lines = size / line_bytes;
            let mut cache = CacheArray::new(size, assoc, line_bytes);
            let mut model = StampArray::new(size, assoc, line_bytes);
            // A snapshot pair taken mid-stream, restored by `clone_from`.
            let mut saved = (cache.clone(), model.clone());
            for _ in 0..g.usize_in(1, 600) {
                let a = addr(g, lines, line_bytes);
                match g.u64_below(10) {
                    0..=3 => assert_eq!(cache.touch(a), model.touch_evict(a).hit),
                    4..=6 => assert_eq!(cache.touch_evict(a), model.touch_evict(a)),
                    7 => assert_eq!(cache.probe(a), model.probe(a)),
                    8 => assert_eq!(cache.invalidate(a), model.invalidate(a)),
                    _ if g.bool() => saved = (cache.clone(), model.clone()),
                    _ => {
                        cache.clone_from(&saved.0);
                        model = saved.1.clone();
                    }
                }
                assert_eq!(cache.occupancy(), model.occupancy());
            }
            for i in 0..lines * 3 {
                assert_eq!(cache.probe(i * line_bytes), model.probe(i * line_bytes));
            }
        });
    }

    #[test]
    fn valid_ways_precede_invalid_ones() {
        hbc_ptest::check("valid ways first", 64, |g| {
            let assoc = *g.pick(&[1u32, 2, 4, 8]);
            let mut cache = CacheArray::new(4 * u64::from(assoc) * 32, assoc, 32);
            for _ in 0..g.usize_in(1, 300) {
                let a = addr(g, 4 * u64::from(assoc), 32);
                if g.u64_below(3) == 0 {
                    cache.invalidate(a);
                } else {
                    cache.touch(a);
                }
                for set in cache.ways.chunks(assoc as usize) {
                    let valid = set.iter().take_while(|&&w| w != INVALID).count();
                    assert!(set[valid..].iter().all(|&w| w == INVALID), "{set:?}");
                }
            }
        });
    }

    #[test]
    fn larger_caches_include_smaller_ones() {
        // Same associativity and line size, more sets: LRU is a stack
        // algorithm and each larger set refines a smaller one, so every
        // hit in the smaller cache is a hit in the larger.
        hbc_ptest::check("cache inclusion", 96, |g| {
            let assoc = *g.pick(&[1u32, 2, 4, 8]);
            let sets = *g.pick(&[1u64, 2, 4, 8]);
            let small_size = sets * u64::from(assoc) * 32;
            let mut small = CacheArray::new(small_size, assoc, 32);
            let mut large = CacheArray::new(small_size << g.u32_in(1, 3), assoc, 32);
            let footprint = 4 * small_size / 32;
            for _ in 0..g.usize_in(1, 800) {
                let a = addr(g, footprint, 32);
                let (hit_small, hit_large) = (small.touch(a), large.touch(a));
                assert!(!hit_small || hit_large, "inclusion broken at {a:#x}");
            }
        });
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
