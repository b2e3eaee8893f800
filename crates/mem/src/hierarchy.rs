//! The complete on-chip memory system (paper Figure 2).

use crate::addr::line_index;
use crate::bus::Bus;
use crate::cache::CacheArray;
use crate::config::{ConfigError, MemConfig, SecondLevel};
use crate::line_buffer::LineBuffer;
use crate::mshr::MshrFile;
use crate::ports::{PortDenied, PortTracker};
use crate::stats::MemStats;
use crate::store_buffer::StoreBuffer;
use hbc_probe::{saturating_count, ProbeExport, ProbeRegistry};

/// Why the memory system could not accept a load this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// All cache ports are servicing accesses this cycle.
    PortsBusy,
    /// The addressed bank is busy this cycle (banked caches).
    BankConflict,
    /// All miss status handling registers are occupied.
    MshrFull,
}

/// Outcome of presenting a load to the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadResponse {
    /// Satisfied by the line buffer without touching a cache port; data
    /// available at `complete_at` (one cycle).
    LineBufferHit {
        /// Absolute cycle the data is available.
        complete_at: u64,
    },
    /// Primary-cache hit through a port.
    Hit {
        /// Absolute cycle the data is available (`now + hit_cycles`).
        complete_at: u64,
    },
    /// Primary-cache miss; the lock-up-free cache continues servicing other
    /// accesses while the fill is outstanding.
    Miss {
        /// Absolute cycle the fill (and therefore this load) completes.
        complete_at: u64,
    },
    /// Not accepted this cycle; retry next cycle.
    Rejected(RejectReason),
}

impl LoadResponse {
    /// The completion cycle, if the load was accepted.
    pub fn complete_at(&self) -> Option<u64> {
        match *self {
            LoadResponse::LineBufferHit { complete_at }
            | LoadResponse::Hit { complete_at }
            | LoadResponse::Miss { complete_at } => Some(complete_at),
            LoadResponse::Rejected(_) => None,
        }
    }
}

/// One half of the hierarchy's functional state, as [`WarmState`]
/// snapshots it.
///
/// [`MemSystem::warm_touch`] updates the two halves independently (the
/// second level sees every address whether or not the primary cache hit),
/// so each half's post-warm state depends only on the address stream and
/// that half's own geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmLevel {
    /// The primary cache's tags plus the line buffer. Geometry: L1 size,
    /// associativity and line; line-buffer entries and entry size.
    L1,
    /// The second level's tags (SRAM L2 or DRAM cache). Geometry: size,
    /// associativity and line.
    L2,
}

/// A saved copy of one [`WarmLevel`] of a warmed [`MemSystem`]: tag arrays
/// with their LRU state, and the line buffer's recency list.
///
/// Warm state does not depend on ports, hit times, MSHRs, buses or
/// latencies, so one snapshot serves every configuration whose geometry
/// [`fits`](WarmState::fits). Restoring one is
/// [`MemSystem::restore_warm`]; a geometry mismatch is rejected.
///
/// # Example
///
/// ```
/// use hbc_mem::{MemConfig, MemSystem, PortModel, WarmLevel};
///
/// let mut warmed = MemSystem::new(MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate))?;
/// warmed.warm_touch(0x4000);
/// let l2 = warmed.save_warm(WarmLevel::L2);
/// // Same geometry, different ports and hit time: the snapshot fits.
/// let mut cell = MemSystem::new(MemConfig::paper_sram(8 << 10, 3, PortModel::Banked(8)))?;
/// assert!(l2.fits(cell.config()));
/// cell.restore_warm(&l2);
/// # Ok::<(), hbc_mem::ConfigError>(())
/// ```
#[derive(Debug, PartialEq)]
pub struct WarmState(Snapshot);

#[derive(Debug, PartialEq)]
enum Snapshot {
    L1 { l1: CacheArray, lb: Option<LineBuffer> },
    L2(CacheArray),
}

impl WarmState {
    /// The half of the hierarchy this snapshot holds.
    pub fn level(&self) -> WarmLevel {
        match self.0 {
            Snapshot::L1 { .. } => WarmLevel::L1,
            Snapshot::L2(_) => WarmLevel::L2,
        }
    }

    /// `true` if a system built from `cfg` has this snapshot's geometry
    /// at its level, so [`MemSystem::restore_warm`] accepts it.
    pub fn fits(&self, cfg: &MemConfig) -> bool {
        match &self.0 {
            Snapshot::L1 { l1, lb } => {
                (l1.size_bytes(), l1.assoc(), l1.line_bytes())
                    == (cfg.l1.size_bytes, cfg.l1.assoc, cfg.l1.line_bytes)
                    && lb.as_ref().map(|lb| (lb.entries(), lb.line_bytes()))
                        == cfg.l1.line_buffer.map(|c| (c.entries, c.line_bytes))
            }
            Snapshot::L2(l2) => (l2.size_bytes(), l2.assoc(), l2.line_bytes()) == cfg.l2.geometry(),
        }
    }
}

/// The memory hierarchy: optional line buffer, lock-up-free multi-ported
/// primary data cache, second level (off-chip SRAM L2 or on-chip DRAM
/// cache), bandwidth-limited buses, and main memory.
///
/// Drive it one cycle at a time:
///
/// 1. [`MemSystem::begin_cycle`] — retires completed fills, frees ports;
/// 2. any number of [`MemSystem::try_load`] / [`MemSystem::commit_store`];
/// 3. [`MemSystem::end_cycle`] — drains buffered stores into idle ports.
///
/// # Example
///
/// ```
/// use hbc_mem::{LoadResponse, MemConfig, MemSystem, PortModel};
///
/// let cfg = MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate);
/// let mut mem = MemSystem::new(cfg)?;
/// mem.begin_cycle(100);
/// // A cold access misses and reports when its fill completes.
/// match mem.try_load(0x4000) {
///     LoadResponse::Miss { complete_at } => assert!(complete_at > 100),
///     other => panic!("expected a miss, got {other:?}"),
/// }
/// mem.end_cycle();
/// # Ok::<(), hbc_mem::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    l1: CacheArray,
    l2: CacheArray,
    lb: Option<LineBuffer>,
    mshrs: MshrFile,
    ports: PortTracker,
    stores: StoreBuffer,
    chip_bus: Bus,
    mem_bus: Bus,
    now: u64,
    stats: MemStats,
    /// Whether the line buffer holds whole L1 lines, so L1 evictions must
    /// invalidate it (hoisted out of the per-eviction hot path).
    lb_mirrors_l1: bool,
}

impl MemSystem {
    /// Builds a memory system from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if `cfg` is inconsistent.
    pub fn new(cfg: MemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (l2_size, l2_assoc, l2_line) = cfg.l2.geometry();
        Ok(MemSystem {
            l1: CacheArray::new(cfg.l1.size_bytes, cfg.l1.assoc, cfg.l1.line_bytes),
            l2: CacheArray::new(l2_size, l2_assoc, l2_line),
            lb: cfg.l1.line_buffer.map(|c| LineBuffer::new(c.entries, c.line_bytes)),
            mshrs: MshrFile::new(cfg.l1.mshrs),
            ports: PortTracker::new(cfg.l1.ports, cfg.l1.line_bytes),
            stores: StoreBuffer::new(cfg.store_buffer),
            chip_bus: Bus::new(cfg.chip_bus_bytes_per_cycle),
            mem_bus: Bus::new(cfg.mem_bus_bytes_per_cycle),
            now: 0,
            stats: MemStats::default(),
            lb_mirrors_l1: cfg.l1.line_buffer.map(|c| c.line_bytes) == Some(cfg.l1.line_bytes),
            cfg,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Starts cycle `now`: retires completed fills and frees the ports.
    pub fn begin_cycle(&mut self, now: u64) {
        debug_assert!(now >= self.now, "cycles must be monotone");
        #[cfg(feature = "sanitize")]
        assert!(now >= self.now, "sanitize: cycle went backwards ({} after {})", now, self.now);
        self.now = now;
        self.mshrs.retire(now);
        self.ports.begin_cycle();
        #[cfg(feature = "sanitize")]
        self.assert_invariants();
    }

    /// Presents a load to `addr`.
    ///
    /// Rejected loads consumed no resources and should be retried next
    /// cycle. Accepted loads report their absolute completion cycle; the
    /// caller is responsible for waking dependents then.
    pub fn try_load(&mut self, addr: u64) -> LoadResponse {
        saturating_count(&mut self.stats.load_requests, 1);
        let line = line_index(addr, self.cfg.l1.line_bytes);
        // A line whose fill is still outstanding reads as present in the tag
        // array (fills update tags at allocation time), so the MSHR file is
        // consulted first: accesses to in-flight lines are secondary misses
        // and must not be short-circuited by the (optimistically filled)
        // line buffer either.
        let merge_with = self.mshrs.pending(line);
        if merge_with.is_none() {
            if let Some(lb) = &mut self.lb {
                if lb.lookup(addr) {
                    saturating_count(&mut self.stats.lb_hits, 1);
                    return LoadResponse::LineBufferHit { complete_at: self.now + 1 };
                }
            }
        }
        let would_hit = merge_with.is_none() && self.l1.probe(addr);
        if !would_hit && merge_with.is_none() && self.mshrs.in_flight() == self.mshrs.capacity() {
            saturating_count(&mut self.stats.mshr_rejections, 1);
            return LoadResponse::Rejected(RejectReason::MshrFull);
        }
        if let Err(denied) = self.ports.acquire_load(addr) {
            saturating_count(&mut self.stats.load_rejections, 1);
            return LoadResponse::Rejected(match denied {
                PortDenied::PortsBusy => RejectReason::PortsBusy,
                PortDenied::BankConflict => RejectReason::BankConflict,
            });
        }
        let touch = self.l1.touch_evict(addr);
        self.fill_line_buffer(addr, touch.evicted);
        if would_hit {
            saturating_count(&mut self.stats.l1_load_hits, 1);
            return LoadResponse::Hit { complete_at: self.now + self.cfg.l1.hit_cycles };
        }
        saturating_count(&mut self.stats.l1_load_misses, 1);
        let miss_seen_at = self.now + self.cfg.l1.hit_cycles;
        let complete_at = match merge_with {
            Some(fill_at) => {
                self.mshrs.note_merge();
                saturating_count(&mut self.stats.miss_merges, 1);
                fill_at.max(miss_seen_at)
            }
            None => {
                let fill_at = self.fill_from_below(addr, miss_seen_at);
                self.mshrs
                    .allocate(line, fill_at)
                    .expect("MSHR availability was checked before the port");
                fill_at
            }
        };
        LoadResponse::Miss { complete_at }
    }

    /// Accepts a committed store into the store buffer; returns `false`
    /// when the buffer is full (the caller must stall commit and retry).
    pub fn commit_store(&mut self, addr: u64) -> bool {
        if self.stores.push(addr) {
            saturating_count(&mut self.stats.stores, 1);
            true
        } else {
            false
        }
    }

    /// Ends the cycle: drains buffered stores into whatever port slots the
    /// loads left idle.
    pub fn end_cycle(&mut self) {
        while let Some(addr) = self.stores.peek() {
            let line = line_index(addr, self.cfg.l1.line_bytes);
            let merged = self.mshrs.pending(line).is_some();
            let hit = !merged && self.l1.probe(addr);
            if !hit && !merged && self.mshrs.in_flight() == self.mshrs.capacity() {
                break; // write-allocate needs an MSHR; retry next cycle
            }
            if self.ports.acquire_store(addr).is_err() {
                break;
            }
            self.stores.pop();
            let touch = self.l1.touch_evict(addr);
            if !hit {
                saturating_count(&mut self.stats.store_misses, 1);
                if merged {
                    self.mshrs.note_merge();
                    saturating_count(&mut self.stats.miss_merges, 1);
                } else {
                    let fill_at = self.fill_from_below(addr, self.now + self.cfg.l1.hit_cycles);
                    self.mshrs
                        .allocate(line, fill_at)
                        .expect("MSHR availability was checked before the port");
                }
            }
            if let Some(evicted) = touch.evicted {
                self.invalidate_lb_line(evicted);
            }
        }
        #[cfg(feature = "sanitize")]
        self.assert_invariants();
    }

    /// Sanitizer: checks the cross-component invariants the cycle protocol
    /// is supposed to maintain. Called from [`MemSystem::begin_cycle`] and
    /// [`MemSystem::end_cycle`] in `sanitize` builds; any violation is a
    /// simulator bug, so it panics.
    #[cfg(feature = "sanitize")]
    fn assert_invariants(&self) {
        // Ports: a cycle can never hand out more accesses than the model's
        // peak bandwidth.
        let peak = self.cfg.l1.ports.peak_per_cycle();
        assert!(
            self.ports.used() <= peak,
            "sanitize: {} port grants in one cycle exceed the peak of {peak}",
            self.ports.used()
        );
        // MSHRs: bounded, unique, and retired promptly (leak detection).
        self.mshrs.assert_sane(self.now);
        // Store buffer: bounded by its configured depth.
        assert!(
            self.stores.len() <= self.cfg.store_buffer,
            "sanitize: {} buffered stores exceed the {}-entry store buffer",
            self.stores.len(),
            self.cfg.store_buffer
        );
        // Line buffer: bounded and duplicate-free; and when its entries are
        // whole L1 lines, every resident line must still be resident in the
        // L1 (evictions invalidate it), keeping the two levels coherent.
        if let Some(lb) = &self.lb {
            lb.assert_sane();
            if lb.line_bytes() == self.cfg.l1.line_bytes {
                for line in lb.resident_lines() {
                    let addr = line * self.cfg.l1.line_bytes;
                    assert!(
                        self.l1.probe(addr),
                        "sanitize: line buffer holds line {line:#x} absent from the L1"
                    );
                }
            }
        }
    }

    /// Computes the absolute completion cycle of a primary-cache fill whose
    /// miss is detected at `t0`, reserving bus bandwidth along the way.
    fn fill_from_below(&mut self, addr: u64, t0: u64) -> u64 {
        let l1_line = self.cfg.l1.line_bytes;
        let l2_hit = self.l2.touch(addr);
        match self.cfg.l2 {
            SecondLevel::Sram { hit_cycles, .. } => {
                if l2_hit {
                    saturating_count(&mut self.stats.l2_hits, 1);
                    // The 10-cycle (50 ns) hit time covers the round trip;
                    // the chip bus is reserved for the line transfer so
                    // later fills queue behind it, but an uncontended bus
                    // adds no latency beyond the hit time.
                    let data_ready = t0 + hit_cycles;
                    let xfer = self.chip_bus.reserve(t0, l1_line);
                    data_ready.max(xfer + self.chip_bus.transfer_cycles(l1_line))
                } else {
                    saturating_count(&mut self.stats.l2_misses, 1);
                    let fetch = self.cfg.mem_fetch_bytes;
                    let mem_ready = t0 + hit_cycles + self.cfg.mem_latency;
                    let mem_xfer = self.mem_bus.reserve(mem_ready, fetch);
                    let l2_filled = mem_xfer + self.mem_bus.transfer_cycles(fetch);
                    let xfer = self.chip_bus.reserve(l2_filled, l1_line);
                    xfer + self.chip_bus.transfer_cycles(l1_line)
                }
            }
            SecondLevel::Dram { hit_cycles, .. } => {
                // The DRAM cache is on the processor die: its row buffers
                // are the row-buffer cache, so a hit costs only the DRAM
                // access and no bus transfer.
                if l2_hit {
                    saturating_count(&mut self.stats.l2_hits, 1);
                    t0 + hit_cycles
                } else {
                    saturating_count(&mut self.stats.l2_misses, 1);
                    let fetch = self.cfg.mem_fetch_bytes;
                    let mem_ready = t0 + hit_cycles + self.cfg.mem_latency;
                    let mem_xfer = self.mem_bus.reserve(mem_ready, fetch);
                    mem_xfer + self.mem_bus.transfer_cycles(fetch)
                }
            }
        }
    }

    fn fill_line_buffer(&mut self, addr: u64, l1_evicted: Option<u64>) {
        if let Some(lb) = &mut self.lb {
            lb.fill(addr);
        }
        if let Some(evicted) = l1_evicted {
            self.invalidate_lb_line(evicted);
        }
    }

    /// Invalidates the line-buffer copy of an evicted L1 line (only when
    /// the granularities coincide; the DRAM row cache's 512-byte rows span
    /// many 32-byte buffer entries and are left to LRU).
    fn invalidate_lb_line(&mut self, l1_line: u64) {
        if self.lb_mirrors_l1 {
            if let Some(lb) = &mut self.lb {
                lb.invalidate(l1_line * self.cfg.l1.line_bytes);
            }
        }
    }

    /// Functionally touches `addr` in every level without consuming ports,
    /// MSHRs, or bus bandwidth and without counting statistics.
    ///
    /// Used to pre-warm the hierarchy to the steady state a trace hundreds
    /// of millions of instructions long (as in the paper) would reach,
    /// before cycle-accurate measurement begins. It is exactly
    /// [`MemSystem::warm_touch_l1`] followed by [`MemSystem::warm_touch_l2`]:
    /// the halves share no state, so a stream may also be replayed one
    /// half at a time.
    pub fn warm_touch(&mut self, addr: u64) {
        self.warm_touch_l1(addr);
        self.warm_touch_l2(addr);
    }

    /// The [`WarmLevel::L1`] half of [`MemSystem::warm_touch`]: the primary
    /// cache and the line buffer.
    pub fn warm_touch_l1(&mut self, addr: u64) {
        let touch = self.l1.touch_evict(addr);
        if let Some(lb) = &mut self.lb {
            lb.fill(addr);
        }
        if let Some(evicted) = touch.evicted {
            self.invalidate_lb_line(evicted);
        }
    }

    /// The [`WarmLevel::L2`] half of [`MemSystem::warm_touch`]: the second
    /// level.
    pub fn warm_touch_l2(&mut self, addr: u64) {
        self.l2.touch(addr);
    }

    /// Saves the functional state of one half of the hierarchy, normally
    /// right after warming.
    pub fn save_warm(&self, level: WarmLevel) -> WarmState {
        WarmState(match level {
            WarmLevel::L1 => Snapshot::L1 { l1: self.l1.clone(), lb: self.lb.clone() },
            WarmLevel::L2 => Snapshot::L2(self.l2.clone()),
        })
    }

    /// Restores a [`MemSystem::save_warm`] snapshot into this system,
    /// which should be freshly built: the result answers every later
    /// access exactly as if the snapshot's address stream had been warmed
    /// into it. The other half is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry does not [`fit`](WarmState::fits)
    /// this system's configuration.
    pub fn restore_warm(&mut self, state: &WarmState) {
        assert!(
            state.fits(&self.cfg),
            "warm state of another {:?} geometry restored into this system",
            state.level()
        );
        match &state.0 {
            Snapshot::L1 { l1, lb } => {
                self.l1.clone_from(l1);
                self.lb.clone_from(lb);
            }
            Snapshot::L2(l2) => self.l2.clone_from(l2),
        }
    }

    /// First cycle at or after `t` the oldest buffered store could drain,
    /// assuming the ports stay clear of loads from `t` on (the only state
    /// in which the event-horizon engine asks). `None` when the buffer is
    /// empty.
    ///
    /// With idle ports a store always wins a slot, so the one blocker left
    /// is write-allocate needing a register: a store whose line hits the L1
    /// or merges with an outstanding fill drains immediately; otherwise it
    /// waits for the first free MSHR.
    pub fn store_drain_at(&self, t: u64) -> Option<u64> {
        let addr = self.stores.peek()?;
        let line = line_index(addr, self.cfg.l1.line_bytes);
        if self.mshrs.pending(line).is_some_and(|c| c > t) || self.l1.probe(addr) {
            return Some(t);
        }
        Some(self.mshrs.free_at(t))
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Line-buffer hit ratio over its lookups (zero without a line buffer).
    pub fn lb_hit_ratio(&self) -> f64 {
        self.lb.as_ref().map(|lb| lb.hit_ratio()).unwrap_or(0.0)
    }

    /// Lifetime bank-conflict count (banked caches).
    pub fn bank_conflicts(&self) -> u64 {
        self.ports.bank_conflicts()
    }

    /// Stores still waiting to drain.
    pub fn pending_stores(&self) -> usize {
        self.stores.len()
    }

    /// Outstanding misses.
    pub fn misses_in_flight(&self) -> usize {
        self.mshrs.in_flight()
    }
}

impl ProbeExport for MemSystem {
    /// Exports the [`MemStats`] counters plus the port-arbitration and
    /// line-buffer counters only the components themselves track.
    fn export_probes(&self, reg: &mut ProbeRegistry) {
        self.stats.export_probes(reg);
        reg.counter("mem.ports.bank_conflicts").set(self.ports.bank_conflicts());
        reg.counter("mem.ports.rejections").set(self.ports.port_rejections());
        reg.counter("mem.lb.lookups").set(self.lb.as_ref().map(|lb| lb.lookups()).unwrap_or(0));
        reg.counter("mem.store.pending").set(self.stores.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PortModel;

    fn system(ports: PortModel, hit: u64, lb: bool) -> MemSystem {
        let mut cfg = MemConfig::paper_sram(32 << 10, hit, ports);
        if lb {
            cfg = cfg.with_line_buffer();
        }
        MemSystem::new(cfg).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = system(PortModel::Ideal(2), 1, false);
        m.begin_cycle(0);
        let r = m.try_load(0x1000);
        // Cold in both levels:
        // 1 (hit detect) + 10 (L2) + 60 (memory) + 8 (64 B over 8 B/c)
        // + 3 (32 B over 12.5 B/c chip bus) = 82.
        assert_eq!(r.complete_at(), Some(82));
        assert_eq!(m.stats().l2_misses, 1);
        m.end_cycle();
        // Once resident, the same line is a one-cycle-hit-time L1 hit.
        m.begin_cycle(200);
        match m.try_load(0x1000) {
            LoadResponse::Hit { complete_at } => assert_eq!(complete_at, 201),
            other => panic!("{other:?}"),
        }
        m.end_cycle();
        // A different L1 line in the same (now warm) 64-byte L2 line: the
        // 10-cycle hit covers the transfer on an uncontended bus, so
        // 1 + 10 = 11 cycles.
        m.begin_cycle(300);
        match m.try_load(0x1020) {
            LoadResponse::Miss { complete_at } => assert_eq!(complete_at, 311),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().l2_hits, 1);
        m.end_cycle();
    }

    #[test]
    fn line_buffer_catches_spatial_reuse() {
        let mut m = system(PortModel::Duplicate, 2, true);
        m.begin_cycle(0);
        assert!(matches!(m.try_load(0x3000), LoadResponse::Miss { .. }));
        m.end_cycle();
        // After the fill completes, the same 32-byte line is in the line
        // buffer and returns in one cycle without touching a port.
        m.begin_cycle(100);
        match m.try_load(0x3008) {
            LoadResponse::LineBufferHit { complete_at } => assert_eq!(complete_at, 101),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().lb_hits, 1);
    }

    #[test]
    fn ports_limit_loads_per_cycle() {
        let mut m = system(PortModel::Duplicate, 1, false);
        // Warm three distinct lines (fills take ~82 cycles when cold).
        for (i, a) in [0x100u64, 0x200, 0x300].iter().enumerate() {
            m.begin_cycle(i as u64 * 100);
            m.try_load(*a);
            m.end_cycle();
        }
        m.begin_cycle(1000);
        assert!(matches!(m.try_load(0x100), LoadResponse::Hit { .. }));
        assert!(matches!(m.try_load(0x200), LoadResponse::Hit { .. }));
        assert_eq!(m.try_load(0x300), LoadResponse::Rejected(RejectReason::PortsBusy));
        m.end_cycle();
    }

    #[test]
    fn banked_cache_conflicts_within_cycle() {
        let mut m = system(PortModel::Banked(8), 1, false);
        // Warm two lines in the same bank (0x000 and 0x100 are both bank 0).
        m.begin_cycle(0);
        m.try_load(0x000);
        m.end_cycle();
        m.begin_cycle(100);
        m.try_load(0x100);
        m.end_cycle();
        m.begin_cycle(1000);
        assert!(matches!(m.try_load(0x000), LoadResponse::Hit { .. }));
        assert_eq!(m.try_load(0x100), LoadResponse::Rejected(RejectReason::BankConflict));
        // A different bank is still available.
        assert!(matches!(m.try_load(0x020), LoadResponse::Miss { .. }));
        m.end_cycle();
    }

    #[test]
    fn mshr_exhaustion_rejects_new_misses() {
        let mut m = system(PortModel::Ideal(4), 1, false);
        m.begin_cycle(0);
        for i in 0..4u64 {
            assert!(matches!(m.try_load(0x1_0000 + i * 32), LoadResponse::Miss { .. }));
        }
        m.end_cycle();
        m.begin_cycle(1);
        assert_eq!(
            m.try_load(0x9_0000),
            LoadResponse::Rejected(RejectReason::MshrFull),
            "fifth distinct miss needs a fifth MSHR"
        );
        // But a merge into an outstanding line is fine.
        assert!(matches!(m.try_load(0x1_0008), LoadResponse::Miss { .. }));
        assert_eq!(m.stats().miss_merges, 1);
        m.end_cycle();
        // After the fills complete, MSHRs free up.
        m.begin_cycle(200);
        assert!(matches!(m.try_load(0x9_0000), LoadResponse::Miss { .. }));
        m.end_cycle();
    }

    #[test]
    fn merged_loads_complete_with_the_fill() {
        let mut m = system(PortModel::Ideal(2), 1, false);
        m.begin_cycle(0);
        let first = m.try_load(0x5000).complete_at().unwrap();
        m.end_cycle();
        m.begin_cycle(3);
        let merged = m.try_load(0x5010).complete_at().unwrap();
        assert_eq!(merged, first, "secondary miss completes with the primary fill");
        m.end_cycle();
    }

    #[test]
    fn duplicate_stores_drain_only_into_idle_cycles() {
        let mut m = system(PortModel::Duplicate, 1, false);
        m.begin_cycle(0);
        assert!(m.commit_store(0x100));
        // Loads occupy the cache this cycle, so the store stays buffered.
        m.try_load(0x200);
        m.end_cycle();
        assert_eq!(m.pending_stores(), 1);
        // An idle cycle lets it drain into both copies.
        m.begin_cycle(1);
        m.end_cycle();
        assert_eq!(m.pending_stores(), 0);
    }

    #[test]
    fn store_buffer_backpressure() {
        let mut m = system(PortModel::Duplicate, 1, false);
        m.begin_cycle(0);
        for i in 0..16u64 {
            assert!(m.commit_store(i * 64), "store {i}");
        }
        assert!(!m.commit_store(0x9999), "17th store must stall commit");
        m.end_cycle();
    }

    #[test]
    fn dram_cache_hits_cost_dram_latency() {
        let mut m = MemSystem::new(MemConfig::paper_dram(6)).unwrap();
        m.begin_cycle(0);
        let r = m.try_load(0x4_0000);
        // Cold everywhere: 1 (row cache) + 6 (DRAM) + 60 (memory) + 64
        // (a full 512-byte row over the 8 B/cycle memory bus); being
        // on-chip there is no chip-bus transfer. Total 131.
        assert_eq!(r.complete_at(), Some(131));
        assert_eq!(m.stats().l2_misses, 1);
        m.end_cycle();
        // Same 512-byte row now hits the row-buffer cache in one cycle.
        m.begin_cycle(200);
        match m.try_load(0x4_01f8) {
            LoadResponse::Hit { complete_at } => assert_eq!(complete_at, 201),
            other => panic!("{other:?}"),
        }
        m.end_cycle();
        // Push the row out of the 2-way row-buffer cache with two more rows
        // of the same set (sets are 16 at 512-byte rows, so 8 KB apart).
        for (i, a) in [0x4_2000u64, 0x4_4000].iter().enumerate() {
            m.begin_cycle(400 + 200 * i as u64);
            m.try_load(*a);
            m.end_cycle();
        }
        // The evicted row is still in the 4 MB DRAM: row-cache miss, DRAM
        // hit costs 1 + 6 cycles.
        m.begin_cycle(1000);
        match m.try_load(0x4_0000) {
            LoadResponse::Miss { complete_at } => assert_eq!(complete_at, 1007),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().l2_hits, 1);
        m.end_cycle();
    }

    #[test]
    fn pipelined_hit_time_reflected_in_completion() {
        for hit in 1..=3u64 {
            let mut m = system(PortModel::Duplicate, hit, false);
            m.begin_cycle(0);
            m.try_load(0x700);
            m.end_cycle();
            m.begin_cycle(1000);
            assert_eq!(m.try_load(0x700).complete_at(), Some(1000 + hit));
            m.end_cycle();
        }
    }

    #[test]
    fn warm_touch_fills_all_levels_without_stats() {
        let mut m = system(PortModel::Duplicate, 1, true);
        m.warm_touch(0x8000);
        assert_eq!(m.stats().load_requests, 0, "warming is invisible to statistics");
        m.begin_cycle(10);
        match m.try_load(0x8000) {
            // The line buffer was warmed too.
            LoadResponse::LineBufferHit { complete_at } => assert_eq!(complete_at, 11),
            other => panic!("{other:?}"),
        }
        m.end_cycle();
    }

    #[test]
    fn warm_touch_reaches_the_second_level() {
        let mut m = system(PortModel::Duplicate, 1, false);
        // Warm a line, then evict it from L1 by warming its set neighbours
        // (32K two-way, 512 sets: 16K apart aliases the same set).
        m.warm_touch(0x0);
        m.warm_touch(0x4000);
        m.warm_touch(0x8000);
        m.begin_cycle(0);
        // L1 miss but L2 hit: 1 + 10 = 11 on an idle bus.
        assert_eq!(m.try_load(0x0).complete_at(), Some(11));
        m.end_cycle();
    }

    /// A deterministic address stream over `span` bytes: dense enough to
    /// revisit lines and wide enough to evict from a small L1.
    fn stream(seed: u64, n: usize, span: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 17) % span
            })
            .collect()
    }

    /// Drives two loads and one store per cycle through `m` and returns
    /// every answer plus the final statistics.
    fn drive(m: &mut MemSystem, addrs: &[u64]) -> (Vec<LoadResponse>, Vec<bool>, MemStats) {
        let mut loads = Vec::new();
        let mut stores = Vec::new();
        for (t, group) in addrs.chunks(3).enumerate() {
            m.begin_cycle(t as u64 * 5);
            for &a in &group[..group.len().min(2)] {
                loads.push(m.try_load(a));
            }
            if let Some(&a) = group.get(2) {
                stores.push(m.commit_store(a));
            }
            m.end_cycle();
        }
        (loads, stores, m.stats().clone())
    }

    /// The geometries the figures use: SRAM with and without the line
    /// buffer, and the DRAM cache's 512-byte row-buffer L1.
    fn warm_configs() -> Vec<MemConfig> {
        vec![
            MemConfig::paper_sram(4 << 10, 1, PortModel::Ideal(2)),
            MemConfig::paper_sram(4 << 10, 2, PortModel::Duplicate).with_line_buffer(),
            MemConfig::paper_sram(32 << 10, 3, PortModel::Banked(8)).with_line_buffer(),
            MemConfig::paper_dram(6),
            MemConfig::paper_dram(8).with_line_buffer(),
        ]
    }

    #[test]
    fn restored_snapshot_answers_like_replay() {
        let warm = stream(1, 20_000, 96 << 10);
        let probe = stream(2, 3_000, 128 << 10);
        for cfg in warm_configs() {
            let mut replayed = MemSystem::new(cfg.clone()).unwrap();
            for &a in &warm {
                replayed.warm_touch(a);
            }
            // Warm a donor whose ports and latencies differ: warm state
            // depends on geometry only.
            let mut donor_cfg = cfg.clone().with_l2_hit_cycles(25).with_mem_latency(150);
            donor_cfg.l1.ports = PortModel::Ideal(1);
            donor_cfg.l1.hit_cycles = 3;
            donor_cfg.l1.mshrs = 1;
            let mut donor = MemSystem::new(donor_cfg).unwrap();
            for &a in &warm {
                donor.warm_touch(a);
            }
            let mut restored = MemSystem::new(cfg.clone()).unwrap();
            restored.restore_warm(&donor.save_warm(WarmLevel::L1));
            restored.restore_warm(&donor.save_warm(WarmLevel::L2));
            for level in [WarmLevel::L1, WarmLevel::L2] {
                assert_eq!(restored.save_warm(level), replayed.save_warm(level), "{cfg:?}");
            }
            assert_eq!(drive(&mut restored, &probe), drive(&mut replayed, &probe), "{cfg:?}");
        }
    }

    #[test]
    fn half_replays_compose_to_warm_touch() {
        let warm = stream(3, 10_000, 64 << 10);
        let probe = stream(4, 1_500, 64 << 10);
        for cfg in warm_configs() {
            let mut whole = MemSystem::new(cfg.clone()).unwrap();
            for &a in &warm {
                whole.warm_touch(a);
            }
            // One pass per half, in either order.
            let mut halves = MemSystem::new(cfg.clone()).unwrap();
            for &a in &warm {
                halves.warm_touch_l2(a);
            }
            for &a in &warm {
                halves.warm_touch_l1(a);
            }
            for level in [WarmLevel::L1, WarmLevel::L2] {
                assert_eq!(halves.save_warm(level), whole.save_warm(level), "{cfg:?}");
            }
            assert_eq!(drive(&mut halves, &probe), drive(&mut whole, &probe), "{cfg:?}");
        }
    }

    #[test]
    fn restored_line_buffer_keeps_eviction_invalidations() {
        // 4 KB, 2-way, 64 sets: 0x0000 / 0x0800 / 0x1000 share set 0, so
        // the third warm touch evicts 0x0000 from the L1 and its line
        // buffer copy with it.
        let cfg = MemConfig::paper_sram(4 << 10, 1, PortModel::Ideal(4)).with_line_buffer();
        let mut donor = MemSystem::new(cfg.clone()).unwrap();
        for a in [0x0000u64, 0x0800, 0x1000] {
            donor.warm_touch(a);
        }
        let mut m = MemSystem::new(cfg).unwrap();
        m.restore_warm(&donor.save_warm(WarmLevel::L1));
        m.restore_warm(&donor.save_warm(WarmLevel::L2));
        m.begin_cycle(10);
        assert!(matches!(m.try_load(0x1008), LoadResponse::LineBufferHit { .. }));
        // Evicted from both: an L1 miss that hits the warmed L2.
        assert_eq!(m.try_load(0x0008), LoadResponse::Miss { complete_at: 21 });
        m.end_cycle();
    }

    #[test]
    fn snapshots_fit_by_geometry_only() {
        let m = MemSystem::new(MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate)).unwrap();
        let (l1, l2) = (m.save_warm(WarmLevel::L1), m.save_warm(WarmLevel::L2));
        assert_eq!((l1.level(), l2.level()), (WarmLevel::L1, WarmLevel::L2));
        let other_timing = MemConfig::paper_sram(32 << 10, 3, PortModel::Banked(8))
            .with_l2_hit_cycles(20)
            .with_mem_latency(90);
        assert!(l1.fits(&other_timing) && l2.fits(&other_timing));
        let other_size = MemConfig::paper_sram(16 << 10, 1, PortModel::Duplicate);
        assert!(!l1.fits(&other_size) && l2.fits(&other_size));
        let with_lb = MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate).with_line_buffer();
        assert!(!l1.fits(&with_lb), "a line buffer changes the L1 half's geometry");
        let dram = MemConfig::paper_dram(6);
        assert!(!l1.fits(&dram) && !l2.fits(&dram), "512-byte rows and lines");
    }

    #[test]
    #[should_panic(expected = "warm state of another L1 geometry")]
    fn restore_rejects_another_l1_geometry() {
        let donor = system(PortModel::Duplicate, 1, false);
        let mut m = system(PortModel::Duplicate, 1, true);
        m.restore_warm(&donor.save_warm(WarmLevel::L1));
    }

    #[test]
    #[should_panic(expected = "warm state of another L2 geometry")]
    fn restore_rejects_another_l2_geometry() {
        let donor = MemSystem::new(MemConfig::paper_dram(6)).unwrap();
        let mut m = system(PortModel::Duplicate, 1, false);
        m.restore_warm(&donor.save_warm(WarmLevel::L2));
    }

    #[test]
    fn rejected_loads_consume_nothing() {
        let mut m = system(PortModel::Duplicate, 1, false);
        m.begin_cycle(0);
        // Four distinct misses fill the MSHRs (two per cycle through the
        // duplicate ports).
        m.try_load(0x1_0000);
        m.try_load(0x2_0000);
        m.end_cycle();
        m.begin_cycle(1);
        m.try_load(0x3_0000);
        m.try_load(0x4_0000);
        m.end_cycle();
        m.begin_cycle(2);
        let before = m.stats().l1_load_misses;
        assert!(matches!(m.try_load(0x5_0000), LoadResponse::Rejected(RejectReason::MshrFull)));
        assert_eq!(m.stats().l1_load_misses, before, "rejections must not count as misses");
        assert_eq!(m.stats().mshr_rejections, 1);
        // The port was not consumed either: a hit to an in-flight line
        // merges through the port just fine.
        assert!(matches!(m.try_load(0x1_0008), LoadResponse::Miss { .. }));
        m.end_cycle();
    }

    #[test]
    fn store_misses_write_allocate() {
        let mut m = system(PortModel::Ideal(2), 1, false);
        m.begin_cycle(0);
        assert!(m.commit_store(0x9000));
        m.end_cycle();
        assert_eq!(m.stats().store_misses, 1);
        assert_eq!(m.misses_in_flight(), 1, "write-allocate holds an MSHR");
        // After the fill completes the line is resident for loads.
        m.begin_cycle(500);
        assert!(matches!(m.try_load(0x9000), LoadResponse::Hit { .. }));
        m.end_cycle();
    }

    #[test]
    fn eviction_invalidates_line_buffer_copy() {
        // 4 KB cache, 2-way, 64 sets: lines 0x0000 / 0x0800 / 0x1000 share
        // set 0; filling three evicts the LRU one.
        let mut cfg = MemConfig::paper_sram(4 << 10, 1, PortModel::Ideal(4));
        cfg = cfg.with_line_buffer();
        let mut m = MemSystem::new(cfg).unwrap();
        for (t, a) in [0x0000u64, 0x0800, 0x1000].iter().enumerate() {
            m.begin_cycle(t as u64 * 100);
            m.try_load(*a);
            m.end_cycle();
        }
        // 0x0000 was evicted from L1 and must be gone from the LB too.
        m.begin_cycle(1000);
        match m.try_load(0x0008) {
            LoadResponse::Miss { .. } => {}
            other => panic!("expected L1+LB miss, got {other:?}"),
        }
        m.end_cycle();
    }
}
