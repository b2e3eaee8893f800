//! Memoized functional cache warm-up.
//!
//! Every cell of a figure sweep warms its hierarchy with the same
//! `(benchmark, seed, cache_warm)` stream; only the memory configuration
//! differs, and most of that difference (ports, hit times, MSHRs, buses,
//! latencies) never reaches the warm state at all. This module keeps, per
//! thread, the stream being swept: the post-warm generator, the recorded
//! warm addresses, and a [`WarmState`] snapshot for every hierarchy half
//! and geometry it has warmed so far. A cell then
//!
//! * restores each half whose geometry is known, which copies a tag array
//!   instead of replaying the stream;
//! * replays only the halves it has not seen (a new L1 size or line-buffer
//!   setting over a known L2 replays just `MemSystem::warm_touch_l1`), and
//!   snapshots them for the cells after it.
//!
//! A fig6 sweep thus replays each benchmark's stream once in full and once
//! more into the L1 alone (for its line-buffer cells), instead of twelve
//! full times.
//!
//! Correctness relies on three properties:
//!
//! * `WorkloadGen::next_warm` is deterministic in `(benchmark, seed)`, so a
//!   clone of the post-warm generator is indistinguishable from one that
//!   advanced itself;
//! * `MemSystem::warm_touch` consumes only the address sequence, and its
//!   two halves share no state, so replaying either half of the recorded
//!   addresses touches that half exactly as the inline loop would;
//! * a half's warm state depends only on its geometry, which
//!   `WarmState::fits` checks before every restore.
//!
//! The memo is `thread_local`, never shared, and holds one stream: figure
//! drivers enumerate their cells benchmark-major, so a sweep never returns
//! to a stream it has left. The previous stream is dropped before the next
//! is generated, so two streams are never live at once. Parallel experiment
//! execution stays deterministic: results depend only on each cell's key
//! and configuration, never on which thread ran it or what ran before.

use std::cell::RefCell;

use hbc_mem::{MemSystem, WarmLevel, WarmState};
use hbc_workloads::{Benchmark, WorkloadGen};

/// The warm stream of one `(benchmark, seed, cache_warm)` key and the
/// hierarchy snapshots warmed from it.
struct WarmStream {
    key: (Benchmark, u64, u64),
    /// The generator state after `cache_warm` warm draws.
    gen: WorkloadGen,
    /// Every address the warm stream touched, in order.
    addrs: Vec<u64>,
    /// One snapshot per (level, geometry) warmed so far.
    snapshots: Vec<WarmState>,
}

impl WarmStream {
    fn generate(key: (Benchmark, u64, u64)) -> Self {
        let (benchmark, seed, cache_warm) = key;
        let mut gen = WorkloadGen::new(benchmark, seed);
        let mut addrs = Vec::new();
        for _ in 0..cache_warm {
            if let Some(addr) = gen.next_warm() {
                addrs.push(addr);
            }
        }
        // Doubling growth leaves up to half the buffer unused for as long
        // as the stream is kept.
        addrs.shrink_to_fit();
        WarmStream { key, gen, addrs, snapshots: Vec::new() }
    }

    /// Brings both halves of `mem` to their post-warm state and returns
    /// the post-warm generator.
    fn warm(&mut self, mem: &mut MemSystem) -> WorkloadGen {
        for level in [WarmLevel::L1, WarmLevel::L2] {
            let known = self.snapshots.iter().find(|s| s.level() == level && s.fits(mem.config()));
            if let Some(snapshot) = known {
                mem.restore_warm(snapshot);
                continue;
            }
            match level {
                WarmLevel::L1 => self.addrs.iter().for_each(|&addr| mem.warm_touch_l1(addr)),
                WarmLevel::L2 => self.addrs.iter().for_each(|&addr| mem.warm_touch_l2(addr)),
            }
            self.snapshots.push(mem.save_warm(level));
        }
        self.gen.clone()
    }
}

thread_local! {
    /// The stream this thread is sweeping, if any.
    static WARM_STREAM: RefCell<Option<WarmStream>> = const { RefCell::new(None) };
}

/// Warms the freshly built `mem` with the `(benchmark, seed, cache_warm)`
/// warm stream and returns the post-warm generator, generating and
/// memoizing the stream on a miss.
pub(crate) fn warm(
    benchmark: Benchmark,
    seed: u64,
    cache_warm: u64,
    mem: &mut MemSystem,
) -> WorkloadGen {
    let key = (benchmark, seed, cache_warm);
    WARM_STREAM.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.as_ref().is_some_and(|stream| stream.key != key) {
            *slot = None;
        }
        slot.get_or_insert_with(|| WarmStream::generate(key)).warm(mem)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_mem::{MemConfig, PortModel};

    /// The inline warm-up the memo replaces.
    fn inline_warm(benchmark: Benchmark, seed: u64, n: u64, mem: &mut MemSystem) -> WorkloadGen {
        let mut gen = WorkloadGen::new(benchmark, seed);
        for _ in 0..n {
            if let Some(addr) = gen.next_warm() {
                mem.warm_touch(addr);
            }
        }
        gen
    }

    fn memo_len() -> usize {
        WARM_STREAM.with(|slot| slot.borrow().as_ref().map_or(0, |s| s.snapshots.len()))
    }

    /// Every memo path (cold, restored, half-replayed) must leave the
    /// hierarchy and generator exactly where the inline loop does.
    #[test]
    fn memo_matches_inline_warm() {
        let configs = [
            MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate),
            MemConfig::paper_sram(32 << 10, 3, PortModel::Banked(8)),
            MemConfig::paper_sram(32 << 10, 2, PortModel::Duplicate).with_line_buffer(),
            MemConfig::paper_dram(6),
            MemConfig::paper_sram(8 << 10, 1, PortModel::Ideal(2)),
            MemConfig::paper_dram(8).with_line_buffer(),
        ];
        for cfg in configs {
            let mut inline = MemSystem::new(cfg.clone()).unwrap();
            let inline_gen = inline_warm(Benchmark::Gcc, 7, 5_000, &mut inline);
            let mut memo = MemSystem::new(cfg.clone()).unwrap();
            let memo_gen = warm(Benchmark::Gcc, 7, 5_000, &mut memo);
            for level in [WarmLevel::L1, WarmLevel::L2] {
                assert_eq!(memo.save_warm(level), inline.save_warm(level), "{cfg:?}");
            }
            let (mut a, mut b) = (memo_gen, inline_gen);
            for _ in 0..64 {
                assert_eq!(a.next_inst(), b.next_inst());
            }
        }
        // Three SRAM L1 geometries (32K with and without a line buffer,
        // 8K), two DRAM row-cache ones, and one L2 snapshot per
        // second-level geometry.
        assert_eq!(memo_len(), 5 + 2);
    }

    #[test]
    fn one_stream_per_thread() {
        let cfg = MemConfig::paper_sram(16 << 10, 1, PortModel::Duplicate);
        for seed in 0..3 {
            let mut memo = MemSystem::new(cfg.clone()).unwrap();
            let mut gen = warm(Benchmark::Li, seed, 200, &mut memo);
            let mut inline = MemSystem::new(cfg.clone()).unwrap();
            let mut fresh = inline_warm(Benchmark::Li, seed, 200, &mut inline);
            assert_eq!(memo.save_warm(WarmLevel::L1), inline.save_warm(WarmLevel::L1));
            assert_eq!(gen.next_inst(), fresh.next_inst());
            WARM_STREAM.with(|slot| {
                let slot = slot.borrow();
                assert_eq!(slot.as_ref().map(|s| s.key), Some((Benchmark::Li, seed, 200)));
            });
            assert_eq!(memo_len(), 2, "a new key starts from an empty snapshot set");
        }
    }
}
