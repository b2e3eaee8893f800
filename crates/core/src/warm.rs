//! Memoized functional cache warm-up and a recorded measured stream.
//!
//! Every cell of a figure sweep warms its hierarchy with the same
//! `(benchmark, seed, cache_warm)` stream and then measures the same
//! instruction stream; only the memory configuration differs, and most of
//! that difference (ports, hit times, MSHRs, buses, latencies) never
//! reaches the warm state at all. This module keeps, per thread, the
//! stream being swept: the recorded warm addresses, a [`WarmState`]
//! snapshot for every hierarchy half and geometry it has warmed so far,
//! and a [`Recording`] of the measured instructions drawn after the warm
//! prefix. A cell then
//!
//! * restores each half whose geometry is known, which copies a tag array
//!   instead of replaying the stream;
//! * replays only the halves it has not seen (a new L1 size or line-buffer
//!   setting over a known L2 replays just `MemSystem::warm_touch_l1`), and
//!   snapshots them for the cells after it;
//! * fetches its measured instructions through a [`Replay`]: it decodes the
//!   records earlier cells left, and draws from the shared post-warm
//!   generator (recording as it goes) only past their end.
//!
//! A fig6 sweep thus replays each benchmark's warm stream once in full and
//! once more into the L1 alone (for its line-buffer cells), instead of
//! twelve full times, and generates its measured stream once instead of
//! twelve times.
//!
//! Correctness relies on four properties:
//!
//! * `WorkloadGen::next_warm` is deterministic in `(benchmark, seed)` and
//!   advances the generator by exactly one instruction, so the measured
//!   stream starts at id `cache_warm` whichever cell draws it;
//! * `MemSystem::warm_touch` consumes only the address sequence, and its
//!   two halves share no state, so replaying either half of the recorded
//!   addresses touches that half exactly as the inline loop would;
//! * a half's warm state depends only on its geometry, which
//!   `WarmState::fits` checks before every restore;
//! * a [`Record`] decodes to exactly the instruction it encoded (the unit
//!   tests round-trip every field).
//!
//! The memo is `thread_local`, never shared, and holds one stream: figure
//! drivers enumerate their cells benchmark-major, so a sweep never returns
//! to a stream it has left. The previous stream is dropped before the next
//! is generated, so two streams are never live at once. Parallel experiment
//! execution stays deterministic: results depend only on each cell's key
//! and configuration, never on which thread ran it or what ran before.

use std::cell::RefCell;
use std::rc::Rc;

use hbc_isa::{DynInst, ExecMode, InstId, OpClass};
use hbc_mem::{MemSystem, WarmLevel, WarmState};
use hbc_workloads::{Benchmark, WorkloadGen};

/// Execution modes by discriminant, for decoding.
const MODES: [ExecMode; 3] = [ExecMode::User, ExecMode::Kernel, ExecMode::Idle];

/// [`Record::word`] bits below the address.
const FLAG_BITS: u32 = 16;
const MODE_SHIFT: u32 = 4;
const TAKEN: u64 = 1 << 6;
const MISPREDICTED: u64 = 1 << 7;
const HAS_ADDR: u64 = 1 << 8;

/// One measured instruction in 16 bytes. Its id is implied by its position
/// in the recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    /// The address above [`FLAG_BITS`]; below it the op class (bits 0–3),
    /// the execution mode (4–5) and the taken, mispredicted and
    /// has-address bits.
    word: u64,
    /// How many instructions back each source operand's producer is (zero
    /// for no source).
    back: [u32; 2],
}

impl Record {
    /// Encodes `inst`.
    ///
    /// # Panics
    ///
    /// Panics if the address needs more than 48 bits or a producer is 2^32
    /// or more instructions back; stock workload streams stay far inside
    /// both.
    fn encode(inst: DynInst) -> Self {
        let id = inst.id().get();
        let back = |src: Option<InstId>| {
            let distance = src.map_or(0, |s| id - s.get());
            assert!(distance <= u64::from(u32::MAX), "source {distance} back exceeds a record");
            distance as u32
        };
        let addr = inst.addr().unwrap_or(0);
        assert!(addr >> (64 - FLAG_BITS) == 0, "address {addr:#x} exceeds a record");
        let mut word = addr << FLAG_BITS | inst.op() as u64 | (inst.mode() as u64) << MODE_SHIFT;
        for (set, bit) in [
            (inst.taken(), TAKEN),
            (inst.mispredicted(), MISPREDICTED),
            (inst.addr().is_some(), HAS_ADDR),
        ] {
            if set {
                word |= bit;
            }
        }
        let [a, b] = *inst.srcs();
        Record { word, back: [back(a), back(b)] }
    }

    /// The instruction this record encodes, given its id.
    fn decode(self, id: u64) -> DynInst {
        let op = OpClass::ALL[(self.word & 0xf) as usize];
        let mode = MODES[(self.word >> MODE_SHIFT & 3) as usize];
        let mut inst = DynInst::new(InstId::new(id), op, mode);
        for back in self.back.into_iter().filter(|&b| b != 0) {
            inst = inst.with_src(InstId::new(id - u64::from(back)));
        }
        if self.word & HAS_ADDR != 0 {
            inst = inst.with_addr(self.word >> FLAG_BITS);
        }
        if op.is_control() {
            inst = inst.with_branch(self.word & TAKEN != 0, self.word & MISPREDICTED != 0);
        }
        inst
    }
}

/// The measured stream of one key, as far as any cell has drawn it.
struct Recording {
    /// Id of the first measured instruction (the warm prefix's length).
    first_id: u64,
    records: Vec<Record>,
    /// The generator positioned after the last recorded instruction.
    gen: WorkloadGen,
}

impl Recording {
    /// Makes room for `draws` records in one allocation, so a sweep never
    /// grows the buffer by doubling.
    fn reserve(&mut self, draws: u64) {
        let draws = usize::try_from(draws).unwrap_or(usize::MAX);
        if draws > self.records.capacity() {
            self.records.reserve_exact(draws - self.records.len());
        }
    }
}

/// A cell's measured instruction stream: the shared recording from its
/// start, extended from the shared generator past its end.
pub(crate) struct Replay {
    recording: Rc<RefCell<Recording>>,
    next: usize,
}

impl Iterator for Replay {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        let mut rec = self.recording.borrow_mut();
        let i = self.next;
        self.next += 1;
        let id = rec.first_id + i as u64;
        if let Some(record) = rec.records.get(i) {
            return Some(record.decode(id));
        }
        let inst = rec.gen.next_inst();
        debug_assert_eq!(inst.id().get(), id);
        rec.records.push(Record::encode(inst));
        Some(inst)
    }
}

/// The warm stream of one `(benchmark, seed, cache_warm)` key, the
/// hierarchy snapshots warmed from it and its recorded measured stream.
struct WarmStream {
    key: (Benchmark, u64, u64),
    /// Every address the warm stream touched, in order.
    addrs: Vec<u64>,
    /// One snapshot per (level, geometry) warmed so far.
    snapshots: Vec<WarmState>,
    measured: Rc<RefCell<Recording>>,
}

impl WarmStream {
    fn generate(key: (Benchmark, u64, u64)) -> Self {
        let (benchmark, seed, cache_warm) = key;
        let mut gen = WorkloadGen::new(benchmark, seed);
        // At most one address per draw, reserved once: growing by doubling
        // would briefly hold the old and the new buffer, and the pages
        // past the last address touched are never made resident.
        let mut addrs = Vec::with_capacity(usize::try_from(cache_warm).unwrap_or(0));
        for _ in 0..cache_warm {
            if let Some(addr) = gen.next_warm() {
                addrs.push(addr);
            }
        }
        let measured = Recording { first_id: cache_warm, records: Vec::new(), gen };
        WarmStream { key, addrs, snapshots: Vec::new(), measured: Rc::new(RefCell::new(measured)) }
    }

    /// Brings both halves of `mem` to their post-warm state and returns
    /// the measured stream, with room recorded for `draws` instructions.
    fn warm(&mut self, mem: &mut MemSystem, draws: u64) -> Replay {
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
        self.measured.borrow_mut().reserve(draws);
        Replay { recording: Rc::clone(&self.measured), next: 0 }
    }
}

thread_local! {
    /// The stream this thread is sweeping, if any.
    static WARM_STREAM: RefCell<Option<WarmStream>> = const { RefCell::new(None) };
}

/// Warms the freshly built `mem` with the `(benchmark, seed, cache_warm)`
/// warm stream and returns the measured stream that follows it,
/// generating and memoizing the warm stream on a miss. `draws` bounds the
/// instructions the caller will fetch, so the recording is sized once.
pub(crate) fn warm(
    benchmark: Benchmark,
    seed: u64,
    cache_warm: u64,
    draws: u64,
    mem: &mut MemSystem,
) -> Replay {
    let key = (benchmark, seed, cache_warm);
    WARM_STREAM.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.as_ref().is_some_and(|stream| stream.key != key) {
            *slot = None;
        }
        slot.get_or_insert_with(|| WarmStream::generate(key)).warm(mem, draws)
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
    /// hierarchy exactly where the inline loop does, and every cell's
    /// measured stream — replayed, extended past the recording, or both —
    /// must be the post-warm generator's.
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
        for (cell, cfg) in configs.into_iter().enumerate() {
            let mut inline = MemSystem::new(cfg.clone()).unwrap();
            let mut inline_gen = inline_warm(Benchmark::Gcc, 7, 5_000, &mut inline);
            // Alternately shorter and longer than the cells before.
            let draws = if cell % 2 == 0 { 40 + 30 * cell } else { 20 };
            let mut memo = MemSystem::new(cfg.clone()).unwrap();
            let mut replay = warm(Benchmark::Gcc, 7, 5_000, draws as u64, &mut memo);
            for level in [WarmLevel::L1, WarmLevel::L2] {
                assert_eq!(memo.save_warm(level), inline.save_warm(level), "{cfg:?}");
            }
            for _ in 0..draws {
                assert_eq!(replay.next(), Some(inline_gen.next_inst()), "{cfg:?}");
            }
        }
        // Three SRAM L1 geometries (32K with and without a line buffer,
        // 8K), two DRAM row-cache ones, and one L2 snapshot per
        // second-level geometry.
        assert_eq!(memo_len(), 5 + 2);
        WARM_STREAM.with(|slot| {
            let slot = slot.borrow();
            let rec = slot.as_ref().unwrap().measured.borrow();
            assert_eq!(rec.records.len(), 40 + 30 * 4, "each instruction is drawn once");
            assert_eq!(rec.records.capacity(), rec.records.len(), "reserved, never doubled");
        });
    }

    #[test]
    fn one_stream_per_thread() {
        let cfg = MemConfig::paper_sram(16 << 10, 1, PortModel::Duplicate);
        for seed in 0..3 {
            let mut memo = MemSystem::new(cfg.clone()).unwrap();
            let mut replay = warm(Benchmark::Li, seed, 200, 1, &mut memo);
            let mut inline = MemSystem::new(cfg.clone()).unwrap();
            let mut fresh = inline_warm(Benchmark::Li, seed, 200, &mut inline);
            assert_eq!(memo.save_warm(WarmLevel::L1), inline.save_warm(WarmLevel::L1));
            assert_eq!(replay.next(), Some(fresh.next_inst()));
            WARM_STREAM.with(|slot| {
                let slot = slot.borrow();
                assert_eq!(slot.as_ref().map(|s| s.key), Some((Benchmark::Li, seed, 200)));
            });
            assert_eq!(memo_len(), 2, "a new key starts from an empty snapshot set");
        }
    }

    #[test]
    fn records_round_trip_every_field() {
        let id = InstId::new(1 << 31);
        for op in OpClass::ALL {
            for mode in MODES {
                let base = DynInst::new(id, op, mode);
                let mut variants = vec![
                    base,
                    base.with_src(InstId::new(0)),
                    base.with_src(InstId::new(7)).with_src(InstId::new(id.get() - 1)),
                ];
                if op.is_mem() {
                    variants = variants.into_iter().map(|i| i.with_addr((1 << 48) - 8)).collect();
                    variants.push(base.with_addr(0));
                }
                if op.is_control() {
                    let outcomes = [(false, false), (true, false), (false, true), (true, true)];
                    variants = outcomes
                        .iter()
                        .flat_map(|&(t, m)| variants.iter().map(move |i| i.with_branch(t, m)))
                        .collect();
                }
                for inst in variants {
                    assert_eq!(Record::encode(inst).decode(id.get()), inst);
                }
            }
        }
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }
}
