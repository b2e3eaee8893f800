//! The dynamic instruction stream generator.

use std::collections::VecDeque;

use hbc_isa::{DynInst, ExecMode, InstId, OpClass};

use crate::regions::PatternState;
use crate::spec::BenchmarkSpec;
use crate::{Benchmark, Rng};

/// Mean length, in instructions, of one kernel or user execution burst.
/// System activity arrives in syscall/interrupt-sized chunks rather than
/// being interleaved per instruction.
const MODE_RUN_LEN: u64 = 400;

/// Fraction of control transfers that are unconditional jumps/calls.
const JUMP_FRAC: f64 = 0.15;

/// Misprediction probability for unconditional control (BTB miss, indirect
/// target).
const JUMP_MISPREDICT: f64 = 0.02;

#[derive(Debug, Clone)]
struct ProcState {
    patterns: Vec<PatternState>,
    cumulative: Vec<f64>,
    last_chase: Option<InstId>,
}

impl ProcState {
    fn new(specs: &[(f64, crate::PatternSpec)], base: u64, rng: &mut Rng) -> Self {
        let total: f64 = specs.iter().map(|(w, _)| w.max(0.0)).sum();
        let mut acc = 0.0;
        let mut patterns = Vec::with_capacity(specs.len());
        let mut cumulative = Vec::with_capacity(specs.len());
        for (j, (w, p)) in specs.iter().enumerate() {
            acc += w.max(0.0) / total;
            cumulative.push(acc);
            // 32 MB of address space per pattern keeps footprints disjoint;
            // the extra non-power-of-two skew keeps different regions from
            // aliasing to the same cache sets (real allocations start at
            // arbitrary offsets, not at megabyte boundaries).
            let skew = (j as u64) * (32 << 20) + (j as u64) * 4200;
            patterns.push(PatternState::new(*p, base + skew, rng));
        }
        ProcState { patterns, cumulative, last_chase: None }
    }

    fn pick(&mut self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cumulative.iter().position(|c| u < *c).unwrap_or(self.patterns.len() - 1)
    }
}

/// An infinite, deterministic stream of [`DynInst`]s modeling one benchmark.
///
/// The generator is an [`Iterator`] that never ends; the processor model
/// pulls as many instructions as the simulation needs. Two generators built
/// from the same `(spec, seed)` produce identical streams.
///
/// # Example
///
/// ```
/// use hbc_workloads::{Benchmark, WorkloadGen};
///
/// let insts: Vec<_> = WorkloadGen::new(Benchmark::Gcc, 1).take(1000).collect();
/// assert_eq!(insts.len(), 1000);
/// let loads = insts.iter().filter(|i| i.op().is_load()).count();
/// assert!(loads > 200 && loads < 360); // gcc is 28.1% loads
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    spec: BenchmarkSpec,
    rng: Rng,
    next_id: u64,
    procs: Vec<ProcState>,
    kernel: ProcState,
    cur_proc: usize,
    since_switch: u64,
    kernel_frac: f64,
    cur_mode: ExecMode,
    mode_run_left: u64,
    /// Ids of the most recent loads, the preferred producers for the
    /// load-use dependences that make timing sensitive to cache latency.
    recent_loads: VecDeque<InstId>,
    /// `ln(1 - 1/dep_mean)`, hoisted out of the per-instruction geometric
    /// samples (`None` when `dep_mean == 1.0`, which draws nothing).
    dep_denom: Option<f64>,
    /// `ln(1 - 1/MODE_RUN_LEN)` for the mode-burst length samples.
    mode_denom: f64,
}

impl WorkloadGen {
    /// Creates a generator for one of the nine paper benchmarks.
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        Self::from_spec(benchmark.spec(), seed)
    }

    /// Creates a generator from a custom specification.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`BenchmarkSpec::validate`].
    pub fn from_spec(spec: BenchmarkSpec, seed: u64) -> Self {
        #[expect(clippy::panic, reason = "documented panic on an invalid spec")]
        if let Err(e) = spec.validate() {
            panic!("invalid benchmark spec: {e}");
        }
        let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let procs = (0..spec.processes)
            .map(|p| {
                let base = ((u64::from(p) + 1) << 33) + u64::from(p) * 53_248;
                ProcState::new(&spec.user_mem, base, &mut rng)
            })
            .collect();
        let kernel = ProcState::new(&spec.kernel_mem, 1 << 45, &mut rng);
        let kernel_frac = spec.table2.kernel_frac();
        let dep_denom = (spec.dep_mean > 1.0).then(|| crate::Rng::geometric_denom(spec.dep_mean));
        let mode_denom = crate::Rng::geometric_denom(MODE_RUN_LEN as f64);
        WorkloadGen {
            spec,
            rng,
            next_id: 0,
            procs,
            kernel,
            cur_proc: 0,
            since_switch: 0,
            kernel_frac,
            cur_mode: ExecMode::User,
            mode_run_left: 0,
            recent_loads: VecDeque::with_capacity(8),
            dep_denom,
            mode_denom,
        }
    }

    /// The specification driving this generator.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    fn advance_mode(&mut self) {
        if self.mode_run_left == 0 {
            self.cur_mode =
                if self.rng.chance(self.kernel_frac) { ExecMode::Kernel } else { ExecMode::User };
            self.mode_run_left = 1 + self.rng.geometric_with(self.mode_denom);
        }
        self.mode_run_left -= 1;
    }

    fn advance_process(&mut self) {
        if self.spec.processes > 1 {
            self.since_switch += 1;
            if self.since_switch >= self.spec.ctx_interval {
                self.since_switch = 0;
                self.cur_proc = (self.cur_proc + 1) % self.procs.len();
            }
        }
    }

    fn sample_compute_op(&mut self) -> OpClass {
        if self.rng.chance(self.spec.fp_frac) {
            if self.rng.chance(self.spec.fp_long_frac) {
                if self.rng.chance(0.15) {
                    OpClass::FpSqrt
                } else {
                    OpClass::FpDiv
                }
            } else if self.rng.chance(0.5) {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            }
        } else if self.rng.chance(self.spec.int_long_frac) {
            if self.rng.chance(0.1) {
                OpClass::IntDiv
            } else {
                OpClass::IntMul
            }
        } else {
            OpClass::IntAlu
        }
    }

    fn dep_src(&mut self, id: InstId) -> Option<InstId> {
        // `geometric(1.0)` is the drawless constant 1; otherwise sample
        // through the cached denominator (bit-identical to `geometric`).
        let distance = match self.dep_denom {
            None => 1,
            Some(denom) => self.rng.geometric_with(denom),
        };
        id.back(distance)
    }

    /// Draw-parity stand-in for [`WorkloadGen::dep_src`] when the sampled
    /// producer is discarded (warm-up): consumes the identical randomness
    /// without the two `ln` calls.
    fn skip_dep_src(&mut self) {
        if self.dep_denom.is_some() {
            let _ = self.rng.next_u64();
        }
    }

    /// Samples a source operand: a recent load with probability
    /// `load_use_prob`, otherwise a geometrically distant producer.
    fn value_src(&mut self, id: InstId) -> Option<InstId> {
        if !self.recent_loads.is_empty() && self.rng.chance(self.spec.load_use_prob) {
            // Mostly the very latest load (classic load-use), occasionally
            // a slightly older one.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`below(len)` is less than a usize length"
            )]
            let i = if self.rng.chance(0.7) {
                self.recent_loads.len() - 1
            } else {
                self.rng.below(self.recent_loads.len() as u64) as usize
            };
            return Some(self.recent_loads[i]);
        }
        self.dep_src(id)
    }

    /// Draw-parity stand-in for [`WorkloadGen::value_src`] when the result
    /// is discarded: the `&&` short-circuit and the branch on the first
    /// draw are replicated exactly, because both gate further draws.
    fn skip_value_src(&mut self) {
        if !self.recent_loads.is_empty() && self.rng.chance(self.spec.load_use_prob) {
            if !self.rng.chance(0.7) {
                let _ = self.rng.below(self.recent_loads.len() as u64);
            }
        } else {
            self.skip_dep_src();
        }
    }

    /// Draw-parity stand-in for [`WorkloadGen::sample_compute_op`]: every
    /// chance gates the next, so the full tree is walked with the sampled
    /// opcode discarded.
    fn skip_compute_op(&mut self) {
        if self.rng.chance(self.spec.fp_frac) {
            if self.rng.chance(self.spec.fp_long_frac) {
                let _ = self.rng.chance(0.15);
            } else {
                let _ = self.rng.chance(0.5);
            }
        } else if self.rng.chance(self.spec.int_long_frac) {
            let _ = self.rng.chance(0.1);
        }
    }

    fn note_load(&mut self, id: InstId) {
        if self.recent_loads.len() == 8 {
            self.recent_loads.pop_front();
        }
        self.recent_loads.push_back(id);
    }

    /// Generates the next instruction (never `None`; exposed for callers
    /// that want a non-iterator interface).
    pub fn next_inst(&mut self) -> DynInst {
        self.advance_mode();
        self.advance_process();
        let id = InstId::new(self.next_id);
        self.next_id += 1;
        let mode = self.cur_mode;

        let u = self.rng.next_f64() * 100.0;
        let load_cut = self.spec.table2.load_pct;
        let store_cut = load_cut + self.spec.table2.store_pct;
        let branch_cut = store_cut + self.spec.branch_frac * 100.0;

        let state_idx = if mode == ExecMode::Kernel { None } else { Some(self.cur_proc) };

        if u < store_cut {
            // Memory operation: pick a pattern in the current mode's space.
            // Split the RNG borrow: choose pattern index first.
            let (pat_idx, addr, dependent) = {
                let rng = &mut self.rng;
                let state = match state_idx {
                    None => &mut self.kernel,
                    Some(p) => &mut self.procs[p],
                };
                let idx = state.pick(rng);
                let dependent = state.patterns[idx].spec().is_dependent();
                let addr = state.patterns[idx].next_addr(rng);
                (idx, addr, dependent)
            };
            let _ = pat_idx;
            let is_load = u < load_cut;
            let op = if is_load { OpClass::Load } else { OpClass::Store };
            let mut inst = DynInst::new(id, op, mode).with_addr(addr);
            if is_load {
                self.note_load(id);
            }
            if is_load && dependent {
                let state = match state_idx {
                    None => &mut self.kernel,
                    Some(p) => &mut self.procs[p],
                };
                if let Some(prev) = state.last_chase {
                    inst = inst.with_src(prev);
                }
                state.last_chase = Some(id);
            } else {
                // Address (and for stores, data) computed from earlier work.
                if let Some(s) = self.dep_src(id) {
                    inst = inst.with_src(s);
                }
                if !is_load {
                    if let Some(s) = self.value_src(id) {
                        if inst.srcs()[1].is_none() && Some(s) != inst.srcs()[0] {
                            inst = inst.with_src(s);
                        }
                    }
                }
            }
            inst
        } else if u < branch_cut {
            let is_jump = self.rng.chance(JUMP_FRAC);
            let (op, taken, mispredicted) = if is_jump {
                (OpClass::Jump, true, self.rng.chance(JUMP_MISPREDICT))
            } else {
                (
                    OpClass::Branch,
                    self.rng.chance(self.spec.taken_frac),
                    self.rng.chance(1.0 - self.spec.branch_accuracy),
                )
            };
            let mut inst = DynInst::new(id, op, mode).with_branch(taken, mispredicted);
            if let Some(s) = self.value_src(id) {
                inst = inst.with_src(s);
            }
            inst
        } else {
            let op = self.sample_compute_op();
            let mut inst = DynInst::new(id, op, mode);
            if let Some(s) = self.value_src(id) {
                inst = inst.with_src(s);
            }
            if self.rng.chance(self.spec.two_src_prob) {
                if let Some(s) = self.dep_src(id) {
                    if inst.srcs()[1].is_none() && Some(s) != inst.srcs()[0] {
                        inst = inst.with_src(s);
                    }
                }
            }
            inst
        }
    }

    /// The warm-up fast path: advances the generator by exactly one
    /// instruction — identical RNG draws, ids, mode/process/pattern
    /// cursors, `recent_loads` and chase state as [`WorkloadGen::next_inst`]
    /// — and returns only the memory address (`None` for non-memory
    /// instructions), skipping the [`DynInst`] assembly and the discarded
    /// dependency-distance logarithms.
    ///
    /// Interleaving `next_warm` and `next_inst` in any order yields the
    /// same stream as calling `next_inst` alone: functional cache warming
    /// can run here without perturbing the measured phase.
    pub fn next_warm(&mut self) -> Option<u64> {
        self.advance_mode();
        self.advance_process();
        let id = InstId::new(self.next_id);
        self.next_id += 1;
        let mode = self.cur_mode;

        let u = self.rng.next_f64() * 100.0;
        let load_cut = self.spec.table2.load_pct;
        let store_cut = load_cut + self.spec.table2.store_pct;
        let branch_cut = store_cut + self.spec.branch_frac * 100.0;

        let state_idx = if mode == ExecMode::Kernel { None } else { Some(self.cur_proc) };

        if u < store_cut {
            let (addr, dependent) = {
                let rng = &mut self.rng;
                let state = match state_idx {
                    None => &mut self.kernel,
                    Some(p) => &mut self.procs[p],
                };
                let idx = state.pick(rng);
                let dependent = state.patterns[idx].spec().is_dependent();
                let addr = state.patterns[idx].next_addr(rng);
                (addr, dependent)
            };
            let is_load = u < load_cut;
            if is_load {
                self.note_load(id);
            }
            if is_load && dependent {
                let state = match state_idx {
                    None => &mut self.kernel,
                    Some(p) => &mut self.procs[p],
                };
                state.last_chase = Some(id);
            } else {
                self.skip_dep_src();
                if !is_load {
                    self.skip_value_src();
                }
            }
            Some(addr)
        } else if u < branch_cut {
            if self.rng.chance(JUMP_FRAC) {
                let _ = self.rng.chance(JUMP_MISPREDICT);
            } else {
                let _ = self.rng.chance(self.spec.taken_frac);
                let _ = self.rng.chance(1.0 - self.spec.branch_accuracy);
            }
            self.skip_value_src();
            None
        } else {
            self.skip_compute_op();
            self.skip_value_src();
            if self.rng.chance(self.spec.two_src_prob) {
                self.skip_dep_src();
            }
            None
        }
    }
}

impl Iterator for WorkloadGen {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        Some(self.next_inst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential() {
        let gen = WorkloadGen::new(Benchmark::Li, 3);
        for (i, inst) in gen.take(500).enumerate() {
            assert_eq!(inst.id().get(), i as u64);
        }
    }

    #[test]
    fn warm_path_keeps_full_parity() {
        for bench in [Benchmark::Gcc, Benchmark::Li, Benchmark::Tomcatv, Benchmark::Database] {
            let mut fast = WorkloadGen::new(bench, 9);
            let mut slow = WorkloadGen::new(bench, 9);
            // Same addresses in the warm phase...
            for i in 0..20_000 {
                assert_eq!(fast.next_warm(), slow.next_inst().addr(), "{bench} diverged at {i}");
            }
            // ...and identical instructions (ids, sources, chase state,
            // recent-load seeding) ever after.
            for i in 0..5_000 {
                assert_eq!(fast.next_inst(), slow.next_inst(), "{bench} tail diverged at {i}");
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = WorkloadGen::new(Benchmark::Database, 9).take(2000).collect();
        let b: Vec<_> = WorkloadGen::new(Benchmark::Database, 9).take(2000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = WorkloadGen::new(Benchmark::Gcc, 1).take(200).collect();
        let b: Vec<_> = WorkloadGen::new(Benchmark::Gcc, 2).take(200).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn instruction_mix_tracks_table2() {
        for bench in [Benchmark::Gcc, Benchmark::Tomcatv, Benchmark::Database] {
            let spec = bench.spec();
            let n = 60_000;
            let insts: Vec<_> = WorkloadGen::new(bench, 5).take(n).collect();
            let pct = |f: &dyn Fn(&DynInst) -> bool| {
                100.0 * insts.iter().filter(|i| f(i)).count() as f64 / n as f64
            };
            let loads = pct(&|i| i.op().is_load());
            let stores = pct(&|i| i.op().is_store());
            assert!((loads - spec.table2.load_pct).abs() < 1.5, "{bench}: loads {loads}");
            assert!((stores - spec.table2.store_pct).abs() < 1.0, "{bench}: stores {stores}");
        }
    }

    #[test]
    fn memory_ops_have_addresses() {
        for inst in WorkloadGen::new(Benchmark::Vcs, 7).take(5000) {
            if inst.is_mem() {
                assert!(inst.addr().is_some());
            } else {
                assert!(inst.addr().is_none());
            }
        }
    }

    #[test]
    fn kernel_fraction_matches_spec() {
        let bench = Benchmark::Database; // 52% of non-idle time in kernel
        let n = 400_000;
        let kernel =
            WorkloadGen::new(bench, 11).take(n).filter(|i| i.mode() == ExecMode::Kernel).count();
        let frac = kernel as f64 / n as f64;
        let expect = bench.spec().table2.kernel_frac();
        assert!((frac - expect).abs() < 0.06, "kernel frac {frac} vs {expect}");
    }

    #[test]
    fn fp_benchmarks_emit_fp_ops() {
        let fp_ops =
            WorkloadGen::new(Benchmark::Tomcatv, 1).take(20_000).filter(|i| i.op().is_fp()).count();
        assert!(fp_ops > 5000, "tomcatv should be fp-heavy, got {fp_ops}");
        let int_fp =
            WorkloadGen::new(Benchmark::Li, 1).take(20_000).filter(|i| i.op().is_fp()).count();
        assert!(int_fp < 200, "li should be almost fp-free, got {int_fp}");
    }

    #[test]
    fn branch_misprediction_rate_tracks_accuracy() {
        let spec = Benchmark::Gcc.spec();
        let branches: Vec<_> = WorkloadGen::new(Benchmark::Gcc, 2)
            .take(200_000)
            .filter(|i| i.op() == OpClass::Branch)
            .collect();
        let mis = branches.iter().filter(|b| b.mispredicted()).count() as f64;
        let rate = mis / branches.len() as f64;
        assert!((rate - (1.0 - spec.branch_accuracy)).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn chase_loads_depend_on_previous_chase() {
        // li has a pointer-chase pattern; some loads must depend on earlier
        // loads (not just nearby compute).
        let insts: Vec<_> = WorkloadGen::new(Benchmark::Li, 4).take(50_000).collect();
        let load_ids: std::collections::BTreeSet<u64> =
            insts.iter().filter(|i| i.op().is_load()).map(|i| i.id().get()).collect();
        let dependent_loads = insts
            .iter()
            .filter(|i| i.op().is_load())
            .filter(|i| i.srcs()[0].map(|s| load_ids.contains(&s.get())).unwrap_or(false))
            .count();
        assert!(dependent_loads > 500, "expected chase loads, got {dependent_loads}");
    }

    #[test]
    fn processes_partition_address_space() {
        // database runs two processes; user addresses must appear in two
        // distinct high-bit regions (pmake likewise).
        #[expect(clippy::cast_possible_truncation, reason = "a handful of address spaces")]
        let spaces_of = |b: Benchmark| {
            let mut spaces = std::collections::BTreeSet::new();
            for inst in WorkloadGen::new(b, 6).take(300_000) {
                if inst.mode() == ExecMode::User {
                    if let Some(a) = inst.addr() {
                        spaces.insert(a >> 33);
                    }
                }
            }
            spaces.len() as u32
        };
        assert_eq!(spaces_of(Benchmark::Database), Benchmark::Database.spec().processes);
        assert_eq!(spaces_of(Benchmark::Gcc), 1);
    }

    #[test]
    #[should_panic(expected = "invalid benchmark spec")]
    fn invalid_spec_rejected() {
        let mut spec = Benchmark::Gcc.spec();
        spec.user_mem.clear();
        let _ = WorkloadGen::from_spec(spec, 1);
    }
}
