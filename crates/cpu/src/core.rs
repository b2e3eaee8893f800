//! The four-issue dynamic superscalar pipeline.

use hbc_isa::{DynInst, ExecMode, InstId, OpClass};
use hbc_mem::{LoadResponse, MemSystem, RejectReason};
use hbc_probe::{saturating_count, StallCause, TraceEvent, Tracer};

use crate::config::{CpuConfig, CpuConfigError};
use crate::stats::RunStats;

/// Pushes one event into the trace ring. Out of line and cold, so the
/// per-event check in [`Core::trace`] is all an untraced run executes.
#[cold]
#[inline(never)]
fn push_event(tracer: &mut Tracer, ev: TraceEvent) {
    tracer.push(ev);
}

/// Cycles without a retirement after which [`Core::run`] declares a
/// deadlock.
const DEADLOCK_CYCLES: u64 = 100_000;

/// End of a waiter list.
const NO_WAITER: u32 = u32::MAX;

/// Lifecycle of one in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// In the window, waiting for source operands.
    Dispatched,
    /// In a functional unit (address calculation, for memory operations).
    Executing {
        /// Cycle the unit finishes.
        done: u64,
    },
    /// A load with its address ready, waiting for a cache port.
    WaitingPort,
    /// A load accepted by the memory system.
    MemPending {
        /// Cycle the data returns.
        done: u64,
        /// Whether the access left the primary cache (miss) — the stall
        /// attributor charges such waits to the levels below.
        miss: bool,
    },
    /// Finished; eligible to retire in order.
    Done {
        /// Cycle the result became available.
        at: u64,
    },
}

#[derive(Debug, Clone)]
struct Slot {
    inst: DynInst,
    dispatched_at: u64,
    stage: Stage,
    /// Source operands whose producer is in the window and not yet done.
    unready: u8,
    /// First link of the list of consumers waiting on this slot's result
    /// (`NO_WAITER` when none). A link is a consumer's ring position
    /// shifted left once, or-ed with the index of the source operand that
    /// names this slot.
    waiters: u32,
    /// For each source operand, the next link in its producer's waiter
    /// list.
    next_waiter: [u32; 2],
}

impl Slot {
    fn vacant() -> Self {
        Slot {
            inst: DynInst::new(InstId::new(0), OpClass::IntAlu, ExecMode::User),
            dispatched_at: 0,
            stage: Stage::Dispatched,
            unready: 0,
            waiters: NO_WAITER,
            next_waiter: [NO_WAITER; 2],
        }
    }
}

/// The instruction window: a fixed ring of `rob_entries` slots holding the
/// contiguous ids `Core::head ..` in age order.
#[derive(Debug, Clone)]
struct Window {
    slots: Vec<Slot>,
    /// Ring position of the oldest instruction.
    head_pos: usize,
    len: usize,
}

impl Window {
    fn new(entries: usize) -> Self {
        Window { slots: vec![Slot::vacant(); entries], head_pos: 0, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Ring position of the instruction `age` places behind the head.
    fn pos(&self, age: usize) -> usize {
        let pos = self.head_pos + age;
        if pos >= self.slots.len() {
            pos - self.slots.len()
        } else {
            pos
        }
    }

    fn front(&self) -> Option<&Slot> {
        (self.len > 0).then(|| &self.slots[self.head_pos])
    }

    /// Appends `slot` behind the youngest instruction; the window must not
    /// be full.
    fn push_back(&mut self, slot: Slot) {
        let pos = self.pos(self.len);
        self.slots[pos] = slot;
        self.len += 1;
    }

    fn pop_front(&mut self) {
        self.head_pos = self.pos(1);
        self.len -= 1;
    }

    /// The occupied slots, oldest first.
    #[cfg(feature = "sanitize")]
    fn iter(&self) -> impl Iterator<Item = &Slot> {
        (0..self.len).map(|age| &self.slots[self.pos(age)])
    }
}

/// A set of window ring positions, visited oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AgeSet {
    words: Vec<u64>,
}

impl AgeSet {
    fn new(entries: usize) -> Self {
        AgeSet { words: vec![0; entries.div_ceil(64)] }
    }

    fn insert(&mut self, pos: usize) {
        self.words[pos / 64] |= 1 << (pos % 64);
    }

    fn remove(&mut self, pos: usize) {
        self.words[pos / 64] &= !(1 << (pos % 64));
    }

    #[cfg(feature = "sanitize")]
    fn contains(&self, pos: usize) -> bool {
        self.words[pos / 64] & (1 << (pos % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The oldest member: the first position at or after the window head
    /// at `head_pos`, wrapping around the ring.
    fn oldest(&self, head_pos: usize) -> Option<usize> {
        let (hw, from_head) = (head_pos / 64, !0u64 << (head_pos % 64));
        let at = |w: usize, bits: u64| w * 64 + bits.trailing_zeros() as usize;
        let bits = self.words[hw] & from_head;
        if bits != 0 {
            return Some(at(hw, bits));
        }
        let mut later = (hw + 1..self.words.len()).chain(0..hw);
        if let Some(w) = later.find(|&w| self.words[w] != 0) {
            return Some(at(w, self.words[w]));
        }
        let bits = self.words[hw] & !from_head;
        (bits != 0).then(|| at(hw, bits))
    }
}

/// The dynamic superscalar processor core, generic over its instruction
/// stream.
///
/// Models the paper's MXS configuration: four-wide fetch/issue/commit, a
/// 64-entry instruction window, a 32-entry load/store queue, out-of-order
/// issue with no functional-unit class restrictions, non-blocking loads
/// against the [`MemSystem`], buffered stores written at commit, and fetch
/// squelching on branch mispredictions until the branch resolves.
///
/// Scheduling is event-driven: each cycle's work scales with the
/// instructions that change stage, not with the size of the window.
/// Producers wake their waiting consumers into an age-ordered ready set,
/// finishing units and fills pop from a completion queue, and address-ready
/// loads wait in an age-ordered port set.
///
/// # Example
///
/// ```
/// use hbc_cpu::{Core, CpuConfig};
/// use hbc_mem::{MemConfig, MemSystem, PortModel};
/// use hbc_workloads::{Benchmark, WorkloadGen};
///
/// let mem = MemSystem::new(MemConfig::paper_sram(32 << 10, 1, PortModel::Duplicate))?;
/// let gen = WorkloadGen::new(Benchmark::Gcc, 1);
/// let mut core = Core::new(CpuConfig::paper(), mem, gen)?;
/// let stats = core.run(5_000);
/// assert!(stats.ipc() > 0.3 && stats.ipc() < 4.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Core<I> {
    cfg: CpuConfig,
    mem: MemSystem,
    stream: I,
    rob: Window,
    /// Id of the oldest instruction still in the window; every older id has
    /// retired and is therefore a ready source.
    head: u64,
    now: u64,
    lsq_used: usize,
    /// Instruction fetched but not yet dispatched (window or LSQ full).
    staged: Option<DynInst>,
    /// Mispredicted control transfer fetch is waiting on, if any.
    waiting_branch: Option<InstId>,
    /// Cycle useful fetch resumes after a resolved misprediction.
    fetch_resume_at: u64,
    retired_total: u64,
    /// Dispatched slots with every source ready: the issue candidates.
    ready: AgeSet,
    /// Loads in [`Stage::WaitingPort`].
    port_waiting: AgeSet,
    /// Slots in [`Stage::Executing`] or [`Stage::MemPending`] as
    /// `(cycle, id)`, sorted latest first so the next one is at the end.
    /// The cycle is the one whose stage update completes the slot: `done`,
    /// or the next cycle if `done` has already passed. A sorted vector
    /// beats a heap here: the queue holds a few dozen entries, and most
    /// are pushed at or near the end.
    completions: Vec<(u64, u64)>,
    /// Ring-buffer cycle tracer, when a trace window was requested.
    tracer: Option<Tracer>,
    /// Whether [`Core::run`] may fast-forward through provably empty
    /// cycles (the event-horizon engine); on by default.
    event_horizon: bool,
    /// Cycles fast-forwarded instead of ticked, and the jumps that covered
    /// them. Deliberately *not* part of [`RunStats`]: skipping must leave
    /// every exported statistic bit-identical to the tick loop.
    skipped_cycles: u64,
    skip_spans: u64,
}

impl<I: Iterator<Item = DynInst>> Core<I> {
    /// Builds a core over `mem` consuming instructions from `stream`.
    ///
    /// The stream must be infinite (the generator never ends) and produce
    /// sequential [`InstId`]s starting at zero.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint if `cfg` is inconsistent.
    pub fn new(cfg: CpuConfig, mem: MemSystem, stream: I) -> Result<Self, CpuConfigError> {
        cfg.validate()?;
        let entries = cfg.rob_entries;
        Ok(Core {
            cfg,
            mem,
            stream,
            rob: Window::new(entries),
            head: 0,
            now: 0,
            lsq_used: 0,
            staged: None,
            waiting_branch: None,
            fetch_resume_at: 0,
            retired_total: 0,
            ready: AgeSet::new(entries),
            port_waiting: AgeSet::new(entries),
            completions: Vec::with_capacity(entries),
            tracer: None,
            event_horizon: true,
            skipped_cycles: 0,
            skip_spans: 0,
        })
    }

    /// Enables or disables the event-horizon engine (on by default). With
    /// it off, [`Core::run`] ticks every cycle — the reference loop the
    /// equivalence property tests compare against.
    pub fn set_event_horizon(&mut self, enabled: bool) {
        self.event_horizon = enabled;
    }

    /// Cycles fast-forwarded by the event-horizon engine since
    /// construction.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Fast-forward jumps taken since construction.
    pub fn skip_spans(&self) -> u64 {
        self.skip_spans
    }

    /// Enables the cycle tracer, retaining the last `capacity` pipeline and
    /// cache events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The retained trace window as JSON lines (`None` when tracing was
    /// never enabled).
    pub fn trace_jsonl(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.to_jsonl())
    }

    /// Records `ev` when tracing is enabled. Only the `Option` test is
    /// inlined into the per-event call sites; the push stays out of line,
    /// so an untraced run pays one predictable branch per event.
    #[inline(always)]
    fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            push_event(t, ev);
        }
    }

    /// The memory system (for its statistics).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Total instructions retired since construction.
    pub fn retired(&self) -> u64 {
        self.retired_total
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Runs until `instructions` more instructions retire and returns the
    /// statistics of that window. Call once to warm up and again to
    /// measure.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no instruction retires for 100 000
    /// cycles) or the instruction stream ends.
    pub fn run(&mut self, instructions: u64) -> RunStats {
        let mut stats = RunStats::default();
        let start_cycle = self.now;
        let target = self.retired_total + instructions;
        let mut last_retired = self.retired_total;
        let mut idle_cycles = 0u64;
        while self.retired_total < target {
            if self.event_horizon {
                if let Some(horizon) = self.skip_horizon() {
                    // Nothing can retire inside a skipped span, so the span
                    // counts against the deadlock watchdog exactly as the
                    // ticked cycles would have.
                    idle_cycles += self.fast_forward(horizon, &mut stats);
                    self.watchdog(idle_cycles);
                }
            }
            self.step(&mut stats);
            if self.retired_total == last_retired {
                idle_cycles += 1;
                self.watchdog(idle_cycles);
            } else {
                idle_cycles = 0;
                last_retired = self.retired_total;
            }
        }
        stats.instructions = self.retired_total - (target - instructions);
        stats.cycles = self.now - start_cycle;
        // Completeness: the per-cycle attribution charged every cycle of
        // the window to exactly one cause.
        #[cfg(feature = "sanitize")]
        assert!(
            stats.stall.total() == stats.cycles,
            "sanitize: stall attribution covers {} of {} cycles",
            stats.stall.total(),
            stats.cycles
        );
        stats
    }

    /// The deadlock watchdog: panics once `idle_cycles` cycles in a row
    /// have retired nothing, first dumping the trace window (if one was
    /// kept) so the last cycles before the hang are not lost with the
    /// panic.
    fn watchdog(&self, idle_cycles: u64) {
        if idle_cycles >= DEADLOCK_CYCLES {
            if let Some(t) = &self.tracer {
                eprintln!(
                    "deadlock: last {} trace events before cycle {}:\n{}",
                    t.len(),
                    self.now,
                    t.to_jsonl()
                );
            }
        }
        assert!(idle_cycles < DEADLOCK_CYCLES, "pipeline deadlock at cycle {}", self.now);
    }

    /// Advances the machine one cycle.
    fn step(&mut self, stats: &mut RunStats) {
        self.now += 1;
        let now = self.now;
        self.mem.begin_cycle(now);
        self.update_stages(now);
        let issued = self.issue(now);
        let reject = self.access_memory(now);
        let (retired, store_stalled) = self.retire(now, stats);
        self.fetch(now, stats);
        self.mem.end_cycle();
        let w = (issued as usize).min(stats.issue_width.len() - 1);
        saturating_count(&mut stats.issue_width[w], 1);
        stats.stall.charge(self.classify_stall(retired, store_stalled, reject, now));
        #[cfg(feature = "sanitize")]
        self.assert_invariants();
    }

    /// The core's own event horizon: the earliest future cycle at which
    /// its timed state changes without new input — the head of the
    /// completion queue, or the end of a misprediction redirect. `None`
    /// when nothing is scheduled.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut horizon = self.completions.last().map_or(u64::MAX, |&(due, _)| due);
        if self.waiting_branch.is_none() && self.fetch_resume_at > now {
            horizon = horizon.min(self.fetch_resume_at);
        }
        (horizon != u64::MAX).then_some(horizon)
    }

    /// Decides whether every cycle strictly between `now` and some future
    /// event is provably empty, and if so returns that event horizon.
    ///
    /// A post-cycle state is skippable when nothing can happen on the next
    /// cycle *or any cycle up to the horizon*:
    ///
    /// - no load is waiting for a cache port (such loads retry — and count
    ///   statistics — every cycle);
    /// - the window head is not complete (a `Done` head retires next
    ///   cycle);
    /// - fetch is blocked, and stays blocked: a squelch ends at
    ///   `fetch_resume_at` (a horizon candidate) or at branch resolution
    ///   (bounded by the completion queue); full windows drain only at
    ///   retirement, which needs the head to complete (bounded by the
    ///   completion queue);
    /// - the oldest buffered store cannot drain before the horizon (blocked
    ///   drains wait on an MSHR, a horizon candidate);
    /// - the ready set is empty. Sources become ready only when a producer
    ///   completes, which is a queue event, so it stays empty over the
    ///   span.
    ///
    /// Every condition is stable until the returned horizon, which is
    /// always finite in a skippable state: a blocked front end implies a
    /// busy head (a dispatched head would be issue-ready) or a pending
    /// redirect, each of which schedules an event.
    fn skip_horizon(&self) -> Option<u64> {
        if !self.port_waiting.is_empty() || !self.ready.is_empty() {
            return None;
        }
        if matches!(self.rob.front().map(|s| s.stage), Some(Stage::Done { .. })) {
            return None;
        }
        let t = self.now + 1;
        let squelched = self.waiting_branch.is_some() || t < self.fetch_resume_at;
        let lsq_blocked = self.staged.is_some() && self.lsq_used == self.cfg.lsq_entries;
        if !squelched && !self.rob.is_full() && !lsq_blocked {
            return None;
        }
        let mut horizon = self.next_event(self.now).unwrap_or(u64::MAX);
        match self.mem.store_drain_at(t) {
            None => {}
            Some(c) if c <= t => return None, // a buffered store drains next cycle
            Some(c) => horizon = horizon.min(c),
        }
        (horizon > t && horizon != u64::MAX).then_some(horizon)
    }

    /// Jumps the clock to `horizon - 1`, charging the skipped cycles in
    /// bulk exactly as the tick loop would have: one fetch-blocked counter
    /// per cycle, one zero-width issue slot and one (provably constant)
    /// stall cause per cycle, so `sum(stall causes) == cycles` still holds.
    /// Returns the number of cycles skipped.
    ///
    /// In `sanitize` builds the span is executed tick-by-tick instead (the
    /// lockstep mode) and every per-cycle outcome is asserted against the
    /// bulk prediction before the prediction is applied.
    fn fast_forward(&mut self, horizon: u64, stats: &mut RunStats) -> u64 {
        let t = self.now + 1;
        let span = horizon - t;
        debug_assert!(span > 0);
        // Predict the span's charges from the (stable) pre-span state. The
        // fetch cascade charges exactly one counter per blocked cycle,
        // squelch first; the stall cause is the one `step` would charge.
        let mut predicted = RunStats::default();
        if self.waiting_branch.is_some() || t < self.fetch_resume_at {
            predicted.fetch_stall_cycles = span;
        } else if self.rob.is_full() {
            predicted.rob_full_cycles = span;
        } else {
            predicted.lsq_full_cycles = span;
        }
        predicted.issue_width[0] = span;
        predicted.stall.charge_n(self.classify_stall(0, false, None, t), span);
        #[cfg(feature = "sanitize")]
        self.lockstep_check(span, &predicted);
        #[cfg(not(feature = "sanitize"))]
        {
            self.now = horizon - 1;
        }
        saturating_count(&mut stats.fetch_stall_cycles, predicted.fetch_stall_cycles);
        saturating_count(&mut stats.rob_full_cycles, predicted.rob_full_cycles);
        saturating_count(&mut stats.lsq_full_cycles, predicted.lsq_full_cycles);
        saturating_count(&mut stats.issue_width[0], predicted.issue_width[0]);
        stats.stall.merge(&predicted.stall);
        self.skipped_cycles += span;
        self.skip_spans += 1;
        span
    }

    /// Lockstep mode: executes a span the engine decided to skip cycle by
    /// cycle and asserts that the ticked machine stayed architecturally
    /// frozen and charged exactly the predicted bulk statistics. The ticked
    /// state *is* the reference state, so passing spans prove skipping and
    /// ticking bit-identical.
    #[cfg(feature = "sanitize")]
    fn lockstep_check(&mut self, span: u64, predicted: &RunStats) {
        let observe = |c: &Self| {
            (
                c.head,
                c.rob.head_pos,
                c.rob.len(),
                c.lsq_used,
                c.retired_total,
                c.ready.clone(),
                c.port_waiting.clone(),
                c.completions.clone(),
                c.waiting_branch,
                c.fetch_resume_at,
                c.staged.as_ref().map(|i| i.id()),
                c.mem.pending_stores(),
            )
        };
        let before = observe(self);
        let retired = self.retired_total;
        let mut ticked = RunStats::default();
        for _ in 0..span {
            self.step(&mut ticked);
            assert!(
                self.retired_total == retired,
                "sanitize: lockstep: a skipped cycle retired instructions at {}",
                self.now
            );
        }
        let after = observe(self);
        assert!(
            before == after,
            "sanitize: lockstep: skipped span changed core state at {}:\n{before:?}\n{after:?}",
            self.now
        );
        assert!(
            ticked == *predicted,
            "sanitize: lockstep: ticked charges disagree with the bulk prediction at \
             {}:\n{ticked:?}\n{predicted:?}",
            self.now
        );
    }

    /// Charges this cycle to exactly one [`StallCause`].
    ///
    /// The cascade is total and exclusive, oldest-instruction-first: any
    /// retirement is useful work (`Commit`); otherwise the window head
    /// explains the cycle (blocked commit, a load stuck at the ports or in
    /// the levels below the L1, execution latency); an empty or unready
    /// window is the front end's fault (`BranchRecovery` while squelched,
    /// `RobFull`/`LsqFull` when dispatch is blocked, `IssueEmpty` for
    /// dependence chains and functional-unit latency).
    ///
    /// A head load in `MemPending` on a *hit* is still occupying the cache
    /// pipeline, so those cycles are charged to `DcachePortConflict` — the
    /// paper's pipelined-hit-time cost — while misses charge `DramBusy`.
    fn classify_stall(
        &self,
        retired: u64,
        store_stalled: bool,
        reject: Option<RejectReason>,
        now: u64,
    ) -> StallCause {
        if retired > 0 {
            return StallCause::Commit;
        }
        if store_stalled {
            return StallCause::StoreBufferFull;
        }
        let squelched = self.waiting_branch.is_some() || now < self.fetch_resume_at;
        let Some(head) = self.rob.front() else {
            return if squelched { StallCause::BranchRecovery } else { StallCause::IssueEmpty };
        };
        match head.stage {
            Stage::WaitingPort => match reject {
                Some(RejectReason::MshrFull) => StallCause::MshrFull,
                _ => StallCause::DcachePortConflict,
            },
            Stage::MemPending { miss: true, .. } => StallCause::DramBusy,
            Stage::MemPending { miss: false, .. } => StallCause::DcachePortConflict,
            _ => {
                if self.rob.is_full() {
                    StallCause::RobFull
                } else if self.lsq_used == self.cfg.lsq_entries {
                    StallCause::LsqFull
                } else if squelched {
                    StallCause::BranchRecovery
                } else {
                    StallCause::IssueEmpty
                }
            }
        }
    }

    /// Sanitizer: checks window bookkeeping after every cycle, recounting
    /// the scheduling structures against the window. Violations are core
    /// bugs, so it panics.
    #[cfg(feature = "sanitize")]
    fn assert_invariants(&self) {
        assert!(
            self.lsq_used <= self.cfg.lsq_entries,
            "sanitize: {} loads/stores in a {}-entry queue",
            self.lsq_used,
            self.cfg.lsq_entries
        );
        // The LSQ counter must agree with the window contents exactly, or
        // it will eventually deadlock fetch (leak) or oversubscribe the
        // queue (double free).
        let mem_in_window = self.rob.iter().filter(|s| s.inst.is_mem()).count();
        assert!(
            self.lsq_used == mem_in_window,
            "sanitize: LSQ counter {} disagrees with {} memory ops in the window",
            self.lsq_used,
            mem_in_window
        );
        // Window ids are contiguous from the head: slot i holds head + i.
        for (i, slot) in self.rob.iter().enumerate() {
            assert!(
                slot.inst.id().get() == self.head + i as u64,
                "sanitize: window slot {i} holds instruction {} but the head is {}",
                slot.inst.id().get(),
                self.head
            );
        }
        // A source is unready while its producer is in the window and not
        // done; the stored counts, the waiter lists and the ready set must
        // all agree with that recount, or an instruction issues early or
        // never.
        let producer = |src: InstId| {
            let age = usize::try_from(src.get().checked_sub(self.head)?).ok()?;
            (age < self.rob.len()).then(|| self.rob.pos(age))
        };
        let unready = |slot: &Slot| {
            slot.inst
                .srcs()
                .iter()
                .flatten()
                .filter_map(|&src| producer(src))
                .filter(|&p| !matches!(self.rob.slots[p].stage, Stage::Done { .. }))
                .count()
        };
        let mut links = 0;
        for (age, slot) in self.rob.iter().enumerate() {
            let pos = self.rob.pos(age);
            let expected = unready(slot);
            assert!(
                usize::from(slot.unready) == expected,
                "sanitize: instruction {} counts {} unready sources, the window {expected}",
                slot.inst.id().get(),
                slot.unready
            );
            let ready = slot.stage == Stage::Dispatched && expected == 0;
            assert!(
                self.ready.contains(pos) == ready,
                "sanitize: ready set disagrees with the window on instruction {}",
                slot.inst.id().get()
            );
            assert!(
                self.port_waiting.contains(pos) == (slot.stage == Stage::WaitingPort),
                "sanitize: waiting-port set disagrees with the window on instruction {}",
                slot.inst.id().get()
            );
            let mut link = slot.waiters;
            while link != NO_WAITER {
                let (consumer, operand) = ((link >> 1) as usize, (link & 1) as usize);
                let src = self.rob.slots[consumer].inst.srcs()[operand];
                assert!(
                    src == Some(slot.inst.id()),
                    "sanitize: a waiter of instruction {} does not name it as a source",
                    slot.inst.id().get()
                );
                links += 1;
                link = self.rob.slots[consumer].next_waiter[operand];
            }
        }
        let counted: usize = self.rob.iter().map(|s| usize::from(s.unready)).sum();
        assert!(links == counted, "sanitize: {links} waiter links for {counted} unready sources");
        for pos in 0..self.cfg.rob_entries {
            let age = (pos + self.cfg.rob_entries - self.rob.head_pos) % self.cfg.rob_entries;
            if age >= self.rob.len() {
                assert!(
                    !self.ready.contains(pos) && !self.port_waiting.contains(pos),
                    "sanitize: vacant ring position {pos} is in a scheduling set"
                );
            }
        }
        // The completion queue holds exactly the busy slots, each due in
        // the cycle whose stage update completes it.
        let mut expected: Vec<_> = self
            .rob
            .iter()
            .filter_map(|s| match s.stage {
                Stage::Executing { done } | Stage::MemPending { done, .. } => {
                    Some((done.max(self.now + 1), s.inst.id().get()))
                }
                _ => None,
            })
            .collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            self.completions == expected,
            "sanitize: completion queue disagrees with the window's busy slots"
        );
    }

    /// Moves finished executions along, wakes their consumers and resolves
    /// waiting branches.
    ///
    /// Every queued slot is due at or after the current cycle (stage
    /// updates run on every ticked cycle, and a skip stops short of the
    /// queue head), so this cycle's pops are all due now and come out of
    /// the `(cycle, id)` queue in age order.
    fn update_stages(&mut self, now: u64) {
        while let Some(&(due, id)) = self.completions.last() {
            if due > now {
                break;
            }
            self.completions.pop();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "hot path: an in-flight id is within the ROB of its head"
            )]
            let pos = self.rob.pos((id - self.head) as usize);
            let slot = &mut self.rob.slots[pos];
            let inst = slot.inst;
            let done = match slot.stage {
                Stage::Executing { .. } if inst.op().is_load() => {
                    slot.stage = Stage::WaitingPort;
                    self.port_waiting.insert(pos);
                    continue;
                }
                Stage::Executing { done } | Stage::MemPending { done, .. } => done,
                _ => continue,
            };
            slot.stage = Stage::Done { at: done };
            if self.waiting_branch == Some(inst.id()) {
                self.waiting_branch = None;
                self.fetch_resume_at = done + self.cfg.redirect_penalty;
            }
            self.wake(pos);
            self.trace(TraceEvent::ExecDone { cycle: now, inst: inst.id().get() });
        }
    }

    /// Broadcasts the result of the slot at `pos`: each waiting consumer
    /// has one source fewer to wait for, and enters the ready set when it
    /// has none left.
    fn wake(&mut self, pos: usize) {
        let mut link = std::mem::replace(&mut self.rob.slots[pos].waiters, NO_WAITER);
        while link != NO_WAITER {
            let (at, operand) = ((link >> 1) as usize, (link & 1) as usize);
            let consumer = &mut self.rob.slots[at];
            consumer.unready -= 1;
            if consumer.unready == 0 {
                self.ready.insert(at);
            }
            link = consumer.next_waiter[operand];
        }
    }

    /// Issues the oldest ready instructions up to the machine width;
    /// returns how many issued this cycle.
    fn issue(&mut self, now: u64) -> u32 {
        let mut issued = 0;
        while issued < self.cfg.issue_width {
            let Some(pos) = self.ready.oldest(self.rob.head_pos) else { break };
            self.ready.remove(pos);
            let slot = &mut self.rob.slots[pos];
            let id = slot.inst.id().get();
            let done = now + u64::from(self.cfg.latencies.latency(slot.inst.op()));
            slot.stage = Stage::Executing { done };
            self.schedule(done.max(now + 1), id);
            issued += 1;
            self.trace(TraceEvent::Issue { cycle: now, inst: id });
        }
        issued
    }

    /// Presents address-ready loads to the memory system, oldest first.
    ///
    /// The load queue issues to the cache in age order: when a load is
    /// denied (port busy, bank conflict, MSHRs full), younger loads do not
    /// bypass it to the ports that cycle — the conflict replays from the
    /// oldest denied load, as in bank-conflict replay schemes.
    fn access_memory(&mut self, now: u64) -> Option<RejectReason> {
        let traced = self.tracer.is_some();
        while let Some(pos) = self.port_waiting.oldest(self.rob.head_pos) {
            #[expect(clippy::expect_used, reason = "only loads wait for a port")]
            let addr = self.rob.slots[pos].inst.addr().expect("loads carry addresses");
            let response = self.mem.try_load(addr);
            if traced {
                let inst = self.rob.slots[pos].inst.id().get();
                self.trace_load(now, inst, addr, response);
            }
            match response {
                LoadResponse::LineBufferHit { complete_at } | LoadResponse::Hit { complete_at } => {
                    self.pend(pos, complete_at.max(now + 1), false);
                }
                LoadResponse::Miss { complete_at } => {
                    self.pend(pos, complete_at.max(now + 1), true)
                }
                LoadResponse::Rejected(why) => return Some(why),
            }
        }
        None
    }

    /// Records the memory system's answer to one load (traced runs only:
    /// the bank lookup and reject reason are not worth computing
    /// otherwise).
    #[cold]
    fn trace_load(&mut self, cycle: u64, inst: u64, addr: u64, response: LoadResponse) {
        let bank = self.bank_of(addr);
        self.trace(match response {
            LoadResponse::LineBufferHit { .. } => TraceEvent::LineBufferHit { cycle, inst, addr },
            LoadResponse::Hit { .. } => TraceEvent::CacheHit { cycle, inst, addr, bank },
            LoadResponse::Miss { .. } => TraceEvent::CacheMiss { cycle, inst, addr, bank },
            LoadResponse::Rejected(why) => {
                let why = match why {
                    RejectReason::PortsBusy => "ports_busy",
                    RejectReason::BankConflict => "bank_conflict",
                    RejectReason::MshrFull => "mshr_full",
                };
                TraceEvent::CacheReject { cycle, inst, addr, bank, why }
            }
        });
    }

    /// Marks the waiting-port load at ring position `pos` as accepted by
    /// the memory system, due back at `done`.
    fn pend(&mut self, pos: usize, done: u64, miss: bool) {
        self.port_waiting.remove(pos);
        let slot = &mut self.rob.slots[pos];
        slot.stage = Stage::MemPending { done, miss };
        let id = slot.inst.id().get();
        self.schedule(done, id);
    }

    /// Queues instruction `id` to complete in the stage update of `cycle`.
    fn schedule(&mut self, cycle: u64, id: u64) {
        let at = self.completions.partition_point(|&entry| entry > (cycle, id));
        self.completions.insert(at, (cycle, id));
    }

    /// The cache bank `addr` maps to (zero for unbanked port models).
    fn bank_of(&self, addr: u64) -> u32 {
        match self.mem.config().l1.ports {
            hbc_mem::PortModel::Banked(n) => {
                hbc_mem::addr::bank_of(addr, self.mem.config().l1.line_bytes, n)
            }
            _ => 0,
        }
    }

    /// Retires finished instructions in order; returns how many retired and
    /// whether commit stalled on a full store buffer.
    fn retire(&mut self, now: u64, stats: &mut RunStats) -> (u64, bool) {
        let mut retired = 0u64;
        for _ in 0..self.cfg.commit_width {
            let Some(slot) = self.rob.front() else { break };
            let Stage::Done { at } = slot.stage else { break };
            if at > now {
                break;
            }
            let inst = slot.inst;
            let dispatched_at = slot.dispatched_at;
            if inst.op().is_store() {
                #[expect(clippy::expect_used, reason = "`is_store` checked just above")]
                let addr = inst.addr().expect("stores carry addresses");
                if !self.mem.commit_store(addr) {
                    saturating_count(&mut stats.store_stall_cycles, 1);
                    return (retired, true); // store buffer full: stall commit
                }
                saturating_count(&mut stats.stores, 1);
            }
            if inst.op().is_load() {
                saturating_count(&mut stats.loads, 1);
                saturating_count(&mut stats.load_latency_sum, at - dispatched_at);
            }
            if inst.op().is_control() && inst.mispredicted() {
                saturating_count(&mut stats.mispredicts, 1);
            }
            if inst.is_mem() {
                self.lsq_used -= 1;
            }
            self.rob.pop_front();
            self.head += 1;
            self.retired_total += 1;
            retired += 1;
            self.trace(TraceEvent::Commit { cycle: now, inst: inst.id().get() });
        }
        (retired, false)
    }

    fn fetch(&mut self, now: u64, stats: &mut RunStats) {
        if self.waiting_branch.is_some() || now < self.fetch_resume_at {
            saturating_count(&mut stats.fetch_stall_cycles, 1);
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.rob.is_full() {
                saturating_count(&mut stats.rob_full_cycles, 1);
                break;
            }
            #[expect(clippy::expect_used, reason = "every instruction source is endless")]
            let inst = match self.staged.take() {
                Some(i) => i,
                None => self.stream.next().expect("instruction stream must be infinite"),
            };
            if self.retired_total == 0 && self.rob.is_empty() {
                // The stream may start mid-trace (e.g. after functional
                // cache warming consumed a prefix); anchor the window there.
                self.head = inst.id().get();
            }
            debug_assert_eq!(inst.id().get(), self.head + self.rob.len() as u64);
            if inst.is_mem() && self.lsq_used == self.cfg.lsq_entries {
                saturating_count(&mut stats.lsq_full_cycles, 1);
                self.staged = Some(inst);
                break;
            }
            if inst.is_mem() {
                self.lsq_used += 1;
            }
            self.dispatch(inst, now);
            self.trace(TraceEvent::Fetch { cycle: now, inst: inst.id().get() });
            if inst.op().is_control() && inst.mispredicted() {
                // Fetch down the wrong path is not modeled; the front end
                // simply produces nothing until the branch resolves.
                self.waiting_branch = Some(inst.id());
                break;
            }
        }
    }

    /// Enters `inst` into the window behind the youngest instruction. Each
    /// source whose producer is in the window and not yet done joins that
    /// producer's waiter list; with none, `inst` is ready at once.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot path: `age` is below the ROB length, and a slot and operand bit fit a u32"
    )]
    fn dispatch(&mut self, inst: DynInst, now: u64) {
        let pos = self.rob.pos(self.rob.len());
        let mut slot =
            Slot { inst, dispatched_at: now, stage: Stage::Dispatched, ..Slot::vacant() };
        for (operand, src) in inst.srcs().iter().enumerate() {
            // A retired producer (older than the head) is always ready.
            let Some(age) = src.and_then(|s| s.get().checked_sub(self.head)) else { continue };
            if age >= self.rob.len() as u64 {
                continue;
            }
            let at = self.rob.pos(age as usize);
            let producer = &mut self.rob.slots[at];
            if matches!(producer.stage, Stage::Done { .. }) {
                continue;
            }
            slot.next_waiter[operand] = producer.waiters;
            producer.waiters = (pos << 1 | operand) as u32;
            slot.unready += 1;
        }
        if slot.unready == 0 {
            self.ready.insert(pos);
        }
        self.rob.push_back(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbc_isa::{ExecMode, OpClass};
    use hbc_mem::{MemConfig, PortModel};

    fn mem(ports: PortModel, hit: u64) -> MemSystem {
        MemSystem::new(MemConfig::paper_sram(32 << 10, hit, ports)).unwrap()
    }

    /// An infinite stream built from a per-index closure.
    fn stream(f: impl Fn(u64) -> DynInst + 'static) -> impl Iterator<Item = DynInst> {
        (0u64..).map(f)
    }

    #[test]
    fn independent_alu_reaches_full_width() {
        let s = stream(|i| DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User));
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        core.run(1_000);
        let stats = core.run(10_000);
        assert!(stats.ipc() > 3.9, "independent ALU ops should saturate: {}", stats.ipc());
    }

    #[test]
    fn serial_chain_runs_at_one_ipc() {
        let s = stream(|i| {
            let inst = DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User);
            if i > 0 {
                inst.with_src(InstId::new(i - 1))
            } else {
                inst
            }
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        core.run(1_000);
        let stats = core.run(10_000);
        assert!(
            (stats.ipc() - 1.0).abs() < 0.05,
            "dependent single-cycle chain must run near 1 IPC: {}",
            stats.ipc()
        );
    }

    #[test]
    fn fp_divide_chain_is_slow() {
        let s = stream(|i| {
            let inst = DynInst::new(InstId::new(i), OpClass::FpDiv, ExecMode::User);
            if i > 0 {
                inst.with_src(InstId::new(i - 1))
            } else {
                inst
            }
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        let stats = core.run(500);
        // One divide per 19 cycles.
        assert!(stats.ipc() < 0.06, "ipc {}", stats.ipc());
    }

    #[test]
    fn mispredicted_branches_cost_fetch_cycles() {
        let every_8_mispredicts = |i: u64| {
            if i % 8 == 7 {
                DynInst::new(InstId::new(i), OpClass::Branch, ExecMode::User)
                    .with_branch(true, true)
            } else {
                DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User)
            }
        };
        let clean = |i: u64| {
            if i % 8 == 7 {
                DynInst::new(InstId::new(i), OpClass::Branch, ExecMode::User)
                    .with_branch(true, false)
            } else {
                DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User)
            }
        };
        let mut dirty_core = Core::new(
            CpuConfig::paper(),
            mem(PortModel::Duplicate, 1),
            stream(every_8_mispredicts),
        )
        .unwrap();
        let mut clean_core =
            Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), stream(clean)).unwrap();
        let dirty = dirty_core.run(10_000);
        let clean = clean_core.run(10_000);
        assert!(
            dirty.ipc() < 0.75 * clean.ipc(),
            "mispredicts must hurt: {} vs {}",
            dirty.ipc(),
            clean.ipc()
        );
        assert!(dirty.fetch_stall_cycles > 0);
        assert_eq!(dirty.mispredicts, 10_000 / 8);
    }

    #[test]
    fn loads_cost_address_calc_plus_hit_time() {
        // Serial chain of loads to one hot line: each depends on the
        // previous, so latency adds up visibly.
        let chained_loads = |i: u64| {
            let inst = DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User).with_addr(0x40);
            if i > 0 {
                inst.with_src(InstId::new(i - 1))
            } else {
                inst
            }
        };
        // hit = 1: issue->addr(1) + port + hit(1) => ~3 cycles/load once hot.
        let mut c1 =
            Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), stream(chained_loads))
                .unwrap();
        c1.run(200);
        let s1 = c1.run(2_000);
        // hit = 3: two extra cycles per load in the chain.
        let mut c3 =
            Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 3), stream(chained_loads))
                .unwrap();
        c3.run(200);
        let s3 = c3.run(2_000);
        assert!(
            s3.avg_load_latency() > s1.avg_load_latency() + 1.5,
            "pipelined hit time must show up in serial load chains: {} vs {}",
            s1.avg_load_latency(),
            s3.avg_load_latency()
        );
        assert!(s1.ipc() > s3.ipc());
    }

    #[test]
    fn independent_loads_hide_pipelined_hit_time() {
        // Independent loads across distinct hot lines: out-of-order issue
        // overlaps the extra hit cycles almost completely.
        let independent = |i: u64| {
            DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User).with_addr((i % 64) * 32)
        };
        let ipc_at = |hit| {
            let mut c =
                Core::new(CpuConfig::paper(), mem(PortModel::Ideal(2), hit), stream(independent))
                    .unwrap();
            c.run(2_000);
            c.run(10_000).ipc()
        };
        let one = ipc_at(1);
        let three = ipc_at(3);
        assert!(three > 0.85 * one, "OoO should hide pipelining: {one} vs {three}");
    }

    #[test]
    fn more_ports_help_load_heavy_streams() {
        let independent = |i: u64| {
            DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User).with_addr((i % 64) * 32)
        };
        let ipc_with = |ports| {
            let mut c = Core::new(CpuConfig::paper(), mem(ports, 1), stream(independent)).unwrap();
            c.run(2_000);
            c.run(10_000).ipc()
        };
        let one = ipc_with(PortModel::Ideal(1));
        let two = ipc_with(PortModel::Ideal(2));
        let four = ipc_with(PortModel::Ideal(4));
        assert!(two > 1.5 * one, "1->2 ports: {one} -> {two}");
        assert!(four > two, "2->4 ports: {two} -> {four}");
        assert!((one - 1.0).abs() < 0.1, "one port serializes pure loads: {one}");
    }

    #[test]
    fn stores_do_not_block_loads() {
        // Alternating stores and independent ALU ops: stores drain into
        // idle cycles and commit never wedges.
        let s = stream(|i| {
            if i % 4 == 0 {
                DynInst::new(InstId::new(i), OpClass::Store, ExecMode::User)
                    .with_addr((i % 256) * 32)
            } else {
                DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User)
            }
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        core.run(2_000);
        let stats = core.run(10_000);
        assert!(stats.ipc() > 2.0, "ipc {}", stats.ipc());
        assert_eq!(stats.stores, 2_500);
    }

    #[test]
    fn run_windows_are_additive() {
        let s = stream(|i| DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User));
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        let a = core.run(1_000);
        let b = core.run(1_000);
        assert_eq!(core.retired(), 2_000);
        assert_eq!(a.instructions, 1_000);
        assert_eq!(b.instructions, 1_000);
        assert!(core.now() >= a.cycles + b.cycles);
    }

    #[test]
    fn store_flood_stalls_commit_but_recovers() {
        // A pure store stream overwhelms the drain path of a duplicate
        // cache (stores need both copies idle): commit must stall on the
        // full buffer yet the machine keeps retiring.
        let s = stream(|i| {
            DynInst::new(InstId::new(i), OpClass::Store, ExecMode::User).with_addr((i % 128) * 32)
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        core.run(1_000);
        let stats = core.run(5_000);
        assert!(stats.store_stall_cycles > 0, "expected store-buffer backpressure");
        assert_eq!(stats.stores, 5_000);
        assert!(stats.ipc() > 0.3);
    }

    #[test]
    fn lsq_capacity_limits_inflight_memory_ops() {
        // All loads to one cold line: the first miss is slow, the LSQ (32)
        // plus ROB (64) bound how many can queue; lsq_full must register.
        let s = stream(|i| {
            DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User).with_addr((i % 2048) * 32)
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Ideal(1), 1), s).unwrap();
        let stats = core.run(5_000);
        assert!(
            stats.lsq_full_cycles > 0,
            "an all-load stream must hit the load/store queue limit"
        );
    }

    #[test]
    fn rob_full_registers_on_long_latency_head() {
        // A load miss at the window head with independent work behind it
        // fills the reorder buffer.
        let s = stream(|i| {
            if i % 200 == 0 {
                DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User)
                    .with_addr(0x40_0000 + i * 64)
            } else {
                DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User)
            }
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Ideal(2), 1), s).unwrap();
        let stats = core.run(10_000);
        assert!(stats.rob_full_cycles > 0);
    }

    #[test]
    fn accessors_report_progress() {
        let s = stream(|i| DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User));
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        assert_eq!(core.retired(), 0);
        core.run(100);
        assert_eq!(core.retired(), 100);
        assert!(core.now() >= 25, "four-wide machine needs at least 25 cycles");
        assert_eq!(core.mem().stats().stores, 0);
    }

    #[test]
    fn workload_driven_ipc_is_sane() {
        use hbc_workloads::{Benchmark, WorkloadGen};
        for b in [Benchmark::Gcc, Benchmark::Tomcatv, Benchmark::Database] {
            let gen = WorkloadGen::new(b, 7);
            let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Ideal(2), 1), gen).unwrap();
            core.run(5_000);
            let stats = core.run(20_000);
            assert!(stats.ipc() > 0.3 && stats.ipc() < 4.0, "{b}: implausible IPC {}", stats.ipc());
        }
    }

    #[test]
    fn event_horizon_skips_stall_spans_invisibly() {
        use hbc_workloads::{Benchmark, WorkloadGen};
        // A miss-heavy stream against the slow DRAM cache stalls for long,
        // provably idle spans; fast-forwarding them must leave every
        // statistic and the final clock untouched.
        let run = |skip: bool| {
            let gen = WorkloadGen::new(Benchmark::Compress, 13);
            let dram = MemSystem::new(MemConfig::paper_dram(8)).unwrap();
            let mut core = Core::new(CpuConfig::paper(), dram, gen).unwrap();
            core.set_event_horizon(skip);
            let stats = core.run(20_000);
            (stats, core.now(), core.skipped_cycles(), core.skip_spans())
        };
        let (ticked, ticked_now, ticked_skipped, _) = run(false);
        let (skipped, skipped_now, skipped_cycles, spans) = run(true);
        assert_eq!(ticked, skipped, "skipping changed the run statistics");
        assert_eq!(ticked_now, skipped_now, "skipping changed the clock");
        assert_eq!(ticked_skipped, 0);
        assert!(skipped_cycles > 0, "a DRAM-cache run must fast-forward");
        assert!(spans > 0 && skipped_cycles >= spans, "spans skip at least one cycle each");
    }
}

#[cfg(test)]
mod probe_tests {
    use super::*;
    use hbc_isa::{ExecMode, OpClass};
    use hbc_mem::{MemConfig, PortModel};
    use hbc_probe::StallCause;

    fn mem(ports: PortModel, hit: u64) -> MemSystem {
        MemSystem::new(MemConfig::paper_sram(32 << 10, hit, ports)).unwrap()
    }

    fn stream(f: impl Fn(u64) -> DynInst + 'static) -> impl Iterator<Item = DynInst> {
        (0u64..).map(f)
    }

    #[test]
    fn stall_attribution_sums_to_cycles() {
        use hbc_workloads::{Benchmark, WorkloadGen};
        let gen = WorkloadGen::new(Benchmark::Gcc, 11);
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Banked(8), 1), gen).unwrap();
        core.run(1_000);
        let stats = core.run(5_000);
        assert_eq!(stats.stall.total(), stats.cycles);
        assert!(stats.stall.get(StallCause::Commit) > 0);
        let widths: u64 = stats.issue_width.iter().sum();
        assert_eq!(widths, stats.cycles, "every cycle has exactly one issue width");
    }

    #[test]
    fn branch_recovery_charged_while_squelched() {
        let s = stream(|i| {
            if i % 8 == 7 {
                DynInst::new(InstId::new(i), OpClass::Branch, ExecMode::User)
                    .with_branch(true, true)
            } else {
                DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User)
            }
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        let stats = core.run(5_000);
        assert!(
            stats.stall.get(StallCause::BranchRecovery) > 0,
            "mispredict squelch must be attributed: {:?}",
            stats.stall
        );
    }

    #[test]
    fn pipelined_hits_charge_dcache_occupancy() {
        // A serial chain of hot loads on a 3-cycle pipelined cache: while
        // the head's hit sits in the array, nothing retires and the cycle
        // belongs to the data cache.
        let chained = |i: u64| {
            let inst = DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User).with_addr(0x40);
            if i > 0 {
                inst.with_src(InstId::new(i - 1))
            } else {
                inst
            }
        };
        let mut core =
            Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 3), stream(chained)).unwrap();
        core.run(500);
        let stats = core.run(2_000);
        assert!(
            stats.stall.get(StallCause::DcachePortConflict) > 0,
            "pipelined hit occupancy must be attributed: {:?}",
            stats.stall
        );
        assert_eq!(stats.stall.total(), stats.cycles);
    }

    #[test]
    fn cold_misses_charge_dram_busy() {
        // Striding loads across 2 MB dodge both caches often enough that
        // the head spends cycles waiting on fills.
        let s = stream(|i| {
            DynInst::new(InstId::new(i), OpClass::Load, ExecMode::User)
                .with_addr((i * 8192) % (256 << 20))
        });
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Ideal(2), 1), s).unwrap();
        let stats = core.run(2_000);
        assert!(stats.stall.get(StallCause::DramBusy) > 0, "{:?}", stats.stall);
    }

    #[test]
    fn tracer_is_bounded_and_dumpable() {
        let s = stream(|i| DynInst::new(InstId::new(i), OpClass::IntAlu, ExecMode::User));
        let mut core = Core::new(CpuConfig::paper(), mem(PortModel::Duplicate, 1), s).unwrap();
        assert_eq!(core.trace_jsonl(), None, "no tracer until enabled");
        core.enable_trace(64);
        core.run(1_000);
        let jsonl = core.trace_jsonl().unwrap();
        assert_eq!(jsonl.lines().count(), 64, "ring buffer stays bounded");
        assert!(jsonl.lines().all(|l| l.starts_with("{\"ev\":\"")), "JSONL shape");
        assert!(jsonl.contains("\"ev\":\"commit\""));
    }

    #[test]
    fn trace_is_deterministic() {
        use hbc_workloads::{Benchmark, WorkloadGen};
        let run = || {
            let gen = WorkloadGen::new(Benchmark::Compress, 3);
            let mut core =
                Core::new(CpuConfig::paper(), mem(PortModel::Banked(8), 1), gen).unwrap();
            core.enable_trace(256);
            core.run(3_000);
            core.trace_jsonl().unwrap()
        };
        assert_eq!(run(), run());
    }
}
