//! Request-scoped structured spans: a thread-safe bounded ring of
//! `(request, span, parent, stage, start, duration)` records with JSONL
//! export.
//!
//! A *span* is one timed stage of a larger unit of work: a request's
//! `serve.parse` phase, one cell's `exec.run` slice, a figure driver's
//! `sim.measured` run. Spans nest through `parent` span IDs and group
//! through a shared `request` ID, so a JSONL export reconstructs exactly
//! where a request's wall-clock went.
//!
//! Like the rest of this crate, the types here are *clockless*: callers
//! pass monotonic timestamps in (microseconds from an origin they choose).
//! The simulator side derives them from an `Instant` origin confined to
//! `hbc-core`'s feature-gated `spans` module; `hbc-serve` stamps spans from
//! its own process-start origin. Keeping the clock out of this crate keeps
//! it usable from deterministic simulation code without ever touching the
//! wall clock itself.
//!
//! Every span is recorded under a [`Stage`], a closed enum, so a typo'd
//! stage is a compile error rather than a name that silently vanishes
//! from reports. Only text from outside the process (a `/trace` body)
//! goes through [`Stage::parse`].
//!
//! # Example
//!
//! ```
//! use hbc_probe::{SpanLog, SpanRecord, Stage};
//!
//! let log = SpanLog::new(16);
//! let request = log.next_request_id();
//! let span = log.next_span_id();
//! log.record(SpanRecord {
//!     request,
//!     span,
//!     parent: 0,
//!     stage: Stage::ServeParse,
//!     start_us: 10,
//!     dur_us: 250,
//! });
//! assert_eq!(log.len(), 1);
//! assert!(log.to_jsonl().contains("\"stage\":\"serve.parse\""));
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
// Interior mutability is required for a shared ring written by server and
// worker threads; spans are observability metadata, never simulation
// results, so arrival-order interleaving cannot affect figure output.
#[expect(
    clippy::disallowed_types,
    reason = "the span ring holds observability metadata; simulation output never reads it"
)]
use std::sync::Mutex;

/// Every stage a span may be recorded under, across the instrumented
/// layers.
///
/// [`name`](Stage::name) is the wire form: it appears verbatim in `/trace`
/// JSONL, federated traces, `/metrics` `stage="…"` labels, and benchmark
/// row names, so a variant's name never changes. Stages order by name,
/// which keeps per-stage `/metrics` summaries alphabetical.
///
/// A stage that is not a variant does not compile:
///
/// ```compile_fail
/// use hbc_probe::SpanRecord;
///
/// let _ = SpanRecord { request: 1, span: 1, parent: 0, stage: "serve.parze", start_us: 0, dur_us: 0 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    // hbc-serve request lifecycle, in order.
    /// Connection accepted, until the request is queued.
    ServeAccept,
    /// Request line, headers and body parsed.
    ServeParse,
    /// Waiting in the handler queue.
    ServeQueueWait,
    /// Result-cache lookup.
    ServeCacheLookup,
    /// Waiting on an identical in-flight simulation.
    ServeSingleFlightWait,
    /// The simulation itself.
    ServeSimulate,
    /// Response body serialized.
    ServeSerialize,
    /// Response written to the socket.
    ServeWrite,
    // hbc-cluster coordinator/worker lifecycle.
    /// Coordinator picks a worker.
    ClusterRoute,
    /// One forward attempt to a worker.
    ClusterForward,
    /// A worker executes a forwarded request.
    ClusterWorkerExecute,
    // hbc-exec parallel engine, per cell.
    /// A worker thread fetches its next cell.
    ExecSteal,
    /// One cell runs.
    ExecRun,
    /// Results are merged after the join.
    ExecMerge,
    // hbc-core figure drivers, per phase.
    /// The simulation's warm-up window.
    SimWarmUp,
    /// The simulation's measured window.
    SimMeasured,
    /// A figure table is rendered.
    FigureReport,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 17] = [
        Stage::ServeAccept,
        Stage::ServeParse,
        Stage::ServeQueueWait,
        Stage::ServeCacheLookup,
        Stage::ServeSingleFlightWait,
        Stage::ServeSimulate,
        Stage::ServeSerialize,
        Stage::ServeWrite,
        Stage::ClusterRoute,
        Stage::ClusterForward,
        Stage::ClusterWorkerExecute,
        Stage::ExecSteal,
        Stage::ExecRun,
        Stage::ExecMerge,
        Stage::SimWarmUp,
        Stage::SimMeasured,
        Stage::FigureReport,
    ];

    /// The stage's wire name (`serve.parse`, `exec.run`, …).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ServeAccept => "serve.accept",
            Stage::ServeParse => "serve.parse",
            Stage::ServeQueueWait => "serve.queue_wait",
            Stage::ServeCacheLookup => "serve.cache_lookup",
            Stage::ServeSingleFlightWait => "serve.single_flight_wait",
            Stage::ServeSimulate => "serve.simulate",
            Stage::ServeSerialize => "serve.serialize",
            Stage::ServeWrite => "serve.write",
            Stage::ClusterRoute => "cluster.route",
            Stage::ClusterForward => "cluster.forward",
            Stage::ClusterWorkerExecute => "cluster.worker_execute",
            Stage::ExecSteal => "exec.steal",
            Stage::ExecRun => "exec.run",
            Stage::ExecMerge => "exec.merge",
            Stage::SimWarmUp => "sim.warm_up",
            Stage::SimMeasured => "sim.measured",
            Stage::FigureReport => "figure.report",
        }
    }

    /// The stage whose [`name`](Stage::name) is `name`, if any.
    pub fn parse(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl PartialOrd for Stage {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Stage {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

/// One completed span: a named stage of one request, with monotonic
/// microsecond timestamps supplied by the caller.
///
/// `parent` is the span ID of the enclosing span, or 0 for a root span.
/// `request` groups all spans belonging to one unit of work (an HTTP
/// request, one figure cell). IDs are allocated from the owning
/// [`SpanLog`] and are unique within it; 0 is never allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// ID of the request (unit of work) this span belongs to.
    pub request: u64,
    /// This span's ID, unique within the log.
    pub span: u64,
    /// Enclosing span's ID, or 0 for a root span.
    pub parent: u64,
    /// The stage this span timed.
    pub stage: Stage,
    /// Start time, microseconds from the caller's monotonic origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl SpanRecord {
    /// The record as one JSON object (one JSONL line, no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"request\":{},\"span\":{},\"parent\":{},\"stage\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            self.request,
            self.span,
            self.parent,
            self.stage.name(),
            self.start_us,
            self.dur_us
        )
    }
}

/// The bounded ring of retained records plus the eviction count.
#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

/// A thread-safe bounded span log: always retains the most recent
/// `capacity` [`SpanRecord`]s, dropping the oldest as new ones arrive,
/// and allocates the request/span IDs recorded into it.
///
/// Writers on any thread call [`record`](SpanLog::record); readers export
/// a consistent snapshot with [`to_jsonl`](SpanLog::to_jsonl). ID
/// allocation is lock-free; the ring itself is guarded by a mutex held
/// only for the push or the snapshot copy. Capacity 0 disables retention
/// (records are counted as dropped).
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    #[expect(
        clippy::disallowed_types,
        reason = "the span ring holds observability metadata; simulation output never reads it"
    )]
    ring: Mutex<Ring>,
    next_request: AtomicU64,
    next_span: AtomicU64,
}

/// Recovers the ring from a poisoned lock: a panicking writer can only
/// have lost its own record, and observability must not take the process
/// down with it.
#[expect(
    clippy::disallowed_types,
    reason = "the span ring holds observability metadata; simulation output never reads it"
)]
fn ring_lock(ring: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SpanLog {
    /// A log retaining the last `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        SpanLog::with_id_base(capacity, 0)
    }

    /// A log whose request/span IDs are allocated from `base + 1`
    /// upward instead of `1`.
    ///
    /// Distributed tracing merges span streams from several processes
    /// into one causal tree; giving each process a disjoint ID namespace
    /// (e.g. `(port as u64) << 32` on a cluster worker) keeps merged IDs
    /// collision-free without any cross-process coordination. `base`
    /// itself is never allocated, so 0 stays the "no parent" sentinel.
    pub fn with_id_base(capacity: usize, base: u64) -> Self {
        SpanLog {
            capacity,
            #[expect(
                clippy::disallowed_types,
                reason = "the span ring holds observability metadata; simulation output never reads it"
            )]
            ring: Mutex::new(Ring {
                records: VecDeque::with_capacity(capacity.min(4096)),
                dropped: 0,
            }),
            next_request: AtomicU64::new(base + 1),
            next_span: AtomicU64::new(base + 1),
        }
    }

    /// Retention capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates the next request ID (monotonic from 1; never 0).
    pub fn next_request_id(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates the next span ID (monotonic from 1; never 0).
    pub fn next_span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a record, evicting the oldest when full.
    pub fn record(&self, record: SpanRecord) {
        let mut ring = ring_lock(&self.ring);
        if self.capacity == 0 {
            ring.dropped = ring.dropped.saturating_add(1);
            return;
        }
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped = ring.dropped.saturating_add(1);
        }
        ring.records.push_back(record);
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        ring_lock(&self.ring).records.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many records were evicted (or discarded by a zero-capacity
    /// log) since creation.
    pub fn dropped(&self) -> u64 {
        ring_lock(&self.ring).dropped
    }

    /// A snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        ring_lock(&self.ring).records.iter().copied().collect()
    }

    /// The retained window as JSON lines, oldest first, one record per
    /// line (trailing newline after each line).
    pub fn to_jsonl(&self) -> String {
        let records = self.snapshot();
        let mut out = String::new();
        for r in &records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_round_trips_through_its_name() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "ALL is in declaration order");
            assert_eq!(Stage::parse(stage.name()), Some(stage));
            assert!(crate::is_valid_probe_name(stage.name()), "bad stage name {stage:?}");
        }
    }

    #[test]
    fn unknown_names_parse_to_none() {
        for name in ["serve.bogus", "serve.parze", "", "serve", "Serve.parse", "serve.parse "] {
            assert_eq!(Stage::parse(name), None, "{name:?}");
        }
    }

    #[test]
    fn stages_order_by_name() {
        let mut by_order = Stage::ALL;
        by_order.sort();
        let mut by_name = Stage::ALL;
        by_name.sort_by_key(|s| s.name());
        assert_eq!(by_order, by_name);
    }

    #[test]
    fn ids_are_unique_and_never_zero() {
        let log = SpanLog::new(4);
        let a = log.next_request_id();
        let b = log.next_request_id();
        let s1 = log.next_span_id();
        let s2 = log.next_span_id();
        assert!(a > 0 && b > 0 && s1 > 0 && s2 > 0);
        assert_ne!(a, b);
        assert_ne!(s1, s2);
    }

    #[test]
    fn id_base_offsets_both_counters() {
        let base = 9101u64 << 32;
        let log = SpanLog::with_id_base(4, base);
        assert_eq!(log.next_request_id(), base + 1);
        assert_eq!(log.next_span_id(), base + 1);
        assert_eq!(log.next_span_id(), base + 2);
        // The default namespace can never collide with a based one.
        let plain = SpanLog::new(4);
        assert!(plain.next_span_id() < base);
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let log = SpanLog::new(3);
        for i in 0..10u64 {
            log.record(SpanRecord {
                request: 1,
                span: i + 1,
                parent: 0,
                stage: Stage::ExecRun,
                start_us: i,
                dur_us: 1,
            });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        let spans: Vec<u64> = log.snapshot().iter().map(|r| r.span).collect();
        assert_eq!(spans, [8, 9, 10]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let log = SpanLog::new(0);
        log.record(SpanRecord {
            request: 1,
            span: 1,
            parent: 0,
            stage: Stage::ServeWrite,
            start_us: 0,
            dur_us: 5,
        });
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let log = SpanLog::new(8);
        log.record(SpanRecord {
            request: 3,
            span: 7,
            parent: 2,
            stage: Stage::ServeSimulate,
            start_us: 1500,
            dur_us: 2500,
        });
        assert_eq!(
            log.to_jsonl(),
            "{\"request\":3,\"span\":7,\"parent\":2,\"stage\":\"serve.simulate\",\
             \"start_us\":1500,\"dur_us\":2500}\n"
        );
    }

    #[test]
    fn concurrent_writers_lose_nothing_under_capacity() {
        let log = std::sync::Arc::new(SpanLog::new(1024));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = std::sync::Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..64u64 {
                        log.record(SpanRecord {
                            request: t + 1,
                            span: log.next_span_id(),
                            parent: 0,
                            stage: Stage::ExecRun,
                            start_us: i,
                            dur_us: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(log.len(), 256);
        assert_eq!(log.dropped(), 0);
    }
}
