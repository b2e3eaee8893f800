//! Request-scoped span tracing for the service.
//!
//! Every accepted connection gets a request ID from the shared
//! [`hbc_probe::SpanLog`], and each lifecycle stage — accept, queue wait,
//! parse, cache lookup, single-flight wait, simulate, serialize, write —
//! records one span with monotonic microsecond timestamps measured from
//! the server's start. The retained window is exported verbatim at
//! `GET /trace` as JSON lines, and a per-stage duration histogram feeds
//! the `serve_stage_duration_microseconds` summary in `GET /metrics`.
//!
//! Unlike the simulator's `hbc_core::spans`, which records only while a
//! sink is installed, serve spans are always recorded: the service lives
//! in wall-clock territory anyway, and one mutex push per stage is noise
//! next to a socket write. The clock stays
//! out of `hbc-probe` (which is simulation-deterministic by contract);
//! this module owns the `Instant` origin.
//!
//! # Example
//!
//! ```
//! use hbc_probe::Stage;
//! use hbc_serve::spans::ServeSpans;
//!
//! let spans = ServeSpans::new(64);
//! let request = spans.begin_request();
//! let t0 = spans.now_us();
//! // ... do the stage's work ...
//! spans.record_at(Stage::ServeParse, request, 0, t0, spans.now_us());
//! assert!(spans.to_jsonl().contains("\"stage\":\"serve.parse\""));
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use hbc_probe::{Histogram, SpanLog, SpanRecord, Stage};

use crate::Locked;

/// The server's span sink: a bounded ring of recent [`SpanRecord`]s plus
/// per-stage duration histograms, stamped from one process-local
/// monotonic origin. Shared across the acceptor, workers, and runner
/// threads; all methods take `&self`.
#[derive(Debug)]
pub struct ServeSpans {
    log: SpanLog,
    origin: Instant,
    stages: Locked<BTreeMap<Stage, Histogram>>,
}

impl ServeSpans {
    /// A sink retaining the most recent `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        ServeSpans::with_id_base(capacity, 0)
    }

    /// A sink whose request/span IDs start above `base` (see
    /// [`SpanLog::with_id_base`]). Every front end uses its bound port
    /// shifted into the high bits, so a federated trace merge never sees
    /// two processes allocate the same span ID.
    pub fn with_id_base(capacity: usize, base: u64) -> Self {
        ServeSpans {
            log: SpanLog::with_id_base(capacity, base),
            origin: Instant::now(),
            stages: Locked::default(),
        }
    }

    /// Microseconds elapsed since the server started (monotonic).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Allocates a fresh request ID (never 0).
    pub fn begin_request(&self) -> u64 {
        self.log.next_request_id()
    }

    /// Records one completed span of `request` under `stage`, spanning
    /// `[start_us, end_us]` as measured by [`now_us`](Self::now_us), and
    /// folds its duration into the stage's histogram. `parent` is the
    /// enclosing span's ID (0 for a root span). Returns the new span's ID
    /// so callers can nest children under it.
    pub fn record_at(
        &self,
        stage: Stage,
        request: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        let span = self.log.next_span_id();
        self.record_linked(stage, span, request, parent, start_us, end_us);
        span
    }

    /// Allocates a span ID *before* its span completes, so the ID can be
    /// sent to another process as a parent link (the `?trace=` context)
    /// while the span is still open. Pair with
    /// [`record_linked`](Self::record_linked) once the span ends.
    pub fn alloc_span(&self) -> u64 {
        self.log.next_span_id()
    }

    /// Records a completed span under a pre-allocated ID from
    /// [`alloc_span`](Self::alloc_span).
    pub fn record_linked(
        &self,
        stage: Stage,
        span: u64,
        request: u64,
        parent: u64,
        start_us: u64,
        end_us: u64,
    ) {
        let dur_us = end_us.saturating_sub(start_us);
        self.log.record(SpanRecord { request, span, parent, stage, start_us, dur_us });
        self.stages.with(|stages| stages.entry(stage).or_default().record(dur_us));
    }

    /// The retained span window as JSON lines, oldest first (the
    /// `GET /trace` body).
    pub fn to_jsonl(&self) -> String {
        self.log.to_jsonl()
    }

    /// A snapshot of the per-stage duration histograms, ordered by stage
    /// name.
    pub fn stage_histograms(&self) -> BTreeMap<Stage, Histogram> {
        self.stages.with(|stages| stages.clone())
    }

    /// The underlying log (tests and drop accounting).
    pub fn log(&self) -> &SpanLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_log_and_stage_histograms() {
        let spans = ServeSpans::new(16);
        let request = spans.begin_request();
        assert!(request > 0);
        let parent = spans.record_at(Stage::ServeAccept, request, 0, 5, 10);
        let child = spans.record_at(Stage::ServeParse, request, parent, 10, 250);
        assert_ne!(parent, child);

        let records = spans.log().snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].parent, parent);
        assert_eq!(records[1].dur_us, 240);

        let stages = spans.stage_histograms();
        assert_eq!(stages[&Stage::ServeParse].count(), 1);
        assert_eq!(stages[&Stage::ServeParse].max(), 240);
    }

    #[test]
    fn pre_allocated_spans_record_under_their_id() {
        let spans = ServeSpans::new(16);
        let request = spans.begin_request();
        // The forward-span pattern: allocate, ship the ID elsewhere as a
        // parent link, record when the exchange completes.
        let forward = spans.alloc_span();
        spans.record_at(Stage::ServeSimulate, request, forward, 20, 30);
        spans.record_linked(Stage::ClusterForward, forward, request, 0, 10, 50);
        let records = spans.log().snapshot();
        assert_eq!(records[0].parent, forward, "child linked before the parent records");
        assert_eq!(records[1].span, forward);
        assert_eq!(records[1].dur_us, 40);
        assert_eq!(spans.stage_histograms()[&Stage::ClusterForward].count(), 1);
    }

    #[test]
    fn id_base_namespaces_span_ids() {
        let base = 9102u64 << 32;
        let spans = ServeSpans::with_id_base(4, base);
        assert_eq!(spans.begin_request(), base + 1);
        assert_eq!(spans.alloc_span(), base + 1);
    }

    #[test]
    fn clock_is_monotonic_and_backwards_ranges_saturate() {
        let spans = ServeSpans::new(4);
        let a = spans.now_us();
        let b = spans.now_us();
        assert!(b >= a);
        // A stale start timestamp must not underflow the duration.
        spans.record_at(Stage::ServeWrite, 1, 0, 100, 40);
        assert_eq!(spans.log().snapshot()[0].dur_us, 0);
    }
}
