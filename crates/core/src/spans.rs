//! Global span sink for the simulation layers.
//!
//! The span *types* live in [`hbc_probe::span`] and are clockless; this
//! module is the only place on the simulation side that owns a wall
//! clock. It holds one process-global [`SpanLog`] sink plus a thread-local
//! `(request, parent span)` context, so the exec engine and the simulation
//! runner can emit spans without threading a handle through every call:
//!
//! * [`install`] / [`uninstall`] — attach or detach the sink (the
//!   `--spans out.jsonl` flag in the figure binaries drives these);
//! * [`begin_request`] — start a new unit of work (one experiment cell)
//!   on the current thread;
//! * [`enter`] — open a nested span that records itself on drop;
//! * [`record_since`] — record a leaf span from an explicit start stamp
//!   (used where a guard cannot straddle the timed region, e.g. the
//!   work-steal fetch).
//!
//! **Cost discipline.** With no sink installed, each call is one relaxed
//! atomic load, paid a few times per sweep cell and never per simulated
//! cycle. The simulated numbers cannot change — spans are observability
//! metadata the simulation never reads — and the `span_equivalence`
//! golden test in `hbc-bench` pins the stronger claim: figure outputs are
//! byte-identical with a sink installed and without, serial and
//! parallel.
//!
//! The wall clock confined here is exactly why `hbc-probe` stays
//! clockless: determinism linting still guarantees no simulation *result*
//! can depend on time, while this module timestamps the metadata.

use hbc_probe::{SpanLog, SpanRecord, Stage};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
// The sink is shared metadata, not simulation state: workers append
// span records in arrival order, and nothing the simulator computes
// ever reads them back.
// hbc-allow: exec-merge (global span sink is observability metadata; simulation results never read it)
use std::sync::{Arc, Mutex, OnceLock};
// The one wall clock on the simulation side: span timestamps are
// wall-time by definition and never feed back into simulated state.
// hbc-allow: determinism (span timestamps are wall-clock metadata; simulated numbers never depend on them)
use std::time::Instant;

/// Fast path: `false` means every span call returns immediately.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed sink, if any.
// hbc-allow: exec-merge (global span sink is observability metadata; simulation results never read it)
static SINK: Mutex<Option<Arc<SpanLog>>> = Mutex::new(None);
/// Monotonic origin all `*_us` stamps are measured from.
// hbc-allow: determinism (span timestamps are wall-clock metadata; simulated numbers never depend on them)
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// `(request, parent span)` for spans opened on this thread.
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Recovers from a poisoned sink lock: a panicking recorder loses at
/// most its own record.
fn sink() -> Option<Arc<SpanLog>> {
    if !enabled() {
        return None;
    }
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Installs a fresh sink retaining the last `capacity` spans and
/// returns it; subsequent span calls on any thread record into it.
pub fn install(capacity: usize) -> Arc<SpanLog> {
    let log = Arc::new(SpanLog::new(capacity));
    // hbc-allow: determinism (span timestamps are wall-clock metadata; simulated numbers never depend on them)
    ORIGIN.get_or_init(Instant::now);
    *SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&log));
    ENABLED.store(true, Ordering::Release);
    log
}

/// Detaches the sink (span calls become single-atomic-load no-ops
/// again) and returns it for export.
pub fn uninstall() -> Option<Arc<SpanLog>> {
    ENABLED.store(false, Ordering::Release);
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
}

/// `true` while a sink is installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the sink's monotonic origin (0 when disabled).
pub fn now_us() -> u64 {
    if !enabled() {
        return 0;
    }
    match ORIGIN.get() {
        Some(origin) => u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX),
        None => 0,
    }
}

/// Starts a new unit of work on this thread: allocates a request ID
/// and resets the parent-span context. Returns the ID (0 when
/// disabled).
pub fn begin_request() -> u64 {
    let Some(log) = sink() else {
        return 0;
    };
    let request = log.next_request_id();
    CTX.with(|c| c.set((request, 0)));
    request
}

/// An open span: records itself into the sink when dropped and
/// restores the parent-span context.
pub struct SpanGuard {
    active: Option<Active>,
}

struct Active {
    log: Arc<SpanLog>,
    stage: Stage,
    request: u64,
    span: u64,
    parent: u64,
    start_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else {
            return;
        };
        let end = now_us();
        a.log.record(SpanRecord {
            request: a.request,
            span: a.span,
            parent: a.parent,
            stage: a.stage,
            start_us: a.start_us,
            dur_us: end.saturating_sub(a.start_us),
        });
        CTX.with(|c| c.set((a.request, a.parent)));
    }
}

/// Opens a span for `stage` under the current request and parent;
/// the span records itself when the guard drops. Inert when disabled.
pub fn enter(stage: Stage) -> SpanGuard {
    let Some(log) = sink() else {
        return SpanGuard { active: None };
    };
    let (request, parent) = CTX.with(|c| c.get());
    let span = log.next_span_id();
    CTX.with(|c| c.set((request, span)));
    SpanGuard { active: Some(Active { log, stage, request, span, parent, start_us: now_us() }) }
}

/// Records a completed leaf span for `stage` that began at
/// `start_us` (a prior [`now_us`] stamp) and ends now. No-op when
/// disabled.
pub fn record_since(stage: Stage, start_us: u64) {
    let Some(log) = sink() else {
        return;
    };
    let (request, parent) = CTX.with(|c| c.get());
    let end = now_us();
    log.record(SpanRecord {
        request,
        span: log.next_span_id(),
        parent,
        stage,
        start_us,
        dur_us: end.saturating_sub(start_us),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so the scenarios share one test, and
    // only records under this test's request count: other unit tests
    // running sims on parallel threads record into the sink too.
    #[test]
    fn install_record_uninstall_round_trip() {
        assert_eq!(begin_request(), 0);
        record_since(Stage::ExecSteal, 0); // disabled: must not record anywhere
        drop(enter(Stage::ExecRun));

        let log = install(64);
        assert!(enabled());
        let request = begin_request();
        assert!(request > 0);
        {
            let _outer = enter(Stage::SimWarmUp);
            let _inner = enter(Stage::SimMeasured);
        }
        record_since(Stage::ExecSteal, now_us());
        let records: Vec<SpanRecord> =
            log.snapshot().into_iter().filter(|r| r.request == request).collect();
        assert_eq!(records.len(), 3);
        // Inner span recorded first (drop order), nested under the outer.
        assert_eq!(records[0].stage, Stage::SimMeasured);
        assert_eq!(records[1].stage, Stage::SimWarmUp);
        assert_eq!(records[0].parent, records[1].span);
        assert_eq!(records[1].parent, 0);
        assert_eq!(records[2].stage, Stage::ExecSteal);

        assert!(uninstall().is_some());
        assert!(!enabled());
        drop(enter(Stage::ExecRun)); // disabled again: no panic, no record
    }
}
