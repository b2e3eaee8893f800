//! Observability for the hbcache simulator: counters, histograms, stall
//! attribution, and cycle tracing.
//!
//! The paper's entire argument rests on *explaining* IPC differences across
//! port, pipelining, and DRAM configurations — bank conflicts, load
//! latency, line-buffer hits. This crate is the vocabulary the rest of the
//! workspace uses to answer "where did the cycles go?":
//!
//! * [`ProbeRegistry`] — a registry of counters and [`Histogram`]s keyed
//!   by the closed id types [`Probe`] and [`HistogramProbe`]. Each id's
//!   name is a hierarchical dotted path (`cpu.issue.width_used`,
//!   `mem.l1.load_misses`) written once, so a misspelt probe does not
//!   compile.
//! * [`StallCause`] / [`StallBreakdown`] — the per-cycle stall taxonomy.
//!   Every simulated cycle is charged to exactly one cause, so the
//!   breakdown sums to total cycles (checked under the `sanitize` feature).
//! * [`Tracer`] — a bounded ring buffer of pipeline and cache
//!   [`TraceEvent`]s, dumpable as JSON lines for the last N cycles.
//! * [`SpanLog`] / [`SpanRecord`] — request-scoped structured spans: a
//!   thread-safe bounded ring of per-stage timings (clockless; callers
//!   supply monotonic microsecond stamps) exported as JSONL, each recorded
//!   under a closed [`Stage`] enum.
//!
//! This crate holds *data types only*; it does no per-cycle work by
//! itself. The per-cycle instrumentation that feeds these types lives in
//! `hbc-cpu` and runs in every build; it only observes, so figure output
//! is bit-identical whether probes and traces are requested or not. All
//! state is deterministic (`BTreeMap`, no clocks, no
//! RNG): a probe report is as reproducible as the simulation it describes.
//!
//! # Example
//!
//! ```
//! use hbc_probe::{Histogram, HistogramProbe, Probe, ProbeRegistry};
//!
//! let mut reg = ProbeRegistry::new();
//! reg.set(Probe::MemLbHits, 3);
//! let mut width = Histogram::default();
//! width.record(4);
//! reg.set_histogram(HistogramProbe::CpuIssueWidthUsed, width);
//! assert_eq!(reg.get(Probe::MemLbHits), Some(3));
//! assert!(reg.to_json().contains("\"mem.lb.hits\":3"));
//! ```

#![warn(missing_docs)]

mod counter;
mod id;
mod name;
mod registry;
pub mod span;
mod stall;
mod trace;

pub use counter::{saturating_count, Histogram};
pub use id::{HistogramProbe, Probe};
pub use name::is_valid_probe_name;
pub use registry::ProbeRegistry;
pub use span::{SpanLog, SpanRecord, Stage};
pub use stall::{StallBreakdown, StallCause};
pub use trace::{TraceEvent, Tracer};
