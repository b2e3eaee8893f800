//! Observability for the hbcache simulator: counters, histograms, stall
//! attribution, and cycle tracing.
//!
//! The paper's entire argument rests on *explaining* IPC differences across
//! port, pipelining, and DRAM configurations — bank conflicts, load
//! latency, line-buffer hits. This crate is the vocabulary the rest of the
//! workspace uses to answer "where did the cycles go?":
//!
//! * [`ProbeRegistry`] — a registry of named [`Counter`]s and
//!   [`Histogram`]s. Names are hierarchical dotted paths
//!   (`cpu.issue.width_used`, `mem.l1.load_misses`); the scheme is enforced
//!   at registration and by the `probe-naming` lint in `hbc-analyze`.
//! * [`StallCause`] / [`StallBreakdown`] — the per-cycle stall taxonomy.
//!   Every simulated cycle is charged to exactly one cause, so the
//!   breakdown sums to total cycles (checked under the `sanitize` feature).
//! * [`Tracer`] — a bounded ring buffer of pipeline and cache
//!   [`TraceEvent`]s, dumpable as JSON lines for the last N cycles.
//! * [`ProbeExport`] — implemented by the workspace's statistics structs
//!   (`RunStats`, `MemStats`, `StreamStats`) so every counter has one
//!   naming scheme and one reporting path.
//! * [`SpanLog`] / [`SpanRecord`] — request-scoped structured spans: a
//!   thread-safe bounded ring of per-stage timings (clockless; callers
//!   supply monotonic microsecond stamps) exported as JSONL, each recorded
//!   under a closed [`Stage`] enum.
//!
//! This crate holds *data types only*; it does no per-cycle work by
//! itself. The per-cycle instrumentation that feeds these types lives in
//! `hbc-cpu` behind its `probe` cargo feature and compiles out entirely
//! when the feature is off, so figure runs without it are bit-identical
//! and no slower. All state is deterministic (`BTreeMap`, no clocks, no
//! RNG): a probe report is as reproducible as the simulation it describes.
//!
//! # Example
//!
//! ```
//! use hbc_probe::ProbeRegistry;
//!
//! let mut reg = ProbeRegistry::new();
//! reg.counter("mem.lb.hits").add(3);
//! reg.histogram("cpu.issue.width_used").record(4);
//! assert_eq!(reg.get("mem.lb.hits"), Some(3));
//! assert!(reg.to_json().contains("\"mem.lb.hits\":3"));
//! ```

#![warn(missing_docs)]

mod counter;
mod name;
mod registry;
pub mod span;
mod stall;
mod trace;

pub use counter::{saturating_count, Counter, Histogram};
pub use name::is_valid_probe_name;
pub use registry::{ProbeExport, ProbeRegistry};
pub use span::{SpanLog, SpanRecord, Stage};
pub use stall::{StallBreakdown, StallCause};
pub use trace::{TraceEvent, Tracer};
