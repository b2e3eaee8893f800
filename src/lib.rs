//! `hbcache` — a simulator suite reproducing Wilson & Olukotun,
//! *"Designing High Bandwidth On-Chip Caches"* (ISCA 1997).
//!
//! This façade crate re-exports the workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`timing`] — FO4 delay units, CACTI-style model, Figure 1 curves,
//!   pipelining fit rules.
//! * [`isa`] — operation classes, R10000 latencies, dynamic instruction
//!   records.
//! * [`workloads`] — deterministic synthetic models of the paper's nine
//!   benchmarks.
//! * [`mem`] — the on-chip memory hierarchy: multi-ported / banked /
//!   duplicate L1, line buffer, MSHRs, L2, DRAM cache, buses.
//! * [`cpu`] — the four-issue dynamic superscalar processor model.
//! * [`core`] — experiment drivers reproducing every table and figure of
//!   the paper, plus the execution-time study.
//! * [`probe`] — the observability layer: counter/histogram registry,
//!   stall-cause attribution, and the cycle tracer.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use hbcache::core::{SimBuilder, Benchmark};
//!
//! let result = SimBuilder::new(Benchmark::Gcc)
//!     .cache_size_kib(32)
//!     .instructions(20_000)
//!     .run();
//! assert!(result.ipc() > 0.5 && result.ipc() < 4.0);
//! ```

#![warn(missing_docs)]

pub use hbc_core as core;
pub use hbc_cpu as cpu;
pub use hbc_isa as isa;
pub use hbc_mem as mem;
pub use hbc_probe as probe;
pub use hbc_timing as timing;
pub use hbc_workloads as workloads;
