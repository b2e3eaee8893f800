//! Experiment drivers reproducing every table and figure of Wilson &
//! Olukotun, *"Designing High Bandwidth On-Chip Caches"* (ISCA 1997).
//!
//! This crate ties the substrates together — [`hbc_timing`] access-time
//! curves, [`hbc_workloads`] benchmark models, [`hbc_mem`] hierarchies, and
//! the [`hbc_cpu`] core — into the paper's experiments. The entry points:
//!
//! * [`SimBuilder`] — run one configuration and get IPC plus memory
//!   statistics;
//! * [`miss_curve`] — fast functional miss-rate sweeps (Figure 3);
//! * the [`experiments`] module — one driver per paper table/figure.
//!
//! # Example
//!
//! ```
//! use hbc_core::{Benchmark, SimBuilder};
//!
//! let ipc = SimBuilder::new(Benchmark::Tomcatv)
//!     .cache_size_kib(64)
//!     .instructions(10_000)
//!     .warmup(2_000)
//!     .run()
//!     .ipc();
//! assert!(ipc > 0.2);
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod exectime;
pub mod experiments;
mod misses;
pub mod report;
mod sim;
pub mod spans;
mod warm;

pub use experiments::ExpParams;
pub use hbc_probe::{
    ProbeExport, ProbeRegistry, SpanLog, SpanRecord, Stage, StallBreakdown, StallCause,
};
pub use hbc_workloads::Benchmark;
pub use misses::{miss_curve, misses_per_instruction};
pub use sim::{SimBuilder, SimResult, DEFAULT_CACHE_WARM, DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP};
