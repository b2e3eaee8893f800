//! The on-chip memory hierarchy of Wilson & Olukotun, *"Designing High
//! Bandwidth On-Chip Caches"* (ISCA 1997).
//!
//! This crate models everything in the paper's Figure 2 below the processor
//! core, cycle by cycle:
//!
//! * a lock-up-free, fully pipelined, two-way set-associative primary data
//!   cache (4 KB–1 MB, 32-byte lines, 1–3-cycle hit) with four MSHRs,
//! * three port structures — ideal multi-porting, external banking with
//!   line interleaving, and cache duplication ([`PortModel`]),
//! * an optional 32-entry fully associative [`LineBuffer`] in the
//!   load/store unit (the paper's level-zero cache),
//! * a buffered store path that drains into port slots loads leave idle,
//! * a 4 MB off-chip SRAM L2 (10-cycle) or a 4 MB on-chip DRAM cache
//!   (6–8-cycle) behind a 16 KB row-buffer cache ([`SecondLevel`]),
//! * bandwidth-limited buses (2.5 GB/s chip↔L2, 1.6 GB/s L2↔memory) and a
//!   60-cycle main memory.
//!
//! The entry point is [`MemSystem`]; see its documentation for the cycle
//! protocol.

#![warn(missing_docs)]

pub mod addr;
mod bus;
mod cache;
mod config;
mod hierarchy;
mod line_buffer;
mod mshr;
mod ports;
mod stats;
mod store_buffer;

pub use bus::Bus;
pub use cache::{CacheArray, TouchResult};
pub use config::{ConfigError, L1Config, LineBufferConfig, MemConfig, PortModel, SecondLevel};
pub use hierarchy::{LoadResponse, MemSystem, RejectReason, WarmLevel, WarmState};
pub use line_buffer::LineBuffer;
pub use mshr::{MshrFile, MshrFullError};
pub use ports::{PortDenied, PortTracker};
pub use stats::MemStats;
pub use store_buffer::StoreBuffer;
