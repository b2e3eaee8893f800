//! The analysis rules. The authoritative name/summary/explanation
//! table is [`crate::RULES`]; each module here implements one entry.

pub mod cast_truncation;
pub mod config_validate;
pub mod determinism;
pub mod exec_merge;
pub mod lock_discipline;
pub mod panic_path;
pub mod probe_coverage;
pub mod probe_naming;
pub mod serve_io_panic;
pub mod units;
