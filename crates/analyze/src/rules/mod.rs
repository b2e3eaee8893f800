//! The analysis rules. The authoritative name/summary/explanation
//! table is [`crate::RULES`]; each module here implements one entry.

pub mod lock_discipline;
pub mod units;
