//! Per-cycle cache-port arbitration.

use crate::addr::bank_of;
use crate::config::PortModel;
use hbc_probe::saturating_count;

/// Why a port request was denied this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDenied {
    /// All ports are already servicing accesses this cycle.
    PortsBusy,
    /// The addressed bank is already servicing an access this cycle.
    BankConflict,
}

/// Tracks which ports/banks are consumed within the current cycle.
///
/// The cache is fully pipelined: a port accepts a new access every cycle
/// regardless of hit time, so arbitration is purely per-cycle.
#[derive(Debug, Clone)]
pub struct PortTracker {
    model: PortModel,
    line_bytes: u64,
    used: u32,
    loads_this_cycle: u32,
    banks_used: Vec<bool>,
    bank_conflicts: u64,
    port_rejections: u64,
}

impl PortTracker {
    /// Creates a tracker for `model` with `line_bytes`-byte line
    /// interleaving (banked models).
    pub fn new(model: PortModel, line_bytes: u64) -> Self {
        let banks = match model {
            PortModel::Banked(n) => n as usize,
            _ => 0,
        };
        PortTracker {
            model,
            line_bytes,
            used: 0,
            loads_this_cycle: 0,
            banks_used: vec![false; banks],
            bank_conflicts: 0,
            port_rejections: 0,
        }
    }

    /// The port model being tracked.
    pub fn model(&self) -> PortModel {
        self.model
    }

    /// Resets per-cycle usage; call once at the start of every cycle.
    pub fn begin_cycle(&mut self) {
        self.used = 0;
        self.loads_this_cycle = 0;
        self.banks_used.iter_mut().for_each(|b| *b = false);
    }

    /// Attempts to acquire a port for a load to `addr` this cycle.
    ///
    /// # Errors
    ///
    /// [`PortDenied::PortsBusy`] if all ports are taken, or
    /// [`PortDenied::BankConflict`] if the addressed bank is busy.
    pub fn acquire_load(&mut self, addr: u64) -> Result<(), PortDenied> {
        match self.model {
            PortModel::Ideal(n) => {
                if self.used >= n {
                    saturating_count(&mut self.port_rejections, 1);
                    return Err(PortDenied::PortsBusy);
                }
                self.used += 1;
            }
            PortModel::Duplicate => {
                if self.used >= 2 {
                    saturating_count(&mut self.port_rejections, 1);
                    return Err(PortDenied::PortsBusy);
                }
                self.used += 1;
            }
            PortModel::Banked(n) => {
                let bank = bank_of(addr, self.line_bytes, n) as usize;
                if self.banks_used[bank] {
                    saturating_count(&mut self.bank_conflicts, 1);
                    return Err(PortDenied::BankConflict);
                }
                self.banks_used[bank] = true;
                self.used += 1;
            }
        }
        self.loads_this_cycle += 1;
        Ok(())
    }

    /// Attempts to acquire port(s) for a buffered store to `addr` this
    /// cycle. A duplicate cache requires *both* copies idle (the paper
    /// assumes stores wait "until both cache ports are not servicing load
    /// instructions"); banked and ideal caches need one free slot/bank.
    ///
    /// # Errors
    ///
    /// [`PortDenied`] as for loads.
    pub fn acquire_store(&mut self, addr: u64) -> Result<(), PortDenied> {
        match self.model {
            PortModel::Ideal(n) => {
                if self.used >= n {
                    return Err(PortDenied::PortsBusy);
                }
                self.used += 1;
                Ok(())
            }
            PortModel::Duplicate => {
                if self.loads_this_cycle > 0 || self.used > 0 {
                    return Err(PortDenied::PortsBusy);
                }
                self.used = 2; // writes both copies
                Ok(())
            }
            PortModel::Banked(n) => {
                let bank = bank_of(addr, self.line_bytes, n) as usize;
                if self.banks_used[bank] {
                    saturating_count(&mut self.bank_conflicts, 1);
                    return Err(PortDenied::BankConflict);
                }
                self.banks_used[bank] = true;
                self.used += 1;
                Ok(())
            }
        }
    }

    /// Accesses accepted so far this cycle.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Lifetime count of bank-conflict denials.
    pub fn bank_conflicts(&self) -> u64 {
        self.bank_conflicts
    }

    /// Lifetime count of all-ports-busy denials (loads only).
    pub fn port_rejections(&self) -> u64 {
        self.port_rejections
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_ports_cap_per_cycle() {
        let mut t = PortTracker::new(PortModel::Ideal(2), 32);
        t.begin_cycle();
        assert!(t.acquire_load(0x00).is_ok());
        assert!(t.acquire_load(0x20).is_ok());
        assert_eq!(t.acquire_load(0x40), Err(PortDenied::PortsBusy));
        t.begin_cycle();
        assert!(t.acquire_load(0x40).is_ok(), "fresh cycle frees ports");
    }

    #[test]
    fn banked_conflicts_on_same_bank_only() {
        let mut t = PortTracker::new(PortModel::Banked(8), 32);
        t.begin_cycle();
        assert!(t.acquire_load(0x000).is_ok()); // bank 0
        assert!(t.acquire_load(0x020).is_ok()); // bank 1
        assert_eq!(t.acquire_load(0x100), Err(PortDenied::BankConflict)); // bank 0 again
        assert_eq!(t.bank_conflicts(), 1);
        // Eight banks allow eight parallel accesses to distinct banks.
        t.begin_cycle();
        for b in 0..8u64 {
            assert!(t.acquire_load(b * 32).is_ok(), "bank {b}");
        }
        assert_eq!(t.used(), 8);
    }

    #[test]
    fn duplicate_store_needs_idle_cache() {
        let mut t = PortTracker::new(PortModel::Duplicate, 32);
        t.begin_cycle();
        assert!(t.acquire_load(0x00).is_ok());
        assert_eq!(t.acquire_store(0x40), Err(PortDenied::PortsBusy));
        t.begin_cycle();
        assert!(t.acquire_store(0x40).is_ok());
        // The store consumed both copies: no load can follow this cycle.
        assert_eq!(t.acquire_load(0x00), Err(PortDenied::PortsBusy));
    }

    #[test]
    fn ideal_store_takes_one_slot() {
        let mut t = PortTracker::new(PortModel::Ideal(2), 32);
        t.begin_cycle();
        assert!(t.acquire_store(0x00).is_ok());
        assert!(t.acquire_load(0x20).is_ok());
        assert_eq!(t.used(), 2);
    }

    #[test]
    fn banked_store_conflicts_like_a_load() {
        let mut t = PortTracker::new(PortModel::Banked(2), 32);
        t.begin_cycle();
        assert!(t.acquire_load(0x00).is_ok()); // bank 0
        assert_eq!(t.acquire_store(0x80), Err(PortDenied::BankConflict)); // bank 0
        assert!(t.acquire_store(0x20).is_ok()); // bank 1
    }
}
