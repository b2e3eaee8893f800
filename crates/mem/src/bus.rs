//! Bandwidth-limited transfer channels.

/// A bus with finite bandwidth, modeled as serialized occupancy: each
/// transfer holds the bus for `bytes / bytes_per_cycle` cycles and later
/// transfers queue behind it.
///
/// The paper's machine has 2.5 GB/s between processor die and L2
/// (12.5 bytes/cycle at 200 MHz) and 1.6 GB/s between L2 and memory
/// (8 bytes/cycle).
///
/// # Example
///
/// ```
/// use hbc_mem::Bus;
///
/// let mut bus = Bus::new(8.0);
/// // A 64-byte line holds the bus for 8 cycles.
/// assert_eq!(bus.reserve(100, 64), 100); // starts immediately
/// assert_eq!(bus.reserve(100, 64), 108); // queues behind the first
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    bytes_per_cycle: f64,
    free_at: u64,
    busy_cycles: u64,
    transfers: u64,
}

impl Bus {
    /// Creates a bus transferring `bytes_per_cycle` bytes per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bus bandwidth must be positive");
        Bus { bytes_per_cycle, free_at: 0, busy_cycles: 0, transfers: 0 }
    }

    /// Bandwidth in bytes per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle
    }

    /// Cycles a transfer of `bytes` occupies the bus (at least one).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        ((bytes as f64 / self.bytes_per_cycle).ceil() as u64).max(1)
    }

    /// Reserves the bus for `bytes` starting no earlier than `now`;
    /// returns the cycle the transfer actually starts.
    pub fn reserve(&mut self, now: u64, bytes: u64) -> u64 {
        let start = now.max(self.free_at);
        let dur = self.transfer_cycles(bytes);
        self.free_at = start + dur;
        self.busy_cycles += dur;
        self.transfers += 1;
        start
    }

    /// First cycle at which the bus is free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Total cycles of occupancy so far.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidths() {
        let chip_l2 = Bus::new(12.5);
        assert_eq!(chip_l2.transfer_cycles(32), 3); // 32 B line in 2.56 -> 3
        let l2_mem = Bus::new(8.0);
        assert_eq!(l2_mem.transfer_cycles(64), 8);
    }

    #[test]
    fn queuing_delays_later_transfers() {
        let mut bus = Bus::new(8.0);
        assert_eq!(bus.reserve(10, 64), 10);
        assert_eq!(bus.reserve(12, 64), 18);
        assert_eq!(bus.reserve(40, 8), 40); // bus idle again by then
        assert_eq!(bus.transfers(), 3);
        assert_eq!(bus.busy_cycles(), 17);
    }

    #[test]
    fn minimum_one_cycle() {
        let bus = Bus::new(100.0);
        assert_eq!(bus.transfer_cycles(1), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bus::new(0.0);
    }

    mod properties {
        use super::*;

        /// Transfers serialize: each starts no earlier than requested
        /// and no earlier than the previous transfer ended, and total
        /// occupancy equals the sum of the individual durations.
        #[test]
        fn reservations_never_overlap() {
            hbc_ptest::check_default("reservations_never_overlap", |g| {
                let reqs = g.vec(1, 50, |g| (g.u64_below(10_000), g.u64_in(1, 511)));
                let mut bus = Bus::new(8.0);
                let mut last_end = 0u64;
                let mut expect_busy = 0u64;
                let mut now = 0u64;
                for (gap, bytes) in reqs {
                    now += gap;
                    let start = bus.reserve(now, bytes);
                    assert!(start >= now);
                    assert!(start >= last_end, "transfer started on a busy bus");
                    last_end = start + bus.transfer_cycles(bytes);
                    expect_busy += bus.transfer_cycles(bytes);
                }
                assert_eq!(bus.busy_cycles(), expect_busy);
                assert_eq!(bus.free_at(), last_end);
            });
        }
    }
}
