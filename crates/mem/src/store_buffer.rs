//! The store buffer.

use std::collections::VecDeque;

/// A FIFO of committed stores waiting for idle cache ports.
///
/// The paper assumes "stores can be buffered and bypassed to allow loads to
/// access the cache first", so stores drain only into port slots loads left
/// unused. Commit stalls when the buffer is full.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    fifo: VecDeque<u64>,
    capacity: usize,
    peak: usize,
    accepted: u64,
    full_stalls: u64,
}

impl StoreBuffer {
    /// Creates a buffer of `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer needs at least one entry");
        StoreBuffer {
            fifo: VecDeque::with_capacity(capacity),
            capacity,
            peak: 0,
            accepted: 0,
            full_stalls: 0,
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Attempts to enqueue a committed store to `addr`; returns `false`
    /// (and records a stall) when full.
    pub fn push(&mut self, addr: u64) -> bool {
        if self.fifo.len() == self.capacity {
            self.full_stalls += 1;
            return false;
        }
        self.fifo.push_back(addr);
        self.peak = self.peak.max(self.fifo.len());
        self.accepted += 1;
        true
    }

    /// Address of the oldest buffered store.
    pub fn peek(&self) -> Option<u64> {
        self.fifo.front().copied()
    }

    /// Removes the oldest buffered store.
    pub fn pop(&mut self) -> Option<u64> {
        self.fifo.pop_front()
    }

    /// Highest occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Stores accepted over the run.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Push attempts denied because the buffer was full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        assert!(sb.push(1) && sb.push(2) && sb.push(3));
        assert_eq!(sb.peek(), Some(1));
        assert_eq!(sb.pop(), Some(1));
        assert_eq!(sb.pop(), Some(2));
        assert_eq!(sb.len(), 1);
    }

    #[test]
    fn full_buffer_rejects_and_counts() {
        let mut sb = StoreBuffer::new(2);
        assert!(sb.push(1) && sb.push(2));
        assert!(!sb.push(3));
        assert_eq!(sb.full_stalls(), 1);
        sb.pop();
        assert!(sb.push(3));
        assert_eq!(sb.accepted(), 3);
        assert_eq!(sb.peak(), 2);
    }

    #[test]
    fn empty_behaviour() {
        let mut sb = StoreBuffer::new(1);
        assert!(sb.is_empty());
        assert_eq!(sb.peek(), None);
        assert_eq!(sb.pop(), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_capacity_rejected() {
        let _ = StoreBuffer::new(0);
    }
}
