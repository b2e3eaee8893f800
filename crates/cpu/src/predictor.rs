//! Hardware branch prediction.
//!
//! The paper's MXS models "hardware branch prediction" without detail; the
//! workload models carry per-branch outcome/misprediction flags calibrated
//! to group-level accuracies. This module provides an actual predictor —
//! a gshare two-bit scheme [after McFarling] — so the fixed-accuracy
//! assumption can itself be validated: run the predictor over a synthetic
//! outcome stream and compare its accuracy to the spec's
//! `branch_accuracy` (see `examples/branch_prediction.rs`).

/// A two-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Counter {
    StrongNot,
    WeakNot,
    #[default]
    WeakTaken,
    StrongTaken,
}

impl Counter {
    fn predict(self) -> bool {
        matches!(self, Counter::WeakTaken | Counter::StrongTaken)
    }

    fn update(self, taken: bool) -> Counter {
        match (self, taken) {
            (Counter::StrongNot, true) => Counter::WeakNot,
            (Counter::WeakNot, true) => Counter::WeakTaken,
            (Counter::WeakTaken, true) => Counter::StrongTaken,
            (Counter::StrongTaken, true) => Counter::StrongTaken,
            (Counter::StrongNot, false) => Counter::StrongNot,
            (Counter::WeakNot, false) => Counter::StrongNot,
            (Counter::WeakTaken, false) => Counter::WeakNot,
            (Counter::StrongTaken, false) => Counter::WeakTaken,
        }
    }
}

/// A gshare branch predictor: a table of two-bit counters indexed by the
/// exclusive-or of the branch address and the global history register.
///
/// # Example
///
/// ```
/// use hbc_cpu::Gshare;
///
/// let mut p = Gshare::new(12); // 4096 counters
/// // A loop branch taken 9 of 10 times is learned quickly.
/// for i in 0..1000u64 {
///     let taken = i % 10 != 9;
///     p.predict_and_update(0x4000, taken);
/// }
/// assert!(p.accuracy() > 0.75);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter>,
    history: u64,
    index_bits: u32,
    predictions: u64,
    correct: u64,
}

impl Gshare {
    /// Creates a predictor with `2^index_bits` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero or greater than 24 (a 16M-entry
    /// table is beyond any 1997 budget).
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "index bits must be in 1..=24");
        Gshare {
            table: vec![Counter::default(); 1 << index_bits],
            history: 0,
            index_bits,
            predictions: 0,
            correct: 0,
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked to `index_bits`, which index the table"
    )]
    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ self.history) & mask) as usize
    }

    /// Predicts the branch at `pc`, then updates the counter and global
    /// history with the actual outcome; returns whether the prediction was
    /// correct.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx].predict();
        self.table[idx] = self.table[idx].update(taken);
        self.history = (self.history << 1) | u64::from(taken);
        self.predictions += 1;
        let correct = predicted == taken;
        if correct {
            self.correct += 1;
        }
        correct
    }

    /// Predictions made so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Fraction of predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_taken_branch_saturates() {
        let mut p = Gshare::new(10);
        for _ in 0..100 {
            p.predict_and_update(0x100, true);
        }
        // After warm-up every prediction is correct.
        let warm = p.accuracy();
        assert!(warm > 0.9, "accuracy {warm}");
    }

    #[test]
    fn alternating_branch_with_history_is_learnable() {
        // T,N,T,N... is perfectly predictable once the history register
        // disambiguates the two contexts.
        let mut p = Gshare::new(12);
        for i in 0..2000u64 {
            p.predict_and_update(0x200, i % 2 == 0);
        }
        assert!(p.accuracy() > 0.8, "accuracy {}", p.accuracy());
    }

    #[test]
    fn random_outcomes_hover_near_half() {
        use hbc_workloads::Rng;
        let mut rng = Rng::new(3);
        let mut p = Gshare::new(12);
        for _ in 0..20_000 {
            p.predict_and_update(0x300, rng.chance(0.5));
        }
        let acc = p.accuracy();
        assert!((0.4..0.6).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn biased_random_tracks_the_bias() {
        use hbc_workloads::Rng;
        let mut rng = Rng::new(5);
        let mut p = Gshare::new(12);
        for _ in 0..50_000 {
            p.predict_and_update(0x400, rng.chance(0.85));
        }
        // A 2-bit counter on an 85%-taken branch predicts taken nearly
        // always: accuracy approaches the bias.
        let acc = p.accuracy();
        assert!(acc > 0.78, "accuracy {acc}");
    }

    #[test]
    fn distinct_branches_do_not_destructively_alias_much() {
        let mut p = Gshare::new(14);
        for i in 0..10_000u64 {
            p.predict_and_update(0x1000 + (i % 16) * 4, true);
            p.predict_and_update(0x8000 + (i % 16) * 4, false);
        }
        assert!(p.accuracy() > 0.85, "accuracy {}", p.accuracy());
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn zero_bits_rejected() {
        let _ = Gshare::new(0);
    }
}
