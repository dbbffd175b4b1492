//! Gshare (McFarling 1993) global-history predictor.

use crate::counter::SatCounter;
use crate::BranchPredictor;
use vstress_trace::record::BranchRecord;

/// Gshare: a single table of 2-bit counters indexed by
/// `PC XOR global-history`.
///
/// This is one of the two predictor families the paper evaluates (at 2 KB
/// and 32 KB budgets). History length equals the index width, the standard
/// configuration — which means the whole history fits a single `u64`
/// shift register (most recent outcome in bit 0), maintained in O(1) per
/// branch. The pre-rewrite implementation, which read the history bit by
/// bit out of the shared circular buffer on every index computation, is
/// kept as the test-only oracle `reference::ReferenceGshare`; an
/// equivalence test pins the two to identical per-branch predictions.
///
/// ```
/// use vstress_bpred::{BranchPredictor, Gshare};
///
/// let mut p = Gshare::with_budget_bytes(2 << 10);
/// // An always-taken branch: once the global history saturates, the
/// // indexed counter trains and the prediction locks in.
/// for _ in 0..100 {
///     let guess = p.predict(0x40);
///     p.update(0x40, true, guess);
/// }
/// assert!(p.predict(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<SatCounter<2>>,
    /// The `index_bits` most recent outcomes, most recent in bit 0, upper
    /// bits always zero.
    history: u64,
    index_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `2^index_bits` counters and an
    /// `index_bits`-long global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index_bits must be 1..=28");
        Gshare {
            table: vec![SatCounter::weakly_not_taken(); 1 << index_bits],
            history: 0,
            index_bits,
        }
    }

    /// Creates the largest gshare fitting in `bytes` of storage
    /// (2 bits per counter): the paper's 2 KB config yields 8Ki counters,
    /// the 32 KB config 128Ki counters.
    pub fn with_budget_bytes(bytes: u64) -> Self {
        let counters = (bytes * 8 / 2).max(2);
        Self::new(63 - counters.leading_zeros())
    }

    #[inline]
    fn mask(&self) -> u64 {
        (1u64 << self.index_bits) - 1
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask()) as usize
    }
}

impl BranchPredictor for Gshare {
    #[inline]
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].is_taken()
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool, _predicted: bool) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
        self.history = ((self.history << 1) | taken as u64) & self.mask();
    }

    fn storage_bits(&self) -> u64 {
        (self.table.len() as u64) * 2 + self.index_bits as u64
    }

    fn label(&self) -> String {
        format!("gshare-{}KB", (self.table.len() as u64 * 2) / 8 / 1024)
    }

    fn replay(&mut self, trace: &[BranchRecord]) -> u64 {
        // The predict/update pair of one branch computes the same table
        // index twice; a whole-trace replay computes it once and keeps
        // the history register in a local. Observably identical to the
        // default per-record body (same counters touched, same history).
        let mask = self.mask();
        let mut history = self.history;
        let mut mispredicts = 0u64;
        for r in trace {
            let idx = (((r.pc >> 2) ^ history) & mask) as usize;
            let guess = self.table[idx].is_taken();
            mispredicts += (guess != r.taken) as u64;
            self.table[idx].update(r.taken);
            history = ((history << 1) | r.taken as u64) & mask;
        }
        self.history = history;
        mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use vstress_trace::record::BranchRecord;

    #[test]
    fn learns_history_correlated_pattern() {
        // Alternating T/N at one PC is mispredicted forever by bimodal but
        // learned exactly by gshare once history disambiguates the phases.
        let trace: Vec<BranchRecord> =
            (0..4000).map(|i| BranchRecord { pc: 0x80, taken: i % 2 == 0 }).collect();
        let stats = harness::run(&mut Gshare::new(12), &trace);
        assert!(stats.miss_rate() < 0.02, "miss rate {}", stats.miss_rate());
    }

    #[test]
    fn bigger_table_reduces_aliasing() {
        // Many hot branches with conflicting biases alias in a tiny table.
        let mut trace = Vec::new();
        let mut x = 9u64;
        for i in 0..60_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pc = 0x1000 + (x % 4096) * 4;
            trace.push(BranchRecord { pc, taken: pc % 8 < 3 });
            let _ = i;
        }
        let small = harness::run(&mut Gshare::with_budget_bytes(256), &trace);
        let large = harness::run(&mut Gshare::with_budget_bytes(32 << 10), &trace);
        assert!(
            large.miss_rate() < small.miss_rate(),
            "large {} vs small {}",
            large.miss_rate(),
            small.miss_rate()
        );
    }

    #[test]
    fn paper_budget_labels() {
        assert_eq!(Gshare::with_budget_bytes(2 << 10).label(), "gshare-2KB");
        assert_eq!(Gshare::with_budget_bytes(32 << 10).label(), "gshare-32KB");
    }

    #[test]
    fn storage_matches_budget() {
        let p = Gshare::with_budget_bytes(2 << 10);
        // 2KB = 16384 bits of counters (plus the history register).
        assert_eq!(p.storage_bits(), 16384 + 13);
    }
}
