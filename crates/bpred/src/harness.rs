//! Trace replay harness — the CBP "simulator loop".

use crate::BranchPredictor;
use vstress_trace::record::BranchRecord;

/// Outcome statistics of replaying one branch trace through one predictor.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BpredStats {
    /// Conditional branches simulated.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Retired instructions the trace window spans (for MPKI); equals
    /// `branches` when unknown.
    pub window_instructions: u64,
}

impl BpredStats {
    /// Fraction of branches mispredicted, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Mispredictions per kilo-instruction over the trace window.
    pub fn mpki(&self) -> f64 {
        if self.window_instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.window_instructions as f64 * 1000.0
        }
    }
}

/// Replays `trace` through `predictor` with the CBP predict/update
/// contract. The MPKI denominator defaults to the branch count; use
/// [`run_with_window`] when the enclosing instruction window is known.
pub fn run<P: BranchPredictor>(predictor: &mut P, trace: &[BranchRecord]) -> BpredStats {
    run_with_window(predictor, trace, trace.len() as u64)
}

/// Replays `trace` and reports MPKI relative to `window_instructions`
/// (the paper's windows are 1 B instructions of which branches are a few
/// percent).
///
/// Dispatches the whole trace through one
/// [`BranchPredictor::replay`] call, so type-erased predictors pay one
/// virtual call per trace instead of two per branch.
pub fn run_with_window<P: BranchPredictor>(
    predictor: &mut P,
    trace: &[BranchRecord],
    window_instructions: u64,
) -> BpredStats {
    let mispredicts = predictor.replay(trace);
    BpredStats { branches: trace.len() as u64, mispredicts, window_instructions }
}

/// A streaming predictor adaptor: implements
/// [`BranchSink`](vstress_trace::record::BranchSink) so a predictor can be
/// attached directly to an instrumented encode (no trace buffering), which
/// is how the workbench computes whole-run branch MPKI (Fig. 6a / Fig. 7).
#[derive(Debug)]
pub struct OnlinePredictor<P> {
    predictor: P,
    branches: u64,
    mispredicts: u64,
}

impl<P: BranchPredictor> OnlinePredictor<P> {
    /// Wraps a predictor for online use.
    pub fn new(predictor: P) -> Self {
        OnlinePredictor { predictor, branches: 0, mispredicts: 0 }
    }

    /// Statistics so far; `window_instructions` supplies the MPKI
    /// denominator (pass total retired instructions).
    pub fn stats(&self, window_instructions: u64) -> BpredStats {
        BpredStats { branches: self.branches, mispredicts: self.mispredicts, window_instructions }
    }

    /// The wrapped predictor.
    pub fn into_inner(self) -> P {
        self.predictor
    }
}

impl<P: BranchPredictor> vstress_trace::record::BranchSink for OnlinePredictor<P> {
    #[inline]
    fn observe_branch(&mut self, pc: u64, taken: bool) {
        let guess = self.predictor.predict(pc);
        if guess != taken {
            self.mispredicts += 1;
        }
        self.branches += 1;
        self.predictor.update(pc, taken, guess);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bimodal;
    use vstress_trace::record::BranchSink;

    /// The pre-batching replay loop: predict/update dispatched per record, so
    /// a type-erased predictor pays two virtual calls per branch. Kept as the
    /// equivalence reference: `replay` must produce identical stats on every
    /// predictor.
    fn run_per_record(
        predictor: &mut dyn BranchPredictor,
        trace: &[BranchRecord],
        window_instructions: u64,
    ) -> BpredStats {
        let mut mispredicts = 0u64;
        for r in trace {
            let guess = predictor.predict(r.pc);
            if guess != r.taken {
                mispredicts += 1;
            }
            predictor.update(r.pc, r.taken, guess);
        }
        BpredStats { branches: trace.len() as u64, mispredicts, window_instructions }
    }

    fn biased_trace(n: usize) -> Vec<BranchRecord> {
        (0..n).map(|i| BranchRecord { pc: 0x44, taken: i % 10 != 0 }).collect()
    }

    #[test]
    fn run_counts_branches_and_misses() {
        let trace = biased_trace(1000);
        let stats = run(&mut Bimodal::new(10), &trace);
        assert_eq!(stats.branches, 1000);
        assert!(stats.mispredicts > 0 && stats.mispredicts < 300);
        assert!((stats.miss_rate() - stats.mispredicts as f64 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_uses_window_denominator() {
        let trace = biased_trace(1000);
        let stats = run_with_window(&mut Bimodal::new(10), &trace, 100_000);
        // miss per kilo instruction = misses / 100k * 1000 = misses / 100.
        assert!((stats.mpki() - stats.mispredicts as f64 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_safe() {
        let stats = run(&mut Bimodal::new(10), &[]);
        assert_eq!(stats.branches, 0);
        assert_eq!(stats.miss_rate(), 0.0);
        assert_eq!(stats.mpki(), 0.0);
    }

    /// The batched `replay` must match the per-record reference loop
    /// exactly on every paper predictor, including through type erasure
    /// (`Box<dyn BranchPredictor>` must forward to the concrete replay).
    #[test]
    fn batched_replay_matches_per_record_reference() {
        use crate::{Gshare, Tage};
        // A mixed trace: biased loop branch, data-dependent branch, and a
        // second site with its own pattern, long enough to exercise TAGE
        // allocation.
        let mut x = 0x9e37_79b9u64;
        let trace: Vec<BranchRecord> = (0..50_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match i % 3 {
                    0 => BranchRecord { pc: 0x100, taken: i % 24 != 23 },
                    1 => BranchRecord { pc: 0x200, taken: x & 3 == 0 },
                    _ => BranchRecord { pc: 0x300 + (x % 8) * 16, taken: x & 1 == 0 },
                }
            })
            .collect();
        let fresh: Vec<Box<dyn Fn() -> Box<dyn BranchPredictor>>> = vec![
            Box::new(|| Box::new(Gshare::with_budget_bytes(2 << 10))),
            Box::new(|| Box::new(Gshare::with_budget_bytes(32 << 10))),
            Box::new(|| Box::new(Tage::seznec_8kb())),
            Box::new(|| Box::new(Tage::seznec_64kb())),
        ];
        for mk in &fresh {
            let mut a = mk();
            let mut b = mk();
            let reference = run_per_record(a.as_mut(), &trace, 1_000_000);
            let batched = run_with_window(&mut b, &trace, 1_000_000);
            assert_eq!(reference, batched, "replay diverged for {}", mk().label());
        }
    }

    #[test]
    fn online_predictor_matches_offline_replay() {
        let trace = biased_trace(5000);
        let offline = run(&mut Bimodal::new(10), &trace);
        let mut online = OnlinePredictor::new(Bimodal::new(10));
        for r in &trace {
            online.observe_branch(r.pc, r.taken);
        }
        let stats = online.stats(trace.len() as u64);
        assert_eq!(stats.mispredicts, offline.mispredicts);
        assert_eq!(stats.branches, offline.branches);
    }
}
