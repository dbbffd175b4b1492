//! Trace-driven branch-predictor simulation — the stand-in for the
//! CBP-2016 framework used by the paper.
//!
//! The paper replays SVT-AV1 branch traces through the Championship Branch
//! Prediction simulator with four predictor configurations: Gshare at 2 KB
//! and 32 KB, and TAGE at 8 KB and 64 KB. This crate provides the same
//! contract: a [`BranchPredictor`] trait, faithful implementations of the
//! classic predictor families at parameterizable hardware budgets, and a
//! [`harness`] that replays a recorded branch trace and reports miss rate
//! and MPKI.
//!
//! ```
//! use vstress_bpred::{harness, Gshare, Tage};
//! use vstress_trace::record::BranchRecord;
//!
//! // A long-period loop branch: taken 7 times, not-taken once, repeatedly.
//! let trace: Vec<BranchRecord> = (0..800)
//!     .map(|i| BranchRecord { pc: 0x5000_0000_0000, taken: i % 8 != 7 })
//!     .collect();
//!
//! let g = harness::run(&mut Gshare::with_budget_bytes(2 << 10), &trace);
//! let t = harness::run(&mut Tage::seznec_8kb(), &trace);
//! assert!(t.miss_rate() <= g.miss_rate(), "TAGE should beat small gshare");
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod bimodal;
pub mod counter;
pub mod gshare;
pub mod harness;
pub mod history;
pub mod local;
pub mod looppred;
pub mod perceptron;
#[cfg(test)]
mod reference;
pub mod tage;
pub mod tournament;

pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use harness::{run, BpredStats};
pub use local::TwoLevelLocal;
pub use looppred::{LoopPredictor, TageWithLoop};
pub use perceptron::Perceptron;
pub use tage::{Tage, TageConfig};
pub use tournament::Tournament;

use vstress_trace::record::BranchRecord;

/// A direction predictor for conditional branches.
///
/// The contract mirrors the CBP framework: the simulator calls
/// [`predict`](BranchPredictor::predict) to obtain a guess, then
/// [`update`](BranchPredictor::update) with the resolved direction —
/// exactly once each, in program order, for every conditional branch.
pub trait BranchPredictor {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains on the resolved direction of the branch at `pc`.
    ///
    /// `predicted` is the value returned by the matching
    /// [`predict`](BranchPredictor::predict) call; predictors that adjust
    /// internal state differently on mispredicts need it (TAGE allocation).
    fn update(&mut self, pc: u64, taken: bool, predicted: bool);

    /// Hardware budget in bits of storage actually modelled.
    fn storage_bits(&self) -> u64;

    /// Short configuration label for reports (e.g. `"gshare-32KB"`).
    fn label(&self) -> String;

    /// Replays a whole recorded trace under the CBP contract and returns
    /// the mispredict count.
    ///
    /// The body is the canonical predict/compare/update loop; overrides
    /// must be observably identical. The method exists for dispatch cost:
    /// default trait methods are monomorphized per implementing type, so
    /// calling this through `&mut dyn BranchPredictor` costs one virtual
    /// call per *trace* — with statically dispatched predict/update
    /// inside — instead of two per *branch* (`harness`'s tests keep the
    /// old per-record loop as the equivalence reference).
    fn replay(&mut self, trace: &[BranchRecord]) -> u64 {
        let mut mispredicts = 0u64;
        for r in trace {
            let guess = self.predict(r.pc);
            if guess != r.taken {
                mispredicts += 1;
            }
            self.update(r.pc, r.taken, guess);
        }
        mispredicts
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for Box<P> {
    fn predict(&mut self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        (**self).update(pc, taken, predicted);
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn replay(&mut self, trace: &[BranchRecord]) -> u64 {
        // Forward explicitly: the boxed type's monomorphized replay (not a
        // per-record loop over forwarded predict/update) must run.
        (**self).replay(trace)
    }
}

impl<P: BranchPredictor + ?Sized> BranchPredictor for &mut P {
    fn predict(&mut self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        (**self).update(pc, taken, predicted);
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }

    fn label(&self) -> String {
        (**self).label()
    }

    fn replay(&mut self, trace: &[BranchRecord]) -> u64 {
        (**self).replay(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_safety() {
        let mut g = Gshare::with_budget_bytes(2048);
        let p: &mut dyn BranchPredictor = &mut g;
        let guess = p.predict(0x40);
        p.update(0x40, true, guess);
        assert!(p.storage_bits() > 0);
    }
}
