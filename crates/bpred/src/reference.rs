//! Kept pre-rewrite predictor implementations (compiled for tests only).
//!
//! Mirrors `vstress_cache::reference`: when a predictor's hot path is
//! rewritten for speed, the original implementation moves here verbatim
//! and serves as the **equivalence oracle**: property tests drive the
//! live predictor and its reference with the same traces and assert
//! identical per-branch predictions and final mispredict counts, so the
//! rewrite cannot silently change simulated results.

use crate::counter::SatCounter;
use crate::history::{GlobalHistory, HistoryBundle};
use crate::tage::TageConfig;
use crate::BranchPredictor;

/// The original gshare implementation: the global history lives in the
/// shared circular-buffer register and every index computation re-reads
/// it bit by bit through [`GlobalHistory::low_bits`] — O(history length)
/// per predict *and* per update. The live [`crate::Gshare`] replaces
/// this with an O(1) single-word shift register and a whole-trace
/// `replay` that computes each branch's table index once.
#[derive(Debug, Clone)]
pub struct ReferenceGshare {
    table: Vec<SatCounter<2>>,
    history: GlobalHistory,
    index_bits: u32,
}

impl ReferenceGshare {
    /// Creates a reference gshare with `2^index_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index_bits must be 1..=28");
        ReferenceGshare {
            table: vec![SatCounter::weakly_not_taken(); 1 << index_bits],
            history: GlobalHistory::new(),
            index_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        (((pc >> 2) ^ self.history.low_bits(self.index_bits as usize)) & mask) as usize
    }
}

impl BranchPredictor for ReferenceGshare {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].is_taken()
    }

    fn update(&mut self, pc: u64, taken: bool, _predicted: bool) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
        self.history.push(taken);
    }

    fn storage_bits(&self) -> u64 {
        (self.table.len() as u64) * 2 + self.index_bits as u64
    }

    fn label(&self) -> String {
        format!("ref-gshare-{}KB", (self.table.len() as u64 * 2) / 8 / 1024)
    }

    // No `replay` override: the reference keeps the default per-record
    // body, exactly the pre-rewrite dispatch cost.
}

#[derive(Debug, Clone, Copy, Default)]
struct RefTageEntry {
    /// 3-bit counter; >= 4 predicts taken.
    ctr: u8,
    tag: u16,
    /// 2-bit usefulness.
    useful: u8,
}

impl RefTageEntry {
    #[inline]
    fn predicts_taken(&self) -> bool {
        self.ctr >= 4
    }

    #[inline]
    fn is_weak(&self) -> bool {
        self.ctr == 3 || self.ctr == 4
    }

    #[inline]
    fn train(&mut self, taken: bool) {
        if taken {
            if self.ctr < 7 {
                self.ctr += 1;
            }
        } else if self.ctr > 0 {
            self.ctr -= 1;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RefPrediction {
    pc: u64,
    provider: Option<usize>,
    provider_index: usize,
    alt_pred: bool,
    provider_pred: bool,
    final_pred: bool,
    provider_is_new: bool,
    table_indices: [usize; 16],
    table_tags: [u16; 16],
}

/// The original TAGE implementation, kept verbatim: tagged tables as a
/// `Vec<Vec<_>>` (one pointer chase per table per lookup), folded
/// histories behind the generic [`HistoryBundle`] (a heap `Vec` of fold
/// registers walked on every retire), and a ~200-byte `Prediction`
/// scratch copied twice per predict/update round-trip. The live
/// [`crate::Tage`] flattens all three; this copy pins its behaviour,
/// prediction for prediction.
#[derive(Debug, Clone)]
pub struct ReferenceTage {
    config: TageConfig,
    bimodal: Vec<SatCounter<2>>,
    tables: Vec<Vec<RefTageEntry>>,
    history: HistoryBundle,
    /// 4-bit USE_ALT_ON_NA: trust the alternate when the provider is new.
    use_alt_on_na: u8,
    updates: u64,
    /// Which half of the usefulness bits the next aging event clears.
    age_phase: bool,
    /// Deterministic xorshift state for allocation randomization.
    rng: u64,
    /// Scratch from the last prediction, consumed by `update`.
    last: RefPrediction,
}

impl ReferenceTage {
    /// Builds the reference TAGE with the given geometry (same
    /// constraints as [`crate::Tage::new`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see [`crate::Tage::new`]).
    pub fn new(config: TageConfig) -> Self {
        assert!(
            (1..=16).contains(&config.num_tables),
            "num_tables must be 1..=16 (Prediction scratch is fixed-size)"
        );
        assert!(config.tag_bits >= 4 && config.tag_bits <= 16, "tag_bits must be 4..=16");
        assert!(config.min_history >= 1 && config.max_history > config.min_history);
        assert!(config.log_entries >= 4 && config.log_bimodal >= 4);
        let mut specs = Vec::new();
        for i in 0..config.num_tables {
            let l = config.history_length(i);
            specs.push((l, config.log_entries as usize)); // index fold
            specs.push((l, config.tag_bits as usize)); // tag fold 1
            specs.push((l, (config.tag_bits - 1) as usize)); // tag fold 2
        }
        ReferenceTage {
            bimodal: vec![SatCounter::weakly_not_taken(); 1 << config.log_bimodal],
            tables: vec![vec![RefTageEntry::default(); 1 << config.log_entries]; config.num_tables],
            history: HistoryBundle::new(&specs),
            use_alt_on_na: 8,
            updates: 0,
            age_phase: false,
            rng: 0x2545_f491_4f6c_dd1d,
            last: RefPrediction::default(),
            config,
        }
    }

    /// The paper's 8 KB TAGE, reference implementation.
    pub fn seznec_8kb() -> Self {
        Self::new(TageConfig::budget_8kb())
    }

    #[inline]
    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.config.log_bimodal) - 1)) as usize
    }

    #[inline]
    fn table_index(&self, pc: u64, table: usize) -> usize {
        let fold = self.history.fold(table * 3);
        let mask = (1u64 << self.config.log_entries) - 1;
        let pcx = (pc >> 2) ^ (pc >> (2 + self.config.log_entries as u64 + table as u64));
        ((pcx ^ fold) & mask) as usize
    }

    #[inline]
    fn table_tag(&self, pc: u64, table: usize) -> u16 {
        let f1 = self.history.fold(table * 3 + 1);
        let f2 = self.history.fold(table * 3 + 2);
        let mask = (1u64 << self.config.tag_bits) - 1;
        (((pc >> 2) ^ f1 ^ (f2 << 1)) & mask) as u16
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn compute_prediction(&mut self, pc: u64) -> RefPrediction {
        let mut p = RefPrediction { pc, ..RefPrediction::default() };
        for t in 0..self.config.num_tables {
            p.table_indices[t] = self.table_index(pc, t);
            p.table_tags[t] = self.table_tag(pc, t);
        }
        let bim = self.bimodal[self.bimodal_index(pc)].is_taken();
        p.alt_pred = bim;
        p.provider_pred = bim;
        p.final_pred = bim;
        // Scan from longest history (last table) down.
        let mut provider = None;
        let mut alt: Option<bool> = None;
        for t in (0..self.config.num_tables).rev() {
            let e = &self.tables[t][p.table_indices[t]];
            if e.tag == p.table_tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else if alt.is_none() {
                    alt = Some(e.predicts_taken());
                    break;
                }
            }
        }
        if let Some(t) = provider {
            let e = &self.tables[t][p.table_indices[t]];
            p.provider = Some(t);
            p.provider_index = p.table_indices[t];
            p.provider_pred = e.predicts_taken();
            p.alt_pred = alt.unwrap_or(bim);
            p.provider_is_new = e.is_weak() && e.useful == 0;
            p.final_pred = if p.provider_is_new && self.use_alt_on_na >= 8 {
                p.alt_pred
            } else {
                p.provider_pred
            };
        }
        p
    }

    fn allocate(&mut self, p: &RefPrediction, taken: bool) {
        let start = match p.provider {
            Some(t) => t + 1,
            None => 0,
        };
        if start >= self.config.num_tables {
            return;
        }
        // Seznec randomizes the first candidate table to avoid ping-ponging.
        let span = self.config.num_tables - start;
        let skip = if span > 1 { (self.next_rand() % 2) as usize } else { 0 };
        let mut allocated = false;
        for t in (start + skip)..self.config.num_tables {
            let idx = p.table_indices[t];
            if self.tables[t][idx].useful == 0 {
                self.tables[t][idx] = RefTageEntry {
                    ctr: if taken { 4 } else { 3 },
                    tag: p.table_tags[t],
                    useful: 0,
                };
                allocated = true;
                break;
            }
        }
        if !allocated {
            // All candidates useful: age them so a later allocation succeeds.
            for t in start..self.config.num_tables {
                let idx = p.table_indices[t];
                let e = &mut self.tables[t][idx];
                if e.useful > 0 {
                    e.useful -= 1;
                }
            }
        }
    }

    fn age_usefulness(&mut self) {
        // Alternately clear the high / low usefulness bit (Seznec's
        // graceful aging) so entries lose protection over two periods.
        let mask = if self.age_phase { 0b01 } else { 0b10 };
        self.age_phase = !self.age_phase;
        for table in &mut self.tables {
            for e in table.iter_mut() {
                e.useful &= mask;
            }
        }
    }
}

impl BranchPredictor for ReferenceTage {
    fn predict(&mut self, pc: u64) -> bool {
        let p = self.compute_prediction(pc);
        let pred = p.final_pred;
        self.last = p;
        pred
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        // Recompute if the caller skipped predict() or interleaved PCs.
        if self.last.pc != pc {
            let p = self.compute_prediction(pc);
            self.last = p;
        }
        let p = self.last;
        let _ = predicted;
        let mispredicted = p.final_pred != taken;

        if let Some(t) = p.provider {
            // USE_ALT_ON_NA bookkeeping: when the provider is fresh and the
            // two predictions disagree, learn which to trust.
            if p.provider_is_new && p.provider_pred != p.alt_pred {
                if p.provider_pred == taken {
                    if self.use_alt_on_na > 0 {
                        self.use_alt_on_na -= 1;
                    }
                } else if self.use_alt_on_na < 15 {
                    self.use_alt_on_na += 1;
                }
            }
            let e = &mut self.tables[t][p.provider_index];
            // Usefulness tracks "provider beat the alternate".
            if p.provider_pred != p.alt_pred {
                if p.provider_pred == taken {
                    if e.useful < 3 {
                        e.useful += 1;
                    }
                } else if e.useful > 0 {
                    e.useful -= 1;
                }
            }
            e.train(taken);
            // Keep the bimodal warm when it served as the alternate.
            if e.is_weak() {
                let bi = self.bimodal_index(pc);
                self.bimodal[bi].update(taken);
            }
        } else {
            let bi = self.bimodal_index(pc);
            self.bimodal[bi].update(taken);
        }

        if mispredicted {
            self.allocate(&p, taken);
        }

        self.history.push(taken);
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.u_reset_period) {
            self.age_usefulness();
        }
    }

    fn storage_bits(&self) -> u64 {
        let bim = (1u64 << self.config.log_bimodal) * 2;
        let entry_bits = 3 + 2 + self.config.tag_bits as u64;
        let tagged = self.config.num_tables as u64 * (1u64 << self.config.log_entries) * entry_bits;
        bim + tagged + self.config.max_history as u64 + 4
    }

    fn label(&self) -> String {
        let kb = (self.storage_bits() as f64 / 8.0 / 1024.0).ceil() as u64;
        format!("ref-tage-{}KB", kb.next_power_of_two())
    }

    // No `replay` override, as with `ReferenceGshare`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gshare;
    use proptest::prelude::*;
    use vstress_trace::record::BranchRecord;

    // The live gshare must agree with the kept original on every
    // single prediction, not just on aggregate counts: any divergence
    // in the history register or index hash shows up on the first
    // branch where they disagree.
    proptest! {
        #[test]
        fn live_gshare_predicts_identically_to_reference(
            steps in prop::collection::vec((0u64..1u64 << 12, any::<bool>()), 1..3000),
            index_bits in 1u32..18,
        ) {
            let mut live = Gshare::new(index_bits);
            let mut reference = ReferenceGshare::new(index_bits);
            prop_assert_eq!(live.storage_bits(), reference.storage_bits());
            for (i, &(pc_seed, taken)) in steps.iter().enumerate() {
                let pc = 0x1000 + pc_seed * 4;
                let a = live.predict(pc);
                let b = reference.predict(pc);
                prop_assert_eq!(a, b, "diverged at branch {} (pc {:#x})", i, pc);
                live.update(pc, taken, a);
                reference.update(pc, taken, b);
            }
        }

        // The specialized whole-trace replay must equal the reference's
        // per-record replay on mispredict count *and* leave the live
        // predictor in a state that keeps predicting identically.
        #[test]
        fn live_replay_equals_reference_replay(
            records in prop::collection::vec((0u64..1u64 << 10, any::<bool>()), 1..3000),
            index_bits in 1u32..18,
        ) {
            let trace: Vec<BranchRecord> = records
                .iter()
                .map(|&(pc_seed, taken)| BranchRecord { pc: 0x4000 + pc_seed * 8, taken })
                .collect();
            let mut live = Gshare::new(index_bits);
            let mut reference = ReferenceGshare::new(index_bits);
            let fast = live.replay(&trace);
            let slow = reference.replay(&trace);
            prop_assert_eq!(fast, slow, "mispredict counts diverged");
            // Post-replay state check: both must carry on identically.
            for &(pc_seed, taken) in records.iter().take(200) {
                let pc = 0x4000 + pc_seed * 8;
                let a = live.predict(pc);
                let b = reference.predict(pc);
                prop_assert_eq!(a, b, "post-replay state diverged at pc {:#x}", pc);
                live.update(pc, taken, a);
                reference.update(pc, taken, b);
            }
        }
    }

    /// A deliberately tiny TAGE geometry: small tables force tag
    /// aliasing and allocation pressure, and the short `u_reset_period`
    /// makes the proptest traces cross several usefulness-aging events.
    fn tiny_tage_config() -> TageConfig {
        TageConfig {
            log_bimodal: 5,
            num_tables: 4,
            log_entries: 4,
            tag_bits: 6,
            min_history: 3,
            max_history: 40,
            u_reset_period: 512,
        }
    }

    // The live TAGE (flat tables, inline folds, fused replay) must track
    // the kept original branch-for-branch. Folded-history drift, rng
    // call-site drift, or a reordered update step all surface as a
    // first-divergence here.
    proptest! {
        #[test]
        fn live_tage_predicts_identically_to_reference(
            steps in prop::collection::vec((0u64..1u64 << 8, any::<bool>()), 1..4000),
        ) {
            let mut live = crate::Tage::new(tiny_tage_config());
            let mut reference = ReferenceTage::new(tiny_tage_config());
            prop_assert_eq!(live.storage_bits(), reference.storage_bits());
            for (i, &(pc_seed, taken)) in steps.iter().enumerate() {
                let pc = 0x1000 + pc_seed * 4;
                let a = live.predict(pc);
                let b = reference.predict(pc);
                prop_assert_eq!(a, b, "diverged at branch {} (pc {:#x})", i, pc);
                live.update(pc, taken, a);
                reference.update(pc, taken, b);
            }
        }

        // The fused replay must equal the canonical per-record loop on
        // mispredict count and leave state that keeps agreeing.
        #[test]
        fn live_tage_replay_equals_reference_replay(
            records in prop::collection::vec((0u64..1u64 << 8, any::<bool>()), 1..4000),
        ) {
            let trace: Vec<BranchRecord> = records
                .iter()
                .map(|&(pc_seed, taken)| BranchRecord { pc: 0x4000 + pc_seed * 8, taken })
                .collect();
            let mut live = crate::Tage::new(tiny_tage_config());
            let mut reference = ReferenceTage::new(tiny_tage_config());
            let fast = live.replay(&trace);
            let slow = reference.replay(&trace);
            prop_assert_eq!(fast, slow, "mispredict counts diverged");
            for &(pc_seed, taken) in records.iter().take(300) {
                let pc = 0x4000 + pc_seed * 8;
                let a = live.predict(pc);
                let b = reference.predict(pc);
                prop_assert_eq!(a, b, "post-replay state diverged at pc {:#x}", pc);
                live.update(pc, taken, a);
                reference.update(pc, taken, b);
            }
        }

        // The CBP contract tolerates update() without a matching
        // predict() (and stale `last` scratch from another pc); both
        // implementations must handle it the same way.
        #[test]
        fn live_tage_tolerates_update_without_predict(
            steps in prop::collection::vec((0u64..1u64 << 8, any::<bool>(), any::<bool>()), 1..2000),
        ) {
            let mut live = crate::Tage::new(tiny_tage_config());
            let mut reference = ReferenceTage::new(tiny_tage_config());
            for &(pc_seed, taken, do_predict) in steps.iter() {
                let pc = 0x1000 + pc_seed * 4;
                let (a, b) = if do_predict {
                    (live.predict(pc), reference.predict(pc))
                } else {
                    (false, false)
                };
                prop_assert_eq!(a, b);
                live.update(pc, taken, a);
                reference.update(pc, taken, b);
            }
            // Both still agree afterwards.
            for pc_seed in 0u64..64 {
                let pc = 0x1000 + pc_seed * 4;
                prop_assert_eq!(live.predict(pc), reference.predict(pc));
            }
        }
    }

    #[test]
    fn paper_budget_tage_matches_reference_on_mixed_trace() {
        // Deterministic smoke at the real 8 KB geometry (proptests use a
        // tiny config for aging coverage; this pins the shipped one).
        let mut trace = Vec::new();
        let mut x = 0x9e37_79b9u64;
        for i in 0..120_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = 0x4000 + (x % 4096) * 4;
            let taken = match i % 3 {
                0 => (pc / 4).is_multiple_of(3),
                1 => x & 0x100 != 0,
                _ => i % 7 != 0,
            };
            trace.push(BranchRecord { pc, taken });
        }
        let mut live = crate::Tage::seznec_8kb();
        let mut reference = ReferenceTage::seznec_8kb();
        assert_eq!(live.replay(&trace), reference.replay(&trace));
        for r in trace.iter().take(500) {
            let a = live.predict(r.pc);
            let b = reference.predict(r.pc);
            assert_eq!(a, b, "post-replay divergence at pc {:#x}", r.pc);
            live.update(r.pc, r.taken, a);
            reference.update(r.pc, r.taken, b);
        }
    }
}
