//! TAGE — TAgged GEometric-history-length predictor (Seznec).
//!
//! A faithful small-scale TAGE: a bimodal base predictor plus `N` tagged
//! tables indexed by hashes of the PC with geometrically increasing global
//! history lengths. Prediction comes from the matching table with the
//! longest history (the *provider*); the next match (or the bimodal) is
//! the *alternate*. Entries carry 3-bit signed counters, partial tags and
//! 2-bit usefulness counters; mispredictions allocate into longer tables,
//! and usefulness is periodically aged, exactly as in the CBP reference
//! implementations.
//!
//! # Hot-path layout
//!
//! This is the rewritten fast implementation; the original lives on as
//! the test-only oracle `reference::ReferenceTage`, and property tests
//! pin the two to identical per-branch predictions. Three structural changes:
//!
//! * **Flat tables.** All tagged tables share one contiguous `Vec`
//!   (table `t` at `t << log_entries`), removing a pointer chase per
//!   table per lookup.
//! * **Inline folded histories.** The per-table folded index/tag
//!   registers live in fixed struct-of-arrays fields updated by one
//!   tight loop per retire — same incremental O(1)-per-fold maths as
//!   [`crate::history::FoldedHistory`], without the heap `Vec` walk —
//!   and the one ejected history bit each table needs is read once and
//!   shared by its three folds.
//! * **No scratch copies.** The prediction scratch is computed into a
//!   caller-provided buffer; `predict`/`update` keep the original
//!   store-to-`last` contract, while the whole-trace [`Tage::replay`]
//!   override keeps the scratch in a stack local and writes `last` once
//!   at the end, leaving identical state to the per-record loop.

use crate::counter::SatCounter;
use crate::history::GlobalHistory;
use crate::BranchPredictor;
use vstress_trace::record::BranchRecord;

/// Geometry and budget of a [`Tage`] predictor.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TageConfig {
    /// log2 of bimodal-table entries.
    pub log_bimodal: u32,
    /// Number of tagged tables.
    pub num_tables: usize,
    /// log2 of entries per tagged table.
    pub log_entries: u32,
    /// Partial-tag width in bits.
    pub tag_bits: u32,
    /// Shortest history length (table 0).
    pub min_history: usize,
    /// Longest history length (last table).
    pub max_history: usize,
    /// Updates between usefulness-aging events.
    pub u_reset_period: u64,
}

impl TageConfig {
    /// The ~8 KB configuration evaluated by the paper.
    pub fn budget_8kb() -> Self {
        TageConfig {
            log_bimodal: 12,
            num_tables: 6,
            log_entries: 9,
            tag_bits: 9,
            min_history: 4,
            max_history: 130,
            u_reset_period: 256 * 1024,
        }
    }

    /// The ~64 KB configuration evaluated by the paper.
    pub fn budget_64kb() -> Self {
        TageConfig {
            log_bimodal: 14,
            num_tables: 12,
            log_entries: 11,
            tag_bits: 12,
            min_history: 4,
            max_history: 640,
            u_reset_period: 512 * 1024,
        }
    }

    /// The geometric history length of tagged table `i`.
    pub fn history_length(&self, i: usize) -> usize {
        if self.num_tables == 1 {
            return self.min_history;
        }
        let ratio = self.max_history as f64 / self.min_history as f64;
        let l = self.min_history as f64 * ratio.powf(i as f64 / (self.num_tables - 1) as f64);
        (l.round() as usize).max(1)
    }
}

/// Most tables a [`Tage`] supports (the inline scratch and fold arrays
/// are sized for it).
const MAX_TABLES: usize = 16;
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    /// 3-bit counter; >= 4 predicts taken.
    ctr: u8,
    tag: u16,
    /// 2-bit usefulness.
    useful: u8,
}

impl TageEntry {
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

/// The TAGE predictor. See the module docs for structure.
///
/// The tables/history state lives in `TageCore`, a separate field
/// from the `last` prediction scratch, so `update` can train (`&mut
/// core`) while reading the scratch (`&last`) without copying the
/// ~100-byte scratch struct on every branch.
#[derive(Debug, Clone)]
pub struct Tage {
    core: TageCore,
    /// Scratch from the last prediction, consumed by `update`.
    last: Prediction,
}

/// All predictor state except the prediction scratch.
#[derive(Debug, Clone)]
struct TageCore {
    config: TageConfig,
    bimodal: Vec<SatCounter<2>>,
    /// All tagged tables, flat: table `t` spans
    /// `t << log_entries .. (t + 1) << log_entries`.
    table: Vec<TageEntry>,
    /// Raw outcome history, read only for the bits ejected from folds.
    global: GlobalHistory,
    /// All three folded registers of table `t`, packed into one `u64`
    /// lane: the index fold at bit 0, tag fold 1 at [`TageCore::o1`],
    /// tag fold 2 at [`TageCore::o2`]. Sub-lane offsets leave `2w` bits
    /// of room per fold (`Tage::new` asserts the geometry fits), so the
    /// shift-fold-back of each register never collides with its
    /// neighbour and one masked sweep updates all three at once — every
    /// shift amount uniform across tables, no per-lane variable shifts
    /// at all.
    fold_packed: [u64; MAX_TABLES],
    /// Per-table ejected-bit injection points: bit `o_k + (len % w_k)`
    /// set for each of the three sub-lanes.
    eject_mask: [u64; MAX_TABLES],
    /// Sub-lane bit offsets of tag fold 1 / tag fold 2.
    o1: u32,
    o2: u32,
    /// Geometric history length per table.
    hist_len: [u16; MAX_TABLES],
    /// 4-bit USE_ALT_ON_NA: trust the alternate when the provider is new.
    use_alt_on_na: u8,
    /// Branches remaining until the next usefulness-aging sweep; a
    /// countdown instead of a modulo so the steady-state update path
    /// carries no integer division.
    until_reset: u64,
    /// Which half of the usefulness bits the next aging event clears.
    age_phase: bool,
    /// Deterministic xorshift state for allocation randomization.
    rng: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Prediction {
    pc: u64,
    provider: Option<u8>,
    provider_index: u32,
    alt_pred: bool,
    provider_pred: bool,
    final_pred: bool,
    provider_is_new: bool,
    table_indices: [u32; MAX_TABLES],
    table_tags: [u16; MAX_TABLES],
}

impl Tage {
    /// Builds a TAGE predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no tables, more than 16
    /// tables, zero tag bits, or a non-increasing history range).
    pub fn new(config: TageConfig) -> Self {
        assert!(
            (1..=MAX_TABLES).contains(&config.num_tables),
            "num_tables must be 1..=16 (Prediction scratch is fixed-size)"
        );
        assert!(config.tag_bits >= 4 && config.tag_bits <= 16, "tag_bits must be 4..=16");
        assert!(config.min_history >= 1 && config.max_history > config.min_history);
        assert!(config.log_entries >= 4 && config.log_bimodal >= 4);
        let widths = [config.log_entries, config.tag_bits, config.tag_bits - 1];
        let offsets = [0, 2 * widths[0], 2 * widths[0] + 2 * widths[1]];
        assert!(
            offsets[2] + widths[2] < 64,
            "fold lanes must fit one u64: need 2*log_entries + 3*tag_bits <= 64"
        );
        let mut eject_mask = [0u64; MAX_TABLES];
        let mut hist_len = [0u16; MAX_TABLES];
        for t in 0..config.num_tables {
            let l = config.history_length(t);
            hist_len[t] = l as u16;
            for (&o, &w) in offsets.iter().zip(&widths) {
                eject_mask[t] |= 1u64 << (o + (l as u32 % w));
            }
        }
        Tage {
            core: TageCore {
                bimodal: vec![SatCounter::weakly_not_taken(); 1 << config.log_bimodal],
                table: vec![TageEntry::default(); config.num_tables << config.log_entries],
                global: GlobalHistory::new(),
                fold_packed: [0; MAX_TABLES],
                eject_mask,
                o1: offsets[1],
                o2: offsets[2],
                hist_len,
                use_alt_on_na: 8,
                until_reset: config.u_reset_period,
                age_phase: false,
                rng: 0x2545_f491_4f6c_dd1d,
                config,
            },
            last: Prediction::default(),
        }
    }

    /// The paper's 8 KB TAGE.
    pub fn seznec_8kb() -> Self {
        Self::new(TageConfig::budget_8kb())
    }

    /// The paper's 64 KB TAGE.
    pub fn seznec_64kb() -> Self {
        Self::new(TageConfig::budget_64kb())
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &TageConfig {
        &self.core.config
    }
}

impl TageCore {
    #[inline]
    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.config.log_bimodal) - 1)) as usize
    }

    #[inline]
    fn table_index(&self, pc: u64, table: usize) -> u32 {
        let fold = self.fold_packed[table]; // sub-lane 0; masked below
        let mask = (1u64 << self.config.log_entries) - 1;
        let pcx = (pc >> 2) ^ (pc >> (2 + self.config.log_entries as u64 + table as u64));
        ((pcx ^ fold) & mask) as u32
    }

    #[inline]
    fn table_tag(&self, pc: u64, table: usize) -> u16 {
        let packed = self.fold_packed[table];
        let f1 = packed >> self.o1;
        let f2 = packed >> self.o2;
        let mask = (1u64 << self.config.tag_bits) - 1;
        (((pc >> 2) ^ f1 ^ (f2 << 1)) & mask) as u16
    }

    /// Flat-table slot of entry `idx` in table `t`.
    #[inline]
    fn slot(&self, t: usize, idx: u32) -> usize {
        (t << self.config.log_entries) | idx as usize
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Computes the full prediction state for `pc` into `p` — the same
    /// values the reference's `compute_prediction` returns, without
    /// materializing (and then copying) a fresh scratch struct.
    ///
    /// Dispatches on the two shipped geometries so the lane loops see a
    /// compile-time trip count (the `_inner` body inlines per arm).
    fn compute_into(&self, pc: u64, p: &mut Prediction) {
        match self.config.num_tables {
            6 => self.compute_into_inner(pc, p, 6),
            12 => self.compute_into_inner(pc, p, 12),
            n => self.compute_into_inner(pc, p, n),
        }
    }

    #[inline(always)]
    fn compute_into_inner(&self, pc: u64, p: &mut Prediction, n: usize) {
        p.pc = pc;
        p.provider = None;
        p.provider_index = 0;
        p.provider_is_new = false;
        for (t, (idx, tag)) in
            p.table_indices[..n].iter_mut().zip(&mut p.table_tags[..n]).enumerate()
        {
            *idx = self.table_index(pc, t);
            *tag = self.table_tag(pc, t);
        }
        let bim = self.bimodal[self.bimodal_index(pc)].is_taken();
        p.alt_pred = bim;
        p.provider_pred = bim;
        p.final_pred = bim;
        // Scan from longest history (last table) down, keeping a copy of
        // the provider entry so the hit is loaded exactly once.
        let mut provider = None;
        let mut pe = TageEntry::default();
        let mut alt: Option<bool> = None;
        for t in (0..n).rev() {
            let e = self.table[self.slot(t, p.table_indices[t])];
            if e.tag == p.table_tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                    pe = e;
                } else {
                    alt = Some(e.predicts_taken());
                    break;
                }
            }
        }
        if let Some(t) = provider {
            let e = pe;
            p.provider = Some(t as u8);
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
    }

    /// The full training step for a resolved branch whose prediction
    /// state is `p` — the body of the reference's `update` after the
    /// recompute guard. `p` is caller-owned (never aliases `self`).
    fn train_with(&mut self, p: &Prediction, taken: bool) {
        match self.config.num_tables {
            6 => self.train_with_inner(p, taken, 6),
            12 => self.train_with_inner(p, taken, 12),
            n => self.train_with_inner(p, taken, n),
        }
    }

    #[inline(always)]
    fn train_with_inner(&mut self, p: &Prediction, taken: bool, n: usize) {
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
            let slot = self.slot(t as usize, p.provider_index);
            let e = &mut self.table[slot];
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
            let weak = e.is_weak();
            if weak {
                let bi = self.bimodal_index(p.pc);
                self.bimodal[bi].update(taken);
            }
        } else {
            let bi = self.bimodal_index(p.pc);
            self.bimodal[bi].update(taken);
        }

        if mispredicted {
            self.allocate(p, taken, n);
        }

        self.push_history_inner(taken, n);
        self.until_reset -= 1;
        if self.until_reset == 0 {
            self.until_reset = self.config.u_reset_period;
            self.age_usefulness();
        }
    }

    /// Retires one outcome into the global history and every folded
    /// register — the same O(1) inject/eject/fold-back per register as
    /// [`crate::history::FoldedHistory::update`], but on the packed
    /// lanes: one `u64` update per *table* covers its three folds. The
    /// injected outcome and the fold-back shifts are uniform across
    /// tables; the per-table ejected bit lands through the precomputed
    /// [`TageCore::eject_mask`], so the lane loop is branch-free with
    /// constant shifts only.
    #[inline(always)]
    fn push_history_inner(&mut self, taken: bool, n: usize) {
        let (w0, w1) = (self.config.log_entries, self.config.tag_bits);
        let (r0, r1, r2) = (
            ((1u64 << w0) - 1),
            ((1u64 << w1) - 1) << self.o1,
            ((1u64 << (w1 - 1)) - 1) << self.o2,
        );
        // One injected-outcome bit per sub-lane, or none.
        let inc_pat = if taken { 1 | (1u64 << self.o1) | (1u64 << self.o2) } else { 0 };
        let lanes =
            self.fold_packed[..n].iter_mut().zip(&self.eject_mask[..n]).zip(&self.hist_len[..n]);
        for ((c, &em), &len) in lanes {
            // All-ones when the bit falling out of this table's history
            // window is set; `em` routes it to the three rotation points.
            let ej = 0u64.wrapping_sub(self.global.bit(len as usize - 1) as u64);
            let mut v = (*c << 1) | inc_pat;
            v ^= ej & em;
            v ^= (v >> w0) & r0;
            v ^= (v >> w1) & r1;
            v ^= (v >> (w1 - 1)) & r2;
            *c = v & (r0 | r1 | r2);
        }
        self.global.push(taken);
    }

    /// `n` is always `config.num_tables`, passed down so the replay
    /// loop's monomorphized instantiations see a constant trip count.
    fn allocate(&mut self, p: &Prediction, taken: bool, n: usize) {
        let start = match p.provider {
            Some(t) => t as usize + 1,
            None => 0,
        };
        if start >= n {
            return;
        }
        // Seznec randomizes the first candidate table to avoid ping-ponging.
        let span = n - start;
        let skip = if span > 1 { (self.next_rand() % 2) as usize } else { 0 };
        let mut allocated = false;
        for t in (start + skip)..n {
            let slot = self.slot(t, p.table_indices[t]);
            if self.table[slot].useful == 0 {
                self.table[slot] =
                    TageEntry { ctr: if taken { 4 } else { 3 }, tag: p.table_tags[t], useful: 0 };
                allocated = true;
                break;
            }
        }
        if !allocated {
            // All candidates useful: age them so a later allocation succeeds.
            for t in start..n {
                let slot = self.slot(t, p.table_indices[t]);
                let e = &mut self.table[slot];
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
        for e in self.table.iter_mut() {
            e.useful &= mask;
        }
    }
}

impl BranchPredictor for Tage {
    fn predict(&mut self, pc: u64) -> bool {
        // Compute straight into the retained scratch: `core` and `last`
        // are disjoint fields, so no temporary and no copy.
        self.core.compute_into(pc, &mut self.last);
        self.last.final_pred
    }

    fn update(&mut self, pc: u64, taken: bool, predicted: bool) {
        // Recompute if the caller skipped predict() or interleaved PCs.
        if self.last.pc != pc {
            self.core.compute_into(pc, &mut self.last);
        }
        let _ = predicted;
        self.core.train_with(&self.last, taken);
    }

    fn storage_bits(&self) -> u64 {
        let c = &self.core.config;
        let bim = (1u64 << c.log_bimodal) * 2;
        let entry_bits = 3 + 2 + c.tag_bits as u64;
        let tagged = c.num_tables as u64 * (1u64 << c.log_entries) * entry_bits;
        bim + tagged + c.max_history as u64 + 4
    }

    fn label(&self) -> String {
        let kb = (self.storage_bits() as f64 / 8.0 / 1024.0).ceil() as u64;
        format!("tage-{}KB", kb.next_power_of_two())
    }

    /// Whole-trace replay with the prediction scratch in a stack local:
    /// per branch it runs exactly compute → compare → train, with no
    /// `last` store. `last` is written once at the end, so the post-
    /// replay state (including the predict-skip guard) is identical to
    /// the per-record loop's.
    ///
    /// The `num_tables` dispatch is hoisted out of the loop: one match
    /// per *trace* selects a fully monomorphized loop body for the two
    /// shipped geometries, so compute, train, allocation and the fold
    /// sweep all see a compile-time table count for the whole window.
    fn replay(&mut self, trace: &[BranchRecord]) -> u64 {
        match self.core.config.num_tables {
            6 => self.replay_mono(trace, 6),
            12 => self.replay_mono(trace, 12),
            n => self.replay_mono(trace, n),
        }
    }
}

impl Tage {
    #[inline(always)]
    fn replay_mono(&mut self, trace: &[BranchRecord], n: usize) -> u64 {
        let mut mispredicts = 0u64;
        let mut p = Prediction::default();
        for r in trace {
            self.core.compute_into_inner(r.pc, &mut p, n);
            if p.final_pred != r.taken {
                mispredicts += 1;
            }
            self.core.train_with_inner(&p, r.taken, n);
        }
        if !trace.is_empty() {
            self.last = p;
        }
        mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use crate::Gshare;
    use vstress_trace::record::BranchRecord;

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let c = TageConfig::budget_8kb();
        let mut prev = 0;
        for i in 0..c.num_tables {
            let l = c.history_length(i);
            assert!(l > prev, "lengths must strictly increase: {l} after {prev}");
            prev = l;
        }
        assert_eq!(c.history_length(0), c.min_history);
        assert_eq!(c.history_length(c.num_tables - 1), c.max_history);
    }

    #[test]
    fn budgets_fit_their_labels() {
        let t8 = Tage::seznec_8kb();
        assert!(t8.storage_bits() <= 8 * 1024 * 8, "{} bits", t8.storage_bits());
        assert_eq!(t8.label(), "tage-8KB");
        let t64 = Tage::seznec_64kb();
        assert!(t64.storage_bits() <= 64 * 1024 * 8, "{} bits", t64.storage_bits());
        assert_eq!(t64.label(), "tage-64KB");
    }

    #[test]
    fn learns_long_period_pattern_that_defeats_gshare() {
        // Period-48 pattern at a single PC requires ~48 bits of history.
        let pattern: Vec<bool> = (0..48).map(|i| (i * 7) % 13 < 6).collect();
        let trace: Vec<BranchRecord> = (0..60_000)
            .map(|i| BranchRecord { pc: 0xbeef0, taken: pattern[i % pattern.len()] })
            .collect();
        let tage = harness::run(&mut Tage::seznec_8kb(), &trace);
        let gshare = harness::run(&mut Gshare::with_budget_bytes(2 << 10), &trace);
        assert!(
            tage.miss_rate() < gshare.miss_rate() * 0.5,
            "tage {} vs gshare {}",
            tage.miss_rate(),
            gshare.miss_rate()
        );
        assert!(tage.miss_rate() < 0.05, "tage should nearly nail it: {}", tage.miss_rate());
    }

    #[test]
    fn bigger_tage_is_no_worse_on_alias_heavy_trace() {
        let mut trace = Vec::new();
        let mut x = 77u64;
        for _ in 0..80_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = 0x4000 + (x % 8192) * 4;
            let taken = (pc / 4).is_multiple_of(3);
            trace.push(BranchRecord { pc, taken });
        }
        let small = harness::run(&mut Tage::seznec_8kb(), &trace);
        let large = harness::run(&mut Tage::seznec_64kb(), &trace);
        assert!(
            large.miss_rate() <= small.miss_rate() + 0.005,
            "large {} vs small {}",
            large.miss_rate(),
            small.miss_rate()
        );
    }

    #[test]
    fn update_without_predict_is_tolerated() {
        let mut t = Tage::seznec_8kb();
        for i in 0..1000 {
            t.update(0x10, i % 2 == 0, false);
        }
        // No panic, and the predictor still functions.
        let _ = t.predict(0x10);
    }

    #[test]
    #[should_panic(expected = "num_tables")]
    fn degenerate_config_panics() {
        let mut c = TageConfig::budget_8kb();
        c.num_tables = 0;
        let _ = Tage::new(c);
    }
}
