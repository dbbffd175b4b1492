//! A single set-associative cache.

use crate::config::CacheConfig;
use crate::policy::{ReplacementPolicy, SetState};

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read (load or instruction fetch).
    Read,
    /// Write (store).
    Write,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Total lookups (excluding fills from below).
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty evictions (write-backs issued to the next level).
    pub writebacks: u64,
    /// Prefetch fills that were later referenced (issued by a prefetcher).
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Misses per kilo-instruction given a retired-instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 / instructions as f64 * 1000.0
        }
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Line address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// Tag of an empty way. A line address is a byte address shifted right
/// by at least one bit (see [`CacheConfig::validate`]), so no line can
/// equal it.
const EMPTY: u64 = u64::MAX;
const DIRTY: u64 = 1;
/// Shift that positions the LRU stamp above the dirty bit.
const STAMP_SHIFT: u32 = 1;

/// A set-associative cache over line addresses.
///
/// The cache operates on *line* addresses (`byte_addr >> line_shift`);
/// splitting byte accesses into line touches is the hierarchy's job.
///
/// ```
/// use vstress_cache::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::lru(32 << 10, 8, 64));
/// assert!(!c.access_line(42, AccessKind::Read).hit); // cold miss
/// assert!(c.access_line(42, AccessKind::Read).hit);  // now resident
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `set_count * ways` resident line addresses, set-major (way 0..ways
    /// of set 0 first); [`EMPTY`] marks a way that was never filled.
    /// Kept apart from `meta` so one set's tags share a host cache line
    /// and the lookup compares them all without touching the state.
    tags: Vec<u64>,
    /// Parallel to `tags`: bit 0 = dirty, bits 1.. = the LRU timestamp
    /// (maintained only under [`ReplacementPolicy::Lru`]).
    meta: Vec<u64>,
    /// Per-set replacement state for the non-LRU policies. Empty under
    /// LRU, whose timestamps live directly in `meta`.
    sets: Vec<SetState>,
    /// Whether the stamp-in-meta LRU path is active.
    lru: bool,
    /// `set_count - 1`; set counts are validated powers of two, so masking
    /// is exactly the old `line % set_count`.
    set_mask: u64,
    ways: usize,
    line_shift: u32,
    tick: u64,
    rng: u64,
    /// Flat slot / set / way of the most recently hit or filled line, so
    /// [`Cache::mru_hit`] updates it without a lookup or a division.
    mru_slot: usize,
    mru_set: usize,
    mru_way: usize,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let set_count = config.sets();
        let ways = config.ways;
        let lru = config.policy == ReplacementPolicy::Lru;
        Cache {
            tags: vec![EMPTY; set_count * ways],
            meta: vec![0; set_count * ways],
            sets: if lru {
                Vec::new()
            } else {
                (0..set_count).map(|_| SetState::new(config.policy, ways)).collect()
            },
            lru,
            set_mask: set_count as u64 - 1,
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            mru_slot: 0,
            mru_set: 0,
            mru_way: 0,
            stats: CacheStats::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    /// Converts a byte address to this cache's line address.
    #[inline]
    pub fn line_of(&self, byte_addr: u64) -> u64 {
        byte_addr >> self.line_shift
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are preserved — used to exclude warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// The way of the set at `base` that holds `line`, if any.
    ///
    /// Compares every way with no early exit, so the only branch the
    /// caller sees is hit versus miss. Tags are unique within a set, so
    /// at most one way contributes its `way + 1` to the OR.
    #[inline(always)]
    fn find(&self, base: usize, line: u64) -> Option<usize> {
        let tags = &self.tags[base..base + self.ways];
        let way_plus_one = tags
            .iter()
            .enumerate()
            .fold(0, |acc, (way, &tag)| acc | (usize::from(tag == line) * (way + 1)));
        way_plus_one.checked_sub(1)
    }

    /// Records a touch of `slot` (= `set * ways + way`) at the current
    /// tick and ORs in `dirty`: one fused meta write for LRU, the policy
    /// state machine otherwise.
    #[inline(always)]
    fn touch(&mut self, slot: usize, set: usize, way: usize, dirty: u64) {
        if self.lru {
            let m = &mut self.meta[slot];
            *m = (self.tick << STAMP_SHIFT) | (*m & DIRTY) | dirty;
        } else {
            self.touch_policy(slot, set, way, dirty);
        }
    }

    /// The non-LRU arm of [`Cache::touch`], kept out of the inlined hit
    /// path: every shipped hierarchy uses LRU.
    #[inline(never)]
    fn touch_policy(&mut self, slot: usize, set: usize, way: usize, dirty: u64) {
        self.sets[set].touch(way, self.ways, self.tick);
        self.meta[slot] |= dirty;
    }

    /// Looks up `line`; on miss, installs it (evicting as needed).
    ///
    /// Returns whether it hit and any dirty line evicted.
    #[inline(always)]
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> LookupResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        let dirty = kind == AccessKind::Write;
        match self.find(base, line) {
            Some(way) => {
                self.stats.hits += 1;
                self.touch(base + way, set, way, u64::from(dirty));
                self.mru_slot = base + way;
                self.mru_set = set;
                self.mru_way = way;
                LookupResult { hit: true, writeback: None }
            }
            None => {
                self.stats.misses += 1;
                LookupResult { hit: false, writeback: self.fill_internal(set, line, dirty) }
            }
        }
    }

    /// The state updates of a hit on the MRU line, skipping the lookup.
    ///
    /// Callers must guarantee the line they mean is the one the MRU slot
    /// holds — the hierarchy uses this for back-to-back accesses to the
    /// last touched L1 line, which stays resident (and MRU) because only
    /// its own accesses can evict it.
    #[inline(always)]
    pub(crate) fn mru_hit(&mut self, line: u64, kind: AccessKind) {
        debug_assert!(
            self.tags[self.mru_slot] == line,
            "mru_hit caller invariant broken for line {line:#x}"
        );
        self.tick += 1;
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.touch(self.mru_slot, self.mru_set, self.mru_way, u64::from(kind == AccessKind::Write));
    }

    /// Installs `line` without counting an access (prefetch / fill path).
    /// Returns a dirty evicted line, if any.
    pub fn fill_line(&mut self, line: u64, dirty: bool) -> Option<u64> {
        self.tick += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        // Already present? Nothing to do (common for overlapping prefetch).
        if let Some(way) = self.find(base, line) {
            self.meta[base + way] |= u64::from(dirty);
            return None;
        }
        self.stats.prefetch_fills += 1;
        self.fill_internal(set, line, dirty)
    }

    fn fill_internal(&mut self, set: usize, line: u64, dirty: bool) -> Option<u64> {
        let base = set * self.ways;
        let way = if self.lru {
            // Oldest stamp wins, first way on ties. An empty way's meta is
            // 0 and every filled way's stamp is a tick >= 1, so this also
            // picks the first empty way whenever there is one.
            (0..self.ways).min_by_key(|&w| self.meta[base + w] >> STAMP_SHIFT).unwrap_or(0)
        } else {
            match self.tags[base..base + self.ways].iter().position(|&tag| tag == EMPTY) {
                Some(w) => w,
                None => self.sets[set].victim(self.ways, &mut self.rng),
            }
        };
        let s = base + way;
        // Ways are never emptied once filled, so an empty way is clean.
        let evicted = if self.meta[s] & DIRTY != 0 {
            self.stats.writebacks += 1;
            Some(self.tags[s])
        } else {
            None
        };
        self.tags[s] = line;
        self.meta[s] = u64::from(dirty);
        self.touch(s, set, way, 0);
        self.mru_slot = s;
        self.mru_set = set;
        self.mru_way = way;
        evicted
    }

    /// Whether `line` is currently resident (no state change).
    pub fn contains_line(&self, line: u64) -> bool {
        self.find(self.set_of(line) * self.ways, line).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;

    fn tiny(policy: ReplacementPolicy) -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, policy })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(ReplacementPolicy::Lru);
        assert!(!c.access_line(5, AccessKind::Read).hit);
        assert!(c.access_line(5, AccessKind::Read).hit);
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_respects_lru() {
        let mut c = tiny(ReplacementPolicy::Lru);
        // Lines 0, 4, 8 map to set 0 (4 sets).
        c.access_line(0, AccessKind::Read);
        c.access_line(4, AccessKind::Read);
        c.access_line(0, AccessKind::Read); // 4 is now LRU
        c.access_line(8, AccessKind::Read); // evicts 4
        assert!(c.contains_line(0));
        assert!(!c.contains_line(4));
        assert!(c.contains_line(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access_line(0, AccessKind::Write);
        c.access_line(4, AccessKind::Read);
        let r = c.access_line(8, AccessKind::Read); // evicts dirty line 0
        assert_eq!(r.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access_line(0, AccessKind::Read);
        c.access_line(4, AccessKind::Read);
        let r = c.access_line(8, AccessKind::Read);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn hit_ratio_of_working_set_fitting_in_cache_is_one_after_warmup() {
        let mut c = tiny(ReplacementPolicy::Lru);
        let lines: Vec<u64> = (0..8).collect(); // exactly capacity
        for &l in &lines {
            c.access_line(l, AccessKind::Read);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &l in &lines {
                assert!(c.access_line(l, AccessKind::Read).hit);
            }
        }
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }

    #[test]
    fn fill_line_does_not_count_access() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill_line(3, false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access_line(3, AccessKind::Read).hit);
    }

    #[test]
    fn mpki_accounting() {
        let s = CacheStats { misses: 50, ..CacheStats::default() };
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn all_policies_function() {
        for p in ReplacementPolicy::ALL {
            let mut c = tiny(p);
            for l in 0..100u64 {
                c.access_line(l % 16, AccessKind::Read);
            }
            let s = c.stats();
            assert_eq!(s.accesses, 100);
            assert_eq!(s.hits + s.misses, 100);
        }
    }

    #[test]
    fn line_of_uses_line_shift() {
        let c = tiny(ReplacementPolicy::Lru);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(63), 0);
        assert_eq!(c.line_of(64), 1);
        assert_eq!(c.line_bytes(), 64);
    }

    #[test]
    fn slot_layout_matches_reference_lru_semantics() {
        // A longer adversarial trace against an 8-way LRU set: the packed
        // stamp-in-meta victim scan must evict in exactly the order a per-way
        // timestamp vector would.
        let mut c = Cache::new(CacheConfig::lru(8 * 64, 8, 64)); // 1 set, 8 ways
        let mut resident: Vec<u64> = Vec::new(); // LRU order, oldest first
        let mut x = 0x1234_5678_u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 24;
            let hit = c.access_line(line, AccessKind::Read).hit;
            let was = resident.iter().position(|&l| l == line);
            assert_eq!(hit, was.is_some(), "residency diverged for line {line}");
            if let Some(i) = was {
                resident.remove(i);
            } else if resident.len() == 8 {
                resident.remove(0);
            }
            resident.push(line);
        }
    }
}
