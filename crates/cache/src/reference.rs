//! The pre-rewrite cache hierarchy, kept verbatim as an equivalence
//! oracle (compiled for tests only).
//!
//! The live [`crate::Hierarchy`] carries fast paths (MRU same-line hits,
//! mask-based set indexing, allocation-free prefetch suggestions). The
//! correctness bar for every one of them is *exact* behavioural
//! equivalence: identical [`ServiceLevel`] per access and identical
//! [`HierarchyStats`] at every point in the stream, because the simulated
//! counters are experiment results, not implementation details. This
//! module preserves the straightforward pre-rewrite implementation —
//! linear way scans, `%`-based set indexing, `Vec`-allocating prefetch
//! suggestions — so the property tests below can replay random access
//! streams against both and assert equality.
//!
//! Replacement-policy state is shared with the live implementation
//! (`crate::policy::SetState`), so the two can only diverge in the logic
//! this PR rewrote — which is exactly what the oracle must pin.

use crate::cache::{AccessKind, CacheStats, LookupResult};
use crate::config::{CacheConfig, HierarchyConfig, PrefetchKind};
use crate::hierarchy::{HierarchyStats, ServiceLevel};
use crate::policy::SetState;

/// Pre-rewrite single cache: linear way scan, modulo set indexing.
#[derive(Debug, Clone)]
pub struct ReferenceCache {
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    sets: Vec<SetState>,
    set_count: usize,
    ways: usize,
    line_shift: u32,
    tick: u64,
    rng: u64,
    stats: CacheStats,
}

impl ReferenceCache {
    /// Builds a cache from its geometry (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let set_count = config.sets();
        let ways = config.ways;
        ReferenceCache {
            tags: vec![0; set_count * ways],
            valid: vec![false; set_count * ways],
            dirty: vec![false; set_count * ways],
            sets: (0..set_count).map(|_| SetState::new(config.policy, ways)).collect(),
            set_count,
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
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

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.set_count as u64) as usize
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Looks up `line`; on miss, installs it (evicting as needed).
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> LookupResult {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.valid[s] && self.tags[s] == line {
                self.stats.hits += 1;
                self.sets[set].touch(way, self.ways, self.tick);
                if kind == AccessKind::Write {
                    self.dirty[s] = true;
                }
                return LookupResult { hit: true, writeback: None };
            }
        }
        self.stats.misses += 1;
        let writeback = self.fill_internal(line, kind == AccessKind::Write);
        LookupResult { hit: false, writeback }
    }

    /// Installs `line` without counting an access (prefetch / fill path).
    pub fn fill_line(&mut self, line: u64, dirty: bool) -> Option<u64> {
        self.tick += 1;
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.valid[s] && self.tags[s] == line {
                if dirty {
                    self.dirty[s] = true;
                }
                return None;
            }
        }
        self.stats.prefetch_fills += 1;
        self.fill_internal(line, dirty)
    }

    fn fill_internal(&mut self, line: u64, dirty: bool) -> Option<u64> {
        let set = self.set_of(line);
        let mut victim = None;
        for way in 0..self.ways {
            if !self.valid[self.slot(set, way)] {
                victim = Some(way);
                break;
            }
        }
        let way = victim.unwrap_or_else(|| self.sets[set].victim(self.ways, &mut self.rng));
        let s = self.slot(set, way);
        let evicted = if self.valid[s] && self.dirty[s] {
            self.stats.writebacks += 1;
            Some(self.tags[s])
        } else {
            None
        };
        self.tags[s] = line;
        self.valid[s] = true;
        self.dirty[s] = dirty;
        self.sets[set].touch(way, self.ways, self.tick);
        evicted
    }
}

/// Pre-rewrite next-line prefetcher (behaviour identical to the live one;
/// kept so the oracle is self-contained).
#[derive(Debug, Clone)]
struct ReferenceNextLine {
    recent: [u64; 8],
    cursor: usize,
}

impl ReferenceNextLine {
    fn new() -> Self {
        ReferenceNextLine { recent: [u64::MAX; 8], cursor: 0 }
    }

    fn on_miss(&mut self, line: u64) -> Option<u64> {
        let candidate = line + 1;
        if self.recent.contains(&candidate) {
            return None;
        }
        self.recent[self.cursor] = candidate;
        self.cursor = (self.cursor + 1) % self.recent.len();
        Some(candidate)
    }
}

/// Pre-rewrite stride prefetcher: allocates a `Vec<u64>` per demand miss.
#[derive(Debug, Clone)]
struct ReferenceStride {
    last_line: u64,
    stride: i64,
    confidence: u8,
    degree: u32,
}

impl ReferenceStride {
    fn new(degree: u32) -> Self {
        assert!(degree > 0, "degree must be positive");
        ReferenceStride { last_line: u64::MAX, stride: 0, confidence: 0, degree }
    }

    fn on_miss(&mut self, line: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if self.last_line != u64::MAX {
            let delta = line as i64 - self.last_line as i64;
            if delta != 0 && delta == self.stride {
                self.confidence = (self.confidence + 1).min(3);
            } else {
                self.stride = delta;
                self.confidence = 0;
            }
            if self.confidence >= 2 && self.stride != 0 {
                for k in 1..=self.degree as i64 {
                    let target = line as i64 + self.stride * k;
                    if target >= 0 {
                        out.push(target as u64);
                    }
                }
            }
        }
        self.last_line = line;
        out
    }
}

#[derive(Debug)]
enum ReferencePrefetcher {
    None,
    NextLine(ReferenceNextLine),
    Stride(ReferenceStride),
}

/// Pre-rewrite three-level hierarchy: division-based line splitting, no
/// MRU fast path, heap-allocating prefetch suggestions.
#[derive(Debug)]
pub struct ReferenceHierarchy {
    l1i: ReferenceCache,
    l1d: ReferenceCache,
    l2: ReferenceCache,
    llc: ReferenceCache,
    prefetcher: ReferencePrefetcher,
    memory_accesses: u64,
    memory_writebacks: u64,
}

impl ReferenceHierarchy {
    /// Builds a hierarchy from its configuration (see
    /// [`HierarchyConfig::validate`]).
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate();
        ReferenceHierarchy {
            l1i: ReferenceCache::new(config.l1i),
            l1d: ReferenceCache::new(config.l1d),
            l2: ReferenceCache::new(config.l2),
            llc: ReferenceCache::new(config.llc),
            prefetcher: match config.l2_prefetch {
                PrefetchKind::None => ReferencePrefetcher::None,
                PrefetchKind::NextLine => ReferencePrefetcher::NextLine(ReferenceNextLine::new()),
                PrefetchKind::Stride => ReferencePrefetcher::Stride(ReferenceStride::new(2)),
            },
            memory_accesses: 0,
            memory_writebacks: 0,
        }
    }

    /// Load of `bytes` bytes at byte address `addr`.
    pub fn load(&mut self, addr: u64, bytes: u32) -> ServiceLevel {
        self.data_access(addr, bytes, AccessKind::Read)
    }

    /// Store of `bytes` bytes at byte address `addr`.
    pub fn store(&mut self, addr: u64, bytes: u32) -> ServiceLevel {
        self.data_access(addr, bytes, AccessKind::Write)
    }

    /// Instruction fetch of one line-aligned block at `addr`.
    pub fn fetch(&mut self, addr: u64) -> ServiceLevel {
        let line = self.l1i.line_of(addr);
        if self.l1i.access_line(line, AccessKind::Read).hit {
            return ServiceLevel::L1;
        }
        self.refill_from_l2(line, AccessKind::Read)
    }

    /// Per-level statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
            llc: self.llc.stats(),
            memory_accesses: self.memory_accesses,
            memory_writebacks: self.memory_writebacks,
        }
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.memory_accesses = 0;
        self.memory_writebacks = 0;
    }

    fn data_access(&mut self, addr: u64, bytes: u32, kind: AccessKind) -> ServiceLevel {
        let line_bytes = self.l1d.line_bytes() as u64;
        let first = addr / line_bytes;
        let last = (addr + bytes.max(1) as u64 - 1) / line_bytes;
        let mut worst = ServiceLevel::L1;
        for line in first..=last {
            let level = self.data_access_line(line, kind);
            if level > worst {
                worst = level;
            }
        }
        worst
    }

    fn data_access_line(&mut self, line: u64, kind: AccessKind) -> ServiceLevel {
        let l1 = self.l1d.access_line(line, kind);
        if l1.hit {
            return ServiceLevel::L1;
        }
        if let Some(victim) = l1.writeback {
            if let Some(l2_victim) = self.l2.fill_line(victim, true) {
                if self.llc.fill_line(l2_victim, true).is_some() {
                    self.memory_writebacks += 1;
                }
            }
        }
        self.refill_from_l2(line, kind)
    }

    fn refill_from_l2(&mut self, line: u64, _kind: AccessKind) -> ServiceLevel {
        let l2_result = self.l2.access_line(line, AccessKind::Read);
        if let Some(victim) = l2_result.writeback {
            if let Some(llc_victim) = self.llc.fill_line(victim, true) {
                let _ = llc_victim;
                self.memory_writebacks += 1;
            }
        }
        if l2_result.hit {
            return ServiceLevel::L2;
        }
        let llc_result = self.llc.access_line(line, AccessKind::Read);
        if let Some(victim) = llc_result.writeback {
            let _ = victim;
            self.memory_writebacks += 1;
        }
        for pf_line in self.prefetch_suggestions(line) {
            self.install_prefetch(pf_line);
        }
        if llc_result.hit {
            ServiceLevel::Llc
        } else {
            self.memory_accesses += 1;
            ServiceLevel::Memory
        }
    }

    fn prefetch_suggestions(&mut self, miss_line: u64) -> Vec<u64> {
        match &mut self.prefetcher {
            ReferencePrefetcher::None => Vec::new(),
            ReferencePrefetcher::NextLine(p) => p.on_miss(miss_line).into_iter().collect(),
            ReferencePrefetcher::Stride(p) => p.on_miss(miss_line),
        }
    }

    fn install_prefetch(&mut self, line: u64) {
        if let Some(victim) = self.l2.fill_line(line, false) {
            if self.llc.fill_line(victim, true).is_some() {
                self.memory_writebacks += 1;
            }
        }
        let _ = self.llc.fill_line(line, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use crate::Hierarchy;
    use proptest::prelude::*;

    fn small() -> ReferenceHierarchy {
        ReferenceHierarchy::new(small_config(ReplacementPolicy::Lru, PrefetchKind::None))
    }

    #[test]
    fn reference_behaves_like_a_cache() {
        let mut h = small();
        assert_eq!(h.load(0x1000, 4), ServiceLevel::Memory);
        assert_eq!(h.load(0x1000, 4), ServiceLevel::L1);
        assert_eq!(h.fetch(0x4000_0000), ServiceLevel::Memory);
        assert_eq!(h.fetch(0x4000_0000), ServiceLevel::L1);
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1i.accesses, 2);
    }

    // Equivalence proof for the optimized cache hierarchy: the fast paths
    // (Cache-level MRU slot, the hierarchy's same-L1D-line shortcut, mask
    // set indexing, shift-based line splitting, inline prefetch suggestion
    // buffers) are only admissible if every access produces the identical
    // `ServiceLevel` and leaves the identical `HierarchyStats` as the
    // reference above. The property tests drive both implementations over
    // random access streams — line-straddling accesses, dirty writebacks,
    // instruction fetches interleaved with data traffic, repeated
    // same-line touches (the MRU path), every replacement policy and every
    // prefetcher — and assert equality after *every* operation, so a
    // divergence is caught at the first op that drifts, not in an
    // end-of-stream aggregate.

    /// Tiny hierarchy so short random streams exercise evictions and
    /// writebacks at every level.
    fn small_config(policy: ReplacementPolicy, prefetch: PrefetchKind) -> HierarchyConfig {
        let mk = |size| CacheConfig { size_bytes: size, ways: 4, line_bytes: 64, policy };
        HierarchyConfig {
            l1i: mk(1 << 10),
            l1d: mk(1 << 10),
            l2: mk(4 << 10),
            llc: mk(16 << 10),
            lat_l1: 4,
            lat_l2: 12,
            lat_llc: 38,
            lat_mem: 170,
            l2_prefetch: prefetch,
        }
    }

    proptest! {
        /// Random op streams leave live and reference hierarchies in
        /// observably identical states at every step.
        ///
        /// Op encoding: `kind % 3` selects load/store/fetch; `kind >= 3`
        /// repeats the op back-to-back, guaranteeing the same-line MRU fast
        /// path fires on every stream (not just when the generator happens to
        /// produce adjacent duplicates). The 24 KB address range over a 1 KB
        /// L1D keeps hit and miss paths both hot; access widths up to 129
        /// bytes straddle one or two 64-byte line boundaries.
        #[test]
        fn hierarchy_matches_reference(
            ops in prop::collection::vec((0u8..6, 0u64..(24u64 << 10), 1u32..130), 1..1200),
            policy in prop::sample::select(ReplacementPolicy::ALL.to_vec()),
            prefetch in prop::sample::select(vec![
                PrefetchKind::None,
                PrefetchKind::NextLine,
                PrefetchKind::Stride,
            ]),
        ) {
            let cfg = small_config(policy, prefetch);
            let mut live = Hierarchy::new(cfg);
            let mut reference = ReferenceHierarchy::new(cfg);
            for (i, &(kind, addr, bytes)) in ops.iter().enumerate() {
                // Excluding warm-up mid-stream must not desynchronize either.
                if i == ops.len() / 2 {
                    live.reset_stats();
                    reference.reset_stats();
                }
                let repeats = if kind >= 3 { 2 } else { 1 };
                for _ in 0..repeats {
                    let (a, b) = match kind % 3 {
                        0 => (live.load(addr, bytes), reference.load(addr, bytes)),
                        1 => (live.store(addr, bytes), reference.store(addr, bytes)),
                        _ => (live.fetch(addr), reference.fetch(addr)),
                    };
                    prop_assert_eq!(a, b, "service level diverged at op {}", i);
                    prop_assert_eq!(
                        live.stats(),
                        reference.stats(),
                        "stats diverged at op {}",
                        i
                    );
                }
            }
        }

        /// Strided walks (the encoder's dominant data pattern, and the one
        /// that exercises the stride prefetcher's full suggestion list) stay
        /// equivalent for arbitrary pitches and walk lengths.
        #[test]
        fn strided_walks_match_reference(
            pitch in 1u64..2048,
            count in 1usize..600,
            bytes in 1u32..130,
            policy in prop::sample::select(ReplacementPolicy::ALL.to_vec()),
            prefetch in prop::sample::select(vec![
                PrefetchKind::None,
                PrefetchKind::NextLine,
                PrefetchKind::Stride,
            ]),
        ) {
            let cfg = small_config(policy, prefetch);
            let mut live = Hierarchy::new(cfg);
            let mut reference = ReferenceHierarchy::new(cfg);
            for i in 0..count {
                let addr = 0x10_0000 + i as u64 * pitch;
                prop_assert_eq!(
                    live.load(addr, bytes),
                    reference.load(addr, bytes),
                    "load diverged at step {}",
                    i
                );
                prop_assert_eq!(
                    live.store(addr, bytes),
                    reference.store(addr, bytes),
                    "store diverged at step {}",
                    i
                );
            }
            prop_assert_eq!(live.stats(), reference.stats());
        }
    }
}
