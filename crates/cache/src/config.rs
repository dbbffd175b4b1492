//! Cache and hierarchy geometry.

use crate::policy::ReplacementPolicy;

/// Hardware prefetcher attached to the L2 (the paper's Broadwell has both
/// an adjacent-line and a streamer/stride prefetcher; the `vstress-bench`
/// cache ablation compares them).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum PrefetchKind {
    /// No prefetching.
    #[default]
    None,
    /// Adjacent-line prefetch on every demand miss.
    NextLine,
    /// Constant-stride streamer (degree 2).
    Stride,
}

/// Geometry of a single cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes; must be `ways * line_bytes * 2^k`.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a config with LRU replacement.
    pub fn lru(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        CacheConfig { size_bytes, ways, line_bytes, policy: ReplacementPolicy::Lru }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    pub fn sets(&self) -> usize {
        self.validate();
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, the line size is not a power of two, or
    /// capacity is not an integer power-of-two number of sets.
    pub fn validate(&self) {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert_eq!(
            self.size_bytes % (self.ways * self.line_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
    }
}

/// Geometry of a full L1I/L1D/L2/LLC hierarchy plus load-to-use latencies
/// in cycles (used by the pipeline model to charge miss penalties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HierarchyConfig {
    /// Instruction cache.
    pub l1i: CacheConfig,
    /// Data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// L1 hit latency (cycles).
    pub lat_l1: u32,
    /// L2 hit latency.
    pub lat_l2: u32,
    /// LLC hit latency.
    pub lat_llc: u32,
    /// Memory latency.
    pub lat_mem: u32,
    /// Prefetcher attached to the L2.
    pub l2_prefetch: PrefetchKind,
}

impl HierarchyConfig {
    /// The paper's evaluation machine: Xeon E5-2650 v4 (Broadwell).
    ///
    /// 32 KB 8-way L1I and L1D, 256 KB 8-way L2, 30 MB 20-way shared LLC,
    /// 64 B lines throughout.
    pub fn broadwell() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::lru(32 << 10, 8, 64),
            l1d: CacheConfig::lru(32 << 10, 8, 64),
            l2: CacheConfig::lru(256 << 10, 8, 64),
            // 30 MB is not a power-of-two set count at 20 ways; model the
            // nearest simulable geometry: 32 MB, 16-way.
            llc: CacheConfig::lru(32 << 20, 16, 64),
            lat_l1: 4,
            lat_l2: 12,
            lat_llc: 38,
            lat_mem: 170,
            l2_prefetch: PrefetchKind::None,
        }
    }

    /// Broadwell geometry with the data capacities scaled down by
    /// `divisor` for the reduced-pixel fidelity mode: a clip scaled by
    /// 1/k² in pixels meets data caches scaled by the same factor, which
    /// preserves the capacity-pressure relationships that drive the
    /// paper's Fig. 6 trends (frames larger than L1D/L2, references
    /// fitting in the LLC). Floors keep each level functional: the L1D
    /// floor (8 KB) reflects that block-level working sets (motion-search
    /// windows, transform tiles, scratch) do not shrink with the frame;
    /// the L1I keeps its full size because code footprints do not shrink
    /// at all.
    ///
    /// # Panics
    ///
    /// Panics unless `divisor` is a power of two between 1 and 64.
    pub fn broadwell_scaled(divisor: usize) -> Self {
        assert!(divisor.is_power_of_two() && divisor <= 64, "divisor must be 2^k <= 64");
        let mut c = Self::broadwell();
        let shrink = |cfg: &mut CacheConfig, floor: usize| {
            cfg.size_bytes =
                (cfg.size_bytes / divisor).max(floor).max(cfg.ways * cfg.line_bytes * 2);
        };
        shrink(&mut c.l1d, 8 << 10);
        shrink(&mut c.l2, 32 << 10);
        shrink(&mut c.llc, 1 << 20);
        c
    }

    /// Validates every level.
    ///
    /// # Panics
    ///
    /// Panics if any level's geometry is inconsistent or line sizes differ.
    pub fn validate(&self) {
        self.l1i.validate();
        self.l1d.validate();
        self.l2.validate();
        self.llc.validate();
        assert!(
            self.l1i.line_bytes == self.l1d.line_bytes
                && self.l1d.line_bytes == self.l2.line_bytes
                && self.l2.line_bytes == self.llc.line_bytes,
            "hierarchy requires a uniform line size"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadwell_is_valid() {
        HierarchyConfig::broadwell().validate();
    }

    #[test]
    fn sets_computation() {
        let c = CacheConfig::lru(32 << 10, 8, 64);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::lru(32 << 10, 8, 48).validate();
    }

    #[test]
    #[should_panic(expected = "set count")]
    fn non_pow2_sets_panic() {
        CacheConfig::lru(30 << 20, 20, 64).validate();
    }

    #[test]
    fn scaled_geometry_remains_valid() {
        for d in [1usize, 2, 4, 8, 16, 32, 64] {
            HierarchyConfig::broadwell_scaled(d).validate();
        }
    }

    #[test]
    fn scaling_shrinks_but_keeps_floor() {
        let c = HierarchyConfig::broadwell_scaled(64);
        assert!(c.l1d.size_bytes >= c.l1d.ways * c.l1d.line_bytes * 2);
        assert!(c.llc.size_bytes < (32 << 20));
    }
}
