//! The three-level cache hierarchy.

use crate::cache::{AccessKind, Cache, CacheStats};
use crate::config::{HierarchyConfig, PrefetchKind};
use crate::prefetch::{NextLinePrefetcher, PrefetchList, StridePrefetcher};
use vstress_trace::record::{MemAccess, MemSink};

/// The L2 prefetch engine variants.
#[derive(Debug)]
enum Prefetcher {
    None,
    NextLine(NextLinePrefetcher),
    Stride(StridePrefetcher),
}

/// The level that ultimately serviced an access (deepest level touched).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ServiceLevel {
    /// Hit in the first-level cache.
    L1,
    /// Filled from the private L2.
    L2,
    /// Filled from the shared last-level cache.
    Llc,
    /// Filled from DRAM.
    Memory,
}

/// Per-level statistics of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HierarchyStats {
    /// Instruction-cache counters.
    pub l1i: CacheStats,
    /// Data-cache counters.
    pub l1d: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Last-level-cache counters.
    pub llc: CacheStats,
    /// Demand accesses that reached DRAM.
    pub memory_accesses: u64,
    /// Write-backs that reached DRAM.
    pub memory_writebacks: u64,
}

/// A private L1I + L1D, private unified L2, and an LLC, with write-back
/// write-allocate behaviour at every level.
///
/// Consumes byte-addressed accesses (splitting any that straddle lines)
/// and reports which level serviced each one, so the pipeline model can
/// charge the appropriate latency. Implements
/// [`vstress_trace::record::MemSink`] so it can be attached
/// directly to an instrumented encode.
#[derive(Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    prefetcher: Prefetcher,
    config: HierarchyConfig,
    /// Uniform line shift (validated identical across levels); turns the
    /// per-access line-splitting divisions into shifts.
    line_shift: u32,
    /// The last line passed to an L1D lookup. A repeat access is a
    /// guaranteed L1 hit — only the line's own L1D accesses can evict it,
    /// and the previous one left it resident and MRU — so the hierarchy
    /// can skip the lookup entirely (`Cache::mru_hit` applies the
    /// identical stat/replacement updates). `u64::MAX` is a safe
    /// sentinel: synthetic probe addresses never reach the top line.
    l1d_mru_line: u64,
    memory_accesses: u64,
    memory_writebacks: u64,
}

impl Hierarchy {
    /// Builds a hierarchy from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`HierarchyConfig::validate`]).
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate();
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            llc: Cache::new(config.llc),
            prefetcher: match config.l2_prefetch {
                PrefetchKind::None => Prefetcher::None,
                PrefetchKind::NextLine => Prefetcher::NextLine(NextLinePrefetcher::new()),
                PrefetchKind::Stride => Prefetcher::Stride(StridePrefetcher::new(2)),
            },
            config,
            line_shift: config.l1d.line_bytes.trailing_zeros(),
            l1d_mru_line: u64::MAX,
            memory_accesses: 0,
            memory_writebacks: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Load of `bytes` bytes at byte address `addr`.
    #[inline]
    pub fn load(&mut self, addr: u64, bytes: u32) -> ServiceLevel {
        self.data_access(addr, bytes, AccessKind::Read)
    }

    /// Store of `bytes` bytes at byte address `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, bytes: u32) -> ServiceLevel {
        self.data_access(addr, bytes, AccessKind::Write)
    }

    /// Instruction fetch of one line-aligned block at `addr`.
    #[inline]
    pub fn fetch(&mut self, addr: u64) -> ServiceLevel {
        let line = self.l1i.line_of(addr);
        if self.l1i.access_line(line, AccessKind::Read).hit {
            return ServiceLevel::L1;
        }
        // Instruction lines are never dirty in L1I.
        self.refill_from_l2(line)
    }

    /// Load-to-use latency in cycles for a given service level.
    pub fn latency(&self, level: ServiceLevel) -> u32 {
        match level {
            ServiceLevel::L1 => self.config.lat_l1,
            ServiceLevel::L2 => self.config.lat_l2,
            ServiceLevel::Llc => self.config.lat_llc,
            ServiceLevel::Memory => self.config.lat_mem,
        }
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

    /// Resets statistics, keeping contents (to exclude warm-up).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.memory_accesses = 0;
        self.memory_writebacks = 0;
    }

    #[inline(always)]
    fn data_access(&mut self, addr: u64, bytes: u32, kind: AccessKind) -> ServiceLevel {
        // Line sizes are powers of two, so shifting is exactly the
        // division the reference performs.
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        if first == last {
            return self.data_access_line(first, kind);
        }
        let mut worst = ServiceLevel::L1;
        for line in first..=last {
            let level = self.data_access_line(line, kind);
            if level > worst {
                worst = level;
            }
        }
        worst
    }

    /// One L1D line access. The L1 hit path, nearly every access, is
    /// inlined into the caller; the miss tail is not.
    #[inline(always)]
    fn data_access_line(&mut self, line: u64, kind: AccessKind) -> ServiceLevel {
        if line == self.l1d_mru_line {
            self.l1d.mru_hit(line, kind);
            return ServiceLevel::L1;
        }
        self.l1d_mru_line = line;
        let l1 = self.l1d.access_line(line, kind);
        if l1.hit {
            return ServiceLevel::L1;
        }
        self.l1d_miss(line, l1.writeback)
    }

    /// The L1D-miss tail of [`Hierarchy::data_access_line`], after the
    /// lookup installed `line` (write-allocate): pushes its dirty victim
    /// `writeback`, if any, down into L2, then refills `line` from below.
    #[inline(never)]
    fn l1d_miss(&mut self, line: u64, writeback: Option<u64>) -> ServiceLevel {
        if let Some(victim) = writeback {
            if let Some(l2_victim) = self.l2.fill_line(victim, true) {
                if self.llc.fill_line(l2_victim, true).is_some() {
                    self.memory_writebacks += 1;
                }
            }
        }
        self.refill_from_l2(line)
    }

    /// Handles an L1 miss for `line`: looks it up in L2, then LLC, then
    /// memory, propagating any dirty victims downward. Returns the level
    /// that supplied the data.
    fn refill_from_l2(&mut self, line: u64) -> ServiceLevel {
        let l2_result = self.l2.access_line(line, AccessKind::Read);
        if let Some(victim) = l2_result.writeback {
            if self.llc.fill_line(victim, true).is_some() {
                self.memory_writebacks += 1;
            }
        }
        if l2_result.hit {
            return ServiceLevel::L2;
        }
        let llc_result = self.llc.access_line(line, AccessKind::Read);
        if llc_result.writeback.is_some() {
            self.memory_writebacks += 1;
        }
        let suggestions = self.prefetch_suggestions(line);
        for &pf_line in suggestions.as_slice() {
            self.install_prefetch(pf_line);
        }
        if llc_result.hit {
            ServiceLevel::Llc
        } else {
            self.memory_accesses += 1;
            ServiceLevel::Memory
        }
    }

    fn prefetch_suggestions(&mut self, miss_line: u64) -> PrefetchList {
        let mut out = PrefetchList::default();
        match &mut self.prefetcher {
            Prefetcher::None => {}
            Prefetcher::NextLine(p) => {
                if let Some(l) = p.on_miss(miss_line) {
                    out.push(l);
                }
            }
            Prefetcher::Stride(p) => out = p.on_miss(miss_line),
        }
        out
    }

    /// Installs a prefetched line into L2 (and LLC), propagating victims.
    fn install_prefetch(&mut self, line: u64) {
        if let Some(victim) = self.l2.fill_line(line, false) {
            if self.llc.fill_line(victim, true).is_some() {
                self.memory_writebacks += 1;
            }
        }
        let _ = self.llc.fill_line(line, false);
    }
}

impl MemSink for Hierarchy {
    #[inline]
    fn observe_access(&mut self, access: MemAccess) {
        if access.is_store {
            self.store(access.addr, access.bytes);
        } else {
            self.load(access.addr, access.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::policy::ReplacementPolicy;

    fn small() -> Hierarchy {
        // 1 KB L1, 4 KB L2, 16 KB LLC — tiny so tests exercise evictions.
        let mk = |size| CacheConfig {
            size_bytes: size,
            ways: 4,
            line_bytes: 64,
            policy: ReplacementPolicy::Lru,
        };
        Hierarchy::new(HierarchyConfig {
            l1i: mk(1 << 10),
            l1d: mk(1 << 10),
            l2: mk(4 << 10),
            llc: mk(16 << 10),
            lat_l1: 4,
            lat_l2: 12,
            lat_llc: 38,
            lat_mem: 170,
            l2_prefetch: crate::config::PrefetchKind::None,
        })
    }

    #[test]
    fn first_touch_goes_to_memory_then_hits_l1() {
        let mut h = small();
        assert_eq!(h.load(0x1000, 4), ServiceLevel::Memory);
        assert_eq!(h.load(0x1000, 4), ServiceLevel::L1);
        assert_eq!(h.load(0x1004, 4), ServiceLevel::L1, "same line");
    }

    #[test]
    fn l1_victim_is_found_in_l2() {
        let mut h = small();
        // L1D: 1KB/4w/64B = 4 sets. Lines 0,4,8,12,16 alias set 0.
        for i in 0..5u64 {
            h.load(i * 4 * 64, 4);
        }
        // Line 0 was evicted from L1 but lives in L2.
        assert_eq!(h.load(0, 4), ServiceLevel::L2);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = small();
        assert_eq!(h.load(0x1000 + 60, 8), ServiceLevel::Memory);
        // Both lines now resident.
        assert_eq!(h.load(0x1000 + 32, 4), ServiceLevel::L1);
        assert_eq!(h.load(0x1000 + 64, 4), ServiceLevel::L1);
        assert_eq!(h.stats().l1d.accesses, 4);
    }

    #[test]
    fn dirty_data_writes_back_through_the_hierarchy() {
        let mut h = small();
        // Dirty many aliasing lines to force L1 writebacks into L2.
        for i in 0..32u64 {
            h.store(i * 4 * 64, 4);
        }
        assert!(h.stats().l1d.writebacks > 0);
    }

    #[test]
    fn fetch_uses_the_instruction_cache() {
        let mut h = small();
        assert_eq!(h.fetch(0x4000_0000), ServiceLevel::Memory);
        assert_eq!(h.fetch(0x4000_0000), ServiceLevel::L1);
        assert_eq!(h.stats().l1i.accesses, 2);
        assert_eq!(h.stats().l1d.accesses, 0);
    }

    #[test]
    fn latencies_come_from_config() {
        let h = small();
        assert_eq!(h.latency(ServiceLevel::L1), 4);
        assert_eq!(h.latency(ServiceLevel::Memory), 170);
    }

    #[test]
    fn service_levels_order_by_depth() {
        assert!(ServiceLevel::L1 < ServiceLevel::L2);
        assert!(ServiceLevel::Llc < ServiceLevel::Memory);
    }

    #[test]
    fn mem_sink_dispatches_loads_and_stores() {
        let mut h = small();
        h.observe_access(MemAccess { addr: 0x9000, bytes: 32, is_store: false });
        h.observe_access(MemAccess { addr: 0x9000, bytes: 32, is_store: true });
        let s = h.stats();
        assert_eq!(s.l1d.accesses, 2);
        assert_eq!(s.l1d.hits, 1);
    }

    #[test]
    fn working_set_larger_than_llc_thrashes() {
        let mut h = small();
        // 64 KB working set streamed twice: misses dominate (16KB LLC).
        for _ in 0..2 {
            for addr in (0..(64 << 10) as u64).step_by(64) {
                h.load(0x10_0000 + addr, 4);
            }
        }
        let s = h.stats();
        assert!(s.llc.misses as f64 > s.llc.accesses as f64 * 0.9);
        assert!(s.memory_accesses > 0);
    }

    #[test]
    fn prefetchers_reduce_l2_misses_on_streaming() {
        use crate::config::PrefetchKind;
        let mk = |pf: PrefetchKind| {
            let mut cfg = small().config;
            cfg.l2_prefetch = pf;
            Hierarchy::new(cfg)
        };
        let run = |h: &mut Hierarchy| {
            for addr in (0..(8 << 10) as u64).step_by(64) {
                h.load(0x20_0000 + addr, 4);
            }
            h.stats().l2.misses
        };
        let without = run(&mut mk(PrefetchKind::None));
        let next = run(&mut mk(PrefetchKind::NextLine));
        let stride = run(&mut mk(PrefetchKind::Stride));
        assert!(next < without, "next-line should cut streaming L2 misses: {next} vs {without}");
        assert!(stride < without, "stride should cut streaming L2 misses: {stride} vs {without}");
    }

    #[test]
    fn stride_prefetcher_wins_on_strided_walks() {
        use crate::config::PrefetchKind;
        // Walk every 4th line (a plane pitch of 256 bytes): next-line
        // fetches useless neighbours, the streamer locks onto the stride.
        let mk = |pf: PrefetchKind| {
            let mut cfg = small().config;
            cfg.l2_prefetch = pf;
            Hierarchy::new(cfg)
        };
        let run = |h: &mut Hierarchy| {
            for i in 0..256u64 {
                h.load(0x40_0000 + i * 256, 4);
            }
            h.stats().l2.misses
        };
        let next = run(&mut mk(PrefetchKind::NextLine));
        let stride = run(&mut mk(PrefetchKind::Stride));
        assert!(stride < next, "streamer must beat next-line on strides: {stride} vs {next}");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = small();
        h.load(0x5000, 4);
        h.reset_stats();
        assert_eq!(h.stats().l1d.accesses, 0);
        assert_eq!(h.load(0x5000, 4), ServiceLevel::L1, "contents survived reset");
    }
}
