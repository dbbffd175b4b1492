//! Mid-run branch-trace window capture.
//!
//! The paper's predictor study (Figs. 8–10) evaluates CBP predictors on
//! branch traces "taken from an interval of 1 billion instructions roughly
//! halfway through the encoding run". [`BranchWindowProbe`] reproduces that
//! protocol: it counts retired instructions and records the branch outcomes
//! of one window of them.
//!
//! A mid-run window of `w` instructions in a run of `total` starts at
//! `total/2 - w/2` (at 0 when that is negative). When the total is known
//! ([`BranchWindowProbe::mid_run`]) the probe holds only the window's
//! branches. When the probe is fed while the run is still going
//! ([`BranchWindowProbe::centered`]) the total is not known yet, but it is
//! at least the `n` instructions retired so far, so the window cannot
//! start before `n/2 - w/2`: the same rule over `n`. The probe drops every
//! branch retired before that bound as the stream arrives, and at the end,
//! when `n` is the total, the bound is the window's exact start. It holds
//! its branches packed in fixed-size blocks, a few bytes each, and drops
//! a block whole once every branch in it lies before the bound, so a
//! centered probe holds about the second half of the run's branches at
//! most.

use crate::kernel::Kernel;
use crate::probe::Probe;
use crate::record::BranchRecord;
use crate::stream::{push_varint, read_varint, unzigzag, zigzag, MAX_VARINT_BYTES};
use std::collections::VecDeque;

/// Bytes per block of held branches (small under test, so that short
/// test streams fill many).
const BLOCK_BYTES: usize = if cfg!(test) { 1 << 10 } else { 64 << 10 };

/// The most bytes one held branch packs to: two varints.
const MAX_HELD_BYTES: usize = 2 * MAX_VARINT_BYTES as usize;

/// A block of held branches, packed as an event stream packs them: per
/// branch, the varint `(instructions retired since the block's previous
/// branch) << 1 | taken` and the zigzag varint of the PC's delta from the
/// previous branch's (for the first branch, from `first_at` and PC 0).
#[derive(Debug, Clone)]
struct Block {
    /// Instructions retired before the block's first branch.
    first_at: u64,
    /// Instructions retired before its last branch.
    last_at: u64,
    last_pc: u64,
    branches: usize,
    bytes: Vec<u8>,
}

impl Block {
    fn new(first_at: u64) -> Self {
        Block {
            first_at,
            last_at: first_at,
            last_pc: 0,
            branches: 0,
            bytes: Vec::with_capacity(BLOCK_BYTES),
        }
    }

    /// Whether the branch retired after `at` instructions fits: there is
    /// room for its bytes, and its distance from the last one leaves the
    /// direction bit a place.
    fn fits(&self, at: u64) -> bool {
        self.bytes.len() + MAX_HELD_BYTES <= BLOCK_BYTES && at - self.last_at <= u64::MAX >> 1
    }

    fn push(&mut self, pc: u64, taken: bool, at: u64) {
        push_varint(&mut self.bytes, (at - self.last_at) << 1 | u64::from(taken));
        push_varint(&mut self.bytes, zigzag(pc.wrapping_sub(self.last_pc) as i64));
        self.last_at = at;
        self.last_pc = pc;
        self.branches += 1;
    }

    /// The block's branches, each with the instructions retired before it.
    fn branches(&self) -> impl Iterator<Item = (u64, BranchRecord)> + '_ {
        let (mut rest, mut at, mut pc) = (&self.bytes[..], self.first_at, 0u64);
        std::iter::from_fn(move || {
            let varint = |rest: &mut &[u8]| read_varint(rest).expect("a block holds whole varints");
            if rest.is_empty() {
                return None;
            }
            let step = varint(&mut rest);
            at += step >> 1;
            pc = pc.wrapping_add(unzigzag(varint(&mut rest)) as u64);
            Some((at, BranchRecord { pc, taken: step & 1 == 1 }))
        })
    }
}

/// The start of a mid-run window of `window` instructions in a run of
/// `total`.
fn centre_start(total: u64, window: u64) -> u64 {
    (total / 2).saturating_sub(window / 2)
}

/// A probe that records the branch stream of one mid-run instruction window.
#[derive(Debug, Clone)]
pub struct BranchWindowProbe {
    skip: u64,
    window: u64,
    /// The run's total is not known: the window is centred on every
    /// instruction retired, and `skip` is unused.
    centered: bool,
    retired: u64,
    blocks: VecDeque<Block>,
}

impl BranchWindowProbe {
    /// Captures branches retired in `[skip, skip + window)` instructions.
    pub fn new(skip: u64, window: u64) -> Self {
        BranchWindowProbe { skip, window, centered: false, retired: 0, blocks: VecDeque::new() }
    }

    /// Convenience for the paper's protocol: a window of `window`
    /// instructions starting halfway through a run whose total length is
    /// estimated at `total_estimate` instructions.
    pub fn mid_run(total_estimate: u64, window: u64) -> Self {
        Self::new(centre_start(total_estimate, window), window)
    }

    /// The paper's window for a run whose length is not known yet: a
    /// window of `window` instructions centred on every instruction the
    /// probe will have retired when it is read. Fed a whole run, it holds
    /// the records and [`BranchWindowProbe::window_retired`] of
    /// [`BranchWindowProbe::mid_run`] given that run's total.
    pub fn centered(window: u64) -> Self {
        BranchWindowProbe { centered: true, ..Self::new(0, window) }
    }

    /// The window's first instruction: for a centered probe, the lowest
    /// start the run's total still allows.
    fn start(&self) -> u64 {
        if self.centered {
            centre_start(self.retired, self.window)
        } else {
            self.skip
        }
    }

    /// Whether the window has been fully captured (further events are
    /// ignored). A centered window is never complete: its end moves with
    /// the run's.
    pub fn is_complete(&self) -> bool {
        !self.centered && self.retired >= self.skip.saturating_add(self.window)
    }

    /// Instructions retired inside the window so far.
    pub fn window_retired(&self) -> u64 {
        self.retired.saturating_sub(self.start()).min(self.window)
    }

    /// Branch records captured in the window so far.
    pub fn records(&self) -> Vec<BranchRecord> {
        let start = self.start();
        let end = start.saturating_add(self.window);
        let held = self.blocks.iter().flat_map(Block::branches);
        held.filter(|(at, _)| (start..end).contains(at)).map(|(_, record)| record).collect()
    }

    /// Consumes the probe, returning the captured branch trace.
    pub fn into_records(self) -> Vec<BranchRecord> {
        self.records()
    }

    /// Retires `n` instructions and, for a centered window, drops the
    /// blocks before the last that now lie wholly before its start (a
    /// fixed window holds no branch before its start).
    #[inline]
    fn retire(&mut self, n: u64) {
        self.retired += n;
        if self.centered {
            let start = self.start();
            while self.blocks.len() > 1 && self.blocks.front().is_some_and(|b| b.last_at < start) {
                self.blocks.pop_front();
            }
        }
    }

    fn hold(&mut self, pc: u64, taken: bool, at: u64) {
        match self.blocks.back_mut() {
            Some(block) if block.fits(at) => block.push(pc, taken, at),
            _ => {
                let mut block = Block::new(at);
                block.push(pc, taken, at);
                self.blocks.push_back(block);
            }
        }
    }
}

impl Probe for BranchWindowProbe {
    #[inline]
    fn set_kernel(&mut self, _k: Kernel) {}

    #[inline]
    fn alu(&mut self, n: u64) {
        self.retire(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.retire(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.retire(n);
    }

    #[inline]
    fn load(&mut self, _addr: u64, _bytes: u32) {
        self.retire(1);
    }

    #[inline]
    fn store(&mut self, _addr: u64, _bytes: u32) {
        self.retire(1);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        let at = self.retired;
        self.retire(1);
        // A fixed window ends at its known end; a centered one holds
        // everything from its start on, since its end is not known yet.
        let end = if self.centered { u64::MAX } else { self.skip.saturating_add(self.window) };
        if (self.start()..end).contains(&at) {
            self.hold(pc, taken, at);
        }
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The most branches one block holds: each packs to two bytes or more.
    const BLOCK: usize = BLOCK_BYTES / 2;

    /// The branches `p` holds.
    fn held(p: &BranchWindowProbe) -> usize {
        p.blocks.iter().map(|b| b.branches).sum()
    }

    #[test]
    fn only_window_branches_are_recorded() {
        // Window covers retired counts [10, 20).
        let mut p = BranchWindowProbe::new(10, 10);
        for i in 0..30u64 {
            p.branch(0x1000 + i * 4, i % 2 == 0);
        }
        assert_eq!(p.records().len(), 10);
        assert_eq!(p.records()[0].pc, 0x1000 + 10 * 4);
        assert!(p.is_complete());
    }

    #[test]
    fn non_branch_instructions_advance_the_clock() {
        let mut p = BranchWindowProbe::new(5, 100);
        p.alu(3);
        p.load(0, 4);
        p.branch(0xa0, true); // retired == 4 < 5: before the window
        assert!(p.records().is_empty());
        p.store(0, 4); // retired 5..6 enters window
        p.branch(0xb0, false);
        assert_eq!(p.records().len(), 1);
        assert_eq!(p.records()[0].pc, 0xb0);
    }

    #[test]
    fn mid_run_centers_the_window() {
        let p = BranchWindowProbe::mid_run(1000, 100);
        assert_eq!(p.skip, 450);
        assert_eq!(p.window, 100);
        // Estimate smaller than the window still yields a valid probe.
        let p2 = BranchWindowProbe::mid_run(10, 100);
        assert_eq!(p2.skip, 0);
    }

    #[test]
    fn window_retired_saturates() {
        let mut p = BranchWindowProbe::new(2, 3);
        assert_eq!(p.window_retired(), 0);
        p.alu(4);
        assert_eq!(p.window_retired(), 2);
        p.alu(100);
        assert_eq!(p.window_retired(), 3);
    }

    #[test]
    fn into_records_hands_back_trace() {
        let mut p = BranchWindowProbe::new(0, 10);
        p.branch(0x4, true);
        let recs = p.into_records();
        assert_eq!(recs, vec![BranchRecord { pc: 0x4, taken: true }]);
    }

    /// One event of a generated stream.
    #[derive(Debug, Clone, Copy)]
    enum Event {
        Alu(u64),
        Load,
        Branch(u64, bool),
    }

    /// `events` pseudo-random events from `seed`, a `branchy` share of
    /// them (in 1/8ths) branches and the rest mostly short compute bursts.
    fn stream(seed: u64, events: usize, branchy: u64) -> Vec<Event> {
        let mut x = seed | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..events)
            .map(|_| {
                let r = step();
                match r % 8 {
                    k if k < branchy => Event::Branch(0x5000 + (r >> 8) % 64 * 4, r >> 20 & 1 == 1),
                    7 => Event::Alu(1 + (r >> 8) % 200),
                    _ if r >> 8 & 1 == 0 => Event::Alu(1 + (r >> 9) % 5),
                    _ => Event::Load,
                }
            })
            .collect()
    }

    fn feed(p: &mut BranchWindowProbe, e: Event) {
        match e {
            Event::Alu(n) => p.alu(n),
            Event::Load => p.load(0x1000, 4),
            Event::Branch(pc, taken) => p.branch(pc, taken),
        }
    }

    /// Feeds `events` to a centered probe of `window` and to the
    /// `mid_run` probe given their total, checks after every event that
    /// the centered probe holds no more than the branches retired at or
    /// after its bound plus one block, and checks that both end with the
    /// same window.
    fn check_centered(events: &[Event], window: u64) {
        let mut live = BranchWindowProbe::centered(window);
        // Where each branch so far was retired, in order.
        let mut branches_at = Vec::new();
        for &e in events {
            if let Event::Branch(..) = e {
                branches_at.push(live.retired());
            }
            feed(&mut live, e);
            let bound = centre_start(live.retired(), window);
            let after = branches_at.len() - branches_at.partition_point(|&at| at < bound);
            let held = held(&live);
            assert!(held <= after + BLOCK, "{held} held, {after} at or after {bound}");
        }
        let total = live.retired();
        let mut oracle = BranchWindowProbe::mid_run(total, window);
        events.iter().for_each(|&e| feed(&mut oracle, e));
        assert_eq!(live.window_retired(), oracle.window_retired(), "window {window}");
        assert_eq!(live.records(), oracle.records(), "window {window}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Fed a whole run, a centered window equals the `mid_run` window
        /// of that run's total, whatever the window's size relative to the
        /// run: larger (a start of 0), odd, or spanning many blocks.
        #[test]
        fn a_centered_window_equals_the_mid_run_window_of_the_total(
            seed in any::<u64>(),
            events in 0usize..30_000,
            branchy in 1u64..7,
            window_bits in 0u32..19,
            window_raw in any::<u64>(),
        ) {
            // Window lengths spread evenly over their bit lengths, 0 to
            // 2^18 instructions.
            let window = window_raw % (1 << window_bits);
            check_centered(&stream(seed, events, branchy), window);
        }

        /// The same, for the window that ends on the run's last
        /// instruction: one as long as the run, or one shorter by one
        /// when the run's length is even.
        #[test]
        fn a_centered_window_may_end_on_the_last_instruction(
            seed in any::<u64>(),
            events in 1usize..20_000,
            shorter in any::<bool>(),
        ) {
            let events = stream(seed, events, 4);
            let mut counted = BranchWindowProbe::centered(0);
            events.iter().for_each(|&e| feed(&mut counted, e));
            let total = counted.retired();
            let window = total - u64::from(shorter && total.is_multiple_of(2));
            prop_assert_eq!(centre_start(total, window) + window, total);
            check_centered(&events, window);
        }
    }

    #[test]
    fn a_centered_window_longer_than_any_run_holds_the_whole_run() {
        let events = stream(7, 5_000, 3);
        check_centered(&events, u64::MAX);
        let mut p = BranchWindowProbe::centered(u64::MAX);
        events.iter().for_each(|&e| feed(&mut p, e));
        assert_eq!(p.window_retired(), p.retired());
        let branches = events.iter().filter(|e| matches!(e, Event::Branch(..))).count();
        assert_eq!(p.records().len(), branches);
    }

    #[test]
    fn a_centered_window_drops_blocks_behind_its_start() {
        let mut p = BranchWindowProbe::centered(1000);
        let n = 100 * BLOCK as u64;
        for i in 0..n {
            p.branch(0x4000 + i % 16 * 4, i % 3 == 0);
        }
        // The branches before the start are gone, all but one block's.
        let after = (n - (n / 2 - 500)) as usize;
        assert!((after..=after + BLOCK).contains(&held(&p)), "{} held", held(&p));
        assert_eq!(p.records().len(), 1000);
        assert_eq!(p.window_retired(), 1000);
        assert!(!p.is_complete());
    }

    #[test]
    fn a_branch_far_past_the_last_starts_a_block() {
        let mut p = BranchWindowProbe::new(0, u64::MAX);
        p.branch(0x10, true);
        p.alu(u64::MAX >> 1);
        p.branch(u64::MAX, false);
        assert_eq!(p.blocks.len(), 2);
        let expect =
            [BranchRecord { pc: 0x10, taken: true }, BranchRecord { pc: u64::MAX, taken: false }];
        assert_eq!(p.records(), expect);
    }
}
