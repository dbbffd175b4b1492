//! The [`Probe`] trait and its basic implementations.

use crate::kernel::Kernel;
use crate::mix::{OpClass, OpMix};
use crate::profile::HotKernelProfile;
use crate::record::{BranchSink, MemAccess, MemSink};

/// Receiver for the dynamic operation stream of an instrumented encoder.
///
/// Encoder kernels are generic over `P: Probe`; every abstract retired
/// instruction is reported through exactly one of these methods. All
/// methods are expected to be `#[inline]`-friendly — with [`NullProbe`] the
/// whole instrumentation layer compiles away.
///
/// Batched variants (`alu(n)`, `avx(n)`, …) exist because leaf SIMD loops
/// retire thousands of identical compute instructions between interesting
/// events; batching keeps instrumentation overhead proportional to the
/// *event* rate rather than the instruction rate.
pub trait Probe {
    /// Declares that subsequent operations execute in kernel `k`
    /// (profiling attribution and instruction-fetch modelling).
    fn set_kernel(&mut self, k: Kernel);

    /// `n` scalar ALU / address-generation / move instructions
    /// (Table 2 "Other").
    fn alu(&mut self, n: u64);

    /// `n` 256-bit vector compute instructions (Table 2 "AVX").
    fn avx(&mut self, n: u64);

    /// `n` 128-bit vector compute instructions (Table 2 "SSE").
    fn sse(&mut self, n: u64);

    /// One load of `bytes` bytes at `addr`.
    fn load(&mut self, addr: u64, bytes: u32);

    /// One store of `bytes` bytes at `addr`.
    fn store(&mut self, addr: u64, bytes: u32);

    /// One conditional branch at static site `pc` resolving to `taken`.
    fn branch(&mut self, pc: u64, taken: bool);

    /// Total retired instructions so far (0 for non-counting probes).
    fn retired(&self) -> u64 {
        0
    }

    /// Whether this probe actually observes events.
    ///
    /// `false` means every report is a no-op ([`NullProbe`]), so callers
    /// may skip work whose *only* purpose is probe fidelity — e.g. the
    /// partition-search memo serves repeated leaf evaluations only when
    /// the probe is dead, since nothing can observe the events a served
    /// leaf does not emit. Model-visible behaviour must not depend on
    /// this value.
    fn is_live(&self) -> bool {
        true
    }
}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        (**self).set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        (**self).alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        (**self).avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        (**self).sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        (**self).load(addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        (**self).store(addr, bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        (**self).branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        (**self).retired()
    }

    #[inline]
    fn is_live(&self) -> bool {
        (**self).is_live()
    }
}

/// A probe that does nothing; instrumentation compiles away entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline]
    fn set_kernel(&mut self, _k: Kernel) {}

    #[inline]
    fn alu(&mut self, _n: u64) {}

    #[inline]
    fn avx(&mut self, _n: u64) {}

    #[inline]
    fn sse(&mut self, _n: u64) {}

    #[inline]
    fn load(&mut self, _addr: u64, _bytes: u32) {}

    #[inline]
    fn store(&mut self, _addr: u64, _bytes: u32) {}

    #[inline]
    fn branch(&mut self, _pc: u64, _taken: bool) {}

    #[inline]
    fn is_live(&self) -> bool {
        false
    }
}

/// Counts the instruction mix and per-kernel totals (Pin's `insmix` +
/// gprof's flat profile, combined).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingProbe {
    mix: OpMix,
    profile: HotKernelProfile,
    kernel: Option<Kernel>,
}

impl CountingProbe {
    /// Creates a probe with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instruction mix counted so far.
    pub fn mix(&self) -> OpMix {
        self.mix
    }

    /// The per-kernel profile counted so far.
    pub fn profile(&self) -> &HotKernelProfile {
        &self.profile
    }

    #[inline]
    fn attribute(&mut self, n: u64) {
        if let Some(k) = self.kernel {
            self.profile.add(k, n);
        }
    }
}

impl Probe for CountingProbe {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.kernel = Some(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.mix.bump(OpClass::Other, n);
        self.attribute(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.mix.bump(OpClass::Avx, n);
        self.attribute(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.mix.bump(OpClass::Sse, n);
        self.attribute(n);
    }

    #[inline]
    fn load(&mut self, _addr: u64, _bytes: u32) {
        self.mix.bump(OpClass::Load, 1);
        self.attribute(1);
    }

    #[inline]
    fn store(&mut self, _addr: u64, _bytes: u32) {
        self.mix.bump(OpClass::Store, 1);
        self.attribute(1);
    }

    #[inline]
    fn branch(&mut self, _pc: u64, _taken: bool) {
        self.mix.bump(OpClass::Branch, 1);
        self.attribute(1);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.mix.total()
    }
}

/// Counts like [`CountingProbe`] and additionally streams branch outcomes
/// into a [`BranchSink`] and memory accesses into a [`MemSink`].
///
/// This is the composition used for "perf + simulators attached": the
/// branch sink is typically a functional branch predictor and the memory
/// sink a cache hierarchy.
#[derive(Debug, Default)]
pub struct SinkProbe<B, M> {
    counting: CountingProbe,
    branches: B,
    memory: M,
}

impl<B: BranchSink, M: MemSink> SinkProbe<B, M> {
    /// Wraps the given sinks.
    pub fn new(branches: B, memory: M) -> Self {
        SinkProbe { counting: CountingProbe::new(), branches, memory }
    }

    /// The instruction mix counted so far.
    pub fn mix(&self) -> OpMix {
        self.counting.mix()
    }

    /// The per-kernel profile counted so far.
    pub fn profile(&self) -> &HotKernelProfile {
        self.counting.profile()
    }

    /// Borrows the branch sink.
    pub fn branch_sink(&self) -> &B {
        &self.branches
    }

    /// Borrows the memory sink.
    pub fn memory_sink(&self) -> &M {
        &self.memory
    }

    /// Consumes the probe and returns `(mix, branch sink, memory sink)`.
    pub fn into_parts(self) -> (OpMix, B, M) {
        (self.counting.mix(), self.branches, self.memory)
    }
}

impl<B: BranchSink, M: MemSink> Probe for SinkProbe<B, M> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.counting.set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.counting.alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.counting.avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.counting.sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.counting.load(addr, bytes);
        self.memory.observe_access(MemAccess { addr, bytes, is_store: false });
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.counting.store(addr, bytes);
        self.memory.observe_access(MemAccess { addr, bytes, is_store: true });
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.counting.branch(pc, taken);
        self.branches.observe_branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.counting.retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BranchRecord, NullSink};

    fn drive<P: Probe>(p: &mut P) {
        p.set_kernel(Kernel::Sad);
        p.alu(3);
        p.avx(2);
        p.sse(1);
        p.load(0x1000, 32);
        p.store(0x2000, 32);
        p.branch(0x500, true);
    }

    #[test]
    fn null_probe_counts_nothing() {
        let mut p = NullProbe;
        drive(&mut p);
        assert_eq!(p.retired(), 0);
    }

    #[test]
    fn counting_probe_tallies_mix() {
        let mut p = CountingProbe::new();
        drive(&mut p);
        let m = p.mix();
        assert_eq!(m.other, 3);
        assert_eq!(m.avx, 2);
        assert_eq!(m.sse, 1);
        assert_eq!(m.load, 1);
        assert_eq!(m.store, 1);
        assert_eq!(m.branch, 1);
        assert_eq!(p.retired(), 9);
        assert_eq!(p.profile().count(Kernel::Sad), 9);
    }

    #[test]
    fn sink_probe_forwards_events() {
        let mut p = SinkProbe::new(Vec::<BranchRecord>::new(), Vec::new());
        drive(&mut p);
        let (mix, branches, mems) = p.into_parts();
        assert_eq!(mix.total(), 9);
        assert_eq!(branches, vec![BranchRecord { pc: 0x500, taken: true }]);
        assert_eq!(mems.len(), 2);
        assert!(!mems[0].is_store);
        assert!(mems[1].is_store);
    }

    #[test]
    fn sink_probe_with_null_sinks() {
        let mut p = SinkProbe::new(NullSink, NullSink);
        drive(&mut p);
        assert_eq!(p.retired(), 9);
    }

    #[test]
    fn mut_ref_probe_forwards() {
        let mut p = CountingProbe::new();
        {
            let mut r: &mut CountingProbe = &mut p;
            drive(&mut r);
        }
        assert_eq!(p.retired(), 9);
    }
}

/// Forwards every event to two probes (e.g. a [`CountingProbe`] for the
/// instruction mix plus a pipeline model for cycles).
#[derive(Debug, Default)]
pub struct TeeProbe<A, B> {
    first: A,
    second: B,
}

impl<A: Probe, B: Probe> TeeProbe<A, B> {
    /// Combines two probes.
    pub fn new(first: A, second: B) -> Self {
        TeeProbe { first, second }
    }

    /// Borrows the first probe.
    pub fn first(&self) -> &A {
        &self.first
    }

    /// Borrows the second probe.
    pub fn second(&self) -> &B {
        &self.second
    }

    /// Consumes the tee and returns both probes.
    pub fn into_parts(self) -> (A, B) {
        (self.first, self.second)
    }
}

impl<A: Probe, B: Probe> Probe for TeeProbe<A, B> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.first.set_kernel(k);
        self.second.set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.first.alu(n);
        self.second.alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.first.avx(n);
        self.second.avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.first.sse(n);
        self.second.sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.first.load(addr, bytes);
        self.second.load(addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.first.store(addr, bytes);
        self.second.store(addr, bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.first.branch(pc, taken);
        self.second.branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.first.retired().max(self.second.retired())
    }

    #[inline]
    fn is_live(&self) -> bool {
        self.first.is_live() || self.second.is_live()
    }
}

#[cfg(test)]
mod tee_tests {
    use super::*;

    #[test]
    fn tee_forwards_to_both() {
        let mut tee = TeeProbe::new(CountingProbe::new(), CountingProbe::new());
        tee.set_kernel(Kernel::Quant);
        tee.alu(3);
        tee.load(0x100, 4);
        tee.branch(0x5000, true);
        assert_eq!(tee.first().retired(), 5);
        assert_eq!(tee.second().retired(), 5);
        let (a, b) = tee.into_parts();
        assert_eq!(a.mix(), b.mix());
    }
}
