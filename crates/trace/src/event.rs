//! Probe event recording and replay.
//!
//! [`RecordingProbe`] captures the exact event batch a computation emits
//! (every event, in order, with its arguments) while forwarding it
//! unchanged to the wrapped probe; [`EventBatch::replay`] re-emits that
//! batch later. The parallel encoders use the pair for the probe-merge
//! contract: plan units that run on worker threads record into private
//! batches, which the coordinator replays into the encode's probe in
//! canonical order, so the probe observes precisely the serial stream.
//!
//! The same machinery doubles as a test oracle: two kernels are
//! probe-equivalent iff they record equal batches (`tests/` in
//! `vstress-codecs` pin the optimized kernels against naive references
//! this way).

use crate::kernel::Kernel;
use crate::probe::Probe;

/// One probe event with its full argument list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// [`Probe::set_kernel`].
    SetKernel(Kernel),
    /// [`Probe::alu`].
    Alu(u64),
    /// [`Probe::avx`].
    Avx(u64),
    /// [`Probe::sse`].
    Sse(u64),
    /// [`Probe::load`].
    Load {
        /// Synthetic data address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// [`Probe::store`].
    Store {
        /// Synthetic data address.
        addr: u64,
        /// Access width in bytes.
        bytes: u32,
    },
    /// [`Probe::branch`].
    Branch {
        /// Synthetic site program counter.
        pc: u64,
        /// Outcome.
        taken: bool,
    },
}

/// An ordered batch of recorded probe events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    events: Vec<ProbeEvent>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events in emission order.
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Re-emits every recorded event, in order, into `probe`.
    pub fn replay<P: Probe>(&self, probe: &mut P) {
        for &e in &self.events {
            match e {
                ProbeEvent::SetKernel(k) => probe.set_kernel(k),
                ProbeEvent::Alu(n) => probe.alu(n),
                ProbeEvent::Avx(n) => probe.avx(n),
                ProbeEvent::Sse(n) => probe.sse(n),
                ProbeEvent::Load { addr, bytes } => probe.load(addr, bytes),
                ProbeEvent::Store { addr, bytes } => probe.store(addr, bytes),
                ProbeEvent::Branch { pc, taken } => probe.branch(pc, taken),
            }
        }
    }
}

impl FromIterator<ProbeEvent> for EventBatch {
    fn from_iter<I: IntoIterator<Item = ProbeEvent>>(events: I) -> Self {
        EventBatch { events: events.into_iter().collect() }
    }
}

/// A probe adapter that records every event while forwarding it to the
/// wrapped probe.
///
/// The wrapped probe sees the identical stream it would see without the
/// recorder; [`RecordingProbe::into_batch`] then yields the captured
/// [`EventBatch`] for later replay or comparison.
#[derive(Debug)]
pub struct RecordingProbe<'a, P: Probe> {
    inner: &'a mut P,
    batch: EventBatch,
}

impl<'a, P: Probe> RecordingProbe<'a, P> {
    /// Wraps `inner`, recording everything forwarded to it.
    pub fn new(inner: &'a mut P) -> Self {
        RecordingProbe { inner, batch: EventBatch::new() }
    }

    /// Stops recording and returns the captured batch.
    pub fn into_batch(self) -> EventBatch {
        self.batch
    }
}

impl<P: Probe> Probe for RecordingProbe<'_, P> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.batch.events.push(ProbeEvent::SetKernel(k));
        self.inner.set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Alu(n));
        self.inner.alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Avx(n));
        self.inner.avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.batch.events.push(ProbeEvent::Sse(n));
        self.inner.sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.batch.events.push(ProbeEvent::Load { addr, bytes });
        self.inner.load(addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.batch.events.push(ProbeEvent::Store { addr, bytes });
        self.inner.store(addr, bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.batch.events.push(ProbeEvent::Branch { pc, taken });
        self.inner.branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.inner.retired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{CountingProbe, NullProbe};

    fn drive<P: Probe>(p: &mut P) {
        p.set_kernel(Kernel::Sad);
        p.alu(3);
        p.avx(2);
        p.load(0x1000, 32);
        p.store(0x2000, 8);
        p.branch(0x500, true);
        p.sse(1);
    }

    #[test]
    fn recorder_forwards_and_captures_in_order() {
        let mut counting = CountingProbe::new();
        let mut rec = RecordingProbe::new(&mut counting);
        drive(&mut rec);
        let batch = rec.into_batch();
        assert_eq!(counting.retired(), 9, "forwarded stream must be unchanged");
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.events()[0], ProbeEvent::SetKernel(Kernel::Sad));
        assert_eq!(batch.events()[4], ProbeEvent::Store { addr: 0x2000, bytes: 8 });
    }

    #[test]
    fn replay_reproduces_the_identical_stream() {
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        // Replay into a second recorder: the re-recorded batch must be
        // event-for-event equal (the memo-hit fidelity contract).
        let mut direct = CountingProbe::new();
        let mut rerec = RecordingProbe::new(&mut direct);
        batch.replay(&mut rerec);
        assert_eq!(rerec.into_batch(), batch);

        let mut reference = CountingProbe::new();
        drive(&mut reference);
        assert_eq!(direct.mix(), reference.mix());
        assert_eq!(direct.profile().count(Kernel::Sad), reference.profile().count(Kernel::Sad));
    }

    #[test]
    fn tee_drain_feeds_both_sides_identically() {
        // A batch replayed into a tee reaches both sides exactly as the
        // live calls would have.
        use crate::probe::TeeProbe;
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec);
        let batch = rec.into_batch();

        let mut per_event = TeeProbe::new(CountingProbe::new(), CountingProbe::new());
        drive(&mut per_event);
        let mut replayed = TeeProbe::new(CountingProbe::new(), CountingProbe::new());
        batch.replay(&mut replayed);
        let (pa, pb) = per_event.into_parts();
        let (ra, rb) = replayed.into_parts();
        assert_eq!(pa, ra);
        assert_eq!(pb, rb);
    }

    #[test]
    fn liveness_reporting() {
        assert!(!NullProbe.is_live());
        assert!(CountingProbe::new().is_live());
        let mut null = NullProbe;
        assert!(RecordingProbe::new(&mut null).is_live());
        let r: &mut NullProbe = &mut null;
        assert!(!r.is_live(), "&mut forwards liveness");
    }
}
