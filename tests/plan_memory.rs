//! Pins the memory a cold planned group costs: with no store attached,
//! the one pass over an encode point feeds the core model and the branch
//! window each event as the encode makes it and packs no stream, so the
//! group's peak does not grow with its event stream.
//!
//! The counter wraps the system allocator for this whole test binary,
//! which is why the test lives in its own integration-test file. It
//! counts every thread, not one, so an encode's helper threads count
//! too. The file holds a single test, so nothing else allocates while it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use vstress::codecs::{CodecId, EncoderParams};
use vstress::exec::Request;
use vstress::workbench::{capture_encode, RunSpec};
use vstress::RunCache;

struct PeakAlloc;

/// Bytes allocated and not yet freed, by any thread.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Starts a measurement window; returns the live bytes at its start.
fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

const MIB: i64 = 1 << 20;

#[test]
fn a_cold_planned_group_holds_no_event_stream() {
    let spec = RunSpec::quick("hall", CodecId::SvtAv1, EncoderParams::new(10, 4));
    let plan = [Request::Run(spec.clone()), Request::Window(spec.clone(), 100_000)];

    // The stream the group records, measured in a capture that keeps it.
    let packed = capture_encode(&spec).unwrap().stream.packed_bytes() as i64;
    assert!(packed >= 64 * MIB, "{packed} packed bytes: too few to tell a stream held");

    let cache = RunCache::new();
    let start = reset_peak();
    cache.run_plan(1, &plan).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - start;
    let s = cache.stats();
    assert_eq!((s.encodes, s.run_misses, s.window_misses), (1, 1, 1));
    assert!(
        peak < 12 * MIB,
        "the group peaked {peak} bytes above its start (limit 12 MiB); the stream packs {packed}"
    );
}
