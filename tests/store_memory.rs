//! Pins the memory a stored event stream costs: writing one to the store
//! and loading and replaying it again each hold a bounded working set,
//! a few buffers and one chunk, never the entry whole.
//!
//! The counter wraps the system allocator for this whole test binary,
//! which is why the test lives in its own integration-test file. Like
//! `alloc_regression`, it counts per thread: everything measured runs on
//! the test's own thread, and the harness's other threads allocate at
//! arbitrary times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vstress::exec::store::KIND_STREAM;
use vstress::pipeline::CoreModel;
use vstress::trace::{CountingProbe, EventStream, Probe, StreamRecorder};
use vstress::RunStore;

struct PeakAlloc;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// Starts a measurement window; returns the live bytes at its start.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

/// The most bytes live since `start` beyond those live at `start`.
fn peak_since(start: i64) -> i64 {
    PEAK.with(Cell::get) - start
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

const MIB: usize = 1 << 20;

/// A stream of about `bytes` packed bytes: branches to far-apart PCs,
/// whose deltas pack to about eight bytes each.
fn far_branches(bytes: usize) -> EventStream {
    let mut rec = StreamRecorder::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..bytes / 8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rec.branch(x & 0x0000_ffff_ffff_fffc, x & 1 == 1);
    }
    rec.finish().0
}

#[test]
fn a_stored_stream_is_written_and_replayed_in_bounded_memory() {
    let root = std::env::temp_dir().join(format!("vstress-store-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = RunStore::open(&root).unwrap();
    let stream = far_branches(9 * MIB);
    assert!(stream.packed_bytes() >= 8 * MIB, "{} bytes", stream.packed_bytes());
    assert!(stream.chunks().len() >= 8, "{} chunks", stream.chunks().len());
    let mut recorded = CountingProbe::new();
    stream.replay(&mut recorded);

    // Writing the entry streams the payload to the file: no copy of it.
    let start = reset_peak();
    store.put(KIND_STREAM, "far branches", &stream);
    let put_peak = peak_since(start);
    assert_eq!(store.stats().write_errors, 0);
    drop(stream);

    // Loading keeps the chunks in the file, and the replay reads one at
    // a time into one buffer.
    let mut core = CoreModel::broadwell_scaled(1);
    let start = reset_peak();
    let loaded: EventStream = store.get(KIND_STREAM, "far branches").unwrap();
    loaded.try_replay(&mut core).unwrap();
    let replay_peak = peak_since(start);
    assert_eq!(core.retired(), recorded.retired());
    assert_eq!(loaded.events(), recorded.mix().total());

    let limit = 4 * MIB as i64;
    assert!(put_peak < limit, "put peaked {put_peak} bytes above its start");
    assert!(replay_peak < limit, "get + replay peaked {replay_peak} bytes above its start");
    let _ = std::fs::remove_dir_all(&root);
}
