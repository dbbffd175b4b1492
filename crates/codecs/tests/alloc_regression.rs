//! Pins the allocation behaviour of the hot paths on both sides of the
//! probe interface.
//!
//! PR 3 threads a reusable [`MeScratch`] through `motion_search` so the
//! RDO descent stops allocating per candidate. PR 4 does the same for
//! the simulation side: the cache hierarchy's prefetch path loses its
//! per-miss `Vec`, and the batched probe→model event drain reuses only
//! fixed state. These tests make both regression boundaries: after one
//! warm-up pass has grown every lazily-sized buffer, further work must
//! perform **zero** heap allocations.
//!
//! The counter wraps the system allocator for this whole test binary,
//! which is why the tests live in their own integration-test file. It
//! counts per thread: every measured window runs on the test's own
//! thread, and the harness's other threads (parallel tests, result
//! reporting) allocate at arbitrary times, so a process-wide count
//! would charge their allocations to whichever window was open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vstress_codecs::blocks::BlockRect;
use vstress_codecs::mc::MotionVector;
use vstress_codecs::mesearch::{motion_search, motion_search_around, MeScratch, MeSettings};
use vstress_trace::NullProbe;
use vstress_video::Plane;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (including reallocations) made so far on this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn textured_plane(seed: u64) -> Plane {
    let mut p = Plane::new(128, 128, 0).unwrap();
    let mut x = seed | 1;
    for y in 0..128 {
        for xx in 0..128 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.set(xx, y, (x >> 56) as u8);
        }
    }
    p
}

#[test]
fn motion_search_is_allocation_free_after_warmup() {
    let cur = textured_plane(1);
    let refp = textured_plane(2);
    let settings = MeSettings { range: 24, exhaustive_radius: 4, refine_steps: 12, subpel: true };
    let rects = [
        BlockRect::new(32, 32, 64, 64),
        BlockRect::new(16, 48, 32, 32),
        BlockRect::new(8, 8, 16, 16),
        BlockRect::new(40, 24, 8, 8),
    ];

    let mut probe = NullProbe;
    let mut scratch = MeScratch::new();
    // Warm-up on the largest block grows the scratch buffers to their
    // high-water mark.
    motion_search(
        &mut probe,
        &cur,
        rects[0],
        &refp,
        MotionVector::ZERO,
        &settings,
        60,
        &mut scratch,
    );

    let before = allocs();
    for &rect in &rects {
        let r = motion_search(
            &mut probe,
            &cur,
            rect,
            &refp,
            MotionVector::from_fullpel(1, -1),
            &settings,
            60,
            &mut scratch,
        );
        motion_search_around(
            &mut probe,
            &cur,
            rect,
            &refp,
            r.mv,
            MotionVector::ZERO,
            &settings,
            60,
            &mut scratch,
        );
    }
    let after = allocs();
    assert_eq!(after - before, 0, "motion search allocated {} times after warm-up", after - before);
}

/// The simulation-side pin: replaying a characterization-sized event
/// batch through a [`CoreModel`] — and the same access stream through a
/// bare [`Hierarchy`] with the stride prefetcher enabled — allocates
/// nothing once a warm-up pass has first-touched every page. The
/// prefetch path is the one that used to allocate (a `Vec<u64>` of
/// suggestions per demand miss); the strided loads here force it on
/// every L2 refill.
#[test]
fn simulation_event_path_is_allocation_free_in_steady_state() {
    use vstress_cache::config::PrefetchKind;
    use vstress_cache::{Hierarchy, HierarchyConfig};
    use vstress_pipeline::CoreModel;
    use vstress_trace::{Kernel, Probe, ProbeEvent};

    // A mixed stream shaped like real encoder output: kernel switches,
    // compute bursts, strided loads sweeping far past L2 (demand misses
    // feed the prefetcher), scattered stores, and branchy control.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let events: Vec<ProbeEvent> = (0..48_000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 8 {
                0 => ProbeEvent::SetKernel(Kernel::ALL[(x % Kernel::ALL.len() as u64) as usize]),
                1 => ProbeEvent::Alu(1 + x % 8),
                2 => ProbeEvent::Avx(1 + x % 4),
                3 => ProbeEvent::Load { addr: 0x10_0000 + (i * 192) % (2 << 20), bytes: 32 },
                4 => ProbeEvent::Store { addr: 0x40_0000 + x % (1 << 20), bytes: 16 },
                5 => ProbeEvent::Sse(1 + x % 4),
                6 => ProbeEvent::Branch { pc: 0x1000 + (x % 32) * 8, taken: x & 1 == 0 },
                _ => ProbeEvent::Load { addr: x % (4 << 20), bytes: 8 },
            }
        })
        .collect();

    let mut model = CoreModel::broadwell_scaled(4);
    let mut cfg = HierarchyConfig::broadwell_scaled(4);
    cfg.l2_prefetch = PrefetchKind::Stride;
    let mut hier = Hierarchy::new(cfg);
    let drive_hierarchy = |hier: &mut Hierarchy| {
        for &e in &events {
            match e {
                ProbeEvent::Load { addr, bytes } => {
                    hier.load(addr, bytes);
                }
                ProbeEvent::Store { addr, bytes } => {
                    hier.store(addr, bytes);
                }
                _ => {}
            }
        }
    };

    // Warm-up: the model's first-touch page canonicalizer grows here;
    // cache arrays and predictor tables are fixed-size from construction.
    model.drain_batch(&events);
    drive_hierarchy(&mut hier);

    let before = allocs();
    model.drain_batch(&events);
    drive_hierarchy(&mut hier);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "simulation event path allocated {} times in steady state",
        after - before
    );
}

/// The cross-frame pipeline scheduler pin: once a frame's slots exist,
/// the steady-state machinery — claiming plan units through the hub's
/// pipeline window, advancing the coordinator frame, waiting on
/// reference-row watermarks, and publishing freshly coded rows into a
/// [`RefView`] (incremental deblock plus the lockstep golden copy) —
/// performs **zero** heap allocations. The completion publish (`coded ==
/// height`) is excluded: it edge-pads the finished plane, a
/// once-per-frame cost that belongs with slot construction, not with
/// the per-row/per-unit steady state.
#[test]
fn frame_pipeline_scheduler_is_allocation_free_in_steady_state() {
    use vstress_codecs::frame_pipeline::{PipelineHub, RefView};
    use vstress_video::Frame;

    let (pw, ph) = (64usize, 64usize);
    let hub = PipelineHub::new();
    let view = RefView::new(pw, ph).unwrap();
    let golden = RefView::new(pw, ph).unwrap();
    let mut recon = Frame::new(pw, ph).unwrap();
    // Texture with real 8x8-grid steps so the incremental deblock takes
    // both its filter/skip branches inside the measured window.
    for y in 0..ph {
        for x in 0..pw {
            recon.luma_mut().set(x, y, ((x * 7 + y * 13) % 251) as u8);
        }
    }

    // Warm-up: the first publish adopts the reconstruction's probe
    // identity and first-touches every lock path.
    view.publish(&hub, recon.luma(), 8, 20, Some(&golden));
    assert!(view.wait_rows(&hub, 7));

    // [admission, chain, chain] per frame, laid out frame-major exactly
    // like the encoder's task list.
    let total = 24usize;
    let depth = 2usize;
    let frame_of = |i: usize| i / 3;

    let before = allocs();

    // Claims stay inside the window the coordinator advances, so the
    // single-threaded drain below never parks on the condvar.
    let mut claimed = 0usize;
    for f in 0..8usize {
        hub.advance(f);
        while claimed < total && frame_of(claimed) <= f + depth {
            let i = hub.claim(total, depth, frame_of).expect("claim inside the window");
            assert_eq!(i, claimed, "claims are strictly in order");
            claimed += 1;
        }
    }
    assert_eq!(claimed, total, "every task claimed");

    // Row publishes, watermark waits (fast path and hub path), and
    // snapshot reads — the per-superblock-row steady state.
    let mut coded = 8usize;
    while coded + 8 < ph {
        coded += 8;
        view.publish(&hub, recon.luma(), coded, 20, Some(&golden));
        assert!(view.wait_rows(&hub, coded - 1));
        assert!(golden.wait_rows(&hub, coded - 1));
        assert!(hub.wait_until(|| view.rows() >= coded - 1));
        let g = view.read();
        assert_eq!(g.frame().luma().get(0, 0), recon.luma().get(0, 0));
    }
    hub.notify();

    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "frame-pipeline scheduler allocated {} times in steady state",
        after - before
    );

    // The completion publish pads the plane (allocates, by design) and
    // must still land both views at the full watermark.
    view.publish(&hub, recon.luma(), ph, 20, Some(&golden));
    assert_eq!(view.rows(), ph);
    assert_eq!(golden.rows(), ph);
}
