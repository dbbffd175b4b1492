//! Cross-frame pipeline scheduling: reference-row watermarks, snapshot
//! reference views, and the shared claim/notify hub.
//!
//! The pipelined encoder
//! ([`Encoder::encode_threaded`](crate::encoder::Encoder::encode_threaded))
//! overlaps frame `N+1`'s Phase A (lookahead, motion search, RDO) with
//! frame `N`'s Phase B (serial range coding). Phase A of frame `N+1`
//! reads frame `N`'s reconstruction — which Phase B is still writing —
//! so each reference is published through a [`RefView`]: a snapshot
//! buffer the coordinator copies finalized reconstruction rows into,
//! guarded by a row-granular watermark that plan workers wait on before
//! reading their band.
//!
//! Three invariants make the overlap invisible to every output:
//!
//! 1. **Rows below the watermark are final.** The coordinator publishes
//!    a row only after Phase B has coded it *and* the in-loop deblock
//!    filter can no longer change it. The canonical
//!    [`deblock_plane`](crate::deblock::deblock_plane) runs once over
//!    the finished reconstruction (emitting its probe events exactly as
//!    the serial encoder does); the view applies the same per-edge
//!    filter incrementally, under a dead probe, as rows arrive, so a
//!    published row already carries its final filtered value. The
//!    `silent_deblock_matches_batch` test pins the two pixel-for-pixel.
//! 2. **The snapshot is the reference, as far as probes can tell.** The
//!    view's luma adopts the real reconstruction's synthetic probe base
//!    ([`Plane::adopt_probe_identity`]), so planner reads of the
//!    snapshot and coder writes of the reconstruction land on the same
//!    canonical pages — the cross-frame reuse the cache model measures.
//! 3. **Watermark waits cover the worst-case read.** A plan unit for
//!    superblock row `r` reads reference rows at most
//!    `(r+1)·sb + range + REF_ROW_MARGIN` deep: motion search clamps
//!    every candidate to `±range`, and subpel refinement plus the
//!    bilinear MC tap reach at most a few samples further — the margin
//!    absorbs them with slack ([`watermark_need`]).
//!
//! The hub itself is a single mutex/condvar pair: workers claim tasks
//! strictly in canonical (frame-major) order, which makes the schedule
//! deadlock-free by construction — a worker blocked on a watermark
//! always holds a task that precedes, in claim order, everything the
//! coordinator is waiting on, and its references were fully published
//! before the coordinator started waiting. Steady-state scheduling
//! (claims, watermark waits, row publishes) performs no heap
//! allocation; `tests/alloc_regression.rs` pins that.

use crate::deblock::{self, filter_pair, LUMA_GRID};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use vstress_trace::NullProbe;
use vstress_video::{Frame, Plane, VideoError};

/// Extra reference rows a plan unit waits for beyond its own band plus
/// the motion-search range: covers subpel refinement (±1 half-pel) and
/// the bilinear MC tap (+1) with slack.
pub const REF_ROW_MARGIN: usize = 16;

/// Reference rows (exclusive) a plan unit for superblock row `unit_row`
/// must see published before its motion search may run: the bottom of
/// its band, plus the MV clamp range, plus [`REF_ROW_MARGIN`], capped at
/// the (padded) frame height.
pub fn watermark_need(unit_row: usize, sb: usize, range: i32, ph: usize) -> usize {
    let bottom = (unit_row + 1) * sb;
    let reach = bottom + range.max(0) as usize + REF_ROW_MARGIN;
    reach.min(ph)
}

/// The shared scheduling hub of one pipelined encode: a single
/// mutex/condvar pair carrying every signal (task availability, frame
/// window advance, watermark publishes, result stores, cancellation).
///
/// Producers that change any waited-on state must make the change
/// visible (atomic store, or store under a lock *released before*
/// touching the hub) and then call [`PipelineHub::notify`] — the notify
/// takes the hub mutex, so a waiter that observed stale state inside
/// [`PipelineHub::wait_until`] is guaranteed to be woken.
#[derive(Debug)]
pub struct PipelineHub {
    /// Index of the next unclaimed task (claims are strictly in order).
    next: Mutex<usize>,
    cv: Condvar,
    canceled: AtomicBool,
    /// Frame the coordinator is currently assembling/coding; claims are
    /// windowed to `frame <= coord_frame + depth`.
    coord_frame: AtomicUsize,
}

impl PipelineHub {
    /// A fresh hub with nothing claimed and the window at frame 0.
    pub fn new() -> Self {
        PipelineHub {
            next: Mutex::new(0),
            cv: Condvar::new(),
            canceled: AtomicBool::new(false),
            coord_frame: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
        // A panicking worker cancels the pipeline via its drop guard;
        // the poison flag carries no additional information.
        self.next.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Flags the pipeline as canceled and wakes every waiter. Idempotent.
    pub fn cancel(&self) {
        self.canceled.store(true, Ordering::Release);
        self.notify();
    }

    /// Whether [`PipelineHub::cancel`] was called.
    pub fn is_canceled(&self) -> bool {
        self.canceled.load(Ordering::Acquire)
    }

    /// Moves the claim window: the coordinator is now on `frame`.
    pub fn advance(&self, frame: usize) {
        self.coord_frame.store(frame, Ordering::Release);
        self.notify();
    }

    /// Wakes every waiter (call after making new state visible).
    pub fn notify(&self) {
        let _g = self.lock();
        self.cv.notify_all();
    }

    /// Claims the next task in strict order, blocking while the head of
    /// the queue is outside the pipeline window. Returns `None` once all
    /// `total` tasks are claimed or the pipeline is canceled.
    ///
    /// `frame_of(i)` maps a task index to its frame; indices must be
    /// frame-monotonic (the encoder lays tasks out frame-major).
    pub fn claim(
        &self,
        total: usize,
        depth: usize,
        frame_of: impl Fn(usize) -> usize,
    ) -> Option<usize> {
        let mut next = self.lock();
        loop {
            if self.is_canceled() || *next >= total {
                return None;
            }
            if frame_of(*next) <= self.coord_frame.load(Ordering::Acquire) + depth {
                let i = *next;
                *next += 1;
                return Some(i);
            }
            next = self.cv.wait(next).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks until `ready()` holds (returning `true`) or the pipeline
    /// is canceled (returning `false`). `ready` is evaluated under the
    /// hub mutex and must not take locks a producer holds while
    /// notifying (atomics and since-released slot locks are fine).
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) -> bool {
        let mut g = self.lock();
        loop {
            if self.is_canceled() {
                return false;
            }
            if ready() {
                return true;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Default for PipelineHub {
    fn default() -> Self {
        Self::new()
    }
}

/// Cancels the hub when dropped — armed by the coordinator so any exit
/// path (success, `?` early return, panic) unblocks workers still
/// parked in the claim window instead of deadlocking the scope join.
#[derive(Debug)]
pub struct CancelOnDrop<'a>(pub &'a PipelineHub);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// Cancels the hub only when dropped **during a panic** — armed by
/// workers. A worker that runs out of tasks to claim exits normally
/// while its peers may still be executing theirs, so an unconditional
/// cancel here would tear the pipeline down mid-flight; a panicking
/// worker, on the other hand, must release everyone blocked on results
/// it will never produce.
#[derive(Debug)]
pub struct CancelOnPanic<'a>(pub &'a PipelineHub);

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.cancel();
        }
    }
}

#[derive(Debug)]
struct ViewBuf {
    frame: Frame,
    /// Reconstruction rows copied in (raw + vertical edges filtered).
    copied: usize,
    /// Next horizontal deblock boundary (a multiple of the grid) still
    /// to be applied; 0 until the first publish.
    next_boundary: usize,
}

/// A published snapshot of one reference frame, filled row-by-row as
/// Phase B codes it.
///
/// Readers wait on the [`RefView::rows`] watermark, then take a short
/// read guard per superblock ([`RefView::read`]) — so the coordinator's
/// per-row publishes interleave with planner reads instead of
/// serializing against whole plan units. Rows below the watermark are
/// final (copied, fully deblocked) and never change again; the luma
/// content below the watermark is bit-identical to the finished,
/// deblocked reconstruction.
///
/// Only luma is published: plan units read reference luma exclusively
/// (chroma prediction happens in Phase B against the real references).
#[derive(Debug)]
pub struct RefView {
    buf: RwLock<ViewBuf>,
    rows: AtomicUsize,
}

/// A read guard over a [`RefView`]'s snapshot frame.
#[derive(Debug)]
pub struct ViewGuard<'a>(RwLockReadGuard<'a, ViewBuf>);

impl ViewGuard<'_> {
    /// The snapshot frame (luma valid below the view's watermark).
    pub fn frame(&self) -> &Frame {
        &self.0.frame
    }
}

impl RefView {
    /// An empty view for a `pw x ph` (padded-geometry) reference.
    pub fn new(pw: usize, ph: usize) -> Result<Self, VideoError> {
        Ok(RefView {
            buf: RwLock::new(ViewBuf { frame: Frame::new(pw, ph)?, copied: 0, next_boundary: 0 }),
            rows: AtomicUsize::new(0),
        })
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, ViewBuf> {
        self.buf.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Rows (count from the top) that are final and readable.
    pub fn rows(&self) -> usize {
        self.rows.load(Ordering::Acquire)
    }

    /// Takes a read guard on the snapshot. Callers must have waited for
    /// their watermark first and must only read rows below it.
    pub fn read(&self) -> ViewGuard<'_> {
        ViewGuard(self.buf.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Blocks until at least `need` rows are final, or the pipeline is
    /// canceled (returns `false`). Allocation-free.
    pub fn wait_rows(&self, hub: &PipelineHub, need: usize) -> bool {
        if self.rows() >= need {
            return true;
        }
        hub.wait_until(|| self.rows() >= need)
    }

    /// Publishes the reconstruction's first `coded` rows into the view:
    /// copies newly coded rows, applies the deblock filter incrementally
    /// (vertical edges at copy, each horizontal boundary once both its
    /// rows are in), advances the watermark, and forwards the newly
    /// finalized rows into `golden` when this reference doubles as a
    /// fresh golden snapshot. Wakes watermark waiters through `hub`.
    ///
    /// The watermark advances to `coded` rows, minus one while the
    /// bottom row can still be touched by an unapplied horizontal
    /// boundary; at `coded == height` the plane is complete — it is
    /// edge-padded (exactly as the encoder pads the finished
    /// reconstruction) and the watermark reaches the full height.
    ///
    /// On the first publish the view's luma adopts `recon_luma`'s probe
    /// identity, fusing snapshot reads and reconstruction writes onto
    /// the same canonical pages.
    pub fn publish(
        &self,
        hub: &PipelineHub,
        recon_luma: &Plane,
        coded: usize,
        qstep: i32,
        golden: Option<&RefView>,
    ) {
        let strength = deblock::strength(qstep);
        let ph = recon_luma.height();
        let w = recon_luma.width();
        let finalized = {
            let mut b = self.write();
            if b.copied == 0 && coded > 0 {
                b.frame.luma_mut().adopt_probe_identity(recon_luma);
            }
            let start = b.copied;
            for y in start..coded {
                let luma = b.frame.luma_mut();
                luma.row_mut(y).copy_from_slice(recon_luma.row(y));
                // Vertical edges are row-local and mutually disjoint
                // (grid >= 2): filtering them per row in any order gives
                // the batch pass's result.
                let mut x = LUMA_GRID;
                while x < w {
                    filter_pair(&mut NullProbe, luma, (x - 1, y), (x, y), strength);
                    x += LUMA_GRID;
                }
            }
            b.copied = b.copied.max(coded);
            if b.next_boundary == 0 {
                b.next_boundary = LUMA_GRID;
            }
            // A horizontal boundary at y touches rows y-1 and y, both
            // already vertical-filtered; boundaries are row-disjoint, so
            // applying each once its lower row is in matches the batch
            // pass (which runs all vertical edges before horizontal).
            while b.next_boundary < ph && b.next_boundary < b.copied {
                let y = b.next_boundary;
                let luma = b.frame.luma_mut();
                for x in 0..w {
                    filter_pair(&mut NullProbe, luma, (x, y - 1), (x, y), strength);
                }
                b.next_boundary += LUMA_GRID;
            }
            if b.copied >= ph {
                b.frame.luma_mut().pad_borders();
                ph
            } else {
                // The bottom copied row may still be touched by the next
                // horizontal boundary; hold it back until then.
                b.copied.saturating_sub(1)
            }
        };
        let golden_rows = golden.map(|g| g.copy_finalized_from(self, finalized));
        self.rows.store(finalized, Ordering::Release);
        if let (Some(g), Some(n)) = (golden, golden_rows) {
            g.rows.store(n, Ordering::Release);
        }
        hub.notify();
    }

    /// Copies `src`'s finalized rows `[copied, upto)` into this view —
    /// the incremental golden refresh: rows below `src`'s watermark are
    /// final, so the fresh golden snapshot tracks it in lockstep and
    /// next-frame units need not wait for the refresh frame to finish.
    fn copy_finalized_from(&self, src: &RefView, upto: usize) -> usize {
        let sb = src.buf.read().unwrap_or_else(|e| e.into_inner());
        let mut gb = self.write();
        let sl = sb.frame.luma();
        for y in gb.copied..upto {
            gb.frame.luma_mut().row_mut(y).copy_from_slice(sl.row(y));
        }
        gb.copied = gb.copied.max(upto);
        if gb.copied >= gb.frame.luma().height() {
            gb.frame.luma_mut().pad_borders();
        }
        gb.copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deblock::deblock_plane;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Compares the accessible `w x h` samples (planes built by
    /// `Plane::new` vs `Frame::new` differ in the fill value of the
    /// stride gap, which readers can never observe).
    fn assert_same_pixels(got: &Plane, want: &Plane, ctx: &str) {
        assert_eq!((got.width(), got.height()), (want.width(), want.height()), "{ctx}");
        for y in 0..want.height() {
            assert_eq!(got.row(y), want.row(y), "{ctx}: row {y}");
        }
    }

    fn random_plane(w: usize, h: usize, seed: u64) -> Plane {
        let mut p = Plane::new(w, h, 0).unwrap();
        let mut rng = Lcg(seed);
        for y in 0..h {
            for x in 0..w {
                // Blocky-ish content so the filter actually fires.
                let base = (((x / 8) * 31 + (y / 8) * 17) % 97) as u64;
                p.set(x, y, ((base * 2 + rng.next() % 24) % 256) as u8);
            }
        }
        p
    }

    #[test]
    fn silent_deblock_matches_batch() {
        // The incremental silent filter, applied over arbitrary publish
        // schedules, must reproduce `deblock_plane`'s luma output
        // pixel-for-pixel — the invariant that lets planners read the
        // snapshot as if it were the finished, filtered reconstruction.
        for (w, h, seed) in [(32usize, 32usize, 1u64), (70, 38, 2), (82, 46, 3), (64, 66, 4)] {
            for qstep in [8i32, 40, 64, 384] {
                let src = random_plane(w, h, seed ^ qstep as u64);
                let mut reference = src.clone();
                deblock_plane(&mut NullProbe, &mut reference, LUMA_GRID, qstep);

                for step in [1usize, 3, 8, 32, h] {
                    let hub = PipelineHub::new();
                    let view = RefView::new(w, h).unwrap();
                    let mut coded = 0;
                    while coded < h {
                        coded = (coded + step).min(h);
                        view.publish(&hub, &src, coded, qstep, None);
                    }
                    assert_eq!(view.rows(), h);
                    let g = view.read();
                    assert_same_pixels(
                        g.frame().luma(),
                        &reference,
                        &format!("{w}x{h} qstep {qstep} step {step}"),
                    );
                }
            }
        }
    }

    #[test]
    fn watermark_holds_back_unfinalized_rows() {
        let src = random_plane(64, 64, 9);
        let hub = PipelineHub::new();
        let view = RefView::new(64, 64).unwrap();
        // 8 coded rows: row 7 still awaits the y=8 horizontal boundary.
        view.publish(&hub, &src, 8, 64, None);
        assert_eq!(view.rows(), 7);
        // 9 coded rows: boundary y=8 applied, rows 0..8 final.
        view.publish(&hub, &src, 9, 64, None);
        assert_eq!(view.rows(), 8);
        view.publish(&hub, &src, 64, 64, None);
        assert_eq!(view.rows(), 64);
        assert!(view.read().frame().luma().is_padded(), "completed view is edge-padded");
    }

    #[test]
    fn published_prefix_is_final() {
        // Every watermark prefix must already equal the fully filtered
        // plane on those rows — published rows never change again.
        let src = random_plane(48, 40, 5);
        let mut reference = src.clone();
        deblock_plane(&mut NullProbe, &mut reference, LUMA_GRID, 64);
        let hub = PipelineHub::new();
        let view = RefView::new(48, 40).unwrap();
        let mut coded = 0;
        while coded < 40 {
            coded = (coded + 5).min(40);
            view.publish(&hub, &src, coded, 64, None);
            let n = view.rows();
            let g = view.read();
            for y in 0..n {
                assert_eq!(g.frame().luma().row(y), reference.row(y), "row {y} at coded {coded}");
            }
        }
    }

    #[test]
    fn golden_view_tracks_in_lockstep() {
        let src = random_plane(64, 48, 6);
        let mut reference = src.clone();
        deblock_plane(&mut NullProbe, &mut reference, LUMA_GRID, 48);
        let hub = PipelineHub::new();
        let view = RefView::new(64, 48).unwrap();
        let golden = RefView::new(64, 48).unwrap();
        let mut coded = 0;
        while coded < 48 {
            coded = (coded + 7).min(48);
            view.publish(&hub, &src, coded, 48, Some(&golden));
            assert_eq!(golden.rows(), view.rows(), "golden watermark is lockstep");
        }
        let g = golden.read();
        assert_same_pixels(g.frame().luma(), &reference, "golden content");
        assert!(g.frame().luma().is_padded());
        // The golden snapshot keeps its own probe identity (it models a
        // distinct buffer — the golden clone — not the reconstruction).
        assert_ne!(g.frame().luma().base_addr(), view.read().frame().luma().base_addr());
    }

    #[test]
    fn view_adopts_recon_probe_identity() {
        let src = random_plane(32, 32, 7);
        let hub = PipelineHub::new();
        let view = RefView::new(32, 32).unwrap();
        view.publish(&hub, &src, 32, 64, None);
        assert_eq!(view.read().frame().luma().base_addr(), src.base_addr());
    }

    #[test]
    fn claims_are_strictly_ordered_and_windowed() {
        let hub = PipelineHub::new();
        // Tasks 0..6, two per frame, window depth 1: frames 0 and 1 are
        // claimable immediately, frame 2 only after advance(1).
        let frame_of = |i: usize| i / 2;
        for expect in 0..4 {
            assert_eq!(hub.claim(6, 1, frame_of), Some(expect));
        }
        let t0 = std::time::Instant::now();
        let claimed = std::thread::scope(|s| {
            let h = s.spawn(|| hub.claim(6, 1, frame_of));
            while t0.elapsed() < std::time::Duration::from_millis(20) {
                std::thread::yield_now();
            }
            hub.advance(1);
            h.join().unwrap()
        });
        assert_eq!(claimed, Some(4));
        assert_eq!(hub.claim(6, 1, frame_of), Some(5));
        assert_eq!(hub.claim(6, 1, frame_of), None, "queue exhausted");
    }

    #[test]
    fn cancel_unblocks_waiters() {
        let hub = PipelineHub::new();
        let view = RefView::new(32, 32).unwrap();
        std::thread::scope(|s| {
            let w = s.spawn(|| view.wait_rows(&hub, 10));
            let c = s.spawn(|| hub.claim(4, 0, |i| i + 5));
            hub.cancel();
            assert!(!w.join().unwrap(), "canceled wait reports failure");
            assert_eq!(c.join().unwrap(), None);
        });
        assert!(!hub.wait_until(|| false));
    }

    #[test]
    fn cancel_guard_fires_on_drop() {
        let hub = PipelineHub::new();
        {
            let _guard = CancelOnDrop(&hub);
        }
        assert!(hub.is_canceled());
    }

    #[test]
    fn panic_guard_only_fires_on_panic() {
        let hub = PipelineHub::new();
        {
            let _guard = CancelOnPanic(&hub);
        }
        assert!(!hub.is_canceled(), "normal exit must not cancel the pipeline");
        let caught = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = CancelOnPanic(&hub);
                panic!("worker died");
            })
            .join()
        });
        assert!(caught.is_err());
        assert!(hub.is_canceled(), "a panicking worker must release all waiters");
    }

    #[test]
    fn watermark_need_covers_the_search_reach() {
        // need = band bottom + range + margin, capped at the height.
        assert_eq!(watermark_need(0, 32, 28, 1024), 32 + 28 + REF_ROW_MARGIN);
        assert_eq!(watermark_need(1, 32, 4, 1024), 64 + 4 + REF_ROW_MARGIN);
        assert_eq!(watermark_need(3, 32, 28, 128), 128, "capped at frame height");
        // The margin exceeds the subpel + MC reach (<= 2 samples past
        // the clamped integer candidate) with room to spare.
        const { assert!(REF_ROW_MARGIN >= 8) };
    }
}
