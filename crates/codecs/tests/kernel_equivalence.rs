//! Equivalence proofs for the optimized pixel kernels and the
//! partition-search memo.
//!
//! The PR 3 hot-path rewrite (interior/edge split in the kernels, the
//! leaf memo in the partition search) is only admissible if it is
//! invisible to the characterization models. Two oracles pin that down:
//!
//! * **Naive references.** Each `ref_*` function below is the pre-rewrite
//!   scalar implementation (per-pixel `get_clamped`, no interior path),
//!   emitting the same probe calls. The property tests drive both over
//!   random planes, rects (odd widths, 1-pixel blocks) and MVs (including
//!   border-straddling ones) and require the numeric result and the
//!   recorded probe event sequence to match.
//! * **Memo on/off.** `plan_superblock` with the leaf memo enabled must
//!   produce the identical plan *and* the identical recorded event stream
//!   as a full recomputation — byte-for-byte, including branch PCs,
//!   because both sides run the same library code.
//!
//! Branch-PC caveat for the naive references: `site_pc!()` hashes the
//! source location, so a reference reimplementation in this file cannot
//! reproduce the library's PC constants. The comparison therefore checks
//! every event exactly except `Branch.pc`, where it instead requires a
//! consistent bijection between library and reference branch sites (same
//! site structure, same order, same outcomes).

use proptest::prelude::*;
use std::collections::HashMap;
use vstress_codecs::blocks::BlockRect;
use vstress_codecs::kernels::{
    reconstruct, residual, sad_plane_plane, sad_plane_pred, sse_plane_pred, write_pred, VEC_PIXELS,
};
use vstress_codecs::mc::{motion_compensate, MotionVector};
use vstress_trace::{probe_addr, site_pc, Kernel, NullProbe, Probe, ProbeEvent, RecordingProbe};
use vstress_video::Plane;

// ---------------------------------------------------------------------------
// Naive reference kernels (the pre-rewrite implementations)
// ---------------------------------------------------------------------------

fn row_vectors(w: usize) -> u64 {
    (w as u64).div_ceil(VEC_PIXELS as u64)
}

fn ref_sad_plane_pred<P: Probe>(probe: &mut P, plane: &Plane, rect: BlockRect, pred: &[u8]) -> u64 {
    probe.set_kernel(Kernel::Sad);
    let mut sum = 0u64;
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        for (a, b) in row.iter().zip(prow) {
            sum += (*a as i32 - *b as i32).unsigned_abs() as u64;
        }
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.avx(v * 2);
        probe.alu(1);
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(probe_addr::fixed::PRED, 8);
        }
        if y % 4 == 3 || y + 1 == rect.h {
            probe.branch(site_pc!(), y + 1 != rect.h);
        }
    }
    sum
}

fn ref_sad_plane_plane<P: Probe>(
    probe: &mut P,
    cur: &Plane,
    rect: BlockRect,
    refp: &Plane,
    mvx: i32,
    mvy: i32,
) -> u64 {
    probe.set_kernel(Kernel::Sad);
    let mut sum = 0u64;
    for y in 0..rect.h {
        let cy = rect.y + y;
        let ry = cy as isize + mvy as isize;
        for x in 0..rect.w {
            let a = cur.get(rect.x + x, cy) as i32;
            let b = refp.get_clamped(rect.x as isize + x as isize + mvx as isize, ry) as i32;
            sum += (a - b).unsigned_abs() as u64;
        }
        let v = row_vectors(rect.w);
        probe.load(cur.sample_addr(rect.x, cy), rect.w.min(VEC_PIXELS) as u32);
        let rx = (rect.x as isize + mvx as isize).clamp(0, refp.width() as isize - 1) as usize;
        let rcy = ry.clamp(0, refp.height() as isize - 1) as usize;
        probe.load(refp.sample_addr(rx, rcy), rect.w.min(VEC_PIXELS) as u32);
        probe.load(refp.sample_addr(rx, rcy) + 16, rect.w.min(VEC_PIXELS) as u32);
        probe.avx(v * 2);
        probe.alu(1);
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(cur.base_addr(), 8);
            probe.branch(site_pc!(), y + 1 != rect.h);
        }
    }
    sum
}

fn ref_sse_plane_pred<P: Probe>(probe: &mut P, plane: &Plane, rect: BlockRect, pred: &[u8]) -> u64 {
    probe.set_kernel(Kernel::Sad);
    let mut sum = 0u64;
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        for (a, b) in row.iter().zip(prow) {
            let d = *a as i64 - *b as i64;
            sum += (d * d) as u64;
        }
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.avx(v * 3);
        probe.alu(1);
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(probe_addr::fixed::PRED, 8);
        }
        if y % 4 == 3 || y + 1 == rect.h {
            probe.branch(site_pc!(), y + 1 != rect.h);
        }
    }
    sum
}

fn ref_residual<P: Probe>(
    probe: &mut P,
    plane: &Plane,
    rect: BlockRect,
    pred: &[u8],
    dst: &mut [i32],
) {
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        for x in 0..rect.w {
            dst[y * rect.w + x] = row[x] as i32 - prow[x] as i32;
        }
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.store(
            probe_addr::fixed::RESIDUAL + (y * rect.w * 4) as u64,
            (rect.w * 4).min(64) as u32,
        );
        probe.avx(v);
    }
}

fn ref_reconstruct<P: Probe>(
    probe: &mut P,
    plane: &mut Plane,
    rect: BlockRect,
    pred: &[u8],
    res: &[i32],
) {
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        for x in 0..rect.w {
            let v = pred[y * rect.w + x] as i32 + res[y * rect.w + x];
            plane.set(rect.x + x, rect.y + y, v.clamp(0, 255) as u8);
        }
        let v = row_vectors(rect.w);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.load(
            probe_addr::fixed::RESIDUAL + (y * rect.w * 4) as u64,
            (rect.w * 4).min(64) as u32,
        );
        probe.store(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.avx(v * 2);
    }
}

fn ref_write_pred<P: Probe>(probe: &mut P, plane: &mut Plane, rect: BlockRect, pred: &[u8]) {
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        for x in 0..rect.w {
            plane.set(rect.x + x, rect.y + y, pred[y * rect.w + x]);
        }
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.store(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.avx(row_vectors(rect.w));
    }
}

fn ref_motion_compensate<P: Probe>(
    probe: &mut P,
    refp: &Plane,
    rect: BlockRect,
    mv: MotionVector,
    dst: &mut [u8],
) {
    probe.set_kernel(Kernel::InterPred);
    let ix = mv.x >> 1;
    let iy = mv.y >> 1;
    let fx = (mv.x & 1) != 0;
    let fy = (mv.y & 1) != 0;
    for y in 0..rect.h {
        let sy = rect.y as isize + y as isize + iy as isize;
        for x in 0..rect.w {
            let sx = rect.x as isize + x as isize + ix as isize;
            let p00 = refp.get_clamped(sx, sy) as u32;
            let v = match (fx, fy) {
                (false, false) => p00,
                (true, false) => (p00 + refp.get_clamped(sx + 1, sy) as u32).div_ceil(2),
                (false, true) => (p00 + refp.get_clamped(sx, sy + 1) as u32).div_ceil(2),
                (true, true) => {
                    let p10 = refp.get_clamped(sx + 1, sy) as u32;
                    let p01 = refp.get_clamped(sx, sy + 1) as u32;
                    let p11 = refp.get_clamped(sx + 1, sy + 1) as u32;
                    (p00 + p10 + p01 + p11 + 2) / 4
                }
            };
            dst[y * rect.w + x] = v as u8;
        }
        let vecs = (rect.w as u64).div_ceil(32);
        let cx = (rect.x as isize + ix as isize).clamp(0, refp.width() as isize - 1) as usize;
        let cy = sy.clamp(0, refp.height() as isize - 1) as usize;
        probe.load(refp.sample_addr(cx, cy), rect.w.min(32) as u32);
        if fy {
            let cy1 = (sy + 1).clamp(0, refp.height() as isize - 1) as usize;
            probe.load(refp.sample_addr(cx, cy1), rect.w.min(32) as u32);
        }
        probe.store(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(32) as u32);
        let filter_ops = if fx || fy { 3 } else { 1 };
        probe.avx(vecs * filter_ops);
        if y % 4 == 3 || y + 1 == rect.h {
            probe.branch(site_pc!(), y + 1 != rect.h);
        }
    }
}

// ---------------------------------------------------------------------------
// Test scaffolding
// ---------------------------------------------------------------------------

const PW: usize = 48;
const PH: usize = 40;

/// A deterministic pseudo-random plane.
fn random_plane(seed: u64) -> Plane {
    let mut p = Plane::new(PW, PH, 0).unwrap();
    let mut x = seed | 1;
    for y in 0..PH {
        for xx in 0..PW {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            p.set(xx, y, (x >> 56) as u8);
        }
    }
    p
}

fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 56) as u8
        })
        .collect()
}

/// Snapshots the accessible pixels of a plane (synthetic probe addresses
/// are allocation-scoped, so mutating kernels must run lib and reference
/// against the *same* plane object and restore pixels in between).
fn snapshot(p: &Plane) -> Vec<u8> {
    let mut v = Vec::with_capacity(PW * PH);
    for y in 0..PH {
        v.extend_from_slice(&p.row(y)[..PW]);
    }
    v
}

fn restore(p: &mut Plane, pixels: &[u8]) {
    for y in 0..PH {
        p.row_mut(y)[..PW].copy_from_slice(&pixels[y * PW..(y + 1) * PW]);
    }
}

/// Clamps raw proptest coordinates into a rect inside the test plane.
fn make_rect(rx: usize, ry: usize, rw: usize, rh: usize) -> BlockRect {
    let x = rx % PW;
    let y = ry % PH;
    let w = (rw % 17).max(1).min(PW - x);
    let h = (rh % 17).max(1).min(PH - y);
    BlockRect::new(x, y, w, h)
}

/// Asserts two event streams match exactly, modulo the branch-PC
/// bijection described in the module docs.
fn assert_streams_match(lib: &[ProbeEvent], reference: &[ProbeEvent]) {
    assert_eq!(lib.len(), reference.len(), "event counts differ");
    let mut fwd: HashMap<u64, u64> = HashMap::new();
    let mut bwd: HashMap<u64, u64> = HashMap::new();
    for (i, (l, r)) in lib.iter().zip(reference).enumerate() {
        match (l, r) {
            (
                ProbeEvent::Branch { pc: lp, taken: lt },
                ProbeEvent::Branch { pc: rp, taken: rt },
            ) => {
                assert_eq!(lt, rt, "branch outcome differs at event {i}");
                assert_eq!(*fwd.entry(*lp).or_insert(*rp), *rp, "branch site map at event {i}");
                assert_eq!(*bwd.entry(*rp).or_insert(*lp), *lp, "branch site map at event {i}");
            }
            _ => assert_eq!(l, r, "event {i} differs"),
        }
    }
}

fn record<F: FnOnce(&mut RecordingProbe<'_, NullProbe>)>(f: F) -> Vec<ProbeEvent> {
    let mut null = NullProbe;
    let mut rec = RecordingProbe::new(&mut null);
    f(&mut rec);
    rec.into_batch().events().to_vec()
}

// ---------------------------------------------------------------------------
// Kernel equivalence properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized `sad_plane_plane` (interior fast path + edge path)
    /// matches the naive clamped reference in value and probe stream for
    /// any displacement, including ones that leave the frame entirely.
    #[test]
    fn sad_plane_plane_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
        mvx in -60i32..60, mvy in -60i32..60,
    ) {
        let cur = random_plane(seed);
        let refp = random_plane(seed ^ 0xabcdef);
        let rect = make_rect(rx, ry, rw, rh);
        let mut lib_sum = 0;
        let lib = record(|p| lib_sum = sad_plane_plane(p, &cur, rect, &refp, mvx, mvy));
        let mut ref_sum = 0;
        let re = record(|p| ref_sum = ref_sad_plane_plane(p, &cur, rect, &refp, mvx, mvy));
        prop_assert_eq!(lib_sum, ref_sum);
        assert_streams_match(&lib, &re);
    }

    /// Optimized `sad_plane_pred` matches the reference.
    #[test]
    fn sad_plane_pred_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
    ) {
        let plane = random_plane(seed);
        let rect = make_rect(rx, ry, rw, rh);
        let pred = random_bytes(seed, rect.area());
        let mut lib_sum = 0;
        let lib = record(|p| lib_sum = sad_plane_pred(p, &plane, rect, &pred));
        let mut ref_sum = 0;
        let re = record(|p| ref_sum = ref_sad_plane_pred(p, &plane, rect, &pred));
        prop_assert_eq!(lib_sum, ref_sum);
        assert_streams_match(&lib, &re);
    }

    /// Optimized `sse_plane_pred` matches the reference.
    #[test]
    fn sse_plane_pred_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
    ) {
        let plane = random_plane(seed);
        let rect = make_rect(rx, ry, rw, rh);
        let pred = random_bytes(seed, rect.area());
        let mut lib_sum = 0;
        let lib = record(|p| lib_sum = sse_plane_pred(p, &plane, rect, &pred));
        let mut ref_sum = 0;
        let re = record(|p| ref_sum = ref_sse_plane_pred(p, &plane, rect, &pred));
        prop_assert_eq!(lib_sum, ref_sum);
        assert_streams_match(&lib, &re);
    }

    /// Optimized `residual` matches the reference in output and stream.
    #[test]
    fn residual_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
    ) {
        let plane = random_plane(seed);
        let rect = make_rect(rx, ry, rw, rh);
        let pred = random_bytes(seed, rect.area());
        let mut lib_dst = vec![0i32; rect.area()];
        let mut ref_dst = vec![0i32; rect.area()];
        let lib = record(|p| residual(p, &plane, rect, &pred, &mut lib_dst));
        let re = record(|p| ref_residual(p, &plane, rect, &pred, &mut ref_dst));
        prop_assert_eq!(lib_dst, ref_dst);
        assert_streams_match(&lib, &re);
    }

    /// Optimized `reconstruct` matches the reference in plane content and
    /// stream (residuals drawn to exercise both clamp edges).
    #[test]
    fn reconstruct_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
    ) {
        let rect = make_rect(rx, ry, rw, rh);
        let pred = random_bytes(seed, rect.area());
        let mut x = seed | 1;
        let res: Vec<i32> = (0..rect.area())
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 48) % 701) as i32 - 350
            })
            .collect();
        let mut plane = random_plane(seed ^ 0x55);
        let before = snapshot(&plane);
        let lib = record(|p| reconstruct(p, &mut plane, rect, &pred, &res));
        let lib_pixels = snapshot(&plane);
        restore(&mut plane, &before);
        let re = record(|p| ref_reconstruct(p, &mut plane, rect, &pred, &res));
        prop_assert_eq!(lib_pixels, snapshot(&plane));
        assert_streams_match(&lib, &re);
    }

    /// Optimized `write_pred` matches the reference.
    #[test]
    fn write_pred_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
    ) {
        let rect = make_rect(rx, ry, rw, rh);
        let pred = random_bytes(seed, rect.area());
        let mut plane = random_plane(seed ^ 0x77);
        let before = snapshot(&plane);
        let lib = record(|p| write_pred(p, &mut plane, rect, &pred));
        let lib_pixels = snapshot(&plane);
        restore(&mut plane, &before);
        let re = record(|p| ref_write_pred(p, &mut plane, rect, &pred));
        prop_assert_eq!(lib_pixels, snapshot(&plane));
        assert_streams_match(&lib, &re);
    }

    /// Optimized `motion_compensate` (interior fast path per filter case)
    /// matches the clamped reference for all four half-pel fractions and
    /// border-straddling vectors.
    #[test]
    fn motion_compensate_equivalent(
        seed in any::<u64>(),
        rx in any::<usize>(), ry in any::<usize>(),
        rw in any::<usize>(), rh in any::<usize>(),
        mvx in -100i32..100, mvy in -100i32..100,
    ) {
        let refp = random_plane(seed);
        let rect = make_rect(rx, ry, rw, rh);
        let mv = MotionVector { x: mvx, y: mvy };
        let mut lib_dst = vec![0u8; rect.area()];
        let mut ref_dst = vec![0u8; rect.area()];
        let lib = record(|p| motion_compensate(p, &refp, rect, mv, &mut lib_dst));
        let re = record(|p| ref_motion_compensate(p, &refp, rect, mv, &mut ref_dst));
        prop_assert_eq!(lib_dst, ref_dst);
        assert_streams_match(&lib, &re);
    }
}

// ---------------------------------------------------------------------------
// Partition-search memo equivalence
// ---------------------------------------------------------------------------

/// Builds the textured source/reference frame pair the memo tests plan
/// over: shifted sinusoid texture, so inter, intra and skip paths all
/// participate.
fn memo_test_frames(sb: usize) -> (vstress_video::Frame, vstress_video::Frame) {
    use vstress_video::Frame;
    let mut src = Frame::new(sb * 2, sb * 2).unwrap();
    let mut reff = Frame::new(sb * 2, sb * 2).unwrap();
    for y in 0..sb * 2 {
        for x in 0..sb * 2 {
            let v = |s: usize| {
                (128.0
                    + 58.0 * ((x + s) as f64 * 0.19).sin()
                    + 38.0 * (y as f64 * 0.23 + (x + s) as f64 * 0.07).sin())
                .clamp(0.0, 255.0) as u8
            };
            src.luma_mut().set(x, y, v(3));
            reff.luma_mut().set(x, y, v(0));
        }
    }
    (src, reff)
}

/// The leaf memo engages only under a dead probe, where hits skip the
/// evaluation entirely. The chosen plans must be identical to those a
/// live probe gets, which bypasses the memo and recomputes every leaf.
#[test]
fn memo_dead_probe_path_matches_plans() {
    use vstress_codecs::codecs::ToolSet;
    use vstress_codecs::frame_coder::{plan_superblock, CoderConfig, PlanScratch};
    use vstress_codecs::{CodecId, EncoderParams};
    use vstress_trace::CountingProbe;

    let tools = ToolSet::resolve(CodecId::SvtAv1, &EncoderParams::new(35, 6)).unwrap();
    let cfg = CoderConfig::from_tools(&tools, 35);
    let sb = tools.superblock;
    let (src, reff) = memo_test_frames(sb);
    let refs = [&reff];

    let mut counting = CountingProbe::new();
    let (mut live_scratch, mut dead_scratch) = (PlanScratch::new(), PlanScratch::new());
    for (sx, sy) in [(0, 0), (sb, 0), (0, sb), (sb, sb)] {
        let rect = BlockRect::new(sx, sy, sb, sb);
        let (mut live_mv, mut dead_mv) = (MotionVector::ZERO, MotionVector::ZERO);
        let live = plan_superblock(
            &mut counting,
            &tools,
            &cfg,
            &src,
            &refs,
            rect,
            &mut live_mv,
            &mut live_scratch,
        );
        let dead = plan_superblock(
            &mut NullProbe,
            &tools,
            &cfg,
            &src,
            &refs,
            rect,
            &mut dead_mv,
            &mut dead_scratch,
        );
        assert_eq!(dead, live, "memo changed the plan of superblock ({sx}, {sy})");
        assert_eq!(dead_mv, live_mv);
    }
    assert!(counting.retired() > 0, "the live probe must observe the search");
}
