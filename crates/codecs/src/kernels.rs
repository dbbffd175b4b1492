//! Instrumented pixel kernels: SAD, SSE distortion, residual and copy.
//!
//! These are the leaf SIMD loops of the encoder — the counterparts of the
//! hand-vectorized assembly in SVT-AV1/x264. Each kernel computes its real
//! result over the live pixel buffers *and* reports the vectorized
//! instruction stream it would retire (loads per row chunk, AVX ops per
//! vector, the loop branch) through the [`Probe`].
//!
//! Since the SIMD-layer rewrite the two concerns are separated inside
//! each kernel: a pure *value* pass computes the pixel result through
//! the fixed-width lane types in the `simd` shim (LLVM turns those lane
//! loops into vector instructions), and an *event* pass emits the probe
//! traffic. The observable stream is unchanged — probe calls were
//! always per-row bookkeeping around the arithmetic, and the event pass
//! replays them in the same order with the same operands. The branch
//! PCs are pinned constants (not `site_pc!()`) so the probe stream
//! survives source-layout changes; see `SAD_PLANE_PRED_BRANCH_PC`.
//!
//! Equivalence with the scalar pre-rewrite kernels — value *and* probe
//! stream — is property-tested in `tests/kernel_equivalence.rs`.

use crate::blocks::BlockRect;
use simd::{u32x4, u8x16};
use vstress_trace::{probe_addr, Kernel, Probe};
use vstress_video::{Plane, PAD};

/// Vector width in pixels assumed by the instrumentation (AVX2: 32 u8).
pub const VEC_PIXELS: usize = 32;

/// Branch-site PC of the [`sad_plane_pred`] row loop.
///
/// These constants are the `site_pc!()` hashes (file/line/column) the
/// sites had when they landed, pinned so that refactors that move
/// source lines cannot silently re-index every simulated predictor
/// table: the characterization outputs are a function of these values.
pub(crate) const SAD_PLANE_PRED_BRANCH_PC: u64 = 0x535b_1d52_8c6c;
/// Branch-site PC of the [`sad_plane_plane`] row loop.
pub(crate) const SAD_PLANE_PLANE_BRANCH_PC: u64 = 0x5086_1d52_8c6c;
/// Branch-site PC of the [`sse_plane_pred`] row loop.
pub(crate) const SSE_PLANE_PRED_BRANCH_PC: u64 = 0x5335_1d52_8c6c;

#[inline]
fn row_vectors(w: usize) -> u64 {
    (w as u64).div_ceil(VEC_PIXELS as u64)
}

/// Reports `n` 256-bit vector ops. Narrow blocks are batched multiple
/// rows per register by real kernels, so block kernels always count as
/// AVX; the rare 128-bit paths live in the deblocker and edge gathering.
#[inline]
fn vec_ops<P: Probe>(probe: &mut P, n: u64) {
    probe.avx(n);
}

/// Accumulates `sum |a - b|` over one row into a vector accumulator
/// plus a scalar tail. Whole 16-lane chunks stay vectorial (the
/// horizontal reduction happens once per *block*, in the caller); the
/// sub-16 remainder is scalar. Exact integer sums make the grouping
/// invisible in the result.
#[inline(always)]
fn sad_row_accum(acc: &mut u32x4, tail: &mut u32, a: &[u8], b: &[u8]) {
    debug_assert_eq!(a.len(), b.len());
    // Pairs of 16-lane SADs feed two independent accumulator lanes, so
    // the per-chunk horizontal reductions overlap instead of
    // serializing on one register.
    let mut pa = a.chunks_exact(32);
    let mut pb = b.chunks_exact(32);
    for (qa, qb) in (&mut pa).zip(&mut pb) {
        acc.0[0] =
            acc.0[0].wrapping_add(u8x16::from_slice(&qa[..16]).sad(u8x16::from_slice(&qb[..16])));
        acc.0[1] =
            acc.0[1].wrapping_add(u8x16::from_slice(&qa[16..]).sad(u8x16::from_slice(&qb[16..])));
    }
    let mut ca = pa.remainder().chunks_exact(16);
    let mut cb = pb.remainder().chunks_exact(16);
    for (qa, qb) in (&mut ca).zip(&mut cb) {
        *tail += u8x16::from_slice(qa).sad(u8x16::from_slice(qb));
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        *tail += x.abs_diff(*y) as u32;
    }
}

/// Squared-difference sibling of [`sad_row_accum`].
#[inline(always)]
fn sse_row_accum(acc: &mut u32x4, tail: &mut u32, a: &[u8], b: &[u8]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(16);
    let mut cb = b.chunks_exact(16);
    for (qa, qb) in (&mut ca).zip(&mut cb) {
        *acc = acc.accum_sq_diff(u8x16::from_slice(qa), u8x16::from_slice(qb));
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x.abs_diff(*y) as u32;
        *tail += d * d;
    }
}

/// Sum of absolute differences between a plane block and a predictor
/// buffer (`pred` is `rect.w * rect.h`, row-major).
///
/// # Panics
///
/// Panics in debug builds if `rect` exceeds the plane or `pred` is too
/// small.
pub fn sad_plane_pred<P: Probe>(probe: &mut P, plane: &Plane, rect: BlockRect, pred: &[u8]) -> u64 {
    debug_assert!(pred.len() >= rect.area());
    probe.set_kernel(Kernel::Sad);
    let mut acc = u32x4::splat(0);
    let mut tail = 0u32;
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        sad_row_accum(&mut acc, &mut tail, row, prow);
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        vec_ops(probe, v * 2); // psadbw + accumulate
        probe.alu(1);
        // Unrolled-by-4 loop: one branch per four rows; the accumulator
        // spills to the stack every other row.
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(probe_addr::fixed::PRED, 8);
        }
        if y % 4 == 3 || y + 1 == rect.h {
            probe.branch(SAD_PLANE_PRED_BRANCH_PC, y + 1 != rect.h);
        }
    }
    (acc.sum() + tail) as u64
}

/// The pixel result of [`sad_plane_plane`], with no probe traffic.
///
/// Three access paths, in decreasing preference, all producing the
/// identical sum: contiguous interior rows, contiguous rows of the
/// reference's edge-padded shadow (border-straddling displacements
/// within [`PAD`]), and the per-sample clamped fallback.
#[inline]
pub(crate) fn sad_plane_plane_value(
    cur: &Plane,
    rect: BlockRect,
    refp: &Plane,
    mvx: i32,
    mvy: i32,
) -> u64 {
    let rx0 = rect.x as isize + mvx as isize;
    let ry0 = rect.y as isize + mvy as isize;
    let (w, h) = (rect.w as isize, rect.h as isize);
    let interior = rx0 >= 0
        && ry0 >= 0
        && rx0 + w <= refp.width() as isize
        && ry0 + h <= refp.height() as isize;
    if interior {
        let mut acc = u32x4::splat(0);
        let mut tail = 0u32;
        let crows = cur.block_rows(rect.x, rect.y, rect.w, rect.h);
        let rrows = refp.block_rows(rx0 as usize, ry0 as usize, rect.w, rect.h);
        for (crow, rrow) in crows.zip(rrows) {
            sad_row_accum(&mut acc, &mut tail, crow, rrow);
        }
        return (acc.sum() + tail) as u64;
    }
    let pad = PAD as isize;
    let in_shadow = refp.is_padded()
        && rx0 >= -pad
        && rx0 + w <= refp.width() as isize + pad
        && ry0 >= -pad
        && ry0 + h <= refp.height() as isize + pad;
    if in_shadow {
        // Every shadow sample equals `get_clamped` at the same
        // coordinates, so this is the border path with contiguous rows.
        let off = (rx0 + pad) as usize;
        let mut acc = u32x4::splat(0);
        let mut tail = 0u32;
        for y in 0..rect.h {
            let crow = &cur.row(rect.y + y)[rect.x..rect.x + rect.w];
            let prow = refp.padded_row(ry0 + y as isize).expect("checked shadow range");
            sad_row_accum(&mut acc, &mut tail, crow, &prow[off..off + rect.w]);
        }
        return (acc.sum() + tail) as u64;
    }
    let mut sum = 0u64;
    for y in 0..rect.h {
        let cy = rect.y + y;
        let ry = cy as isize + mvy as isize;
        let crow = &cur.row(cy)[rect.x..rect.x + rect.w];
        let row_sum: u32 = crow
            .iter()
            .enumerate()
            .map(|(x, a)| {
                let b = refp.get_clamped(rect.x as isize + x as isize + mvx as isize, ry);
                a.abs_diff(b) as u32
            })
            .sum();
        sum += row_sum as u64;
    }
    sum
}

/// The probe stream of [`sad_plane_plane`]: identical calls, operands
/// and order as the pre-split kernel (which interleaved them with the
/// arithmetic — probes were always per-row bookkeeping, so the stream
/// is unchanged by the separation).
pub(crate) fn sad_plane_plane_events<P: Probe>(
    probe: &mut P,
    cur: &Plane,
    rect: BlockRect,
    refp: &Plane,
    mvx: i32,
    mvy: i32,
) {
    probe.set_kernel(Kernel::Sad);
    for y in 0..rect.h {
        let cy = rect.y + y;
        let ry = cy as isize + mvy as isize;
        let v = row_vectors(rect.w);
        probe.load(cur.sample_addr(rect.x, cy), rect.w.min(VEC_PIXELS) as u32);
        let rx = (rect.x as isize + mvx as isize).clamp(0, refp.width() as isize - 1) as usize;
        let rcy = ry.clamp(0, refp.height() as isize - 1) as usize;
        // Candidate displacements are unaligned: the reference row costs
        // two overlapping vector loads.
        probe.load(refp.sample_addr(rx, rcy), rect.w.min(VEC_PIXELS) as u32);
        probe.load(refp.sample_addr(rx, rcy) + 16, rect.w.min(VEC_PIXELS) as u32);
        vec_ops(probe, v * 2);
        probe.alu(1);
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(cur.base_addr(), 8);
            probe.branch(SAD_PLANE_PLANE_BRANCH_PC, y + 1 != rect.h);
        }
    }
}

/// SAD between two plane blocks (motion search: current vs reference at a
/// candidate displacement, clamped at frame borders).
pub fn sad_plane_plane<P: Probe>(
    probe: &mut P,
    cur: &Plane,
    rect: BlockRect,
    refp: &Plane,
    mvx: i32,
    mvy: i32,
) -> u64 {
    let sum = sad_plane_plane_value(cur, rect, refp, mvx, mvy);
    sad_plane_plane_events(probe, cur, rect, refp, mvx, mvy);
    sum
}

/// Candidates per inner batch of [`sad_plane_plane_row_batch`]: small
/// enough that the per-candidate accumulators stay in L1 while a whole
/// current-plane row is shared across them.
const ROW_BATCH: usize = 16;

/// Batched SAD values for motion-search candidates that share one
/// vertical displacement `dy` (one row of the search window), with no
/// probe traffic — the caller emits each candidate's canonical probe
/// stream afterwards.
///
/// When the reference has an edge-padded shadow covering every
/// candidate, the candidates advance together through the block rows:
/// each current row and each shadow row is loaded once and shared
/// across the whole batch (the row-window optimization real searches
/// get from keeping the window in registers). Otherwise it falls back
/// to independent [`sad_plane_plane`]-value computations. Either way
/// every sum is exactly the per-candidate kernel result.
///
/// # Panics
///
/// Panics if `sums` is shorter than `dxs`.
pub fn sad_plane_plane_row_batch(
    cur: &Plane,
    rect: BlockRect,
    refp: &Plane,
    dxs: &[i32],
    dy: i32,
    sums: &mut [u64],
) {
    assert!(sums.len() >= dxs.len());
    let (w, h) = (rect.w as isize, rect.h as isize);
    let pad = PAD as isize;
    let ry0 = rect.y as isize + dy as isize;
    let shadow_y = ry0 >= -pad && ry0 + h <= refp.height() as isize + pad;
    let shadow_x = dxs.iter().all(|&dx| {
        let rx0 = rect.x as isize + dx as isize;
        rx0 >= -pad && rx0 + w <= refp.width() as isize + pad
    });
    if !(refp.is_padded() && shadow_y && shadow_x) {
        for (&dx, s) in dxs.iter().zip(sums.iter_mut()) {
            *s = sad_plane_plane_value(cur, rect, refp, dx, dy);
        }
        return;
    }
    for (dx_chunk, sum_chunk) in dxs.chunks(ROW_BATCH).zip(sums.chunks_mut(ROW_BATCH)) {
        let mut accs = [u32x4::splat(0); ROW_BATCH];
        let mut tails = [0u32; ROW_BATCH];
        for y in 0..rect.h {
            let crow = &cur.row(rect.y + y)[rect.x..rect.x + rect.w];
            let prow = refp.padded_row(ry0 + y as isize).expect("checked shadow range");
            for ((&dx, acc), tail) in dx_chunk.iter().zip(&mut accs).zip(&mut tails) {
                let off = (rect.x as isize + dx as isize + pad) as usize;
                sad_row_accum(acc, tail, crow, &prow[off..off + rect.w]);
            }
        }
        for ((s, acc), tail) in sum_chunk.iter_mut().zip(&accs).zip(&tails) {
            *s = (acc.sum() + *tail) as u64;
        }
    }
}

/// Sum of squared errors between a plane block and a predictor buffer.
pub fn sse_plane_pred<P: Probe>(probe: &mut P, plane: &Plane, rect: BlockRect, pred: &[u8]) -> u64 {
    debug_assert!(pred.len() >= rect.area());
    probe.set_kernel(Kernel::Sad);
    // 255^2 * area fits u32 per lane for any block size; the vector
    // accumulator keeps the squared-difference reduction in lanes and
    // defers the horizontal sum to one reduction per block.
    let mut acc = u32x4::splat(0);
    let mut tail = 0u32;
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        sse_row_accum(&mut acc, &mut tail, row, prow);
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        vec_ops(probe, v * 3);
        probe.alu(1);
        if y % 2 == 1 || y + 1 == rect.h {
            probe.store(probe_addr::fixed::PRED, 8);
        }
        if y % 4 == 3 || y + 1 == rect.h {
            probe.branch(SSE_PLANE_PRED_BRANCH_PC, y + 1 != rect.h);
        }
    }
    (acc.sum() + tail) as u64
}

/// Residual between a plane block and a predictor, into `dst` (i32,
/// row-major `rect.w * rect.h`).
///
/// # Panics
///
/// Panics if `dst` is smaller than the block.
pub fn residual<P: Probe>(
    probe: &mut P,
    plane: &Plane,
    rect: BlockRect,
    pred: &[u8],
    dst: &mut [i32],
) {
    assert!(dst.len() >= rect.area());
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        let row = &plane.row(rect.y + y)[rect.x..rect.x + rect.w];
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        let drow = &mut dst[y * rect.w..(y + 1) * rect.w];
        for ((d, a), b) in drow.iter_mut().zip(row).zip(prow) {
            *d = *a as i32 - *b as i32;
        }
        let v = row_vectors(rect.w);
        probe.load(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.store(
            probe_addr::fixed::RESIDUAL + (y * rect.w * 4) as u64,
            (rect.w * 4).min(64) as u32,
        );
        vec_ops(probe, v);
    }
}

/// Adds a residual (i32) to a predictor and writes the clamped
/// reconstruction into the plane block.
///
/// # Panics
///
/// Panics if the buffers are smaller than the block.
pub fn reconstruct<P: Probe>(
    probe: &mut P,
    plane: &mut Plane,
    rect: BlockRect,
    pred: &[u8],
    res: &[i32],
) {
    assert!(pred.len() >= rect.area() && res.len() >= rect.area());
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        let rrow = &res[y * rect.w..(y + 1) * rect.w];
        let orow = &mut plane.row_mut(rect.y + y)[rect.x..rect.x + rect.w];
        for ((o, p), r) in orow.iter_mut().zip(prow).zip(rrow) {
            *o = (*p as i32 + *r).clamp(0, 255) as u8;
        }
        let v = row_vectors(rect.w);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.load(
            probe_addr::fixed::RESIDUAL + (y * rect.w * 4) as u64,
            (rect.w * 4).min(64) as u32,
        );
        probe.store(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        vec_ops(probe, v * 2);
    }
}

/// Copies a predictor buffer straight into the plane (skip blocks).
pub fn write_pred<P: Probe>(probe: &mut P, plane: &mut Plane, rect: BlockRect, pred: &[u8]) {
    probe.set_kernel(Kernel::FrameSetup);
    for y in 0..rect.h {
        let prow = &pred[y * rect.w..(y + 1) * rect.w];
        plane.row_mut(rect.y + y)[rect.x..rect.x + rect.w].copy_from_slice(prow);
        probe.load(probe_addr::fixed::PRED + (y * rect.w) as u64, rect.w.min(VEC_PIXELS) as u32);
        probe.store(plane.sample_addr(rect.x, rect.y + y), rect.w.min(VEC_PIXELS) as u32);
        vec_ops(probe, row_vectors(rect.w));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstress_trace::{CountingProbe, NullProbe};

    fn plane_with(vals: impl Fn(usize, usize) -> u8) -> Plane {
        let mut p = Plane::new(32, 32, 0).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                p.set(x, y, vals(x, y));
            }
        }
        p
    }

    #[test]
    fn sad_identical_is_zero() {
        let p = plane_with(|x, y| (x * 3 + y) as u8);
        let rect = BlockRect::new(8, 8, 8, 8);
        let mut pred = vec![0u8; 64];
        for y in 0..8 {
            for x in 0..8 {
                pred[y * 8 + x] = p.get(8 + x, 8 + y);
            }
        }
        assert_eq!(sad_plane_pred(&mut NullProbe, &p, rect, &pred), 0);
    }

    #[test]
    fn sad_counts_differences() {
        let p = plane_with(|_, _| 100);
        let rect = BlockRect::new(0, 0, 4, 4);
        let pred = vec![97u8; 16];
        assert_eq!(sad_plane_pred(&mut NullProbe, &p, rect, &pred), 3 * 16);
    }

    #[test]
    fn plane_plane_sad_with_zero_mv_matches_direct() {
        let a = plane_with(|x, y| (x + y) as u8);
        let b = plane_with(|x, y| (x + y + 2) as u8);
        let rect = BlockRect::new(4, 4, 8, 8);
        assert_eq!(sad_plane_plane(&mut NullProbe, &a, rect, &b, 0, 0), 2 * 64);
    }

    #[test]
    fn plane_plane_sad_finds_shifted_content() {
        // b(x) = a(x + 2): the content of `a` sits 2 columns to the LEFT
        // in b, so SAD is zero at mv (-2, 0).
        let a = plane_with(|x, y| ((x * 7 + y * 13) % 251) as u8);
        let b = plane_with(|x, y| ((x.wrapping_add(2) * 7 + y * 13) % 251) as u8);
        let rect = BlockRect::new(8, 8, 8, 8);
        assert_eq!(sad_plane_plane(&mut NullProbe, &a, rect, &b, -2, 0), 0);
        assert!(sad_plane_plane(&mut NullProbe, &a, rect, &b, 0, 0) > 0);
    }

    #[test]
    fn padded_border_sad_matches_clamped() {
        let a = plane_with(|x, y| ((x * 7 + y * 13) % 251) as u8);
        let mut b = plane_with(|x, y| ((x * 5 + y * 3) % 241) as u8);
        let rect = BlockRect::new(2, 2, 8, 8);
        let clamped = sad_plane_plane(&mut NullProbe, &a, rect, &b, -20, -20);
        b.pad_borders();
        assert_eq!(sad_plane_plane(&mut NullProbe, &a, rect, &b, -20, -20), clamped);
    }

    #[test]
    fn row_batch_matches_per_candidate_values() {
        let a = plane_with(|x, y| ((x * 7 + y * 13) % 251) as u8);
        let mut b = plane_with(|x, y| ((x * 11 + y * 5) % 239) as u8);
        b.pad_borders();
        let rect = BlockRect::new(8, 8, 16, 16);
        // 20 candidates exercises the chunked (ROW_BATCH=16) path.
        let dxs: Vec<i32> = (-10..10).collect();
        let mut sums = vec![0u64; dxs.len()];
        for dy in [-9, 0, 7] {
            sad_plane_plane_row_batch(&a, rect, &b, &dxs, dy, &mut sums);
            for (&dx, &s) in dxs.iter().zip(&sums) {
                assert_eq!(s, sad_plane_plane(&mut NullProbe, &a, rect, &b, dx, dy), "{dx},{dy}");
            }
        }
    }

    #[test]
    fn residual_plus_reconstruct_is_identity() {
        let src = plane_with(|x, y| ((x * 5 + y * 11) % 256) as u8);
        let rect = BlockRect::new(4, 8, 8, 4);
        let pred = vec![50u8; 32];
        let mut res = vec![0i32; 32];
        residual(&mut NullProbe, &src, rect, &pred, &mut res);
        let mut out = Plane::new(32, 32, 0).unwrap();
        reconstruct(&mut NullProbe, &mut out, rect, &pred, &res);
        for y in 0..4 {
            for x in 0..8 {
                assert_eq!(out.get(4 + x, 8 + y), src.get(4 + x, 8 + y));
            }
        }
    }

    #[test]
    fn sse_matches_manual() {
        let p = plane_with(|_, _| 10);
        let rect = BlockRect::new(0, 0, 4, 4);
        let pred = vec![13u8; 16];
        assert_eq!(sse_plane_pred(&mut NullProbe, &p, rect, &pred), 9 * 16);
    }

    #[test]
    fn kernels_report_vectorized_mix() {
        let p = plane_with(|x, _| x as u8);
        let rect = BlockRect::new(0, 0, 16, 16);
        let pred = vec![0u8; 256];
        let mut probe = CountingProbe::new();
        sad_plane_pred(&mut probe, &p, rect, &pred);
        let m = probe.mix();
        assert!(m.avx >= 16 * 2, "avx {}", m.avx);
        // Unrolled by 4: one loop branch per four rows.
        assert_eq!(m.branch, 4);
        // Accumulator spills every other row.
        assert_eq!(m.store, 8);
        assert!(m.load >= 32);
    }

    #[test]
    fn write_pred_copies() {
        let mut out = Plane::new(32, 32, 0).unwrap();
        let rect = BlockRect::new(0, 0, 4, 4);
        let pred: Vec<u8> = (0..16).map(|i| i as u8 * 10).collect();
        write_pred(&mut NullProbe, &mut out, rect, &pred);
        assert_eq!(out.get(3, 3), 150);
    }
}
