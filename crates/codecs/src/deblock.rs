//! In-loop deblocking filter.
//!
//! A strength-adaptive smoothing of block edges on the reconstructed
//! frame. Both the encoder's reconstruction loop and the decoder run this
//! identical pass, so reconstructions stay bit-exact — the round-trip
//! integration tests depend on that. The cross-frame pipeline's reference
//! views apply the same per-edge filter silently (under a dead probe)
//! as rows are published.

use vstress_trace::{Kernel, Probe};
use vstress_video::{Frame, Plane};

/// Deblock lattice pitch of the luma plane.
pub(crate) const LUMA_GRID: usize = 8;

/// Deblock lattice pitch of the (4:2:0) chroma planes.
pub(crate) const CHROMA_GRID: usize = 4;

/// Branch-site PC of [`filter_pair`]'s edge-activity branch.
///
/// The value is the `site_pc!()` hash (file/line/column) this site had
/// when it landed, pinned so that moving the line cannot re-index every
/// simulated predictor table.
const EDGE_FILTER_BRANCH_PC: u64 = 0x56d8_b2c5_d194;

/// The filter strength for a frame quantization step.
pub(crate) fn strength(qstep: i32) -> i32 {
    (qstep / 8).clamp(1, 48)
}

/// Deblocks every plane of a finished reconstruction: luma on the
/// [`LUMA_GRID`] lattice, chroma on the [`CHROMA_GRID`] lattice.
pub(crate) fn deblock_frame<P: Probe>(probe: &mut P, frame: &mut Frame, qstep: i32) {
    deblock_plane(probe, frame.luma_mut(), LUMA_GRID, qstep);
    deblock_plane(probe, frame.cb_mut(), CHROMA_GRID, qstep);
    deblock_plane(probe, frame.cr_mut(), CHROMA_GRID, qstep);
}

/// Filters the vertical and horizontal block edges of `plane` on an
/// `grid x grid` lattice with a strength derived from the quantizer.
///
/// The filter is the classic 2-sample low-pass across the edge, applied
/// only when the edge step is below `2 * strength` (a real edge is left
/// alone, a blocking artifact is smoothed), with `strength` proportional
/// to the quantization step.
pub fn deblock_plane<P: Probe>(probe: &mut P, plane: &mut Plane, grid: usize, qstep: i32) {
    probe.set_kernel(Kernel::Deblock);
    let strength = strength(qstep);
    let (w, h) = (plane.width(), plane.height());
    // Vertical edges.
    for x in (grid..w).step_by(grid) {
        for y in 0..h {
            filter_pair(probe, plane, (x - 1, y), (x, y), strength);
        }
        probe.sse((h as u64).div_ceil(8) * 2);
        probe.load(plane.sample_addr(x - 1, 0), 2);
        probe.store(plane.sample_addr(x - 1, 0), 2);
        probe.alu(2);
    }
    // Horizontal edges.
    for y in (grid..h).step_by(grid) {
        for x in 0..w {
            filter_pair(probe, plane, (x, y - 1), (x, y), strength);
        }
        probe.sse((w as u64).div_ceil(32) * 2);
        probe.load(plane.sample_addr(0, y - 1), w.min(32) as u32);
        probe.store(plane.sample_addr(0, y - 1), w.min(32) as u32);
        probe.alu(2);
    }
}

/// The 2-sample low-pass across the edge between samples `a` and `b`.
#[inline]
pub(crate) fn filter_pair<P: Probe>(
    probe: &mut P,
    plane: &mut Plane,
    (ax, ay): (usize, usize),
    (bx, by): (usize, usize),
    strength: i32,
) {
    let a = plane.get(ax, ay) as i32;
    let b = plane.get(bx, by) as i32;
    let step = b - a;
    let filter = step.abs() < 2 * strength && step != 0;
    // Edge-activity branch: biased (most edges are quiet) but
    // content-dependent — reported so the predictor study sees it.
    probe.branch(EDGE_FILTER_BRANCH_PC, filter);
    if filter {
        let delta = step / 4;
        plane.set(ax, ay, (a + delta).clamp(0, 255) as u8);
        plane.set(bx, by, (b - delta).clamp(0, 255) as u8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstress_trace::NullProbe;

    fn blocky_plane() -> Plane {
        // 8x8 blocks of alternating flat values: ideal blocking artifact.
        let mut p = Plane::new(32, 32, 0).unwrap();
        for y in 0..32 {
            for x in 0..32 {
                let v = if ((x / 8) + (y / 8)) % 2 == 0 { 100 } else { 112 };
                p.set(x, y, v);
            }
        }
        p
    }

    fn edge_energy(p: &Plane, grid: usize) -> u64 {
        let mut e = 0u64;
        for x in (grid..p.width()).step_by(grid) {
            for y in 0..p.height() {
                e += (p.get(x, y) as i64 - p.get(x - 1, y) as i64).unsigned_abs();
            }
        }
        e
    }

    #[test]
    fn smooths_blocking_artifacts() {
        let mut p = blocky_plane();
        let before = edge_energy(&p, 8);
        deblock_plane(&mut NullProbe, &mut p, 8, 64);
        let after = edge_energy(&p, 8);
        assert!(after < before, "edge energy must drop: {after} vs {before}");
    }

    #[test]
    fn preserves_real_edges() {
        // A strong edge (step 120) must not be smoothed at moderate qstep.
        let mut p = Plane::new(16, 16, 0).unwrap();
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, if x < 8 { 40 } else { 160 });
            }
        }
        let before = p.clone();
        deblock_plane(&mut NullProbe, &mut p, 8, 32);
        assert_eq!(p, before, "strong edges stay intact");
    }

    #[test]
    fn is_deterministic() {
        let mut a = blocky_plane();
        let mut b = blocky_plane();
        deblock_plane(&mut NullProbe, &mut a, 8, 48);
        deblock_plane(&mut NullProbe, &mut b, 8, 48);
        assert_eq!(a, b);
    }

    #[test]
    fn flat_plane_is_untouched() {
        let mut p = Plane::new(16, 16, 90).unwrap();
        let before = p.clone();
        deblock_plane(&mut NullProbe, &mut p, 4, 80);
        assert_eq!(p, before);
    }
}
