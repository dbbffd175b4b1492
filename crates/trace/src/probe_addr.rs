//! Synthetic, deterministic data addresses for probe instrumentation.
//!
//! The probes originally reported live host addresses. Page *bases* are
//! handled by the stream recorder's first-touch canonicalization, but the
//! sub-page offset (`addr & 0xfff`) survives it — and that offset depends
//! on allocator state and ASLR, so cache set/line mapping (and therefore
//! every simulated miss count) jittered between runs and thread counts.
//!
//! Every probed buffer now carries an address from this module instead:
//!
//! * Long-lived pixel buffers ([`Plane`](../../vstress_video) data) call
//!   [`alloc`], which hands out globally unique, page-aligned regions
//!   from an atomic counter, with a guard page between regions.
//! * Per-call scratch (transform tmp, predictor buffers, residuals,
//!   coder state) uses the [`fixed`] class addresses — mirroring how a
//!   real encoder reuses the same hot stack slots and scratch arenas on
//!   every invocation.
//!
//! The absolute values never matter (canonicalization remaps pages by
//! first touch). What matters is that addresses are unique per logical
//! buffer, page-aligned, and a pure function of deterministic program
//! state — which makes a characterization a pure function of its spec,
//! regardless of process layout or worker interleaving.

use std::sync::atomic::{AtomicU64, Ordering};

/// Synthetic page size (matches the canonicalizer's 4 KiB pages).
pub const PAGE: u64 = 4096;

/// Start of the dynamically allocated region space.
const ALLOC_BASE: u64 = 0x7800_0000_0000;

static NEXT: AtomicU64 = AtomicU64::new(ALLOC_BASE);

/// Reserves a unique page-aligned synthetic region of at least `bytes`
/// bytes (plus a guard page) and returns its base address.
pub fn alloc(bytes: usize) -> u64 {
    let span = ((bytes as u64).max(1).div_ceil(PAGE) + 1) * PAGE;
    NEXT.fetch_add(span, Ordering::Relaxed)
}

/// Fixed addresses for per-call scratch classes.
///
/// Real encoders run their leaf kernels against the same few hot scratch
/// buffers (stack tiles, thread-local arenas) over and over; one stable
/// address per logical class reproduces exactly that reuse pattern. The
/// classes are spaced 64 MiB apart so no realistic buffer bleeds into a
/// neighbor.
pub mod fixed {
    const BASE: u64 = 0x7000_0000_0000;
    const SPACING: u64 = 1 << 26;

    /// Range encoder/decoder state (low/range/cache registers).
    pub const CODER_STATE: u64 = BASE;
    /// Range encoder output byte stream.
    pub const ENTROPY_OUT: u64 = BASE + SPACING;
    /// Range decoder input byte stream.
    pub const ENTROPY_IN: u64 = BASE + 2 * SPACING;
    /// Transform pass intermediate (`tmp`) tile.
    pub const TRANSFORM_TMP: u64 = BASE + 3 * SPACING;
    /// SATD 4x4 butterfly tile.
    pub const SATD_TILE: u64 = BASE + 4 * SPACING;
    /// Residual / coefficient scratch (i32, row-major).
    pub const RESIDUAL: u64 = BASE + 5 * SPACING;
    /// Predictor pixel scratch (u8, row-major).
    pub const PRED: u64 = BASE + 6 * SPACING;
    /// Quantized-level scratch (i32, row-major).
    pub const QUANT_LEVELS: u64 = BASE + 7 * SPACING;
    /// Motion-search bookkeeping (candidate cost table).
    pub const SEARCH_STATE: u64 = BASE + 8 * SPACING;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_unique_page_aligned_disjoint_regions() {
        let a = alloc(10_000);
        let b = alloc(1);
        let c = alloc(0);
        assert_eq!(a % PAGE, 0);
        assert_eq!(b % PAGE, 0);
        assert_eq!(c % PAGE, 0);
        // Regions are disjoint including a guard page.
        assert!(b >= a + 10_000 + PAGE);
        assert!(c > b);
    }

    #[test]
    fn fixed_classes_are_page_aligned_and_distinct() {
        let all = [
            fixed::CODER_STATE,
            fixed::ENTROPY_OUT,
            fixed::ENTROPY_IN,
            fixed::TRANSFORM_TMP,
            fixed::SATD_TILE,
            fixed::RESIDUAL,
            fixed::PRED,
            fixed::QUANT_LEVELS,
            fixed::SEARCH_STATE,
        ];
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        for a in all {
            assert_eq!(a % PAGE, 0);
        }
    }
}
