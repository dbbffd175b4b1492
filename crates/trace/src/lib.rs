//! Instrumentation substrate for the `vstress` workbench — the stand-in for
//! Intel Pin.
//!
//! The paper instruments native encoder binaries with Pin to obtain
//! instruction mixes (its Table 2 / Fig. 3), branch traces for the CBP
//! predictor study (Figs. 8–10) and hot-function profiles (via gprof). Our
//! encoder models are Rust programs, so instead of binary instrumentation
//! the hot kernels are compiled against the [`Probe`] trait and report their
//! dynamic operation stream directly:
//!
//! * every retired abstract instruction, classified into the same categories
//!   the paper reports (branch / load / store / AVX / SSE / other),
//! * synthetic, deterministic data addresses (see [`probe_addr`]) with the
//!   live buffers' layout and strides, for cache simulation,
//! * stable per-site program counters for branch-predictor simulation,
//!   generated at compile time by [`site_pc!`].
//!
//! A [`probe::NullProbe`] monomorphizes to nothing, so un-instrumented
//! encodes run at full speed; [`probe::CountingProbe`] gathers the
//! instruction mix; [`probe::SinkProbe`] additionally streams branch and
//! memory events into downstream simulators (branch predictors, caches, the
//! pipeline model); [`window::BranchWindowProbe`] captures the paper's
//! "1B instructions roughly halfway through the run" branch-trace windows.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod event;
pub mod io;
pub mod kernel;
pub mod mix;
pub mod probe;
pub mod probe_addr;
pub mod profile;
pub mod record;
pub mod stream;
pub mod window;

pub use event::{EventBatch, ProbeEvent, RecordingProbe};
pub use kernel::Kernel;
pub use mix::{OpClass, OpMix};
pub use probe::{CountingProbe, NullProbe, Probe, SinkProbe, TeeProbe};
pub use profile::HotKernelProfile;
pub use record::{BranchRecord, MemAccess};
pub use stream::{
    CanonicalizingProbe, ChunkDecoder, EventStream, MalformedChunk, SharedBytes, StreamError,
    StreamRecorder,
};
pub use window::BranchWindowProbe;

/// Computes a stable 64-bit synthetic program counter for a static branch
/// site from `file!()`, `line!()` and `column!()`.
///
/// Pin reports the real virtual address of each branch instruction; our
/// equivalent must be (a) unique per static site and (b) identical across
/// runs so that predictor tables warm the same entries. A compile-time
/// FNV-1a hash of the source location satisfies both. The file part is
/// hashed by [`site_path_hash`], so the PC does not depend on where the
/// checkout lives.
///
/// ```
/// use vstress_trace::site_pc;
/// let a = site_pc!();
/// let b = site_pc!();
/// assert_ne!(a, b); // different columns/lines hash differently
/// ```
#[macro_export]
macro_rules! site_pc {
    () => {{
        const PC: u64 = $crate::site_path_hash(file!())
            ^ ((line!() as u64) << 32 | column!() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Keep PCs in a "text-segment-like" range and 4-byte aligned, as
        // real branch addresses would be.
        (PC & 0x0000_0fff_ffff_fffc) | 0x0000_5000_0000_0000
    }};
}

/// Compile-time hash of a source path from its last `crates/` component
/// onward, used by [`site_pc!`].
///
/// `file!()` is workspace-relative (`crates/codecs/src/encoder.rs`) in
/// this workspace's own build, but absolute when the crates are built as
/// path dependencies of another workspace. Hashing only the suffix makes
/// both spellings, and every checkout location, give the same PCs. A
/// path without a `crates/` component is hashed whole.
#[must_use]
pub const fn site_path_hash(path: &str) -> u64 {
    const MARK: &[u8] = b"crates/";
    let bytes = path.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i + MARK.len() <= bytes.len() {
        if i == 0 || bytes[i - 1] == b'/' {
            let mut j = 0;
            while j < MARK.len() && bytes[i + j] == MARK[j] {
                j += 1;
            }
            if j == MARK.len() {
                start = i;
            }
        }
        i += 1;
    }
    fnv1a(bytes.split_at(start).1)
}

/// Compile-time FNV-1a hash used by [`site_path_hash`].
#[must_use]
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
        i += 1;
    }
    hash
}

#[cfg(test)]
mod tests {
    #[test]
    fn site_pc_is_stable_and_distinct() {
        let a = site_pc!();
        let a2 = site_pc!();
        assert_ne!(a, a2, "distinct sites must hash differently");
        fn inner() -> u64 {
            site_pc!()
        }
        assert_eq!(inner(), inner(), "one site must be stable across executions");
    }

    #[test]
    fn site_path_hash_ignores_the_checkout_location() {
        use super::{fnv1a, site_path_hash};
        const REL: u64 = site_path_hash("crates/codecs/src/encoder.rs");
        const ABS: u64 = site_path_hash("/home/dev/src/vstress/crates/codecs/src/encoder.rs");
        const NESTED: u64 = site_path_hash("/srv/crates/vstress/crates/codecs/src/encoder.rs");
        assert_eq!(ABS, REL);
        assert_eq!(NESTED, REL, "the last crates/ component wins");
        // A workspace-relative path hashes exactly as before.
        assert_eq!(REL, fnv1a(b"crates/codecs/src/encoder.rs"));
        // Only a whole path component counts, and paths without one are
        // hashed whole.
        assert_eq!(site_path_hash("/x/mycrates/a.rs"), fnv1a(b"/x/mycrates/a.rs"));
        assert_eq!(site_path_hash("tests/a.rs"), fnv1a(b"tests/a.rs"));
        assert_ne!(REL, site_path_hash("crates/codecs/src/decoder.rs"));
    }

    #[test]
    fn site_pc_is_aligned_and_canonical() {
        let pc = site_pc!();
        assert_eq!(pc % 4, 0);
        assert_eq!(pc >> 44, 0x5);
    }

    #[test]
    fn fnv1a_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(super::fnv1a(b"a"), super::fnv1a(b"b"));
    }
}
