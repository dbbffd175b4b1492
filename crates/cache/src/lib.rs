//! Cache-hierarchy simulation for the `vstress` workbench.
//!
//! Models the memory system of the paper's evaluation machine (Intel Xeon
//! E5-2650 v4, Broadwell): per-core 32 KB L1I and L1D, a private 256 KB L2,
//! and a 30 MB shared last-level cache. The hierarchy consumes the real
//! data addresses emitted by the instrumented encoders (see
//! [`vstress_trace::Probe`]) and reports per-level hits, misses and MPKI —
//! the quantities behind the paper's Fig. 6b–6d.
//!
//! ```
//! use vstress_cache::{Hierarchy, HierarchyConfig};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::broadwell());
//! // Stream over one 16 KiB buffer: the first pass misses, later passes hit L1.
//! for pass in 0..3 {
//!     for addr in (0..16384u64).step_by(64) {
//!         mem.load(0x10_0000 + addr, 32);
//!     }
//!     if pass == 0 {
//!         assert!(mem.stats().l1d.misses > 0);
//!     }
//! }
//! let s = mem.stats();
//! assert!(s.l1d.hits > s.l1d.misses);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod policy;
pub mod prefetch;
#[cfg(test)]
mod reference;

pub use cache::{AccessKind, Cache, CacheStats};
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{Hierarchy, HierarchyStats, ServiceLevel};
pub use policy::ReplacementPolicy;
pub use prefetch::PrefetchList;
