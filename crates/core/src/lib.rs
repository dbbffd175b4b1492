//! `vstress` — a workbench reproducing *"Do Video Encoding Workloads
//! Stress the Microarchitecture?"* (IISWC 2023) entirely in Rust.
//!
//! The paper asks why AV1 encoding (SVT-AV1) runs an order of magnitude
//! slower than x264/x265/VP9 encoders, and answers with workload
//! characterization: the slowdown is *algorithmic* (a vastly larger
//! per-block search space ⇒ more instructions), not microarchitectural
//! (IPC stays ≈ 2, retiring ≈ 50% on a 4-wide core). This crate ties the
//! workbench's components together and provides one runner per paper
//! figure/table:
//!
//! * [`vstress_video`] — frames, synthetic vbench clips, PSNR/BD-Rate;
//! * [`vstress_codecs`] — the five instrumented encoder models and the
//!   matching decoder;
//! * [`vstress_trace`] — the Pin-substitute instrumentation layer;
//! * [`vstress_bpred`] / [`vstress_cache`] / [`vstress_pipeline`] — the
//!   CBP-style predictor framework, cache hierarchy, and top-down core
//!   model;
//! * [`vstress_sched`] — the thread-scalability engine;
//! * [`experiments`] — `fig01` … `fig16` and `table1`/`table2` runners
//!   that print the same rows/series the paper reports.
//!
//! # Quickstart
//!
//! ```
//! use vstress::workbench::{characterize, RunSpec};
//! use vstress_codecs::{CodecId, EncoderParams};
//!
//! let spec = RunSpec::quick("desktop", CodecId::SvtAv1, EncoderParams::new(50, 8));
//! let run = characterize(&spec).expect("desktop is a vbench clip");
//! assert!(run.core.ipc() > 0.5);
//! assert!(run.mean_psnr > 20.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cli;
pub mod exec;
pub mod experiments;
pub mod runtime;
pub mod table;
pub mod workbench;

pub use exec::{
    BranchWindow, Request, RunCache, RunCacheStats, RunStore, StoreStats, SCHEMA_VERSION,
};
pub use table::Table;
pub use workbench::{characterize, CharacterizationRun, RunSpec};

// Re-export the component crates so downstream users need one dependency.
pub use vstress_bpred as bpred;
pub use vstress_cache as cache;
pub use vstress_codecs as codecs;
pub use vstress_pipeline as pipeline;
pub use vstress_sched as sched;
pub use vstress_trace as trace;
pub use vstress_video as video;
