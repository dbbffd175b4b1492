//! Out-of-order core modelling and top-down analysis — the stand-in for
//! Linux `perf` counters plus Intel's top-down method on the paper's
//! Xeon E5-2650 v4 (Broadwell).
//!
//! # Modelling approach
//!
//! A cycle-accurate OoO simulator is neither necessary nor appropriate
//! here: the paper's Figs. 4–6, 11 and 16 report *slot-accounting
//! aggregates* (retiring / bad-speculation / frontend-bound /
//! backend-bound fractions, IPC, MPKI, and resource-stall counters), all
//! of which are first-order functions of the event streams the encoders
//! produce. We therefore use an **interval model** (in the tradition of
//! interval simulation / Sniper): the core retires instructions at a
//! width-limited base rate, modulated by per-kernel ILP limits, and each
//! miss event (branch mispredict, I-cache miss, data-cache miss) inserts
//! a penalty interval whose wasted slots are attributed to the proper
//! top-down category. The model consumes the instrumented encoders'
//! operation stream directly by implementing
//! [`Probe`](vstress_trace::Probe).
//!
//! The approximations and their calibration are documented on
//! [`CoreConfig`]; every penalty/exposure parameter is a config field so
//! the `vstress-bench` ablations can vary them.
//!
//! ```
//! use vstress_pipeline::CoreModel;
//! use vstress_trace::{CanonicalizingProbe, Kernel, Probe};
//!
//! // Raw addresses are canonicalized on the way in, as a capture would.
//! let mut core = CanonicalizingProbe::new(CoreModel::broadwell());
//! core.set_kernel(Kernel::Sad);
//! for i in 0..1000u64 {
//!     core.avx(4);
//!     core.load(0x10_0000 + (i % 64) * 64, 32);
//!     core.branch(0x5000_0000_0000, i % 16 != 0);
//! }
//! let report = core.into_inner().into_report();
//! assert!(report.ipc() > 0.5 && report.ipc() <= 4.0);
//! let td = report.topdown();
//! let sum = td.retiring + td.bad_speculation + td.frontend + td.backend;
//! assert!((sum - 1.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod config;
pub mod model;
pub mod report;

pub use config::CoreConfig;
pub use model::CoreModel;
pub use report::{CoreReport, ResourceStalls, TopDownSlots};
