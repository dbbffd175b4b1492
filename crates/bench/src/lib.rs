//! Library side of `vstress-bench`, the workspace's one microbenchmark
//! harness (the binary in `src/main.rs` times the kernels, simulators
//! and design-choice ablations and writes the JSON trajectory report).
//!
//! [`gate`] holds the `vstress-bench gate` comparison logic — the
//! perf-trajectory regression gate run by CI against the committed
//! `BENCH_*.json` baselines.

pub mod gate;
