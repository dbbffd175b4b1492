//! Command-line tests for `vstress-bench`, driving the built binary.
//!
//! `--list` is the cheap way to see the suite's shape: it walks every
//! metric without timing anything, so it must stay fast (no ablation
//! workload is built) and its names must be unique — the gate matches
//! metrics by name.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BENCH: &str = env!("CARGO_BIN_EXE_vstress-bench");

/// The six ablation groups of DESIGN.md §6, one metric per configuration.
const ABLATION_GROUPS: [&str; 6] = [
    "ablation_predictor_",
    "ablation_tage_tables_",
    "ablation_cache_",
    "ablation_mlp_",
    "ablation_search_space_",
    "ablation_early_exit_",
];

/// The transform and range-coder kernels timed alongside the pixel kernels.
const CODING_KERNELS: [&str; 5] = [
    "transform_fwd_8x8",
    "transform_inv_8x8",
    "satd_16x16",
    "entropy_encode_10k_bins",
    "entropy_decode_10k_bins",
];

fn run(args: &[&str]) -> Output {
    Command::new(BENCH).args(args).output().expect("spawn vstress-bench")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn listed_names(args: &[&str]) -> Vec<String> {
    let out = run(args);
    assert!(out.status.success(), "{args:?}: {}", stderr_of(&out));
    String::from_utf8(out.stdout).unwrap().lines().map(str::to_owned).collect()
}

#[test]
fn list_is_quick_and_builds_no_ablation_workload() {
    for args in [&["--list"][..], &["--list", "--filter", "ablation_"]] {
        let start = Instant::now();
        let out = run(args);
        let elapsed = start.elapsed();
        assert!(out.status.success(), "{args:?}: {}", stderr_of(&out));
        let stderr = stderr_of(&out);
        assert!(!stderr.contains("ablation traces"), "{args:?} built the traces: {stderr}");
        assert!(!stderr.contains("[ablation]"), "{args:?} ran an ablation: {stderr}");
        // Generous for an unoptimized test build; a listing that encodes
        // or times anything lands far above it.
        assert!(elapsed < Duration::from_secs(30), "{args:?} took {elapsed:?}");
    }
}

#[test]
fn list_names_are_unique_and_cover_ablations_and_coding_kernels() {
    let names = listed_names(&["--list"]);
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate metric names in {names:?}");

    for group in ABLATION_GROUPS {
        assert!(names.iter().any(|n| n.starts_with(group)), "no {group}* metric in {names:?}");
    }
    let ablations = names.iter().filter(|n| n.starts_with("ablation_")).count();
    assert_eq!(ablations, 25, "one metric per ablation configuration");
    for kernel in CODING_KERNELS {
        assert!(names.iter().any(|n| n == kernel), "{kernel} missing from {names:?}");
    }

    // `--filter ablation_` selects exactly the ablation family.
    let filtered = listed_names(&["--list", "--filter", "ablation_"]);
    assert_eq!(filtered.len(), ablations);
    assert!(filtered.iter().all(|n| n.starts_with("ablation_")), "{filtered:?}");
}

#[test]
fn worker_count_flags_are_unknown() {
    for flag in ["--tile-workers", "--frame-workers"] {
        let out = run(&[flag, "2", "--list"]);
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(flag), "{flag}: {}", stderr_of(&out));
    }
}
