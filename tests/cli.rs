//! Regression tests for the binaries' command-line parsing.
//!
//! These invoke the *built binaries* (via `CARGO_BIN_EXE_*`), because
//! the bugs they pin lived in the binaries' hand-rolled parsers, not in
//! the library: `--csv --threads 4` used to create a directory named
//! `--threads`, a trailing `--csv` was silently ignored, and unknown
//! flags (the typo `--thread 4`, `--paperr`) were silently skipped.
//! Usage errors must exit with code 2 and say what was wrong; runtime
//! errors keep exit code 1.

use std::path::Path;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_vstress-repro");
const TRANSCODE: &str = env!("CARGO_BIN_EXE_vstress-transcode");

/// Runs `bin` with `args` in a fresh temp dir (so stray files created
/// by a regression are visible and isolated) and returns the output
/// plus the temp dir path.
fn run_in_tempdir(bin: &str, args: &[&str]) -> (Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "vstress-cli-test-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).args(args).current_dir(&dir).output().expect("spawn binary");
    (out, dir)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn repro_csv_with_flag_like_value_is_rejected() {
    let (out, dir) = run_in_tempdir(REPRO, &["--csv", "--threads", "4"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--csv"), "stderr: {}", stderr_of(&out));
    // The old bug: a directory literally named `--threads`.
    assert!(!dir.join("--threads").exists(), "must not create a flag-named directory");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_trailing_csv_is_rejected() {
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--csv"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--csv needs a DIR"), "stderr: {}", stderr_of(&out));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_threads_validation() {
    for bad in [&["--threads", "--csv"][..], &["--threads", "0"], &["--threads", "abc"]] {
        let (out, dir) = run_in_tempdir(REPRO, bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("--threads"), "args {bad:?}: {}", stderr_of(&out));
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn repro_frame_workers_validation() {
    for bad in [&["--frame-workers", "0"][..], &["--frame-workers", "abc"], &["--frame-workers"]] {
        let (out, dir) = run_in_tempdir(REPRO, bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("--frame-workers"), "args {bad:?}: {}", stderr_of(&out));
        std::fs::remove_dir_all(dir).ok();
    }
    // The valid spellings parse (table1 is catalogue-only, cheap).
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--frame-workers=4"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_unknown_flags_are_rejected_with_usage() {
    for (args, expect) in [(&["--thread", "4"][..], "--thread"), (&["--paperr"][..], "--paperr")] {
        let (out, dir) = run_in_tempdir(REPRO, args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {err}");
        assert!(err.contains(&format!("unknown flag: {expect}")), "{err}");
        // The usage message lists the valid flags.
        assert!(err.contains("--threads") && err.contains("--paper"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn repro_no_store_is_an_unknown_flag() {
    // Leaving out `--store` is the only way to run without a store.
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--no-store"]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown flag: --no-store"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_unknown_experiment_still_rejected() {
    let (out, dir) = run_in_tempdir(REPRO, &["figxx"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("unknown experiment: figxx"), "{err}");
    assert!(err.contains("valid experiments:"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_equals_spelling_works() {
    // Regression: `--threads=4` used to be rejected as `unknown flag:
    // --threads=4` because the lookup matched the whole token. table1
    // is catalogue-only, so the accepted spelling also runs cheaply.
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--threads=4"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(!out.stdout.is_empty());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_empty_equals_value_is_rejected() {
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--threads="]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--threads needs a N"), "stderr: {}", stderr_of(&out));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_inline_value_on_switch_is_rejected() {
    let (out, dir) = run_in_tempdir(REPRO, &["table1", "--quick=1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--quick") && err.contains("switch takes no value"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn repro_happy_path_table1() {
    // table1 is pure catalogue output — cheap enough for a CLI test.
    let (out, dir) = run_in_tempdir(REPRO, &["table1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert!(!out.stdout.is_empty());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn transcode_store_value_validation() {
    for bad in [&["trace", "--store"][..], &["trace", "--store", "--quick"]] {
        let (out, dir) = run_in_tempdir(TRANSCODE, bad);
        assert_eq!(out.status.code(), Some(2), "args {bad:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains("--store needs a DIR"), "{}", stderr_of(&out));
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn transcode_trace_is_identical_with_and_without_the_store() {
    // Without a store the window is recorded by a live probe on a second
    // encode; with one it is sliced out of a replayed event stream, cold
    // (captured here) or warm (loaded back). All three files must match.
    let (plain, dir) = run_in_tempdir(TRANSCODE, &["trace", "clip:cat", "plain.vbt"]);
    assert_eq!(plain.status.code(), Some(0), "{}", stderr_of(&plain));
    for (name, misses) in [("cold.vbt", None), ("warm.vbt", Some("0 misses"))] {
        let out = Command::new(TRANSCODE)
            .args(["trace", "--store", "store", "clip:cat", name])
            .current_dir(&dir)
            .output()
            .expect("spawn binary");
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(0), "{name}: {err}");
        if let Some(misses) = misses {
            assert!(err.contains(misses), "{name}: {err}");
        }
    }
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    let expect = read("plain.vbt");
    assert!(!expect.is_empty());
    assert!(read("cold.vbt") == expect, "cold store trace differs from the live one");
    assert!(read("warm.vbt") == expect, "warm store trace differs from the live one");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn transcode_unknown_flag_is_rejected() {
    let (out, dir) = run_in_tempdir(TRANSCODE, &["encode", "clip:cat", "out.vst", "--fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag: --fast"), "{}", stderr_of(&out));
    assert!(!Path::new(&dir).join("out.vst").exists());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn transcode_missing_subcommand_is_a_runtime_error() {
    let (out, dir) = run_in_tempdir(TRANSCODE, &[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("usage"), "{}", stderr_of(&out));
    std::fs::remove_dir_all(dir).ok();
}
