//! Regenerates every table and figure of the paper.
//!
//! ```text
//! vstress-repro                    # quick profile, all experiments
//! vstress-repro --quick            # the same, spelled out (CI uses this)
//! vstress-repro --paper            # full profile (slow; used for EXPERIMENTS.md)
//! vstress-repro --csv out/         # also write each table as CSV into out/
//! vstress-repro --threads 4        # encode workers (threads, one per encode)
//! vstress-repro --tile-workers 4   # intra-encode tile/wavefront threads
//! vstress-repro --frame-workers 4  # cross-frame pipeline depth
//! vstress-repro --store cache/     # persist results; repeat runs resume
//! vstress-repro --time             # plan + per-experiment wall clock on stderr
//! vstress-repro fig01 fig05        # subset of experiments
//! vstress-repro --store cache/ store-stats   # store maintenance report
//! ```
//!
//! Every wanted experiment's run-cache requests run first, as one plan
//! grouped by encode point, one pass over each point that keeps no event
//! stream unless the store must write it; the runners then only read
//! memos and format tables. Each of the `--threads N` workers runs an
//! encode and that encode's simulation (its recorder feeds the core
//! models and branch windows as it goes), so `N` workers use `N` threads,
//! plus any `--tile-workers`/`--frame-workers` helpers inside an encode.
//!
//! With `--store DIR`, completed characterization runs (and branch
//! windows / decode-cost pairs) persist under `DIR`, so an interrupted
//! or repeated invocation of the same profile reloads them instead of
//! re-encoding — the second run performs zero encodes and prints
//! byte-identical tables. Without `--store` nothing persists; store
//! diagnostics go to stderr only, so stdout stays comparable across
//! runs.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vstress::cli::{self, FlagSpec};
use vstress::experiments::{self, ExperimentConfig, EXPERIMENTS};
use vstress::{RunStore, Table};

/// Every flag this binary accepts; anything else `--`-prefixed is a
/// usage error (exit 2), as are missing or flag-like values.
const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--quick", "quick profile (the default, spelled out)"),
    FlagSpec::switch("--paper", "full profile (slow; behind EXPERIMENTS.md)"),
    FlagSpec::switch("--time", "plan and per-experiment wall clock on stderr"),
    FlagSpec::value("--csv", "DIR", "also write each table as CSV into DIR"),
    FlagSpec::value("--threads", "N", "workers, each an encode and its simulation (positive)"),
    FlagSpec::value("--tile-workers", "N", "tile/wavefront threads per encode (positive)"),
    FlagSpec::value("--frame-workers", "N", "cross-frame pipeline depth per encode (positive)"),
    FlagSpec::value("--store", "DIR", "persist results; repeat runs resume"),
];

/// Prints a usage error plus the flag table and exits 2.
fn usage_error(e: &cli::CliError) -> ! {
    eprintln!("error: {e}");
    eprint!("{}", cli::usage("vstress-repro", "[flags] [experiment ids...]", FLAGS));
    std::process::exit(cli::USAGE_EXIT.into());
}

/// `store-stats` is a maintenance report, not an experiment: it prints
/// the attached store's on-disk footprint (entries and bytes per kind,
/// plus quarantined files) after the experiments, and runs **only when
/// explicitly named**, so the default experiment set's stdout stays
/// byte-comparable.
const STORE_STATS: &str = "store-stats";

/// Every id accepted as a positional argument: the experiments', then
/// `store-stats`.
fn valid_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().flat_map(|e| e.ids.iter().copied()).chain([STORE_STATS])
}

/// Prints a table and optionally mirrors it to `<csv_dir>/<slug>.csv`.
///
/// A failed CSV write is an error: `--csv` promises a complete artifact
/// directory, so a truncated one must fail the process, not warn.
fn emit(csv_dir: &Option<PathBuf>, slug: &str, table: &Table) -> std::io::Result<()> {
    println!("{table}");
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv())
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    }
    Ok(())
}

/// Reports a step's wall clock on stderr when `--time` is set. Stdout
/// carries only the tables either way, so runs stay byte-comparable.
fn report_time(enabled: bool, id: &str, t0: Instant) {
    if enabled {
        eprintln!("vstress-repro: [time] {id}: {:.3}s", t0.elapsed().as_secs_f64());
    }
}

fn csv_error(e: std::io::Error) -> String {
    format!("could not write CSV: {e}")
}

/// Computes every wanted experiment's requests as one plan (each event
/// stream is freed after its last use), then runs the experiments
/// against the warm memos and prints their tables.
fn run(
    cfg: &ExperimentConfig,
    want: impl Fn(&str) -> bool,
    csv_dir: &Option<PathBuf>,
    time: bool,
) -> Result<(), String> {
    let t0 = Instant::now();
    let plan = experiments::plan(cfg, &want);
    cfg.cache.run_plan(cfg.threads, &plan).map_err(|e| e.to_string())?;
    report_time(time, "plan", t0);
    for e in EXPERIMENTS.iter().filter(|e| e.ids.iter().any(|id| want(id))) {
        let t0 = Instant::now();
        for (slug, table) in (e.run)(cfg).map_err(|e| e.to_string())? {
            emit(csv_dir, &slug, &table).map_err(csv_error)?;
        }
        report_time(time, e.name, t0);
    }
    if want(STORE_STATS) {
        if let Some(store) = cfg.cache.store() {
            let t0 = Instant::now();
            emit(csv_dir, "store_stats", &store_stats_table(store)).map_err(csv_error)?;
            report_time(time, STORE_STATS, t0);
        }
    }
    Ok(())
}

/// The `store-stats` maintenance report: one row per entry kind plus a
/// quarantine total, from [`RunStore::disk_usage`].
fn store_stats_table(store: &RunStore) -> Table {
    let usage = store.disk_usage();
    let mut t = Table::new(
        format!("Store statistics (schema v{})", vstress::SCHEMA_VERSION),
        &["kind", "entries", "bytes"],
    );
    for k in &usage.kinds {
        t.push_row(vec![k.kind.clone(), k.entries.to_string(), k.bytes.to_string()]);
    }
    t.push_row(vec!["(quarantined)".into(), usage.quarantined.to_string(), "-".into()]);
    t
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args, FLAGS) {
        Ok(p) => p,
        Err(e) => usage_error(&e),
    };
    let paper = parsed.switch("--paper");
    // `--quick` names the default profile explicitly (scripts and CI can
    // state their intent); it only conflicts with `--paper`.
    if paper && parsed.switch("--quick") {
        eprintln!("--quick and --paper are mutually exclusive");
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let time = parsed.switch("--time");
    let csv_dir: Option<PathBuf> = parsed.value("--csv").map(PathBuf::from);
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let threads: Option<usize> = match parsed.parsed("--threads", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    // Intra-encode parallelism; stdout is byte-identical at any value
    // (the probe-merge contract), so CI compares runs across settings.
    let tile_workers: Option<usize> = match parsed.parsed("--tile-workers", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    // Cross-frame pipelining; equally invisible on stdout.
    let frame_workers: Option<usize> = match parsed.parsed("--frame-workers", cli::positive_usize) {
        Ok(t) => t,
        Err(e) => usage_error(&e),
    };
    let store_dir: Option<PathBuf> = parsed.value("--store").map(PathBuf::from);
    let unknown: Vec<&String> =
        parsed.positionals.iter().filter(|p| !valid_ids().any(|id| id == p.as_str())).collect();
    if !unknown.is_empty() {
        for u in &unknown {
            eprintln!("unknown experiment: {u}");
        }
        eprintln!("valid experiments: {}", valid_ids().collect::<Vec<_>>().join(" "));
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let wanted: BTreeSet<String> = parsed.positionals.into_iter().collect();
    let mut cfg = if paper { ExperimentConfig::paper() } else { ExperimentConfig::quick() };
    if let Some(n) = threads {
        cfg = cfg.with_threads(n);
    }
    if let Some(n) = tile_workers {
        cfg = cfg.with_tile_workers(n);
    }
    if let Some(n) = frame_workers {
        cfg = cfg.with_frame_workers(n);
    }
    if let Some(dir) = &store_dir {
        match RunStore::open(dir) {
            Ok(store) => cfg = cfg.with_store(Arc::new(store)),
            Err(e) => {
                eprintln!("cannot open store {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    // `store-stats` only runs when explicitly named and needs a store.
    if wanted.contains(STORE_STATS) && store_dir.is_none() {
        eprintln!("store-stats requires --store DIR");
        std::process::exit(cli::USAGE_EXIT.into());
    }
    let run_all = wanted.is_empty();
    let want = |id: &str| (run_all && id != STORE_STATS) || wanted.contains(id);

    eprintln!(
        "vstress-repro: profile = {}, threads = {}, clips = {:?}",
        if paper { "paper" } else { "quick" },
        cfg.threads,
        cfg.clips
    );
    if let Some(dir) = &store_dir {
        eprintln!("vstress-repro: store = {}", dir.display());
    }

    let result = run(&cfg, want, &csv_dir, time);

    if store_dir.is_some() {
        let s = cfg.cache.stats();
        eprintln!(
            "vstress-repro: store {} hits, {} misses, {} quarantined",
            s.store_hits, s.store_misses, s.store_quarantined
        );
        eprintln!(
            "vstress-repro: work {} encodes, {} stream captures, {} captures evicted",
            s.encodes, s.stream_captures, s.captures_evicted
        );
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
