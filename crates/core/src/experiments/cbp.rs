//! Figs. 8–10 — the Championship-Branch-Prediction study.
//!
//! For each clip, a mid-run branch-trace window is captured (the paper's
//! "interval of 1 billion instructions roughly halfway through the run",
//! scaled to this workbench's instruction counts) and replayed through
//! the four predictors the paper simulates: Gshare at 2 KB and 32 KB,
//! TAGE at 8 KB and 64 KB.

use super::ExperimentConfig;
use crate::table::{f1, f2, Table};
use crate::workbench::{RunSpec, WorkbenchError};
use vstress_bpred::{harness, BranchPredictor, Gshare, Tage};
use vstress_codecs::{CodecId, EncoderParams};

/// Results for one clip under the four predictors.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CbpRow {
    /// Clip name.
    pub clip: String,
    /// Branches in the window.
    pub branches: u64,
    /// (label, miss rate, mpki) per predictor.
    pub predictors: Vec<(String, f64, f64)>,
}

/// The (preset, CRF) trace points of Figs. 8, 9 and 10.
pub const TRACE_POINTS: [(u8, u8); 3] = [(8, 63), (4, 10), (4, 60)];

/// The CBP study's window specs at one (preset, CRF) trace point: one
/// SVT-AV1 encode per configured clip, each windowed at
/// [`ExperimentConfig::cbp_window`] instructions.
pub fn window_specs(cfg: &ExperimentConfig, preset: u8, crf: u8) -> Vec<RunSpec> {
    cfg.clips
        .iter()
        .map(|&clip| cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(crf, preset)))
        .collect()
}

/// Number of predictor configurations the paper simulates.
pub const PAPER_PREDICTOR_COUNT: usize = 4;

/// The `i`-th of the paper's predictor configurations, freshly
/// constructed (each replay needs untrained tables).
fn paper_predictor(i: usize) -> Box<dyn BranchPredictor> {
    match i {
        0 => Box::new(Gshare::with_budget_bytes(2 << 10)),
        1 => Box::new(Gshare::with_budget_bytes(32 << 10)),
        2 => Box::new(Tage::seznec_8kb()),
        _ => Box::new(Tage::seznec_64kb()),
    }
}

/// The paper's four predictor configurations.
pub fn paper_predictors() -> Vec<Box<dyn BranchPredictor>> {
    (0..PAPER_PREDICTOR_COUNT).map(paper_predictor).collect()
}

/// Runs the CBP study at a given (preset, CRF) trace point.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn cbp_study(
    cfg: &ExperimentConfig,
    preset: u8,
    crf: u8,
) -> Result<(Table, Vec<CbpRow>), WorkbenchError> {
    let mut table = Table::new(
        format!("CBP study — simulated predictors on branch windows (preset {preset}, CRF {crf})"),
        &[
            "Video",
            "branches",
            "gshare-2KB miss%",
            "gshare-2KB MPKI",
            "gshare-32KB miss%",
            "gshare-32KB MPKI",
            "tage-8KB miss%",
            "tage-8KB MPKI",
            "tage-64KB miss%",
            "tage-64KB MPKI",
        ],
    );
    // Window capture and predictor replay are pure per-(clip, predictor)
    // functions, so the whole replay matrix fans out over the executor's
    // queue at its finest grain: job `i` replays predictor `i % 4` on
    // clip `i / 4`. Clip-major indexing keeps the first-failure contract
    // clip-ordered, and the window cache hands every job of a clip the
    // same `Arc`-shared record buffer (the first job computes it, the
    // other three block briefly on the memo slot instead of recapturing).
    let n = PAPER_PREDICTOR_COUNT;
    let specs = window_specs(cfg, preset, crf);
    let matrix = vstress_codecs::batch::run_ordered(
        specs.len() * n,
        cfg.threads,
        |i| -> Result<(String, harness::BpredStats), WorkbenchError> {
            // The window cache hands out the shared records (an `Arc`
            // bump, not a copy of the record vector).
            let window = cfg.cache.branch_window(&specs[i / n], cfg.cbp_window)?;
            let mut p = paper_predictor(i % n);
            let stats = harness::run_with_window(&mut p, &window.records, window.instructions);
            Ok((p.label(), stats))
        },
    )?;
    let mut rows = Vec::new();
    for (spec, clip_results) in specs.iter().zip(matrix.chunks(n)) {
        let clip_name = spec.clip;
        // Every predictor replayed the same window, so any job's branch
        // count is the clip's window size.
        let branches = clip_results[0].1.branches;
        let mut row = CbpRow { clip: clip_name.to_owned(), branches, predictors: Vec::new() };
        let mut cells = vec![clip_name.to_owned(), branches.to_string()];
        for (label, stats) in clip_results {
            cells.push(f1(stats.miss_rate() * 100.0));
            cells.push(f2(stats.mpki()));
            row.predictors.push((label.clone(), stats.miss_rate(), stats.mpki()));
        }
        table.push_row(cells);
        rows.push(row);
    }
    Ok((table, rows))
}

/// Fig. 8 — traces from preset 8, CRF 63 (the paper's configuration).
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig08_cbp(cfg: &ExperimentConfig) -> Result<(Table, Vec<CbpRow>), WorkbenchError> {
    let (preset, crf) = TRACE_POINTS[0];
    cbp_study(cfg, preset, crf)
}

/// Fig. 9 — traces from preset 4, CRF 10.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig09_cbp(cfg: &ExperimentConfig) -> Result<(Table, Vec<CbpRow>), WorkbenchError> {
    let (preset, crf) = TRACE_POINTS[1];
    cbp_study(cfg, preset, crf)
}

/// Fig. 10 — traces from preset 4, CRF 60.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig10_cbp(cfg: &ExperimentConfig) -> Result<(Table, Vec<CbpRow>), WorkbenchError> {
    let (preset, crf) = TRACE_POINTS[2];
    cbp_study(cfg, preset, crf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tiny_cfg() -> ExperimentConfig {
        // Texture-rich clips give the window enough branch volume to warm
        // the large predictor tables; the paper's 1B-instruction windows
        // have the same property. Screen content (desktop) at the fastest
        // preset produces traces too short for a 32 KB gshare to train,
        // so it is exercised by the full profile instead.
        let mut c = ExperimentConfig::quick();
        c.clips = vec!["game2", "hall"];
        c.cbp_window = 4_000_000;
        c
    }

    #[test]
    fn bigger_and_smarter_predictors_win() {
        let (_, rows) = fig08_cbp(&tiny_cfg()).unwrap();
        for row in &rows {
            assert!(row.branches > 100, "{}: window too small ({})", row.clip, row.branches);
            let get = |label: &str| {
                row.predictors
                    .iter()
                    .find(|(l, _, _)| l == label)
                    .map(|&(_, miss, _)| miss)
                    .unwrap_or_else(|| panic!("predictor {label} missing"))
            };
            let g2 = get("gshare-2KB");
            let g32 = get("gshare-32KB");
            let t8 = get("tage-8KB");
            let t64 = get("tage-64KB");
            // The paper's two findings: size helps within a family, and
            // TAGE beats gshare.
            assert!(g32 <= g2 + 0.01, "{}: gshare-32 {g32} vs gshare-2 {g2}", row.clip);
            assert!(t64 <= t8 + 0.01, "{}: tage-64 {t64} vs tage-8 {t8}", row.clip);
            assert!(t8 < g2, "{}: tage-8 {t8} must beat gshare-2 {g2}", row.clip);
        }
    }

    #[test]
    fn window_capture_is_reproducible() {
        let cfg = tiny_cfg();
        let spec = cfg.spec("game2", CodecId::SvtAv1, EncoderParams::new(63, 8));
        let a = cfg.cache.branch_window(&spec, cfg.cbp_window).unwrap();
        let b = cfg.cache.branch_window(&spec, cfg.cbp_window).unwrap();
        assert_eq!(a.records, b.records, "branch windows must be deterministic");
        assert_eq!(a.instructions, b.instructions);
        // The two handles share one cached allocation — the whole point
        // of the Arc-shaped window.
        assert!(Arc::ptr_eq(&a, &b), "repeat captures must share the cached window");
    }

    /// Satellite guarantee for the fanned-out replay matrix: the study's
    /// tables and rows are byte-identical no matter how many workers
    /// replay the (clip × predictor) jobs.
    #[test]
    fn parallel_replay_matrix_matches_serial() {
        let mut serial_cfg = tiny_cfg();
        serial_cfg.threads = 1;
        let (serial_table, serial_rows) = fig08_cbp(&serial_cfg).unwrap();
        for workers in [2, 4] {
            let mut cfg = tiny_cfg();
            cfg.threads = workers;
            let (table, rows) = fig08_cbp(&cfg).unwrap();
            assert_eq!(table, serial_table, "{workers}-worker table diverged from serial");
            assert_eq!(rows, serial_rows, "{workers}-worker rows diverged from serial");
        }
    }
}
