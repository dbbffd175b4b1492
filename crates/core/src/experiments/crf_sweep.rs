//! Figs. 4–7 — the CRF sweep: instructions/time/IPC, top-down, MPKI,
//! resource stalls and branch miss rate.
//!
//! All four figures come from the same set of instrumented runs, so
//! [`crf_sweep`] performs the sweep once and the per-figure formatters
//! slice it.

use super::ExperimentConfig;
use crate::table::{f1, f2, f3, Table};
use crate::workbench::{CharacterizationRun, RunSpec, WorkbenchError};
use vstress_codecs::{CodecId, EncoderParams};

/// One (clip, crf) sweep sample.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Clip name.
    pub clip: String,
    /// CRF value.
    pub crf: u8,
    /// The full characterization.
    pub run: CharacterizationRun,
}

/// The CRF sweep's specs: SVT-AV1 preset 4 at every CRF point on every
/// configured clip, clip-major.
pub fn crf_sweep_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    cfg.clips
        .iter()
        .flat_map(|&clip| {
            cfg.crf_points
                .iter()
                .map(move |&crf| cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(crf, 4)))
        })
        .collect()
}

/// Runs the SVT-AV1 preset-4 CRF sweep over the configured clips.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn crf_sweep(cfg: &ExperimentConfig) -> Result<Vec<SweepPoint>, WorkbenchError> {
    let specs = crf_sweep_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    Ok(specs
        .iter()
        .zip(runs)
        .map(|(spec, run)| SweepPoint {
            clip: spec.clip.to_owned(),
            crf: spec.params.crf,
            run: (*run).clone(),
        })
        .collect())
}

/// Fig. 4 — instruction count, execution time and IPC vs CRF.
pub fn fig04_crf_sweep(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 4 — CRF sweep (SVT-AV1, preset 4): instructions / time / IPC",
        &["Video", "CRF", "instructions", "seconds", "IPC"],
    );
    for p in points {
        t.push_row(vec![
            p.clip.clone(),
            p.crf.to_string(),
            p.run.core.instructions.to_string(),
            format!("{:.4}", p.run.seconds),
            f2(p.run.core.ipc()),
        ]);
    }
    t
}

/// Fig. 5 — top-down slot fractions vs CRF.
pub fn fig05_topdown(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 5 — top-down analysis (SVT-AV1, preset 4)",
        &["Video", "CRF", "retiring", "bad-spec", "frontend", "backend"],
    );
    for p in points {
        let td = p.run.core.topdown();
        t.push_row(vec![
            p.clip.clone(),
            p.crf.to_string(),
            f3(td.retiring),
            f3(td.bad_speculation),
            f3(td.frontend),
            f3(td.backend),
        ]);
    }
    t
}

/// Fig. 6 — branch/L1D/L2/LLC MPKI and per-structure resource stalls.
pub fn fig06_microarch(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 6 — microarchitectural analysis vs CRF (SVT-AV1, preset 4)",
        &[
            "Video",
            "CRF",
            "brMPKI",
            "L1D MPKI",
            "L2 MPKI",
            "LLC MPKI",
            "RS stalls/ki",
            "LQ stalls/ki",
            "SQ stalls/ki",
            "ROB stalls/ki",
        ],
    );
    for p in points {
        let r = &p.run.core;
        let per_ki = |v: f64| {
            if r.instructions == 0 {
                0.0
            } else {
                v / r.instructions as f64 * 1000.0
            }
        };
        t.push_row(vec![
            p.clip.clone(),
            p.crf.to_string(),
            f2(r.branch_mpki()),
            f2(r.l1d_mpki()),
            f2(r.l2_mpki()),
            f3(r.llc_mpki()),
            f2(per_ki(r.resource_stalls.rs)),
            f2(per_ki(r.resource_stalls.lq)),
            f2(per_ki(r.resource_stalls.sq)),
            f2(per_ki(r.resource_stalls.rob)),
        ]);
    }
    t
}

/// Fig. 7 — branch miss rate vs CRF.
pub fn fig07_missrate(points: &[SweepPoint]) -> Table {
    let mut t = Table::new(
        "Fig. 7 — branch miss rate vs CRF (SVT-AV1, preset 4)",
        &["Video", "CRF", "miss rate %"],
    );
    for p in points {
        t.push_row(vec![
            p.clip.clone(),
            p.crf.to_string(),
            f1(p.run.core.branch_miss_rate() * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_points() -> Vec<SweepPoint> {
        let mut cfg = ExperimentConfig::quick();
        cfg.clips = vec!["bike"];
        cfg.crf_points = vec![15, 55];
        crf_sweep(&cfg).unwrap()
    }

    #[test]
    fn sweep_reproduces_the_papers_headline_trends() {
        let pts = tiny_points();
        assert_eq!(pts.len(), 2);
        let (lo, hi) = (&pts[0], &pts[1]);
        // Work falls with CRF.
        assert!(
            lo.run.core.instructions > hi.run.core.instructions,
            "{} vs {}",
            lo.run.core.instructions,
            hi.run.core.instructions
        );
        // IPC stays in the ~2 band at both ends.
        for p in [lo, hi] {
            let ipc = p.run.core.ipc();
            assert!((1.2..3.2).contains(&ipc), "IPC {ipc}");
        }
        // Retiring fraction in the paper's 0.4–0.65 band.
        for p in [lo, hi] {
            let td = p.run.core.topdown();
            assert!((0.35..0.70).contains(&td.retiring), "retiring {}", td.retiring);
            // Backend dominates frontend dominates bad speculation.
            assert!(td.backend > td.bad_speculation, "{td:?}");
        }
    }

    #[test]
    fn tables_format_all_points() {
        let pts = tiny_points();
        assert_eq!(fig04_crf_sweep(&pts).rows.len(), 2);
        assert_eq!(fig05_topdown(&pts).rows.len(), 2);
        assert_eq!(fig06_microarch(&pts).rows.len(), 2);
        assert_eq!(fig07_missrate(&pts).rows.len(), 2);
    }

    #[test]
    fn topdown_rows_sum_to_one() {
        let pts = tiny_points();
        let t = fig05_topdown(&pts);
        for row in &t.rows {
            let sum: f64 = row[2..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((sum - 1.0).abs() < 0.01, "top-down row sums to {sum}");
        }
    }
}
