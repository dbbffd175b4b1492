//! Figs. 1 and 2 — cross-codec runtime and quality/rate comparisons.

use super::ExperimentConfig;
use crate::table::{f1, f2, Table};
use crate::workbench::{equivalent_params, RunSpec, WorkbenchError};
use vstress_codecs::{CodecId, EncoderParams};
use vstress_video::bdrate::{bd_rate, RatePoint};

/// One (codec, crf) runtime measurement.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RuntimePoint {
    /// Codec measured.
    pub codec: CodecId,
    /// AV1-family CRF of the quality point.
    pub crf: u8,
    /// Modelled execution time in seconds.
    pub seconds: f64,
    /// Retired instructions.
    pub instructions: u64,
}

/// Fig. 1's specs: every codec at every CRF point on the headline clip,
/// at preset-4-equivalent speed, each with its AV1-family CRF.
pub fn fig01_specs(cfg: &ExperimentConfig) -> Vec<(u8, RunSpec)> {
    cfg.crf_points
        .iter()
        .flat_map(|&crf| {
            CodecId::ALL.map(|codec| {
                (crf, cfg.spec(cfg.headline_clip, codec, equivalent_params(codec, crf, 4)))
            })
        })
        .collect()
}

/// Fig. 1 — execution time of every codec across the CRF range on the
/// headline clip (`game1`), at preset-4-equivalent speed.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig01_runtime_vs_crf(
    cfg: &ExperimentConfig,
) -> Result<(Table, Vec<RuntimePoint>), WorkbenchError> {
    let (crfs, specs): (Vec<u8>, Vec<RunSpec>) = fig01_specs(cfg).into_iter().unzip();
    let runs = cfg.run_specs(&specs)?;
    let mut points = Vec::new();
    let mut table = Table::new(
        format!("Fig. 1 — execution time vs CRF ({})", cfg.headline_clip),
        &["codec", "crf", "seconds", "instructions"],
    );
    for ((crf, spec), run) in crfs.into_iter().zip(&specs).zip(runs) {
        let codec = spec.codec;
        table.push_row(vec![
            codec.name().to_owned(),
            crf.to_string(),
            format!("{:.4}", run.seconds),
            run.core.instructions.to_string(),
        ]);
        points.push(RuntimePoint {
            codec,
            crf,
            seconds: run.seconds,
            instructions: run.core.instructions,
        });
    }
    Ok((table, points))
}

/// One codec's rate/quality curve plus its mean runtime.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BdCurve {
    /// Codec measured.
    pub codec: CodecId,
    /// Rate/quality ladder.
    pub points: Vec<RatePoint>,
    /// Mean modelled runtime across the ladder, seconds.
    pub mean_seconds: f64,
}

/// Fig. 2a's four-point quality ladder spanning the usable range.
const LADDER: [u8; 4] = [12, 26, 40, 54];

/// Fig. 2a's specs: every codec over the four-point CRF ladder on the
/// headline clip, codec-major.
pub fn fig02a_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    CodecId::ALL
        .into_iter()
        .flat_map(|codec| {
            LADDER.map(|crf| cfg.spec(cfg.headline_clip, codec, equivalent_params(codec, crf, 4)))
        })
        .collect()
}

/// Fig. 2a — PSNR BD-Rate (vs the x264 anchor) against execution time.
///
/// # Errors
///
/// Propagates [`WorkbenchError`]; BD-Rate math errors are reported as
/// `"n/a"` cells (disjoint quality ranges can happen at tiny fidelity).
pub fn fig02a_bdrate(cfg: &ExperimentConfig) -> Result<(Table, Vec<BdCurve>), WorkbenchError> {
    let runs = cfg.run_specs(&fig02a_specs(cfg))?;
    let mut curves = Vec::new();
    for (codec, ladder_runs) in CodecId::ALL.into_iter().zip(runs.chunks(LADDER.len())) {
        let mut points = Vec::new();
        let mut secs = 0.0;
        for run in ladder_runs {
            points.push(RatePoint { bitrate_kbps: run.bitrate_kbps, psnr_db: run.mean_psnr });
            secs += run.seconds;
        }
        curves.push(BdCurve { codec, points, mean_seconds: secs / LADDER.len() as f64 });
    }
    let anchor =
        curves.iter().find(|c| c.codec == CodecId::X264).expect("x264 is in ALL").points.clone();
    let mut table = Table::new(
        format!("Fig. 2a — PSNR BD-Rate (anchor: x264) vs execution time ({})", cfg.headline_clip),
        &["codec", "bd-rate %", "mean seconds"],
    );
    for c in &curves {
        let bd = bd_rate(&anchor, &c.points).map(f1).unwrap_or_else(|_| "n/a".to_owned());
        table.push_row(vec![c.codec.name().to_owned(), bd, format!("{:.4}", c.mean_seconds)]);
    }
    Ok((table, curves))
}

/// Fig. 2b's specs: SVT-AV1 preset 4 at every CRF point on the
/// headline clip.
pub fn fig02b_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    cfg.crf_points
        .iter()
        .map(|&crf| cfg.spec(cfg.headline_clip, CodecId::SvtAv1, EncoderParams::new(crf, 4)))
        .collect()
}

/// Fig. 2b — PSNR vs execution time for SVT-AV1 at preset 4.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig02b_psnr_vs_time(cfg: &ExperimentConfig) -> Result<Table, WorkbenchError> {
    let specs = fig02b_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    let mut table = Table::new(
        format!("Fig. 2b — PSNR vs execution time, SVT-AV1 preset 4 ({})", cfg.headline_clip),
        &["crf", "seconds", "psnr dB", "kbps"],
    );
    for (spec, run) in specs.iter().zip(runs) {
        table.push_row(vec![
            spec.params.crf.to_string(),
            format!("{:.4}", run.seconds),
            f2(run.mean_psnr),
            f1(run.bitrate_kbps),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick();
        c.crf_points = vec![20, 55];
        c
    }

    #[test]
    fn fig01_svt_is_slowest_at_every_crf() {
        let (_, points) = fig01_runtime_vs_crf(&tiny_cfg()).unwrap();
        for &crf in &[20u8, 55] {
            let of = |codec| {
                points.iter().find(|p| p.codec == codec && p.crf == crf).map(|p| p.seconds).unwrap()
            };
            let svt = of(CodecId::SvtAv1);
            for other in [CodecId::LibvpxVp9, CodecId::X264, CodecId::X265] {
                assert!(svt > of(other), "crf {crf}: SVT {svt} must exceed {other} {}", of(other));
            }
            assert!(
                svt > of(CodecId::X264) * 4.0,
                "crf {crf}: the SVT/x264 gap should be large: {} vs {}",
                svt,
                of(CodecId::X264)
            );
        }
    }

    #[test]
    fn fig01_runtime_falls_with_crf() {
        let (_, points) = fig01_runtime_vs_crf(&tiny_cfg()).unwrap();
        let svt_lo =
            points.iter().find(|p| p.codec == CodecId::SvtAv1 && p.crf == 20).unwrap().seconds;
        let svt_hi =
            points.iter().find(|p| p.codec == CodecId::SvtAv1 && p.crf == 55).unwrap().seconds;
        assert!(svt_lo > svt_hi, "runtime must fall with CRF: {svt_lo} vs {svt_hi}");
    }

    #[test]
    fn fig02b_quality_falls_and_speeds_up_with_crf() {
        let t = fig02b_psnr_vs_time(&tiny_cfg()).unwrap();
        assert_eq!(t.rows.len(), 2);
        let psnr0: f64 = t.rows[0][2].parse().unwrap();
        let psnr1: f64 = t.rows[1][2].parse().unwrap();
        assert!(psnr0 > psnr1);
        let s0: f64 = t.rows[0][1].parse().unwrap();
        let s1: f64 = t.rows[1][1].parse().unwrap();
        assert!(s0 >= s1);
    }
}
