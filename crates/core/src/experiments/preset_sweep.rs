//! Fig. 11 — the speed-preset sweep on the headline clip.

use super::ExperimentConfig;
use crate::table::{f1, f2, f3, Table};
use crate::workbench::{CharacterizationRun, RunSpec, WorkbenchError};
use vstress_codecs::{CodecId, EncoderParams};

/// Fixed CRF used by the preset sweep (the paper holds CRF constant).
pub const SWEEP_CRF: u8 = 40;

/// One preset sample.
#[derive(Debug, Clone)]
pub struct PresetPoint {
    /// SVT-AV1 preset (0 slow – 8 fast).
    pub preset: u8,
    /// The full characterization.
    pub run: CharacterizationRun,
}

/// The preset sweep's specs: SVT-AV1 at [`SWEEP_CRF`] and every preset
/// point on the headline clip.
pub fn preset_sweep_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    cfg.preset_points
        .iter()
        .map(|&preset| {
            cfg.spec(cfg.headline_clip, CodecId::SvtAv1, EncoderParams::new(SWEEP_CRF, preset))
        })
        .collect()
}

/// Runs the SVT-AV1 preset sweep at fixed CRF.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn preset_sweep(cfg: &ExperimentConfig) -> Result<Vec<PresetPoint>, WorkbenchError> {
    let specs = preset_sweep_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    Ok(specs
        .iter()
        .zip(runs)
        .map(|(spec, run)| PresetPoint { preset: spec.params.preset, run: (*run).clone() })
        .collect())
}

/// Fig. 11a/11b — runtime, bitrate and PSNR vs preset.
pub fn fig11ab_runtime_quality(points: &[PresetPoint]) -> Table {
    let mut t = Table::new(
        format!("Fig. 11a/b — preset sweep (SVT-AV1, CRF {SWEEP_CRF}): runtime / bitrate / PSNR"),
        &["preset", "seconds", "instructions", "kbps", "psnr dB"],
    );
    for p in points {
        t.push_row(vec![
            p.preset.to_string(),
            format!("{:.4}", p.run.seconds),
            p.run.core.instructions.to_string(),
            f1(p.run.bitrate_kbps),
            f2(p.run.mean_psnr),
        ]);
    }
    t
}

/// Fig. 11c/d/e — top-down, MPKI and resource stalls vs preset (the paper
/// finds *no noticeable trend* in these).
pub fn fig11cde_microarch(points: &[PresetPoint]) -> Table {
    let mut t = Table::new(
        format!("Fig. 11c/d/e — preset sweep (SVT-AV1, CRF {SWEEP_CRF}): microarchitectural stats"),
        &[
            "preset",
            "retiring",
            "bad-spec",
            "frontend",
            "backend",
            "brMPKI",
            "L1D MPKI",
            "L2 MPKI",
            "RS stalls/ki",
        ],
    );
    for p in points {
        let r = &p.run.core;
        let td = r.topdown();
        let per_ki = |v: f64| {
            if r.instructions == 0 {
                0.0
            } else {
                v / r.instructions as f64 * 1000.0
            }
        };
        t.push_row(vec![
            p.preset.to_string(),
            f3(td.retiring),
            f3(td.bad_speculation),
            f3(td.frontend),
            f3(td.backend),
            f2(r.branch_mpki()),
            f2(r.l1d_mpki()),
            f2(r.l2_mpki()),
            f2(per_ki(r.resource_stalls.rs)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<PresetPoint> {
        let mut cfg = ExperimentConfig::quick();
        cfg.preset_points = vec![0, 4, 8];
        preset_sweep(&cfg).unwrap()
    }

    #[test]
    fn faster_presets_are_much_faster_with_modest_quality_loss() {
        let pts = points();
        let slow = &pts[0].run;
        let fast = &pts[2].run;
        // Fig. 11a: a large runtime drop from slow to fast presets.
        assert!(
            slow.seconds > fast.seconds * 4.0,
            "slow {} vs fast {}",
            slow.seconds,
            fast.seconds
        );
        // Fig. 11b: PSNR falls only modestly (paper: ~0.8 dB; allow 3).
        assert!(
            slow.mean_psnr - fast.mean_psnr < 3.0,
            "psnr drop too large: {} -> {}",
            slow.mean_psnr,
            fast.mean_psnr
        );
        // Bitrate does not collapse.
        assert!(fast.bitrate_kbps > slow.bitrate_kbps * 0.5);
    }

    #[test]
    fn microarch_stats_stay_roughly_flat_across_presets() {
        let pts = points();
        let t = fig11cde_microarch(&pts);
        let retiring: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let min = retiring.iter().cloned().fold(f64::MAX, f64::min);
        let max = retiring.iter().cloned().fold(0.0f64, f64::max);
        // Paper: "no noticeable trends" — allow a modest band.
        assert!(max - min < 0.2, "retiring varies too much: {retiring:?}");
    }
}
