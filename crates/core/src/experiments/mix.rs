//! Table 2 and Fig. 3 — instruction-mix analyses.

use super::crf_sweep::crf_sweep_specs;
use super::ExperimentConfig;
use crate::table::{f1, sci, Table};
use crate::workbench::{RunSpec, WorkbenchError};
use vstress_codecs::{CodecId, EncoderParams};
use vstress_trace::OpClass;

/// Table 2's specs: counting-only SVT-AV1 at preset 8, CRF 63 on every
/// configured clip.
pub fn table2_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    cfg.clips
        .iter()
        .map(|&clip| cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(63, 8)).counting_only())
        .collect()
}

/// Fig. 3's specs: the CRF sweep's points, counting only.
pub fn fig03_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    crf_sweep_specs(cfg).into_iter().map(RunSpec::counting_only).collect()
}

/// Table 2 — instruction mix of SVT-AV1 per clip at preset 8, CRF 63
/// (the paper's exact configuration).
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn table2_instruction_mix(cfg: &ExperimentConfig) -> Result<Table, WorkbenchError> {
    let mut table = Table::new(
        "Table 2 — instruction mix in % (SVT-AV1, preset 8, CRF 63)",
        &["Video", "# Insts.", "Branch", "Load", "Store", "AVX", "SSE", "Other"],
    );
    let specs = table2_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    for (spec, run) in specs.iter().zip(runs) {
        let m = run.mix;
        table.push_row(vec![
            spec.clip.to_owned(),
            sci(m.total()),
            f1(m.percent(OpClass::Branch)),
            f1(m.percent(OpClass::Load)),
            f1(m.percent(OpClass::Store)),
            f1(m.percent(OpClass::Avx)),
            f1(m.percent(OpClass::Sse)),
            f1(m.percent(OpClass::Other)),
        ]);
    }
    Ok(table)
}

/// Fig. 3 — op mix per clip as CRF increases (SVT-AV1, preset 4).
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig03_opmix_sweep(cfg: &ExperimentConfig) -> Result<Table, WorkbenchError> {
    let mut table = Table::new(
        "Fig. 3 — op mix vs CRF (SVT-AV1, preset 4)",
        &["Video", "CRF", "Branch", "Load", "Store", "AVX", "SSE", "Other"],
    );
    let specs = fig03_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    for (spec, run) in specs.iter().zip(runs) {
        let m = run.mix;
        table.push_row(vec![
            spec.clip.to_owned(),
            spec.params.crf.to_string(),
            f1(m.percent(OpClass::Branch)),
            f1(m.percent(OpClass::Load)),
            f1(m.percent(OpClass::Store)),
            f1(m.percent(OpClass::Avx)),
            f1(m.percent(OpClass::Sse)),
            f1(m.percent(OpClass::Other)),
        ]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick();
        c.clips = vec!["desktop", "game2"];
        c.crf_points = vec![15, 55];
        c
    }

    #[test]
    fn table2_mix_lands_in_paper_bands() {
        let t = table2_instruction_mix(&tiny_cfg()).unwrap();
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let branch: f64 = row[2].parse().unwrap();
            let load: f64 = row[3].parse().unwrap();
            let store: f64 = row[4].parse().unwrap();
            let avx: f64 = row[5].parse().unwrap();
            // Paper bands: branch 3.3–6.9, load 25.8–29.4, store 12.9–15.5,
            // AVX 29.2–34.2 (tolerances widened for the tiny test clips).
            assert!((2.0..9.0).contains(&branch), "branch {branch}");
            assert!((19.0..33.0).contains(&load), "load {load}");
            assert!((8.0..19.0).contains(&store), "store {store}");
            assert!((26.0..40.0).contains(&avx), "avx {avx}");
        }
    }

    #[test]
    fn fig03_produces_one_row_per_clip_crf() {
        let t = fig03_opmix_sweep(&tiny_cfg()).unwrap();
        assert_eq!(t.rows.len(), 4);
        // Percentages sum to ~100.
        for row in &t.rows {
            let total: f64 = row[2..].iter().map(|c| c.parse::<f64>().unwrap()).sum();
            assert!((total - 100.0).abs() < 0.5, "row sums to {total}");
        }
    }
}
