//! Figs. 12–16 — the thread-scalability study.
//!
//! Instrumented encodes produce per-stage task costs
//! ([`vstress_codecs::taskgraph::TaskTrace`]), including the *measured*
//! per-unit costs of the tile/wavefront plan tasks the encoder actually
//! executed (`FrameTaskTrace::plan_units`, recorded by the encoder's
//! single frame loop at any tile or frame worker count); each codec's
//! threading structure
//! ([`vstress_codecs::taskgraph::plan_layout`] plus the per-codec graph
//! builders) turns them into a dependency graph; `vstress-sched`
//! schedules the graph on 1..=N cores. The divergent curves — SVT-AV1
//! approaching ~6x at 8 threads while x265 stalls near ~1.3x — thus
//! fall out of real recorded task-graph contention, not a per-codec
//! lookup table. Fig. 16 applies the shared-LLC
//! [`vstress_sched::ContentionModel`] to the
//! single-thread top-down to obtain per-thread-count slot fractions.

use super::ExperimentConfig;
use crate::table::{f2, f3, Table};
use crate::workbench::WorkbenchError;
use vstress_codecs::taskgraph::build_task_graph;
use vstress_codecs::{CodecId, EncoderParams};
use vstress_pipeline::TopDownSlots;
use vstress_sched::{schedule, speedup_curve, ContentionModel};

/// The four encoders the paper scales (VP9 is excluded there too).
pub const SCALING_CODECS: [CodecId; 4] =
    [CodecId::SvtAv1, CodecId::Libaom, CodecId::X264, CodecId::X265];

/// One scalability scenario: the x264 settings the paper varies between
/// Figs. 12–15, with the AV1-family encoders at "highest CRF".
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ScalingScenario {
    /// Paper figure number (12–15).
    pub figure: u8,
    /// x264 preset for this figure.
    pub x264_preset: u8,
    /// x264 CRF for this figure.
    pub x264_crf: u8,
}

/// The paper's four scenarios (captions of Figs. 12–15).
pub const SCENARIOS: [ScalingScenario; 4] = [
    ScalingScenario { figure: 12, x264_preset: 0, x264_crf: 51 },
    ScalingScenario { figure: 13, x264_preset: 2, x264_crf: 51 },
    ScalingScenario { figure: 14, x264_preset: 5, x264_crf: 50 },
    ScalingScenario { figure: 15, x264_preset: 5, x264_crf: 30 },
];

fn params_for(codec: CodecId, scenario: ScalingScenario) -> EncoderParams {
    match codec {
        CodecId::X264 => EncoderParams::new(scenario.x264_crf, scenario.x264_preset),
        // "highest CRF" for the AV1-family encoders; x265 matched to x264.
        CodecId::SvtAv1 | CodecId::Libaom | CodecId::LibvpxVp9 => EncoderParams::new(63, 8),
        CodecId::X265 => EncoderParams::new(scenario.x264_crf, 4),
    }
}

/// Speedup curves of the four encoders for one scenario.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ScalingResult {
    /// Which scenario.
    pub scenario: ScalingScenario,
    /// `(codec, speedups[1..=max_threads])`.
    pub curves: Vec<(CodecId, Vec<f64>)>,
}

/// Figs. 12–15 — thread-scalability curves for all four scenarios.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig12_15_thread_scaling(
    cfg: &ExperimentConfig,
) -> Result<(Vec<Table>, Vec<ScalingResult>), WorkbenchError> {
    // The instrumented single-thread encodes fan out over the executor;
    // the (cheap) graph construction and scheduling stay serial. Several
    // scenarios share the AV1-family "highest CRF" point, so the run
    // cache collapses those encodes to one each.
    let mut grid = Vec::new();
    let mut specs = Vec::new();
    for scenario in SCENARIOS {
        for codec in SCALING_CODECS {
            grid.push((scenario, codec));
            specs.push(
                cfg.spec(cfg.headline_clip, codec, params_for(codec, scenario)).counting_only(),
            );
        }
    }
    let runs = cfg.run_specs(&specs)?;
    let mut runs = runs.into_iter();
    let mut tables = Vec::new();
    let mut results = Vec::new();
    for scenario in SCENARIOS {
        let mut table = Table::new(
            format!(
                "Fig. {} — thread scalability ({}, x264 preset {}, CRF {})",
                scenario.figure, cfg.headline_clip, scenario.x264_preset, scenario.x264_crf
            ),
            &["codec", "1", "2", "3", "4", "5", "6", "7", "8"],
        );
        let mut curves = Vec::new();
        for codec in SCALING_CODECS {
            let run = runs.next().expect("one run per grid point");
            let graph = build_task_graph(codec, &run.tasks);
            let curve = speedup_curve(&graph, cfg.max_threads);
            let mut row = vec![codec.name().to_owned()];
            row.extend(curve.iter().map(|v| f2(*v)));
            row.resize(9, String::new());
            table.push_row(row);
            curves.push((codec, curve));
        }
        tables.push(table);
        results.push(ScalingResult { scenario, curves });
    }
    Ok((tables, results))
}

/// Fig. 16 — top-down fractions vs thread count for the four encoders.
///
/// The single-thread top-down comes from a pipeline-modelled encode; the
/// backend-memory component is inflated by the schedule's contention
/// factor at each thread count, then the fractions are renormalized —
/// slots spent waiting on the shared LLC grow at the expense of retiring.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn fig16_topdown_threads(cfg: &ExperimentConfig) -> Result<Table, WorkbenchError> {
    let model = ContentionModel::default();
    let mut table = Table::new(
        format!("Fig. 16 — top-down vs thread count ({})", cfg.headline_clip),
        &["codec", "threads", "retiring", "bad-spec", "frontend", "backend"],
    );
    let scenario = SCENARIOS[3];
    let specs: Vec<_> = SCALING_CODECS
        .into_iter()
        .map(|codec| cfg.spec(cfg.headline_clip, codec, params_for(codec, scenario)))
        .collect();
    let runs = cfg.run_specs(&specs)?;
    for (codec, run) in SCALING_CODECS.into_iter().zip(runs) {
        let graph = build_task_graph(codec, &run.tasks);
        let base = run.core.topdown();
        for &threads in &[1usize, 2, 4, 8] {
            let sched = schedule(&graph, threads);
            let inflation = model.backend_inflation(&sched);
            let td = inflate_backend(base, inflation);
            table.push_row(vec![
                codec.name().to_owned(),
                threads.to_string(),
                f3(td.retiring),
                f3(td.bad_speculation),
                f3(td.frontend),
                f3(td.backend),
            ]);
        }
    }
    Ok(table)
}

/// Scales the memory component of `backend` by `inflation` and
/// renormalizes all fractions to sum to 1.
pub fn inflate_backend(base: TopDownSlots, inflation: f64) -> TopDownSlots {
    let backend_memory = base.backend_memory * inflation;
    let total =
        base.retiring + base.bad_speculation + base.frontend + backend_memory + base.backend_core;
    TopDownSlots {
        retiring: base.retiring / total,
        bad_speculation: base.bad_speculation / total,
        frontend: base.frontend / total,
        backend: (backend_memory + base.backend_core) / total,
        backend_memory: backend_memory / total,
        backend_core: base.backend_core / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn scaling_reproduces_the_papers_ordering() {
        let (_, results) = fig12_15_thread_scaling(&tiny_cfg()).unwrap();
        assert_eq!(results.len(), 4);
        for r in &results {
            let at8 = |codec| {
                r.curves.iter().find(|(c, _)| *c == codec).map(|(_, v)| *v.last().unwrap()).unwrap()
            };
            let svt = at8(CodecId::SvtAv1);
            let x264 = at8(CodecId::X264);
            let x265 = at8(CodecId::X265);
            let aom = at8(CodecId::Libaom);
            assert!(svt > 4.0, "fig {}: SVT should approach ~6x, got {svt}", r.scenario.figure);
            assert!(svt > aom, "fig {}: SVT {svt} vs libaom {aom}", r.scenario.figure);
            assert!(svt > x265, "fig {}: SVT {svt} vs x265 {x265}", r.scenario.figure);
            assert!(
                x265 < 2.0,
                "fig {}: x265 should stall near ~1.3x, got {x265}",
                r.scenario.figure
            );
            assert!(x264 > x265, "fig {}: x264 {x264} vs x265 {x265}", r.scenario.figure);
        }
    }

    #[test]
    fn fig16_x265_backend_grows_with_threads_others_stay_flat() {
        let t = fig16_topdown_threads(&tiny_cfg()).unwrap();
        let backend = |codec: &str, threads: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == codec && r[1] == threads)
                .map(|r| r[5].parse().unwrap())
                .unwrap()
        };
        let x265_growth = backend("x265", "8") - backend("x265", "1");
        let svt_growth = backend("SVT-AV1", "8") - backend("SVT-AV1", "1");
        let x264_growth = backend("x264", "8") - backend("x264", "1");
        assert!(x265_growth > 0.02, "x265 backend must grow: {x265_growth}");
        assert!(x265_growth > svt_growth * 2.0, "x265 {x265_growth} should dwarf SVT {svt_growth}");
        assert!(svt_growth.abs() < 0.05, "SVT stays flat: {svt_growth}");
        assert!(x264_growth.abs() < 0.08, "x264 stays flattish: {x264_growth}");
    }

    #[test]
    fn inflate_backend_preserves_normalization() {
        let base = TopDownSlots {
            retiring: 0.5,
            bad_speculation: 0.05,
            frontend: 0.15,
            backend: 0.3,
            backend_memory: 0.2,
            backend_core: 0.1,
        };
        let td = inflate_backend(base, 1.5);
        let sum = td.retiring + td.bad_speculation + td.frontend + td.backend;
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(td.backend > base.backend);
        assert!(td.retiring < base.retiring);
    }
}
