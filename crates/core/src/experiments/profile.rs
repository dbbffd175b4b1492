//! Hot-kernel profiles — the gprof step of the paper's methodology
//! (§3.4: "GNU gprof is used for a function level profiling, i.e., find
//! hot functions, which is used for instruction tracing").

use super::ExperimentConfig;
use crate::table::{f1, Table};
use crate::workbench::{RunSpec, WorkbenchError};
use vstress_codecs::{CodecId, EncoderParams};
use vstress_trace::Kernel;

/// The hot-kernel table's specs: counting-only SVT-AV1 at preset 4,
/// CRF 35 on every configured clip.
pub fn hot_kernel_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    cfg.clips
        .iter()
        .map(|&clip| cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(35, 4)).counting_only())
        .collect()
}

/// Per-clip hot-kernel table (top kernels by instruction share).
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode.
pub fn table_hot_kernels(cfg: &ExperimentConfig) -> Result<Table, WorkbenchError> {
    let mut table = Table::new(
        "hot kernels (SVT-AV1, preset 4) — the gprof step that places trace windows",
        &["Video", "#1", "#2", "#3", "search share %"],
    );
    let specs = hot_kernel_specs(cfg);
    let runs = cfg.run_specs(&specs)?;
    for (spec, run) in specs.iter().zip(runs) {
        let top = run.profile.top(3);
        let fmt = |i: usize| {
            top.get(i).map(|(k, _, pct)| format!("{} {:.0}%", k.name(), pct)).unwrap_or_default()
        };
        let search_kernels = [Kernel::Sad, Kernel::Satd, Kernel::MotionSearch];
        let search_share: f64 = run
            .profile
            .top(Kernel::ALL.len())
            .iter()
            .filter(|(k, _, _)| search_kernels.contains(k))
            .map(|(_, _, pct)| *pct)
            .sum();
        table.push_row(vec![spec.clip.to_owned(), fmt(0), fmt(1), fmt(2), f1(search_share)]);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_dominates_every_clip() {
        let mut cfg = ExperimentConfig::quick();
        cfg.clips = vec!["game2", "desktop"];
        let t = table_hot_kernels(&cfg).unwrap();
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let share: f64 = row[4].parse().unwrap();
            assert!(share > 30.0, "{}: search share {share}%", row[0]);
            // The hottest kernel is one of the search kernels.
            assert!(
                row[1].starts_with("sad")
                    || row[1].starts_with("satd")
                    || row[1].starts_with("motion_search"),
                "{}: hottest was {}",
                row[0],
                row[1]
            );
        }
    }
}
