//! One runner per paper figure/table.
//!
//! Every runner takes an [`ExperimentConfig`] (scale knobs) and returns
//! [`Table`]s whose rows mirror what the paper plots. The
//! `vstress-repro` binary runs them all; `EXPERIMENTS.md` records the
//! paper-reported vs measured shapes.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`catalogue::table1_vbench`] | Table 1 — the vbench clip list |
//! | [`runtime_quality::fig01_runtime_vs_crf`] | Fig. 1 — runtime vs CRF per codec |
//! | [`runtime_quality::fig02a_bdrate`] | Fig. 2a — PSNR BD-Rate vs runtime |
//! | [`runtime_quality::fig02b_psnr_vs_time`] | Fig. 2b — PSNR vs runtime |
//! | [`mix::table2_instruction_mix`] | Table 2 — instruction mix per clip |
//! | [`mix::fig03_opmix_sweep`] | Fig. 3 — op mix vs CRF |
//! | [`crf_sweep::fig04_crf_sweep`] | Fig. 4 — instructions / time / IPC vs CRF |
//! | [`crf_sweep::fig05_topdown`] | Fig. 5 — top-down per clip vs CRF |
//! | [`crf_sweep::fig06_microarch`] | Fig. 6 — MPKI + resource stalls vs CRF |
//! | [`crf_sweep::fig07_missrate`] | Fig. 7 — branch miss rate vs CRF |
//! | [`cbp::fig08_cbp`] (+ fig09/fig10) | Figs. 8–10 — CBP predictor study |
//! | [`preset_sweep::preset_sweep`] + formatters | Fig. 11 — preset sweep |
//! | [`threads::fig12_15_thread_scaling`] | Figs. 12–15 — thread scalability |
//! | [`threads::fig16_topdown_threads`] | Fig. 16 — top-down vs threads |
//! | [`decode_cost::table_decode_vs_encode`] | §2.2's encode≫decode premise (extension) |
//! | [`profile::table_hot_kernels`] | §3.4's gprof hot-function step (extension) |
//!
//! Each runner builds its spec list with a public `*_specs` function.
//! [`EXPERIMENTS`] pairs every runner with the [`Request`]s those specs
//! make of the run cache, and [`plan`] collects them, so a caller can
//! compute everything up front with [`RunCache::run_plan`] — one pass
//! over each encode point, keeping no event stream — and then run the
//! runners against warm memos. A runner called without a plan computes
//! what it needs itself.

pub mod catalogue;
pub mod cbp;
pub mod crf_sweep;
pub mod decode_cost;
pub mod mix;
pub mod preset_sweep;
pub mod profile;
pub mod runtime_quality;
pub mod threads;

use crate::exec::{default_threads, Request, RunCache, RunStore};
use crate::table::Table;
use crate::workbench::{RunSpec, WorkbenchError};
use std::sync::Arc;
use vstress_video::vbench::FidelityConfig;

/// `(CSV slug, table)` pairs in print order: one experiment's output.
pub type Tables = Vec<(String, Table)>;

/// One `vstress-repro` experiment: a runner call printing one or more
/// tables, and the run-cache requests that call makes.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Its label in `--time` output (`fig04-07` for one runner behind
    /// several ids).
    pub name: &'static str,
    /// The experiment ids that select it.
    pub ids: &'static [&'static str],
    /// Every request its runner makes of the run cache.
    pub requests: fn(&ExperimentConfig) -> Vec<Request>,
    /// Runs it.
    pub run: fn(&ExperimentConfig) -> Result<Tables, WorkbenchError>,
}

fn runs(specs: impl IntoIterator<Item = RunSpec>) -> Vec<Request> {
    specs.into_iter().map(Request::Run).collect()
}

fn windows(cfg: &ExperimentConfig, (preset, crf): (u8, u8)) -> Vec<Request> {
    let specs = cbp::window_specs(cfg, preset, crf);
    specs.into_iter().map(|spec| Request::Window(spec, cfg.cbp_window)).collect()
}

fn tables<const N: usize>(named: [(&str, Table); N]) -> Tables {
    named.into_iter().map(|(slug, t)| (slug.to_owned(), t)).collect()
}

/// Every experiment, in `vstress-repro` order.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        name: "table1",
        ids: &["table1"],
        requests: |_| Vec::new(),
        run: |_| Ok(tables([("table1", catalogue::table1_vbench())])),
    },
    Experiment {
        name: "fig01",
        ids: &["fig01"],
        requests: |cfg| runs(runtime_quality::fig01_specs(cfg).into_iter().map(|(_, s)| s)),
        run: |cfg| Ok(tables([("fig01", runtime_quality::fig01_runtime_vs_crf(cfg)?.0)])),
    },
    Experiment {
        name: "fig02",
        ids: &["fig02", "fig02a", "fig02b"],
        requests: |cfg| {
            runs(
                runtime_quality::fig02a_specs(cfg)
                    .into_iter()
                    .chain(runtime_quality::fig02b_specs(cfg)),
            )
        },
        run: |cfg| {
            Ok(tables([
                ("fig02a", runtime_quality::fig02a_bdrate(cfg)?.0),
                ("fig02b", runtime_quality::fig02b_psnr_vs_time(cfg)?),
            ]))
        },
    },
    Experiment {
        name: "table2",
        ids: &["table2"],
        requests: |cfg| runs(mix::table2_specs(cfg)),
        run: |cfg| Ok(tables([("table2", mix::table2_instruction_mix(cfg)?)])),
    },
    Experiment {
        name: "fig03",
        ids: &["fig03"],
        requests: |cfg| runs(mix::fig03_specs(cfg)),
        run: |cfg| Ok(tables([("fig03", mix::fig03_opmix_sweep(cfg)?)])),
    },
    Experiment {
        name: "fig04-07",
        ids: &["fig04", "fig05", "fig06", "fig07"],
        requests: |cfg| runs(crf_sweep::crf_sweep_specs(cfg)),
        run: |cfg| {
            let points = crf_sweep::crf_sweep(cfg)?;
            Ok(tables([
                ("fig04", crf_sweep::fig04_crf_sweep(&points)),
                ("fig05", crf_sweep::fig05_topdown(&points)),
                ("fig06", crf_sweep::fig06_microarch(&points)),
                ("fig07", crf_sweep::fig07_missrate(&points)),
            ]))
        },
    },
    Experiment {
        name: "fig08",
        ids: &["fig08"],
        requests: |cfg| windows(cfg, cbp::TRACE_POINTS[0]),
        run: |cfg| Ok(tables([("fig08", cbp::fig08_cbp(cfg)?.0)])),
    },
    Experiment {
        name: "fig09",
        ids: &["fig09"],
        requests: |cfg| windows(cfg, cbp::TRACE_POINTS[1]),
        run: |cfg| Ok(tables([("fig09", cbp::fig09_cbp(cfg)?.0)])),
    },
    Experiment {
        name: "fig10",
        ids: &["fig10"],
        requests: |cfg| windows(cfg, cbp::TRACE_POINTS[2]),
        run: |cfg| Ok(tables([("fig10", cbp::fig10_cbp(cfg)?.0)])),
    },
    Experiment {
        name: "fig11",
        ids: &["fig11"],
        requests: |cfg| runs(preset_sweep::preset_sweep_specs(cfg)),
        run: |cfg| {
            let points = preset_sweep::preset_sweep(cfg)?;
            Ok(tables([
                ("fig11ab", preset_sweep::fig11ab_runtime_quality(&points)),
                ("fig11cde", preset_sweep::fig11cde_microarch(&points)),
            ]))
        },
    },
    Experiment {
        name: "fig12-15",
        ids: &["fig12", "fig13", "fig14", "fig15"],
        requests: |cfg| runs(threads::fig12_15_specs(cfg)),
        run: |cfg| {
            let (figures, _) = threads::fig12_15_thread_scaling(cfg)?;
            let slugs = ["fig12", "fig13", "fig14", "fig15"];
            Ok(slugs.into_iter().map(str::to_owned).zip(figures).collect())
        },
    },
    Experiment {
        name: "fig16",
        ids: &["fig16"],
        requests: |cfg| runs(threads::fig16_specs(cfg)),
        run: |cfg| Ok(tables([("fig16", threads::fig16_topdown_threads(cfg)?)])),
    },
    Experiment {
        name: "decode",
        ids: &["decode"],
        requests: |cfg| decode_cost::cost_specs(cfg).into_iter().map(Request::Cost).collect(),
        run: |cfg| Ok(tables([("decode_cost", decode_cost::table_decode_vs_encode(cfg)?.0)])),
    },
    Experiment {
        name: "profile",
        ids: &["profile"],
        requests: |cfg| runs(profile::hot_kernel_specs(cfg)),
        run: |cfg| Ok(tables([("hot_kernels", profile::table_hot_kernels(cfg)?)])),
    },
];

/// Every request of the experiments `want` selects (by any of their
/// ids), in run order — the input of [`RunCache::run_plan`].
pub fn plan(cfg: &ExperimentConfig, want: impl Fn(&str) -> bool) -> Vec<Request> {
    EXPERIMENTS
        .iter()
        .filter(|e| e.ids.iter().any(|id| want(id)))
        .flat_map(|e| (e.requests)(cfg))
        .collect()
}

/// Scale knobs shared by every experiment runner.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Worker threads for the experiment executor (≥ 1). Runners fan
    /// their independent encodes out over this many scoped threads;
    /// results are bit-identical at any value.
    pub threads: usize,
    /// Shared memoization cache for runs, clips and branch windows.
    /// `Clone` shares it, so runners invoked on clones of one config
    /// reuse each other's encodes.
    pub cache: Arc<RunCache>,
    /// Clip synthesis fidelity.
    pub fidelity: FidelityConfig,
    /// Cache scale divisor matching the fidelity.
    pub cache_divisor: usize,
    /// Clips used by the per-clip experiments (Table 2, Figs. 3–10).
    pub clips: Vec<&'static str>,
    /// The clip used by the single-clip experiments (Figs. 1, 2, 11–16);
    /// the paper uses `game1`.
    pub headline_clip: &'static str,
    /// CRF points for the AV1-family sweeps.
    pub crf_points: Vec<u8>,
    /// Preset points for the preset sweep (AV1-family direction).
    pub preset_points: Vec<u8>,
    /// Maximum thread count for the scalability study.
    pub max_threads: usize,
    /// Branch-trace window length (instructions) for the CBP study; the
    /// paper uses 1 B on native runs.
    pub cbp_window: u64,
    /// Tile workers per encode (`RunSpec::tile_workers`): the
    /// intra-encode tile/wavefront decomposition. Results are
    /// byte-identical at any value (the probe-merge contract), so this
    /// is purely a wall-clock knob.
    pub tile_workers: usize,
    /// Frame workers per encode (`RunSpec::frame_workers`): the
    /// cross-frame pipeline depth. Results are byte-identical at any
    /// value (the probe-merge contract), so this too is purely a
    /// wall-clock knob.
    pub frame_workers: usize,
}

impl ExperimentConfig {
    /// Reduced-cost profile: smoke-fidelity clips, a 5-clip subset, 3 CRF
    /// points. Finishes in a couple of minutes on a laptop; used by tests
    /// and the default `vstress-repro` invocation.
    pub fn quick() -> Self {
        ExperimentConfig {
            threads: default_threads(),
            cache: Arc::new(RunCache::new()),
            fidelity: FidelityConfig::smoke(),
            cache_divisor: 16,
            clips: vec!["desktop", "bike", "game1", "cat", "hall"],
            headline_clip: "game1",
            crf_points: vec![10, 35, 60],
            preset_points: vec![0, 2, 4, 6, 8],
            max_threads: 8,
            cbp_window: 400_000,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// The full profile: default fidelity, all fifteen clips, six CRF
    /// points — the configuration behind `EXPERIMENTS.md`.
    pub fn paper() -> Self {
        ExperimentConfig {
            threads: default_threads(),
            cache: Arc::new(RunCache::new()),
            fidelity: FidelityConfig::default(),
            cache_divisor: 8,
            clips: vstress_video::vbench::clip_names().collect(),
            headline_clip: "game1",
            crf_points: vec![10, 20, 30, 40, 50, 60],
            preset_points: vec![0, 1, 2, 3, 4, 5, 6, 7, 8],
            max_threads: 8,
            cbp_window: 4_000_000,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// Sets the executor's worker-thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets the per-encode tile-worker count (builder style). See
    /// [`ExperimentConfig::tile_workers`].
    #[must_use]
    pub fn with_tile_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one tile worker");
        self.tile_workers = workers;
        self
    }

    /// Sets the per-encode frame-worker count (builder style). See
    /// [`ExperimentConfig::frame_workers`].
    #[must_use]
    pub fn with_frame_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one frame worker");
        self.frame_workers = workers;
        self
    }

    /// Replaces this config's cache with one backed by a persistent
    /// [`RunStore`] (builder style): completed runs, branch windows and
    /// decode-cost pairs are reloaded from `store` instead of being
    /// recomputed, so an interrupted or repeated profile resumes.
    ///
    /// Call this before sharing the config — the cache is swapped, so
    /// earlier clones keep the old (store-less) one.
    #[must_use]
    pub fn with_store(mut self, store: Arc<RunStore>) -> Self {
        self.cache = Arc::new(RunCache::with_store(store));
        self
    }

    /// Characterizes every spec in input order through this config's
    /// executor and run cache.
    ///
    /// # Errors
    ///
    /// Returns the first-by-index [`crate::workbench::WorkbenchError`].
    pub fn run_specs(
        &self,
        specs: &[crate::workbench::RunSpec],
    ) -> Result<Vec<Arc<crate::workbench::CharacterizationRun>>, crate::workbench::WorkbenchError>
    {
        crate::exec::run_all(&self.cache, self.threads, specs)
    }

    /// The synthesized clip for `name` at this config's fidelity, via
    /// the clip cache.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown clip names.
    pub fn clip(
        &self,
        name: &'static str,
    ) -> Result<Arc<vstress_video::Clip>, crate::workbench::WorkbenchError> {
        self.cache.clip(name, &self.fidelity)
    }

    /// A [`crate::workbench::RunSpec`] for this config.
    pub fn spec(
        &self,
        clip: &'static str,
        codec: vstress_codecs::CodecId,
        params: vstress_codecs::EncoderParams,
    ) -> crate::workbench::RunSpec {
        crate::workbench::RunSpec {
            clip,
            codec,
            params,
            fidelity: self.fidelity.clone(),
            cache_divisor: self.cache_divisor,
            model_pipeline: true,
            tile_workers: self.tile_workers,
            frame_workers: self.frame_workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every experiment at a fraction of the quick profile's cost.
    fn tiny() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick();
        c.fidelity = FidelityConfig { dimension_divisor: 32, frame_count: 2, seed: 0x5ee1 };
        c.clips = vec!["cat", "desktop"];
        c.headline_clip = "cat";
        c.crf_points = vec![30];
        c.preset_points = vec![8];
        c.cbp_window = 20_000;
        c
    }

    /// The plan is complete: after it, each runner only hits memos, every
    /// capture was freed, and the tables match an unplanned run's.
    #[test]
    fn every_runner_after_its_plan_computes_nothing() {
        let unplanned = tiny();
        for e in &EXPERIMENTS {
            let cfg = tiny();
            let plan = (e.requests)(&cfg);
            cfg.cache.run_plan(cfg.threads, &plan).unwrap();
            let planned = cfg.cache.stats();
            let points: HashSet<_> =
                plan.iter().map(|r| (r.spec().clip, r.spec().codec, r.spec().params)).collect();
            let points = points.len() as u64;
            assert_eq!(planned.encodes, points, "{}: one encode per point", e.name);
            assert_eq!(planned.captures_evicted, points, "{}: every capture freed", e.name);

            let tables = (e.run)(&cfg).unwrap();
            let after = cfg.cache.stats();
            let misses = |s: &crate::RunCacheStats| {
                (s.capture_misses, s.run_misses, s.window_misses, s.cost_misses, s.encodes)
            };
            assert_eq!(misses(&after), misses(&planned), "{}: the plan missed a request", e.name);
            assert_eq!(tables, (e.run)(&unplanned).unwrap(), "{}: tables changed", e.name);
        }
    }

    #[test]
    fn plan_selects_experiments_by_any_of_their_ids() {
        let cfg = tiny();
        let fig05 = plan(&cfg, |id| id == "fig05");
        let sweep = crf_sweep::crf_sweep_specs(&cfg);
        assert_eq!(fig05.len(), sweep.len());
        assert!(fig05.iter().zip(&sweep).all(
            |(r, s)| matches!(r, Request::Run(p) if p.clip == s.clip && p.params == s.params)
        ));
        assert!(plan(&cfg, |id| id == "table1").is_empty());
        let all = plan(&cfg, |_| true);
        let each: usize = EXPERIMENTS.iter().map(|e| (e.requests)(&cfg).len()).sum();
        assert_eq!(all.len(), each);
    }

    #[test]
    fn quick_config_is_small() {
        let q = ExperimentConfig::quick();
        assert!(q.clips.len() <= 6);
        assert!(q.crf_points.len() <= 3);
        assert_eq!(q.headline_clip, "game1");
    }

    #[test]
    fn paper_config_covers_all_clips() {
        let p = ExperimentConfig::paper();
        assert_eq!(p.clips.len(), 15);
        assert_eq!(p.crf_points.len(), 6);
    }
}
