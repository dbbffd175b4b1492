//! Traced run of the vstress benchmark.
//!
//! Times calls into each crate's public functions from outside the
//! program, in two passes, and prints the raw spans and counts as one
//! JSON object on stdout (`perfbench/run.py` derives the per-layer
//! metrics from it):
//!
//! 1. **Experiment pass.** The public runners, in `vstress-repro` order,
//!    on one shared quick-profile `ExperimentConfig` at `THREADS` threads
//!    (`vstress-repro --quick --threads 2`). Each runner call is a span, with
//!    the `RunCacheStats` delta around it. The tables go to `--tables`,
//!    so the caller can compare them with `vstress-repro`'s stdout.
//! 2. **Layer pass.** The encode points the runners ask for, rebuilt from the same config. Their number must match the
//!    program's own count (the pass's encodes, or the store's `stream`
//!    entries), or the run fails. Every `STRIDE`-th point then goes
//!    through each layer serially on this thread: clip synthesis, a
//!    counting encode, a recording capture, bitstream decode, stream
//!    decode, the core model, a bare cache hierarchy, the CBP
//!    predictors and a serde round trip.
//!
//! ```text
//! perfbench-trace [--store DIR] --tables FILE
//! ```

use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vstress::cache::{Hierarchy, HierarchyConfig};
use vstress::codecs::{CodecId, Decoder, Encoder, EncoderParams};
use vstress::experiments::{
    catalogue, cbp, crf_sweep, decode_cost, mix, preset_sweep, profile, runtime_quality, threads,
    ExperimentConfig,
};
use vstress::pipeline::CoreModel;
use vstress::trace::{BranchWindowProbe, CountingProbe, Kernel, NullProbe, Probe};
use vstress::workbench::{capture_encode_with, equivalent_params, CapturedEncode};
use vstress::{RunCacheStats, RunStore, Table};

type Error = Box<dyn std::error::Error>;

/// The experiment ids in `vstress-repro` order; a group id such as
/// `fig04-07` is one runner call that prints several tables.
const IDS: [&str; 14] = [
    "table1", "fig01", "fig02", "table2", "fig03", "fig04-07", "fig08", "fig09", "fig10", "fig11",
    "fig12-15", "fig16", "decode", "profile",
];

/// (preset, CRF) of the CBP trace points: Figs. 8, 9 and 10.
const CBP_POINTS: [(u8, u8); 3] = [(8, 63), (4, 10), (4, 60)];

/// Worker threads of the experiment pass, as the timed `vstress-repro` runs.
const THREADS: usize = 2;

/// The layer pass times every `STRIDE`-th encode point.
const STRIDE: usize = 4;

struct Args {
    store: Option<PathBuf>,
    tables: PathBuf,
}

fn parse_args() -> Result<Args, Error> {
    let mut args = Args { store: None, tables: PathBuf::new() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--store" => args.store = Some(value()?.into()),
            "--tables" => args.tables = value()?.into(),
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if args.tables.as_os_str().is_empty() {
        return Err("need --tables FILE".into());
    }
    Ok(args)
}

fn emit(out: &mut impl Write, table: &Table) -> Result<(), Error> {
    writeln!(out, "{table}")?;
    Ok(())
}

/// One runner call, printing its tables exactly as `vstress-repro` does.
fn run_experiment(cfg: &ExperimentConfig, id: &str, out: &mut impl Write) -> Result<(), Error> {
    match id {
        "table1" => emit(out, &catalogue::table1_vbench()),
        "fig01" => emit(out, &runtime_quality::fig01_runtime_vs_crf(cfg)?.0),
        "fig02" => {
            emit(out, &runtime_quality::fig02a_bdrate(cfg)?.0)?;
            emit(out, &runtime_quality::fig02b_psnr_vs_time(cfg)?)
        }
        "table2" => emit(out, &mix::table2_instruction_mix(cfg)?),
        "fig03" => emit(out, &mix::fig03_opmix_sweep(cfg)?),
        "fig04-07" => {
            let points = crf_sweep::crf_sweep(cfg)?;
            emit(out, &crf_sweep::fig04_crf_sweep(&points))?;
            emit(out, &crf_sweep::fig05_topdown(&points))?;
            emit(out, &crf_sweep::fig06_microarch(&points))?;
            emit(out, &crf_sweep::fig07_missrate(&points))
        }
        "fig08" => emit(out, &cbp::fig08_cbp(cfg)?.0),
        "fig09" => emit(out, &cbp::fig09_cbp(cfg)?.0),
        "fig10" => emit(out, &cbp::fig10_cbp(cfg)?.0),
        "fig11" => {
            let points = preset_sweep::preset_sweep(cfg)?;
            emit(out, &preset_sweep::fig11ab_runtime_quality(&points))?;
            emit(out, &preset_sweep::fig11cde_microarch(&points))
        }
        "fig12-15" => {
            for t in &threads::fig12_15_thread_scaling(cfg)?.0 {
                emit(out, t)?;
            }
            Ok(())
        }
        "fig16" => emit(out, &threads::fig16_topdown_threads(cfg)?),
        "decode" => emit(out, &decode_cost::table_decode_vs_encode(cfg)?.0),
        "profile" => emit(out, &profile::table_hot_kernels(cfg)?),
        _ => unreachable!("the ids are IDS"),
    }
}

/// The per-codec parameters of the thread-scaling scenarios (mirrors the
/// runner's private `params_for`).
fn scaling_params(codec: CodecId, scenario: threads::ScalingScenario) -> EncoderParams {
    match codec {
        CodecId::X264 => EncoderParams::new(scenario.x264_crf, scenario.x264_preset),
        CodecId::SvtAv1 | CodecId::Libaom | CodecId::LibvpxVp9 => EncoderParams::new(63, 8),
        CodecId::X265 => EncoderParams::new(scenario.x264_crf, 4),
    }
}

type Point = (&'static str, CodecId, EncoderParams);

fn svt(clip: &'static str, crf: u8, preset: u8) -> Point {
    (clip, CodecId::SvtAv1, EncoderParams::new(crf, preset))
}

/// Every encode point the runners ask for, in `IDS` order and
/// deduplicated as the run cache's capture layer does.
fn encode_points(cfg: &ExperimentConfig) -> Vec<Point> {
    let head = cfg.headline_clip;
    let mut asked: Vec<Point> = Vec::new();
    // fig01
    for &crf in &cfg.crf_points {
        asked.extend(CodecId::ALL.map(|c| (head, c, equivalent_params(c, crf, 4))));
    }
    // fig02
    for codec in CodecId::ALL {
        asked.extend([12, 26, 40, 54].map(|crf| (head, codec, equivalent_params(codec, crf, 4))));
    }
    asked.extend(cfg.crf_points.iter().map(|&crf| svt(head, crf, 4)));
    // table2
    asked.extend(cfg.clips.iter().map(|&clip| svt(clip, 63, 8)));
    // fig03 and fig04-07 ask for the same points.
    for &clip in &cfg.clips {
        asked.extend(cfg.crf_points.iter().map(|&crf| svt(clip, crf, 4)));
    }
    // fig08, fig09, fig10
    for (preset, crf) in CBP_POINTS {
        asked.extend(cfg.clips.iter().map(|&clip| svt(clip, crf, preset)));
    }
    // fig11
    let sweep = preset_sweep::SWEEP_CRF;
    asked.extend(cfg.preset_points.iter().map(|&preset| svt(head, sweep, preset)));
    // fig12-15, fig16 (its scenario is one of fig12-15's)
    for scenario in threads::SCENARIOS {
        asked.extend(threads::SCALING_CODECS.map(|c| (head, c, scaling_params(c, scenario))));
    }
    // decode
    asked.extend(CodecId::ALL.map(|c| (head, c, equivalent_params(c, 35, 4))));
    // profile
    asked.extend(cfg.clips.iter().map(|&clip| svt(clip, 35, 4)));
    let mut seen = HashSet::new();
    asked.retain(|p| seen.insert(*p));
    asked
}

/// Feeds a stream's loads and stores to a bare cache hierarchy.
struct HierarchyProbe {
    hierarchy: Hierarchy,
    accesses: u64,
}

impl Probe for HierarchyProbe {
    fn set_kernel(&mut self, _k: Kernel) {}
    fn alu(&mut self, _n: u64) {}
    fn avx(&mut self, _n: u64) {}
    fn sse(&mut self, _n: u64) {}
    fn load(&mut self, addr: u64, bytes: u32) {
        self.accesses += 1;
        self.hierarchy.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.accesses += 1;
        self.hierarchy.store(addr, bytes);
    }
    fn branch(&mut self, _pc: u64, _taken: bool) {}
}

/// Raw layer-pass sums over the sampled points.
#[derive(Default)]
struct Layers {
    synth_s: f64,
    encode_s: f64,
    capture_s: f64,
    bitstream_decode_s: f64,
    stream_decode_s: f64,
    consume_s: f64,
    hierarchy_total_s: f64,
    cbp_s: f64,
    serde_s: f64,
    instructions: u64,
    events: u64,
    packed_bytes: u64,
    accesses: u64,
    cbp_branches: u64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *acc += t0.elapsed().as_secs_f64();
    v
}

/// Times every layer call on one encode point.
fn layer_point(
    cfg: &ExperimentConfig,
    (clip_name, codec, params): Point,
    cbp_window: Option<u64>,
    l: &mut Layers,
) -> Result<(), Error> {
    let spec = cfg.spec(clip_name, codec, params);
    let clip = timed(&mut l.synth_s, || {
        vstress::video::vbench::clip(clip_name).map(|c| c.synthesize(&cfg.fidelity))
    })?;
    let encoder = Encoder::new(codec, params)?;
    let mut counting = CountingProbe::new();
    timed(&mut l.encode_s, || encoder.encode_threaded(&clip, &mut counting, 1, 1))?;
    let cap = timed(&mut l.capture_s, || capture_encode_with(&spec, &clip, None))?;
    if cap.mix != counting.mix() {
        return Err(format!("{clip_name} {codec:?}: recording changed the instruction mix").into());
    }
    l.instructions += counting.mix().total();
    l.events += cap.stream.events();
    l.packed_bytes += cap.stream.packed_bytes() as u64;

    timed(&mut l.bitstream_decode_s, || {
        Decoder::new().decode(&cap.bitstream, &mut CountingProbe::new())
    })?;
    timed(&mut l.stream_decode_s, || cap.stream.replay(&mut NullProbe));
    timed(&mut l.consume_s, || {
        let mut core = CoreModel::broadwell_scaled(cfg.cache_divisor);
        core.consume_stream(&cap.stream);
        core.into_report()
    });
    let mut bare = HierarchyProbe {
        hierarchy: Hierarchy::new(HierarchyConfig::broadwell_scaled(cfg.cache_divisor)),
        accesses: 0,
    };
    timed(&mut l.hierarchy_total_s, || cap.stream.replay(&mut bare));
    l.accesses += bare.accesses;

    if let Some(window) = cbp_window {
        let total = cap.mix.total();
        let mut probe = BranchWindowProbe::mid_run(total, window.min(total));
        cap.stream.replay(&mut probe);
        let instructions = probe.window_retired().max(1);
        let records = probe.into_records();
        for mut predictor in cbp::paper_predictors() {
            let stats = timed(&mut l.cbp_s, || {
                vstress::bpred::harness::run_with_window(&mut predictor, &records, instructions)
            });
            l.cbp_branches += stats.branches;
        }
    }

    let back: CapturedEncode = timed(&mut l.serde_s, || serde::from_str(&serde::to_string(&cap)))?;
    if back != cap {
        return Err(format!("{clip_name} {codec:?}: serde round trip changed the capture").into());
    }
    Ok(())
}

fn stats_fields(s: &RunCacheStats) -> [(&'static str, u64); 9] {
    [
        ("encodes", s.encodes),
        ("run_hits", s.run_hits),
        ("run_misses", s.run_misses),
        ("capture_hits", s.capture_hits),
        ("capture_misses", s.capture_misses),
        ("store_hits", s.store_hits),
        ("store_misses", s.store_misses),
        ("store_quarantined", s.store_quarantined),
        ("clip_misses", s.clip_misses),
    ]
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench-trace: error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Error> {
    let args = parse_args()?;
    let mut json: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| json.push((k.to_owned(), v));

    // Experiment pass.
    let pass_start = Instant::now();
    let mut cfg = ExperimentConfig::quick().with_threads(THREADS);
    let mut stream_entries = None;
    if let Some(dir) = &args.store {
        let store = RunStore::open(dir)?;
        let usage = store.disk_usage();
        let stream = usage.kinds.iter().find(|k| k.kind == "stream");
        let (entries, bytes) = stream.map_or((0, 0), |k| (k.entries, k.bytes));
        put("store_stream_entries", entries.to_string());
        put("store_stream_bytes", bytes.to_string());
        stream_entries = Some(entries);
        cfg = cfg.with_store(Arc::new(store));
    }
    let mut tables = std::io::BufWriter::new(std::fs::File::create(&args.tables)?);
    let mut spans = 0.0;
    for id in IDS {
        let before = cfg.cache.stats();
        let t0 = Instant::now();
        run_experiment(&cfg, id, &mut tables)?;
        let span = t0.elapsed().as_secs_f64();
        spans += span;
        put(&format!("span.{id}"), format!("{span:.9}"));
        let after = cfg.cache.stats();
        for ((name, a), (_, b)) in stats_fields(&after).into_iter().zip(stats_fields(&before)) {
            put(&format!("delta.{id}.{name}"), (a - b).to_string());
        }
    }
    tables.flush()?;
    let pass_s = pass_start.elapsed().as_secs_f64();
    let stats = cfg.cache.stats();
    put("pass_s", format!("{pass_s:.9}"));
    put("spans_s", format!("{spans:.9}"));
    for (name, v) in stats_fields(&stats) {
        put(&format!("stats.{name}"), v.to_string());
    }
    drop(cfg);

    // Layer pass: the encode-point count must match the program's own.
    let cfg = ExperimentConfig::quick();
    let points = encode_points(&cfg);
    let (expected, source) = match stream_entries {
        Some(n) => (n, "stream entries in the store"),
        None => (stats.encodes, "encodes in the experiment pass"),
    };
    if points.len() as u64 != expected {
        return Err(format!(
            "layer pass built {} encode points, but the program reports {expected} {source}",
            points.len()
        )
        .into());
    }
    let cbp_points: HashSet<Point> = CBP_POINTS
        .iter()
        .flat_map(|&(preset, crf)| cfg.clips.iter().map(move |&c| svt(c, crf, preset)))
        .collect();
    let mut layers = Layers::default();
    let mut sampled = 0u64;
    for &point in points.iter().step_by(STRIDE) {
        let window = cbp_points.contains(&point).then_some(cfg.cbp_window);
        layer_point(&cfg, point, window, &mut layers)?;
        sampled += 1;
    }
    put("points", points.len().to_string());
    put("points_sampled", sampled.to_string());
    let l = &layers;
    for (k, v) in [
        ("synth_s", l.synth_s),
        ("encode_s", l.encode_s),
        ("capture_s", l.capture_s),
        ("bitstream_decode_s", l.bitstream_decode_s),
        ("stream_decode_s", l.stream_decode_s),
        ("consume_s", l.consume_s),
        ("hierarchy_total_s", l.hierarchy_total_s),
        ("cbp_s", l.cbp_s),
        ("serde_s", l.serde_s),
    ] {
        put(k, format!("{v:.9}"));
    }
    for (k, v) in [
        ("instructions", l.instructions),
        ("events", l.events),
        ("packed_bytes", l.packed_bytes),
        ("accesses", l.accesses),
        ("cbp_branches", l.cbp_branches),
    ] {
        put(k, v.to_string());
    }

    let body: Vec<String> = json.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", body.join(", "));
    Ok(())
}
