//! `vstress-bench` — the machine-readable perf-trajectory harness.
//!
//! ```text
//! vstress-bench                        # full run, writes BENCH_0007.json
//! vstress-bench --quick                # CI mode: shorter sampling windows
//! vstress-bench --filter tage          # only metrics whose name matches
//! vstress-bench --list                 # print metric names, no timing runs
//! vstress-bench --out path.json        # write the report elsewhere
//! vstress-bench gate --baseline BENCH_0007.json --quick --filter sad
//!                                      # rerun, fail on >10% regression
//! vstress-bench gate --baseline a.json --fresh b.json
//!                                      # compare two existing reports
//! ```
//!
//! Times the leaf pixel kernels (interior and border paths separately),
//! motion search, the simulation-side hot paths (cache-hierarchy load
//! stream, core-model event drain, stream record/replay, branch
//! predictors, CBP window replay — each next to its pre-optimization
//! reference so the speedup is visible inside one report), and three
//! end-to-end walls: the counting-only quick-profile encode, the
//! capture of the quick characterization's event streams, and the
//! **re-simulation of those captured streams** — the capture-once /
//! simulate-many contract's payoff, reported as the `characterization`
//! section (`quick_profile_resim`; before the capture split this
//! section timed the fused encode+simulate pass as
//! `quick_profile_pipeline`). One JSON report (`ns/op`, `pixels/s`,
//! wall time, git revision, build metadata) lets every PR be compared
//! against the committed trajectory. Human-readable lines go to stderr;
//! the JSON artifact is the contract. `gate` mode turns the comparison
//! into an exit code for CI (see [`vstress_bench::gate`]).

use std::hint::black_box;
use std::time::Instant;
use vstress::bpred::{harness, BranchPredictor, Gshare, ReferenceGshare, ReferenceTage, Tage};
use vstress::cache::config::PrefetchKind;
use vstress::cache::{Hierarchy, HierarchyConfig, ReferenceHierarchy};
use vstress::cli::{self, FlagSpec};
use vstress::codecs::blocks::BlockRect;
use vstress::codecs::kernels;
use vstress::codecs::mc::{motion_compensate, MotionVector};
use vstress::codecs::mesearch::{motion_search, MeScratch, MeSettings};
use vstress::codecs::{CodecId, EncoderParams};
use vstress::experiments::{profile, ExperimentConfig};
use vstress::pipeline::CoreModel;
use vstress::trace::record::BranchRecord;
use vstress::trace::{Kernel, NullProbe, Probe, ProbeEvent, StreamRecorder};
use vstress::video::Plane;
use vstress::workbench;
use vstress_bench::gate;

const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--quick", "short sampling windows (CI mode)"),
    FlagSpec::switch("--list", "print available metric names (one per line), no timing"),
    FlagSpec::value("--out", "FILE", "report path (default BENCH_0007.json)"),
    FlagSpec::value("--filter", "SUBSTR", "only run/gate metrics whose name contains SUBSTR"),
    FlagSpec::value(
        "--tile-workers",
        "N",
        "workers for the tile-parallel encode sample (default 4)",
    ),
    FlagSpec::value(
        "--frame-workers",
        "N",
        "cross-frame pipeline depth for the stall-accounting sample (default 4)",
    ),
    FlagSpec::value("--baseline", "FILE", "gate: committed trajectory to compare against"),
    FlagSpec::value("--fresh", "FILE", "gate: compare this report instead of rerunning"),
    FlagSpec::value("--threshold", "FRAC", "gate: allowed slowdown fraction (default 0.10)"),
];

/// Parses the gate threshold: a fraction like `0.10` (10% slowdown) or
/// `1.0` (2x). CI runners with unknown hardware use a loose value; local
/// runs keep the strict default.
fn threshold_frac(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err("expected a positive fraction like 0.10".to_owned()),
    }
}

fn usage_error(e: &cli::CliError) -> ! {
    eprintln!("vstress-bench: {e}");
    eprint!("{}", cli::usage("vstress-bench", "[gate] [flags]", FLAGS));
    std::process::exit(cli::USAGE_EXIT.into());
}

/// One timed microbenchmark.
struct Sample {
    name: String,
    iters: u64,
    ns_per_op: f64,
    /// Pixels processed per op (0 when the metric is not pixel-shaped).
    pixels_per_op: u64,
}

impl Sample {
    fn mpixels_per_s(&self) -> f64 {
        if self.pixels_per_op == 0 || self.ns_per_op == 0.0 {
            0.0
        } else {
            self.pixels_per_op as f64 / self.ns_per_op * 1000.0
        }
    }
}

/// Collects samples, honoring the `--filter` substring: setup always
/// runs (it is cheap and shared), timing loops only for matching names.
/// In `--list` mode every matching name is recorded with zeroed
/// measurements and nothing is timed.
struct Suite {
    filter: Option<String>,
    list: bool,
    target_ms: u64,
    samples: Vec<Sample>,
}

impl Suite {
    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Runs `f` repeatedly for roughly `target_ms` and records the sample
    /// (skipped entirely when the name fails the filter).
    fn time_it(&mut self, name: &str, pixels_per_op: u64, mut f: impl FnMut()) {
        if !self.wants(name) {
            return;
        }
        if self.list {
            self.samples.push(Sample {
                name: name.to_owned(),
                iters: 0,
                ns_per_op: 0.0,
                pixels_per_op,
            });
            return;
        }
        // Warm up and calibrate the batch size on a short probe run.
        let probe_start = Instant::now();
        let mut probe_iters = 0u64;
        while probe_start.elapsed().as_millis() < 10 || probe_iters < 3 {
            f();
            probe_iters += 1;
        }
        let ns_estimate = (probe_start.elapsed().as_nanos() as f64 / probe_iters as f64).max(1.0);
        let iters = ((self.target_ms as f64 * 1e6) / ns_estimate).ceil().max(1.0) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns_per_op = start.elapsed().as_nanos() as f64 / iters as f64;
        let s = Sample { name: name.to_owned(), iters, ns_per_op, pixels_per_op };
        eprintln!(
            "vstress-bench: {:<34} {:>12.1} ns/op {:>10.1} Mpx/s  ({} iters)",
            s.name,
            s.ns_per_op,
            s.mpixels_per_s(),
            s.iters
        );
        self.samples.push(s);
    }
}

/// A deterministic textured plane (same terrain as the mesearch tests).
fn textured(w: usize, h: usize, shift: usize) -> Plane {
    let mut p = Plane::new(w, h, 0).unwrap();
    for y in 0..h {
        for x in 0..w {
            let s = (x + shift) as f64;
            let fy = y as f64;
            let v = 128.0
                + 58.0 * (s * 0.19).sin()
                + 38.0 * (fy * 0.23 + s * 0.07).sin()
                + 18.0 * ((s + fy) * 0.11).cos();
            p.set(x, y, v.clamp(0.0, 255.0) as u8);
        }
    }
    p
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Everything the comparison needs to be apples-to-apples: the
/// trajectory is only meaningful between runs with the same shape.
struct BuildMeta {
    mode: &'static str,
    tile_workers: usize,
    frame_workers: usize,
    threads: usize,
    profile: &'static str,
}

/// The end-to-end wall clocks, when their sections ran.
#[derive(Default)]
struct Walls {
    /// Counting-only quick-profile encode.
    encode: Option<f64>,
    /// Recording the quick characterization's event streams.
    capture: Option<f64>,
    /// Re-simulating the captured streams (the `characterization`
    /// section of the report).
    resim: Option<f64>,
    /// Summed cross-frame watermark stall time of one pipelined encode
    /// at the configured `--frame-workers` depth, in nanoseconds.
    pipeline_stall_ns: Option<u64>,
}

fn render_report(samples: &[Sample], meta: &BuildMeta, walls: &Walls) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 2,\n");
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", json_escape(&git_rev())));
    json.push_str(&format!("  \"mode\": \"{}\",\n", meta.mode));
    json.push_str(&format!(
        "  \"meta\": {{\"tile_workers\": {}, \"frame_workers\": {}, \"threads\": {}, \
         \"profile\": \"{}\"}},\n",
        meta.tile_workers, meta.frame_workers, meta.threads, meta.profile
    ));
    json.push_str("  \"kernels\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_op\": {:.2}, \
             \"pixels_per_op\": {}, \"mpixels_per_s\": {:.2}}}{}\n",
            s.name,
            s.iters,
            s.ns_per_op,
            s.pixels_per_op,
            s.mpixels_per_s(),
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]");
    if let Some(ms) = walls.encode {
        json.push_str(&format!(
            ",\n  \"encode\": {{\"name\": \"quick_profile\", \"wall_ms\": {ms:.1}}}"
        ));
    }
    if let Some(ms) = walls.capture {
        json.push_str(&format!(
            ",\n  \"capture\": {{\"name\": \"quick_profile_capture\", \"wall_ms\": {ms:.1}}}"
        ));
    }
    if let Some(ms) = walls.resim {
        json.push_str(&format!(
            ",\n  \"characterization\": {{\"name\": \"quick_profile_resim\", \"wall_ms\": {ms:.1}}}"
        ));
    }
    // Deliberately not a `ns_per_op` kernel line: stall time is a
    // wall-clock-adjacent quantity the gate must never compare across
    // machines, so it gets its own section the metric scan skips.
    if let Some(ns) = walls.pipeline_stall_ns {
        json.push_str(&format!(
            ",\n  \"pipeline\": {{\"name\": \"pipeline_stall_ns\", \"frame_workers\": {}, \
             \"stall_ns\": {}}}",
            meta.frame_workers, ns
        ));
    }
    json.push_str("\n}\n");
    json
}

/// Runs the whole microbenchmark suite (filtered), returning the samples
/// plus the wall clocks of the end-to-end phases when they ran.
fn run_suite(suite: &mut Suite, tile_workers: usize, frame_workers: usize) -> Walls {
    let cur = textured(64, 64, 4);
    // The reference plane carries the edge-padded shadow, as the encoder's
    // reconstruction planes do — border SAD and off-frame MC go through
    // the contiguous padded rows instead of per-pixel clamping.
    let mut refp = textured(64, 64, 0);
    refp.pad_borders();
    let rect32 = BlockRect::new(16, 16, 32, 32);
    let rect16 = BlockRect::new(16, 16, 16, 16);
    let pred16: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
    let mut res16 = vec![0i32; 256];
    kernels::residual(&mut NullProbe, &cur, rect16, &pred16, &mut res16);
    let mut out_plane = Plane::new(64, 64, 0).unwrap();
    let mut mc_dst = vec![0u8; 32 * 32];

    // Interior SAD/SSE: the displaced block stays fully inside the frame.
    suite.time_it("sad_plane_plane_interior", 32 * 32, || {
        black_box(kernels::sad_plane_plane(
            &mut NullProbe,
            black_box(&cur),
            rect32,
            black_box(&refp),
            2,
            1,
        ));
    });
    // Border SAD: the motion vector pushes the reference off-frame.
    suite.time_it("sad_plane_plane_border", 32 * 32, || {
        black_box(kernels::sad_plane_plane(
            &mut NullProbe,
            black_box(&cur),
            rect32,
            black_box(&refp),
            -40,
            -40,
        ));
    });
    suite.time_it("sad_plane_pred_16x16", 16 * 16, || {
        black_box(kernels::sad_plane_pred(
            &mut NullProbe,
            black_box(&cur),
            rect16,
            black_box(&pred16),
        ));
    });
    suite.time_it("sse_plane_pred_16x16", 16 * 16, || {
        black_box(kernels::sse_plane_pred(
            &mut NullProbe,
            black_box(&cur),
            rect16,
            black_box(&pred16),
        ));
    });
    suite.time_it("residual_16x16", 16 * 16, || {
        kernels::residual(&mut NullProbe, black_box(&cur), rect16, &pred16, &mut res16);
    });
    suite.time_it("reconstruct_16x16", 16 * 16, || {
        kernels::reconstruct(&mut NullProbe, &mut out_plane, rect16, &pred16, &res16);
    });
    suite.time_it("write_pred_16x16", 16 * 16, || {
        kernels::write_pred(&mut NullProbe, &mut out_plane, rect16, &pred16);
    });
    suite.time_it("mc_fullpel_32x32", 32 * 32, || {
        motion_compensate(
            &mut NullProbe,
            black_box(&refp),
            rect32,
            MotionVector::from_fullpel(2, 1),
            &mut mc_dst,
        );
    });
    suite.time_it("mc_halfpel_32x32", 32 * 32, || {
        motion_compensate(
            &mut NullProbe,
            black_box(&refp),
            rect32,
            MotionVector { x: 5, y: 3 },
            &mut mc_dst,
        );
    });

    let me = MeSettings { range: 12, exhaustive_radius: 0, refine_steps: 16, subpel: true };
    let mut scratch = MeScratch::new();
    suite.time_it("motion_search_16x16", 0, || {
        black_box(motion_search(
            &mut NullProbe,
            black_box(&cur),
            rect16,
            black_box(&refp),
            MotionVector::ZERO,
            &me,
            2,
            &mut scratch,
        ));
    });

    // ---- Simulation-side microbenchmarks. Each optimized path is timed
    // next to the kept pre-optimization reference (`*_ref` /
    // `*_per_event` / `*_per_record` names), so the speedup of the
    // rewrites stays visible inside a single report.

    // Cache hierarchy, streaming load/store sweep: sequential 8-byte
    // accesses (eight per 64 B line, so the L1D MRU fast path carries
    // seven of eight) over a region larger than L2, with the stride
    // prefetcher on — the exact shape that made the old prefetch path
    // allocate per demand miss.
    let mut hier_cfg = HierarchyConfig::broadwell();
    hier_cfg.l2_prefetch = PrefetchKind::Stride;
    let addrs: Vec<u64> = (0..4096u64).map(|i| (i * 8) % (512 << 10)).collect();
    let mut live_hier = Hierarchy::new(hier_cfg);
    suite.time_it("sim_hier_load_stream_4k", 0, || {
        for &a in &addrs {
            black_box(live_hier.load(black_box(a), 8));
        }
    });
    let mut ref_hier = ReferenceHierarchy::new(hier_cfg);
    suite.time_it("sim_hier_load_stream_4k_ref", 0, || {
        for &a in &addrs {
            black_box(ref_hier.load(black_box(a), 8));
        }
    });

    // Core-model event drain: one batched `drain_batch` call versus the
    // old per-event dispatch loop, over an encoder-shaped event mix.
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let events: Vec<ProbeEvent> = (0..16_384u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 8 {
                0 => ProbeEvent::SetKernel(Kernel::ALL[(x % Kernel::ALL.len() as u64) as usize]),
                1 => ProbeEvent::Alu(1 + x % 8),
                2 => ProbeEvent::Avx(1 + x % 4),
                3 => ProbeEvent::Load { addr: 0x10_0000 + (i * 192) % (2 << 20), bytes: 32 },
                4 => ProbeEvent::Store { addr: 0x40_0000 + x % (1 << 20), bytes: 16 },
                5 => ProbeEvent::Sse(1 + x % 4),
                6 => ProbeEvent::Branch { pc: 0x1000 + (x % 32) * 8, taken: x & 1 == 0 },
                _ => ProbeEvent::Load { addr: x % (4 << 20), bytes: 8 },
            }
        })
        .collect();
    let mut batched_model = CoreModel::broadwell();
    suite.time_it("sim_core_drain_16k", 0, || {
        batched_model.drain_batch(black_box(&events));
    });
    let mut per_event_model = CoreModel::broadwell();
    suite.time_it("sim_core_drain_16k_per_event", 0, || {
        // The pre-batching interface: every event crosses the probe
        // boundary as its own method call.
        for &e in black_box(&events) {
            match e {
                ProbeEvent::SetKernel(k) => per_event_model.set_kernel(k),
                ProbeEvent::Alu(n) => per_event_model.alu(n),
                ProbeEvent::Avx(n) => per_event_model.avx(n),
                ProbeEvent::Sse(n) => per_event_model.sse(n),
                ProbeEvent::Load { addr, bytes } => per_event_model.load(addr, bytes),
                ProbeEvent::Store { addr, bytes } => per_event_model.store(addr, bytes),
                ProbeEvent::Branch { pc, taken } => per_event_model.branch(pc, taken),
            }
        }
    });

    // Probe event stream: packing the same 16k-event mix into canonical
    // chunks (what a recording encode adds over a counting one), and
    // draining a packed stream back into the core model (what a
    // warm-capture re-simulation costs versus `sim_core_drain_16k`'s
    // raw in-memory batch).
    suite.time_it("sim_stream_record_16k", 0, || {
        let mut rec = StreamRecorder::new();
        rec.drain_batch(black_box(&events));
        black_box(rec.finish().0.packed_bytes());
    });
    let stream16k = {
        let mut rec = StreamRecorder::new();
        rec.drain_batch(&events);
        rec.finish().0
    };
    let mut stream_model = CoreModel::broadwell();
    suite.time_it("sim_stream_replay_16k", 0, || {
        stream_model.consume_stream(black_box(&stream16k));
    });

    // Branch predictors: single predict+update round-trips, the live
    // rewrites next to their kept references.
    let mut g32 = Gshare::with_budget_bytes(32 << 10);
    let mut bi = 0u64;
    suite.time_it("sim_gshare32_predict_update", 0, || {
        bi = bi.wrapping_add(0x9e37_79b9);
        let pc = 0x1000 + (bi % 64) * 8;
        let taken = bi & 3 != 0;
        let guess = g32.predict(pc);
        g32.update(pc, taken, guess);
        black_box(guess);
    });
    let mut t8 = Tage::seznec_8kb();
    suite.time_it("sim_tage8_predict_update", 0, || {
        bi = bi.wrapping_add(0x9e37_79b9);
        let pc = 0x1000 + (bi % 64) * 8;
        let taken = bi & 3 != 0;
        let guess = t8.predict(pc);
        t8.update(pc, taken, guess);
        black_box(guess);
    });
    let mut rt8 = ReferenceTage::seznec_8kb();
    suite.time_it("sim_tage8_predict_update_ref", 0, || {
        bi = bi.wrapping_add(0x9e37_79b9);
        let pc = 0x1000 + (bi % 64) * 8;
        let taken = bi & 3 != 0;
        let guess = rt8.predict(pc);
        rt8.update(pc, taken, guess);
        black_box(guess);
    });

    // CBP window replay, through type erasure as the study runs it: the
    // whole-trace `replay` entry point (one virtual call per trace, with
    // predict/update statically dispatched inside) versus the pre-rewrite
    // path — the kept reference implementations driven by the old
    // per-record loop (two virtual calls per branch). Fresh predictor per
    // iteration so both sides always replay from untrained tables.
    let trace: Vec<BranchRecord> = (0..100_000u64)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 3 {
                0 => BranchRecord { pc: 0x100, taken: i % 24 != 23 },
                1 => BranchRecord { pc: 0x200, taken: x & 3 == 0 },
                _ => BranchRecord { pc: 0x300 + (x % 8) * 16, taken: x & 1 == 0 },
            }
        })
        .collect();
    suite.time_it("sim_cbp_replay_gshare2_100k", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(Gshare::with_budget_bytes(2 << 10));
        black_box(harness::run_with_window(&mut p, black_box(&trace), 1_000_000));
    });
    suite.time_it("sim_cbp_replay_gshare2_100k_ref", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(ReferenceGshare::with_budget_bytes(2 << 10));
        black_box(harness::run_per_record(p.as_mut(), black_box(&trace), 1_000_000));
    });
    suite.time_it("sim_cbp_replay_tage8_100k", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(Tage::seznec_8kb());
        black_box(harness::run_with_window(&mut p, black_box(&trace), 1_000_000));
    });
    suite.time_it("sim_cbp_replay_tage8_100k_per_record", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(Tage::seznec_8kb());
        black_box(harness::run_per_record(p.as_mut(), black_box(&trace), 1_000_000));
    });
    suite.time_it("sim_cbp_replay_tage8_100k_ref", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(ReferenceTage::seznec_8kb());
        black_box(harness::run_per_record(p.as_mut(), black_box(&trace), 1_000_000));
    });

    // Intra-encode tile parallelism: one dead-probe SVT-AV1 encode at 1
    // vs N tile workers. The artifacts are identical by the probe-merge
    // contract; only the partition-planning wall clock may differ, and
    // this pair makes the phase-A speedup (or single-core overhead)
    // visible in the trajectory.
    let tile_clip = vstress::video::synth::SynthParams {
        width: 160,
        height: 96,
        frame_count: 2,
        fps: 30.0,
        entropy: 4.5,
        class: vstress::video::synth::SceneClass::Game,
        seed: 9,
    }
    .synthesize("bench-tiles")
    .expect("even dimensions synthesize");
    let tile_encoder = vstress::codecs::Encoder::new(CodecId::SvtAv1, EncoderParams::new(35, 6))
        .expect("valid params");
    suite.time_it("encode_tile_workers_1", 0, || {
        let mut probe = NullProbe;
        black_box(tile_encoder.encode_threaded(&tile_clip, &mut probe, 1, 1).expect("encode"));
    });
    suite.time_it(&format!("encode_tile_workers_{tile_workers}"), 0, || {
        let mut probe = NullProbe;
        black_box(
            tile_encoder.encode_threaded(&tile_clip, &mut probe, tile_workers, 1).expect("encode"),
        );
    });

    // Cross-frame pipelining: the same dead-probe encode over a clip
    // long enough to fill the pipeline, at depth 1/2/4. Artifacts are
    // frame-pipeline invariant (the probe-merge contract again); the
    // trio makes the phase-A/phase-B overlap win — or, on a single
    // hardware thread, the scheduling overhead — visible in the
    // trajectory as fixed-name metrics.
    let pipe_clip = vstress::video::synth::SynthParams {
        width: 160,
        height: 96,
        frame_count: 6,
        fps: 30.0,
        entropy: 4.5,
        class: vstress::video::synth::SceneClass::Game,
        seed: 9,
    }
    .synthesize("bench-pipe")
    .expect("even dimensions synthesize");
    for fw in [1usize, 2, 4] {
        suite.time_it(&format!("encode_frame_workers_{fw}"), 0, || {
            let mut probe = NullProbe;
            black_box(tile_encoder.encode_threaded(&pipe_clip, &mut probe, 1, fw).expect("encode"));
        });
    }

    // Cross-frame scheduler slack: one pipelined dead-probe encode at
    // the configured `--frame-workers` depth, summing the watermark
    // stall time the planners spent blocked on reference rows. Lands in
    // its own report section (see `render_report`) so the gate never
    // compares this machine-dependent number.
    let mut pipeline_stall_ns = None;
    if suite.wants("pipeline_stall_ns") {
        if suite.list {
            suite.samples.push(Sample {
                name: "pipeline_stall_ns".to_owned(),
                iters: 0,
                ns_per_op: 0.0,
                pixels_per_op: 0,
            });
        } else {
            let mut probe = NullProbe;
            let run = tile_encoder
                .encode_threaded(&pipe_clip, &mut probe, 1, frame_workers)
                .expect("encode");
            let ns: u64 = run.tasks.frames.iter().map(|f| f.pipeline.stall_ns).sum();
            eprintln!(
                "vstress-bench: {:<34} {ns:>12} ns stalled (frame-workers {frame_workers})",
                "pipeline_stall_ns"
            );
            pipeline_stall_ns = Some(ns);
        }
    }

    // Full quick-profile encode: the hot-kernel profile experiment over the
    // quick configuration, exactly what `vstress-repro profile` runs. This
    // is a counting-only pass (no simulators attached), so it tracks the
    // encoder kernels, not the simulation path.
    let encode_wall_ms = wall(suite, "quick_profile_encode", || {
        let cfg = ExperimentConfig::quick();
        profile::table_hot_kernels(&cfg).expect("quick profile");
    });

    // The quick characterization's clips and encoder parameters — the
    // configuration every figure experiment actually runs — split into
    // the capture-once / simulate-many phases.
    let char_cfg = ExperimentConfig::quick();
    let char_specs: Vec<_> = char_cfg
        .clips
        .iter()
        .map(|&clip| char_cfg.spec(clip, CodecId::SvtAv1, EncoderParams::new(35, 4)))
        .collect();

    // Capture: record every spec's canonical event stream (clip
    // synthesis + recording encode, no simulation).
    let mut caps: Vec<workbench::CapturedEncode> = Vec::new();
    let capture_wall_ms = wall(suite, "quick_profile_capture", || {
        caps = char_specs
            .iter()
            .map(|s| workbench::capture_encode(s).expect("quick capture"))
            .collect();
    });

    // Re-simulation from the warm captures: the pipeline model (cache
    // hierarchy, top-down slots, fetch stream) consuming the recorded
    // streams — the wall clock the simulation-path optimizations are
    // accountable to, and what a warm-store characterization re-run
    // costs. When the capture phase was filtered out, capturing runs
    // here untimed as setup.
    if suite.wants("quick_profile_resim") && !suite.list && caps.is_empty() {
        caps = char_specs
            .iter()
            .map(|s| workbench::capture_encode(s).expect("quick capture"))
            .collect();
    }
    let resim_wall_ms = wall(suite, "quick_profile_resim", || {
        for (spec, cap) in char_specs.iter().zip(&caps) {
            black_box(workbench::characterize_from_capture(spec, cap));
        }
    });

    Walls {
        encode: encode_wall_ms,
        capture: capture_wall_ms,
        resim: resim_wall_ms,
        pipeline_stall_ns,
    }
}

/// Times one end-to-end wall-clock section, honoring filter and list
/// mode like [`Suite::time_it`] (listed names carry zeroed samples).
fn wall(suite: &mut Suite, name: &str, body: impl FnOnce()) -> Option<f64> {
    if !suite.wants(name) {
        return None;
    }
    if suite.list {
        suite.samples.push(Sample {
            name: name.to_owned(),
            iters: 0,
            ns_per_op: 0.0,
            pixels_per_op: 0,
        });
        return None;
    }
    let t0 = Instant::now();
    body();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("vstress-bench: {name:<34} {ms:>12.1} ms wall");
    Some(ms)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match cli::parse(&args, FLAGS) {
        Ok(p) => p,
        Err(e) => usage_error(&e),
    };
    for p in &parsed.positionals {
        if p != "gate" {
            usage_error(&cli::CliError::Unknown { flag: p.clone(), valid: "gate".to_owned() });
        }
    }
    let gate_mode = parsed.positionals.iter().any(|p| p == "gate");
    let quick = parsed.switch("--quick");
    let filter = parsed.value("--filter").map(str::to_owned);
    let tile_workers = match parsed.parsed("--tile-workers", cli::positive_usize) {
        Ok(v) => v.unwrap_or(4),
        Err(e) => usage_error(&e),
    };
    let frame_workers = match parsed.parsed("--frame-workers", cli::positive_usize) {
        Ok(v) => v.unwrap_or(4),
        Err(e) => usage_error(&e),
    };
    let out_path = parsed.value("--out").unwrap_or("BENCH_0007.json").to_owned();

    // `--list`: walk the suite without timing anything and print every
    // (filter-matching) metric name to stdout, one per line.
    if parsed.switch("--list") {
        if gate_mode {
            eprintln!("vstress-bench: --list cannot be combined with gate");
            std::process::exit(cli::USAGE_EXIT.into());
        }
        let mut suite = Suite { filter, list: true, target_ms: 0, samples: Vec::new() };
        run_suite(&mut suite, tile_workers, frame_workers);
        for s in &suite.samples {
            println!("{}", s.name);
        }
        return;
    }

    let meta = BuildMeta {
        mode: if quick { "quick" } else { "full" },
        tile_workers,
        frame_workers,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) { "debug" } else { "release" },
    };

    if gate_mode {
        let threshold = match parsed.parsed("--threshold", threshold_frac) {
            Ok(v) => v.unwrap_or(gate::DEFAULT_THRESHOLD),
            Err(e) => usage_error(&e),
        };
        let Some(baseline_path) = parsed.value("--baseline") else {
            eprintln!("vstress-bench: gate needs --baseline FILE (the committed trajectory)");
            std::process::exit(cli::USAGE_EXIT.into());
        };
        let baseline_json = match std::fs::read_to_string(baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vstress-bench: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let base = gate::parse_metrics(&baseline_json);
        if base.is_empty() {
            eprintln!("vstress-bench: no metrics in baseline {baseline_path}");
            std::process::exit(1);
        }
        let fresh = match parsed.value("--fresh") {
            Some(fresh_path) => {
                let json = match std::fs::read_to_string(fresh_path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("vstress-bench: cannot read fresh report {fresh_path}: {e}");
                        std::process::exit(1);
                    }
                };
                gate::parse_metrics(&json)
            }
            None => {
                eprintln!("vstress-bench: gate mode = {} (baseline {baseline_path})", meta.mode);
                let mut suite = Suite {
                    filter: filter.clone(),
                    list: false,
                    target_ms: if quick { 40 } else { 250 },
                    samples: Vec::new(),
                };
                let walls = run_suite(&mut suite, tile_workers, frame_workers);
                let json = render_report(&suite.samples, &meta, &walls);
                // Persist the fresh report only when asked: CI uploads it
                // as the run artifact.
                if parsed.value("--out").is_some() {
                    if let Err(e) = std::fs::write(&out_path, &json) {
                        eprintln!("vstress-bench: cannot write {out_path}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("vstress-bench: wrote {out_path}");
                }
                suite
                    .samples
                    .iter()
                    .map(|s| gate::Metric { name: s.name.clone(), ns_per_op: s.ns_per_op })
                    .collect()
            }
        };
        let report = gate::compare(&base, &fresh, threshold, filter.as_deref());
        // A gate that compared nothing is a configuration error, not a
        // pass: a typoed `--filter` must not green-light a regression.
        if report.compared() == 0 {
            match &filter {
                Some(f) => eprintln!(
                    "vstress-bench: gate: error — no shared metrics match --filter {f:?}; \
                     nothing was gated"
                ),
                None => eprintln!(
                    "vstress-bench: gate: error — no shared metrics between baseline and \
                     fresh report; nothing was gated"
                ),
            }
            std::process::exit(1);
        }
        for line in &report.lines {
            eprintln!("vstress-bench: gate: {line}");
        }
        if !report.missing.is_empty() {
            eprintln!(
                "vstress-bench: gate: {} baseline metric(s) missing from fresh report",
                report.missing.len()
            );
        }
        if report.passed() {
            eprintln!("vstress-bench: gate: PASS ({} metrics compared)", report.lines.len());
        } else {
            eprintln!(
                "vstress-bench: gate: FAIL — {} metric(s) regressed more than {:.0}%",
                report.regressions.len(),
                threshold * 100.0
            );
            std::process::exit(1);
        }
        return;
    }

    eprintln!("vstress-bench: mode = {}", meta.mode);
    let mut suite =
        Suite { filter, list: false, target_ms: if quick { 40 } else { 250 }, samples: Vec::new() };
    let walls = run_suite(&mut suite, tile_workers, frame_workers);
    let json = render_report(&suite.samples, &meta, &walls);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("vstress-bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("vstress-bench: wrote {out_path}");
}
