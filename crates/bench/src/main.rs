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
//! the transform and range-coder kernels, motion search, the
//! simulation-side hot paths (cache-hierarchy load stream, core-model
//! event drain, stream record/replay, branch predictors, CBP window
//! replay), tile- and frame-parallel encodes, and the design-choice
//! ablations of DESIGN.md §6 (`ablation_*`: each configuration prints its
//! quality metric once, then is timed like any other sample). One JSON
//! report (`ns/op`, `pixels/s`, git revision, build metadata) lets every
//! PR be compared against the committed trajectory. Human-readable lines
//! go to stderr; the JSON artifact is the contract. `gate` mode turns the
//! comparison into an exit code for CI (see [`vstress_bench::gate`]).
//!
//! End-to-end wall clocks (the quick reproduction, store re-simulation,
//! per-layer spans) are `perfbench/`'s job, not this harness's.

use std::cell::OnceCell;
use std::hint::black_box;
use std::time::Instant;
use vstress::bpred::{
    harness, Bimodal, BranchPredictor, Gshare, Perceptron, Tage, TageConfig, TageWithLoop,
    Tournament, TwoLevelLocal,
};
use vstress::cache::config::PrefetchKind;
use vstress::cache::{Hierarchy, HierarchyConfig, HierarchyStats, ReplacementPolicy};
use vstress::cli::{self, FlagSpec};
use vstress::codecs::blocks::BlockRect;
use vstress::codecs::codecs::ToolSet;
use vstress::codecs::entropy::{Context, RangeDecoder, RangeEncoder};
use vstress::codecs::mc::{motion_compensate, MotionVector};
use vstress::codecs::mesearch::{motion_search, MeScratch, MeSettings};
use vstress::codecs::{kernels, transform, CodecId, Encoder, EncoderParams};
use vstress::pipeline::{CoreConfig, CoreModel};
use vstress::trace::record::{BranchRecord, NullSink};
use vstress::trace::{Kernel, MemAccess, NullProbe, Probe, ProbeEvent, SinkProbe, StreamRecorder};
use vstress::video::vbench::{self, FidelityConfig};
use vstress::video::Plane;
use vstress::workbench::equivalent_params;
use vstress_bench::gate;

/// Workers for the tile-parallel encode sample.
const TILE_WORKERS: usize = 4;
/// Cross-frame pipeline depth for the stall-accounting sample.
const FRAME_WORKERS: usize = 4;

const FLAGS: &[FlagSpec] = &[
    FlagSpec::switch("--quick", "short sampling windows (CI mode)"),
    FlagSpec::switch("--list", "print available metric names (one per line), no timing"),
    FlagSpec::value("--out", "FILE", "report path (default BENCH_0007.json)"),
    FlagSpec::value("--filter", "SUBSTR", "only run/gate metrics whose name contains SUBSTR"),
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
/// runs (it is cheap and shared; the ablation workloads, which are not,
/// are built on first use), timing loops only for matching names.
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

    /// Whether `name` will actually be timed (wanted, and not `--list`).
    fn times(&self, name: &str) -> bool {
        self.wants(name) && !self.list
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

    /// Times one ablation configuration: a first, untimed `run` feeds the
    /// `[ablation]` quality line (what the knob buys), then `run` is
    /// timed like any other sample (what it costs).
    fn ablation<R>(
        &mut self,
        name: &str,
        mut run: impl FnMut() -> R,
        quality: impl FnOnce(&R) -> String,
    ) {
        if self.times(name) {
            eprintln!("[ablation] {}", quality(&run()));
        }
        self.time_it(name, 0, || {
            black_box(run());
        });
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
    threads: usize,
    profile: &'static str,
}

/// Renders the report. `pipeline_stall_ns` is the summed cross-frame
/// watermark stall time of one encode at [`FRAME_WORKERS`] depth, when
/// that sample ran.
fn render_report(samples: &[Sample], meta: &BuildMeta, pipeline_stall_ns: Option<u64>) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 3,\n");
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", json_escape(&git_rev())));
    json.push_str(&format!("  \"mode\": \"{}\",\n", meta.mode));
    json.push_str(&format!(
        "  \"meta\": {{\"tile_workers\": {TILE_WORKERS}, \"frame_workers\": {FRAME_WORKERS}, \
         \"threads\": {}, \"profile\": \"{}\"}},\n",
        meta.threads, meta.profile
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
    // Deliberately not a `ns_per_op` kernel line: stall time is a
    // wall-clock-adjacent quantity the gate must never compare across
    // machines, so it gets its own section the metric scan skips.
    if let Some(ns) = pipeline_stall_ns {
        json.push_str(&format!(
            ",\n  \"pipeline\": {{\"name\": \"pipeline_stall_ns\", \"frame_workers\": \
             {FRAME_WORKERS}, \"stall_ns\": {ns}}}"
        ));
    }
    json.push_str("\n}\n");
    json
}

/// Runs the whole microbenchmark suite (filtered) into `suite`, returning
/// the pipeline stall time when that sample ran.
fn run_suite(suite: &mut Suite) -> Option<u64> {
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

    // Transform stage: the 8x8 DCT pair and the 16x16 SATD cost metric
    // (over the residual block above).
    let coeffs: Vec<i32> = (0..64).map(|i| (i * 37) % 255 - 127).collect();
    let mut coeff_out = vec![0i32; 64];
    suite.time_it("transform_fwd_8x8", 8 * 8, || {
        transform::forward(&mut NullProbe, 8, black_box(&coeffs), &mut coeff_out);
    });
    suite.time_it("transform_inv_8x8", 8 * 8, || {
        transform::inverse(&mut NullProbe, 8, black_box(&coeffs), &mut coeff_out);
    });
    suite.time_it("satd_16x16", 16 * 16, || {
        black_box(transform::satd(&mut NullProbe, 16, 16, black_box(&res16)));
    });

    // Range coder: 10k adaptive bins through one context, each way.
    let bins: Vec<bool> = (0..10_000).map(|i| i % 7 < 2).collect();
    let encode_bins = || {
        let mut enc = RangeEncoder::new();
        let mut ctx = Context::new(1);
        for &bin in black_box(&bins) {
            enc.encode(&mut NullProbe, &mut ctx, bin);
        }
        enc.finish()
    };
    suite.time_it("entropy_encode_10k_bins", 0, || {
        black_box(encode_bins());
    });
    let coded = encode_bins();
    suite.time_it("entropy_decode_10k_bins", 0, || {
        let mut dec = RangeDecoder::new(black_box(&coded));
        let mut ctx = Context::new(1);
        let ones = (0..bins.len()).filter(|_| dec.decode(&mut NullProbe, &mut ctx)).count();
        black_box(ones);
    });

    // ---- Simulation-side microbenchmarks. `sim_core_drain_16k_per_event`
    // keeps the pre-batching probe interface next to the batched drain,
    // so the dispatch saving stays visible inside a single report.

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

    // Branch predictors: single predict+update round-trips.
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

    // CBP window replay, through type erasure as the study runs it: the
    // whole-trace `replay` entry point (one virtual call per trace, with
    // predict/update statically dispatched inside). Fresh predictor per
    // iteration so every replay starts from untrained tables.
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
    suite.time_it("sim_cbp_replay_tage8_100k", 0, || {
        let mut p: Box<dyn BranchPredictor> = Box::new(Tage::seznec_8kb());
        black_box(harness::run_with_window(&mut p, black_box(&trace), 1_000_000));
    });

    // Intra-encode tile parallelism: one dead-probe SVT-AV1 encode at 1
    // vs `TILE_WORKERS` tile workers. The artifacts are identical by the
    // probe-merge contract; only the partition-planning wall clock may
    // differ, and this pair makes the phase-A speedup (or single-core
    // overhead) visible in the trajectory.
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
    let tile_encoder =
        Encoder::new(CodecId::SvtAv1, EncoderParams::new(35, 6)).expect("valid params");
    for tw in [1, TILE_WORKERS] {
        suite.time_it(&format!("encode_tile_workers_{tw}"), 0, || {
            let mut probe = NullProbe;
            black_box(tile_encoder.encode_threaded(&tile_clip, &mut probe, tw, 1).expect("encode"));
        });
    }

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
    // `FRAME_WORKERS` depth, summing the watermark stall time the
    // planners spent blocked on reference rows. Lands in its own report
    // section (see `render_report`) so the gate never compares this
    // machine-dependent number.
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
                .encode_threaded(&pipe_clip, &mut probe, 1, FRAME_WORKERS)
                .expect("encode");
            let ns: u64 = run.tasks.frames.iter().map(|f| f.pipeline.stall_ns).sum();
            eprintln!(
                "vstress-bench: {:<34} {ns:>12} ns stalled (frame-workers {FRAME_WORKERS})",
                "pipeline_stall_ns"
            );
            pipeline_stall_ns = Some(ns);
        }
    }

    run_ablations(suite);
    pipeline_stall_ns
}

/// The branch and memory traces of one SVT-AV1 `game2` smoke encode,
/// plus its retired-instruction count (the MPKI denominator).
type AblationTraces = (Vec<BranchRecord>, Vec<MemAccess>, u64);

fn ablation_traces() -> AblationTraces {
    let clip = vbench::clip("game2").expect("vbench clip").synthesize(&FidelityConfig::smoke());
    let enc = Encoder::new(CodecId::SvtAv1, EncoderParams::new(45, 6)).expect("valid params");
    let mut probe = SinkProbe::new(Vec::new(), Vec::new());
    enc.encode(&clip, &mut probe).expect("encode");
    let (mix, branches, mems) = probe.into_parts();
    eprintln!(
        "vstress-bench: ablation traces: {} branches, {} memory accesses (SVT-AV1 game2 smoke)",
        branches.len(),
        mems.len()
    );
    (branches, mems, mix.total())
}

/// Replays a memory trace through a fresh hierarchy.
fn replay_mems(cfg: HierarchyConfig, mems: &[MemAccess]) -> HierarchyStats {
    let mut h = Hierarchy::new(cfg);
    for m in mems {
        if m.is_store {
            h.store(m.addr, m.bytes);
        } else {
            h.load(m.addr, m.bytes);
        }
    }
    h.stats()
}

/// The design-choice ablations of DESIGN.md §6: six groups of
/// configurations, each group on one shared workload so a group's
/// quality lines compare like with like. The workloads are built on
/// first use, so `--list` and filters that exclude them pay nothing.
fn run_ablations(suite: &mut Suite) {
    let traces_cell = OnceCell::new();
    let traces = || traces_cell.get_or_init(ablation_traces);
    let cat_cell = OnceCell::new();
    let cat = || {
        cat_cell.get_or_init(|| {
            vbench::clip("cat").expect("vbench clip").synthesize(&FidelityConfig::smoke())
        })
    };

    // Predictor family at a fixed ~8 KB budget.
    type PredictorFactory = fn() -> Box<dyn BranchPredictor>;
    let families: [(&str, PredictorFactory); 7] = [
        ("bimodal", || Box::new(Bimodal::with_budget_bytes(8 << 10))),
        ("local", || Box::new(TwoLevelLocal::new(12, 12))),
        ("gshare", || Box::new(Gshare::with_budget_bytes(8 << 10))),
        ("tournament", || Box::new(Tournament::with_budget_bytes(8 << 10))),
        ("perceptron", || Box::new(Perceptron::with_budget_bytes(8 << 10))),
        ("tage", || Box::new(Tage::seznec_8kb())),
        ("tage_l", || Box::new(TageWithLoop::seznec_8kb())),
    ];
    for (config, make) in families {
        suite.ablation(
            &format!("ablation_predictor_{config}"),
            || {
                let (branches, _, total) = traces();
                harness::run_with_window(&mut make(), branches, *total)
            },
            |stats| {
                format!(
                    "predictor {config:<10} miss {:.3}%  MPKI {:.3}",
                    stats.miss_rate() * 100.0,
                    stats.mpki()
                )
            },
        );
    }

    // TAGE tagged-table count, entries scaled to keep total storage
    // roughly constant.
    for tables in [2usize, 4, 6, 10] {
        let cfg = TageConfig {
            num_tables: tables,
            log_entries: match tables {
                2 => 11,
                4 => 10,
                _ => 9,
            },
            ..TageConfig::budget_8kb()
        };
        suite.ablation(
            &format!("ablation_tage_tables_{tables}"),
            || {
                let (branches, _, total) = traces();
                harness::run_with_window(&mut Tage::new(cfg.clone()), branches, *total)
            },
            |stats| {
                format!(
                    "tage tables={tables:<2} miss {:.3}%  MPKI {:.3}",
                    stats.miss_rate() * 100.0,
                    stats.mpki()
                )
            },
        );
    }

    // Cache replacement policy at L1D and L2.
    let policy_name = |p: ReplacementPolicy| format!("ablation_cache_{}", p.label());
    for policy in ReplacementPolicy::ALL {
        let mut cfg = HierarchyConfig::broadwell_scaled(16);
        cfg.l1d.policy = policy;
        cfg.l2.policy = policy;
        suite.ablation(
            &policy_name(policy),
            || replay_mems(cfg, &traces().1),
            |stats| {
                let total = traces().2;
                format!(
                    "policy {:<7} L1D MPKI {:.2}  L2 MPKI {:.2}",
                    policy.label(),
                    stats.l1d.mpki(total),
                    stats.l2.mpki(total)
                )
            },
        );
    }
    // The L2 prefetcher sweep is quality-only (untimed): it rides along
    // whenever a replacement-policy configuration runs.
    if ReplacementPolicy::ALL.into_iter().any(|p| suite.times(&policy_name(p))) {
        let (_, mems, total) = traces();
        for prefetch in [PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Stride] {
            let mut cfg = HierarchyConfig::broadwell_scaled(16);
            cfg.l2_prefetch = prefetch;
            eprintln!(
                "[ablation] prefetch={prefetch:?}  L2 MPKI {:.3}",
                replay_mems(cfg, mems).l2.mpki(*total)
            );
        }
    }

    // Memory-level-parallelism modelling in the interval core.
    let svt = Encoder::new(CodecId::SvtAv1, EncoderParams::new(45, 6)).expect("valid params");
    for (config, max_mlp) in [("mlp_off", 1u32), ("mlp_4", 4), ("mlp_8", 8)] {
        suite.ablation(
            &format!("ablation_{config}"),
            || {
                let mut cfg = CoreConfig::broadwell();
                cfg.max_mlp = max_mlp;
                let mut model = CoreModel::new(
                    cfg,
                    HierarchyConfig::broadwell_scaled(16),
                    Gshare::with_budget_bytes(32 << 10),
                );
                svt.encode(cat(), &mut model).expect("encode");
                model.into_report()
            },
            |report| format!("{config:<8} IPC {:.3}", report.ipc()),
        );
    }

    // The paper's "exponential search space" claim: partition grammar
    // size vs instruction count at identical content and quality.
    for (config, codec) in [
        ("av1_10_shapes", CodecId::SvtAv1),
        ("vp9_4_shapes", CodecId::LibvpxVp9),
        ("h26x_quadtree", CodecId::X265),
    ] {
        let enc = Encoder::new(codec, equivalent_params(codec, 30, 2)).expect("valid params");
        suite.ablation(
            &format!("ablation_search_space_{config}"),
            || {
                let mut probe = SinkProbe::new(NullSink, NullSink);
                enc.encode(cat(), &mut probe).expect("encode");
                probe.mix().total()
            },
            |&instrs| format!("{config:<14} instructions {:.3e}", instrs as f64),
        );
    }

    // RDO early-termination aggressiveness — the paper's "increasing CRF
    // simply decreases the amount of algorithmic work" pruning dial,
    // isolated from CRF.
    let params = EncoderParams::new(40, 4);
    let base = ToolSet::resolve(CodecId::SvtAv1, &params).expect("valid params");
    for scale in [1u64, 4, 16, 64] {
        let mut tools = base.clone();
        tools.early_exit_scale = scale;
        let enc = Encoder::with_tools(tools, params).expect("valid tools");
        suite.ablation(
            &format!("ablation_early_exit_{scale}"),
            || {
                let mut probe = SinkProbe::new(NullSink, NullSink);
                let out = enc.encode(cat(), &mut probe).expect("encode");
                (probe.mix().total(), out.mean_psnr())
            },
            |&(instrs, psnr)| {
                format!(
                    "early_exit_scale={scale:<3} instructions {:.3e}  PSNR {psnr:.2} dB",
                    instrs as f64
                )
            },
        );
    }
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
    let out_path = parsed.value("--out").unwrap_or("BENCH_0007.json").to_owned();

    // `--list`: walk the suite without timing anything and print every
    // (filter-matching) metric name to stdout, one per line.
    if parsed.switch("--list") {
        if gate_mode {
            eprintln!("vstress-bench: --list cannot be combined with gate");
            std::process::exit(cli::USAGE_EXIT.into());
        }
        let mut suite = Suite { filter, list: true, target_ms: 0, samples: Vec::new() };
        run_suite(&mut suite);
        for s in &suite.samples {
            println!("{}", s.name);
        }
        return;
    }

    let meta = BuildMeta {
        mode: if quick { "quick" } else { "full" },
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
                let stall_ns = run_suite(&mut suite);
                let json = render_report(&suite.samples, &meta, stall_ns);
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
    let stall_ns = run_suite(&mut suite);
    let json = render_report(&suite.samples, &meta, stall_ns);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("vstress-bench: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("vstress-bench: wrote {out_path}");
}
