//! The probe-merge contract, adversarially: splitting an encode across
//! tile/wavefront workers, or overlapping frame `N+1`'s Phase A planning
//! with frame `N`'s Phase B coding, must change nothing observable — not
//! the bitstream, not the reconstruction, not the task trace, and not a
//! single probe event (branch PCs included) in the canonically merged
//! stream — at any `{tile_workers, frame_workers}` combination. The
//! reference side is always the encode at one tile and one frame worker,
//! which drives the probe directly.
//!
//! The schedules are chosen to be awkward on purpose: ragged frame
//! geometries (partial border superblocks whose motion candidates get
//! clamped, straddling tile/row boundaries), enough rows and columns to
//! give every codec's decomposition — SVT segments, x26x wavefront
//! chunks, libaom/vp9 tile groups — more than one chain to race, clips
//! that cross the golden-refresh boundary mid-pipeline, keyframe
//! intervals that cut reference chains (including every-frame intra),
//! and clips shorter than the pipeline depth.

use std::collections::HashMap;
use vstress::codecs::{CodecId, EncoderParams};
use vstress_codecs::Encoder;
use vstress_trace::{CountingProbe, EventBatch, Probe, ProbeEvent, RecordingProbe};
use vstress_video::synth::{SceneClass, SynthParams};
use vstress_video::Clip;

/// Canonicalizes data addresses by first-touch page renaming — the same
/// remap the pipeline model applies. The synthetic allocator
/// (`probe_addr::alloc`) hands every plane a fresh page base from a
/// process-global counter, and pipelined encodes allocate planes
/// concurrently, so two runs differ in page *bases* while agreeing on
/// page structure and sub-page offsets; after renaming, equal streams
/// mean equal memory behaviour. Branch PCs and every non-memory event
/// are compared verbatim.
fn canonicalize(batch: &EventBatch) -> Vec<ProbeEvent> {
    const PAGE_SHIFT: u64 = 12;
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let mut rename = |addr: u64| -> u64 {
        let next = pages.len() as u64;
        let id = *pages.entry(addr >> PAGE_SHIFT).or_insert(next);
        (id << PAGE_SHIFT) | (addr & ((1 << PAGE_SHIFT) - 1))
    };
    batch
        .events()
        .iter()
        .map(|e| match *e {
            ProbeEvent::Load { addr, bytes } => ProbeEvent::Load { addr: rename(addr), bytes },
            ProbeEvent::Store { addr, bytes } => ProbeEvent::Store { addr: rename(addr), bytes },
            other => other,
        })
        .collect()
}

/// A tiny deterministic LCG so geometry/param draws need no test-only
/// dependency on the rand shim's API.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.next() as usize % options.len()]
    }
}

/// Synthesizes a clip whose luma dimensions are even but deliberately
/// *not* superblock multiples, so border superblocks are partial.
fn awkward_clip(rng: &mut Lcg, frames: usize) -> Clip {
    // Widths/heights cover 2–4 superblock columns/rows at size 32 (and
    // more at 16), always with a ragged border on at least one axis.
    let width = rng.pick(&[70, 82, 98, 110]);
    let height = rng.pick(&[38, 46, 58, 66]);
    let class = rng.pick(&[SceneClass::Game, SceneClass::Action, SceneClass::Screen]);
    let params = SynthParams {
        width,
        height,
        frame_count: frames,
        fps: 30.0,
        entropy: 3.0 + (rng.next() % 40) as f64 / 10.0,
        class,
        seed: rng.next(),
    };
    params.synthesize("awkward").expect("even dimensions synthesize")
}

/// One fully recorded encode: every probe event in merge order, plus
/// the complete encode result. `frame_workers == 1` is the frame-serial
/// path, which drives the probe directly at one tile worker.
fn recorded_encode(
    codec: CodecId,
    params: EncoderParams,
    clip: &Clip,
    tile_workers: usize,
    frame_workers: usize,
) -> (EventBatch, vstress_codecs::EncodeResult, u64) {
    let encoder = Encoder::new(codec, params).expect("valid params");
    let mut counting = CountingProbe::new();
    let mut rec = RecordingProbe::new(&mut counting);
    let out = encoder
        .encode_threaded(clip, &mut rec, tile_workers, frame_workers)
        .expect("encode succeeds");
    let batch = rec.into_batch();
    (batch, out, counting.retired())
}

/// Asserts every observable of `got` equals the serial reference.
fn assert_equivalent(
    ctx: &str,
    (serial_canon, serial_out, serial_retired): &(
        Vec<ProbeEvent>,
        vstress_codecs::EncodeResult,
        u64,
    ),
    (events, out, retired): (EventBatch, vstress_codecs::EncodeResult, u64),
) {
    assert_eq!(events.len(), serial_canon.len(), "{ctx}: event count");
    assert_eq!(&canonicalize(&events), serial_canon, "{ctx}: merged probe stream diverged");
    assert_eq!(retired, *serial_retired, "{ctx}: retired count");
    assert_eq!(out.bitstream, serial_out.bitstream, "{ctx}: bitstream");
    assert_eq!(out.recon, serial_out.recon, "{ctx}: recon");
    assert_eq!(out.tasks, serial_out.tasks, "{ctx}: task trace");
    assert_eq!(out.frame_bits, serial_out.frame_bits, "{ctx}: frame bits");
    assert_eq!(out.frame_psnr, serial_out.frame_psnr, "{ctx}: frame psnr");
}

#[test]
fn tile_merge_is_byte_identical_to_the_serial_stream() {
    let mut rng = Lcg(0x5eed_1e57);
    // Each codec exercises a different decomposition shape; VP9 shares
    // libaom's tile builder, so the aom case covers both.
    for codec in [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom] {
        let clip = awkward_clip(&mut rng, 2);
        let params = EncoderParams::new(rng.pick(&[25, 40]), rng.pick(&[5, 7]));
        let (serial_events, serial_out, serial_retired) =
            recorded_encode(codec, params, &clip, 1, 1);
        assert!(!serial_events.is_empty(), "{codec:?}: serial encode must record events");
        let serial = (canonicalize(&serial_events), serial_out, serial_retired);
        for workers in [2usize, 4] {
            // The merged stream — ops, addresses (up to first-touch page
            // renaming), branch PCs, taken bits, kernel switches — must
            // match event for event.
            let got = recorded_encode(codec, params, &clip, workers, 1);
            assert_equivalent(&format!("{codec:?} @ {workers} tile workers"), &serial, got);
        }
    }
}

#[test]
fn captured_stream_is_tile_worker_invariant() {
    // The capture-once layer's licence to drop `tile_workers` from its
    // cache key: a recorded capture — the packed canonical event stream
    // byte-for-byte, chunk boundaries included, plus every
    // stream-independent measurement — must not depend on how many
    // workers ran the encode. A capture recorded at any worker count may
    // then serve replays for every other count.
    use vstress::workbench::{capture_encode, RunSpec};
    let serial = capture_encode(&RunSpec::quick("cat", CodecId::X264, EncoderParams::new(35, 4)))
        .expect("serial capture");
    let tiled = capture_encode(
        &RunSpec::quick("cat", CodecId::X264, EncoderParams::new(35, 4)).with_tile_workers(4),
    )
    .expect("tiled capture");
    assert_eq!(serial.stream.events(), tiled.stream.events(), "event count diverged");
    assert_eq!(
        serial.stream.chunks(),
        tiled.stream.chunks(),
        "packed canonical stream diverged across tile-worker counts"
    );
    assert_eq!(serial, tiled, "captured measurements diverged across tile-worker counts");
}

#[test]
fn dead_probe_path_reaches_the_same_encode() {
    // Without a live probe the workers take the memoized fast path; the
    // artifacts (not the instrumentation, which is deliberately absent)
    // must still be worker-count invariant and equal to the instrumented
    // encode's.
    let mut rng = Lcg(0xabad_cafe);
    for codec in [CodecId::SvtAv1, CodecId::X265] {
        let clip = awkward_clip(&mut rng, 2);
        let params = EncoderParams::new(35, 6);
        let encoder = Encoder::new(codec, params).expect("valid params");
        let (_, live_out, _) = recorded_encode(codec, params, &clip, 3, 1);
        for workers in [1usize, 2, 4] {
            let mut null = vstress_trace::NullProbe;
            let out =
                encoder.encode_threaded(&clip, &mut null, workers, 1).expect("encode succeeds");
            assert_eq!(out.bitstream, live_out.bitstream, "{codec:?} @ {workers} workers (dead)");
            assert_eq!(out.recon, live_out.recon, "{codec:?} @ {workers} workers (dead)");
        }
    }
}

#[test]
fn frame_pipeline_merge_is_byte_identical_to_the_serial_stream() {
    let mut rng = Lcg(0xf1a6_cafe);
    // Each codec exercises a different plan decomposition; VP9 shares
    // libaom's tile builder, so the aom case covers both.
    for codec in [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom] {
        // Three frames: a keyframe, an inter frame, and an inter frame
        // whose golden reference is an earlier (already-evicted-from-
        // pipeline) frame.
        let clip = awkward_clip(&mut rng, 3);
        let params = EncoderParams::new(rng.pick(&[25, 40]), rng.pick(&[5, 7]));
        let (serial_events, serial_out, serial_retired) =
            recorded_encode(codec, params, &clip, 1, 1);
        assert!(!serial_events.is_empty(), "{codec:?}: serial encode must record events");
        let serial = (canonicalize(&serial_events), serial_out, serial_retired);
        for frame_workers in [2usize, 4] {
            for tile_workers in [1usize, 2] {
                let got = recorded_encode(codec, params, &clip, tile_workers, frame_workers);
                assert_equivalent(
                    &format!("{codec:?} @ fw={frame_workers} tw={tile_workers}"),
                    &serial,
                    got,
                );
            }
        }
    }
}

#[test]
fn golden_refresh_boundary_is_pipeline_invariant() {
    // Ten frames cross the golden refresh at frame 8 while four frames
    // are in flight: frames 9.. switch their second reference to the
    // fresh golden snapshot that was filled in lockstep with frame 8's
    // Phase B. SVT-AV1 always codes with two references.
    let mut rng = Lcg(0x601d_0001);
    let clip = awkward_clip(&mut rng, 10);
    let params = EncoderParams::new(45, 8);
    let codec = CodecId::SvtAv1;
    let (serial_events, serial_out, serial_retired) = recorded_encode(codec, params, &clip, 1, 1);
    let serial = (canonicalize(&serial_events), serial_out, serial_retired);
    for (tile_workers, frame_workers) in [(1usize, 2usize), (2, 4)] {
        let got = recorded_encode(codec, params, &clip, tile_workers, frame_workers);
        assert_equivalent(
            &format!("golden refresh @ fw={frame_workers} tw={tile_workers}"),
            &serial,
            got,
        );
    }
}

#[test]
fn keyframe_intervals_cut_reference_chains_identically() {
    // keyint=1 makes every frame intra-only (no views are ever read);
    // keyint=3 drops a keyframe mid-pipeline so some in-flight frames
    // plan with no references while their neighbours plan with two.
    let mut rng = Lcg(0x4e11_0003);
    for keyint in [1u8, 3] {
        let clip = awkward_clip(&mut rng, 5);
        let params = EncoderParams::new(45, 8).with_keyint(keyint);
        let codec = CodecId::SvtAv1;
        let (serial_events, serial_out, serial_retired) =
            recorded_encode(codec, params, &clip, 1, 1);
        let serial = (canonicalize(&serial_events), serial_out, serial_retired);
        let got = recorded_encode(codec, params, &clip, 1, 4);
        assert_equivalent(&format!("keyint={keyint} @ fw=4"), &serial, got);
    }
}

#[test]
fn clips_shorter_than_the_pipeline_depth_are_invariant() {
    // Depth 4 with 1- and 2-frame clips: the window never fills, every
    // worker races to the tail, and the coordinator drains immediately.
    let mut rng = Lcg(0x5027_0002);
    for frames in [1usize, 2] {
        let clip = awkward_clip(&mut rng, frames);
        let params = EncoderParams::new(35, 6);
        let codec = CodecId::X264;
        let (serial_events, serial_out, serial_retired) =
            recorded_encode(codec, params, &clip, 1, 1);
        let serial = (canonicalize(&serial_events), serial_out, serial_retired);
        let got = recorded_encode(codec, params, &clip, 2, 4);
        assert_equivalent(&format!("{frames}-frame clip @ fw=4"), &serial, got);
    }
}

#[test]
fn dead_probe_pipeline_reaches_the_same_encode() {
    // Without a live probe the pipeline workers plan through the
    // memoized fast path; the artifacts (not the instrumentation, which
    // is deliberately absent) must still match the instrumented serial
    // encode at every pipeline depth.
    let mut rng = Lcg(0xdead_0004);
    let clip = awkward_clip(&mut rng, 4);
    let params = EncoderParams::new(35, 6);
    let codec = CodecId::X265;
    let encoder = Encoder::new(codec, params).expect("valid params");
    let (_, live_out, _) = recorded_encode(codec, params, &clip, 1, 1);
    let mut null = vstress_trace::NullProbe;
    let dead_serial = encoder.encode_threaded(&clip, &mut null, 1, 1).expect("encode succeeds");
    for frame_workers in [2usize, 4] {
        let out =
            encoder.encode_threaded(&clip, &mut null, 2, frame_workers).expect("encode succeeds");
        assert_eq!(out.bitstream, live_out.bitstream, "fw={frame_workers} (dead): bitstream");
        assert_eq!(out.recon, live_out.recon, "fw={frame_workers} (dead): recon");
        // The dead path records no event costs — its trace must match
        // the dead *serial* trace, not the instrumented one.
        assert_eq!(out.tasks, dead_serial.tasks, "fw={frame_workers} (dead): task trace");
    }
}

#[test]
fn pipeline_stats_are_populated_without_breaking_identity() {
    // The one thing allowed to differ: wall-clock occupancy. It must be
    // populated on the pipelined run, while the trace still compares
    // equal to serial (PipelineStats is excluded from equality and
    // serialization by design).
    let mut rng = Lcg(0x57a7_0005);
    let clip = awkward_clip(&mut rng, 4);
    let params = EncoderParams::new(40, 7);
    let codec = CodecId::SvtAv1;
    let (_, serial_out, _) = recorded_encode(codec, params, &clip, 1, 1);
    let (_, piped_out, _) = recorded_encode(codec, params, &clip, 1, 4);
    assert_eq!(piped_out.tasks, serial_out.tasks, "trace identity must ignore pipeline stats");
    let busy: u64 = piped_out.tasks.frames.iter().map(|f| f.pipeline.busy_ns).sum();
    assert!(busy > 0, "pipelined run must account Phase A busy time");
    for f in &piped_out.tasks.frames {
        let occ = f.pipeline.occupancy();
        assert!((0.0..=1.0).contains(&occ), "occupancy {occ} out of range");
    }
    let serial_busy: u64 = serial_out.tasks.frames.iter().map(|f| f.pipeline.busy_ns).sum();
    assert_eq!(serial_busy, 0, "serial path must not fabricate pipeline stats");
}

#[test]
fn watermark_covers_every_reference_row_the_planner_reads() {
    // Dynamic audit of the REF_ROW_MARGIN safety argument: record one
    // plan unit per codec at its *widest* motion-search configuration
    // (slowest preset), collect every load the planner issues against
    // the reference luma, and check the deepest row touched stays below
    // the row watermark the pipeline waits for.
    use vstress_codecs::blocks::BlockRect;
    use vstress_codecs::codecs::ToolSet;
    use vstress_codecs::frame_coder::{plan_superblock, CoderConfig, PlanScratch};
    use vstress_codecs::frame_pipeline::watermark_need;
    use vstress_codecs::mc::MotionVector;
    use vstress_video::Frame;

    let mut rng = Lcg(0x3a26_0006);
    for codec in
        [CodecId::SvtAv1, CodecId::Libaom, CodecId::LibvpxVp9, CodecId::X264, CodecId::X265]
    {
        // Slowest preset = largest search range (SVT counts 0 slowest,
        // x26x counts 9 slowest; 0 is in-range and slowest-or-fastest
        // for every family, and we take the max range of both ends).
        let slow = EncoderParams::new(20, 0);
        let other = EncoderParams::new(20, codec.max_preset());
        let tools = [slow, other]
            .into_iter()
            .map(|p| ToolSet::resolve(codec, &p).expect("valid params"))
            .max_by_key(|t| t.me.range)
            .expect("two candidates");
        let sb = tools.superblock;
        let pw = 4 * sb;
        let ph = 6 * sb;
        let mut src = Frame::new(pw, ph).expect("even dims");
        let mut reference = Frame::new(pw, ph).expect("even dims");
        let mut noise = Lcg(rng.next());
        for y in 0..ph {
            for x in 0..pw {
                src.luma_mut().set(x, y, (noise.next() % 256) as u8);
                reference.luma_mut().set(x, y, (noise.next() % 256) as u8);
            }
        }
        reference.luma_mut().pad_borders();
        reference.cb_mut().pad_borders();
        reference.cr_mut().pad_borders();
        let cfg = CoderConfig::from_tools(&tools, 20);
        let base = reference.luma().base_addr();
        let stride = reference.luma().stride() as u64;
        let span = stride * ph as u64;
        // A middle superblock row: rows both above and below in reach.
        let unit_row = 2;
        let need = watermark_need(unit_row, sb, tools.me.range, ph);
        let mut counting = CountingProbe::new();
        let mut rec = RecordingProbe::new(&mut counting);
        let mut seed = MotionVector::ZERO;
        let mut scratch = PlanScratch::new();
        for col in 0..pw / sb {
            let rect = BlockRect::new(col * sb, unit_row * sb, sb, sb);
            let refs = [&reference];
            plan_superblock(&mut rec, &tools, &cfg, &src, &refs, rect, &mut seed, &mut scratch);
        }
        let batch = rec.into_batch();
        let mut deepest = 0usize;
        let mut touched = false;
        for e in batch.events() {
            if let ProbeEvent::Load { addr, .. } = *e {
                if addr >= base && addr < base + span {
                    touched = true;
                    deepest = deepest.max(((addr - base) / stride) as usize);
                }
            }
        }
        assert!(touched, "{codec:?}: planner must read the reference");
        assert!(
            deepest < need,
            "{codec:?}: planner read reference row {deepest}, watermark only covers {need} \
             (range {})",
            tools.me.range
        );
    }
}
