//! The characterization pipeline: one encode, fully instrumented.

use crate::runtime::cycles_to_seconds;
use vstress_codecs::taskgraph::TaskTrace;
use vstress_codecs::{CodecError, CodecId, Encoder, EncoderParams};
use vstress_pipeline::{CoreModel, CoreReport};
use vstress_trace::{ChunkTx, EventStream, HotKernelProfile, OpMix, StreamRecorder};
use vstress_video::vbench::{self, FidelityConfig};
use vstress_video::{Clip, VideoError};

/// Everything needed to run one characterized encode.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// vbench clip name.
    pub clip: &'static str,
    /// Codec model.
    pub codec: CodecId,
    /// Encoder parameters.
    pub params: EncoderParams,
    /// Clip synthesis fidelity.
    pub fidelity: FidelityConfig,
    /// Cache-hierarchy scale divisor (match `fidelity.dimension_divisor`).
    pub cache_divisor: usize,
    /// Whether to run the pipeline model (cycles, top-down, MPKI). When
    /// `false`, only the instruction mix is gathered and the captured
    /// stream is never simulated.
    pub model_pipeline: bool,
    /// Worker threads for the intra-encode tile/wavefront decomposition
    /// of Phase A (`Encoder::encode_threaded`, which runs one frame loop
    /// at any worker count). The result is worker-count invariant —
    /// bitstream, measurements, and probe stream are byte-identical at
    /// any value — so this field is deliberately **excluded** from the
    /// run cache key and the store key.
    pub tile_workers: usize,
    /// Frames in flight for the cross-frame pipeline
    /// (`Encoder::encode_threaded`): frame `N+1`'s planning overlaps
    /// frame `N`'s range coding under reference-row watermarks. Like
    /// `tile_workers`, the probe-merge contract makes every output
    /// worker-count invariant, so this field is likewise **excluded**
    /// from the run cache key and the store key.
    pub frame_workers: usize,
}

impl RunSpec {
    /// A spec at reduced "smoke" fidelity (tests, doc examples).
    pub fn quick(clip: &'static str, codec: CodecId, params: EncoderParams) -> Self {
        RunSpec {
            clip,
            codec,
            params,
            fidelity: FidelityConfig::smoke(),
            cache_divisor: 16,
            model_pipeline: true,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// A spec at the workbench's default fidelity.
    pub fn standard(clip: &'static str, codec: CodecId, params: EncoderParams) -> Self {
        RunSpec {
            clip,
            codec,
            params,
            fidelity: FidelityConfig::default(),
            cache_divisor: 8,
            model_pipeline: true,
            tile_workers: 1,
            frame_workers: 1,
        }
    }

    /// Disables the pipeline model (instruction mix only).
    #[must_use]
    pub fn counting_only(mut self) -> Self {
        self.model_pipeline = false;
        self
    }

    /// Sets the tile-worker count (see [`RunSpec::tile_workers`]).
    #[must_use]
    pub fn with_tile_workers(mut self, workers: usize) -> Self {
        self.tile_workers = workers.max(1);
        self
    }

    /// Sets the frame-worker count (see [`RunSpec::frame_workers`]).
    #[must_use]
    pub fn with_frame_workers(mut self, workers: usize) -> Self {
        self.frame_workers = workers.max(1);
        self
    }
}

/// Result of one characterized encode — the paper's full per-run
/// measurement set.
///
/// Serializable (and `PartialEq`) so the persistent run store
/// ([`crate::exec::store`]) can round-trip it across processes and
/// tests can assert bit-identity of reloaded entries.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CharacterizationRun {
    /// The spec's codec.
    pub codec: CodecId,
    /// The spec's parameters.
    pub params: EncoderParams,
    /// Clip name.
    pub clip: String,
    /// Retired-instruction mix (Pin substitute output).
    pub mix: OpMix,
    /// Hot-kernel profile (gprof substitute output).
    pub profile: HotKernelProfile,
    /// Core-model report (perf + top-down substitute). When the spec ran
    /// counting-only, this report carries zero cycles.
    pub core: CoreReport,
    /// Modelled execution time in seconds (0 when counting-only).
    pub seconds: f64,
    /// Mean luma PSNR of the reconstruction.
    pub mean_psnr: f64,
    /// Bitrate in kbps.
    pub bitrate_kbps: f64,
    /// Total encoded bits.
    pub total_bits: u64,
    /// Per-stage task costs for the threading study.
    pub tasks: TaskTrace,
}

/// Errors from the characterization pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkbenchError {
    /// Unknown clip or synthesis failure.
    Video(VideoError),
    /// Encoder rejected the parameters or input.
    Codec(CodecError),
}

impl std::fmt::Display for WorkbenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkbenchError::Video(e) => write!(f, "video: {e}"),
            WorkbenchError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for WorkbenchError {}

impl From<VideoError> for WorkbenchError {
    fn from(e: VideoError) -> Self {
        WorkbenchError::Video(e)
    }
}

impl From<CodecError> for WorkbenchError {
    fn from(e: CodecError) -> Self {
        WorkbenchError::Codec(e)
    }
}

/// Synthesizes the spec's clip.
pub fn clip_for(spec: &RunSpec) -> Result<Clip, WorkbenchError> {
    Ok(vbench::clip(spec.clip)?.synthesize(&spec.fidelity))
}

/// Runs one fully characterized encode, through the same path
/// `vstress-repro` takes: a recording encode whose event stream the core
/// model consumes chunk by chunk while the encode runs (counting-only
/// specs skip the model; see [`RunCache::run`](crate::exec::RunCache::run)).
///
/// # Errors
///
/// Returns [`WorkbenchError`] for unknown clips or invalid parameters.
pub fn characterize(spec: &RunSpec) -> Result<CharacterizationRun, WorkbenchError> {
    crate::exec::RunCache::new().run(spec).map(std::sync::Arc::unwrap_or_clone)
}

/// One recorded encode: the full canonical probe event stream plus every
/// stream-independent measurement the encode produced.
///
/// A capture is independent of `cache_divisor` and `model_pipeline`
/// (simulation-side knobs) and of `tile_workers`/`frame_workers` (the
/// probe-merge contract makes the stream worker-count invariant in both
/// dimensions), so a single capture serves **every** characterization of
/// its (clip, codec, params, fidelity) point — capture once, simulate
/// many.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedEncode {
    /// Clip name.
    pub clip: String,
    /// The chunked, canonical-address probe event stream.
    pub stream: EventStream,
    /// Retired-instruction mix of the encode.
    pub mix: OpMix,
    /// Hot-kernel profile of the encode.
    pub profile: HotKernelProfile,
    /// Mean luma PSNR of the reconstruction.
    pub mean_psnr: f64,
    /// Bitrate in kbps.
    pub bitrate_kbps: f64,
    /// Total encoded bits.
    pub total_bits: u64,
    /// Per-stage task costs for the threading study.
    pub tasks: TaskTrace,
    /// The encoded bitstream (the decode-cost study decodes it).
    pub bitstream: Vec<u8>,
}

// Hand-written so the bitstream travels as one byte-string token rather
// than as a seq of one integer token per byte (the derive would work, but
// would triple the store entry for the densest field).
impl serde::Serialize for CapturedEncode {
    fn serialize(&self, s: &mut serde::Serializer) {
        self.clip.serialize(s);
        self.stream.serialize(s);
        self.mix.serialize(s);
        self.profile.serialize(s);
        self.mean_psnr.serialize(s);
        self.bitrate_kbps.serialize(s);
        self.total_bits.serialize(s);
        self.tasks.serialize(s);
        s.write_bytes(&self.bitstream);
    }
}

impl<'de> serde::Deserialize<'de> for CapturedEncode {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        Ok(CapturedEncode {
            clip: String::deserialize(d)?,
            stream: EventStream::deserialize(d)?,
            mix: OpMix::deserialize(d)?,
            profile: HotKernelProfile::deserialize(d)?,
            mean_psnr: f64::deserialize(d)?,
            bitrate_kbps: f64::deserialize(d)?,
            total_bits: u64::deserialize(d)?,
            tasks: TaskTrace::deserialize(d)?,
            bitstream: d.read_bytes()?.into_owned(),
        })
    }
}

/// Records one encode as a [`CapturedEncode`].
///
/// A [`StreamRecorder`] gathers the canonical event stream (and, through
/// its embedded counting probe, the mix and hot-kernel profile) while
/// the encoder runs at the spec's tile-worker count. With a `sink`,
/// flushed chunks are additionally handed to a concurrent consumer as
/// they fill (capture/simulate overlap); the stream in the returned
/// capture is complete either way.
///
/// # Errors
///
/// Returns [`WorkbenchError`] if the encoder rejects the parameters.
pub fn capture_encode_with(
    spec: &RunSpec,
    clip: &Clip,
    sink: Option<ChunkTx>,
) -> Result<CapturedEncode, WorkbenchError> {
    let encoder = Encoder::new(spec.codec, spec.params)?;
    let mut rec = match sink {
        Some(tx) => StreamRecorder::with_sink(tx),
        None => StreamRecorder::new(),
    };
    let out = encoder.encode_threaded(
        clip,
        &mut rec,
        spec.tile_workers.max(1),
        spec.frame_workers.max(1),
    )?;
    let (stream, counting) = rec.finish();
    Ok(CapturedEncode {
        clip: clip.name().to_owned(),
        stream,
        mix: counting.mix(),
        profile: counting.profile().clone(),
        mean_psnr: out.mean_psnr(),
        bitrate_kbps: out.bitrate_kbps,
        total_bits: out.total_bits(),
        tasks: out.tasks,
        bitstream: out.bitstream,
    })
}

/// [`capture_encode_with`], synthesizing the clip and with no sink.
///
/// # Errors
///
/// Returns [`WorkbenchError`] for unknown clips or invalid parameters.
pub fn capture_encode(spec: &RunSpec) -> Result<CapturedEncode, WorkbenchError> {
    let clip = clip_for(spec)?;
    capture_encode_with(spec, &clip, None)
}

/// Derives the full characterization of `spec` from a captured encode of
/// the same (clip, codec, params, fidelity) point: a canonical stream
/// replay through a fresh core model (or no simulation at all, for
/// counting-only specs).
///
/// Bit-identical to a fused live encode driving the core model directly
/// — the `stream_equivalence` integration test is the oracle.
pub fn characterize_from_capture(spec: &RunSpec, cap: &CapturedEncode) -> CharacterizationRun {
    let mut core = CoreModel::broadwell_scaled(spec.cache_divisor);
    if spec.model_pipeline {
        core.consume_stream(&cap.stream);
    }
    run_from_parts(spec, cap, core)
}

/// Assembles the run record from a capture plus a core model that has
/// already consumed the capture's stream (or is untouched, for
/// counting-only specs) — shared by the serial replay path and the
/// channel-overlapped capture pipeline in [`crate::exec::RunCache`].
pub fn run_from_parts(
    spec: &RunSpec,
    cap: &CapturedEncode,
    core: CoreModel,
) -> CharacterizationRun {
    let report = core.into_report();
    let seconds = if spec.model_pipeline { cycles_to_seconds(report.cycles) } else { 0.0 };
    CharacterizationRun {
        codec: spec.codec,
        params: spec.params,
        clip: cap.clip.clone(),
        mix: cap.mix,
        profile: cap.profile.clone(),
        seconds,
        core: report,
        mean_psnr: cap.mean_psnr,
        bitrate_kbps: cap.bitrate_kbps,
        total_bits: cap.total_bits,
        tasks: cap.tasks.clone(),
    }
}

/// Maps an AV1-family CRF (0–63) onto the equivalent x264/x265 CRF
/// (0–51), preserving the quality point (both stretch over the same
/// internal quantizer ladder).
pub fn equivalent_h26x_crf(av1_crf: u8) -> u8 {
    ((av1_crf as u32 * 51 + 31) / 63) as u8
}

/// Maps an AV1-family preset (0 slow – 8 fast) onto the equivalent
/// x264/x265 preset (0 fast – 9 slow).
pub fn equivalent_h26x_preset(av1_preset: u8) -> u8 {
    let speed = av1_preset as f64 / 8.0;
    ((1.0 - speed) * 9.0).round() as u8
}

/// The (crf, preset) pair for `codec` matching an AV1-family quality/speed
/// point — the cross-codec normalization every comparison figure needs.
pub fn equivalent_params(codec: CodecId, av1_crf: u8, av1_preset: u8) -> EncoderParams {
    match codec {
        CodecId::SvtAv1 | CodecId::Libaom | CodecId::LibvpxVp9 => {
            EncoderParams::new(av1_crf, av1_preset)
        }
        CodecId::X264 | CodecId::X265 => {
            EncoderParams::new(equivalent_h26x_crf(av1_crf), equivalent_h26x_preset(av1_preset))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_characterization_produces_all_measurements() {
        let spec = RunSpec::quick("cat", CodecId::LibvpxVp9, EncoderParams::new(40, 6));
        let run = characterize(&spec).unwrap();
        assert!(run.mix.total() > 0);
        assert!(run.core.instructions > 0);
        assert!(run.seconds > 0.0);
        assert!(run.mean_psnr > 20.0);
        assert!(run.total_bits > 0);
        assert!(!run.tasks.frames.is_empty());
        assert!(run.profile.total() > 0);
    }

    #[test]
    fn counting_only_skips_the_pipeline() {
        let spec = RunSpec::quick("cat", CodecId::X264, EncoderParams::new(30, 5)).counting_only();
        let run = characterize(&spec).unwrap();
        assert!(run.mix.total() > 0);
        assert_eq!(run.seconds, 0.0);
        assert_eq!(run.core.instructions, 0);
    }

    #[test]
    fn characterization_is_tile_worker_invariant() {
        // The full measurement set — mix, profile, core report, task
        // trace — must not depend on how many workers ran the partition
        // search (the probe-merge contract).
        let spec = RunSpec::quick("desktop", CodecId::X265, EncoderParams::new(30, 5));
        let serial = characterize(&spec).unwrap();
        let parallel = characterize(&spec.with_tile_workers(3)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn unknown_clip_is_an_error() {
        let spec = RunSpec::quick("nope", CodecId::X264, EncoderParams::new(30, 5));
        assert!(matches!(characterize(&spec), Err(WorkbenchError::Video(_))));
    }

    #[test]
    fn equivalent_params_preserve_quality_point() {
        use vstress_codecs::params::crf_to_qindex;
        for crf in [0u8, 10, 31, 63] {
            let h = equivalent_h26x_crf(crf);
            let qa = crf_to_qindex(crf, 63);
            let qh = crf_to_qindex(h, 51);
            assert!((qa as i32 - qh as i32).abs() <= 2, "crf {crf}: {qa} vs {qh}");
        }
        // Preset direction flips.
        assert_eq!(equivalent_h26x_preset(0), 9);
        assert_eq!(equivalent_h26x_preset(8), 0);
        let p = equivalent_params(CodecId::X265, 40, 4);
        assert_eq!(p.crf, equivalent_h26x_crf(40));
    }
}
