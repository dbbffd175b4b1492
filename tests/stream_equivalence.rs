//! Tentpole oracle for the capture-once / simulate-many pipeline: a
//! characterization derived from a persisted probe event stream must be
//! **bit-identical** to a fused live encode (the core model attached as
//! the encoder's probe, no stream in between; `characterize_live`) —
//! not approximately equal.
//! Every optimization in the replay loop (batched chunk drains, cached
//! per-kernel scalars, the incremental fetch walk, cache way hints) is
//! licensed by these tests.
//!
//! Bit-identity of the f64 fields is asserted through `serde::to_string`:
//! the JSON text renders every float exactly (shortest round-trip), so
//! equal strings mean equal bits, while `assert_eq!` on the structs alone
//! would accept `-0.0 == 0.0` and ULP-level drift hidden by display
//! rounding.

use vstress::bpred::Tage;
use vstress::cache::HierarchyConfig;
use vstress::codecs::{CodecId, Encoder};
use vstress::pipeline::{CoreConfig, CoreModel};
use vstress::runtime::cycles_to_seconds;
use vstress::trace::stream::chunk_channel;
use vstress::trace::{BranchWindowProbe, CountingProbe, TeeProbe};
use vstress::video::Clip;
use vstress::workbench::{
    capture_encode_with, characterize_from_capture, clip_for, equivalent_params, run_from_parts,
    CharacterizationRun, RunSpec,
};

/// Every codec family the workbench models, at the same quality point.
const CODECS: [CodecId; 4] = [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom];

fn spec_for(codec: CodecId) -> RunSpec {
    RunSpec::quick("cat", codec, equivalent_params(codec, 35, 4))
}

/// The live oracle: one encode with a counting probe and a fresh core
/// model both attached through a `TeeProbe`, so every event reaches the
/// simulator directly — no recording, packing or replay in between.
fn characterize_live(spec: &RunSpec, clip: &Clip) -> CharacterizationRun {
    let encoder = Encoder::new(spec.codec, spec.params).unwrap();
    let mut probe =
        TeeProbe::new(CountingProbe::new(), CoreModel::broadwell_scaled(spec.cache_divisor));
    let out =
        encoder.encode_threaded(clip, &mut probe, spec.tile_workers, spec.frame_workers).unwrap();
    let (counting, core) = probe.into_parts();
    let report = core.into_report();
    CharacterizationRun {
        codec: spec.codec,
        params: spec.params,
        clip: clip.name().to_owned(),
        mix: counting.mix(),
        profile: counting.profile().clone(),
        seconds: cycles_to_seconds(report.cycles),
        core: report,
        mean_psnr: out.mean_psnr(),
        bitrate_kbps: out.bitrate_kbps,
        total_bits: out.total_bits(),
        tasks: out.tasks,
    }
}

/// The tentpole guarantee: for every codec family, replaying a captured
/// stream through a fresh core model reproduces the fused live
/// characterization bit-for-bit — mix, profile, cycles, top-down slots,
/// cache stats, everything.
#[test]
fn capture_replay_is_bit_identical_to_live_for_every_codec() {
    for codec in CODECS {
        let spec = spec_for(codec);
        let clip = clip_for(&spec).unwrap();
        let live = characterize_live(&spec, &clip);
        let cap = capture_encode_with(&spec, &clip, None).unwrap();
        let replayed = characterize_from_capture(&spec, &cap);
        assert_eq!(live, replayed, "{codec:?}: replay diverged from live");
        assert_eq!(
            serde::to_string(&live),
            serde::to_string(&replayed),
            "{codec:?}: f64 bits diverged between live and replay"
        );
    }
}

/// The overlapped capture pipeline — encode feeding chunks through a
/// bounded channel into a concurrently draining core model — must land
/// on the same bits as a serial replay of the finished stream.
#[test]
fn channel_overlapped_consume_matches_serial_replay() {
    let spec = spec_for(CodecId::SvtAv1);
    let clip = clip_for(&spec).unwrap();
    let (cap, core) = std::thread::scope(|scope| {
        let (tx, rx) = chunk_channel(8);
        let divisor = spec.cache_divisor;
        let consumer = scope.spawn(move || {
            let mut core = CoreModel::broadwell_scaled(divisor);
            while let Some(chunk) = rx.recv() {
                core.consume_chunk(&chunk);
            }
            core
        });
        let cap = capture_encode_with(&spec, &clip, Some(tx)).unwrap();
        (cap, consumer.join().unwrap())
    });
    let overlapped = run_from_parts(&spec, &cap, core);
    let serial = characterize_from_capture(&spec, &cap);
    assert_eq!(overlapped, serial);
    assert_eq!(serde::to_string(&overlapped), serde::to_string(&serial));
}

/// Stream replay is predictor-agnostic: both shipped TAGE geometries,
/// driven live as the encode's probe, match a replay of the captured
/// stream through the same geometry bit-for-bit. (The default gshare
/// geometry is covered by the all-codec test above.)
#[test]
fn capture_replay_is_bit_identical_for_both_tage_geometries() {
    let spec = spec_for(CodecId::SvtAv1);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    type MkTage = fn() -> Tage;
    let geometries: [(&str, MkTage); 2] =
        [("tage-8KB", Tage::seznec_8kb), ("tage-64KB", Tage::seznec_64kb)];
    for (label, mk) in geometries {
        let mut live = CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        );
        let encoder = Encoder::new(spec.codec, spec.params).unwrap();
        encoder.encode_threaded(&clip, &mut live, 1, 1).unwrap();
        let mut replay = CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        );
        replay.consume_stream(&cap.stream);
        let live = live.into_report();
        let replay = replay.into_report();
        assert_eq!(live, replay, "{label}: replay diverged from live");
        assert_eq!(
            serde::to_string(&live),
            serde::to_string(&replay),
            "{label}: f64 bits diverged"
        );
    }
}

/// The CBP study's mid-run branch window, sliced out of a captured
/// stream, must equal the window a dedicated live probe pass would have
/// captured — same records, same covered-instruction count.
#[test]
fn branch_window_from_stream_matches_live_probe_pass() {
    let spec = spec_for(CodecId::X265);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    let total = cap.mix.total();
    let window = total / 4;

    let mut live = BranchWindowProbe::mid_run(total, window);
    let encoder = Encoder::new(spec.codec, spec.params).unwrap();
    encoder.encode_threaded(&clip, &mut live, 1, 1).unwrap();

    let mut replayed = BranchWindowProbe::mid_run(total, window);
    cap.stream.replay(&mut replayed);

    assert_eq!(live.window_retired(), replayed.window_retired());
    assert_eq!(live.records(), replayed.records());
    assert!(!replayed.records().is_empty());
}

/// A persisted stream — serialized, reloaded, replayed — produces the
/// same characterization as the in-memory capture it came from: the
/// store's `stream` entries really do stand in for re-encoding.
#[test]
fn persisted_stream_reproduces_the_characterization() {
    let spec = spec_for(CodecId::X264);
    let clip = clip_for(&spec).unwrap();
    let cap = capture_encode_with(&spec, &clip, None).unwrap();
    let text = serde::to_string(&cap);
    let reloaded = serde::from_str::<vstress::workbench::CapturedEncode>(&text).unwrap();
    assert_eq!(cap, reloaded);
    let from_memory = characterize_from_capture(&spec, &cap);
    let from_disk = characterize_from_capture(&spec, &reloaded);
    assert_eq!(from_memory, from_disk);
    assert_eq!(serde::to_string(&from_memory), serde::to_string(&from_disk));
}
