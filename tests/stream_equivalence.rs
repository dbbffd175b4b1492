//! Tentpole oracle for the capture-once / simulate-many pipeline: a
//! characterization derived from a persisted probe event stream must be
//! **bit-identical** to a fused live encode (the core model attached as
//! the encoder's probe, no stream in between; `characterize_live`) —
//! not approximately equal.
//! Every optimization in the replay loop (the inlined L1-hit path, cached
//! per-kernel scalars, the incremental fetch walk, the branch-free cache
//! set scan) is licensed by these tests.
//!
//! Bit-identity of the f64 fields is asserted through `serde::to_string`:
//! the JSON text renders every float exactly (shortest round-trip), so
//! equal strings mean equal bits, while `assert_eq!` on the structs alone
//! would accept `-0.0 == 0.0` and ULP-level drift hidden by display
//! rounding.

use std::sync::Arc;
use vstress::bpred::Tage;
use vstress::cache::HierarchyConfig;
use vstress::codecs::{CodecId, Encoder};
use vstress::exec::{BranchWindow, Request};
use vstress::pipeline::{CoreConfig, CoreModel};
use vstress::runtime::cycles_to_seconds;
use vstress::trace::{BranchWindowProbe, CanonicalizingProbe, CountingProbe, TeeProbe};
use vstress::video::Clip;
use vstress::workbench::{
    capture_encode, capture_encode_with, characterize_from_capture, clip_for, equivalent_params,
    run_from_parts, CharacterizationRun, RunSpec,
};
use vstress::{RunCache, RunStore};

/// Every codec family the workbench models, at the same quality point.
const CODECS: [CodecId; 4] = [CodecId::SvtAv1, CodecId::X264, CodecId::X265, CodecId::Libaom];

fn spec_for(codec: CodecId) -> RunSpec {
    RunSpec::quick("cat", codec, equivalent_params(codec, 35, 4))
}

/// The live oracle: one encode with a counting probe and a fresh core
/// model both attached through a `TeeProbe`, so every event reaches the
/// simulator directly — no recording, packing or replay in between. The
/// model sits behind a `CanonicalizingProbe`, which renames pages in
/// first-touch order as a capture does.
fn characterize_live(spec: &RunSpec, clip: &Clip) -> CharacterizationRun {
    let encoder = Encoder::new(spec.codec, spec.params).unwrap();
    let core = CoreModel::broadwell_scaled(spec.cache_divisor);
    let mut probe = TeeProbe::new(CountingProbe::new(), CanonicalizingProbe::new(core));
    let out =
        encoder.encode_threaded(clip, &mut probe, spec.tile_workers, spec.frame_workers).unwrap();
    let (counting, core) = probe.into_parts();
    let report = core.into_inner().into_report();
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
/// cache stats, everything. So does the core model the recorder fed
/// while it packed that stream.
#[test]
fn capture_replay_is_bit_identical_to_live_for_every_codec() {
    for codec in CODECS {
        let spec = spec_for(codec);
        let clip = clip_for(&spec).unwrap();
        let live = characterize_live(&spec, &clip);
        let mut fed = CoreModel::broadwell_scaled(spec.cache_divisor);
        let cap = capture_encode_with(&spec, &clip, Some(&mut fed)).unwrap();
        let replayed = characterize_from_capture(&spec, &cap);
        assert_eq!(live, replayed, "{codec:?}: replay diverged from live");
        assert_eq!(
            serde::to_string(&live),
            serde::to_string(&replayed),
            "{codec:?}: f64 bits diverged between live and replay"
        );
        assert_eq!(
            serde::to_string(&run_from_parts(&spec, &cap, fed)),
            serde::to_string(&replayed),
            "{codec:?}: the model fed during the capture diverged from the replay"
        );
    }
}

/// A live-fed plan — the recording encode's recorder feeding the core
/// model and the centred branch window each canonical event on the
/// encode's thread, with no stream in between — lands on the bits of a
/// replay of the finished capture, for every codec family: with no store
/// attached, where the recorder packs nothing, and with one, where it
/// packs the stream and feeds the consumers at once. The stored stream
/// then replays to the same bits too.
#[test]
fn live_fed_plan_matches_capture_replay_for_every_codec() {
    let root = std::env::temp_dir().join(format!("vstress-live-fed-{}", std::process::id()));
    for codec in CodecId::ALL {
        let spec = spec_for(codec);
        let cap = capture_encode(&spec).unwrap();
        let replayed = serde::to_string(&characterize_from_capture(&spec, &cap));
        let window = cap.mix.total() / 4;
        let mut probe = BranchWindowProbe::mid_run(cap.mix.total(), window);
        cap.stream.replay(&mut probe);
        let replayed_window = serde::to_string(&BranchWindow {
            instructions: probe.window_retired().max(1),
            records: probe.into_records().into(),
        });
        let plan = [Request::Run(spec.clone()), Request::Window(spec.clone(), window)];
        let _ = std::fs::remove_dir_all(&root);
        let store = || Arc::new(RunStore::open(&root).unwrap());
        for (cache, label) in
            [(RunCache::new(), "no store"), (RunCache::with_store(store()), "store fill")]
        {
            cache.run_plan(1, &plan).unwrap();
            assert_eq!(cache.stats().encodes, 1, "{codec:?}, {label}");
            let run = cache.run(&spec).unwrap();
            assert_eq!(serde::to_string(&*run), replayed, "{codec:?}, {label}: run diverged");
            let window = cache.branch_window(&spec, window).unwrap();
            assert_eq!(serde::to_string(&*window), replayed_window, "{codec:?}, {label}: window");
        }
        // A fresh cache over the filled store asks for a run it does not
        // hold, which it derives from the stored stream.
        let other = RunSpec { cache_divisor: 8, ..spec.clone() };
        let reloaded = RunCache::with_store(store());
        let run = reloaded.run(&other).unwrap();
        assert_eq!(reloaded.stats().encodes, 0, "{codec:?}: the stored stream serves the run");
        assert_eq!(
            serde::to_string(&*run),
            serde::to_string(&characterize_from_capture(&other, &cap)),
            "{codec:?}: the stored stream diverged"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
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
        let mut live = CanonicalizingProbe::new(CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        ));
        let encoder = Encoder::new(spec.codec, spec.params).unwrap();
        encoder.encode_threaded(&clip, &mut live, 1, 1).unwrap();
        let mut replay = CoreModel::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(spec.cache_divisor),
            mk(),
        );
        replay.consume_stream(&cap.stream);
        let live = live.into_inner().into_report();
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
