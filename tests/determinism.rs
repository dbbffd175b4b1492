//! Determinism guarantees: every workbench result must be bit-identical
//! across runs — the property that makes the experiments reproducible.

use vstress::codecs::{CodecId, Encoder, EncoderParams};
use vstress::pipeline::CoreModel;
use vstress::trace::{CanonicalizingProbe, CountingProbe, NullProbe, TeeProbe};
use vstress::video::vbench::{self, FidelityConfig};

#[test]
fn clip_synthesis_is_bit_identical_across_runs() {
    let a = vbench::clip("holi").unwrap().synthesize(&FidelityConfig::smoke());
    let b = vbench::clip("holi").unwrap().synthesize(&FidelityConfig::smoke());
    for (fa, fb) in a.frames().iter().zip(b.frames()) {
        assert_eq!(fa, fb);
    }
}

#[test]
fn bitstreams_are_bit_identical_across_runs() {
    let clip = vbench::clip("game3").unwrap().synthesize(&FidelityConfig::smoke());
    let enc = Encoder::new(CodecId::SvtAv1, EncoderParams::new(33, 5)).unwrap();
    let a = enc.encode(&clip, &mut NullProbe).unwrap();
    let b = enc.encode(&clip, &mut NullProbe).unwrap();
    assert_eq!(a.bitstream, b.bitstream);
    assert_eq!(a.frame_bits, b.frame_bits);
}

#[test]
fn instrumentation_does_not_change_the_bitstream() {
    // Heisenberg check: probing must never alter encoder decisions.
    let clip = vbench::clip("funny").unwrap().synthesize(&FidelityConfig::smoke());
    let enc = Encoder::new(CodecId::X265, EncoderParams::new(30, 5)).unwrap();
    let plain = enc.encode(&clip, &mut NullProbe).unwrap();
    let mut probe = TeeProbe::new(CountingProbe::new(), CoreModel::broadwell_scaled(16));
    let probed = enc.encode(&clip, &mut probe).unwrap();
    assert_eq!(plain.bitstream, probed.bitstream);
    assert_eq!(plain.frame_psnr, probed.frame_psnr);
}

#[test]
fn pipeline_reports_are_fully_deterministic() {
    // The instruction/branch stream is bit-deterministic, and since the
    // probes report synthetic page-aligned addresses (see
    // `vstress_trace::probe_addr`) the cache statistics are too: after
    // first-touch page renaming (each encode draws fresh page bases),
    // address streams are a pure function of the encode, not of
    // allocator state or ASLR, so every derived statistic reproduces
    // exactly.
    let clip = vbench::clip("presentation").unwrap().synthesize(&FidelityConfig::smoke());
    let enc = Encoder::new(CodecId::Libaom, EncoderParams::new(44, 6)).unwrap();
    let run = |clip: &vstress::video::Clip| {
        let mut model = CanonicalizingProbe::new(CoreModel::broadwell_scaled(16));
        enc.encode(clip, &mut model).unwrap();
        model.into_inner().into_report()
    };
    let a = run(&clip);
    let b = run(&clip);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.branches, b.branches);
    assert_eq!(a.branch_mispredicts, b.branch_mispredicts);
    assert_eq!(a.cache.l1d.misses, b.cache.l1d.misses);
    assert_eq!(a.cache.l2.misses, b.cache.l2.misses);
    assert_eq!(a.cache.llc.misses, b.cache.llc.misses);
    assert_eq!(a.cycles, b.cycles, "cycles: {} vs {}", a.cycles, b.cycles);
}

#[test]
fn task_traces_are_identical_across_runs() {
    let clip = vbench::clip("cricket").unwrap().synthesize(&FidelityConfig::smoke());
    let enc = Encoder::new(CodecId::X264, EncoderParams::new(20, 3)).unwrap();
    let mut p1 = CountingProbe::new();
    let mut p2 = CountingProbe::new();
    let a = enc.encode(&clip, &mut p1).unwrap();
    let b = enc.encode(&clip, &mut p2).unwrap();
    assert_eq!(a.tasks, b.tasks);
}

#[test]
fn different_seeds_give_different_content_same_format() {
    let mut f1 = FidelityConfig::smoke();
    let mut f2 = FidelityConfig::smoke();
    f1.seed = 1;
    f2.seed = 2;
    let a = vbench::clip("bike").unwrap().synthesize(&f1);
    let b = vbench::clip("bike").unwrap().synthesize(&f2);
    assert_eq!(a.dimensions(), b.dimensions());
    assert_ne!(a.frames()[0], b.frames()[0]);
    // Both still encode fine.
    let enc = Encoder::new(CodecId::X264, EncoderParams::new(26, 5)).unwrap();
    assert!(enc.encode(&a, &mut NullProbe).is_ok());
    assert!(enc.encode(&b, &mut NullProbe).is_ok());
}
