//! The decoder: bitstream in, frames out — the exact mirror of the
//! encoder's reconstruction loop.
//!
//! The round-trip invariant the test suite leans on:
//! `Decoder::decode(bitstream).frames == EncodeResult::recon`, bit for bit,
//! for every codec model, CRF and preset. Decoding is also an instrumented
//! workload in its own right (the paper notes decoding is "fairly
//! straightforward" relative to encoding — the instruction-count ratio
//! between our encode and decode paths reproduces that claim).

use crate::bitstream::SequenceHeader;
use crate::deblock::deblock_frame;
use crate::entropy::RangeDecoder;
use crate::error::CodecError;
use crate::frame_coder::{decode_sb_chroma, decode_superblock, CoderConfig, CoderState};
use crate::params::qindex_to_qstep;
use vstress_trace::{Kernel, Probe};
use vstress_video::Frame;

/// Result of decoding a bitstream.
#[derive(Debug, Clone)]
pub struct DecodeResult {
    /// The parsed sequence header.
    pub header: SequenceHeader,
    /// Decoded frames, cropped to the header dimensions.
    pub frames: Vec<Frame>,
}

/// A stateless decoder entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder;

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Decoder
    }

    /// Decodes a vstress bitstream.
    ///
    /// Nothing is allocated for the header's geometry before the
    /// payload is checked to be long enough to code it (see
    /// `min_payload_bits`), so a forged header fails instead of
    /// allocating frames its payload could never fill.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] on malformed input.
    pub fn decode<P: Probe>(&self, data: &[u8], probe: &mut P) -> Result<DecodeResult, CodecError> {
        let (header, payload) = SequenceHeader::parse(data)?;
        let cfg = CoderConfig::from_header(&header);
        let sb = cfg.superblock;
        if sb == 0 || cfg.min_block == 0 || !sb.is_multiple_of(2) {
            return Err(CodecError::CorruptBitstream {
                offset: 15,
                expected: "valid block geometry",
            });
        }
        let w = header.width as usize;
        let h = header.height as usize;
        let pw = w.div_ceil(sb) * sb;
        let ph = h.div_ceil(sb) * sb;
        let superblocks = (pw / sb * (ph / sb)) as u64;
        if min_payload_bits(u64::from(header.frame_count), superblocks) > 8 * payload.len() as u64 {
            return Err(CodecError::CorruptBitstream {
                offset: SequenceHeader::BYTES + payload.len(),
                expected: "a payload long enough for the header's frames",
            });
        }

        let mut dec = RangeDecoder::new(payload);
        let mut state = CoderState::new();
        let mut last_recon: Option<Frame> = None;
        let mut golden_recon: Option<Frame> = None;
        let mut frames = Vec::with_capacity(header.frame_count as usize);

        for frame_no in 0..header.frame_count as usize {
            probe.set_kernel(Kernel::FrameSetup);
            probe.alu(32);
            // Frame header: the quantizer the encoder's CRF controller
            // chose for this frame.
            let frame_q = dec.decode_literal(probe, 8) as u8;
            let mut fcfg = cfg.clone();
            fcfg.qindex = frame_q;
            let mut recon = Frame::new(pw, ph).map_err(CodecError::Video)?;
            let is_keyframe =
                frame_no == 0 || (header.keyint > 0 && frame_no % header.keyint as usize == 0);
            let mut refs: Vec<&Frame> = Vec::new();
            if !is_keyframe {
                if let Some(l) = &last_recon {
                    refs.push(l);
                }
                if cfg.ref_frames > 1 {
                    if let Some(g) = &golden_recon {
                        refs.push(g);
                    }
                }
            }
            let refs_slice: &[&Frame] = &refs;
            for sy in (0..ph).step_by(sb) {
                for sx in (0..pw).step_by(sb) {
                    let rect = crate::blocks::BlockRect::new(sx, sy, sb, sb);
                    let info = decode_superblock(
                        probe, &fcfg, refs_slice, &mut dec, &mut state, &mut recon, rect,
                    )?;
                    decode_sb_chroma(
                        probe, &fcfg, refs_slice, rect, &info, &mut dec, &mut state, &mut recon,
                    );
                }
            }
            let qstep = qindex_to_qstep(fcfg.qindex);
            deblock_frame(probe, &mut recon, qstep);
            frames.push(crate::encoder::crop(&recon, w, h)?);
            if frame_no % crate::encoder::GOLDEN_INTERVAL == 0 {
                golden_recon = Some(recon.clone());
            }
            last_recon = Some(recon);
        }
        Ok(DecodeResult { header, frames })
    }
}

/// A lower bound on the payload bits of any bitstream coding `frames`
/// frames of `superblocks` superblocks each.
///
/// Each frame header is an 8-bit bypass literal (exactly 8 bits), and
/// every superblock codes at least one leaf, whose skip flag is an
/// adaptive bin. Context probabilities are clamped to
/// `[16, 2032] / 2048`, so such a bin costs at least
/// `-log2(2032 / 2048)` ≈ 0.0113 bits, which this bound rounds down to
/// 1/128 bit. The range coder never writes fewer bytes than the coded
/// information needs, less the 4 bytes of its register, and its flush
/// writes 5 more, so the bound holds for the payload's length.
fn min_payload_bits(frames: u64, superblocks: u64) -> u64 {
    frames.saturating_mul(8 + superblocks / 128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::CodecId;
    use crate::encoder::Encoder;
    use crate::params::EncoderParams;
    use vstress_trace::{CountingProbe, NullProbe};
    use vstress_video::vbench::{self, FidelityConfig};

    fn roundtrip(codec: CodecId, crf: u8, preset: u8, clip_name: &str) {
        let clip = vbench::clip(clip_name).unwrap().synthesize(&FidelityConfig::smoke());
        let enc = Encoder::new(codec, EncoderParams::new(crf, preset)).unwrap();
        let out = enc.encode(&clip, &mut NullProbe).unwrap();
        let dec = Decoder::new().decode(&out.bitstream, &mut NullProbe).unwrap();
        assert_eq!(dec.frames.len(), out.recon.len());
        for (i, (d, r)) in dec.frames.iter().zip(&out.recon).enumerate() {
            assert_eq!(d, r, "{codec} frame {i} reconstruction mismatch");
        }
    }

    #[test]
    fn svt_av1_roundtrip() {
        roundtrip(CodecId::SvtAv1, 40, 8, "desktop");
    }

    #[test]
    fn libaom_roundtrip() {
        roundtrip(CodecId::Libaom, 30, 6, "cat");
    }

    #[test]
    fn vp9_roundtrip() {
        roundtrip(CodecId::LibvpxVp9, 50, 4, "bike");
    }

    #[test]
    fn x264_roundtrip() {
        roundtrip(CodecId::X264, 24, 5, "game2");
    }

    #[test]
    fn x265_roundtrip() {
        roundtrip(CodecId::X265, 35, 5, "holi");
    }

    #[test]
    fn decoding_is_far_cheaper_than_encoding() {
        let clip = vbench::clip("girl").unwrap().synthesize(&FidelityConfig::smoke());
        let enc = Encoder::new(CodecId::SvtAv1, EncoderParams::new(30, 4)).unwrap();
        let mut pe = CountingProbe::new();
        let out = enc.encode(&clip, &mut pe).unwrap();
        let mut pd = CountingProbe::new();
        Decoder::new().decode(&out.bitstream, &mut pd).unwrap();
        assert!(
            pe.mix().total() > pd.mix().total() * 5,
            "encode {} vs decode {}",
            pe.mix().total(),
            pd.mix().total()
        );
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(Decoder::new().decode(b"not a stream", &mut NullProbe).is_err());
        assert!(Decoder::new().decode(&[], &mut NullProbe).is_err());
    }

    #[test]
    fn forged_geometry_is_rejected_before_allocating() {
        let frames = (0..3).map(|_| Frame::new(16, 16).unwrap()).collect();
        let clip = vstress_video::Clip::from_frames("tiny", frames, 30.0).unwrap();
        let enc = Encoder::new(CodecId::X264, EncoderParams::new(30, 5)).unwrap();
        let good = enc.encode(&clip, &mut NullProbe).unwrap().bitstream;
        assert_eq!(Decoder::new().decode(&good, &mut NullProbe).unwrap().frames.len(), 3);
        let (_, payload) = SequenceHeader::parse(&good).unwrap();
        assert!(min_payload_bits(3, 1) <= 8 * payload.len() as u64);

        // The header's width, height and frame count at bytes 6..12, as
        // 65534 x 65534 and 65535 frames: gigabytes of frames for a
        // payload of a few bytes.
        let mut forged = good.clone();
        for (at, v) in [(6, 65534u16), (8, 65534), (10, 65535)] {
            forged[at..at + 2].copy_from_slice(&v.to_le_bytes());
        }
        // Each of the three alone is also more than the payload codes.
        let mut frames_only = good.clone();
        frames_only[10..12].copy_from_slice(&65535u16.to_le_bytes());
        let mut size_only = good;
        size_only[6..10].copy_from_slice(&[0xfe, 0xff, 0xfe, 0xff]);
        for data in [forged, frames_only, size_only] {
            let err = Decoder::new().decode(&data, &mut NullProbe).unwrap_err();
            assert!(matches!(err, CodecError::CorruptBitstream { .. }), "{err}");
        }
    }
}
