//! Encode-vs-decode cost comparison.
//!
//! Not a numbered figure, but a direct check of the paper's §2.2 premise:
//! "compared to encoding, video decoding is a fairly straightforward
//! operation because there exists only one valid decoding for each
//! encoding method" — i.e. decode cost should be a small fraction of
//! encode cost, and roughly codec-independent, because the decoder never
//! searches.

use super::ExperimentConfig;
use crate::table::{f1, sci, Table};
use crate::workbench::{equivalent_params, RunSpec, WorkbenchError};
use vstress_codecs::CodecId;

/// One codec's encode/decode instruction costs.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DecodeCostRow {
    /// Codec measured.
    pub codec: CodecId,
    /// Encode instructions.
    pub encode_instructions: u64,
    /// Decode instructions.
    pub decode_instructions: u64,
}

impl DecodeCostRow {
    /// encode/decode instruction ratio.
    pub fn ratio(&self) -> f64 {
        self.encode_instructions as f64 / self.decode_instructions.max(1) as f64
    }
}

/// The decode-cost study's specs: every codec, counting only, at the
/// CRF-35 preset-4 equivalent on the headline clip.
pub fn cost_specs(cfg: &ExperimentConfig) -> Vec<RunSpec> {
    CodecId::ALL
        .map(|codec| {
            cfg.spec(cfg.headline_clip, codec, equivalent_params(codec, 35, 4)).counting_only()
        })
        .to_vec()
}

/// Measures encode vs decode instruction counts for all five codecs on
/// the headline clip.
///
/// # Errors
///
/// Propagates [`WorkbenchError`] from any failing encode/decode.
pub fn table_decode_vs_encode(
    cfg: &ExperimentConfig,
) -> Result<(Table, Vec<DecodeCostRow>), WorkbenchError> {
    let mut table = Table::new(
        format!("encode vs decode instruction cost ({})", cfg.headline_clip),
        &["codec", "encode insts", "decode insts", "encode/decode"],
    );
    // Each codec's encode+decode pair is independent; fan out. Going
    // through the cache's cost layer means a persistent store serves
    // repeat runs without re-encoding (the clip is only synthesized on
    // a store miss).
    let specs = cost_specs(cfg);
    let rows = vstress_codecs::batch::run_ordered(
        specs.len(),
        cfg.threads,
        |i| -> Result<DecodeCostRow, WorkbenchError> {
            let cost = cfg.cache.encode_decode_cost(&specs[i])?;
            Ok(DecodeCostRow {
                codec: specs[i].codec,
                encode_instructions: cost.encode_instructions,
                decode_instructions: cost.decode_instructions,
            })
        },
    )?;
    for row in &rows {
        table.push_row(vec![
            row.codec.name().to_owned(),
            sci(row.encode_instructions),
            sci(row.decode_instructions),
            f1(row.ratio()),
        ]);
    }
    Ok((table, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoding_is_cheap_and_codec_insensitive() {
        let mut cfg = ExperimentConfig::quick();
        cfg.headline_clip = "cat";
        let (_, rows) = table_decode_vs_encode(&cfg).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.ratio() > 3.0,
                "{}: decode should be far cheaper than encode (ratio {})",
                row.codec,
                row.ratio()
            );
        }
        // The encode gap between SVT-AV1 and x264 is much wider than the
        // decode gap — search explains the cost, not the bitstream.
        let svt = rows.iter().find(|r| r.codec == CodecId::SvtAv1).unwrap();
        let x264 = rows.iter().find(|r| r.codec == CodecId::X264).unwrap();
        let encode_gap = svt.encode_instructions as f64 / x264.encode_instructions as f64;
        let decode_gap = svt.decode_instructions as f64 / x264.decode_instructions as f64;
        assert!(
            encode_gap > decode_gap * 1.5,
            "encode gap {encode_gap} should dwarf decode gap {decode_gap}"
        );
    }
}
