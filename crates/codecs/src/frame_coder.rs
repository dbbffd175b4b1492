//! The block-coding engine: partition search, mode decision, residual
//! coding, and the exactly-mirrored decode path.
//!
//! Encoding a superblock happens in two phases, as in real fast encoders:
//!
//! * **Phase A (search)** — [`plan_superblock`] explores the partition
//!   grammar the tool set allows, evaluating intra modes (by SATD against
//!   source-pixel edges) and motion candidates per node, with RD-based
//!   early termination. This phase is where AV1-family models burn an
//!   order of magnitude more instructions than the H.26x models — the
//!   paper's headline mechanism.
//! * **Phase B (code)** — [`code_superblock`] walks the winning plan,
//!   re-predicts from *reconstructed* edges, transforms, quantizes,
//!   entropy-codes, and reconstructs. [`decode_superblock`] mirrors it
//!   bin-for-bin, so `decode(encode(x))` reproduces the encoder's
//!   reconstruction exactly.

use crate::bitstream::{FrameContexts, SequenceHeader, SIG_BANDS};
use crate::blocks::{BlockRect, PartitionShape};
use crate::codecs::ToolSet;
use crate::entropy::{decode_uvlc, encode_uvlc, RangeDecoder, RangeEncoder};
use crate::error::CodecError;
use crate::kernels;
use crate::mc::{motion_compensate, MotionVector};
use crate::mesearch::{motion_search, motion_search_around};
use crate::params::crf_to_qindex;
use crate::predict::{predict, IntraEdges, IntraMode};
use crate::quant::Quantizer;
use crate::rdo::{Lambda, RdDecision};
use crate::transform;
use vstress_trace::{Kernel, Probe};
use vstress_video::{Frame, Plane};

/// Geometry and tool information shared by the encode and decode paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CoderConfig {
    /// Superblock size.
    pub superblock: usize,
    /// Minimum coding block size.
    pub min_block: usize,
    /// Maximum split depth.
    pub max_depth: u32,
    /// Ordered partition-shape list.
    pub shapes: Vec<PartitionShape>,
    /// Ordered intra-mode list.
    pub modes: Vec<IntraMode>,
    /// Reference frames available to inter prediction (1–2).
    pub ref_frames: usize,
    /// Quantizer index of the current frame (the encoder adapts this per
    /// frame and signals it; see `Encoder`'s rate control).
    pub qindex: u8,
}

impl CoderConfig {
    /// Derives the coder config from a resolved tool set plus CRF.
    pub fn from_tools(tools: &ToolSet, crf: u8) -> Self {
        CoderConfig {
            superblock: tools.superblock,
            min_block: tools.min_block,
            max_depth: tools.max_depth,
            shapes: tools.partition_shapes.clone(),
            modes: tools.intra_modes.clone(),
            ref_frames: tools.ref_frames,
            qindex: crf_to_qindex(crf, tools.codec.max_crf()),
        }
    }

    /// Derives the coder config from a parsed sequence header.
    pub fn from_header(h: &SequenceHeader) -> Self {
        CoderConfig {
            superblock: h.superblock as usize,
            min_block: h.min_block as usize,
            max_depth: h.max_depth as u32,
            shapes: crate::bitstream::shapes_from_mask(h.shape_mask),
            modes: crate::bitstream::modes_from_mask(h.mode_mask),
            ref_frames: h.ref_frames as usize,
            qindex: h.qindex,
        }
    }
}

/// How one leaf is predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafMode {
    /// Intra prediction with the given mode.
    Intra(IntraMode),
    /// Inter prediction with a motion vector (half-pel) against one of
    /// the reference frames.
    Inter {
        /// Motion vector in half-pel units.
        mv: MotionVector,
        /// Index into the reference list (0 = last, 1 = golden).
        ref_idx: usize,
    },
}

/// One node of the chosen partition tree.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePlan {
    /// A coded leaf.
    Leaf {
        /// The block this leaf covers.
        rect: BlockRect,
        /// Prediction chosen by the search.
        mode: LeafMode,
    },
    /// A partitioned node.
    Partition {
        /// The shape chosen.
        shape: PartitionShape,
        /// Children in sub-block order.
        children: Vec<NodePlan>,
    },
}

/// Pooled working buffers for the coding/decoding leaf paths.
///
/// Leaves run thousands of times per frame; allocating their block-sized
/// buffers per call would be slow *and* would make the simulated memory
/// addresses depend on global allocator state (hurting reproducibility of
/// the cache statistics). The pool keeps one stable set of buffers.
#[derive(Debug, Clone, Default)]
pub struct CodeScratch {
    /// Prediction samples.
    pub pred: Vec<u8>,
    /// Second prediction buffer (chroma mode trials).
    pub pred2: Vec<u8>,
    /// Residual samples.
    pub res: Vec<i32>,
    /// One TU of residual, gathered.
    pub tu_src: Vec<i32>,
    /// One TU of transform coefficients.
    pub tu_coeffs: Vec<i32>,
    /// Quantized levels for every TU of the leaf, flattened.
    pub levels_flat: Vec<i32>,
    /// Trellis trial buffer.
    pub tu_alt: Vec<i32>,
    /// Dequantized coefficients.
    pub tu_deq: Vec<i32>,
    /// Inverse-transformed residual.
    pub tu_rec: Vec<i32>,
    /// Reconstructed residual for the whole leaf.
    pub full_res: Vec<i32>,
}

impl CodeScratch {
    fn ensure(&mut self, area: usize, tu2: usize, tiles: usize) {
        if self.pred.len() < area {
            self.pred.resize(area, 0);
            self.pred2.resize(area, 0);
            self.res.resize(area, 0);
            self.full_res.resize(area, 0);
        }
        if self.tu_src.len() < tu2 {
            self.tu_src.resize(tu2, 0);
            self.tu_coeffs.resize(tu2, 0);
            self.tu_alt.resize(tu2, 0);
            self.tu_deq.resize(tu2, 0);
            self.tu_rec.resize(tu2, 0);
        }
        if self.levels_flat.len() < tu2 * tiles {
            self.levels_flat.resize(tu2 * tiles, 0);
        }
    }
}

/// Where the encoded bits went, by syntax category (diagnostic; the
/// decoder does not maintain this).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BitAccounting {
    /// Partition-tree shape symbols.
    pub partition: f64,
    /// Mode syntax: inter flags, intra mode indices, MVs, reference bits.
    pub mode: f64,
    /// Skip flags.
    pub skip: f64,
    /// Luma coefficients.
    pub luma_coef: f64,
    /// Chroma mode bins + coefficients.
    pub chroma: f64,
}

impl BitAccounting {
    /// Total accounted bits.
    pub fn total(&self) -> f64 {
        self.partition + self.mode + self.skip + self.luma_coef + self.chroma
    }
}

/// Mutable coding state threaded across a frame (mirrored by the decoder).
#[derive(Debug, Clone)]
pub struct CoderState {
    /// Adaptive contexts.
    pub ctxs: FrameContexts,
    /// Motion-vector predictor (last coded MV).
    pub last_mv: MotionVector,
    /// Pooled working buffers (no coding semantics).
    pub scratch: CodeScratch,
    /// Encoder-side bit accounting (unused while decoding).
    pub bits: BitAccounting,
}

impl CoderState {
    /// Fresh state (sequence start).
    pub fn new() -> Self {
        CoderState {
            ctxs: FrameContexts::new(),
            last_mv: MotionVector::ZERO,
            scratch: CodeScratch::default(),
            bits: BitAccounting::default(),
        }
    }
}

impl Default for CoderState {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Scan order
// ---------------------------------------------------------------------------

/// Zigzag scan order for an `n x n` block, as (row-major) indices.
///
/// Cached for the coding TU sizes (4/8/16/32); other sizes are computed
/// on the fly.
pub fn zigzag(n: usize) -> std::borrow::Cow<'static, [usize]> {
    static TABLES: std::sync::OnceLock<[Vec<usize>; 4]> = std::sync::OnceLock::new();
    let tables = TABLES.get_or_init(|| {
        [compute_zigzag(4), compute_zigzag(8), compute_zigzag(16), compute_zigzag(32)]
    });
    match n {
        4 => std::borrow::Cow::Borrowed(&tables[0]),
        8 => std::borrow::Cow::Borrowed(&tables[1]),
        16 => std::borrow::Cow::Borrowed(&tables[2]),
        32 => std::borrow::Cow::Borrowed(&tables[3]),
        _ => std::borrow::Cow::Owned(compute_zigzag(n)),
    }
}

fn compute_zigzag(n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n * n);
    for s in 0..(2 * n - 1) {
        if s % 2 == 0 {
            // Walk up-right.
            let y0 = s.min(n - 1);
            let x0 = s - y0;
            let (mut x, mut y) = (x0 as isize, y0 as isize);
            while x < n as isize && y >= 0 {
                order.push(y as usize * n + x as usize);
                x += 1;
                y -= 1;
            }
        } else {
            let x0 = s.min(n - 1);
            let y0 = s - x0;
            let (mut x, mut y) = (x0 as isize, y0 as isize);
            while y < n as isize && x >= 0 {
                order.push(y as usize * n + x as usize);
                x -= 1;
                y += 1;
            }
        }
    }
    order
}

#[inline]
fn sig_band(scan_pos: usize, n2: usize) -> usize {
    // Four bands over the scan: DC, early, middle, tail.
    if scan_pos == 0 {
        0
    } else if scan_pos < n2 / 8 {
        1
    } else if scan_pos < n2 / 2 {
        2
    } else {
        3
    }
}

// ---------------------------------------------------------------------------
// Coefficient coding (shared by encoder and decoder)
// ---------------------------------------------------------------------------

/// Encodes the quantized levels of one TU; returns `true` if any level was
/// nonzero (the cbf).
pub fn encode_tu<P: Probe>(
    enc: &mut RangeEncoder,
    probe: &mut P,
    ctxs: &mut FrameContexts,
    n: usize,
    levels: &[i32],
    is_luma: bool,
) -> bool {
    let scan = zigzag(n);
    let n2 = n * n;
    let eob = scan.iter().rposition(|&i| levels[i] != 0).map(|p| p + 1).unwrap_or(0);
    let cbf_ctx = if is_luma { &mut ctxs.cbf_luma } else { &mut ctxs.cbf_chroma };
    enc.encode(probe, cbf_ctx, eob > 0);
    if eob == 0 {
        return false;
    }
    encode_uvlc(enc, probe, &mut ctxs.eob, (eob - 1) as u32);
    for pos in 0..eob {
        let v = levels[scan[pos]];
        let significant = v != 0;
        if pos + 1 != eob {
            let band = sig_band(pos, n2);
            enc.encode(probe, &mut ctxs.sig[band.min(SIG_BANDS - 1)], significant);
        }
        // The coefficient at eob-1 is significant by construction.
        if significant || pos + 1 == eob {
            enc.encode(probe, &mut ctxs.coeff_sign, v < 0);
            encode_uvlc(enc, probe, &mut ctxs.level, (v.unsigned_abs() - 1).min(1 << 20));
        }
    }
    true
}

/// Mirror of [`encode_tu`]: fills `levels` (length `n*n`, natural order).
pub fn decode_tu<P: Probe>(
    dec: &mut RangeDecoder<'_>,
    probe: &mut P,
    ctxs: &mut FrameContexts,
    n: usize,
    levels: &mut [i32],
    is_luma: bool,
) -> bool {
    levels.fill(0);
    let scan = zigzag(n);
    let n2 = n * n;
    let cbf_ctx = if is_luma { &mut ctxs.cbf_luma } else { &mut ctxs.cbf_chroma };
    if !dec.decode(probe, cbf_ctx) {
        return false;
    }
    let eob = decode_uvlc(dec, probe, &mut ctxs.eob) as usize + 1;
    let eob = eob.min(n2);
    for pos in 0..eob {
        let significant = if pos + 1 != eob {
            let band = sig_band(pos, n2);
            dec.decode(probe, &mut ctxs.sig[band.min(SIG_BANDS - 1)])
        } else {
            true
        };
        if significant {
            let neg = dec.decode(probe, &mut ctxs.coeff_sign);
            let mag = decode_uvlc(dec, probe, &mut ctxs.level) + 1;
            levels[scan[pos]] = if neg { -(mag as i32) } else { mag as i32 };
        }
    }
    true
}

/// Context-free rate estimate (1/256-bit units) for a TU's levels, used by
/// the RD search (Phase A) where live context state is unavailable.
pub fn estimate_tu_rate(n: usize, levels: &[i32]) -> u64 {
    let scan = zigzag(n);
    let eob = scan.iter().rposition(|&i| levels[i] != 0).map(|p| p + 1).unwrap_or(0);
    if eob == 0 {
        return 64; // ~0.25 bit for the cbf.
    }
    let mut bits256: u64 = 256 + 512; // cbf + eob prefix
    bits256 += (64 - (eob as u64).leading_zeros() as u64) * 256;
    for pos in 0..eob {
        let v = levels[scan[pos]].unsigned_abs() as u64;
        bits256 += 128; // significance
        if v > 0 {
            let mag_bits = 64 - v.leading_zeros() as u64;
            bits256 += 256 + mag_bits * 512;
        }
    }
    bits256
}

// ---------------------------------------------------------------------------
// Phase A: search
// ---------------------------------------------------------------------------

/// One memoized leaf evaluation (see [`eval_leaf_memo`]).
#[derive(Debug, Clone)]
struct LeafMemoEntry {
    mode: LeafMode,
    cost: u64,
    seed_mv_out: MotionVector,
}

/// PlanScratch buffers reused across Phase-A leaf evaluations.
///
/// Owned by the caller (one per encode) so buffer addresses stay stable
/// across superblocks — see [`CodeScratch`] for why that matters.
#[derive(Debug)]
pub struct PlanScratch {
    pred: Vec<u8>,
    res: Vec<i32>,
    tu_src: Vec<i32>,
    tu_coeffs: Vec<i32>,
    tu_levels: Vec<i32>,
    tu_deq: Vec<i32>,
    tu_rec: Vec<i32>,
    me: crate::mesearch::MeScratch,
    /// Per-superblock leaf memo, keyed by `(rect, seed_mv at entry)` —
    /// the complete input state of [`eval_leaf`] once the superblock's
    /// tools/λ/sources/HME seeds are fixed. Cleared by
    /// [`plan_superblock`].
    memo: std::collections::HashMap<(BlockRect, MotionVector), LeafMemoEntry>,
}

impl Default for PlanScratch {
    fn default() -> Self {
        PlanScratch {
            pred: Vec::new(),
            res: Vec::new(),
            tu_src: Vec::new(),
            tu_coeffs: Vec::new(),
            tu_levels: Vec::new(),
            tu_deq: Vec::new(),
            tu_rec: Vec::new(),
            me: crate::mesearch::MeScratch::new(),
            memo: std::collections::HashMap::new(),
        }
    }
}

impl PlanScratch {
    /// An empty pool (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, area: usize, tu2: usize) {
        if self.pred.len() < area {
            self.pred.resize(area, 0);
            self.res.resize(area, 0);
        }
        if self.tu_src.len() < tu2 {
            self.tu_src.resize(tu2, 0);
            self.tu_coeffs.resize(tu2, 0);
            self.tu_levels.resize(tu2, 0);
            self.tu_deq.resize(tu2, 0);
            self.tu_rec.resize(tu2, 0);
        }
    }
}

/// Integer square root for the SATD-domain λ.
fn isqrt(v: u64) -> u64 {
    (v as f64).sqrt() as u64
}

/// Plans the partition tree for one superblock (Phase A).
///
/// `seed_mv` seeds the motion search and is updated with the winning MV so
/// neighbouring superblocks inherit good predictors.
/// Open-loop motion-estimation seeds for one superblock: the best MV per
/// 16x16 block and reference.
///
/// SVT-AV1's architecture runs hierarchical motion estimation as its own
/// pipeline stage, over every block of every picture, *before* mode
/// decision — so its memory traffic is independent of how aggressively
/// the RDO stage later prunes. That independence is exactly the paper's
/// roofline argument for why cache pressure rises at high CRF ("the total
/// amount of required data transfer stays the same"). The same pre-ME
/// structure exists in the other encoders' lookaheads, so all five models
/// share it.
#[derive(Debug, Clone)]
pub struct HmeSeeds {
    /// `seeds[ref_idx][by * blocks_x + bx]`.
    seeds: Vec<Vec<MotionVector>>,
    origin: (usize, usize),
    blocks_x: usize,
}

// Branch-site PCs of the partition search and leaf mode decision.
//
// These are the `site_pc!()` hashes (file/line/column) the sites had
// when they landed, pinned so that refactors that move source lines
// cannot silently re-index every simulated predictor table: the
// characterization outputs are a function of these values.

/// [`plan_block`]'s shape-sweep loop branch.
const SHAPE_SWEEP_BRANCH_PC: u64 = 0x5487_30af_fb30;
/// [`plan_block`]'s early-exit branch.
const EARLY_EXIT_BRANCH_PC: u64 = 0x5b2d_30af_fb30;
/// [`eval_leaf`]'s inter-skip shortcut branch.
const INTER_SKIP_BRANCH_PC: u64 = 0x5777_30af_fb30;
/// [`eval_leaf`]'s intra-sweep "cost improved" branch.
const INTRA_IMPROVED_BRANCH_PC: u64 = 0x5909_30af_fb30;

/// HME granularity in luma samples.
const HME_BLOCK: usize = 16;

impl HmeSeeds {
    /// The seed for the 16x16 region containing `(x, y)` against `ref_idx`.
    fn seed(&self, ref_idx: usize, x: usize, y: usize) -> MotionVector {
        let bx = (x - self.origin.0) / HME_BLOCK;
        let by = (y - self.origin.1) / HME_BLOCK;
        self.seeds[ref_idx][by * self.blocks_x + bx]
    }
}

/// Runs the open-loop HME pre-pass for one superblock.
#[allow(clippy::too_many_arguments)]
pub fn hme_superblock<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    sqrt_lambda: u64,
    scratch: &mut crate::mesearch::MeScratch,
) -> HmeSeeds {
    let blocks_x = rect.w.div_ceil(HME_BLOCK);
    let blocks_y = rect.h.div_ceil(HME_BLOCK);
    let mut seeds = vec![vec![MotionVector::ZERO; blocks_x * blocks_y]; refs.len()];
    for (ref_idx, ref_frame) in refs.iter().enumerate() {
        let mut pred = MotionVector::ZERO;
        for by in 0..blocks_y {
            for bx in 0..blocks_x {
                let sub = BlockRect::new(
                    rect.x + bx * HME_BLOCK,
                    rect.y + by * HME_BLOCK,
                    HME_BLOCK.min(rect.w - bx * HME_BLOCK),
                    HME_BLOCK.min(rect.h - by * HME_BLOCK),
                );
                let me = motion_search(
                    probe,
                    src.luma(),
                    sub,
                    ref_frame.luma(),
                    pred,
                    &tools.me,
                    sqrt_lambda,
                    scratch,
                );
                seeds[ref_idx][by * blocks_x + bx] = me.mv;
                pred = me.mv;
            }
        }
    }
    HmeSeeds { seeds, origin: (rect.x, rect.y), blocks_x }
}

/// Plans the partition tree for one superblock (Phase A): open-loop HME
/// followed by the RDO mode-decision search.
///
/// `seed_mv` seeds the spatial MV predictor and is updated with the
/// winning MV so neighbouring superblocks inherit good predictors.
#[allow(clippy::too_many_arguments)]
pub fn plan_superblock<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    seed_mv: &mut MotionVector,
    scratch: &mut PlanScratch,
) -> NodePlan {
    let lambda = Lambda::from_qindex(cfg.qindex);
    // The leaf memo is only valid while the superblock's tools/λ/HME
    // context is fixed, so it lives one superblock at a time.
    scratch.memo.clear();
    // Stage 1: open-loop HME (CRF-independent work and traffic).
    let sqrt_lambda = isqrt(lambda.scaled()).max(1);
    let hme = hme_superblock(probe, tools, src, refs, rect, sqrt_lambda, &mut scratch.me);
    // Stage 2: mode decision, refining around the HME seeds.
    let (plan, _cost) =
        plan_block(probe, tools, cfg, &lambda, src, refs, rect, 0, seed_mv, scratch, &hme);
    plan
}

#[allow(clippy::too_many_arguments)]
fn plan_block<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    lambda: &Lambda,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    depth: u32,
    seed_mv: &mut MotionVector,
    scratch: &mut PlanScratch,
    hme: &HmeSeeds,
) -> (NodePlan, u64) {
    probe.set_kernel(Kernel::ModeDecision);
    probe.alu(8);
    let mut decision: RdDecision<usize> = RdDecision::new();
    let mut plans: Vec<Option<(NodePlan, u64)>> = Vec::with_capacity(cfg.shapes.len());
    // Early-exit threshold: cheap blocks stop the shape sweep. RD costs
    // are distortion-dominated and quantization distortion scales with
    // qstep², so the threshold must too — this is what makes coarse
    // quantizers (high CRF) terminate the search early and is the paper's
    // "increasing CRF simply decreases the amount of algorithmic work"
    // mechanism.
    let qstep = crate::params::qindex_to_qstep(cfg.qindex) as u64;
    let exit_threshold = tools.early_exit_scale * rect.area() as u64 * qstep * qstep / 4096;

    for (i, &shape) in cfg.shapes.iter().enumerate() {
        probe.branch(SHAPE_SWEEP_BRANCH_PC, i != 0);
        let candidate = match shape {
            PartitionShape::None => {
                let (mode, cost) = eval_leaf_memo(
                    probe, tools, cfg, lambda, src, refs, rect, seed_mv, scratch, hme,
                );
                Some((NodePlan::Leaf { rect, mode }, cost))
            }
            PartitionShape::Split if depth < cfg.max_depth => {
                let subs = shape.sub_blocks(rect.w, rect.h, cfg.min_block);
                if subs.is_empty() {
                    None
                } else {
                    let mut children = Vec::with_capacity(subs.len());
                    let mut total = 0u64;
                    for (dx, dy, w, h) in subs {
                        let sub = BlockRect::new(rect.x + dx, rect.y + dy, w, h);
                        let (p, c) = plan_block(
                            probe,
                            tools,
                            cfg,
                            lambda,
                            src,
                            refs,
                            sub,
                            depth + 1,
                            seed_mv,
                            scratch,
                            hme,
                        );
                        total = total.saturating_add(c);
                        children.push(p);
                    }
                    Some((NodePlan::Partition { shape, children }, total))
                }
            }
            PartitionShape::Split => None,
            _ => {
                let subs = shape.sub_blocks(rect.w, rect.h, cfg.min_block);
                if subs.is_empty() {
                    None
                } else {
                    let mut children = Vec::with_capacity(subs.len());
                    let mut total = 0u64;
                    for (dx, dy, w, h) in subs {
                        let sub = BlockRect::new(rect.x + dx, rect.y + dy, w, h);
                        let (mode, c) = eval_leaf_memo(
                            probe, tools, cfg, lambda, src, refs, sub, seed_mv, scratch, hme,
                        );
                        total = total.saturating_add(c);
                        children.push(NodePlan::Leaf { rect: sub, mode });
                    }
                    Some((NodePlan::Partition { shape, children }, total))
                }
            }
        };
        // Shape signalling rate: one unary bin per list position.
        let candidate =
            candidate.map(|(p, c)| (p, c.saturating_add(lambda.cost(0, (i as u64 + 1) * 256))));
        if let Some((_, cost)) = &candidate {
            decision.offer(plans.len(), *cost);
        }
        plans.push(candidate);
        // Early exit once a cheap-enough plan exists (the CRF-dependent
        // pruning real encoders use: coarse quantizers exit sooner).
        let exit = decision.best_cost() < exit_threshold;
        probe.branch(EARLY_EXIT_BRANCH_PC, exit);
        if exit {
            break;
        }
    }

    let (idx, _) = decision.winner().expect("PartitionShape::None always yields a plan");
    plans.into_iter().nth(idx).flatten().expect("winner index points at a live plan")
}

/// Memoizing front end for [`eval_leaf`].
///
/// Within one superblock plan, [`eval_leaf`] is a pure function of
/// `(rect, *seed_mv)`: every other input (tools, λ, source, references,
/// HME seeds) is fixed for the whole plan, and the scratch buffers carry
/// no state between evaluations. The AV1-style shape grammar evaluates
/// the same sub-rects repeatedly — `Horz`'s top half is `HorzA`'s first
/// sub-block, `HorzA`'s bottom quads are `Split`'s lower quadrants, and
/// so on — so repeats with an unchanged MV predictor are pure recompute.
///
/// Probe fidelity: the memo engages only when the probe is dead
/// ([`Probe::is_live`] is `false`, e.g. [`vstress_trace::NullProbe`]).
/// A hit then skips the whole evaluation, and nothing can observe the
/// events it does not emit. Live probes recompute every leaf, which is
/// trivially stream-identical. Profiling the quick characterization run
/// showed repeated keys are almost always seen exactly twice, so
/// recording each miss's events for replay on a live probe would cost
/// more wall time than the single replay saves.
#[allow(clippy::too_many_arguments)]
fn eval_leaf_memo<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    lambda: &Lambda,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    seed_mv: &mut MotionVector,
    scratch: &mut PlanScratch,
    hme: &HmeSeeds,
) -> (LeafMode, u64) {
    if probe.is_live() {
        return eval_leaf(probe, tools, cfg, lambda, src, refs, rect, seed_mv, scratch, hme);
    }
    let key = (rect, *seed_mv);
    if let Some(hit) = scratch.memo.get(&key) {
        *seed_mv = hit.seed_mv_out;
        return (hit.mode, hit.cost);
    }
    let (mode, cost) = eval_leaf(probe, tools, cfg, lambda, src, refs, rect, seed_mv, scratch, hme);
    scratch.memo.insert(key, LeafMemoEntry { mode, cost, seed_mv_out: *seed_mv });
    (mode, cost)
}

/// Evaluates the best leaf mode for `rect` (Phase A).
#[allow(clippy::too_many_arguments)]
fn eval_leaf<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    lambda: &Lambda,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    seed_mv: &mut MotionVector,
    scratch: &mut PlanScratch,
    hme: &HmeSeeds,
) -> (LeafMode, u64) {
    let trial_tu = rect.w.min(rect.h).min(MAX_LUMA_TU);
    scratch.ensure(rect.area(), trial_tu * trial_tu);
    let luma = src.luma();
    let sqrt_lambda = isqrt(lambda.scaled()).max(1);
    let mut best: RdDecision<LeafMode> = RdDecision::new();
    let qstep = crate::params::qindex_to_qstep(cfg.qindex) as u64;

    // Mode-decision ME only *refines* around the open-loop HME seed (a
    // small window), as in SVT's pipeline; the full-range search already
    // happened in `hme_superblock`. Slow presets refine with wider
    // windows and more steps — the per-node share of the preset dial.
    let refine = crate::mesearch::MeSettings {
        range: (tools.me.range / 4).clamp(2, 8),
        exhaustive_radius: if tools.me.exhaustive_radius > 0 { 2 } else { 0 },
        refine_steps: (tools.me.refine_steps / 2).max(4),
        subpel: tools.me.subpel,
    };
    let mut best_me: Option<(crate::mesearch::MeResult, usize)> = None;
    for (ref_idx, ref_frame) in refs.iter().enumerate() {
        let hme_seed = hme.seed(ref_idx, rect.x, rect.y);
        // Search a window centred on the HME seed: offset coordinates by
        // seeding the predictor and keeping the window small.
        let me = motion_search_around(
            probe,
            luma,
            rect,
            ref_frame.luma(),
            hme_seed,
            *seed_mv,
            &refine,
            sqrt_lambda,
            &mut scratch.me,
        );
        if best_me.as_ref().map(|(b, _)| me.cost < b.cost).unwrap_or(true) {
            best_me = Some((me, ref_idx));
        }
    }
    if let Some((me, ref_idx)) = best_me {
        // Inter-skip shortcut: when the best motion-compensated residual
        // is already below the quantizer's dead zone, real encoders take
        // the skip path without sweeping intra modes. At coarse quantizers
        // this fires on most blocks and is the bulk of the CRF->work
        // reduction (the *compute* shrinks; the search traffic above does
        // not).
        let skip_threshold = rect.area() as u64 * qstep / 24;
        let skip = me.cost < skip_threshold;
        probe.set_kernel(Kernel::ModeDecision);
        probe.branch(INTER_SKIP_BRANCH_PC, skip);
        if skip {
            *seed_mv = me.mv;
            // Cost model: residual quantizes to ~zero, signalling tiny.
            let sse_estimate = me.cost.saturating_mul(2);
            return (LeafMode::Inter { mv: me.mv, ref_idx }, lambda.cost(sse_estimate, 6 * 256));
        }
        // Not skippable: keep the candidate for the RD comparison below.
        motion_compensate(probe, refs[ref_idx].luma(), rect, me.mv, &mut scratch.pred);
        kernels::residual(probe, luma, rect, &scratch.pred[..rect.area()], &mut scratch.res);
        let satd = transform::satd(probe, rect.w, rect.h, &scratch.res[..rect.area()]);
        let mv_rate = (4 + (me.mv.x.unsigned_abs() + me.mv.y.unsigned_abs()) as u64 / 2) * 256
            + if refs.len() > 1 { 256 } else { 0 };
        let cost = satd + sqrt_lambda * mv_rate / 256;
        if best.offer(LeafMode::Inter { mv: me.mv, ref_idx }, cost) {
            *seed_mv = me.mv;
        }
    }

    // Intra sweep (SATD-based, source edges — the fast-encoder shortcut).
    let edges = IntraEdges::gather(probe, luma, rect);
    for (mi, &mode) in cfg.modes.iter().enumerate() {
        probe.set_kernel(Kernel::ModeDecision);
        probe.alu(4);
        predict(probe, mode, &edges, rect.w, rect.h, &mut scratch.pred);
        kernels::residual(probe, luma, rect, &scratch.pred[..rect.area()], &mut scratch.res);
        let satd = transform::satd(probe, rect.w, rect.h, &scratch.res[..rect.area()]);
        let rate = (2 + mi as u64) * 256;
        let cost = satd + sqrt_lambda * rate / 256;
        let improved = best.offer(LeafMode::Intra(mode), cost);
        probe.branch(INTRA_IMPROVED_BRANCH_PC, improved);
    }

    let (mode, _satd_cost) = best.winner().expect("intra sweep is never empty");

    // Full RD trial of the winner: transform + quantize + rate estimate.
    // The per-leaf syntax overhead (inter flag, mode index or MV, skip
    // flag, reference selection) must be priced here too — without it the
    // search believes tiny leaves are free and over-partitions, which
    // costs exactly the signalling bits a flexible grammar has more of.
    let overhead_rate: u64 = match mode {
        LeafMode::Intra(m) => {
            let idx = cfg.modes.iter().position(|&x| x == m).unwrap_or(0) as u64;
            (4 + idx) * 256
        }
        LeafMode::Inter { mv, .. } => {
            let mv_bits = 4
                + 2 * (64 - (mv.x.unsigned_abs() as u64 + 1).leading_zeros() as u64)
                + 2 * (64 - (mv.y.unsigned_abs() as u64 + 1).leading_zeros() as u64);
            let ref_bit = if refs.len() > 1 { 1 } else { 0 };
            (2 + mv_bits + ref_bit) * 256
        }
    };
    rebuild_pred(probe, refs, rect, mode, &edges, &mut scratch.pred);
    kernels::residual(probe, luma, rect, &scratch.pred[..rect.area()], &mut scratch.res);
    let quant = Quantizer::from_qindex(cfg.qindex);
    let tu = trial_tu;
    let tu2 = tu * tu;
    let mut distortion = 0u64;
    let mut rate = 0u64;
    for ty in (0..rect.h).step_by(tu) {
        for tx in (0..rect.w).step_by(tu) {
            for y in 0..tu {
                for x in 0..tu {
                    scratch.tu_src[y * tu + x] = scratch.res[(ty + y) * rect.w + tx + x];
                }
            }
            transform::forward(probe, tu, &scratch.tu_src[..tu2], &mut scratch.tu_coeffs[..tu2]);
            quant.quantize_block(probe, &scratch.tu_coeffs[..tu2], &mut scratch.tu_levels[..tu2]);
            rate += estimate_tu_rate(tu, &scratch.tu_levels[..tu2]);
            quant.dequantize_block(probe, &scratch.tu_levels[..tu2], &mut scratch.tu_deq[..tu2]);
            transform::inverse(probe, tu, &scratch.tu_deq[..tu2], &mut scratch.tu_rec[..tu2]);
            for i in 0..tu2 {
                let d = (scratch.tu_src[i] - scratch.tu_rec[i]) as i64;
                distortion += (d * d) as u64;
            }
        }
    }
    probe.set_kernel(Kernel::ModeDecision);
    probe.alu(6);
    (mode, lambda.cost(distortion, rate + overhead_rate))
}

/// Regenerates the prediction for a chosen mode into `pred`.
fn rebuild_pred<P: Probe>(
    probe: &mut P,
    refs: &[&Frame],
    rect: BlockRect,
    mode: LeafMode,
    edges: &IntraEdges,
    pred: &mut [u8],
) {
    match mode {
        LeafMode::Intra(m) => predict(probe, m, edges, rect.w, rect.h, pred),
        LeafMode::Inter { mv, ref_idx } => {
            motion_compensate(probe, refs[ref_idx].luma(), rect, mv, pred);
        }
    }
}

// ---------------------------------------------------------------------------
// Phase B: coding + reconstruction (and its decode mirror)
// ---------------------------------------------------------------------------

/// Walks a plan, coding syntax and reconstructing into `recon`.
#[allow(clippy::too_many_arguments)]
pub fn code_superblock<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &[&Frame],
    plan: &NodePlan,
    enc: &mut RangeEncoder,
    state: &mut CoderState,
    recon: &mut Frame,
) -> SbInfo {
    let mut info = SbInfo::default();
    code_node(probe, tools, cfg, src, refs, plan, enc, state, recon, 0, &mut info);
    info
}

/// Inter information needed for superblock-level chroma coding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbInfo {
    /// First inter (MV, reference index) coded in the superblock, if any.
    pub first_mv: Option<(MotionVector, usize)>,
}

#[allow(clippy::too_many_arguments)]
fn code_node<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &[&Frame],
    plan: &NodePlan,
    enc: &mut RangeEncoder,
    state: &mut CoderState,
    recon: &mut Frame,
    depth: u32,
    info: &mut SbInfo,
) {
    match plan {
        NodePlan::Leaf { rect, mode } => {
            // Shape symbol: None (index of None in the list, always 0).
            encode_shape_index(enc, probe, state, 0, shape_count(cfg, *rect, depth));
            code_leaf(probe, tools, cfg, src, refs, *rect, *mode, enc, state, recon, info);
        }
        NodePlan::Partition { shape, children } => {
            let parent = bounding(children);
            let codeable = codeable_shapes(cfg, parent, depth);
            let idx = codeable
                .iter()
                .position(|s| s == shape)
                .expect("plan shapes are always codeable for their geometry");
            encode_shape_index(enc, probe, state, idx, codeable.len());
            for child in children {
                match child {
                    NodePlan::Leaf { rect, mode } if !shape.recurses() => {
                        code_leaf(
                            probe, tools, cfg, src, refs, *rect, *mode, enc, state, recon, info,
                        );
                    }
                    _ => {
                        code_node(
                            probe,
                            tools,
                            cfg,
                            src,
                            refs,
                            child,
                            enc,
                            state,
                            recon,
                            depth + 1,
                            info,
                        );
                    }
                }
            }
        }
    }
}

fn bounding(children: &[NodePlan]) -> BlockRect {
    let mut min_x = usize::MAX;
    let mut min_y = usize::MAX;
    let mut max_x = 0;
    let mut max_y = 0;
    fn walk(n: &NodePlan, f: &mut impl FnMut(BlockRect)) {
        match n {
            NodePlan::Leaf { rect, .. } => f(*rect),
            NodePlan::Partition { children, .. } => {
                for c in children {
                    walk(c, f);
                }
            }
        }
    }
    for c in children {
        walk(c, &mut |r| {
            min_x = min_x.min(r.x);
            min_y = min_y.min(r.y);
            max_x = max_x.max(r.x + r.w);
            max_y = max_y.max(r.y + r.h);
        });
    }
    BlockRect::new(min_x, min_y, max_x - min_x, max_y - min_y)
}

/// The shapes codeable for a block of this geometry, in list order. Both
/// sides derive the identical list, so the truncated-unary shape symbol
/// indexes into it consistently.
fn codeable_shapes(cfg: &CoderConfig, rect: BlockRect, depth: u32) -> Vec<PartitionShape> {
    cfg.shapes
        .iter()
        .copied()
        .filter(|s| match s {
            PartitionShape::None => true,
            PartitionShape::Split => {
                depth < cfg.max_depth && !s.sub_blocks(rect.w, rect.h, cfg.min_block).is_empty()
            }
            _ => !s.sub_blocks(rect.w, rect.h, cfg.min_block).is_empty(),
        })
        .collect()
}

/// How many shapes are codeable for a block of this geometry (the decoder
/// can derive the same bound, so the unary code is truncated).
fn shape_count(cfg: &CoderConfig, rect: BlockRect, depth: u32) -> usize {
    codeable_shapes(cfg, rect, depth).len().max(1)
}

fn encode_shape_index<P: Probe>(
    enc: &mut RangeEncoder,
    probe: &mut P,
    state: &mut CoderState,
    index: usize,
    available: usize,
) {
    let mark = enc.bits_written_exact();
    // Truncated unary over the available shapes.
    for i in 0..available.saturating_sub(1) {
        let more = index > i;
        enc.encode(probe, &mut state.ctxs.partition[i.min(9)], more);
        if !more {
            break;
        }
    }
    state.bits.partition += enc.bits_written_exact() - mark;
}

fn decode_shape_index<P: Probe>(
    dec: &mut RangeDecoder<'_>,
    probe: &mut P,
    state: &mut CoderState,
    available: usize,
) -> usize {
    let mut index = 0;
    while index < available.saturating_sub(1) {
        if !dec.decode(probe, &mut state.ctxs.partition[index.min(9)]) {
            break;
        }
        index += 1;
    }
    index
}

/// Codes one leaf: mode info, residual, reconstruction.
#[allow(clippy::too_many_arguments)]
fn code_leaf<P: Probe>(
    probe: &mut P,
    tools: &ToolSet,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &[&Frame],
    rect: BlockRect,
    mode: LeafMode,
    enc: &mut RangeEncoder,
    state: &mut CoderState,
    recon: &mut Frame,
    info: &mut SbInfo,
) {
    let area = rect.area();
    let tu = rect.w.min(rect.h).min(MAX_LUMA_TU);
    let tiles_x = rect.w / tu;
    let tiles_y = rect.h / tu;
    state.scratch.ensure(area, tu * tu, tiles_x * tiles_y);

    // --- mode syntax ---
    let mode_mark = enc.bits_written_exact();
    if !refs.is_empty() {
        let is_inter = matches!(mode, LeafMode::Inter { .. });
        enc.encode(probe, &mut state.ctxs.is_inter, is_inter);
    }
    match mode {
        LeafMode::Intra(m) => {
            let idx = cfg.modes.iter().position(|&x| x == m).expect("mode from config list");
            encode_uvlc(enc, probe, &mut state.ctxs.mode, idx as u32);
            let edges = IntraEdges::gather(probe, recon.luma(), rect);
            predict(probe, m, &edges, rect.w, rect.h, &mut state.scratch.pred);
        }
        LeafMode::Inter { mv, ref_idx } => {
            if refs.len() > 1 {
                enc.encode(probe, &mut state.ctxs.ref_sel, ref_idx == 1);
            }
            let dx = mv.x - state.last_mv.x;
            let dy = mv.y - state.last_mv.y;
            enc.encode(probe, &mut state.ctxs.mv_sign, dx < 0);
            encode_uvlc(enc, probe, &mut state.ctxs.mv, dx.unsigned_abs());
            enc.encode(probe, &mut state.ctxs.mv_sign, dy < 0);
            encode_uvlc(enc, probe, &mut state.ctxs.mv, dy.unsigned_abs());
            state.last_mv = mv;
            if info.first_mv.is_none() {
                info.first_mv = Some((mv, ref_idx));
            }
            motion_compensate(probe, refs[ref_idx].luma(), rect, mv, &mut state.scratch.pred);
        }
    }

    state.bits.mode += enc.bits_written_exact() - mode_mark;

    // --- residual ---
    kernels::residual(probe, src.luma(), rect, &state.scratch.pred, &mut state.scratch.res);
    let base_quant = Quantizer::from_qindex(cfg.qindex);
    let mut any_nonzero = false;
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            for y in 0..tu {
                for x in 0..tu {
                    state.scratch.tu_src[y * tu + x] =
                        state.scratch.res[(ty * tu + y) * rect.w + tx * tu + x];
                }
            }
            transform::forward(
                probe,
                tu,
                &state.scratch.tu_src[..tu * tu],
                &mut state.scratch.tu_coeffs[..tu * tu],
            );
            // quant_passes > 1 models the slow-preset trellis: re-try the
            // quantization and keep the better RD (work multiplier).
            let tile = ty * tiles_x + tx;
            let levels = &mut state.scratch.levels_flat[tile * tu * tu..(tile + 1) * tu * tu];
            base_quant.quantize_block(probe, &state.scratch.tu_coeffs[..tu * tu], levels);
            for _extra in 1..tools.quant_passes {
                base_quant.quantize_block(
                    probe,
                    &state.scratch.tu_coeffs[..tu * tu],
                    &mut state.scratch.tu_alt[..tu * tu],
                );
                probe.set_kernel(Kernel::ModeDecision);
                probe.alu(tu as u64);
            }
            if state.scratch.levels_flat[tile * tu * tu..(tile + 1) * tu * tu]
                .iter()
                .any(|&l| l != 0)
            {
                any_nonzero = true;
            }
        }
    }

    // --- skip flag + coefficients ---
    let skip_mark = enc.bits_written_exact();
    enc.encode(probe, &mut state.ctxs.skip, !any_nonzero);
    state.bits.skip += enc.bits_written_exact() - skip_mark;
    if !any_nonzero {
        kernels::write_pred(probe, recon.luma_mut(), rect, &state.scratch.pred);
        return;
    }
    let coef_mark = enc.bits_written_exact();
    for tile in 0..tiles_x * tiles_y {
        let tx = tile % tiles_x;
        let ty = tile / tiles_x;
        // Split disjoint scratch borrows around the context-carrying call.
        {
            let (head, _) = state.scratch.levels_flat.split_at((tile + 1) * tu * tu);
            let levels = &head[tile * tu * tu..];
            encode_tu(enc, probe, &mut state.ctxs, tu, levels, true);
        }
        base_quant.dequantize_block(
            probe,
            &state.scratch.levels_flat[tile * tu * tu..(tile + 1) * tu * tu],
            &mut state.scratch.tu_deq[..tu * tu],
        );
        transform::inverse(
            probe,
            tu,
            &state.scratch.tu_deq[..tu * tu],
            &mut state.scratch.tu_rec[..tu * tu],
        );
        for y in 0..tu {
            for x in 0..tu {
                state.scratch.full_res[(ty * tu + y) * rect.w + tx * tu + x] =
                    state.scratch.tu_rec[y * tu + x];
            }
        }
    }
    state.bits.luma_coef += enc.bits_written_exact() - coef_mark;
    kernels::reconstruct(
        probe,
        recon.luma_mut(),
        rect,
        &state.scratch.pred,
        &state.scratch.full_res,
    );
}

/// Decodes one superblock's luma tree (mirror of [`code_superblock`]).
#[allow(clippy::too_many_arguments)]
pub fn decode_superblock<P: Probe>(
    probe: &mut P,
    cfg: &CoderConfig,
    refs: &[&Frame],
    dec: &mut RangeDecoder<'_>,
    state: &mut CoderState,
    recon: &mut Frame,
    rect: BlockRect,
) -> Result<SbInfo, CodecError> {
    let mut info = SbInfo::default();
    decode_node(probe, cfg, refs, dec, state, recon, rect, 0, &mut info)?;
    Ok(info)
}

#[allow(clippy::too_many_arguments)]
fn decode_node<P: Probe>(
    probe: &mut P,
    cfg: &CoderConfig,
    refs: &[&Frame],
    dec: &mut RangeDecoder<'_>,
    state: &mut CoderState,
    recon: &mut Frame,
    rect: BlockRect,
    depth: u32,
    info: &mut SbInfo,
) -> Result<(), CodecError> {
    let codeable = codeable_shapes(cfg, rect, depth);
    let idx = decode_shape_index(dec, probe, state, codeable.len().max(1));
    let shape = codeable.get(idx).copied().ok_or(CodecError::CorruptBitstream {
        offset: dec.position(),
        expected: "partition shape",
    })?;

    match shape {
        PartitionShape::None => {
            decode_leaf(probe, cfg, refs, dec, state, recon, rect, info)?;
        }
        PartitionShape::Split => {
            for (dx, dy, w, h) in shape.sub_blocks(rect.w, rect.h, cfg.min_block) {
                let sub = BlockRect::new(rect.x + dx, rect.y + dy, w, h);
                decode_node(probe, cfg, refs, dec, state, recon, sub, depth + 1, info)?;
            }
        }
        _ => {
            for (dx, dy, w, h) in shape.sub_blocks(rect.w, rect.h, cfg.min_block) {
                let sub = BlockRect::new(rect.x + dx, rect.y + dy, w, h);
                decode_leaf(probe, cfg, refs, dec, state, recon, sub, info)?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn decode_leaf<P: Probe>(
    probe: &mut P,
    cfg: &CoderConfig,
    refs: &[&Frame],
    dec: &mut RangeDecoder<'_>,
    state: &mut CoderState,
    recon: &mut Frame,
    rect: BlockRect,
    info: &mut SbInfo,
) -> Result<(), CodecError> {
    let area = rect.area();
    let tu = rect.w.min(rect.h).min(MAX_LUMA_TU);
    let tiles_x = rect.w / tu;
    let tiles_y = rect.h / tu;
    state.scratch.ensure(area, tu * tu, tiles_x * tiles_y);
    let is_inter =
        if !refs.is_empty() { dec.decode(probe, &mut state.ctxs.is_inter) } else { false };
    if is_inter {
        let ref_idx =
            if refs.len() > 1 { dec.decode(probe, &mut state.ctxs.ref_sel) as usize } else { 0 };
        let neg_x = dec.decode(probe, &mut state.ctxs.mv_sign);
        let mag_x = decode_uvlc(dec, probe, &mut state.ctxs.mv) as i32;
        let neg_y = dec.decode(probe, &mut state.ctxs.mv_sign);
        let mag_y = decode_uvlc(dec, probe, &mut state.ctxs.mv) as i32;
        let dx = if neg_x { -mag_x } else { mag_x };
        let dy = if neg_y { -mag_y } else { mag_y };
        let mv = MotionVector { x: state.last_mv.x + dx, y: state.last_mv.y + dy };
        state.last_mv = mv;
        if info.first_mv.is_none() {
            info.first_mv = Some((mv, ref_idx));
        }
        motion_compensate(probe, refs[ref_idx].luma(), rect, mv, &mut state.scratch.pred);
    } else {
        let idx = decode_uvlc(dec, probe, &mut state.ctxs.mode) as usize;
        let mode = cfg.modes.get(idx).copied().ok_or(CodecError::CorruptBitstream {
            offset: dec.position(),
            expected: "intra mode index",
        })?;
        let edges = IntraEdges::gather(probe, recon.luma(), rect);
        predict(probe, mode, &edges, rect.w, rect.h, &mut state.scratch.pred);
    }

    let skip = dec.decode(probe, &mut state.ctxs.skip);
    if skip {
        kernels::write_pred(probe, recon.luma_mut(), rect, &state.scratch.pred);
        return Ok(());
    }

    let quant = Quantizer::from_qindex(cfg.qindex);
    for ty in 0..tiles_y {
        for tx in 0..tiles_x {
            {
                let (ctxs, scratch) = (&mut state.ctxs, &mut state.scratch);
                decode_tu(dec, probe, ctxs, tu, &mut scratch.tu_src[..tu * tu], true);
            }
            quant.dequantize_block(
                probe,
                &state.scratch.tu_src[..tu * tu],
                &mut state.scratch.tu_deq[..tu * tu],
            );
            transform::inverse(
                probe,
                tu,
                &state.scratch.tu_deq[..tu * tu],
                &mut state.scratch.tu_rec[..tu * tu],
            );
            for y in 0..tu {
                for x in 0..tu {
                    state.scratch.full_res[(ty * tu + y) * rect.w + tx * tu + x] =
                        state.scratch.tu_rec[y * tu + x];
                }
            }
        }
    }
    kernels::reconstruct(
        probe,
        recon.luma_mut(),
        rect,
        &state.scratch.pred,
        &state.scratch.full_res,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Chroma (superblock granularity)
// ---------------------------------------------------------------------------

/// Largest luma transform unit the coder selects. 32x32 transforms exist
/// in the substrate, but at the workbench's operating resolutions their
/// rate efficiency is poor (as in real encoders, which rarely pick
/// TX_32X32 below HD), so leaves cap at 16.
const MAX_LUMA_TU: usize = 16;

/// Chroma transform-unit size.
const CHROMA_TU: usize = 8;

/// Builds the DC-intra chroma prediction for one TU.
fn chroma_pred_dc<P: Probe>(probe: &mut P, recon_plane: &Plane, rect: BlockRect, pred: &mut [u8]) {
    let edges = IntraEdges::gather(probe, recon_plane, rect);
    predict(probe, IntraMode::Dc, &edges, rect.w, rect.h, pred);
}

/// Builds the motion-compensated chroma prediction for one TU from the
/// superblock's first inter MV (halved, against its reference). Returns
/// `false` when no MV is available (the TU must use DC).
fn chroma_pred_mc<P: Probe>(
    probe: &mut P,
    ref_planes: &[&Plane],
    rect: BlockRect,
    sb_info: &SbInfo,
    pred: &mut [u8],
) -> bool {
    match sb_info.first_mv {
        Some((mv, ref_idx)) if ref_idx < ref_planes.len() => {
            let cmv = MotionVector { x: mv.x / 2, y: mv.y / 2 };
            motion_compensate(probe, ref_planes[ref_idx], rect, cmv, pred);
            true
        }
        _ => false,
    }
}

/// Codes both chroma planes of one superblock with 8x8 TUs: DC-intra
/// prediction (or the SB's first inter MV, halved) plus coded residual.
#[allow(clippy::too_many_arguments)]
pub fn code_sb_chroma<P: Probe>(
    probe: &mut P,
    cfg: &CoderConfig,
    src: &Frame,
    refs: &[&Frame],
    sb: BlockRect,
    sb_info: &SbInfo,
    enc: &mut RangeEncoder,
    state: &mut CoderState,
    recon: &mut Frame,
) {
    let crect = BlockRect::new(sb.x / 2, sb.y / 2, sb.w / 2, sb.h / 2);
    let quant = Quantizer::from_qindex(cfg.qindex);
    let tu = CHROMA_TU;
    let chroma_mark = enc.bits_written_exact();
    state.scratch.ensure(tu * tu, tu * tu, 1);
    let mut pred = std::mem::take(&mut state.scratch.pred);
    let mut res = std::mem::take(&mut state.scratch.res);
    let mut coeffs = std::mem::take(&mut state.scratch.tu_coeffs);
    let mut levels = std::mem::take(&mut state.scratch.tu_src);
    let mut deq = std::mem::take(&mut state.scratch.tu_deq);
    let mut rec = std::mem::take(&mut state.scratch.tu_rec);
    for plane_idx in 0..2 {
        for ty in (0..crect.h).step_by(tu) {
            for tx in (0..crect.w).step_by(tu) {
                let rect = BlockRect::new(crect.x + tx, crect.y + ty, tu, tu);
                let src_plane = if plane_idx == 0 { src.cb() } else { src.cr() };
                {
                    let (recon_plane, ref_planes): (&Plane, Vec<&Plane>) = if plane_idx == 0 {
                        (recon.cb(), refs.iter().map(|f| f.cb()).collect())
                    } else {
                        (recon.cr(), refs.iter().map(|f| f.cr()).collect())
                    };
                    // Per-TU mode decision: DC intra vs the superblock MV,
                    // by actual prediction error, signalled with one bin.
                    let mut mc_pred = std::mem::take(&mut state.scratch.pred2);
                    if mc_pred.len() < tu * tu {
                        mc_pred.resize(tu * tu, 0);
                    }
                    let has_mc = chroma_pred_mc(probe, &ref_planes, rect, sb_info, &mut mc_pred);
                    chroma_pred_dc(probe, recon_plane, rect, &mut pred);
                    if has_mc {
                        let sse_dc = kernels::sse_plane_pred(probe, src_plane, rect, &pred);
                        let sse_mc = kernels::sse_plane_pred(probe, src_plane, rect, &mc_pred);
                        let use_mc = sse_mc < sse_dc;
                        enc.encode(probe, &mut state.ctxs.chroma_mode, use_mc);
                        if use_mc {
                            pred[..tu * tu].copy_from_slice(&mc_pred[..tu * tu]);
                        }
                    }
                    state.scratch.pred2 = mc_pred;
                }
                kernels::residual(probe, src_plane, rect, &pred, &mut res);
                transform::forward(probe, tu, &res[..tu * tu], &mut coeffs[..tu * tu]);
                quant.quantize_block(probe, &coeffs[..tu * tu], &mut levels[..tu * tu]);
                let cbf = encode_tu(enc, probe, &mut state.ctxs, tu, &levels[..tu * tu], false);
                let recon_plane = if plane_idx == 0 { recon.cb_mut() } else { recon.cr_mut() };
                if cbf {
                    quant.dequantize_block(probe, &levels[..tu * tu], &mut deq[..tu * tu]);
                    transform::inverse(probe, tu, &deq[..tu * tu], &mut rec[..tu * tu]);
                    kernels::reconstruct(probe, recon_plane, rect, &pred, &rec);
                } else {
                    kernels::write_pred(probe, recon_plane, rect, &pred);
                }
            }
        }
    }
    state.scratch.pred = pred;
    state.scratch.res = res;
    state.scratch.tu_coeffs = coeffs;
    state.scratch.tu_src = levels;
    state.scratch.tu_deq = deq;
    state.scratch.tu_rec = rec;
    state.bits.chroma += enc.bits_written_exact() - chroma_mark;
}

/// Decodes both chroma planes of one superblock (mirror of
/// [`code_sb_chroma`]).
#[allow(clippy::too_many_arguments)]
pub fn decode_sb_chroma<P: Probe>(
    probe: &mut P,
    cfg: &CoderConfig,
    refs: &[&Frame],
    sb: BlockRect,
    sb_info: &SbInfo,
    dec: &mut RangeDecoder<'_>,
    state: &mut CoderState,
    recon: &mut Frame,
) {
    let crect = BlockRect::new(sb.x / 2, sb.y / 2, sb.w / 2, sb.h / 2);
    let quant = Quantizer::from_qindex(cfg.qindex);
    let tu = CHROMA_TU;
    state.scratch.ensure(tu * tu, tu * tu, 1);
    let mut pred = std::mem::take(&mut state.scratch.pred);
    let mut levels = std::mem::take(&mut state.scratch.tu_src);
    let mut deq = std::mem::take(&mut state.scratch.tu_deq);
    let mut rec = std::mem::take(&mut state.scratch.tu_rec);
    for plane_idx in 0..2 {
        for ty in (0..crect.h).step_by(tu) {
            for tx in (0..crect.w).step_by(tu) {
                let rect = BlockRect::new(crect.x + tx, crect.y + ty, tu, tu);
                {
                    let (recon_plane, ref_planes): (&Plane, Vec<&Plane>) = if plane_idx == 0 {
                        (recon.cb(), refs.iter().map(|f| f.cb()).collect())
                    } else {
                        (recon.cr(), refs.iter().map(|f| f.cr()).collect())
                    };
                    let mv_available = matches!(
                        sb_info.first_mv,
                        Some((_, ref_idx)) if ref_idx < ref_planes.len()
                    );
                    let use_mc = if mv_available {
                        dec.decode(probe, &mut state.ctxs.chroma_mode)
                    } else {
                        false
                    };
                    if use_mc {
                        chroma_pred_mc(probe, &ref_planes, rect, sb_info, &mut pred);
                    } else {
                        chroma_pred_dc(probe, recon_plane, rect, &mut pred);
                    }
                }
                let cbf = decode_tu(dec, probe, &mut state.ctxs, tu, &mut levels[..tu * tu], false);
                let recon_plane = if plane_idx == 0 { recon.cb_mut() } else { recon.cr_mut() };
                if cbf {
                    quant.dequantize_block(probe, &levels[..tu * tu], &mut deq[..tu * tu]);
                    transform::inverse(probe, tu, &deq[..tu * tu], &mut rec[..tu * tu]);
                    kernels::reconstruct(probe, recon_plane, rect, &pred, &rec);
                } else {
                    kernels::write_pred(probe, recon_plane, rect, &pred);
                }
            }
        }
    }
    state.scratch.pred = pred;
    state.scratch.tu_src = levels;
    state.scratch.tu_deq = deq;
    state.scratch.tu_rec = rec;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstress_trace::NullProbe;

    #[test]
    fn zigzag_is_a_permutation() {
        for n in [4usize, 8, 16, 32] {
            let mut order = zigzag(n).into_owned();
            assert_eq!(order.len(), n * n);
            order.sort_unstable();
            for (i, &v) in order.iter().enumerate() {
                assert_eq!(i, v, "zigzag({n}) must visit every index once");
            }
        }
    }

    #[test]
    fn zigzag_starts_at_dc_and_walks_diagonals() {
        let z = zigzag(4);
        assert_eq!(z[0], 0);
        // Second and third visits are the first anti-diagonal.
        assert!(z[1] == 1 || z[1] == 4);
        assert_eq!(z.last(), Some(&15));
    }

    #[test]
    fn tu_roundtrip_random_levels() {
        let mut x = 0xfeedu64;
        for n in [4usize, 8, 16] {
            let mut levels = vec![0i32; n * n];
            for l in levels.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *l = match (x >> 60) % 8 {
                    0 => ((x >> 8) % 15) as i32 - 7,
                    1 => ((x >> 8) % 3) as i32,
                    _ => 0,
                };
            }
            let mut enc = RangeEncoder::new();
            let mut ctxs = FrameContexts::new();
            let mut p = NullProbe;
            encode_tu(&mut enc, &mut p, &mut ctxs, n, &levels, true);
            let bytes = enc.finish();
            let mut dec = RangeDecoder::new(&bytes);
            let mut ctxs = FrameContexts::new();
            let mut out = vec![0i32; n * n];
            decode_tu(&mut dec, &mut p, &mut ctxs, n, &mut out, true);
            assert_eq!(out, levels, "TU size {n}");
        }
    }

    #[test]
    fn tu_all_zero_roundtrip() {
        let levels = vec![0i32; 64];
        let mut enc = RangeEncoder::new();
        let mut ctxs = FrameContexts::new();
        let mut p = NullProbe;
        assert!(!encode_tu(&mut enc, &mut p, &mut ctxs, 8, &levels, true));
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut ctxs = FrameContexts::new();
        let mut out = vec![7i32; 64];
        assert!(!decode_tu(&mut dec, &mut p, &mut ctxs, 8, &mut out, true));
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn rate_estimate_monotone_in_density() {
        let sparse = {
            let mut l = vec![0i32; 64];
            l[0] = 3;
            l
        };
        let dense: Vec<i32> = (0..64).map(|i| (i % 5) - 2).collect();
        assert!(estimate_tu_rate(8, &dense) > estimate_tu_rate(8, &sparse));
        assert!(estimate_tu_rate(8, &vec![0i32; 64]) < estimate_tu_rate(8, &sparse));
    }

    #[test]
    fn shape_count_respects_geometry() {
        let cfg = CoderConfig {
            superblock: 32,
            min_block: 4,
            max_depth: 3,
            shapes: PartitionShape::AV1.to_vec(),
            modes: IntraMode::AV1.to_vec(),
            ref_frames: 1,
            qindex: 60,
        };
        // A full 32x32 node: all ten shapes apply.
        assert_eq!(shape_count(&cfg, BlockRect::new(0, 0, 32, 32), 0), 10);
        // A 4x4 node: nothing divides, only None.
        assert_eq!(shape_count(&cfg, BlockRect::new(0, 0, 4, 4), 3), 1);
        // At max depth Split is unavailable.
        let c8 = shape_count(&cfg, BlockRect::new(0, 0, 8, 8), 3);
        assert!((1..10).contains(&c8));
    }

    #[test]
    fn shape_index_roundtrip() {
        let mut enc = RangeEncoder::new();
        let mut state = CoderState::new();
        let mut p = NullProbe;
        let seq = [(0usize, 10usize), (3, 10), (9, 10), (0, 1), (1, 4), (2, 3)];
        for &(idx, avail) in &seq {
            encode_shape_index(&mut enc, &mut p, &mut state, idx, avail);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes);
        let mut state = CoderState::new();
        for &(idx, avail) in &seq {
            assert_eq!(decode_shape_index(&mut dec, &mut p, &mut state, avail), idx);
        }
    }
}
