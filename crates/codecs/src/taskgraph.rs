//! Per-encoder threading structure for the thread-scalability study.
//!
//! The paper's Figs. 12–16 show wildly different 1→8-thread speedups:
//! SVT-AV1 ≈ 6×, x264 strong, libaom moderate, x265 ≈ 1.3×, and it
//! attributes the difference to how each encoder *divides work among
//! threads* ("x265 may spread the workload among its cores unevenly").
//! This module encodes those structures: [`plan_layout`] defines the
//! tile/wavefront unit decomposition the encoder *actually executes*
//! (serially or on `--tile-workers` worker threads), the encoder records
//! the real instruction cost of every unit ([`TaskTrace::frames`]'
//! [`FrameTaskTrace::plan_units`]), and [`build_task_graph`] assembles
//! the dependency graph that codec's threading model implies from those
//! measured units. `vstress-sched` then schedules the graph on N cores.
//!
//! Threading models (from the encoders' documented designs):
//!
//! * **SVT-AV1** — a picture-level pipeline of decoupled segment tasks:
//!   superblock rows across *consecutive frames* proceed concurrently,
//!   gated only by the reference row they need (motion range). Abundant
//!   parallelism ⇒ near-linear scaling.
//! * **x264** — sliced wavefront within a frame: row `r` of frame `f`
//!   depends on row `r-1` (and, across frames, the co-located reference
//!   row). Good scaling that tapers with few rows.
//! * **libaom** — tile-level parallelism within a frame, frames serial:
//!   parallelism bounded by tile count.
//! * **x265** — wavefront rows, but a *serial* per-frame lookahead/rate-
//!   control stage on the main thread gates every frame, and the filter
//!   stage is serial too: Amdahl caps the speedup near the paper's 1.3×.

use crate::codecs::CodecId;
use std::ops::Range;

/// Instruction costs measured during an instrumented encode.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TaskTrace {
    /// Per-frame measurements, in display order.
    pub frames: Vec<FrameTaskTrace>,
}

/// One frame's measured work, split by pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct FrameTaskTrace {
    /// Instructions retired per superblock row (mode decision + coding).
    pub sb_rows: Vec<u64>,
    /// Lookahead / rate-control stage instructions (serial per frame).
    pub lookahead: u64,
    /// In-loop filter stage instructions (serial per frame).
    pub filter: u64,
    /// Measured per-unit partition-search (Phase A) costs, in canonical
    /// merge order (tile-major, row-major within tile, chunk-major
    /// within row) — filled by the encoder's tile/wavefront
    /// decomposition. Empty for synthetic traces; the graph builders
    /// then fall back to an even split of each row's cost.
    pub plan_units: Vec<PlanUnit>,
    /// Cross-frame pipeline timing for this frame's Phase A, measured in
    /// wall-clock nanoseconds on the worker threads (zero for serial
    /// encodes). **Excluded** from equality and serialization: unlike
    /// every other field, these are host-timing observations, not
    /// functions of the deterministic event stream, so they must not
    /// perturb the store's content addressing or the equivalence
    /// oracles.
    pub pipeline: PipelineStats,
}

/// Cross-frame pipeline occupancy measurements for one frame's Phase A
/// (see [`FrameTaskTrace::pipeline`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Nanoseconds plan workers spent blocked on reference-row
    /// watermarks before this frame's units could read their reference
    /// bands.
    pub stall_ns: u64,
    /// Nanoseconds plan workers spent executing this frame's units
    /// (admission + partition search) after their watermarks cleared.
    pub busy_ns: u64,
}

impl PipelineStats {
    /// Fraction of this frame's Phase A worker time spent doing work
    /// rather than waiting on reference watermarks (1.0 when nothing
    /// was measured).
    pub fn occupancy(&self) -> f64 {
        let total = self.stall_ns + self.busy_ns;
        if total == 0 {
            1.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

// Equality and the wire format deliberately cover only the
// deterministic fields — `pipeline` is wall-clock measurement and must
// not change what two equivalent encodes compare or hash as. The
// serialized form is byte-identical to the pre-pipeline derived one
// (tag + four fields in declaration order), so stored traces from
// earlier schema revisions read back unchanged.
impl PartialEq for FrameTaskTrace {
    fn eq(&self, other: &Self) -> bool {
        self.sb_rows == other.sb_rows
            && self.lookahead == other.lookahead
            && self.filter == other.filter
            && self.plan_units == other.plan_units
    }
}

impl Eq for FrameTaskTrace {}

impl serde::Serialize for FrameTaskTrace {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.write_tag("FrameTaskTrace");
        self.sb_rows.serialize(s);
        self.lookahead.serialize(s);
        self.filter.serialize(s);
        self.plan_units.serialize(s);
    }
}

impl<'de> serde::Deserialize<'de> for FrameTaskTrace {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        d.expect_tag("FrameTaskTrace")?;
        Ok(FrameTaskTrace {
            sb_rows: Vec::<u64>::deserialize(d)?,
            lookahead: u64::deserialize(d)?,
            filter: u64::deserialize(d)?,
            plan_units: Vec::<PlanUnit>::deserialize(d)?,
            pipeline: PipelineStats::default(),
        })
    }
}

/// One executed plan unit's measured cost (see [`PlanLayout`] for the
/// unit geometry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanUnit {
    /// Tile the unit belongs to (0 for non-tiled codecs).
    pub tile: usize,
    /// Superblock row of the unit.
    pub row: usize,
    /// Chunk index within the row.
    pub chunk: usize,
    /// Instructions retired by the unit's partition search.
    pub cost: u64,
}

impl TaskTrace {
    /// Total measured instructions.
    pub fn total_instructions(&self) -> u64 {
        self.frames.iter().map(|f| f.sb_rows.iter().sum::<u64>() + f.lookahead + f.filter).sum()
    }
}

/// How one frame's partition search (Phase A) decomposes into
/// schedulable units for a codec — the *execution* counterpart of
/// [`build_task_graph`]'s modeled shapes, shared by the encoder's
/// tile/wavefront executor and the graph builders so both agree on the
/// geometry.
///
/// Units are grouped into **chains**: the units of a chain share a
/// spatial-MV-seed thread and must run in order on one worker; distinct
/// chains are data-independent and run concurrently. Per codec:
///
/// * **SVT-AV1** — every row chunk is its own single-unit chain (the
///   decoupled segment design: no intra-frame data dependencies);
/// * **x264 / x265** — one chain per superblock row, the row's chunks
///   chained left to right (the WPP seed thread);
/// * **libaom / libvpx** — one chain per tile (a contiguous group of
///   rows), the tile's rows chained top to bottom, tiles independent.
///
/// Iterating chains in order and units within each chain yields the
/// canonical merge order: tile-major, row-major within tile,
/// chunk-major within row — frame raster order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanLayout {
    /// Chains in canonical order.
    pub chains: Vec<PlanChain>,
}

/// One seed-chained sequence of plan units (see [`PlanLayout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanChain {
    /// Units in execution (and canonical merge) order.
    pub units: Vec<UnitSpan>,
}

/// The superblock span one plan unit covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSpan {
    /// Tile the unit belongs to (0 for non-tiled codecs).
    pub tile: usize,
    /// Superblock row.
    pub row: usize,
    /// Chunk index within the row.
    pub chunk: usize,
    /// Superblock columns covered (half-open).
    pub cols: Range<usize>,
}

/// Row chunks the codec's threading model uses (1 = whole rows).
fn row_chunk_count(codec: CodecId) -> usize {
    match codec {
        // SVT segments and x264 sliced rows: 4 chunks; x265's coarser
        // helper units: 3; tile codecs work in whole rows.
        CodecId::SvtAv1 | CodecId::X264 => 4,
        CodecId::X265 => 3,
        CodecId::Libaom | CodecId::LibvpxVp9 => 1,
    }
}

/// Balanced half-open column spans: `min(chunks, cols)` non-empty
/// chunks, sizes differing by at most one, earlier chunks larger.
fn chunk_spans(cols: usize, chunks: usize) -> Vec<Range<usize>> {
    let n = chunks.min(cols).max(1);
    let base = cols / n;
    let rem = cols % n;
    let mut spans = Vec::with_capacity(n);
    let mut start = 0;
    for c in 0..n {
        let len = base + usize::from(c < rem);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Contiguous row groups standing in for tiles: up to 4 tiles, matching
/// the libaom/libvpx graph model.
fn tile_rows(rows: usize) -> Vec<Range<usize>> {
    if rows == 0 {
        return Vec::new();
    }
    // Exactly min(rows, 4) balanced tiles (sizes differ by at most one,
    // earlier tiles larger) — a ceil-divide grouping can collapse to
    // fewer tiles (e.g. 6 rows → 3 tiles of 2), understating the
    // codec's available parallelism.
    chunk_spans(rows, 4)
}

/// Builds the plan-unit decomposition for a `sb_cols` x `sb_rows`
/// superblock grid under `codec`'s threading model (see [`PlanLayout`]).
pub fn plan_layout(codec: CodecId, sb_cols: usize, sb_rows: usize) -> PlanLayout {
    let mut chains = Vec::new();
    match codec {
        CodecId::SvtAv1 => {
            for row in 0..sb_rows {
                for (chunk, cols) in
                    chunk_spans(sb_cols, row_chunk_count(codec)).into_iter().enumerate()
                {
                    chains.push(PlanChain { units: vec![UnitSpan { tile: 0, row, chunk, cols }] });
                }
            }
        }
        CodecId::X264 | CodecId::X265 => {
            for row in 0..sb_rows {
                let units = chunk_spans(sb_cols, row_chunk_count(codec))
                    .into_iter()
                    .enumerate()
                    .map(|(chunk, cols)| UnitSpan { tile: 0, row, chunk, cols })
                    .collect();
                chains.push(PlanChain { units });
            }
        }
        CodecId::Libaom | CodecId::LibvpxVp9 => {
            for (tile, rows) in tile_rows(sb_rows).into_iter().enumerate() {
                let units =
                    rows.map(|row| UnitSpan { tile, row, chunk: 0, cols: 0..sb_cols }).collect();
                chains.push(PlanChain { units });
            }
        }
    }
    PlanLayout { chains }
}

/// Groups a frame's measured plan-unit costs by row (chunk-major within
/// each row, i.e. canonical order preserved).
fn unit_costs_by_row(ft: &FrameTaskTrace, rows: usize) -> Vec<Vec<u64>> {
    let mut by_row = vec![Vec::new(); rows];
    for u in &ft.plan_units {
        if u.row < rows {
            by_row[u.row].push(u.cost);
        }
    }
    by_row
}

/// Splits one row's total cost into per-chunk task costs. With measured
/// plan units, each chunk carries its real search cost plus an even
/// share of the row's (serial-in-execution, row-parallel-in-model)
/// coding cost; without measurements, the legacy even split over
/// `fallback_chunks`.
fn split_row_cost(row_cost: u64, measured: &[u64], fallback_chunks: usize) -> Vec<u64> {
    if measured.is_empty() {
        let n = fallback_chunks.max(1) as u64;
        let per = row_cost / n;
        let mut out = vec![per; fallback_chunks.max(1)];
        *out.last_mut().expect("at least one chunk") = row_cost - per * (n - 1);
        return out;
    }
    let plan_sum: u64 = measured.iter().sum();
    let code_share = row_cost.saturating_sub(plan_sum);
    let n = measured.len() as u64;
    let per = code_share / n;
    let mut out: Vec<u64> = measured.iter().map(|&c| c + per).collect();
    *out.last_mut().expect("measured is nonempty") += code_share - per * n;
    out
}

/// What a task models (used for reporting and contention classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TaskKind {
    /// Per-frame lookahead / rate control (serial stage).
    Lookahead,
    /// A superblock-row (or tile) coding task.
    CodeRow,
    /// Per-frame in-loop filtering.
    Filter,
}

/// One schedulable task.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Task {
    /// Stable id (index into the graph's task list).
    pub id: usize,
    /// Work in instructions.
    pub cost: u64,
    /// What this task is.
    pub kind: TaskKind,
    /// Frame the task belongs to.
    pub frame: usize,
    /// Ids of tasks that must complete first.
    pub deps: Vec<usize>,
    /// Whether the codec pins this task to the main thread (x265's
    /// lookahead model).
    pub main_thread_only: bool,
}

/// A schedulable task graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TaskGraph {
    /// Tasks, topologically constructable (deps always have smaller ids).
    pub tasks: Vec<Task>,
}

impl TaskGraph {
    /// Sum of all task costs (the serial makespan).
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Length of the longest dependency chain, in instructions (the ideal
    /// infinite-core makespan).
    pub fn critical_path(&self) -> u64 {
        let mut finish = vec![0u64; self.tasks.len()];
        for t in &self.tasks {
            let start = t.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
            finish[t.id] = start + t.cost;
        }
        finish.into_iter().max().unwrap_or(0)
    }
}

/// Builds the task graph `codec`'s threading structure implies for the
/// measured `trace`.
pub fn build_task_graph(codec: CodecId, trace: &TaskTrace) -> TaskGraph {
    match codec {
        CodecId::SvtAv1 => svt_pipeline(trace),
        CodecId::X264 => wavefront(trace, false),
        CodecId::X265 => wavefront(trace, true),
        CodecId::Libaom | CodecId::LibvpxVp9 => tiles(trace),
    }
}

/// SVT-AV1: fine-grained segment tasks across a frame pipeline. Each
/// superblock row is split into independent segments; segment `(r, c)` of
/// frame `f` depends only on the co-located ±1-row segments of frame
/// `f-1` (its motion range) — there are *no* intra-frame dependencies
/// between segments, which is the decoupled picture-pipeline design the
/// SVT papers describe and the source of its near-linear scaling.
fn svt_pipeline(trace: &TaskTrace) -> TaskGraph {
    const SEGMENTS: usize = 4;
    let mut g = TaskGraph::default();
    let mut prev_segments: Vec<Vec<usize>> = Vec::new();
    let mut prev_la: Option<usize> = None;
    let mut prev_filter: Option<usize> = None;
    for (f, ft) in trace.frames.iter().enumerate() {
        // SVT's picture manager / rate control is a serial chain — the
        // Amdahl term that caps its scaling near the paper's ~6x.
        let la_deps = prev_la.into_iter().collect();
        let la = push(&mut g, ft.lookahead, TaskKind::Lookahead, f, la_deps, false);
        prev_la = Some(la);
        let measured = unit_costs_by_row(ft, ft.sb_rows.len());
        let mut rows: Vec<Vec<usize>> = Vec::with_capacity(ft.sb_rows.len());
        for (r, &row_cost) in ft.sb_rows.iter().enumerate() {
            let seg_costs = split_row_cost(row_cost, &measured[r], SEGMENTS);
            let mut segs = Vec::with_capacity(seg_costs.len());
            for (c, &cost) in seg_costs.iter().enumerate() {
                let mut deps = vec![la];
                // Motion search reads the deblocked reference: the
                // previous frame's filter gates each segment.
                if let Some(d) = prev_filter {
                    deps.push(d);
                }
                let lo = r.saturating_sub(1);
                let hi = r + 1;
                for dr in lo..=hi {
                    if let Some(prev_row) = prev_segments.get(dr) {
                        deps.push(prev_row[c.min(prev_row.len() - 1)]);
                    }
                }
                segs.push(push(&mut g, cost, TaskKind::CodeRow, f, deps, false));
            }
            rows.push(segs);
        }
        let all: Vec<usize> = rows.iter().flatten().copied().collect();
        prev_filter = Some(push(&mut g, ft.filter, TaskKind::Filter, f, all, false));
        prev_segments = rows;
    }
    g
}

/// x264 / x265: wavefront (WPP) row chunks within each frame. Each row is
/// split into chunks; chunk `c` of row `r` depends on chunk `c-1` of the
/// same row and chunk `min(c+1, last)` of row `r-1` — the classic
/// two-superblock WPP lag at chunk granularity.
///
/// x264 additionally pipelines frames (a chunk waits only on the
/// co-located chunk of the reference frame), giving it the strong early
/// scaling of Fig. 12–15. For x265 (`primary_thread_model`), the paper's
/// hypothesis is modelled directly: the per-frame lookahead is a serial
/// main-thread chain gated on the previous frame's reconstruction, and the
/// leading chunk of every row is pinned to the primary thread ("a primary
/// thread which performs most of the work along with some additional
/// helper threads"), capping the speedup near the observed ~1.3x.
fn wavefront(trace: &TaskTrace, primary_thread_model: bool) -> TaskGraph {
    // x265's helper-thread pool works in coarser units than x264's
    // sliced rows, concentrating work on the primary thread.
    let chunks: usize = if primary_thread_model { 3 } else { 4 };
    let mut g = TaskGraph::default();
    let mut prev_chunks: Vec<Vec<usize>> = Vec::new();
    let mut prev_filter: Option<usize> = None;
    let mut prev_lookahead: Option<usize> = None;
    for (f, ft) in trace.frames.iter().enumerate() {
        let mut la_deps = Vec::new();
        if primary_thread_model {
            // x265: lookahead is a serial chain on the main thread and
            // waits for the previous frame to be fully reconstructed.
            if let Some(d) = prev_lookahead {
                la_deps.push(d);
            }
            if let Some(d) = prev_filter {
                la_deps.push(d);
            }
        }
        let la = push(&mut g, ft.lookahead, TaskKind::Lookahead, f, la_deps, primary_thread_model);
        let measured = unit_costs_by_row(ft, ft.sb_rows.len());
        let mut rows_chunks: Vec<Vec<usize>> = Vec::with_capacity(ft.sb_rows.len());
        for (r, &row_cost) in ft.sb_rows.iter().enumerate() {
            let chunk_costs = split_row_cost(row_cost, &measured[r], chunks);
            let mut chunk_ids = Vec::with_capacity(chunk_costs.len());
            for (c, &cost) in chunk_costs.iter().enumerate() {
                let mut deps = vec![la];
                if c > 0 {
                    // The intra-row chain: in execution this is the
                    // spatial-MV seed handoff, chunk c reads chunk c-1's
                    // final seed.
                    deps.push(chunk_ids[c - 1]);
                }
                if r > 0 {
                    // WPP lag: wait for the chunk one position ahead in
                    // the row above.
                    let above = &rows_chunks[r - 1];
                    deps.push(above[(c + 1).min(above.len() - 1)]);
                }
                if !primary_thread_model {
                    // x264 frame pipeline: the reference must have
                    // reconstructed down to the motion range — two rows
                    // below the co-located chunk.
                    let ref_row = (r + 2).min(trace.frames[f].sb_rows.len() - 1);
                    if let Some(prev_row) = prev_chunks.get(ref_row) {
                        deps.push(prev_row[c.min(prev_row.len() - 1)]);
                    }
                }
                let pinned = primary_thread_model && c == 0;
                chunk_ids.push(push(&mut g, cost, TaskKind::CodeRow, f, deps, pinned));
            }
            rows_chunks.push(chunk_ids);
        }
        let all_chunks: Vec<usize> = rows_chunks.iter().flatten().copied().collect();
        let filter = push(&mut g, ft.filter, TaskKind::Filter, f, all_chunks, primary_thread_model);
        prev_chunks = rows_chunks;
        prev_filter = Some(filter);
        prev_lookahead = Some(la);
    }
    g
}

/// libaom / libvpx: tile parallelism inside a frame, frames strictly
/// serial (single-pass, no frame pipeline). Rows stand in for tiles.
fn tiles(trace: &TaskTrace) -> TaskGraph {
    let mut g = TaskGraph::default();
    let mut prev_frame_done: Option<usize> = None;
    for (f, ft) in trace.frames.iter().enumerate() {
        let mut la_deps = Vec::new();
        if let Some(d) = prev_frame_done {
            la_deps.push(d);
        }
        let la = push(&mut g, ft.lookahead, TaskKind::Lookahead, f, la_deps, false);
        // Tiles: contiguous row groups, the same grouping the encoder's
        // tile executor uses ([`plan_layout`]).
        let mut tile_ids = Vec::new();
        for rows in tile_rows(ft.sb_rows.len()) {
            let cost = ft.sb_rows[rows].iter().sum();
            tile_ids.push(push(&mut g, cost, TaskKind::CodeRow, f, vec![la], false));
        }
        let filter = push(&mut g, ft.filter, TaskKind::Filter, f, tile_ids, false);
        prev_frame_done = Some(filter);
    }
    g
}

fn push(
    g: &mut TaskGraph,
    cost: u64,
    kind: TaskKind,
    frame: usize,
    deps: Vec<usize>,
    main_thread_only: bool,
) -> usize {
    let id = g.tasks.len();
    debug_assert!(deps.iter().all(|&d| d < id), "deps must precede the task");
    g.tasks.push(Task { id, cost, kind, frame, deps, main_thread_only });
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(frames: usize, rows: usize) -> TaskTrace {
        TaskTrace {
            frames: (0..frames)
                .map(|f| FrameTaskTrace {
                    sb_rows: (0..rows).map(|r| 1000 + (f * r) as u64).collect(),
                    lookahead: 500,
                    filter: 300,
                    ..Default::default()
                })
                .collect(),
        }
    }

    /// Like `trace`, but with measured plan units: each row's search
    /// cost split unevenly across the codec's chunk count, summing to
    /// 70% of the row (the rest standing in for coding work).
    fn measured_trace(codec: CodecId, frames: usize, rows: usize, cols: usize) -> TaskTrace {
        let mut t = trace(frames, rows);
        for ft in &mut t.frames {
            for (r, &row_cost) in ft.sb_rows.iter().enumerate() {
                let layout = plan_layout(codec, cols, rows);
                for chain in &layout.chains {
                    for u in &chain.units {
                        if u.row == r {
                            let share = row_cost * 7 / 10 / (u.chunk as u64 + 2);
                            ft.plan_units.push(PlanUnit {
                                tile: u.tile,
                                row: u.row,
                                chunk: u.chunk,
                                cost: share,
                            });
                        }
                    }
                }
            }
        }
        t
    }

    #[test]
    fn layout_covers_every_superblock_once_in_raster_order() {
        for codec in CodecId::ALL {
            for (cols, rows) in [(1, 1), (3, 2), (7, 5), (2, 9)] {
                let layout = plan_layout(codec, cols, rows);
                let mut seen = Vec::new();
                for chain in &layout.chains {
                    for u in &chain.units {
                        assert!(!u.cols.is_empty(), "{codec}: empty unit");
                        for c in u.cols.clone() {
                            seen.push((u.row, c));
                        }
                    }
                }
                let raster: Vec<_> =
                    (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))).collect();
                assert_eq!(seen, raster, "{codec} {cols}x{rows}: canonical order is raster");
            }
        }
    }

    #[test]
    fn layout_chain_shapes_match_the_threading_models() {
        let svt = plan_layout(CodecId::SvtAv1, 8, 3);
        assert!(svt.chains.iter().all(|c| c.units.len() == 1), "svt segments are independent");
        assert_eq!(svt.chains.len(), 3 * 4);
        let x264 = plan_layout(CodecId::X264, 8, 3);
        assert_eq!(x264.chains.len(), 3, "one chain per row");
        assert!(x264.chains.iter().all(|c| c.units.len() == 4));
        let x265 = plan_layout(CodecId::X265, 8, 3);
        assert!(x265.chains.iter().all(|c| c.units.len() == 3), "x265 uses coarser chunks");
        let aom = plan_layout(CodecId::Libaom, 8, 6);
        assert_eq!(aom.chains.len(), 4, "rows group into up to 4 tiles");
        assert!(aom.chains.iter().all(|c| c.units.iter().all(|u| u.cols == (0..8))));
        // Narrow frames degrade gracefully: chunk count is capped by the
        // superblock columns, never producing an empty unit.
        let narrow = plan_layout(CodecId::SvtAv1, 2, 2);
        assert_eq!(narrow.chains.len(), 2 * 2);
    }

    #[test]
    fn measured_plan_units_preserve_total_work() {
        for codec in CodecId::ALL {
            let t = measured_trace(codec, 3, 5, 9);
            let g = build_task_graph(codec, &t);
            assert_eq!(g.total_cost(), t.total_instructions(), "{codec}");
        }
    }

    #[test]
    fn measured_splits_are_uneven_but_topological() {
        let t = measured_trace(CodecId::SvtAv1, 2, 4, 9);
        let g = build_task_graph(CodecId::SvtAv1, &t);
        for task in &g.tasks {
            for &d in &task.deps {
                assert!(d < task.id);
            }
        }
        // The measured split must actually shape the tasks: segment
        // costs within a row differ (chunk 0 got the biggest share).
        let row_tasks: Vec<u64> = g
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::CodeRow && t.frame == 0)
            .map(|t| t.cost)
            .take(4)
            .collect();
        assert!(row_tasks.windows(2).any(|w| w[0] != w[1]), "{row_tasks:?}");
    }

    #[test]
    fn graphs_preserve_total_work() {
        let t = trace(4, 6);
        for codec in CodecId::ALL {
            let g = build_task_graph(codec, &t);
            assert_eq!(g.total_cost(), t.total_instructions(), "{codec}");
        }
    }

    #[test]
    fn deps_are_topological() {
        let t = trace(3, 5);
        for codec in CodecId::ALL {
            let g = build_task_graph(codec, &t);
            for task in &g.tasks {
                for &d in &task.deps {
                    assert!(d < task.id, "{codec}: dep {d} !< task {}", task.id);
                }
            }
        }
    }

    #[test]
    fn svt_critical_path_is_shortest() {
        // The SVT pipeline exposes the most parallelism, so its critical
        // path must be no longer than the wavefront models'.
        let t = trace(6, 8);
        let svt = build_task_graph(CodecId::SvtAv1, &t).critical_path();
        let x264 = build_task_graph(CodecId::X264, &t).critical_path();
        let x265 = build_task_graph(CodecId::X265, &t).critical_path();
        let aom = build_task_graph(CodecId::Libaom, &t).critical_path();
        assert!(svt <= x264, "svt {svt} x264 {x264}");
        assert!(x264 <= x265, "x264 {x264} x265 {x265}");
        assert!(svt <= aom, "svt {svt} aom {aom}");
    }

    #[test]
    fn x265_pins_serial_stages_to_main_thread() {
        let g = build_task_graph(CodecId::X265, &trace(2, 4));
        assert!(g.tasks.iter().any(|t| t.main_thread_only));
        let g264 = build_task_graph(CodecId::X264, &trace(2, 4));
        assert!(g264.tasks.iter().all(|t| !t.main_thread_only));
    }

    #[test]
    fn pipeline_stats_are_not_identity() {
        // Two traces that differ only in wall-clock pipeline timing are
        // the same trace: equal, and serialized to identical bytes (the
        // pre-pipeline wire format).
        let mut a = trace(2, 3);
        let mut b = trace(2, 3);
        a.frames[0].pipeline = PipelineStats { stall_ns: 123, busy_ns: 456 };
        b.frames[0].pipeline = PipelineStats { stall_ns: 999, busy_ns: 1 };
        assert_eq!(a, b);
        let mut sa = serde::Serializer::new();
        let mut sb = serde::Serializer::new();
        serde::Serialize::serialize(&a, &mut sa);
        serde::Serialize::serialize(&b, &mut sb);
        assert_eq!(sa.finish(), sb.finish());
    }

    #[test]
    fn frame_trace_serde_roundtrip_drops_pipeline() {
        let mut t = trace(1, 2);
        t.frames[0].pipeline = PipelineStats { stall_ns: 7, busy_ns: 9 };
        let mut s = serde::Serializer::new();
        serde::Serialize::serialize(&t, &mut s);
        let wire = s.finish();
        let mut d = serde::Deserializer::new(&wire);
        let back: TaskTrace = serde::Deserialize::deserialize(&mut d).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.frames[0].pipeline, PipelineStats::default());
    }

    #[test]
    fn occupancy_is_busy_fraction() {
        assert_eq!(PipelineStats::default().occupancy(), 1.0);
        let s = PipelineStats { stall_ns: 25, busy_ns: 75 };
        assert!((s.occupancy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn critical_path_bounds_total() {
        let t = trace(3, 4);
        for codec in CodecId::ALL {
            let g = build_task_graph(codec, &t);
            assert!(g.critical_path() <= g.total_cost());
            assert!(g.critical_path() > 0);
        }
    }
}
