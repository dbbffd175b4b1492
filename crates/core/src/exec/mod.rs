//! Parallel experiment execution and the characterization run-cache.
//!
//! Every figure/table runner decomposes into independent
//! [`RunSpec`]s, so the whole reproduction is an embarrassingly
//! parallel batch — the same structure the paper's datacenter framing
//! assumes. [`run_all`] fans specs out over the
//! [`run_ordered`] work queue, and
//! [`RunCache`] memoizes five layers of shared work:
//!
//! * **captures** — [`CapturedEncode`]s: the canonical probe event
//!   stream plus every stream-independent measurement of one encode,
//!   keyed by (clip, codec, params, fidelity) only. This is the **only
//!   layer that encodes**; every other layer derives its result from
//!   the capture, so one encode serves many simulations
//!   (capture once, simulate many).
//! * **runs** — [`CharacterizationRun`]s keyed by everything that
//!   determines them (clip, codec, params, fidelity, cache divisor,
//!   pipeline on/off), derived by replaying the capture's stream
//!   through a fresh core model — or, when the capture itself is being
//!   recorded, by simulating chunks concurrently with the recording
//!   encode over a bounded channel. Figures that share quality points
//!   (Figs. 4–7 slice one sweep; Fig. 1/2a/2b share encodes; Table 2
//!   shares the CRF-63 encodes with Fig. 8) never recompute an encode.
//! * **clips** — synthesized vbench clips keyed by (name, fidelity).
//! * **branch windows** — the CBP study's mid-run traces, sliced out of
//!   the capture's stream (keyed additionally by the window length), so
//!   a CBP matrix re-run against a warm store performs zero encodes.
//! * **encode/decode costs** — the decode-cost study's instruction
//!   pairs; the encode side reads the capture's mix, the decode side
//!   decodes the capture's bitstream.
//!
//! [`RunCache::run_plan`] runs a whole batch of [`Request`]s grouped
//! by encode point and drops each capture as soon as its group is done,
//! so a planned process holds only the streams its workers are using;
//! without a plan, captures live as long as the cache.
//!
//! Attaching a persistent [`store::RunStore`] (see
//! [`RunCache::with_store`]) extends the capture, run, window and cost
//! layers across processes: a repeated or interrupted
//! `vstress-repro --store` invocation reloads completed entries from
//! disk instead of re-encoding, and new simulations (a different cache
//! divisor, another window length) replay the persisted stream instead
//! of re-running the encoder. Clips are *not* persisted — synthesizing
//! one is cheaper than deserializing its pixel planes, and a fully
//! store-served run never needs the clip at all.
//!
//! A stream loaded from the store is not decoded at load: its chunks
//! stay in the entry file as spans, read at each replay, and the decode
//! of its first full replay is the check. If that replay fails — or any
//! later one finds the entry file cut short — the cache quarantines the
//! `stream` entry, drops the capture from memory and records the encode
//! afresh, once; the lookup counts as a store miss, as a quarantine at
//! load would have.
//!
//! Parallelism never changes results: each worker owns its probes and
//! `CoreModel`, and every probed buffer carries a synthetic
//! page-aligned address (see `vstress_trace::probe_addr`), so a spec's
//! characterization is a pure function of the spec. The
//! `parallel_equivalence` integration test pins this down; the same
//! determinism is what makes cross-process reuse sound.

pub mod store;

pub use store::{DiskUsage, KindUsage, RunStore, StoreStats, SCHEMA_VERSION};

use crate::workbench::{
    capture_encode_with, run_from_parts, try_characterize_from_capture, CapturedEncode,
    CharacterizationRun, RunSpec, WorkbenchError,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use store::{KIND_COST, KIND_RUN, KIND_STREAM, KIND_WINDOW};
use vstress_codecs::batch::run_ordered;
use vstress_codecs::{CodecId, Decoder, EncoderParams};
use vstress_pipeline::CoreModel;
use vstress_trace::stream::chunk_channel;
use vstress_trace::{
    BranchRecord, BranchWindowProbe, ChunkDecoder, ChunkTx, CountingProbe, StreamError,
};
use vstress_video::vbench::FidelityConfig;
use vstress_video::Clip;

/// Bounded depth (in ~1 MiB chunks) of the capture→simulate channel:
/// enough that neither side stalls on short bursts, small enough that a
/// slow consumer caps the recorder's working set at a few megabytes.
const CAPTURE_CHANNEL_CHUNKS: usize = 8;

/// The hashable projection of [`FidelityConfig`].
type FidelityKey = (usize, usize, u64);

fn fidelity_key(f: &FidelityConfig) -> FidelityKey {
    (f.dimension_divisor, f.frame_count, f.seed)
}

/// Everything that determines a [`CharacterizationRun`].
///
/// `RunSpec::tile_workers` and `RunSpec::frame_workers` are deliberately
/// absent: both the tile/wavefront decomposition and the cross-frame
/// pipeline are worker-count invariant (the probe-merge contract), so a
/// run computed at any worker count serves every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RunKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
    cache_divisor: usize,
    model_pipeline: bool,
}

impl RunKey {
    fn of(spec: &RunSpec) -> Self {
        RunKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
            cache_divisor: spec.cache_divisor,
            model_pipeline: spec.model_pipeline,
        }
    }

    /// Stable, human-readable key text for the persistent store. Any
    /// change here must come with a [`SCHEMA_VERSION`] bump.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|div{}|pipe{}",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
            self.cache_divisor,
            self.model_pipeline,
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClipKey {
    clip: &'static str,
    fidelity: FidelityKey,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WindowKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
    window: u64,
}

impl WindowKey {
    /// Stable key text for the persistent store's window layer.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|win{}",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
            self.window,
        )
    }
}

/// Everything that determines a [`CapturedEncode`] — the spec minus
/// `cache_divisor` and `model_pipeline` (simulation-side knobs that
/// never reach the encoder) and minus `tile_workers`/`frame_workers`
/// (worker-count invariant in both dimensions): one capture serves
/// every characterization of its encode point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CaptureKey {
    clip: &'static str,
    codec: CodecId,
    params: EncoderParams,
    fidelity: FidelityKey,
}

impl CaptureKey {
    fn of(spec: &RunSpec) -> Self {
        CaptureKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
        }
    }

    /// Stable key text for the persistent store's stream layer.
    fn store_text(&self) -> String {
        format!(
            "{}|{:?}|crf{}-p{}-t{}-k{}|fid{}x{}s{:#x}|stream",
            self.clip,
            self.codec,
            self.params.crf,
            self.params.preset,
            self.params.threads,
            self.params.keyint,
            self.fidelity.0,
            self.fidelity.1,
            self.fidelity.2,
        )
    }
}

/// A captured mid-run branch window: the records plus the number of
/// instructions the window actually covered.
///
/// The records sit behind an `Arc<[BranchRecord]>` so every consumer of
/// a cached window — the CBP study replays each one through four
/// predictors, possibly from several replay workers at once — shares a
/// single allocation instead of cloning a multi-million-record vector
/// per use.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchWindow {
    /// The captured branch records, in program order.
    pub records: Arc<[BranchRecord]>,
    /// Instructions the window actually covered (the MPKI denominator).
    pub instructions: u64,
}

// Hand-written serialization emitting exactly the wire bytes of the
// previous `(Vec<BranchRecord>, u64)` tuple representation — a sequence
// followed by an unsigned, no struct name tag — so windows persisted by
// existing stores load unchanged and no `SCHEMA_VERSION` bump is needed.
impl serde::Serialize for BranchWindow {
    fn serialize(&self, s: &mut serde::Serializer) {
        self.records[..].serialize(s);
        self.instructions.serialize(s);
    }
}

impl<'de> serde::Deserialize<'de> for BranchWindow {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        let records = Vec::<BranchRecord>::deserialize(d)?;
        let instructions = u64::deserialize(d)?;
        Ok(BranchWindow { records: records.into(), instructions })
    }
}

/// Instruction costs of one encode and of decoding its bitstream — the
/// decode-cost study's measurement, cached and persisted like runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EncodeDecodeCost {
    /// Instructions retired by the encode.
    pub encode_instructions: u64,
    /// Instructions retired decoding the produced bitstream.
    pub decode_instructions: u64,
}

/// A memoized captured encode, and what is known of its stream.
struct Capture {
    encode: CapturedEncode,
    /// Loaded from the store: the stream's chunks are spans of the entry
    /// file, read at every replay. Only such a stream can fail to replay,
    /// at any replay, and its failure is the store's fault.
    stored: bool,
    /// Loaded from the store and not yet replayed in full. The flag
    /// guards no other data (the capture is immutable), so relaxed
    /// accesses do: a stale `true` costs one more full replay.
    unchecked: AtomicBool,
}

impl std::ops::Deref for Capture {
    type Target = CapturedEncode;

    fn deref(&self) -> &CapturedEncode {
        &self.encode
    }
}

impl Capture {
    fn is_unchecked(&self) -> bool {
        self.unchecked.load(Ordering::Relaxed)
    }
}

/// One cache entry: a per-key lock around the (eventually) computed
/// value. A racer for an in-flight key blocks on the slot lock instead
/// of recomputing; distinct keys never contend beyond the brief map
/// lookup.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// Locks a mutex, recovering from poison: a panic inside one compute
/// must not cascade into panics on every later lookup of that key. The
/// protected state is valid at any panic point (an empty or fully
/// written slot, or the map between operations), so the poison flag
/// carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Looks up `key`, computing the value at most once per key. A failed
/// compute removes its map entry again so repeated failures cannot grow
/// the map, and a panicking compute neither poisons later lookups nor
/// leaves a dead slot behind a retry.
fn memo<K: Eq + Hash + Clone, V>(
    map: &Mutex<HashMap<K, Slot<V>>>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: K,
    compute: impl FnOnce() -> Result<V, WorkbenchError>,
) -> Result<Arc<V>, WorkbenchError> {
    let slot = Arc::clone(lock_unpoisoned(map).entry(key.clone()).or_default());
    let mut guard = lock_unpoisoned(&slot);
    if let Some(v) = guard.as_ref() {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(v));
    }
    misses.fetch_add(1, Ordering::Relaxed);
    match compute() {
        Ok(v) => {
            let v = Arc::new(v);
            *guard = Some(Arc::clone(&v));
            Ok(v)
        }
        Err(e) => {
            // Drop the dead entry — but only if it is still ours; a
            // concurrent failure may already have replaced it.
            let mut m = lock_unpoisoned(map);
            if m.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                m.remove(&key);
            }
            Err(e)
        }
    }
}

/// One result a runner will ask the cache for — the unit of a plan
/// (see [`RunCache::run_plan`]).
#[derive(Debug, Clone)]
pub enum Request {
    /// A characterization run ([`RunCache::run`]).
    Run(RunSpec),
    /// A CBP branch window of the given length ([`RunCache::branch_window`]).
    Window(RunSpec, u64),
    /// An encode/decode cost pair ([`RunCache::encode_decode_cost`]).
    Cost(RunSpec),
}

impl Request {
    /// The spec whose encode point the request reads.
    pub fn spec(&self) -> &RunSpec {
        match self {
            Request::Run(spec) | Request::Window(spec, _) | Request::Cost(spec) => spec,
        }
    }

    /// Computes (or looks up) the requested result, discarding it: the
    /// memo keeps it for the runner that asks next.
    fn fill(&self, cache: &RunCache) -> Result<(), WorkbenchError> {
        match self {
            Request::Run(spec) => cache.run(spec).map(drop),
            Request::Window(spec, window) => cache.branch_window(spec, *window).map(drop),
            Request::Cost(spec) => cache.encode_decode_cost(spec).map(drop),
        }
    }

    /// A pipeline run: the one request whose recording encode overlaps
    /// the core model, so a group runs it first.
    fn is_pipeline_run(&self) -> bool {
        matches!(self, Request::Run(spec) if spec.model_pipeline)
    }
}

/// Hit/miss counters for the cache layers and the optional persistent
/// store (test observability — a hit proves no re-encode happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCacheStats {
    /// Characterization-run cache hits.
    pub run_hits: u64,
    /// Characterization-run cache misses (computes; each is an encode
    /// unless the persistent store served it).
    pub run_misses: u64,
    /// Clip-synthesis cache hits.
    pub clip_hits: u64,
    /// Clip-synthesis cache misses (clips synthesized).
    pub clip_misses: u64,
    /// Branch-window cache hits.
    pub window_hits: u64,
    /// Branch-window cache misses (window captures, unless store-served).
    pub window_misses: u64,
    /// Encode/decode-cost cache hits.
    pub cost_hits: u64,
    /// Encode/decode-cost cache misses (encode+decode pairs, unless
    /// store-served).
    pub cost_misses: u64,
    /// Captured-encode cache hits (stream reused from memory).
    pub capture_hits: u64,
    /// Captured-encode cache misses (stream loaded from the store, or
    /// recorded by an encode).
    pub capture_misses: u64,
    /// Recording encodes actually performed — the capture layer is the
    /// only encode site, so this counts every encoder invocation in the
    /// process.
    pub encodes: u64,
    /// Event streams captured fresh (recorded rather than reloaded from
    /// memory or the store). Equal to [`RunCacheStats::encodes`] today;
    /// kept separate so warm-store assertions name the thing they mean.
    pub stream_captures: u64,
    /// Captures dropped from memory by [`RunCache::run_plan`] once their
    /// group was done.
    pub captures_evicted: u64,
    /// Persistent-store hits (entries loaded from disk; no work done).
    pub store_hits: u64,
    /// Persistent-store misses (entries computed and written back).
    /// Zero when no store is attached.
    pub store_misses: u64,
    /// Corrupt or stale store entries quarantined and recomputed.
    pub store_quarantined: u64,
}

/// Memoizes captured encodes, characterization runs, synthesized
/// clips, CBP branch windows and encode/decode costs. Thread-safe;
/// share one instance per process via `Arc` (the
/// [`ExperimentConfig`](crate::experiments::ExperimentConfig) embeds
/// one and `Clone` shares it).
///
/// With [`RunCache::with_store`], the capture, run, window and cost
/// layers additionally extend across processes through a persistent
/// [`RunStore`].
#[derive(Default)]
pub struct RunCache {
    runs: Mutex<HashMap<RunKey, Slot<CharacterizationRun>>>,
    clips: Mutex<HashMap<ClipKey, Slot<Clip>>>,
    windows: Mutex<HashMap<WindowKey, Slot<BranchWindow>>>,
    costs: Mutex<HashMap<RunKey, Slot<EncodeDecodeCost>>>,
    captures: Mutex<HashMap<CaptureKey, Slot<Capture>>>,
    store: Option<Arc<RunStore>>,
    run_hits: AtomicU64,
    run_misses: AtomicU64,
    clip_hits: AtomicU64,
    clip_misses: AtomicU64,
    window_hits: AtomicU64,
    window_misses: AtomicU64,
    cost_hits: AtomicU64,
    cost_misses: AtomicU64,
    capture_hits: AtomicU64,
    capture_misses: AtomicU64,
    encodes: AtomicU64,
    stream_captures: AtomicU64,
    captures_evicted: AtomicU64,
}

impl std::fmt::Debug for RunCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCache").field("stats", &self.stats()).finish()
    }
}

impl RunCache {
    /// A fresh, empty, in-memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh cache backed by a persistent store: capture, run, window
    /// and cost computes consult `store` before doing work and write
    /// results back, so a second process over the same specs performs
    /// zero encodes.
    pub fn with_store(store: Arc<RunStore>) -> Self {
        RunCache { store: Some(store), ..Self::default() }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&Arc<RunStore>> {
        self.store.as_ref()
    }

    /// Snapshot of the hit/miss counters (cache layers + store).
    pub fn stats(&self) -> RunCacheStats {
        let store = self.store.as_deref().map(RunStore::stats).unwrap_or_default();
        RunCacheStats {
            run_hits: self.run_hits.load(Ordering::Relaxed),
            run_misses: self.run_misses.load(Ordering::Relaxed),
            clip_hits: self.clip_hits.load(Ordering::Relaxed),
            clip_misses: self.clip_misses.load(Ordering::Relaxed),
            window_hits: self.window_hits.load(Ordering::Relaxed),
            window_misses: self.window_misses.load(Ordering::Relaxed),
            cost_hits: self.cost_hits.load(Ordering::Relaxed),
            cost_misses: self.cost_misses.load(Ordering::Relaxed),
            capture_hits: self.capture_hits.load(Ordering::Relaxed),
            capture_misses: self.capture_misses.load(Ordering::Relaxed),
            encodes: self.encodes.load(Ordering::Relaxed),
            stream_captures: self.stream_captures.load(Ordering::Relaxed),
            captures_evicted: self.captures_evicted.load(Ordering::Relaxed),
            store_hits: store.hits,
            store_misses: store.misses,
            store_quarantined: store.quarantined,
        }
    }

    /// Consults the store (if attached), computing and writing back on
    /// a miss — the shared shape of every persisted layer's compute.
    fn through_store<V>(
        &self,
        kind: &str,
        key_text: &str,
        compute: impl FnOnce() -> Result<V, WorkbenchError>,
    ) -> Result<V, WorkbenchError>
    where
        V: serde::Serialize + for<'de> serde::Deserialize<'de>,
    {
        if let Some(store) = &self.store {
            if let Some(v) = store.get::<V>(kind, key_text) {
                return Ok(v);
            }
        }
        let v = compute()?;
        if let Some(store) = &self.store {
            store.put(kind, key_text, &v);
        }
        Ok(v)
    }

    /// The synthesized clip for `(name, fidelity)`, computing it on the
    /// first request.
    ///
    /// # Errors
    ///
    /// Returns [`WorkbenchError::Video`] for unknown clip names.
    pub fn clip(
        &self,
        name: &'static str,
        fidelity: &FidelityConfig,
    ) -> Result<Arc<Clip>, WorkbenchError> {
        let key = ClipKey { clip: name, fidelity: fidelity_key(fidelity) };
        memo(&self.clips, &self.clip_hits, &self.clip_misses, key, || {
            Ok(vstress_video::vbench::clip(name)?.synthesize(fidelity))
        })
    }

    /// The shared captured encode for `spec`'s (clip, codec, params,
    /// fidelity) point — recorded at most once per key and persisted in
    /// the store's `stream` layer. `sink`, used only when this call
    /// ends up performing the recording encode, streams chunks to a
    /// concurrent consumer as they fill.
    fn capture(
        &self,
        spec: &RunSpec,
        sink: Option<ChunkTx>,
    ) -> Result<Arc<Capture>, WorkbenchError> {
        let key = CaptureKey::of(spec);
        memo(&self.captures, &self.capture_hits, &self.capture_misses, key, || {
            let stored = self.store.as_ref().and_then(|s| s.get(KIND_STREAM, &key.store_text()));
            match stored {
                Some(encode) => {
                    Ok(Capture { encode, stored: true, unchecked: AtomicBool::new(true) })
                }
                None => self.record(spec, sink),
            }
        })
    }

    /// Performs the recording encode of `spec`'s point and writes the
    /// capture to the store.
    fn record(&self, spec: &RunSpec, sink: Option<ChunkTx>) -> Result<Capture, WorkbenchError> {
        let clip = self.clip(spec.clip, &spec.fidelity)?;
        self.encodes.fetch_add(1, Ordering::Relaxed);
        self.stream_captures.fetch_add(1, Ordering::Relaxed);
        let encode = capture_encode_with(spec, &clip, sink)?;
        if let Some(store) = &self.store {
            store.put(KIND_STREAM, &CaptureKey::of(spec).store_text(), &encode);
        }
        Ok(Capture { encode, stored: false, unchecked: AtomicBool::new(false) })
    }

    /// Runs `replay` over `cap`, the capture of `spec`; given an
    /// unchecked capture, `replay` must decode the whole stream. When a
    /// stream loaded from the store fails to replay — at its first replay
    /// a bad chunk, at any replay a chunk its entry file can no longer
    /// supply — its entry is quarantined, the capture is dropped from
    /// memory and the encode is recorded afresh, once; any other replay
    /// failure is an error.
    fn replay_capture<T>(
        &self,
        spec: &RunSpec,
        cap: Arc<Capture>,
        replay: impl Fn(&Capture) -> Result<T, StreamError>,
    ) -> Result<T, WorkbenchError> {
        match replay(&cap) {
            Ok(v) => {
                cap.unchecked.store(false, Ordering::Relaxed);
                Ok(v)
            }
            Err(why) if cap.stored => {
                let key = CaptureKey::of(spec);
                self.reject_capture(&key, &cap, &why);
                drop(cap);
                let fresh =
                    memo(&self.captures, &self.capture_hits, &self.capture_misses, key, || {
                        self.record(spec, None)
                    })?;
                Ok(replay(&fresh)?)
            }
            Err(why) => Err(why.into()),
        }
    }

    /// Drops `cap` from the memo and quarantines its store entry — unless
    /// a racing replay of the same capture already did, so a recapture
    /// written back meanwhile is never quarantined.
    fn reject_capture(&self, key: &CaptureKey, cap: &Arc<Capture>, why: &StreamError) {
        let Some(slot) = lock_unpoisoned(&self.captures).get(key).cloned() else { return };
        if !lock_unpoisoned(&slot).as_ref().is_some_and(|held| Arc::ptr_eq(held, cap)) {
            return;
        }
        let mut map = lock_unpoisoned(&self.captures);
        if !map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
            return;
        }
        map.remove(key);
        drop(map);
        if let Some(store) = &self.store {
            store.reject(KIND_STREAM, &key.store_text(), why);
        }
    }

    /// The characterization of `spec`, derived from the shared capture
    /// of its encode point — encoding only on the first request for
    /// that point, or never, when the persistent store already holds
    /// the run or its stream.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn run(&self, spec: &RunSpec) -> Result<Arc<CharacterizationRun>, WorkbenchError> {
        let key = RunKey::of(spec);
        memo(&self.runs, &self.run_hits, &self.run_misses, key, || {
            self.through_store(KIND_RUN, &key.store_text(), || self.run_via_capture(spec))
        })
    }

    /// Computes a characterization from the spec's shared capture. For
    /// pipeline specs whose capture is not yet available, the recording
    /// encode and the core-model simulation overlap: the recorder's
    /// sink hands each ~1 MiB chunk to a consumer thread over a bounded
    /// channel while the encode keeps producing the next one. If the
    /// capture turns out to be served from memory or the store instead
    /// (nothing flowed through the channel), the stream is replayed
    /// serially.
    fn run_via_capture(&self, spec: &RunSpec) -> Result<CharacterizationRun, WorkbenchError> {
        if !spec.model_pipeline {
            // Counting-only: the run reads the capture's mix, not its stream.
            let cap = self.capture(spec, None)?;
            return Ok(run_from_parts(spec, &cap, CoreModel::broadwell_scaled(spec.cache_divisor)));
        }
        let (cap, fed) = std::thread::scope(|scope| {
            let (tx, rx) = chunk_channel(CAPTURE_CHANNEL_CHUNKS);
            let divisor = spec.cache_divisor;
            let consumer = scope.spawn(move || {
                let mut core = CoreModel::broadwell_scaled(divisor);
                let mut decoder = ChunkDecoder::new();
                // Stopping at an error drops the receiver, which lets the
                // recording run to its end.
                let decoded = std::iter::from_fn(|| rx.recv())
                    .try_for_each(|chunk| decoder.decode(&chunk, &mut core));
                (core, decoder, decoded)
            });
            let cap = self.capture(spec, Some(tx));
            // The sink is dropped even on a memo/store hit (the unused
            // closure owns it), so the consumer always drains and joins.
            match consumer.join() {
                Ok(fed) => (cap, fed),
                Err(p) => std::panic::resume_unwind(p),
            }
        });
        let cap = cap?;
        let (core, decoder, decoded) = fed;
        if decoder.chunks() > 0 || decoded.is_err() {
            // Our sink fed the recording, so the consumer's core has
            // simulated exactly this stream; it fails only on a recorder
            // bug.
            decoded?;
            decoder.finish(cap.stream.events())?;
            return Ok(run_from_parts(spec, &cap, core));
        }
        // The capture came from elsewhere (memory or store) and the
        // channel stayed empty; replay its stream serially.
        self.replay_capture(spec, cap, |cap| try_characterize_from_capture(spec, cap))
    }

    /// The CBP study's mid-run branch window for one encode
    /// configuration: a centered window of at most `window` instructions
    /// sliced out of the shared capture's event stream — no dedicated
    /// encode pass, and zero encodes when the stream is store-served.
    /// The replay stops at the chunk that completes the window.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn branch_window(
        &self,
        spec: &RunSpec,
        window: u64,
    ) -> Result<Arc<BranchWindow>, WorkbenchError> {
        let key = WindowKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
            window,
        };
        memo(&self.windows, &self.window_hits, &self.window_misses, key, || {
            self.through_store(KIND_WINDOW, &key.store_text(), || {
                let cap = self.capture(spec, None)?;
                self.replay_capture(spec, cap, |cap| {
                    let total = cap.mix.total();
                    let mut probe = BranchWindowProbe::mid_run(total, window.min(total));
                    // A stored stream's first replay reads it whole: that
                    // decode is its check. Otherwise the probe ignores
                    // every event past the window, so the replay stops
                    // after the chunk that completes it and reads no
                    // chunk beyond.
                    let whole = cap.is_unchecked();
                    cap.stream.try_replay_until(&mut probe, |p| !whole && p.is_complete())?;
                    let captured = probe.window_retired().max(1);
                    Ok(BranchWindow {
                        records: probe.into_records().into(),
                        instructions: captured,
                    })
                })
            })
        })
    }

    /// The decode-cost study's measurement for `spec`: instructions to
    /// encode the clip (the capture's mix total), and to decode the
    /// capture's bitstream.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis, the encode or
    /// the decode.
    pub fn encode_decode_cost(
        &self,
        spec: &RunSpec,
    ) -> Result<Arc<EncodeDecodeCost>, WorkbenchError> {
        let key = RunKey::of(spec);
        memo(&self.costs, &self.cost_hits, &self.cost_misses, key, || {
            self.through_store(KIND_COST, &format!("{}|cost", key.store_text()), || {
                let cap = self.capture(spec, None)?;
                let mut pd = CountingProbe::new();
                Decoder::new().decode(&cap.bitstream, &mut pd)?;
                Ok(EncodeDecodeCost {
                    encode_instructions: cap.mix.total(),
                    decode_instructions: pd.mix().total(),
                })
            })
        })
    }

    /// Computes every request of `plan` into the run, window and cost
    /// memos, one encode point at a time, so runners asking afterwards
    /// only hit memos.
    ///
    /// Requests are grouped by encode point (the capture they read) in
    /// first-use order, and the groups run on up to `threads` workers.
    /// A group runs its pipeline runs first — so a recording encode
    /// still overlaps the core model — then its counting runs, windows
    /// and costs, and then drops its capture from memory: a planned
    /// process holds at most one stream per worker instead of every
    /// stream it ever touched. A capture a later request still needs is
    /// reloaded from the store or re-encoded, so a plan must list every
    /// request of an encode point.
    ///
    /// # Errors
    ///
    /// Returns the first failing group's [`WorkbenchError`] (groups in
    /// first-use order); workers stop claiming groups once one fails.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run_plan(&self, threads: usize, plan: &[Request]) -> Result<(), WorkbenchError> {
        let mut groups: Vec<Vec<&Request>> = Vec::new();
        let mut group_of: HashMap<CaptureKey, usize> = HashMap::new();
        for request in plan {
            let g = *group_of.entry(CaptureKey::of(request.spec())).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(request);
        }
        for group in &mut groups {
            // Stable: pipeline runs first, the rest in plan order.
            group.sort_by_key(|r| !r.is_pipeline_run());
        }
        run_ordered(groups.len(), threads, |g| {
            let group = &groups[g];
            let filled = group.iter().try_for_each(|r| r.fill(self));
            self.evict_capture(&CaptureKey::of(group[0].spec()));
            filled
        })?;
        Ok(())
    }

    /// Drops the capture of `key` from the memo, counting it if one was
    /// held.
    fn evict_capture(&self, key: &CaptureKey) {
        let Some(slot) = lock_unpoisoned(&self.captures).remove(key) else { return };
        let held = lock_unpoisoned(&slot).is_some();
        if held {
            self.captures_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The default worker-pool size for batch executors and the serve
/// pipeline: every available core (1 when parallelism is undetectable).
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Characterizes every spec, in input order, on up to `threads` worker
/// threads, memoizing through `cache`.
///
/// Results are bit-identical to a serial `characterize` loop at any
/// thread count (each worker owns its probes and core model).
///
/// # Errors
///
/// Returns the first-by-index [`WorkbenchError`]; workers stop claiming
/// specs once one fails.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn run_all(
    cache: &RunCache,
    threads: usize,
    specs: &[RunSpec],
) -> Result<Vec<Arc<CharacterizationRun>>, WorkbenchError> {
    run_ordered(specs.len(), threads, |i| cache.run(&specs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::quick("cat", CodecId::X264, EncoderParams::new(30, 5))
    }

    #[test]
    fn run_cache_hits_skip_the_encode() {
        let cache = RunCache::new();
        let a = cache.run(&spec()).unwrap();
        let b = cache.run(&spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a hit must return the cached run");
        let s = cache.stats();
        assert_eq!((s.run_hits, s.run_misses), (1, 1));
        assert_eq!((s.clip_hits, s.clip_misses), (0, 1));
        assert_eq!((s.store_hits, s.store_misses), (0, 0), "no store attached");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = RunCache::new();
        let pipeline = cache.run(&spec()).unwrap();
        let counting = cache.run(&spec().counting_only()).unwrap();
        assert!(pipeline.core.instructions > 0);
        assert_eq!(counting.core.instructions, 0);
        let s = cache.stats();
        assert_eq!(s.run_misses, 2);
        // Both runs derive from one shared capture: a single encode.
        assert_eq!((s.capture_hits, s.capture_misses), (1, 1));
        assert_eq!(s.encodes, 1);
        assert_eq!(s.stream_captures, 1);
    }

    #[test]
    fn run_all_matches_serial_and_dedupes() {
        let specs = vec![spec(), spec().counting_only(), spec()];
        let cache = RunCache::new();
        let runs = run_all(&cache, 2, &specs).unwrap();
        assert_eq!(runs.len(), 3);
        let serial = crate::workbench::characterize(&specs[0]).unwrap();
        assert_eq!(runs[0].core.instructions, serial.core.instructions);
        assert_eq!(runs[0].total_bits, serial.total_bits);
        // Specs 0 and 2 share a key: at most 2 encodes happened.
        assert_eq!(cache.stats().run_misses, 2);
    }

    #[test]
    fn failed_computes_do_not_leak_map_entries() {
        let map: Mutex<HashMap<u32, Slot<u32>>> = Mutex::new(HashMap::new());
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let fail =
            || Err(WorkbenchError::Video(vstress_video::VideoError::UnknownClip("nope".into())));
        for _ in 0..3 {
            assert!(memo(&map, &hits, &misses, 7u32, fail).is_err());
            assert!(map.lock().unwrap().is_empty(), "error path must remove the slot");
        }
        assert_eq!(misses.load(Ordering::Relaxed), 3, "every retry recomputes");
        // After the failures, a success for the same key still lands.
        let v = memo(&map, &hits, &misses, 7u32, || Ok(42)).unwrap();
        assert_eq!(*v, 42);
        assert_eq!(map.lock().unwrap().len(), 1);
    }

    #[test]
    fn panicking_compute_does_not_poison_later_lookups() {
        let map: Mutex<HashMap<u32, Slot<u32>>> = Mutex::new(HashMap::new());
        let (hits, misses) = (AtomicU64::new(0), AtomicU64::new(0));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = memo(&map, &hits, &misses, 7u32, || panic!("boom"));
        }));
        assert!(panicked.is_err(), "the panic must propagate to the caller");
        // The slot mutex is now poisoned; a later lookup of the same key
        // must recover, recompute and succeed — not cascade the panic.
        let v = memo(&map, &hits, &misses, 7u32, || Ok(5)).unwrap();
        assert_eq!(*v, 5);
        // And a plain hit afterwards still works.
        let v = memo(&map, &hits, &misses, 7u32, || unreachable!("must hit")).unwrap();
        assert_eq!(*v, 5);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_plan_fills_every_memo_and_frees_each_capture() {
        let other = RunSpec::quick("cat", CodecId::X264, EncoderParams::new(45, 5));
        let plan = [
            Request::Run(spec().counting_only()),
            Request::Window(other.clone(), 10_000),
            Request::Run(spec()),
            Request::Cost(spec().counting_only()),
            Request::Run(other.clone()),
        ];
        let cache = RunCache::new();
        cache.run_plan(2, &plan).unwrap();
        let s = cache.stats();
        assert_eq!((s.encodes, s.captures_evicted), (2, 2));
        assert!(cache.captures.lock().unwrap().is_empty(), "the capture memo must end empty");
        assert_eq!((s.run_misses, s.window_misses, s.cost_misses), (3, 1, 1));
        // Planned results equal unplanned ones, and the runners' lookups hit.
        let fresh = RunCache::new();
        assert_eq!(*cache.run(&spec()).unwrap(), *fresh.run(&spec()).unwrap());
        cache.branch_window(&other, 10_000).unwrap();
        cache.encode_decode_cost(&spec().counting_only()).unwrap();
        assert_eq!(cache.stats().encodes, 2, "planned results are memo hits");
    }

    #[test]
    fn run_plan_returns_a_failing_requests_error() {
        let bad = RunSpec::quick("no-such-clip", CodecId::X264, EncoderParams::new(30, 5));
        let plan = [Request::Run(spec().counting_only()), Request::Cost(bad)];
        let cache = RunCache::new();
        let err = cache.run_plan(2, &plan).unwrap_err();
        assert!(
            matches!(&err, WorkbenchError::Video(vstress_video::VideoError::UnknownClip(c)) if c == "no-such-clip"),
            "{err}"
        );
        assert!(cache.captures.lock().unwrap().is_empty());
    }

    #[test]
    fn window_replay_stops_early_without_changing_the_window() {
        let spec = RunSpec::quick("cat", CodecId::SvtAv1, EncoderParams::new(35, 6));
        let cache = RunCache::new();
        let cap = cache.capture(&spec, None).unwrap();
        let chunks = cap.stream.chunks().len();
        assert!(chunks > 2, "{chunks} chunks: too few to stop early");
        let total = cap.mix.total();
        for window in [1_000, total / 3, total] {
            let mut full = BranchWindowProbe::mid_run(total, window.min(total));
            cap.stream.replay(&mut full);
            let early = cache.branch_window(&spec, window).unwrap();
            assert_eq!(early.instructions, full.window_retired().max(1), "window {window}");
            assert_eq!(&early.records[..], full.records(), "window {window}");
        }
    }

    #[test]
    fn encode_decode_cost_is_cached() {
        let cache = RunCache::new();
        let a = cache.encode_decode_cost(&spec()).unwrap();
        let b = cache.encode_decode_cost(&spec()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.encode_instructions > a.decode_instructions);
        let s = cache.stats();
        assert_eq!((s.cost_hits, s.cost_misses), (1, 1));
    }
}
