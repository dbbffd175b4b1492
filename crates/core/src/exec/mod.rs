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
//!   pipeline on/off), derived by feeding the capture's stream to a
//!   fresh core model. Figures that share quality points (Figs. 4–7
//!   slice one sweep; Fig. 1/2a/2b share encodes; Table 2 shares the
//!   CRF-63 encodes with Fig. 8) never recompute an encode.
//! * **clips** — synthesized vbench clips keyed by (name, fidelity).
//! * **branch windows** — the CBP study's mid-run traces, cut out of
//!   the capture's stream (keyed additionally by the window length), so
//!   a CBP matrix re-run against a warm store performs zero encodes.
//! * **encode/decode costs** — the decode-cost study's instruction
//!   pairs; the encode side reads the capture's mix, the decode side
//!   decodes the capture's bitstream.
//!
//! Every compute is one *pass* over an encode point: the stream
//! consumers it needs — a core model per pipeline run, a branch window
//! per window — are fed the same events together, by the recorder as the
//! recording encode makes them, on the encode's own thread, or in one
//! replay of a capture held in memory or loaded from the store.
//! [`RunCache::run_plan`] runs a whole batch of [`Request`]s as one
//! pass per encode point, for every request the memos and the store do
//! not already serve, and drops each capture when its group is done. A
//! planned recording packs no stream unless a store is attached, which
//! needs the stream entry written, so a cold planned process holds no
//! event stream and a store fill one per worker; the window is cut as
//! the events arrive. Without a plan, captures keep their streams and
//! live as long as the cache, so later requests replay them.
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
//! stay in the entry file as spans, read at each replay, and every
//! replay reads the whole stream, so the replay that serves its load is
//! its check. If a replay fails — a bad chunk, or an entry file cut
//! short since the load — the cache quarantines the `stream` entry,
//! drops the capture from memory and records the encode afresh, once;
//! the lookup counts as a store miss, as a quarantine at load would
//! have.
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
    capture_encode_into, run_from_parts, CapturedEncode, CharacterizationRun, RunSpec,
    WorkbenchError,
};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use store::{KIND_COST, KIND_RUN, KIND_STREAM, KIND_WINDOW};
use vstress_codecs::batch::run_ordered;
use vstress_codecs::{CodecId, Decoder, EncoderParams};
use vstress_pipeline::CoreModel;
use vstress_trace::{
    BranchRecord, BranchWindowProbe, ChunkDecoder, CountingProbe, Kernel, Probe, SharedBytes,
    StreamError, StreamRecorder,
};
use vstress_video::vbench::FidelityConfig;
use vstress_video::Clip;

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

    /// Stable key text for the persistent store's cost layer.
    fn cost_text(&self) -> String {
        format!("{}|cost", self.store_text())
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
    fn of(spec: &RunSpec, window: u64) -> Self {
        WindowKey {
            clip: spec.clip,
            codec: spec.codec,
            params: spec.params,
            fidelity: fidelity_key(&spec.fidelity),
            window,
        }
    }

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

/// A captured encode the cache holds, and where its stream came from.
struct Capture {
    encode: CapturedEncode,
    /// Loaded from the store: the stream's chunks are spans of the entry
    /// file, read at every replay. Only such a stream can fail to replay,
    /// at any replay, and its failure is the store's fault.
    stored: bool,
}

impl std::ops::Deref for Capture {
    type Target = CapturedEncode;

    fn deref(&self) -> &CapturedEncode {
        &self.encode
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

/// The value memoized under `key`, if there is one (once an in-flight
/// compute of it has ended).
fn held<K: Eq + Hash, V>(map: &Mutex<HashMap<K, Slot<V>>>, key: &K) -> Option<Arc<V>> {
    let slot = lock_unpoisoned(map).get(key).cloned()?;
    let value = lock_unpoisoned(&slot).clone();
    value
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

    /// Whether `other` asks for the very result this request does.
    fn same_result(&self, other: &Request) -> bool {
        match (self, other) {
            (Request::Run(a), Request::Run(b)) | (Request::Cost(a), Request::Cost(b)) => {
                RunKey::of(a) == RunKey::of(b)
            }
            (Request::Window(a, wa), Request::Window(b, wb)) => {
                WindowKey::of(a, *wa) == WindowKey::of(b, *wb)
            }
            _ => false,
        }
    }
}

/// The stream consumers of one pass over an encode point: a core model
/// per pipeline run (by its cache divisor) and a branch window per window
/// request (by its length), in request order. Counting runs and costs read
/// no stream.
#[derive(Debug, Default)]
struct Consumers {
    divisors: Vec<usize>,
    windows: Vec<u64>,
}

impl Consumers {
    fn of<'a>(requests: impl IntoIterator<Item = &'a Request>) -> Self {
        let mut consumers = Consumers::default();
        for request in requests {
            match request {
                Request::Run(spec) if spec.model_pipeline => {
                    consumers.divisors.push(spec.cache_divisor);
                }
                Request::Window(_, window) => consumers.windows.push(*window),
                Request::Run(_) | Request::Cost(_) => {}
            }
        }
        consumers
    }

    /// Fresh consumers for a recording encode to feed live: the windows
    /// are centred on every instruction they will have seen.
    fn fanout(&self) -> Fanout {
        Fanout {
            cores: self.divisors.iter().map(|&d| CoreModel::broadwell_scaled(d)).collect(),
            windows: self.windows.iter().map(|&w| BranchWindowProbe::centered(w)).collect(),
        }
    }

    /// Fresh consumers fed `cap`'s whole stream.
    fn replay(&self, cap: &CapturedEncode) -> Result<Fed, StreamError> {
        let total = cap.mix.total();
        let mut feeding = Feeding {
            cores: self
                .divisors
                .iter()
                .map(|&d| (CoreModel::broadwell_scaled(d), ChunkDecoder::new()))
                .collect(),
            windows: self
                .windows
                .iter()
                .map(|&w| (BranchWindowProbe::mid_run(total, w), ChunkDecoder::new()))
                .collect(),
        };
        for chunk in cap.stream.chunks() {
            feeding.feed(chunk)?;
        }
        feeding.finish(cap.stream.events())
    }
}

/// The consumers of a recording encode's pass, fed each canonical event
/// by the recorder as the encode makes it, on the encode's own thread.
struct Fanout {
    cores: Vec<CoreModel>,
    windows: Vec<BranchWindowProbe>,
}

impl Fanout {
    /// The consumers, fed the whole run.
    fn fed(self) -> Fed {
        Fed { cores: self.cores.into_iter(), windows: self.windows.into_iter() }
    }
}

// Always inlined into the recorder's `Probe` methods, which then call each
// consumer's handler directly.
impl Probe for Fanout {
    #[inline(always)]
    fn set_kernel(&mut self, k: Kernel) {
        self.cores.iter_mut().for_each(|c| c.set_kernel(k));
        self.windows.iter_mut().for_each(|w| w.set_kernel(k));
    }

    #[inline(always)]
    fn alu(&mut self, n: u64) {
        self.cores.iter_mut().for_each(|c| c.alu(n));
        self.windows.iter_mut().for_each(|w| w.alu(n));
    }

    #[inline(always)]
    fn avx(&mut self, n: u64) {
        self.cores.iter_mut().for_each(|c| c.avx(n));
        self.windows.iter_mut().for_each(|w| w.avx(n));
    }

    #[inline(always)]
    fn sse(&mut self, n: u64) {
        self.cores.iter_mut().for_each(|c| c.sse(n));
        self.windows.iter_mut().for_each(|w| w.sse(n));
    }

    #[inline(always)]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.cores.iter_mut().for_each(|c| c.load(addr, bytes));
        self.windows.iter_mut().for_each(|w| w.load(addr, bytes));
    }

    #[inline(always)]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.cores.iter_mut().for_each(|c| c.store(addr, bytes));
        self.windows.iter_mut().for_each(|w| w.store(addr, bytes));
    }

    #[inline(always)]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.cores.iter_mut().for_each(|c| c.branch(pc, taken));
        self.windows.iter_mut().for_each(|w| w.branch(pc, taken));
    }

    /// Live while it has a consumer: with none, the recorder need not
    /// rename addresses for it.
    fn is_live(&self) -> bool {
        !(self.cores.is_empty() && self.windows.is_empty())
    }
}

/// The consumers of a pass while a held or stored stream is replayed into
/// them. Each decodes every chunk in a decode loop of its own: one loop
/// fanning each event out to them all runs the core model, most of a
/// pass's time, measurably slower than the model's own loop. A core model
/// reads the whole stream, which checks it, so beside one a window stops
/// reading once complete.
struct Feeding {
    cores: Vec<(CoreModel, ChunkDecoder)>,
    windows: Vec<(BranchWindowProbe, ChunkDecoder)>,
}

impl Feeding {
    fn feed(&mut self, chunk: &SharedBytes) -> Result<(), StreamError> {
        for (core, decoder) in &mut self.cores {
            decoder.decode(chunk, core)?;
        }
        let checked = !self.cores.is_empty();
        for (window, decoder) in &mut self.windows {
            if !(checked && window.is_complete()) {
                decoder.decode(chunk, window)?;
            }
        }
        Ok(())
    }

    /// The consumers, once the stream has been checked to hold `events`
    /// events: by every core model's decoder, or with none, by every
    /// window's.
    fn finish(self, events: u64) -> Result<Fed, StreamError> {
        let checked = !self.cores.is_empty();
        let cores: Vec<CoreModel> = self
            .cores
            .into_iter()
            .map(|(core, decoder)| decoder.finish(events).map(|()| core))
            .collect::<Result<_, _>>()?;
        let mut windows = Vec::with_capacity(self.windows.len());
        for (window, decoder) in self.windows {
            if !checked {
                decoder.finish(events)?;
            }
            windows.push(window);
        }
        Ok(Fed { cores: cores.into_iter(), windows: windows.into_iter() })
    }
}

/// The consumers of a pass, fed its whole stream, handed out in request
/// order.
struct Fed {
    cores: std::vec::IntoIter<CoreModel>,
    windows: std::vec::IntoIter<BranchWindowProbe>,
}

impl Fed {
    /// The run of `spec` from its capture `cap`: a pipeline run takes the
    /// next core model, a counting run an untouched one.
    fn run(&mut self, spec: &RunSpec, cap: &CapturedEncode) -> CharacterizationRun {
        let fed = if spec.model_pipeline { self.cores.next() } else { None };
        run_from_parts(
            spec,
            cap,
            fed.unwrap_or_else(|| CoreModel::broadwell_scaled(spec.cache_divisor)),
        )
    }

    /// The next window.
    fn window(&mut self) -> BranchWindow {
        let probe = self.windows.next().expect("a window probe per window request");
        BranchWindow {
            instructions: probe.window_retired().max(1),
            records: probe.into_records().into(),
        }
    }
}

/// The decode-cost study's measurement of `cap`: its mix total, and the
/// instructions decoding its bitstream retires.
fn cost_of(cap: &CapturedEncode) -> Result<EncodeDecodeCost, WorkbenchError> {
    let mut decode = CountingProbe::new();
    Decoder::new().decode(&cap.bitstream, &mut decode)?;
    Ok(EncodeDecodeCost {
        encode_instructions: cap.mix.total(),
        decode_instructions: decode.mix().total(),
    })
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

    /// One pass over `spec`'s encode point: its capture (for the mix,
    /// profile and bitstream) and `consumers` fed the whole stream.
    ///
    /// A capture the memo holds, or one loaded from the store, is replayed
    /// into the consumers. Otherwise the encode is recorded, and its
    /// recorder feeds them each event as the encode makes it. When
    /// `memoize`, a capture this makes goes into the memo, for later
    /// requests to replay; otherwise it is the caller's alone.
    ///
    /// When a stored stream fails to replay — a bad chunk, or one its entry
    /// file can no longer supply — its entry is quarantined, the capture is
    /// dropped from the memo and the encode is recorded afresh, once; any
    /// other replay failure is an error.
    fn pass(
        &self,
        spec: &RunSpec,
        consumers: &Consumers,
        memoize: bool,
    ) -> Result<(Arc<Capture>, Fed), WorkbenchError> {
        let key = CaptureKey::of(spec);
        let (cap, fed) =
            self.obtain(key, memoize, || self.load_or_record(spec, consumers, memoize))?;
        let why = match fed.map_or_else(|| consumers.replay(&cap), Ok) {
            Ok(fed) => return Ok((cap, fed)),
            Err(why) if cap.stored => why,
            Err(why) => return Err(why.into()),
        };
        self.reject_capture(&key, &cap, &why);
        drop(cap);
        let (cap, fed) = self.obtain(key, memoize, || self.record(spec, consumers, memoize))?;
        // Unless a racing request recorded it first: a recording replays.
        let fed = fed.map_or_else(|| consumers.replay(&cap), Ok)?;
        Ok((cap, fed))
    }

    /// The capture of `key`: the memo's, or else what `make` makes, which
    /// goes into the memo when `memoize` and is the caller's alone
    /// otherwise. Also returns the consumers `make` fed, if it ran.
    fn obtain(
        &self,
        key: CaptureKey,
        memoize: bool,
        make: impl FnOnce() -> Result<(Capture, Fed), WorkbenchError>,
    ) -> Result<(Arc<Capture>, Option<Fed>), WorkbenchError> {
        let mut fed = None;
        let made = || {
            let (cap, consumers) = make()?;
            fed = Some(consumers);
            Ok(cap)
        };
        let cap = if memoize {
            memo(&self.captures, &self.capture_hits, &self.capture_misses, key, made)?
        } else if let Some(cap) = held(&self.captures, &key) {
            self.capture_hits.fetch_add(1, Ordering::Relaxed);
            cap
        } else {
            self.capture_misses.fetch_add(1, Ordering::Relaxed);
            Arc::new(made()?)
        };
        Ok((cap, fed))
    }

    /// Loads `spec`'s capture from the store and replays it into
    /// `consumers`, the check of its stream; or, when the store holds none
    /// that replays, records it.
    fn load_or_record(
        &self,
        spec: &RunSpec,
        consumers: &Consumers,
        memoize: bool,
    ) -> Result<(Capture, Fed), WorkbenchError> {
        if let Some(store) = &self.store {
            let key_text = CaptureKey::of(spec).store_text();
            if let Some(encode) = store.get::<CapturedEncode>(KIND_STREAM, &key_text) {
                match consumers.replay(&encode) {
                    Ok(fed) => return Ok((Capture { encode, stored: true }, fed)),
                    Err(why) => store.reject(KIND_STREAM, &key_text, &why),
                }
            }
        }
        self.record(spec, consumers, memoize)
    }

    /// Performs the recording encode of `spec`'s point, its recorder
    /// feeding `consumers` each canonical event as the encode makes it, and
    /// writes the capture to the store. The recorder packs the stream only
    /// for a later reader: the store's entry, or, when `memoize`, later
    /// replays of the memoized capture.
    fn record(
        &self,
        spec: &RunSpec,
        consumers: &Consumers,
        memoize: bool,
    ) -> Result<(Capture, Fed), WorkbenchError> {
        let clip = self.clip(spec.clip, &spec.fidelity)?;
        self.encodes.fetch_add(1, Ordering::Relaxed);
        self.stream_captures.fetch_add(1, Ordering::Relaxed);
        let keep = memoize || self.store.is_some();
        let mut fanout = consumers.fanout();
        let encode = capture_encode_into(spec, &clip, StreamRecorder::feeding(&mut fanout, keep))?;
        if let Some(store) = &self.store {
            store.put(KIND_STREAM, &CaptureKey::of(spec).store_text(), &encode);
        }
        Ok((Capture { encode, stored: false }, fanout.fed()))
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
    /// the run or its stream. A pipeline run feeds the core model the
    /// capture's events as the encode records them, or replays them.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn run(&self, spec: &RunSpec) -> Result<Arc<CharacterizationRun>, WorkbenchError> {
        let key = RunKey::of(spec);
        memo(&self.runs, &self.run_hits, &self.run_misses, key, || {
            self.through_store(KIND_RUN, &key.store_text(), || {
                let consumers = Consumers::of([&Request::Run(spec.clone())]);
                let (cap, mut fed) = self.pass(spec, &consumers, true)?;
                Ok(fed.run(spec, &cap))
            })
        })
    }

    /// The CBP study's mid-run branch window for one encode
    /// configuration: a centered window of at most `window` instructions
    /// cut out of the shared capture's event stream — no dedicated
    /// encode pass, and zero encodes when the stream is store-served.
    ///
    /// # Errors
    ///
    /// Propagates [`WorkbenchError`] from clip synthesis or the encode.
    pub fn branch_window(
        &self,
        spec: &RunSpec,
        window: u64,
    ) -> Result<Arc<BranchWindow>, WorkbenchError> {
        let key = WindowKey::of(spec, window);
        memo(&self.windows, &self.window_hits, &self.window_misses, key, || {
            self.through_store(KIND_WINDOW, &key.store_text(), || {
                let consumers = Consumers { windows: vec![window], ..Consumers::default() };
                let (_, mut fed) = self.pass(spec, &consumers, true)?;
                Ok(fed.window())
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
            self.through_store(KIND_COST, &key.cost_text(), || {
                let (cap, _) = self.pass(spec, &Consumers::default(), true)?;
                cost_of(&cap)
            })
        })
    }

    /// Computes every request of `plan` into the run, window and cost
    /// memos (and the store), so runners asking afterwards only hit
    /// memos.
    ///
    /// Requests are grouped by encode point (the capture they read) in
    /// first-use order, and the groups run on up to `threads` workers.
    /// A group skips the requests the memos or the store already serve
    /// and computes the rest in one pass over its encode point: the core
    /// model of every pipeline run and the branch window of every window
    /// request are fed the same events, as the encode records them, or in
    /// one replay of a stream held in memory or loaded from the store;
    /// counting runs and costs read the capture's mix, profile and
    /// bitstream. A recording packs no stream unless a store is attached,
    /// which needs the stream entry written, and the group drops its
    /// capture when it is done: a cold planned process holds no event
    /// stream, and a store fill one per worker. Each worker runs its
    /// encode and that encode's simulation on its own thread. A
    /// capture a later request still needs is reloaded from the store or
    /// re-encoded, so a plan must list every request of an encode point.
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
        run_ordered(groups.len(), threads, |g| self.fill_group(&groups[g]))?;
        Ok(())
    }

    /// Computes the requests of one encode point's `group` that neither
    /// the memos nor the store serve, in one pass, into the memos and the
    /// store, and drops the capture.
    fn fill_group(&self, group: &[&Request]) -> Result<(), WorkbenchError> {
        let mut needed: Vec<&Request> = Vec::new();
        for &request in group {
            if !needed.iter().any(|n| n.same_result(request)) && !self.served(request) {
                needed.push(request);
            }
        }
        let Some(first) = needed.first() else { return Ok(()) };
        let spec = first.spec();
        let passed = self.pass(spec, &Consumers::of(needed.iter().copied()), false);
        // The pass replayed any capture the memo held; drop it too.
        lock_unpoisoned(&self.captures).remove(&CaptureKey::of(spec));
        let (cap, mut fed) = passed?;
        for request in needed {
            match request {
                Request::Run(spec) => {
                    let key = RunKey::of(spec);
                    let run = fed.run(spec, &cap);
                    self.write_back(KIND_RUN, &key.store_text(), &run);
                    memo(&self.runs, &self.run_hits, &self.run_misses, key, || Ok(run))?;
                }
                Request::Window(spec, window) => {
                    let key = WindowKey::of(spec, *window);
                    let window = fed.window();
                    self.write_back(KIND_WINDOW, &key.store_text(), &window);
                    memo(&self.windows, &self.window_hits, &self.window_misses, key, || {
                        Ok(window)
                    })?;
                }
                Request::Cost(spec) => {
                    let key = RunKey::of(spec);
                    let cost = cost_of(&cap)?;
                    self.write_back(KIND_COST, &key.cost_text(), &cost);
                    memo(&self.costs, &self.cost_hits, &self.cost_misses, key, || Ok(cost))?;
                }
            }
        }
        self.captures_evicted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether the memos hold `request`'s result, or the store does — in
    /// which case this loads it into its memo.
    fn served(&self, request: &Request) -> bool {
        match request {
            Request::Run(spec) => {
                let key = RunKey::of(spec);
                let text = key.store_text();
                self.served_by(&self.runs, &self.run_hits, &self.run_misses, key, KIND_RUN, &text)
            }
            Request::Window(spec, window) => {
                let key = WindowKey::of(spec, *window);
                let text = key.store_text();
                let (hits, misses) = (&self.window_hits, &self.window_misses);
                self.served_by(&self.windows, hits, misses, key, KIND_WINDOW, &text)
            }
            Request::Cost(spec) => {
                let key = RunKey::of(spec);
                let text = key.cost_text();
                self.served_by(
                    &self.costs,
                    &self.cost_hits,
                    &self.cost_misses,
                    key,
                    KIND_COST,
                    &text,
                )
            }
        }
    }

    /// [`RunCache::served`] for one memo layer and its store kind.
    fn served_by<K: Eq + Hash + Clone, V: for<'de> serde::Deserialize<'de>>(
        &self,
        map: &Mutex<HashMap<K, Slot<V>>>,
        hits: &AtomicU64,
        misses: &AtomicU64,
        key: K,
        kind: &str,
        key_text: &str,
    ) -> bool {
        if held(map, &key).is_some() {
            hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        match self.store.as_ref().and_then(|s| s.get::<V>(kind, key_text)) {
            Some(v) => memo(map, hits, misses, key, || Ok(v)).is_ok(),
            None => false,
        }
    }

    /// Writes a computed result to the store, if one is attached.
    fn write_back<V: serde::Serialize>(&self, kind: &str, key_text: &str, v: &V) {
        if let Some(store) = &self.store {
            store.put(kind, key_text, v);
        }
    }
}

/// The default worker-pool size for batch executors: every available
/// core (1 when parallelism is undetectable).
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
    fn a_window_cut_live_or_from_a_replay_equals_a_full_replay_window() {
        let spec = RunSpec::quick("cat", CodecId::SvtAv1, EncoderParams::new(35, 6));
        let cap = crate::workbench::capture_encode(&spec).unwrap();
        let total = cap.mix.total();
        // A cache whose memo holds the capture replays it; a fresh one
        // cuts the window from the recording as it arrives.
        let warm = RunCache::new();
        warm.run(&spec.clone().counting_only()).unwrap();
        for window in [1_000, 40_001, total / 3, total, total + 1] {
            let mut full = BranchWindowProbe::mid_run(total, window);
            cap.stream.replay(&mut full);
            let full = BranchWindow {
                records: full.records().into(),
                instructions: full.window_retired().max(1),
            };
            let live = RunCache::new().branch_window(&spec, window).unwrap();
            assert_eq!(*live, full, "window {window}, cut live");
            assert_eq!(*warm.branch_window(&spec, window).unwrap(), full, "window {window}");
        }
        assert_eq!(warm.stats().encodes, 1, "the warm windows are replays");
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
