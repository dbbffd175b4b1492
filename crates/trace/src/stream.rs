//! Capture-once / simulate-many event streams.
//!
//! [`crate::event::EventBatch`] records short probe bursts (a plan
//! unit's worth) as materialized `ProbeEvent`s; that representation costs 16
//! bytes per event, which is untenable for a full encode (tens of
//! millions of events per clip). [`EventStream`] is the full-run form:
//! the identical event sequence packed into chunked byte buffers at
//! ~1–3 bytes per event, with data addresses already canonicalized
//! (first-touch page renaming, see [`CanonicalizingProbe`]), so one
//! *recording* encode — driven against
//! a [`StreamRecorder`] instead of a live simulator — can later feed any
//! number of simulations via [`EventStream::replay`].
//!
//! # Wire format (version [`STREAM_FORMAT_VERSION`])
//!
//! Each chunk is a self-contained byte string. Every event starts with
//! one opcode byte: the low 3 bits select the operation, the high 5 bits
//! carry a small inline payload; larger payloads follow as LEB128
//! varints. Memory addresses and branch PCs are delta-encoded (zigzag
//! varints) against the previous address / PC *within the chunk*; both
//! baselines reset to zero at a chunk boundary, so chunks can be decoded
//! independently, one at a time.
//!
//! | op | meaning    | inline arg (5 bits)           | trailing varints |
//! |----|------------|-------------------------------|------------------|
//! | 0  | set_kernel | kernel index in [`Kernel::ALL`] | —              |
//! | 1  | alu        | `n` if < 31, else 31          | `n` (if escaped) |
//! | 2  | avx        | `n` if < 31, else 31          | `n` (if escaped) |
//! | 3  | sse        | `n` if < 31, else 31          | `n` (if escaped) |
//! | 4  | load       | `log2(bytes)+1` or 0          | `bytes` (if 0), zigzag addr delta |
//! | 5  | store      | `log2(bytes)+1` or 0          | `bytes` (if 0), zigzag addr delta |
//! | 6  | branch     | taken flag                    | zigzag PC delta  |
//!
//! Decoding is total: [`decode_chunk`] returns a [`MalformedChunk`]
//! error for a byte the table gives no meaning (opcode 7, a
//! `set_kernel` index past [`Kernel::ALL`]) and for a varint that is cut
//! short or runs past ten bytes, and [`EventStream::try_replay`] checks
//! at the end that the chunks held the recorded event count.
//!
//! A persisted stream (its serde form) is the format version, the event
//! count and one byte-string token per chunk. Loading it checks only
//! that framing: the chunks are not decoded until a replay, whose own
//! decode is the check, so a stream costs one decode, not a validation
//! pass and then a decode. Loaded from a [`serde::SparseInput`] (the
//! store's entry file), each chunk is an `(offset, len)` span of the
//! still-open file ([`SharedBytes`]), not a copy: a replay reads one
//! chunk at a time into one buffer it reuses ([`ChunkDecoder`]), so a
//! loaded stream costs memory for one chunk per replay, not for the
//! stream. A chunk the file can no longer supply fails the replay with
//! [`StreamError::Read`].
//!
//! # Replay contract
//!
//! Replaying a stream into any [`Probe`] dispatches the recorded events
//! in order with their original arguments, with exactly one observable
//! normalization: a `set_kernel` redeclaring the *current* kernel is
//! dropped at capture time. Every shipped probe treats a redundant
//! kernel declaration as a no-op (it is not a retired instruction and
//! `set_kernel` state is a pure function of its argument), so this is
//! invisible — the equivalence oracles in `tests/stream_equivalence.rs`
//! pin it down to f64 bit level against the fused live path.

use crate::kernel::Kernel;
use crate::probe::{CountingProbe, NullProbe, Probe};
pub use serde::SharedBytes;

/// Bump when the packed chunk encoding changes. Persisted streams embed
/// this version; a mismatch on load is a hard deserialization error (the
/// store quarantines the entry and recaptures).
pub const STREAM_FORMAT_VERSION: u32 = 1;

/// Flush threshold for completed chunks (bytes). Chunks are cut at event
/// boundaries, so actual chunks run slightly past this.
const CHUNK_TARGET: usize = 1 << 20;

const OP_SET_KERNEL: u8 = 0;
const OP_ALU: u8 = 1;
const OP_AVX: u8 = 2;
const OP_SSE: u8 = 3;
const OP_LOAD: u8 = 4;
const OP_STORE: u8 = 5;
const OP_BRANCH: u8 = 6;

/// Inline-arg escape value for compute events.
const COMPUTE_ESCAPE: u64 = 31;

#[inline]
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The longest LEB128 encoding of a `u64`.
pub(crate) const MAX_VARINT_BYTES: u32 = 10;

/// Reads one LEB128 varint, advancing the cursor slice past it. Slice
/// patterns keep the loop free of index bounds checks. Always inlined:
/// it runs on most events of every decode loop.
#[inline(always)]
pub(crate) fn read_varint(rest: &mut &[u8]) -> Result<u64, MalformedChunk> {
    let mut v = 0u64;
    let mut shift = 0u32;
    while let [b, tail @ ..] = *rest {
        *rest = tail;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift == 7 * MAX_VARINT_BYTES {
            return Err(MalformedChunk::LongVarint);
        }
    }
    Err(MalformedChunk::TruncatedVarint)
}

#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// `log2(bytes) + 1` for the power-of-two widths the probes emit
/// (1..=64), or 0 to signal an escaped explicit width.
#[inline]
fn width_code(bytes: u32) -> u8 {
    if bytes.is_power_of_two() && bytes <= 64 {
        bytes.trailing_zeros() as u8 + 1
    } else {
        0
    }
}

/// First-touch page canonicalization of data addresses.
///
/// The probes report live host addresses, whose *page bases* depend on
/// allocator state and ASLR — realistic, but it makes cache statistics
/// jitter between processes. Remapping each 4 KiB page to a sequential
/// canonical page in first-touch order preserves all intra-page locality
/// and stride structure while making inter-buffer placement a pure
/// function of the (deterministic) access sequence.
///
/// Canonicalization is **idempotent across instances**: canonical pages
/// are handed out sequentially from a fixed base, so feeding an
/// already-canonical stream through a fresh canonicalizer maps every
/// address to itself. That is what lets [`StreamRecorder`] canonicalize
/// at capture time and a consumer driven live through a
/// [`CanonicalizingProbe`] see exactly the addresses a replay delivers.
#[derive(Debug)]
struct AddressCanonicalizer {
    /// Open-addressed (page -> canonical page) table; power-of-two size.
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    next_page: u64,
    /// One-entry lookup cache: probe streams touch the same page in long
    /// runs, so most lookups short-circuit here. Pure memoization — the
    /// mapping is unaffected.
    last_page: u64,
    last_canonical: u64,
}

const PAGE_BITS: u32 = 12;
const EMPTY: u64 = u64::MAX;

impl AddressCanonicalizer {
    /// An empty mapping; the first page touched becomes the base page.
    fn new() -> Self {
        AddressCanonicalizer {
            keys: vec![EMPTY; 1 << 12],
            vals: vec![0; 1 << 12],
            len: 0,
            // Start canonical data pages well away from the synthetic
            // code regions.
            next_page: 0x0000_2000_0000_0000 >> PAGE_BITS,
            last_page: EMPTY,
            last_canonical: 0,
        }
    }

    /// Maps `addr` to its canonical address, assigning the next
    /// sequential canonical page on first touch.
    #[inline]
    fn canon(&mut self, addr: u64) -> u64 {
        let page = addr >> PAGE_BITS;
        if page == self.last_page {
            return (self.last_canonical << PAGE_BITS) | (addr & ((1 << PAGE_BITS) - 1));
        }
        self.canon_slow(addr, page)
    }

    fn canon_slow(&mut self, addr: u64, page: u64) -> u64 {
        let mask = self.keys.len() as u64 - 1;
        let mut i = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40 & mask) as usize;
        loop {
            let k = self.keys[i];
            if k == page {
                self.last_page = page;
                self.last_canonical = self.vals[i];
                return (self.vals[i] << PAGE_BITS) | (addr & ((1 << PAGE_BITS) - 1));
            }
            if k == EMPTY {
                let canonical = self.next_page;
                self.next_page += 1;
                self.keys[i] = page;
                self.vals[i] = canonical;
                self.len += 1;
                if self.len * 2 > self.keys.len() {
                    self.grow();
                }
                self.last_page = page;
                self.last_canonical = canonical;
                return (canonical << PAGE_BITS) | (addr & ((1 << PAGE_BITS) - 1));
            }
            i = (i + 1) & mask as usize;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        let new_cap = old_keys.len() * 2;
        self.keys = vec![EMPTY; new_cap];
        self.vals = vec![0; new_cap];
        let mask = new_cap as u64 - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut i = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40 & mask) as usize;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask as usize;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

/// A full-run probe event sequence in packed chunked form.
///
/// Produced by [`StreamRecorder::finish`]; consumed by
/// [`EventStream::try_replay`] (all chunks, in order, into one probe) or
/// chunk-by-chunk via a [`ChunkDecoder`]. Chunks are [`SharedBytes`] so
/// a stream can be fanned out to concurrent consumers without copying: a
/// recorded chunk owns its buffer in memory, a loaded one is a span of
/// the file it was loaded from, read when a replay reaches it. Equality
/// compares the chunks' bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct EventStream {
    chunks: Vec<SharedBytes>,
    events: u64,
}

/// Why a packed chunk cannot be decoded: it holds a byte sequence no
/// recorder writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedChunk {
    /// A varint runs past the end of the chunk.
    TruncatedVarint,
    /// A varint runs past ten bytes, the longest `u64` encoding.
    LongVarint,
    /// An opcode byte carries operation 7, which names no event.
    Opcode7,
    /// A `set_kernel` index lies past [`Kernel::ALL`].
    KernelIndex,
}

impl std::fmt::Display for MalformedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MalformedChunk::TruncatedVarint => "truncated varint",
            MalformedChunk::LongVarint => "varint longer than ten bytes",
            MalformedChunk::Opcode7 => "opcode 7 starts no event",
            MalformedChunk::KernelIndex => "set_kernel index past the kernel table",
        })
    }
}

impl std::error::Error for MalformedChunk {}

/// Why an [`EventStream`] failed to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// Chunk `chunk` (0-based) cannot be decoded.
    Malformed {
        /// Index of the chunk.
        chunk: usize,
        /// What is wrong with it.
        cause: MalformedChunk,
    },
    /// The chunks decoded to a different number of events than the
    /// stream records.
    EventCount {
        /// Events the chunks held.
        counted: u64,
        /// Events the stream records.
        events: u64,
    },
    /// Chunk `chunk` (0-based), a span of a file, could not be read: the
    /// file failed or was cut short after the stream was loaded.
    Read {
        /// Index of the chunk.
        chunk: usize,
        /// The read's error.
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Malformed { chunk, cause } => {
                write!(f, "event stream chunk {chunk}: {cause}")
            }
            StreamError::EventCount { counted, events } => {
                write!(f, "event stream chunks hold {counted} events, header says {events}")
            }
            StreamError::Read { chunk, kind } => {
                write!(f, "event stream chunk {chunk}: read failed: {kind}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream")
            .field("events", &self.events)
            .field("chunks", &self.chunks.len())
            .field("packed_bytes", &self.packed_bytes())
            .finish()
    }
}

impl EventStream {
    /// Number of packed events (after redundant-`set_kernel` dropping).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The packed chunks in stream order.
    pub fn chunks(&self) -> &[SharedBytes] {
        &self.chunks
    }

    /// Total packed size in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Re-emits every recorded event, in order, into `probe`, and then
    /// checks that the chunks held the recorded event count.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Malformed`] at the first chunk that cannot
    /// be decoded and [`StreamError::Read`] at the first that cannot be
    /// read (the events before it have reached `probe`), and
    /// [`StreamError::EventCount`] when the count differs. A recorded
    /// stream never fails; a loaded one fails when its stored bytes are
    /// damaged in a way the store's checksum did not catch, or its file is
    /// cut short after the load.
    pub fn try_replay<P: Probe>(&self, probe: &mut P) -> Result<(), StreamError> {
        let mut decoder = ChunkDecoder::new();
        for chunk in &self.chunks {
            decoder.decode(chunk, probe)?;
        }
        decoder.finish(self.events)
    }

    /// [`EventStream::try_replay`] for a stream known to be well formed,
    /// such as one recorded in this process.
    ///
    /// # Panics
    ///
    /// Panics with the [`StreamError`] if the replay fails.
    pub fn replay<P: Probe>(&self, probe: &mut P) {
        if let Err(e) = self.try_replay(probe) {
            panic!("{e}");
        }
    }
}

/// Decodes the chunks of one stream, in order, into a probe: the step
/// every replay is made of, one [`EventStream`] chunk at a time, whether
/// the stream is recorded or loaded. A chunk that is a span of a
/// file is read into one buffer the decoder keeps and reuses, so decoding
/// a loaded stream holds one chunk in memory at a time.
#[derive(Debug, Default)]
pub struct ChunkDecoder {
    buf: Vec<u8>,
    chunks: usize,
    events: u64,
}

impl ChunkDecoder {
    /// A decoder at the first chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads and decodes the next chunk into `probe`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Read`] if the chunk cannot be read and
    /// [`StreamError::Malformed`] if it cannot be decoded (the events
    /// before the bad byte have reached `probe`).
    pub fn decode<P: Probe>(
        &mut self,
        chunk: &SharedBytes,
        probe: &mut P,
    ) -> Result<(), StreamError> {
        let index = self.chunks;
        let bytes = chunk
            .read(&mut self.buf)
            .map_err(|e| StreamError::Read { chunk: index, kind: e.kind() })?;
        self.events += decode_chunk(bytes, probe)
            .map_err(|cause| StreamError::Malformed { chunk: index, cause })?;
        self.chunks += 1;
        Ok(())
    }

    /// Chunks decoded so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Checks that the chunks decoded so far held `events` events.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::EventCount`] when they held another number.
    pub fn finish(self, events: u64) -> Result<(), StreamError> {
        if self.events == events {
            Ok(())
        } else {
            Err(StreamError::EventCount { counted: self.events, events })
        }
    }
}

/// Decodes one packed chunk, dispatching each event into `probe`, and
/// returns the number of events it held.
///
/// Address and PC deltas are chunk-local, so any chunk of a stream can
/// be decoded on its own; replaying a whole stream is a [`ChunkDecoder`]
/// over its chunks in order.
///
/// # Errors
///
/// Returns [`MalformedChunk`] at the first byte sequence no recorder
/// writes; the events before it have reached `probe`.
pub fn decode_chunk<P: Probe>(bytes: &[u8], probe: &mut P) -> Result<u64, MalformedChunk> {
    let mut rest = bytes;
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    let mut events = 0u64;
    // A slice-pattern cursor: each step peels the opcode byte and varint
    // payloads off the front, so the loop carries no index arithmetic or
    // per-byte bounds checks.
    while let [b, tail @ ..] = rest {
        let b = *b;
        rest = tail;
        events += 1;
        let arg = u64::from(b >> 3);
        match b & 0x7 {
            OP_ALU => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest)? } else { arg };
                probe.alu(n);
            }
            OP_LOAD => {
                let width =
                    if arg == 0 { read_varint(&mut rest)? as u32 } else { 1u32 << (arg - 1) };
                let addr =
                    (prev_addr as i64).wrapping_add(unzigzag(read_varint(&mut rest)?)) as u64;
                prev_addr = addr;
                probe.load(addr, width);
            }
            OP_STORE => {
                let width =
                    if arg == 0 { read_varint(&mut rest)? as u32 } else { 1u32 << (arg - 1) };
                let addr =
                    (prev_addr as i64).wrapping_add(unzigzag(read_varint(&mut rest)?)) as u64;
                prev_addr = addr;
                probe.store(addr, width);
            }
            OP_BRANCH => {
                let pc = (prev_pc as i64).wrapping_add(unzigzag(read_varint(&mut rest)?)) as u64;
                prev_pc = pc;
                probe.branch(pc, arg & 1 == 1);
            }
            OP_AVX => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest)? } else { arg };
                probe.avx(n);
            }
            OP_SSE => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest)? } else { arg };
                probe.sse(n);
            }
            OP_SET_KERNEL => {
                let kernel = Kernel::ALL.get(arg as usize).ok_or(MalformedChunk::KernelIndex)?;
                probe.set_kernel(*kernel);
            }
            _ => return Err(MalformedChunk::Opcode7),
        }
    }
    Ok(events)
}

/// A live probe that records an encode: it counts the run, packs its
/// canonical event sequence into an [`EventStream`] when the stream has a
/// later reader, and feeds that sequence to a consumer as the encode makes
/// it.
///
/// The recorder embeds a [`CountingProbe`] fed the *unmodified* event
/// sequence — the instruction mix and hot-kernel profile it yields are
/// exactly what a plain counting encode would have produced. Every other
/// reader gets the sequence a replay delivers, data addresses renamed by
/// the recorder's one canonicalizer and redundant `set_kernel`s dropped:
/// the packed chunks, when the recorder keeps them, and the consumer, when
/// it is live ([`Probe::is_live`]). So a consumer fed live ends exactly
/// as one fed a replay of the stream. A recorder that keeps no chunks
/// packs nothing, and without a live consumer it renames nothing either:
/// it only counts. It reports [`Probe::is_live`] so encoders take their
/// fully-instrumented paths.
#[derive(Debug)]
pub struct StreamRecorder<P = NullProbe> {
    counting: CountingProbe,
    consumer: P,
    /// Pack the stream into `chunks`.
    keep: bool,
    /// Feed `consumer`: it is live.
    feed: bool,
    canon: AddressCanonicalizer,
    chunk: Vec<u8>,
    chunks: Vec<SharedBytes>,
    chunk_target: usize,
    prev_addr: u64,
    prev_pc: u64,
    last_kernel: Option<Kernel>,
    events: u64,
}

impl Default for StreamRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamRecorder {
    /// A recorder packing the stream in memory, feeding no consumer.
    pub fn new() -> Self {
        Self::feeding(NullProbe, true)
    }
}

impl<P: Probe> StreamRecorder<P> {
    /// A recorder feeding `consumer` the canonical sequence as the encode
    /// makes it, and packing the stream only when `keep`. One that keeps
    /// no stream returns from [`StreamRecorder::finish`] a stream with the
    /// run's event count and no chunks, whose replay fails with
    /// [`StreamError::EventCount`]: the consumer is the events' only
    /// reader.
    pub fn feeding(consumer: P, keep: bool) -> Self {
        StreamRecorder {
            counting: CountingProbe::new(),
            feed: consumer.is_live(),
            consumer,
            keep,
            canon: AddressCanonicalizer::new(),
            chunk: if keep { Vec::with_capacity(CHUNK_TARGET + 64) } else { Vec::new() },
            chunks: Vec::new(),
            chunk_target: CHUNK_TARGET,
            prev_addr: 0,
            prev_pc: 0,
            last_kernel: None,
            events: 0,
        }
    }

    /// Overrides the chunk flush threshold (bytes). Testing and tuning
    /// knob; the default is 1 MiB.
    pub fn with_chunk_target(mut self, bytes: usize) -> Self {
        self.chunk_target = bytes.max(1);
        self
    }

    /// Finalizes the stream: flushes the partial chunk and returns the
    /// packed stream (without chunks, if it keeps none) plus the counting
    /// summary of the full run.
    pub fn finish(mut self) -> (EventStream, CountingProbe) {
        if !self.chunk.is_empty() {
            // The last chunk is short; give back its unused capacity.
            let mut last = std::mem::take(&mut self.chunk);
            last.shrink_to_fit();
            self.chunks.push(SharedBytes::from(last));
        }
        (EventStream { chunks: self.chunks, events: self.events }, self.counting)
    }

    fn flush_chunk(&mut self) {
        let filled = std::mem::replace(
            &mut self.chunk,
            Vec::with_capacity(self.chunk_target.min(CHUNK_TARGET) + 64),
        );
        // The filled `Vec` becomes the chunk's buffer as it is: no copy.
        self.chunks.push(SharedBytes::from(filled));
        self.prev_addr = 0;
        self.prev_pc = 0;
    }

    #[inline]
    fn maybe_flush(&mut self) {
        if self.chunk.len() >= self.chunk_target {
            self.flush_chunk();
        }
    }

    // The `rec_*` steps are always inlined into the `Probe` methods: an
    // event then costs one call into the recorder, and from there one
    // into the consumer's handler, not a chain of small calls.
    #[inline(always)]
    fn rec_compute(&mut self, op: u8, n: u64) {
        self.events += 1;
        if !self.keep {
            return;
        }
        if n < COMPUTE_ESCAPE {
            self.chunk.push(op | (n as u8) << 3);
        } else {
            self.chunk.push(op | (COMPUTE_ESCAPE as u8) << 3);
            push_varint(&mut self.chunk, n);
        }
        self.maybe_flush();
    }

    /// Records a load or store; returns its canonical address if the
    /// consumer is to be fed it.
    #[inline(always)]
    fn rec_mem(&mut self, op: u8, addr: u64, bytes: u32) -> Option<u64> {
        self.events += 1;
        if !(self.keep || self.feed) {
            return None;
        }
        let addr = self.canon.canon(addr);
        if self.keep {
            let code = width_code(bytes);
            self.chunk.push(op | code << 3);
            if code == 0 {
                push_varint(&mut self.chunk, u64::from(bytes));
            }
            let delta = (addr as i64).wrapping_sub(self.prev_addr as i64);
            push_varint(&mut self.chunk, zigzag(delta));
            self.prev_addr = addr;
            self.maybe_flush();
        }
        self.feed.then_some(addr)
    }

    #[inline(always)]
    fn rec_branch(&mut self, pc: u64, taken: bool) {
        self.events += 1;
        if !self.keep {
            return;
        }
        self.chunk.push(OP_BRANCH | (taken as u8) << 3);
        push_varint(&mut self.chunk, zigzag((pc as i64).wrapping_sub(self.prev_pc as i64)));
        self.prev_pc = pc;
        self.maybe_flush();
    }

    /// Records a kernel declaration; returns whether it changes the
    /// kernel (a redundant one is dropped).
    #[inline(always)]
    fn rec_set_kernel(&mut self, k: Kernel) -> bool {
        if self.last_kernel == Some(k) {
            return false;
        }
        self.last_kernel = Some(k);
        self.events += 1;
        if self.keep {
            self.chunk.push(OP_SET_KERNEL | (k.index() as u8) << 3);
            self.maybe_flush();
        }
        true
    }
}

impl<P: Probe> Probe for StreamRecorder<P> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.counting.set_kernel(k);
        if self.rec_set_kernel(k) && self.feed {
            self.consumer.set_kernel(k);
        }
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.counting.alu(n);
        self.rec_compute(OP_ALU, n);
        if self.feed {
            self.consumer.alu(n);
        }
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.counting.avx(n);
        self.rec_compute(OP_AVX, n);
        if self.feed {
            self.consumer.avx(n);
        }
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.counting.sse(n);
        self.rec_compute(OP_SSE, n);
        if self.feed {
            self.consumer.sse(n);
        }
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.counting.load(addr, bytes);
        if let Some(addr) = self.rec_mem(OP_LOAD, addr, bytes) {
            self.consumer.load(addr, bytes);
        }
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.counting.store(addr, bytes);
        if let Some(addr) = self.rec_mem(OP_STORE, addr, bytes) {
            self.consumer.store(addr, bytes);
        }
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.counting.branch(pc, taken);
        self.rec_branch(pc, taken);
        if self.feed {
            self.consumer.branch(pc, taken);
        }
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.counting.retired()
    }
}

/// A probe adaptor that renames data addresses to canonical pages, in
/// first-touch order exactly as [`StreamRecorder`] does, and forwards
/// every event to the wrapped probe.
///
/// Consumers that expect canonical addresses (the pipeline model) get
/// them from a replayed [`EventStream`]; a caller that drives such a
/// consumer live, with raw probe addresses, wraps it in this adaptor,
/// and the consumer then sees the very sequence a capture-and-replay
/// would have delivered.
#[derive(Debug)]
pub struct CanonicalizingProbe<P: Probe> {
    inner: P,
    canon: AddressCanonicalizer,
}

impl<P: Probe> CanonicalizingProbe<P> {
    /// Wraps `inner` with a fresh page mapping.
    pub fn new(inner: P) -> Self {
        CanonicalizingProbe { inner, canon: AddressCanonicalizer::new() }
    }

    /// Unwraps the adaptor, returning the wrapped probe.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Probe> Probe for CanonicalizingProbe<P> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.inner.set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.inner.alu(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.inner.avx(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.inner.sse(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.inner.load(self.canon.canon(addr), bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.inner.store(self.canon.canon(addr), bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.inner.branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.inner.retired()
    }

    #[inline]
    fn is_live(&self) -> bool {
        self.inner.is_live()
    }
}

// ---------------------------------------------------------------------------
// Persistence (serde shim wire format).
// ---------------------------------------------------------------------------

impl serde::Serialize for EventStream {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.write_u64(u64::from(STREAM_FORMAT_VERSION));
        s.write_u64(self.events);
        s.write_seq_len(self.chunks.len());
        for chunk in &self.chunks {
            s.write_shared_bytes(chunk);
        }
    }
}

/// Loads a stream, checking its framing only: the format version, the
/// event count and the chunk tokens. The chunks' contents are checked
/// by the decode of a replay ([`EventStream::try_replay`]). From a
/// [`serde::Deserializer::sparse`] input every chunk is a span of the
/// input's file.
impl<'de> serde::Deserialize<'de> for EventStream {
    fn deserialize(d: &mut serde::Deserializer<'de>) -> Result<Self, serde::Error> {
        let version = d.read_u64()?;
        if version != u64::from(STREAM_FORMAT_VERSION) {
            return Err(serde::Error::new(format!(
                "event stream format v{version} (current is v{STREAM_FORMAT_VERSION})"
            )));
        }
        let events = d.read_u64()?;
        let n = d.read_seq_len()?;
        // Cap the pre-allocation: `n` is untrusted input.
        let mut chunks = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            chunks.push(d.read_shared_bytes()?);
        }
        Ok(EventStream { chunks, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProbeEvent, RecordingProbe};
    use proptest::prelude::*;
    use std::sync::Arc;

    /// [`VARINTS_AFTER`] entry of a byte that starts no event.
    const BAD_OPCODE: u8 = u8::MAX;

    /// Number of trailing varints each opcode byte announces, or
    /// [`BAD_OPCODE`] for a byte that starts no event: opcode 7, or a
    /// `set_kernel` index past [`Kernel::ALL`].
    const VARINTS_AFTER: [u8; 256] = {
        let mut table = [0u8; 256];
        let mut b = 0;
        while b < 256 {
            let arg = (b >> 3) as u64;
            let escaped = arg == COMPUTE_ESCAPE;
            table[b] = match (b & 0x7) as u8 {
                OP_SET_KERNEL if (arg as usize) < Kernel::ALL.len() => 0,
                OP_ALU | OP_AVX | OP_SSE => escaped as u8,
                OP_LOAD | OP_STORE => 1 + (arg == 0) as u8,
                OP_BRANCH => 1,
                _ => BAD_OPCODE,
            };
            b += 1;
        }
        table
    };

    /// The test oracle for [`decode_chunk`]'s checks, written apart from
    /// it: checks that `bytes` is a well-formed packed chunk — every opcode
    /// names an event, every `set_kernel` index is in [`Kernel::ALL`], every
    /// varint ends within ten bytes and inside the chunk — and returns its
    /// event count.
    ///
    /// One flat pass over the bytes: an opcode byte says how many varint
    /// terminators (bytes with the high bit clear) its event still owes.
    fn validate_chunk(bytes: &[u8]) -> Result<u64, &'static str> {
        let mut events = 0u64;
        let mut owed = 0u8;
        let mut continued = 0usize;
        for &b in bytes {
            if owed == 0 {
                owed = VARINTS_AFTER[usize::from(b)];
                if owed == BAD_OPCODE {
                    return Err(if b & 0x7 == OP_SET_KERNEL {
                        "set_kernel index past the kernel table"
                    } else {
                        "opcode 7 starts no event"
                    });
                }
                events += 1;
            } else if b & 0x80 != 0 {
                continued += 1;
                if continued == MAX_VARINT_BYTES as usize {
                    return Err("varint longer than ten bytes");
                }
            } else {
                continued = 0;
                owed -= 1;
            }
        }
        if owed == 0 {
            Ok(events)
        } else {
            Err("truncated varint")
        }
    }

    /// A deterministic pseudo-random event mix resembling an encode
    /// stream: kernel phases with redundant redeclarations, page-local
    /// loads/stores with occasional far jumps, biased branches, mostly
    /// small compute bursts.
    fn drive<P: Probe>(p: &mut P, n: usize) {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..n {
            if i % 97 == 0 {
                p.set_kernel(Kernel::ALL[step() as usize % Kernel::ALL.len()]);
                // Redundant redeclaration: must be dropped by capture.
                if i % 194 == 0 {
                    p.set_kernel(Kernel::ALL[step() as usize % Kernel::ALL.len()]);
                }
            }
            match step() % 10 {
                0..=2 => p.alu(1 + step() % 40),
                3 => p.avx(1 + step() % 6),
                4 => p.sse(1 + step() % 4),
                5..=6 => p.load(0x7f00_1000_0000 + (step() % (1 << 22)), 1 << (step() % 7)),
                7 => p.store(0x7f00_2000_0000 + (step() % (1 << 20)), 13),
                _ => p.branch(0x5000_0000_0000 + (step() % 64) * 4, step() % 3 == 0),
            }
        }
    }

    fn capture(n: usize, chunk_target: usize) -> (EventStream, CountingProbe) {
        let mut rec = StreamRecorder::new().with_chunk_target(chunk_target);
        drive(&mut rec, n);
        rec.finish()
    }

    /// Drops `SetKernel` events that redeclare the current kernel —
    /// the one normalization capture applies.
    fn dedup_kernels(events: &[ProbeEvent]) -> Vec<ProbeEvent> {
        let mut last = None;
        events
            .iter()
            .filter(|e| match e {
                ProbeEvent::SetKernel(k) => {
                    if last == Some(*k) {
                        false
                    } else {
                        last = Some(*k);
                        true
                    }
                }
                _ => true,
            })
            .copied()
            .collect()
    }

    #[test]
    fn replay_reproduces_the_canonical_deduped_sequence() {
        let mut null = NullProbe;
        let mut reference = CanonicalizingProbe::new(RecordingProbe::new(&mut null));
        drive(&mut reference, 50_000);
        let expect = dedup_kernels(reference.into_inner().into_batch().events());

        let (stream, _) = capture(50_000, 4096);
        assert!(stream.chunks().len() > 1, "multi-chunk coverage");
        assert_eq!(stream.events(), expect.len() as u64);

        let mut null = NullProbe;
        let mut replayed = RecordingProbe::new(&mut null);
        stream.replay(&mut replayed);
        assert_eq!(replayed.into_batch().events(), expect.as_slice());
    }

    #[test]
    fn embedded_counting_matches_a_plain_counting_run() {
        let mut reference = CountingProbe::new();
        drive(&mut reference, 30_000);
        let (_, counting) = capture(30_000, 1 << 20);
        assert_eq!(counting, reference);
    }

    #[test]
    fn replayed_counting_matches_despite_kernel_dedup() {
        // Replaying the deduped stream into a fresh CountingProbe must
        // reproduce mix and profile exactly: attribution only depends on
        // the *current* kernel, not on how often it is redeclared.
        let mut reference = CountingProbe::new();
        drive(&mut reference, 30_000);
        let (stream, _) = capture(30_000, 1 << 14);
        let mut replayed = CountingProbe::new();
        stream.replay(&mut replayed);
        assert_eq!(replayed, reference);
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_decoded_sequence() {
        let (one, _) = capture(40_000, usize::MAX >> 1);
        let (many, _) = capture(40_000, 512);
        assert_eq!(one.chunks().len(), 1);
        assert!(many.chunks().len() > 10);
        assert_eq!(one.events(), many.events());

        let mut null = NullProbe;
        let mut a = RecordingProbe::new(&mut null);
        one.replay(&mut a);
        let a = a.into_batch();
        let mut null = NullProbe;
        let mut b = RecordingProbe::new(&mut null);
        many.replay(&mut b);
        assert_eq!(a, b.into_batch());
    }

    #[test]
    fn canonical_streams_are_canon_idempotent() {
        // The recorder emits canonical addresses; canonicalizing them
        // again must be the identity. This is the property that lets
        // replay consumers skip canonicalization.
        let (stream, _) = capture(20_000, 1 << 20);
        let mut null = NullProbe;
        let mut direct = RecordingProbe::new(&mut null);
        stream.replay(&mut direct);
        let direct = direct.into_batch();
        let mut null = NullProbe;
        let mut again = CanonicalizingProbe::new(RecordingProbe::new(&mut null));
        stream.replay(&mut again);
        assert_eq!(again.into_inner().into_batch(), direct);
    }

    #[test]
    fn serde_roundtrip_preserves_the_stream() {
        let (stream, _) = capture(25_000, 2048);
        let text = serde::to_string(&stream);
        let back: EventStream = serde::from_str(&text).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn serde_rejects_future_format_versions() {
        let (stream, _) = capture(100, 1 << 20);
        let text = serde::to_string(&stream);
        // The first token is the format version.
        let bumped = text.replacen(
            &format!("u{STREAM_FORMAT_VERSION} "),
            &format!("u{} ", STREAM_FORMAT_VERSION + 1),
            1,
        );
        assert!(serde::from_str::<EventStream>(&bumped).is_err());
    }

    #[test]
    fn binary_serde_roundtrip_preserves_the_stream() {
        let (stream, _) = capture(25_000, 2048);
        let bytes = serde::to_bytes(&stream);
        assert!(bytes.len() < stream.packed_bytes() + 64 * stream.chunks().len() + 64);
        let back: EventStream = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back, stream);
    }

    /// A one-chunk stream holding exactly `chunk`, claiming `events`.
    fn stream_of(chunk: &[u8], events: u64) -> Vec<u8> {
        serde::to_bytes(&EventStream { chunks: vec![SharedBytes::from(chunk.to_vec())], events })
    }

    #[test]
    fn malformed_chunks_fail_to_replay() {
        let branch = OP_BRANCH | 1 << 3;
        let cases: [(&[u8], &str); 5] = [
            (&[branch, 0x80], "truncated varint"),
            (&[OP_ALU | 5 << 3, 7], "opcode 7"),
            (&[OP_SET_KERNEL | (Kernel::ALL.len() as u8) << 3], "set_kernel index"),
            (&[OP_LOAD, 0x80, 0x80], "truncated varint"),
            (&[branch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0], "ten bytes"),
        ];
        for (chunk, why) in cases {
            // The framing is fine, so the stream loads; its replay fails.
            let stream: EventStream = serde::from_bytes(&stream_of(chunk, 1)).unwrap();
            let err = stream.try_replay(&mut CountingProbe::new()).unwrap_err();
            assert!(err.to_string().contains(why), "{chunk:?}: {err}");
            assert!(matches!(err, StreamError::Malformed { chunk: 0, .. }), "{err}");
        }
        // Every kernel index in the table and a ten-byte varint are fine.
        let last_kernel = OP_SET_KERNEL | (Kernel::ALL.len() as u8 - 1) << 3;
        let longest = [branch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        for chunk in [&[last_kernel][..], &longest] {
            let stream: EventStream = serde::from_bytes(&stream_of(chunk, 1)).unwrap();
            stream.try_replay(&mut CountingProbe::new()).unwrap();
        }
    }

    #[test]
    fn event_count_must_match_the_chunks() {
        let (stream, _) = capture(5_000, 1024);
        for events in [stream.events() - 1, stream.events() + 1] {
            let forged = EventStream { chunks: stream.chunks.clone(), events };
            let loaded: EventStream = serde::from_bytes(&serde::to_bytes(&forged)).unwrap();
            let err = loaded.try_replay(&mut NullProbe).unwrap_err();
            assert!(err.to_string().contains("header says"), "{err}");
        }
    }

    #[test]
    fn recorded_chunks_validate_to_their_event_count() {
        let (stream, _) = capture(40_000, 512);
        let counted: u64 =
            stream.chunks().iter().map(|c| validate_chunk(c.as_slice().unwrap()).unwrap()).sum();
        assert_eq!(counted, stream.events());
    }

    #[test]
    fn every_truncation_of_a_chunk_fails_or_counts_fewer_events() {
        // Cutting a chunk mid-event is a truncated varint; cutting at an
        // event boundary is a valid chunk with fewer events, which the
        // header's event count catches.
        let (stream, _) = capture(300, 1 << 20);
        let chunk = stream.chunks()[0].as_slice().unwrap();
        for cut in 0..chunk.len() {
            let bytes = stream_of(&chunk[..cut], stream.events());
            let cut_stream: EventStream = serde::from_bytes(&bytes).unwrap();
            assert!(cut_stream.try_replay(&mut NullProbe).is_err(), "cut at {cut} replayed");
        }
    }

    /// `stream` in its binary form, in a fresh file under the temp
    /// directory, loaded sparsely: its chunks are spans of the file. The
    /// path is gone again when this returns; the file lives on, open.
    fn load_from_file(stream: &EventStream, name: &str) -> (EventStream, std::fs::File) {
        let path =
            std::env::temp_dir().join(format!("vstress-stream-unit-{}-{name}", std::process::id()));
        std::fs::write(&path, serde::to_bytes(stream)).unwrap();
        let file = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let input =
            serde::SparseInput::read(Arc::new(file.try_clone().unwrap()), 0, |_| ()).unwrap();
        let loaded = serde::Deserialize::deserialize(&mut serde::Deserializer::sparse(&input));
        (loaded.unwrap(), file)
    }

    #[test]
    fn loaded_chunks_are_spans_of_the_input_file() {
        let (stream, _) = capture(25_000, 2048);
        let (loaded, file) = load_from_file(&stream, "spans");
        assert_eq!(loaded, stream);
        assert!(loaded.chunks().len() > 1);
        assert!(loaded.chunks().iter().all(|c| c.as_slice().is_none()), "no chunk is in memory");
        assert_eq!(loaded.packed_bytes(), stream.packed_bytes());
        let mut replayed = CountingProbe::new();
        loaded.try_replay(&mut replayed).unwrap();
        let mut recorded = CountingProbe::new();
        stream.replay(&mut recorded);
        assert_eq!(replayed, recorded);

        // Cut the file in half in place: the replay fails at the chunk
        // the cut runs through, with a read error, not a panic.
        file.set_len(file.metadata().unwrap().len() / 2).unwrap();
        match loaded.try_replay(&mut CountingProbe::new()) {
            Err(StreamError::Read { chunk, kind }) => {
                assert!(chunk > 0 && chunk < loaded.chunks().len(), "chunk {chunk}");
                assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A chunk recorded from [`drive`], for mutation.
    fn recorded_chunk() -> SharedBytes {
        capture(400, 1 << 20).0.chunks()[0].clone()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The decode checks exactly what the oracle checks: it never
        /// panics, fails exactly when the oracle rejects (for the same
        /// reason), and otherwise counts the oracle's events.
        #[test]
        fn decode_agrees_with_the_oracle_on_random_chunks(
            bytes in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let decoded = decode_chunk(&bytes, &mut CountingProbe::new());
            let oracle = validate_chunk(&bytes);
            prop_assert_eq!(decoded.map_err(|e| e.to_string()), oracle.map_err(str::to_owned));
        }

        #[test]
        fn decode_agrees_with_the_oracle_on_mutated_chunks(
            flips in prop::collection::vec((0usize..4096, any::<u8>()), 0..4),
            cut in 0usize..8192,
        ) {
            let mut bytes = recorded_chunk().as_slice().unwrap().to_vec();
            for (at, bits) in flips {
                let at = at % bytes.len();
                bytes[at] ^= bits;
            }
            bytes.truncate(cut);
            let decoded = decode_chunk(&bytes, &mut CountingProbe::new());
            let oracle = validate_chunk(&bytes);
            prop_assert_eq!(decoded.map_err(|e| e.to_string()), oracle.map_err(str::to_owned));
        }
    }

    #[test]
    fn wide_payloads_escape_correctly() {
        let mut rec = StreamRecorder::new();
        rec.set_kernel(Kernel::Packetize);
        rec.alu(1_000_000);
        rec.avx(u64::MAX >> 3);
        rec.load(0x1234, 48); // non-power-of-two width
        rec.store(u64::MAX >> 8, 3);
        rec.branch(0, false);
        rec.branch(u64::MAX >> 4, true);
        let (stream, _) = rec.finish();

        let mut null = NullProbe;
        let mut out = RecordingProbe::new(&mut null);
        stream.replay(&mut out);
        let events = out.into_batch();
        assert_eq!(events.events()[1], ProbeEvent::Alu(1_000_000));
        assert_eq!(events.events()[2], ProbeEvent::Avx(u64::MAX >> 3));
        match events.events()[3] {
            ProbeEvent::Load { bytes, .. } => assert_eq!(bytes, 48),
            e => panic!("expected load, got {e:?}"),
        }
    }

    #[test]
    fn a_recorder_feeds_its_consumer_the_sequence_its_stream_replays() {
        let (stream, counting) = capture(30_000, 1024);
        let mut null = NullProbe;
        let mut replayed = RecordingProbe::new(&mut null);
        stream.replay(&mut replayed);
        let replayed = replayed.into_batch();
        for keep in [true, false] {
            let mut null = NullProbe;
            let mut fed = RecordingProbe::new(&mut null);
            let mut rec = StreamRecorder::feeding(&mut fed, keep).with_chunk_target(1024);
            drive(&mut rec, 30_000);
            let (kept, kept_counting) = rec.finish();
            assert_eq!(fed.into_batch(), replayed, "keep {keep}: the consumer saw the replay");
            assert_eq!(kept_counting, counting, "keep {keep}");
            assert_eq!(kept.events(), stream.events(), "keep {keep}");
            if keep {
                assert_eq!(kept, stream, "feeding a consumer changes no packed byte");
            } else {
                assert!(kept.chunks().is_empty(), "no chunk kept");
                let err = kept.try_replay(&mut NullProbe).unwrap_err();
                assert!(matches!(err, StreamError::EventCount { counted: 0, .. }), "{err}");
            }
        }
    }

    #[test]
    fn a_recorder_keeping_no_chunks_and_feeding_no_consumer_only_counts() {
        let (stream, counting) = capture(30_000, 1024);
        let mut rec = StreamRecorder::feeding(NullProbe, false).with_chunk_target(1024);
        drive(&mut rec, 30_000);
        assert_eq!(rec.chunk.capacity(), 0, "no chunk buffer");
        assert_eq!(rec.canon.len, 0, "no address renamed");
        let (kept, kept_counting) = rec.finish();
        assert_eq!(kept_counting, counting);
        assert_eq!(kept.events(), stream.events());
        assert!(kept.chunks().is_empty());
    }

    #[test]
    fn empty_stream_roundtrips() {
        let (stream, counting) = StreamRecorder::new().finish();
        assert_eq!(stream.events(), 0);
        assert!(stream.chunks().is_empty());
        assert_eq!(counting.retired(), 0);
        let back: EventStream = serde::from_str(&serde::to_string(&stream)).unwrap();
        assert_eq!(back, stream);
    }

    mod canon {
        use super::*;

        #[test]
        fn preserves_page_offsets() {
            let mut c = AddressCanonicalizer::new();
            let a = c.canon(0x7fff_1234_5678);
            assert_eq!(a & 0xfff, 0x678);
            // Same page, different offset: same canonical page.
            let b = c.canon(0x7fff_1234_5000);
            assert_eq!(a >> 12, b >> 12);
        }

        #[test]
        fn first_touch_order_defines_layout() {
            let mut c1 = AddressCanonicalizer::new();
            let mut c2 = AddressCanonicalizer::new();
            // Two different host layouts, same access sequence positions.
            let seq1 = [0x111_0000u64, 0x999_0000, 0x111_0040];
            let seq2 = [0xabc_0000u64, 0x222_0000, 0xabc_0040];
            let m1: Vec<u64> = seq1.iter().map(|&a| c1.canon(a)).collect();
            let m2: Vec<u64> = seq2.iter().map(|&a| c2.canon(a)).collect();
            assert_eq!(m1, m2, "canonical stream depends only on the sequence");
        }

        #[test]
        fn table_grows_past_initial_capacity() {
            let mut c = AddressCanonicalizer::new();
            let mut seen = std::collections::HashSet::new();
            for i in 0..20_000u64 {
                let a = c.canon(i << 12 | 7);
                assert!(seen.insert(a >> 12), "canonical pages must be unique");
            }
        }

        #[test]
        fn canonicalization_is_idempotent() {
            let mut first = AddressCanonicalizer::new();
            let mut second = AddressCanonicalizer::new();
            let mut x = 1u64;
            for _ in 0..50_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let canonical = first.canon(x >> 8);
                assert_eq!(second.canon(canonical), canonical);
            }
        }
    }
}
