//! Capture-once / simulate-many event streams.
//!
//! [`crate::event::EventBatch`] records short probe bursts (a leaf memo's
//! worth) as materialized `ProbeEvent`s; that representation costs 16
//! bytes per event, which is untenable for a full encode (tens of
//! millions of events per clip). [`EventStream`] is the full-run form:
//! the identical event sequence packed into chunked byte buffers at
//! ~1–3 bytes per event, with data addresses already canonicalized (see
//! [`AddressCanonicalizer`]), so one *recording* encode — driven against
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
//! independently and streamed through a bounded [`chunk_channel`] while
//! the producing encode is still running.
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
//! A persisted stream (its serde form) is the format version, the event
//! count and one byte-string token per chunk. Loading it validates every
//! chunk against this table once, so a stored stream that would make a
//! replay panic fails to deserialize instead.
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
use crate::probe::{CountingProbe, Probe};
use crate::ProbeEvent;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

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
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint, advancing the cursor slice past it. Slice
/// patterns keep the loop free of index bounds checks.
///
/// # Panics
///
/// Panics if the varint runs past the end of the cursor.
#[inline]
fn read_varint(rest: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    while let [b, tail @ ..] = *rest {
        *rest = tail;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
    panic!("truncated varint in packed chunk");
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
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
/// at capture time and the pipeline model skip its own canonicalization
/// on the replay path while remaining bit-identical to the live run.
#[derive(Debug)]
pub struct AddressCanonicalizer {
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

impl Default for AddressCanonicalizer {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressCanonicalizer {
    /// An empty mapping; the first page touched becomes the base page.
    pub fn new() -> Self {
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
    pub fn canon(&mut self, addr: u64) -> u64 {
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
/// [`EventStream::replay`] (all chunks, in order, into one probe) or
/// chunk-by-chunk via [`decode_chunk`]. Chunks are shared (`Arc`) so a
/// stream can be fanned out to concurrent consumers without copying.
#[derive(Clone, PartialEq, Eq)]
pub struct EventStream {
    chunks: Vec<Arc<[u8]>>,
    events: u64,
}

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
    pub fn chunks(&self) -> &[Arc<[u8]>] {
        &self.chunks
    }

    /// Total packed size in bytes.
    pub fn packed_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Re-emits every recorded event, in order, into `probe`.
    pub fn replay<P: Probe>(&self, probe: &mut P) {
        for chunk in &self.chunks {
            decode_chunk(chunk, probe);
        }
    }
}

/// Decodes one packed chunk, dispatching each event into `probe`.
///
/// Address and PC deltas are chunk-local, so any chunk of a stream can
/// be decoded on its own; replaying a whole stream is [`decode_chunk`]
/// over its chunks in order.
///
/// # Panics
///
/// Panics on a malformed chunk (truncated varint, opcode past the
/// event table, kernel index past [`Kernel::ALL`]). Recorded chunks are
/// well formed and a deserialized stream has every chunk validated, so
/// this only fires on in-process memory corruption or a format bug.
pub fn decode_chunk<P: Probe>(bytes: &[u8], probe: &mut P) {
    let mut rest = bytes;
    let mut prev_addr = 0u64;
    let mut prev_pc = 0u64;
    // A slice-pattern cursor: each step peels the opcode byte and varint
    // payloads off the front, so the loop carries no index arithmetic or
    // per-byte bounds checks.
    while let [b, tail @ ..] = rest {
        let b = *b;
        rest = tail;
        let arg = u64::from(b >> 3);
        match b & 0x7 {
            OP_ALU => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest) } else { arg };
                probe.alu(n);
            }
            OP_LOAD => {
                let width =
                    if arg == 0 { read_varint(&mut rest) as u32 } else { 1u32 << (arg - 1) };
                let addr = (prev_addr as i64).wrapping_add(unzigzag(read_varint(&mut rest))) as u64;
                prev_addr = addr;
                probe.load(addr, width);
            }
            OP_STORE => {
                let width =
                    if arg == 0 { read_varint(&mut rest) as u32 } else { 1u32 << (arg - 1) };
                let addr = (prev_addr as i64).wrapping_add(unzigzag(read_varint(&mut rest))) as u64;
                prev_addr = addr;
                probe.store(addr, width);
            }
            OP_BRANCH => {
                let pc = (prev_pc as i64).wrapping_add(unzigzag(read_varint(&mut rest))) as u64;
                prev_pc = pc;
                probe.branch(pc, arg & 1 == 1);
            }
            OP_AVX => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest) } else { arg };
                probe.avx(n);
            }
            OP_SSE => {
                let n = if arg == COMPUTE_ESCAPE { read_varint(&mut rest) } else { arg };
                probe.sse(n);
            }
            OP_SET_KERNEL => probe.set_kernel(Kernel::ALL[arg as usize]),
            _ => unreachable!("3-bit opcode"),
        }
    }
}

/// A live probe that packs the full event sequence into an
/// [`EventStream`] while keeping the standard counting summary.
///
/// The recorder embeds a [`CountingProbe`] fed the *unmodified* event
/// sequence — the instruction mix and hot-kernel profile it yields are
/// exactly what a plain counting encode would have produced — and in
/// parallel packs the canonicalized sequence into chunks. It reports
/// [`Probe::is_live`] so encoders take their fully-instrumented paths.
///
/// With a sink attached ([`StreamRecorder::with_sink`]), each completed
/// chunk is also pushed into a bounded [`chunk_channel`], letting a
/// consumer thread simulate the head of the stream while the tail is
/// still being encoded.
#[derive(Debug)]
pub struct StreamRecorder {
    counting: CountingProbe,
    canon: AddressCanonicalizer,
    chunk: Vec<u8>,
    chunks: Vec<Arc<[u8]>>,
    chunk_target: usize,
    prev_addr: u64,
    prev_pc: u64,
    last_kernel: Option<Kernel>,
    events: u64,
    sink: Option<ChunkTx>,
}

impl Default for StreamRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamRecorder {
    /// A recorder accumulating chunks in memory.
    pub fn new() -> Self {
        StreamRecorder {
            counting: CountingProbe::new(),
            canon: AddressCanonicalizer::new(),
            chunk: Vec::with_capacity(CHUNK_TARGET + 64),
            chunks: Vec::new(),
            chunk_target: CHUNK_TARGET,
            prev_addr: 0,
            prev_pc: 0,
            last_kernel: None,
            events: 0,
            sink: None,
        }
    }

    /// A recorder that additionally streams each completed chunk into
    /// `tx` (the producer half of a [`chunk_channel`]). The final
    /// partial chunk is sent by [`StreamRecorder::finish`], which also
    /// closes the channel.
    pub fn with_sink(tx: ChunkTx) -> Self {
        let mut r = Self::new();
        r.sink = Some(tx);
        r
    }

    /// Overrides the chunk flush threshold (bytes). Testing and tuning
    /// knob; the default is 1 MiB.
    pub fn with_chunk_target(mut self, bytes: usize) -> Self {
        self.chunk_target = bytes.max(1);
        self
    }

    /// Finalizes the stream: flushes the partial chunk, closes the sink
    /// (if any) and returns the packed stream plus the counting summary
    /// of the full run.
    pub fn finish(mut self) -> (EventStream, CountingProbe) {
        if !self.chunk.is_empty() {
            self.flush_chunk();
        }
        drop(self.sink.take());
        (EventStream { chunks: self.chunks, events: self.events }, self.counting)
    }

    fn flush_chunk(&mut self) {
        let filled = std::mem::replace(
            &mut self.chunk,
            Vec::with_capacity(self.chunk_target.min(CHUNK_TARGET) + 64),
        );
        let chunk: Arc<[u8]> = filled.into();
        if let Some(tx) = &self.sink {
            tx.send(Arc::clone(&chunk));
        }
        self.chunks.push(chunk);
        self.prev_addr = 0;
        self.prev_pc = 0;
    }

    #[inline]
    fn maybe_flush(&mut self) {
        if self.chunk.len() >= self.chunk_target {
            self.flush_chunk();
        }
    }

    #[inline]
    fn rec_compute(&mut self, op: u8, n: u64) {
        self.events += 1;
        if n < COMPUTE_ESCAPE {
            self.chunk.push(op | (n as u8) << 3);
        } else {
            self.chunk.push(op | (COMPUTE_ESCAPE as u8) << 3);
            push_varint(&mut self.chunk, n);
        }
        self.maybe_flush();
    }

    #[inline]
    fn rec_mem(&mut self, op: u8, addr: u64, bytes: u32) {
        self.events += 1;
        let addr = self.canon.canon(addr);
        let code = width_code(bytes);
        self.chunk.push(op | code << 3);
        if code == 0 {
            push_varint(&mut self.chunk, u64::from(bytes));
        }
        push_varint(&mut self.chunk, zigzag((addr as i64).wrapping_sub(self.prev_addr as i64)));
        self.prev_addr = addr;
        self.maybe_flush();
    }

    #[inline]
    fn rec_branch(&mut self, pc: u64, taken: bool) {
        self.events += 1;
        self.chunk.push(OP_BRANCH | (taken as u8) << 3);
        push_varint(&mut self.chunk, zigzag((pc as i64).wrapping_sub(self.prev_pc as i64)));
        self.prev_pc = pc;
        self.maybe_flush();
    }

    #[inline]
    fn rec_set_kernel(&mut self, k: Kernel) {
        if self.last_kernel == Some(k) {
            return;
        }
        self.last_kernel = Some(k);
        self.events += 1;
        self.chunk.push(OP_SET_KERNEL | (k.index() as u8) << 3);
        self.maybe_flush();
    }
}

impl Probe for StreamRecorder {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.counting.set_kernel(k);
        self.rec_set_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.counting.alu(n);
        self.rec_compute(OP_ALU, n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.counting.avx(n);
        self.rec_compute(OP_AVX, n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.counting.sse(n);
        self.rec_compute(OP_SSE, n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.counting.load(addr, bytes);
        self.rec_mem(OP_LOAD, addr, bytes);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.counting.store(addr, bytes);
        self.rec_mem(OP_STORE, addr, bytes);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.counting.branch(pc, taken);
        self.rec_branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.counting.retired()
    }

    fn drain_batch(&mut self, events: &[ProbeEvent]) {
        self.counting.drain_batch(events);
        for &e in events {
            match e {
                ProbeEvent::SetKernel(k) => self.rec_set_kernel(k),
                ProbeEvent::Alu(n) => self.rec_compute(OP_ALU, n),
                ProbeEvent::Avx(n) => self.rec_compute(OP_AVX, n),
                ProbeEvent::Sse(n) => self.rec_compute(OP_SSE, n),
                ProbeEvent::Load { addr, bytes } => self.rec_mem(OP_LOAD, addr, bytes),
                ProbeEvent::Store { addr, bytes } => self.rec_mem(OP_STORE, addr, bytes),
                ProbeEvent::Branch { pc, taken } => self.rec_branch(pc, taken),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded chunk channel (capture/simulate pipelining).
// ---------------------------------------------------------------------------

struct ChannelState {
    queue: VecDeque<Arc<[u8]>>,
    tx_closed: bool,
    rx_closed: bool,
}

struct ChannelInner {
    state: Mutex<ChannelState>,
    capacity: usize,
    /// Signalled when the queue drains below capacity (or rx hangs up).
    space: Condvar,
    /// Signalled when a chunk arrives (or tx hangs up).
    ready: Condvar,
}

impl ChannelInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelState> {
        // A panicked peer cannot leave the queue logically torn: every
        // critical section is a push/pop plus flag writes.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Creates a bounded producer/consumer channel for stream chunks.
///
/// The producer side blocks once `capacity` chunks are queued, bounding
/// the memory between a recording encode and the simulation draining it;
/// the consumer blocks while the queue is empty. Dropping either side
/// unblocks the other (the producer's sends then discard silently — the
/// recorder still accumulates the full stream in memory).
pub fn chunk_channel(capacity: usize) -> (ChunkTx, ChunkRx) {
    let inner = Arc::new(ChannelInner {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            tx_closed: false,
            rx_closed: false,
        }),
        capacity: capacity.max(1),
        space: Condvar::new(),
        ready: Condvar::new(),
    });
    (ChunkTx { inner: Arc::clone(&inner) }, ChunkRx { inner })
}

/// Producer half of a [`chunk_channel`].
pub struct ChunkTx {
    inner: Arc<ChannelInner>,
}

impl std::fmt::Debug for ChunkTx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.lock();
        f.debug_struct("ChunkTx")
            .field("queued", &state.queue.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

/// Consumer half of a [`chunk_channel`].
pub struct ChunkRx {
    inner: Arc<ChannelInner>,
}

impl std::fmt::Debug for ChunkRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.lock();
        f.debug_struct("ChunkRx")
            .field("queued", &state.queue.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl ChunkTx {
    /// Enqueues `chunk`, blocking while the channel is full. If the
    /// consumer is gone the chunk is dropped.
    pub fn send(&self, chunk: Arc<[u8]>) {
        let mut state = self.inner.lock();
        while state.queue.len() >= self.inner.capacity && !state.rx_closed {
            state = self.inner.space.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if state.rx_closed {
            return;
        }
        state.queue.push_back(chunk);
        drop(state);
        self.inner.ready.notify_one();
    }
}

impl Drop for ChunkTx {
    fn drop(&mut self) {
        self.inner.lock().tx_closed = true;
        self.inner.ready.notify_all();
    }
}

impl ChunkRx {
    /// Dequeues the next chunk, blocking while the channel is empty.
    /// Returns `None` once the producer has closed and the queue is
    /// drained.
    pub fn recv(&self) -> Option<Arc<[u8]>> {
        let mut state = self.inner.lock();
        loop {
            if let Some(chunk) = state.queue.pop_front() {
                drop(state);
                self.inner.space.notify_one();
                return Some(chunk);
            }
            if state.tx_closed {
                return None;
            }
            state = self.inner.ready.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl Drop for ChunkRx {
    fn drop(&mut self) {
        self.inner.lock().rx_closed = true;
        self.inner.space.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Persistence (serde shim wire format).
// ---------------------------------------------------------------------------

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

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// Checks that `bytes` is a well-formed packed chunk — every opcode
/// names an event, every `set_kernel` index is in [`Kernel::ALL`], every
/// varint ends within ten bytes and inside the chunk — and returns its
/// event count. A chunk that passes cannot make [`decode_chunk`] panic.
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
            if continued == MAX_VARINT_BYTES {
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

impl serde::Serialize for EventStream {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.write_u64(u64::from(STREAM_FORMAT_VERSION));
        s.write_u64(self.events);
        s.write_seq_len(self.chunks.len());
        for chunk in &self.chunks {
            s.write_bytes(chunk);
        }
    }
}

/// Loads a stream and validates every chunk once (see
/// `validate_chunk`): a malformed chunk, or chunks whose events do not
/// add up to the recorded count, is a deserialization error, so the
/// store quarantines the entry instead of a replay panicking later.
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
        let mut chunks = Vec::with_capacity(n.min(4096));
        let mut counted = 0u64;
        for i in 0..n {
            let chunk = d.read_bytes()?;
            counted += validate_chunk(&chunk)
                .map_err(|why| serde::Error::new(format!("event stream chunk {i}: {why}")))?;
            chunks.push(Arc::from(&*chunk));
        }
        if counted != events {
            return Err(serde::Error::new(format!(
                "event stream chunks hold {counted} events, header says {events}"
            )));
        }
        Ok(EventStream { chunks, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NullProbe;
    use crate::RecordingProbe;

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

    /// Canonicalizes an `EventBatch`'s addresses the same way the
    /// recorder does, for comparisons against replayed streams.
    fn canonical_events(events: &[ProbeEvent]) -> Vec<ProbeEvent> {
        let mut canon = AddressCanonicalizer::new();
        events
            .iter()
            .map(|&e| match e {
                ProbeEvent::Load { addr, bytes } => {
                    ProbeEvent::Load { addr: canon.canon(addr), bytes }
                }
                ProbeEvent::Store { addr, bytes } => {
                    ProbeEvent::Store { addr: canon.canon(addr), bytes }
                }
                other => other,
            })
            .collect()
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
        let mut reference = RecordingProbe::new(&mut null);
        drive(&mut reference, 50_000);
        let expect = dedup_kernels(&canonical_events(reference.into_batch().events()));

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
    fn drain_batch_capture_equals_per_event_capture() {
        let mut null = NullProbe;
        let mut rec = RecordingProbe::new(&mut null);
        drive(&mut rec, 20_000);
        let batch = rec.into_batch();

        let mut per_event = StreamRecorder::new().with_chunk_target(8192);
        drive(&mut per_event, 20_000);
        let (a, ca) = per_event.finish();

        let mut batched = StreamRecorder::new().with_chunk_target(8192);
        batched.drain_batch(batch.events());
        let (b, cb) = batched.finish();
        assert_eq!(a, b);
        assert_eq!(ca, cb);
    }

    #[test]
    fn canonical_streams_are_canon_idempotent() {
        // The recorder emits canonical addresses; feeding them through a
        // fresh canonicalizer must be the identity. This is the property
        // that lets replay consumers skip canonicalization.
        let (stream, _) = capture(20_000, 1 << 20);
        struct Check {
            canon: AddressCanonicalizer,
        }
        impl Probe for Check {
            fn set_kernel(&mut self, _k: Kernel) {}
            fn alu(&mut self, _n: u64) {}
            fn avx(&mut self, _n: u64) {}
            fn sse(&mut self, _n: u64) {}
            fn load(&mut self, addr: u64, _bytes: u32) {
                assert_eq!(self.canon.canon(addr), addr);
            }
            fn store(&mut self, addr: u64, _bytes: u32) {
                assert_eq!(self.canon.canon(addr), addr);
            }
            fn branch(&mut self, _pc: u64, _taken: bool) {}
        }
        impl std::fmt::Debug for Check {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("Check")
            }
        }
        let mut check = Check { canon: AddressCanonicalizer::new() };
        stream.replay(&mut check);
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
        serde::to_bytes(&EventStream { chunks: vec![Arc::from(chunk)], events })
    }

    #[test]
    fn malformed_chunks_fail_to_load() {
        let branch = OP_BRANCH | 1 << 3;
        let cases: [(&[u8], &str); 5] = [
            (&[branch, 0x80], "truncated varint"),
            (&[OP_ALU | 5 << 3, 7], "opcode 7"),
            (&[OP_SET_KERNEL | (Kernel::ALL.len() as u8) << 3], "set_kernel index"),
            (&[OP_LOAD, 0x80, 0x80], "truncated varint"),
            (&[branch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0], "ten bytes"),
        ];
        for (chunk, why) in cases {
            let err = serde::from_bytes::<EventStream>(&stream_of(chunk, 1)).unwrap_err();
            assert!(err.to_string().contains(why), "{chunk:?}: {err}");
        }
        // Every kernel index in the table and a ten-byte varint are fine.
        let last_kernel = OP_SET_KERNEL | (Kernel::ALL.len() as u8 - 1) << 3;
        let longest = [branch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        for chunk in [&[last_kernel][..], &longest] {
            let stream: EventStream = serde::from_bytes(&stream_of(chunk, 1)).unwrap();
            stream.replay(&mut CountingProbe::new());
        }
    }

    #[test]
    fn event_count_must_match_the_chunks() {
        let (stream, _) = capture(5_000, 1024);
        for events in [stream.events() - 1, stream.events() + 1] {
            let forged = EventStream { chunks: stream.chunks.clone(), events };
            let err = serde::from_bytes::<EventStream>(&serde::to_bytes(&forged)).unwrap_err();
            assert!(err.to_string().contains("header says"), "{err}");
        }
    }

    #[test]
    fn recorded_chunks_validate_to_their_event_count() {
        let (stream, _) = capture(40_000, 512);
        let counted: u64 = stream.chunks().iter().map(|c| validate_chunk(c).unwrap()).sum();
        assert_eq!(counted, stream.events());
    }

    #[test]
    fn every_truncation_of_a_chunk_fails_or_counts_fewer_events() {
        // Cutting a chunk mid-event is a truncated varint; cutting at an
        // event boundary is a valid chunk with fewer events, which the
        // header's event count catches.
        let (stream, _) = capture(300, 1 << 20);
        let chunk = &stream.chunks()[0];
        for cut in 0..chunk.len() {
            let bytes = stream_of(&chunk[..cut], stream.events());
            assert!(serde::from_bytes::<EventStream>(&bytes).is_err(), "cut at {cut} loaded");
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
    fn chunk_channel_streams_the_capture() {
        let (tx, rx) = chunk_channel(2);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            let mut replayed = CountingProbe::new();
            while let Some(chunk) = rx.recv() {
                decode_chunk(&chunk, &mut replayed);
                seen.push(chunk);
            }
            (seen, replayed)
        });
        let mut rec = StreamRecorder::with_sink(tx).with_chunk_target(1024);
        drive(&mut rec, 30_000);
        let (stream, counting) = rec.finish();
        let (seen, replayed) = consumer.join().unwrap();
        assert_eq!(seen.len(), stream.chunks().len());
        assert!(seen.iter().zip(stream.chunks()).all(|(a, b)| a == b));
        assert_eq!(replayed, counting, "streamed replay equals the full capture");
    }

    #[test]
    fn dropped_receiver_does_not_wedge_the_recorder() {
        let (tx, rx) = chunk_channel(1);
        drop(rx);
        let mut rec = StreamRecorder::with_sink(tx).with_chunk_target(256);
        drive(&mut rec, 10_000);
        let (stream, _) = rec.finish();
        assert!(stream.events() > 0, "capture survives a vanished consumer");
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
