//! Persistent, versioned, content-addressed on-disk result store.
//!
//! [`RunCache`](super::RunCache) deduplicates characterization work
//! *within* one process; this store extends the same reuse *across*
//! processes, so an interrupted or repeated `vstress-repro` invocation
//! resumes from completed specs instead of re-paying the SVT-AV1-style
//! search-space cost the paper centers on. Runs are bit-deterministic
//! (see `tests/determinism.rs`), so replaying a stored entry is
//! indistinguishable from recomputing it.
//!
//! # Layout
//!
//! ```text
//! <root>/v<SCHEMA_VERSION>/<kind>/<fnv64(key)>.entry
//! ```
//!
//! * `kind` is the cache layer: `stream` (captured encode event streams,
//!   the capture-once layer every other kind can be rebuilt from), `run`
//!   (characterization runs), `window` (CBP branch windows), `cost`
//!   (encode/decode cost pairs).
//! * The file name is the FNV-1a 64-bit hash of the entry's *key text*
//!   — a human-readable rendering of everything that determines the
//!   value (clip, codec, params, fidelity, divisor, …) — so the store
//!   is content-addressed and needs no index.
//!
//! # Entry format
//!
//! Every kind uses one binary envelope: a short header, then the payload
//! bytes.
//!
//! ```text
//! tEntryHeader u<version> s<len>:<kind> s<len>:<key text> u<payload len> u<checksum> <payload>
//! ```
//!
//! The header is an `EntryHeader` in the serde shim's token format; the
//! payload is the value in the shim's binary form
//! ([`serde::to_bytes`]), so a stream's packed chunks and a capture's
//! bitstream sit in the file as raw bytes.
//!
//! A write never holds the payload whole: it serializes the value three
//! times — once to count the payload's bytes, once to fold them into a
//! [`Checksum64`], once into the temp file through the shim's bounded
//! spill buffer ([`serde::to_writer`]) — so a stream's chunks go from the
//! recorder's buffers straight to the file.
//!
//! A read opens the file and reads it once, through a bounded buffer.
//! It checks the header's version, kind and key text against the lookup
//! (catching cross-version copies, cross-kind mixups and hash
//! collisions) and the payload length, then reads the payload through a
//! [`serde::SparseInput`], folding it into a [`Checksum64`] as it goes
//! (catching torn and bit-flipped payloads), and decodes the value only
//! after that check. The payload's small tokens are kept in memory; each
//! byte string stays in the file as an `(offset, len)` span. A loaded
//! event stream's chunks are such spans ([`serde::SharedBytes`]) of the
//! still-open entry file: nothing holds the packed events in memory, and
//! a replay reads them one chunk at a time into one buffer it reuses.
//! Renaming a new entry over the path leaves the open file, and so a
//! loaded stream, as it was.

//! # Robustness
//!
//! * **Atomic writes** — entries are written to a temp file in the same
//!   directory and `rename`d into place, so a crashed writer can never
//!   leave a half-visible entry.
//! * **Quarantine** — a corrupt or stale entry (parse failure, version,
//!   kind or key mismatch, bad length or checksum, a payload that fails
//!   to decode) is renamed to `*.quarantined` and treated as a miss; the
//!   value is recomputed and re-stored. Every length in an entry is
//!   checked against the bytes actually present before it is used, so a
//!   malformed one never panics or allocates. A stored stream whose
//!   chunks fail the decode of their first replay, or whose file no
//!   longer holds a chunk at a later one (cut short in place), is
//!   quarantined the same way, after the fact (`RunStore::reject`), and
//!   recaptured. Nothing in the store can make a run fail.
//! * **Versioning** — bumping [`SCHEMA_VERSION`] changes the directory,
//!   invalidating every old entry at once; the in-file version field
//!   additionally rejects entries copied across version directories.

use std::fs::File;
use std::io::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The most bytes of an entry read to parse its header: far more than
/// any key text needs.
const HEADER_BYTES: usize = 64 << 10;

/// Bump when the wire format of any stored payload type changes
/// (serde shim format, `CharacterizationRun` fields, key text, …).
/// Old entries become invisible (different directory) and unreadable
/// (in-file version check).
///
/// v2: `FrameTaskTrace` gained `plan_units` (measured tile/wavefront
/// unit costs), changing the `CharacterizationRun` wire format.
///
/// v3: the `stream` entry kind (captured probe event streams) joined
/// the store, and runs / branch windows / decode costs are now derived
/// from captured streams instead of dedicated re-encodes. Results are
/// bit-identical, but a v2 store has no streams, so the capture-once
/// layers start cold rather than mixing generations.
///
/// v4: one binary envelope for every kind (header, then the payload in
/// the serde shim's binary form) replaces text entries that nested the
/// payload inside a string; stream chunks and bitstreams are stored raw
/// instead of as hex, and the payload checksum is [`checksum64`].
pub const SCHEMA_VERSION: u32 = 4;

/// Store layer for characterization runs.
pub(crate) const KIND_RUN: &str = "run";
/// Store layer for CBP branch windows.
pub(crate) const KIND_WINDOW: &str = "window";
/// Store layer for encode/decode cost pairs.
pub(crate) const KIND_COST: &str = "cost";
/// Store layer for captured encode event streams.
pub const KIND_STREAM: &str = "stream";

/// FNV-1a 64-bit hash — the store's stable content address. (The std
/// `Hasher` is explicitly not stable across releases; this is.)
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checksum of an entry payload: FNV-1a's xor-multiply step taken a
/// 64-bit little-endian word at a time (the tail zero-padded), seeded
/// with the length and folded at the end.
///
/// Each step is a bijection of the running state for a fixed word, so
/// any change confined to one word — in particular every single-byte
/// flip — always changes the result. Eight bytes per multiply make it
/// several times faster than byte-wise [`fnv64`] over the same payload.
/// [`Checksum64`] computes the same value over bytes that arrive in
/// pieces.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::new(bytes.len() as u64);
    sum.update(bytes);
    sum.finish()
}

/// [`checksum64`] of a payload fed in pieces of any size, seeded with
/// the payload's length up front: a store write folds the payload as it
/// serializes it and a store read as it reads it, with no copy of it
/// whole. As an [`std::io::Write`] it consumes every byte it is given.
#[derive(Debug, Clone)]
pub struct Checksum64 {
    h: u64,
    /// Bytes of a word not yet complete.
    tail: [u8; 8],
    filled: usize,
}

impl Checksum64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A checksum of a payload of `len` bytes, none fed yet.
    pub fn new(len: u64) -> Self {
        Checksum64 { h: 0xcbf2_9ce4_8422_2325 ^ len, tail: [0; 8], filled: 0 }
    }

    fn step(&mut self, word: [u8; 8]) {
        self.h = (self.h ^ u64::from_le_bytes(word)).wrapping_mul(Self::PRIME);
    }

    /// Feeds the next bytes of the payload.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.filled > 0 {
            let take = bytes.len().min(8 - self.filled);
            self.tail[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 8 {
                return;
            }
            self.step(self.tail);
            self.filled = 0;
        }
        let mut words = bytes.chunks_exact(8);
        let mut h = self.h;
        for word in &mut words {
            h = (h ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk")))
                .wrapping_mul(Self::PRIME);
        }
        self.h = h;
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// The checksum of the bytes fed.
    pub fn finish(mut self) -> u64 {
        self.tail[self.filled..].fill(0);
        self.step(self.tail);
        self.h ^ self.h >> 32
    }
}

impl std::io::Write for Checksum64 {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Counts the bytes written to it: the length pass of a store write.
#[derive(Debug, Default)]
struct ByteCount(u64);

impl std::io::Write for ByteCount {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0 += bytes.len() as u64;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Hit/miss/robustness counters for one [`RunStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk (work skipped).
    pub hits: u64,
    /// Lookups that found no usable entry (work performed, then stored).
    pub misses: u64,
    /// Corrupt or stale entries renamed aside and recomputed.
    pub quarantined: u64,
    /// Entry writes that failed (store skipped, run unaffected).
    pub write_errors: u64,
}

/// On-disk footprint of one entry kind (see [`RunStore::disk_usage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindUsage {
    /// Entry kind (`run` / `window` / `cost` / `stream`).
    pub kind: String,
    /// Number of `.entry` files.
    pub entries: u64,
    /// Total bytes of those entries.
    pub bytes: u64,
}

/// Disk-usage summary of one store's version directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskUsage {
    /// Per-kind entry counts and sizes, sorted by kind name.
    pub kinds: Vec<KindUsage>,
    /// `*.quarantined` files still awaiting inspection.
    pub quarantined: u64,
}

/// Deletes `*.quarantined` files left under version directories older
/// than `current`. Their schema is gone, so the evidence can never be
/// re-examined against live code, and without a sweep every bump leaves
/// them accumulating forever. Quarantined files of the *current*
/// version are kept — they are the inspectable evidence of recent
/// corruption. Best-effort: IO failures leave files for the next open.
fn sweep_stale_quarantine(root: &Path, current: u32) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for dir in entries.flatten() {
        let name = dir.file_name();
        let version =
            name.to_str().and_then(|n| n.strip_prefix('v')).and_then(|n| n.parse::<u32>().ok());
        let Some(v) = version else { continue };
        if v >= current {
            continue;
        }
        let Ok(kinds) = std::fs::read_dir(dir.path()) else {
            continue;
        };
        for kind in kinds.flatten() {
            let Ok(files) = std::fs::read_dir(kind.path()) else {
                continue;
            };
            for f in files.flatten() {
                if f.file_name().to_string_lossy().ends_with(".quarantined") {
                    let _ = std::fs::remove_file(f.path());
                }
            }
        }
    }
}

/// The header of an entry file; the payload bytes follow it.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct EntryHeader {
    /// Schema version the entry was written under.
    version: u32,
    /// Cache layer (`stream` / `run` / `window` / `cost`).
    kind: String,
    /// Full key text (collision + identity check).
    key: String,
    /// Payload length in bytes.
    len: u64,
    /// [`checksum64`] of the payload.
    checksum: u64,
}

/// A persistent result store rooted at one directory.
///
/// Thread-safe: lookups and writes touch disjoint files per key, writes
/// are atomic renames, and counters are atomics. Multiple processes may
/// share one root concurrently; the worst race outcome is both
/// computing and one `rename` winning, which is harmless because runs
/// are deterministic.
pub struct RunStore {
    /// `<root>/v<version>` — the directory all entries live under.
    vdir: PathBuf,
    version: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
    write_errors: AtomicU64,
    tmp_counter: AtomicU64,
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("vdir", &self.vdir)
            .field("version", &self.version)
            .field("stats", &self.stats())
            .finish()
    }
}

impl RunStore {
    /// Opens (creating if needed) the store rooted at `root`, under the
    /// current [`SCHEMA_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from creating the version
    /// directory.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_version(root, SCHEMA_VERSION)
    }

    /// Opens the store under an explicit schema version.
    ///
    /// Intended for tests (schema-invalidation coverage) and future
    /// migration tooling; normal callers use [`RunStore::open`].
    ///
    /// # Errors
    ///
    /// Returns the [`std::io::Error`] from creating the version
    /// directory.
    pub fn open_with_version(root: impl AsRef<Path>, version: u32) -> std::io::Result<Self> {
        let vdir = root.as_ref().join(format!("v{version}"));
        std::fs::create_dir_all(&vdir)?;
        sweep_stale_quarantine(root.as_ref(), version);
        Ok(RunStore {
            vdir,
            version,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The version directory entries live under.
    pub fn dir(&self) -> &Path {
        &self.vdir
    }

    /// Scans the version directory and reports entries/bytes per kind
    /// plus the number of quarantined files awaiting inspection — the
    /// `store-stats` maintenance view. Purely observational (no counter
    /// changes); IO errors degrade to an empty report rather than
    /// failing, like every other store path.
    pub fn disk_usage(&self) -> DiskUsage {
        let mut usage = DiskUsage::default();
        let Ok(kinds) = std::fs::read_dir(&self.vdir) else {
            return usage;
        };
        for kind_dir in kinds.flatten() {
            if !kind_dir.path().is_dir() {
                continue;
            }
            let kind = kind_dir.file_name().to_string_lossy().into_owned();
            let mut ku = KindUsage { kind, entries: 0, bytes: 0 };
            let Ok(files) = std::fs::read_dir(kind_dir.path()) else {
                continue;
            };
            for f in files.flatten() {
                let path = f.path();
                let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
                let Some(name) = name else { continue };
                if name.ends_with(".quarantined") {
                    usage.quarantined += 1;
                } else if name.ends_with(".entry") {
                    ku.entries += 1;
                    ku.bytes += f.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
            usage.kinds.push(ku);
        }
        usage.kinds.sort_by(|a, b| a.kind.cmp(&b.kind));
        usage
    }

    /// Snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, kind: &str, key_text: &str) -> PathBuf {
        self.vdir.join(kind).join(format!("{:016x}.entry", fnv64(key_text.as_bytes())))
    }

    /// Looks up `key_text` in layer `kind` (`stream`, `run`, `window` or
    /// `cost`). Counts a hit or a miss; a corrupt entry is quarantined
    /// (renamed aside) and counted as both `quarantined` and a miss.
    ///
    /// The entry file is read once, through a bounded buffer: the header
    /// first, then the payload, which is checksummed as it streams past
    /// and checked before any field of the value is read. The value's
    /// [`serde::SharedBytes`] fields — a stream's chunks — are spans of
    /// the entry file, which stays open as long as they live; every other
    /// field is read into memory.
    pub fn get<T>(&self, kind: &str, key_text: &str) -> Option<T>
    where
        T: for<'de> serde::Deserialize<'de>,
    {
        let path = self.entry_path(kind, key_text);
        let Ok(file) = std::fs::File::open(&path) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.parse_entry(kind, key_text, file) {
            Ok(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(why) => {
                self.quarantine(&path, &why);
                None
            }
        }
    }

    /// Quarantines the entry of `key_text` in layer `kind` whose value
    /// [`RunStore::get`] served, after a check only its use can make
    /// failed: a stored event stream whose chunks fail to replay, or can
    /// no longer be read from its entry file. The lookup is then counted
    /// exactly as a quarantine inside `get`: a miss and a quarantine, not
    /// a hit.
    pub(crate) fn reject(&self, kind: &str, key_text: &str, why: &dyn std::fmt::Display) {
        self.quarantine(&self.entry_path(kind, key_text), why);
        self.hits.fetch_sub(1, Ordering::Relaxed);
    }

    /// Moves the bad entry at `path` aside (best effort) so the slot is
    /// free for the recomputed value and the evidence stays inspectable,
    /// and counts it as quarantined and a miss.
    fn quarantine(&self, path: &Path, why: &dyn std::fmt::Display) {
        let mut quarantine = path.to_owned().into_os_string();
        quarantine.push(".quarantined");
        let _ = std::fs::rename(path, &quarantine);
        eprintln!(
            "vstress store: quarantined {} ({why})",
            path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
        );
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn parse_entry<T>(&self, kind: &str, key_text: &str, file: File) -> Result<T, serde::Error>
    where
        T: for<'de> serde::Deserialize<'de>,
    {
        let io = |e: std::io::Error| serde::Error::new(format!("reading the entry: {e}"));
        let file_len = file.metadata().map_err(io)?.len();
        let mut head = vec![0; HEADER_BYTES.min(file_len as usize)];
        file.read_exact_at(&mut head, 0).map_err(io)?;
        let mut d = serde::Deserializer::binary(&head);
        let header = <EntryHeader as serde::Deserialize>::deserialize(&mut d)?;
        let header_len = (head.len() - d.remaining().len()) as u64;
        if header.version != self.version {
            return Err(serde::Error::new(format!(
                "schema version {} (store is v{})",
                header.version, self.version
            )));
        }
        if header.kind != kind {
            return Err(serde::Error::new(format!("kind {:?}, expected {kind:?}", header.kind)));
        }
        if header.key != key_text {
            return Err(serde::Error::new("key text mismatch (hash collision?)"));
        }
        let payload_len = file_len - header_len;
        if payload_len != header.len {
            return Err(serde::Error::new(format!(
                "payload is {payload_len} bytes, header says {}",
                header.len
            )));
        }
        let mut sum = Checksum64::new(payload_len);
        let mut read = 0;
        let input = serde::SparseInput::read(Arc::new(file), header_len, |bytes| {
            sum.update(bytes);
            read += bytes.len() as u64;
        })?;
        if read != payload_len {
            return Err(serde::Error::new(format!("payload changed size to {read} bytes")));
        }
        if sum.finish() != header.checksum {
            return Err(serde::Error::new("payload checksum mismatch"));
        }
        let mut d = serde::Deserializer::sparse(&input);
        let value = T::deserialize(&mut d)?;
        d.end()?;
        Ok(value)
    }

    /// Stores `value` under `key_text` in layer `kind` via an atomic
    /// temp-file + rename. Failures only bump `write_errors`: the store
    /// is an optimization and must never fail a run.
    ///
    /// The payload is serialized three times, and never held whole: once
    /// to count its bytes, once to checksum them, and once into the temp
    /// file through the serializer's bounded spill buffer.
    pub fn put<T: serde::Serialize>(&self, kind: &str, key_text: &str, value: &T) {
        let mut len = ByteCount::default();
        let written = serde::to_writer(value, &mut len).and_then(|()| {
            let mut sum = Checksum64::new(len.0);
            serde::to_writer(value, &mut sum)?;
            let header = serde::to_bytes(&EntryHeader {
                version: self.version,
                kind: kind.to_owned(),
                key: key_text.to_owned(),
                len: len.0,
                checksum: sum.finish(),
            });
            self.write_atomic(&self.entry_path(kind, key_text), |f| {
                f.write_all(&header)?;
                serde::to_writer(value, f)
            })
        });
        if written.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes a file to `path` atomically: `write` fills a temp file in
    /// the same directory, which is then renamed into place.
    fn write_atomic(
        &self,
        path: &Path,
        write: impl FnOnce(&mut File) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let dir = path.parent().expect("entry paths always have a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let written = File::create(&tmp).and_then(|mut f| write(&mut f));
        let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vstress-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum_catches_every_byte_flip_and_truncation() {
        type Value = (Vec<f64>, String, u64);
        let root = tmp_root("checksum");
        let store = RunStore::open(&root).unwrap();
        let value: Value = (vec![1.5, -2.0], "small entry".to_owned(), 7);
        store.put(KIND_RUN, "k", &value);
        let path = store.entry_path(KIND_RUN, "k");
        let entry = std::fs::read(&path).unwrap();
        let mut d = serde::Deserializer::binary(&entry);
        let header: EntryHeader = serde::Deserialize::deserialize(&mut d).unwrap();
        let payload = d.remaining();
        assert_eq!(checksum64(payload), header.checksum);

        let mut flipped = payload.to_vec();
        for i in 0..payload.len() {
            for bits in 1..=255u8 {
                flipped[i] ^= bits;
                assert_ne!(checksum64(&flipped), header.checksum, "byte {i} ^ {bits:#x}");
                flipped[i] ^= bits;
            }
        }
        for cut in 0..payload.len() {
            assert_ne!(checksum64(&payload[..cut]), header.checksum, "payload prefix {cut}");
        }

        // End to end: no truncation of the entry file is ever served.
        for cut in 0..entry.len() {
            std::fs::write(&path, &entry[..cut]).unwrap();
            assert_eq!(store.get::<Value>(KIND_RUN, "k"), None, "entry prefix {cut}");
        }
        assert_eq!(store.stats().quarantined, entry.len() as u64);
        std::fs::write(&path, &entry).unwrap();
        assert_eq!(store.get::<Value>(KIND_RUN, "k"), Some(value));
        let _ = std::fs::remove_dir_all(&root);
    }

    mod checksum {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Fed in two pieces split anywhere — on a word boundary or
            /// not — or in many pieces of random sizes, the incremental
            /// checksum is [`checksum64`] of the whole.
            #[test]
            fn incremental_checksum_equals_checksum64_at_every_split(
                bytes in prop::collection::vec(any::<u8>(), 0..80),
                pieces in prop::collection::vec(0usize..20, 0..12),
            ) {
                let whole = checksum64(&bytes);
                for split in 0..=bytes.len() {
                    let mut sum = Checksum64::new(bytes.len() as u64);
                    sum.update(&bytes[..split]);
                    sum.update(&bytes[split..]);
                    prop_assert_eq!(sum.finish(), whole, "split at {}", split);
                }
                let mut sum = Checksum64::new(bytes.len() as u64);
                let mut rest = &bytes[..];
                for n in pieces {
                    let (piece, tail) = rest.split_at(n.min(rest.len()));
                    sum.update(piece);
                    rest = tail;
                }
                sum.update(rest);
                prop_assert_eq!(sum.finish(), whole);
            }
        }
    }

    #[test]
    fn put_writes_the_bytes_of_a_whole_payload_envelope() {
        // The streamed write equals the envelope built from one payload
        // buffer, byte for byte: many small tokens, and chunks larger
        // than the spill buffer.
        use vstress_trace::Probe as _;
        let mut rec = vstress_trace::StreamRecorder::new().with_chunk_target(100_000);
        let mut x = 1u64;
        for _ in 0..100_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rec.branch(x >> 16, x & 1 == 1);
        }
        let value = ((0..20_000).collect::<Vec<u64>>(), rec.finish().0);
        assert!(value.1.chunks().len() > 3);
        let root = tmp_root("streamed-put");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_STREAM, "k", &value);
        let payload = serde::to_bytes(&value);
        let mut expected = serde::to_bytes(&EntryHeader {
            version: SCHEMA_VERSION,
            kind: KIND_STREAM.to_owned(),
            key: "k".to_owned(),
            len: payload.len() as u64,
            checksum: checksum64(&payload),
        });
        expected.extend_from_slice(&payload);
        assert_eq!(std::fs::read(store.entry_path(KIND_STREAM, "k")).unwrap(), expected);
        let back: (Vec<u64>, vstress_trace::EventStream) = store.get(KIND_STREAM, "k").unwrap();
        assert_eq!(back, value);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_headers_are_quarantined() {
        let root = tmp_root("header");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "k", &5u64);
        let path = store.entry_path(KIND_RUN, "k");
        let good = std::fs::read_to_string(&path).unwrap();
        assert!(good.starts_with("tEntryHeader u4 s3:run s1:k u3 u"), "{good:?}");
        let huge = u64::MAX;
        let bad = [
            good.replacen("tEntryHeader u4 ", "tEntryHeader u99 ", 1),
            good.replacen("s3:run", &format!("s{huge}:run"), 1),
            good.replacen("s1:k", &format!("s{}:k", usize::MAX / 2), 1),
            good.replacen("s1:k u3 ", &format!("s1:k u{huge} "), 1),
            good.replacen("s1:k u3 ", "s1:k u2 ", 1),
            "\0\x7f not an entry".to_owned(),
            String::new(),
        ];
        for (i, text) in bad.iter().enumerate() {
            assert_ne!(*text, good, "case {i} must change the entry");
            std::fs::write(&path, text).unwrap();
            assert_eq!(store.get::<u64>(KIND_RUN, "k"), None, "case {i}");
        }
        assert_eq!(store.stats().quarantined, bad.len() as u64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn roundtrip_and_counters() {
        let root = tmp_root("roundtrip");
        let store = RunStore::open(&root).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), None);
        store.put(KIND_RUN, "k", &42u64);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(42));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.quarantined, s.write_errors), (1, 1, 0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn kinds_are_disjoint() {
        let root = tmp_root("kinds");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "k", &1u64);
        assert_eq!(store.get::<u64>(KIND_WINDOW, "k"), None);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_fatal() {
        let root = tmp_root("corrupt");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "k", &7u64);
        let path = store.entry_path(KIND_RUN, "k");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(store.stats().quarantined, 1);
        assert!(!path.exists(), "corrupt entry must be moved aside");
        let mut quarantined = path.into_os_string();
        quarantined.push(".quarantined");
        assert!(PathBuf::from(quarantined).exists());
        // The slot is writable again.
        store.put(KIND_RUN, "k", &7u64);
        assert_eq!(store.get::<u64>(KIND_RUN, "k"), Some(7));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn version_mismatch_rejects_copied_entries() {
        let root = tmp_root("version");
        let v1 = RunStore::open_with_version(&root, 1).unwrap();
        v1.put(KIND_RUN, "k", &9u64);
        // Different version: entries live in a different directory.
        let v2 = RunStore::open_with_version(&root, 2).unwrap();
        assert_eq!(v2.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(v2.stats().quarantined, 0, "absent, not corrupt");
        // An entry smuggled across version directories fails the
        // in-file version check and is quarantined.
        let from = v1.entry_path(KIND_RUN, "k");
        let to = v2.entry_path(KIND_RUN, "k");
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(&from, &to).unwrap();
        assert_eq!(v2.get::<u64>(KIND_RUN, "k"), None);
        assert_eq!(v2.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_quarantined_files_are_swept_on_open() {
        let root = tmp_root("sweep");
        // An old-version store quarantines a corrupted entry.
        let old = RunStore::open_with_version(&root, SCHEMA_VERSION - 1).unwrap();
        old.put(KIND_RUN, "k", &1u64);
        let path = old.entry_path(KIND_RUN, "k");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(old.get::<u64>(KIND_RUN, "k"), None);
        let mut stale = path.into_os_string();
        stale.push(".quarantined");
        let stale = PathBuf::from(stale);
        assert!(stale.exists());
        drop(old);

        // Opening the current version deletes the stale quarantine file
        // (its schema can never be re-examined) …
        let cur = RunStore::open(&root).unwrap();
        assert!(!stale.exists(), "stale quarantined file must be swept");

        // … but current-version quarantine evidence survives reopens.
        cur.put(KIND_RUN, "k", &2u64);
        let path = cur.entry_path(KIND_RUN, "k");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(cur.get::<u64>(KIND_RUN, "k"), None);
        drop(cur);
        let again = RunStore::open(&root).unwrap();
        let mut kept = again.entry_path(KIND_RUN, "k").into_os_string();
        kept.push(".quarantined");
        assert!(PathBuf::from(kept).exists(), "current-version evidence is kept");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_usage_reports_kinds_and_quarantine() {
        let root = tmp_root("usage");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "a", &1u64);
        store.put(KIND_RUN, "b", &2u64);
        store.put(KIND_COST, "c", &3u64);
        // Corrupt one run entry so a read quarantines it.
        let path = store.entry_path(KIND_RUN, "a");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "a"), None);

        let u = store.disk_usage();
        assert_eq!(u.quarantined, 1);
        let kinds: Vec<&str> = u.kinds.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(kinds, ["cost", "run"], "sorted by kind name");
        let run = u.kinds.iter().find(|k| k.kind == "run").unwrap();
        assert_eq!(run.entries, 1, "quarantined files are not entries");
        assert!(run.bytes > 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_key_same_hash_slot_is_rejected() {
        let root = tmp_root("keycheck");
        let store = RunStore::open(&root).unwrap();
        store.put(KIND_RUN, "key-a", &1u64);
        // Force a lookup of a different key onto the same file by
        // copying the entry to key-b's address.
        let from = store.entry_path(KIND_RUN, "key-a");
        let to = store.entry_path(KIND_RUN, "key-b");
        std::fs::copy(&from, &to).unwrap();
        assert_eq!(store.get::<u64>(KIND_RUN, "key-b"), None);
        assert_eq!(store.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
