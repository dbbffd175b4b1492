//! Persistent run-store integration tests: cross-process reuse,
//! corruption recovery, and schema-version invalidation.
//!
//! "Cross-process" is modelled by dropping every piece of in-memory
//! state (the `RunCache` and the `RunStore` handle) and reopening the
//! same directory with fresh ones — exactly what a second
//! `vstress-repro --store` invocation does.

use std::path::{Path, PathBuf};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;
use vstress::codecs::{CodecId, EncoderParams};
use vstress::exec::store::{checksum64, KIND_STREAM};
use vstress::workbench::{CapturedEncode, CharacterizationRun, RunSpec};
use vstress::{RunCache, RunStore};

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstress-store-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> RunSpec {
    RunSpec::quick("cat", CodecId::X264, EncoderParams::new(30, 5))
}

/// A cache with all process state dropped, reattached to `root`.
fn fresh_cache(root: &Path) -> RunCache {
    RunCache::with_store(Arc::new(RunStore::open(root).unwrap()))
}

#[test]
fn reloaded_run_is_bit_identical() {
    let root = tmp_root("roundtrip");

    // Process 1: compute and persist.
    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    let s = first.stats();
    // Two misses: the run entry and the capture's stream entry.
    assert_eq!((s.store_hits, s.store_misses), (0, 2));
    assert_eq!(s.encodes, 1);
    drop(first);

    // Process 2: a brand-new cache + store over the same directory must
    // serve the run from disk, bit-identically, without encoding.
    let second = fresh_cache(&root);
    let reloaded = second.run(&spec()).unwrap();
    assert_eq!(*reloaded, *computed, "reloaded run must be bit-identical");
    let s = second.stats();
    assert_eq!((s.store_hits, s.store_misses), (1, 0));
    assert_eq!(s.clip_misses, 0, "a store-served run never synthesizes the clip");
    assert_eq!(s.encodes, 0, "a warm store means zero encodes");
    assert_eq!(s.stream_captures, 0, "…and zero stream recaptures");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn window_and_cost_layers_reload() {
    let root = tmp_root("layers");

    let first = fresh_cache(&root);
    let window = first.branch_window(&spec(), 10_000).unwrap();
    let cost = first.encode_decode_cost(&spec()).unwrap();
    let s = first.stats();
    // Window, cost and the shared stream entry miss; the cost derivation
    // reuses the window's in-memory capture, so one encode serves both.
    assert_eq!((s.store_hits, s.store_misses), (0, 3));
    assert_eq!(s.encodes, 1);
    drop(first);

    let second = fresh_cache(&root);
    assert_eq!(*second.branch_window(&spec(), 10_000).unwrap(), *window);
    assert_eq!(*second.encode_decode_cost(&spec()).unwrap(), *cost);
    let s = second.stats();
    // The capture's stream was persisted too, but a full window or cost
    // hit never needs it: both lookups are pure store hits.
    assert_eq!((s.store_hits, s.store_misses), (2, 0));
    assert_eq!(s.clip_misses, 0);
    assert_eq!(s.encodes, 0);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_entry_is_quarantined_and_recomputed() {
    let root = tmp_root("corruption");

    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    drop(first);

    // Truncate the single stored run entry in place.
    let store = RunStore::open(&root).unwrap();
    let run_dir = store.dir().join("run");
    let entries: Vec<PathBuf> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1);
    let text = std::fs::read_to_string(&entries[0]).unwrap();
    std::fs::write(&entries[0], &text[..text.len() / 3]).unwrap();
    drop(store);

    // The next process recovers: quarantine + recompute, not a failure.
    let second = fresh_cache(&root);
    let recomputed = second.run(&spec()).unwrap();
    assert_eq!(*recomputed, *computed, "recompute must reproduce the run");
    let s = second.stats();
    assert_eq!(s.store_quarantined, 1);
    // The run entry misses (quarantined), but the stream entry from
    // process 1 is intact and serves the recompute — capture once.
    assert_eq!((s.store_hits, s.store_misses), (1, 1));
    assert_eq!(s.encodes, 0, "the persisted stream makes the recompute encode-free");
    assert!(entries[0].exists(), "the recomputed entry is re-stored at the same address");
    let quarantined: Vec<PathBuf> = std::fs::read_dir(&run_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".quarantined"))
        .collect();
    assert_eq!(quarantined.len(), 1, "the evidence stays inspectable");

    // And the recomputed entry serves the third process from disk.
    let third = fresh_cache(&root);
    assert_eq!(*third.run(&spec()).unwrap(), *computed);
    assert_eq!(third.stats().store_hits, 1);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn schema_version_bump_invalidates_old_entries() {
    let root = tmp_root("schema");

    // Persist under the current schema version.
    let current = fresh_cache(&root);
    current.run(&spec()).unwrap();
    drop(current);

    // A future schema version sees an empty store (different directory)
    // and recomputes without touching the old entries.
    let next_version = vstress::SCHEMA_VERSION + 1;
    let bumped =
        RunCache::with_store(Arc::new(RunStore::open_with_version(&root, next_version).unwrap()));
    bumped.run(&spec()).unwrap();
    let s = bumped.stats();
    assert_eq!((s.store_hits, s.store_misses), (0, 2));
    assert_eq!(s.store_quarantined, 0, "absent is not corrupt");
    drop(bumped);

    // Both version directories now hold their own entry; the old one is
    // still valid for the old version.
    let old_again = fresh_cache(&root);
    old_again.run(&spec()).unwrap();
    assert_eq!(old_again.stats().store_hits, 1);

    let _ = std::fs::remove_dir_all(&root);
}

/// Mirror of the store's entry header (see `vstress::exec::store`), so a
/// test can forge an entry whose length and checksum still match.
#[derive(serde::Serialize, serde::Deserialize)]
struct EntryHeader {
    version: u32,
    kind: String,
    key: String,
    len: u64,
    checksum: u64,
}

/// Rewrites the entry at `path` with its payload passed through `edit`
/// and the header's length and checksum recomputed, so the damage gets
/// past the envelope checks and reaches the payload decoder.
fn reseal(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let data = std::fs::read(path).unwrap();
    let mut d = serde::Deserializer::binary(&data);
    let mut header: EntryHeader = serde::Deserialize::deserialize(&mut d).unwrap();
    let mut payload = d.remaining().to_vec();
    edit(&mut payload);
    header.len = payload.len() as u64;
    header.checksum = checksum64(&payload);
    let mut entry = serde::to_bytes(&header);
    entry.extend_from_slice(&payload);
    std::fs::write(path, entry).unwrap();
}

/// In a stored capture's payload, the byte range of the first stream
/// chunk's length digits (`x<len>:`) and the offset of its first byte.
fn first_chunk(payload: &[u8]) -> (std::ops::Range<usize>, usize) {
    // Only the clip name and integer tokens come before the first chunk.
    let digits = payload.windows(2).position(|w| w == b" x").expect("a chunk token") + 2;
    let colon = digits + payload[digits..].iter().position(|&b| b == b':').unwrap();
    (digits..colon, colon + 1)
}

#[test]
fn corrupt_stream_entries_are_quarantined_and_recaptured() {
    let root = tmp_root("stream-corruption");

    // Process 1 captures and stores; dropping the run entry leaves a
    // stream-only store, so the next run must load the stream.
    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    drop(first);
    let store = RunStore::open(&root).unwrap();
    let (run_dir, stream_dir) = (store.dir().join("run"), store.dir().join("stream"));
    drop(store);
    let entries: Vec<PathBuf> = std::fs::read_dir(&stream_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1);
    let path = &entries[0];
    let pristine = std::fs::read(path).unwrap();

    type Corruption = fn(&Path);
    let cases: [(&str, Corruption); 4] = [
        ("truncated", |p| {
            let data = std::fs::read(p).unwrap();
            std::fs::write(p, &data[..data.len() * 2 / 3]).unwrap();
        }),
        ("one flipped payload byte", |p| {
            let mut data = std::fs::read(p).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0x10;
            std::fs::write(p, data).unwrap();
        }),
        ("chunk length u64::MAX", |p| {
            reseal(p, |payload| {
                let (digits, _) = first_chunk(payload);
                payload.splice(digits, u64::MAX.to_string().into_bytes());
            })
        }),
        ("bad opcode under a valid checksum", |p| {
            reseal(p, |payload| {
                let (_, start) = first_chunk(payload);
                payload[start] = 0x07;
            })
        }),
    ];
    for (what, corrupt) in cases {
        let _ = std::fs::remove_dir_all(&run_dir);
        std::fs::write(path, &pristine).unwrap();
        corrupt(path);
        assert_ne!(std::fs::read(path).unwrap(), pristine, "{what}: the entry must change");

        let cache = fresh_cache(&root);
        let run = cache.run(&spec()).unwrap();
        assert_eq!(*run, *computed, "{what}: the recapture must reproduce the run");
        let s = cache.stats();
        assert_eq!(s.store_quarantined, 1, "{what}");
        assert_eq!((s.store_hits, s.store_misses), (0, 2), "{what}");
        assert_eq!((s.encodes, s.stream_captures), (1, 1), "{what}: the stream is recaptured");
        drop(cache);
        assert_eq!(std::fs::read(path).unwrap(), pristine, "{what}: the recapture is re-stored");
        let mut quarantined = path.clone().into_os_string();
        quarantined.push(".quarantined");
        assert!(PathBuf::from(quarantined).exists(), "{what}: the evidence stays inspectable");
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// The single `stream` entry under `root`.
fn stream_entry(root: &Path) -> PathBuf {
    let store = RunStore::open(root).unwrap();
    let entries: Vec<PathBuf> = std::fs::read_dir(store.dir().join("stream"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    assert_eq!(entries.len(), 1);
    entries[0].clone()
}

/// In a stored capture's payload, the offset of the last stream chunk's
/// first byte, and the number of chunks.
fn last_chunk(payload: &[u8]) -> (usize, usize) {
    let mut d = serde::Deserializer::binary(payload);
    d.read_str().unwrap(); // clip name
    d.read_u64().unwrap(); // stream format version
    d.read_u64().unwrap(); // event count
    let chunks = d.read_seq_len().unwrap();
    let mut start = 0;
    for _ in 0..chunks {
        start = d.read_bytes().unwrap().as_ptr() as usize - payload.as_ptr() as usize;
    }
    (start, chunks)
}

/// Writes opcode 7 over the first byte of the last chunk of the stream
/// entry at `path`, under a valid checksum: the entry loads, and only
/// the decode of the stream's last chunk can tell.
fn break_last_chunk(path: &Path) {
    reseal(path, |payload| {
        let (start, chunks) = last_chunk(payload);
        assert!(chunks >= 2, "{chunks} chunks: the last one must not be the first");
        payload[start] = 0x07;
    });
}

#[test]
fn stored_stream_chunks_are_spans_of_the_entry_file() {
    let root = tmp_root("file-spans");
    fresh_cache(&root).run(&spec()).unwrap();
    let path = stream_entry(&root);
    let data = std::fs::read(&path).unwrap();
    let mut d = serde::Deserializer::binary(&data);
    let header: EntryHeader = serde::Deserialize::deserialize(&mut d).unwrap();
    let in_memory: CapturedEncode = serde::from_bytes(d.remaining()).unwrap();

    let store = RunStore::open(&root).unwrap();
    let cap: CapturedEncode = store.get(KIND_STREAM, &header.key).unwrap();
    let chunks = cap.stream.chunks();
    assert!(chunks.len() > 1, "{} chunks", chunks.len());
    // No chunk is held in memory: each is read from the file when used,
    // and holds the bytes the entry holds.
    assert!(chunks.iter().all(|c| c.as_slice().is_none()), "a chunk was copied at load");
    assert_eq!(cap, in_memory);
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `test` on a thread of its own and fails it if it takes longer
/// than `limit`: a replay wedged on a damaged entry file must fail the
/// suite, not hang it.
fn within(limit: Duration, test: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("the test took longer than {limit:?}");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

/// Generous for a debug build on a busy machine; a wedged replay never
/// ends.
const TEST_LIMIT: Duration = Duration::from_secs(600);

/// A stream-only store under `root` holding `spec()`'s capture, and the
/// run a cold cache computes from it.
fn stream_only_store(root: &Path) -> Arc<CharacterizationRun> {
    let computed = fresh_cache(root).run(&spec()).unwrap();
    let _ = std::fs::remove_dir_all(RunStore::open(root).unwrap().dir().join("run"));
    computed
}

#[test]
fn stream_entry_cut_short_after_load_is_quarantined_and_recaptured() {
    let root = tmp_root("cut-after-load");
    let computed = stream_only_store(&root);
    let path = stream_entry(&root);
    let pristine = std::fs::read(&path).unwrap();
    within(TEST_LIMIT, move || {
        let cache = fresh_cache(&root);
        // The window's replay loads the stream and checks all of it; the
        // capture stays in memory, its chunks spans of the entry file.
        cache.branch_window(&spec(), 10_000).unwrap();
        // Cut the entry file in place, under the loaded stream.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(pristine.len() as u64 / 2).unwrap();
        drop(file);

        // The run's replay finds chunks the file no longer holds: the
        // entry is quarantined and the stream recaptured, once.
        let run = cache.run(&spec()).unwrap();
        assert_eq!(*run, *computed, "the recapture must reproduce the run");
        let s = cache.stats();
        assert_eq!(s.store_quarantined, 1);
        assert_eq!((s.store_hits, s.store_misses), (0, 3), "the stream lookup is not a hit");
        assert_eq!((s.encodes, s.stream_captures), (1, 1), "the stream is recaptured once");
        drop(cache);
        assert_eq!(std::fs::read(&path).unwrap(), pristine, "the recapture is re-stored");
        let _ = std::fs::remove_dir_all(&root);
    });
}

#[test]
fn stream_entry_renamed_over_after_load_keeps_serving_its_bytes() {
    let root = tmp_root("renamed-after-load");
    let computed = stream_only_store(&root);
    let path = stream_entry(&root);
    within(TEST_LIMIT, move || {
        let cache = fresh_cache(&root);
        cache.branch_window(&spec(), 10_000).unwrap();
        // Replace the entry by rename, as a store write does: the open
        // file keeps the bytes it was loaded from.
        let other = path.with_extension("replacement");
        std::fs::write(&other, b"not an entry").unwrap();
        std::fs::rename(&other, &path).unwrap();

        let run = cache.run(&spec()).unwrap();
        assert_eq!(*run, *computed, "the loaded stream replays its original bytes");
        let s = cache.stats();
        assert_eq!(s.store_quarantined, 0);
        assert_eq!((s.encodes, s.stream_captures), (0, 0), "nothing is recaptured");
        let _ = std::fs::remove_dir_all(&root);
    });
}

#[test]
fn bad_opcode_in_the_last_chunk_is_quarantined_and_recaptured() {
    let root = tmp_root("last-chunk-run");
    let first = fresh_cache(&root);
    let computed = first.run(&spec()).unwrap();
    drop(first);
    let path = stream_entry(&root);
    let pristine = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(RunStore::open(&root).unwrap().dir().join("run"));
    break_last_chunk(&path);

    // The stream loads; its replay fails at the last chunk, so the run
    // recaptures, exactly as for an entry quarantined at load.
    let cache = fresh_cache(&root);
    let run = cache.run(&spec()).unwrap();
    assert_eq!(*run, *computed, "the recapture must reproduce the run");
    let s = cache.stats();
    assert_eq!(s.store_quarantined, 1);
    assert_eq!((s.store_hits, s.store_misses), (0, 2), "the stream lookup is not a hit");
    assert_eq!((s.encodes, s.stream_captures), (1, 1), "the stream is recaptured once");
    drop(cache);
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "the recapture is re-stored");
    let mut quarantined = path.into_os_string();
    quarantined.push(".quarantined");
    assert!(PathBuf::from(quarantined).exists(), "the evidence stays inspectable");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn branch_window_over_a_bad_last_chunk_is_quarantined_and_recaptured() {
    let root = tmp_root("last-chunk-window");
    let first = fresh_cache(&root);
    let computed = first.branch_window(&spec(), 10_000).unwrap();
    drop(first);
    let path = stream_entry(&root);
    let pristine = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(RunStore::open(&root).unwrap().dir().join("window"));
    break_last_chunk(&path);

    // The window lies well before the last chunk, but the first replay of
    // a stored stream decodes all of it.
    let cache = fresh_cache(&root);
    let window = cache.branch_window(&spec(), 10_000).unwrap();
    assert_eq!(*window, *computed, "the recapture must reproduce the window");
    let s = cache.stats();
    assert_eq!(s.store_quarantined, 1);
    assert_eq!((s.store_hits, s.store_misses), (0, 2), "the stream lookup is not a hit");
    assert_eq!((s.encodes, s.stream_captures), (1, 1), "the stream is recaptured once");
    drop(cache);
    assert_eq!(std::fs::read(&path).unwrap(), pristine, "the recapture is re-stored");
    let _ = std::fs::remove_dir_all(&root);
}
