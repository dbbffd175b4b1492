//! Persistent run-store integration tests: cross-process reuse,
//! corruption recovery, and schema-version invalidation.
//!
//! "Cross-process" is modelled by dropping every piece of in-memory
//! state (the `RunCache` and the `RunStore` handle) and reopening the
//! same directory with fresh ones — exactly what a second
//! `vstress-repro --store` invocation does.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vstress::codecs::{CodecId, EncoderParams};
use vstress::exec::store::checksum64;
use vstress::workbench::RunSpec;
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
fn fresh_cache(root: &PathBuf) -> RunCache {
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
