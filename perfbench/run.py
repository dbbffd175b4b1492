#!/usr/bin/env python3
"""End-to-end benchmark of `vstress-repro`.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 30 --trace 0

It builds the release `vstress-repro` and the `perfbench-trace` tracer
(`perfbench/tracer`), sets up, then times fresh `vstress-repro --quick`
processes until `--seconds` have passed. Every timed process must exit 0
and print stdout identical to the reference: the first cold quick-profile
run made by this build in this checkout. The last stdout line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
timed processes); with `--trace 1` they are the per-layer ones from one
run of the tracer (see `PER_LAYER` for what each should move).

`vstress-repro` takes no input seed: its inputs are the vbench clips
synthesised from `FidelityConfig` seed 0x5ee1, so `--seed` is recorded
but changes nothing.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

FIDELITY_SEED = 0x5EE1
# Every run is the quick profile in one process at 2 threads (the
# tracer's THREADS), with one worker per encode.
REPRO_ARGS = ["--quick", "--threads", "2", "--tile-workers", "1", "--frame-workers", "1"]
# Tables in the stdout of a whole quick run.
TABLES = 22
STATE = Path(".perfbench")
# The set-up fills a stream-only store from this slice of the quick
# profile, SETUP_REPS times; `setup_s` is the median.
SETUP_IDS = ["decode"]
SETUP_REPS = 3
# Stream-only stores kept under STATE, one per build of vstress-repro.
KEEP_STORES = 2
# Every program run is killed after this long; a run must end in 180 s.
PROCESS_TIMEOUT_S = 150

# Whether each workload re-simulates from a stream-only store. Why each
# workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {"repro-cold": False, "resim-store": True}

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# The tracer's experiment ids: vstress-repro's, in its order, one per runner call.
EXPERIMENT_IDS = [
    "table1", "fig01", "fig02", "table2", "fig03", "fig04-07", "fig08", "fig09",
    "fig10", "fig11", "fig12-15", "fig16", "decode", "profile",
]
# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("video.synth_s", "s", "lower", "wall_s on repro-cold; nothing on resim-store"),
    ("codecs.encodes", "count", "lower", "exact: 64 on repro-cold, 0 on resim-store"),
    ("codecs.encode_s", "s", "lower", "wall_s and cpu_s on repro-cold; nothing on resim-store"),
    ("codecs.encode_ns_per_instr", "ns", "lower", "as codecs.encode_s"),
    ("codecs.decode_s", "s", "lower", "wall_s on repro-cold (small)"),
    ("trace.record_s", "s", "lower", "wall_s and peak_rss_mb on repro-cold; setup_s"),
    ("trace.record_ns_per_event", "ns", "lower", "as trace.record_s"),
    ("trace.events", "count", "lower", "exact; peak_rss_mb on both"),
    ("trace.packed_mb", "MB", "lower", "exact; peak_rss_mb on both; store size on resim-store"),
    ("trace.bytes_per_event", "B", "lower", "exact; as trace.packed_mb"),
    ("trace.decode_s", "s", "lower", "wall_s on resim-store"),
    ("trace.decode_ns_per_event", "ns", "lower", "as trace.decode_s"),
    ("pipeline.model_s", "s", "lower", "wall_s on resim-store, cpu_s on repro-cold"),
    ("pipeline.ns_per_event", "ns", "lower", "as pipeline.model_s"),
    ("cache.hierarchy_s", "s", "lower", "as pipeline.model_s"),
    ("cache.accesses", "count", "lower", "exact; as pipeline.model_s"),
    ("cache.ns_per_access", "ns", "lower", "as pipeline.model_s"),
    ("bpred.cbp_s", "s", "lower", "wall_s on repro-cold and resim-store"),
    ("bpred.cbp_branches", "count", "lower", "exact; as bpred.cbp_s"),
    ("exec.serde_s", "s", "lower", "wall_s and peak_rss_mb on resim-store; setup_s"),
    ("exec.store_stream_mb", "MB", "lower", "exact; store size on resim-store"),
    ("exec.store_mb", "MB", "lower", "exact; store size after the run, 0 without a store"),
    ("exec.run_hit_ratio", "ratio", "higher", "exact; explains wall_s (a caching change)"),
    ("exec.capture_hit_ratio", "ratio", "higher", "exact; explains wall_s (a caching change)"),
    ("exec.store_hits", "count", "higher", "exact; explains wall_s on resim-store"),
    ("exec.store_misses", "count", "lower", "exact; explains wall_s on resim-store"),
    *[(f"experiments.{i}_s", "s", "lower", "splits wall_s on both") for i in EXPERIMENT_IDS],
    ("experiments.coverage", "ratio", "higher", "runner spans / experiment-pass wall; >= 0.95"),
    ("experiments.trace_overhead_s", "s", "lower", "experiment-pass wall minus untraced wall_s"),
    ("experiments.encode_points", "count", "lower", "exact; encode points of the workload"),
    ("experiments.layer_points", "count", "lower", "exact; encode points the layer pass times"),
]
# Per-layer metrics that are counts of work and must repeat exactly.
EXACT = [name for name, _, _, moves in PER_LAYER if moves.startswith("exact")]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics


def median(values):
    return statistics.median(values)


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def error_rate(attempted, failed):
    return failed / attempted


def derive_layers(raw, untraced_wall_s, store_mb):
    """Per-layer metrics from the tracer's raw spans and counts.

    A layer that replays a stream is timed with the stream decode inside
    it; its self time subtracts the bare decode (`stream_decode_s`).
    """
    events = max(raw["events"], 1)
    decode = raw["stream_decode_s"]
    record = raw["capture_s"] - raw["encode_s"]
    model = raw["consume_s"] - decode
    hierarchy = raw["hierarchy_total_s"] - decode

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "video.synth_s": raw["synth_s"],
        "codecs.encodes": raw["stats.encodes"],
        "codecs.encode_s": raw["encode_s"],
        "codecs.encode_ns_per_instr": raw["encode_s"] * 1e9 / max(raw["instructions"], 1),
        "codecs.decode_s": raw["bitstream_decode_s"],
        "trace.record_s": record,
        "trace.record_ns_per_event": record * 1e9 / events,
        "trace.events": raw["events"],
        "trace.packed_mb": raw["packed_bytes"] / 1e6,
        "trace.bytes_per_event": raw["packed_bytes"] / events,
        "trace.decode_s": decode,
        "trace.decode_ns_per_event": decode * 1e9 / events,
        "pipeline.model_s": model,
        "pipeline.ns_per_event": model * 1e9 / events,
        "cache.hierarchy_s": hierarchy,
        "cache.accesses": raw["accesses"],
        "cache.ns_per_access": hierarchy * 1e9 / max(raw["accesses"], 1),
        "bpred.cbp_s": raw["cbp_s"],
        "bpred.cbp_branches": raw["cbp_branches"],
        "exec.serde_s": raw["serde_s"],
        "exec.store_stream_mb": raw.get("store_stream_bytes", 0) / 1e6,
        "exec.store_mb": store_mb,
        "exec.run_hit_ratio": ratio(raw["stats.run_hits"], raw["stats.run_misses"]),
        "exec.capture_hit_ratio": ratio(raw["stats.capture_hits"], raw["stats.capture_misses"]),
        "exec.store_hits": raw["stats.store_hits"],
        "exec.store_misses": raw["stats.store_misses"],
        "experiments.coverage": raw["spans_s"] / raw["pass_s"],
        "experiments.trace_overhead_s": raw["pass_s"] - untraced_wall_s,
        "experiments.encode_points": raw["points"],
        "experiments.layer_points": raw["points_sampled"],
    }
    for i in EXPERIMENT_IDS:
        m[f"experiments.{i}_s"] = raw[f"span.{i}"]
    return m


def count_mismatches(counts, previous):
    """Names of exact counts that differ from an earlier traced run."""
    return sorted(k for k in counts if k in previous and counts[k] != previous[k])


# ------------------------------------------------------------------ processes


class Sample:
    def __init__(self, code, wall_s, cpu_s, rss_mb, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_process(cmd, work):
    """Runs `cmd` to completion; wall clock, CPU and peak RSS of the child."""
    work.mkdir(parents=True, exist_ok=True)
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out_path.read_bytes(),
        err_path.read_text(errors="replace"),
    )


def table_count(text):
    return text.count(b"\n## ") + text.startswith(b"## ")


def check_sample(sample, reference, tables, no_encodes):
    """Problems with one program run; an empty list means correct."""
    problems = []
    if sample.code != 0:
        problems.append(f"exit code {sample.code}")
    if table_count(sample.stdout) != tables:
        problems.append(f"stdout does not hold the {tables} expected tables")
    if reference is not None and sha256(sample.stdout) != reference:
        problems.append("stdout differs from the reference")
    if no_encodes and "work 0 encodes," not in sample.stderr:
        problems.append("the run encoded instead of reading stored streams")
    return problems


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = root / env["CARGO_TARGET_DIR"]
    # Branch PCs hash `file!()`. The repository's crates are path
    # dependencies of the tracer's workspace, so cargo hands rustc their
    # absolute paths; remapping the checkout prefix gives them the
    # relative paths, and so the PCs, of the repository's own build.
    remap = f"--remap-path-prefix={root.resolve()}/="
    for args in (
        ["-p", "vstress", "--bin", "vstress-repro"],
        ["--manifest-path", "perfbench/tracer/Cargo.toml",
         "--config", f"target.'cfg(all())'.rustflags = [{json.dumps(remap)}]"],
    ):
        r = subprocess.run(
            ["cargo", "build", "--release", "--offline", *args],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            raise SystemExit("perfbench: build failed")
    return target / "release" / "vstress-repro", target / "release" / "perfbench-trace"


# -------------------------------------------------------------------- set-up


def parse_store_stats(text):
    """`kind -> (entries, bytes)` from `vstress-repro store-stats` stdout."""
    kinds = {}
    for line in text.splitlines():
        cells = line.split()
        if len(cells) == 3 and cells[1].isdigit() and cells[2].isdigit():
            kinds[cells[0]] = (int(cells[1]), int(cells[2]))
    return kinds


def prune_to_streams(store):
    """Deletes every entry kind but `stream` from a store directory."""
    for vdir in store.glob("v*"):
        for kind in vdir.iterdir():
            if kind.is_dir() and kind.name != "stream":
                shutil.rmtree(kind)


def link_store(src, dst):
    """A fresh store sharing the entry files of `src` (hard links: entries
    are replaced by rename, never written in place)."""
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst, copy_function=os.link)


def dir_mb(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 1e6


def parse_encodes(stderr):
    """The encode count of `vstress-repro`'s `work N encodes` line, or None."""
    for line in stderr.splitlines():
        cells = line.split()
        if line.startswith("vstress-repro: work ") and cells[2].isdigit():
            return int(cells[2])
    return None


def fill_stream_store(repro, ids, store, work):
    """One cold `--store` run of `ids` (all when empty) into an empty
    store, pruned to its streams and checked. The run's encode count goes
    to `<store>/encodes` (outside the version directory, so the store
    ignores it). The store appears at `store` only if all of this
    succeeded; otherwise the run exits without a result. Returns the
    fill run, to be checked like a timed run."""
    tmp = store.with_name(store.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        s = run_process([str(repro), *REPRO_ARGS, "--store", str(tmp), *ids], work)
        encodes = parse_encodes(s.stderr)
        if s.code != 0 or not encodes:
            raise SystemExit(f"perfbench: filling {store} failed (exit {s.code})")
        prune_to_streams(tmp)
        (tmp / "encodes").write_text(str(encodes))
        check_stream_store(repro, tmp, work)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(store, ignore_errors=True)
    tmp.rename(store)
    return s


def prune_old_stores(keep):
    """Deletes the stream stores of older builds, keeping `keep` and the
    most recent others up to KEEP_STORES in all."""
    others = [p for p in STATE.glob("streams-*") if p.is_dir() and p != keep]
    others.sort(key=lambda p: p.stat().st_mtime, reverse=True)
    for old in others[KEEP_STORES - 1:]:
        shutil.rmtree(old, ignore_errors=True)


def time_setup(repro, work):
    """One set-up: fill a fresh stream-only store from SETUP_IDS and
    check it, as the resim-store fill does for the whole profile. This
    times the capture and store write path. Returns seconds."""
    store = work / "store"
    t0 = time.perf_counter()
    fill_stream_store(repro, SETUP_IDS, store, work)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(store)
    return elapsed


def check_stream_store(repro, store, work):
    """Checks, through `RunStore::disk_usage` (the `store-stats` report),
    that the store holds only `stream` entries, one per encode of its
    fill run."""
    encodes = int((store / "encodes").read_text())
    stats = run_process([str(repro), "--store", str(store), "store-stats"], work)
    kinds = parse_store_stats(stats.stdout.decode())
    kinds = {k: v for k, v in kinds.items() if k != "(quarantined)" and v[0] > 0}
    if list(kinds) != ["stream"] or kinds["stream"][0] != encodes:
        raise SystemExit(
            f"perfbench: stream-only store holds {kinds}, expected {encodes} stream entries"
        )


# ---------------------------------------------------------------------- main


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def write_once(path, data):
    """Writes `data` unless `path` exists; returns the file's contents."""
    if not path.exists():
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(data)
        tmp.replace(path)
    return path.read_bytes()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    # A terminated run still kills and reaps the program it is timing.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "crates/core/Cargo.toml").is_file():
        raise SystemExit("perfbench: run from the root of a vstress source checkout")
    repro, tracer = build(root)

    work = STATE / f"work-{os.getpid()}"
    try:
        return measure(a, WORKLOADS[a.workload], repro, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(a, resim, repro, tracer, work):
    STATE.mkdir(exist_ok=True)
    problems = []
    attempted = failed = 0

    def count(what, found):
        nonlocal attempted, failed
        attempted += 1
        failed += bool(found)
        problems.extend(f"{what}: {p}" for p in found)

    def check(sample, what):
        count(what, check_sample(sample, reference, TABLES, resim and what != "fill"))

    # The key of this build's reference stdout, stream store and counts.
    key = sha256(repro.read_bytes())[:16]
    ref_path = STATE / f"ref-quick-{key}.txt"
    setups = [time_setup(repro, work / "setup") for _ in range(SETUP_REPS)]

    # resim-store's stream-only store of the whole profile is filled once
    # per build and kept under STATE, outside the timing.
    fill = streams = None
    if resim:
        streams = STATE / f"streams-{key}"
        if not streams.exists():
            fill = fill_stream_store(repro, [], streams, work / "fill")
            prune_old_stores(streams)
            write_once(ref_path, fill.stdout)
        check_stream_store(repro, streams, work / "check")
    reference = sha256(ref_path.read_bytes()) if ref_path.exists() else None
    if fill is not None:
        check(fill, "fill")

    def timed_run():
        nonlocal reference
        cmd = [str(repro), *REPRO_ARGS]
        if resim:
            link_store(streams, work / "store")
            cmd += ["--store", str(work / "store")]
        s = run_process(cmd, work / "run")
        if reference is None and s.code == 0:
            reference = sha256(write_once(ref_path, s.stdout))
        check(s, "timed run")
        return s

    samples = []
    if a.trace == 0:
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < a.seconds:
            samples.append(timed_run())
        metrics = {
            "wall_s": median([s.wall_s for s in samples]),
            "cpu_s": median([s.cpu_s for s in samples]),
            "peak_rss_mb": median([s.rss_mb for s in samples]),
            "setup_s": median(setups),
        }
        units = dict(END_TO_END)
    else:
        untraced = timed_run()
        samples.append(untraced)
        store_mb = dir_mb(work / "store") if resim else 0.0
        raw = run_tracer(tracer, streams, work)
        # The raw spans, with each runner's RunCacheStats delta, for inspection.
        (STATE / f"trace-{a.workload}-{key}.json").write_text(json.dumps(raw, indent=1))
        metrics = derive_layers(raw, untraced.wall_s, store_mb)
        counts = {k: metrics[k] for k in EXACT}
        counts_path = STATE / f"counts-{a.workload}-{key}.json"
        previous = load_json(counts_path) or {}
        if not previous:
            counts_path.write_text(json.dumps(counts))
        found = [f"exact count {k} = {counts[k]}, earlier {previous[k]}"
                 for k in count_mismatches(counts, previous)]
        if sha256((work / "tables.txt").read_bytes()) != reference:
            found.append("the experiment pass's tables differ from vstress-repro's stdout")
        if resim and raw["stats.encodes"] != 0:
            found.append("the experiment pass encoded")
        count("tracer", found)
        units = {name: unit for name, unit, _, _ in PER_LAYER}

    for p in problems:
        log(p)
    info = {
        "workload": a.workload,
        "seed": a.seed,
        "fidelity_seed": hex(FIDELITY_SEED),
        "stdout_sha256": reference,
        "error_rate": error_rate(attempted, failed),
        "samples": [[round(s.wall_s, 3), round(s.cpu_s, 3), round(s.rss_mb, 1)] for s in samples],
        "setups_s": [round(s, 4) for s in setups],
    }
    if fill is not None:
        info["fill_s"] = round(fill.wall_s, 3)
    print("perfbench: " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_tracer(tracer, streams, work):
    cmd = [str(tracer), "--tables", str(work / "tables.txt")]
    if streams is not None:
        link_store(streams, work / "store")
        cmd += ["--store", str(work / "store")]
    s = run_process(cmd, work / "trace")
    if s.code != 0:
        sys.stderr.write(s.stderr[-4000:])
        raise SystemExit(f"perfbench: the tracer failed (exit {s.code})")
    return json.loads(s.stdout.decode().strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
