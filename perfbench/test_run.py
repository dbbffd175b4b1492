"""Tests of the benchmark's own logic: `python3 -m unittest perfbench/test_run.py`."""

import json
import os
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def sample(code=0, stdout=b"## a\nx\n\n## b\ny\n", stderr=""):
    return run.Sample(code, 1.0, 1.5, 100.0, stdout, stderr)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_spread_is_interquartile_distance_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # Exclusive quartiles of 10 values sit at positions 2.75 and 8.25.
        q1, q3 = 10.0 + 1.75, 10.0 + 7.25
        self.assertAlmostEqual(run.spread(values), (q3 - q1) / 14.5)
        self.assertEqual(run.spread([5.0] * 10), 0.0)

    def test_spread_matches_the_statistics_module(self):
        values = [1.2, 0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.15, 1.25, 0.85]
        q = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.spread(values), (q[2] - q[0]) / statistics.median(values))


class ErrorCounting(unittest.TestCase):
    def test_error_rate(self):
        self.assertEqual(run.error_rate(4, 0), 0.0)
        self.assertEqual(run.error_rate(4, 1), 0.25)

    def test_correct_run_has_no_problems(self):
        s = sample()
        self.assertEqual(run.check_sample(s, run.sha256(s.stdout), 2, False), [])

    def test_nonzero_exit_is_a_failure(self):
        s = sample(code=1)
        self.assertEqual(len(run.check_sample(s, run.sha256(s.stdout), 2, False)), 1)

    def test_stdout_differing_from_the_reference_is_a_failure(self):
        found = run.check_sample(sample(), run.sha256(b"other"), 2, False)
        self.assertEqual(found, ["stdout differs from the reference"])

    def test_missing_tables_are_a_failure(self):
        s = sample(stdout=b"## a\nx\n")
        self.assertEqual(len(run.check_sample(s, None, 2, False)), 1)

    def test_resimulation_must_not_encode(self):
        s = sample(stderr="vstress-repro: work 3 encodes, 3 stream captures\n")
        self.assertEqual(len(run.check_sample(s, None, 2, True)), 1)
        s = sample(stderr="vstress-repro: work 0 encodes, 0 stream captures\n")
        self.assertEqual(run.check_sample(s, None, 2, True), [])

    def test_exact_count_mismatches(self):
        self.assertEqual(run.count_mismatches({"a": 1, "b": 2}, {}), [])
        self.assertEqual(run.count_mismatches({"a": 1, "b": 2}, {"a": 1, "b": 3}), ["b"])


def raw_trace(**over):
    raw = {
        "synth_s": 0.1, "encode_s": 1.0, "capture_s": 3.0, "bitstream_decode_s": 0.2,
        "stream_decode_s": 0.5, "consume_s": 2.5, "hierarchy_total_s": 1.5, "cbp_s": 0.3,
        "serde_s": 0.7, "instructions": 1000, "events": 100, "packed_bytes": 250,
        "accesses": 40, "cbp_branches": 7, "points": 64, "points_sampled": 16,
        "pass_s": 10.0, "spans_s": 9.8,
        "stats.encodes": 64, "stats.run_hits": 1, "stats.run_misses": 3,
        "stats.capture_hits": 2, "stats.capture_misses": 2,
        "stats.store_hits": 0, "stats.store_misses": 0,
    }
    raw.update({f"span.{i}": 0.5 for i in run.EXPERIMENT_IDS})
    raw.update(over)
    return raw


class SelfTime(unittest.TestCase):
    def test_replaying_layers_subtract_the_stream_decode(self):
        m = run.derive_layers(raw_trace(), untraced_wall_s=9.0, store_mb=0.0)
        self.assertAlmostEqual(m["trace.decode_s"], 0.5)
        self.assertAlmostEqual(m["pipeline.model_s"], 2.0)  # 2.5 - 0.5
        self.assertAlmostEqual(m["cache.hierarchy_s"], 1.0)  # 1.5 - 0.5
        self.assertAlmostEqual(m["trace.record_s"], 2.0)  # capture - counting encode
        self.assertAlmostEqual(m["pipeline.ns_per_event"], 2.0 * 1e9 / 100)
        self.assertAlmostEqual(m["cache.ns_per_access"], 1.0 * 1e9 / 40)
        self.assertAlmostEqual(m["trace.bytes_per_event"], 2.5)
        self.assertAlmostEqual(m["experiments.coverage"], 0.98)
        self.assertAlmostEqual(m["experiments.trace_overhead_s"], 1.0)
        self.assertAlmostEqual(m["exec.run_hit_ratio"], 0.25)

    def test_every_per_layer_metric_is_derived(self):
        m = run.derive_layers(raw_trace(), 9.0, 0.0)
        self.assertEqual(sorted(m), sorted(name for name, *_ in run.PER_LAYER))


class StreamOnlyStore(unittest.TestCase):
    def make_store(self, root):
        for kind, files in [("stream", 3), ("run", 2), ("window", 1), ("cost", 1)]:
            d = root / "v3" / kind
            d.mkdir(parents=True)
            for i in range(files):
                (d / f"{i:016x}.entry").write_text("x" * (i + 1))
        (root / "encodes").write_text("3")

    def test_only_streams_survive_and_links_share_them(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            self.make_store(root)
            run.prune_to_streams(root)
            self.assertEqual([p.name for p in (root / "v3").iterdir()], ["stream"])
            self.assertEqual(len(list((root / "v3" / "stream").iterdir())), 3)
            copy = Path(tmp) / "copy"
            run.link_store(root, copy)
            a = root / "v3" / "stream" / f"{0:016x}.entry"
            b = copy / "v3" / "stream" / f"{0:016x}.entry"
            self.assertTrue(a.samefile(b))

    def test_encode_count_parsing(self):
        self.assertEqual(run.parse_encodes("x\nvstress-repro: work 64 encodes, 64 stream captures\n"), 64)
        self.assertIsNone(run.parse_encodes("vstress-repro: exit\n"))

    def test_store_stats_parsing(self):
        text = (
            "## Store statistics (schema v3)\n"
            "kind           entries  bytes\n"
            "------------------------------\n"
            "stream         64       4700000000\n"
            "(quarantined)  0        -\n"
        )
        self.assertEqual(run.parse_store_stats(text), {"stream": (64, 4700000000)})


# A stand-in for vstress-repro: a `--store` run writes STREAMS stream
# entries and one run entry and reports ENCODES encodes; `store-stats`
# reports the stream entries it finds.
FAKE_REPRO = """#!/bin/sh
store=
stats=
while [ $# -gt 0 ]; do
  case "$1" in
    --store) store="$2"; shift ;;
    store-stats) stats=1 ;;
  esac
  shift
done
if [ -n "$stats" ]; then
  echo "stream $(ls "$store/v3/stream" | wc -l) 100"
  exit 0
fi
mkdir -p "$store/v3/stream" "$store/v3/run"
i=0
while [ $i -lt {streams} ]; do touch "$store/v3/stream/$i.entry"; i=$((i + 1)); done
touch "$store/v3/run/0.entry"
echo "## Table"
echo "vstress-repro: work {encodes} encodes, {encodes} stream captures" >&2
exit {code}
"""


class StreamStoreFill(unittest.TestCase):
    def fill(self, tmp, streams=3, encodes=3, code=0):
        repro = Path(tmp) / "repro"
        repro.write_text(FAKE_REPRO.format(streams=streams, encodes=encodes, code=code))
        repro.chmod(0o755)
        store = Path(tmp) / "streams-x"
        run.fill_stream_store(repro, [], store, Path(tmp) / "work")
        return store

    def assert_no_store(self, tmp):
        self.assertEqual(sorted(p.name for p in Path(tmp).glob("streams-*")), [])

    def test_only_streams_survive_and_the_count_is_checked(self):
        with tempfile.TemporaryDirectory() as tmp:
            store = self.fill(tmp)
            self.assertEqual([p.name for p in (store / "v3").iterdir()], ["stream"])
            self.assertEqual((store / "encodes").read_text(), "3")

    def test_a_failed_fill_leaves_no_store(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(SystemExit):
                self.fill(tmp, code=1)
            self.assert_no_store(tmp)

    def test_a_fill_short_of_streams_leaves_no_store(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(SystemExit):
                self.fill(tmp, streams=2, encodes=3)
            self.assert_no_store(tmp)

    def test_old_stores_are_deleted(self):
        with tempfile.TemporaryDirectory() as tmp:
            state, run.STATE = run.STATE, Path(tmp)
            try:
                for age, name in enumerate(["streams-new", "streams-b", "streams-c", "streams-d"]):
                    (Path(tmp) / name).mkdir()
                    t = 1_000_000 - age * 1000
                    os.utime(Path(tmp) / name, (t, t))
                run.prune_old_stores(Path(tmp) / "streams-new")
            finally:
                run.STATE = state
            kept = sorted(p.name for p in Path(tmp).iterdir())
            self.assertEqual(kept, ["streams-b", "streams-new"])


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        b = json.loads(path.read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in b["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in b["per_layer"]],
            [(n, u, better) for n, u, better, _ in run.PER_LAYER],
        )
        self.assertEqual(sorted(wl["name"] for wl in b["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
