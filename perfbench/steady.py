#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and prints each
end-to-end metric's median and inter-quartile spread (as a share of the
median) next to its bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

Run from the root of a source checkout. The raw result lines are
appended to `.perfbench/steady.jsonl`.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    a = ap.parse_args()
    names = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    run.STATE.mkdir(exist_ok=True)
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(1, a.runs + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            with open(run.STATE / "steady.jsonl", "a") as f:
                f.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            ok &= result["correct"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, vs in values.items():
            s = run.spread(vs)
            ok &= s <= bounds[m]
            print(f"{name:12} {m:12} median {run.median(vs):12.4f}  spread {s:.4f}"
                  f"  bound {bounds[m]}  ({s / bounds[m]:.0%} of it)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
