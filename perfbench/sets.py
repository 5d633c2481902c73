"""Steadiness check and baseline: sets of runs of every workload, one seed each.

From the root of a checkout::

    python3 perfbench/sets.py --seeds 101-110 111-120 --out perfbench/baseline.json

Runs ``perfbench/run.py --trace 0`` once per seed of every set, one run at a
time, then ``--trace 1`` once per workload on the first seed.  For every
end-to-end metric it reports each set's median, quartiles and quartile
spread (q3 - q1 over the median, from ``statistics.quantiles(n=4)``), and
how much worse the last set's median is than the first's, against the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {out.returncode}:\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs: list[dict], seeds: list[int], names: list[str]) -> dict:
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values),
        }
    return {
        "seeds": seeds,
        "runs_correct": sum(r["correct"] for r in runs),
        "fits_attempted": sum(r["attempted"] for r in runs),
        "fits_failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def environment() -> dict:
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "git_revision": revision or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="one range per set, as 101-110")
    parser.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    sets = [seed_range(s) for s in args.seeds]

    result = {"environment": environment(), "run_seconds": seconds, "end_to_end": {}, "per_layer": {}}
    for w in workloads:
        per_set = [summary([one_run(w, s, seconds, 0) for s in seeds], seeds, list(bounds)) for seeds in sets]
        entry = {f"set_{i + 1}": s for i, s in enumerate(per_set)}
        worse = {}
        for name, m in bounds.items():
            first, last = per_set[0]["metrics"][name]["median"], per_set[-1]["metrics"][name]["median"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse[name] = sign * (last - first) / first
        entry["last_median_worse_by"] = worse
        result["end_to_end"][w] = entry
        traced = one_run(w, sets[0][0], seconds, 1)
        result["per_layer"][w] = {
            "seed": sets[0][0],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"== {w}")
        for name, m in bounds.items():
            spreads = " ".join(f"{s['metrics'][name]['iqr_over_median']:.3f}" for s in per_set)
            print(f"  {name:<14} median {per_set[0]['metrics'][name]['median']:<12.5g} spread {spreads}"
                  f"  last worse by {worse[name]:+.3f}  bound {m['bound']}")
        print("  failed " + " ".join(f"{s['fits_failed']}/{s['fits_attempted']}" for s in per_set), flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
