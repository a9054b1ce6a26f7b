#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against this checkout.

Run from anywhere; the change is the checkout this file sits in, as its
files stand, and the base is any revision of its git history:

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --seconds 30 --out BENCH_<n>.json

The base revision is extracted with ``git archive`` into a temporary
directory (``TMPDIR`` chooses where), which is removed on exit.  For every
workload of ``BENCHMARK.json``, pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each checkout, from that checkout's root, one run at a time; the
side that runs first alternates with i.  Then each side runs the traced
``--seed 101 --seconds 0 --trace 1`` check once.  The output holds, per
workload and per end-to-end metric of ``BENCHMARK.json``, both sides' runs,
medians and quartiles, the share of pairs the change won (ties count for
neither side) and whether the change's median is worse than the base's by
more than the metric's bound, the rule of ``perfbench/run.py --compare``.
It also holds each side's failed operations and its traced
``links_sha256`` and ``graph_nodes_per_update``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
TRACE_SEED = 101


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between the
    two nearest order statistics (numpy's default method)."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summary(values: list[float]) -> dict:
    """The runs with their median and quartiles."""
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75), "runs": list(values)}


def win_share(base: list[float], change: list[float], better: str) -> float:
    """The share of pairs in which the change reads better than the base;
    a tie counts for neither side."""
    if len(base) != len(change) or not base:
        raise ValueError(f"{len(base)} base runs and {len(change)} change runs are no pairs")
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change)) / len(base)


def worse_than_bound(base_median: float, change_median: float, better: str,
                     bound: float) -> bool:
    """Whether the change's median is worse than the base's by more than
    ``bound``, a fraction of the base's median."""
    if base_median == 0:
        return False
    change = (change_median - base_median) / base_median
    return (-change if better == "higher" else change) > bound


def run_order(pair: int) -> tuple[str, str]:
    """The order in which the two sides run pair ``pair``."""
    return SIDES if pair % 2 else SIDES[::-1]


def metric_report(base: list[float], change: list[float], spec: dict) -> dict:
    """One end-to-end metric of one workload, from each side's runs in
    pair order."""
    sides = {"base": summary(base), "change": summary(change)}
    return {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **sides,
            "change_win_share": win_share(base, change, spec["better"]),
            "worse_than_bound": worse_than_bound(sides["base"]["median"],
                                                 sides["change"]["median"],
                                                 spec["better"], spec["bound"])}


def _bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its result line, with
    the run's ``links_sha256`` added."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {run.returncode}:\n"
                           f"{run.stderr[-2000:]}")
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"links_sha256=(\S+)", run.stdout)
    result["links_sha256"] = digest.group(1) if digest else None
    return result


def _extract(rev: str, into: Path) -> str:
    """The commit ``rev`` names, its files written under ``into``."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return sha


def _describe_change() -> str:
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                           check=True, capture_output=True, text=True).stdout.strip()
    return f"{head} with uncommitted changes" if dirty else head


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts = {"base": tmp / "base", "change": ROOT}
        report = {"base": _extract(args.base, checkouts["base"]),
                  "change": _describe_change(), "pairs": args.pairs,
                  "seconds": args.seconds, "workloads": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(1, args.pairs + 1):
                for side in run_order(pair):
                    runs[side].append(_bench(checkouts[side], workload, pair, args.seconds, 0))
                    print(f"{workload} pair {pair} {side} done", file=sys.stderr)
            traced = {side: _bench(checkouts[side], workload, TRACE_SEED, 0, 1)
                      for side in SIDES}
            report["workloads"][workload] = {
                "metrics": {m["name"]: metric_report(
                    *[[r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES],
                    m) for m in spec["end_to_end"]},
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
                "trace": {side: {
                    "correct": traced[side]["correct"],
                    "links_sha256": traced[side]["links_sha256"],
                    "graph_nodes_per_update":
                        traced[side]["metrics"]["autodiff.graph_nodes_per_update"]["value"],
                } for side in SIDES},
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    worse = [f"{w}/{name}" for w, entry in report["workloads"].items()
             for name, m in entry["metrics"].items() if m["worse_than_bound"]]
    print(f"wrote {args.out}; worse than the bound: {', '.join(worse) or 'none'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
