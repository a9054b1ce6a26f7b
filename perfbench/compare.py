"""Compare two result files metric by metric, against the benchmark's bounds.

Each file holds one JSON result per line, as ``run.py`` appends them.  For
every workload and metric the medians of the two files are printed with
their change; an end-to-end metric that worsened by more than its bound in
``BENCHMARK.json`` is flagged, and any flag makes the exit code 1.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _medians(path: Path) -> dict[tuple[str, str], tuple[float, str]]:
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, metric in rec["metrics"].items():
                key = (rec["workload"], name)
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
    return {k: (statistics.median(v), units[k]) for k, v in values.items()}


def main(spec_path: Path, base_path: Path, current_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, current = _medians(base_path), _medians(current_path)
    flagged = 0
    print(f"{'workload':<22} {'metric':<50} {'base':>12} {'current':>12} {'change':>8}")
    for key in sorted(set(base) & set(current)):
        workload, name = key
        (old, unit), (new, _) = base[key], current[key]
        change = (new - old) / old if old else float("nan")
        mark = ""
        if name in bounds:
            worse = -change if bounds[name]["better"] == "higher" else change
            if worse > bounds[name]["bound"]:
                mark = f"  REGRESSION beyond {bounds[name]['bound']:.0%}"
                flagged += 1
        print(f"{workload:<22} {name:<50} {old:>12.6g} {new:>12.6g} {change:>+8.1%}"
              f" {unit}{mark}")
    for key in sorted(set(base) ^ set(current)):
        print(f"{key[0]:<22} {key[1]:<50} only in {'base' if key in base else 'current'}")
    return 1 if flagged else 0
