"""Compare two sets of saved benchmark runs, metric by metric.

Usage: python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are files or directories holding the standard output of
``perfbench/run.py`` runs; a file may hold several runs one after another.
Runs of one side are paired with the other side's in the order they were
saved, so run the two sides alternately. For each (workload, metric) the
table gives each side's median and quartiles, the change's wins over the
base in paired runs, and a verdict:

* better: the change wins at least 9 of 10 pairs and its median beats the
  base's by more than the base's own interquartile range;
* worse: the change's median is worse than the base's by more than the
  metric's bound from BENCHMARK.json (per-layer metrics have no bound and
  are called worse by the mirror of the "better" rule);
* unresolved: the base's interquartile range is wider than the bound, so a
  regression of that size could not be seen, or nothing else applies;
* same: none of the above.

With fewer than ten pairs no verdict is given ("unresolved"), and a metric
cannot be better when the change failed more operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_runs(path: Path) -> list[tuple[dict, dict]]:
    """(run record, result) for every run saved under path, in order."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = []
    for f in files:
        record = None
        for line in f.read_text().splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and "run" in doc:
                record = doc["run"]
            elif isinstance(doc, dict) and "metrics" in doc and record is not None:
                runs.append((record, doc))
                record = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], lower_is_better: bool,
            bound: float | None, more_failures: bool = False) -> tuple[str, int, int]:
    """(verdict, change wins, pairs) for one metric on one workload."""
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(base, change))
    if len(set(base) | set(change)) == 1:
        return "same", 0, len(pairs)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", 0, len(pairs)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    b1, bmed, b3 = quartiles(base)
    gain = sign * (statistics.median(change) - bmed)
    spread = b3 - b1
    if not more_failures and wins >= 0.9 * len(pairs) and gain > spread:
        return "better", wins, len(pairs)
    if bound is None:
        if losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    scale = abs(bmed)
    if spread > bound * scale:
        if all(sign * (c - b) > 0 for c in change for b in base):
            return "same", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if -gain > bound * scale:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def compare(base_runs, change_runs, spec: dict) -> list[list[str]]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = [["workload", "metric", "unit", "base median [q1, q3]",
             "change median [q1, q3]", "change/base", "wins", "verdict"]]
    workloads = sorted({r["workload"] for r, _ in base_runs + change_runs})
    for w in workloads:
        sides = [[res for r, res in runs if r["workload"] == w]
                 for runs in (base_runs, change_runs)]
        failed = [sum(res["failed"] for res in side) for side in sides]
        names = sorted({k for side in sides for res in side for k in res["metrics"]})
        for name in names:
            vals = [[res["metrics"][name]["value"] for res in side if name in res["metrics"]]
                    for side in sides]
            if not vals[0] or not vals[1]:
                continue
            spec_m = metrics.get(name, {})
            v, wins, n = verdict(vals[0], vals[1], spec_m.get("better", "lower") == "lower",
                                 spec_m.get("bound"), failed[1] > failed[0])
            (b1, bm, b3), (c1, cm, c3) = quartiles(vals[0]), quartiles(vals[1])
            unit = spec_m.get("unit", "")
            ratio = f"{cm / bm:.3f}" if bm else "-"
            rows.append([w, name, unit, f"{bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(vals[0])}",
                         f"{cm:.4g} [{c1:.4g}, {c3:.4g}] n={len(vals[1])}",
                         ratio, f"{wins}/{n}", v])
        rows.append([w, "failed ops", "count", str(failed[0]), str(failed[1]), "-", "-", "-"])
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, change = (load_runs(Path(a)) for a in argv)
    if not base or not change:
        print("error: no saved runs found on one side", file=sys.stderr)
        return 2
    rows = compare(base, change, spec)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
