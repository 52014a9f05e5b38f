"""Benchmark of the treebed package: one workload, one run, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's calls in this process, one thread, for S seconds, checks
every output, and prints as its last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's record: workload, seed, machine, sample counts and any
failure messages. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every other call is traced and the metrics are per layer.
Workloads and metrics are listed in BENCHMARK.json. Compare two sets of
saved outputs with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_package  # noqa: E402

SETUP_PROBES = 7  # fresh interpreters timed per run; one more runs first, untimed
PROBE_TIMEOUT_S = 60

# (module attribute the caller looks up, layer name, per-call measurement)
TRACE_TARGETS = (
    ("treebed.cli", "main", "cli.verify", None),
    ("treebed.cli", "sample_pairs", "verifier.sample_pairs", None),
    ("treebed.cli", "evaluate_pairs", "verifier.evaluate_pairs", None),
    ("treebed.cli", "fit_qi_constants", "verifier.fit_qi_constants", None),
    ("treebed.verifier", "embed", "embedding.embed", None),
    ("treebed.verifier", "per_color_distances", "embedding.per_color_distances", None),
    ("treebed.verifier", "hyp_distance", "hyperbolic.hyp_distance", None),
    ("treebed.embedding", "nearest_in_level", "cubes.nearest_in_level", None),
    ("treebed.embedding", "tree_distance", "tree.tree_distance", lambda a, r: r),
    ("treebed", "tree_distance", "tree.tree_distance", lambda a, r: r),
    ("treebed.tree", "parent", "tree.parent", lambda a, r: a[1].k - r.k),
    ("treebed", "separation_verdict", "cubes.separation_verdict", None),
    ("treebed.cubes", "realize", "cubes.realize", None),
    ("treebed.cubes", "box_gap_sq", "core.box_gap_sq", None),
    ("treebed.cubes", "boundary_margin", "core.boundary_margin", None),
)

# Layers whose self time is reported per op; True also reports calls per op.
PER_OP_LAYERS = (
    ("cubes.nearest_in_level", True),
    ("embedding.embed", False),
    ("tree.parent", True),
    ("tree.tree_distance", False),
    ("embedding.per_color_distances", False),
    ("cubes.realize", True),
    ("cubes.separation_verdict", False),
    ("core.box_gap_sq", False),
    ("core.boundary_margin", False),
    ("hyperbolic.hyp_distance", False),
)


def machine() -> dict:
    """nproc, CPU model, Python version and the checkout's git SHA if known."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_times(name: str, seed: int, workdir: Path) -> list[float]:
    """Set-up seconds measured in fresh interpreters; the first is discarded.

    The discarded probe fills the bytecode and file caches, which users
    fill once, not on every run.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), str(ROOT), name, str(seed), str(workdir)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def measure(workload, seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """Run calls until ``seconds`` have passed; every other call is traced if
    a tracer is given. Returns the per-call timings and check totals."""
    plain, traced = [], []  # (seconds, ops) per call
    attempted = failed = 0
    call = 0
    deadline = time.perf_counter() + seconds
    while call < 4 or time.perf_counter() < deadline:
        inp = workload.prepare(workload.raw_input(seed, call))
        if tracer is not None and call % 2:
            with tracer.installed():
                t0 = time.perf_counter()
                out = workload.run(inp)
                t1 = time.perf_counter()
            tracer.fold()
            timings = traced
        else:
            t0 = time.perf_counter()
            out = workload.run(inp)
            t1 = time.perf_counter()
            timings = plain
        ops, bad = workload.check(call, inp, out)
        timings.append((t1 - t0, ops))
        attempted += ops
        failed += bad
        call += 1
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed}


def end_to_end(plain: list[tuple[float, int]], setup: list[float]) -> dict:
    ms = [t * 1e3 for t, _ in plain]
    return {
        "ops_per_s": (sum(ops for _, ops in plain) / sum(t for t, _ in plain), "1/s"),
        "call_p50_ms": (statistics.median(ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def call_p90_ms(plain: list[tuple[float, int]]) -> float:
    """p90 of call time, recorded but not gated: on a shared 2-core machine it
    moved by a third between runs while the median moved by a tenth."""
    return statistics.quantiles([t * 1e3 for t, _ in plain], n=10)[8]


def per_layer(tracer: Tracer, plain, traced) -> dict:
    """Per-layer figures of the traced calls, normalised per op.

    On verify an op is a pair, so the verifier figures are per pair; the
    other workloads never call those layers and report 0.
    """
    ops = sum(n for _, n in traced)
    layers = tracer.layers
    out = {}
    for name, with_calls in PER_OP_LAYERS:
        if with_calls:
            out[f"{name}.calls"] = (layers[name].calls / ops, "calls/op")
        out[f"{name}.self_us"] = (layers[name].self_ns / 1e3 / ops, "us/op")
    parent, walk, cli = layers["tree.parent"], layers["tree.tree_distance"], layers["cli.verify"]
    out["tree.parent.level_gap_mean"] = (parent.value_mean, "levels")
    out["tree.parent.level_gap_max"] = (parent.value_max, "levels")
    out["tree.tree_distance.hops_mean"] = (walk.value_mean, "hops")
    for name, key, field in (
        ("verifier.sample_pairs", "us_per_pair", "total_ns"),
        ("verifier.evaluate_pairs", "self_us_per_pair", "self_ns"),
        ("verifier.fit_qi_constants", "us_per_pair", "total_ns"),
    ):
        out[f"{name}.{key}"] = (getattr(layers[name], field) / 1e3 / ops, "us/pair")
    out["cli.verify.self_ms"] = (cli.self_ns / 1e6 / cli.calls if cli.calls else 0.0, "ms/call")
    rate = [sum(n for _, n in s) / sum(t for t, _ in s) for s in (plain, traced)]
    out["trace.overhead_frac"] = (1 - rate[1] / rate[0], "frac")
    return out


def parent_scan_cap(tb) -> int | None:
    """Default scan_cap of tree.parent, against which level gaps are read."""
    try:
        return inspect.signature(tb.tree.parent).parameters["scan_cap"].default
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        tb = load_package(ROOT)
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_times(workload.name, args.seed, workdir)
        workload.bind(tb, workdir)
        # Warm-up call, untimed, so lazy set-up is not charged to the first call.
        workload.run(workload.prepare(workload.raw_input(args.seed, "warm-up")))
        tracer = None
        if args.trace:
            tracer = Tracer()
            for module, attr, layer, measure_fn in TRACE_TARGETS:
                tracer.target(module, attr, layer, measure_fn)
        runs = measure(workload, args.seed, args.seconds, tracer)
        metrics = (
            per_layer(tracer, runs["plain"], runs["traced"])
            if tracer
            else end_to_end(runs["plain"], setup)
        )
        failed = runs["failed"] + workload.oracle_check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "calls": len(runs["plain"]) + len(runs["traced"]),
        "ops_per_call": runs["plain"][0][1],
        "call_p90_ms": call_p90_ms(runs["plain"]),
        "parent_scan_cap": parent_scan_cap(tb),
        "setup_samples_s": setup,
        "oracle_checked_ops": workload.checked,
        "failures": workload.failures,
    }
    print(json.dumps({"run": record}))
    result = {
        "correct": failed == 0,
        "attempted": runs["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
