"""Tests of the benchmark itself: oracle, inputs, tracing, compare verdicts.

Run with: python3 -m pytest perfbench
"""

import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, load_package  # noqa: E402


@pytest.fixture(scope="module")
def tb():
    return load_package(HERE.parent)


def bound_workload(name, tb, tmp_path):
    w = WORKLOADS[name]()
    w.bind(tb, tmp_path)
    return w


def verify_rows(w, tmp_path, seed=11):
    """Per-pair CSV rows of one verify call."""
    rows_path = tmp_path / "rows.csv"
    code = w.tb.cli.main(w.argv(seed, tmp_path / "r.json") + ["--csv", str(rows_path)])
    assert code == 0
    return [line.split(",") for line in rows_path.read_text().splitlines()[1:6]]


def test_oracle_agrees_with_package_on_verify_pairs(tb, tmp_path):
    w = bound_workload("verify-n2p7", tb, tmp_path)
    assert all(w.check_row(row) for row in verify_rows(w, tmp_path))
    assert w.failures == []


def test_oracle_flags_off_by_one_tree_distance(tb, tmp_path):
    w = bound_workload("tree-walk-n1p5", tb, tmp_path)
    queries = w.prepare(w.raw_input(3, 0))
    dists = w.run(queries)
    dists[0] += 1
    assert w.check(0, queries, dists) == (len(queries), 0)
    assert w.oracle_check() == 1
    assert "oracle" in w.failures[0]

    v = bound_workload("verify-n2p7", tb, tmp_path)
    row = verify_rows(v, tmp_path)[0]
    row[-1] = str(int(row[-1]) + 1)
    assert not v.check_row(row)


def test_oracle_flags_wrong_nearest_cube(tb, tmp_path, monkeypatch):
    w = bound_workload("verify-n2p7", tb, tmp_path)
    row = verify_rows(w, tmp_path)[0]
    nearest = tb.embedding.nearest_in_level

    def planted(P, c, k, x):
        cid = nearest(P, c, k, x)
        if c != 1:
            return cid
        return type(cid)(cid.c, cid.k, (cid.gamma[0] + 1,) + cid.gamma[1:])

    monkeypatch.setattr(tb.embedding, "nearest_in_level", planted)
    assert not w.check_row(row)
    assert any(f.startswith("embedding of") for f in w.failures)


def test_oracle_classifies_separation_like_package(tb, tmp_path):
    w = bound_workload("separation-n2p7", tb, tmp_path)
    pairs = w.raw_input(5, 0)[:60]
    kinds = {
        tb.api.separation_verdict(w.P, tb.api.CubeId(*lo), tb.api.CubeId(*hi)).kind.value
        for lo, hi in pairs
    }
    assert kinds == {"disjoint_far", "nested_deep"}
    for lo, hi in pairs:
        got = tb.api.separation_verdict(w.P, tb.api.CubeId(*lo), tb.api.CubeId(*hi))
        assert oracle.separation_kind(w.n, w.p, lo, hi) == got.kind.value


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    w = WORKLOADS[name]()
    assert w.raw_input(4, 0) == w.raw_input(4, 0)
    assert w.raw_input(4, 7) == WORKLOADS[name]().raw_input(4, 7)
    assert w.raw_input(4, 0) != w.raw_input(5, 0)
    assert w.raw_input(4, 0) != w.raw_input(4, 1)


def traced_tracer(targets=run.TRACE_TARGETS):
    tracer = Tracer()
    for module, attr, layer, measure in targets:
        tracer.target(module, attr, layer, measure)
    return tracer


def test_self_times_of_one_call_sum_to_its_span(tb, tmp_path):
    w = bound_workload("verify-n2p7", tb, tmp_path)
    tracer = traced_tracer()
    with tracer.installed():
        w.run(w.raw_input(2, 0))
    spans = tracer.fold()
    roots = [s for s in spans if s.parent == -1]
    assert [s.name for s in roots] == ["cli.verify"]
    own = self_times(spans)
    assert min(own) >= 0
    assert sum(own) == roots[0].end_ns - roots[0].start_ns
    assert tracer.layers["cubes.nearest_in_level"].calls == 6 * w.pairs_per_call
    # The originals are back once the block ends.
    assert tb.cli.main.__module__ == "treebed.cli"


def test_missing_trace_target_reports_zero_calls(tb, tmp_path):
    targets = [
        (m, "renamed_parent" if (m, a) == ("treebed.tree", "parent") else a, layer, f)
        for m, a, layer, f in run.TRACE_TARGETS
    ] + [("treebed.no_such_module", "f", "gone.layer", None)]
    tracer = traced_tracer(targets)
    w = bound_workload("tree-walk-n1p5", tb, tmp_path)
    timings = []
    for traced in (False, True):
        queries = w.prepare(w.raw_input(1, 0))
        with tracer.installed() if traced else nullcontext():
            w.run(queries)
        timings.append((0.01, len(queries)))
    tracer.fold()
    metrics = run.per_layer(tracer, timings[:1], timings[1:])
    assert metrics["tree.parent.calls"][0] == 0
    assert metrics["tree.tree_distance.hops_mean"][0] > 0
    assert tracer.layers["gone.layer"].calls == 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in base]
    assert compare.verdict(base, faster, True, 0.1)[0] == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], True, 0.1)[0] == "worse"
    assert compare.verdict(base, [v * 1.05 for v in base], True, 0.1)[0] == "same"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 100.0, 90.0, 110.0]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], True, 0.1)[0] == "unresolved"
    assert compare.verdict(base, faster, True, 0.1, more_failures=True)[0] == "same"
    assert compare.verdict(base[:3], faster[:3], True, 0.1)[0] == "unresolved"
    assert compare.verdict([0.0] * 3, [0.0] * 3, True, None)[0] == "same"


def test_fails_without_package_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-walk-n1p5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
