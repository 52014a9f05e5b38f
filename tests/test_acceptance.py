"""Acceptance suite: every criterion at its stated size and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The heavyweight criteria print their runtime as well.
"""

import math
import random
import time
from collections import deque
from fractions import Fraction as F

import pytest

import treebed.embedding
from treebed import (
    CubeId,
    HoroPoint,
    InvalidParams,
    Region,
    SamplePlan,
    SeparationKind,
    brute_force_edges,
    count_violations,
    evaluate_pairs,
    fit_qi_constants,
    horo_distance,
    hyp_distance,
    sample_pairs,
    separation_verdict,
    stability_probe,
    tree_distance,
    validate_params,
    vertical_bound_check,
)
from treebed.cli import main as cli_main

from test_hyperbolic import geodesic_oracle


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_parameter_gate():
    def gate(n, p):
        try:
            validate_params(n, p)
            return True
        except InvalidParams:
            return False

    cases = [((1, 5), True), ((1, 4), False), ((2, 7), True), ((2, 6), False)]
    ok = all(gate(*args) is want for args, want in cases)
    worst = 0.0
    for args, _ in cases:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            gate(*args)
            times.append(time.perf_counter() - t0)
        worst = max(worst, min(times))
    report(
        1,
        ok and worst < 1e-3,
        f"parameter gate exact on all four instances, worst {worst * 1e6:.0f}us < 1ms",
    )


def test_criterion_2_covering():
    from treebed import verify_covering_level0

    detail = []
    ok = True
    for n, p in [(1, 5), (2, 7), (3, 9)]:
        P = validate_params(n, p)  # (3,9) passes the gate: 1/8+1/9 < 1/4
        t0 = time.perf_counter()
        rep = verify_covering_level0(P)
        dt = time.perf_counter() - t0
        ok = ok and rep.covered and rep.cells_total <= 10**6 and dt < 10.0
        detail.append(f"(n={n},p={p}): {rep.cells_total} cells {dt:.2f}s")
    report(2, ok, "exact covering holds; " + "; ".join(detail))


def test_criterion_3_separation():
    P = validate_params(1, 5)
    rng = random.Random(20260810)
    G = P.p**3
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        k1 = k2 = 0
        while k1 == k2:
            k1, k2 = rng.randint(-3, 4), rng.randint(-3, 4)
        c = rng.randint(0, P.n)
        low = CubeId(c, min(k1, k2), (rng.randint(-G, G),))
        high = CubeId(c, max(k1, k2), (rng.randint(-G, G),))
        if separation_verdict(P, low, high).kind is SeparationKind.VIOLATION:
            violations += 1
    dt = time.perf_counter() - t0
    report(
        3,
        violations == 0 and dt < 30.0,
        f"10^4 exact separation verdicts, {violations} violations, {dt:.1f}s < 30s",
    )


def test_criterion_4_tree_oracle_equivalence():
    P = validate_params(1, 5)
    t0 = time.perf_counter()
    vertices, edges = brute_force_edges(P, 0, 0, 2, 100)
    assert len(vertices) >= 500
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    # acyclicity via union-find
    uf = {v: v for v in vertices}

    def find(v):
        while uf[v] != v:
            uf[v] = uf[uf[v]]
            v = uf[v]
        return v

    acyclic = True
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            acyclic = False
        uf[ra] = rb

    checked = 0
    mismatches = 0
    for v in vertices:
        dist = {v: 0}
        q = deque([v])
        while q:
            u = q.popleft()
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        for w, d in dist.items():
            if w.key() > v.key():
                checked += 1
                if tree_distance(P, v, w) != d:
                    mismatches += 1
    dt = time.perf_counter() - t0
    report(
        4,
        acyclic and mismatches == 0 and dt < 60.0,
        f"window of {len(vertices)} vertices acyclic; tree_distance == BFS on "
        f"{checked} same-component pairs, {mismatches} mismatches, {dt:.1f}s < 60s",
    )


def test_criterion_5_metric_model():
    P = validate_params(1, 5)
    rng = random.Random(55)

    worst_oracle = 0.0
    for _ in range(100):
        z = HoroPoint(rng.uniform(-3, 3), (rng.uniform(-10, 10),))
        zp = HoroPoint(rng.uniform(-3, 3), (rng.uniform(-10, 10),))
        worst_oracle = max(
            worst_oracle, abs(hyp_distance(P, z, zp) - geodesic_oracle(P, z, zp))
        )

    worst_scale = 0.0
    for _ in range(1000):
        k = rng.randint(-6, 6)
        x, xp = (rng.uniform(-99, 99),), (rng.uniform(-99, 99),)
        a = horo_distance(P, k - 1, x, xp)
        b = horo_distance(P, k, x, xp) / P.p
        worst_scale = max(worst_scale, abs(a - b) / b if b else 0.0)

    pts = [
        HoroPoint(rng.uniform(-4, 4), (rng.uniform(-50, 50),)) for _ in range(80)
    ]
    worst_tri = -math.inf
    for _ in range(10_000):
        a, b, c = rng.sample(pts, 3)
        worst_tri = max(
            worst_tri,
            hyp_distance(P, a, b)
            - hyp_distance(P, a, c)
            - hyp_distance(P, c, b),
        )
    report(
        5,
        worst_oracle < 1e-6 and worst_scale < 1e-12 and worst_tri < 1e-9,
        f"geodesic oracle gap {worst_oracle:.2e} < 1e-6; projection scaling "
        f"rel err {worst_scale:.2e} < 1e-12; triangle slack {worst_tri:.2e} < 1e-9",
    )


def test_criterion_6_vertical_lower_bound():
    P = validate_params(1, 5)
    failures = vertical_bound_check(P, count=1000, seed=606)
    report(
        6,
        not failures,
        f"10^3 vertical pairs all meet (dk+1)/(n+1) - 1, failures: {len(failures)}",
    )


def test_criterion_7_envelope_stability(monkeypatch):
    P = validate_params(1, 5)
    # the default additive bound (m up to 50) swamps desk-scale regions,
    # where every distance is < 50; m up to 10 keeps the fit in the slope
    # regime the stability check is about
    base = SamplePlan(Region(-4.0, 4.0, 625.0), 10_000, "uniform", 3)
    t0 = time.perf_counter()

    honest = [l for l, _ in stability_probe(P, base, [1.0, 2.0, 4.0], m_max=10)]
    rel_changes = [
        abs(b - a) / a for a, b in zip(honest, honest[1:])
    ]
    stable = all(c < 0.15 for c in rel_changes)

    plan1 = SamplePlan(base.region, base.count, "uniform", base.seed)
    fit1 = fit_qi_constants(
        evaluate_pairs(P, sample_pairs(P, plan1), plan=plan1), m_max=10
    )
    fresh_plan = SamplePlan(base.region, 10_000, "uniform", 777)
    fresh = evaluate_pairs(P, sample_pairs(P, fresh_plan), plan=fresh_plan)
    fresh_bad = count_violations(fresh.samples, fit1.l, 1.05 * fit1.m)
    fresh_ok = fresh_bad <= 100  # 1% of 10^4

    # Negative control: every image forced to level 0.
    monkeypatch.setattr(treebed.embedding, "embedding_level", lambda z: 0)
    broken = [l for l, _ in stability_probe(P, base, [1.0, 2.0, 4.0], m_max=10)]
    control_ok = broken[0] < broken[1] < broken[2]

    dt = time.perf_counter() - t0
    report(
        7,
        stable and fresh_ok and control_ok and dt < 300.0,
        f"honest l per scale {[round(x, 3) for x in honest]} "
        f"(max change {max(rel_changes):.1%} < 15%); fresh violations "
        f"{fresh_bad}/10^4 <= 1%; broken-control l "
        f"{[round(x, 1) for x in broken]} strictly increasing; {dt:.0f}s < 300s",
    )


def test_criterion_8_reproducibility(tmp_path, capsys):
    argv = [
        "verify", "--n", "1", "--p", "5", "--samples", "2000",
        "--seed", "1234", "--threads", "1",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(argv + ["--output", str(a)])
    code_b = cli_main(argv + ["--output", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report(
        8,
        code_a == 0 and code_b == 0 and identical,
        "verify with fixed seed and --threads 1 produced byte-identical JSON",
    )
