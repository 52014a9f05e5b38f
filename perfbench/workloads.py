"""The benchmark's workloads: inputs, the timed call, and its correctness checks.

Each workload stresses a different layer of the package, so that a change to
one layer shows a gain on one workload and no change on another:

* ``verify-n2p7`` runs the ``treebed verify`` command users run, in-process
  through ``treebed.cli.main``: sampling, embedding (nearest cube per color),
  tree walks per color, hyperbolic distance and the envelope fit.
* ``tree-walk-n1p5`` runs only tree distance queries on cube ids the
  benchmark builds with integer arithmetic; it never embeds a point.
* ``separation-n2p7`` runs only the exact separation predicate, which
  realizes boxes and compares them; it never walks a tree.

An *op* is a pair, a query or a verdict; a *call* is one ``verify`` command
or one fixed-size batch of queries or verdicts, sized to tens of
milliseconds so that per-call timings are steady. Inputs depend only on the
workload seed and the call index. This module imports nothing from the
package at import time: :func:`load_package` does, so that a set-up probe
can time the import.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import oracle

# Modules the benchmark reaches into; each must come from the checkout.
MODULES = ("core", "cubes", "tree", "embedding", "hyperbolic", "verifier", "cli")


def load_package(root: Path) -> SimpleNamespace:
    """Import treebed from ``root/src`` and return its modules by short name.

    Raises ImportError when the checkout has no package source, even if some
    other copy of treebed is importable.
    """
    src = (root / "src").resolve()
    if not (src / "treebed" / "__init__.py").is_file():
        raise ImportError(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import importlib

    tb = importlib.import_module("treebed")
    if Path(tb.__file__).resolve().parent.parent != src:
        raise ImportError(f"treebed imported from {tb.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"treebed.{name}") for name in MODULES}
    return SimpleNamespace(api=tb, **mods)


def call_rng(workload: str, seed: int, call: int | str) -> random.Random:
    """Generator for one call's inputs; string seeding is stable across runs."""
    return random.Random(f"{workload}/{seed}/{call}")


class Workload:
    """One workload: deterministic call inputs, the timed call and its checks."""

    name = ""
    n = 0
    p = 0

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    def raw_input(self, seed: int, call: int | str):
        """Stdlib-only description of a call's input."""
        raise NotImplementedError

    def bind(self, tb: SimpleNamespace, workdir: Path) -> None:
        """Receive the imported package and validate this workload's parameters."""
        self.tb = tb
        self.workdir = workdir
        self.P = tb.api.validate_params(self.n, self.p)

    def prepare(self, raw):
        """Turn a raw input into the program's own argument objects (untimed)."""
        return raw

    def run(self, inp):
        """The timed call."""
        raise NotImplementedError

    def check(self, call: int, inp, out) -> tuple[int, int]:
        """Check one call's output; return (ops attempted, ops failed)."""
        raise NotImplementedError

    def oracle_check(self) -> int:
        """Check the kept subsample against the oracle; return failed ops."""
        raise NotImplementedError

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)


class VerifyN2P7(Workload):
    name = "verify-n2p7"
    n, p = 2, 7
    pairs_per_call = 100  # about 30 ms per call on a 2-core EPYC
    oracle_calls = (0, 1, 2)
    oracle_rows = 10

    def __init__(self) -> None:
        super().__init__()
        self.reports: dict[int, tuple[int, str]] = {}

    def raw_input(self, seed, call):
        return call_rng(self.name, seed, call).randrange(2**31)

    def argv(self, verify_seed: int, output: Path) -> list[str]:
        return [
            "verify", "--n", str(self.n), "--p", str(self.p),
            "--strategy", "uniform", "--samples", str(self.pairs_per_call),
            "--seed", str(verify_seed), "--threads", "1", "--output", str(output),
        ]  # fmt: skip

    def bind(self, tb, workdir):
        super().bind(tb, workdir)
        self.report_path = workdir / "report.json"

    def run(self, verify_seed):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.tb.cli.main(self.argv(verify_seed, self.report_path))

    def check(self, call, verify_seed, code):
        if not self.report_path.is_file():
            self.fail(f"verify seed {verify_seed}: exit code {code}, no report")
            return self.pairs_per_call, self.pairs_per_call
        text = self.report_path.read_text()
        self.report_path.unlink()
        report = json.loads(text)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if report.get("n_samples") != self.pairs_per_call:
            problems.append(f"n_samples {report.get('n_samples')}")
        if report.get("violations") != 0:
            problems.append(f"violations {report.get('violations')}")
        if problems:
            self.fail(f"verify seed {verify_seed}: " + ", ".join(problems))
            return self.pairs_per_call, self.pairs_per_call
        if call in self.oracle_calls:
            self.reports[call] = (verify_seed, text)
        return self.pairs_per_call, 0

    def oracle_check(self):
        """Re-run kept calls with per-pair rows; re-embed and re-walk a subsample.

        The re-run must reproduce the timed call's report, so the rows belong
        to the output that was timed.
        """
        failed = 0
        rerun_report = self.workdir / "check.json"
        rows_path = self.workdir / "check.csv"
        for call, (verify_seed, text) in sorted(self.reports.items()):
            with contextlib.redirect_stderr(io.StringIO()):
                self.tb.cli.main(
                    self.argv(verify_seed, rerun_report) + ["--csv", str(rows_path)]
                )
            if rerun_report.read_text() != text:
                self.fail(f"verify seed {verify_seed}: report differs on re-run")
                failed += self.pairs_per_call
                continue
            with open(rows_path, newline="") as fh:
                rows = list(csv.reader(fh))[1 : 1 + self.oracle_rows]
            for row in rows:
                self.checked += 1
                if not self.check_row(row):
                    failed += 1
        return failed

    def check_row(self, row: list[str]) -> bool:
        """One CSV row (t, x.., tp, xp.., d_hyp, d_tree, d_c..) against the oracle."""
        n, p = self.n, self.p
        vals = [float(v) for v in row]
        t, x = vals[0], vals[1 : 1 + n]
        tp, xp = vals[1 + n], vals[2 + n : 2 + 2 * n]
        d_hyp, d_tree = vals[2 + 2 * n], vals[3 + 2 * n]
        per_color = [int(v) for v in row[4 + 2 * n :]]
        ok = True
        images = []
        for ti, xi in ((t, x), (tp, xp)):
            want = oracle.embedding(n, p, ti, xi)
            point = self.tb.api.HoroPoint(ti, tuple(xi))
            got = [oracle.as_tuple(c) for c in self.tb.api.embed(self.P, point).images]
            if got != want:
                self.fail(f"embedding of {(ti, xi)}: got {got}, oracle {want}")
                ok = False
            images.append(want)
        want_d = [oracle.tree_distance(n, p, u, v) for u, v in zip(*images)]
        if per_color != want_d:
            self.fail(f"pair {row[:2 + 2 * n]}: tree distances {per_color}, oracle {want_d}")
            ok = False
        if d_tree != sum(per_color):
            self.fail(f"pair {row[:2 + 2 * n]}: d_tree {d_tree} != sum {per_color}")
            ok = False
        want_h = oracle.hyp_distance(p, t, x, tp, xp)
        if not math.isclose(d_hyp, want_h, rel_tol=1e-7, abs_tol=1e-7):
            self.fail(f"pair {row[:2 + 2 * n]}: d_hyp {d_hyp}, oracle {want_h}")
            ok = False
        return ok


class TreeWalkN1P5(Workload):
    name = "tree-walk-n1p5"
    n, p = 1, 5
    queries_per_call = 2000  # about 25 ms per call on a 2-core EPYC
    max_level_drop = 4

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[tuple, tuple, int]] = []

    def raw_input(self, seed, call):
        """Same-color pairs: u at a level in -4..20, v 0..4 levels lower.

        v's lattice point is u's scaled down to v's level plus an offset of
        up to p^4, which puts the first common ancestor a few levels below v.
        """
        rng = call_rng(self.name, seed, call)
        p, n = self.p, self.n
        spread = p**4
        queries = []
        for _ in range(self.queries_per_call):
            c = rng.randint(0, n)
            k = rng.randint(-4, 20)
            gamma = tuple(rng.randint(-(p**3), p**3) for _ in range(n))
            drop = rng.randint(0, self.max_level_drop)
            gamma_v = tuple(g // p**drop + rng.randint(-spread, spread) for g in gamma)
            queries.append(((c, k, gamma), (c, k - drop, gamma_v)))
        return queries

    def prepare(self, raw):
        cube = self.tb.api.CubeId
        return [(cube(*u), cube(*v)) for u, v in raw]

    def run(self, queries):
        api, P = self.tb.api, self.P
        return [api.tree_distance(P, u, v) for u, v in queries]

    def check(self, call, queries, dists):
        if len(dists) != len(queries) or not all(
            isinstance(d, int) and d >= 0 for d in dists
        ):
            self.fail(f"call {call}: malformed distances")
            return len(queries), len(queries)
        u, v = queries[0]
        self.kept.append((oracle.as_tuple(u), oracle.as_tuple(v), dists[0]))
        return len(queries), 0

    def oracle_check(self):
        failed = 0
        for u, v, got in self.kept:
            self.checked += 1
            want = oracle.tree_distance(self.n, self.p, u, v)
            if got != want:
                self.fail(f"tree distance {u} to {v}: got {got}, oracle {want}")
                failed += 1
        return failed


class SeparationN2P7(Workload):
    name = "separation-n2p7"
    n, p = 2, 7
    verdicts_per_call = 500  # about 25 ms per call on a 2-core EPYC
    level_min, level_max = -3, 4  # check-separation's default levels

    def __init__(self) -> None:
        super().__init__()
        self.kept: list[tuple[tuple, tuple, str]] = []

    def raw_input(self, seed, call):
        """Same-color pairs at distinct levels, drawn as check-separation draws.

        check-separation's independent lattice points almost never nest (none
        in 75k draws at n=2, p=7), which would leave the margin branch
        unmeasured. So every second pair instead puts the higher cube's
        lattice point under the lower cube's footprint, which nests in about
        a third of those pairs and leaves the rest close to the boundary.
        """
        rng = call_rng(self.name, seed, call)
        bound = self.p**3
        pairs = []
        for i in range(self.verdicts_per_call):
            k1 = k2 = self.level_min
            while k1 == k2:
                k1 = rng.randint(self.level_min, self.level_max)
                k2 = rng.randint(self.level_min, self.level_max)
            lo_k, hi_k = min(k1, k2), max(k1, k2)
            c = rng.randint(0, self.n)
            gamma = tuple(rng.randint(-bound, bound) for _ in range(self.n))
            if i % 2:
                scale = self.p ** (hi_k - lo_k)
                gamma_high = tuple(scale * g + rng.randrange(scale) for g in gamma)
            else:
                gamma_high = tuple(rng.randint(-bound, bound) for _ in range(self.n))
            pairs.append(((c, lo_k, gamma), (c, hi_k, gamma_high)))
        return pairs

    def prepare(self, raw):
        cube = self.tb.api.CubeId
        return [(cube(*low), cube(*high)) for low, high in raw]

    def run(self, pairs):
        api, P = self.tb.api, self.P
        return [api.separation_verdict(P, low, high) for low, high in pairs]

    def check(self, call, pairs, verdicts):
        violation = self.tb.api.SeparationKind.VIOLATION
        failed = 0
        for (low, high), verdict in zip(pairs, verdicts):
            if verdict.kind is violation:
                self.fail(f"violation: {low} / {high}")
                failed += 1
        failed += len(pairs) - len(verdicts)
        low, high = pairs[0]
        self.kept.append((oracle.as_tuple(low), oracle.as_tuple(high), verdicts[0].kind.value))
        return len(pairs), failed

    def oracle_check(self):
        failed = 0
        for low, high, got in self.kept:
            self.checked += 1
            want = oracle.separation_kind(self.n, self.p, low, high)
            if got != want:
                self.fail(f"separation {low} / {high}: got {got}, oracle {want}")
                failed += 1
        return failed


WORKLOADS = {w.name: w for w in (VerifyN2P7, TreeWalkN1P5, SeparationN2P7)}
