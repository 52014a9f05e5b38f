"""Empirical distortion harness for the tree-product embedding.

Samples point pairs, measures hyperbolic against tree-product distances,
fits a two-sided linear envelope (the empirical quasi-isometry constants),
and runs the exact vertical lower-bound check. The envelope constants are
fitted, not reproduced: the construction guarantees their existence but
gives no numeric values, so the meaningful signal is that the fitted slope
does not drift as the sampled region grows.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .core import Params
from .cubes import ResourceLimit
from .embedding import embed, per_color_distances, product_norm
from .hyperbolic import HoroPoint, hyp_distance

STRATEGIES = ("uniform", "same_horosphere", "vertical", "near_pairs")

# Pairs closer than this are kept in reports but carry no slope information;
# the additive constant covers them.
MIN_FIT_DHYP = 0.1


class DegenerateSample(ValueError):
    """No sample pair carries slope information (all essentially identical)."""


@dataclass(frozen=True)
class Region:
    t_min: float
    t_max: float
    x_radius: float

    def __post_init__(self) -> None:
        if self.t_min > self.t_max:
            raise ValueError(f"t_min {self.t_min} > t_max {self.t_max}")
        if self.x_radius <= 0:
            raise ValueError(f"x_radius must be positive, got {self.x_radius}")

    def scaled(self, factor: float) -> "Region":
        return Region(
            self.t_min * factor, self.t_max * factor, self.x_radius * factor
        )

    def to_json_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "x_radius": self.x_radius,
        }


def default_region(P: Params) -> Region:
    return Region(-4.0, 4.0, float(P.p**4))


@dataclass(frozen=True)
class SamplePlan:
    region: Region
    count: int
    strategy: str = "uniform"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )

    def to_json_dict(self) -> dict:
        return {
            "region": self.region.to_json_dict(),
            "count": self.count,
            "strategy": self.strategy,
            "seed": self.seed,
        }


def _rand_point(P: Params, rng: random.Random, region: Region) -> HoroPoint:
    t = rng.uniform(region.t_min, region.t_max)
    x = tuple(
        rng.uniform(-region.x_radius, region.x_radius) for _ in range(P.n)
    )
    return HoroPoint(t, x)


def sample_pairs(
    P: Params, plan: SamplePlan
) -> list[tuple[HoroPoint, HoroPoint]]:
    """Deterministic pair sample for a fixed seed.

    vertical: equal x, integer heights. same_horosphere: equal heights.
    near_pairs: hyperbolic distance at most 2 (offsets halved until inside).
    """
    rng = random.Random(plan.seed)
    region = plan.region
    k_lo = math.ceil(region.t_min)
    k_hi = math.floor(region.t_max)
    if plan.strategy == "vertical" and k_lo > k_hi:
        raise ValueError(
            f"region t in [{region.t_min}, {region.t_max}] holds no integer "
            "height for the vertical strategy"
        )
    pairs = []
    for _ in range(plan.count):
        if plan.strategy == "uniform":
            pairs.append((_rand_point(P, rng, region), _rand_point(P, rng, region)))
        elif plan.strategy == "same_horosphere":
            t = rng.uniform(region.t_min, region.t_max)
            a = _rand_point(P, rng, region)
            b = _rand_point(P, rng, region)
            pairs.append((HoroPoint(t, a.x), HoroPoint(t, b.x)))
        elif plan.strategy == "vertical":
            x = _rand_point(P, rng, region).x
            k1 = rng.randint(k_lo, k_hi)
            k2 = rng.randint(k_lo, k_hi)
            pairs.append((HoroPoint(float(k1), x), HoroPoint(float(k2), x)))
        else:  # near_pairs
            z = _rand_point(P, rng, region)
            dt = rng.uniform(-1.0, 1.0)
            try:
                scale = float(P.p) ** (-z.t)
            except OverflowError:
                raise ResourceLimit(
                    f"near_pairs offset scale p^-t overflows at t={z.t}, p={P.p}"
                ) from None
            dx = tuple(rng.uniform(-scale, scale) for _ in range(P.n))
            zp = HoroPoint(z.t + dt, tuple(a + b for a, b in zip(z.x, dx)))
            while hyp_distance(P, z, zp) > 2.0:
                dt *= 0.5
                dx = tuple(c * 0.5 for c in dx)
                zp = HoroPoint(z.t + dt, tuple(a + b for a, b in zip(z.x, dx)))
            pairs.append((z, zp))
    return pairs


@dataclass(frozen=True)
class PairSample:
    z: HoroPoint
    zp: HoroPoint
    d_hyp: float
    d_tree: float
    per_color: tuple[int, ...]


@dataclass(frozen=True)
class DistortionReport:
    n: int
    p: int
    norm: str
    samples: tuple[PairSample, ...]
    plan: SamplePlan | None = None
    l: float | None = None
    m: float | None = None
    violations: int | None = None
    runtime_ms: float | None = None

    def to_json_dict(self) -> dict:
        # runtime_ms deliberately stays out: report files must be
        # byte-identical across runs for a fixed seed.
        return {
            "params": {"n": self.n, "p": self.p},
            "plan": self.plan.to_json_dict() if self.plan else None,
            "norm": self.norm,
            "n_samples": len(self.samples),
            "fit": {"l": self.l, "m": self.m},
            "violations": self.violations,
        }

    def to_json(self) -> str:
        doc = self.to_json_dict()
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        xs = [f"x{i}" for i in range(self.n)]
        xps = [f"xp{i}" for i in range(self.n)]
        cs = [f"d_c{c}" for c in range(self.n + 1)]
        w.writerow(["t"] + xs + ["tp"] + xps + ["d_hyp", "d_tree"] + cs)
        for s in self.samples:
            w.writerow(
                [repr(s.z.t)]
                + [repr(c) for c in s.z.x]
                + [repr(s.zp.t)]
                + [repr(c) for c in s.zp.x]
                + [repr(s.d_hyp), repr(s.d_tree)]
                + [str(d) for d in s.per_color]
            )
        return out.getvalue()


def _eval_one(P: Params, pair: tuple[HoroPoint, HoroPoint], norm: str) -> PairSample:
    z, zp = pair
    per = per_color_distances(P, embed(P, z), embed(P, zp))
    return PairSample(z, zp, hyp_distance(P, z, zp), product_norm(per, norm), per)


def evaluate_pairs(
    P: Params,
    pairs: Sequence[tuple[HoroPoint, HoroPoint]],
    norm: str = "l1",
    plan: SamplePlan | None = None,
) -> DistortionReport:
    """Measure every pair, in order; fit fields stay empty."""
    if not pairs:
        raise DegenerateSample("no pairs to evaluate")
    norm = norm.lower()
    start = time.perf_counter()
    samples = [_eval_one(P, pr, norm) for pr in pairs]
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return DistortionReport(
        n=P.n,
        p=P.p,
        norm=norm,
        samples=tuple(samples),
        plan=plan,
        runtime_ms=runtime_ms,
    )


def count_violations(samples: Sequence[PairSample], l: float, m: float) -> int:
    """Pairs (above the small-distance floor) breaking either envelope side,
    beyond a tolerance of 1e-9."""
    bad = 0
    for s in samples:
        if s.d_hyp < MIN_FIT_DHYP:
            continue
        if s.d_tree > l * s.d_hyp + m + 1e-9 or s.d_hyp > l * s.d_tree + m + 1e-9:
            bad += 1
    return bad


def fit_qi_constants(
    report: DistortionReport, m_grid: Sequence[float] | None = None
) -> DistortionReport:
    """Fit the envelope constants (l, m) over an additive-constant grid.

    For each m the required slope is the max over the fitting set (pairs
    with d_hyp >= 0.1) of (d_tree - m)/d_hyp and (d_hyp - m)/d_tree, the
    latter only where d_tree > 0; the slope is floored at 1, the smallest
    slope a quasi-isometry can have. The grid point minimizing the slope
    wins, ties to the smaller m.

    Every divisor is positive and float subtraction and division round
    monotonically, so the slope is non-increasing in m: the minimal slope is
    the one at the grid's largest m, and the m kept is the smallest grid
    point reaching it, found by bisection (at most 7 slope evaluations on
    the default 51-point grid). So the default grid always reports the
    slope at m = 50, which is the floor 1 whenever every fitted pair has
    |d_tree - d_hyp| <= 50.

    Raises:
        ValueError: m_grid is empty or holds a non-finite entry.
    """
    grid = [float(m) for m in range(51)] if m_grid is None else list(m_grid)
    if not grid or not all(math.isfinite(m) for m in grid):
        raise ValueError(f"m_grid must be non-empty and finite, got {m_grid!r}")
    fitting = [s for s in report.samples if s.d_hyp >= MIN_FIT_DHYP]
    if not fitting:
        raise DegenerateSample(
            "every pair is below the fitting floor; nothing to fit"
        )
    # (a, b) operands of the slope bounds (a - m) / b, built once for all m.
    operands = [(s.d_tree, s.d_hyp) for s in fitting] + [
        (s.d_hyp, s.d_tree) for s in fitting if s.d_tree > 0
    ]

    def slope(m: float) -> float:
        return max(1.0, max([(a - m) / b for a, b in operands]))

    # The sort is stable, so among equal grid values the first one listed is
    # kept, as a scan would keep it.
    grid.sort()
    l = slope(grid[-1])
    m = grid[bisect_left(grid, True, hi=len(grid) - 1, key=lambda m: slope(m) <= l)]
    return dataclasses.replace(
        report, l=l, m=m, violations=count_violations(report.samples, l, m)
    )


@dataclass(frozen=True)
class VerticalCheckReport:
    """Outcome of the exact vertical lower-bound check."""

    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def vertical_bound_check(P: Params, count: int, seed: int) -> VerticalCheckReport:
    """Check max-color tree distance >= (dk+1)/(n+1) - 1 on vertical pairs.

    The bound follows from the covering of every horosphere by the n+1
    colors: of the dk+1 integer levels a vertical geodesic crosses, some
    color owns at least (dk+1)/(n+1) of the crossing points, and those cubes
    form a nested chain. It must hold for every pair; a failure is an
    implementation bug, not noise. Pairs come from the default region.
    """
    plan = SamplePlan(default_region(P), count, "vertical", seed)
    failures = []
    for s in evaluate_pairs(P, sample_pairs(P, plan)).samples:
        dk = abs(round(s.z.t) - round(s.zp.t))
        bound = (dk + 1) / (P.n + 1) - 1.0
        if max(s.per_color) < bound - 1e-12:
            failures.append(
                {
                    "t": s.z.t,
                    "tp": s.zp.t,
                    "x": list(s.z.x),
                    "bound": bound,
                    "per_color": list(s.per_color),
                }
            )
    return VerticalCheckReport(tuple(failures[:16]))


@dataclass(frozen=True)
class TrendReport:
    """Fitted slope and additive constant per region scale."""

    ls: tuple[float, ...]
    ms: tuple[float, ...]


def stability_probe(
    P: Params,
    base_plan: SamplePlan,
    scales: Sequence[float],
    m_grid: Sequence[float] | None = None,
) -> TrendReport:
    """Fit the L1 envelope on scaled copies of the base region.

    A sound embedding keeps the slope flat as the region grows; a broken one
    (e.g. every image forced to level 0) cannot, because hyperbolic
    distances grow linearly with the region while its tree distances only
    grow logarithmically.
    """
    if list(scales) != sorted(scales):
        raise ValueError(f"scales must be increasing, got {scales!r}")
    ls = []
    ms = []
    for i, s in enumerate(scales):
        plan = SamplePlan(
            region=base_plan.region.scaled(s),
            count=base_plan.count,
            strategy=base_plan.strategy,
            seed=base_plan.seed + i,
        )
        report = evaluate_pairs(P, sample_pairs(P, plan), plan=plan)
        fitted = fit_qi_constants(report, m_grid)
        ls.append(fitted.l)
        ms.append(fitted.m)
    return TrendReport(tuple(ls), tuple(ms))
