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
import json
import math
import random
import time
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from operator import index

from .core import Params, Record, ResourceLimit
from .embedding import embed, embedding_level, per_color_distances, product_norm
from .hyperbolic import HoroPoint, hyp_distance

STRATEGIES = ("uniform", "same_horosphere", "vertical", "near_pairs")

# Pairs closer than this are kept in reports but carry no slope information;
# the additive constant covers them.
MIN_FIT_DHYP = 0.1


class Region(Record):
    __slots__ = ("t_min", "t_max", "x_radius")

    def __init__(self, t_min: float, t_max: float, x_radius: float) -> None:
        for name, value in zip(self.__slots__, (t_min, t_max, x_radius)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if t_min > t_max:
            raise ValueError(f"t_min {t_min} > t_max {t_max}")
        if x_radius <= 0:
            raise ValueError(f"x_radius must be positive, got {x_radius}")
        # Sampling draws from spans t_max - t_min and 2 * x_radius.
        if math.isinf(t_max - t_min):
            raise ValueError(
                f"span t_max - t_min of [{t_min}, {t_max}] is beyond the double range"
            )
        if math.isinf(2.0 * x_radius):
            raise ValueError(f"x_radius {x_radius} is beyond half the double range")
        object.__setattr__(self, "t_min", t_min)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "x_radius", x_radius)

    def to_json_dict(self) -> dict:
        return {
            "t_min": self.t_min,
            "t_max": self.t_max,
            "x_radius": self.x_radius,
        }


def default_region(P: Params) -> Region:
    return Region(-4.0, 4.0, float(P.p**4))


class SamplePlan(Record):
    __slots__ = ("region", "count", "strategy", "seed")

    def __init__(
        self, region: Region, count: int, strategy: str = "uniform", seed: int = 0
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "vertical" and math.ceil(region.t_min) > region.t_max:
            raise ValueError(
                f"region t in [{region.t_min}, {region.t_max}] holds no integer "
                "height for the vertical strategy"
            )
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "seed", seed)

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
) -> Iterator[tuple[HoroPoint, HoroPoint]]:
    """Deterministic pair sample for a fixed seed, drawn lazily in order.

    vertical: equal x, integer heights. same_horosphere: equal heights.
    near_pairs: hyperbolic distance at most 2 (offsets halved until inside).
    """
    rng = random.Random(plan.seed)
    region = plan.region
    k_lo = math.ceil(region.t_min)
    k_hi = math.floor(region.t_max)
    for _ in range(plan.count):
        if plan.strategy == "uniform":
            yield _rand_point(P, rng, region), _rand_point(P, rng, region)
        elif plan.strategy == "same_horosphere":
            t = rng.uniform(region.t_min, region.t_max)
            a = _rand_point(P, rng, region)
            b = _rand_point(P, rng, region)
            yield HoroPoint(t, a.x), HoroPoint(t, b.x)
        elif plan.strategy == "vertical":
            x = _rand_point(P, rng, region).x
            k1 = rng.randint(k_lo, k_hi)
            k2 = rng.randint(k_lo, k_hi)
            yield HoroPoint(float(k1), x), HoroPoint(float(k2), x)
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
            while True:
                zp = HoroPoint(z.t + dt, tuple(a + b for a, b in zip(z.x, dx)))
                if hyp_distance(P, z, zp) <= 2.0:
                    break
                dt *= 0.5
                dx = tuple(c * 0.5 for c in dx)
            yield z, zp


class DistortionReport(Record):
    __slots__ = ("n", "p", "norm", "samples", "plan", "l", "m", "violations",
                 "runtime_ms")

    def __init__(
        self, n: int, p: int, norm: str, samples: tuple[tuple[float, float], ...],
        plan: SamplePlan | None = None, l: float | None = None,
        m: float | None = None, violations: int | None = None,
        runtime_ms: float | None = None,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "norm", norm)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "runtime_ms", runtime_ms)

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


def evaluate_pairs(
    P: Params,
    pairs: Iterable[tuple[HoroPoint, HoroPoint]],
    norm: str = "l1",
    plan: SamplePlan | None = None,
    csv_file=None,
) -> DistortionReport:
    """Measure every pair, in order, keeping (d_hyp, d_tree); fit fields stay empty.

    With csv_file, an open text file, a header and then one row per pair
    (t, x.., tp, xp.., d_hyp, d_tree, d_c..) are written as the pairs are
    measured.
    """
    norm = norm.lower()
    if csv_file is not None:
        write_row = csv.writer(csv_file).writerow
        xs = [f"x{i}" for i in range(P.n)]
        xps = [f"xp{i}" for i in range(P.n)]
        cs = [f"d_c{c}" for c in range(P.n + 1)]
        write_row(["t", *xs, "tp", *xps, "d_hyp", "d_tree", *cs])
    start = time.perf_counter()
    samples = []
    for z, zp in pairs:
        per = per_color_distances(P, embed(P, z), embed(P, zp))
        d_hyp = hyp_distance(P, z, zp)
        d_tree = product_norm(per, norm)
        samples.append((d_hyp, d_tree))
        if csv_file is not None:
            write_row(
                [repr(z.t), *map(repr, z.x), repr(zp.t), *map(repr, zp.x),
                 repr(d_hyp), repr(d_tree), *map(str, per)]
            )
    runtime_ms = (time.perf_counter() - start) * 1000.0
    if not samples:
        raise ValueError("no pairs to evaluate")
    return DistortionReport(
        n=P.n,
        p=P.p,
        norm=norm,
        samples=tuple(samples),
        plan=plan,
        runtime_ms=runtime_ms,
    )


def count_violations(
    samples: Iterable[tuple[float, float]], l: float, m: float
) -> int:
    """(d_hyp, d_tree) pairs above the small-distance floor breaking either
    envelope side, beyond a tolerance of 1e-9."""
    return sum(
        h >= MIN_FIT_DHYP and (t > l * h + m + 1e-9 or h > l * t + m + 1e-9)
        for h, t in samples
    )


def _check_m_max(m_max: int) -> None:
    if index(m_max) < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")


def fit_qi_constants(report: DistortionReport, m_max: int = 50) -> DistortionReport:
    """Fit the envelope constants (l, m) with m an integer in 0..m_max.

    For each m the required slope is the max over the fitting set (pairs
    with d_hyp >= 0.1) of (d_tree - m)/d_hyp and (d_hyp - m)/d_tree, the
    latter only where d_tree > 0; the slope is floored at 1, the smallest
    slope a quasi-isometry can have.

    Every divisor is positive and float subtraction and division round
    monotonically, so the slope is non-increasing in m: l is the slope at
    m_max and m the least integer reaching it, found by bisection (at most 7
    slope evaluations at the default). So the default reports the floor 1
    whenever every fitted pair has |d_tree - d_hyp| <= 50.

    A fitted pair with d_tree = 0 bounds no slope, so only m can cover its
    side d_hyp <= l*d_tree + m: m is at least ceil(d_hyp) over such pairs,
    capped at m_max. That leaves l alone, as the slope never rises with m.

    Raises:
        TypeError: m_max is not an integer.
        ValueError: m_max is negative, or no pair reaches the fitting floor.
    """
    _check_m_max(m_max)
    fitting = [s for s in report.samples if s[0] >= MIN_FIT_DHYP]
    if not fitting:
        raise ValueError("every pair is below the fitting floor; nothing to fit")

    def slope(m: float) -> float:
        return max(
            1.0,
            max([(t - m) / h for h, t in fitting]),
            max([(h - m) / t for h, t in fitting if t > 0], default=1.0),
        )

    flat = max((h for h, t in fitting if t == 0), default=0.0)
    m_min = min(m_max, math.ceil(flat))
    l = slope(float(m_max))
    m = float(
        bisect_left(range(m_max), True, m_min, key=lambda j: slope(float(j)) <= l)
    )
    r = report
    violations = count_violations(r.samples, l, m)
    return DistortionReport(
        r.n, r.p, r.norm, r.samples, r.plan, l, m, violations, r.runtime_ms
    )


def vertical_bound_check(P: Params, count: int, seed: int) -> tuple[dict, ...]:
    """Check max-color tree distance >= (dk+1)/(n+1) - 1 on vertical pairs.

    The bound follows from the covering of every horosphere by the n+1
    colors: of the dk+1 integer levels a vertical geodesic crosses, some
    color owns at least (dk+1)/(n+1) of the crossing points, and those cubes
    form a nested chain. It must hold for every pair; a failure is an
    implementation bug, not noise. Pairs come from the default region.
    Returns up to 16 failure records; the check passes when there are none.
    """
    plan = SamplePlan(default_region(P), count, "vertical", seed)
    failures = []
    for z, zp in sample_pairs(P, plan):
        per = per_color_distances(P, embed(P, z), embed(P, zp))
        dk = abs(embedding_level(z) - embedding_level(zp))
        bound = (dk + 1) / (P.n + 1) - 1.0
        if max(per) < bound - 1e-12:
            failures.append(
                {
                    "t": z.t,
                    "tp": zp.t,
                    "x": list(z.x),
                    "bound": bound,
                    "per_color": list(per),
                }
            )
    return tuple(failures[:16])


def stability_probe(
    P: Params,
    base_plan: SamplePlan,
    scales: Sequence[float],
    m_max: int = 50,
) -> list[tuple[float, float]]:
    """Fit the L1 envelope on scaled copies of the base region: (l, m) per scale.

    A sound embedding keeps the slope flat as the region grows; a broken one
    (e.g. every image forced to level 0) cannot, because hyperbolic
    distances grow linearly with the region while its tree distances only
    grow logarithmically. m_max is checked as in the fit, before sampling.
    """
    _check_m_max(m_max)
    if list(scales) != sorted(scales):
        raise ValueError(f"scales must be increasing, got {scales!r}")
    fits, r = [], base_plan.region
    for i, s in enumerate(scales):
        plan = SamplePlan(
            region=Region(r.t_min * s, r.t_max * s, r.x_radius * s),
            count=base_plan.count,
            strategy=base_plan.strategy,
            seed=base_plan.seed + i,
        )
        report = evaluate_pairs(P, sample_pairs(P, plan), plan=plan)
        fitted = fit_qi_constants(report, m_max)
        fits.append((fitted.l, fitted.m))
    return fits
