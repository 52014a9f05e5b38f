"""Metric model of the rescaled hyperbolic space in horospherical coordinates.

Points are written (t, x) in R x R^n with the metric
ds^2 = dt^2 + e^{2*sigma*t} dx^2 where sigma = ln p, which has constant
curvature -sigma^2. The level-t horosphere {t} x R^n carries the intrinsic
metric p^t * ||.||, so dropping one level contracts horospherical lengths by
exactly 1/p.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import DimensionMismatch, Params, Record, ResourceLimit


class HoroPoint(Record):
    """Point (t, x): horospherical height t and horosphere coordinates x."""

    __slots__ = ("t", "x")

    def __init__(self, t: float, x: tuple[float, ...]) -> None:
        try:
            finite = math.isfinite(t) and all(map(math.isfinite, x))
        except OverflowError:  # an integer beyond the double range
            raise ValueError("a coordinate is beyond the double range") from None
        if not finite:
            raise ValueError(f"non-finite coordinate in t={t}, x={x}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)


def _check_dim(P: Params, z: HoroPoint) -> None:
    if len(z.x) != P.n:
        raise DimensionMismatch(f"point dim {len(z.x)} vs n={P.n}")


def hyp_distance(P: Params, z: HoroPoint, zp: HoroPoint) -> float:
    """Distance in the curvature -sigma^2 space between z and z'.

    Closed form: cosh(sigma*d) = cosh(sigma*(t-t'))
                               + (sigma^2/2) * e^{sigma*(t+t')} * ||x-x'||^2,
    obtained from the curvature -1 upper-half-space law under the coordinate
    change y = e^{-sigma*t}. Cross-validated against numerical geodesic
    integration in the test suite. Evaluated via log1p/sqrt so nearby points
    do not lose precision to acosh near 1. Where u*(u+2) overflows, though u
    is finite, acosh(1+u) = ln(2u) to within O(1/u), below one ulp there.
    For equal x the horizontal term is skipped, as it adds 0 whatever the
    heights. An intermediate term beyond the double range raises
    ResourceLimit.
    """
    _check_dim(P, z)
    _check_dim(P, zp)
    s = P.sigma
    dt = z.t - zp.t
    try:
        r2 = math.fsum((a - b) ** 2 for a, b in zip(z.x, zp.x))
        u = 2.0 * math.sinh(0.5 * s * dt) ** 2
        if r2:
            u += 0.5 * s * s * math.exp(s * (z.t + zp.t)) * r2
    except OverflowError:
        u = math.inf
    if not math.isfinite(u):
        raise ResourceLimit(f"distance overflow between {z} and {zp}")
    w = u * (u + 2.0)
    if math.isinf(w):
        return (math.log(u) + math.log(2.0)) / s
    return math.log1p(u + math.sqrt(w)) / s


def horo_distance(
    P: Params, k: float, x: Sequence[float], xp: Sequence[float]
) -> float:
    """Intrinsic metric of the level-k horosphere: p^k * ||x - x'||.

    A p^k or a distance beyond the double range raises ResourceLimit.
    """
    if len(x) != P.n or len(xp) != P.n:
        raise DimensionMismatch(f"dims {len(x)}, {len(xp)} vs n={P.n}")
    try:
        d = float(P.p) ** k * math.dist(x, xp)
    except OverflowError:
        d = math.inf
    if math.isinf(d):
        raise ResourceLimit(f"horosphere distance overflow at p={P.p}")
    return d
