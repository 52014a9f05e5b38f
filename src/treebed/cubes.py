"""Colored nested cube patterns: realization, location, separation, covering.

The pattern of color c at level k is a lattice family of closed cubes in
R^n. A cube is identified symbolically by (c, k, gamma) and realizes to the
exact rational box

    H^{-k}(gamma + s_c + A),   A = [1/p, 1 - 1/p]^n,

where H(x) = p*(x - 1/p) is the lattice expansion and
H^{-k}(x) = p^{-k} * (x - e) + e is its inverse iterate expressed through
the fixed point e = 1/(p-1), and s_c = m_c/(p-1), m_c = floor(c(p-1)/(n+1)),
is color c's diagonal shift (c/(n+1) whenever (n+1) divides p-1). Level-k
cubes have side (1 - 2/p)*p^{-k} and repeat with period p^{-k} along every
axis, so the same-level family of one color is pairwise disjoint with axis
gaps of exactly 2*p^{-(k+1)}. As s_c is a multiple of 1/(p-1), H^{-1} maps lattice
points to lattice points, so same-color cubes are nested or separated.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index
from typing import Sequence

from .core import (
    DimensionMismatch,
    Params,
    Rational,
    RationalBox,
    RationalVec,
)


class ColorMismatch(ValueError):
    """Operation mixed cubes of different colors."""


class LevelOrder(ValueError):
    """Cube pair was not presented in ascending level order."""


class ResourceLimit(RuntimeError):
    """An input needs more work or range than a fixed bound of the package allows."""


def check_level(P: Params, k: int) -> None:
    """Raise ResourceLimit for a level k with |k| > P.level_bound."""
    if abs(k) > P.level_bound:
        raise ResourceLimit(
            f"level {k} is beyond the representable heights "
            f"|t| <= {P.level_bound:.1f} for p={P.p}"
        )


@dataclass(frozen=True)
class CubeId:
    """Symbolic cube: color c, level k, lattice point gamma."""

    c: int
    k: int
    gamma: tuple[int, ...]

    def key(self) -> tuple:
        return (self.c, self.k, self.gamma)


def _check_color(P: Params, c: int) -> None:
    try:
        index(c)
    except TypeError:
        raise TypeError(f"color {c!r} is not an integer") from None
    if not 0 <= c <= P.n:
        raise ColorMismatch(f"color {c} outside 0..{P.n}")


def _check_id(P: Params, cid: CubeId) -> None:
    _check_color(P, cid.c)
    if len(cid.gamma) != P.n:
        raise DimensionMismatch(f"gamma dim {len(cid.gamma)} vs n={P.n}")
    try:
        index(cid.k)
        for g in cid.gamma:
            index(g)
    except TypeError:
        raise TypeError(f"cube id needs integer k and gamma, got {cid}") from None
    check_level(P, cid.k)


def realize(P: Params, cid: CubeId) -> RationalBox:
    """Exact rational box of a symbolic cube: the product of its axis slabs."""
    _check_id(P, cid)
    lo, hi = zip(*(P.slab(cid.c, cid.k, g) for g in cid.gamma))
    return RationalBox(lo, hi)


def locate(
    P: Params, c: int, k: int, x: Sequence[Rational | float | str]
) -> CubeId | None:
    """Cube of color c at level k whose closed box contains x, or None.

    Exact: x is coerced to rationals. Same-level cubes of one color are
    disjoint, so the containing cube is unique when it exists; points in the
    gap return None.
    """
    _check_color(P, c)
    check_level(P, index(k))
    p = P.p
    cells = [(*divmod(num, den), den) for num, den in P.positions(c, k, x)]
    if all(den <= p * r <= (p - 1) * den for _, r, den in cells):
        return CubeId(c, k, tuple(g for g, _, _ in cells))
    return None


def nearest_in_level(
    P: Params, c: int, k: int, x: Sequence[Rational | float | str]
) -> CubeId:
    """Cube of color c at level k closest (Euclidean) to the point x.

    The pattern is a product of one-dimensional patterns, so each axis
    minimizes independently; ties break to the smaller lattice coordinate,
    which yields the lexicographically smallest gamma overall. Comparisons
    are exact (floats convert to rationals losslessly). Slab g is nearest
    exactly for lattice positions in (g, g+1], as the gaps' midpoints are
    the integers.
    """
    _check_color(P, c)
    check_level(P, index(k))
    gamma = []
    for num, den in P.positions(c, k, x):
        gamma.append((num - 1) // den)  # the g with g < u <= g + 1
    return CubeId(c, k, tuple(gamma))


class SeparationKind(enum.Enum):
    DISJOINT_FAR = "disjoint_far"
    NESTED_DEEP = "nested_deep"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SeparationVerdict:
    """Classification of a lower-level/higher-level cube pair.

    The required clearance is p^-(k+1) for the higher level k. Disjoint and
    overlapping pairs carry the exact squared gap (a disjoint pair is far
    when it reaches the clearance squared); nested pairs carry the exact
    boundary margin.
    """

    kind: SeparationKind
    gap_sq: Fraction | None = None
    margin: Fraction | None = None

    @property
    def witness(self) -> Fraction:
        return self.margin if self.margin is not None else self.gap_sq


def separation_verdict(P: Params, low: CubeId, high: CubeId) -> SeparationVerdict:
    """Exact separation check for a same-color pair with low.k < high.k.

    The higher-level (smaller) cube must either keep a gap of at least
    p^-(high.k+1) from the lower-level cube or sit inside it with at least
    that boundary margin; anything else is a violation.

    Decided in the integers of the per-axis map (see :class:`Params`): on
    the higher level's grid, in units of 1/(D p^k) for k = high.k, each
    axis's outer slab is [s(gD + C), s(gD + C) + sW] and its inner slab
    [g'D + C, g'D + C + W], with s = p^(high.k - low.k), C = P.C[c] and
    W = P.W, after the common offset p*p^k is dropped. The bound p^-(k+1)
    is D/p of these units at every level, so both tests are integer
    comparisons and the only Fraction built is the returned witness.
    ``realize`` with ``box_gap_sq`` and ``boundary_margin`` is the reference
    this is tested against.
    """
    if low.c != high.c:
        raise ColorMismatch(f"colors {low.c} vs {high.c}")
    if low.k >= high.k:
        raise LevelOrder(f"need low.k < high.k, got {low.k} >= {high.k}")
    _check_id(P, low)
    _check_id(P, high)
    p, D, W, k = P.p, P.D, P.W, high.k
    s = p ** (k - low.k)
    shift = (s - 1) * P.C[low.c]
    sW = s * W
    gap2 = 0
    margin = sW  # above every axis's margin
    for g, h in zip(low.gamma, high.gamma):
        a = (h - s * g) * D - shift  # inner slab start minus outer slab start
        d = max(a - sW, -a - W, 0)
        gap2 += d * d
        margin = min(margin, a, sW - W - a)
    up, dn = P.scale(k)  # one unit is up/(D*dn)
    if gap2:
        kind = (
            SeparationKind.DISJOINT_FAR
            if gap2 * p * p >= D * D
            else SeparationKind.VIOLATION
        )
        gap_sq = Fraction(gap2 * up * up, (D * dn) ** 2)
        return SeparationVerdict(kind=kind, gap_sq=gap_sq)
    if margin < 0:
        # Boxes overlap without containment: always a violation.
        return SeparationVerdict(kind=SeparationKind.VIOLATION, gap_sq=Fraction(0))
    kind = (
        SeparationKind.NESTED_DEEP if margin * p >= D else SeparationKind.VIOLATION
    )
    return SeparationVerdict(kind=kind, margin=Fraction(margin * up, D * dn))


@dataclass(frozen=True)
class CoveringReport:
    """Exact verdict of the level-0 covering check on the unit torus."""

    n: int
    p: int
    colors: tuple[int, ...]
    grid_step: Fraction
    cells_total: int
    cells_uncovered: int
    witnesses: tuple[RationalVec, ...]

    @property
    def covered(self) -> bool:
        return self.cells_uncovered == 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "colors": list(self.colors),
            "grid_step": str(self.grid_step),
            "cells_total": self.cells_total,
            "cells_uncovered": self.cells_uncovered,
            "covered": self.covered,
            "witnesses": [[str(c) for c in w] for w in self.witnesses],
        }


# Bound on axis-table cells plus memo states; it keeps n, the recursion depth, < 127.
_COVERING_BUDGET = 2**22


def verify_covering_level0(
    P: Params, colors: Sequence[int] | None = None
) -> CoveringReport:
    """Exact decision: do the level-0 patterns of the given colors cover R^n?

    Every level-0 pattern boundary is a multiple of 1/m, m = lcm(p, the
    denominators of the shifts m_c/(p-1)), so on the unit torus the grid
    with step 1/m is pattern-aligned: each grid cell lies entirely inside or
    outside each color's closed pattern, and the cell center (never on the
    grid itself) decides membership for the whole cell. The patterns are
    axis products, so a cell is uncovered exactly when its n axis cells'
    color sets have an empty intersection. A memoized count over those sets
    counts the uncovered cells without visiting them, and a walk descending
    only where the count is positive finds up to 32 witnesses in
    lexicographic order. Covering at level 0 implies covering at every level
    because level sets are images of the level-0 set under iterates of H.
    """
    cols = tuple(P.colors) if colors is None else tuple(colors)
    for c in cols:
        _check_color(P, c)
    m = math.lcm(P.p, *(Fraction(mc, P.p - 1).denominator for mc in P.m))
    full = frozenset(cols)
    if (work := (P.n + 1) * m + P.n**2 * 2 ** len(full)) > _COVERING_BUDGET:
        raise ResourceLimit(f"covering work {work} is over the bound {_COVERING_BUDGET}")
    # axis[i]: the colors whose pattern holds the diagonal point at axis cell i's center
    centers = [Fraction(2 * i + 1, 2 * m) for i in range(m)]
    axis = [frozenset(c for c in full if locate(P, c, 0, (x,) * P.n)) for x in centers]
    groups = Counter(axis).items()

    @functools.cache
    def missed(s: frozenset, r: int) -> int:
        """Number of r-tuples of axis cells whose color sets meet s in nothing."""
        return sum(k * missed(s & a, r - 1) for a, k in groups) if r else int(not s)

    def gaps(s: frozenset, r: int):
        """In order, the r-tuples of axis-cell centers whose sets meet s in nothing."""
        for i, a in enumerate(axis):
            if missed(s & a, r - 1):
                tails = gaps(s & a, r - 1) if r > 1 else [()]
                yield from ((centers[i], *w) for w in tails)

    return CoveringReport(
        n=P.n,
        p=P.p,
        colors=cols,
        grid_step=Fraction(1, m),
        cells_total=m**P.n,
        cells_uncovered=missed(full, P.n),
        witnesses=tuple(islice(gaps(full, P.n), 32)),
    )
