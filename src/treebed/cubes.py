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
import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import islice, pairwise
from operator import index

from .core import (
    DimensionMismatch,
    Params,
    Rational,
    RationalBox,
    RationalVec,
    Record,
    ResourceLimit,
)


class ColorMismatch(ValueError):
    """Operation mixed cubes of different colors."""


def check_level(P: Params, k: int) -> None:
    """Raise ResourceLimit for a level k with |k| > P.level_bound.

    A level of 19 or more digits is named by its sign and its digit count,
    estimated from its bit length: str() of a huge integer is slow, and
    refused past sys.get_int_max_str_digits().
    """
    if abs(k) > P.level_bound:
        if abs(k) >= 10**18:
            digits = int(index(abs(k)).bit_length() * math.log10(2)) + 1
            k = f"{'-' if k < 0 else '+'}(about {digits} digits)"
        raise ResourceLimit(
            f"level {k} is beyond the representable heights "
            f"|t| <= {P.level_bound:.1f} for p={P.p}"
        )


class CubeId(Record):
    """Symbolic cube: color c, level k, lattice point gamma."""

    __slots__ = ("c", "k", "gamma")

    def __init__(self, c: int, k: int, gamma: tuple[int, ...]) -> None:
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "gamma", gamma)

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


class SeparationVerdict(Record):
    """Classification of a lower-level/higher-level cube pair.

    The required clearance is p^-(k+1) for the higher level k. Disjoint and
    overlapping pairs carry the exact squared gap (a disjoint pair is far
    when it reaches the clearance squared); nested pairs carry the exact
    boundary margin.
    """

    __slots__ = ("kind", "gap_sq", "margin")

    def __init__(
        self, kind: SeparationKind,
        gap_sq: Fraction | None = None, margin: Fraction | None = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gap_sq", gap_sq)
        object.__setattr__(self, "margin", margin)


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
    comparisons and the only Fraction built is the returned gap or margin.
    The tests hold it to the realized boxes' exact gap and margin.
    """
    if low.c != high.c:
        raise ColorMismatch(f"colors {low.c} vs {high.c}")
    if low.k >= high.k:
        raise ValueError(f"need low.k < high.k, got {low.k} >= {high.k}")
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


class CoveringReport(Record):
    """Exact verdict of the level-0 covering check on the unit torus."""

    __slots__ = ("n", "p", "colors", "grid_step", "cells_total", "cells_uncovered",
                 "witnesses")

    def __init__(
        self, n: int, p: int, colors: tuple[int, ...], grid_step: Fraction,
        cells_total: int, cells_uncovered: int, witnesses: tuple[RationalVec, ...],
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "grid_step", grid_step)
        object.__setattr__(self, "cells_total", cells_total)
        object.__setattr__(self, "cells_uncovered", cells_uncovered)
        object.__setattr__(self, "witnesses", witnesses)

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


def covering_grid(P: Params) -> tuple[int, int]:
    """(q, m): level-0 covering decides on m = D/q axis cells of side q/D,
    q = gcd(p-1, m_c); see :func:`verify_covering_level0`."""
    q = math.gcd(P.p - 1, *P.m)
    return q, P.D // q


def verify_covering_level0(
    P: Params, colors: Sequence[int] | None = None
) -> CoveringReport:
    """Exact decision: do the level-0 patterns of the given colors cover R^n?

    q = gcd(p-1, m_c) divides D, W and C_c + p (as p = 1 mod q), so the unit
    torus splits into m = D/q axis cells, and color c holds exactly the cells
    s_c .. s_c + w - 1 (mod m), s_c = (C_c + p)/q, w = W/q (see Params). A
    cell of R^n is uncovered iff each color misses one of its n axis cells.
    Lemma: each axis cell misses at most one color. In units of 1/D, color
    c's gap has length 2(p-1) and starts at C_c + p + W; cyclically the
    starts lie p(m_{c+1} - m_c) and p(p-1 - m_n) apart, spacings that sum to
    D and are each at least p*floor((p-1)/(n+1)) >= 2p, as the gate forces
    p >= 2n+3. So n axes miss at most n colors, and for k colors
    inclusion-exclusion counts sum_j (-1)^j C(k,j) (m - j(m-w))^n uncovered
    cells, positive iff k <= n. A lexicographic walk that must still miss
    colors s with r axes left can enter axis cell a iff |s & a| < r, so it
    finds up to 32 witnesses with no dead end, reading the axis in runs cut
    at the gap ends. Level k's patterns are the level-0 ones under H^-k.
    """
    cols = tuple(P.colors) if colors is None else tuple(colors)
    for c in cols:
        _check_color(P, c)
    (q, m), n, full = covering_grid(P), P.n, frozenset(cols)
    w = P.W // q
    edges = {}  # axis cell where a gap starts: its color; where one ends: None
    for c in full:
        edges[b := ((P.C[c] + P.p) // q + w) % m] = c
        edges[(b + m - w) % m] = None
    edges.setdefault(0, edges[max(edges)] if edges else None)  # last run wraps to 0
    runs = [(lo, hi, edges[lo]) for lo, hi in pairwise([*sorted(edges), m])]

    def viable(s: frozenset, r: int):
        """In order, the axis cells that leave fewer than r colors of s unmissed."""
        for lo, hi, c in runs:  # cells lo..hi-1 miss color c, or none if None
            if len(s) - (c in s) < r:
                yield from ((i, s - {c}) for i in range(lo, hi))

    def gaps():
        """In order, the uncovered n-tuples of axis cells, walked with a stack."""
        cells, stack = [], [viable(full, n)]
        while stack:
            del cells[len(stack) - 1 :]  # one cell per axis above the top
            if (step := next(stack[-1], None)) is None:
                stack.pop()
            elif len(stack) == n:
                yield (*cells, step[0])
            else:
                cells.append(step[0])
                stack.append(viable(step[1], n - len(stack)))

    k = len(full)  # past k = n the count is 0: skip it
    uncovered = sum(
        (-1) ** j * math.comb(k, j) * (m - j * (m - w)) ** n
        for j in range(k + 1 if k <= n else 0)
    )
    found = [tuple(Fraction(2 * i + 1, 2 * m) for i in g) for g in islice(gaps(), 32)]
    return CoveringReport(n, P.p, cols, Fraction(1, m), m**n, uncovered, tuple(found))
