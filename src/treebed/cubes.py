"""Colored nested cube patterns: realization, location, separation, covering.

The pattern of color c at level k is a lattice family of closed cubes in
R^n. A cube is identified symbolically by (c, k, gamma) and realizes to the
exact rational box

    H^{-k}(gamma + c*nu + A),   A = [1/p, 1 - 1/p]^n,

where H(x) = p*(x - eta) is the lattice expansion and
H^{-k}(x) = p^{-k} * (x - eta0) + eta0 is its inverse iterate expressed
through the fixed point eta0. Level-k cubes have side a*p^{-k} and repeat
with period p^{-k} along every axis, so the same-level family of one color
is pairwise disjoint with axis gaps of exactly 2*p^{-(k+1)}.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .core import (
    DimensionMismatch,
    Params,
    Rational,
    RationalBox,
    RationalVec,
    boundary_margin,
    box_gap_sq,
)


class ColorMismatch(ValueError):
    """Operation mixed cubes of different colors."""


class LevelOrder(ValueError):
    """Cube pair was not presented in ascending level order."""


class ResourceLimit(RuntimeError):
    """An exact enumeration would exceed its configured budget."""


@dataclass(frozen=True)
class CubeId:
    """Symbolic cube: color c, level k, lattice point gamma."""

    c: int
    k: int
    gamma: tuple[int, ...]

    def key(self) -> tuple:
        return (self.c, self.k, self.gamma)


def _check_id(P: Params, cid: CubeId) -> None:
    if not 0 <= cid.c <= P.n:
        raise ColorMismatch(f"color {cid.c} outside 0..{P.n}")
    if len(cid.gamma) != P.n:
        raise DimensionMismatch(f"gamma dim {len(cid.gamma)} vs n={P.n}")


@dataclass(frozen=True)
class AxisFrame:
    """The per-axis map of the cube patterns in scaled integers: coordinate x
    has lattice position u = p^k (x - e) + e - c/(n+1), e = 1/(p-1), and
    lattice point g's slab is g + 1/p <= u <= g + 1 - 1/p. All constants are
    integer multiples of 1/D, D = p(p-1)(n+1), and the frame keeps those."""

    n: int
    p: int
    D: int
    lam: int  # 1/p = lam/D
    eta: int  # e = eta/D
    nu: int  # c/(n+1) = c*nu/D

    def scale(self, k: int) -> tuple[int, int]:
        """(up, dn), non-negative powers of p with p^-k = up/dn."""
        return (self.p**-k, 1) if k < 0 else (1, self.p**k)

    def slab(self, c: int, k: int, g: int) -> tuple[Fraction, Fraction]:
        """Exact closed slab of lattice point g on one axis at color c, level k."""
        up, dn = self.scale(k)
        lo = up * (g * self.D + c * self.nu - self.eta + self.lam) + self.eta * dn
        den = self.D * dn
        return Fraction(lo, den), Fraction(lo + up * (self.D - 2 * self.lam), den)

    def positions(self, c: int, k: int, x: Sequence) -> list[tuple[int, int, int]]:
        """Exact lattice position of x per axis as (g, r, den): u = g + r/den."""
        if len(x) != self.n:
            raise DimensionMismatch(f"expected dimension {self.n}, got {len(x)}")
        up, dn = self.scale(k)
        D, eta = self.D, self.eta
        shift = up * (eta - c * self.nu)
        out = []
        for xi in x:
            a, b = (xi if isinstance(xi, float) else Fraction(xi)).as_integer_ratio()
            den = D * b * up
            out.append((*divmod(dn * (a * D - eta * b) + shift * b, den), den))
        return out


@functools.lru_cache(maxsize=64)
def axis_frame(n: int, p: int) -> AxisFrame:
    """The axis frame of the patterns with parameters (n, p)."""
    q, n1 = p - 1, n + 1
    return AxisFrame(n=n, p=p, D=p * q * n1, lam=q * n1, eta=p * n1, nu=p * q)


def realize(P: Params, cid: CubeId) -> RationalBox:
    """Exact rational box of a symbolic cube: the product of its axis slabs."""
    _check_id(P, cid)
    F = axis_frame(P.n, P.p)
    lo, hi = zip(*(F.slab(cid.c, cid.k, g) for g in cid.gamma))
    return RationalBox(lo, hi)


def locate(
    P: Params, c: int, k: int, x: Sequence[Rational | float | str]
) -> CubeId | None:
    """Cube of color c at level k whose closed box contains x, or None.

    Exact: x is coerced to rationals. Same-level cubes of one color are
    disjoint, so the containing cube is unique when it exists; points in the
    gap return None.
    """
    p = P.p
    positions = axis_frame(P.n, p).positions(c, k, x)
    if all(den <= p * r <= (p - 1) * den for _, r, den in positions):
        return CubeId(c, k, tuple(g for g, _, _ in positions))
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
    positions = axis_frame(P.n, P.p).positions(c, k, x)
    return CubeId(c, k, tuple(g - (r == 0) for g, r, _ in positions))


class SeparationKind(enum.Enum):
    DISJOINT_FAR = "disjoint_far"
    NESTED_DEEP = "nested_deep"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SeparationVerdict:
    """Classification of a lower-level/higher-level cube pair.

    ``bound`` is the required clearance lam^{k+1} for the higher level k.
    Disjoint pairs carry the exact squared gap (compared against bound^2 to
    stay rational); nested pairs carry the exact boundary margin.
    """

    kind: SeparationKind
    bound: Fraction
    gap_sq: Fraction | None = None
    margin: Fraction | None = None

    @property
    def witness(self) -> Fraction:
        return self.margin if self.margin is not None else self.gap_sq


def separation_verdict(P: Params, low: CubeId, high: CubeId) -> SeparationVerdict:
    """Exact separation check for a same-color pair with low.k < high.k.

    The higher-level (smaller) cube must either keep a gap of at least
    lam^{high.k+1} from the lower-level cube or sit inside it with at least
    that boundary margin; anything else is a violation.
    """
    if low.c != high.c:
        raise ColorMismatch(f"colors {low.c} vs {high.c}")
    if low.k >= high.k:
        raise LevelOrder(f"need low.k < high.k, got {low.k} >= {high.k}")
    outer = realize(P, low)
    inner = realize(P, high)
    bound = P.lam ** (high.k + 1)
    gap_sq = box_gap_sq(outer, inner)
    if gap_sq > 0:
        kind = (
            SeparationKind.DISJOINT_FAR
            if gap_sq >= bound * bound
            else SeparationKind.VIOLATION
        )
        return SeparationVerdict(kind=kind, bound=bound, gap_sq=gap_sq)
    margin = boundary_margin(outer, inner)
    if margin is None:
        # Boxes overlap without containment: always a violation.
        return SeparationVerdict(
            kind=SeparationKind.VIOLATION, bound=bound, gap_sq=gap_sq
        )
    kind = (
        SeparationKind.NESTED_DEEP if margin >= bound else SeparationKind.VIOLATION
    )
    return SeparationVerdict(kind=kind, bound=bound, margin=margin)


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


def verify_covering_level0(
    P: Params,
    colors: Sequence[int] | None = None,
    cell_budget: int = 1_000_000,
    max_witnesses: int = 32,
) -> CoveringReport:
    """Exact decision: do the level-0 patterns of the given colors cover R^n?

    Every level-0 pattern boundary is a multiple of 1/lcm(p, n+1), so on the
    unit torus the grid with that step is pattern-aligned: each grid cell
    lies entirely inside or outside each color's closed pattern, and the
    cell center (never on the grid itself) decides membership for the whole
    cell. The patterns are axis products, so membership factors through a
    per-axis table; the test is exhaustive, not sampled. Covering at level 0
    implies covering at every level because level sets are images of the
    level-0 set under iterates of the expansion H.
    """
    cols = tuple(P.colors) if colors is None else tuple(colors)
    for c in cols:
        if not 0 <= c <= P.n:
            raise ColorMismatch(f"color {c} outside 0..{P.n}")
    m = math.lcm(P.p, P.n + 1)
    total = m**P.n
    if total > cell_budget:
        raise ResourceLimit(
            f"grid of {total} cells exceeds the budget of {cell_budget}"
        )
    # axis_cov[c][i]: is the diagonal point at axis-cell i's center in color c?
    centers = [Fraction(2 * i + 1, 2 * m) for i in range(m)]
    axis_cov = {
        c: [locate(P, c, 0, (x,) * P.n) is not None for x in centers] for c in cols
    }
    uncovered = 0
    witnesses: list[RationalVec] = []
    for cell in product(range(m), repeat=P.n):
        if not any(all(axis_cov[c][i] for i in cell) for c in cols):
            uncovered += 1
            if len(witnesses) < max_witnesses:
                witnesses.append(
                    tuple(Fraction(2 * i + 1, 2 * m) for i in cell)
                )
    return CoveringReport(
        n=P.n,
        p=P.p,
        colors=cols,
        grid_step=Fraction(1, m),
        cells_total=total,
        cells_uncovered=uncovered,
        witnesses=tuple(witnesses),
    )
