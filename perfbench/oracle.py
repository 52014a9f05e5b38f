"""Independent exact reference for the cube patterns, their trees and distances.

Written from the box formula alone and sharing no code with ``treebed``: the
cube (c, k, gamma) of the pattern with parameters (n, p) is the product over
axes of the closed intervals

    p^-k * (gamma_i + c/(n+1) + [1/p, 1 - 1/p] - e) + e,   e = 1/(p-1).

A cube's parent is the cube of the same color at the highest lower level that
contains it; the tree distance is the hop count through the first common
ancestor. Every comparison is made in ``fractions.Fraction``. Cubes are plain
``(c, k, gamma)`` tuples, so the checks accept any object with those fields
once converted by :func:`as_tuple`.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Far beyond any parent gap the patterns produce (measured gaps stay below 10).
PARENT_SCAN_LIMIT = 256


def as_tuple(cube) -> tuple:
    """(c, k, gamma) of a cube given as a tuple or as an object with fields."""
    if isinstance(cube, tuple):
        return cube
    return (cube.c, cube.k, tuple(cube.gamma))


def interval(n: int, p: int, c: int, k: int, g: int) -> tuple[Fraction, Fraction]:
    """Closed interval of the lattice point g on one axis of the level-k pattern."""
    e = Fraction(1, p - 1)
    scale = Fraction(p) ** -k
    base = g + Fraction(c, n + 1) - e
    return scale * (base + Fraction(1, p)) + e, scale * (base + 1 - Fraction(1, p)) + e


def box(n: int, p: int, cube: tuple) -> list[tuple[Fraction, Fraction]]:
    c, k, gamma = cube
    return [interval(n, p, c, k, g) for g in gamma]


def _lattice_coordinate(n: int, p: int, c: int, k: int, x: Fraction) -> int:
    """Lattice point whose level-k interval starts at or just below x."""
    e = Fraction(1, p - 1)
    return math.floor(Fraction(p) ** k * (x - e) + e - Fraction(c, n + 1))


def nearest(n: int, p: int, c: int, k: int, x) -> tuple:
    """Level-k cube of color c closest to the point x; ties to the smaller gamma.

    Each axis is searched over a window of five lattice points around x and
    the distance is measured in x itself, not in lattice coordinates.
    """
    gamma = []
    for xi in x:
        xi = Fraction(xi)
        g0 = _lattice_coordinate(n, p, c, k, xi)
        best = None
        for g in range(g0 - 2, g0 + 3):
            lo, hi = interval(n, p, c, k, g)
            d = max(lo - xi, xi - hi, Fraction(0))
            if best is None or d < best[0]:
                best = (d, g)
        gamma.append(best[1])
    return (c, k, tuple(gamma))


def embedding(n: int, p: int, t: float, x) -> list[tuple]:
    """Image of the point (t, x): the nearest cube of each color at level round(t)."""
    k = math.floor(Fraction(t) + Fraction(1, 2))
    return [nearest(n, p, c, k, x) for c in range(n + 1)]


def parent(n: int, p: int, cube: tuple) -> tuple:
    """Containing cube of the same color at the highest level below cube's."""
    c, k, _ = cube
    sides = box(n, p, cube)
    for j in range(k - 1, k - 1 - PARENT_SCAN_LIMIT, -1):
        gamma = []
        for lo, hi in sides:
            g0 = _lattice_coordinate(n, p, c, j, (lo + hi) / 2)
            found = [
                g
                for g in range(g0 - 2, g0 + 3)
                if interval(n, p, c, j, g)[0] <= lo
                and hi <= interval(n, p, c, j, g)[1]
            ]
            if not found:
                break
            gamma.append(found[0])
        else:
            return (c, j, tuple(gamma))
    raise RuntimeError(f"no containing cube for {cube} within {PARENT_SCAN_LIMIT} levels")


def tree_distance(n: int, p: int, u: tuple, v: tuple) -> int:
    """Hops between u and v through their first common ancestor."""
    if u[0] != v[0]:
        raise ValueError(f"colors {u[0]} vs {v[0]}")
    chains = ([u], [v])
    depth = ({u: 0}, {v: 0})
    while True:
        for side in (0, 1):
            other = depth[1 - side]
            tip = chains[side][-1]
            if tip in other:
                return depth[side][tip] + other[tip]
        # Advance the tip at the higher level (the first one on a tie): the
        # common ancestor lies at or below both tips, so neither skips it.
        side = 0 if chains[0][-1][1] >= chains[1][-1][1] else 1
        nxt = parent(n, p, chains[side][-1])
        depth[side][nxt] = len(chains[side])
        chains[side].append(nxt)


def hyp_distance(p: int, t1: float, x1, t2: float, x2) -> float:
    """Distance in the curvature -(ln p)^2 space, by the upper half-space law.

    With y = p^-t the space is the upper half-space scaled by 1/ln p, where
    cosh d = 1 + (|x - x'|^2 + (y - y')^2) / (2 y y').
    """
    s = math.log(p)
    y1, y2 = math.exp(-s * t1), math.exp(-s * t2)
    r2 = sum((s * (a - b)) ** 2 for a, b in zip(x1, x2))
    return math.acosh(1 + (r2 + (y1 - y2) ** 2) / (2 * y1 * y2)) / s


def separation_kind(n: int, p: int, low: tuple, high: tuple) -> str:
    """'disjoint_far', 'nested_deep' or 'violation' for low.k < high.k.

    The higher-level cube must keep a gap of at least p^-(high.k+1) from the
    lower-level one, or sit inside it with at least that boundary margin.
    """
    outer, inner = box(n, p, low), box(n, p, high)
    bound = Fraction(1, p) ** (high[1] + 1)
    gap_sq = sum(
        max(ilo - ohi, olo - ihi, Fraction(0)) ** 2
        for (olo, ohi), (ilo, ihi) in zip(outer, inner)
    )
    if gap_sq > 0:
        return "disjoint_far" if gap_sq >= bound * bound else "violation"
    if all(olo <= ilo and ihi <= ohi for (olo, ohi), (ilo, ihi) in zip(outer, inner)):
        margin = min(
            min(ilo - olo, ohi - ihi) for (olo, ohi), (ilo, ihi) in zip(outer, inner)
        )
        return "nested_deep" if margin >= bound else "violation"
    return "violation"
