"""Test references: direct transcriptions of the definitions, kept out of the
package because only the tests read them.

The box predicates (``center``, ``contains_point``, ``contains_box``,
``box_gap_sq``, ``boundary_margin``) act on a realized ``RationalBox``, and
``brute_force_edges`` enumerates the edge relation over a finite window.
They are the references the integer fast paths of the package are tested
against: ``separation_verdict`` against the box gap and margin, the lazy
parent and tree walk against the brute-force edges.
"""

from fractions import Fraction
from itertools import product

from treebed import CubeId, DimensionMismatch, Params, RationalBox, ResourceLimit, realize


def dim(box: RationalBox) -> int:
    return len(box.lo)


def center(box: RationalBox) -> tuple[Fraction, ...]:
    return tuple((lo + hi) / 2 for lo, hi in zip(box.lo, box.hi))


def contains_point(box: RationalBox, x) -> bool:
    if len(x) != dim(box):
        raise DimensionMismatch(f"point dim {len(x)} vs box dim {dim(box)}")
    return all(lo <= c <= hi for lo, c, hi in zip(box.lo, x, box.hi))


def contains_box(box: RationalBox, other: RationalBox) -> bool:
    if dim(other) != dim(box):
        raise DimensionMismatch(f"box dims {dim(other)} vs {dim(box)}")
    return all(
        slo <= olo and ohi <= shi
        for slo, shi, olo, ohi in zip(box.lo, box.hi, other.lo, other.hi)
    )


def box_gap_sq(b1: RationalBox, b2: RationalBox) -> Fraction:
    """Exact squared Euclidean distance between two closed boxes.

    Zero iff the boxes intersect. Symmetric, and non-increasing when either
    box is enlarged.
    """
    if dim(b1) != dim(b2):
        raise DimensionMismatch(f"box dims {dim(b1)} vs {dim(b2)}")
    total = Fraction(0)
    for lo1, hi1, lo2, hi2 in zip(b1.lo, b1.hi, b2.lo, b2.hi):
        g = max(lo2 - hi1, lo1 - hi2, Fraction(0))
        total += g * g
    return total


def boundary_margin(outer: RationalBox, inner: RationalBox) -> Fraction | None:
    """Distance from ``inner`` to the boundary of ``outer``, or None.

    Returns the exact min-over-axes margin when inner is contained in outer
    (for axis-aligned boxes this equals the Euclidean distance from inner to
    the boundary of outer), and None when containment fails.
    """
    if dim(outer) != dim(inner):
        raise DimensionMismatch(f"box dims {dim(outer)} vs {dim(inner)}")
    if not contains_box(outer, inner):
        return None
    return min(
        min(ilo - olo, ohi - ihi)
        for olo, ohi, ilo, ihi in zip(outer.lo, outer.hi, inner.lo, inner.hi)
    )


def _level_contains_box(
    P: Params, c: int, j: int, box: RationalBox, gamma_range: range
) -> bool:
    """Does any level-j cube with per-axis gamma in range contain box?

    Pure enumeration per axis (the pattern is an axis product), used by the
    oracle instead of the candidate arithmetic of the lazy parent.
    """
    slabs = [P.slab(c, j, g) for g in gamma_range]
    for lo, hi in zip(box.lo, box.hi):
        if not any(slo <= lo and hi <= shi for slo, shi in slabs):
            return False
    return True


# Largest window brute_force_edges enumerates; its pair scan is quadratic.
_VERTEX_BUDGET = 200_000


def brute_force_edges(
    P: Params,
    c: int,
    k_min: int,
    k_max: int,
    gamma_bound: int,
) -> tuple[tuple[CubeId, ...], frozenset[tuple[CubeId, CubeId]]]:
    """Direct transcription of the edge definition over a finite window.

    Vertices are all cubes of color c with level in [k_min, k_max] and
    |gamma_i| <= gamma_bound. A pair (v at k, v' at k' < k) is an edge iff
    v' contains v and no level strictly between them contains v; the
    intermediate scan enumerates lattice points two beyond the window bound,
    which is exhaustive because a containing cube must contain v's center.
    Test oracle only; quadratic in the window size.
    """
    if k_min > k_max:
        return (), frozenset()
    levels = list(range(k_min, k_max + 1))
    per_level = (2 * gamma_bound + 1) ** P.n
    if per_level * len(levels) > _VERTEX_BUDGET:
        raise ResourceLimit(
            f"window holds {per_level * len(levels)} vertices; "
            f"budget is {_VERTEX_BUDGET}"
        )
    axis = range(-gamma_bound, gamma_bound + 1)
    verts = [
        CubeId(c, k, g) for k in levels for g in product(axis, repeat=P.n)
    ]
    boxes = {v: realize(P, v) for v in verts}
    by_level = {k: [v for v in verts if v.k == k] for k in levels}
    scan = range(-gamma_bound - 2, gamma_bound + 3)
    edges = set()
    for k in levels:
        for kp in levels:
            if kp >= k:
                continue
            for v in by_level[k]:
                bv = boxes[v]
                for vp in by_level[kp]:
                    if not contains_box(boxes[vp], bv):
                        continue
                    if any(
                        _level_contains_box(P, c, j, bv, scan)
                        for j in range(kp + 1, k)
                    ):
                        continue
                    edges.add((vp, v))
    return tuple(verts), frozenset(edges)
