"""Exact construction parameters and rational box geometry.

Everything in this module is exact: parameters, boxes and the predicates on
them use arbitrary-precision rationals. Floating point enters the picture
only in :mod:`treebed.hyperbolic` (distances) and :mod:`treebed.verifier`
(statistics). Exactness matters because the separation bounds the cube
patterns must satisfy are sharp; a predicate that is off by one ulp would
misclassify boundary cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[Fraction, int]
RationalVec = tuple[Fraction, ...]


class InvalidParams(ValueError):
    """Construction parameters violate a required constraint."""


class DimensionMismatch(ValueError):
    """Vectors or boxes of different dimensions were combined."""


@dataclass(frozen=True)
class Params:
    """Validated parameters (n, p) with their derived exact constants.

    ``n`` is the horosphere dimension (the embedded space has dimension
    n+1), ``p`` the subdivision factor. Derived values:

    * ``a = 1 - 2/p``   side length of the template cube,
    * ``lam = 1/p``     per-level contraction ratio,
    * ``nu``            every entry 1/(n+1); color c is shifted along the
                        diagonal by m_c/(p-1), m_c = floor(c(p-1)/(n+1)),
                        which is c*nu exactly when (n+1) divides p-1,
    * ``eta0``          fixed point of the expansion H, every entry 1/(p-1),
    * ``sigma = ln p``  metric rescaling (the one approximate constant).

    Construct only through :func:`validate_params`.
    """

    n: int
    p: int
    a: Fraction
    lam: Fraction
    nu: RationalVec
    eta0: RationalVec
    sigma: float

    @property
    def eta(self) -> RationalVec:
        """Center offset of the expansion H(x) = p*(x - eta)."""
        return tuple([Fraction(1, self.p)] * self.n)

    @property
    def colors(self) -> range:
        return range(self.n + 1)


def validate_params(n: int, p: int) -> Params:
    """Validate (n, p) and compute the derived constants exactly.

    Requires n >= 1, p >= 2 and the strict inequality
    1/(p-1) + 1/p < 1/(n+1), which is what makes the n+1 shifted copies of
    the pattern cover space while keeping the fixed point eta0 interior to
    every copy. The inequality implies p > 2(n+1).

    Raises:
        InvalidParams: naming the violated constraint.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParams(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(p, int) or p < 2:
        raise InvalidParams(f"p must be an integer >= 2, got {p!r}")
    if not Fraction(1, p - 1) + Fraction(1, p) < Fraction(1, n + 1):
        raise InvalidParams(
            f"constraint 1/(p-1) + 1/p < 1/(n+1) fails for n={n}, p={p}: "
            f"{Fraction(1, p - 1) + Fraction(1, p)} >= {Fraction(1, n + 1)}"
        )
    params = Params(
        n=n,
        p=p,
        a=1 - Fraction(2, p),
        lam=Fraction(1, p),
        nu=tuple([Fraction(1, n + 1)] * n),
        eta0=tuple([Fraction(1, p - 1)] * n),
        sigma=math.log(p),
    )
    # Exact sanity identities; cheap, and a wrong Params poisons everything.
    assert params.p * params.a == params.p - 2
    assert all(p * (e - h) == e for e, h in zip(params.eta0, params.eta))
    assert params.p > 2 * (n + 1)
    return params


@dataclass(frozen=True)
class RationalBox:
    """Closed axis-aligned box with exact rational corners."""

    lo: RationalVec
    hi: RationalVec

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch(
                f"lo has dimension {len(self.lo)}, hi has {len(self.hi)}"
            )
        for lo, hi in zip(self.lo, self.hi):
            if lo > hi:
                raise ValueError(f"empty box: lo {lo} > hi {hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> RationalVec:
        return tuple((lo + hi) / 2 for lo, hi in zip(self.lo, self.hi))

    def contains_point(self, x: Sequence[Rational]) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point dim {len(x)} vs box dim {self.dim}")
        return all(lo <= c <= hi for lo, c, hi in zip(self.lo, x, self.hi))

    def contains_box(self, other: "RationalBox") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatch(f"box dims {other.dim} vs {self.dim}")
        return all(
            slo <= olo and ohi <= shi
            for slo, shi, olo, ohi in zip(self.lo, self.hi, other.lo, other.hi)
        )


def box_gap_sq(b1: RationalBox, b2: RationalBox) -> Fraction:
    """Exact squared Euclidean distance between two closed boxes.

    Zero iff the boxes intersect. Symmetric, and non-increasing when either
    box is enlarged.
    """
    if b1.dim != b2.dim:
        raise DimensionMismatch(f"box dims {b1.dim} vs {b2.dim}")
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
    if outer.dim != inner.dim:
        raise DimensionMismatch(f"box dims {outer.dim} vs {inner.dim}")
    if not outer.contains_box(inner):
        return None
    return min(
        min(ilo - olo, ohi - ihi)
        for olo, ohi, ilo, ihi in zip(outer.lo, outer.hi, inner.lo, inner.hi)
    )
