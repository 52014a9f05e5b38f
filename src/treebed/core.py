"""Exact construction parameters and rational boxes.

Everything in this module is exact: parameters and boxes use
arbitrary-precision rationals. Floating point enters the picture only in
:mod:`treebed.hyperbolic` (distances) and :mod:`treebed.verifier`
(statistics). Exactness matters because the separation bounds the cube
patterns must satisfy are sharp; a predicate that is off by one ulp would
misclassify boundary cases.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction

Rational = Fraction | int
RationalVec = tuple[Fraction, ...]


class InvalidParams(ValueError):
    """Construction parameters violate a required constraint."""


class DimensionMismatch(ValueError):
    """Vectors or boxes of different dimensions were combined."""


class ResourceLimit(RuntimeError):
    """An input needs more work or range than a fixed bound of the package allows."""


# Hyperbolic distances evaluate e^{sigma*t}; beyond this exponent no double
# holds them.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class Record:
    """Immutable record whose fields are its class's ``__slots__``, in order.

    A record's ``__init__`` sets each field once through
    ``object.__setattr__`` and runs the record's checks. Records equal only
    records of their own type with equal fields, hash as the tuple of their
    fields, print as ``Name(field=value, ...)``, and pickle and copy by
    calling the constructor again, so that a copy passes the same checks.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Params(Record):
    """Validated parameters (n, p) with the per-axis map of the cube patterns.

    ``n`` is the horosphere dimension (the embedded space has dimension
    n+1), ``p`` the subdivision factor. At color c and level k a coordinate
    x has lattice position u = p^k (x - e) + e - m_c/(p-1), e = 1/(p-1),
    and lattice point g's slab is g + 1/p <= u <= g + 1 - 1/p. All these
    constants are integer multiples of 1/D: 1/p is (p-1)/D and e is p/D.
    Derived values, all computed once by :func:`validate_params`:

    * ``m``            shift numerators m_c = floor(c(p-1)/(n+1)); color c
                       is shifted along the diagonal by m_c/(p-1), which is
                       c/(n+1) exactly when (n+1) divides p-1,
    * ``D = p(p-1)``   common denominator of the per-axis map,
    * ``C``            slab offsets C_c = p*m_c - 1: at level 0, lattice
                       point g's slab of color c starts at (gD + C_c + p)/D,
    * ``W``            slab width D - 2(p-1), that is 1 - 2/p in units of 1/D,
    * ``level_bound``  largest |level| whose heights keep hyperbolic
                       distances representable: log(DBL_MAX)/ln p, about
                       441 at p = 5,
    * ``sigma = ln p`` metric rescaling (the one approximate constant).

    Construct only through :func:`validate_params`.
    """

    __slots__ = ("n", "p", "m", "D", "C", "W", "level_bound", "sigma")

    def __init__(
        self, n: int, p: int, m: tuple[int, ...], D: int, C: tuple[int, ...],
        W: int, level_bound: float, sigma: float,
    ) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "level_bound", level_bound)
        object.__setattr__(self, "sigma", sigma)

    @property
    def colors(self) -> range:
        return range(self.n + 1)

    def scale(self, k: int) -> tuple[int, int]:
        """(up, dn), non-negative powers of p with p^-k = up/dn."""
        return (self.p**-k, 1) if k < 0 else (1, self.p**k)

    def slab(self, c: int, k: int, g: int) -> tuple[Fraction, Fraction]:
        """Exact closed slab of lattice point g on one axis at color c, level k."""
        up, dn = self.scale(k)
        # In units of 1/D, e is p.
        lo = up * (g * self.D + self.C[c]) + self.p * dn
        den = self.D * dn
        return Fraction(lo, den), Fraction(lo + up * self.W, den)

    def positions(self, c: int, k: int, x: Sequence) -> Iterator[tuple[int, int]]:
        """Exact lattice position u = num/den of x per axis, as (num, den)
        with den > 0, computed lazily axis by axis."""
        if len(x) != self.n:
            raise DimensionMismatch(f"expected dimension {self.n}, got {len(x)}")
        up, dn = self.scale(k)
        # With x = a/b: num = a*A + b*B and den = b*G.
        A = self.D * dn
        B = self.p * (up * (1 - self.m[c]) - dn)
        G = self.D * up
        for xi in x:
            a, b = (xi if isinstance(xi, float) else Fraction(xi)).as_integer_ratio()
            yield a * A + b * B, b * G


def validate_params(n: int, p: int) -> Params:
    """Validate (n, p) and compute the derived constants exactly.

    Requires n >= 1, p >= 2 and the strict inequality
    1/(p-1) + 1/p < 1/(n+1), which is what makes the n+1 shifted copies of
    the pattern cover space while keeping the fixed point e = 1/(p-1) of the
    expansion interior to every copy. The inequality implies p > 2(n+1).

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
    assert p > 2 * (n + 1)
    sigma = math.log(p)
    m = tuple(c * (p - 1) // (n + 1) for c in range(n + 1))
    return Params(
        n=n,
        p=p,
        m=m,
        D=p * (p - 1),
        C=tuple(p * mc - 1 for mc in m),
        W=(p - 1) * (p - 2),
        level_bound=_LOG_FLOAT_MAX / sigma,
        sigma=sigma,
    )


class RationalBox(Record):
    """Closed axis-aligned box with exact rational corners."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: RationalVec, hi: RationalVec) -> None:
        if len(lo) != len(hi):
            raise DimensionMismatch(f"lo has dimension {len(lo)}, hi has {len(hi)}")
        for a, b in zip(lo, hi):
            if a > b:
                raise ValueError(f"empty box: lo {a} > hi {b}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
