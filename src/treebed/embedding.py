"""The embedding into the product of color trees and the product metric.

A point z = (t, x) maps, for each color, to the cube of that color nearest
to x at the level round(t). Any cube at level j costs at least |t - j| in
hyperbolic distance while the rounded-level choice stays within
1/2 + sqrt(n)/2 of z, so restricting the search to one level changes the
image by a bounded amount and keeps the map O(n) per color.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .core import Params, Record
from .cubes import ColorMismatch, CubeId, nearest_in_level
from .hyperbolic import HoroPoint
from .tree import tree_distance

NORMS = ("l1", "l2", "linf")


class EmbeddedPoint(Record):
    """Image of a point: one cube per color, plus the source point."""

    __slots__ = ("images", "source")

    def __init__(self, images: tuple[CubeId, ...], source: HoroPoint) -> None:
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "source", source)

    def to_json_dict(self) -> dict:
        return {
            "t": self.source.t,
            "x": list(self.source.x),
            "images": [
                {"c": v.c, "k": v.k, "gamma": list(v.gamma)} for v in self.images
            ],
        }


def embedding_level(z: HoroPoint) -> int:
    """Level used for the image of z: floor(t + 1/2), half-integers up.

    Decided on t - floor(t): the float sum t + 0.5 can round up to the next
    integer just below a half-integer, as at t = 0.49999999999999994. t - k
    is exact, except for -1/2 < t < 0, where it and its rounding are both
    at least 1/2.
    """
    k = math.floor(z.t)
    return k + (z.t - k >= 0.5)


def embed(P: Params, z: HoroPoint) -> EmbeddedPoint:
    """Image of z under every color map, at the level embedding_level(z).

    Raises:
        ResourceLimit: the level lies beyond the heights |t| <= log(DBL_MAX)/ln p
            at which hyperbolic distances are representable at all.
    """
    k = embedding_level(z)
    return EmbeddedPoint(
        images=tuple(nearest_in_level(P, c, k, z.x) for c in P.colors),
        source=z,
    )


def per_color_distances(
    P: Params, e1: EmbeddedPoint, e2: EmbeddedPoint
) -> tuple[int, ...]:
    """Tree distance between matching color images."""
    if len(e1.images) != len(e2.images):
        raise ColorMismatch(
            f"{len(e1.images)} vs {len(e2.images)} color images"
        )
    return tuple(tree_distance(P, u, v) for u, v in zip(e1.images, e2.images))


def product_distance(
    P: Params,
    e1: EmbeddedPoint,
    e2: EmbeddedPoint,
    norm: str = "l1",
) -> float:
    """Combine per-color tree distances under the chosen product norm."""
    return product_norm(per_color_distances(P, e1, e2), norm)


def product_norm(ds: Sequence[int], norm: str) -> float:
    """Per-color tree distances combined under the product norm ``norm``.

    All choices are bi-Lipschitz equivalent with factor at most n+1; the
    default L1 is integer-valued and therefore exact.
    """
    norm = norm.lower()
    if norm == "l1":
        return float(sum(ds))
    if norm == "linf":
        return float(max(ds))
    if norm == "l2":
        return math.sqrt(sum(d * d for d in ds))
    raise ValueError(f"unknown norm {norm!r}; expected one of {NORMS}")
