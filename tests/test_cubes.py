import math
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from treebed import (
    ColorMismatch,
    CubeId,
    LevelOrder,
    RationalBox,
    ResourceLimit,
    SeparationKind,
    boundary_margin,
    box_gap_sq,
    locate,
    nearest_in_level,
    realize,
    separation_verdict,
    validate_params,
    verify_covering_level0,
)


class TestRealize:
    @pytest.mark.parametrize(
        "cid,lo,hi",
        [
            (CubeId(0, 0, (0,)), F(1, 5), F(4, 5)),
            (CubeId(0, 1, (0,)), F(6, 25), F(9, 25)),
            (CubeId(0, -1, (0,)), F(0), F(3)),
            (CubeId(0, 1, (3,)), F(21, 25), F(24, 25)),
            (CubeId(1, 0, (0,)), F(7, 10), F(13, 10)),
            (CubeId(1, 0, (-1,)), F(-3, 10), F(3, 10)),
        ],
    )
    def test_frozen_boxes(self, p5, cid, lo, hi):
        assert realize(p5, cid) == RationalBox((lo,), (hi,))

    def test_side_and_diameter(self, p7):
        for k in (-2, 0, 3):
            b = realize(p7, CubeId(2, k, (4, -1)))
            side = p7.a * p7.lam**k
            assert all(hi - lo == side for lo, hi in zip(b.lo, b.hi))

    def test_level_minus1_is_expansion_of_level0(self, p5):
        # H([1/5,4/5]) = 5x - 1 on endpoints
        b = realize(p5, CubeId(0, -1, (0,)))
        b0 = realize(p5, CubeId(0, 0, (0,)))
        assert b.lo[0] == 5 * b0.lo[0] - 1 and b.hi[0] == 5 * b0.hi[0] - 1


cube_ids = st.builds(
    CubeId,
    c=st.integers(0, 1),
    k=st.integers(-3, 4),
    gamma=st.tuples(st.integers(-30, 30)),
)


@given(cube_ids)
def test_self_similarity(cid):
    # realize(c,k,gamma) = H^{-1}(realize(c,k-1,gamma)), H^{-1}(y) = (y+1)/p
    P = validate_params(1, 5)
    b = realize(P, cid)
    up = realize(P, CubeId(cid.c, cid.k - 1, cid.gamma))
    assert b.lo[0] == (up.lo[0] + 1) / 5 and b.hi[0] == (up.hi[0] + 1) / 5


@given(cube_ids, st.sampled_from([F, float, str]))
def test_locate_realize_roundtrip(cid, coerce):
    # Slab ends belong to the closed box, the gap midpoint after it to no
    # cube, and that tie goes to the smaller gamma. A float is judged by its
    # exact value, which may fall on either side of the rational it rounds.
    for P in (validate_params(1, 5), validate_params(2, 7)):
        cube = CubeId(min(cid.c, P.n), cid.k, (cid.gamma[0], -cid.gamma[0])[: P.n])
        box = realize(P, cube)
        after = realize(P, CubeId(cube.c, cube.k, tuple(g + 1 for g in cube.gamma)))
        gap_mid = tuple((hi + lo) / 2 for hi, lo in zip(box.hi, after.lo))
        assert locate(P, cube.c, cube.k, tuple(map(coerce, box.center))) == cube
        for x in (box.lo, box.hi, gap_mid):
            xs = tuple(map(coerce, x))
            want = cube if box.contains_point(tuple(map(F, xs))) else None
            assert locate(P, cube.c, cube.k, xs) == want
        xs = tuple(map(coerce, gap_mid))
        gamma = tuple(g + (F(v) > m) for g, v, m in zip(cube.gamma, xs, gap_mid))
        assert nearest_in_level(P, cube.c, cube.k, xs) == CubeId(cube.c, cube.k, gamma)


class TestLocate:
    def test_center_of_template(self, p5):
        assert locate(p5, 0, 0, (F(1, 2),)) == CubeId(0, 0, (0,))

    def test_gap_point(self, p5):
        assert locate(p5, 0, 0, (F(9, 10),)) is None

    def test_shifted_color_catches_gap_point(self, p5):
        assert locate(p5, 1, 0, (F(9, 10),)) == CubeId(1, 0, (0,))

    def test_boundary_belongs_to_cube(self, p5):
        assert locate(p5, 0, 0, (F(4, 5),)) == CubeId(0, 0, (0,))
        assert locate(p5, 0, 0, (F(1, 5),)) == CubeId(0, 0, (0,))

    def test_n2(self, p7):
        assert locate(p7, 0, 0, (F(1, 2), F(9, 10))) is None
        assert locate(p7, 0, 0, (F(1, 2), F(1, 2))) == CubeId(0, 0, (0, 0))


class TestNearestInLevel:
    def test_containing_cube_wins(self, p5):
        assert nearest_in_level(p5, 0, 0, (0.5,)) == CubeId(0, 0, (0,))

    def test_nearer_gap_side(self, p5):
        # 0.99 - 0.8 = 0.19 < 1.2 - 0.99 = 0.21
        assert nearest_in_level(p5, 0, 0, (0.99,)) == CubeId(0, 0, (0,))

    def test_tie_breaks_to_smaller_gamma(self, p5):
        assert nearest_in_level(p5, 0, 0, (1.0,)) == CubeId(0, 0, (0,))

    def test_brute_force_agreement(self, p5, p7):
        def oracle(P, c, k, x):
            # exact squared distance to every cube of a window around x;
            # min over (distance, gamma) breaks ties to the smallest gamma
            point = tuple(F(v) for v in x)
            at = RationalBox(point, point)
            _, gamma = min(
                (box_gap_sq(at, realize(P, CubeId(c, k, g))), g)
                for g in product(range(-5, 6), repeat=P.n)
            )
            return CubeId(c, k, gamma)

        rng = random.Random(20)
        for P, draws in ((p5, 30), (p7, 12)):
            for k in (-2, -1, 0, 1, 2):
                for c in P.colors:
                    # per axis: slab ends and gap midpoints of lattice points
                    # -3..3, plus uniform floats across them
                    boxes = [
                        realize(P, CubeId(c, k, (g,) * P.n)) for g in range(-3, 5)
                    ]
                    lo, hi = boxes[0].lo[0], boxes[-2].hi[0]
                    axis = [F(rng.uniform(lo, hi)) for _ in range(draws)]
                    for b, after in zip(boxes, boxes[1:]):
                        axis += [b.lo[0], b.hi[0], (b.hi[0] + after.lo[0]) / 2]
                    if P.n == 1:
                        points = [(v,) for v in axis]
                    else:
                        points = [tuple(rng.sample(axis, 2)) for _ in range(draws)]
                    for x in points:
                        for coerce in (F, float, str):
                            xs = tuple(map(coerce, x))
                            assert nearest_in_level(P, c, k, xs) == oracle(P, c, k, xs)

    def test_per_axis_independence(self, p7):
        got = nearest_in_level(p7, 0, 0, (0.5, 0.99))
        assert got.gamma == (
            nearest_in_level(validate_params(1, 7), 0, 0, (0.5,)).gamma[0],
            nearest_in_level(validate_params(1, 7), 0, 0, (0.99,)).gamma[0],
        )


class TestSeparationVerdict:
    def test_nested_level1(self, p5):
        v = separation_verdict(p5, CubeId(0, 0, (0,)), CubeId(0, 1, (0,)))
        assert v.kind is SeparationKind.NESTED_DEEP
        assert v.margin == F(1, 25) == p5.lam**2

    def test_nested_level0_in_minus1(self, p5):
        v = separation_verdict(p5, CubeId(0, -1, (0,)), CubeId(0, 0, (0,)))
        assert v.kind is SeparationKind.NESTED_DEEP
        assert v.margin == F(1, 5)

    def test_disjoint_far(self, p5):
        v = separation_verdict(p5, CubeId(0, 0, (0,)), CubeId(0, 1, (3,)))
        assert v.kind is SeparationKind.DISJOINT_FAR
        assert v.gap_sq == F(1, 625)  # gap exactly lam^2

    def test_color_mismatch(self, p5):
        with pytest.raises(ColorMismatch):
            separation_verdict(p5, CubeId(0, 0, (0,)), CubeId(1, 1, (0,)))

    def test_level_order(self, p5):
        with pytest.raises(LevelOrder):
            separation_verdict(p5, CubeId(0, 1, (0,)), CubeId(0, 0, (0,)))

    def test_random_pairs_never_violate(self, p5):
        rng = random.Random(21)
        for _ in range(1000):
            k1 = k2 = 0
            while k1 == k2:
                k1, k2 = rng.randint(-3, 4), rng.randint(-3, 4)
            c = rng.randint(0, 1)
            low = CubeId(c, min(k1, k2), (rng.randint(-125, 125),))
            high = CubeId(c, max(k1, k2), (rng.randint(-125, 125),))
            assert separation_verdict(p5, low, high).kind is not SeparationKind.VIOLATION

    def test_random_pairs_never_violate_n2(self, p7):
        rng = random.Random(22)
        for _ in range(300):
            k1 = k2 = 0
            while k1 == k2:
                k1, k2 = rng.randint(-2, 3), rng.randint(-2, 3)
            c = rng.randint(0, 2)
            g = lambda: (rng.randint(-49, 49), rng.randint(-49, 49))
            low = CubeId(c, min(k1, k2), g())
            high = CubeId(c, max(k1, k2), g())
            assert separation_verdict(p7, low, high).kind is not SeparationKind.VIOLATION


def test_same_level_disjoint_with_exact_gap(p5):
    # adjacent same-level cubes sit 2*lam^{k+1} apart
    for k in (-2, 0, 1, 3):
        for g in (-2, 0, 5):
            b1 = realize(p5, CubeId(0, k, (g,)))
            b2 = realize(p5, CubeId(0, k, (g + 1,)))
            assert box_gap_sq(b1, b2) == (2 * p5.lam ** (k + 1)) ** 2


class TestCovering:
    def test_n1_p5_covered(self, p5):
        report = verify_covering_level0(p5)
        assert report.covered
        assert report.cells_total == 10
        assert report.grid_step == F(1, 10)

    def test_n1_p5_interval_union_oracle(self, p5):
        # color 0 covers [1/5,4/5]; color 1 covers [0,3/10] and [7/10,1] on
        # the torus; together they leave nothing
        segments = []
        for c in (0, 1):
            b = realize(p5, CubeId(c, 0, (0,)))
            for g in (-1, 0):
                lo, hi = b.lo[0] + g, b.hi[0] + g
                segments.append((max(lo, F(0)), min(hi, F(1))))
        segments = sorted(s for s in segments if s[0] < s[1])
        reach = F(0)
        for lo, hi in segments:
            assert lo <= reach
            reach = max(reach, hi)
        assert reach >= 1

    def test_locate_oracle_agreement(self, p5, p7):
        for P in (p5, p7):
            report = verify_covering_level0(P)
            m = report.grid_step.denominator
            for cell in _cells(m, P.n):
                center = tuple(F(2 * i + 1, 2 * m) for i in cell)
                by_locate = any(
                    locate(P, c, 0, center) is not None for c in P.colors
                )
                assert by_locate  # covered everywhere per the report
            assert report.covered

    def test_n2_p7_covered(self, p7):
        report = verify_covering_level0(p7)
        assert report.covered
        assert report.cells_total == 441

    @pytest.mark.parametrize("n,p", [(1, 6), (1, 9), (2, 8), (3, 10)])
    def test_every_valid_instance_covered(self, n, p):
        assert verify_covering_level0(validate_params(n, p)).covered

    def test_single_color_not_covered(self, p5):
        report = verify_covering_level0(p5, colors=[0])
        assert not report.covered
        # witnesses live in the gap (4/5, 6/5) mod 1
        for (w,) in report.witnesses:
            assert w > F(4, 5) or w < F(1, 5)

    def test_budget(self, p7):
        with pytest.raises(ResourceLimit):
            verify_covering_level0(p7, cell_budget=10)

    def test_json_shape(self, p5):
        doc = verify_covering_level0(p5).to_json_dict()
        assert set(doc) == {
            "n", "p", "colors", "grid_step", "cells_total",
            "cells_uncovered", "covered", "witnesses",
        }
        assert doc["grid_step"] == "1/10"


def _cells(m, n):
    from itertools import product

    return product(range(m), repeat=n)
