from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from treebed import (
    DimensionMismatch,
    InvalidParams,
    validate_params,
)

from reference import boundary_margin, box_gap_sq


def box(*pairs):
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


class TestValidateParams:
    def test_n1_p5(self):
        P = validate_params(1, 5)
        assert (P.m, P.D) == ((0, 2), 20)
        # side 3/5 at level 0, contracted by 1/5 per level
        assert P.slab(0, 0, 0) == (F(1, 5), F(4, 5))
        assert P.slab(0, 1, 0) == (F(6, 25), F(9, 25))
        # color 1 is shifted by 1/2
        assert P.slab(1, 0, 0) == (F(7, 10), F(13, 10))

    def test_n2_p7_accepted(self):
        P = validate_params(2, 7)
        assert (P.m, P.D) == ((0, 2, 4), 42)
        # side 5/7, and the shifts 1/3 and 2/3
        assert P.slab(0, 0, 0) == (F(1, 7), F(6, 7))
        assert P.slab(1, 0, 0) == (F(10, 21), F(25, 21))
        assert P.slab(2, 0, 0) == (F(17, 21), F(32, 21))

    def test_n2_p6_rejected(self):
        # 1/5 + 1/6 = 11/30 > 1/3
        with pytest.raises(InvalidParams, match="1/..-1."):
            validate_params(2, 6)

    def test_n1_p4_rejected(self):
        with pytest.raises(InvalidParams):
            validate_params(1, 4)

    @pytest.mark.parametrize("n,p", [(0, 5), (1, 1), (-1, 5)])
    def test_preconditions(self, n, p):
        with pytest.raises(InvalidParams):
            validate_params(n, p)

    def test_derived_identities(self):
        for n, p in [(1, 5), (1, 6), (2, 7), (3, 9)]:
            P = validate_params(n, p)
            lo, hi = P.slab(0, 0, 0)
            assert p * (hi - lo) == p - 2
            # the fixed point 1/(p-1) of H(x) = p*(x - 1/p) keeps its lattice
            # position at every level
            e = (F(1, p - 1),) * n
            for k in (-2, 0, 3):
                assert [F(*u) for u in P.positions(0, k, e)] == list(e)
            assert P.p > 2 * (n + 1)


class TestBoxGapSq:
    def test_axis_gap(self):
        assert box_gap_sq(box((F(1, 5), F(4, 5))), box((F(6, 5), F(9, 5)))) == F(4, 25)

    def test_overlap(self):
        assert box_gap_sq(box((F(1, 5), F(4, 5))), box((F(1, 2), F(3, 5)))) == 0

    def test_corner_to_corner(self):
        b1 = box((F(0), F(1)), (F(0), F(1)))
        b2 = box((F(2), F(3)), (F(2), F(3)))
        assert box_gap_sq(b1, b2) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            box_gap_sq(box((F(0), F(1))), box((F(0), F(1)), (F(0), F(1))))


class TestBoundaryMargin:
    def test_level1_margin(self):
        # min margin 1/25 = lam^2 for (n=1, p=5): the level-1 separation bound
        assert boundary_margin(
            box((F(1, 5), F(4, 5))), box((F(6, 25), F(9, 25)))
        ) == F(1, 25)

    def test_wide_outer(self):
        assert boundary_margin(box((F(0), F(3))), box((F(1, 5), F(4, 5)))) == F(1, 5)

    def test_not_contained(self):
        assert boundary_margin(box((F(0), F(1))), box((F(0), F(2)))) is None


def rationals(lo=-50, hi=50):
    return st.builds(F, st.integers(lo, hi), st.integers(1, 20))


@st.composite
def boxes(draw, dim):
    lo = [draw(rationals()) for _ in range(dim)]
    hi = [l + draw(rationals(0, 50)) for l in lo]
    return tuple(lo), tuple(hi)


@given(boxes(2), boxes(2))
def test_gap_symmetric(b1, b2):
    assert box_gap_sq(b1, b2) == box_gap_sq(b2, b1)
    assert box_gap_sq(b1, b2) >= 0


@given(boxes(2))
def test_gap_self_zero(b):
    assert box_gap_sq(b, b) == 0


@given(boxes(2), boxes(2), rationals(0, 10))
def test_gap_shrinks_when_box_grows(b1, b2, pad):
    lo, hi = b1
    grown = tuple(c - pad for c in lo), tuple(c + pad for c in hi)
    assert box_gap_sq(grown, b2) <= box_gap_sq(b1, b2)


@given(boxes(2), rationals(0, 5), rationals(0, 5))
def test_margin_grows_when_inner_shrinks(outer, pad1, pad2):
    olo, ohi = outer
    ilo, ihi = tuple(c + pad1 for c in olo), tuple(c + pad1 for c in ohi)
    # inner must actually fit; recenter by clamping to outer via intersection
    inner = (
        tuple(min(max(lo, a), b) for lo, a, b in zip(ilo, olo, ohi)),
        tuple(min(max(hi, a), b) for hi, a, b in zip(ihi, olo, ohi)),
    )
    m1 = boundary_margin(outer, inner)
    assert m1 is not None and m1 >= 0
    shrunk_hi = tuple(max(lo, hi - pad2) for lo, hi in zip(*inner))
    m2 = boundary_margin(outer, (inner[0], shrunk_hi))
    assert m2 >= m1
