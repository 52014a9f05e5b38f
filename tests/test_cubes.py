import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treebed import (
    ColorMismatch,
    CubeId,
    InvalidParams,
    Params,
    RationalBox,
    ResourceLimit,
    SeparationKind,
    SeparationVerdict,
    locate,
    nearest_in_level,
    realize,
    separation_verdict,
    tree_distance,
    validate_params,
    verify_covering_level0,
)

from reference import boundary_margin, box_gap_sq, center, contains_point


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
            side = F(5, 7) * F(1, 7) ** k
            assert all(hi - lo == side for lo, hi in zip(b.lo, b.hi))

    def test_non_integer_fields(self, p5):
        with pytest.raises(TypeError, match="integer"):
            realize(p5, CubeId(0, 1, (0.5,)))
        with pytest.raises(TypeError, match="integer"):
            realize(p5, CubeId(0, F(1, 2), (0,)))
        with pytest.raises(TypeError, match="integer"):
            separation_verdict(p5, CubeId(0, 0, (0,)), CubeId(0, 1, (1.5,)))

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
        assert locate(P, cube.c, cube.k, tuple(map(coerce, center(box)))) == cube
        for x in (box.lo, box.hi, gap_mid):
            xs = tuple(map(coerce, x))
            want = cube if contains_point(box, tuple(map(F, xs))) else None
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


@pytest.mark.parametrize("query", [locate, nearest_in_level])
@pytest.mark.parametrize(
    "c,k,error",
    [
        (0, 1.5, TypeError),
        (-1, 1, ColorMismatch),
        (5, 1, ColorMismatch),
        (0, 2_000_000, ResourceLimit),
    ],
)
def test_query_checks_color_and_level(p5, query, c, k, error):
    # Checked before any lattice arithmetic: c = -1 would read color 1's
    # shift, c = 5 would index past it, and p**k at k = 2e6 takes a second.
    with pytest.raises(error):
        query(p5, c, k, (0.3,))


def test_level_past_the_print_limit_is_a_resource_limit(p5):
    # 5,001 digits: more than str() converts, so the message gives the count.
    with pytest.raises(ResourceLimit, match=r"level \+\(about 5001 digits\)"):
        tree_distance(p5, CubeId(0, 10**5000, (0,)), CubeId(0, 0, (0,)))
    with pytest.raises(ResourceLimit, match=r"level \+\(about 5001 digits\)"):
        nearest_in_level(p5, 0, 10**5000, (0.5,))
    with pytest.raises(ResourceLimit, match="level -999999999999999999 "):
        nearest_in_level(p5, 0, -(10**18 - 1), (0.5,))


def test_fractional_color_is_named(p5):
    # 0 <= c <= n holds for these colors; indexing P.m with them would not.
    with pytest.raises(TypeError, match="color 0.5 is not an integer"):
        nearest_in_level(p5, 0.5, 1, (0.3,))
    with pytest.raises(TypeError, match="color 0.0 is not an integer"):
        tree_distance(p5, CubeId(0.0, 1, (2,)), CubeId(0.0, 0, (0,)))
    with pytest.raises(TypeError, match="color 0.5 is not an integer"):
        verify_covering_level0(p5, colors=[0.5])


class TestSeparationVerdict:
    def test_nested_level1(self, p5):
        v = separation_verdict(p5, CubeId(0, 0, (0,)), CubeId(0, 1, (0,)))
        assert v.kind is SeparationKind.NESTED_DEEP
        assert v.margin == F(1, 25) == F(1, 5) ** 2

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
        with pytest.raises(ValueError, match=r"need low.k < high.k, got 1 >= 0"):
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


def _reference_verdict(P, low, high):
    """separation_verdict from the realized boxes and the core box predicates."""
    if low.c != high.c:
        raise ColorMismatch(f"colors {low.c} vs {high.c}")
    if low.k >= high.k:
        raise ValueError(f"need low.k < high.k, got {low.k} >= {high.k}")
    outer, inner = realize(P, low), realize(P, high)
    bound = F(1, P.p) ** (high.k + 1)
    gap_sq = box_gap_sq(outer, inner)
    if gap_sq > 0:
        far = gap_sq >= bound * bound
        kind = SeparationKind.DISJOINT_FAR if far else SeparationKind.VIOLATION
        return SeparationVerdict(kind=kind, gap_sq=gap_sq)
    margin = boundary_margin(outer, inner)
    if margin is None:
        return SeparationVerdict(kind=SeparationKind.VIOLATION, gap_sq=gap_sq)
    deep = margin >= bound
    kind = SeparationKind.NESTED_DEEP if deep else SeparationKind.VIOLATION
    return SeparationVerdict(kind=kind, margin=margin)


def _outcome(fn, P, low, high):
    try:
        return fn(P, low, high)
    except (ValueError, ResourceLimit) as exc:
        return type(exc), str(exc)


# (1,8) and (2,8) shift their colors by m_c/(p-1), not by c/(n+1).
_SEPARATION_PARAMS = {
    np: validate_params(*np) for np in [(1, 5), (1, 8), (2, 7), (2, 8), (3, 9)]
}


@st.composite
def _separation_case(draw):
    """A same-color pair at levels -8..6: the higher lattice point drawn
    independently, or under the lower cube's footprint (s*g + r) with r
    uniform or at the footprint's edges."""
    n, p = draw(st.sampled_from(sorted(_SEPARATION_PARAMS)))
    k_low = draw(st.integers(-8, 5))
    k_high = draw(st.integers(k_low + 1, 6))
    c = draw(st.integers(0, n))
    lattice = st.integers(-p**3, p**3)
    low = tuple(draw(lattice) for _ in range(n))
    s = p ** (k_high - k_low)
    if draw(st.booleans()):
        high = tuple(draw(lattice) for _ in range(n))
    else:
        edges = st.sampled_from([-1, 0, 1, s - 2, s - 1, s])
        offset = st.one_of(st.integers(0, s - 1), edges)
        high = tuple(s * g + draw(offset) for g in low)
    return _SEPARATION_PARAMS[n, p], CubeId(c, k_low, low), CubeId(c, k_high, high)


def _case(n, p, low, high):
    return _SEPARATION_PARAMS[n, p], CubeId(*low), CubeId(*high)


@given(_separation_case())
@settings(max_examples=400, deadline=None)
# Exact bounds: gap exactly lam^2 and margin exactly lam^2 at level 1, and
# the same at level -1, where the unit's power of p is in the numerator.
@example(_case(1, 5, (0, 0, (0,)), (0, 1, (3,))))
@example(_case(1, 5, (0, 0, (0,)), (0, 1, (0,))))
@example(_case(1, 5, (0, -2, (0,)), (0, -1, (3,))))
@example(_case(1, 5, (0, -2, (0,)), (0, -1, (0,))))
# A (2,8) pair that overlapped without nesting when color c was shifted by
# c/(n+1); shifted by m_c/(p-1), its gap is exactly the bound.
@example(_case(2, 8, (1, -2, (18, -28)), (1, -1, (152, -218))))
# Error order: colors, then levels, then the lower id, then the higher id.
@example(_case(1, 5, (0, 1, (0,)), (1, 0, (0,))))
@example(_case(1, 5, (2, 1, (0, 0)), (2, 0, (0,))))
@example(_case(1, 5, (0, 0, (0, 0)), (0, 10**6, (0,))))
@example(_case(1, 5, (0, 0, (0,)), (0, 442, (0,))))
def test_separation_verdict_matches_box_reference(case):
    P, low, high = case
    assert _outcome(separation_verdict, P, low, high) == _outcome(
        _reference_verdict, P, low, high
    )


def _planted(P):
    """P with the slab one unit of 1/D wider, so that nearby cubes of
    different levels overlap or come closer than the separation bound."""
    return Params(P.n, P.p, P.m, P.D, P.C, P.W + 1, P.level_bound, P.sigma)


@pytest.mark.parametrize("n,p", [(1, 5), (2, 7)])
def test_planted_violations_match_box_reference(n, p):
    # No accepted (n, p) has a violation, so only a planted pattern reaches
    # the verdict's two VIOLATION branches: a gap below the bound, and an
    # overlap without containment. The higher cube is drawn under the lower
    # one's footprint or at its edges.
    P = _planted(validate_params(n, p))
    rng = random.Random(24)
    kinds = set()
    for _ in range(3000):
        k_low = rng.randint(-3, 3)
        k_high = k_low + rng.randint(1, 2)
        c, s = rng.randint(0, P.n), P.p ** (k_high - k_low)
        low = [rng.randint(-P.p**3, P.p**3) for _ in range(P.n)]
        offsets = [rng.randint(0, s - 1), -1, 0, 1, s - 2, s - 1, s]
        high = [s * g + rng.choice(offsets) for g in low]
        low, high = CubeId(c, k_low, tuple(low)), CubeId(c, k_high, tuple(high))
        got = separation_verdict(P, low, high)
        assert got == _reference_verdict(P, low, high)
        if got.kind is SeparationKind.VIOLATION:
            kinds.add("gap" if got.gap_sq else "overlap" if got.margin is None else "margin")
    assert {"gap", "overlap"} <= kinds


def _accepted_params(n_max, p_max):
    for n, p in product(range(1, n_max + 1), range(2, p_max + 1)):
        try:
            yield validate_params(n, p)
        except InvalidParams:
            pass


@pytest.mark.parametrize(
    "P", list(_accepted_params(3, 15)), ids=lambda P: f"n{P.n}p{P.p}"
)
def test_nested_draws_never_violate(P):
    # Same-color cubes of different levels are nested or separated at every
    # accepted (n, p); the draw is separation-n2p7's nested one.
    n, p = P.n, P.p
    rng = random.Random(f"laminar/{n}/{p}")
    for _ in range(3000):
        k1 = k2 = 0
        while k1 == k2:
            k1, k2 = rng.randint(-3, 4), rng.randint(-3, 4)
        s = p ** abs(k1 - k2)
        c = rng.randint(0, n)
        low = tuple(rng.randint(-p**3, p**3) for _ in range(n))
        high = tuple(s * g + rng.randrange(s) for g in low)
        verdict = separation_verdict(
            P, CubeId(c, min(k1, k2), low), CubeId(c, max(k1, k2), high)
        )
        assert verdict.kind is not SeparationKind.VIOLATION, (low, high)
    # Where (n+1) | (p-1) the shift is the diagonal c/(n+1) of the benchmark
    # and acceptance settings (1,5), (2,7) and (3,9).
    if (p - 1) % (n + 1) == 0:
        shifts = [F(m, p - 1) for m in P.m]
        assert shifts == [F(c, n + 1) for c in P.colors]


def test_same_level_disjoint_with_exact_gap(p5):
    # adjacent same-level cubes sit 2*lam^{k+1} apart
    for k in (-2, 0, 1, 3):
        for g in (-2, 0, 5):
            b1 = realize(p5, CubeId(0, k, (g,)))
            b2 = realize(p5, CubeId(0, k, (g + 1,)))
            assert box_gap_sq(b1, b2) == (2 * F(1, 5) ** (k + 1)) ** 2


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

    @pytest.mark.parametrize(
        "n,p", [(1, 6), (1, 9), (2, 8), (3, 10), (4, 11), (5, 13), (6, 15)]
    )
    def test_every_valid_instance_covered(self, n, p):
        assert verify_covering_level0(validate_params(n, p)).covered

    def test_single_color_not_covered(self, p5):
        report = verify_covering_level0(p5, colors=[0])
        assert not report.covered
        # witnesses live in the gap (4/5, 6/5) mod 1
        for (w,) in report.witnesses:
            assert w > F(4, 5) or w < F(1, 5)

    def test_budget(self):
        # No work bound: an axis of 2e10 cells, and 41 colors at n = 40.
        for n, p in [(1, 100_000), (40, 83)]:
            report = verify_covering_level0(validate_params(n, p))
            assert report.covered and not report.witnesses

    def test_missing_runs_are_disjoint(self):
        # The premise of the lemma that each axis cell misses at most one
        # color: the open gaps (hi, lo + 1) of the level-0 slabs, each 2/p
        # long, lie at least 2/p apart on the unit circle.
        for P in _accepted_params(29, 199):
            starts = sorted(P.slab(c, 0, 0)[1] % 1 for c in P.colors)
            spacings = [b - a for a, b in zip(starts, starts[1:] + [starts[0] + 1])]
            assert min(spacings) >= F(2, P.p), (P.n, P.p)

    def test_count_matches_closed_form(self):
        # k colors are missed on n axes iff each is missed on one of them; a
        # color misses 2m/p of the m axis cells, and the misses are disjoint.
        P = validate_params(40, 83)
        report = verify_covering_level0(P, colors=range(20))
        m = report.grid_step.denominator
        g = 2 * m // P.p
        assert report.cells_uncovered == sum(
            (-1) ** j * math.comb(20, j) * (m - j * g) ** 40 for j in range(21)
        ) > 0
        assert report.cells_total == m**40

    def test_walk_deeper_than_the_recursion_limit(self):
        P = validate_params(1200, 2403)
        report = verify_covering_level0(P, colors=range(5))
        assert len(report.witnesses) == 32
        assert report.witnesses == tuple(sorted(set(report.witnesses)))
        # Directly: every axis takes cell 0 until the last axes, which take
        # the first cell missing each color that cell 0 does not miss.
        m = report.grid_step.denominator
        first = {}
        for c in range(5):
            lo, hi = P.slab(c, 0, 0)
            a, end = hi % 1 * m, (hi % 1 + F(2, P.p)) * m  # the gap, in cells
            first[c] = 0 if end > m else int(a)
        tail = sorted(i for i in first.values() if i)
        cells = (0,) * (P.n - len(tail)) + tuple(tail)
        assert report.witnesses[0] == tuple(F(2 * i + 1, 2 * m) for i in cells)
        assert all(locate(P, c, 0, report.witnesses[0]) is None for c in range(5))

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


def _covering_brute_force(P, colors, max_witnesses=32):
    """Level-0 covering decided cell by cell over the whole torus grid.

    The grid step is the lcm of the denominators of every color's slab ends,
    each color's axis membership is read off its realized level-0 slab, and
    every one of the m^n cells is tested (vectorized), in lexicographic order.
    """
    slabs = {c: realize(P, CubeId(c, 0, (0,) * P.n)) for c in P.colors}
    m = math.lcm(*(b.lo[0].denominator for b in slabs.values()),
                 *(b.hi[0].denominator for b in slabs.values()))
    centers = [F(2 * i + 1, 2 * m) for i in range(m)]
    covered = np.zeros((m,) * P.n, dtype=bool)
    for c in colors:
        lo, hi = slabs[c].lo[0], slabs[c].hi[0]
        axis = np.array([(x - lo) % 1 <= hi - lo for x in centers])
        cells = np.ones((m,) * P.n, dtype=bool)
        for d in range(P.n):
            cells &= axis.reshape((m,) + (1,) * (P.n - 1 - d))
        covered |= cells
    gaps = np.argwhere(~covered)
    return {
        "n": P.n,
        "p": P.p,
        "colors": list(colors),
        "grid_step": str(F(1, m)),
        "cells_total": m**P.n,
        "cells_uncovered": len(gaps),
        "covered": len(gaps) == 0,
        "witnesses": [
            [str(centers[i]) for i in cell] for cell in gaps[:max_witnesses].tolist()
        ],
    }


@pytest.mark.parametrize(
    "P", list(_accepted_params(3, 15)), ids=lambda P: f"n{P.n}p{P.p}"
)
def test_covering_matches_brute_force_for_every_color_subset(P):
    for size in range(1, P.n + 2):
        for cols in combinations(P.colors, size):
            got = verify_covering_level0(P, colors=cols)
            assert got.to_json_dict() == _covering_brute_force(P, cols)
