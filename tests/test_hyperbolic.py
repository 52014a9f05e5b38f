import decimal
import math
import random
import sys

import pytest
from scipy.integrate import quad

from treebed import (
    DimensionMismatch,
    HoroPoint,
    ResourceLimit,
    horo_distance,
    hyp_distance,
    validate_params,
)


def geodesic_oracle(P, z, zp):
    """Independent distance: integrate arc length along the geodesic circle
    in the upper half-plane slice through the two points."""
    s = P.sigma
    r = math.dist(z.x, zp.x)
    x1, y1 = 0.0, math.exp(-s * z.t)
    x2, y2 = s * r, math.exp(-s * zp.t)
    if x2 == x1:
        return abs(math.log(y2 / y1)) / s
    c = (x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1) / (2.0 * (x2 - x1))
    phi1 = math.atan2(y1, x1 - c)
    phi2 = math.atan2(y2, x2 - c)
    lo, hi = min(phi1, phi2), max(phi1, phi2)
    val, err = quad(
        lambda t: 1.0 / math.sin(t), lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12
    )
    assert err < 1e-8
    return val / s


def _decimal_distance(P, z, zp):
    """acosh(1 + u)/sigma at 60 digits from the exact float coordinates."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        D = decimal.Decimal
        s = D(P.p).ln()
        half = s * (D(z.t) - D(zp.t)) / 2
        sinh = (half.exp() - (-half).exp()) / 2
        r2 = sum((D(a) - D(b)) ** 2 for a, b in zip(z.x, zp.x))
        u = 2 * sinh**2 + s * s / 2 * (s * (D(z.t) + D(zp.t))).exp() * r2
        return float((1 + u + (u * (u + 2)).sqrt()).ln() / s)


class TestHypDistance:
    def test_vertical_unit(self, p5):
        assert hyp_distance(p5, HoroPoint(0.0, (0.0,)), HoroPoint(1.0, (0.0,))) == pytest.approx(1.0, abs=1e-12)

    def test_vertical_shift_invariant(self, p5):
        for k in (-3.0, 0.0, 7.5):
            d = hyp_distance(p5, HoroPoint(k, (2.5,)), HoroPoint(k - 1.0, (2.5,)))
            assert d == pytest.approx(1.0, abs=1e-12)

    def test_same_horosphere_closed_form(self, p5):
        s = p5.sigma
        for x in (0.1, 1.0, 3.7):
            d = hyp_distance(p5, HoroPoint(0.0, (0.0,)), HoroPoint(0.0, (x,)))
            assert d == pytest.approx(2.0 / s * math.asinh(s * x / 2.0), rel=1e-12)

    def test_against_geodesic_integration(self, p5):
        rng = random.Random(11)
        for _ in range(100):
            z = HoroPoint(rng.uniform(-3, 3), (rng.uniform(-10, 10),))
            zp = HoroPoint(rng.uniform(-3, 3), (rng.uniform(-10, 10),))
            d = hyp_distance(p5, z, zp)
            assert d == pytest.approx(geodesic_oracle(p5, z, zp), abs=1e-6)

    def test_against_geodesic_integration_n2(self, p7):
        rng = random.Random(12)
        for _ in range(50):
            z = HoroPoint(rng.uniform(-2, 2), (rng.uniform(-5, 5), rng.uniform(-5, 5)))
            zp = HoroPoint(rng.uniform(-2, 2), (rng.uniform(-5, 5), rng.uniform(-5, 5)))
            assert hyp_distance(p7, z, zp) == pytest.approx(
                geodesic_oracle(p7, z, zp), abs=1e-6
            )

    def test_metric_axioms_sampled(self, p5):
        rng = random.Random(13)
        pts = [
            HoroPoint(rng.uniform(-4, 4), (rng.uniform(-20, 20),))
            for _ in range(60)
        ]
        for _ in range(2000):
            a, b, c = rng.sample(pts, 3)
            dab = hyp_distance(p5, a, b)
            assert dab == hyp_distance(p5, b, a)
            assert dab <= hyp_distance(p5, a, c) + hyp_distance(p5, c, b) + 1e-9
        for z in pts:
            assert hyp_distance(p5, z, z) == 0.0

    def test_dominates_height_difference(self, p5):
        rng = random.Random(14)
        for _ in range(500):
            z = HoroPoint(rng.uniform(-5, 5), (rng.uniform(-50, 50),))
            zp = HoroPoint(rng.uniform(-5, 5), (rng.uniform(-50, 50),))
            assert hyp_distance(p5, z, zp) >= abs(z.t - zp.t) - 1e-12

    def test_chord_below_horospherical_arc(self, p5):
        rng = random.Random(15)
        for _ in range(500):
            t = rng.uniform(-3, 3)
            x, xp = rng.uniform(-9, 9), rng.uniform(-9, 9)
            chord = hyp_distance(p5, HoroPoint(t, (x,)), HoroPoint(t, (xp,)))
            assert chord <= horo_distance(p5, t, (x,), (xp,)) + 1e-12

    def test_nearby_points_stable(self, p5):
        d = hyp_distance(p5, HoroPoint(0.0, (0.0,)), HoroPoint(0.0, (1e-9,)))
        assert d == pytest.approx(1e-9, rel=1e-6)

    def test_overflow_reported(self, p5):
        with pytest.raises(ResourceLimit, match="distance overflow"):
            hyp_distance(p5, HoroPoint(300.0, (0.0,)), HoroPoint(300.0, (1e30,)))
        with pytest.raises(ResourceLimit, match="distance overflow"):
            hyp_distance(p5, HoroPoint(0.0, (1e300,)), HoroPoint(0.0, (-1e300,)))

    def test_vertical_pairs_far_up_and_down(self, p5):
        # Equal x: e^(sigma(t+t')) would overflow above t of about 220, but
        # it multiplies ||x-x'||^2 = 0, so the distance is the height gap.
        for t in (440.0, -440.0):
            for dt in (0.0, 0.5, 7.0, 40.0):
                d = hyp_distance(p5, HoroPoint(t, (0.3,)), HoroPoint(t - dt, (0.3,)))
                assert d == pytest.approx(dt, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("params", ["p5", "p7"])
    def test_huge_u_against_decimal_reference(self, params, request):
        # u from 1e150 up to about DBL_MAX, where u*(u+2) overflows from
        # 1.3e154 on; half horizontal, half vertical pairs.
        P = request.getfixturevalue(params)
        rng = random.Random(18)
        s = P.sigma
        for i in range(300):
            log_u = rng.uniform(math.log(1e150), math.log(sys.float_info.max) - 1e-9)
            if i % 2:
                dt = (log_u + math.log(2.0)) / s
                t = rng.uniform(-1.0, 1.0)
                x = tuple(rng.uniform(-9, 9) for _ in range(P.n))
                z, zp = HoroPoint(t + dt / 2, x), HoroPoint(t - dt / 2, x)
            else:
                a = rng.uniform(max(-700.0, log_u - 700.0), 700.0)  # s*(t+t')
                dt = rng.uniform(-5.0, 5.0)
                r = math.exp((log_u - a - math.log(0.5 * s * s)) / 2)
                z = HoroPoint((a / s + dt) / 2, (0.0,) * P.n)
                zp = HoroPoint((a / s - dt) / 2, (r,) + (0.0,) * (P.n - 1))
            ref = _decimal_distance(P, z, zp)
            assert abs(hyp_distance(P, z, zp) - ref) <= 1e-14 * ref

    def test_tiny_horizontal_gap_far_up(self, p5):
        # Heights 200..225 and gaps of 1e-160..1e-136: ||x-x'||^2 is below
        # 1e-300 in many rows, yet e^(sigma(t+t')) brings the horizontal term
        # to u of 1e5 and more. Below that, rounding sigma*(t+t') alone moves
        # the distance by more than the tolerance.
        rng = random.Random(19)
        s = p5.sigma
        for i in range(300):
            if i % 2:
                # equal heights: only the horizontal term, u from 1e5 to 1e30
                t = tp = rng.uniform(200.0, 220.25)
                log_u = rng.uniform(math.log(1e5), math.log(1e30))
                gap = math.exp((log_u - 2 * s * t - math.log(0.5 * s * s)) / 2)
            else:
                dt = rng.choice((-1, 1)) * rng.uniform(5.0, 9.0)
                both = rng.uniform(400.0 + abs(dt), 440.5)
                t, tp = (both + dt) / 2, (both - dt) / 2
                gap = 10 ** rng.uniform(-160, -146)
            z, zp = HoroPoint(t, (0.0,)), HoroPoint(tp, (gap,))
            ref = _decimal_distance(p5, z, zp)
            assert abs(hyp_distance(p5, z, zp) - ref) <= 1e-14 * ref

    def test_dimension_mismatch(self, p7):
        with pytest.raises(DimensionMismatch):
            hyp_distance(p7, HoroPoint(0.0, (0.0,)), HoroPoint(0.0, (0.0, 0.0)))


class TestHoroDistance:
    def test_level0(self, p5):
        assert horo_distance(p5, 0, (0.0,), (1.0,)) == 1.0

    def test_level1_scales_by_p(self, p5):
        assert horo_distance(p5, 1, (0.0,), (1.0,)) == 5.0

    def test_negative_level_n2(self, p7):
        # ||(3,4)|| = 5 scaled by p^{-2}
        assert horo_distance(p7, -2, (0.0, 0.0), (3.0, 4.0)) == pytest.approx(5 / 49)

    def test_projection_scaling_law(self, p5):
        rng = random.Random(16)
        for _ in range(500):
            k = rng.randint(-6, 6)
            x, xp = (rng.uniform(-99, 99),), (rng.uniform(-99, 99),)
            lhs = horo_distance(p5, k - 1, x, xp)
            rhs = horo_distance(p5, k, x, xp) / p5.p
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestProject:
    def test_projection_contracts(self, p5):
        rng = random.Random(17)
        for _ in range(300):
            k = rng.randint(-3, 3)
            z = HoroPoint(float(k), (rng.uniform(-9, 9),))
            zp = HoroPoint(float(k), (rng.uniform(-9, 9),))
            down = hyp_distance(
                p5, HoroPoint(k - 1.0, z.x), HoroPoint(k - 1.0, zp.x)
            )
            assert down <= hyp_distance(p5, z, zp) + 1e-12
