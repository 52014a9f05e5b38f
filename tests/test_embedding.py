import math
import random
from fractions import Fraction as F

import pytest

from treebed import (
    CubeId,
    HoroPoint,
    embed,
    hyp_distance,
    locate,
    per_color_distances,
    product_distance,
    realize,
    tree_distance,
)
from treebed.embedding import EmbeddedPoint, embedding_level

from reference import center, contains_box, contains_point


class TestEmbedColor:
    def test_center_of_template(self, p5):
        assert embed(p5, HoroPoint(0.0, (0.5,))).images[0] == CubeId(0, 0, (0,))

    def test_rounds_down_to_same_level(self, p5):
        assert embed(p5, HoroPoint(0.4, (0.5,))).images[0] == CubeId(0, 0, (0,))

    def test_rounds_up_to_level1(self, p5):
        # level-1 cube containing x=1/2 is gamma=1: [11/25, 14/25]
        got = embed(p5, HoroPoint(0.6, (0.5,))).images[0]
        assert got == CubeId(0, 1, (1,))
        assert contains_point(realize(p5, got), (F(1, 2),))

    def test_half_integer_rounds_up(self, p5):
        assert embedding_level(HoroPoint(0.5, (0.0,))) == 1
        assert embedding_level(HoroPoint(-0.5, (0.0,))) == 0

    def test_level_coherence(self, p5):
        rng = random.Random(40)
        for _ in range(300):
            z = HoroPoint(rng.uniform(-6, 6), (rng.uniform(-99, 99),))
            for v in embed(p5, z).images:
                assert v.k == embedding_level(z)


class TestEmbed:
    def test_frozen_example(self, p5):
        # color-1 pattern has boxes [-3/10,3/10] and [7/10,13/10] around
        # x=1/2, both at gap exactly 1/5: the tie goes to the smaller gamma
        got = embed(p5, HoroPoint(0.0, (0.5,)))
        assert [v.key() for v in got.images] == [(0, 0, (0,)), (1, 0, (-1,))]

    def test_deterministic(self, p5):
        z = HoroPoint(1.3, (0.77,))
        assert embed(p5, z) == embed(p5, z)

    def test_images_carry_their_color(self, p7):
        z = HoroPoint(0.2, (0.1, -3.4))
        assert [v.c for v in embed(p7, z).images] == [0, 1, 2]

    def test_fixed_point_chain(self, p5):
        # the fixed point 1/4 sits inside a cube of every color at every
        # level, so the images along the vertical family form containment chains
        x = 0.25
        images = [embed(p5, HoroPoint(float(k), (x,))).images for k in range(6)]
        for c in p5.colors:
            for k in range(6):
                assert images[k][c] == locate(p5, c, k, (F(1, 4),))
            for k in range(5):
                assert contains_box(
                    realize(p5, images[k][c]), realize(p5, images[k + 1][c])
                )

    def test_bounded_displacement(self, p5):
        rng = random.Random(41)
        bound = 0.5 + math.sqrt(p5.n) / 2 + 0.1
        for _ in range(500):
            z = HoroPoint(rng.uniform(-5, 5), (rng.uniform(-200, 200),))
            for img in embed(p5, z).images:
                mid = tuple(float(c) for c in center(realize(p5, img)))
                d = hyp_distance(p5, z, HoroPoint(float(img.k), mid))
                assert d <= bound

    def test_bounded_displacement_n2(self, p7):
        rng = random.Random(42)
        bound = 0.5 + math.sqrt(p7.n) / 2 + 0.1
        for _ in range(200):
            z = HoroPoint(rng.uniform(-3, 3), (rng.uniform(-50, 50), rng.uniform(-50, 50)))
            for img in embed(p7, z).images:
                mid = tuple(float(c) for c in center(realize(p7, img)))
                assert hyp_distance(p7, z, HoroPoint(float(img.k), mid)) <= bound

    def test_vertical_lower_bound(self, p5):
        rng = random.Random(43)
        for _ in range(200):
            x = (rng.uniform(-300, 300),)
            k, kp = rng.randint(-4, 4), rng.randint(-4, 4)
            e1 = embed(p5, HoroPoint(float(k), x))
            e2 = embed(p5, HoroPoint(float(kp), x))
            per = per_color_distances(p5, e1, e2)
            bound = (abs(kp - k) + 1) / (p5.n + 1) - 1
            assert max(per) >= bound


class TestProductDistance:
    def test_identical(self, p5):
        e = embed(p5, HoroPoint(0.0, (0.5,)))
        assert product_distance(p5, e, e) == 0

    def test_norm_arithmetic(self, p5):
        # per-color distances (3, 4) via the eta0 chains of each color
        z = HoroPoint(0.0, (0.25,))
        e1 = embed(p5, z)
        e2 = EmbeddedPoint(
            images=(CubeId(0, 3, (0,)), CubeId(1, 4, (-1,))), source=z
        )
        assert per_color_distances(p5, e1, e2) == (3, 4)
        assert product_distance(p5, e1, e2, "l1") == 7
        assert product_distance(p5, e1, e2, "linf") == 4
        assert product_distance(p5, e1, e2, "l2") == 5.0

    def test_norm_ordering(self, p5):
        rng = random.Random(44)
        for _ in range(50):
            e1 = embed(p5, HoroPoint(rng.uniform(-3, 3), (rng.uniform(-50, 50),)))
            e2 = embed(p5, HoroPoint(rng.uniform(-3, 3), (rng.uniform(-50, 50),)))
            linf = product_distance(p5, e1, e2, "linf")
            l2 = product_distance(p5, e1, e2, "l2")
            l1 = product_distance(p5, e1, e2, "l1")
            assert linf <= l2 <= l1 <= (p5.n + 1) * linf

    def test_unknown_norm(self, p5):
        e = embed(p5, HoroPoint(0.0, (0.5,)))
        with pytest.raises(ValueError, match="norm"):
            product_distance(p5, e, e, "l3")

    def test_agrees_with_tree_distance(self, p5):
        e1 = embed(p5, HoroPoint(0.0, (0.3,)))
        e2 = embed(p5, HoroPoint(2.0, (7.9,)))
        expect = sum(
            tree_distance(p5, u, v) for u, v in zip(e1.images, e2.images)
        )
        assert product_distance(p5, e1, e2, "l1") == expect
