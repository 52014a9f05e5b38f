import hashlib
import json
import re
import subprocess
import sys
from collections import deque
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from treebed import (
    ColorMismatch,
    CubeId,
    InvalidParams,
    ancestor_chain,
    export_subtree,
    parent,
    realize,
    tree_distance,
    tree_path,
    validate_params,
)
from treebed.tree import _meet

from reference import brute_force_edges, center, contains_box


def parent_oracle(P, cid, depth=8, bound=60):
    """Exhaustive containment scan over levels and lattice points."""
    box = realize(P, cid)
    for j in range(cid.k - 1, cid.k - 1 - depth, -1):
        for g in product(range(-bound, bound + 1), repeat=P.n):
            cand = CubeId(cid.c, j, g)
            if contains_box(realize(P, cand), box):
                return cand
    return None


class TestParent:
    @pytest.mark.parametrize(
        "cid,expected",
        [
            (CubeId(0, 1, (0,)), CubeId(0, 0, (0,))),
            (CubeId(0, 1, (3,)), CubeId(0, -1, (0,))),
            (CubeId(0, 0, (3,)), CubeId(0, -2, (0,))),
        ],
    )
    def test_frozen_examples(self, p5, cid, expected):
        assert parent(p5, cid) == expected
        assert parent_oracle(p5, cid) == expected

    @given(
        st.builds(
            CubeId,
            c=st.integers(0, 1),
            k=st.integers(-1, 3),
            gamma=st.tuples(st.integers(-25, 25)),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_oracle_agreement(self, cid):
        P = validate_params(1, 5)
        assert parent(P, cid) == parent_oracle(P, cid, depth=10, bound=160)

    def test_oracle_agreement_n2(self, p7):
        import random

        rng = random.Random(30)
        for _ in range(100):
            cid = CubeId(
                rng.randint(0, 2),
                rng.randint(-1, 2),
                (rng.randint(-10, 10), rng.randint(-10, 10)),
            )
            got = parent(p7, cid)
            box = realize(p7, cid)
            assert contains_box(realize(p7, got), box)
            # no containing cube strictly between
            for j in range(got.k + 1, cid.k):
                for g1 in range(-15, 16):
                    for g2 in range(-15, 16):
                        assert not contains_box(realize(p7, CubeId(cid.c, j, (g1, g2))), box)

    def test_level_strictly_decreases(self, p5):
        import random

        rng = random.Random(31)
        for _ in range(200):
            cid = CubeId(0, rng.randint(-2, 4), (rng.randint(-100, 100),))
            assert parent(p5, cid).k < cid.k

    def test_parent_uniqueness_thousand_vertices(self, p5):
        # greatest containing level, checked against locate: a containing
        # cube must contain the center, so locate(center) is exhaustive
        import random

        from treebed import locate

        rng = random.Random(33)
        for _ in range(1000):
            cid = CubeId(
                rng.randint(0, 1), rng.randint(-2, 4), (rng.randint(-500, 500),)
            )
            got = parent(p5, cid)
            box = realize(p5, cid)
            assert contains_box(realize(p5, got), box)
            for j in range(got.k + 1, cid.k):
                hit = locate(p5, cid.c, j, center(box))
                assert hit is None or not contains_box(realize(p5, hit), box)


class TestAncestorChain:
    def test_two_steps(self, p5):
        assert ancestor_chain(p5, CubeId(0, 1, (2,)), -1) == [
            CubeId(0, 1, (2,)),
            CubeId(0, 0, (0,)),
            CubeId(0, -1, (0,)),
        ]

    def test_already_at_floor(self, p5):
        assert ancestor_chain(p5, CubeId(0, 0, (0,)), 0) == [CubeId(0, 0, (0,))]

    def test_level_jump(self, p5):
        assert ancestor_chain(p5, CubeId(0, 1, (3,)), -1) == [
            CubeId(0, 1, (3,)),
            CubeId(0, -1, (0,)),
        ]

    def test_levels_strictly_decrease(self, p5):
        chain = ancestor_chain(p5, CubeId(1, 4, (555,)), -6)
        assert all(a.k > b.k for a, b in zip(chain, chain[1:]))
        # consecutive entries satisfy the parent relation
        assert all(parent(p5, a) == b for a, b in zip(chain, chain[1:]))


class TestTreeDistance:
    def test_identical(self, p5):
        assert tree_distance(p5, CubeId(0, 2, (7,)), CubeId(0, 2, (7,))) == 0

    def test_meet_two_levels_down(self, p5):
        assert tree_distance(p5, CubeId(0, 1, (2,)), CubeId(0, 1, (3,))) == 3

    def test_direct_edge(self, p5):
        assert tree_distance(p5, CubeId(0, 1, (0,)), CubeId(0, 0, (0,))) == 1

    def test_color_mismatch(self, p5):
        with pytest.raises(ColorMismatch):
            tree_distance(p5, CubeId(0, 0, (0,)), CubeId(1, 0, (0,)))

    def test_fractional_level_exits_promptly(self):
        # The two walks' levels would never become equal, so the walk must
        # refuse the id up front; a subprocess turns a hang into a failure.
        code = (
            "from treebed import CubeId, tree_distance, validate_params\n"
            "P = validate_params(1, 5)\n"
            "try:\n"
            "    tree_distance(P, CubeId(0, 1.5, (1,)), CubeId(0, 1, (1,)))\n"
            "except TypeError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], timeout=10)
        assert proc.returncode == 0

    def test_non_integer_lattice_point(self, p5):
        with pytest.raises(TypeError, match="integer"):
            tree_distance(p5, CubeId(0, 1, (1.5,)), CubeId(0, 1, (1,)))
        with pytest.raises(TypeError, match="integer"):
            parent(p5, CubeId(0, 1, (0.5,)))

    def test_bool_level_is_an_integer(self, p5):
        assert tree_distance(p5, CubeId(0, True, (1,)), CubeId(0, 1, (1,))) == 0

    def test_path_endpoints_and_length(self, p5):
        u, v = CubeId(0, 1, (2,)), CubeId(0, 1, (3,))
        path = tree_path(p5, u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == tree_distance(p5, u, v) + 1

    def test_no_interior_local_level_maximum(self, p5):
        import random

        rng = random.Random(32)
        for _ in range(100):
            u = CubeId(0, rng.randint(-1, 3), (rng.randint(-50, 50),))
            v = CubeId(0, rng.randint(-1, 3), (rng.randint(-50, 50),))
            path = tree_path(p5, u, v)
            for a, b, c in zip(path, path[1:], path[2:]):
                assert not (b.k > a.k and b.k > c.k)
            # unit level jumps at least 1 per edge
            for a, b in zip(path, path[1:]):
                assert abs(a.k - b.k) >= 1


def _oracle_walk(P, u, v):
    """The meet loop, one parent_oracle hop at a time, as the u-v path.

    A containing cube contains the tip's center, whose lattice point at
    every lower level lies within |gamma| + 2 of the origin, so that bound
    makes the oracle exhaustive.
    """
    left, right = [u], [v]
    while left[-1] != right[-1]:
        side = left if left[-1].k >= right[-1].k else right
        tip = side[-1]
        bound = max(abs(g) for g in tip.gamma) + 2
        side.append(parent_oracle(P, tip, depth=64, bound=bound))
    return left + right[-2::-1]


_PARAMS = {np: validate_params(*np) for np in [(1, 5), (1, 6), (1, 8), (2, 7), (2, 8)]}


def _accepted(n_max, p_max):
    for n, p in product(range(1, n_max + 1), range(2, p_max + 1)):
        try:
            yield validate_params(n, p)
        except InvalidParams:
            pass


_ACCEPTED = list(_accepted(3, 15))


def _digits(x, p):
    """Number of base-p digits of x >= 0 (none for 0)."""
    d = 0
    while x:
        x //= p
        d += 1
    return d


def _digit_bound(P, cid):
    """ancestor_chain's bound on the levels one hop from cid scans."""
    g_star = 0 if cid.c == 0 else -1
    return _digits(max(abs(g - g_star) for g in cid.gamma), P.p) + 2


_cube1 = st.builds(
    CubeId,
    c=st.integers(0, 1),
    k=st.integers(-3, 8),
    gamma=st.tuples(st.integers(-60, 60)),
)
_cube2 = st.builds(
    CubeId,
    c=st.integers(0, 2),
    k=st.integers(-2, 5),
    gamma=st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)


def _check_walk_against_oracle(P, u, v):
    v = CubeId(u.c, v.k, v.gamma)
    path = _oracle_walk(P, u, v)
    assert tree_path(P, u, v) == path
    assert tree_distance(P, u, v) == len(path) - 1


class TestAncestorKernel:
    def test_frozen_counterexample_p8(self):
        # The former counterexample at (1,8): with color 1 shifted by 1/2,
        # (1,5,(-2,)) contained (1,7,(-52,)) but not its parent (1,6,(-7,)).
        # Shifted by 3/7, the ancestors are exactly the containing cubes:
        # no level-5 cube contains the tip, and the chain nests.
        P = _PARAMS[1, 8]
        tip = CubeId(1, 7, (-52,))
        chain = ancestor_chain(P, tip, -3)
        assert [(a.k, a.gamma) for a in chain] == [(7, (-52,)), (6, (-7,))] + [
            (k, (-1,)) for k in range(4, -4, -1)
        ]
        for a, b in zip(chain, chain[1:]):
            assert contains_box(realize(P, b), realize(P, a))
            assert parent_oracle(P, a) == b
        assert not contains_box(realize(P, CubeId(1, 5, (-2,))), realize(P, tip))
        assert tree_distance(P, CubeId(1, -2, (5,)), tip) == 12

    @given(st.sampled_from([5, 6, 8]), _cube1, _cube1)
    @example(8, CubeId(1, -2, (5,)), CubeId(1, 7, (-52,)))
    @settings(max_examples=120, deadline=None)
    def test_walk_matches_parent_oracle(self, p, u, v):
        _check_walk_against_oracle(_PARAMS[1, p], u, v)

    @given(st.sampled_from([7, 8]), _cube2, _cube2)
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_parent_oracle_n2(self, p, u, v):
        _check_walk_against_oracle(_PARAMS[2, p], u, v)

    @pytest.mark.parametrize("P", _ACCEPTED, ids=lambda P: f"n{P.n}p{P.p}")
    def test_fixed_point_unique_and_interior(self, P):
        # A fixed point g of g -> (g + 1 - m_c) // p has (p-1)g in
        # (-m_c - (p-1), 1 - m_c], so |g| < 2 and the range is exhaustive.
        for c in P.colors:
            lift = 1 - P.m[c]
            fixed = [g for g in range(-P.p, P.p + 1) if (g + lift) // P.p == g]
            assert fixed == [0 if c == 0 else -1]
            assert 1 <= (fixed[0] + lift) % P.p <= P.p - 2

    @given(st.sampled_from(_ACCEPTED), st.data())
    @settings(max_examples=300, deadline=None)
    def test_hop_ends_within_digit_bound(self, P, data):
        c = data.draw(st.integers(0, P.n))
        k = data.draw(st.integers(-5, 5))
        gamma = data.draw(st.tuples(*[st.integers(-10**40, 10**40)] * P.n))
        cid = CubeId(c, k, gamma)
        assert k - parent(P, cid).k <= _digit_bound(P, cid)

    @pytest.mark.parametrize("P", _ACCEPTED, ids=lambda P: f"n{P.n}p{P.p}")
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_meet_is_first_common_ancestor(self, P, data):
        # Walks of up to about 140 levels: levels -60..60 and |gamma| up to
        # p^16, drawn apart, equal, or shaped like tree-walk queries (v is u
        # scaled down by p^d, plus up to p^4).
        c = data.draw(st.integers(0, P.n))
        level = st.integers(-60, 60)
        axis = st.integers(-P.p**16, P.p**16)
        u = CubeId(c, data.draw(level), data.draw(st.tuples(*[axis] * P.n)))
        shape = data.draw(st.sampled_from(["apart", "equal", "tree-walk"]))
        if shape == "apart":
            v = CubeId(c, data.draw(level), data.draw(st.tuples(*[axis] * P.n)))
        elif shape == "equal":
            v = CubeId(c, u.k, u.gamma)
        else:
            d = data.draw(st.integers(0, 4))
            near = st.integers(-P.p**4, P.p**4)
            v = CubeId(c, u.k - d, tuple(g // P.p**d + data.draw(near) for g in u.gamma))
        # Below the digit bound both chains sit on the fixed point, so the
        # chains down to it share at least their last cube.
        floor_level = min(u.k, v.k) - max(_digit_bound(P, u), _digit_bound(P, v))
        left = ancestor_chain(P, u, floor_level)
        right = ancestor_chain(P, v, floor_level)
        index = {w: j for j, w in enumerate(right)}
        i = next(i for i, w in enumerate(left) if w in index)
        j = index[left[i]]
        assert _meet(P, u, v) == (left[i].k, i + j)
        assert tree_distance(P, u, v) == i + j
        assert tree_path(P, u, v) == left[: i + 1] + right[:j][::-1]


def _adjacency(edges):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _bfs(adj, src):
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


class TestBruteForceEdges:
    def test_window_0_1(self, p5):
        _, edges = brute_force_edges(p5, 0, 0, 1, 5)
        assert (CubeId(0, 0, (0,)), CubeId(0, 1, (0,))) in edges
        # (0,1,3) has no level-0 parent: its true parent is below the window
        assert not any(CubeId(0, 1, (3,)) in e for e in edges)

    def test_empty_window(self, p5):
        vertices, edges = brute_force_edges(p5, 0, 2, 1, 5)
        assert vertices == () and edges == frozenset()

    def test_forest_count(self, p5):
        vertices, edges = brute_force_edges(p5, 0, -2, 1, 5)
        parent_uf = {v: v for v in vertices}

        def find(v):
            while parent_uf[v] != v:
                parent_uf[v] = parent_uf[parent_uf[v]]
                v = parent_uf[v]
            return v

        for a, b in edges:
            ra, rb = find(a), find(b)
            assert ra != rb  # acyclic: no edge joins an existing component
            parent_uf[ra] = rb
        comps = {find(v) for v in vertices}
        assert len(edges) == len(vertices) - len(comps)

    def test_edges_match_parent(self, p5):
        _, edges = brute_force_edges(p5, 0, -1, 2, 8)
        for a, b in edges:
            low, high = (a, b) if a.k < b.k else (b, a)
            assert parent(p5, high) == low

    def test_bfs_equals_tree_distance(self, p5):
        vertices, edges = brute_force_edges(p5, 0, -1, 2, 8)
        adj = _adjacency(edges)
        for v in vertices:
            dist = _bfs(adj, v)
            for w, d in dist.items():
                if w.key() > v.key():
                    assert tree_distance(p5, v, w) == d


class TestExportSubtree:
    def test_single_node(self, p5):
        doc = json.loads(export_subtree(p5, [CubeId(0, 1, (2,))], fmt="json"))
        assert len(doc["nodes"]) == 1 and doc["edges"] == []

    def test_distance3_path(self, p5):
        doc = json.loads(
            export_subtree(p5, [CubeId(0, 1, (2,)), CubeId(0, 1, (3,))], fmt="json")
        )
        assert len(doc["nodes"]) == 4
        assert len(doc["edges"]) == 3
        node0 = next(n for n in doc["nodes"] if n["k"] == 1 and n["gamma"] == [2])
        assert node0["lo"] == ["16/25"] and node0["hi"] == ["19/25"]

    def test_dot_well_formed(self, p5):
        dot = export_subtree(p5, [CubeId(0, 1, (2,)), CubeId(0, 1, (3,))], fmt="dot")
        assert dot.startswith("graph T0 {") and dot.rstrip().endswith("}")
        nodes = re.findall(r'^\s+"([0-9_\-]+)" \[lo="[^"]+", hi="[^"]+"\];$', dot, re.M)
        edges = re.findall(r'^\s+"([0-9_\-]+)" -- "([0-9_\-]+)" \[weight=1\];$', dot, re.M)
        assert len(nodes) == 4 and len(edges) == 3
        for a, b in edges:  # edges only reference declared nodes
            assert a in nodes and b in nodes

    def test_color_mismatch(self, p5):
        with pytest.raises(ColorMismatch):
            export_subtree(p5, [CubeId(0, 0, (0,)), CubeId(1, 0, (0,))])

    @given(st.sampled_from([(1, 5), (2, 7)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_span_is_the_union_of_pairwise_paths(self, np_, data):
        P = _PARAMS[np_]
        c = data.draw(st.integers(0, P.n))
        axis = st.integers(-P.p**4, P.p**4)
        cube = st.builds(
            lambda k, g: CubeId(c, k, g), st.integers(-2, 8), st.tuples(*[axis] * P.n)
        )
        ids = data.draw(st.lists(cube, min_size=1, max_size=40))
        vertices = set(ids)
        for u, v in combinations(ids, 2):
            vertices.update(tree_path(P, u, v))
        nodes = sorted(vertices, key=lambda v: (v.k, v.gamma))
        index = {v: i for i, v in enumerate(nodes)}
        edges = [
            [index[parent(P, v)], i] for i, v in enumerate(nodes) if parent(P, v) in index
        ]
        doc = json.loads(export_subtree(P, ids, fmt="json"))
        assert [(v["k"], tuple(v["gamma"])) for v in doc["nodes"]] == [
            (v.k, v.gamma) for v in nodes
        ]
        assert doc["edges"] == edges

    # SHA-256 of the spans of several ids, both formats, which pin the union
    # of the pairwise tree_path vertex sequences and the parent edges.
    @pytest.mark.parametrize(
        "n,p,ids,fmt,digest",
        [
            (1, 5, ["0,1,2", "0,1,3", "0,4,300", "0,-2,1"], "dot",
             "4987bf23ee489be1f9e6183f3ed14318c603d20395ede76232213a351cdb5841"),
            (1, 5, ["0,1,2", "0,1,3", "0,4,300", "0,-2,1"], "json",
             "da30c32b404fe7d4f058f38902c3fff03f15b0abc7b101d750e6449f3f7698c7"),
            (2, 7, ["1,3,10,20", "1,2,1,3", "1,-1,0,0"], "dot",
             "eb6a4ddc4a56e5153552f5adea6475b4bdf02f3c0476a80d9a2f31b83c409a4a"),
            (2, 7, ["1,3,10,20", "1,2,1,3", "1,-1,0,0"], "json",
             "ed4aed924409d5cba2766f138960857cf9cfbc99e8ce14029f983d638eb9220c"),
        ],
    )
    def test_golden_spans(self, n, p, ids, fmt, digest):
        cubes = []
        for text in ids:
            c, k, *gamma = map(int, text.split(","))
            cubes.append(CubeId(c, k, tuple(gamma)))
        out = export_subtree(validate_params(n, p), cubes, fmt=fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
