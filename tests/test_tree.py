import json
import re
from collections import deque
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from treebed import (
    ColorMismatch,
    CubeId,
    ScanExhausted,
    ancestor_chain,
    brute_force_edges,
    export_subtree,
    parent,
    realize,
    tree_distance,
    tree_path,
    validate_params,
)


def parent_oracle(P, cid, depth=8, bound=60):
    """Exhaustive containment scan over levels and lattice points."""
    box = realize(P, cid)
    for j in range(cid.k - 1, cid.k - 1 - depth, -1):
        for g in product(range(-bound, bound + 1), repeat=P.n):
            cand = CubeId(cid.c, j, g)
            if realize(P, cand).contains_box(box):
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
            assert realize(p7, got).contains_box(box)
            # no containing cube strictly between
            for j in range(got.k + 1, cid.k):
                for g1 in range(-15, 16):
                    for g2 in range(-15, 16):
                        assert not realize(p7, CubeId(cid.c, j, (g1, g2))).contains_box(box)

    def test_scan_cap(self, p5):
        with pytest.raises(ScanExhausted) as exc:
            parent(p5, CubeId(0, 1, (3,)), scan_cap=1)
        assert exc.value.k_reached == 0

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
            assert realize(p5, got).contains_box(box)
            for j in range(got.k + 1, cid.k):
                hit = locate(p5, cid.c, j, box.center)
                assert hit is None or not realize(p5, hit).contains_box(box)


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


def _oracle_walk(P, u, v, scan_cap, parents):
    """The meet loop, one parent_oracle hop at a time.

    Returns the u-v path, or the (tip, k_reached) payload of the first scan
    that would need more than scan_cap levels. A containing cube contains
    the tip's center, whose lattice point at every lower level lies within
    |gamma| + 2 of the origin, so that bound makes the oracle exhaustive.
    """
    left, right = [u], [v]
    while left[-1] != right[-1]:
        side = left if left[-1].k >= right[-1].k else right
        tip = side[-1]
        if tip not in parents:
            bound = max(abs(g) for g in tip.gamma) + 2
            parents[tip] = parent_oracle(P, tip, depth=64, bound=bound)
        up = parents[tip]
        if tip.k - up.k > scan_cap:
            return tip, tip.k - scan_cap
        side.append(up)
    return left + right[-2::-1]


_PARAMS = {np: validate_params(*np) for np in [(1, 5), (1, 6), (1, 8), (2, 7), (2, 8)]}
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
    parents = {}
    path = _oracle_walk(P, u, v, 64, parents)
    assert tree_path(P, u, v) == path
    assert tree_distance(P, u, v) == len(path) - 1
    for cap in (1, 2, 3):
        want = _oracle_walk(P, u, v, cap, parents)
        if isinstance(want, list):
            assert tree_distance(P, u, v, cap) == len(want) - 1
            continue
        for walk in (tree_distance, tree_path):
            with pytest.raises(ScanExhausted) as exc:
                walk(P, u, v, cap)
            assert (exc.value.cid, exc.value.k_reached) == want


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
            assert realize(P, b).contains_box(realize(P, a))
            assert parent_oracle(P, a) == b
        assert not realize(P, CubeId(1, 5, (-2,))).contains_box(realize(P, tip))
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
        es = brute_force_edges(p5, 0, 0, 1, 5)
        assert (CubeId(0, 0, (0,)), CubeId(0, 1, (0,))) in es.edges
        # (0,1,3) has no level-0 parent: its true parent is below the window
        assert not any(CubeId(0, 1, (3,)) in e for e in es.edges)

    def test_empty_window(self, p5):
        es = brute_force_edges(p5, 0, 2, 1, 5)
        assert es.vertices == () and es.edges == frozenset()

    def test_forest_count(self, p5):
        es = brute_force_edges(p5, 0, -2, 1, 5)
        parent_uf = {v: v for v in es.vertices}

        def find(v):
            while parent_uf[v] != v:
                parent_uf[v] = parent_uf[parent_uf[v]]
                v = parent_uf[v]
            return v

        for a, b in es.edges:
            ra, rb = find(a), find(b)
            assert ra != rb  # acyclic: no edge joins an existing component
            parent_uf[ra] = rb
        comps = {find(v) for v in es.vertices}
        assert len(es.edges) == len(es.vertices) - len(comps)

    def test_edges_match_parent(self, p5):
        es = brute_force_edges(p5, 0, -1, 2, 8)
        for a, b in es.edges:
            low, high = (a, b) if a.k < b.k else (b, a)
            assert parent(p5, high) == low

    def test_bfs_equals_tree_distance(self, p5):
        es = brute_force_edges(p5, 0, -1, 2, 8)
        adj = _adjacency(es.edges)
        for v in es.vertices:
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
