"""Lazy infinite color trees over the cube patterns.

Vertices are cube identities; the parent of a vertex is the unique cube at
the nearest lower level whose box contains it, and every edge joins a vertex
to its parent with unit length. Nothing is materialized: parents are
computed on demand, and a windowed brute-force edge enumeration doubles as
the oracle for the lazy traversals.

The edge relation fixes the reading of "nearest": the parent sits at the
maximal level k' < k whose pattern contains the cube. Only this reading
makes the trees connected (chains of strictly decreasing levels exist below
every vertex because the expansion's fixed point is interior to a cube of
every color).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .core import Params, RationalBox
from .cubes import ColorMismatch, CubeId, ResourceLimit, _check_id
from .cubes import axis_frame, realize


class ScanExhausted(RuntimeError):
    """Parent scan hit its level cap before finding a containing cube."""

    def __init__(self, cid: CubeId, k_reached: int, context: str | None = None):
        msg = (
            f"no containing cube for {cid} down to level {k_reached}; "
            "raise scan_cap"
        )
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.cid = cid
        self.k_reached = k_reached
        self.context = context


def _ancestors(P: Params, cid: CubeId, scan_cap: int) -> Iterator[tuple]:
    """Same-color ancestors of cid as (k, gamma) pairs, nearest first.

    cid must have passed _check_id. Level j-1 sees level j's lattice
    position u at (u + 1 - m_c)/p, so per axis q, r = divmod(g + 1 - m_c, p)
    puts cell g in cell q one level down, and the cube has an ancestor there
    iff 1 <= r <= p-2 on every axis. A hop tries at most scan_cap levels.
    """
    if scan_cap < 1:
        raise ValueError("scan_cap must be positive")
    F = axis_frame(P.n, P.p)
    p, top, lift = F.p, F.p - 2, 1 - F.m[cid.c]
    k, tip = cid.k, cid.gamma
    while True:
        gamma, j = tip, k
        while True:
            j -= 1
            cells, inside = [], True
            for g in gamma:
                q, r = divmod(g + lift, p)
                cells.append(q)
                if not 1 <= r <= top:
                    inside = False
            gamma = tuple(cells)
            if inside:
                break
            if j == k - scan_cap:
                raise ScanExhausted(CubeId(cid.c, k, tip), j)
        k, tip = j, gamma
        yield k, tip


def parent(P: Params, cid: CubeId, scan_cap: int = 64) -> CubeId:
    """Unique vertex of maximal level k' < k whose cube contains cid's cube.

    Scans levels k-1, k-2, ... with O(1) exact work per level. A containing
    cube always exists at some finite depth; scan_cap only guards the loop.
    """
    _check_id(P, cid)
    return CubeId(cid.c, *next(_ancestors(P, cid, scan_cap)))


def ancestor_chain(
    P: Params, cid: CubeId, floor_level: int, scan_cap: int = 64
) -> list[CubeId]:
    """Chain cid, parent(cid), ... down to the first level <= floor_level."""
    _check_id(P, cid)
    chain = [cid]
    up = _ancestors(P, cid, scan_cap)
    while chain[-1].k > floor_level:
        chain.append(CubeId(cid.c, *next(up)))
    return chain


def _meet(P: Params, u: CubeId, v: CubeId, scan_cap: int) -> tuple[list, list]:
    """The (k, gamma) walks from u and from v, both ending where they meet.

    Always advances the endpoint at the higher level (u on a tie). Neither
    walk can pass the meet: it lies on both chains and the walk only
    advances strictly above it. Both ids are checked before the walk, which
    would otherwise reach a lower endpoint's level before checking it.
    """
    if u.c != v.c:
        raise ColorMismatch(f"colors {u.c} vs {v.c}")
    _check_id(P, u)
    _check_id(P, v)
    F = axis_frame(P.n, P.p)
    p, top, lift = F.p, F.p - 2, 1 - F.m[u.c]
    a, b = (u.k, u.gamma), (v.k, v.gamma)
    left, right = [a], [b]
    if scan_cap < 1 and a != b:
        raise ValueError("scan_cap must be positive")
    while a != b:
        up_u = a[0] >= b[0]
        k, tip = a if up_u else b
        gamma, j = tip, k
        while True:
            j -= 1
            cells, inside = [], True
            for g in gamma:
                q, r = divmod(g + lift, p)
                cells.append(q)
                if not 1 <= r <= top:
                    inside = False
            gamma = tuple(cells)
            if inside:
                break
            if j == k - scan_cap:
                raise ScanExhausted(CubeId(u.c, k, tip), j)
        if up_u:
            left.append(a := (j, gamma))
        else:
            right.append(b := (j, gamma))
    return left, right


def tree_distance(P: Params, u: CubeId, v: CubeId, scan_cap: int = 64) -> int:
    """Hop count of the unique path between u and v in their color tree."""
    left, right = _meet(P, u, v, scan_cap)
    return len(left) + len(right) - 2


def tree_path(P: Params, u: CubeId, v: CubeId, scan_cap: int = 64) -> list[CubeId]:
    """Vertex sequence of the unique u-v path (u and v included)."""
    left, right = _meet(P, u, v, scan_cap)
    return [CubeId(u.c, k, gamma) for k, gamma in left + right[-2::-1]]


@dataclass(frozen=True)
class EdgeSet:
    """Brute-force edge enumeration over a finite window of one color tree."""

    color: int
    k_min: int
    k_max: int
    gamma_bound: int
    vertices: tuple[CubeId, ...]
    edges: frozenset[tuple[CubeId, CubeId]]


def _level_contains_box(
    P: Params, c: int, j: int, box: RationalBox, gamma_range: range
) -> bool:
    """Does any level-j cube with per-axis gamma in range contain box?

    Pure enumeration per axis (the pattern is an axis product), used by the
    oracle instead of the candidate arithmetic of the lazy parent.
    """
    slabs = [axis_frame(P.n, P.p).slab(c, j, g) for g in gamma_range]
    for lo, hi in zip(box.lo, box.hi):
        if not any(slo <= lo and hi <= shi for slo, shi in slabs):
            return False
    return True


def brute_force_edges(
    P: Params,
    c: int,
    k_min: int,
    k_max: int,
    gamma_bound: int,
    vertex_budget: int = 200_000,
) -> EdgeSet:
    """Direct transcription of the edge definition over a finite window.

    Vertices are all cubes of color c with level in [k_min, k_max] and
    |gamma_i| <= gamma_bound. A pair (v at k, v' at k' < k) is an edge iff
    v' contains v and no level strictly between them contains v; the
    intermediate scan enumerates lattice points two beyond the window bound,
    which is exhaustive because a containing cube must contain v's center.
    Test oracle only; quadratic in the window size.
    """
    if k_min > k_max:
        return EdgeSet(c, k_min, k_max, gamma_bound, (), frozenset())
    levels = list(range(k_min, k_max + 1))
    per_level = (2 * gamma_bound + 1) ** P.n
    if per_level * len(levels) > vertex_budget:
        raise ResourceLimit(
            f"window holds {per_level * len(levels)} vertices; "
            f"budget is {vertex_budget}"
        )
    axis = range(-gamma_bound, gamma_bound + 1)
    verts = [
        CubeId(c, k, g) for k in levels for g in product(axis, repeat=P.n)
    ]
    boxes = {v: realize(P, v) for v in verts}
    by_level = {k: [v for v in verts if v.k == k] for k in levels}
    scan = range(-gamma_bound - 2, gamma_bound + 3)
    edges = set()
    for k in levels:
        for kp in levels:
            if kp >= k:
                continue
            for v in by_level[k]:
                bv = boxes[v]
                for vp in by_level[kp]:
                    if not boxes[vp].contains_box(bv):
                        continue
                    if any(
                        _level_contains_box(P, c, j, bv, scan)
                        for j in range(kp + 1, k)
                    ):
                        continue
                    edges.add((vp, v))
    return EdgeSet(c, k_min, k_max, gamma_bound, tuple(verts), frozenset(edges))


def _steiner_span(
    P: Params, ids: Sequence[CubeId], scan_cap: int
) -> tuple[list[CubeId], list[tuple[CubeId, CubeId]]]:
    vertices: set[CubeId] = set(ids)
    for u, v in combinations(ids, 2):
        vertices.update(tree_path(P, u, v, scan_cap))
    ordered = sorted(vertices, key=lambda v: (v.k, v.gamma, v.c))
    edges = []
    members = set(ordered)
    for v in ordered:
        pv = parent(P, v, scan_cap)
        if pv in members:
            edges.append((pv, v))
    return ordered, edges


def export_subtree(
    P: Params,
    ids: Iterable[CubeId],
    fmt: str = "dot",
    scan_cap: int = 64,
) -> str:
    """Serialize the subtree spanned by ids (union of their pairwise paths).

    DOT nodes are named "c_k_g1[_g2...]" and carry the realized corners as
    decimal-string attributes; JSON keeps the corners as exact fraction
    strings. Edges all have unit weight.
    """
    id_list = list(ids)
    if not id_list:
        raise ValueError("no cube ids given")
    color = id_list[0].c
    for cid in id_list:
        _check_id(P, cid)
        if cid.c != color:
            raise ColorMismatch(f"colors {color} vs {cid.c}")
    nodes, edges = _steiner_span(P, id_list, scan_cap)
    boxes = {v: realize(P, v) for v in nodes}
    if fmt.lower() == "json":
        index = {v: i for i, v in enumerate(nodes)}
        doc = {
            "nodes": [
                {
                    "c": v.c,
                    "k": v.k,
                    "gamma": list(v.gamma),
                    "lo": [str(c) for c in boxes[v].lo],
                    "hi": [str(c) for c in boxes[v].hi],
                }
                for v in nodes
            ],
            "edges": [[index[a], index[b]] for a, b in edges],
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt.lower() != "dot":
        raise ValueError(f"unknown format {fmt!r}; expected 'dot' or 'json'")

    def name(v: CubeId) -> str:
        return "_".join([str(v.c), str(v.k)] + [str(g) for g in v.gamma])

    def dec(vals: tuple[Fraction, ...]) -> str:
        try:
            return ",".join(repr(float(c)) for c in vals)
        except OverflowError as exc:
            raise ResourceLimit(
                "a corner is beyond the double range; use the JSON format"
            ) from exc

    lines = [f"graph T{color} {{"]
    for v in nodes:
        b = boxes[v]
        lines.append(f'  "{name(v)}" [lo="{dec(b.lo)}", hi="{dec(b.hi)}"];')
    for a, b in edges:
        lines.append(f'  "{name(a)}" -- "{name(b)}" [weight=1];')
    lines.append("}")
    return "\n".join(lines) + "\n"
