"""Lazy infinite color trees over the cube patterns.

Vertices are cube identities; the parent of a vertex is the unique cube at
the nearest lower level whose box contains it, and every edge joins a vertex
to its parent with unit length. Nothing is materialized: parents are
computed on demand.

The edge relation fixes the reading of "nearest": the parent sits at the
maximal level k' < k whose pattern contains the cube. Only this reading
makes the trees connected (chains of strictly decreasing levels exist below
every vertex because the expansion's fixed point is interior to a cube of
every color).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .core import Params
from .cubes import ColorMismatch, CubeId, ResourceLimit, _check_id, realize


def parent(P: Params, cid: CubeId) -> CubeId:
    """Unique vertex of maximal level k' < k whose cube contains cid's cube."""
    return ancestor_chain(P, cid, cid.k - 1)[1]


def ancestor_chain(P: Params, cid: CubeId, floor_level: int) -> list[CubeId]:
    """Chain cid, parent(cid), ... down to the first level <= floor_level.

    Level j-1 sees level j's lattice position u at (u + 1 - m_c)/p, so per
    axis g' = g + 1 - m_c puts cell g in cell q = g' // p one level down,
    and the cube has an ancestor there iff 1 <= g' - q*p <= p-2 on every
    axis.

    Every hop ends. The map g -> (g + 1 - m_c) // p has one fixed point g*:
    0 for c = 0, with digit 1, and -1 for c >= 1, with digit p - m_c, which
    lies in [2, p-2] as 2 <= m_c <= p-2 whenever p > 2(n+1). Both digits
    are interior, and the distance to g* shrinks by a factor p per level,
    so a hop from gamma scans at most (number of base-p digits of
    max_i |gamma_i - g*|) + 2 levels.
    """
    _check_id(P, cid)
    p, top, lift = P.p, P.p - 2, 1 - P.m[cid.c]
    chain = [cid]
    k, gamma = cid.k, cid.gamma
    while k > floor_level:
        while True:
            k -= 1
            cells, inside = [], True
            for g in gamma:
                g += lift
                q = g // p
                cells.append(q)
                if not 1 <= g - q * p <= top:
                    inside = False
            gamma = tuple(cells)
            if inside:
                break
        chain.append(CubeId(cid.c, k, gamma))
    return chain


def _meet(P: Params, u: CubeId, v: CubeId) -> tuple[int, int]:
    """The level where the walks from u and from v meet, and their hop total.

    Always advances the endpoint at the higher level by the inlined hop of
    ancestor_chain, counting hops and keeping no walked cube; on a tie either
    may go, as both must move. Neither walk can pass the meet: it lies on both chains and the walk only
    advances strictly above it. Both ids are checked before the walk, which
    would otherwise reach a lower endpoint's level before checking it.
    """
    if u.c != v.c:
        raise ColorMismatch(f"colors {u.c} vs {v.c}")
    _check_id(P, u)
    _check_id(P, v)
    p, top, lift = P.p, P.p - 2, 1 - P.m[u.c]
    ka, a, kb, b = u.k, list(u.gamma), v.k, list(v.gamma)
    hops = 0
    while ka != kb or a != b:
        if ka < kb:
            ka, a, kb, b = kb, b, ka, a
        while True:
            ka -= 1
            cells, inside = [], True
            for g in a:
                g += lift
                q = g // p
                cells.append(q)
                if not 1 <= g - q * p <= top:
                    inside = False
            a = cells
            if inside:
                break
        hops += 1
    return ka, hops


def tree_distance(P: Params, u: CubeId, v: CubeId) -> int:
    """Hop count of the unique path between u and v in their color tree."""
    return _meet(P, u, v)[1]


def tree_path(P: Params, u: CubeId, v: CubeId) -> list[CubeId]:
    """Vertex sequence of the unique u-v path (u and v included)."""
    k = _meet(P, u, v)[0]
    down = ancestor_chain(P, v, k)[-2::-1]
    return ancestor_chain(P, u, k) + down


def _steiner_span(
    P: Params, ids: Sequence[CubeId]
) -> tuple[list[CubeId], list[tuple[CubeId, CubeId]]]:
    """Nodes of the subtree spanned by ids, and its (parent, child) edges.

    The span is the union of every id's ancestor chain down to the meet of
    all ids, which is the lowest of ids[0]'s meets with the others. Nodes
    are sorted by (k, gamma); edges follow their child's node order.
    """
    floor_level = min(_meet(P, ids[0], v)[0] for v in ids)
    up: dict[CubeId, CubeId | None] = {}
    for cid in ids:
        chain = ancestor_chain(P, cid, floor_level)
        up.update(zip(chain, chain[1:]))
        up.setdefault(chain[-1], None)
    ordered = sorted(up, key=lambda v: (v.k, v.gamma, v.c))
    return ordered, [(up[v], v) for v in ordered if up[v] is not None]


def export_subtree(
    P: Params,
    ids: Iterable[CubeId],
    fmt: str = "dot",
) -> str:
    """Serialize the subtree spanned by ids (union of their pairwise paths).

    DOT nodes are named "c_k_g1[_g2...]" and carry the realized corners as
    decimal-string attributes; JSON keeps the corners as exact fraction
    strings. Edges all have unit weight.
    """
    id_list = list(ids)
    if not id_list:
        raise ValueError("no cube ids given")
    nodes, edges = _steiner_span(P, id_list)
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
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
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

    lines = [f"graph T{id_list[0].c} {{"]
    for v in nodes:
        b = boxes[v]
        lines.append(f'  "{name(v)}" [lo="{dec(b.lo)}", hi="{dec(b.hi)}"];')
    for a, b in edges:
        lines.append(f'  "{name(a)}" -- "{name(b)}" [weight=1];')
    lines.append("}")
    return "\n".join(lines) + "\n"
