"""Abstract multigraphs (loops and parallel edges allowed) and their
polynomial invariants: the integer flow polynomial F, the Yamada polynomial
H, and an independent subset-expansion route to H.

One memoized recursion computes F, as integer coefficients in t, on the
loopless core of each minor (loops come off as factors t - 1).  A vertex
of degree 1 sits on a bridge, so F = 0.  A vertex of degree 2 on edges e
and f gives F(G) = F(G/e) with no delete branch, since G - e has the
bridge f; every such series edge is contracted in one pass.  Otherwise the
smallest edge id decides: zero if it is a bridge, else contract minus
delete, taken at once over its whole class of parallel edges, with no
search for bridges elsewhere (they cancel further down).
H is a specialisation of F: H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), and
sigma + 1 = A^-1 (1 + A)^2.  signed_flow gives the integer coefficients
of the signed F and at_sigma_plus_one applies the substitution by Horner
steps that multiply by (1 + A)^2, so a sum of H values (the state sum of
diagram.yamada_r) adds integer lists and converts once.  The subset
expansion (yamada_h_subset_sum) does not use the recursion and serves as
its oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from .errors import YamadaError
from .laurent import LaurentPoly, sigma


class UnknownEdge(YamadaError):
    pass


class ContractLoop(YamadaError):
    pass


class TooLarge(YamadaError):
    pass


Edge = tuple[int, int, int]  # (edge id, endpoint, endpoint)


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def find_edge(self, eid: int) -> Edge:
        for e in self.edges:
            if e[0] == eid:
                return e
        raise UnknownEdge(f"no edge with id {eid}")


class UnionFind:
    """Disjoint sets of ids (vertices, sites or half-edges), with path
    halving."""

    def __init__(self, items: Iterable[int]):
        self.parent = {h: h for h in items}

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def components(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for h in self.parent:
            out.setdefault(self.find(h), []).append(h)
        return out


def make_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int, int]]) -> Multigraph:
    vs = tuple(sorted(set(vertices)))
    vset = set(vs)
    es = []
    seen = set()
    for eid, u, v in edges:
        if eid in seen:
            raise ValueError(f"duplicate edge id {eid}")
        seen.add(eid)
        if u not in vset or v not in vset:
            raise ValueError(f"edge {eid} has endpoint outside the vertex set")
        es.append((eid, u, v))
    es.sort()
    return Multigraph(vs, tuple(es))


def delete_edge(g: Multigraph, eid: int) -> Multigraph:
    g.find_edge(eid)
    return Multigraph(g.vertices, tuple(e for e in g.edges if e[0] != eid))


def contract_edge(g: Multigraph, eid: int) -> Multigraph:
    _, u, v = g.find_edge(eid)
    if u == v:
        raise ContractLoop(f"edge {eid} is a loop")
    keep, drop = min(u, v), max(u, v)

    def moved(w: int) -> int:
        return keep if w == drop else w

    edges = tuple(
        (i, moved(a), moved(b)) for i, a, b in g.edges if i != eid
    )
    vertices = tuple(w for w in g.vertices if w != drop)
    return Multigraph(vertices, edges)


def components_betti(g: Multigraph) -> tuple[int, int]:
    """(number of connected components, first Betti number q - p + mu)."""
    uf = UnionFind(g.vertices)
    for _, u, v in g.edges:
        uf.union(u, v)
    mu = len(uf.components())
    beta = len(g.edges) - len(g.vertices) + mu
    return mu, beta


def _flow(edges: list[Edge], memo: dict) -> list[int]:
    """Ascending integer coefficients in t of the flow polynomial, [] for
    zero.  Loops come off first, a factor t - 1 each; then, on the
    loopless core, a vertex of degree 1 sits on a bridge and gives 0, a
    vertex of degree 2 on edges e and f gives F(G) = F(G/e) (deleting e
    would leave f a bridge; _series_contract takes every such edge at
    once), and otherwise the smallest edge id e gives 0 if it is a bridge
    and contract minus delete if not, unrolled over the class P of e and
    the edges parallel to it, k = |P|: F(G) = S_k F(G/P) + (-1)^k F(G - P)
    with S_k = ((t - 1)^k - (-1)^k) / t, two minors where edge by edge
    there would be k + 1.

    Contract minus delete holds for every non-loop edge, so a bridge
    elsewhere needs no search: it survives in both minors, which then
    cancel."""
    core = [e for e in edges if e[1] != e[2]]
    if not core:
        value = [1]
    else:
        # delete and contract commute, so the recursion revisits the same
        # minor along many branch orders; cache on the loopless core
        key = tuple(core)
        value = memo.get(key)
        if value is None:
            value = _flow_core(core, memo)
            memo[key] = value
    if value:
        for _ in range(len(edges) - len(core)):
            value = [b - a for a, b in zip(value + [0], [0] + value)]
    return value


def _flow_core(core: list[Edge], memo: dict) -> list[int]:
    """One step of _flow on a loopless core that missed the memo."""
    degree: dict[int, int] = {}
    for _, a, b in core:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    low = min(degree.values())
    if low == 1:
        return []
    if low == 2:
        return _flow(_series_contract(core, degree), memo)
    eid, u, v = min(core)
    # the class P of e and its parallel edges: with k = |P|, contracting
    # e leaves k - 1 loops and deleting it leaves k - 1 parallel edges, so
    # F(G) = (t - 1)^(k-1) F(G/P) - F(G - e), unrolled down to
    # F(G) = S_k F(G/P) + (-1)^k F(G - P), S_k = ((t - 1)^k - (-1)^k) / t
    parallel = {i for i, a, b in core if (a, b) == (u, v) or (b, a) == (u, v)}
    k = len(parallel)
    if k == 1 and is_bridge(core, eid, u, v):
        return []
    keep, drop = min(u, v), max(u, v)
    rest = [e for e in core if e[0] not in parallel]
    merged = [
        (i, keep if a == drop else a, keep if b == drop else b)
        for i, a, b in rest
    ]
    sign = -1 if k % 2 else 1
    value = [sign * c for c in _flow(rest, memo)]
    s_k = [comb(k, i) * (-1) ** (k - i) for i in range(1, k + 1)]
    for i, c in enumerate(_flow(merged, memo)):
        if len(value) < i + k:
            value.extend([0] * (i + k - len(value)))
        for j, x in enumerate(s_k):
            value[i + j] += c * x
    while value and not value[-1]:
        value.pop()
    return value


def is_bridge(edges: Sequence[Edge], eid: int, u: int, v: int) -> bool:
    """Whether the edge eid, with ends u != v, is a bridge of the graph
    on the given edges: grow u's side over the other edges until it
    reaches v or stops growing."""
    side = {u}
    grown = True
    while grown and v not in side:
        grown = False
        for i, a, b in edges:
            if (a in side) != (b in side) and i != eid:
                side.add(a)
                side.add(b)
                grown = True
    return v not in side


def _series_contract(core: list[Edge], degree: dict[int, int]) -> list[Edge]:
    """G/S for a set S of series edges.  Walking the edges in order, a
    vertex of degree 2 that has not merged yet merges its class into the
    class at the other end, and that edge leaves.  Such a vertex roots a
    class of degree-2 vertices only, a class of degree 2, so each merge
    contracts an edge with an end of degree 2, where F(G) = F(G/e).  An
    edge inside one class stays, as a loop."""
    into: dict[int, int] = {}

    def find(x: int) -> int:
        while x in into:
            x = into[x]
        return x

    gone = set()
    for e in core:
        for w, x in ((e[1], e[2]), (e[2], e[1])):
            if degree[w] == 2 and w not in into:
                rw, rx = find(w), find(x)
                if rw != rx:
                    into[rw] = rx
                    gone.add(e[0])
    return [(i, find(a), find(b)) for i, a, b in core if i not in gone]


def signed_flow(g: Multigraph, memo: dict | None = None) -> list[int]:
    """(-1)^(|V|+|E|) F_G as ascending integer coefficients in t, [] for
    zero: the integer part of H(G) = (-1)^(|V|+|E|) F_G(sigma + 1).  A memo
    dictionary may be passed in to share reached minors (keyed on their
    loopless core) across related calls."""
    coeffs = _flow(list(g.edges), {} if memo is None else memo)
    if (len(g.vertices) + len(g.edges)) % 2:
        return [-c for c in coeffs]
    return coeffs


def at_sigma_plus_one(coeffs: list[int]) -> LaurentPoly:
    """The polynomial with ascending integer coefficients coeffs in t, at
    t = sigma + 1 = A^-1 (1 + A)^2: Horner steps that multiply by
    (1 + A)^2, then one shift."""
    if not coeffs:
        return LaurentPoly.zero()
    # A^d p(sigma + 1) = sum_i c_i (1 + A)^(2i) A^(d - i), dense in A
    d = len(coeffs) - 1
    acc = [coeffs[d]]
    for c in reversed(coeffs[:d]):
        acc = [
            x + 2 * y + z
            for x, y, z in zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc)
        ]
        acc[len(acc) // 2] += c
    return LaurentPoly({j - d: c for j, c in enumerate(acc) if c})


def yamada_h(g: Multigraph, max_edges: int | None = 16) -> LaurentPoly:
    """Yamada polynomial H of an abstract multigraph.

    H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), with F the flow polynomial: the
    deletion-contraction with the single-vertex graph valued at -1, loops
    contributing -sigma and an isthmus giving zero is the flow recursion
    up to that sign.  signed_flow gives the integer coefficients of the
    signed F and at_sigma_plus_one turns them into H; a state sum adds the
    signed F of its states first and converts once per weight.
    Exponential in the worst case; max_edges is the recursion guard (None
    disables it).  Related calls share reached minors through the memo of
    signed_flow.
    """
    if max_edges is not None and len(g.edges) > max_edges:
        raise TooLarge(f"{len(g.edges)} edges exceeds the guard {max_edges}")
    return at_sigma_plus_one(signed_flow(g))


def yamada_h_subset_sum(g: Multigraph, max_edges: int | None = 14) -> LaurentPoly:
    """Independent route to H: expand over all edge subsets F, weighting
    G - F by (-1)^(mu+beta) (sigma+1)^beta.  Exponential by construction;
    used as an oracle against yamada_h.
    """
    q = len(g.edges)
    if max_edges is not None and q > max_edges:
        raise TooLarge(f"{q} edges exceeds the guard {max_edges}")
    sig1 = sigma() + 1
    powers = [LaurentPoly.one()]
    for _ in range(q):
        powers.append(powers[-1] * sig1)
    vs = list(g.vertices)
    vindex = {v: i for i, v in enumerate(vs)}
    p = len(vs)
    total = LaurentPoly.zero()
    for mask in range(1 << q):
        parent = list(range(p))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        kept = 0
        for i, (_, u, v) in enumerate(g.edges):
            if mask >> i & 1:
                continue
            kept += 1
            ru, rv = find(vindex[u]), find(vindex[v])
            if ru != rv:
                parent[ru] = rv
        mu = sum(1 for i in range(p) if find(i) == i)
        beta = kept - p + mu
        term = powers[beta] if (mu + beta) % 2 == 0 else -powers[beta]
        total = total + term
    return total


def flow_polynomial(g: Multigraph, max_edges: int | None = 16) -> LaurentPoly:
    """Integer flow polynomial F_G in the variable t: 1 on edgeless graphs,
    factor (t-1) per loop, series edges contracted, else on the smallest
    edge id 0 if it is a bridge and contract minus delete otherwise, over
    its whole parallel class at once (so any bridge gives 0).  The same recursion gives yamada_h, since
    H(G) = (-1)^(|V|+|E|) F_G(sigma + 1)."""
    if max_edges is not None and len(g.edges) > max_edges:
        raise TooLarge(f"{len(g.edges)} edges exceeds the guard {max_edges}")
    return LaurentPoly(dict(enumerate(_flow(list(g.edges), {}))))


def check_id_types(what: str, ids: Iterable) -> None:
    """Raise ValueError if an id is unhashable or ids mix types: they are
    kept in sets, sorted and compared, so they must be all integers or all
    strings, for instance."""
    first: dict[type, object] = {}
    for x in ids:
        try:
            hash(x)
        except TypeError:
            raise ValueError(f"{what} id {x!r} is unhashable") from None
        first.setdefault(type(x), x)
    if len(first) > 1:
        named = " and ".join(f"{x!r} ({t.__name__})" for t, x in first.items())
        raise ValueError(f"{what} ids mix types: {named}")


def graph_to_dict(g: Multigraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }


def graph_from_dict(d: dict) -> Multigraph:
    try:
        vertices = d["vertices"]
        edges = [tuple(e) for e in d["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph object: {exc}") from exc
    for e in edges:
        if len(e) != 3:
            raise ValueError(f"edge entries must be [id, u, v], got {list(e)}")
    check_id_types("vertex", list(vertices) + [x for e in edges for x in e[1:]])
    check_id_types("edge", (e[0] for e in edges))
    return make_graph(vertices, edges)


def graph_to_json(g: Multigraph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True)


def graph_from_json(text: str) -> Multigraph:
    return graph_from_dict(json.loads(text))


def cycle_graph(n: int) -> Multigraph:
    if n < 1:
        raise ValueError("cycle needs at least one edge")
    return make_graph(range(n), [(i, i, (i + 1) % n) for i in range(n)])


def bouquet_graph(q: int) -> Multigraph:
    return make_graph([0], [(i, 0, 0) for i in range(q)])


def theta_graph(s: int) -> Multigraph:
    if s < 1:
        raise ValueError("theta needs at least one strand")
    return make_graph([0, 1], [(i, 0, 1) for i in range(s)])


def tree_graph(edges: int) -> Multigraph:
    return make_graph(range(edges + 1), [(i, i, i + 1) for i in range(edges)])
