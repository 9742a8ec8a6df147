"""Abstract multigraphs (loops and parallel edges allowed) and their
polynomial invariants: the integer flow polynomial F, the Yamada polynomial
H, and an independent subset-expansion route to H.

One memoized deletion-contraction computes F, as integer coefficients in
t, on the smallest edge id of each minor: zero if that edge is a bridge,
else contract minus delete, with no search for bridges elsewhere (they
cancel further down).  H is a specialisation of F:
H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), and sigma + 1 = A^-1 (1 + A)^2, so
H comes from F's coefficients by Horner steps that multiply by (1 + A)^2.
The subset expansion (yamada_h_subset_sum) does not use the recursion and
serves as its oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

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
    zero: 1 with no edges, a factor t - 1 per loop, else on the smallest
    edge id e, 0 if e is a bridge and contract minus delete otherwise.

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
            eid, u, v = min(core)
            rest = [e for e in core if e[0] != eid]
            uf = UnionFind(w for _, a, b in core for w in (a, b))
            for _, a, b in rest:
                uf.union(a, b)
            if uf.find(u) != uf.find(v):
                value = []
            else:
                keep, drop = min(u, v), max(u, v)
                merged = [
                    (i, keep if a == drop else a, keep if b == drop else b)
                    for i, a, b in rest
                ]
                value = [
                    c - d
                    for c, d in zip_longest(
                        _flow(merged, memo), _flow(rest, memo), fillvalue=0
                    )
                ]
                if not any(value):
                    value = []
            memo[key] = value
    for _ in range(len(edges) - len(core)):
        value = [b - a for a, b in zip(value + [0], [0] + value)]
    return value


def yamada_h(
    g: Multigraph, max_edges: int | None = 16, memo: dict | None = None
) -> LaurentPoly:
    """Yamada polynomial H of an abstract multigraph.

    H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), with F the flow polynomial: the
    deletion-contraction with the single-vertex graph valued at -1, loops
    contributing -sigma and an isthmus giving zero is the flow recursion
    up to that sign.  With sigma + 1 = A^-1 (1 + A)^2, the integer
    coefficients of F are turned into H by Horner steps that multiply by
    (1 + A)^2.  Exponential in the worst case; max_edges is the recursion
    guard (None disables it).  A memo dictionary may be passed in to share
    reached minors (keyed on their loopless core) across related calls.
    """
    if max_edges is not None and len(g.edges) > max_edges:
        raise TooLarge(f"{len(g.edges)} edges exceeds the guard {max_edges}")
    coeffs = _flow(list(g.edges), {} if memo is None else memo)
    if not coeffs:
        return LaurentPoly.zero()
    # A^d F(sigma + 1) = sum_i c_i (1 + A)^(2i) A^(d - i), dense in A
    d = len(coeffs) - 1
    acc = [coeffs[d]]
    for c in reversed(coeffs[:d]):
        acc = [
            x + 2 * y + z
            for x, y, z in zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc)
        ]
        acc[len(acc) // 2] += c
    sign = -1 if (len(g.vertices) + len(g.edges)) % 2 else 1
    return LaurentPoly({j - d: sign * c for j, c in enumerate(acc) if c})


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
    factor (t-1) per loop, else on the smallest edge id 0 if it is a bridge
    and contract minus delete otherwise (so any bridge gives 0).  The same
    recursion gives yamada_h, since H(G) = (-1)^(|V|+|E|) F_G(sigma + 1)."""
    if max_edges is not None and len(g.edges) > max_edges:
        raise TooLarge(f"{len(g.edges)} edges exceeds the guard {max_edges}")
    return LaurentPoly(dict(enumerate(_flow(list(g.edges), {}))))


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
