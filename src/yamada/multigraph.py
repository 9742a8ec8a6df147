"""Abstract multigraphs (loops and parallel edges allowed) and their
polynomial invariants: the integer flow polynomial F, the Yamada polynomial
H, and an independent subset-expansion route to H.

One series-parallel engine (series_parallel) computes both F and the
chain polynomial of chain.py: every edge carries a pair (d, c) with
Ch(G) = d Ch(G - e) + c Ch(G/e), loops, pendant edges, parallel edges and
series edges are reduced first, and deletion-contraction, memoised on the
reduced graph, runs only on what is left.  The edge guards of
flow_polynomial, yamada_h and chain.chain_polynomial count those edges
left after the reduction, where the exponential work is.  F is the pair
(-1, 1), run on Python ints at t = 2^B and read back slot by slot.
H is a specialisation of F: H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), and
sigma + 1 = A^-1 (1 + A)^2.  signed_flow gives the integer coefficients
of the signed F and at_sigma_plus_one applies the substitution by Horner
steps that multiply by (1 + A)^2, so a sum of H values (the state sum of
diagram.yamada_r) adds integer lists and converts once.  The subset
expansion (yamada_h_subset_sum) does not use the engine and serves as
its oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import YamadaError
from .laurent import LaurentPoly, sigma, signed_slots, slot_width


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


def series_parallel(edges: Iterable[tuple], t, memo: dict, max_edges: int | None = None):
    """Ch(G) = sum over edge sets S of t^n(S) prod_(e in S) c_e
    prod_(e not in S) d_e, n(S) the nullity of S, for edges (u, v, d, c):
    the multivariate Tutte polynomial in the form that keeps
    Ch(G) = d Ch(G - e) + c Ch(G/e) on a non-loop edge e (Sokal, Surveys
    in Combinatorics 2005).  The values need only + and *, so the same
    engine serves the chain polynomial on MultiPoly and the flow
    polynomial, the pair (-1, 1), on ints at t = 2^B.

    Rules, taken until none applies (_reduce): a loop is the factor
    d + c t, an edge at a vertex of degree 1 the factor d + c, parallel
    edges merge into (d1 d2, d1 c2 + c1 (d2 + c2 t)), and two edges at a
    vertex of degree 2 into ((d1 + c1)(d2 + c2) - c1 c2, c1 c2).  What is
    left, a simple graph of minimum degree 3, is expanded by
    deletion-contraction (_expand) on an edge at a vertex of least
    degree, each minor reduced again, memoised on the reduced graph in
    memo (whose values must share t).  max_edges is the guard on the
    edges left after the first reduction, where the exponential work is
    (None disables it)."""
    adj: dict = {}
    factor = 1
    for u, v, d, c in edges:
        if u == v:
            factor = factor * (d + c * t)
        else:
            _join(adj, u, v, (d, c), t)
    factor = factor * _reduce(adj, list(adj), t)
    if not factor:
        return factor
    left = sum(map(len, adj.values())) // 2
    if max_edges is not None and left > max_edges:
        raise TooLarge(f"{left} edges after reduction exceeds the guard {max_edges}")
    return factor * _expand(adj, t, memo) if adj else factor


def _join(adj: dict, u, v, pair: tuple, t):
    """Add the edge u-v with pair to adj, merged with a parallel one."""
    at_u, at_v = adj.setdefault(u, {}), adj.setdefault(v, {})
    old = at_u.get(v)
    if old is not None:
        (d1, c1), (d2, c2) = old, pair
        pair = d1 * d2, d1 * c2 + c1 * (d2 + c2 * t)
    at_u[v] = at_v[u] = pair


def _reduce(adj: dict, work: list, t):
    """Take the vertices of degree at most 2 off adj, starting from those
    in work, by the pendant and series rules; returns the product of the
    pendant factors, 0 as soon as one is."""
    factor = 1
    while work:
        x = work.pop()
        nb = adj.get(x)
        if nb is None or len(nb) > 2:
            continue
        del adj[x]
        if len(nb) == 1:
            ((y, (d, c)),) = nb.items()
            del adj[y][x]
            factor = factor * (d + c)
            if not factor:
                return 0
            work.append(y)
        elif nb:
            (y, (d1, c1)), (z, (d2, c2)) = nb.items()
            del adj[y][x], adj[z][x]
            _join(adj, y, z, ((d1 + c1) * (d2 + c2) - c1 * c2, c1 * c2), t)
            work += y, z
    return factor


def _expand(adj: dict, t, memo: dict):
    """Ch of a reduced adj (not empty) by deletion-contraction on the
    edge from a vertex u of least degree to its neighbour v of least
    degree (the smaller id first in ties), each minor reduced."""
    key = tuple(sorted((u, v, p) for u, nb in adj.items() for v, p in nb.items() if u < v))
    value = memo.get(key)
    if value is not None:
        return value
    u = min(adj, key=lambda x: (len(adj[x]), x))
    v = min(adj[u], key=lambda x: (len(adj[x]), x))
    d, c = adj[u][v]
    # G - e: u and v lose a neighbour
    minor = {w: dict(nb) for w, nb in adj.items()}
    del minor[u][v], minor[v][u]
    f = _reduce(minor, [u, v], t)
    value = d * f * _expand(minor, t, memo) if f and minor else d * f
    # G/e: v's other edges move to u
    minor = {w: dict(nb) for w, nb in adj.items()}
    moved = minor.pop(v)
    del moved[u], minor[u][v]
    for w, p in moved.items():
        del minor[w][v]
        _join(minor, u, w, p, t)
    f = _reduce(minor, [u, *moved], t)
    value = value + (c * f * _expand(minor, t, memo) if f and minor else c * f)
    memo[key] = value
    return value


def signed_flow(g: Multigraph, memo: dict | None = None) -> list[int]:
    """(-1)^(|V|+|E|) F_G as ascending integer coefficients in t, [] for
    zero: the integer part of H(G) = (-1)^(|V|+|E|) F_G(sigma + 1).  A memo
    dictionary may be passed in to share reached minors across related
    calls; graphs that differ only in loops and isolated vertices share
    its entries."""
    return _signed_flow(g, {} if memo is None else memo, None)


def _signed_flow(g: Multigraph, memo: dict, max_edges: int | None) -> list[int]:
    """signed_flow with the guard of series_parallel.  F of the loopless
    core runs on ints at t = 2^B, B whole bytes: F is a sum of 2^|core|
    monomials of coefficient -1 or 1, so slot_width(2^|core|) bytes hold
    every coefficient, and one read back by laurent.signed_slots gives
    them.  Each loop then multiplies the list by t - 1, and memo holds one
    engine memo per t."""
    core = [(u, v, -1, 1) for _, u, v in g.edges if u != v]
    width = slot_width(1 << len(core))
    t = 1 << 8 * width
    packed = series_parallel(core, t, memo.setdefault(t, {}), max_edges)
    coeffs = signed_slots(packed, width, len(core) + 1)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if coeffs:
        for _ in range(len(g.edges) - len(core)):
            coeffs = [b - a for a, b in zip(coeffs + [0], [0] + coeffs)]
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
    Exponential in the worst case; max_edges is the guard on the edges
    left after the series-parallel reduction (None disables it).  Related
    calls share reached minors through the memo of signed_flow.
    """
    return at_sigma_plus_one(_signed_flow(g, {}, max_edges))


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
    """Integer flow polynomial F_G in the variable t, by series_parallel
    with the pair (-1, 1): 1 on edgeless graphs, a factor t - 1 per loop
    and 0 on a bridge.  max_edges is the guard on the edges left after
    the reduction (None disables it).  The same engine gives yamada_h,
    since H(G) = (-1)^(|V|+|E|) F_G(sigma + 1)."""
    sign = -1 if (len(g.vertices) + len(g.edges)) % 2 else 1
    return LaurentPoly({i: sign * c for i, c in enumerate(_signed_flow(g, {}, max_edges))})


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
