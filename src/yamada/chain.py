"""Chain polynomial of edge-labelled multigraphs.

The chain polynomial lives in Z[w, labels].  Two routes are provided:
chain_polynomial, on the series-parallel engine that also gives the flow
polynomial (multigraph.series_parallel: loops, pendant, parallel and
series edges reduced first, then deletion-contraction with a memo on what
is left, its edge guard counting only those edges), and an expansion over
edge subsets weighted by flow polynomials evaluated at 1 - w, kept as its
oracle.  The edge replacement theorem reads its terms
(replace.h_edge_replace), with the denominators cleared.
"""

from __future__ import annotations

import json
from operator import add
from typing import Mapping

from .errors import YamadaError
from .multigraph import (
    Multigraph,
    TooLarge,
    flow_polynomial,
    graph_from_dict,
    graph_to_dict,
    make_graph,
    series_parallel,
)


class MissingAssignment(YamadaError):
    pass


class MultiPoly:
    """Integer polynomial in a fixed tuple of variables, stored sparsely as
    {exponent vector: coefficient}."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], int] | None = None):
        self.vars = vars
        data: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    data[exps] = data.get(exps, 0) + c
                    if not data[exps]:
                        del data[exps]
        self.terms = data

    @classmethod
    def const(cls, vars: tuple[str, ...], c: int) -> MultiPoly:
        zero = tuple(0 for _ in vars)
        return cls(vars, {zero: c} if c else {})

    @classmethod
    def var(cls, vars: tuple[str, ...], name: str) -> MultiPoly:
        exps = tuple(1 if v == name else 0 for v in vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        return cls(vars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _check(self, other: MultiPoly):
        if self.vars != other.vars:
            raise ValueError("mixed variable universes")

    def __add__(self, other) -> MultiPoly:
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            c = out.get(e, 0) + c
            if c:
                out[e] = c
            elif e in out:
                del out[e]
        r = MultiPoly.__new__(MultiPoly)
        r.vars, r.terms = self.vars, out
        return r

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        r = MultiPoly.__new__(MultiPoly)
        r.vars = self.vars
        r.terms = {e: -c for e, c in self.terms.items()}
        return r

    def __sub__(self, other) -> MultiPoly:
        if isinstance(other, int):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other) -> MultiPoly:
        if isinstance(other, int):
            r = MultiPoly.__new__(MultiPoly)
            r.vars = self.vars
            r.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return r
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        r = MultiPoly.__new__(MultiPoly)
        r.vars, r.terms = self.vars, out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("MultiPoly powers must be nonnegative integers")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def to_text(self) -> str:
        if not self.terms:
            return "0"

        def key(item):
            exps, _ = item
            return (sum(exps), exps)

        parts: list[str] = []
        for exps, c in sorted(self.terms.items(), key=key, reverse=True):
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            else:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_text()!r})"


Labeling = Mapping[int, str]


def chain_variables(labels: Labeling) -> tuple[str, ...]:
    """The variable universe: w, then the distinct labels in sorted order.
    A label named w would be the same variable as w, so it is refused."""
    names = set(labels.values())
    if "w" in names:
        raise ValueError("label 'w' collides with the chain variable w")
    return ("w",) + tuple(sorted(names))


def chain_polynomial(g: Multigraph, labels: Labeling, max_edges: int | None = 16) -> MultiPoly:
    """Chain polynomial by multigraph.series_parallel: an edge labelled a
    carries the pair (a - 1, 1), so Ch(G) = (a - 1) Ch(G - e) + Ch(G/e)
    on a non-loop edge, and t = 1 - w.  So a loop labelled a gives the
    factor a - w and a bridge at a vertex of degree 1 the factor a;
    parallel and series edges merge into one edge before anything
    branches, and cycles, thetas and bouquets take no branch at all.
    max_edges is the guard on the edges left after that reduction (None
    disables it).

    The pairs follow from the flow expansion (chain_via_flows): expanding
    each F(G - Y; 1 - w) over edge subsets gives Ch(G) = sum over S of
    t^n(S) prod_(e not in S) (a_e - 1), n(S) the nullity of S."""
    missing = [eid for eid, _, _ in g.edges if eid not in labels]
    if missing:
        raise MissingAssignment(f"edges without labels: {missing}")
    vars = chain_variables(labels)
    one = MultiPoly.const(vars, 1)
    d = {lab: MultiPoly.var(vars, lab) - 1 for lab in set(labels.values())}
    edges = [(u, v, d[labels[eid]], 1) for eid, u, v in g.edges]
    return one * series_parallel(edges, one - MultiPoly.var(vars, "w"), {}, max_edges)


def chain_via_flows(g: Multigraph, labels: Labeling, max_edges: int | None = 12) -> MultiPoly:
    """Oracle route: sum over edge subsets Y of the flow polynomial of G - Y
    evaluated at t = 1 - w, times the product of the labels of Y."""
    q = len(g.edges)
    if max_edges is not None and q > max_edges:
        raise TooLarge(f"{q} edges exceeds the guard {max_edges}")
    missing = [eid for eid, _, _ in g.edges if eid not in labels]
    if missing:
        raise MissingAssignment(f"edges without labels: {missing}")
    vars = chain_variables(labels)
    one_minus_w = MultiPoly.const(vars, 1) - MultiPoly.var(vars, "w")
    total = MultiPoly.const(vars, 0)
    for mask in range(1 << q):
        kept = [e for i, e in enumerate(g.edges) if not mask >> i & 1]
        dropped = [e for i, e in enumerate(g.edges) if mask >> i & 1]
        flow = flow_polynomial(
            Multigraph(g.vertices, tuple(kept)), max_edges=None
        )
        # compose the univariate flow polynomial with t = 1 - w
        value = MultiPoly.const(vars, 0)
        for exp, coeff in flow.terms.items():
            value = value + coeff * one_minus_w ** exp
        for eid, _, _ in dropped:
            value = value * MultiPoly.var(vars, labels[eid])
        total = total + value
    return total


def labelled_from_dict(d: dict) -> tuple[Multigraph, dict[int, str]]:
    g = graph_from_dict(d)
    raw = d.get("labels", {})
    labels = {int(k): str(v) for k, v in raw.items()}
    return g, labels


def labelled_to_dict(g: Multigraph, labels: Labeling) -> dict:
    d = graph_to_dict(g)
    d["labels"] = {str(k): labels[k] for k in sorted(labels)}
    return d


def labelled_from_json(text: str) -> tuple[Multigraph, dict[int, str]]:
    return labelled_from_dict(json.loads(text))


def labelled_cycle(n: int) -> tuple[Multigraph, dict[int, str]]:
    g = make_graph(range(n), [(i, i, (i + 1) % n) for i in range(n)])
    labels = {i: f"a{i + 1}" for i in range(n)}
    return g, labels


def labelled_theta(s: int) -> tuple[Multigraph, dict[int, str]]:
    g = make_graph([0, 1], [(i, 0, 1) for i in range(s)])
    labels = {i: f"a{i + 1}" for i in range(s)}
    return g, labels


def labelled_bouquet(q: int) -> tuple[Multigraph, dict[int, str]]:
    g = make_graph([0], [(i, 0, 0) for i in range(q)])
    labels = {i: f"a{i + 1}" for i in range(q)}
    return g, labels
