from __future__ import annotations

import random

import pytest

from yamada.chain import (
    MissingAssignment,
    MultiPoly,
    chain_polynomial,
    chain_variables,
    chain_via_flows,
    labelled_bouquet,
    labelled_cycle,
    labelled_from_json,
    labelled_theta,
    labelled_to_dict,
)
from yamada.multigraph import TooLarge, make_graph


def random_labelled(rng: random.Random, max_v: int = 4, max_e: int = 7):
    nv = rng.randint(1, max_v)
    ne = rng.randint(0, max_e)
    g = make_graph(
        range(nv), [(i, rng.randrange(nv), rng.randrange(nv)) for i in range(ne)]
    )
    labels = {eid: f"a{rng.randint(1, 3)}" for eid, _, _ in g.edges}
    return g, labels


def _vars_and_w(labels):
    vars = chain_variables(labels)
    return vars, MultiPoly.var(vars, "w")


def test_chain_cycle_closed_form():
    for n in range(1, 6):
        g, labels = labelled_cycle(n)
        vars, w = _vars_and_w(labels)
        prod = MultiPoly.const(vars, 1)
        for i in range(1, n + 1):
            prod = prod * MultiPoly.var(vars, f"a{i}")
        assert chain_polynomial(g, labels) == prod - w


def test_chain_bouquet_closed_form():
    for q in range(1, 6):
        g, labels = labelled_bouquet(q)
        vars, w = _vars_and_w(labels)
        prod = MultiPoly.const(vars, 1)
        for i in range(1, q + 1):
            prod = prod * (MultiPoly.var(vars, f"a{i}") - w)
        assert chain_polynomial(g, labels, max_edges=0) == prod


def test_chain_theta_closed_form():
    # (1 - w) Ch(theta_s) = prod(a_i - w) - w prod(a_i - 1)
    for s in range(1, 5):
        g, labels = labelled_theta(s)
        vars, w = _vars_and_w(labels)
        one = MultiPoly.const(vars, 1)
        prod_w = one
        prod_1 = one
        for i in range(1, s + 1):
            a = MultiPoly.var(vars, f"a{i}")
            prod_w = prod_w * (a - w)
            prod_1 = prod_1 * (a - one)
        assert (one - w) * chain_polynomial(g, labels) == prod_w - w * prod_1


def test_chain_edgeless_is_one():
    g = make_graph([0, 1, 2], [])
    assert chain_polynomial(g, {}) == MultiPoly.const(("w",), 1)


def test_chain_agrees_with_flow_expansion():
    rng = random.Random(20240816)
    for _ in range(60):
        g, labels = random_labelled(rng)
        assert chain_polynomial(g, labels) == chain_via_flows(g, labels)


def test_chain_one_point_union_multiplicativity_finding():
    # The chain polynomial multiplies over one-point unions on every instance
    # tried here; violations would be reported, not failed.
    rng = random.Random(5)
    violations = []
    for _ in range(25):
        g1, l1 = random_labelled(rng, 3, 4)
        g2, l2 = random_labelled(rng, 3, 4)
        shift_v = len(g1.vertices)
        shift_e = len(g1.edges)
        glued_edges = list(g1.edges) + [
            (
                i + shift_e,
                g1.vertices[0] if u == g2.vertices[0] else u + shift_v,
                g1.vertices[0] if v == g2.vertices[0] else v + shift_v,
            )
            for i, u, v in g2.edges
        ]
        glued_vertices = list(g1.vertices) + [
            v + shift_v for v in g2.vertices if v != g2.vertices[0]
        ]
        glued = make_graph(glued_vertices, glued_edges)
        labels = dict(l1)
        labels.update({i + shift_e: l2[i] for i in l2})
        vars = chain_variables(labels)
        lhs = chain_polynomial(glued, labels)

        def lift(p: MultiPoly) -> MultiPoly:
            out = MultiPoly.const(vars, 0)
            for exps, c in p.terms.items():
                mono = MultiPoly.const(vars, c)
                for name, e in zip(p.vars, exps):
                    if e:
                        mono = mono * MultiPoly.var(vars, name) ** e
                out = out + mono
            return out

        rhs = lift(chain_polynomial(g1, l1)) * lift(chain_polynomial(g2, l2))
        if lhs != rhs:
            violations.append((g1, g2))
    if violations:
        print(f"finding: chain one-point union multiplicativity violated "
              f"on {len(violations)} of 25 instances")
    else:
        print("finding: chain one-point union multiplicativity held on all instances")


def test_chain_missing_labels():
    g, labels = labelled_cycle(3)
    del labels[1]
    with pytest.raises(MissingAssignment, match=r"edges without labels: \[1\]"):
        chain_polynomial(g, labels)
    with pytest.raises(MissingAssignment, match=r"edges without labels: \[1\]"):
        chain_via_flows(g, labels)


def test_label_named_w_is_refused():
    # a label w would merge with the chain variable w and give a wrong value
    g = make_graph([0, 1], [(0, 0, 1), (1, 0, 1)])
    labels = {0: "w", 1: "b"}
    for route in (chain_polynomial, chain_via_flows):
        with pytest.raises(ValueError, match="label 'w'"):
            route(g, labels)
    with pytest.raises(ValueError, match="label 'w'"):
        chain_variables(labels)


def test_chain_guard():
    # chain_polynomial's guard counts the edges left after the reduction:
    # all 6 of K4, none of a cycle; chain_via_flows' counts the input's
    k4 = make_graph(range(4), [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 1, 2), (4, 1, 3), (5, 2, 3)])
    labels = {i: f"a{i % 3 + 1}" for i in range(6)}
    with pytest.raises(TooLarge):
        chain_polynomial(k4, labels, max_edges=5)
    assert chain_polynomial(k4, labels, max_edges=6) == chain_via_flows(k4, labels)
    g, labels = labelled_cycle(5)
    chain_polynomial(g, labels, max_edges=0)
    with pytest.raises(TooLarge):
        chain_via_flows(g, labels, max_edges=3)


def test_labelled_json_round_trip():
    g, labels = labelled_theta(3)
    d = labelled_to_dict(g, labels)
    assert d["labels"] == {"0": "a1", "1": "a2", "2": "a3"}
    import json

    g2, labels2 = labelled_from_json(json.dumps(d))
    assert g2 == g and labels2 == labels


def _with_labels(rng: random.Random, vertices, edges):
    g = make_graph(vertices, [(i, u, v) for i, (u, v) in enumerate(edges)])
    return g, {eid: f"a{rng.randint(1, 3)}" for eid, _, _ in g.edges}


def bridged_graphs():
    """Graphs with bridges, each bridge placed first in the edge order in
    some cases and later in others: trees, barbells, pendant paths and a
    bridge between two loops."""
    rng = random.Random(20241019)
    for n in range(1, 8):
        # a path, then a random tree on n + 1 vertices
        yield _with_labels(rng, range(n + 1), [(i, i + 1) for i in range(n)])
        yield _with_labels(
            rng, range(n + 1), [(rng.randrange(i), i) for i in range(1, n + 1)]
        )
    triangle = [(0, 1), (1, 2), (2, 0)]
    for length in (1, 2, 3):
        # two triangles joined by a path of `length` bridges, the path
        # edges first, last or in the middle of the edge order
        far = [(a + 2 + length, b + 2 + length) for a, b in triangle]
        path = [(2 + i, 3 + i) for i in range(length)]
        vertices = range(6 + length)
        yield _with_labels(rng, vertices, path + triangle + far)
        yield _with_labels(rng, vertices, triangle + far + path)
        yield _with_labels(rng, vertices, triangle + path + far)
    for cycle in (1, 2, 3, 4):
        for tail in (1, 2, 3):
            # an m-cycle with a pendant path of `tail` edges
            ring = [(i, (i + 1) % cycle) for i in range(cycle)]
            pendant = [(cycle - 1 + i, cycle + i) for i in range(tail)]
            yield _with_labels(rng, range(cycle + tail), pendant + ring)
            yield _with_labels(rng, range(cycle + tail), ring + pendant)
    for loops in ((1, 1), (2, 1), (2, 2)):
        # a bridge between two vertices that carry loops
        edges = [(0, 1)] + [(0, 0)] * loops[0] + [(1, 1)] * loops[1]
        yield _with_labels(rng, [0, 1], edges)
        yield _with_labels(rng, [0, 1], edges[1:] + edges[:1])


def test_chain_bridge_rule_agrees_with_flow_expansion():
    count = 0
    for g, labels in bridged_graphs():
        assert chain_polynomial(g, labels) == chain_via_flows(g, labels), (
            g, labels,
        )
        count += 1
    assert count >= 50


def test_chain_cycles_and_thetas_take_no_branch():
    # series and parallel edges merge into one edge, which then comes off
    # as a factor: with a guard of 0 edges left after the reduction, the
    # closed forms hold up to 16 edges (thetas under 3 labels, so that
    # their value stays small)
    for m in range(1, 17):
        g, labels = labelled_cycle(m)
        vars, w = _vars_and_w(labels)
        prod = MultiPoly.const(vars, 1)
        for i in range(1, m + 1):
            prod = prod * MultiPoly.var(vars, f"a{i}")
        assert chain_polynomial(g, labels, max_edges=0) == prod - w
        g, _ = labelled_theta(m)
        labels = {i: f"a{i % 3 + 1}" for i in range(m)}
        vars, w = _vars_and_w(labels)
        one = MultiPoly.const(vars, 1)
        prod_w, prod_1 = one, one
        for i in range(m):
            a = MultiPoly.var(vars, labels[i])
            prod_w = prod_w * (a - w)
            prod_1 = prod_1 * (a - one)
        got = chain_polynomial(g, labels, max_edges=0)
        assert (one - w) * got == prod_w - w * prod_1
