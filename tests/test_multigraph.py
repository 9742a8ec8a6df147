from __future__ import annotations

import random

import pytest

from yamada.laurent import LaurentPoly, exact_div, sigma
from yamada.chain import chain_polynomial, chain_via_flows
from yamada.multigraph import (
    ContractLoop,
    Multigraph,
    TooLarge,
    UnknownEdge,
    at_sigma_plus_one,
    bouquet_graph,
    components_betti,
    contract_edge,
    cycle_graph,
    delete_edge,
    flow_polynomial,
    graph_from_json,
    graph_to_json,
    make_graph,
    signed_flow,
    theta_graph,
    tree_graph,
    yamada_h,
    yamada_h_subset_sum,
)


def random_graph(rng: random.Random, max_v: int = 6, max_e: int = 10) -> Multigraph:
    nv = rng.randint(1, max_v)
    ne = rng.randint(0, max_e)
    edges = [(i, rng.randrange(nv), rng.randrange(nv)) for i in range(ne)]
    return make_graph(range(nv), edges)


def bridged_cycles(sizes, bridges_first: bool) -> Multigraph:
    """Cycles of the given sizes in a row, each joined to the next by a
    bridge; the bridges take the smallest edge ids or the largest."""
    cycle_edges, bridges, start = [], [], 0
    for m in sizes:
        if start:
            bridges.append((start - 1, start))
        cycle_edges += [(start + i, start + (i + 1) % m) for i in range(m)]
        start += m
    ordered = bridges + cycle_edges if bridges_first else cycle_edges + bridges
    return make_graph(range(start), [(i, u, v) for i, (u, v) in enumerate(ordered)])


def bridgeless_graph(rng: random.Random, max_v: int = 6, max_e: int = 10) -> Multigraph:
    """A random multigraph around a Hamiltonian cycle, hence bridgeless;
    the remaining edges are chords, parallels or loops."""
    nv = rng.randint(1, max_v)
    pairs = [(i, (i + 1) % nv) for i in range(nv)]
    pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, max_e - nv))]
    return make_graph(range(nv), [(i, u, v) for i, (u, v) in enumerate(pairs)])


def subdivided(g: Multigraph) -> Multigraph:
    """Every edge split in two by a new vertex: one vertex and one edge
    more per edge, so neither F nor the sign of H changes."""
    top = max(g.vertices, default=-1) + 1
    edges = []
    for j, (_, u, v) in enumerate(g.edges):
        edges += [(2 * j, u, top + j), (2 * j + 1, top + j, v)]
    return make_graph(list(g.vertices) + [top + j for j in range(len(g.edges))], edges)


def with_pendant(g: Multigraph, at: int, eid: int) -> Multigraph:
    """g with a new leaf hanging by edge eid from vertex at."""
    leaf = max(g.vertices) + 1
    return make_graph(list(g.vertices) + [leaf], list(g.edges) + [(eid, at, leaf)])


# every graph here has a bridge; where the bridges take the largest ids the
# recursion reaches them only through minors, and the last graph adds loops
# on both sides of the bridges; the pendant edges take the smallest id or
# the largest, on a cycle, a theta and a loop vertex
BRIDGED = [
    bridged_cycles(sizes, first)
    for sizes in ((3, 4), (2, 3, 4))
    for first in (True, False)
] + [
    make_graph(
        range(7),
        list(bridged_cycles((3, 4), False).edges) + [(8, 0, 0), (9, 6, 6)],
    ),
    with_pendant(make_graph(range(4), [(i + 1, i, (i + 1) % 4) for i in range(4)]), 2, 0),
    with_pendant(theta_graph(4), 0, 9),
    with_pendant(make_graph([0, 1], [(0, 0, 1), (1, 0, 1), (2, 1, 1)]), 1, 3),
    with_pendant(with_pendant(theta_graph(3), 1, 7), 0, 8),
]


def test_edit_operations():
    g = make_graph([1, 2], [(10, 1, 2), (11, 1, 2), (12, 1, 1)])
    d = delete_edge(g, 11)
    assert [e[0] for e in d.edges] == [10, 12]
    c = contract_edge(g, 10)
    assert c.vertices == (1,)
    assert all(u == v == 1 for _, u, v in c.edges)
    with pytest.raises(ContractLoop):
        contract_edge(g, 12)
    with pytest.raises(UnknownEdge):
        delete_edge(g, 99)


def test_components_betti():
    g = theta_graph(3)
    assert components_betti(g) == (1, 2)
    two = make_graph([0, 1, 2, 3], [(0, 0, 1), (1, 2, 3)])
    assert components_betti(two) == (2, 0)
    assert components_betti(make_graph([5], [])) == (1, 0)


def test_h_closed_forms():
    s = sigma()
    for n in range(1, 7):
        assert yamada_h(cycle_graph(n)) == s
    for q in range(1, 7):
        assert yamada_h(bouquet_graph(q)) == (-1) ** (q - 1) * s ** q
    for t in range(1, 7):
        assert yamada_h(theta_graph(t)) == exact_div(s + (-s) ** t, s + 1)
    for m in (1, 2, 3, 4, 5, 16):
        assert yamada_h(tree_graph(m)).is_zero()
    for g in BRIDGED:
        assert yamada_h(g).is_zero()
    assert yamada_h(make_graph([0], [])) == LaurentPoly.const(-1)


def test_h_respects_disjoint_and_one_point_unions():
    rng = random.Random(42)
    for _ in range(30):
        g1 = random_graph(rng, 3, 4)
        g2 = random_graph(rng, 3, 4)
        n1, n2 = len(g1.vertices), len(g2.vertices)
        shift_v = n1
        shift_e = len(g1.edges)
        # disjoint union multiplies
        union = make_graph(
            list(g1.vertices) + [v + shift_v for v in g2.vertices],
            list(g1.edges)
            + [(i + shift_e, u + shift_v, v + shift_v) for i, u, v in g2.edges],
        )
        assert yamada_h(union) == yamada_h(g1) * yamada_h(g2)
        # identifying one vertex of each flips the sign of the product
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
        assert yamada_h(glued) == -yamada_h(g1) * yamada_h(g2)


def test_h_deletion_contraction_identity_on_random_nonloops():
    rng = random.Random(4)
    done = 0
    while done < 40:
        g = random_graph(rng, 5, 8)
        non_loops = [e for e in g.edges if e[1] != e[2]]
        if not non_loops:
            continue
        eid = rng.choice(non_loops)[0]
        lhs = yamada_h(g)
        rhs = yamada_h(contract_edge(g, eid)) + yamada_h(delete_edge(g, eid))
        assert lhs == rhs
        done += 1


def test_h_loop_rule_on_random_loops():
    rng = random.Random(8)
    done = 0
    while done < 25:
        g = random_graph(rng, 4, 7)
        loops = [e for e in g.edges if e[1] == e[2]]
        if not loops:
            continue
        eid = loops[0][0]
        assert yamada_h(g) == -sigma() * yamada_h(delete_edge(g, eid))
        done += 1


def test_h_matches_subset_oracle_on_random_graphs():
    rng = random.Random(20240816)
    for g in BRIDGED + [random_graph(rng) for _ in range(120)]:
        assert yamada_h(g) == yamada_h_subset_sum(g)


def test_h_is_signed_flow_polynomial_at_sigma_plus_one():
    # H(G) = (-1)^(|V|+|E|) F_G(sigma + 1), checked by substituting
    # sigma + 1 into F term by term
    rng = random.Random(20240819)
    graphs = [
        make_graph([], []),
        make_graph([0, 1, 2], []),
        make_graph([0, 1, 2], [(0, 0, 0), (1, 2, 2)]),
        tree_graph(3),
        make_graph([0, 1, 2, 3], [(0, 0, 1), (1, 0, 1), (2, 1, 2), (3, 2, 2)]),
        *BRIDGED,
    ]
    for _ in range(220):
        graphs.append(random_graph(rng, 7, 10))
    bridgeless = [bridgeless_graph(rng, 7, 10) for _ in range(60)]
    graphs += bridgeless + [subdivided(g) for g in bridgeless]
    t = sigma() + 1
    for g in graphs:
        flow = flow_polynomial(g, max_edges=None)
        at_t = sum((c * t ** e for e, c in flow.items()), LaurentPoly.zero())
        sign = (-1) ** (len(g.vertices) + len(g.edges))
        assert yamada_h(g, max_edges=None) == sign * at_t
    # a subdivision adds a vertex of degree 2, which the recursion
    # contracts with no delete branch: F and H stay as they were
    for g in bridgeless:
        assert not yamada_h(g).is_zero()
        assert flow_polynomial(subdivided(g), max_edges=None) == flow_polynomial(g)
        assert yamada_h(subdivided(g), max_edges=None) == yamada_h(g)


def memo_entries(memo: dict) -> int:
    """The reduced graphs stored in a memo of signed_flow, over its
    engine memos (one per t)."""
    return sum(map(len, memo.values()))


def test_shared_memo_across_loops_and_isolated_vertices():
    # loops come off before the engine runs and t is sized on the loopless
    # core, so graphs that differ only in loops and isolated vertices share
    # entries, and sharing changes nothing
    rng = random.Random(12)
    memo: dict = {}
    cores = [random_graph(rng, 5, 8) for _ in range(40)]
    # cycles hanging on bridges, which reduce to zero with no branch, and
    # cores that branch
    cores += BRIDGED + [complete_graph(4), complete_graph(5)]
    for core in cores:
        edges = [e for e in core.edges if e[1] != e[2]]
        size = None
        for isolated in range(3):
            nv = len(core.vertices) + isolated
            for loops in range(3):
                ends = rng.choices(range(nv), k=loops)
                extra = [(100 + j, w, w) for j, w in enumerate(ends)]
                g = make_graph(range(nv), edges + extra)
                assert signed_flow(g, memo) == signed_flow(g, {})
                if size is None:
                    size = memo_entries(memo)
                assert memo_entries(memo) == size
    # some cores branched, so the memo was not idle
    assert memo_entries(memo) > 0


def test_guards_are_configurable():
    # a cycle reduces to nothing, K4 (3-regular and simple) not at all;
    # the subset sum's guard stays on the input's edge count
    g = cycle_graph(5)
    assert yamada_h(g, max_edges=0) == sigma()
    assert flow_polynomial(g, max_edges=0) == LaurentPoly({1: 1, 0: -1})
    with pytest.raises(TooLarge):
        yamada_h_subset_sum(g, max_edges=4)
    k4 = complete_graph(4)
    for route in (yamada_h, flow_polynomial):
        with pytest.raises(TooLarge):
            route(k4, max_edges=5)
        assert route(k4, max_edges=6) == route(k4, max_edges=None)
    assert yamada_h(k4, max_edges=6) == yamada_h_subset_sum(k4, max_edges=6)


def test_flow_polynomial_values():
    t_minus_1 = LaurentPoly({1: 1, 0: -1})
    for n in range(1, 6):
        assert flow_polynomial(cycle_graph(n)) == t_minus_1
    for q in range(1, 6):
        assert flow_polynomial(bouquet_graph(q)) == t_minus_1 ** q
    for m in (1, 2, 3, 4, 16):
        assert flow_polynomial(tree_graph(m)).is_zero()
    for g in BRIDGED:
        assert flow_polynomial(g).is_zero()
    # a tree gives 0 at its first leaf: nothing is left to branch on and
    # nothing is stored
    memo: dict = {}
    assert signed_flow(tree_graph(16), memo) == []
    assert memo_entries(memo) == 0
    assert flow_polynomial(tree_graph(16), max_edges=0).is_zero()
    assert flow_polynomial(make_graph([0], [])) == LaurentPoly.one()
    # theta_3 carries the flow polynomial (t-1)(t-2)
    expect = t_minus_1 * LaurentPoly({1: 1, 0: -2})
    assert flow_polynomial(theta_graph(3)) == expect
    # s parallel edges: ((t-1)^s + (-1)^s (t-1)) / t, merged into one edge
    # with no branch
    t = LaurentPoly({1: 1})
    for s in range(1, 9):
        want = exact_div(t_minus_1 ** s + (-1) ** s * t_minus_1, t)
        assert flow_polynomial(theta_graph(s), max_edges=0) == want


def complete_graph(n: int) -> Multigraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return make_graph(range(n), [(i, u, v) for i, (u, v) in enumerate(pairs)])


def random_parts(rng: random.Random, max_e: int = 12) -> Multigraph:
    """One to three parts side by side, each on 1-5 vertices, with at
    most max_e edges in all.  A part of 4 or 5 vertices is a complete
    graph half of the time, where the budget allows, so that something is
    left to branch on; then random edges, each between two random
    vertices of a random part, fill up to a random count: on so few
    vertices, loops and parallel edges are common."""
    sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    starts = [sum(sizes[:j]) for j in range(len(sizes))]
    pairs = []
    for j, n in enumerate(sizes):
        if n >= 4 and rng.random() < 0.5 and len(pairs) + n * (n - 1) // 2 <= max_e:
            pairs += [(starts[j] + u, starts[j] + v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(rng.randint(len(pairs), max_e) - len(pairs)):
        j = rng.randrange(len(sizes))
        pairs.append(tuple(starts[j] + rng.randrange(sizes[j]) for _ in range(2)))
    return make_graph(range(sum(sizes)), [(i, u, v) for i, (u, v) in enumerate(pairs)])


def shapes(g: Multigraph) -> set[str]:
    """Which of loops, parallel edges, split parts and a branching
    reduction g has."""
    out = set()
    ends = [frozenset(e[1:]) for e in g.edges]
    if any(len(x) == 1 for x in ends):
        out.add("loop")
    if len(set(ends)) < len(ends):
        out.add("parallel")
    mu, _ = components_betti(make_graph({w for _, u, v in g.edges for w in (u, v)}, g.edges))
    if mu > 1:
        out.add("split")
    try:
        flow_polynomial(g, max_edges=0)
    except TooLarge:
        out.add("branch")
    return out


def test_flow_engine_matches_the_subset_sum_on_random_multigraphs():
    # the subset sum shares no code with the series-parallel engine; one
    # memo is shared by all graphs
    rng = random.Random(41)
    memo: dict = {}
    seen = set()
    for _ in range(150):
        g = random_parts(rng)
        want = yamada_h_subset_sum(g)
        assert yamada_h(g, max_edges=None) == want, g
        assert at_sigma_plus_one(signed_flow(g, memo)) == want
        seen |= shapes(g)
    assert seen == {"loop", "parallel", "split", "branch"}


def test_chain_engine_matches_the_flow_expansion_on_random_multigraphs():
    # the same graphs, each edge under one of 3 labels
    rng = random.Random(41)
    for _ in range(60):
        g = random_parts(rng)
        labels = {eid: f"a{rng.randint(1, 3)}" for eid, _, _ in g.edges}
        assert chain_polynomial(g, labels) == chain_via_flows(g, labels), g


def test_flow_deletion_contraction_on_random_graphs():
    rng = random.Random(31)
    done = 0
    while done < 30:
        g = random_graph(rng, 5, 8)
        candidates = [e for e in g.edges if e[1] != e[2]]
        if not candidates:
            continue
        eid, u, v = rng.choice(candidates)
        # bridges zero the whole polynomial; otherwise contract minus delete
        lhs = flow_polynomial(g)
        rhs = flow_polynomial(contract_edge(g, eid)) - flow_polynomial(delete_edge(g, eid))
        assert lhs == rhs
        done += 1


def test_json_round_trip_is_canonical():
    g = make_graph([2, 1], [(11, 1, 2), (10, 2, 1), (12, 1, 1)])
    text = graph_to_json(g)
    again = graph_from_json(text)
    assert again == g
    assert graph_to_json(again) == text
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": [1], "edges": [[1, 1]]}')
    with pytest.raises(ValueError):
        graph_from_json('{"vertices": [1], "edges": [[1, 1, 5]]}')


@pytest.mark.parametrize(
    "edges",
    [[(0, 0, 1), (0, 1, 0)], [(0, 0, 2)]],
    ids=["duplicate-edge-id", "endpoint-outside"],
)
def test_make_graph_input_checks_raise(edges):
    with pytest.raises(ValueError):
        make_graph([0, 1], edges)
