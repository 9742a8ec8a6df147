"""Composition formulas, twist closed forms, and the family builder."""

import itertools
import random

import pytest

from yamada.laurent import (
    LaurentPoly,
    NonExactDivision,
    exact_div,
    sigma,
    variable,
)
from yamada.multigraph import (
    TooLarge,
    cycle_graph,
    make_graph,
    theta_graph,
    yamada_h,
)
from yamada.diagram import build_twist, close_piece, validate, yamada_r
from yamada.replace import (
    ArityMismatch,
    BetaZero,
    DegreeCap,
    PieceInvariants,
    build_family_diagram,
    family_lambdas,
    family_polynomial,
    h_edge_replace,
    infinity_closed_form,
    r_compose,
    twist_scale,
    two_vertex_h,
)

A = variable()
S = sigma()


def theta_piece(s):
    """Bundle of s plain strands as a piece: open it is the theta graph,
    closed it is the bouquet."""
    return PieceInvariants(yamada_h(theta_graph(s)), (-1) ** (s - 1) * S ** s)


def test_twist_closed_forms_match_state_sum():
    for sign in "+-":
        for k in range(5):
            piece = infinity_closed_form(k, sign)
            code = build_twist(k, sign)
            assert piece.r == yamada_r(code)
            assert piece.r_closed == yamada_r(close_piece(code))


def test_twist_closed_form_instances():
    p1 = infinity_closed_form(1, "+")
    assert p1.r == S * A ** -2
    assert p1.r_closed == S
    p2 = infinity_closed_form(2, "+")
    assert p2.r == S * A ** -4
    assert p2.r_closed == -(S * A ** -2 * (A + A ** -1)) - S * A ** -4


# The theorem's alpha = ((sigma+1) r + r_closed)/sigma, beta = (r +
# r_closed)/sigma and gamma = 1 - alpha/beta, checked in the cleared forms
# sigma*alpha, sigma*beta and gamma*beta = -r that h_edge_replace uses.


def test_alpha_beta_gamma_single_edge():
    edge = infinity_closed_form(0)
    assert (S + 1) * edge.r + edge.r_closed == S  # alpha = 1
    assert edge.r + edge.r_closed == S  # beta = 1
    assert (-edge.r).is_zero()  # gamma = 0


def test_alpha_beta_gamma_twist():
    for k in range(1, 5):
        piece = infinity_closed_form(k, "+")
        m_k = twist_scale(k)
        assert piece.r + piece.r_closed == S * m_k  # beta = m_k
        # gamma = -sigma A^(-2k) / m_k
        assert -piece.r == -(S * A ** (-2 * k))


def test_alpha_beta_recover_inputs():
    # alpha - beta = r and (sigma+1) beta - alpha = r_closed: replacing the
    # one edge of K2 gives the open piece, replacing a loop the closed one
    edge = make_graph([0, 1], [(0, 0, 1)])
    loop = make_graph([0], [(0, 0, 0)])
    pieces = [theta_piece(s) for s in (1, 2, 3)] + [
        infinity_closed_form(k, sign) for k in range(5) for sign in "+-"
    ]
    for piece in pieces:
        assert h_edge_replace(edge, {0: "a"}, {"a": piece}) == piece.r
        assert h_edge_replace(loop, {0: "a"}, {"a": piece}) == piece.r_closed


def test_beta_zero_is_lazy():
    # a piece with beta = 0 is refused only where a label uses it
    degenerate = PieceInvariants(S, -S)
    assert (degenerate.r + degenerate.r_closed).is_zero()
    base = cycle_graph(2)
    pieces = {"a": theta_piece(2), "b": degenerate}
    assert h_edge_replace(base, {0: "a", 1: "a"}, pieces) == h_edge_replace(
        base, {0: "a", 1: "a"}, {"a": theta_piece(2)}
    )
    with pytest.raises(BetaZero):
        h_edge_replace(base, {0: "a", 1: "b"}, pieces)


def test_two_vertex_values():
    # two single edges glued at both ends form a 2-cycle
    zero = LaurentPoly.zero()
    assert two_vertex_h(zero, zero, S, S) == S
    # doubled strand against a single edge forms the 3-banana
    assert two_vertex_h(S, zero, -(S ** 2), S) == S - S ** 2
    assert two_vertex_h(zero, S, zero, S).is_zero()


def test_compose_identity_pieces():
    edge = infinity_closed_form(0)
    for n in range(1, 7):
        assert r_compose("cycle", [edge] * n) == S
        assert r_compose("bouquet", [edge] * n) == (-1) ** (n - 1) * S ** n
        assert r_compose("theta", [edge] * n) == yamada_h(theta_graph(n))


def test_compose_twist_goldens():
    tw = infinity_closed_form(1, "+")
    inner = S * A ** -2 + S
    for n in range(1, 6):
        expect = (-(S * A ** -2)) ** n + S * (A ** -2 + 1) ** n
        assert r_compose("cycle", [tw] * n) == expect
    for s in range(1, 6):
        num = (-S) ** s + S * ((S + 1) * A ** -2 + 1) ** s
        assert r_compose("theta", [tw] * s) == exact_div(num, S + 1)
    for q in range(1, 6):
        assert r_compose("bouquet", [tw] * q) == (-1) ** (q - 1) * S ** q


def test_compose_cycle_permutation_invariant():
    pieces = [
        infinity_closed_form(1, "+"),
        infinity_closed_form(2, "-"),
        theta_piece(2),
    ]
    values = {
        r_compose("cycle", list(perm)) for perm in itertools.permutations(pieces)
    }
    baseline = r_compose("cycle", pieces)
    assert all(v == baseline for v in values)


def test_compose_arity_and_shape_checks():
    with pytest.raises(ArityMismatch):
        r_compose("cycle", [])
    with pytest.raises(ValueError):
        r_compose("wheel", [infinity_closed_form(1)])


def test_family_small_instances():
    tw = infinity_closed_form(1, "+")
    for n in range(1, 6):
        assert family_polynomial(n, 1, 1, "+") == r_compose("cycle", [tw] * n)
    assert family_polynomial(3, 2, 2, "-") == family_polynomial(
        3, 2, 2, "+"
    ).mirror()


def test_family_matches_diagram_state_sum():
    triples = [
        (n, s, k)
        for n in range(1, 9)
        for s in range(1, 9)
        for k in range(1, 9)
        if n * s * k <= 8
    ]
    for n, s, k in triples:
        code = build_family_diagram(n, s, k)
        validate(code)
        assert family_polynomial(n, s, k, "+") == yamada_r(code)


def test_family_degree_cap():
    with pytest.raises(DegreeCap):
        family_polynomial(20, 4, 6, "+", degree_cap=100)
    # cap of None disables the check
    p = family_polynomial(4, 2, 2, "+", degree_cap=None)
    assert not p.is_zero()


def test_build_family_diagram_shape():
    code = build_family_diagram(2, 1, 1)
    assert len(code.crossings) == 2
    assert len(code.vertices) == 2
    assert validate(build_family_diagram(2, 2, 1)).planar
    with pytest.raises(TooLarge):
        build_family_diagram(4, 4, 4)


def test_build_family_diagram_crossing_free_base():
    # k = 0 bands give the plain cycle-of-thetas graph
    code = build_family_diagram(3, 2, 0)
    piece = theta_piece(2)
    assert yamada_r(code) == r_compose("cycle", [piece] * 3)


def test_h_edge_replace_doubled_cycles():
    piece = theta_piece(2)
    for n in (2, 3):
        base = cycle_graph(n)
        labels = {eid: f"a{eid}" for eid, _, _ in base.edges}
        pieces = {lab: piece for lab in labels.values()}
        # explicit doubled graph: every cycle edge becomes two parallels
        doubled = make_graph(
            base.vertices,
            [
                (2 * i + half, u, v)
                for i, (_, u, v) in enumerate(base.edges)
                for half in (0, 1)
            ],
        )
        assert h_edge_replace(base, labels, pieces) == yamada_h(doubled)
        assert h_edge_replace(base, labels, pieces) == r_compose(
            "cycle", [piece] * n
        )


def test_h_edge_replace_shared_labels():
    base = cycle_graph(2)
    piece = theta_piece(2)
    shared = h_edge_replace(base, {0: "a", 1: "a"}, {"a": piece})
    split = h_edge_replace(base, {0: "a", 1: "b"}, {"a": piece, "b": piece})
    assert shared == split == S - S ** 2 + S ** 3


def test_h_edge_replace_worked_form():
    # n-cycle of s-bundles: (-h)^n + sigma^(1-n) (h + (-1)^(s-1) sigma^s)^n
    for n, s in ((2, 2), (3, 2), (2, 3)):
        piece = theta_piece(s)
        base = cycle_graph(n)
        labels = {eid: "a" for eid, _, _ in base.edges}
        got = h_edge_replace(base, labels, {"a": piece})
        expect = exact_div(
            S ** (n - 1) * (-piece.r) ** n + (piece.r + piece.r_closed) ** n,
            S ** (n - 1),
        )
        assert got == expect


def random_labelled_graph(rng):
    """Up to 5 vertices and 6 edges on labels a, b, c: loops, bridges,
    isolated vertices, shared labels and fewer edges than vertices all
    occur."""
    nv = rng.randint(1, 5)
    edges = [
        (i, rng.randrange(nv), rng.randrange(nv)) for i in range(rng.randint(0, 6))
    ]
    labels = {eid: rng.choice("abc") for eid, _, _ in edges}
    return make_graph(range(nv), edges), labels


def test_h_edge_replace_matches_bundled_graph():
    # a bundle of s strands on every edge is the graph with s parallels
    assert h_edge_replace(
        make_graph([0, 1], [(0, 0, 1)]), {0: "a"}, {"a": theta_piece(2)}
    ) == S
    rng = random.Random(20240820)
    sparse = 0
    for _ in range(150):
        g, labels = random_labelled_graph(rng)
        sizes = {lab: rng.randint(1, 3) for lab in "abc"}
        bundled = [
            (len(g.edges) * j + eid, u, v)
            for eid, u, v in g.edges
            for j in range(sizes[labels[eid]])
        ]
        pieces = {lab: theta_piece(s) for lab, s in sizes.items()}
        assert h_edge_replace(g, labels, pieces) == yamada_h(
            make_graph(g.vertices, bundled), max_edges=None
        ), (g, labels, sizes)
        sparse += len(g.edges) < len(g.vertices)
    assert sparse >= 30


def test_h_edge_replace_mirrors_with_its_pieces():
    rng = random.Random(20240821)
    for _ in range(40):
        g, labels = random_labelled_graph(rng)
        ks = {lab: rng.randint(0, 4) for lab in "abc"}
        plus = {lab: infinity_closed_form(k, "+") for lab, k in ks.items()}
        minus = {lab: infinity_closed_form(k, "-") for lab, k in ks.items()}
        assert h_edge_replace(g, labels, minus) == h_edge_replace(
            g, labels, plus
        ).mirror()


def test_h_edge_replace_rejects_beta_zero():
    base = cycle_graph(2)
    labels = {0: "a", 1: "a"}
    with pytest.raises(BetaZero):
        h_edge_replace(base, labels, {"a": PieceInvariants(S, -S)})
    with pytest.raises(KeyError):
        h_edge_replace(base, labels, {"b": theta_piece(2)})
    # a label named w would merge with the chain variable w
    with pytest.raises(ValueError, match="label 'w'"):
        h_edge_replace(base, {0: "w", 1: "a"}, dict.fromkeys("wa", theta_piece(2)))
    # the chain polynomial's edge guard applies before any power is formed
    big = cycle_graph(17)
    with pytest.raises(TooLarge):
        h_edge_replace(big, dict.fromkeys(range(17), "a"), {"a": theta_piece(2)})


def test_h_edge_replace_matches_compose_on_templates():
    # twist pieces k = 0..4 of both signs on the cycle, theta and bouquet
    # templates with 1-8 edges; edges with the same piece share a label,
    # and every template carries a k = 0 piece, whose x = -sigma r is 0
    rng = random.Random(20241019)
    templates = {
        "cycle": cycle_graph,
        "theta": theta_graph,
        "bouquet": lambda m: make_graph([0], [(i, 0, 0) for i in range(m)]),
    }
    shared = 0
    for shape, template in templates.items():
        for m in range(1, 9):
            ends = [(0, rng.choice("+-"))] + [
                (rng.randint(0, 4), rng.choice("+-")) for _ in range(m - 1)
            ]
            rng.shuffle(ends)
            labels = {i: f"t{k}{sign}" for i, (k, sign) in enumerate(ends)}
            pieces = {f"t{k}{sign}": infinity_closed_form(k, sign) for k, sign in ends}
            got = h_edge_replace(template(m), labels, pieces)
            want = r_compose(shape, [infinity_closed_form(k, sign) for k, sign in ends])
            assert got == want, (shape, ends)
            shared += len(pieces) < m
    assert shared >= 12


@pytest.mark.parametrize(
    "call",
    [
        lambda: family_polynomial(0, 1, 1),
        lambda: family_polynomial(1, 0, 1),
        lambda: family_polynomial(1, 1, 0),
        lambda: family_lambdas(2, -1, "+"),
        lambda: build_family_diagram(0, 1, 1),
        lambda: build_family_diagram(1, 1, -1),
        lambda: infinity_closed_form(-1),
        lambda: infinity_closed_form(1, "x"),
    ],
    ids=[
        "family-n-0",
        "family-s-0",
        "family-k-0",
        "lambdas-k-negative",
        "diagram-n-0",
        "diagram-k-negative",
        "twist-k-negative",
        "twist-bad-sign",
    ],
)
def test_input_checks_raise(call):
    with pytest.raises(ValueError):
        call()


def test_minus_lambdas_are_the_mirror_pair():
    # the mirror A -> A^-1 keeps every span, so one degree estimate
    # serves both signs
    for s in range(1, 7):
        for k in range(1, 9):
            plus, minus = family_lambdas(s, k, "+"), family_lambdas(s, k, "-")
            assert minus == tuple(p.mirror() for p in plus), (s, k)
            assert [p.span() for p in minus] == [p.span() for p in plus]
