"""Diagram codes, the state-sum polynomial R, and local moves."""

import itertools
import random

import pytest

from yamada.laurent import LaurentPoly, compare_up_to_unit, sigma, variable
from yamada.multigraph import Multigraph, make_graph, yamada_h
from yamada.diagram import (
    BadCrossingArity,
    DanglingHalfEdge,
    DuplicateHalfEdge,
    DuplicateSiteId,
    MoveNotApplicable,
    NoAttachPair,
    PartialAssignment,
    apply_move,
    build_twist,
    close_piece,
    code_from_json,
    code_to_json,
    make_code,
    mirror,
    resolve,
    smooth_crossing,
    validate,
    yamada_r,
)
from yamada.replace import build_family_diagram

A = variable()
S = sigma()


def cycle_code(m):
    """Crossing-free m-gon, each corner a 2-valent vertex."""
    vertices = [(i, (2 * i - 1, 2 * i)) for i in range(1, m + 1)]
    arcs = [(2 * i, 2 * i + 1) for i in range(1, m)] + [(2 * m, 1)]
    return make_code(vertices, [], arcs)


def theta_code(s):
    """Two vertices joined by s parallel strands, planar rotations."""
    u = (1, tuple(range(1, s + 1)))
    v = (2, tuple(range(s + 1, 2 * s + 1)))
    arcs = [(i, 2 * s + 1 - i) for i in range(1, s + 1)]
    return make_code([u, v], [], arcs)


def bouquet_code(n):
    """One vertex carrying n crossing-free loops."""
    ends = tuple(range(1, 2 * n + 1))
    arcs = [(2 * i - 1, 2 * i) for i in range(1, n + 1)]
    return make_code([(1, ends)], [], arcs)


def crossing_free_code(g: Multigraph):
    """Embed an abstract multigraph as a diagram with no crossings."""
    ends_at = {v: [] for v in g.vertices}
    arcs = []
    counter = 1
    for _, u, v in g.edges:
        ends_at[u].append(counter)
        ends_at[v].append(counter + 1)
        arcs.append((counter, counter + 1))
        counter += 2
    vertices = [(v, tuple(h)) for v, h in ends_at.items()]
    return make_code(vertices, [], arcs)


def flip_over(code, cid):
    cs = []
    for c in code.crossings:
        if c[0] == cid:
            other = tuple(h for h in c[1] if h not in c[2])
            cs.append((c[0], c[1], other))
        else:
            cs.append(c)
    return make_code(code.vertices, cs, code.arcs, code.attach)


def random_code(rng, moves=2, max_crossings=4):
    base = rng.choice([cycle_code(2), cycle_code(3), theta_code(3)])
    code = base
    for _ in range(moves):
        arcs = list(code.arcs)
        if len(code.crossings) + 2 <= max_crossings and rng.random() < 0.5 and len(arcs) >= 2:
            a, b = rng.sample(arcs, 2)
            code = apply_move(code, "r2_insert", arc_a=a, arc_b=b)
        elif len(code.crossings) < max_crossings:
            code = apply_move(
                code, "r1_insert", arc=rng.choice(arcs), sign=rng.choice("+-")
            )
    for cid in code.crossing_ids():
        if rng.random() < 0.3:
            code = flip_over(code, cid)
    validate(code)
    return code


def test_validate_rejections():
    with pytest.raises(DuplicateSiteId):
        validate(make_code([(1, (1, 2))], [(1, (3, 4, 5, 6), (3, 5))],
                           [(1, 2), (3, 4), (5, 6)]))
    with pytest.raises(DuplicateHalfEdge):
        validate(make_code([(1, (1, 2)), (2, (2, 3))], [], [(1, 2), (2, 3)]))
    with pytest.raises(DanglingHalfEdge):
        validate(make_code([(1, (1, 2, 3))], [], [(1, 2)]))
    with pytest.raises(DanglingHalfEdge):
        validate(make_code([(1, (1, 2))], [], [(1, 2), (3, 4)]))
    with pytest.raises(BadCrossingArity):
        validate(make_code([(1, (1, 2))], [(2, (3, 4, 5, 6), (3, 4))],
                           [(1, 3), (2, 4), (5, 6)]))
    with pytest.raises(NoAttachPair):
        validate(make_code([(1, (1, 2))], [], [(1, 2)], attach=(1, 7)))


def test_genus_diagnostic():
    assert validate(theta_code(3)).planar
    # same theta with parallel rotations at both ends lives on the torus
    twisted = make_code(
        [(1, (1, 2, 3)), (2, (4, 5, 6))], [], [(1, 4), (2, 5), (3, 6)]
    )
    assert validate(twisted).genus == 1
    # single 4-valent vertex with interleaved self-arcs
    quad = make_code([(1, (1, 2, 3, 4))], [], [(1, 3), (2, 4)])
    assert validate(quad).genus == 1
    for k in range(5):
        assert validate(build_twist(k)).planar


def test_resolve_needs_every_spin():
    code = build_twist(2)
    cids = code.crossing_ids()
    with pytest.raises(PartialAssignment):
        resolve(code, {cids[0]: 1})
    with pytest.raises(PartialAssignment):
        resolve(code, {cids[0]: 1, cids[1]: 2})


def test_single_twist_calibration():
    # one positive crossing between two 2-valent posts
    assert yamada_r(build_twist(1, "+")) == S * A ** -2
    assert yamada_r(build_twist(1, "-")) == S * A ** 2


def test_twist_chain_values():
    for k in range(6):
        expect = S * A ** (-2 * k) if k >= 1 else LaurentPoly.zero()
        assert yamada_r(build_twist(k, "+")) == expect
        assert yamada_r(build_twist(k, "-")) == expect.mirror()


def test_twist_closure_values():
    two_ends = A + A ** -1
    assert yamada_r(close_piece(build_twist(0))) == S
    for k in range(1, 6):
        m_k = two_ends * A ** -k * (-1) ** (k - 1)
        expect = S * m_k - S * A ** (-2 * k)
        assert yamada_r(close_piece(build_twist(k, "+"))) == expect
        assert yamada_r(close_piece(build_twist(k, "-"))) == expect.mirror()


def test_closure_of_one_twist_is_curled_loop():
    w1 = close_piece(build_twist(1, "+"))
    assert len(w1.vertices) == 1
    assert yamada_r(w1) == S


def test_crossing_free_matches_h():
    rng = random.Random(20240816)
    for _ in range(30):
        p = rng.randrange(1, 6)
        vertices = list(range(1, p + 1))
        edges = []
        for i in range(rng.randrange(0, 8)):
            edges.append((i, rng.choice(vertices), rng.choice(vertices)))
        g = make_graph(vertices, edges)
        assert yamada_r(crossing_free_code(g)) == yamada_h(g)


def test_bouquet_code_value():
    for n in range(1, 5):
        assert yamada_r(bouquet_code(n)) == -((-S) ** n)


def test_isthmus_code_vanishes():
    code = make_code(
        [(1, (1, 2, 3)), (2, (4, 5, 6))], [], [(1, 2), (3, 6), (4, 5)]
    )
    assert yamada_r(code).is_zero()


def test_standalone_curl_is_unit_times_circle():
    # figure-eight strand with no graph vertex at all
    fig8 = make_code([], [(1, (1, 2, 3, 4), (1, 3))], [(1, 2), (3, 4)])
    validate(fig8)
    assert yamada_r(fig8) == S * A ** 2
    assert yamada_r(mirror(fig8)) == S * A ** -2
    # the +1 spin closes two free circles and the -1 spin one, each a
    # closed weld chain: a fresh vertex with a self-arc in smooth_crossing,
    # an isolated loop vertex in resolve
    for spin, circles, r in ((1, 2, S ** 2), (-1, 1, S), (0, 0, -S ** 2)):
        smoothed = smooth_crossing(fig8, 1, spin)
        validate(smoothed)
        assert yamada_r(smoothed) == r
        if spin:
            assert not smoothed.crossings
            assert len(smoothed.vertices) == len(smoothed.arcs) == circles
            state = resolve(fig8, {1: spin})
            assert len(state.vertices) == circles
            assert all(u == v for _, u, v in state.edges)
            assert {u for _, u, _ in state.edges} == set(state.vertices)


def state_sum_by_definition(code):
    """R as the definition states it: the sum over all spin states of
    A^(sum of spins) H(state), each state's H formed on its own.  Also
    returns how many states close free circles (loop vertices that are
    neither a vertex nor a crossing of the code)."""
    cids = sorted(code.crossing_ids())
    sites = {vid for vid, _ in code.vertices} | set(cids)
    total, with_circles = LaurentPoly.zero(), 0
    for combo in itertools.product((1, -1, 0), repeat=len(cids)):
        state = resolve(code, dict(zip(cids, combo)))
        total = total + A ** sum(combo) * yamada_h(state, max_edges=None)
        with_circles += not sites.issuperset(state.vertices)
    return total, with_circles


def test_state_sum_matches_definition():
    # yamada_r adds the states' integer flow coefficients per weight and
    # goes through sigma + 1 once per weight
    for n, s, k in itertools.product(range(1, 7), repeat=3):
        if n * s * k <= 6:
            code = build_family_diagram(n, s, k)
            assert yamada_r(code) == state_sum_by_definition(code)[0], (n, s, k)
    rng = random.Random(5)
    for base in (cycle_code(3), theta_code(3)):
        code = base
        for move in ("r1_insert", "r2_insert", "r1_insert", "r1_insert"):
            arcs = list(code.arcs)
            if move == "r1_insert":
                code = apply_move(
                    code, move, arc=rng.choice(arcs), sign=rng.choice("+-")
                )
            else:
                a, b = rng.sample(arcs, 2)
                code = apply_move(code, move, arc_a=a, arc_b=b)
        validate(code)
        for c in (code, mirror(code)):
            want, with_circles = state_sum_by_definition(c)
            assert with_circles
            assert yamada_r(c) == want


def test_skein_expansion():
    rng = random.Random(99)
    for _ in range(25):
        code = random_code(rng)
        if not code.crossings:
            continue
        cid = code.crossing_ids()[0]
        total = (
            A * yamada_r(smooth_crossing(code, cid, 1))
            + A ** -1 * yamada_r(smooth_crossing(code, cid, -1))
            + yamada_r(smooth_crossing(code, cid, 0))
        )
        assert yamada_r(code) == total


def test_disjoint_and_wedge_laws():
    b2 = bouquet_code(2)
    r2 = yamada_r(b2)
    shifted = make_code(
        [(10, (21, 22, 23, 24))], [], [(21, 22), (23, 24)]
    )
    both = make_code(
        list(b2.vertices) + list(shifted.vertices), [],
        list(b2.arcs) + list(shifted.arcs),
    )
    assert yamada_r(both) == r2 * r2
    wedge = bouquet_code(4)
    assert yamada_r(wedge) == -(r2 * r2)


def test_r1_move_changes_unit_only():
    rng = random.Random(7)
    for _ in range(20):
        code = random_code(rng, moves=1, max_crossings=2)
        before = yamada_r(code)
        if before.is_zero():
            continue
        arc = rng.choice(list(code.arcs))
        plus = apply_move(code, "r1_insert", arc=arc, sign="+")
        minus = apply_move(code, "r1_insert", arc=arc, sign="-")
        assert compare_up_to_unit(yamada_r(plus), before) == -2
        assert compare_up_to_unit(yamada_r(minus), before) == 2
        new_cid = (set(plus.crossing_ids()) - set(code.crossing_ids())).pop()
        assert apply_move(plus, "r1_remove", crossing=new_cid) == code


def test_r2_move_is_exact():
    rng = random.Random(8)
    for _ in range(20):
        code = random_code(rng, moves=1, max_crossings=2)
        arcs = list(code.arcs)
        if len(arcs) < 2:
            continue
        a, b = rng.sample(arcs, 2)
        poked = apply_move(code, "r2_insert", arc_a=a, arc_b=b)
        validate(poked)
        assert yamada_r(poked) == yamada_r(code)
        ca, cb = sorted(set(poked.crossing_ids()) - set(code.crossing_ids()))
        assert apply_move(poked, "r2_remove", crossing_a=ca, crossing_b=cb) == code


def test_r2_remove_rejects_clasp():
    code = cycle_code(3)
    a, b = code.arcs[0], code.arcs[1]
    poked = apply_move(code, "r2_insert", arc_a=a, arc_b=b)
    ca, cb = sorted(set(poked.crossing_ids()) - set(code.crossing_ids()))
    clasp = flip_over(poked, ca)
    with pytest.raises(MoveNotApplicable):
        apply_move(clasp, "r2_remove", crossing_a=ca, crossing_b=cb)


def test_move_rejections():
    code = cycle_code(2)
    with pytest.raises(MoveNotApplicable):
        apply_move(code, "r1_insert", arc=(1, 99))
    with pytest.raises(MoveNotApplicable):
        apply_move(code, "warp")
    with pytest.raises(MoveNotApplicable):
        apply_move(code, "r2_insert", arc_a=code.arcs[0], arc_b=code.arcs[0])
    kinked = apply_move(code, "r1_insert", arc=code.arcs[0], sign="+")
    cid = kinked.crossing_ids()[0]
    with pytest.raises(MoveNotApplicable):
        apply_move(code, "r1_remove", crossing=cid)
    poked = apply_move(code, "r2_insert", arc_a=code.arcs[0], arc_b=code.arcs[1])
    ca, cb = poked.crossing_ids()
    with pytest.raises(MoveNotApplicable):
        apply_move(poked, "r2_remove", crossing_a=ca, crossing_b=ca)


def test_mirror_substitutes_inverse():
    rng = random.Random(11)
    for _ in range(15):
        code = random_code(rng)
        assert yamada_r(mirror(code)) == yamada_r(code).mirror()
    assert mirror(mirror(build_twist(3))) == build_twist(3)


def test_close_piece_requires_attach():
    with pytest.raises(NoAttachPair):
        close_piece(cycle_code(3))


def test_json_round_trip():
    code = build_twist(2, "-")
    text = code_to_json(code)
    assert code_from_json(text) == code
    with pytest.raises(ValueError):
        code_from_json('{"arcs": [[1, 2, 3]]}')
    with pytest.raises(ValueError):
        code_from_json('{"vertices": [{"id": 1}], "arcs": []}')
