"""Diagram codes, the state-sum polynomial R, and local moves."""

import itertools
import random
import time

import pytest

from yamada import diagram
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
    yamada_r_skein,
    yamada_r_state_sum,
)
from yamada.multigraph import TooLarge
from yamada.replace import (
    build_family_diagram,
    family_polynomial,
    infinity_closed_form,
)

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


_TWIST = build_twist(2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: validate(make_code([(1, (1, 2))], [(2, (3, 3, 5, 6), (3, 5))],
                                    [(1, 2), (3, 5), (3, 6)])),
         BadCrossingArity),
        (lambda: validate(make_code([(1, (1, 2))], [(2, (2, 4, 5, 6), (2, 5))],
                                    [(1, 4), (2, 6), (5, 6)])),
         DuplicateHalfEdge),
        (lambda: validate(make_code([(1, (1, 2))], [(2, (3, 4, 5, 6), (3, 7))],
                                    [(1, 2), (3, 4), (5, 6)])),
         BadCrossingArity),
        (lambda: yamada_r_state_sum(_TWIST, max_crossings=1), TooLarge),
        (lambda: smooth_crossing(_TWIST, _TWIST.crossing_ids()[0], 2),
         PartialAssignment),
        (lambda: apply_move(_TWIST, "r1_remove",
                            crossing=_TWIST.crossing_ids()[0]),
         MoveNotApplicable),
    ],
    ids=[
        "crossing-ends-not-distinct",
        "crossing-end-on-a-vertex",
        "over-pair-not-its-ends",
        "state-sum-guard",
        "smoothing-spin",
        "r1-remove-not-a-kink",
    ],
)
def test_input_checks_raise(call, error):
    with pytest.raises(error):
        call()


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


def test_yamada_r_refuses_codes_whose_arcs_miss_half_edges():
    with pytest.raises(DanglingHalfEdge):
        yamada_r(make_code([(1, (1, 2, 3))], [], [(1, 2)]))
    with pytest.raises(DanglingHalfEdge):
        yamada_r(make_code([(1, (1, 2))], [], [(1, 2), (3, 4)]))
    with pytest.raises(DanglingHalfEdge):
        yamada_r(make_code([(1, (1, 2, 3, 4))], [], [(1, 2), (1, 3), (3, 4)]))
    with pytest.raises(DuplicateHalfEdge):
        yamada_r(make_code([(1, (1, 2)), (2, (2, 3))], [], [(1, 3)]))


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


def test_close_piece_keeps_twists_planar():
    # the two posts merge at the corners of a face they share, so the
    # closed twist stays planar, and R does not read the rotations
    for k in range(5):
        for sign in "+-":
            closed = close_piece(build_twist(k, sign))
            assert validate(closed).genus == 0, (k, sign)
            assert yamada_r(closed) == yamada_r_state_sum(closed)
            assert yamada_r(closed) == infinity_closed_form(k, sign).r_closed


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


def with_string_ids(code):
    """The same diagram with every site id and half-edge id a string."""
    def h(ends):
        return tuple(f"h{x}" for x in ends)

    return make_code(
        [(f"s{vid}", h(ends)) for vid, ends in code.vertices],
        [(f"s{cid}", h(ends), h(over)) for cid, ends, over in code.crossings],
        [h(a) for a in code.arcs],
        None if code.attach is None else tuple(f"s{v}" for v in code.attach),
    )


def test_string_ids_give_the_same_state_sum():
    # states that close free circles need vertex names beside string ids
    for code in (
        build_twist(2, "+"),
        close_piece(build_twist(3, "-")),
        build_family_diagram(2, 1, 2),
        theta_code(3),
    ):
        named = with_string_ids(code)
        validate(named)
        want, with_circles = state_sum_by_definition(named)
        assert with_circles or not code.crossings
        assert yamada_r(named) == yamada_r(code) == want


def test_skein_expansion():
    # the relation yamada_r is built on, checked with the state sum alone:
    # R(D) = A R(D+) + A^-1 R(D-) + R(D0) on the first crossing
    rng = random.Random(99)
    for _ in range(25):
        code = random_code(rng)
        if not code.crossings:
            continue
        cid = code.crossing_ids()[0]
        total = (
            A * yamada_r_state_sum(smooth_crossing(code, cid, 1))
            + A ** -1 * yamada_r_state_sum(smooth_crossing(code, cid, -1))
            + yamada_r_state_sum(smooth_crossing(code, cid, 0))
        )
        assert yamada_r_state_sum(code) == total
        assert yamada_r(code) == total


def grown(base, rng, crossings):
    """base grown by R1 and R2 insertions on random arcs to the given
    number of crossings, then with about a third of its crossings
    flipped, so the R2 bigons need not cancel."""
    code = base
    while len(code.crossings) < crossings:
        arcs = list(code.arcs)
        if crossings - len(code.crossings) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(arcs, 2)
            code = apply_move(code, "r2_insert", arc_a=a, arc_b=b)
        else:
            code = apply_move(
                code, "r1_insert", arc=rng.choice(arcs), sign=rng.choice("+-")
            )
    flipped = code
    for cid in code.crossing_ids():
        if rng.random() < 0.3:
            flipped = flip_over(flipped, cid)
    return code, flipped


def test_skein_matches_state_sum_on_grown_diagrams():
    rng = random.Random(14)
    for base in (cycle_code(2), cycle_code(4), theta_code(3), theta_code(4)):
        for c in (2, 4, 6, 7):
            for code in grown(base, rng, c):
                validate(code)
                for d in (code, mirror(code), with_string_ids(code)):
                    assert yamada_r(d) == yamada_r_state_sum(d)


def renamed(code, tag):
    """The same diagram with every id a string starting with tag."""
    def h(ends):
        return tuple(f"{tag}{x}" for x in ends)

    return make_code(
        [(f"{tag}{vid}", h(ends)) for vid, ends in code.vertices],
        [(f"{tag}{cid}", h(ends), h(over)) for cid, ends, over in code.crossings],
        [h(a) for a in code.arcs],
    )


def test_one_point_union_and_split_laws_with_crossings():
    left = renamed(build_family_diagram(2, 1, 2), "a")
    right = renamed(mirror(build_family_diagram(1, 1, 3)), "b")
    r_left, r_right = yamada_r_state_sum(left), yamada_r_state_sum(right)
    # left's vertex a1 and right's one vertex merged: a cut vertex with
    # crossings on both sides
    (vb, ends_b), = right.vertices
    merged = [
        (vid, ends + ends_b if vid == "a1" else ends) for vid, ends in left.vertices
    ]
    wedge = make_code(
        merged, left.crossings + right.crossings, left.arcs + right.arcs
    )
    assert validate(wedge).planar
    want = -(r_left * r_right)
    assert yamada_r_state_sum(wedge) == want
    assert yamada_r(wedge) == want
    # the two side by side
    split = make_code(
        left.vertices + right.vertices,
        left.crossings + right.crossings,
        left.arcs + right.arcs,
    )
    assert yamada_r_state_sum(split) == r_left * r_right
    assert yamada_r(split) == r_left * r_right


def test_skein_reaches_past_the_state_sum_guard():
    # 3^16 states each: no state sum gets there
    for n, s, k in ((16, 1, 1), (2, 2, 4)):
        code = build_family_diagram(n, s, k, max_crossings=None)
        with pytest.raises(TooLarge):
            yamada_r_skein(code)
        assert yamada_r_skein(code, max_crossings=None) == family_polynomial(
            n, s, k, "+", degree_cap=None
        )


def skein_blocks(monkeypatch, code):
    """The blocks one yamada_r_skein call on code looks up in its memo,
    each as (rots, overs, mate) in the skein's numbering, and the number
    of blocks it expanded."""
    blocks, expansions = [], [0]
    block, expand = diagram._Skein.block, diagram._Skein.expand

    def spy_block(self, rots, overs, mate, site_of):
        blocks.append((list(rots), list(overs), list(mate)))
        return block(self, rots, overs, mate, site_of)

    def spy_expand(self, *block):
        expansions[0] += 1
        return expand(self, *block)

    with monkeypatch.context() as m:
        m.setattr(diagram._Skein, "block", spy_block)
        m.setattr(diagram._Skein, "expand", spy_expand)
        yamada_r_skein(code)
    return blocks, expansions[0]


class StubSkein:
    """A fresh memo whose expansion returns a new token each time, so a
    lookup's value names the memo entry it hit."""

    def __init__(self):
        self.skein = diagram._Skein(8, 8)
        self.skein.expand = self._expand
        self.expansions = 0

    def _expand(self, *block):
        self.expansions += 1
        return self.expansions

    def lookup(self, rots, overs, mate):
        site_of = [0] * len(mate)
        for i, r in enumerate(rots):
            for d in r:
                site_of[d] = i
        return self.skein.block(list(rots), list(overs), list(mate), site_of)


def relabelled(rots, overs, mate, rng):
    """The same block with its sites permuted, its darts renamed and each
    rotation started at a random dart, a crossing's over parity moved
    with it."""
    size = len(mate) + 3
    name = list(range(size))
    rng.shuffle(name)
    new_mate = [-1] * size
    for r in rots:
        for d in r:
            new_mate[name[d]] = name[mate[d]]
    new_rots, new_overs = [], []
    for i in rng.sample(range(len(rots)), len(rots)):
        r, o = rots[i], overs[i]
        k = rng.randrange(len(r))
        new_rots.append(tuple(name[d] for d in r[k:] + r[:k]))
        new_overs.append(None if o is None else (o - k) % 2)
    return new_rots, new_overs, new_mate


def least_code(rots, overs, mate):
    """A canonical form by brute force: the least breadth-first code over
    every anchor dart.  The code from an anchor numbers the sites in the
    order a breadth-first search from it reaches them and the darts of
    each site counterclockwise from the one it was entered by, and lists
    per site its kind (degree of a vertex; -1 or -2 for a crossing
    entered over or under) and the numbers of its darts' mates."""
    site = {d: i for i, r in enumerate(rots) for d in r}
    pos = {d: j for r in rots for j, d in enumerate(r)}

    def code_from(d0):
        first = site[d0]
        order, entry, number, base = [first], {first: pos[d0]}, {first: 0}, {first: 0}
        total = len(rots[first])
        out = []
        for s in order:
            e = entry[s]
            r = rots[s][e:] + rots[s][:e]
            if overs[s] is None:
                out.append(len(r))
            else:
                out.append(-1 if (e - overs[s]) % 2 == 0 else -2)
            for d in r:
                m = mate[d]
                t = site[m]
                if t not in number:
                    number[t] = len(order)
                    order.append(t)
                    entry[t] = pos[m]
                    base[t] = total
                    total += len(rots[t])
                out.append(base[t] + (pos[m] - entry[t]) % len(rots[t]))
        return tuple(out)

    return min(code_from(d) for r in rots for d in r)


def test_memo_hits_relabelled_blocks(monkeypatch):
    # a relabelled copy of a block is the same block: it must hit the
    # entry its original made, and expand nothing
    rng = random.Random(21)
    blocks = []
    for code in (build_family_diagram(2, 2, 2), build_family_diagram(3, 1, 2),
                 close_piece(build_twist(4, "-"))):
        blocks += skein_blocks(monkeypatch, code)[0]
    memo = StubSkein()
    values = [memo.lookup(*b) for b in blocks]
    stored = memo.expansions
    for b, v in zip(blocks, values):
        for _ in range(3):
            assert memo.lookup(*relabelled(*b, rng)) == v
    assert memo.expansions == stored


def mirror_images(rots, overs, mate):
    """A block's two mirror images: every crossing switched, and the
    reflected map (every rotation reversed, the same strands over, which
    moves a crossing's over pair to the other parity of positions)."""
    switched = [None if o is None else 1 - o for o in overs]
    return (rots, switched, mate), ([r[::-1] for r in rots], switched, mate)


def test_memo_misses_mirror_images_of_a_chiral_block(monkeypatch):
    # the closed 3-twist is chiral, so neither of its mirror images is the
    # same block: both must miss
    code = close_piece(build_twist(3, "+"))
    assert yamada_r(mirror(code)) != yamada_r(code)
    (block, *_), _ = skein_blocks(monkeypatch, code)
    for image in mirror_images(*block):
        memo = StubSkein()
        assert memo.lookup(*block) == 1
        assert memo.lookup(*image) == 2
        assert memo.lookup(*relabelled(*image, random.Random(3))) == 2
        assert memo.lookup(*relabelled(*block, random.Random(4))) == 1


def test_memo_tells_blocks_from_their_mirror_images(monkeypatch):
    # most mirror images share their block's bucket key; the memo must
    # hit exactly when the brute-force canonical forms agree
    blocks = []
    for code in (build_family_diagram(2, 2, 2), close_piece(build_twist(4, "-"))):
        blocks += skein_blocks(monkeypatch, code)[0]
    hits = misses = 0
    for block in blocks:
        if all(o is None for o in block[1]):
            continue
        for image in mirror_images(*block):
            memo = StubSkein()
            memo.lookup(*block)
            same = least_code(*image) == least_code(*block)
            assert memo.lookup(*image) == (1 if same else 2)
            hits += same
            misses += not same
    assert misses > 100 and hits > 0


@pytest.mark.parametrize("nsk", [(2, 2, 2), (8, 1, 1)])
def test_memo_expands_each_isomorphism_class_once(monkeypatch, nsk):
    # complete and sound: one expansion per isomorphism class of the
    # blocks the call reached, the classes decided by brute force
    blocks, expansions = skein_blocks(monkeypatch, build_family_diagram(*nsk))
    classes = {least_code(*b) for b in blocks}
    assert len(blocks) > len(classes) > 1
    assert expansions == len(classes)


def test_memo_forms_each_anchored_code_once(monkeypatch):
    # a lookup walks its block at most once from each dart of the rarest
    # class, however many codes its bucket holds
    walks, seen = [], []
    block, code = diagram._Skein.block, diagram._code

    def spy_block(self, rots, overs, mate, site_of):
        anchors = len(diagram._classes(rots, overs, mate)[3])
        walks.append(0)  # the walks of the innermost lookup in progress
        v = block(self, rots, overs, mate, site_of)
        seen.append((walks.pop(), anchors))
        return v

    def spy_code(*args):
        walks[-1] += 1
        return code(*args)

    monkeypatch.setattr(diagram._Skein, "block", spy_block)
    monkeypatch.setattr(diagram, "_code", spy_code)
    for nsk in ((2, 2, 2), (8, 1, 1)):
        seen.clear()
        yamada_r_skein(build_family_diagram(*nsk))
        assert len(seen) > 1 and any(a > 1 for _, a in seen)
        assert all(1 <= w <= a for w, a in seen), nsk


def counted(f, *args, **kwargs):
    """f's value and what the call added to diagram.COUNTS."""
    before = diagram.COUNTS.copy()
    out = f(*args, **kwargs)
    return out, diagram.COUNTS - before


# the family diagrams with at most 8 crossings whose junctions are
# branch vertices two by two: n >= 2
SPLITTING = [
    (n, s, k)
    for n in range(2, 9) for s in range(1, 5) for k in range(1, 5)
    if n * s * k <= 8
]


def test_family_diagrams_split_into_their_bands():
    # every band is a piece between two junctions, all under one label;
    # the mirror images are checked against the state sum's mirror image
    assert len(SPLITTING) == 18
    for n, s, k in SPLITTING:
        code = build_family_diagram(n, s, k)
        want = yamada_r_state_sum(code)
        for d, w in ((code, want), (mirror(code), want.mirror())):
            got, did = counted(yamada_r, d)
            assert got == w, (n, s, k)
            assert did == {"split": 1, "pieces": n * s, "labels": 1,
                           "skein": 2 * n * s}


def assembly(rng, posts, max_crossings):
    """Twist pieces build_twist(k, sign), k = 0, 1 or 2, each between two
    random posts of the given number, until every post has at least 3
    ends, with at most max_crossings crossings in all (drawn again
    otherwise); about half of the assemblies have the rotation at every
    post shuffled.  Returns the code and its pieces as (u, v, k, sign)."""
    while True:
        pieces, ends = [], [0] * posts
        while min(ends) < 3:
            u, v = rng.sample(range(posts), 2)
            k = rng.randrange(3)
            pieces.append((u, v, k, rng.choice("+-")))
            ends[u] += 1 if k == 0 else 2
            ends[v] += 1 if k == 0 else 2
        if sum(p[2] for p in pieces) <= max_crossings:
            break
    at = [[] for _ in range(posts)]
    crossings, arcs = [], []
    for j, (u, v, k, sign) in enumerate(pieces):
        off = 1000 * (j + 1)
        twist = build_twist(k, sign)
        ends_of = dict(twist.vertices)
        at[u].extend(h + off for h in ends_of[1])
        at[v].extend(h + off for h in ends_of[2])
        crossings += [
            (cid + off, tuple(h + off for h in e), tuple(h + off for h in o))
            for cid, e, o in twist.crossings
        ]
        arcs += [(a + off, b + off) for a, b in twist.arcs]
    if rng.random() < 0.5:
        for ends_at in at:
            rng.shuffle(ends_at)
    code = make_code(
        [(w + 1, tuple(e)) for w, e in enumerate(at)], crossings, arcs
    )
    return code, pieces


def test_assemblies_of_twist_pieces_match_the_state_sum():
    # pieces of every kind, equal and unequal pairs, on 2 to 4 posts and
    # any rotation at the posts, and two assemblies side by side (a
    # skeleton of two components)
    rng = random.Random(40)
    shapes = set()
    for _ in range(30):
        code, pieces = assembly(rng, rng.randint(2, 4), 6)
        got, did = counted(yamada_r, code)
        assert got == yamada_r_state_sum(code), pieces
        assert did["split"] == 1 and did["pieces"] == len(pieces)
        kinds = {(k, sign if k else "") for _, _, k, sign in pieces}
        assert did["labels"] == len(kinds)
        shapes.update((k, sign) for _, _, k, sign in pieces)
    assert shapes == {(k, sign) for k in range(3) for sign in "+-"}
    left = renamed(assembly(rng, 2, 3)[0], "a")
    right = renamed(assembly(rng, 3, 3)[0], "b")
    both = make_code(
        left.vertices + right.vertices,
        left.crossings + right.crossings,
        left.arcs + right.arcs,
    )
    got, did = counted(yamada_r, both)
    assert did["split"] == 1
    assert got == yamada_r_state_sum(both) == yamada_r(left) * yamada_r(right)


def test_pieces_reach_past_the_skein():
    # each in milliseconds: (6, 2, 1) takes seconds by the skein alone;
    # (8, 2, 1) has 16 pieces, (9, 2, 1) 18, (7, 3, 1) 21 and (10, 3, 1)
    # 30: a skeleton that is a cycle of bundles reduces to no edge at all,
    # so chain_polynomial's guard of 16 does not bound the piece count
    for n, s, k in ((6, 2, 1), (6, 2, 2), (8, 2, 1), (9, 2, 1), (7, 3, 1), (10, 3, 1)):
        code = build_family_diagram(n, s, k, max_crossings=None)
        start = time.process_time()
        got, did = counted(yamada_r, code, max_crossings=None)
        assert time.process_time() - start < 1.0, (n, s, k)
        assert got == family_polynomial(n, s, k, "+", degree_cap=None)
        assert did == {"split": 1, "pieces": n * s, "labels": 1, "skein": 2 * n * s}


def test_a_diagram_without_branch_vertices_takes_the_skein():
    # the trefoil, the numerator closure of three half twists, with no
    # vertex at all, and a triangle of degree-2 vertices grown by R1 and
    # R2 moves to 6 crossings, as the cycle bases of the exact benchmark
    twist = build_twist(3)
    ends = [e for _, e, _ in twist.crossings]
    trefoil = make_code(
        [],
        twist.crossings,
        [a for a in twist.arcs if not {10, 11, 12, 13} & set(a)]
        + [(ends[0][0], ends[-1][3]), (ends[0][1], ends[-1][2])],
    )
    assert validate(trefoil).planar
    cycle, _ = grown(cycle_code(3), random.Random(8), 6)
    for code in (trefoil, cycle):
        got, did = counted(yamada_r, code)
        assert did == {"skein": 1}
        assert got == yamada_r_state_sum(code)


def test_a_piece_with_one_post_takes_the_skein():
    # an n = 1 member's bands start and end at its one junction
    for s, k in ((1, 4), (2, 2), (4, 1)):
        code = build_family_diagram(1, s, k)
        got, did = counted(yamada_r, code)
        assert did == {"skein": 1}
        assert got == yamada_r_state_sum(code)


def test_a_single_piece_takes_the_skein():
    # a theta whose three strands are clasped by two R2 moves: one piece
    # between its two vertices
    code = theta_code(3)
    (a, b, c) = code.arcs
    code = apply_move(code, "r2_insert", arc_a=a, arc_b=b)
    strand_c = [x for x in code.arcs if c[0] in x][0]
    strand_b = [x for x in code.arcs if b[1] in x][0]
    code = apply_move(code, "r2_insert", arc_a=strand_b, arc_b=strand_c)
    got, did = counted(yamada_r, code)
    assert did == {"skein": 1}
    assert got == yamada_r_state_sum(code)


def test_a_skeleton_of_17_pieces_splits():
    # one more piece than chain_polynomial's guard of 16 edges, but the
    # skeleton, a 17-cycle, reduces to none
    code = build_family_diagram(17, 1, 1, max_crossings=None)
    with pytest.raises(TooLarge):
        yamada_r(code)
    got, did = counted(yamada_r, code, max_crossings=None)
    assert did == {"split": 1, "pieces": 17, "labels": 1, "skein": 34}
    assert got == family_polynomial(17, 1, 1, "+", degree_cap=None)


def test_a_skeleton_past_the_chain_guard_takes_the_skein():
    # the hexagonal prism drawn with no crossing: 18 plain edges between
    # 12 branch vertices, and no rule reduces the 3-regular simple
    # skeleton, so h_edge_replace refuses it and the whole diagram goes to
    # the skein after its 18 pieces; R is then H of the graph
    pairs = (
        [(i, (i + 1) % 6) for i in range(6)]
        + [(i, 6 + i) for i in range(6)]
        + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    )
    ends: dict = {}
    for j, (u, v) in enumerate(pairs):
        ends.setdefault(u, []).append(2 * j)
        ends.setdefault(v, []).append(2 * j + 1)
    code = make_code(
        [(w + 1, tuple(ends[w])) for w in range(12)], [],
        [(2 * j, 2 * j + 1) for j in range(18)],
    )
    graph = make_graph(range(12), [(j, u, v) for j, (u, v) in enumerate(pairs)])
    got, did = counted(yamada_r, code)
    assert did == {"skein": 2 * 18 + 1}
    assert got == yamada_h(graph, max_edges=None)


def test_a_piece_whose_pair_sums_to_zero_takes_the_skein():
    # two plain edges and a crossing with a degree-1 vertex on one of its
    # strands, between the same two branch vertices: that piece's r and
    # r_closed are both 0, so h_edge_replace cannot take it, and R is 0
    code = make_code(
        [(1, (1, 2, 3, 4)), (2, (5, 6, 7)), (3, (9,))],
        [(4, (11, 12, 13, 14), (11, 13))],
        [(1, 5), (2, 6), (3, 11), (4, 14), (7, 12), (9, 13)],
    )
    validate(code)
    got, did = counted(yamada_r, code)
    assert did == {"skein": 7}
    assert got == yamada_r_state_sum(code) == LaurentPoly.zero()


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
