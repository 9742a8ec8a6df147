"""Seeded request streams for the three benchmark workloads.

Every stream is an endless iterator of Request objects drawn from one
``random.Random``; the same seed gives the same requests in the same
order.  A request carries a JSON-able ``spec`` (hashed into the input
digest), the call the benchmark times, the check it runs afterwards with
the clock stopped, and the amount of work its output represents.

Request costs span four orders of magnitude, and a run holds only a few
dozen requests, so a plain random draw would make the latency quantiles
of a run depend mostly on which inputs the seed happened to pick.  The
streams therefore fix the cost mix and let the seed draw only what
leaves a request's cost alone: ``exact`` cycles through a fixed schedule
of request kinds, sizes and moves and the seed draws the kink signs,
the piece signs on cycle templates and the graphs (a few milliseconds
each); ``sweep`` solves a fixed set of family cells and the seed draws
each cell's sign (the negative member is the mirror image, solved
through the positive one) and the order inside a round; ``density``
queries a fixed equal-area lattice of
targets and the seed draws, for each, the target or its complex
conjugate (the families have real coefficients, so both searches visit
the same cells) and the order of the queries.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import mpmath

from yamada import chain, diagram, laurent, multigraph, replace, roots

TOL = 1e-9


@dataclass
class Request:
    kind: str
    spec: object
    call: Callable[[], object]
    check: Callable[[object], str | None]
    work: Callable[[object], int]


# ---------------------------------------------------------------------------
# exact: state sums, edge replacement and graph invariants

def _cycle_code(m: int) -> diagram.DiagramCode:
    """Crossing-free m-gon, each corner a 2-valent vertex."""
    vertices = [(i, (2 * i - 1, 2 * i)) for i in range(1, m + 1)]
    arcs = [(2 * i, 2 * i + 1) for i in range(1, m)] + [(2 * m, 1)]
    return diagram.make_code(vertices, [], arcs)


def _theta_code(s: int) -> diagram.DiagramCode:
    """Two vertices joined by s parallel strands."""
    u = (1, tuple(range(1, s + 1)))
    v = (2, tuple(range(s + 1, 2 * s + 1)))
    arcs = [(i, 2 * s + 1 - i) for i in range(1, s + 1)]
    return diagram.make_code([u, v], [], arcs)


_BASES = [("cycle", m) for m in (2, 3, 4)] + [("theta", s) for s in (2, 3, 4)]


def _bead(s: int, k: int, sign: str = "+"):
    """Open and closed invariants of a theta bundle of s twist bands of
    length k, built with the public composition functions, which touch
    none of the library's caches."""
    tw = replace.infinity_closed_form(k, sign)
    return replace.r_compose("theta", [tw] * s), replace.r_compose("bouquet", [tw] * s)


def _family_request(n: int, s: int, k: int) -> Request:
    code = replace.build_family_diagram(n, s, k)

    def check(out):
        if out != replace.family_polynomial(n, s, k, "+", degree_cap=None):
            return f"family diagram ({n},{s},{k}): R differs from family_polynomial"
        return None

    return Request(
        "family_r", ["family_r", n, s, k],
        lambda: diagram.yamada_r(code), check, lambda out: 3 ** (n * s * k),
    )


def _moves_request(
    moves: random.Random, rng: random.Random, shape: str, size: int,
    crossings: int,
) -> Request:
    """A crossing-free base grown by R1 and R2 insertions on random arcs.
    An R2 pair leaves R unchanged and a kink of sign +/- multiplies it by
    (-A)^-+2, so the exact unit relating the two is known in advance.
    The moves and their arcs come from ``moves``, the kink signs from
    ``rng``: the signs change R but not the shape of the state sum."""
    base = _cycle_code(size) if shape == "cycle" else _theta_code(size)
    code, unit = base, 0
    while len(code.crossings) < crossings:
        arcs = list(code.arcs)
        if crossings - len(code.crossings) >= 2 and moves.random() < 0.5:
            a, b = moves.sample(arcs, 2)
            code = diagram.apply_move(code, "r2_insert", arc_a=a, arc_b=b)
        else:
            arc = moves.choice(arcs)
            sign = rng.choice("+-")
            code = diagram.apply_move(code, "r1_insert", arc=arc, sign=sign)
            unit += -2 if sign == "+" else 2

    def check(out):
        got = laurent.compare_up_to_unit(out, diagram.yamada_r(base))
        if got != unit:
            return f"moved {shape}({size}): unit {got}, expected {unit}"
        return None

    return Request(
        "moves_r", ["moves_r", diagram.code_to_dict(code), unit],
        lambda: diagram.yamada_r(code), check, lambda out: 3 ** crossings,
    )


def _edge_replace_request(shape: str, m: int, sign: str) -> Request:
    """Twist pieces k = 1..4 in turn on the edges of a labelled template;
    edges carrying the same piece share a label, so min(m, 4) label
    variables occur.  The order of the pieces changes the cost of the
    substitution (by a third on a theta template of eight edges, the
    largest request of a cycle), so the pieces stay sorted."""
    ks = sorted(1 + i % 4 for i in range(m))
    template = chain.labelled_cycle if shape == "cycle" else chain.labelled_theta
    g = template(m)[0]
    labels = {eid: f"t{ks[eid]}" for eid, _, _ in g.edges}
    pieces = {f"t{k}": replace.infinity_closed_form(k, sign) for k in set(ks)}

    def check(out):
        want = replace.r_compose(
            shape, [replace.infinity_closed_form(k, sign) for k in ks]
        )
        if out != want:
            return f"h_edge_replace {shape} {ks} {sign}: differs from r_compose"
        return None

    return Request(
        "h_edge_replace", ["h_edge_replace", shape, ks, sign],
        lambda: replace.h_edge_replace(g, labels, pieces), check,
        lambda out: 0,
    )


def _graph_request(rng: random.Random, edges: int) -> Request:
    """A random multigraph around a Hamiltonian cycle, hence bridgeless;
    the remaining edges are chords, parallels or loops."""
    nv = rng.randint(3, 7)
    order = list(range(nv))
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % nv]) for i in range(nv)]
    while len(pairs) < edges:
        pairs.append((rng.randrange(nv), rng.randrange(nv)))
    g = multigraph.make_graph(
        range(nv), [(i, u, v) for i, (u, v) in enumerate(pairs)]
    )

    def check(out):
        if out != multigraph.yamada_h_subset_sum(g, max_edges=None):
            return f"yamada_h on {pairs}: differs from the subset sum"
        return None

    return Request(
        "yamada_h", ["yamada_h", multigraph.graph_to_dict(g)],
        lambda: multigraph.yamada_h(g), check, lambda out: 0,
    )


def exact_stream(rng: random.Random) -> Iterator[Request]:
    """Cycles of 25 requests over five size levels: level L has state sums
    with 4 + L crossings, templates with 4 + L edges and graphs with
    10 + L edges.  Family diagrams (a finite set per crossing count, with
    state sums of very different cost), the bases of the move-grown
    diagrams and the theta templates' piece signs follow a fixed
    rotation, and the moves that grow a diagram are the same for every
    seed, so every seed sends the same sizes and shapes.  The seed draws
    the kink signs, the piece sign of every cycle template (mirror pieces
    cost the same) and the graphs."""
    triples = {
        c: [
            (n, s, k)
            for n in range(1, c + 1)
            for s in range(1, c + 1)
            for k in range(1, c + 1)
            if n * s * k == c
        ][::-1]
        for c in range(4, 9)
    }
    for cycle in itertools.count():
        for level in range(5):
            c = 4 + level
            # stride 7 is prime to every list length (6, 3, 9, 3, 10), so
            # the first cycles mix the shapes; the lists run from n = c
            # down, which puts the two largest state sums, (8, 1, 1) and
            # (4, 2, 1), into the first four cycles
            yield _family_request(*triples[c][7 * cycle % len(triples[c])])
            yield _moves_request(
                random.Random(f"moves-{cycle}-{level}"), rng,
                *_BASES[(cycle + level) % len(_BASES)], c,
            )
            sign = "+-"[cycle % 2]
            yield _edge_replace_request("cycle", c, rng.choice("+-"))
            yield _edge_replace_request("theta", c, sign)
            yield _graph_request(rng, 6 + c)


# ---------------------------------------------------------------------------
# sweep: one family cell per request, and each column's limit curve once

_GOLDEN = (math.sqrt(5) - 1) / 2
SWEEP_DEGREE_CAP = 450


def _sweep_columns() -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """The cells of each (s, k) column whose degree estimate is at most
    450, by n.  The bound is the one family_degree_estimate uses,
    recomputed from the bead so that drawing cells warms none of the
    library's caches."""
    columns = {}
    for s in range(1, 5):
        for k in range(1, 7):
            r, rc = _bead(s, k)
            a, b = r.span(), (r + rc).span()
            columns[s, k] = [
                (n, s, k)
                for n in range(1, 25)
                if max(n * a, n * b - 2 * (n - 1) + 2) <= SWEEP_DEGREE_CAP
            ]
    return columns


def _curve_check(s: int, k: int):
    """Every point of the limit curve must sit on a sign change of
    |l1| - |l2|, radially or around its circle, within a relative step far
    above the 1e-8 bisection bracket.  On the real axis the gap is even in
    the angle, so a point there may instead show a gap below 1e-9 of the
    terms."""
    r, rc = _bead(s, k)
    l1, l2 = -r, laurent.exact_div(r + rc, laurent.sigma())

    def gap(z):
        return abs(l1.eval_complex(z)) - abs(l2.eval_complex(z))

    def check(points):
        if not points:
            return f"curve ({s},{k}): no points"
        h = 1e-6
        for z in points:
            if gap(z * (1 - h)) * gap(z * (1 + h)) <= 0:
                continue
            if gap(z * cmath.exp(-1j * h)) * gap(z * cmath.exp(1j * h)) <= 0:
                continue
            a, b = abs(l1.eval_complex(z)), abs(l2.eval_complex(z))
            if abs(a - b) > 1e-9 * (a + b):
                return f"curve ({s},{k}): no sign change at {z}"
        return None

    return check


def _sweep_request(n: int, s: int, k: int, sign: str, curve: bool) -> Request:
    """One family cell, serialised as roots-scan does; with curve, the
    request also samples the limit curve of the cell's (s, k) column."""
    def call():
        recs = roots.scan_family([n], [s], [k], signs=(sign,))
        points = roots.limit_curve_points(s, k) if curve else None
        return recs, roots.records_to_csv(recs), points

    def check(out):
        recs, csv, points = out
        p = replace.family_polynomial(n, s, k, sign, degree_cap=None)
        degree = len(p.dense_coeffs()[1]) - 1
        if len(recs) != degree:
            return f"cell {(n, s, k, sign)}: {len(recs)} roots, degree {degree}"
        for r in recs:
            if (r.n, r.s, r.k, r.sign, r.degree) != (n, s, k, sign, degree):
                return f"cell {(n, s, k, sign)}: record labelled {r}"
            if not r.residual <= TOL:
                return f"cell {(n, s, k, sign)}: residual {r.residual:.3e}"
        if csv.count("\n") != len(recs) + 1:
            return f"cell {(n, s, k, sign)}: csv has the wrong row count"
        return _curve_check(s, k)(points) if curve else None

    return Request(
        "cell", ["cell", n, s, k, sign, curve], call, check,
        lambda out: sum(1 for r in out[0] if r.residual <= TOL),
    )


def _van_der_corput(i: int) -> float:
    x, f = 0.0, 0.5
    while i:
        x += f * (i & 1)
        i >>= 1
        f /= 2
    return x


def sweep_stream(rng: random.Random) -> Iterator[Request]:
    """Rounds of one cell from each of the 24 (s, k) columns.  Cell costs
    differ by orders of magnitude between columns and rise steeply with n
    inside one, so the cells are fixed: column i of round r takes the
    cell at quantile i * golden + vdc(r) (mod 1) of its cells sorted by
    degree, vdc being the van der Corput sequence 0, 1/2, 1/4, 3/4, ...
    Across columns the quantiles spread evenly and successive rounds fill
    the gaps; a column whose cells are used up starts over.  In the first
    round each request also samples its column's limit curve.  The seed
    draws the sign of every cell, which leaves its cost alone (the
    negative member's roots are the reciprocals of the positive one's),
    and the order of the cells inside each round."""
    columns = _sweep_columns()
    order = sorted(columns)
    used: dict[tuple[int, int], set[int]] = {col: set() for col in order}
    for r in itertools.count():
        round_cells = []
        for i, col in enumerate(order):
            cells, taken = columns[col], used[col]
            if len(taken) == len(cells):
                taken.clear()
            j = int((i * _GOLDEN + _van_der_corput(r)) % 1.0 * len(cells))
            while j in taken:
                j = (j + 1) % len(cells)
            taken.add(j)
            round_cells.append(cells[j])
        rng.shuffle(round_cells)
        for cell in round_cells:
            yield _sweep_request(*cell, rng.choice("+-"), r == 0)


# ---------------------------------------------------------------------------
# density: cold witness queries

EPS = 0.15
CAPS = roots.SearchCaps(k_max=3, s_max=2, n_max=8, degree_cap=300)
# The nearest root of any capped family member lies 0.25 away.
PROBE = 0.625 * cmath.exp(-1j * math.radians(75))
def _two_power_residual(rec: roots.RootRecord) -> float:
    """|T1 + T2| / (|T1| + |T2|) at the record's root, in 60 digits, for
    the member written as a cycle of n beads: T1 = (-r)^n and
    T2 = (r + r_closed)^n / sigma^(n-1), with the bead invariants built by
    r_compose from the twist pieces of the record's sign."""
    r, rc = _bead(rec.s, rec.k, rec.sign)
    with mpmath.workdps(60):
        z = mpmath.mpc(rec.root)

        def ev(p):
            return mpmath.fsum(c * z ** e for e, c in p.terms.items())

        rv, rcv = ev(r), ev(rc)
        sig = z + 1 + 1 / z
        t1 = (-rv) ** rec.n
        t2 = (rv + rcv) ** rec.n / sig ** (rec.n - 1)
        return float(abs(t1 + t2) / (abs(t1) + abs(t2)))


def _density_request(z0: complex) -> Request:
    def call():
        res = roots.density_witness(z0, EPS, CAPS)
        return res, roots.witness_to_dict(res)

    def check(out):
        res, d = out
        sign = "+" if abs(z0) <= 1.0 else "-"
        if isinstance(res, roots.Witness):
            rec = res.found
            dist = abs(rec.root - z0)
            if not (dist < EPS and dist == res.distance and d["found"]):
                return f"witness for {z0}: distance {res.distance}, recomputed {dist}"
            inside = (rec.k <= CAPS.k_max and rec.s <= CAPS.s_max
                      and rec.n <= CAPS.n_max)
            if rec.sign != sign or not inside:
                return f"witness for {z0}: cell {rec} outside the search"
            resid = _two_power_residual(rec)
            if not resid <= TOL:
                return f"witness for {z0}: mpmath residual {resid:.3e}"
            return None
        if res.closest is None or d["found"]:
            return f"query {z0}: NotFound without a closest root"
        if not (res.distance >= EPS and res.distance == abs(res.closest.root - z0)):
            return f"query {z0}: NotFound at distance {res.distance}"
        return None

    return Request(
        "query", ["query", z0.real, z0.imag], call, check, lambda out: 1
    )


# Sectors of the upper half annulus in the density lattice.
SECTORS = 10


def density_lattice() -> list[complex]:
    """Centres of an equal-area grid of the upper half of the annulus
    0.55 <= |z| <= 0.8 (SECTORS sectors by 2 rings), each followed by its
    reflection 1/z, which the negative family answers."""
    lo, hi = 0.55 ** 2, 0.8 ** 2
    targets = []
    for a in range(SECTORS):
        for b in range(2):
            z0 = math.sqrt(lo + (b + 0.5) / 2 * (hi - lo)) * cmath.exp(
                1j * math.pi * (a + 0.5) / SECTORS
            )
            targets += [z0, 1 / z0]
    return targets


def density_stream(rng: random.Random) -> Iterator[Request]:
    """Rounds of 1 + 4 * SECTORS queries.  Targets cover the annulus
    0.55 <= |z| <= 0.8 and its reflection to 1/z evenly by area, as a
    uniform draw does on average; a query's cost depends on its target
    over three orders of magnitude (a miss visits all 48 capped cells, an
    early hit one), so the targets are a lattice rather than a random
    sample.  The seed draws, for every lattice point, the point itself
    or its complex conjugate, and the order of the queries in the round.

    Each round opens with a query to PROBE, where the search misses and
    so visits every capped cell: the one-off cost of filling the
    library's cold caches (about a second) then lands on the same
    request in every run instead of on whichever target comes first."""
    lattice = density_lattice()
    while True:
        targets = [z.conjugate() if rng.random() < 0.5 else z for z in lattice]
        rng.shuffle(targets)
        yield _density_request(PROBE)
        for z0 in targets:
            yield _density_request(z0)


STREAMS = {"exact": exact_stream, "sweep": sweep_stream, "density": density_stream}
# Requests per block: runs send whole blocks, so they measure whole exact
# cycles, sweep rounds and density rounds.
BLOCK = {"exact": 25, "sweep": 24, "density": 1 + 4 * SECTORS}
