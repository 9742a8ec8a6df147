"""Combinatorial diagram codes for spatial graphs and their state-sum
Yamada polynomial R.

A code lists graph vertices and crossings, each carrying counterclockwise
cyclic lists of half-edge ids, plus arcs pairing up all half-edges.  Each
crossing designates one opposite pair of its ends as the over strand.

Smoothing convention, frozen by the calibration test R[one positive
twist] = A^-2 * sigma: with ends counterclockwise [e0, e1, e2, e3] and the
over pair at positions (i, i+2), the +1 spin welds (e_i, e_{i+1}) and
(e_{i+2}, e_{i+3}), the -1 spin welds the clockwise pairs, and the 0 spin
turns the crossing into a degree-4 graph vertex.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import YamadaError
from .laurent import LaurentPoly
# yamada_h is not called here; it stays a name of this module because
# perfbench/tracing.py times the calls made through diagram.yamada_h
from .multigraph import (
    Multigraph,
    TooLarge,
    UnionFind,
    at_sigma_plus_one,
    check_id_types,
    signed_flow,
    yamada_h,
)


class DanglingHalfEdge(YamadaError):
    pass


class BadCrossingArity(YamadaError):
    """The four ends or the over designation of a crossing are malformed."""


class DuplicateHalfEdge(YamadaError):
    pass


class DuplicateSiteId(YamadaError):
    pass


class PartialAssignment(YamadaError):
    pass


class NoAttachPair(YamadaError):
    pass


class MoveNotApplicable(YamadaError):
    pass


Vertex = tuple[int, tuple[int, ...]]
Crossing = tuple[int, tuple[int, int, int, int], tuple[int, int]]


def _rotate_min_first(ends: tuple[int, ...]) -> tuple[int, ...]:
    if not ends:
        return ends
    i = ends.index(min(ends))
    return ends[i:] + ends[:i]


@dataclass(frozen=True)
class DiagramCode:
    vertices: tuple[Vertex, ...]
    crossings: tuple[Crossing, ...]
    arcs: tuple[tuple[int, int], ...]
    attach: tuple[int, int] | None = None

    def crossing_ids(self) -> list[int]:
        return [c[0] for c in self.crossings]

    def half_edges(self) -> list[int]:
        out = []
        for _, ends in self.vertices:
            out.extend(ends)
        for _, ends, _ in self.crossings:
            out.extend(ends)
        return out

    def find_crossing(self, cid: int) -> Crossing:
        for c in self.crossings:
            if c[0] == cid:
                return c
        raise MoveNotApplicable(f"no crossing with id {cid}")


def make_code(
    vertices: Iterable[tuple[int, Iterable[int]]],
    crossings: Iterable[tuple[int, Iterable[int], Iterable[int]]],
    arcs: Iterable[tuple[int, int]],
    attach: tuple[int, int] | None = None,
) -> DiagramCode:
    """Canonicalize: cyclic lists rotated so the minimum id comes first,
    arc pairs and the arc list sorted, sites sorted by id."""
    vs = tuple(
        sorted((vid, _rotate_min_first(tuple(ends))) for vid, ends in vertices)
    )
    cs = []
    for cid, ends, over in crossings:
        ends = _rotate_min_first(tuple(ends))
        over = tuple(sorted(over))
        cs.append((cid, ends, over))
    arcs_norm = tuple(sorted(tuple(sorted(a)) for a in arcs))
    return DiagramCode(vs, tuple(sorted(cs)), arcs_norm, attach)


@dataclass(frozen=True)
class DiagramReport:
    faces: int
    genus: int
    planar: bool


def validate(code: DiagramCode) -> DiagramReport:
    """Check the structural identities and diagnose planarity.

    Structural violations raise; a nonzero genus only clears the planar
    flag, since the state sum never looks at the embedding.
    """
    site_ids = [vid for vid, _ in code.vertices] + [c[0] for c in code.crossings]
    if len(site_ids) != len(set(site_ids)):
        raise DuplicateSiteId("vertex and crossing ids must be distinct")
    seen: dict[int, int] = {}
    for vid, ends in code.vertices:
        for h in ends:
            if h in seen:
                raise DuplicateHalfEdge(f"half-edge {h} appears on two sites")
            seen[h] = vid
    for cid, ends, over in code.crossings:
        if len(ends) != 4 or len(set(ends)) != 4:
            raise BadCrossingArity(f"crossing {cid} needs four distinct ends")
        for h in ends:
            if h in seen:
                raise DuplicateHalfEdge(f"half-edge {h} appears on two sites")
            seen[h] = cid
        if len(over) != 2 or not set(over) <= set(ends):
            raise BadCrossingArity(f"crossing {cid} over pair must be two of its ends")
        if (ends.index(over[1]) - ends.index(over[0])) % 4 != 2:
            raise BadCrossingArity(
                f"crossing {cid} over pair must be opposite in the cyclic order"
            )
    in_arcs: set[int] = set()
    for a, b in code.arcs:
        for h in (a, b):
            if h not in seen:
                raise DanglingHalfEdge(f"arc end {h} sits on no site")
            if h in in_arcs:
                raise DuplicateHalfEdge(f"half-edge {h} appears in two arcs")
            in_arcs.add(h)
    missing = set(seen) - in_arcs
    if missing:
        raise DanglingHalfEdge(f"half-edges not covered by arcs: {sorted(missing)}")
    if code.attach is not None:
        u, v = code.attach
        vertex_ids = {vid for vid, _ in code.vertices}
        if u == v or u not in vertex_ids or v not in vertex_ids:
            raise NoAttachPair(f"attach pair {code.attach} must name two distinct vertices")
    faces = _face_count(code)
    v_count = len(code.vertices) + len(code.crossings)
    e_count = len(code.arcs)
    mu = _site_components(code)
    genus2 = 2 * mu - (v_count - e_count + faces)
    genus = genus2 // 2
    return DiagramReport(faces=faces, genus=genus, planar=genus == 0)


def _face_count(code: DiagramCode) -> int:
    ccw_next: dict[int, int] = {}
    for _, ends in code.vertices:
        for i, h in enumerate(ends):
            ccw_next[h] = ends[(i + 1) % len(ends)]
    for _, ends, _ in code.crossings:
        for i, h in enumerate(ends):
            ccw_next[h] = ends[(i + 1) % len(ends)]
    mate: dict[int, int] = {}
    for a, b in code.arcs:
        mate[a] = b
        mate[b] = a
    unvisited = set(mate)
    faces = 0
    while unvisited:
        h = min(unvisited)
        faces += 1
        cur = h
        while cur in unvisited:
            unvisited.discard(cur)
            cur = mate[ccw_next[cur]]
    return faces


def _site_components(code: DiagramCode) -> int:
    site_of: dict[int, int] = {}
    for vid, ends in code.vertices:
        for h in ends:
            site_of[h] = vid
    for cid, ends, _ in code.crossings:
        for h in ends:
            site_of[h] = cid
    ids = [vid for vid, _ in code.vertices] + [c[0] for c in code.crossings]
    uf = UnionFind(ids)
    for a, b in code.arcs:
        uf.union(site_of[a], site_of[b])
    return len(uf.components())


def _smoothing_pairs(ends: tuple[int, ...], over: tuple[int, int], spin: int):
    i = ends.index(over[0])
    if i >= 2:
        i -= 2
    if spin == 1:
        return (
            (ends[i], ends[(i + 1) % 4]),
            (ends[(i + 2) % 4], ends[(i + 3) % 4]),
        )
    return (
        (ends[i], ends[(i - 1) % 4]),
        (ends[(i + 2) % 4], ends[(i + 1) % 4]),
    )


def _weld(
    code: DiagramCode, welds: Iterable[tuple[int, int]]
) -> tuple[list[tuple[int, int]], int]:
    """Join half-edges along the arcs and the given welds and read off the
    chains: the pairs of surviving ends (those on no weld), each pair
    smaller end first and the pairs ordered by each chain's smallest
    half-edge, and the number of chains that close up with no surviving
    end.  Each chain is walked once, from one of its ends, alternating
    arc mates and weld partners."""
    mate: dict[int, int] = {}
    for a, b in code.arcs:
        mate[a] = b
        mate[b] = a
    partner: dict[int, int] = {}
    for a, b in welds:
        partner[a] = b
        partner[b] = a
    # the walks take welds out of partner, so the surviving ends are listed
    # first, and what is left of partner afterwards lies on closed chains
    chains = []
    done = set()
    for h in [h for h in mate if h not in partner]:
        if h in done:
            continue
        lo, cur = h, mate[h]
        while cur in partner:
            nxt = partner.pop(cur)
            del partner[nxt]
            if cur < lo:
                lo = cur
            if nxt < lo:
                lo = nxt
            cur = mate[nxt]
        done.add(cur)
        if cur < lo:
            lo = cur
        chains.append((lo, h, cur) if h < cur else (lo, cur, h))
    chains.sort()
    circles = 0
    while partner:
        h, nxt = partner.popitem()
        del partner[nxt]
        cur = mate[nxt]
        while cur != h:
            nxt = partner.pop(cur)
            del partner[nxt]
            cur = mate[nxt]
        circles += 1
    return [(a, b) for _, a, b in chains], circles


def resolve(code: DiagramCode, spins: Mapping[int, int]) -> Multigraph:
    """Replace every crossing according to its spin and return the abstract
    multigraph of the state.  Strands that close up without touching any
    vertex become an isolated vertex carrying one loop, which contributes
    the same factor of sigma to H as a free circle."""
    cids = set(code.crossing_ids())
    if set(spins) != cids or any(spins[c] not in (-1, 0, 1) for c in cids):
        raise PartialAssignment("spins must map every crossing to -1, 0 or +1")
    site_of: dict[int, int] = {}
    site_ids = []
    for vid, ends in code.vertices:
        site_ids.append(vid)
        for h in ends:
            site_of[h] = vid
    welds = []
    for cid, ends, over in code.crossings:
        if spins[cid] == 0:
            site_ids.append(cid)
            for h in ends:
                site_of[h] = cid
        else:
            welds.extend(_smoothing_pairs(ends, over, spins[cid]))
    pairs, circles = _weld(code, welds)
    free = max(site_ids, default=0) + 1
    edges = [(i, site_of[a], site_of[b]) for i, (a, b) in enumerate(pairs)]
    edges += [(len(pairs) + j, free + j, free + j) for j in range(circles)]
    vertices = sorted(site_ids) + list(range(free, free + circles))
    return Multigraph(tuple(vertices), tuple(edges))


def yamada_r(code: DiagramCode, max_crossings: int | None = 14) -> LaurentPoly:
    """State-sum Yamada polynomial over all 3^c spin assignments, each state
    weighted by A^(plus spins - minus spins).

    The states of one weight w share one integer sum of their signed flow
    polynomials (signed_flow, with one memo for the whole sum), and each
    of the at most 2c + 1 sums goes through sigma + 1 once
    (at_sigma_plus_one) and is shifted by w."""
    cids = sorted(code.crossing_ids())
    if max_crossings is not None and len(cids) > max_crossings:
        raise TooLarge(
            f"{len(cids)} crossings exceeds the guard {max_crossings}"
        )
    c = len(cids)
    sums: list[list[int]] = [[] for _ in range(2 * c + 1)]
    memo: dict = {}
    for combo in itertools.product((1, -1, 0), repeat=c):
        coeffs = signed_flow(resolve(code, dict(zip(cids, combo))), memo)
        acc = sums[c + sum(combo)]
        if len(acc) < len(coeffs):
            acc.extend([0] * (len(coeffs) - len(acc)))
        for i, x in enumerate(coeffs):
            acc[i] += x
    total = LaurentPoly.zero()
    for w, acc in enumerate(sums, -c):
        total = total + at_sigma_plus_one(acc).shift(w)
    return total


def smooth_crossing(code: DiagramCode, cid: int, spin: int) -> DiagramCode:
    """Partial resolution of one crossing as a new code: spin 0 turns it
    into a graph vertex, spins +-1 weld its ends pairwise."""
    crossing = code.find_crossing(cid)
    _, ends, over = crossing
    rest = tuple(c for c in code.crossings if c[0] != cid)
    if spin == 0:
        return make_code(
            list(code.vertices) + [(cid, ends)], rest, code.arcs, code.attach
        )
    if spin not in (1, -1):
        raise PartialAssignment(f"spin must be -1, 0 or +1, got {spin}")
    welds = _smoothing_pairs(ends, over, spin)
    return _eliminate(code, {cid}, welds)


def _eliminate(
    code: DiagramCode, removed: set[int], welds: Iterable[tuple[int, int]]
) -> DiagramCode:
    """Drop the given crossings, welding their half-edges along the given
    pairs, and rebuild the arc list.  Weld chains that close on themselves
    become a fresh degree-2 vertex holding a self-arc (a free circle)."""
    arcs, circles = _weld(code, welds)
    vertices = list(code.vertices)
    ids = _fresh_ids(code, 3 * circles)
    for v, a, b in zip(ids[::3], ids[1::3], ids[2::3]):
        vertices.append((v, (a, b)))
        arcs.append((a, b))
    crossings = [c for c in code.crossings if c[0] not in removed]
    return make_code(vertices, crossings, arcs, code.attach)


def mirror(code: DiagramCode) -> DiagramCode:
    """Swap every over designation to the other diagonal."""
    cs = []
    for cid, ends, over in code.crossings:
        other = tuple(h for h in ends if h not in over)
        cs.append((cid, ends, other))
    return make_code(code.vertices, cs, code.arcs, code.attach)


def close_piece(code: DiagramCode) -> DiagramCode:
    """Merge the two attachment vertices into one, concatenating their
    counterclockwise end lists."""
    if code.attach is None:
        raise NoAttachPair("code has no attach pair")
    u, v = code.attach
    u_ends = v_ends = None
    rest = []
    for vid, ends in code.vertices:
        if vid == u:
            u_ends = ends
        elif vid == v:
            v_ends = ends
        else:
            rest.append((vid, ends))
    if u_ends is None or v_ends is None:
        raise NoAttachPair(f"attach pair {code.attach} must name two distinct vertices")
    rest.append((u, u_ends + v_ends))
    return make_code(rest, code.crossings, code.arcs, None)


def build_twist(k: int, sign: str = "+") -> DiagramCode:
    """Open twist piece: two attachment vertices joined by a band of k
    crossings of the given sign.  k = 0 is the plain edge piece."""
    if k < 0:
        raise ValueError("twist length must be nonnegative")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if k == 0:
        return make_code(
            [(1, (10,)), (2, (11,))], [], [(10, 11)], attach=(1, 2)
        )
    vertices = [(1, (10, 11)), (2, (12, 13))]
    crossings = []
    arcs = []
    # crossing i has ends counterclockwise [NW, SW, SE, NE]
    def ends_of(i: int) -> tuple[int, int, int, int]:
        base = 14 + 4 * (i - 1)
        return (base, base + 1, base + 2, base + 3)

    for i in range(1, k + 1):
        nw, sw, se, ne = ends_of(i)
        over = (sw, ne) if sign == "+" else (nw, se)
        crossings.append((100 + i, (nw, sw, se, ne), over))
    first = ends_of(1)
    arcs.append((10, first[0]))
    arcs.append((11, first[1]))
    for i in range(1, k):
        cur, nxt = ends_of(i), ends_of(i + 1)
        arcs.append((cur[2], nxt[1]))  # SE to next SW
        arcs.append((cur[3], nxt[0]))  # NE to next NW
    last = ends_of(k)
    arcs.append((last[2], 12))
    arcs.append((last[3], 13))
    return make_code(vertices, crossings, arcs, attach=(1, 2))


def apply_move(code: DiagramCode, move: str, **args) -> DiagramCode:
    """Executable local moves.  Insertions allocate fresh ids; removals
    check the local pattern and raise MoveNotApplicable when it is absent.
    The face-sharing premise of r2_insert is the caller's responsibility.
    """
    if move == "r1_insert":
        return _r1_insert(code, tuple(args["arc"]), args.get("sign", "+"))
    if move == "r1_remove":
        return _r1_remove(code, args["crossing"])
    if move == "r2_insert":
        return _r2_insert(code, tuple(args["arc_a"]), tuple(args["arc_b"]))
    if move == "r2_remove":
        return _r2_remove(code, args["crossing_a"], args["crossing_b"])
    raise MoveNotApplicable(f"unknown move {move!r}")


def _fresh_ids(code: DiagramCode, count: int) -> list[int]:
    used = set(code.half_edges())
    used.update(vid for vid, _ in code.vertices)
    used.update(c[0] for c in code.crossings)
    start = max(used, default=0) + 1
    return list(range(start, start + count))


def _find_arc(code: DiagramCode, arc: tuple[int, int]) -> tuple[int, int]:
    key = tuple(sorted(arc))
    if key not in code.arcs:
        raise MoveNotApplicable(f"arc {arc} not in the code")
    return key


def _r1_insert(code: DiagramCode, arc: tuple[int, int], sign: str) -> DiagramCode:
    h1, h2 = _find_arc(code, arc)
    if sign not in ("+", "-"):
        raise MoveNotApplicable("r1_insert sign must be '+' or '-'")
    cid, e0, e1, e2, e3 = _fresh_ids(code, 5)
    # kink: strand h1 -> e0, loop arc (e1, e2), strand e3 -> h2; the strand
    # passes the crossing on the diagonals (e0,e2) and (e1,e3)
    over = (e0, e2) if sign == "+" else (e1, e3)
    arcs = [a for a in code.arcs if a != (h1, h2)]
    arcs += [(h1, e0), (e1, e2), (e3, h2)]
    crossings = list(code.crossings) + [(cid, (e0, e1, e2, e3), over)]
    return make_code(code.vertices, crossings, arcs, code.attach)


def _kink_arc(code: DiagramCode, crossing: Crossing) -> tuple[int, int] | None:
    cid, ends, _ = crossing
    for a, b in code.arcs:
        if a in ends and b in ends:
            i, j = ends.index(a), ends.index(b)
            if (i - j) % 4 in (1, 3):
                return (a, b)
    return None


def _r1_remove(code: DiagramCode, cid: int) -> DiagramCode:
    crossing = code.find_crossing(cid)
    if _kink_arc(code, crossing) is None:
        raise MoveNotApplicable(f"crossing {cid} is not a kink")
    _, ends, _ = crossing
    welds = ((ends[0], ends[2]), (ends[1], ends[3]))
    return _eliminate(code, {cid}, welds)


def _r2_insert(code: DiagramCode, arc_a: tuple[int, int], arc_b: tuple[int, int]) -> DiagramCode:
    a_key = _find_arc(code, arc_a)
    b_key = _find_arc(code, arc_b)
    if a_key == b_key:
        raise MoveNotApplicable("r2_insert needs two distinct arcs")
    a1, a2 = a_key
    b1, b2 = b_key
    ids = _fresh_ids(code, 10)
    c_id, d_id = ids[0], ids[1]
    ce, cn, cw, cs = ids[2:6]
    de, dn, dw, ds = ids[6:10]
    # strand a passes under-side positions west-east at both crossings and
    # is the over strand at both; strand b passes south-north
    crossings = list(code.crossings) + [
        (c_id, (ce, cn, cw, cs), (ce, cw)),
        (d_id, (de, dn, dw, ds), (de, dw)),
    ]
    arcs = [x for x in code.arcs if x not in (a_key, b_key)]
    arcs += [
        (a1, cw), (ce, de), (dw, a2),
        (b1, cs), (cn, ds), (dn, b2),
    ]
    return make_code(code.vertices, crossings, arcs, code.attach)


def _r2_remove(code: DiagramCode, cid_a: int, cid_b: int) -> DiagramCode:
    ca = code.find_crossing(cid_a)
    cb = code.find_crossing(cid_b)
    if cid_a == cid_b:
        raise MoveNotApplicable("r2_remove needs two distinct crossings")
    _, ends_a, over_a = ca
    _, ends_b, over_b = cb
    bigon = [
        (x, y)
        for x, y in code.arcs
        if (x in ends_a and y in ends_b) or (x in ends_b and y in ends_a)
    ]
    for (p, q), (p2, q2) in itertools.combinations(bigon, 2):
        if p in ends_b:
            p, q = q, p
        if p2 in ends_b:
            p2, q2 = q2, p2
        ia, ia2 = ends_a.index(p), ends_a.index(p2)
        ib, ib2 = ends_b.index(q), ends_b.index(q2)
        if (ia2 - ia) % 4 not in (1, 3) or (ib2 - ib) % 4 not in (1, 3):
            continue
        # the bigon must be orientation coherent: counterclockwise at one
        # crossing pairs with clockwise at the other
        if (ia2 - ia) % 4 == (ib2 - ib) % 4:
            continue
        over_p = p in over_a
        over_q = q in over_b
        over_p2 = p2 in over_a
        over_q2 = q2 in over_b
        if over_p != over_q or over_p2 != over_q2 or over_p == over_p2:
            continue
        welds = (
            (ends_a[0], ends_a[2]),
            (ends_a[1], ends_a[3]),
            (ends_b[0], ends_b[2]),
            (ends_b[1], ends_b[3]),
        )
        return _eliminate(code, {cid_a, cid_b}, welds)
    raise MoveNotApplicable(
        f"crossings {cid_a} and {cid_b} do not bound a removable bigon"
    )


def code_to_dict(code: DiagramCode) -> dict:
    d = {
        "vertices": [
            {"id": vid, "ends": list(ends)} for vid, ends in code.vertices
        ],
        "crossings": [
            {"id": cid, "ends": list(ends), "over": list(over)}
            for cid, ends, over in code.crossings
        ],
        "arcs": [list(a) for a in code.arcs],
    }
    if code.attach is not None:
        d["attach"] = list(code.attach)
    return d


def code_from_dict(d: dict) -> DiagramCode:
    """Read a code from its JSON object and check it with validate, so a
    malformed code raises a domain error here and not in a later step."""
    try:
        vertices = [(v["id"], tuple(v["ends"])) for v in d.get("vertices", [])]
        crossings = [
            (c["id"], tuple(c["ends"]), tuple(c["over"]))
            for c in d.get("crossings", [])
        ]
        arcs = [tuple(a) for a in d["arcs"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed diagram object: {exc}") from exc
    attach = tuple(d["attach"]) if "attach" in d and d["attach"] is not None else None
    for a in arcs:
        if len(a) != 2:
            raise ValueError(f"arcs must be pairs, got {list(a)}")
    if attach is not None and len(attach) != 2:
        raise ValueError("attach must be a pair of vertex ids")
    check_id_types("site", [s[0] for s in vertices + crossings])
    check_id_types(
        "half-edge",
        [h for s in vertices + crossings for h in s[1]]
        + [h for c in crossings for h in c[2]]
        + [h for a in arcs for h in a],
    )
    code = make_code(vertices, crossings, arcs, attach)
    validate(code)
    return code


def code_to_json(code: DiagramCode) -> str:
    return json.dumps(code_to_dict(code), sort_keys=True)


def code_from_json(text: str) -> DiagramCode:
    return code_from_dict(json.loads(text))
