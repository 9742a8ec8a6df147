"""Combinatorial diagram codes for spatial graphs and their Yamada
polynomial R, by a skein over the diagram's blocks memoised up to
isomorphism (yamada_r: an invariant bucket key, then a dict lookup of
anchored breadth-first codes), with the state sum over all spin states
kept as its oracle (yamada_r_state_sum).

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
from .laurent import LaurentPoly, signed_slots, slot_width
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


def _face_maps(code: DiagramCode) -> tuple[dict[int, int], dict[int, int]]:
    """(ccw_next, mate): each end's counterclockwise successor at its
    site, and the other end of its arc.  A face walk goes
    h -> mate[ccw_next[h]]."""
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
    return ccw_next, mate


def _face_count(code: DiagramCode) -> int:
    ccw_next, mate = _face_maps(code)
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
    the same factor of sigma to H as a free circle; these vertices are
    numbered on from the largest integer site id, or named after the
    largest site id otherwise."""
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
    top = max(site_ids, default=0)
    if isinstance(top, int):
        free = list(range(top + 1, top + 1 + circles))
    else:
        # strings that are no site's id: of another type than the ids, or
        # sorting after the largest when the ids are strings
        free = [f"{top}#{j}" for j in range(circles)]
    edges = [(i, site_of[a], site_of[b]) for i, (a, b) in enumerate(pairs)]
    edges += [(len(pairs) + j, v, v) for j, v in enumerate(free)]
    vertices = sorted(site_ids) + free
    return Multigraph(tuple(vertices), tuple(edges))


def yamada_r(code: DiagramCode, max_crossings: int | None = 14) -> LaurentPoly:
    """Yamada polynomial R of a diagram by a memoised skein.

    R(D) = A R(D+) + A^-1 R(D-) + R(D0) on any one crossing, where D+ and
    D- weld its ends by the +1 and -1 spins and D0 makes it a graph
    vertex; this is the state sum over the 3^c spin assignments summed
    one crossing at a time.  Between expansions each diagram is cut into
    blocks, with no state sum looked at:
    - R(D1 u D2) = R(D1) R(D2) over split components;
    - R(D1 .v D2) = -R(D1) R(D2) at a graph vertex v whose removal
      disconnects the diagram, and a loop at a vertex gives a factor
      -sigma;
    - a vertex of degree 2 is suppressed (H does not see it), one of
      degree 0 gives -1, one of degree 1 or an arc whose removal
      disconnects the diagram gives R = 0 (every state graph then has a
      bridge);
    - a block without crossings is its graph's H, through signed_flow.
    A block with crossings is expanded on the crossing _next_crossing
    picks.  Every block is memoised up to isomorphism (_Skein.block), so
    isomorphic blocks reached along different branches are computed once:
    blocks are bucketed by a one-pass invariant (_classes), each bucket a
    dict from breadth-first codes (_code) to values, and a block hits a
    stored one when its code anchored at some dart of its rarest class is
    a key of its bucket, an isomorphism; the memo lives for one call.  No
    Reidemeister simplification is made.  A code whose arcs do not pair
    up its half-edges raises.

    Every value is carried as Q(D) = A^c R(D), a polynomial in A and t
    with integer coefficients (H = signed F at t = sigma + 1), packed into
    one Python int (_Skein).  The at most 2c + 1 coefficient lists in t
    of the result go through sigma + 1 once each (at_sigma_plus_one), as
    in yamada_r_state_sum, whose 3^c loop is kept as the oracle.
    max_crossings is the guard on c (None disables it)."""
    c = len(code.crossings)
    if max_crossings is not None and c > max_crossings:
        raise TooLarge(f"{c} crossings exceeds the guard {max_crossings}")
    rots, overs, mate = _darts(code)
    arcs = len(mate) // 2
    # every coefficient of Q is a sum over the 3^c states of the flow
    # coefficients of a state graph, at most 2^arcs in modulus together,
    # and its degree in t is at most the state graph's edge count
    width = slot_width((3**c) << arcs)
    sk = _Skein(8 * width, arcs + 1)
    slots = signed_slots(sk.value(rots, overs, mate), width, (2 * c + 1) * (arcs + 1))
    total = LaurentPoly.zero()
    for a in range(2 * c + 1):
        coeffs = slots[a * (arcs + 1) : (a + 1) * (arcs + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        total = total + at_sigma_plus_one(coeffs).shift(a - c)
    return total


def _darts(code: DiagramCode) -> tuple[list, list, list[int]]:
    """The code with its half-edges numbered 0, 1, ...: the sites'
    counterclockwise dart tuples (vertices first), for each site None (a
    vertex) or the parity of the positions of its over pair (a crossing),
    and the arc mate of every dart.  Raises unless the arcs pair up the
    half-edges of the sites, each on one site."""
    index: dict = {}
    rots, overs = [], []
    for _, ends in code.vertices:
        rots.append(tuple(index.setdefault(h, len(index)) for h in ends))
        overs.append(None)
    for _, ends, over in code.crossings:
        rots.append(tuple(index.setdefault(h, len(index)) for h in ends))
        overs.append(ends.index(over[0]) % 2)
    if len(index) < sum(len(r) for r in rots):
        raise DuplicateHalfEdge("a half-edge appears twice on the sites")
    mate = [-1] * len(index)
    for a, b in code.arcs:
        if a not in index or b not in index:
            raise DanglingHalfEdge(f"arc {(a, b)} has an end on no site")
        mate[index[a]] = index[b]
        mate[index[b]] = index[a]
    if 2 * len(code.arcs) != len(index) or -1 in mate:
        raise DanglingHalfEdge("the arcs do not pair up the half-edges")
    return rots, overs, mate


class _Skein:
    """The memo of one yamada_r call and the packing of its values.

    A value Q = sum q_(a,i) A^a t^i is the integer Q(2^(T t_bits),
    2^t_bits), with T = arcs + 1 slots of t_bits bits per power of A:
    sums of values, products and multiplication by powers of A are sums,
    products and shifts of the ints, exact whatever their size.  Only
    the result is read back slot by slot, and yamada_r sizes the slots
    so that its coefficients and degrees in t fit."""

    def __init__(self, t_bits: int, t_slots: int):
        self.t_bits = t_bits
        self.a_bits = t_bits * t_slots
        self.memo: dict = {}
        self.flow_memo: dict = {}

    def value(
        self, rots: list, overs: list, mate: list[int], work: list[int] | None = None
    ) -> int:
        """Packed Q of the diagram given as in _darts; rots and mate are
        changed in place.  work lists the vertices that may break the
        vertex rules below (all of them when None): the others have
        degree 3 or more and no loop."""
        n = len(rots)
        site_of = [0] * len(mate)
        for i, r in enumerate(rots):
            for d in r:
                site_of[d] = i
        # vertex rules: loops (-sigma each), degree 0 (-1), degree 1 (0),
        # degree 2 (suppressed, which may close a loop at another vertex)
        if work is None:
            work = [i for i, o in enumerate(overs) if o is None]
        live = [True] * n
        negate, circles, dead = False, 0, 0
        while work:
            i = work.pop()
            if not live[i]:
                continue
            r = rots[i]
            keep = [d for d in r if site_of[mate[d]] != i]
            if len(keep) < len(r):
                loops = (len(r) - len(keep)) // 2
                circles += loops
                negate ^= loops % 2 == 1
                r = rots[i] = tuple(keep)
            if len(r) > 2:
                continue
            if len(r) == 1:
                return 0
            live[i] = False
            dead += 1
            if not r:
                negate = not negate
                continue
            p, q = mate[r[0]], mate[r[1]]
            mate[p] = q
            mate[q] = p
            j = site_of[p]
            if j == site_of[q] and overs[j] is None:
                work.append(j)
        if dead:
            rots = [r for r, a in zip(rots, live) if a]
            overs = [o for o, a in zip(overs, live) if a]
            for i, r in enumerate(rots):
                for d in r:
                    site_of[d] = i
        v = 1
        if rots:
            split = _groups(rots, overs, mate, site_of)
            if split is None:
                return 0
            v, parts = split
            if not parts:
                v = self.block(rots, overs, mate, site_of)
            for part_rots, part_overs, part_work in parts:
                v *= self.value(part_rots, part_overs, mate, part_work)
                if not v:
                    return 0
        for _ in range(circles):
            v = (v << self.t_bits) - v
        return -v if negate else v

    def block(self, rots: list, overs: list, mate: list[int], site_of: list[int]) -> int:
        """Packed Q of a block, memoised up to isomorphism.

        The memo maps a bucket key (_classes) to a dict from the codes of
        the blocks expanded so far (_code) to their values.  The block's
        code anchored at the first dart of its rarest class is looked up
        first; only if the bucket holds other codes is its code at each
        further dart of that class formed, once each, and looked up.  A
        hit is an isomorphism.  On a miss the first code is stored with
        the block's value (expand, which changes rots and overs)."""
        pos_of, desc, key, starts = _classes(rots, overs, mate)
        code = _code(rots, mate, site_of, pos_of, desc, starts[0])
        bucket = self.memo.setdefault(key, {})
        # a value may be 0 (R = 0), so a miss is None
        v = bucket.get(code)
        if v is not None:
            return v
        if bucket:
            for d0 in starts[1:]:
                v = bucket.get(_code(rots, mate, site_of, pos_of, desc, d0))
                if v is not None:
                    return v
        v = bucket[code] = self.expand(rots, overs, mate, site_of)
        return v

    def expand(self, rots: list, overs: list, mates: list[int], site_of: list[int]) -> int:
        """Packed Q of a block given as in value (rots and overs are
        changed): H of its graph if it has no crossing, else
        Q = A^2 Q(D+) + Q(D-) + A Q(D0) on the crossing _next_crossing
        picks."""
        x = _next_crossing(rots, overs, mates, site_of)
        if x is None:
            edges = tuple(
                (d, site_of[d], site_of[mates[d]]) for r in rots for d in r if d < mates[d]
            )
            coeffs = signed_flow(Multigraph(tuple(range(len(rots))), edges), self.flow_memo)
            v = 0
            for c in reversed(coeffs):
                v = (v << self.t_bits) + c
            return v
        r = rots[x]
        a, b, c, d = r if overs[x] == 0 else r[1:] + r[:1]
        del rots[x], overs[x]
        # the vertices next to the crossing may close a loop when its ends
        # are welded (numbered as in rots, which no longer holds x)
        near = {site_of[mates[e]] for e in r} - {x}
        near = [j - (j > x) for j in near if overs[j - (j > x)] is None]
        v = 0
        for welds, shift in ((((a, b), (c, d)), 2 * self.a_bits), (((a, d), (c, b)), 0)):
            m = list(mates)
            closed = 0
            for p, q in welds:
                if m[p] == q:
                    closed += 1
                else:
                    m[m[p]], m[m[q]] = m[q], m[p]
            w = self.value(list(rots), list(overs), m, list(near))
            for _ in range(closed):
                w = (w << self.t_bits) - w
            v += w << shift
        rots.insert(x, r)
        overs.insert(x, None)
        return v + (self.value(rots, overs, list(mates), [x]) << self.a_bits)


def _next_crossing(
    rots: list, overs: list, mates: list[int], site_of: list[int]
) -> int | None:
    """The crossing to expand first: the one with the fewest darts whose
    arcs lead to other crossings, so the expansion works inward from the
    graph vertices and the loops, and of those the one with the most
    darts on its own loops.  An isomorphism keeps both counts, so only a
    tie of both falls back to the order of the sites, the first winning;
    None if there is no crossing."""
    best = pick = None
    for i, o in enumerate(overs):
        if o is not None:
            # 5 per dart to another crossing, -1 per loop dart (at most 4)
            k = 0
            for d in rots[i]:
                j = site_of[mates[d]]
                if j == i:
                    k -= 1
                elif overs[j] is not None:
                    k += 5
            if best is None or k < best:
                best, pick = k, i
    return pick


def _groups(
    rots: list, overs: list, mate: list[int], site_of: list[int]
) -> tuple[int, list[tuple[list, list, list[int]]]] | None:
    """Cut the diagram at its graph vertices: the blocks of its site graph
    (sites as nodes, arcs as edges), those that share a crossing merged
    into one group.  Returns None if an arc is a bridge, else the sign
    (-1)^(g - c) of g groups in c connected components (a connected
    diagram of g groups is g - 1 one-point unions at graph vertices,
    each a factor -1) and the parts: none when the diagram is one
    group, else for each group, in the order of its first dart, its
    rots, its overs and the indices of its split vertices.  A vertex
    shared by several groups is split into one vertex per group, with
    that group's darts; those are the only vertices that may now break
    the vertex rules.

    Blocks by Hopcroft-Tarjan lowpoints, iteratively, each arc named by
    its smaller dart; loops (only crossings have any) join their
    crossing.  The arcs of a block stay pending until it closes, and it
    closes only at a graph vertex: a block that closes at a crossing is
    left pending, and closes with the block of the crossing's parent
    arc, so blocks that share a crossing close as one group.  Whatever
    is still pending at the end of a component, the blocks that meet at
    a crossing root, is one group."""
    n = len(rots)
    index = [-1] * n
    low = [0] * n
    arc_group: dict[int, int] = {}
    pending: list[int] = []
    groups = comps = counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        comps += 1
        index[root] = low[root] = counter
        counter += 1
        # each frame holds where its tree arc sits in pending
        stack = [(root, -1, iter(rots[root]), 0)]
        while stack:
            s, parc, it, at = stack[-1]
            for d in it:
                m = mate[d]
                t = site_of[m]
                if t == s:
                    continue
                arc = d if d < m else m
                if arc == parc:
                    continue
                if index[t] < 0:
                    stack.append((t, arc, iter(rots[t]), len(pending)))
                    pending.append(arc)
                    index[t] = low[t] = counter
                    counter += 1
                    break
                if index[t] < index[s]:
                    pending.append(arc)
                    if index[t] < low[s]:
                        low[s] = index[t]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[s] < low[p]:
                        low[p] = low[s]
                    if low[s] > index[p]:
                        return None
                    close = low[s] == index[p] and overs[p] is None
                else:
                    close = bool(pending)
                if close:
                    arc_group.update(dict.fromkeys(pending[at:], groups))
                    del pending[at:]
                    groups += 1
    if comps == 1 and groups <= 1:
        # one group, or one site (a crossing with two loops)
        return 1, []
    parts: dict = {}
    for i, r in enumerate(rots):
        if overs[i] is None:
            split: dict = {}
            for d in r:
                m = mate[d]
                split.setdefault(arc_group[d if d < m else m], []).append(d)
            for g, ds in split.items():
                part = parts.setdefault(g, ([], [], []))
                if len(split) > 1:
                    part[2].append(len(part[0]))
                part[0].append(tuple(ds))
                part[1].append(None)
        else:
            own = next(
                (
                    arc_group[d if d < mate[d] else mate[d]]
                    for d in r
                    if site_of[mate[d]] != i
                ),
                ("lone", i),
            )
            part = parts.setdefault(own, ([], [], []))
            part[0].append(r)
            part[1].append(overs[i])
    return (-1 if (len(parts) - comps) % 2 else 1), list(parts.values())


def _classes(rots: list, overs: list, mate: list[int]) -> tuple:
    """One pass over a connected diagram's darts: each dart's position on
    its site and descriptor (its site's degree for a vertex, -1 or -2 for
    an over or an under dart of a crossing), the memo's bucket key, and
    the darts of the rarest class, the anchors of the memo's codes.  A
    dart's class is its descriptor and its mate's; the key is the site
    count and the count of every class, and the rarest class is the
    least class of the least count.  Renaming the sites and darts
    changes none of these, so isomorphic diagrams share a bucket, and an
    isomorphism maps the rarest class of the one onto that of the
    other."""
    pos_of = [0] * len(mate)
    desc = [0] * len(mate)
    for r, o in zip(rots, overs):
        if o is None:
            k = len(r)
            for j, d in enumerate(r):
                pos_of[d] = j
                desc[d] = k
        else:
            a, b, c, e = r
            pos_of[b] = 1
            pos_of[c] = 2
            pos_of[e] = 3
            desc[a] = desc[c] = -1 - o
            desc[b] = desc[e] = o - 2
    members: dict[tuple[int, int], list[int]] = {}
    for r in rots:
        for d in r:
            v = (desc[d], desc[mate[d]])
            ds = members.get(v)
            if ds is None:
                members[v] = [d]
            else:
                ds.append(d)
    key = (len(rots), tuple(sorted([(v, len(ds)) for v, ds in members.items()])))
    _, rarest = min([(len(ds), v) for v, ds in members.items()])
    return pos_of, desc, key, members[rarest]


def _code(
    rots: list,
    mate: list[int],
    site_of: list[int],
    pos_of: list[int],
    desc: list[int],
    d0: int,
) -> tuple[int, ...]:
    """Code of a connected diagram anchored at its dart d0 (Weinberg's
    breadth-first code of a planar map, 1966), equal for two diagrams and
    two anchors exactly when a renaming of the sites and darts maps the
    one diagram and anchor onto the other.

    From d0, a breadth-first search numbers the sites in the order it
    reaches them and each site's darts counterclockwise from the dart it
    was entered by, site i taking the dart numbers from the sum of the
    earlier degrees on.  The code lists, site by site, the site's
    descriptor (its degree for a vertex, -1 or -2 for a crossing entered
    by an over or an under dart) and the numbers of its darts' mates; it
    is therefore also the renamed diagram, a crossing's over pair at even
    positions for -1."""
    s0 = site_of[d0]
    num = [-1] * len(rots)
    num[s0] = 0
    order = [s0]
    entry = [pos_of[d0]]
    offs = [0]
    total = len(rots[s0])
    sizes = [total]
    code: list[int] = []
    add = code.append
    for i, s in enumerate(order):
        e = entry[i]
        r = rots[s]
        if e:
            r = r[e:] + r[:e]
        add(desc[r[0]])
        for d in r:
            m = mate[d]
            t = site_of[m]
            j = num[t]
            if j < 0:
                j = num[t] = len(order)
                order.append(t)
                entry.append(pos_of[m])
                offs.append(total)
                k = len(rots[t])
                sizes.append(k)
                total += k
            add(offs[j] + (pos_of[m] - entry[j]) % sizes[j])
    return tuple(code)


def yamada_r_state_sum(code: DiagramCode, max_crossings: int | None = 14) -> LaurentPoly:
    """State-sum Yamada polynomial over all 3^c spin assignments, each state
    weighted by A^(plus spins - minus spins): the definition, kept as the
    oracle of yamada_r.  Exponential by construction.

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
    """Merge the two attachment vertices into one at the corners of a face
    they share, so a planar piece closes to a planar code.

    A face walk (_face_maps) turns at a site through the corner between
    an end h and its counterclockwise successor.  On
    the first face (walking from u's ends in order) that also turns at v,
    with corners (u_i, u_i+1) at u and (v_j, v_j+1) at v, v's end list,
    read from v_j+1, goes into u's corner: the merged list is u's ends
    from u_i+1 round to u_i, then v's from v_j+1 round to v_j.  That
    splits the face in two and keeps the genus.  With no shared face the
    lists are joined as they stand."""
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
    ccw_next, mate = _face_maps(code)
    at_v = set(v_ends)
    for i, start in enumerate(u_ends):
        h = mate[ccw_next[start]]
        while h != start and h not in at_v:
            h = mate[ccw_next[h]]
        if h in at_v:
            j = v_ends.index(h)
            u_ends = u_ends[i + 1 :] + u_ends[: i + 1]
            v_ends = v_ends[j + 1 :] + v_ends[: j + 1]
            break
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
    check_id_types("site", [s[0] for s in vertices + crossings] + list(attach or ()))
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
