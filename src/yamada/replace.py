"""Composition laws: gluing invariants of spatial-graph pieces into the
invariant of the assembled object.

A piece is an open spatial graph with two marked posts.  Everything here
works from its pair of invariants (open value, value after the posts are
identified): two-vertex unions, cycle/theta/bouquet assemblies of beads,
chain-polynomial edge replacement, closed forms for twist bands, and the
cycle-of-theta-of-twists family whose roots the `roots` module chases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .chain import chain_polynomial
from .diagram import DiagramCode, make_code
from .errors import YamadaError
from .laurent import LaurentPoly, exact_div, pack, sigma, signed_slots, slot_width
from .multigraph import Multigraph, TooLarge


class ArityMismatch(YamadaError):
    pass


class BetaZero(YamadaError):
    pass


class DegreeCap(YamadaError):
    """A family member whose degree estimate (family_degree_estimate)
    exceeds the cap.  The cap is read against that estimate, which is
    not an upper bound: a member the cap lets through can have a larger
    degree."""


@dataclass(frozen=True)
class PieceInvariants:
    """Open value and closed (posts identified) value of a two-post piece."""

    r: LaurentPoly
    r_closed: LaurentPoly

    def mirrored(self) -> "PieceInvariants":
        return PieceInvariants(self.r.mirror(), self.r_closed.mirror())


def two_vertex_h(
    h1: LaurentPoly, h2: LaurentPoly, k1: LaurentPoly, k2: LaurentPoly
) -> LaurentPoly:
    """Invariant of the union of two pieces sharing both posts.

    h1, h2 are the open values, k1, k2 the closed ones; the combination
    [k1*k2 + (sigma+1)*h1*h2 + k1*h2 + k2*h1] is divisible by sigma
    whenever the inputs really come from pieces.
    """
    s = sigma()
    num = k1 * k2 + (s + 1) * (h1 * h2) + k1 * h2 + k2 * h1
    return exact_div(num, s)


def r_compose(shape: str, pieces: Sequence[PieceInvariants]) -> LaurentPoly:
    """Assemble pieces into a cycle, a theta bundle, or a bouquet.

    cycle:   [sigma^(n-1) * prod(-r_i) + prod(r_i + k_i)] / sigma^(n-1)
    theta:   [(-1)^s sigma^(s-1) prod(k_i) + prod((sigma+1) r_i + k_i)]
             / [sigma^(s-1) (1 + sigma)]
    bouquet: (-1)^(q-1) prod(k_i)

    The divisions are exact for genuine piece invariants; a remainder
    signals inconsistent inputs and surfaces as NonExactDivision.
    """
    n = len(pieces)
    if n < 1:
        raise ArityMismatch(f"{shape} needs at least one piece")
    s = sigma()
    prod_k = LaurentPoly.one()
    for p in pieces:
        prod_k = prod_k * p.r_closed
    if shape == "bouquet":
        return prod_k * (-1) ** (n - 1)
    if shape == "cycle":
        prod_neg_r = LaurentPoly.one()
        prod_rk = LaurentPoly.one()
        for p in pieces:
            prod_neg_r = prod_neg_r * (-p.r)
            prod_rk = prod_rk * (p.r + p.r_closed)
        return exact_div(s ** (n - 1) * prod_neg_r + prod_rk, s ** (n - 1))
    if shape == "theta":
        prod_mixed = LaurentPoly.one()
        for p in pieces:
            prod_mixed = prod_mixed * ((s + 1) * p.r + p.r_closed)
        num = prod_k * s ** (n - 1) * (-1) ** n + prod_mixed
        return exact_div(num, s ** (n - 1) * (s + 1))
    raise ValueError(f"unknown shape {shape!r}")


def twist_scale(k: int) -> LaurentPoly:
    """The closed-form modulus factor (-1)^(k-1) A^-k (A + A^-1) of a
    positive twist band of length k >= 1."""
    a = LaurentPoly.monomial(1, 1)
    return (a + a ** -1) * a ** -k * (-1) ** (k - 1)


def infinity_closed_form(k: int, sign: str = "+") -> PieceInvariants:
    """Exact invariants of the twist band with k crossings.

    k = 0 is the plain edge (0, sigma): extrapolating the k >= 1 closed
    form down to zero would give the two-strand band instead, which is a
    different piece.
    """
    if k < 0:
        raise ValueError("twist length must be nonnegative")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    s = sigma()
    if k == 0:
        return PieceInvariants(LaurentPoly.zero(), s)
    a = LaurentPoly.monomial(1, 1)
    r = s * a ** (-2 * k)
    r_closed = s * twist_scale(k) - r
    piece = PieceInvariants(r, r_closed)
    return piece if sign == "+" else piece.mirrored()


@lru_cache(maxsize=None)
def family_lambdas(
    s: int, k: int, sign: str
) -> tuple[LaurentPoly, LaurentPoly]:
    """The two powers of the family, lambda1 = -r and lambda2 =
    (r + r_closed) / sigma for the theta bead of s twist bands of length
    k, so that the n-cycle of beads has invariant lambda1^n + sigma
    lambda2^n.  Every n of a sweep and every root evaluation reuse them.
    Every lambda path comes through here, so s and k are checked here."""
    if s < 1 or k < 1:
        raise ValueError("family parameters must all be at least 1")
    tw = infinity_closed_form(k, sign)
    bead_r = r_compose("theta", [tw] * s)
    bead_closed = r_compose("bouquet", [tw] * s)
    return -bead_r, exact_div(bead_r + bead_closed, sigma())


def family_polynomial(
    n: int, s: int, k: int, sign: str = "+", degree_cap: int | None = 4000
) -> LaurentPoly:
    """Exact invariant of the n-cycle of theta bundles of s twist bands of
    length k.  The degree estimate is checked before the expensive cycle
    powers are formed.  n is checked here, s and k by family_lambdas."""
    l1, l2 = _capped_lambdas(n, s, k, sign, degree_cap)
    return l1**n + sigma() * l2**n


def _capped_lambdas(
    n: int, s: int, k: int, sign: str, degree_cap: int | None
) -> tuple[LaurentPoly, LaurentPoly]:
    """family_lambdas(s, k, sign) once n and the degree cap are checked,
    for family_polynomial and family_span alike."""
    if n < 1:
        raise ValueError("family parameters must all be at least 1")
    estimate = family_degree_estimate(n, s, k)
    if degree_cap is not None and estimate > degree_cap:
        raise DegreeCap(
            f"predicted degree {estimate} exceeds the cap {degree_cap}"
        )
    return family_lambdas(s, k, sign)


def family_span(n: int, s: int, k: int, sign: str = "+",
                degree_cap: int | None = 4000) -> tuple[int, int]:
    """(min_exp, max_exp) of family_polynomial(n, s, k, sign), mostly
    without forming the cycle powers, and with its checks and its
    DegreeCap, for the roots module to size a member by.

    sigma = A^-1 + 1 + A has end coefficients 1, so lambda1^n + sigma
    lambda2^n has its lowest exponent at min(n lo1, n lo2 - 1) and its
    highest at max(n hi1, n hi2 + 1), for lambda_i spanning lo_i..hi_i,
    unless the two terms meet at an end and their end coefficients
    there, c1^n + c2^n for the end coefficients c_i of lambda_i, cancel.
    Only then is the member formed (8 of the 1052 sweep-grid members of
    both signs; the tests check the span on every member with n <= 10
    and s, k <= 6)."""
    l1, l2 = _capped_lambdas(n, s, k, sign, degree_cap)
    low = (n * l1.min_exp(), n * l2.min_exp() - 1)
    high = (n * l1.max_exp(), n * l2.max_exp() + 1)
    for (a, b), e1, e2 in ((low, l1.min_exp(), l2.min_exp()),
                           (high, l1.max_exp(), l2.max_exp())):
        if a == b and l1.terms[e1] ** n + l2.terms[e2] ** n == 0:
            p = l1**n + sigma() * l2**n
            return p.min_exp(), p.max_exp()
    return min(low), max(high)


def family_degree_estimate(n: int, s: int, k: int) -> int:
    """Estimate of the coefficient span of family_polynomial, cheap
    enough to drive sweep planning without forming the cycle powers.  The
    sigma factor adds 2 to the second term's span; the estimate carries 2
    more, as the sweep and witness plans were drawn with it.  It is the
    same for both signs: the mirror A -> A^-1 keeps every span.

    It is not an upper bound: max(n span lambda1, n span lambda2 + 4)
    ignores that the two terms start at different powers, and the true
    degree is larger in 108 of the 128 cells with n <= 8 and s, k <= 4
    ((8, 1, 2) has degree 33 against an estimate of 20).  DegreeCap,
    --degree-cap and _witness_plan read it as the estimate it is; a true
    bound would move the witness plan's shells.  The true span is
    family_span's."""
    l1, l2 = family_lambdas(s, k, "+")
    return max(n * l1.span(), n * l2.span() + 4)


def h_edge_replace(
    g: Multigraph,
    labels: Mapping[int, str],
    pieces: Mapping[str, PieceInvariants],
) -> LaurentPoly:
    """Replace every edge of a labelled graph by the piece assigned to its
    label, through the chain polynomial, in Z[A, A^-1] throughout.

    The theorem reads H = (-1)^(|E|-|V|) prod_e beta_e Ch_G(w = -sigma,
    a_l = gamma_l), with alpha = ((sigma+1) r + r_closed)/sigma, beta =
    (r + r_closed)/sigma and gamma = 1 - alpha/beta of each piece.  Since
    gamma*beta = -r and sigma*beta = r + r_closed, the denominators clear:
    a label l on n_l edges turns its monomial a_l^e, times beta_l^n_l
    sigma^n_l, into x_l^e y_l^(n_l-e) with x_l = -sigma r_l and y_l = r_l
    + r_closed_l.  So each term c w^i prod a_l^e_l of Ch adds
    c (-sigma)^i prod x_l^e_l y_l^(n_l-e_l), and one exact division by
    sigma^|E| ends the sum.  The piece's beta is zero exactly when y is.

    The sum is accumulated in one Python int by Kronecker substitution
    (Harvey, JSC 2009).  Every table entry x_l^e y_l^(n_l-e) and every
    (-sigma)^i is packed once (laurent.pack; a zero entry, as x = 0 of a
    k = 0 twist gives, packs as 0).  A term is then c times one integer
    product of its packed factors, added into the accumulator shifted by
    its least exponent, and the sum is read back once by
    laurent.signed_slots.  No coefficient of the sum exceeds
    B = sum over the terms of |c| 3^i prod_l ||x_l^e_l y_l^(n_l-e_l)||_1
    in modulus (||.||_1 the sum of the moduli of the coefficients, 3 that
    of sigma), so the slots are slot_width(B) bytes wide.
    """
    uses = Counter(labels[eid] for eid, _, _ in g.edges)
    s = sigma()
    xy: dict[str, tuple[LaurentPoly, LaurentPoly]] = {}
    for lab in sorted(uses):
        if lab not in pieces:
            raise KeyError(f"no piece assigned to label {lab!r}")
        piece = pieces[lab]
        x, y = -s * piece.r, piece.r + piece.r_closed
        if y.is_zero():
            raise BetaZero(f"piece for label {lab!r} has beta = 0")
        xy[lab] = x, y
    ch = chain_polynomial(g, labels)
    top = max((exps[0] for exps in ch.terms), default=0)
    # factor tables, each at its position in the exponent vector: the
    # powers (-sigma)^i, i = 0..top, at 0, then per label l with edges
    # x_l^e y_l^(n_l - e) for e = 0..n_l; labels without edges keep
    # exponent 0 and factor 1, so they are skipped
    positions, tables = [0], [[(-s) ** i for i in range(top + 1)]]
    for j, lab in enumerate(ch.vars[1:], 1):
        if lab in xy:
            (x, y), n = xy[lab], uses[lab]
            positions.append(j)
            tables.append([x**e * y ** (n - e) for e in range(n + 1)])
    norms = [[sum(map(abs, f.terms.values())) for f in t] for t in tables]
    bound = 0
    for exps, c in ch.terms.items():
        b = abs(c)
        for j, t in zip(positions, norms):
            b *= t[exps[j]]
        bound += b
    width = slot_width(bound)
    # a zero entry takes the exponent range [0, 0]: its terms add 0, and
    # base and end still bound every term's range
    lows = [[f.min_exp() if f else 0 for f in t] for t in tables]
    base = sum(map(min, lows))
    end = sum(max(f.max_exp() if f else 0 for f in t) for t in tables)
    packed = [
        [(pack(f, width), lo) for f, lo in zip(t, low)]
        for t, low in zip(tables, lows)
    ]
    shift = 8 * width
    acc = 0
    for exps, c in ch.terms.items():
        term, lo = c, -base
        for j, t in zip(positions, packed):
            factor, low = t[exps[j]]
            term *= factor
            lo += low
        acc += term << shift * lo
    coeffs = signed_slots(acc, width, end - base + 1)
    total = LaurentPoly({base + j: c for j, c in enumerate(coeffs) if c})
    h = exact_div(total, s ** len(g.edges))
    return -h if (len(g.edges) - len(g.vertices)) % 2 else h


def build_family_diagram(
    n: int, s: int, k: int, max_crossings: int | None = 14
) -> DiagramCode:
    """Explicit diagram code of the (n, s, k) family member: n junction
    vertices in a cycle, adjacent junctions joined by a bundle of s bands,
    each band a chain of k positive crossings.

    Junction rotation: walking counterclockwise, first the outgoing
    bundle's bands bottom-to-top (lower strand end before upper), then the
    incoming bundle's bands top-to-bottom (upper before lower); this is
    the planar layout, confirmed by the genus diagnostic.
    """
    if n < 1 or s < 1 or k < 0:
        raise ValueError("family diagram needs n, s >= 1 and k >= 0")
    if max_crossings is not None and n * s * k > max_crossings:
        raise TooLarge(
            f"{n * s * k} crossings exceeds the guard {max_crossings}"
        )
    counter = n  # junction vertices take ids 1..n
    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter

    arcs = []
    crossings = []
    # per bead i (between junction i and i+1) and band j:
    # left_ends[i][j] = (low, up) at junction i, right_ends likewise
    left_ends = [[None] * s for _ in range(n)]
    right_ends = [[None] * s for _ in range(n)]
    for i in range(n):
        for j in range(s):
            if k == 0:
                lo = fresh()
                hi = fresh()
                arcs.append((lo, hi))
                left_ends[i][j] = (lo,)
                right_ends[i][j] = (hi,)
                continue
            l_up, l_low = fresh(), fresh()
            left_ends[i][j] = (l_low, l_up)
            prev_se, prev_ne = l_low, l_up
            for c in range(k):
                nw, sw, se, ne = fresh(), fresh(), fresh(), fresh()
                crossings.append((fresh(), (nw, sw, se, ne), (sw, ne)))
                arcs.append((prev_ne, nw))
                arcs.append((prev_se, sw))
                prev_se, prev_ne = se, ne
            r_low, r_up = fresh(), fresh()
            arcs.append((prev_se, r_low))
            arcs.append((prev_ne, r_up))
            right_ends[i][j] = (r_low, r_up)
    vertices = []
    for i in range(n):
        outgoing = []  # bead i, bands bottom (j = s-1) to top (j = 0)
        for j in reversed(range(s)):
            outgoing.extend(left_ends[i][j])
        incoming = []  # bead i-1, bands top to bottom, upper end first
        for j in range(s):
            incoming.extend(reversed(right_ends[(i - 1) % n][j]))
        vertices.append((i + 1, tuple(outgoing + incoming)))
    return make_code(vertices, crossings, arcs)
