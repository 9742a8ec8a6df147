"""Regenerate the frozen fixtures under tests/fixtures.

Every fixture is verified before it is written: pair relations are
recomputed from scratch and the script refuses to freeze anything that
does not satisfy its claimed relation.  Running it twice produces
byte-identical files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import mpmath

from yamada.diagram import DiagramCode, code_to_dict, make_code, yamada_r
from yamada.laurent import compare_up_to_unit
from yamada.replace import family_polynomial
from yamada.roots import _family_roots_full, limit_curve_points, omega_member

OUT = pathlib.Path(__file__).resolve().parents[1] / "tests" / "fixtures"


class _Ids:
    def __init__(self, start: int = 100):
        self.next = start

    def take(self, count: int = 1):
        out = list(range(self.next, self.next + count))
        self.next += count
        return out if count > 1 else out[0]


def braid_through(word, entries, ids):
    """Thread the strands in `entries` (top half-edge ids, left to right)
    through the positive braid word (list of 1-based generator indices).
    The strand right of each generator passes over.  Returns crossings,
    arcs, and the exposed bottom ids."""
    entries = list(entries)
    crossings = []
    arcs = []
    for pos in word:
        i = pos - 1
        cid = ids.take()
        nw, sw, se, ne = ids.take(4)
        crossings.append((cid, (nw, sw, se, ne), (sw, ne)))
        arcs.append((entries[i], nw))
        arcs.append((entries[i + 1], ne))
        entries[i] = sw
        entries[i + 1] = se
    return crossings, arcs, entries


def braid_closure(word, strands: int) -> DiagramCode:
    """Plat-free closure of a positive braid word: each strand's bottom
    is joined back to its own top around the side."""
    ids = _Ids()
    firsts = [None] * strands
    carriers = [None] * strands
    crossings = []
    arcs = []
    for pos in word:
        i = pos - 1
        cid = ids.take()
        nw, sw, se, ne = ids.take(4)
        crossings.append((cid, (nw, sw, se, ne), (sw, ne)))
        for slot, top in ((i, nw), (i + 1, ne)):
            if carriers[slot] is None:
                firsts[slot] = top
            else:
                arcs.append((carriers[slot], top))
        carriers[i] = sw
        carriers[i + 1] = se
    for j in range(strands):
        if firsts[j] is None:
            raise ValueError(f"strand {j + 1} never crosses; closure would "
                             "add a free loop")
        arcs.append((carriers[j], firsts[j]))
    return make_code([], crossings, arcs)


def flat_theta(edges: int = 3) -> DiagramCode:
    ids = _Ids()
    a = ids.take(edges)
    b = ids.take(edges)
    return make_code(
        [(1, tuple(a)), (2, tuple(b))], [], [(a[i], b[i]) for i in range(edges)]
    )


def twisted_theta(edges: int = 3) -> DiagramCode:
    """Theta bundle with a positive half twist at the top vertex: the
    strands run from vertex 2 through the half-twist braid (every pair
    crosses once) and on to vertex 1."""
    ids = _Ids()
    a = ids.take(edges)
    b = ids.take(edges)
    word = []
    for width in range(edges - 1, 0, -1):
        word.extend(range(1, width + 1))
    crossings, arcs, bottoms = braid_through(word, b, ids)
    arcs = arcs + [(bottoms[i], a[i]) for i in range(edges)]
    return make_code([(1, tuple(a)), (2, tuple(b))], crossings, arcs)


def encircled_theta(edges: int = 3) -> DiagramCode:
    """Theta bundle with a circle around its neck, passing under every
    strand once; sliding the circle off over a vertex frees it."""
    ids = _Ids()
    a = ids.take(edges)
    b = ids.take(edges)
    w1, w2 = ids.take(2)
    crossings = []
    arcs = []
    carrier = w1
    for i in range(edges):
        cid = ids.take()
        top, left, bottom, right = ids.take(4)
        crossings.append((cid, (top, left, bottom, right), (top, bottom)))
        arcs.append((a[i], bottom))
        arcs.append((top, b[i]))
        arcs.append((carrier, left))
        carrier = right
    arcs.append((carrier, w2))
    return make_code(
        [(1, tuple(a)), (2, tuple(b)), (3, (w1, w2))], crossings, arcs
    )


def theta_beside_circle(edges: int = 3) -> DiagramCode:
    """Theta bundle and a disjoint marked circle."""
    ids = _Ids()
    a = ids.take(edges)
    b = ids.take(edges)
    w1, w2 = ids.take(2)
    arcs = [(a[i], b[i]) for i in range(edges)] + [(w1, w2)]
    return make_code(
        [(1, tuple(a)), (2, tuple(b)), (3, (w1, w2))], [], arcs
    )


def find_omega_false_point() -> dict:
    """Scan the square [-2, 2]^2 for a point outside the dominance
    region; the scan order makes the hit deterministic."""
    step = 0.05
    span = 80
    for iy in range(span + 1):
        for ix in range(span + 1):
            z = complex(-2.0 + ix * step, -2.0 + iy * step)
            if abs(z) < 1e-9:
                continue
            if not omega_member(z):
                return {
                    "re": z.real,
                    "im": z.imag,
                    "grid": {"min": -2.0, "max": 2.0, "step": step},
                }
    raise RuntimeError("no point outside the region in the scanned square")


def freeze_refine_cell(n: int, s: int, k: int, sign: str) -> None:
    """Freeze the roots and residuals of one family member.  The cell is
    expected to lean on the high-precision refine: the test reproduces
    the records to the bit, so it must be all roots, all certified and
    free of merged pairs."""
    roots, residuals, degree = _family_roots_full(
        n, s, k, sign, degree_cap=4000
    )
    if len(roots) != degree:
        raise RuntimeError(f"({n},{s},{k},{sign}): {len(roots)} roots, "
                           f"degree {degree}")
    if max(residuals) > 1e-9:
        raise RuntimeError(f"({n},{s},{k},{sign}): worst residual "
                           f"{max(residuals):.3e}")
    if len(set(roots)) != len(roots):
        raise RuntimeError(f"({n},{s},{k},{sign}): two roots are equal")
    rows = ",\n  ".join(
        json.dumps([z.real, z.imag, r]) for z, r in zip(roots, residuals)
    )
    head = json.dumps({"cell": [n, s, k, sign], "degree": degree})[:-1]
    path = OUT / f"refine_{n}_{s}_{k}.json"
    path.write_text(f'{head}, "roots": [\n  {rows}\n]}}\n')
    print(f"wrote {path.name} ({degree} roots)")


def freeze_oracle_roots(n: int, s: int, k: int, sign: str, bits: int = 400) -> None:
    """Freeze every root of one family member at `bits` bits: Newton on
    the exact integer polynomial from each record of the solve, at twice
    that precision (the member's huge coefficients cancel near its
    roots), until the step is below 2^-bits |z|.  An imaginary part below
    2^-bits |z| is written as 0, so that no record's noise decides the
    order.  The roots are written only if each Newton run settled, they
    are pairwise distinct (apart by more than 2^-(bits / 2) relative) and
    their count is the degree, so that they are all the roots, whatever
    the solve got wrong."""
    _, coeffs = family_polynomial(n, s, k, sign, degree_cap=None).dense_coeffs()
    degree = len(coeffs) - 1
    desc = coeffs[::-1]
    records, _, _ = _family_roots_full(n, s, k, sign, degree_cap=None)
    found = []
    with mpmath.workprec(2 * bits):
        settle = mpmath.mpf(2) ** -bits
        for z0 in records:
            z = mpmath.mpc(z0)
            for _ in range(100):
                value, slope = mpmath.polyval(desc, z, derivative=True)
                step = value / slope
                z -= step
                if abs(step) <= settle * abs(z):
                    break
            else:
                raise RuntimeError(f"({n},{s},{k},{sign}): Newton from {z0} "
                                   "did not settle")
            if abs(z.imag) <= settle * abs(z):
                z = mpmath.mpc(z.real, 0)
            found.append(z)
        if len(found) != degree:
            raise RuntimeError(f"({n},{s},{k},{sign}): {len(found)} roots, "
                               f"degree {degree}")
        gap = min(
            abs(a - b) / max(abs(a), abs(b))
            for i, a in enumerate(found)
            for b in found[i + 1 :]
        )
        if gap <= mpmath.mpf(2) ** (-bits // 2):
            raise RuntimeError(f"({n},{s},{k},{sign}): two roots are not "
                               "told apart")
        found.sort(key=lambda z: (float(mpmath.arg(z)), float(abs(z))))
        rows = ",\n  ".join(
            json.dumps([mpmath.nstr(z.real, 125), mpmath.nstr(z.imag, 125)])
            for z in found
        )
    head = json.dumps({"cell": [n, s, k, sign], "degree": degree,
                       "bits": bits})[:-1]
    path = OUT / f"oracle_{n}_{s}_{k}.json"
    path.write_text(f'{head}, "roots": [\n  {rows}\n]}}\n')
    print(f"wrote {path.name} ({degree} roots, separation {float(gap):.1e})")


def freeze_curve_digests() -> None:
    """Freeze the sha256 of the limit curve of each of the 24 (s, k)
    columns the sweep samples (s = 1-4, k = 1-6) on the default grid,
    over "re im\\n" in float.hex for each point, as the curve lines of
    scripts/record_digest.py hash them.  A change that moves one point
    of one curve by one bit changes its digest."""
    digests = {}
    for s, k in itertools.product(range(1, 5), range(1, 7)):
        rows = "".join(
            f"{z.real.hex()} {z.imag.hex()}\n" for z in limit_curve_points(s, k)
        )
        digests[f"{s} {k}"] = hashlib.sha256(rows.encode()).hexdigest()
    path = OUT / "curve_digests.json"
    path.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {path.name} ({len(digests)} curves)")


def freeze_pair(name: str, move: str, relation: str, left, right) -> None:
    rl = yamada_r(left)
    rr = yamada_r(right)
    if relation == "exact":
        if rl != rr:
            raise RuntimeError(f"{name}: pair is not exactly equal")
    elif relation == "unit":
        if compare_up_to_unit(rl, rr) is None:
            raise RuntimeError(f"{name}: pair is not unit-equivalent")
    else:
        raise ValueError(relation)
    payload = {
        "move": move,
        "relation": relation,
        "left": code_to_dict(left),
        "right": code_to_dict(right),
    }
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path.name} ({relation})")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)

    freeze_pair(
        "move_pair_r3",
        "r3",
        "exact",
        braid_closure([1, 2, 1], 3),
        braid_closure([2, 1, 2], 3),
    )
    freeze_pair(
        "move_pair_r4", "r4", "exact", encircled_theta(), theta_beside_circle()
    )
    freeze_pair(
        "move_pair_r5", "r5", "unit", twisted_theta(), flat_theta()
    )

    freeze_refine_cell(12, 4, 4, "+")
    freeze_oracle_roots(2, 10, 2, "+")
    freeze_curve_digests()

    point = find_omega_false_point()
    path = OUT / "omega_false_point.json"
    path.write_text(json.dumps(point, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path.name} at {point['re']:+.2f}{point['im']:+.2f}i")


if __name__ == "__main__":
    main()
