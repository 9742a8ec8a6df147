"""Print digests of the numerical outputs of a source tree, one per line.

    python3 scripts/record_digest.py [--tree DIR] [--seeds 1,2,3] [--polys 150]
                                     [--only KIND[,KIND]]

Imports ``yamada`` from ``DIR/src`` and the benchmark's request streams
from ``DIR/perfbench`` (read only; nothing is written there).
DIR defaults to the tree this script sits in.  Seven kinds of line,
printed in this order; ``--only`` keeps the named kinds (``--only
exact,resolve,graph`` checks the exact layer in seconds):

  cell n s k sign sha256   every distinct sweep cell of the given seeds
                           (the cells perfbench/run.py --workload sweep
                           sends at --seconds 30), over n, s, k, sign,
                           degree and float.hex of re, im and residual
                           of each record scan_family returns
  density re im sha256     witness_to_dict of density_witness at the
                           benchmark's probe, each lattice target and
                           its conjugate, under the benchmark's caps
  poly seed i d sha256     roots and residuals of _find_roots_full on
                           seeded random integer polynomials of degree
                           5-60, in float.hex
  exact seed i sha256      str() of the output of request i of one
                           exact cycle (workloads.exact_stream, seeded
                           as perfbench/run.py seeds it), per seed
  resolve i sha256         str() of resolve(code, spins) for every
                           state, in yamada_r's order, of the i-th
                           distinct diagram whose state sum those
                           cycles request: pins the state graphs' edge
                           order and vertex names, which key the H memo
  rational i sha256        num.to_text() and den.to_text() of seeded
                           RationalFn values built with planted common
                           factors, and of their sum, product and
                           quotient
  graph i sha256           str() of yamada_h and of flow_polynomial on
                           seeded random multigraphs with 0-7 vertices
                           and 0-12 edges (loops, bridges and isolated
                           vertices included)

Two trees give the same numbers to the bit exactly when a ``diff`` of
their outputs is empty:

    python3 scripts/record_digest.py --tree ../parent > a.txt
    python3 scripts/record_digest.py > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the cells a sweep run sends at --seconds 30: two rounds of 24
SWEEP_CELLS = 48
POLY_SEED = 20240817
# the requests of one exact cycle
EXACT_CYCLE = 25
RATIONAL_SEED = 20240818
RATIONALS = 200
GRAPH_SEED = 20240819
GRAPHS = 400


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()


def _record_fields(r) -> str:
    return " ".join(
        [str(r.n), str(r.s), str(r.k), r.sign, str(r.degree),
         r.root.real.hex(), r.root.imag.hex(), float(r.residual).hex()]
    )


def _random_poly(laurent, rng: random.Random, degree: int):
    terms = {degree: rng.choice([-1, 1]) * rng.randint(1, 9)}
    terms[0] = rng.choice([-1, 1]) * rng.randint(1, 9)
    for e in range(1, degree):
        c = rng.randint(-9, 9)
        if c:
            terms[e] = c
    return laurent.LaurentPoly(terms)


def _rational_rows(laurent, rng: random.Random) -> list[str]:
    """Two fractions over a planted common factor each, then their sum,
    product and quotient, in canonical text."""
    def fraction():
        g = _random_poly(laurent, rng, rng.randint(1, 3)) * rng.randint(1, 6)
        num, den = (
            _random_poly(laurent, rng, rng.randint(1, 5)).shift(rng.randint(-3, 3))
            for _ in range(2)
        )
        return laurent.RationalFn(num * g, den * g)

    x, y = fraction(), fraction()
    values = [x, y, x + y, x * y, x / y]
    return [f"{v.num.to_text()} | {v.den.to_text()}" for v in values]


def _graph_rows(multigraph, rng: random.Random) -> list[str]:
    """H and the flow polynomial of one random multigraph; with up to 7
    vertices and 12 edges, loops, bridges and isolated vertices all occur."""
    nv = rng.randint(0, 7)
    ne = rng.randint(0, 12) if nv else 0
    g = multigraph.make_graph(
        range(nv), [(i, rng.randrange(nv), rng.randrange(nv)) for i in range(ne)]
    )
    return [str(multigraph.yamada_h(g)), str(multigraph.flow_polynomial(g))]


def _cell_lines(args, workloads, yamada):
    cells = set()
    for seed in args.seeds:
        stream = workloads.sweep_stream(random.Random(f"sweep-{seed}"))
        for req in itertools.islice(stream, SWEEP_CELLS):
            _, n, s, k, sign, _ = req.spec
            cells.add((n, s, k, sign))
    for n, s, k, sign in sorted(cells):
        recs = yamada.roots.scan_family([n], [s], [k], signs=(sign,))
        yield "cell", n, s, k, sign, _sha(map(_record_fields, recs))


def _density_lines(args, workloads, yamada):
    cache: dict = {}
    targets = [workloads.PROBE]
    for z0 in workloads.density_lattice():
        targets += [z0, z0.conjugate()]
    for z0 in targets:
        res = yamada.roots.density_witness(
            z0, workloads.EPS, workloads.CAPS, cache=cache
        )
        d = json.dumps(yamada.roots.witness_to_dict(res), sort_keys=True)
        yield "density", z0.real.hex(), z0.imag.hex(), _sha([d])


def _poly_lines(args, workloads, yamada):
    rng = random.Random(POLY_SEED)
    for i in range(args.polys):
        degree = rng.randint(5, 60)
        p = _random_poly(yamada.laurent, rng, degree)
        z, res, _ = yamada.roots._find_roots_full(p, tol=None)
        rows = [f"{w.real.hex()} {w.imag.hex()} {float(r).hex()}"
                for w, r in zip(z, res)]
        yield "poly", POLY_SEED, i, degree, _sha(rows)


def _exact_lines(args, workloads, yamada):
    for seed in args.seeds:
        stream = workloads.exact_stream(random.Random(f"exact-{seed}"))
        for i, req in enumerate(itertools.islice(stream, EXACT_CYCLE)):
            yield "exact", seed, i, _sha([str(req.call())])


def _resolve_lines(args, workloads, yamada):
    diagram, replace = yamada.diagram, yamada.replace
    codes = []
    for seed in args.seeds:
        stream = workloads.exact_stream(random.Random(f"exact-{seed}"))
        for req in itertools.islice(stream, EXACT_CYCLE):
            if req.kind == "family_r":
                codes.append(replace.build_family_diagram(*req.spec[1:]))
            elif req.kind == "moves_r":
                codes.append(diagram.code_from_dict(req.spec[1]))
    for i, code in enumerate(dict.fromkeys(codes)):
        cids = sorted(code.crossing_ids())
        states = itertools.product((1, -1, 0), repeat=len(cids))
        yield "resolve", i, _sha(
            str(diagram.resolve(code, dict(zip(cids, combo)))) for combo in states
        )


def _rational_lines(args, workloads, yamada):
    rng = random.Random(RATIONAL_SEED)
    for i in range(RATIONALS):
        yield "rational", i, _sha(_rational_rows(yamada.laurent, rng))


def _graph_lines(args, workloads, yamada):
    rng = random.Random(GRAPH_SEED)
    for i in range(GRAPHS):
        yield "graph", i, _sha(_graph_rows(yamada.multigraph, rng))


# the kinds of line, in the order they are printed
SECTIONS = {
    "cell": _cell_lines,
    "density": _density_lines,
    "poly": _poly_lines,
    "exact": _exact_lines,
    "resolve": _resolve_lines,
    "rational": _rational_lines,
    "graph": _graph_lines,
}


def _kinds_arg(text: str) -> set[str]:
    kinds = set(text.split(","))
    unknown = sorted(kinds - set(SECTIONS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown kind {', '.join(unknown)}; choose from {', '.join(SECTIONS)}"
        )
    return kinds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--seeds", type=lambda t: [int(x) for x in t.split(",")],
                    default=[1, 2, 3])
    ap.add_argument("--polys", type=int, default=150)
    ap.add_argument("--only", type=_kinds_arg, default=set(SECTIONS),
                    help="comma-separated kinds of line to print")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]

    import workloads
    import yamada.diagram
    import yamada.laurent
    import yamada.multigraph
    import yamada.replace
    import yamada.roots

    for kind, lines in SECTIONS.items():
        if kind in args.only:
            for fields in lines(args, workloads, yamada):
                print(*fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
