"""Print digests of the numerical outputs of a source tree, one per line.

    python3 scripts/record_digest.py [--tree DIR] [--seeds 1,2,3] [--polys 150]
                                     [--only KIND[,KIND]] [--per-record]
    python3 scripts/record_digest.py [--tree DIR] [--seeds 1,2,3] --match DIR

Imports ``yamada`` from ``DIR/src`` and the benchmark's request streams
from ``DIR/perfbench`` (read only; nothing is written there).
DIR defaults to the tree this script sits in.  Ten kinds of line,
printed in this order; ``--only`` keeps the named kinds (``--only
exact,resolve,graph,replace,chain`` checks the exact layer in seconds):

  cell n s k sign sha256   every distinct sweep cell of the given seeds
                           (the cells perfbench/run.py --workload sweep
                           sends at --seconds 30), over n, s, k, sign,
                           degree and float.hex of re, im and residual
                           of each record scan_family returns;
                           with --per-record, one line per record
                           instead: cell n s k sign i re im residual,
                           i the record's index in the cell and the
                           last three in float.hex
  curve s k GRID sha256    limit_curve_points(s, k) for each of the 24
                           (s, k) columns the sweep samples (s = 1-4,
                           k = 1-6) on three grids: GRID is default
                           (the default grid), 97x53 (angles=97,
                           radial=53, where the two rows either side
                           of the half turn are mirror images) and
                           refine1e-3 (refine=1e-3, where the arc
                           length stops most brackets), over float.hex
                           of re and im of each point; with
                           --per-record, one line per point instead:
                           curve s k GRID i re im, in float.hex
  density re im sha256     witness_to_dict of density_witness at the
                           benchmark's probe, each lattice target and
                           its conjugate, under the benchmark's caps
                           (one cache shared by the queries); with
                           --per-record, its found flag (1 or 0), its
                           found or closest record and its uncertified
                           count instead: density re im found n s k
                           sign re im residual uncertified, the
                           floats in float.hex
  solved re im count       len(cache) after a cold density_witness
                           call at each of those targets: the cells
                           the search solved (a cell of the negative
                           family also caches the positive member it
                           mirrors), so a diff shows skipped cells
  poly seed i d sha256     roots and residuals of _find_roots_full on
                           seeded random integer polynomials of degree
                           5-60, in float.hex; with --per-record, one
                           line per record instead, in the order
                           _find_roots_full returns them: poly seed i
                           re im residual, i the polynomial's index and
                           the last three in float.hex
  exact seed i sha256      str() of the output of request i of the
                           three exact cycles (75 requests) that
                           perfbench/run.py --workload exact sends at
                           --seconds 30 (workloads.exact_stream, seeded
                           as run.py seeds it), per seed
  resolve i sha256         str() of resolve(code, spins) for every
                           state, in yamada_r_state_sum's order, of
                           the i-th distinct diagram whose R those
                           cycles request: pins the state graphs'
                           edge order and vertex names, which key the
                           state sum's flow memo
  graph i sha256           str() of yamada_h and of flow_polynomial on
                           seeded random multigraphs with 0-7 vertices
                           and 0-12 edges (loops, bridges and isolated
                           vertices included)
  replace i sha256         str() of h_edge_replace on seeded random
                           labelled multigraphs with 1-4 vertices and
                           |V|-8 edges (loops, parallels and labels
                           shared by several edges included), each of
                           the labels a, b, c carrying a twist piece
                           (k = 0-4, either sign) or a bundle of 1-3
                           strands
  chain i sha256           str() of chain_polynomial on the labelled
                           graphs of the replace kind (i = 0-199),
                           then on the distinct cycle and theta
                           templates that the exact cycles of the
                           given seeds send to h_edge_replace,
                           labelled as workloads.py labels them

Two trees give the same numbers to the bit exactly when a ``diff`` of
their outputs is empty:

    python3 scripts/record_digest.py --tree ../parent > a.txt
    python3 scripts/record_digest.py > b.txt
    diff a.txt b.txt

A diff of two ``--only cell --per-record`` outputs names every record
that moved, with both values of each moved field; a change of root
order also shows, as changed lines at every index it shifts.  A
``poly`` line carries no record index, so two ``--only poly
--per-record`` outputs that differ only in root order give an empty
diff once both are sorted:

    diff <(sort a.txt) <(sort b.txt)

The ``solved`` and ``curve`` kinds read only the public
density_witness and limit_curve_points, so this copy run with
``--tree`` on a tree that predates a kind prints it for that tree too.

``--match OTHER`` prints no digest.  It compares the ``--per-record``
cell, curve and density lines of the tree with those of the tree OTHER
(run as a second process of this script) and, for every cell, curve and
density target whose lines differ, prints

  match n s k sign records A B move M residual RA RB
  match curve s k GRID points A B move M
  match density re im found F cell n s k sign move M
  match density re im differs found F F' cell n s k sign n' s' k' sign'
        uncertified U U' root Z Z'

with A and B the record or point counts of the tree and of OTHER, M the
worst relative distance |a - b| / |b| over the one-to-one match of the
tree's roots or points onto OTHER's, taken as multisets, that makes the
sum of those distances least (scipy's linear_sum_assignment; a repeated
root is matched copy by copy, also where one tree places its copies at
two doubles; for a density target, M is the move of its found or
closest root), and RA and RB the worst residual on each side; after
each kind, one line ``match moved C of T KIND lines``.  A density
target whose found flag, cell or uncertified count differs takes the
``differs`` line, with OTHER's values primed and Z the found or closest
root on each side (to 5 decimals).  It exits 1, naming the cell or
curve, when the counts differ, and after the density summary when some
target took a ``differs`` line.

A parent/child diff across the change that removed the package's
rational-function type passes both runs ``--only
cell,density,poly,exact,resolve,graph,replace``: the parent's copy of
this script also prints a ``rational`` kind.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

ROOT = Path(__file__).resolve().parents[1]
# the cells a sweep run sends at --seconds 30: two rounds of 24
SWEEP_CELLS = 48
# the (s, k) columns whose limit curves the sweep samples
SWEEP_S = range(1, 5)
SWEEP_K = range(1, 7)
# the grids of the curve lines, by the name that keys them
CURVE_GRIDS = {
    "default": {},
    "97x53": {"angles": 97, "radial": 53},
    "refine1e-3": {"refine": 1e-3},
}
POLY_SEED = 20240817
# the requests an exact run sends at --seconds 30: three cycles of 25
EXACT_REQUESTS = 75
GRAPH_SEED = 20240819
GRAPHS = 400
REPLACE_SEED = 20240820
REPLACES = 200


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


def _graph_rows(multigraph, rng: random.Random) -> list[str]:
    """H and the flow polynomial of one random multigraph; with up to 7
    vertices and 12 edges, loops, bridges and isolated vertices all occur."""
    nv = rng.randint(0, 7)
    ne = rng.randint(0, 12) if nv else 0
    g = multigraph.make_graph(
        range(nv), [(i, rng.randrange(nv), rng.randrange(nv)) for i in range(ne)]
    )
    return [str(multigraph.yamada_h(g)), str(multigraph.flow_polynomial(g))]


def _random_replace(yamada, rng: random.Random):
    """One random labelled multigraph and its pieces, the input of a
    replace line.  It has at least as many edges as vertices, because
    older trees raise on fewer."""
    mg, rp = yamada.multigraph, yamada.replace
    nv = rng.randint(1, 4)
    ne = rng.randint(nv, 8)
    g = mg.make_graph(
        range(nv), [(i, rng.randrange(nv), rng.randrange(nv)) for i in range(ne)]
    )
    labels = {i: rng.choice("abc") for i in range(ne)}
    pieces = {}
    for lab in "abc":
        if rng.random() < 0.7:
            pieces[lab] = rp.infinity_closed_form(rng.randint(0, 4), rng.choice("+-"))
        else:
            s = rng.randint(1, 3)
            pieces[lab] = rp.PieceInvariants(
                mg.yamada_h(mg.theta_graph(s)),
                (-1) ** (s - 1) * yamada.laurent.sigma() ** s,
            )
    return g, labels, pieces


def _cell_lines(args, workloads, yamada):
    cells = set()
    for seed in args.seeds:
        stream = workloads.sweep_stream(random.Random(f"sweep-{seed}"))
        for req in itertools.islice(stream, SWEEP_CELLS):
            _, n, s, k, sign, _ = req.spec
            cells.add((n, s, k, sign))
    for n, s, k, sign in sorted(cells):
        recs = yamada.roots.scan_family([n], [s], [k], signs=(sign,))
        if args.per_record:
            for i, r in enumerate(recs):
                yield ("cell", n, s, k, sign, i, r.root.real.hex(),
                       r.root.imag.hex(), float(r.residual).hex())
        else:
            yield "cell", n, s, k, sign, _sha(map(_record_fields, recs))


def _curve_lines(args, workloads, yamada):
    for s, k in itertools.product(SWEEP_S, SWEEP_K):
        for grid, options in CURVE_GRIDS.items():
            points = yamada.roots.limit_curve_points(s, k, **options)
            rows = [f"{z.real.hex()} {z.imag.hex()}" for z in points]
            if args.per_record:
                for i, row in enumerate(rows):
                    yield "curve", s, k, grid, i, row
            else:
                yield "curve", s, k, grid, _sha(rows)


def _density_targets(workloads) -> list[complex]:
    """The benchmark's probe, each lattice target and its conjugate."""
    targets = [workloads.PROBE]
    for z0 in workloads.density_lattice():
        targets += [z0, z0.conjugate()]
    return targets


def _density_lines(args, workloads, yamada):
    cache: dict = {}
    for z0 in _density_targets(workloads):
        res = yamada.roots.density_witness(
            z0, workloads.EPS, workloads.CAPS, cache=cache
        )
        d = yamada.roots.witness_to_dict(res)
        if args.per_record:
            r = d["root"] if d["found"] else d["closest"]
            yield ("density", z0.real.hex(), z0.imag.hex(), int(d["found"]),
                   r["n"], r["s"], r["k"], r["sign"], r["re"].hex(),
                   r["im"].hex(), float(r["residual"]).hex(), d["uncertified"])
        else:
            yield ("density", z0.real.hex(), z0.imag.hex(),
                   _sha([json.dumps(d, sort_keys=True)]))


def _solved_lines(args, workloads, yamada):
    for z0 in _density_targets(workloads):
        cache: dict = {}
        yamada.roots.density_witness(
            z0, workloads.EPS, workloads.CAPS, cache=cache
        )
        yield "solved", z0.real.hex(), z0.imag.hex(), len(cache)


def _poly_lines(args, workloads, yamada):
    rng = random.Random(POLY_SEED)
    for i in range(args.polys):
        degree = rng.randint(5, 60)
        p = _random_poly(yamada.laurent, rng, degree)
        z, res, _ = yamada.roots._find_roots_full(p)
        rows = [f"{w.real.hex()} {w.imag.hex()} {float(r).hex()}"
                for w, r in zip(z, res)]
        if args.per_record:
            for row in rows:
                yield "poly", POLY_SEED, i, row
        else:
            yield "poly", POLY_SEED, i, degree, _sha(rows)


def _exact_lines(args, workloads, yamada):
    for seed in args.seeds:
        stream = workloads.exact_stream(random.Random(f"exact-{seed}"))
        for i, req in enumerate(itertools.islice(stream, EXACT_REQUESTS)):
            yield "exact", seed, i, _sha([str(req.call())])


def _resolve_lines(args, workloads, yamada):
    diagram, replace = yamada.diagram, yamada.replace
    codes = []
    for seed in args.seeds:
        stream = workloads.exact_stream(random.Random(f"exact-{seed}"))
        for req in itertools.islice(stream, EXACT_REQUESTS):
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


def _graph_lines(args, workloads, yamada):
    rng = random.Random(GRAPH_SEED)
    for i in range(GRAPHS):
        yield "graph", i, _sha(_graph_rows(yamada.multigraph, rng))


def _replace_lines(args, workloads, yamada):
    rng = random.Random(REPLACE_SEED)
    for i in range(REPLACES):
        out = yamada.replace.h_edge_replace(*_random_replace(yamada, rng))
        yield "replace", i, _sha([str(out)])


def _chain_lines(args, workloads, yamada):
    chain = yamada.chain
    rng = random.Random(REPLACE_SEED)
    graphs = [_random_replace(yamada, rng)[:2] for _ in range(REPLACES)]
    templates = {"cycle": chain.labelled_cycle, "theta": chain.labelled_theta}
    shapes = set()
    for seed in args.seeds:
        stream = workloads.exact_stream(random.Random(f"exact-{seed}"))
        for req in itertools.islice(stream, EXACT_REQUESTS):
            if req.kind == "h_edge_replace":
                shapes.add((req.spec[1], tuple(req.spec[2])))
    for shape, ks in sorted(shapes):
        g = templates[shape](len(ks))[0]
        graphs.append((g, {eid: f"t{ks[eid]}" for eid, _, _ in g.edges}))
    for i, (g, labels) in enumerate(graphs):
        yield "chain", i, _sha([str(chain.chain_polynomial(g, labels))])


def _by_key(lines, width: int, skip: int = 0) -> dict:
    """Per-record lines of one kind as lists of their value fields, by
    the `width` fields after the kind; `skip` more fields (a record
    index) are dropped."""
    out: dict = {}
    for line in lines:
        fields = str(line).split()
        key = tuple(fields[1 : 1 + width])
        out.setdefault(key, []).append(tuple(fields[1 + width + skip :]))
    return out


def _complex(rows, at: int = 0) -> np.ndarray:
    """The complex numbers whose real and imaginary parts are the hex
    fields at and at + 1 of the rows."""
    return np.array([complex(float.fromhex(r[at]), float.fromhex(r[at + 1]))
                     for r in rows])


def _worst_move(a: np.ndarray, b: np.ndarray) -> float:
    """The worst |a_i - b_j| / |b_j| over the one-to-one match of the
    roots a onto the roots b (two multisets of one size) that makes the
    sum of those relative distances least."""
    cost = np.abs(a[:, None] - b[None, :]) / np.abs(b)[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _moved(ours: dict, theirs: dict, kind: str):
    """The keys whose lines differ between the two trees, in order, after
    checking that both trees have the same keys."""
    if ours.keys() != theirs.keys():
        raise SystemExit(f"the two trees give different {kind} keys")
    return [key for key in sorted(ours) if ours[key] != theirs[key]]


def _match_lines(args, workloads, yamada):
    """The match lines of --match; see the module docstring."""
    per_record = argparse.Namespace(**{**vars(args), "per_record": True})
    other = subprocess.run(
        [sys.executable, __file__, "--tree", str(args.match), "--only",
         "cell,curve,density", "--per-record",
         "--seeds", ",".join(map(str, args.seeds))],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    shapes = {"cell": (4, 1), "curve": (3, 1), "density": (2, 0)}
    differs = 0
    for kind, (width, skip) in shapes.items():
        ours = _by_key(
            (" ".join(map(str, f))
             for f in SECTIONS[kind](per_record, workloads, yamada)),
            width, skip,
        )
        theirs = _by_key(
            (line for line in other if line.startswith(kind + " ")),
            width, skip,
        )
        moved = _moved(ours, theirs, kind)
        for key in moved:
            a, b = ours[key], theirs[key]
            if kind == "density":
                za, zb = _complex(a, 5)[0], _complex(b, 5)[0]
                # found flag, cell and uncertified count must agree
                if a[0][:5] + a[0][8:] != b[0][:5] + b[0][8:]:
                    differs += 1
                    yield ("match", kind, *key, "differs",
                           "found", a[0][0], b[0][0],
                           "cell", *a[0][1:5], *b[0][1:5],
                           "uncertified", a[0][8], b[0][8],
                           "root", f"{za:.5f}", f"{zb:.5f}")
                    continue
                move = abs(za - zb) / abs(zb)
                yield ("match", kind, *key, "found", a[0][0],
                       "cell", *a[0][1:5], "move", f"{move:.3e}")
                continue
            if len(a) != len(b):
                raise SystemExit(f"{kind} {key}: {len(a)} records against"
                                 f" {len(b)}")
            move = _worst_move(_complex(a), _complex(b))
            if kind == "curve":
                yield ("match", kind, *key, "points", len(a), len(b), "move",
                       f"{move:.3e}")
            else:
                worst = [max(float.fromhex(r[2]) for r in rows)
                         for rows in (a, b)]
                yield ("match", *key, "records", len(a), len(b), "move",
                       f"{move:.3e}", "residual", f"{worst[0]:.3e}",
                       f"{worst[1]:.3e}")
        yield "match", "moved", len(moved), "of", len(ours), f"{kind} lines"
    if differs:
        raise SystemExit(f"{differs} density lines differ in found flag, cell"
                         " or uncertified count")


# the kinds of line, in the order they are printed
SECTIONS = {
    "cell": _cell_lines,
    "curve": _curve_lines,
    "density": _density_lines,
    "solved": _solved_lines,
    "poly": _poly_lines,
    "exact": _exact_lines,
    "resolve": _resolve_lines,
    "graph": _graph_lines,
    "replace": _replace_lines,
    "chain": _chain_lines,
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
    ap.add_argument("--per-record", action="store_true",
                    help="print one cell or poly line per record instead"
                         " of one per cell or polynomial")
    ap.add_argument("--match", type=Path, metavar="DIR",
                    help="match the moved cells' records against the tree DIR")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]

    import workloads
    import yamada.chain
    import yamada.diagram
    import yamada.laurent
    import yamada.multigraph
    import yamada.replace
    import yamada.roots

    if args.match:
        for fields in _match_lines(args, workloads, yamada):
            print(*fields)
        return 0
    for kind, lines in SECTIONS.items():
        if kind in args.only:
            for fields in lines(args, workloads, yamada):
                print(*fields)
    return 0


if __name__ == "__main__":
    sys.exit(main())
