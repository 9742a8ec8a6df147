"""Audit the family solve on cells past the benchmark's grid, or the
exclusion tests of the density search.

    python3 scripts/audit.py [--cells SET[,SET...]] [--against DIR]
                             [--json OUT] [--tree DIR]
    python3 scripts/audit.py --density [--targets N] [--against DIR]
                             [--json OUT] [--tree DIR]

Solves each cell (n, s, k) of the sets, sign +, with
``roots._family_roots_full(n, s, k, degree_cap=None)``, importing
``yamada`` from ``DIR/src`` (``--tree``, default the tree this script
sits in), and prints one line per cell:

  cell n s k degree D path P above A worst W refined R seconds T

D is the member's degree, P the configuration the solve kept (``half``
or ``fallback``, read from ``roots.COUNTS``; ``-`` for a member that
never tries the half one), A the records with a residual above 1e-9, W
the worst residual, R the points the solve sent to the 240-bit refine
(``roots.COUNTS["refined"]``; a tree that does not count them reads 0)
and T the process time of the solve.  A cell with frozen oracle roots
(``tests/fixtures/oracle_<n>_<s>_<k>.json`` of the tree this script
sits in, so that both trees of ``--against`` meet the same oracle)
prints ``oracle M of N`` before its seconds: M of its N oracle roots z
have exactly one record within 1e-9 |z|.  A last line sums them:

  total cells C half H fallback F above A refined R seconds T

A SET is ``past-grid``, the 91 members with n = 3-6, s = 5-8, k = 1-8
and family_degree_estimate at most 260; ``named``, the cells (2, 10,
2), (8, 5, 6), (16, 5, 6) and (24, 5, 6); ``past-cap``, the members n
= 3 and 4 of the columns (17, 2), (17, 4), (17, 6), (18, 7), (19, 5),
(20, 6) and (22, 3), whose coefficients pass 2^53, and (2, 16, 6); or
one cell ``n:s:k``.  The default is ``past-grid``.

``--density`` runs one cold ``roots.density_witness`` at each of the 81
targets of the density benchmark (its probe, each lattice target and
its conjugate, read from ``DIR/perfbench/workloads.py`` with the
benchmark's eps and caps; nothing is written there) and prints one line
per target (``--targets N`` keeps the first N):

  target re im columns C ruled_re R ruled_im I arcs A solved S seconds T

C counts the (s, k) columns the exclusion test (``roots._dominated``)
was run on, R and I the members it ruled out by dominance and by the
argument of T2 / T1 alone, A the arc discs it evaluated (all read from
``roots.COUNTS``; a tree that does not count arcs reads 0), S the cells
the search solved (the size of its cache, as ``record_digest.py``'s
``solved`` lines count them) and T the process time of the query.  A
last line sums them:

  total targets N columns C ruled_re R ruled_im I arcs A solved S seconds T

``--against DIR`` audits the same cells or targets on the tree DIR too
(a checkout of another commit, run as a second process of this script)
and prints, for every cell whose degree, path, count above 1e-9, worst
residual, refined count or oracle count differs,

  changed n s k degree D D' path P P' above A A' worst W W' refined R R'
          oracle M M'

(M and M' read ``-`` for a cell without frozen roots)

or every target whose counts differ,

  changed re im columns C C' ruled_re R R' ruled_im I I' arcs A A'
  solved S S'

with the primed values DIR's, then its total line and one line

  against changed X more_above Y half_to_fallback Z
  against changed X more_solved Y fewer_ruled Z

counting the changed cells, the cells with more records above 1e-9 than
on DIR and those that went from half on DIR to fallback; or the changed
targets, those that solve more cells than on DIR and those with fewer
members ruled out.  Every count but the seconds is the same on two runs
of one tree.  ``--json OUT`` writes both audits, the changed cells or
targets and the commit of each tree (scripts/compare.py's commit_of) to
OUT.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare import commit_of

ROOT = Path(__file__).resolve().parents[1]
NAMED = [(2, 10, 2), (8, 5, 6), (16, 5, 6), (24, 5, 6)]
PAST_CAP = [
    (n, s, k)
    for s, k in ((17, 2), (17, 4), (17, 6), (18, 7), (19, 5), (20, 6), (22, 3))
    for n in (3, 4)
] + [(2, 16, 6)]
TOL = 1e-9
FIELDS = ("degree", "path", "above", "worst", "refined", "oracle")
FIXTURES = ROOT / "tests" / "fixtures"
# the COUNTS of the exclusion test that a density line reports
DENSITY_COUNTS = ("columns", "ruled_re", "ruled_im", "arcs")
DENSITY_FIELDS = DENSITY_COUNTS + ("solved",)


def cells_of(spec: str) -> list[tuple[int, int, int]]:
    """The cells of a comma-separated list of sets, in order."""
    from yamada.replace import family_degree_estimate

    out = []
    for item in spec.split(","):
        if item == "past-grid":
            out += [
                (n, s, k)
                for s in range(5, 9)
                for k in range(1, 9)
                for n in range(3, 7)
                if family_degree_estimate(n, s, k) <= 260
            ]
        elif item == "named":
            out += NAMED
        elif item == "past-cap":
            out += PAST_CAP
        else:
            parts = item.split(":")
            if len(parts) != 3 or not all(p.isdigit() for p in parts):
                raise SystemExit(f"not a cell set: {item!r}")
            out.append(tuple(int(p) for p in parts))
    return out


def audit(spec: str) -> list[dict]:
    """One record per cell of spec, solved in this process."""
    from yamada import roots

    out = []
    for n, s, k in cells_of(spec):
        before = dict(roots.COUNTS)
        start = time.process_time()
        records, residuals, degree = roots._family_roots_full(
            n, s, k, "+", degree_cap=None
        )
        seconds = time.process_time() - start
        path = "-"
        for name in ("half", "fallback"):
            if roots.COUNTS[name] > before.get(name, 0):
                path = name
        out.append({
            "n": n, "s": s, "k": k, "degree": degree, "path": path,
            "above": sum(r > TOL for r in residuals),
            "worst": max(residuals, default=0.0),
            "refined": roots.COUNTS["refined"] - before.get("refined", 0),
            "oracle": oracle_count(n, s, k, records),
            "seconds": seconds,
        })
    return out


def oracle_count(n: int, s: int, k: int, records: list) -> list[int] | None:
    """[M, N] for the cell's N frozen oracle roots (sign +), M of them
    with exactly one record within TOL |z|; None without a fixture."""
    path = FIXTURES / f"oracle_{n}_{s}_{k}.json"
    if not path.exists():
        return None
    fixture = json.loads(path.read_text())
    if fixture["cell"] != [n, s, k, "+"]:
        raise SystemExit(f"{path} holds the cell {fixture['cell']}")
    oracle = [complex(float(re), float(im)) for re, im in fixture["roots"]]
    hits = sum(
        sum(abs(r - z) <= TOL * abs(z) for r in records) == 1 for z in oracle
    )
    return [hits, len(oracle)]


def _oracle(c: dict) -> str:
    return "-" if c["oracle"] is None else str(c["oracle"][0])


def audit_density(tree: Path, count: int | None) -> list[dict]:
    """One record per density benchmark target, the first count of them
    (all for None), each a cold query in this process."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    from yamada import roots

    targets = [workloads.PROBE]
    for z0 in workloads.density_lattice():
        targets += [z0, z0.conjugate()]
    out = []
    for z0 in targets[:count]:
        before = dict(roots.COUNTS)
        cache: dict = {}
        start = time.process_time()
        roots.density_witness(z0, workloads.EPS, workloads.CAPS, cache=cache)
        seconds = time.process_time() - start
        out.append({
            "re": z0.real, "im": z0.imag,
            **{f: roots.COUNTS[f] - before.get(f, 0) for f in DENSITY_COUNTS},
            "solved": len(cache), "seconds": seconds,
        })
    return out


def totals(cells: list[dict]) -> dict:
    return {
        "cells": len(cells),
        "half": sum(c["path"] == "half" for c in cells),
        "fallback": sum(c["path"] == "fallback" for c in cells),
        "above": sum(c["above"] for c in cells),
        "refined": sum(c["refined"] for c in cells),
        "seconds": sum(c["seconds"] for c in cells),
    }


def density_totals(targets: list[dict]) -> dict:
    return {
        "targets": len(targets),
        **{f: sum(t[f] for t in targets) for f in DENSITY_FIELDS},
        "seconds": sum(t["seconds"] for t in targets),
    }


def _pairs(row: dict, fields) -> str:
    return " ".join(f"{f} {row[f]}" for f in fields)


def print_audit(cells: list[dict]) -> None:
    for c in cells:
        print(f"cell {c['n']} {c['s']} {c['k']} degree {c['degree']} path"
              f" {c['path']} above {c['above']} worst {c['worst']:.3e}"
              f" refined {c['refined']}"
              + ("" if c["oracle"] is None
                 else f" oracle {c['oracle'][0]} of {c['oracle'][1]}")
              + f" seconds {c['seconds']:.3f}")
    t = totals(cells)
    print(f"total cells {t['cells']} half {t['half']} fallback"
          f" {t['fallback']} above {t['above']} refined {t['refined']}"
          f" seconds {t['seconds']:.3f}")


def print_density(targets: list[dict]) -> None:
    for t in targets:
        print(f"target {t['re']:+.6f} {t['im']:+.6f}"
              f" {_pairs(t, DENSITY_FIELDS)} seconds {t['seconds']:.3f}")
    t = density_totals(targets)
    print(f"total targets {t['targets']} {_pairs(t, DENSITY_FIELDS)}"
          f" seconds {t['seconds']:.3f}")


def against_cells(this: list[dict], theirs: dict) -> list[dict]:
    """Print the cells that differ from DIR's and the summary lines."""
    changed = []
    more = down = 0
    for a, b in zip(this, theirs["audit"]):
        if all(a[f] == b[f] for f in FIELDS):
            continue
        changed.append({"this": a, "against": b})
        more += a["above"] > b["above"]
        down += b["path"] == "half" and a["path"] == "fallback"
        print(f"changed {a['n']} {a['s']} {a['k']}"
              f" degree {a['degree']} {b['degree']}"
              f" path {a['path']} {b['path']}"
              f" above {a['above']} {b['above']}"
              f" worst {a['worst']:.3e} {b['worst']:.3e}"
              f" refined {a['refined']} {b['refined']}"
              f" oracle {_oracle(a)} {_oracle(b)}")
    t = theirs["totals"]
    print(f"total against cells {t['cells']} half {t['half']} fallback"
          f" {t['fallback']} above {t['above']} refined {t['refined']}"
          f" seconds {t['seconds']:.3f}")
    print(f"against changed {len(changed)} more_above {more}"
          f" half_to_fallback {down}")
    return changed


def against_density(this: list[dict], theirs: dict) -> list[dict]:
    """Print the targets whose counts differ from DIR's and the summary
    lines."""
    changed = []
    more = fewer = 0
    for a, b in zip(this, theirs["audit"]):
        if all(a[f] == b[f] for f in DENSITY_FIELDS):
            continue
        changed.append({"this": a, "against": b})
        more += a["solved"] > b["solved"]
        fewer += (a["ruled_re"] + a["ruled_im"]
                  < b["ruled_re"] + b["ruled_im"])
        print(f"changed {a['re']:+.6f} {a['im']:+.6f} "
              + " ".join(f"{f} {a[f]} {b[f]}" for f in DENSITY_FIELDS))
    t = theirs["totals"]
    print(f"total against targets {t['targets']} {_pairs(t, DENSITY_FIELDS)}"
          f" seconds {t['seconds']:.3f}")
    print(f"against changed {len(changed)} more_solved {more}"
          f" fewer_ruled {fewer}")
    return changed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cells", default="past-grid", metavar="SET[,SET...]")
    ap.add_argument("--density", action="store_true",
                    help="audit the exclusion tests of the density"
                         " benchmark's queries instead of cells")
    ap.add_argument("--targets", type=int, metavar="N",
                    help="with --density, audit the first N targets only")
    ap.add_argument("--against", type=Path, metavar="DIR")
    ap.add_argument("--json", type=Path, metavar="OUT")
    ap.add_argument("--tree", type=Path, default=ROOT, metavar="DIR")
    args = ap.parse_args(argv)
    if args.targets is not None and not args.density:
        ap.error("--targets needs --density")
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    if args.density:
        this = audit_density(tree, args.targets)
        print_density(this)
        sums, compare = density_totals(this), against_density
        mode = ["--density"]
        if args.targets is not None:
            mode += ["--targets", str(args.targets)]
    else:
        this = audit(args.cells)
        print_audit(this)
        sums, compare = totals(this), against_cells
        mode = ["--cells", args.cells]
    result = {
        "cells": None if args.density else args.cells,
        "density": args.density,
        "this": {**commit_of(tree), "audit": this, "totals": sums},
        "against": None,
        "changed": [],
    }
    if args.against is not None:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "against.json"
            subprocess.run(
                [sys.executable, __file__, *mode,
                 "--tree", str(args.against), "--json", str(out)],
                check=True, stdout=subprocess.DEVNULL,
            )
            theirs = json.loads(out.read_text())["this"]
        result["against"] = theirs
        result["changed"] = compare(this, theirs)
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
