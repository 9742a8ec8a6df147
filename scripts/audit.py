"""Audit the family solve on cells past the benchmark's grid.

    python3 scripts/audit.py [--cells SET[,SET...]] [--against DIR]
                             [--json OUT] [--tree DIR]

Solves each cell (n, s, k) of the sets, sign +, with
``roots._family_roots_full(n, s, k, degree_cap=None)``, importing
``yamada`` from ``DIR/src`` (``--tree``, default the tree this script
sits in), and prints one line per cell:

  cell n s k degree D path P above A worst W seconds T

D is the member's degree, P the configuration the solve kept (``half``
or ``fallback``, read from ``roots.COUNTS``; ``-`` for a member that
never tries the half one), A the records with a residual above 1e-9, W
the worst residual and T the process time of the solve.  A last line
sums them:

  total cells C half H fallback F above A seconds T

A SET is ``past-grid``, the 91 exact-column members with n = 3-6, s =
5-8, k = 1-8 and family_degree_estimate at most 260; ``named``, the
cells (2, 10, 2), (8, 5, 6), (16, 5, 6) and (24, 5, 6); or one cell
``n:s:k``.  The default is ``past-grid``.

``--against DIR`` audits the same cells on the tree DIR too (a checkout
of another commit, run as a second process of this script) and prints,
for every cell whose degree, path, count above 1e-9 or worst residual
differs,

  changed n s k degree D D' path P P' above A A' worst W W'

with the primed values DIR's, then its total line and one line

  against changed X more_above Y half_to_fallback Z

counting the changed cells, the cells with more records above 1e-9 than
on DIR, and those that went from half on DIR to fallback.  Every count
but the seconds is the same on two runs of one tree.  ``--json OUT``
writes both audits, the changed cells and the commit of each tree
(scripts/compare.py's commit_of) to OUT.
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
TOL = 1e-9
FIELDS = ("degree", "path", "above", "worst")


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
        _, residuals, degree = roots._family_roots_full(
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
            "worst": max(residuals, default=0.0), "seconds": seconds,
        })
    return out


def totals(cells: list[dict]) -> dict:
    return {
        "cells": len(cells),
        "half": sum(c["path"] == "half" for c in cells),
        "fallback": sum(c["path"] == "fallback" for c in cells),
        "above": sum(c["above"] for c in cells),
        "seconds": sum(c["seconds"] for c in cells),
    }


def print_audit(cells: list[dict]) -> None:
    for c in cells:
        print(f"cell {c['n']} {c['s']} {c['k']} degree {c['degree']} path"
              f" {c['path']} above {c['above']} worst {c['worst']:.3e}"
              f" seconds {c['seconds']:.3f}")
    t = totals(cells)
    print(f"total cells {t['cells']} half {t['half']} fallback"
          f" {t['fallback']} above {t['above']} seconds {t['seconds']:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cells", default="past-grid", metavar="SET[,SET...]")
    ap.add_argument("--against", type=Path, metavar="DIR")
    ap.add_argument("--json", type=Path, metavar="OUT")
    ap.add_argument("--tree", type=Path, default=ROOT, metavar="DIR")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    this = audit(args.cells)
    print_audit(this)
    result = {
        "cells": args.cells,
        "this": {**commit_of(args.tree.resolve()), "audit": this,
                 "totals": totals(this)},
        "against": None,
        "changed": [],
    }
    if args.against is not None:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "against.json"
            subprocess.run(
                [sys.executable, __file__, "--cells", args.cells,
                 "--tree", str(args.against), "--json", str(out)],
                check=True, stdout=subprocess.DEVNULL,
            )
            theirs = json.loads(out.read_text())["this"]
        result["against"] = theirs
        more = down = 0
        for a, b in zip(this, theirs["audit"]):
            if all(a[f] == b[f] for f in FIELDS):
                continue
            result["changed"].append({"this": a, "against": b})
            more += a["above"] > b["above"]
            down += b["path"] == "half" and a["path"] == "fallback"
            print(f"changed {a['n']} {a['s']} {a['k']}"
                  f" degree {a['degree']} {b['degree']}"
                  f" path {a['path']} {b['path']}"
                  f" above {a['above']} {b['above']}"
                  f" worst {a['worst']:.3e} {b['worst']:.3e}")
        t = theirs["totals"]
        print(f"total against cells {t['cells']} half {t['half']} fallback"
              f" {t['fallback']} above {t['above']} seconds"
              f" {t['seconds']:.3f}")
        print(f"against changed {len(result['changed'])} more_above {more}"
              f" half_to_fallback {down}")
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
