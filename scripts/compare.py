"""Compare two source trees on the benchmark in alternated pairs of runs.

    python3 scripts/compare.py --against DIR --workload W [--pairs N]
                               [--seeds 1,2,3] [--seconds 30] [--json OUT]

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds
SECONDS`` in N pairs: one run of the tree this script sits in and one of
the tree DIR (a checkout of another commit, as ``scripts/record_digest.py
--match DIR`` takes).  Each run is a fresh process started in its own
tree's root, so it imports that tree's ``src/`` and benchmark.  The tree
that runs first swaps from one pair to the next, over all pairs of all
seeds, so neither a host that speeds up or slows down over the session
nor an advantage of running second favours one tree.  Runs never
overlap.

For every end-to-end metric of BENCHMARK.json it prints one line per seed
and one over all seeds:

  METRIC SEED  this MED [Q1 Q3]  against MED [Q1 Q3]  ratio R
               wins W/P  beyond_spread yes|no

MED, Q1 and Q3 are the median and the quartiles of each tree's runs, R
is this tree's median over DIR's, and W counts the pairs in which this
tree's run is better than DIR's run in the same pair (in the direction
BENCHMARK.json gives).  beyond_spread is yes when the medians differ by
more than DIR's quartile spread Q3 - Q1.  A run whose result line reports
failed requests prints a FAILED line; a run that exits non-zero stops the
comparison.  With ``--json OUT`` every run's metrics, the summary and the
commit of each tree (``git rev-parse HEAD``, null outside a git checkout,
with a flag for uncommitted changes under src/ or perfbench/) are also
written to OUT.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds_arg(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def commit_of(tree: Path) -> dict:
    """The commit a tree is checked out at and whether its src/ or
    perfbench/ differ from it; a null commit outside a git checkout."""
    head = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    if head.returncode != 0:
        return {"tree": str(tree), "commit": None, "dirty": None}
    status = subprocess.run(
        ["git", "-C", str(tree), "status", "--porcelain", "--", "src", "perfbench"],
        capture_output=True, text=True, check=True,
    )
    return {"tree": str(tree), "commit": head.stdout.strip(),
            "dirty": bool(status.stdout.strip())}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree; its result line, parsed."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds)]
    cmd = [sys.executable if c in ("python", "python3") else c for c in cmd]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and the two quartiles (inclusive method) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarise(pairs: list[tuple[dict, dict]], name: str, better: str) -> dict:
    """The summary of one metric over (this, against) result pairs."""
    ours = [a["metrics"][name]["value"] for a, _ in pairs]
    theirs = [b["metrics"][name]["value"] for _, b in pairs]
    if better == "higher":
        wins = sum(1 for a, b in zip(ours, theirs) if a > b)
    else:
        wins = sum(1 for a, b in zip(ours, theirs) if a < b)
    med, q1, q3 = spread(ours)
    med_b, q1_b, q3_b = spread(theirs)
    return {
        "this": {"median": med, "q1": q1, "q3": q3},
        "against": {"median": med_b, "q1": q1_b, "q3": q3_b},
        "ratio": med / med_b if med_b else None,
        "wins": wins,
        "pairs": len(pairs),
        "beyond_spread": abs(med - med_b) > q3_b - q1_b,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", type=Path, required=True, metavar="DIR",
                    help="the other tree, with its own src/ and perfbench/")
    ap.add_argument("--workload", required=True,
                    choices=["exact", "sweep", "density"])
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seeds", type=_seeds_arg, default=[1, 2, 3])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--json", type=Path, metavar="OUT",
                    help="also write every run and the summary to OUT")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    other = args.against.resolve()
    if not (other / "perfbench" / "run.py").is_file():
        ap.error(f"{other} has no perfbench/run.py")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs, by_seed = [], {}
    for seed in args.seeds:
        for pair in range(args.pairs):
            # the second run of a pair tends to be the faster one, so the
            # order alternates over all pairs, not afresh for each seed
            order = [("this", ROOT), ("against", other)]
            if len(runs) % 2:
                order.reverse()
            result = {}
            for side, tree in order:
                result[side] = run_once(tree, args.workload, seed, args.seconds)
                if result[side]["failed"]:
                    print(f"FAILED {side} seed {seed} pair {pair}: "
                          f"{result[side]['failed']} of "
                          f"{result[side]['attempted']} requests")
            runs.append({"seed": seed, "pair": pair, "first": order[0][0], **result})
            by_seed.setdefault(seed, []).append((result["this"], result["against"]))

    groups = {str(seed): pairs for seed, pairs in by_seed.items()}
    groups["all"] = [p for pairs in by_seed.values() for p in pairs]
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        summary[name] = {
            group: summarise(pairs, name, metric["better"])
            for group, pairs in groups.items()
        }
        for group, s in summary[name].items():
            a, b = s["this"], s["against"]
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.3f}"
            print(f"{name} {group}  this {a['median']:.6g} "
                  f"[{a['q1']:.6g} {a['q3']:.6g}]  against {b['median']:.6g} "
                  f"[{b['q1']:.6g} {b['q3']:.6g}]  ratio {ratio}  "
                  f"wins {s['wins']}/{s['pairs']}  "
                  f"beyond_spread {'yes' if s['beyond_spread'] else 'no'}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": args.seeds,
            "this": commit_of(ROOT),
            "against": commit_of(other),
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
