"""scripts/compare.py: one alternated pair of short exact runs against a
copy of this tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_compare_runs_one_pair_against_a_copy(tmp_path):
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(
            ROOT / part, other / part,
            ignore=shutil.ignore_patterns("__pycache__", "out"),
        )
    shutil.copy(ROOT / "BENCHMARK.json", other)
    out = tmp_path / "compare.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare.py"),
         "--against", str(other), "--workload", "exact", "--pairs", "1",
         "--seconds", "1", "--seeds", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("FAILED")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(out.read_text())
    assert len(result["runs"]) == 1
    (run,) = result["runs"]
    assert run["first"] == "this"
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for group in ("1", "all"):
            (line,) = [x for x in lines if x.startswith(f"{name} {group} ")]
            assert " wins " in line and " beyond_spread " in line
            summary = result["summary"][name][group]
            assert summary["pairs"] == 1
            assert summary["this"]["median"] == run["this"]["metrics"][name]["value"]
            assert (
                summary["against"]["median"]
                == run["against"]["metrics"][name]["value"]
            )
    assert result["against"]["tree"] == str(other.resolve())
