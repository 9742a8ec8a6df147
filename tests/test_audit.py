"""scripts/audit.py: two cells, and the exclusion tests of two density
targets, against a copy of this tree."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_audit_two_cells_against_a_copy(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "audit.py"),
         "--cells", "3:5:1,1:2:2", "--against", str(other),
         "--json", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    cells = [line.split() for line in lines if line.startswith("cell ")]
    assert [c[1:4] for c in cells] == [["3", "5", "1"], ["1", "2", "2"]]
    # (3, 5, 1) keeps its half configuration; an n = 1 member never
    # tries one
    assert [c[7] for c in cells] == ["half", "-"]
    # neither sends a point to the 240-bit refine
    assert [c[12:14] for c in cells] == [["refined", "0"]] * 2
    assert lines[-1] == "against changed 0 more_above 0 half_to_fallback 0"
    result = json.loads(out.read_text())
    assert result["changed"] == []
    for side in ("this", "against"):
        audit = result[side]["audit"]
        assert [(c["n"], c["s"], c["k"]) for c in audit] == [(3, 5, 1), (1, 2, 2)]
        assert all(c["degree"] > 0 and c["above"] == 0 for c in audit)
    assert result["against"]["tree"] == str(other.resolve())


def test_audit_density_two_targets_against_a_copy(tmp_path):
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "audit.py"), "--density",
         "--targets", "2", "--against", str(other), "--json", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    targets = [line.split() for line in lines if line.startswith("target ")]
    assert len(targets) == 2
    fields = ["columns", "ruled_re", "ruled_im", "arcs", "solved", "seconds"]
    for t in targets:
        assert t[3::2] == fields
    # the probe misses every cell: every column is tested, and the
    # exclusion test evaluates arcs
    probe = dict(zip(targets[0][3::2], targets[0][4::2]))
    assert int(probe["columns"]) > 0 and int(probe["arcs"]) > 0
    assert lines[-1] == "against changed 0 more_solved 0 fewer_ruled 0"
    result = json.loads(out.read_text())
    assert result["density"] and result["changed"] == []
    mine, theirs = result["this"], result["against"]
    assert len(mine["audit"]) == len(theirs["audit"]) == 2
    for a, b in zip(mine["audit"], theirs["audit"]):
        assert all(a[f] == b[f] for f in fields[:-1])
    assert mine["totals"]["targets"] == 2
    assert theirs["tree"] == str(other.resolve())


def test_audit_reads_the_frozen_oracle_roots():
    # (2, 10, 2) has its 99 roots frozen at 400 bits: each has exactly
    # one record within 1e-9 |z|; a cell without a fixture prints none
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "audit.py"),
         "--cells", "2:10:2,3:5:1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    cells = [line.split() for line in proc.stdout.splitlines()
             if line.startswith("cell ")]
    assert cells[0][14:18] == ["oracle", "99", "of", "99"]
    assert cells[1][14] == "seconds"
