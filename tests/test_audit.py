"""scripts/audit.py: two cells against a copy of this tree."""

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
    assert lines[-1] == "against changed 0 more_above 0 half_to_fallback 0"
    result = json.loads(out.read_text())
    assert result["changed"] == []
    for side in ("this", "against"):
        audit = result[side]["audit"]
        assert [(c["n"], c["s"], c["k"]) for c in audit] == [(3, 5, 1), (1, 2, 2)]
        assert all(c["degree"] > 0 and c["above"] == 0 for c in audit)
    assert result["against"]["tree"] == str(other.resolve())
