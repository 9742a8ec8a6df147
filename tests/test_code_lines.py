"""scripts/code_lines.py: code and docstring lines of a small module."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''"""A module docstring
over two lines."""

import math  # a comment


# a comment line
class Box:
    """One line."""

    def area(self, w,
             h):
        """Two
        lines."""
        def inner():
            return w
        return w * h


def free():
    return math.pi
'''


def test_code_lines_counts_a_small_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"),
         "--functions", str(path)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == [
        f"module {path} code 9 docstring 5",
        f"function {path} Box code 6 docstring 3",
        f"function {path} Box.area code 5 docstring 2",
        f"function {path} Box.area.inner code 2 docstring 0",
        f"function {path} free code 2 docstring 0",
    ]
