import os
from pathlib import Path

import pytest


@pytest.fixture
def child_env() -> dict:
    """The environment for a `python -m yamada.cli` child process: this
    checkout's src/ first on PYTHONPATH, since a child does not inherit
    pytest's pythonpath setting."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + rest if rest else ""))
