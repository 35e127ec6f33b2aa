"""Importing the program loads only what a run needs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = (
    "import sys; before = set(sys.modules); import scimetrics.cli, run_full_analysis;"
    " print(' '.join(sorted(set(sys.modules) - before)))"
)


def _modules_added(*flags: str) -> set[str]:
    """Modules that importing the program adds, in a fresh interpreter."""
    paths = [str(ROOT / "src"), str(ROOT / "scripts"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, *flags, "-c", PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    added = set(done.stdout.split())
    assert {"scimetrics.cli", "run_full_analysis"} <= added
    return added


def test_import_loads_no_dataclasses_or_inspect():
    assert not _modules_added() & {"dataclasses", "inspect", "decimal"}


def test_import_loads_no_statistics_fractions_or_random():
    # -S: without the site module, whose .pth hooks may import random themselves.
    assert not _modules_added("-S") & {"statistics", "fractions", "random"}
