"""A full run writes the same bytes under any string hash seed.

Sets and dicts keyed by strings iterate in an order that depends on
PYTHONHASHSEED; no report may inherit that order.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"


def full_run(out: Path, hash_seed: str) -> tuple[dict[str, bytes], str]:
    """(file name -> bytes, stdout with ``out`` written as OUT) of a fresh interpreter's run."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(filter(None, paths))
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_full_analysis.py"),
         "--data", str(SYNTHETIC), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return files, done.stdout.replace(str(out), "OUT")


def test_full_run_does_not_depend_on_the_hash_seed(tmp_path):
    files, stdout = full_run(tmp_path / "seed_0", "0")
    assert len(files) == 21
    assert full_run(tmp_path / "seed_12345", "12345") == (files, stdout)
