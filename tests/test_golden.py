"""Golden report digests: refactors must keep every report byte.

Each variant runs on the synthetic fixture into a fresh ``--out``. The
sha256 of every file there must match ``data/golden/<variant>.sha256``, and
the ``wrote <path>`` lines on stdout must match ``<variant>.stdout`` in
content and order. Regenerate both only when a change means to alter report
bytes, and name each changed report in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from scimetrics.cli import main

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"
GOLDEN = ROOT / "tests" / "data" / "golden"

_spec = importlib.util.spec_from_file_location(
    "run_full_analysis", ROOT / "scripts" / "run_full_analysis.py"
)
run_full_analysis = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_full_analysis)

# variant -> (rank key for a single `rank` run or None for a full run, extra flags)
VARIANTS = {
    "full": (None, []),
    "json_raw": (None, ["--format", "json", "--rounding", "raw"]),
    "custom_bins": (None, ["--bins", "0-2,3-5,6+", "--density-width", "1"]),
    "rank_g": ("g", []),
    "rank_h_c": ("h_c", []),
}


def run_variant(variant: str, out: Path) -> tuple[str, str]:
    """(digest listing, stdout with ``out`` written as OUT) of one variant."""
    key, extra = VARIANTS[variant]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if key is None:
            code = run_full_analysis.run(SYNTHETIC, out, extra)
        else:
            code = main(
                [
                    "rank",
                    "--records", f"{SYNTHETIC / 'records_scopus.csv'}@scopus",
                    "--records", f"{SYNTHETIC / 'records_wos.csv'}@wos",
                    "--roster", str(SYNTHETIC / "roster.csv"),
                    "--out", str(out),
                    "--key", key,
                ]
            )
    assert code == 0
    listing = "".join(
        f"{path.name}  {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in sorted(out.iterdir())
    )
    return listing, stdout.getvalue().replace(str(out), "OUT")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reports_match_golden_digests(variant, tmp_path):
    listing, stdout = run_variant(variant, tmp_path / "out")
    assert listing == (GOLDEN / f"{variant}.sha256").read_text(encoding="utf-8")
    assert stdout == (GOLDEN / f"{variant}.stdout").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in VARIANTS:
        with tempfile.TemporaryDirectory() as tmp:
            listing, stdout = run_variant(name, Path(tmp) / "out")
        (GOLDEN / f"{name}.sha256").write_text(listing, encoding="utf-8")
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
