"""Golden report digests: refactors must keep every report byte.

Each variant runs on the synthetic fixture into a fresh ``--out``. The
sha256 of every file there must match ``data/golden/<variant>.sha256``, and
the ``wrote <path>`` lines on stdout must match ``<variant>.stdout`` in
content and order. Regenerate both only when a change means to alter report
bytes, and name each changed report in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The tests at the end check that a full run loads its inputs exactly once.
"""

import contextlib
import hashlib
import importlib.util
import io
import shutil
from pathlib import Path

import pytest

import scimetrics.cli
from scimetrics.cli import main
from scimetrics.errors import DegenerateInput

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


def run_variant(variant: str, out: Path, data: Path = SYNTHETIC) -> tuple[str, str]:
    """(digest listing, stdout with ``out`` written as OUT) of one variant."""
    key, extra = VARIANTS[variant]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if key is None:
            code = run_full_analysis.run(data, out, extra)
        else:
            code = main(
                [
                    "rank",
                    "--records", f"{data / 'records_scopus.csv'}@scopus",
                    "--records", f"{data / 'records_wos.csv'}@wos",
                    "--roster", str(data / "roster.csv"),
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


def test_reversed_roster_matches_golden_digests(tmp_path):
    """No report depends on the order in which the roster lists its authors."""
    data = tmp_path / "data"
    shutil.copytree(SYNTHETIC, data)
    header, *rows = (data / "roster.csv").read_text(encoding="utf-8").splitlines()
    (data / "roster.csv").write_text(
        "\n".join([header, *reversed(rows)]) + "\n", encoding="utf-8"
    )
    listing, stdout = run_variant("full", tmp_path / "out", data)
    assert listing == (GOLDEN / "full.sha256").read_text(encoding="utf-8")
    assert stdout == (GOLDEN / "full.stdout").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# a full run loads its inputs once, and only for itself
# ---------------------------------------------------------------------------

def count_loads(monkeypatch) -> list:
    """Patch ``cli.load_pipeline`` to record one entry per call."""
    calls = []
    load = scimetrics.cli.load_pipeline

    def counted(*args, **kwargs):
        calls.append(args[0])
        return load(*args, **kwargs)

    monkeypatch.setattr(scimetrics.cli, "load_pipeline", counted)
    return calls


def test_full_run_loads_inputs_once(tmp_path, monkeypatch, capsys):
    calls = count_loads(monkeypatch)
    assert run_full_analysis.run(SYNTHETIC, tmp_path / "out", []) == 0
    assert len(calls) == 1


def test_back_to_back_runs_load_twice(tmp_path, monkeypatch, capsys):
    calls = count_loads(monkeypatch)
    assert run_full_analysis.run(SYNTHETIC, tmp_path / "a", []) == 0
    assert run_full_analysis.run(SYNTHETIC, tmp_path / "a", []) == 0
    assert len(calls) == 2


def test_failing_family_still_names_reject_report(tmp_path, capsys, monkeypatch):
    def degenerate(pipeline, args):
        raise DegenerateInput("need at least two authors in 'solo' for a deviation")

    _, help_text = scimetrics.cli.REPORTS["deviation"]
    monkeypatch.setitem(scimetrics.cli.REPORTS, "deviation", (degenerate, help_text))
    out = tmp_path / "out"
    assert run_full_analysis.run(SYNTHETIC, out, []) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("scimetrics: DegenerateInput: ")
    assert err[1:] == [
        f"scimetrics: reject report written to {out / 'rejects_scopus.csv'}",
        "deviation failed with exit code 2",
    ]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in VARIANTS:
        with tempfile.TemporaryDirectory() as tmp:
            listing, stdout = run_variant(name, Path(tmp) / "out")
        (GOLDEN / f"{name}.sha256").write_text(listing, encoding="utf-8")
        (GOLDEN / f"{name}.stdout").write_text(stdout, encoding="utf-8")
