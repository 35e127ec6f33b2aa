"""Pinned ``--help`` text: the generated flags must not drift.

``data/golden/help/<name>.txt`` holds the ``--help`` output of
``scimetrics`` and of every subcommand at an 80-column terminal. Regenerate
it only when a change means to alter the command line, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/test_help.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from scimetrics.cli import REPORTS, main

HELP = Path(__file__).resolve().parent / "data" / "golden" / "help"
NAMES = ("scimetrics", *REPORTS)


def help_text(name: str) -> str:
    """``--help`` output of ``scimetrics`` or of one subcommand; needs COLUMNS=80."""
    argv = ["--help"] if name == "scimetrics" else [name, "--help"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.suppress(SystemExit):
        main(argv)
    return stdout.getvalue()


@pytest.mark.parametrize("name", NAMES)
def test_help_matches_pinned_text(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = (HELP / f"{name}.txt").read_text(encoding="utf-8")
    assert help_text(name) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (HELP / f"{name}.txt").write_text(help_text(name), encoding="utf-8")
        print(f"wrote {HELP / name}.txt")
