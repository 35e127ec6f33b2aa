#!/usr/bin/env python3
"""Run every report command over one data directory.

Expects records_scopus.csv, records_wos.csv and roster.csv in --data
(the layout written by make_synthetic_data.py) and writes all reports
to --out. The inputs are loaded once and every report family is built
from that one load; the files and ``wrote`` lines are the same as running
each subcommand separately.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from scimetrics.cli import REPORTS, main


def run(data: Path, out: Path, extra: list[str]) -> int:
    """Call ``main`` once per ``REPORTS`` family, in registry order, sharing one load.

    The shared load lives only for this call, so every call of ``run``
    reads its inputs afresh.
    """
    base = [
        "--records", f"{data / 'records_scopus.csv'}@scopus",
        "--records", f"{data / 'records_wos.csv'}@wos",
        "--roster", str(data / "roster.csv"),
        "--out", str(out),
        *extra,
    ]
    loaded: dict = {}
    for command in REPORTS:
        code = main([command, *base], loaded)
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic",
    )
    parser.add_argument("--out", type=Path, default=Path("out"))
    args, extra = parser.parse_known_args()
    sys.exit(run(args.data, args.out, extra))
