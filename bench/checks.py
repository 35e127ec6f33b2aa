"""Output checks for one full report run against the generator's ground truth.

The index oracle is written from the definitions in PAPER.md and shares no
code with ``scimetrics``. ``check_outputs`` returns a list of problems; an
empty list means the run's reports are correct.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import math
from collections import Counter
from pathlib import Path

from cohorts import DBS, GLOBAL_SCOPE, Truth

# Files a default full run writes: both formats, rank key h, and a reject
# report per database (every workload plants rejects in both).
EXPECTED_FILES = tuple(
    sorted(
        [
            f"{name}.{ext}"
            for name in (
                "index_report",
                "index_stats",
                "overlap",
                "overlap_proportions",
                "rank_h",
                "author_bins",
                "rank_correlation",
                "index_deviation",
                "density",
            )
            for ext in ("csv", "json")
        ]
        + ["rank_h_plot.csv", "index_deviation_plot.csv"]
        + [f"rejects_{db}.csv" for db in DBS]
    )
)


def oracle_indices(counts: list[int]) -> tuple[int, int, int, int, int]:
    """(h, g, h_cite, k, h_c) of one citation profile, by definition.

    h: largest h with at least h papers of >= h citations. g: largest g whose
    top g papers, padded with zero-citation papers, hold >= g**2 citations.
    h_cite: top paper's citations. k: largest k >= 2 with h**k < h_cite, else
    0. h_c = h + k.
    """
    ascending = sorted(counts)
    ranked = ascending[::-1]
    n = len(ranked)
    h = max(c for c in range(n + 1) if n - bisect.bisect_left(ascending, c) >= c)
    g = 0
    top = 0
    for i, c in enumerate(ranked, 1):
        top += c
        if top >= i * i:
            g = i
    if top >= (n + 1) ** 2:  # past the real papers the top-g sum stays at the total
        g = math.isqrt(top)
    h_cite = ranked[0] if ranked else 0
    k = 0
    if h >= 2:
        e = 2
        while h**e < h_cite:
            k = e
            e += 1
    return h, g, h_cite, k, h + k


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_index_report(out: Path, truth: Truth) -> list[str]:
    _, rows = _read(out / "index_report.csv")
    seen: set[tuple[str, str]] = set()
    problems = []
    for discipline, author, db, *values in rows:
        expected = truth.counts.get(author, {}).get(db)
        if expected is None or (author, db) in seen:
            problems.append(f"index_report: unexpected row for {author}/{db}")
            continue
        seen.add((author, db))
        want = oracle_indices(list(expected.values()))
        if discipline != truth.disciplines[author] or tuple(map(int, values)) != want:
            problems.append(
                f"index_report: {author}/{db} reads {discipline} {values}, "
                f"oracle gives {truth.disciplines[author]} {list(want)}"
            )
    missing = len(truth.counts) * len(DBS) - len(seen)
    if missing:
        problems.append(f"index_report: {missing} (author, db) rows missing")
    return problems


def _check_overlap(out: Path, truth: Truth) -> list[str]:
    _, rows = _read(out / "overlap.csv")
    authors = Counter(truth.disciplines.values())
    authors[GLOBAL_SCOPE] = len(truth.disciplines)
    got = {(r[0], r[2]): (int(r[1]), int(r[3]), int(r[4]), int(r[7])) for r in rows}
    problems = []
    for scope, per_db in truth.scope_dois.items():
        common = len(per_db[DBS[0]] & per_db[DBS[1]])
        for db in DBS:
            total = len(per_db[db])
            want = (authors[scope], total, total - common, common)
            if got.get((scope, db)) != want:
                problems.append(
                    f"overlap: {scope}/{db} (authors, total, unique, common) "
                    f"reads {got.get((scope, db))}, truth {want}"
                )
    if len(got) != len(truth.scope_dois) * len(DBS):
        problems.append(f"overlap: {len(got)} rows, truth has {len(truth.scope_dois) * len(DBS)}")
    return problems


def _check_rejects(out: Path, truth: Truth) -> list[str]:
    problems = []
    for db in DBS:
        _, rows = _read(out / f"rejects_{db}.csv")
        got = Counter(row[2] for row in rows)
        if got != truth.rejects[db]:
            problems.append(f"rejects_{db}: {dict(got)}, planted {dict(truth.rejects[db])}")
    return problems


def check_outputs(out: Path, truth: Truth) -> list[str]:
    """Problems found in one run's output directory; empty when correct."""
    missing = [name for name in EXPECTED_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing report file(s): {', '.join(missing)}"]
    try:
        return _check_index_report(out, truth) + _check_overlap(out, truth) + _check_rejects(
            out, truth
        )
    except (ValueError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]


def digest_dir(out: Path) -> str:
    """sha256 over every file's name and sha256, in name order."""
    total = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        total.update(str(path.relative_to(out)).encode() + b"\0")
        total.update(hashlib.sha256(path.read_bytes()).digest())
    return total.hexdigest()
