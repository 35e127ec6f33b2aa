"""Cross-database reconciliation of publication sets by DOI.

Classifies each scope's distinct DOIs as common to both databases or
unique to one, and aggregates per-database publication and citation
totals in the same shape as a per-discipline summary table. Every scope,
a discipline or the global one, is one max-merge over the profiles it is
given, so a report depends only on its arguments.

Each share is an exact (count, denominator) cell: the common and unique
counts over the two databases' DOI union, or over one database's own.
"""

from __future__ import annotations

from operator import countOf
from typing import NamedTuple

from .ingest import AuthorProfile

GLOBAL_SCOPE = "all"


class DbOverlapStats(NamedTuple):
    """Distinct-DOI aggregates of one database within one scope."""

    total_pubs: int
    unique_pubs: int
    pubs_received_citations: int
    total_citations: int


class OverlapReport(NamedTuple):
    scope: str
    author_count: int
    per_db: dict[str, DbOverlapStats]
    common_pubs: int


def _scope_dois(profiles: list[AuthorProfile], tag: str) -> dict[str, int]:
    """The profiles' doi -> max citations map of database ``tag``."""
    maps = [profile.per_db_publications.get(tag, {}) for profile in profiles]
    dois: dict[str, int] = {}
    for counts in maps:
        dois.update(counts)
    if len(dois) < sum(map(len, maps)):  # some DOI has two authors
        _keep_largest(dois, maps)
    return dois


def _keep_largest(dois: dict[str, int], maps: list[dict[str, int]]) -> None:
    """Raise each DOI in ``dois`` to its largest count in ``maps``."""
    for counts in maps:
        for doi, citations in counts.items():
            if citations > dois[doi]:
                dois[doi] = citations


def classify_overlap(
    profiles: list[AuthorProfile],
    db_tags: tuple[str, str],
    scope: str = GLOBAL_SCOPE,
) -> OverlapReport:
    """Common/unique DOI counts and per-database aggregates for one scope.

    ``profiles`` are the scope's authors and ``scope`` labels the report:
    a discipline, or ``GLOBAL_SCOPE`` (the default) for every author. Each
    scope is one merge over ``profiles`` alone, so a DOI shared by authors
    of two disciplines counts once in each discipline's report and once
    globally. Citation aggregates use the maximum count observed for a DOI
    within the scope, mirroring the duplicate merge at parse time; counts
    are non-negative, as ``parse_records`` accepts them.
    """
    dois = {tag: _scope_dois(profiles, tag) for tag in db_tags}
    a, b = db_tags
    common = len(dois[a].keys() & dois[b].keys())
    per_db = {}
    for tag in db_tags:
        counts = dois[tag]
        per_db[tag] = DbOverlapStats(
            total_pubs=len(counts),
            unique_pubs=len(counts) - common,
            pubs_received_citations=len(counts) - countOf(counts.values(), 0),
            total_citations=sum(counts.values()),
        )
    return OverlapReport(
        scope=scope,
        author_count=len(profiles),
        per_db=per_db,
        common_pubs=common,
    )


def overlap_proportions(report: OverlapReport) -> list[tuple[str, str, int, int]]:
    """``(denominator, series, count, total)`` share cells of one overlap report.

    "union" cells divide by the two databases' DOI union, which their counts
    sum to; a database's cells by its own DOI count (common + unique =
    ``total_pubs``, 0 when it has none). No cells for an empty union: a scope
    without publications has no shares.
    """
    common = report.common_pubs
    union = common + sum(stats.unique_pubs for stats in report.per_db.values())
    if union == 0:
        return []
    cells = [("union", "common", common, union)]
    for tag, stats in report.per_db.items():
        cells.append(("union", f"unique_{tag}", stats.unique_pubs, union))
    for tag, stats in report.per_db.items():
        cells.append((tag, "common", common, stats.total_pubs))
        cells.append((tag, "unique", stats.unique_pubs, stats.total_pubs))
    return cells
