"""Cross-database reconciliation of publication sets by DOI.

Classifies each scope's distinct DOIs as common to both databases or
unique to one, and aggregates per-database publication and citation
totals in the same shape as a per-discipline summary table.

Each share is an exact (count, denominator) cell: the common and unique
counts over the two databases' DOI union, or over one database's own.
"""

from __future__ import annotations

from operator import countOf
from typing import Iterable, NamedTuple

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


def _scope_dois(
    profiles: Iterable[AuthorProfile], db_tags: tuple[str, str]
) -> dict[str, dict[str, int]]:
    """Per database, the profiles' doi -> max citations map."""
    dois: dict[str, dict[str, int]] = {tag: {} for tag in db_tags}
    for profile in profiles:
        for tag in db_tags:
            seen = dois[tag]
            for doi, citations in profile.per_db_publications.get(tag, {}).items():
                if citations > seen.get(doi, -1):
                    seen[doi] = citations
    return dois


def classify_overlap(
    profiles: list[AuthorProfile],
    db_tags: tuple[str, str],
    scope: str = GLOBAL_SCOPE,
    *,
    merged: dict[str, dict[str, int]] | None = None,
) -> OverlapReport:
    """Common/unique DOI counts and per-database aggregates for one scope.

    ``profiles`` are the scope's authors and ``scope`` labels the report:
    a discipline, or ``GLOBAL_SCOPE`` (the default) for every author. A
    DOI shared by authors of two disciplines counts once in each
    discipline's report but only once globally. Citation aggregates use
    the maximum count observed for a DOI within the scope, mirroring the
    duplicate merge at parse time; counts are non-negative, as
    ``parse_records`` accepts them.

    ``merged`` lets one walk of each profile serve both reports. A
    discipline's call max-merges its per-database doi maps into it. A
    global call reads its maps from it instead of walking ``profiles``,
    which then only give the author count; that is right only when the
    discipline calls before it merged every one of ``profiles``.
    """
    if scope == GLOBAL_SCOPE and merged is not None:
        dois = {tag: merged.get(tag, {}) for tag in db_tags}
    else:
        dois = _scope_dois(profiles, db_tags)
        if merged is not None:
            for tag, counts in dois.items():
                into = merged.setdefault(tag, {})
                shared = into.keys() & counts.keys()
                kept = {doi: into[doi] for doi in shared if into[doi] > counts[doi]}
                into.update(counts)
                into.update(kept)  # a DOI an earlier scope gave more citations
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
