"""Cross-database reconciliation of publication sets by DOI.

Classifies each scope's distinct DOIs as common to both databases or
unique to one, and aggregates per-database publication and citation
totals in the same shape as a per-discipline summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import EmptyScope, UnknownDiscipline
from .ingest import AuthorProfile

GLOBAL_SCOPE = "all"


@dataclass(frozen=True)
class DbOverlapStats:
    """Distinct-DOI aggregates of one database within one scope."""

    total_pubs: int
    unique_pubs: int
    pubs_received_citations: int
    total_citations: int


@dataclass(frozen=True)
class OverlapReport:
    scope: str
    author_count: int
    db_tags: tuple[str, str]
    per_db: dict[str, DbOverlapStats]
    common_pubs: int


@dataclass(frozen=True)
class OverlapProportions:
    """Common/unique shares under both denominator conventions.

    union shares divide by the size of the two databases' DOI union and
    sum to 1; per-db shares divide by that database's own distinct-DOI
    count (common + unique = 1 per database).
    """

    scope: str
    union_total: int
    common_share: float
    unique_shares: dict[str, float]
    per_db_common_share: dict[str, float]
    per_db_unique_share: dict[str, float]


def _scope_dois(
    profiles: Iterable[AuthorProfile], scope: str | None, db_tags: tuple[str, str]
) -> tuple[int, dict[str, dict[str, int]]]:
    """Author count and, per database, the scope's doi -> max citations map."""
    count = 0
    dois: dict[str, dict[str, int]] = {tag: {} for tag in db_tags}
    for profile in profiles:
        if scope is not None and profile.discipline != scope:
            continue
        count += 1
        for tag in db_tags:
            seen = dois[tag]
            for doi, citations in profile.per_db_publications.get(tag, {}).items():
                if citations > seen.get(doi, -1):
                    seen[doi] = citations
    return count, dois


def classify_overlap(
    profiles: list[AuthorProfile],
    db_tags: tuple[str, str],
    scope: str | None = None,
    disciplines: Iterable[str] | None = None,
) -> OverlapReport:
    """Common/unique DOI counts and per-database aggregates for one scope.

    ``scope`` is a discipline label, or None for the global report. A DOI
    shared by authors of two disciplines counts once in each discipline's
    report but only once globally. Citation aggregates use the maximum
    count observed for a DOI within the scope, mirroring the duplicate
    merge at parse time.
    """
    known = set(disciplines) if disciplines is not None else {
        p.discipline for p in profiles
    }
    if scope is not None and scope not in known:
        raise UnknownDiscipline(f"unknown discipline {scope!r}")
    author_count, dois = _scope_dois(profiles, scope, db_tags)
    a, b = db_tags
    common = len(dois[a].keys() & dois[b].keys())
    per_db = {}
    for tag in db_tags:
        counts = dois[tag]
        per_db[tag] = DbOverlapStats(
            total_pubs=len(counts),
            unique_pubs=len(counts) - common,
            pubs_received_citations=sum(1 for c in counts.values() if c >= 1),
            total_citations=sum(counts.values()),
        )
    return OverlapReport(
        scope=scope if scope is not None else GLOBAL_SCOPE,
        author_count=author_count,
        db_tags=db_tags,
        per_db=per_db,
        common_pubs=common,
    )


def overlap_proportions(report: OverlapReport) -> OverlapProportions:
    """Shares of common and unique publications for one overlap report.

    Raises EmptyScope when the scope's DOI union is empty.
    """
    union = report.common_pubs + sum(
        stats.unique_pubs for stats in report.per_db.values()
    )
    if union == 0:
        raise EmptyScope(f"scope {report.scope!r} has no publications")
    per_db_common = {}
    per_db_unique = {}
    for tag, stats in report.per_db.items():
        total = stats.total_pubs
        per_db_common[tag] = report.common_pubs / total if total else 0.0
        per_db_unique[tag] = stats.unique_pubs / total if total else 0.0
    return OverlapProportions(
        scope=report.scope,
        union_total=union,
        common_share=report.common_pubs / union,
        unique_shares={
            tag: stats.unique_pubs / union for tag, stats in report.per_db.items()
        },
        per_db_common_share=per_db_common,
        per_db_unique_share=per_db_unique,
    )
