"""Helpers shared by several test modules."""

import csv
from pathlib import Path
from typing import Iterable

from scimetrics.analytics import CohortTable, build_cohort
from scimetrics.errors import DegenerateInput
from scimetrics.indices import compute_hc
from scimetrics.ingest import AuthorProfile, profile_to_citations


def read_csv(path: Path | str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a report, for round-trip checks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def cohort_from_profiles(
    profiles: Iterable[AuthorProfile], discipline: str, db_tags: tuple[str, str]
) -> CohortTable:
    """Compute every author's per-db index reports and build the cohort."""
    reports = {
        p.author_key: {
            tag: compute_hc(profile_to_citations(p, tag)) for tag in db_tags
        }
        for p in profiles
        if p.discipline == discipline
    }
    if not reports:
        raise DegenerateInput(f"no authors in discipline {discipline!r}")
    return build_cohort(discipline, reports, db_tags)
