"""Helpers shared by several test modules."""

import csv
import tempfile
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


def input_file(directory: Path | str, data: bytes, suffix: str) -> Path:
    """A new file in ``directory`` that holds ``data``, its name ending in ``suffix``.

    The parsers read only files, and a ".json" suffix makes one read JSON.
    """
    with tempfile.NamedTemporaryFile(dir=directory, suffix=suffix, delete=False) as fh:
        fh.write(data)
    return Path(fh.name)


def cohort_from_profiles(
    profiles: Iterable[AuthorProfile], discipline: str, db_tags: tuple[str, str]
) -> CohortTable:
    """Compute every author's per-db index reports and build the cohort."""
    group = [p for p in profiles if p.discipline == discipline]
    if not group:
        raise DegenerateInput(f"no authors in discipline {discipline!r}")
    reports = {
        tag: tuple(compute_hc(profile_to_citations(p, tag)) for p in group) for tag in db_tags
    }
    return build_cohort(discipline, tuple(p.author_key for p in group), reports, db_tags)
