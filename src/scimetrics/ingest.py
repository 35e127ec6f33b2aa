"""Publication-record ingestion.

Parses CSV/JSON exports from two citation databases, normalizes DOIs,
filters unusable rows into an auditable reject list, and assembles one
profile per roster author with a publication list per database.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import IO, Iterable

from .errors import MalformedDoi, SchemaError, UnknownAuthor
from .indices import CitationProfile

_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi:")
_DOI_SHAPE = re.compile(r"10\.\d+/.+", re.DOTALL)

RECORD_COLUMNS = ("author_key", "doi", "citations")
ROSTER_COLUMNS = (
    "author_key",
    "orcid",
    "researcher_id",
    "scopus_id",
    "discipline",
    "display_name",
)


@dataclass(frozen=True)
class PublicationRecord:
    """One publication of one author as seen by one database."""

    doi: str
    citations: int
    source: str
    author_key: str


@dataclass(frozen=True)
class Reject:
    """A dropped input row: 1-based data-row number, author key, reason."""

    row: int
    author_key: str
    reason: str


@dataclass(frozen=True)
class RosterEntry:
    author_key: str
    discipline: str
    display_name: str = ""
    external_ids: dict[str, str] = field(default_factory=dict)


@dataclass
class AuthorProfile:
    """One roster author with a publication list per database tag."""

    author_key: str
    discipline: str
    external_ids: dict[str, str]
    per_db_publications: dict[str, list[PublicationRecord]]


def normalize_doi(raw: str) -> str:
    """Canonical lowercase DOI: scheme/URL prefix stripped, whitespace trimmed.

    Raises MalformedDoi unless the result has the ``10.<digits>/<suffix>``
    shape. Idempotent on its own output.
    """
    doi = raw.strip()
    lowered = doi.lower()
    for prefix in _DOI_PREFIXES:
        if lowered.startswith(prefix):
            doi = doi[len(prefix) :]
            break
    doi = doi.strip().lower()
    if not _DOI_SHAPE.fullmatch(doi):
        raise MalformedDoi(f"not a DOI: {raw!r}")
    return doi


def _read_text(data: bytes | str | os.PathLike | IO[bytes]) -> str:
    if isinstance(data, bytes):
        raw = data
    elif hasattr(data, "read"):
        raw = data.read()
    else:
        with open(data, "rb") as fh:
            raw = fh.read()
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"input is not valid UTF-8: {exc}") from exc


def _infer_format(data, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "json"):
            raise SchemaError(f"unsupported format {fmt!r}")
        return fmt
    name = os.fspath(data) if isinstance(data, (str, os.PathLike)) else ""
    if str(name).lower().endswith(".json"):
        return "json"
    return "csv"


def _iter_csv_rows(text: str, required: Iterable[str]) -> Iterable[dict]:
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        header = reader.fieldnames
        if header is None:
            raise SchemaError("empty input: no header row")
        missing = [col for col in required if col not in header]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        for row in reader:
            yield {k: (v or "") for k, v in row.items() if k is not None}
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"invalid CSV at line {reader.line_num}: {exc}") from exc


def _iter_json_rows(text: str) -> Iterable[dict]:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long ints, deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise SchemaError("JSON input must be an array of objects")
    for item in payload:
        if not isinstance(item, dict):
            raise SchemaError("JSON input must be an array of objects")
        yield item


def _parse_citations(value) -> int | None:
    """Citation count as int, or None when unparseable (bool is rejected)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            return None
    return None


def parse_records(
    data: bytes | str | os.PathLike | IO[bytes],
    fmt: str | None = None,
    source: str = "scopus",
) -> tuple[list[PublicationRecord], list[Reject]]:
    """Parse one database export into accepted records plus a reject list.

    ``data`` is a path, raw bytes, or a readable binary stream; ``fmt`` is
    "csv" or "json" (inferred from a path suffix when None). ``source`` is
    the database tag stamped onto every accepted record.

    Rows without a usable author key, DOI, or citation count are rejected
    with a reason and their 1-based data-row number. Duplicate
    (author_key, doi) rows collapse onto the first occurrence keeping the
    maximum citation count; the later rows land in the reject list, so
    len(accepted) + len(rejected) always equals the input row count.
    """
    text = _read_text(data)
    fmt = _infer_format(data, fmt)
    if fmt == "csv":
        rows = _iter_csv_rows(text, RECORD_COLUMNS)
    else:
        rows = _iter_json_rows(text)

    accepted: list[PublicationRecord] = []
    rejects: list[Reject] = []
    position: dict[tuple[str, str], int] = {}

    for rownum, row in enumerate(rows, 1):
        author_key = str(row.get("author_key") or "").strip()

        def reject(reason: str) -> None:
            rejects.append(Reject(row=rownum, author_key=author_key, reason=reason))

        if not author_key:
            reject("missing author_key")
            continue
        raw_doi = row.get("doi")
        raw_doi = str(raw_doi).strip() if raw_doi is not None else ""
        if not raw_doi:
            reject("missing doi")
            continue
        try:
            doi = normalize_doi(raw_doi)
        except MalformedDoi:
            reject("malformed doi")
            continue
        citations = _parse_citations(row.get("citations"))
        if citations is None:
            reject("invalid citations")
            continue
        if citations < 0:
            reject("negative citations")
            continue
        row_source = str(row.get("source") or "").strip()
        if row_source and row_source != source:
            reject("source mismatch")
            continue

        key = (author_key, doi)
        if key in position:
            idx = position[key]
            prior = accepted[idx]
            if citations > prior.citations:
                accepted[idx] = replace(prior, citations=citations)
            reject("duplicate doi")
            continue
        position[key] = len(accepted)
        accepted.append(
            PublicationRecord(
                doi=doi, citations=citations, source=source, author_key=author_key
            )
        )
    return accepted, rejects


def parse_roster(
    data: bytes | str | os.PathLike | IO[bytes], fmt: str | None = None
) -> list[RosterEntry]:
    """Parse the author roster (CSV or JSON array) into roster entries.

    Requires the full roster schema in the header; author_key and
    discipline must be non-empty per row, and author keys must be unique.
    """
    text = _read_text(data)
    fmt = _infer_format(data, fmt)
    if fmt == "csv":
        rows = _iter_csv_rows(text, ROSTER_COLUMNS)
    else:
        rows = _iter_json_rows(text)

    entries: list[RosterEntry] = []
    seen: set[str] = set()
    for rownum, row in enumerate(rows, 1):
        author_key = str(row.get("author_key") or "").strip()
        discipline = str(row.get("discipline") or "").strip()
        if not author_key:
            raise SchemaError(f"roster row {rownum}: missing author_key")
        if not discipline:
            raise SchemaError(f"roster row {rownum}: missing discipline")
        if author_key in seen:
            raise SchemaError(f"roster row {rownum}: duplicate author_key {author_key!r}")
        seen.add(author_key)
        external_ids = {
            scheme: str(row.get(scheme) or "").strip()
            for scheme in ("orcid", "researcher_id", "scopus_id")
            if str(row.get(scheme) or "").strip()
        }
        entries.append(
            RosterEntry(
                author_key=author_key,
                discipline=discipline,
                display_name=str(row.get("display_name") or "").strip(),
                external_ids=external_ids,
            )
        )
    return entries


def build_profiles(
    records: Iterable[PublicationRecord],
    roster: Iterable[RosterEntry],
    db_tags: tuple[str, str],
) -> list[AuthorProfile]:
    """Group accepted records by (author, database) over the roster.

    Every roster author appears exactly once, in roster order, with one
    (possibly empty) publication list per database tag. A record whose
    author_key is not in the roster raises UnknownAuthor; a record whose
    source is not a run tag raises SchemaError. DOI uniqueness within one
    database list is enforced with the same max-citations merge used at
    parse time.
    """
    profiles: dict[str, AuthorProfile] = {}
    for entry in roster:
        profiles[entry.author_key] = AuthorProfile(
            author_key=entry.author_key,
            discipline=entry.discipline,
            external_ids=dict(entry.external_ids),
            per_db_publications={tag: [] for tag in db_tags},
        )
    position: dict[tuple[str, str, str], int] = {}
    for rec in records:
        profile = profiles.get(rec.author_key)
        if profile is None:
            raise UnknownAuthor(f"record references unknown author_key {rec.author_key!r}")
        if rec.source not in profile.per_db_publications:
            raise SchemaError(f"record source {rec.source!r} is not a run database tag")
        pubs = profile.per_db_publications[rec.source]
        key = (rec.author_key, rec.source, rec.doi)
        if key in position:
            idx = position[key]
            if rec.citations > pubs[idx].citations:
                pubs[idx] = rec
            continue
        position[key] = len(pubs)
        pubs.append(rec)
    return list(profiles.values())


def profile_to_citations(profile: AuthorProfile, source: str) -> CitationProfile:
    """Citation counts of one database's publications, as a CitationProfile."""
    pubs = profile.per_db_publications.get(source, [])
    return CitationProfile(tuple(rec.citations for rec in pubs))
