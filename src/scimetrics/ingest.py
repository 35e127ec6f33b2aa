"""Publication-record ingestion.

Parses CSV/JSON exports from two citation databases into one
``author_key -> {doi: max_citations}`` map per database, normalizing DOIs
and filtering unusable rows into an auditable reject list, then attaches
each roster author's maps to one profile per author. The per-database map
is the one place where duplicate (author, doi) rows merge.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping

from .errors import MalformedDoi, SchemaError, UnknownAuthor
from .indices import CitationProfile

_DOI_PREFIX = re.compile(r"https?://doi\.org/|doi:")
# ASCII digits after "10.", then a suffix with no whitespace and no control
# character (C0, DEL or C1).
_DOI_SHAPE = re.compile(r"10\.[0-9]+/[^\s\x00-\x1f\x7f-\x9f]+")
_CITATIONS_SHAPE = re.compile(r"-?[0-9]+")

RECORD_COLUMNS = ("author_key", "doi", "citations")
ROSTER_COLUMNS = (
    "author_key",
    "orcid",
    "researcher_id",
    "scopus_id",
    "discipline",
    "display_name",
)

# One database's accepted records: author_key -> {doi: max citations}.
DoiMap = dict[str, dict[str, int]]


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


@dataclass
class AuthorProfile:
    """One roster author with a doi -> citations map per database tag."""

    author_key: str
    discipline: str
    per_db_publications: dict[str, dict[str, int]]


def _canonical_doi(raw: str) -> str | None:
    """``raw`` in canonical form, or None when it is not a DOI."""
    doi = raw.strip()
    lowered = doi.lower()
    if prefix := _DOI_PREFIX.match(lowered):
        lowered = doi[prefix.end() :].strip().lower()
    return lowered if _DOI_SHAPE.fullmatch(lowered) else None


def normalize_doi(raw: str) -> str:
    """Canonical lowercase DOI: scheme/URL prefix stripped, whitespace trimmed.

    Raises MalformedDoi unless the result has the ``10.<digits>/<suffix>``
    shape, with ASCII digits and a suffix free of whitespace and control
    characters. Idempotent on its own output.
    """
    doi = _canonical_doi(raw)
    if doi is None:
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


def _rows(
    data: bytes | str | os.PathLike | IO[bytes],
    fmt: str | None,
    required: tuple[str, ...],
    fields: tuple[str, ...],
) -> Iterator[tuple]:
    """The ``fields`` of every data row of one input, as a tuple per row.

    JSON must be an array of objects; an absent key reads None. A CSV
    header must name every ``required`` column. Column positions are
    resolved once from the header, where a repeated name means its last
    column. A blank line is skipped and takes no row number, a missing
    field reads "", and fields past the header are ignored. ``fields``
    holds at least two names, so that ``itemgetter`` returns a tuple.
    """
    text = _read_text(data)
    if _infer_format(data, fmt) == "json":
        for item in _json_objects(text):
            yield tuple(map(item.get, fields))
        return
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        position = {name: i for i, name in enumerate(header)}
        missing = [col for col in required if col not in position]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        # A field the header lacks reads the "" appended to every row.
        pick = itemgetter(*(position.get(name, -1) for name in fields))
        width = len(header)
        for row in reader:
            if row:
                if len(row) < width:
                    row += [""] * (width - len(row))
                row.append("")
                yield pick(row)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"invalid CSV at line {reader.line_num}: {exc}") from exc


def _json_objects(text: str) -> list[dict]:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long ints, deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list) or not all(isinstance(item, dict) for item in payload):
        raise SchemaError("JSON input must be an array of objects")
    return payload


def _parse_citations(value) -> int | None:
    """Citation count as int, or None when unparseable (bool is rejected).

    A string count must be ASCII digits with an optional leading minus
    after stripping whitespace: no other scripts' digits, no underscores.
    """
    if isinstance(value, str):
        if _CITATIONS_SHAPE.fullmatch(value := value.strip()):
            try:
                return int(value)
            except ValueError:  # more digits than the interpreter converts
                pass
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def parse_records(
    data: bytes | str | os.PathLike | IO[bytes],
    fmt: str | None = None,
    source: str = "scopus",
) -> tuple[DoiMap, list[Reject]]:
    """Parse one database export into its doi map plus a reject list.

    ``data`` is a path, raw bytes, or a readable binary stream; ``fmt`` is
    "csv" or "json" (inferred from a path suffix when None). ``source`` is
    the database tag the file was registered under.

    The accepted records come back as ``{author_key: {doi: citations}}``,
    in order of each author's and each DOI's first accepted row. Rows
    without a usable author key, DOI, or citation count, or whose
    ``source`` names another database, are rejected with a reason and
    their 1-based data-row number. A repeated (author_key, doi) keeps the
    maximum citation count and each later row is rejected as a duplicate,
    so the accepted (author, doi) pairs plus the rejects always equal the
    input row count.
    """
    accepted: DoiMap = {}
    rejects: list[Reject] = []
    rows = _rows(data, fmt, RECORD_COLUMNS, (*RECORD_COLUMNS, "source"))
    for rownum, (author_key, raw_doi, raw_citations, row_source) in enumerate(rows, 1):
        author_key = str(author_key or "").strip()
        raw_doi = "" if raw_doi is None else str(raw_doi).strip()
        doi = _canonical_doi(raw_doi)
        citations = _parse_citations(raw_citations)
        row_source = str(row_source or "").strip()
        if not author_key:
            reason = "missing author_key"
        elif not raw_doi:
            reason = "missing doi"
        elif doi is None:
            reason = "malformed doi"
        elif citations is None:
            reason = "invalid citations"
        elif citations < 0:
            reason = "negative citations"
        elif row_source and row_source != source:
            reason = "source mismatch"
        else:
            pubs = accepted.setdefault(author_key, {})
            prior = pubs.get(doi)
            if prior is None:
                pubs[doi] = citations
                continue
            if citations > prior:
                pubs[doi] = citations
            reason = "duplicate doi"
        rejects.append(Reject(rownum, author_key, reason))
    return accepted, rejects


def parse_roster(
    data: bytes | str | os.PathLike | IO[bytes], fmt: str | None = None
) -> list[RosterEntry]:
    """Parse the author roster (CSV or JSON array) into roster entries.

    Requires the full roster schema in the header; author_key and
    discipline must be non-empty per row, and author keys must be unique.
    """
    entries: list[RosterEntry] = []
    seen: set[str] = set()
    rows = _rows(data, fmt, ROSTER_COLUMNS, ("author_key", "discipline"))
    for rownum, (author_key, discipline) in enumerate(rows, 1):
        author_key = str(author_key or "").strip()
        discipline = str(discipline or "").strip()
        if not author_key:
            raise SchemaError(f"roster row {rownum}: missing author_key")
        if not discipline:
            raise SchemaError(f"roster row {rownum}: missing discipline")
        if author_key in seen:
            raise SchemaError(f"roster row {rownum}: duplicate author_key {author_key!r}")
        seen.add(author_key)
        entries.append(RosterEntry(author_key, discipline))
    return entries


def build_profiles(
    accepted: Mapping[str, DoiMap],
    roster: Iterable[RosterEntry],
    db_tags: tuple[str, str],
) -> list[AuthorProfile]:
    """One profile per roster author, holding its doi map per database.

    ``accepted`` maps each database tag to that database's
    ``parse_records`` map. Every roster author appears exactly once, in
    roster order, with one (possibly empty) map per database tag; the maps
    are attached as they are, without a second merge. An author key that
    is not in the roster raises UnknownAuthor (the first such key in tag,
    then first-accepted-row order); a tag that is not a run tag raises
    SchemaError.
    """
    profiles = {
        entry.author_key: AuthorProfile(
            entry.author_key, entry.discipline, {tag: {} for tag in db_tags}
        )
        for entry in roster
    }
    for tag, by_author in accepted.items():
        if tag not in db_tags:
            raise SchemaError(f"record source {tag!r} is not a run database tag")
        for author_key, pubs in by_author.items():
            profile = profiles.get(author_key)
            if profile is None:
                raise UnknownAuthor(f"record references unknown author_key {author_key!r}")
            profile.per_db_publications[tag] = pubs
    return list(profiles.values())


def profile_to_citations(profile: AuthorProfile, source: str) -> CitationProfile:
    """Citation counts of one database's publications, as a CitationProfile."""
    return CitationProfile(tuple(profile.per_db_publications.get(source, {}).values()))
