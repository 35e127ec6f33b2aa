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
from itertools import chain, count, islice, repeat
from operator import iadd, itemgetter
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MalformedDoi, SchemaError, UnknownAuthor
from .indices import CitationProfile

# A DOI field, lowercased: blanks, an optional scheme/URL prefix, then the
# DOI (ASCII digits after "10.", then a suffix with no whitespace and no
# control character: C0, DEL or C1), then blanks. Group 1 is the DOI, or
# None ("" in a findall) when the field is not one. Blank runs stop at "\n",
# so one findall canonicalizes every line of a "\n"-joined column. Every run
# is possessive, so a hostile line is rejected in linear time. ``_DOI_ASCII``
# is the same rule for ASCII text, its classes written as ASCII ranges.
_DOI_RULE = r"^(?:{0}*+(?:(?:https?://doi\.org/|doi:){0}*+)?(10\.[0-9]++/{1}++){0}*+$)?.*$"
_DOI = re.compile(_DOI_RULE.format(r"[^\S\n]", r"[^\s\x00-\x1f\x7f-\x9f]"), re.MULTILINE)
_DOI_ASCII = re.compile(_DOI_RULE.format(r"[ \t\x0b-\r\x1c-\x1f]", "[!-~]"), re.MULTILINE)
# A run of whole lines, each a bare DOI or empty: it must accept only lines
# that ``_DOI_ASCII`` maps to themselves (a DOI with no blank and no prefix,
# or "" for an empty line, a missing DOI), so a run of an already lowered
# column is its own canonical form. Possessive, so one match takes a run in
# linear time.
_BARE_DOI_LINES = re.compile(r"(?:10\.[0-9]++/[!-~]++\n|\n)*+")
_CITATIONS_SHAPE = re.compile(r"-?[0-9]+")
# The largest accepted citation count, the largest signed 64-bit value: a
# count above it is rejected, so every total stays far below the interpreter's
# int-to-string limit when it is written.
MAX_CITATIONS = 2**63 - 1
# Characters of CSV text read per block: enough to spread the per-block
# overhead, few enough that one block of rows stays small.
BLOCK = 1 << 16
# Lines between runs that ``_canonical_dois`` matches one at a time, at most
# one per this many lines of a column: such a line costs about four lines of
# one findall, so a column of other fields costs no more than about 1.4
# findalls over it, where matching every line costs about 4.
MATCH_SHARE = 16
# Rows validated per loop step where ``csv.reader`` reads the rows.
CHUNK_ROWS = 1024
# Deletes every byte but "," and "\n", leaving the shape of a block's rows.
_NOT_COMMA_OR_NEWLINE = bytes(range(256)).replace(b",", b"").replace(b"\n", b"")
# Stands for a JSON string that is not UTF-8 text: it is no str, so it is
# refused as any other non-string value is.
_NOT_TEXT = object()

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


class Reject(NamedTuple):
    """A dropped input row: 1-based data-row number, author key, reason."""

    row: int
    author_key: str
    reason: str


class RosterEntry(NamedTuple):
    author_key: str
    discipline: str


class AuthorProfile(NamedTuple):
    """One roster author with a doi -> citations map per database tag."""

    author_key: str
    discipline: str
    per_db_publications: dict[str, dict[str, int]]


def _canonical_doi(raw: str) -> str | None:
    """``raw`` in canonical form, or None when it is not a DOI."""
    # A "\n" can only stand in a blank run, where a space means the same.
    return _DOI.fullmatch(raw.lower().replace("\n", " "))[1]


def _canonical_dois(fields: Sequence) -> list[str]:
    """The canonical DOI of each field, or "" where this one pass finds none.

    A field that is not a DOI gives "". So does every field of a column
    that holds a value other than a str (JSON) or a field with a "\n",
    which the pass cannot tell from a line end; ``_canonical_doi`` decides
    those one at a time. An ASCII column with no "doi:" or "doi.org/" in
    it is matched one run of bare-DOI and empty lines at a time, and each
    line between runs on its own, by the same rule; where lowercasing
    changes no field, the result holds the given fields themselves. Past
    one such line per ``MATCH_SHARE`` lines of the column, one pass takes
    the rest of it.
    """
    try:
        joined = "\n".join(fields)
    except TypeError:  # a JSON value that is not a str
        return [""] * len(fields)
    text = joined.lower()
    if text.count("\n") >= len(fields):  # a field holds "\n", or there is none
        return [""] * len(fields)
    if not text.isascii():
        return _DOI.findall(text)
    if "doi:" in text or "doi.org/" in text:
        return _DOI_ASCII.findall(text)
    dois = list(fields) if text == joined else text.split("\n")
    text += "\n"
    end = len(text)
    pos = start = line = 0
    matches = len(fields) // MATCH_SHARE
    while (pos := _BARE_DOI_LINES.match(text, pos).end()) < end:
        line += text.count("\n", start, pos)  # the run's lines
        if not matches:
            dois[line:] = _DOI_ASCII.findall(text, pos, end - 1)
            break
        matches -= 1
        found = _DOI_ASCII.match(text, pos)
        dois[line] = found[1] or ""
        pos = start = found.end() + 1
        line += 1
    return dois


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


def _rows(
    path: str | os.PathLike, required: tuple[str, ...], fields: tuple[str, ...]
) -> Iterator[list[Sequence]]:
    """The ``fields`` of every data row of one input file, as columns.

    Each item holds one column per name in ``fields``, all of one length:
    the next rows in file order, so that the caller validates a block of
    rows per loop step. The file is UTF-8, with or without a BOM, and is
    JSON when its name ends in ".json" in any case, else CSV. JSON is
    read whole, as one block, and must be an array of objects, where an
    absent key or null reads "", a string that is not UTF-8 text (it holds
    a lone surrogate) reads as a non-string, and any other value is passed
    on as it is. CSV is read ``BLOCK`` characters at a time, each block
    taken on to the end of its last line, so only one block is held at
    once; ``_split_block`` splits a plain block into its columns. From the
    first block that is not plain, the rest of the file goes through
    ``csv.reader``, ``CHUNK_ROWS`` rows at a time. A CSV header must name
    every ``required`` column. Column positions are resolved once from the
    header, where a repeated name means its last column. A blank line is
    skipped and takes no row number, a missing field reads "", and fields
    past the header are ignored. ``fields`` holds at least two names, so
    that ``itemgetter`` returns a tuple.
    """
    with open(path, encoding="utf-8-sig", newline="") as text:
        try:
            if os.fspath(path).lower().endswith(".json"):
                items = _json_objects(text.read())
                yield [[_json_field(item.get(name)) for item in items] for name in fields]
            else:
                yield from _csv_columns(text, required, fields)
        except UnicodeDecodeError as exc:
            line = _bad_line(text.buffer)
            raise SchemaError(f"input is not valid UTF-8 at line {line}: {exc.reason}") from exc


def _csv_columns(
    text: IO[str], required: tuple[str, ...], fields: tuple[str, ...]
) -> Iterator[list[Sequence]]:
    reader = csv.reader(text)
    before = 0  # lines read before the first line of ``reader``
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        position = {name: i for i, name in enumerate(header)}
        missing = [col for col in required if col not in position]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        width = len(header)
        at = [position.get(name, -1) for name in fields]
        lines = reader.line_num
        while block := text.read(BLOCK):
            if block[-1] != "\n":
                block += text.readline()
            columns = _split_block(block, width, at)
            if columns is None:
                break
            yield columns
            lines += block.count("\n")
        else:
            return
        # A quoted field can hold line ends, and so run on past any block.
        before = lines
        reader = csv.reader(chain(io.StringIO(block, newline=""), text))
        # Every non-blank row is extended by the pad, so a field past the end
        # of a short row, and a field the header lacks (position -1, the
        # pad's last), read "".
        pad = [""] * width
        rows = map(itemgetter(*at), map(iadd, filter(None, reader), repeat(pad)))
        while chunk := list(islice(rows, CHUNK_ROWS)):
            yield list(zip(*chunk))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"invalid CSV at line {before + reader.line_num}: {exc}") from exc


def _split_block(block: str, width: int, at: list[int]) -> list[list[str]] | None:
    """The columns at positions ``at`` of a block of whole CSV lines, or None.

    A plain block is split with str methods into the fields ``csv.reader``
    gives: a "\r\n" line end reads as "\n", and a position of -1 gives a
    column of "". The result is None, for ``csv.reader`` to read, when the
    block holds a quote or a lone "\r", a row with another field count
    than ``width``, or a field over ``csv.field_size_limit()``.
    """
    if "\r" in block:
        block = block.replace("\r\n", "\n")
    if '"' in block or "\r" in block:
        return None
    if block[0] == "\n" or "\n\n" in block or block[-1] != "\n":
        # Blank lines take no row; the file's last line may lack its "\n".
        block = "".join(line + "\n" for line in block.split("\n") if line)
    shape = block.encode().translate(None, _NOT_COMMA_OR_NEWLINE)
    n = len(shape) // width  # rows, if each is width - 1 commas and a "\n"
    if shape != (b"," * (width - 1) + b"\n") * n:
        return None
    cells = block.replace("\n", ",").split(",")
    cells.pop()  # after the last line end
    limit = csv.field_size_limit()
    if len(block) > limit and max(map(len, cells)) > limit:
        return None
    return [[""] * n if i < 0 else cells[i::width] for i in at]


def _bad_line(binary: IO[bytes]) -> int:
    """1-based line of the first byte that is not UTF-8."""
    binary.seek(0)
    raw = binary.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[: exc.start]
    # Lines end at "\n", "\r" or "\r\n", as the CSV reader splits them.
    return raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n") + 1


def _json_objects(text: str) -> list[dict]:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-long ints, deep nesting
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list) or not all(isinstance(item, dict) for item in payload):
        raise SchemaError("JSON input must be an array of objects")
    return payload


def _json_field(value):
    """One JSON value as a row field.

    Null reads "", and a str that UTF-8 cannot encode (it holds a lone
    surrogate) reads as ``_NOT_TEXT``; any other value is passed on as it is.
    """
    if value is None:
        return ""
    if isinstance(value, str) and not value.isascii():
        try:
            value.encode()
        except UnicodeEncodeError:
            return _NOT_TEXT
    return value


def _parse_citations(values: list) -> list[int | None]:
    """Each citation count as an int, or None when unparseable or above MAX_CITATIONS.

    A string count must be ASCII digits with an optional leading minus
    after stripping whitespace: no other scripts' digits, no underscores.
    A bool is rejected.
    """
    try:
        text = "".join(values)
        # On ASCII text with no "+" or "_", int() takes exactly the rule's text.
        if text.isascii() and "+" not in text and "_" not in text:
            counts = list(map(int, values))
            if max(counts, default=0) <= MAX_CITATIONS:
                return counts
    except (TypeError, ValueError):  # a JSON non-string; a value int() refuses
        pass
    counts = []
    append = counts.append
    for value in values:
        if isinstance(value, str):
            if not (value.isascii() and value.isdigit()):
                value = value.strip()
                if not _CITATIONS_SHAPE.fullmatch(value):
                    append(None)
                    continue
            try:
                value = int(value)
            except ValueError:  # more digits than the interpreter converts
                append(None)
                continue
        elif isinstance(value, bool) or not isinstance(value, int):
            append(None)
            continue
        append(value if value <= MAX_CITATIONS else None)
    return counts


def _non_string(*named: tuple[str, object]) -> str:
    """The name of the first of the (name, value) pairs whose value is not a str."""
    return next(name for name, value in named if not isinstance(value, str))


def parse_records(path: str | os.PathLike, source: str) -> tuple[DoiMap, list[Reject]]:
    """Parse one database export file into its doi map plus a reject list.

    ``path`` names a CSV file, or a JSON file when it ends in ".json" in
    any case; ``source`` is the database tag the file was registered under.
    Every SchemaError raised reads ``records export PATH (source): ...``.

    The accepted records come back as ``{author_key: {doi: citations}}``,
    in order of each author's and each DOI's first accepted row. Rows
    without a usable author key, DOI, or citation count, or whose
    ``source`` names another database, are rejected with a reason and
    their 1-based data-row number; so is a JSON row whose author_key, doi
    or source is neither UTF-8 text nor null (``invalid <field>``). A
    repeated (author_key, doi) keeps the maximum citation count and each
    later row is rejected as a duplicate, so the accepted (author, doi)
    pairs plus the rejects always equal the input row count.
    """
    accepted: DoiMap = {}
    rejects: list[Reject] = []
    rownums = count(1)
    try:
        for keys, raw_dois, raw_counts, sources in _rows(
            path, RECORD_COLUMNS, (*RECORD_COLUMNS, "source")
        ):
            dois = _canonical_dois(raw_dois)
            counts = _parse_citations(raw_counts)
            # ``rownums`` comes last, so that the end of a block takes no number.
            for author_key, doi, raw_doi, citations, row_source, rownum in zip(
                keys, dois, raw_dois, counts, sources, rownums
            ):
                try:
                    author_key = author_key.strip()
                    doi = doi or _canonical_doi(raw_doi)  # "" is left to the per-field rule
                    row_source = row_source.strip()
                except AttributeError:  # a JSON value that is not UTF-8 text or null
                    field = _non_string(
                        ("author_key", author_key), ("doi", raw_doi), ("source", row_source)
                    )
                    key = author_key if isinstance(author_key, str) else ""
                    rejects.append(Reject(rownum, key, f"invalid {field}"))
                    continue
                if not author_key:
                    reason = "missing author_key"
                elif doi is None:
                    reason = "malformed doi" if raw_doi.strip() else "missing doi"
                elif citations is None:
                    reason = "invalid citations"
                elif citations < 0:
                    reason = "negative citations"
                elif row_source and row_source != source:
                    reason = "source mismatch"
                else:
                    pubs = accepted.get(author_key)
                    if pubs is None:
                        pubs = accepted[author_key] = {}
                    prior = pubs.get(doi)
                    if prior is None:
                        pubs[doi] = citations
                        continue
                    if citations > prior:
                        pubs[doi] = citations
                    reason = "duplicate doi"
                rejects.append(Reject(rownum, author_key, reason))
    except SchemaError as exc:
        raise SchemaError(f"records export {path} ({source}): {exc}") from exc
    return accepted, rejects


def parse_roster(path: str | os.PathLike) -> list[RosterEntry]:
    """Parse the author roster file (CSV, or JSON as ``parse_records``) into entries.

    Requires the full roster schema in the header and at least one row;
    author_key and discipline must be non-empty strings of UTF-8 text per
    row, and author keys must be unique. Every SchemaError raised reads
    ``roster PATH: ...``.
    """
    entries: list[RosterEntry] = []
    seen: set[str] = set()
    rownums = count(1)
    try:
        for keys, disciplines in _rows(path, ROSTER_COLUMNS, ("author_key", "discipline")):
            for author_key, discipline, rownum in zip(keys, disciplines, rownums):
                try:
                    author_key = author_key.strip()
                    discipline = discipline.strip()
                except AttributeError:  # a JSON value that is not UTF-8 text or null
                    field = _non_string(("author_key", author_key), ("discipline", discipline))
                    raise SchemaError(
                        f"roster row {rownum}: {field} must be a string of UTF-8 text"
                    ) from None
                if not author_key:
                    raise SchemaError(f"roster row {rownum}: missing author_key")
                if not discipline:
                    raise SchemaError(f"roster row {rownum}: missing discipline")
                if author_key in seen:
                    raise SchemaError(f"roster row {rownum}: duplicate author_key {author_key!r}")
                seen.add(author_key)
                entries.append(RosterEntry(author_key, discipline))
        if not entries:
            raise SchemaError("empty roster")
    except SchemaError as exc:
        raise SchemaError(f"roster {path}: {exc}") from exc
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
    return CitationProfile(profile.per_db_publications.get(source, {}).values())
