"""Rows validated a chunk at a time give what the per-row loop gave.

The oracle below is the previous row source and the previous per-row loops
of ``parse_records`` and ``parse_roster``, kept as they were apart from two
calls into the rules they share with the chunked code: ``_json_field`` for
a JSON value and ``_parse_citations`` on a one-value column per row. Inputs
sit on both sides of the chunk edges at ``CHUNK_ROWS`` and twice that.
"""

import csv
import io
import json
from operator import itemgetter

import pytest

from scimetrics import ingest
from scimetrics.errors import SchemaError
from scimetrics.ingest import (
    CHUNK_ROWS,
    RECORD_COLUMNS,
    ROSTER_COLUMNS,
    Reject,
    RosterEntry,
    parse_records,
    parse_roster,
)

SIZES = (1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)


def oracle_rows(data, fmt, required, fields):
    json_input = ingest._infer_format(data, fmt) == "json"
    binary = io.BytesIO(data) if isinstance(data, bytes) else open(data, "rb")
    with io.TextIOWrapper(binary, encoding="utf-8-sig", newline="") as text:
        try:
            if json_input:
                for item in ingest._json_objects(text.read()):
                    yield tuple(map(ingest._json_field, map(item.get, fields)))
            else:
                yield from oracle_csv_rows(text, required, fields)
        except UnicodeDecodeError as exc:
            line = ingest._bad_line(binary)
            raise SchemaError(f"input is not valid UTF-8 at line {line}: {exc.reason}") from exc


def oracle_csv_rows(text, required, fields):
    reader = csv.reader(text)
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty input: no header row")
        position = {name: i for i, name in enumerate(header)}
        missing = [col for col in required if col not in position]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        pick = itemgetter(*(position.get(name, -1) for name in fields))
        width = len(header)
        for row in reader:
            if row:
                if len(row) < width:
                    row += [""] * (width - len(row))
                row.append("")
                yield pick(row)
    except csv.Error as exc:
        raise SchemaError(f"invalid CSV at line {reader.line_num}: {exc}") from exc


def oracle_parse_records(data, fmt=None, source="scopus"):
    accepted = {}
    rejects = []
    rows = oracle_rows(data, fmt, RECORD_COLUMNS, (*RECORD_COLUMNS, "source"))
    for rownum, (author_key, raw_doi, raw_citations, row_source) in enumerate(rows, 1):
        try:
            author_key = author_key.strip()
            doi = ingest._canonical_doi(raw_doi)
            row_source = row_source.strip()
        except AttributeError:
            field = ingest._non_string(
                ("author_key", author_key), ("doi", raw_doi), ("source", row_source)
            )
            key = author_key if isinstance(author_key, str) else ""
            rejects.append(Reject(rownum, key, f"invalid {field}"))
            continue
        citations = ingest._parse_citations([raw_citations])[0]
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
    return accepted, rejects


def oracle_parse_roster(data, fmt=None):
    entries = []
    seen = set()
    rows = oracle_rows(data, fmt, ROSTER_COLUMNS, ("author_key", "discipline"))
    for rownum, (author_key, discipline) in enumerate(rows, 1):
        try:
            author_key = author_key.strip()
            discipline = discipline.strip()
        except AttributeError:
            field = ingest._non_string(("author_key", author_key), ("discipline", discipline))
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
    return entries


def record_rows(n):
    """``n`` export rows with every reject reason and runs of duplicates."""
    rows = []
    for i in range(n):
        author, doi, source = f"a{i // 3 % 13}", f"10.{i % 2}/p{i // 3}", "scopus"
        citations = str(i % 40)
        kind = i % 17
        if kind == 0:
            author = " "
        elif kind == 1:
            doi = "junk"
        elif kind == 2:
            doi = ""
        elif kind == 3:
            citations = "-4"
        elif kind == 4:
            citations = "many"
        elif kind == 5:
            source = "wos"
        elif kind == 6:
            doi = "doi:" + doi.upper()
        elif kind == 7:
            citations = f" {i} "
        elif kind == 8:
            source = ""
        rows.append({"author_key": author, "doi": doi, "citations": citations, "source": source})
    return rows


def roster_rows(n):
    return [
        {"author_key": f"a{i}", "orcid": "", "researcher_id": "", "scopus_id": "",
         "discipline": f"d{i % 3}", "display_name": ""}
        for i in range(n)
    ]


def as_csv(rows, blank_before=()):
    """CSV of ``rows``, with a blank line before each listed 0-based row."""
    lines = [",".join(rows[0])]
    for i, row in enumerate(rows):
        if i in blank_before:
            lines.append("")
        lines.append(",".join(row.values()))
    return ("\n".join(lines) + "\n\n").encode()


def encode(rows, fmt):
    if fmt == "json":
        return json.dumps(rows).encode()
    edges = {CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS}
    return as_csv(rows, blank_before=edges)


def in_order(accepted):
    """A doi map with its entry order made part of equality."""
    return [(author, list(pubs.items())) for author, pubs in accepted.items()]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", SIZES)
def test_chunked_records_equal_the_per_row_loop(n, fmt):
    data = encode(record_rows(n), fmt)
    accepted, rejects = parse_records(data, fmt, "scopus")
    want_accepted, want_rejects = oracle_parse_records(data, fmt, "scopus")
    assert in_order(accepted) == in_order(want_accepted)
    assert rejects == want_rejects
    assert len(rejects) + sum(map(len, accepted.values())) == n


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", SIZES)
def test_chunked_roster_equals_the_per_row_loop(n, fmt):
    data = encode(roster_rows(n), fmt)
    assert parse_roster(data, fmt) == oracle_parse_roster(data, fmt)


def test_blank_lines_at_chunk_edges_take_no_row_number():
    rows = record_rows(2 * CHUNK_ROWS + 1)
    _, rejects = parse_records(encode(rows, "csv"), "csv", "scopus")
    _, plain = parse_records(as_csv(rows), "csv", "scopus")
    assert rejects == plain


@pytest.mark.parametrize(
    "edit",
    [
        {"author_key": "a1"},  # a duplicate key
        {"discipline": " "},
        {"author_key": 7},
    ],
)
@pytest.mark.parametrize("row", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_roster_error_at_a_chunk_edge_names_the_same_row(edit, row):
    rows = roster_rows(2 * CHUNK_ROWS)
    rows[row] = {**rows[row], **edit}
    data = json.dumps(rows).encode()
    with pytest.raises(SchemaError) as got:
        parse_roster(data, "json")
    with pytest.raises(SchemaError) as want:
        oracle_parse_roster(data, "json")
    assert str(got.value) == str(want.value)
    assert f"roster row {row + 1}:" in str(got.value)


@pytest.mark.parametrize(
    "bad_row",
    [b"a2,10.1/\xff,5\n", b"a2,10.1/" + b"x" * 140_000 + b",5\n"],
    ids=["not-utf8", "over-field-limit"],
)
def test_bad_first_row_of_the_second_chunk_gives_the_same_diagnostic(bad_row):
    data = as_csv(record_rows(CHUNK_ROWS)).rstrip(b"\n") + b"\n" + bad_row
    with pytest.raises(SchemaError) as got:
        parse_records(data, "csv", "scopus")
    with pytest.raises(SchemaError) as want:
        oracle_parse_records(data, "csv", "scopus")
    assert str(got.value) == str(want.value)
    assert f"line {CHUNK_ROWS + 2}" in str(got.value)


def test_counts_are_parsed_once_per_chunk(monkeypatch):
    calls = []
    parse_citations = ingest._parse_citations

    def counted(values):
        calls.append(len(values))
        return parse_citations(values)

    monkeypatch.setattr(ingest, "_parse_citations", counted)
    rows = record_rows(2 * CHUNK_ROWS + 1)
    accepted, rejects = parse_records(as_csv(rows), "csv", "scopus")
    assert len(calls) <= 3 and sum(calls) == len(rows)
    monkeypatch.undo()
    assert (accepted, rejects) == oracle_parse_records(as_csv(rows), "csv", "scopus")
