"""Rows validated a chunk at a time give what the per-row loop gave.

The oracle below is the previous row source and the previous per-row loops
of ``parse_records`` and ``parse_roster``, kept as they were apart from two
calls into the rules they share with the chunked code: ``_json_field`` for
a JSON value and ``_parse_citations`` on a one-value column per row. It
reads the whole file as bytes, and names the file in its diagnostics as
the parsers do. Inputs sit on both sides of the chunk edges at
``CHUNK_ROWS`` and twice that, and of the edges between the
``BLOCK``-character blocks that CSV text is read in.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from helpers import input_file

SIZES = (1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)


def oracle_rows(path, required, fields):
    json_input = str(path).lower().endswith(".json")
    binary = io.BytesIO(Path(path).read_bytes())
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


@contextlib.contextmanager
def naming(role):
    """Prefixes the text of a SchemaError raised in the block with ``role``."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{role}: {exc}") from exc


def oracle_parse_records(path, source):
    with naming(f"records export {path} ({source})"):
        return oracle_records(path, source)


def oracle_records(path, source):
    accepted = {}
    rejects = []
    rows = oracle_rows(path, RECORD_COLUMNS, (*RECORD_COLUMNS, "source"))
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


def oracle_parse_roster(path):
    with naming(f"roster {path}"):
        return oracle_roster(path)


def oracle_roster(path):
    entries = []
    seen = set()
    rows = oracle_rows(path, ROSTER_COLUMNS, ("author_key", "discipline"))
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
    if not entries:
        raise SchemaError("empty roster")
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
def test_chunked_records_equal_the_per_row_loop(n, fmt, tmp_path):
    path = input_file(tmp_path, encode(record_rows(n), fmt), f".{fmt}")
    accepted, rejects = parse_records(path, "scopus")
    want_accepted, want_rejects = oracle_parse_records(path, "scopus")
    assert in_order(accepted) == in_order(want_accepted)
    assert rejects == want_rejects
    assert len(rejects) + sum(map(len, accepted.values())) == n


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", SIZES)
def test_chunked_roster_equals_the_per_row_loop(n, fmt, tmp_path):
    path = input_file(tmp_path, encode(roster_rows(n), fmt), f".{fmt}")
    assert parse_roster(path) == oracle_parse_roster(path)


def test_blank_lines_at_chunk_edges_take_no_row_number(tmp_path):
    rows = record_rows(2 * CHUNK_ROWS + 1)
    _, rejects = parse_records(input_file(tmp_path, encode(rows, "csv"), ".csv"), "scopus")
    _, plain = parse_records(input_file(tmp_path, as_csv(rows), ".csv"), "scopus")
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
def test_roster_error_at_a_chunk_edge_names_the_same_row(edit, row, tmp_path):
    rows = roster_rows(2 * CHUNK_ROWS)
    rows[row] = {**rows[row], **edit}
    path = input_file(tmp_path, json.dumps(rows).encode(), ".json")
    with pytest.raises(SchemaError) as got:
        parse_roster(path)
    with pytest.raises(SchemaError) as want:
        oracle_parse_roster(path)
    assert str(got.value) == str(want.value)
    assert f"roster row {row + 1}:" in str(got.value)


@pytest.mark.parametrize(
    "bad_row",
    [b"a2,10.1/\xff,5\n", b"a2,10.1/" + b"x" * 140_000 + b",5\n"],
    ids=["not-utf8", "over-field-limit"],
)
def test_bad_first_row_of_the_second_chunk_gives_the_same_diagnostic(bad_row, tmp_path):
    data = as_csv(record_rows(CHUNK_ROWS)).rstrip(b"\n") + b"\n" + bad_row
    path = input_file(tmp_path, data, ".csv")
    with pytest.raises(SchemaError) as got:
        parse_records(path, "scopus")
    with pytest.raises(SchemaError) as want:
        oracle_parse_records(path, "scopus")
    assert str(got.value) == str(want.value)
    assert f"line {CHUNK_ROWS + 2}" in str(got.value)


def test_counts_are_parsed_once_per_chunk(monkeypatch, tmp_path):
    calls = []
    parse_citations = ingest._parse_citations

    def counted(values):
        calls.append(len(values))
        return parse_citations(values)

    monkeypatch.setattr(ingest, "_parse_citations", counted)
    rows = record_rows(2 * CHUNK_ROWS + 1)
    path = input_file(tmp_path, as_csv(rows), ".csv")
    accepted, rejects = parse_records(path, "scopus")
    assert len(calls) <= 3 and sum(calls) == len(rows)
    monkeypatch.undo()
    assert (accepted, rejects) == oracle_parse_records(path, "scopus")


# CSV text is read ``BLOCK`` characters at a time after the header line. Each
# input below puts ``before`` at the very end of the first block and
# ``after`` at the start of the second, with plain rows around them.
HEADER = "author_key,doi,citations,source\n"


def plain_rows(n, start=0):
    return "".join(
        f"a{i % 7},10.{i % 3}/p{i // 2},{i % 11},{'scopus' if i % 5 else ''}\n"
        for i in range(start, start + n)
    )


def at_block_edge(before, after, newline="\n"):
    """An export whose first block ends with ``before`` and whose second starts with ``after``."""
    fill = ingest.BLOCK - len(before)
    rows = plain_rows(fill // 24).replace("\n", newline)
    pad = fill - len(rows) - len(f"a1,10.9/,1,scopus{newline}")
    assert pad >= 0
    rows += f"a1,10.9/{'x' * pad},1,scopus{newline}"
    tail = plain_rows(40, start=5000).replace("\n", newline)
    assert len(rows + before) == ingest.BLOCK
    return HEADER.replace("\n", newline) + rows + before + after + tail


def outcome(parse, path):
    """What ``parse`` returns for ``path``, or the text of the SchemaError it raises."""
    try:
        accepted, rejects = parse(path, "scopus")
    except SchemaError as exc:
        return "raises", str(exc)
    return in_order(accepted), rejects


def assert_like_the_oracle(text):
    data = text.encode() if isinstance(text, str) else text
    with tempfile.TemporaryDirectory() as directory:
        path = input_file(directory, data, ".csv")
        got = outcome(parse_records, path)
        want = outcome(oracle_parse_records, path)
    assert got == want
    return got


BLOCK_EDGES = {
    "row_split_across_blocks": ("a2,10.1/spl", "it,3,scopus\n", "\n"),
    "cr_ends_a_block_lf_starts_the_next": (
        "a2,10.1/crlf,3,scopus\r", "\na3,10.1/z,4,\r\n", "\r\n"
    ),
    "blank_line_at_a_block_edge": ("a2,10.1/b,3,scopus\n", "\n\na3,10.1/c,4,scopus\n", "\n"),
    "blank_line_ends_a_block": ("a2,10.1/b,3,scopus\n\n", "a3,10.1/c,4,scopus\n", "\n"),
    "quoted_field_across_blocks": ('a2,"10.1/q', 'uo\nted, x",3,scopus\na3,"",1,\n', "\n"),
    "quote_after_plain_crlf_blocks": (
        "a2,10.1/q,3,scopus\r\n", 'a3,"10.1/""q""",4,scopus\r\n', "\r\n"
    ),
    "ragged_rows_in_the_next_block": (
        "a2,10.1/r,3,scopus\n", "a3,10.1/s,4\na4,10.1/t,5,scopus,extra\n", "\n"
    ),
    "lone_cr_in_the_next_block": (
        "a2,10.1/r,3,scopus\n", "a3,10.1/s,4,scopus\ra4,10.1/t,5,\n", "\n"
    ),
    "lone_cr_splits_a_row_of_the_header_width": (
        "a2,10.1/r,3,\n", "a3,10.1/s,\r4,scopus\n", "\n"
    ),
    "whitespace_only_line": ("a2,10.1/r,3,scopus\n", " \n\t\na3,10.1/s,4,scopus\n", "\n"),
    "nul_in_the_next_block": ("a2,10.1/r,3,scopus\n", "a3,10.1/\0s,4,scopus\n", "\n"),
}


@pytest.mark.parametrize("case", sorted(BLOCK_EDGES))
def test_block_edges_give_what_csv_reader_gives(case):
    before, after, newline = BLOCK_EDGES[case]
    accepted, rejects = assert_like_the_oracle(at_block_edge(before, after, newline))
    assert sum(map(len, (pubs for _, pubs in accepted))) + len(rejects) > ingest.BLOCK // 30


def test_one_ragged_row_in_an_otherwise_plain_block():
    rows = plain_rows(3000).splitlines(keepends=True)
    for at in (0, 1500, 2999):
        for ragged in ("a9,10.1/short\n", "a9,10.1/long,1,scopus,x,y\n", "a9\n", ",,,\n"):
            assert_like_the_oracle(HEADER + "".join(rows[:at]) + ragged + "".join(rows[at:]))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("size", [1, ingest.BLOCK // 24, 3 * ingest.BLOCK // 24])
def test_no_final_newline(size, newline):
    text = HEADER + plain_rows(size)
    assert_like_the_oracle(text.replace("\n", newline).rstrip(newline))


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_bom_prefixed_export_over_several_blocks(newline):
    text = "\ufeff" + at_block_edge("a2,10.1/spl", f"it,3,scopus{newline}", newline)
    accepted, _ = assert_like_the_oracle(text)
    assert accepted[0][0] == "a0"


def test_roster_over_several_blocks_with_crlf_and_a_quoted_tail(tmp_path):
    rows = roster_rows(3 * ingest.BLOCK // 40)
    text = as_csv(rows).decode().replace("\n", "\r\n")
    text += '"a_last","","","","d1",""\r\n'
    path = input_file(tmp_path, text.encode(), ".csv")
    assert parse_roster(path) == oracle_parse_roster(path)


PLAIN_EXPORTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    # A blank line after the first line end past character 2000.
    "one_blank_line": lambda text: text[:2000] + text[2000:].replace("\n", "\n\n", 1),
    "no_final_newline": lambda text: text.rstrip("\n"),
}


@pytest.mark.parametrize("case", sorted(PLAIN_EXPORTS))
def test_a_plain_export_builds_csv_reader_once_for_the_header(case, tmp_path, monkeypatch):
    rows = 3 * ingest.BLOCK // 20
    text = PLAIN_EXPORTS[case](HEADER + plain_rows(rows))
    assert len(text) > 2 * ingest.BLOCK and text.count("\n\n") == (case == "one_blank_line")
    path = tmp_path / "records.csv"
    path.write_bytes(text.encode())
    builds = []
    reader = csv.reader

    def counted(*args, **kwargs):
        builds.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counted)
    accepted, rejects = parse_records(path, source="scopus")
    assert len(builds) == 1
    assert sum(map(len, accepted.values())) + len(rejects) == rows


class Touched(Exception):
    """Raised by a stand-in for a pattern that a fast path must not use."""


class Untouchable:
    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        raise Touched(self.name)


def ascii_rows(n):
    """Valid rows with negative counts and prefixed and upper-case DOIs."""
    forms = ("10.{}/p{}", "doi:10.{}/p{}", "https://doi.org/10.{}/P{}", " DOI:10.{}/Q{} ")
    return "".join(
        f"a{i % 7},{forms[i % 4].format(i % 3, i // 2)},{i % 11 - 3},{'scopus' if i % 5 else ''}\n"
        for i in range(n)
    )


@pytest.mark.parametrize("case", sorted(PLAIN_EXPORTS))
def test_an_ascii_export_takes_the_fast_doi_and_count_passes(case, tmp_path, monkeypatch):
    rows = 3 * ingest.BLOCK // 20
    text = PLAIN_EXPORTS[case](HEADER + ascii_rows(rows))
    assert len(text) > 2 * ingest.BLOCK and text.isascii()
    path = input_file(tmp_path, text.encode(), ".csv")
    accepted, rejects = parse_records(path, "scopus")
    assert any(r.reason == "negative citations" for r in rejects)
    # One DOI with a non-ASCII suffix, in the middle of the second block.
    at = text.index("\n", ingest.BLOCK + ingest.BLOCK // 2)
    non_ascii = text[:at] + "\na9,10.1/\xe9,1," + text[at:]
    non_ascii = input_file(tmp_path, non_ascii.encode(), ".csv")
    monkeypatch.setattr(ingest, "_DOI", Untouchable("_DOI"))
    monkeypatch.setattr(ingest, "_CITATIONS_SHAPE", Untouchable("_CITATIONS_SHAPE"))
    fast = parse_records(path, "scopus")
    assert (in_order(fast[0]), fast[1]) == (in_order(accepted), rejects)
    with pytest.raises(Touched, match="^_DOI$"):
        parse_records(non_ascii, "scopus")


class CountedMatches:
    """Stands in for ``_DOI_ASCII``: ``findall`` raises, ``match`` is counted."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def findall(self, text):
        raise Touched("_DOI_ASCII.findall")

    def match(self, text, pos):
        self.calls += 1
        return self.pattern.match(text, pos)


# DOI cells other than a bare DOI: missing, malformed, blank-padded. A
# missing one is its own canonical form (""), so it needs no match.
EXCEPTION_CELLS = ("", "not-a-doi/1", " 10.1/y", "10.1/x y")


def bare_export(rows, cells, spell=str):
    """``rows`` plain rows, the DOI cell of row ``i`` being ``cells[i]`` if given.

    Every DOI cell is spelled by ``spell``.
    """
    lines = plain_rows(rows).splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, doi, rest = line.split(",", 2)
        lines[i] = f"{key},{spell(cells.get(i, doi))},{rest}"
    return HEADER + "".join(lines)


@pytest.mark.parametrize("case", sorted(PLAIN_EXPORTS))
def test_a_bare_doi_export_matches_only_the_lines_between_runs(case, tmp_path, monkeypatch):
    rows = 3 * ingest.BLOCK // 20
    # The first, middle and last lines, each next to another exception, and one alone.
    at = (0, 1, rows // 3, rows // 2, rows // 2 + 1, rows - 2, rows - 1)
    cells = {i: EXCEPTION_CELLS[j % len(EXCEPTION_CELLS)] for j, i in enumerate(at)}
    exports = {}
    for name, spell in (("lower", str), ("upper", str.upper)):
        text = PLAIN_EXPORTS[case](bare_export(rows, cells, spell))
        assert len(text) > 2 * ingest.BLOCK and text.isascii()
        exports[name] = input_file(tmp_path, text.encode(), ".csv")
    prefixed = bare_export(rows, {**cells, rows // 4: "doi:10.1/z"})
    prefixed = input_file(tmp_path, PLAIN_EXPORTS[case](prefixed).encode(), ".csv")
    want = outcome(parse_records, exports["lower"])
    assert want == outcome(oracle_parse_records, exports["lower"])
    counted = CountedMatches(ingest._DOI_ASCII)
    monkeypatch.setattr(ingest, "_DOI_ASCII", counted)
    for name, path in exports.items():
        counted.calls = 0
        assert outcome(parse_records, path) == want, name
        assert counted.calls == sum(map(bool, cells.values())) == 5, name
    with pytest.raises(Touched, match="findall"):
        parse_records(prefixed, "scopus")


class MatchesPerFindall:
    """Stands in for ``_DOI_ASCII``: counts the ``match`` calls before each ``findall``."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0
        self.columns = []  # (match calls, the column's lines) per findall

    def findall(self, text, *span):
        self.columns.append((self.calls, text.count("\n")))
        self.calls = 0
        return self.pattern.findall(text, *span)

    def match(self, text, pos):
        self.calls += 1
        return self.pattern.match(text, pos)


@pytest.mark.parametrize("cell", ["x{}", " 10.1/p{} "], ids=["malformed", "blank-padded"])
def test_a_column_of_other_fields_is_matched_a_share_of_its_lines_at_a_time(
    cell, tmp_path, monkeypatch
):
    rows = 3 * ingest.BLOCK // 20
    text = bare_export(rows, {i: cell.format(i) for i in range(rows)})
    assert len(text) > 2 * ingest.BLOCK and text.isascii()
    path = input_file(tmp_path, text.encode(), ".csv")
    want = outcome(oracle_parse_records, path)
    counted = MatchesPerFindall(ingest._DOI_ASCII)
    monkeypatch.setattr(ingest, "_DOI_ASCII", counted)
    assert outcome(parse_records, path) == want
    # Each block's column: one line in MATCH_SHARE matched alone, then one findall.
    assert counted.calls == 0 and len(counted.columns) >= 3
    assert all(calls == lines // ingest.MATCH_SHARE > 0 for calls, lines in counted.columns)


def test_a_canonical_column_keeps_its_own_cells():
    column = [f"10.{i % 3}/p{i}" for i in range(3000)]
    column[1700] = "10.1/x y"
    got = ingest._canonical_dois(column)
    assert got is not column and column[1700] == "10.1/x y" and got[1700] == ""
    assert all(g is cell for i, (g, cell) in enumerate(zip(got, column)) if i != 1700)
    assert ingest._canonical_dois(tuple(map(str.upper, column))) == got


@pytest.mark.parametrize(
    "bad_row, message",
    [
        (b"a2,10.1/\xff,5,\n", "not valid UTF-8"),
        (b"a2,10.1/" + b"x" * 140_000 + b",5,\n", "invalid CSV"),
    ],
    ids=["not-utf8", "over-field-limit"],
)
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_bad_row_past_the_first_block_names_the_oracle_line(bad_row, message, newline):
    head = (HEADER + plain_rows(3 * ingest.BLOCK // 24)).encode().replace(b"\n", newline)
    data = head + bad_row.replace(b"\n", newline) + plain_rows(5).encode()
    _, text = assert_like_the_oracle(data)
    assert message in text and f"line {head.count(newline) + 1}:" in text


# Every Unicode whitespace character but "\n", which ends a line of the pass.
BLANKS = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c != "\n")
SUFFIX = "aZ09.-_/:;()\u0130\u03a3\u03c3\u03c2\xe9" + "\x00\x1f\x7f\x80\x85\x9f\xa0\u2028 \t\r\x0b\x1c"


def any_case(text):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in text)).map("".join)


DOI_CELLS = st.one_of(
    st.builds(
        "{}{}{}10.{}/{}{}".format,
        st.text(BLANKS, max_size=2),
        st.sampled_from(("", "doi:", "https://doi.org/", "http://doi.org/")).flatmap(any_case),
        st.text(BLANKS, max_size=2),
        st.text("0123456789\u0663", max_size=3),
        st.text(SUFFIX, max_size=5),
        st.text(BLANKS, max_size=2),
    ),
    st.text("10./doi\u03a3\u0130" + SUFFIX + BLANKS[:12], max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(DOI_CELLS, max_size=12))
@example(["10.1/A\u03a3", "10.1/\u03a3A", "10.1/\u03a3", " DOI:10.1/a\u03a3 ", "10.1/\u0130", ""])
@example(["", "", "\x1c10.1/x\x85", "doi:\u300010.1/x", "10.1/x\x00"])
def test_block_doi_pass_equals_the_per_field_rule(column):
    want = [ingest._canonical_doi(field) or "" for field in column]
    assert ingest._canonical_dois(column) == want


@given(st.lists(st.one_of(DOI_CELLS, st.just("doi:\n10.1/x"), st.just("10.1/x\n")), min_size=1))
def test_a_column_with_a_line_break_is_left_to_the_per_field_rule(column):
    got = ingest._canonical_dois(column)
    if any("\n" in field for field in column):
        assert got == [""] * len(column)
    else:
        assert got == [ingest._canonical_doi(field) or "" for field in column]


@pytest.mark.parametrize("doi", [" " * 10**6 + "x", "10." + "1" * 10**6 + " x"])
def test_a_hostile_doi_cell_is_rejected_in_linear_time(doi, tmp_path):
    assert ingest._canonical_dois(["10.1/a", doi, ""]) == ["10.1/a", "", ""]
    payload = [{"author_key": "a1", "doi": doi, "citations": 1}]
    path = input_file(tmp_path, json.dumps(payload).encode(), ".json")
    assert parse_records(path, "scopus") == ({}, [(1, "a1", "malformed doi")])
    limit = csv.field_size_limit(2 * 10**6)
    try:
        data = (HEADER + plain_rows(3) + f"a1,{doi},1,\n").encode()
        _, rejects = assert_like_the_oracle(data)
    finally:
        csv.field_size_limit(limit)
    assert rejects[-1] == (4, "a1", "malformed doi")


class CountedReads(io.StringIO):
    """A text stream that counts the reads made from it."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)

    def readline(self, size=-1):
        self.reads += 1
        return super().readline(size)


def test_a_10_mb_line_is_read_in_one_piece_and_is_invalid_csv_at_line_2(tmp_path):
    path = input_file(tmp_path, HEADER.encode() + b"x" * 10**7, ".csv")
    prefix = re.escape(f"records export {path} (scopus): ")
    with pytest.raises(SchemaError, match=rf"^{prefix}invalid CSV at line 2: field larger than"):
        parse_records(path, "scopus")
    text = CountedReads(HEADER + "x" * 10**7, newline="")
    with pytest.raises(SchemaError, match=r"^invalid CSV at line 2:"):
        list(ingest._csv_columns(text, RECORD_COLUMNS, RECORD_COLUMNS))
    assert text.reads == 3  # the header, one block, then the rest of the block's line
