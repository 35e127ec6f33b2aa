"""Export parsing, DOI normalization, and profile assembly."""

import json
import re
import tempfile
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scimetrics import ingest
from scimetrics.errors import MalformedDoi, SchemaError, UnknownAuthor
from scimetrics.ingest import (
    AuthorProfile,
    _canonical_doi,
    _parse_citations,
    RosterEntry,
    build_profiles,
    normalize_doi,
    parse_records,
    parse_roster,
    profile_to_citations,
)

from helpers import input_file

DB_TAGS = ("scopus", "wos")


def records_csv(rows):
    lines = ["author_key,doi,citations,source"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def pairs(accepted):
    """{(author_key, doi): citations} of a parse_records doi map."""
    return {(a, doi): c for a, pubs in accepted.items() for doi, c in pubs.items()}


def roster_csv(rows):
    lines = ["author_key,orcid,researcher_id,scopus_id,discipline,display_name"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# normalize_doi
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "raw, expected",
    [
        ("https://doi.org/10.1000/ABC", "10.1000/abc"),
        ("  doi:10.1234/x.Y.z ", "10.1234/x.y.z"),
        ("DOI:10.1234/q", "10.1234/q"),
        ("HTTP://DOI.ORG/10.5555/UP", "10.5555/up"),
        ("10.999/already-clean", "10.999/already-clean"),
    ],
)
def test_normalize_doi(raw, expected):
    assert normalize_doi(raw) == expected


@pytest.mark.parametrize(
    "raw",
    [
        "not-a-doi",
        "11.1000/x",
        "10./x",
        "10.1000",
        "10.1000/",
        "doi:",
        "  ",
        "10.1/a\x00b",
        "10.1/a b",
        "10.1/a\u2028b",  # line separator
        "10.1/a\tb",
        "10.1/a\x85b",  # C1 next-line
        "10.1/a\x7fb",
        "10.\u0663\u0664/x",  # Arabic-Indic digits
    ],
)
def test_normalize_doi_rejects_bad_shapes(raw):
    with pytest.raises(MalformedDoi):
        normalize_doi(raw)


def test_doi_with_control_or_space_is_rejected_as_malformed(tmp_path):
    data = b"author_key,doi,citations\na1,10.1/a\x00b,3\na1,10.1/a b,4\na1,10.1/\xc3\xa9,5\n"
    accepted, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert accepted == {"a1": {"10.1/é": 5}}
    assert [(r.row, r.reason) for r in rejects] == [(1, "malformed doi"), (2, "malformed doi")]


@given(
    st.from_regex(r"10\.[0-9]{1,6}/[a-zA-Z0-9._;()/-]{1,20}", fullmatch=True),
    st.sampled_from(["", "doi:", "DOI:", "https://doi.org/", "http://doi.org/"]),
)
def test_normalize_doi_idempotent(suffix, prefix):
    normalized = normalize_doi(prefix + suffix)
    assert normalize_doi(normalized) == normalized


# The previous _canonical_doi and _parse_citations, bodies kept verbatim, as
# oracles for the single DOI regex and the ASCII-digit fast path; a count
# must also be at most the bound the README states.
_DOI_PREFIX = re.compile(r"https?://doi\.org/|doi:")
_DOI_SHAPE = re.compile(r"10\.[0-9]+/[^\s\x00-\x1f\x7f-\x9f]+")
_CITATIONS_SHAPE = re.compile(r"-?[0-9]+")


def oracle_canonical_doi(raw: str) -> str | None:
    """``raw`` in canonical form, or None when it is not a DOI."""
    doi = raw.strip()
    lowered = doi.lower()
    if prefix := _DOI_PREFIX.match(lowered):
        lowered = doi[prefix.end() :].strip().lower()
    return lowered if _DOI_SHAPE.fullmatch(lowered) else None


CITATIONS_BOUND = 2**63 - 1


def oracle_parse_citations(value) -> int | None:
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


def mixed_case(text: str):
    return st.lists(st.booleans(), min_size=len(text), max_size=len(text)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(text, upper))
    )


# Unicode whitespace, C0/C1 controls, and letters whose lowercase is ASCII
# (Kelvin sign), longer than one character (dotted I) or context-dependent
# (capital sigma).
SPACES = " \t\n\x1c\x85\u00a0\u2028\u3000"
TRICKY = SPACES + "\x00\x1f\x7f\x9f\u212aK\u0130\u03a3/.:-"
padding = st.one_of(
    st.text(st.sampled_from(SPACES), max_size=2),
    st.text(st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=3),
)
doi_like = st.builds(
    "".join,
    st.tuples(
        padding,
        st.sampled_from(["", "doi:", "http://doi.org/", "https://doi.org/"]).flatmap(mixed_case),
        padding,
        st.sampled_from(["10.", "10.", "10", "", "1O."]),
        st.one_of(
            st.text(st.sampled_from("0123456789"), min_size=1, max_size=4),
            st.text(st.sampled_from("0123456789\u0663\uff11"), max_size=4),
        ),
        st.sampled_from(["/", "/", ""]),
        st.text(st.sampled_from("aZ09.-_;()/\u212a\u0130\u03a3" + TRICKY), max_size=6),
        padding,
    ),
)


@settings(max_examples=300)
@given(st.one_of(doi_like, st.text()))
@example("doi:10.1/a\x9fb")
@example("doi:\u212a10.1/x")
@example("doi:\u013010.1/x")
@example("doi:\u03a310.1/x")
@example("DOI:\u00a0\u202810.1/\u03a3\u212a\u0130")
def test_canonical_doi_agrees_with_previous_implementation(raw):
    assert _canonical_doi(raw) == oracle_canonical_doi(raw)


citation_text = st.text(
    st.sampled_from("0123456789-+ \t\u00a0\u2028\u0663\u00b2\uff11_."), max_size=8
)
def padded(digits):
    return st.builds(
        lambda lead, text, trail: lead + text + trail,
        st.sampled_from(["", " ", "-", "0"]),
        digits,
        st.sampled_from(["", " ", "\n"]),
    )


long_digits = padded(st.integers(4290, 5000).map(lambda n: "9" * n))  # int()'s 4300 digits
near_bound = st.integers(CITATIONS_BOUND - 2, CITATIONS_BOUND + 2)


@settings(max_examples=300)
@given(
    st.one_of(
        citation_text,
        long_digits,
        padded(near_bound.map(str)),
        near_bound,
        st.integers(),
        st.booleans(),
        st.none(),
    )
)
def test_parse_citations_agrees_with_previous_implementation(value):
    count = oracle_parse_citations(value)
    assert _parse_citations([value])[0] == (
        None if count is None or count > CITATIONS_BOUND else count
    )


# The whole-column DOI pass and the per-value citation rule as they were
# before ASCII text took its own passes, kept verbatim as oracles.
_COLUMN_DOI = re.compile(
    r"^(?:[^\S\n]*(?:(?:https?://doi\.org/|doi:)[^\S\n]*)?"
    r"(10\.[0-9]+/[^\s\x00-\x1f\x7f-\x9f]+)[^\S\n]*$)?.*$",
    re.MULTILINE,
)


def oracle_canonical_dois(fields) -> list[str]:
    try:
        text = "\n".join(fields).lower()
    except TypeError:  # a JSON value that is not a str
        return [""] * len(fields)
    if text.count("\n") >= len(fields):  # a field holds "\n", or there is none
        return [""] * len(fields)
    return _COLUMN_DOI.findall(text)


def oracle_citation(value) -> int | None:
    if isinstance(value, str):
        if not (value.isascii() and value.isdigit()):
            value = value.strip()
            if not _CITATIONS_SHAPE.fullmatch(value):
                return None
        try:
            value = int(value)
        except ValueError:  # more digits than the interpreter converts
            return None
    elif isinstance(value, bool) or not isinstance(value, int):
        return None
    return value if value <= CITATIONS_BOUND else None


ASCII = "".join(map(chr, range(128)))
UNICODE_SPACES = "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + (
    "\u2028\u2029\u202f\u205f\u3000"
)
# A "\n" in a field sends its whole column to the per-field rule; the
# exhaustive test below and the block tests cover that case.
FIELD_CHARS = {
    "ascii": ASCII.replace("\n", ""),
    "unicode": ASCII.replace("\n", "") + UNICODE_SPACES,
}


def doi_fields(chars):
    blank_chars = [c for c in chars if c.isspace() or not c.isprintable()]
    blanks = st.text(st.sampled_from(blank_chars), max_size=2)
    return st.one_of(
        st.builds(
            "{}{}{}10.{}/{}{}".format,
            blanks,
            st.sampled_from(["", "doi:", "https://doi.org/", "http://doi.org/"])
            .flatmap(mixed_case),
            blanks,
            st.text(st.sampled_from("0123456789\u0663"), max_size=3),
            st.text(st.sampled_from(chars), max_size=5),
            blanks,
        ),
        st.text(st.sampled_from(chars), max_size=8),
    )


# A bare DOI: every line of a run that the pass takes whole, once lowered.
bare_dois = st.builds(
    "10.{}/{}".format,
    st.text("0123456789", min_size=1, max_size=3),
    st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=5),
)


@st.composite
def mostly_bare_columns(draw):
    """A column of bare DOIs in one case or mixed, with 0-3 other fields."""
    spelling = draw(st.sampled_from((str.lower, str.upper, None)))  # None: mixed per letter
    column = draw(st.lists(bare_dois, min_size=1, max_size=40))
    column = [draw(mixed_case(cell)) if spelling is None else spelling(cell) for cell in column]
    last = len(column) - 1
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from((0, last // 2, last)))
        at = min(at + draw(st.integers(0, 1)), last)  # or the line after it
        column[at] = draw(st.one_of(st.just(""), doi_fields(FIELD_CHARS["ascii"])))
    return column


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from(list(FIELD_CHARS.values())).flatmap(lambda c: st.lists(doi_fields(c))),
        mostly_bare_columns(),
    )
)
@example(["10.1/A\x1c", "\x1fdoi:\x0b10.1/x\x0c", "10.1/x\x7f", "10.1/~!", "doi: 10.1/\x00"])
@example(["10.1/x\x85", "\u300010.1/x", "doi:\u202810.1/x\u2029", "10.1/x y", "10.1/\xa0"])
@example(["10.1/a", " 10.1/y", "10./x", "10.1/", "10.1/b ", "", " ", "\t ", "10.1/B"])
def test_column_doi_pass_equals_the_previous_pass(column):
    assert ingest._canonical_dois(column) == oracle_canonical_dois(column)


def test_a_column_of_alternating_bare_and_malformed_lines_in_linear_time():
    # Each malformed line counts its line ends from the previous one: about
    # 0.2 s here, where counting from the column's start took over 30 s.
    column = ["x", "10.1/a"] * 100_000
    start = time.perf_counter()
    got = ingest._canonical_dois(column)
    elapsed = time.perf_counter() - start
    assert got == oracle_canonical_dois(column)
    assert elapsed < 5, f"{elapsed:.1f} s"


DOI_POSITIONS = (
    "{}10.1/x", "{}doi:10.1/x", "doi:{}10.1/x", "htt{}://doi.org/10.1/x",
    "https://doi.org/{}10.1/x", "1{}0.1/x", "10{}1/x", "10.{}1/x", "10.1{}/x",
    "10.1/{}", "10.1/{}x", "10.1/x{}", "10.1/x{}y", "10.1/x {}", "10.1/x{} ",
)


@pytest.mark.parametrize("position", DOI_POSITIONS)
def test_every_ascii_character_at_each_doi_position(position):
    fields = [position.format(c) for c in ASCII]
    column = [field for field in fields if "\n" not in field]
    assert "".join(column).isascii() and len(column) == 127
    assert ingest._canonical_dois(column) == oracle_canonical_dois(column)
    for field in fields:  # each on its own, "\n" too
        assert ingest._canonical_dois([field]) == oracle_canonical_dois([field])


ODD_COUNTS = ["+5", "1_000", " 7 ", "-0", "\u0663", "", "9" * 4301, str(2**63), "\x1c8\x1f"]
ascii_blanks = st.text(st.sampled_from(" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"), max_size=2)
count_text = st.builds(
    "{}{}{}".format, ascii_blanks, st.from_regex(r"-?[0-9]{1,20}", fullmatch=True), ascii_blanks
)
json_counts = st.one_of(st.integers(), st.just(2**63), st.booleans(), st.none())


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(count_text),
        st.lists(st.one_of(count_text, st.sampled_from(ODD_COUNTS))),
        st.lists(st.one_of(count_text, st.sampled_from(ODD_COUNTS), json_counts)),
    )
)
@example([str(CITATIONS_BOUND), "-" + "9" * 4300, "0"])
@example(["1", str(CITATIONS_BOUND + 1)])
@example(["5", 5, True, None])
def test_citation_column_equals_the_per_value_rule(column):
    assert _parse_citations(column) == [oracle_citation(v) for v in column]


@pytest.mark.parametrize("form", ["{}", "{}5", "5{}", "5{}5", "-{}5", "{}-5", " {}7 "])
def test_every_ascii_character_in_a_citation_count(form):
    for c in ASCII:
        value = form.format(c)
        assert _parse_citations([value]) == [oracle_citation(value)], repr(value)
        assert _parse_citations(["1", value]) == [1, oracle_citation(value)], repr(value)


# ---------------------------------------------------------------------------
# parse_records
# ---------------------------------------------------------------------------

def test_missing_doi_rejected_with_row_number(tmp_path):
    data = records_csv(
        [
            ("a1", "10.1/x", 5, "scopus"),
            ("a1", "", 3, "scopus"),
            ("a2", "10.1/y", 0, "scopus"),
        ]
    )
    accepted, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert len(pairs(accepted)) == 2
    assert [(r.row, r.reason) for r in rejects] == [(2, "missing doi")]


def test_empty_file_with_header(tmp_path):
    accepted, rejects = parse_records(input_file(tmp_path, records_csv([]), ".csv"), "scopus")
    assert accepted == {} and rejects == []


def test_duplicate_rows_collapse_to_max(tmp_path):
    data = records_csv(
        [
            ("a1", "10.1/x", 5, "scopus"),
            ("a1", "10.1/y", 1, "scopus"),
            ("a1", "doi:10.1/X", 9, "scopus"),  # same DOI as row 1 after normalizing
            ("a2", "10.1/x", 2, "scopus"),      # same DOI, different author: kept
            ("a1", "10.1/x", 4, "scopus"),
        ]
    )
    accepted, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert len(pairs(accepted)) + len(rejects) == 5
    assert [(r.row, r.reason) for r in rejects] == [
        (3, "duplicate doi"),
        (5, "duplicate doi"),
    ]
    assert pairs(accepted) == {("a1", "10.1/x"): 9, ("a1", "10.1/y"): 1, ("a2", "10.1/x"): 2}


def test_reject_reasons(tmp_path):
    data = records_csv(
        [
            ("", "10.1/x", 5, "scopus"),
            ("a1", "junk", 5, "scopus"),
            ("a1", "10.1/x", -2, "scopus"),
            ("a1", "10.1/y", "many", "scopus"),
            ("a1", "10.1/z", 5, "wos"),
        ]
    )
    accepted, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert accepted == {}
    assert [r.reason for r in rejects] == [
        "missing author_key",
        "malformed doi",
        "negative citations",
        "invalid citations",
        "source mismatch",
    ]


def test_citation_strings_must_be_ascii_digits(tmp_path):
    data = records_csv(
        [
            ("a1", "10.1/a", "\u0663", "scopus"),  # Arabic-Indic three
            ("a1", "10.1/b", "1_000", "scopus"),
            ("a1", "10.1/c", " 7 ", "scopus"),
            ("a1", "10.1/d", " -3", "scopus"),
            ("a1", "10.1/e", "9" * 5000, "scopus"),  # past int()'s digit limit
            ("a1", "10.1/f", str(2**63 - 1), "scopus"),
            ("a1", "10.1/g", str(2**63), "scopus"),  # past the documented bound
        ]
    )
    accepted, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert accepted == {"a1": {"10.1/c": 7, "10.1/f": 2**63 - 1}}
    assert [r.reason for r in rejects] == [
        "invalid citations",
        "invalid citations",
        "negative citations",
        "invalid citations",
        "invalid citations",
    ]


# CSV row semantics: stated through reject reasons and row numbers only, so
# they hold whatever shape the accepted records take.

def test_blank_line_is_skipped_and_takes_no_row_number(tmp_path):
    data = b"author_key,doi,citations\na1,,5\n\na2,,5\n\n"
    _, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert [(r.row, r.author_key, r.reason) for r in rejects] == [
        (1, "a1", "missing doi"),
        (2, "a2", "missing doi"),
    ]


def test_short_row_reads_missing_fields_as_empty(tmp_path):
    data = b"author_key,doi,citations\na1,10.1/x\na2\na3,10.1/y,\n"
    _, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert [(r.row, r.reason) for r in rejects] == [
        (1, "invalid citations"),
        (2, "missing doi"),
        (3, "invalid citations"),
    ]


def test_extra_fields_are_ignored(tmp_path):
    data = b"author_key,doi,citations\na1,10.1/x,5,wos,-1\na1,10.1/y,2,,junk\n"
    _, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert rejects == []


def test_repeated_header_column_last_one_wins(tmp_path):
    data = b"author_key,citations,doi,citations\na1,-1,10.1/x,5\na1,5,10.1/y,-1\n"
    _, rejects = parse_records(input_file(tmp_path, data, ".csv"), "scopus")
    assert [(r.row, r.reason) for r in rejects] == [(2, "negative citations")]


def test_missing_optional_source_column_is_accepted(tmp_path):
    data = b"doi,citations,author_key\n10.1/x,5,a1\n10.1/y,0,a1\n"
    _, rejects = parse_records(input_file(tmp_path, data, ".csv"), "wos")
    assert rejects == []


def test_field_over_csv_size_limit_is_schema_error(tmp_path):
    data = b"author_key,doi,citations\na1,10.1/" + b"x" * 140_000 + b",5\n"
    with pytest.raises(SchemaError, match="invalid CSV"):
        parse_records(input_file(tmp_path, data, ".csv"), "scopus")


def test_missing_column_aborts(tmp_path):
    data = b"author_key,citations\na1,5\n"
    with pytest.raises(SchemaError):
        parse_records(input_file(tmp_path, data, ".csv"), "scopus")


def test_non_utf8_aborts(tmp_path):
    with pytest.raises(SchemaError):
        parse_records(input_file(tmp_path, b"\xff\xfe\x00bad", ".csv"), "scopus")


def test_json_records_mirror_csv(tmp_path):
    payload = [
        {"author_key": "a1", "doi": "10.1/x", "citations": 5, "source": "scopus"},
        {"author_key": "a1", "doi": "https://doi.org/10.1/Y", "citations": 2},
        {"author_key": "a2", "citations": 2},
    ]
    path = input_file(tmp_path, json.dumps(payload).encode(), ".json")
    accepted, rejects = parse_records(path, "scopus")
    assert accepted == {"a1": {"10.1/x": 5, "10.1/y": 2}}
    assert [(r.row, r.reason) for r in rejects] == [(3, "missing doi")]


# A str with a lone surrogate (JSON "\ud800") is no UTF-8 text: a non-string.
@pytest.mark.parametrize(
    "field, value",
    [
        ("author_key", ["a1"]),
        ("doi", 7),
        ("source", ["scopus"]),
        ("author_key", "\ud800x"),
        ("doi", "10.1/\udfff"),
        ("source", "scopus\udc80"),
        ("citations", "5\ud800"),
    ],
)
def test_json_export_value_of_wrong_type_is_rejected(field, value, tmp_path):
    row = {"author_key": "a1", "doi": "10.1/x", "citations": 5, "source": "scopus"}
    row[field] = value
    payload = [{"author_key": "a2", "doi": "10.1/y", "citations": 1}, row]
    path = input_file(tmp_path, json.dumps(payload).encode(), ".json")
    accepted, rejects = parse_records(path, "scopus")
    assert accepted == {"a2": {"10.1/y": 1}}
    key = "" if field == "author_key" else "a1"
    assert rejects == [(2, key, f"invalid {field}")]


def test_json_field_priority_holds_for_lone_surrogates(tmp_path):
    row = {"author_key": "\ud800", "doi": "10.1/\ud800", "citations": "x", "source": 3}
    _, rejects = parse_records(input_file(tmp_path, json.dumps([row]).encode(), ".json"), "scopus")
    assert rejects == [(1, "", "invalid author_key")]
    row["author_key"] = "a1"
    _, rejects = parse_records(input_file(tmp_path, json.dumps([row]).encode(), ".json"), "scopus")
    assert rejects == [(1, "a1", "invalid doi")]


@pytest.mark.parametrize(
    "field, value",
    [
        ("author_key", 7),
        ("discipline", ["bio"]),
        ("author_key", "\ud800x"),
        ("discipline", "b\udfff"),
    ],
)
def test_json_roster_value_of_wrong_type_is_schema_error(field, value, tmp_path):
    row = dict.fromkeys(("author_key", "orcid", "researcher_id", "scopus_id"), "")
    row.update(author_key="a2", discipline="bio", display_name="")
    bad = {**row, "author_key": "a1", field: value}
    with pytest.raises(SchemaError, match=f"roster row 2: {field} must be a string"):
        parse_roster(input_file(tmp_path, json.dumps([row, bad]).encode(), ".json"))


def parse_error(path, kind: str) -> str:
    """The SchemaError text of parsing the export at ``path``, given as a ``kind`` path."""
    with pytest.raises(SchemaError) as raised:
        parse_records(str(path) if kind == "str" else path, "scopus")
    return str(raised.value)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("kind", ["str", "path"])
def test_invalid_utf8_mid_file_names_its_line(kind, newline, tmp_path):
    rows = [("a1", f"10.1/x{i}", 5, "scopus") for i in range(3000)]  # several read chunks
    data = records_csv(rows).replace(b"\n", newline.encode())
    data += b"a2,10.1/\xff,5" + newline.encode()
    path = input_file(tmp_path, data, ".csv")
    assert parse_error(path, kind).startswith(
        f"records export {path} (scopus): input is not valid UTF-8 at line 3002:"
    )


@pytest.mark.parametrize("kind", ["str", "path"])
def test_invalid_utf8_past_line_1_of_a_bom_prefixed_export_names_its_line(kind, tmp_path):
    # The line is counted from the file's first byte, the BOM included.
    data = b"\xef\xbb\xbf" + records_csv([("a1", "10.1/x", 5, "scopus")])
    data += b"a2,10.1/\xff,5,scopus\n"
    path = input_file(tmp_path, data, ".csv")
    assert parse_error(path, kind).startswith(
        f"records export {path} (scopus): input is not valid UTF-8 at line 3:"
    )


def test_json_must_be_array_of_objects(tmp_path):
    with pytest.raises(SchemaError):
        parse_records(input_file(tmp_path, b'{"author_key": "a1"}', ".json"), "scopus")
    with pytest.raises(SchemaError):
        parse_records(input_file(tmp_path, b"[1, 2]", ".json"), "scopus")
    with pytest.raises(SchemaError):
        parse_records(input_file(tmp_path, b"not json", ".json"), "scopus")


def test_parse_from_path(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(records_csv([("a1", "10.1/x", 5, "scopus")]))
    accepted, rejects = parse_records(path, "scopus")
    assert len(accepted) == 1 and not rejects
    assert parse_records(str(path), "scopus") == (accepted, rejects)
    json_path = tmp_path / "records.json"
    json_path.write_text(json.dumps([{"author_key": "a1", "doi": "10.1/x", "citations": 1}]))
    accepted, _ = parse_records(json_path, "scopus")
    assert accepted == {"a1": {"10.1/x": 1}}
    # A ".json" suffix in any case reads JSON.
    assert parse_records(json_path.rename(tmp_path / "records.Json"), "scopus") == (accepted, [])


def test_parse_is_deterministic(tmp_path):
    data = records_csv(
        [("a1", "10.1/x", 5, "scopus"), ("a1", "", 1, "scopus"), ("a1", "10.1/x", 7, "scopus")]
    )
    path = input_file(tmp_path, data, ".csv")
    assert parse_records(path, "scopus") == parse_records(path, "scopus")


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a1", "a2", "a3", ""]),
        st.sampled_from(["10.1/x", "10.1/y", "10.2/z", "bad", ""]),
        st.integers(min_value=-3, max_value=50),
        st.sampled_from(["scopus", "wos", ""]),
    ),
    max_size=30,
)


@given(rows_strategy)
def test_conservation(rows):
    with tempfile.TemporaryDirectory() as directory:
        path = input_file(directory, records_csv(rows), ".csv")
        accepted, rejects = parse_records(path, "scopus")
    assert len(pairs(accepted)) + len(rejects) == len(rows)


# ---------------------------------------------------------------------------
# roster and profiles
# ---------------------------------------------------------------------------

def test_parse_roster(tmp_path):
    data = roster_csv(
        [
            ("a1", "0000-0001", "R-1", "7001", "physics", "Author One"),
            ("a2", "", "", "", "physics", "Author Two"),
        ]
    )
    roster = parse_roster(input_file(tmp_path, data, ".csv"))
    assert roster == [RosterEntry("a1", "physics"), RosterEntry("a2", "physics")]


def test_roster_schema_errors(tmp_path):
    missing_columns = b"author_key,discipline\na1,physics\n"
    with pytest.raises(SchemaError):
        parse_roster(input_file(tmp_path, missing_columns, ".csv"))
    dup = roster_csv(
        [("a1", "", "", "", "physics", ""), ("a1", "", "", "", "physics", "")]
    )
    with pytest.raises(SchemaError):
        parse_roster(input_file(tmp_path, dup, ".csv"))
    blank = roster_csv([("a1", "", "", "", "", "")])
    with pytest.raises(SchemaError):
        parse_roster(input_file(tmp_path, blank, ".csv"))
    header_only = input_file(tmp_path, roster_csv([]), ".csv")
    with pytest.raises(SchemaError) as raised:
        parse_roster(header_only)
    assert str(raised.value) == f"roster {header_only}: empty roster"


def _roster():
    return [
        RosterEntry("a1", "physics"),
        RosterEntry("a2", "physics"),
        RosterEntry("a3", "biology"),
    ]


def test_build_profiles_groups_records():
    accepted = {
        "scopus": {"a1": {"10.1/a": 3, "10.1/b": 1}, "a2": {"10.1/c": 0}},
        "wos": {"a1": {"10.1/a": 2}, "a2": {"10.1/c": 1, "10.1/d": 9}},
    }
    profiles = build_profiles(accepted, _roster(), DB_TAGS)
    assert [p.author_key for p in profiles] == ["a1", "a2", "a3"]
    a1, a2, a3 = profiles
    assert len(a1.per_db_publications["scopus"]) == 2
    assert len(a1.per_db_publications["wos"]) == 1
    assert len(a2.per_db_publications["wos"]) == 2
    assert a3.per_db_publications == {"scopus": {}, "wos": {}}
    total = sum(len(p.per_db_publications[t]) for p in profiles for t in DB_TAGS)
    assert total == 6


def test_build_profiles_unknown_author():
    with pytest.raises(UnknownAuthor, match="a9"):
        build_profiles({"scopus": {"a9": {"10.1/a": 1}}}, _roster(), DB_TAGS)


def test_build_profiles_names_first_unknown_author():
    accepted = {
        "scopus": {"a1": {"10.1/a": 1}, "x2": {"10.1/b": 1}, "x1": {"10.1/c": 1}},
        "wos": {"x0": {"10.1/a": 1}},
    }
    with pytest.raises(UnknownAuthor, match="'x2'"):
        build_profiles(accepted, _roster(), DB_TAGS)


def test_build_profiles_unknown_source():
    with pytest.raises(SchemaError):
        build_profiles({"dimensions": {"a1": {"10.1/a": 1}}}, _roster(), DB_TAGS)


def test_profile_to_citations_sorted():
    profile = AuthorProfile(
        author_key="a1",
        discipline="physics",
        per_db_publications={
            "scopus": {"10.1/a": 3, "10.1/b": 15, "10.1/c": 0},
            "wos": {},
        },
    )
    assert profile_to_citations(profile, "scopus").citations == (15, 3, 0)
    assert profile_to_citations(profile, "wos").citations == ()
    assert profile_to_citations(profile, "unused").citations == ()


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
def test_profile_to_citations_preserves_multiset(counts):
    pubs = {f"10.1/p{i}": c for i, c in enumerate(counts)}
    profile = AuthorProfile("a1", "physics", {"scopus": pubs, "wos": {}})
    extracted = profile_to_citations(profile, "scopus").citations
    assert Counter(extracted) == Counter(counts)
