"""Export parsing, DOI normalization, and profile assembly."""

import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scimetrics.errors import MalformedDoi, SchemaError, UnknownAuthor
from scimetrics.ingest import (
    AuthorProfile,
    RosterEntry,
    build_profiles,
    normalize_doi,
    parse_records,
    parse_roster,
    profile_to_citations,
)

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


def test_doi_with_control_or_space_is_rejected_as_malformed():
    data = b"author_key,doi,citations\na1,10.1/a\x00b,3\na1,10.1/a b,4\na1,10.1/\xc3\xa9,5\n"
    accepted, rejects = parse_records(data, "csv", "scopus")
    assert accepted == {"a1": {"10.1/é": 5}}
    assert [(r.row, r.reason) for r in rejects] == [(1, "malformed doi"), (2, "malformed doi")]


@given(
    st.from_regex(r"10\.[0-9]{1,6}/[a-zA-Z0-9._;()/-]{1,20}", fullmatch=True),
    st.sampled_from(["", "doi:", "DOI:", "https://doi.org/", "http://doi.org/"]),
)
def test_normalize_doi_idempotent(suffix, prefix):
    normalized = normalize_doi(prefix + suffix)
    assert normalize_doi(normalized) == normalized


# ---------------------------------------------------------------------------
# parse_records
# ---------------------------------------------------------------------------

def test_missing_doi_rejected_with_row_number():
    data = records_csv(
        [
            ("a1", "10.1/x", 5, "scopus"),
            ("a1", "", 3, "scopus"),
            ("a2", "10.1/y", 0, "scopus"),
        ]
    )
    accepted, rejects = parse_records(data, "csv", "scopus")
    assert len(pairs(accepted)) == 2
    assert [(r.row, r.reason) for r in rejects] == [(2, "missing doi")]


def test_empty_file_with_header():
    accepted, rejects = parse_records(records_csv([]), "csv", "scopus")
    assert accepted == {} and rejects == []


def test_duplicate_rows_collapse_to_max():
    data = records_csv(
        [
            ("a1", "10.1/x", 5, "scopus"),
            ("a1", "10.1/y", 1, "scopus"),
            ("a1", "doi:10.1/X", 9, "scopus"),  # same DOI as row 1 after normalizing
            ("a2", "10.1/x", 2, "scopus"),      # same DOI, different author: kept
            ("a1", "10.1/x", 4, "scopus"),
        ]
    )
    accepted, rejects = parse_records(data, "csv", "scopus")
    assert len(pairs(accepted)) + len(rejects) == 5
    assert [(r.row, r.reason) for r in rejects] == [
        (3, "duplicate doi"),
        (5, "duplicate doi"),
    ]
    assert pairs(accepted) == {("a1", "10.1/x"): 9, ("a1", "10.1/y"): 1, ("a2", "10.1/x"): 2}


def test_reject_reasons():
    data = records_csv(
        [
            ("", "10.1/x", 5, "scopus"),
            ("a1", "junk", 5, "scopus"),
            ("a1", "10.1/x", -2, "scopus"),
            ("a1", "10.1/y", "many", "scopus"),
            ("a1", "10.1/z", 5, "wos"),
        ]
    )
    accepted, rejects = parse_records(data, "csv", "scopus")
    assert accepted == {}
    assert [r.reason for r in rejects] == [
        "missing author_key",
        "malformed doi",
        "negative citations",
        "invalid citations",
        "source mismatch",
    ]


def test_citation_strings_must_be_ascii_digits():
    data = records_csv(
        [
            ("a1", "10.1/a", "\u0663", "scopus"),  # Arabic-Indic three
            ("a1", "10.1/b", "1_000", "scopus"),
            ("a1", "10.1/c", " 7 ", "scopus"),
            ("a1", "10.1/d", " -3", "scopus"),
            ("a1", "10.1/e", "9" * 5000, "scopus"),  # past int()'s digit limit
        ]
    )
    accepted, rejects = parse_records(data, "csv", "scopus")
    assert accepted == {"a1": {"10.1/c": 7}}
    assert [r.reason for r in rejects] == [
        "invalid citations",
        "invalid citations",
        "negative citations",
        "invalid citations",
    ]


# CSV row semantics: stated through reject reasons and row numbers only, so
# they hold whatever shape the accepted records take.

def test_blank_line_is_skipped_and_takes_no_row_number():
    data = b"author_key,doi,citations\na1,,5\n\na2,,5\n\n"
    _, rejects = parse_records(data, "csv", "scopus")
    assert [(r.row, r.author_key, r.reason) for r in rejects] == [
        (1, "a1", "missing doi"),
        (2, "a2", "missing doi"),
    ]


def test_short_row_reads_missing_fields_as_empty():
    data = b"author_key,doi,citations\na1,10.1/x\na2\na3,10.1/y,\n"
    _, rejects = parse_records(data, "csv", "scopus")
    assert [(r.row, r.reason) for r in rejects] == [
        (1, "invalid citations"),
        (2, "missing doi"),
        (3, "invalid citations"),
    ]


def test_extra_fields_are_ignored():
    data = b"author_key,doi,citations\na1,10.1/x,5,wos,-1\na1,10.1/y,2,,junk\n"
    _, rejects = parse_records(data, "csv", "scopus")
    assert rejects == []


def test_repeated_header_column_last_one_wins():
    data = b"author_key,citations,doi,citations\na1,-1,10.1/x,5\na1,5,10.1/y,-1\n"
    _, rejects = parse_records(data, "csv", "scopus")
    assert [(r.row, r.reason) for r in rejects] == [(2, "negative citations")]


def test_missing_optional_source_column_is_accepted():
    data = b"doi,citations,author_key\n10.1/x,5,a1\n10.1/y,0,a1\n"
    _, rejects = parse_records(data, "csv", "wos")
    assert rejects == []


def test_field_over_csv_size_limit_is_schema_error():
    data = b"author_key,doi,citations\na1,10.1/" + b"x" * 140_000 + b",5\n"
    with pytest.raises(SchemaError, match="invalid CSV"):
        parse_records(data, "csv", "scopus")


def test_missing_column_aborts():
    data = b"author_key,citations\na1,5\n"
    with pytest.raises(SchemaError):
        parse_records(data, "csv", "scopus")


def test_non_utf8_aborts():
    with pytest.raises(SchemaError):
        parse_records(b"\xff\xfe\x00bad", "csv", "scopus")


def test_json_records_mirror_csv():
    payload = [
        {"author_key": "a1", "doi": "10.1/x", "citations": 5, "source": "scopus"},
        {"author_key": "a1", "doi": "https://doi.org/10.1/Y", "citations": 2},
        {"author_key": "a2", "citations": 2},
    ]
    accepted, rejects = parse_records(json.dumps(payload).encode(), "json", "scopus")
    assert accepted == {"a1": {"10.1/x": 5, "10.1/y": 2}}
    assert [(r.row, r.reason) for r in rejects] == [(3, "missing doi")]


def test_json_must_be_array_of_objects():
    with pytest.raises(SchemaError):
        parse_records(b'{"author_key": "a1"}', "json", "scopus")
    with pytest.raises(SchemaError):
        parse_records(b"[1, 2]", "json", "scopus")
    with pytest.raises(SchemaError):
        parse_records(b"not json", "json", "scopus")


def test_parse_from_path(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes(records_csv([("a1", "10.1/x", 5, "scopus")]))
    accepted, rejects = parse_records(path, None, "scopus")
    assert len(accepted) == 1 and not rejects
    json_path = tmp_path / "records.json"
    json_path.write_text(json.dumps([{"author_key": "a1", "doi": "10.1/x", "citations": 1}]))
    accepted, _ = parse_records(json_path, None, "scopus")
    assert accepted == {"a1": {"10.1/x": 1}}


def test_parse_is_deterministic():
    data = records_csv(
        [("a1", "10.1/x", 5, "scopus"), ("a1", "", 1, "scopus"), ("a1", "10.1/x", 7, "scopus")]
    )
    assert parse_records(data, "csv", "scopus") == parse_records(data, "csv", "scopus")


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
    accepted, rejects = parse_records(records_csv(rows), "csv", "scopus")
    assert len(pairs(accepted)) + len(rejects) == len(rows)


# ---------------------------------------------------------------------------
# roster and profiles
# ---------------------------------------------------------------------------

def test_parse_roster():
    data = roster_csv(
        [
            ("a1", "0000-0001", "R-1", "7001", "physics", "Author One"),
            ("a2", "", "", "", "physics", "Author Two"),
        ]
    )
    roster = parse_roster(data)
    assert roster == [RosterEntry("a1", "physics"), RosterEntry("a2", "physics")]


def test_roster_schema_errors():
    with pytest.raises(SchemaError):
        parse_roster(b"author_key,discipline\na1,physics\n")  # missing columns
    dup = roster_csv(
        [("a1", "", "", "", "physics", ""), ("a1", "", "", "", "physics", "")]
    )
    with pytest.raises(SchemaError):
        parse_roster(dup)
    blank = roster_csv([("a1", "", "", "", "", "")])
    with pytest.raises(SchemaError):
        parse_roster(blank)


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
