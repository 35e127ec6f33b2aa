"""Export parsing, DOI normalization, and profile assembly."""

import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scimetrics.errors import MalformedDoi, SchemaError, UnknownAuthor
from scimetrics.ingest import (
    AuthorProfile,
    PublicationRecord,
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
    ["not-a-doi", "11.1000/x", "10./x", "10.1000", "10.1000/", "doi:", "  "],
)
def test_normalize_doi_rejects_bad_shapes(raw):
    with pytest.raises(MalformedDoi):
        normalize_doi(raw)


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
    assert len(accepted) == 2
    assert [(r.row, r.reason) for r in rejects] == [(2, "missing doi")]


def test_empty_file_with_header():
    accepted, rejects = parse_records(records_csv([]), "csv", "scopus")
    assert accepted == [] and rejects == []


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
    assert len(accepted) + len(rejects) == 5
    assert [(r.row, r.reason) for r in rejects] == [
        (3, "duplicate doi"),
        (5, "duplicate doi"),
    ]
    by_key = {(r.author_key, r.doi): r.citations for r in accepted}
    assert by_key == {("a1", "10.1/x"): 9, ("a1", "10.1/y"): 1, ("a2", "10.1/x"): 2}


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
    assert accepted == []
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
    assert [(r.doi, r.citations) for r in accepted] == [("10.1/c", 7)]
    assert [r.reason for r in rejects] == [
        "invalid citations",
        "invalid citations",
        "negative citations",
        "invalid citations",
    ]


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
    assert [(r.doi, r.citations) for r in accepted] == [("10.1/x", 5), ("10.1/y", 2)]
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
    assert accepted[0].citations == 1


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
    assert len(accepted) + len(rejects) == len(rows)


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
    assert roster[0] == RosterEntry(
        author_key="a1",
        discipline="physics",
        display_name="Author One",
        external_ids={"orcid": "0000-0001", "researcher_id": "R-1", "scopus_id": "7001"},
    )
    assert roster[1].external_ids == {}


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


def _rec(author, doi, citations, source):
    return PublicationRecord(doi=doi, citations=citations, source=source, author_key=author)


def test_build_profiles_groups_records():
    records = [
        _rec("a1", "10.1/a", 3, "scopus"),
        _rec("a1", "10.1/b", 1, "scopus"),
        _rec("a1", "10.1/a", 2, "wos"),
        _rec("a2", "10.1/c", 0, "scopus"),
        _rec("a2", "10.1/c", 1, "wos"),
        _rec("a2", "10.1/d", 9, "wos"),
    ]
    profiles = build_profiles(records, _roster(), DB_TAGS)
    assert [p.author_key for p in profiles] == ["a1", "a2", "a3"]
    a1, a2, a3 = profiles
    assert len(a1.per_db_publications["scopus"]) == 2
    assert len(a1.per_db_publications["wos"]) == 1
    assert len(a2.per_db_publications["wos"]) == 2
    assert a3.per_db_publications == {"scopus": [], "wos": []}
    total = sum(len(p.per_db_publications[t]) for p in profiles for t in DB_TAGS)
    assert total == len(records)


def test_build_profiles_unknown_author():
    with pytest.raises(UnknownAuthor, match="a9"):
        build_profiles([_rec("a9", "10.1/a", 1, "scopus")], _roster(), DB_TAGS)


def test_build_profiles_unknown_source():
    with pytest.raises(SchemaError):
        build_profiles([_rec("a1", "10.1/a", 1, "dimensions")], _roster(), DB_TAGS)


def test_build_profiles_merges_cross_file_duplicates():
    records = [
        _rec("a1", "10.1/a", 3, "scopus"),
        _rec("a1", "10.1/a", 8, "scopus"),
    ]
    profiles = build_profiles(records, _roster(), DB_TAGS)
    assert [r.citations for r in profiles[0].per_db_publications["scopus"]] == [8]


def test_profile_to_citations_sorted():
    profile = AuthorProfile(
        author_key="a1",
        discipline="physics",
        external_ids={},
        per_db_publications={
            "scopus": [
                _rec("a1", "10.1/a", 3, "scopus"),
                _rec("a1", "10.1/b", 15, "scopus"),
                _rec("a1", "10.1/c", 0, "scopus"),
            ],
            "wos": [],
        },
    )
    assert profile_to_citations(profile, "scopus").citations == (15, 3, 0)
    assert profile_to_citations(profile, "wos").citations == ()
    assert profile_to_citations(profile, "unused").citations == ()


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
def test_profile_to_citations_preserves_multiset(counts):
    pubs = [_rec("a1", f"10.1/p{i}", c, "scopus") for i, c in enumerate(counts)]
    profile = AuthorProfile("a1", "physics", {}, {"scopus": pubs, "wos": []})
    extracted = profile_to_citations(profile, "scopus").citations
    assert Counter(extracted) == Counter(counts)
