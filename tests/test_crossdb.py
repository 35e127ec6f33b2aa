"""DOI reconciliation: overlap classification and proportions."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scimetrics.crossdb import classify_overlap, overlap_proportions
from scimetrics.errors import EmptyScope, UnknownDiscipline
from scimetrics.ingest import AuthorProfile

DB_TAGS = ("scopus", "wos")


def make_profile(author, discipline, scopus=(), wos=()):
    return AuthorProfile(
        author_key=author,
        discipline=discipline,
        per_db_publications={"scopus": dict(scopus), "wos": dict(wos)},
    )


def test_basic_set_algebra():
    profile = make_profile(
        "a1",
        "physics",
        scopus=[("10.1/a", 1), ("10.1/b", 2), ("10.1/c", 0)],
        wos=[("10.1/b", 2), ("10.1/c", 1), ("10.1/d", 4)],
    )
    report = classify_overlap([profile], DB_TAGS)
    assert report.common_pubs == 2
    assert report.per_db["scopus"].unique_pubs == 1
    assert report.per_db["wos"].unique_pubs == 1
    assert report.per_db["scopus"].total_pubs == 3
    assert report.per_db["scopus"].pubs_received_citations == 2
    assert report.per_db["scopus"].total_citations == 3
    assert report.author_count == 1


def test_disjoint_sets():
    profile = make_profile("a1", "physics", scopus=[("10.1/a", 1)], wos=[("10.1/b", 1)])
    report = classify_overlap([profile], DB_TAGS)
    assert report.common_pubs == 0
    assert report.per_db["scopus"].unique_pubs == 1
    assert report.per_db["wos"].unique_pubs == 1


def test_scope_filters_by_discipline():
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 1)]),
        make_profile("a2", "biology", scopus=[("10.1/b", 1)], wos=[("10.1/b", 1)]),
    ]
    report = classify_overlap(profiles, DB_TAGS, scope="biology")
    assert report.scope == "biology"
    assert report.author_count == 1
    assert report.common_pubs == 1
    assert report.per_db["scopus"].total_pubs == 1


def test_unknown_discipline():
    profiles = [make_profile("a1", "physics", scopus=[("10.1/a", 1)])]
    with pytest.raises(UnknownDiscipline):
        classify_overlap(profiles, DB_TAGS, scope="alchemy")


def test_shared_doi_within_scope_counts_once():
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 5)]),
        make_profile("a2", "physics", scopus=[("10.1/a", 7)]),
    ]
    report = classify_overlap(profiles, DB_TAGS)
    assert report.per_db["scopus"].total_pubs == 1
    assert report.per_db["scopus"].total_citations == 7  # max merge


def test_cross_discipline_doi_counts_once_globally():
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 5)]),
        make_profile("a2", "biology", scopus=[("10.1/a", 5)]),
    ]
    global_report = classify_overlap(profiles, DB_TAGS)
    per_discipline = [
        classify_overlap(profiles, DB_TAGS, scope=d) for d in ("physics", "biology")
    ]
    summed = sum(r.per_db["scopus"].total_pubs for r in per_discipline)
    assert global_report.per_db["scopus"].total_pubs == 1
    assert summed == 2  # once per discipline, once globally


def test_partitioning_disciplines_sum_to_global():
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 1)], wos=[("10.1/a", 1)]),
        make_profile("a2", "biology", scopus=[("10.2/b", 2)], wos=[("10.2/c", 0)]),
    ]
    global_report = classify_overlap(profiles, DB_TAGS)
    parts = [classify_overlap(profiles, DB_TAGS, scope=d) for d in ("physics", "biology")]
    for tag in DB_TAGS:
        assert global_report.per_db[tag].total_pubs == sum(
            p.per_db[tag].total_pubs for p in parts
        )
    assert global_report.common_pubs == sum(p.common_pubs for p in parts)


DISCIPLINES = ("biology", "chemistry", "physics")
doi_maps = st.dictionaries(
    st.sampled_from([f"10.1/d{i}" for i in range(8)]), st.integers(0, 9), max_size=5
)


@given(st.lists(st.tuples(st.sampled_from(DISCIPLINES), doi_maps, doi_maps), max_size=12))
def test_scope_given_only_its_own_profiles_matches_full_list(specs):
    # A small DOI pool makes DOIs shared across disciplines common.
    profiles = [make_profile(f"a{i}", *spec) for i, spec in enumerate(specs)]
    for scope in DISCIPLINES:
        own = [p for p in profiles if p.discipline == scope]
        assert classify_overlap(
            own, DB_TAGS, scope=scope, disciplines=DISCIPLINES
        ) == classify_overlap(profiles, DB_TAGS, scope=scope, disciplines=DISCIPLINES)


def _random_profiles(rng, n_records=200):
    profiles = {}
    for i in range(n_records):
        author = f"a{rng.randrange(8)}"
        discipline = "physics" if author < "a4" else "biology"
        if author not in profiles:
            profiles[author] = make_profile(author, discipline)
        source = rng.choice(DB_TAGS)
        doi = f"10.1/d{rng.randrange(60)}"
        citations = rng.randrange(20)
        pubs = profiles[author].per_db_publications[source]
        pubs[doi] = max(citations, pubs.get(doi, -1))
    return list(profiles.values())


def test_against_set_oracle():
    rng = random.Random(7)
    profiles = _random_profiles(rng)
    report = classify_overlap(profiles, DB_TAGS)
    oracle_sets = {tag: set() for tag in DB_TAGS}
    for p in profiles:
        for tag in DB_TAGS:
            oracle_sets[tag].update(p.per_db_publications[tag])
    assert report.common_pubs == len(oracle_sets["scopus"] & oracle_sets["wos"])
    for tag, other in (("scopus", "wos"), ("wos", "scopus")):
        assert report.per_db[tag].total_pubs == len(oracle_sets[tag])
        assert report.per_db[tag].unique_pubs == len(oracle_sets[tag] - oracle_sets[other])


def test_partition_law_and_symmetry_on_random_fixtures():
    rng = random.Random(99)
    for _ in range(100):
        profiles = _random_profiles(rng, n_records=rng.randrange(1, 60))
        report = classify_overlap(profiles, DB_TAGS)
        for tag in DB_TAGS:
            assert (
                report.per_db[tag].total_pubs
                == report.common_pubs + report.per_db[tag].unique_pubs
            )
            assert (
                report.per_db[tag].pubs_received_citations
                <= report.per_db[tag].total_pubs
            )
        swapped = classify_overlap(profiles, ("wos", "scopus"))
        assert swapped.common_pubs == report.common_pubs
        assert swapped.per_db["wos"].unique_pubs == report.per_db["wos"].unique_pubs

        union = report.common_pubs + sum(
            s.unique_pubs for s in report.per_db.values()
        )
        if union:
            props = overlap_proportions(report)
            total_share = props.common_share + sum(props.unique_shares.values())
            assert abs(total_share - 1.0) < 1e-12
            for tag in DB_TAGS:
                if report.per_db[tag].total_pubs:
                    assert (
                        abs(
                            props.per_db_common_share[tag]
                            + props.per_db_unique_share[tag]
                            - 1.0
                        )
                        < 1e-12
                    )


def test_proportions_basic():
    profile = make_profile(
        "a1",
        "physics",
        scopus=[("10.1/a", 1), ("10.1/b", 1), ("10.1/c", 1)],
        wos=[("10.1/b", 1), ("10.1/c", 1), ("10.1/d", 1)],
    )
    props = overlap_proportions(classify_overlap([profile], DB_TAGS))
    assert props.common_share == 0.5
    assert props.unique_shares == {"scopus": 0.25, "wos": 0.25}
    assert props.union_total == 4


def test_proportions_all_common():
    profile = make_profile("a1", "physics", scopus=[("10.1/a", 1)], wos=[("10.1/a", 2)])
    props = overlap_proportions(classify_overlap([profile], DB_TAGS))
    assert props.common_share == 1.0
    assert props.unique_shares == {"scopus": 0.0, "wos": 0.0}


def test_empty_scope():
    profile = make_profile("a1", "physics")
    with pytest.raises(EmptyScope):
        overlap_proportions(classify_overlap([profile], DB_TAGS))


@given(
    st.sets(st.integers(min_value=0, max_value=30)),
    st.sets(st.integers(min_value=0, max_value=30)),
)
def test_partition_law_exhaustive(dois_a, dois_b):
    profile = make_profile(
        "a1",
        "physics",
        scopus=[(f"10.1/{d}", 1) for d in dois_a],
        wos=[(f"10.1/{d}", 1) for d in dois_b],
    )
    report = classify_overlap([profile], DB_TAGS)
    union = len(dois_a | dois_b)
    assert (
        report.common_pubs
        + report.per_db["scopus"].unique_pubs
        + report.per_db["wos"].unique_pubs
        == union
    )
