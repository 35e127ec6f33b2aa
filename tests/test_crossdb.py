"""DOI reconciliation: overlap classification and proportions."""

import random
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from scimetrics.cli import Pipeline, cmd_overlap
from scimetrics.config import RunConfig
from scimetrics.crossdb import GLOBAL_SCOPE, classify_overlap, overlap_proportions
from scimetrics.ingest import AuthorProfile

DB_TAGS = ("scopus", "wos")


def make_profile(author, discipline, scopus=(), wos=()):
    return AuthorProfile(
        author_key=author,
        discipline=discipline,
        per_db_publications={"scopus": dict(scopus), "wos": dict(wos)},
    )


def own(profiles, discipline):
    """The profiles of one discipline's authors, as ``cmd_overlap`` groups them."""
    return [p for p in profiles if p.discipline == discipline]


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
        classify_overlap(own(profiles, d), DB_TAGS, scope=d) for d in ("physics", "biology")
    ]
    scopes = [r.scope for r in (global_report, *per_discipline)]
    assert scopes == [GLOBAL_SCOPE, "physics", "biology"]
    summed = sum(r.per_db["scopus"].total_pubs for r in per_discipline)
    assert global_report.per_db["scopus"].total_pubs == 1
    assert summed == 2  # once per discipline, once globally


def test_partitioning_disciplines_sum_to_global():
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 1)], wos=[("10.1/a", 1)]),
        make_profile("a2", "biology", scopus=[("10.2/b", 2)], wos=[("10.2/c", 0)]),
    ]
    global_report = classify_overlap(profiles, DB_TAGS)
    parts = [classify_overlap(own(profiles, d), DB_TAGS, d) for d in ("physics", "biology")]
    for tag in DB_TAGS:
        assert global_report.per_db[tag].total_pubs == sum(
            p.per_db[tag].total_pubs for p in parts
        )
    assert global_report.common_pubs == sum(p.common_pubs for p in parts)


DISCIPLINES = ("biology", "chemistry", "physics")
doi_maps = st.dictionaries(
    st.sampled_from([f"10.1/d{i}" for i in range(8)]), st.integers(0, 9), max_size=5
)


@given(
    st.lists(st.tuples(st.sampled_from(DISCIPLINES), doi_maps, doi_maps), min_size=1, max_size=12)
)
def test_overlap_report_global_row_equals_flat_classification(specs):
    # DOIs shared across disciplines, with unequal and zero counts; a small DOI
    # pool makes them common. The global rows, merged from the discipline maps,
    # must equal one flat walk of every profile, and each discipline's rows that
    # discipline's own classification.
    profiles = [make_profile(f"a{i}", *spec) for i, spec in enumerate(specs)]
    scopes = {d: own(profiles, d) for d in DISCIPLINES}
    scopes = {d: group for d, group in scopes.items() if group}
    scopes[GLOBAL_SCOPE] = profiles
    expected = []
    for scope, group in scopes.items():
        r = classify_overlap(group, DB_TAGS, scope)
        expected += [(scope, r.author_count, t, *r.per_db[t], r.common_pubs) for t in DB_TAGS]
    config = RunConfig(records=tuple((tag, Path(tag)) for tag in DB_TAGS), roster=Path("r"))
    overlap, _ = cmd_overlap(Pipeline(config, scopes, {}, []), None)
    assert overlap.rows == expected


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
            cells = overlap_proportions(report)
            union_cells = [cell for cell in cells if cell[0] == "union"]
            assert sum(count for _, _, count, _ in union_cells) == union
            assert {whole for _, _, _, whole in union_cells} == {union}
            for tag in DB_TAGS:
                total = report.per_db[tag].total_pubs
                own_cells = [cell for cell in cells if cell[0] == tag]
                assert [series for _, series, _, _ in own_cells] == ["common", "unique"]
                assert sum(count for _, _, count, _ in own_cells) == total
                assert {whole for _, _, _, whole in own_cells} == {total}


def test_proportions_basic():
    profile = make_profile(
        "a1",
        "physics",
        scopus=[("10.1/a", 1), ("10.1/b", 1), ("10.1/c", 1)],
        wos=[("10.1/b", 1), ("10.1/c", 1), ("10.1/d", 1)],
    )
    assert overlap_proportions(classify_overlap([profile], DB_TAGS)) == [
        ("union", "common", 2, 4),
        ("union", "unique_scopus", 1, 4),
        ("union", "unique_wos", 1, 4),
        ("scopus", "common", 2, 3),
        ("scopus", "unique", 1, 3),
        ("wos", "common", 2, 3),
        ("wos", "unique", 1, 3),
    ]


def test_proportions_all_common():
    profile = make_profile("a1", "physics", scopus=[("10.1/a", 1)], wos=[("10.1/a", 2)])
    assert overlap_proportions(classify_overlap([profile], DB_TAGS)) == [
        ("union", "common", 1, 1),
        ("union", "unique_scopus", 0, 1),
        ("union", "unique_wos", 0, 1),
        ("scopus", "common", 1, 1),
        ("scopus", "unique", 0, 1),
        ("wos", "common", 1, 1),
        ("wos", "unique", 0, 1),
    ]


def test_empty_scope():
    profile = make_profile("a1", "physics")
    assert overlap_proportions(classify_overlap([profile], DB_TAGS)) == []


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
    if union:
        union_cells = [cell for cell in overlap_proportions(report) if cell[0] == "union"]
        assert sum(count for _, _, count, _ in union_cells) == union
        assert {whole for _, _, _, whole in union_cells} == {union}
