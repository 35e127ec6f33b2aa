"""DOI reconciliation: overlap classification and proportions."""

import random
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from scimetrics import crossdb
from scimetrics.cli import Pipeline, cmd_overlap, load_pipeline
from scimetrics.config import RunConfig
from scimetrics.crossdb import GLOBAL_SCOPE, classify_overlap, overlap_proportions
from scimetrics.ingest import AuthorProfile

DB_TAGS = ("scopus", "wos")
SYNTHETIC = Path(__file__).resolve().parent / "data" / "synthetic"


def make_profile(author, discipline, scopus=(), wos=()):
    return AuthorProfile(
        author_key=author,
        discipline=discipline,
        per_db_publications={"scopus": dict(scopus), "wos": dict(wos)},
    )


def own(profiles, discipline):
    """The profiles of one discipline's authors, as ``cmd_overlap`` groups them."""
    return [p for p in profiles if p.discipline == discipline]


def max_merge(profiles):
    """Per database, each DOI's largest citation count among ``profiles``."""
    merged = {tag: {} for tag in DB_TAGS}
    for profile in profiles:
        for tag in DB_TAGS:
            for doi, citations in profile.per_db_publications[tag].items():
                merged[tag][doi] = max(citations, merged[tag].get(doi, citations))
    return merged


def oracle_rows(scope, group):
    """The ``overlap`` rows of one scope, from its max-merged DOI maps."""
    merged = max_merge(group)
    common = set(merged["scopus"]) & set(merged["wos"])
    return [
        (scope, len(group), tag, len(counts), len(set(counts) - common),
         sum(1 for c in counts.values() if c > 0), sum(counts.values()), len(common))
        for tag, counts in merged.items()
    ]


def report_rows(report):
    """The ``overlap`` rows of one report, as ``cmd_overlap`` writes them."""
    return [
        (report.scope, report.author_count, tag, *report.per_db[tag], report.common_pubs)
        for tag in DB_TAGS
    ]


def overlap_rows(scopes):
    """``cmd_overlap``'s ``overlap`` rows for ``scopes``, in their order."""
    config = RunConfig(records=tuple((tag, Path(tag)) for tag in DB_TAGS), roster=Path("r"))
    overlap, _ = cmd_overlap(Pipeline(config, scopes, {}, []), None)
    return overlap.rows


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
    for first, later in ((5, 7), (7, 5)):  # the larger count last, then first
        profiles = [
            make_profile("a1", "physics", scopus=[("10.1/a", first)]),
            make_profile("a2", "physics", scopus=[("10.1/a", later)]),
        ]
        report = classify_overlap(profiles, DB_TAGS, "physics")
        assert report.per_db["scopus"].total_pubs == 1
        assert report.per_db["scopus"].total_citations == 7  # max merge


def test_cross_discipline_doi_keeps_its_largest_count_globally():
    # The later author has the lower scopus count and the higher wos count;
    # the global rows keep the larger of each, as the disciplines' rows do.
    profiles = [
        make_profile("a1", "physics", scopus=[("10.1/a", 7)], wos=[("10.1/a", 0)]),
        make_profile("a2", "biology", scopus=[("10.1/a", 5)], wos=[("10.1/a", 2)]),
    ]
    scopes = {"physics": profiles[:1], "biology": profiles[1:], GLOBAL_SCOPE: profiles}
    assert overlap_rows(scopes) == [
        ("physics", 1, "scopus", 1, 0, 1, 7, 1),
        ("physics", 1, "wos", 1, 0, 0, 0, 1),
        ("biology", 1, "scopus", 1, 0, 1, 5, 1),
        ("biology", 1, "wos", 1, 0, 1, 2, 1),
        (GLOBAL_SCOPE, 2, "scopus", 1, 0, 1, 7, 1),
        (GLOBAL_SCOPE, 2, "wos", 1, 0, 1, 2, 1),
    ]


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
    # pool makes them common. Every scope's rows, the global one's included,
    # must equal those of the scope's DOI maps max-merged here with dict and max.
    profiles = [make_profile(f"a{i}", *spec) for i, spec in enumerate(specs)]
    scopes = {d: own(profiles, d) for d in DISCIPLINES}
    scopes = {d: group for d, group in scopes.items() if group}
    scopes[GLOBAL_SCOPE] = profiles
    expected = [row for scope, group in scopes.items() for row in oracle_rows(scope, group)]
    assert overlap_rows(scopes) == expected


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
    oracle = max_merge(profiles)
    oracle_sets = {tag: set(counts) for tag, counts in oracle.items()}
    assert report.common_pubs == len(oracle_sets["scopus"] & oracle_sets["wos"])
    for tag, other in (("scopus", "wos"), ("wos", "scopus")):
        assert report.per_db[tag].total_pubs == len(oracle_sets[tag])
        assert report.per_db[tag].unique_pubs == len(oracle_sets[tag] - oracle_sets[other])
        assert report.per_db[tag].total_citations == sum(oracle[tag].values())
        cited = sum(1 for c in oracle[tag].values() if c > 0)
        assert report.per_db[tag].pubs_received_citations == cited


class Touched(Exception):
    """Raised by a stand-in for a merge step that a fast path must not take."""


def untouchable(dois, maps):
    raise Touched("_keep_largest")


def test_the_max_fix_up_runs_only_for_a_doi_with_two_authors(tmp_path, monkeypatch):
    # The fixture has no DOI with two authors, so every scope merges in C alone.
    config = RunConfig(
        records=tuple((tag, SYNTHETIC / f"records_{tag}.csv") for tag in DB_TAGS),
        roster=SYNTHETIC / "roster.csv",
        out_dir=tmp_path,
    )
    scopes = load_pipeline(config).scopes
    unpatched = [classify_overlap(group, DB_TAGS, scope) for scope, group in scopes.items()]
    assert [row for r in unpatched for row in report_rows(r)] == [
        row for scope, group in scopes.items() for row in oracle_rows(scope, group)
    ]
    keep_largest = crossdb._keep_largest
    monkeypatch.setattr(crossdb, "_keep_largest", untouchable)
    assert [classify_overlap(group, DB_TAGS, scope) for scope, group in scopes.items()] == unpatched

    # A later coauthor holds one of the first author's DOIs with a lower count.
    discipline, group = next(iter(scopes.items()))
    first, later = group[0].per_db_publications, group[-1].per_db_publications
    doi, top = max(first["scopus"].items(), key=lambda item: item[1])
    assert top > 0 and doi not in later["scopus"]
    coauthor = group[-1]._replace(
        per_db_publications={**later, "scopus": {**later["scopus"], doi: top - 1}}
    )
    group = [*group[:-1], coauthor]
    calls = []

    def counted(dois, maps):
        calls.append(len(maps))
        keep_largest(dois, maps)

    monkeypatch.setattr(crossdb, "_keep_largest", counted)
    report = classify_overlap(group, DB_TAGS, discipline)
    assert calls == [len(group)]  # the scopus merge only
    assert report_rows(report) == oracle_rows(discipline, group)


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
