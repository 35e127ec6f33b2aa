"""Rankings, binning, rank correlation, deviation, and density series."""

import math
import random
import statistics
import sys
from collections import defaultdict
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scimetrics.analytics import (
    DEFAULT_BINS,
    BinSpec,
    _centred_ranks,
    bin_proportions,
    build_cohort,
    density_series,
    diff_sd,
    per_bin_correlation,
    rank_authors,
    rho_of,
    spearman_rho,
    stats_summary,
)
from scimetrics.errors import DegenerateInput
from scimetrics.indices import CitationProfile, IndexReport, compute_hc
from scimetrics.ingest import AuthorProfile

from helpers import cohort_from_profiles

DB_TAGS = ("scopus", "wos")


def report_for(h, k=0, h_cite=None, g=None):
    """A consistent IndexReport for hand-built cohorts."""
    if h_cite is None:
        h_cite = h**2 + 1 if k else max(h, 1) if h else 0
        if k:
            h_cite = h**k * 2  # any value with h**k < h_cite <= h**(k+1)
    if g is None:
        g = max(h, int(math.isqrt(h * h_cite)))
    return IndexReport(h=h, g=g, h_cite=h_cite, k=k, h_c=h + k)


def profile_with(h, top):
    """A citation profile whose h-index is exactly h and top paper is top."""
    assert top >= h >= 1
    return CitationProfile((top,) + (h,) * (h - 1) + (0,))


def cohort_of(reports_by_author, db_tags=DB_TAGS):
    """A cohort of the given authors, in order, from each one's per-database reports."""
    columns = {tag: tuple(r[tag] for r in reports_by_author.values()) for tag in db_tags}
    return build_cohort("physics", tuple(reports_by_author), columns, db_tags)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def oracle_fractional_ranks(values):
    """Rank table built by grouping equal values and averaging positions."""
    positions = defaultdict(list)
    for pos, v in enumerate(sorted(values), 1):
        positions[v].append(pos)
    return [sum(positions[v]) / len(positions[v]) for v in values]


def fractional_ranks(values):
    """Ascending fractional ranks, from the doubled centred ranks ``spearman_rho`` uses."""
    n1 = len(values) + 1
    return [(d + n1) / 2 for d in _centred_ranks(values)]


def oracle_spearman(pairs):
    """Direct Pearson formula over the fractional-rank table."""
    rx = oracle_fractional_ranks([p[0] for p in pairs])
    ry = oracle_fractional_ranks([p[1] for p in pairs])
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def sort_scan_ranks(values):
    """Fractional ranks from one sort and a scan over runs of equal values."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for idx in order[i : j + 1]:
            ranks[idx] = (i + j + 2) / 2  # positions are i+1 .. j+1
        i = j + 1
    return ranks


def sort_scan_spearman(pairs):
    """Spearman's rho from sort-and-scan ranks, doubled and centred to ints."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(pairs) < 2 or min(xs) == max(xs) or min(ys) == max(ys):
        raise DegenerateInput("degenerate")
    n = len(pairs)
    dx = [round(2 * r) - (n + 1) for r in sort_scan_ranks(xs)]
    dy = [round(2 * r) - (n + 1) for r in sort_scan_ranks(ys)]
    sxy = sum(a * b for a, b in zip(dx, dy))
    sxx = sum(a * a for a in dx)
    syy = sum(b * b for b in dy)
    if sxy * sxy == sxx * syy:
        return 1.0 if sxy > 0 else -1.0
    return sxy / math.sqrt(sxx * syy)


def oracle_two_pass_sd(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


# ---------------------------------------------------------------------------
# BinSpec
# ---------------------------------------------------------------------------

def test_default_bins_layout():
    assert DEFAULT_BINS.labels() == ["0-10", "11-20", "21-30", "31-40", "41-50", "51+"]
    column = [0, 10, 11, 50, 51, 10**6]
    assert DEFAULT_BINS.cuts(column) == [0, 2, 3, 3, 3, 4, 6]


def test_binspec_parse_roundtrip():
    parsed = BinSpec.parse("0-10,11-20,21-30,31-40,41-50,51+")
    assert parsed == DEFAULT_BINS
    assert BinSpec.parse("0-4,5-") == BinSpec((0, 5))


@pytest.mark.parametrize(
    "bad",
    ["1-10,11+", "0-10,12+", "0-10,10-20,21+", "0-10,11-20", "0-10;11+", ""],
)
def test_binspec_rejects_non_tilings(bad):
    with pytest.raises(ValueError):
        BinSpec.parse(bad)


@pytest.mark.parametrize(
    "bad",
    ["0-1_0,1_1+", "0-10,11-\u0662\u0660,21+", "0-10,+11-20,21+", "0-10,11-20,\uff12\uff11+"],
)
def test_binspec_rejects_bounds_that_are_not_ascii_digits(bad):
    # int() reads underscores, signs and other scripts' digits; a bin bound may not.
    with pytest.raises(ValueError) as info:
        BinSpec.parse(bad)
    assert type(info.value) is ValueError


def test_binspec_strips_whitespace_around_bounds():
    assert BinSpec.parse(" 0 - 10 , 11 + ") == BinSpec((0, 11))


def test_binspec_accepts_one_value_bins():
    assert BinSpec.parse("0-0,1-1,2+").labels() == ["0-0", "1-1", "2+"]


@pytest.mark.parametrize("bad", ["0-10,11-5,6+", "0+,1-5"])
def test_binspec_rejects_inverted_or_early_open_bins(bad):
    # ValueError exactly: a TypeError from comparing None would escape --bins.
    with pytest.raises(ValueError) as info:
        BinSpec.parse(bad)
    assert type(info.value) is ValueError


# Any ascending lower bounds from 0: each bin holds one value or more.
bin_specs = st.lists(st.integers(1, 30), max_size=8).map(
    lambda widths: BinSpec((0, *accumulate(widths)))
)


@given(bin_specs, st.lists(st.integers(0, 250), max_size=60))
def test_labels_parse_back_and_cuts_are_bin_membership(spec, values):
    assert BinSpec.parse(",".join(spec.labels())) == spec
    column = sorted(values)
    cuts = spec.cuts(column)
    highs = [*spec.lows[1:], math.inf]
    assert len(cuts) == len(spec.lows) + 1
    for i, (lo, hi) in enumerate(zip(spec.lows, highs)):
        assert column[cuts[i] : cuts[i + 1]] == [v for v in column if lo <= v < hi]


# ---------------------------------------------------------------------------
# rank_authors
# ---------------------------------------------------------------------------

def test_rank_tie_break_by_top_paper_then_key():
    cohort = [
        ("a", report_for(5, h_cite=10)),
        ("b", report_for(9, h_cite=12)),
        ("c", report_for(5, h_cite=30)),
    ]
    assert [author_key for author_key, _ in rank_authors(cohort, "h")] == ["b", "c", "a"]


def test_rank_tie_break_falls_back_to_author_key():
    cohort = [("z", report_for(5, h_cite=10)), ("a", report_for(5, h_cite=10))]
    assert [author_key for author_key, _ in rank_authors(cohort, "h")] == ["a", "z"]


def test_rank_single_author():
    cohort = [("only", report_for(3))]
    assert rank_authors(cohort, "h_c") == cohort


def test_rank_empty_cohort():
    with pytest.raises(DegenerateInput):
        rank_authors([], "h")


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 400)),
        min_size=1,
        max_size=50,
    ),
    st.sampled_from(["h", "g", "h_c"]),
)
def test_rank_is_descending_permutation(specs, key):
    cohort = []
    for i, (h, extra) in enumerate(specs):
        h_cite = max(h, extra)
        g = h + extra % 7
        cohort.append((f"a{i:02d}", IndexReport(h=h, g=g, h_cite=h_cite, k=0, h_c=h)))
    ranked = rank_authors(cohort, key)
    assert sorted(ranked) == sorted(cohort)
    values = [getattr(report, key) for _, report in ranked]
    assert values == sorted(values, reverse=True)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["b", "a", "c", "ab"]),
            st.integers(0, 5),
            st.sampled_from([0, 2]),
            st.integers(0, 3),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(["h", "g", "h_c"]),
)
def test_rank_order_equals_the_sort_key_oracle(specs, key):
    # Repeated author keys and tied scores: the order is a stable sort on
    # (-index, -h_cite, author key), so full ties keep their input order.
    cohort = [
        (name, IndexReport(h=h, g=h + dg, h_cite=h + dc, k=k, h_c=h + k))
        for name, h, k, dg, dc in specs
    ]
    expected = sorted(cohort, key=lambda item: (-getattr(item[1], key), -item[1].h_cite, item[0]))
    assert rank_authors(cohort, key) == expected


def test_rank_strict_dominance():
    # strictly larger (h, k) component-wise implies a strictly better rank
    cohort = [
        ("low", report_for(4, k=0)),
        ("high", report_for(6, k=2)),
        ("mid", report_for(5, k=0)),
    ]
    ranked = {author_key: i for i, (author_key, _) in enumerate(rank_authors(cohort, "h_c"))}
    assert ranked["high"] < ranked["mid"] < ranked["low"]


# ---------------------------------------------------------------------------
# bin_proportions
# ---------------------------------------------------------------------------

def test_bin_proportions_example():
    assert bin_proportions([5, 12, 25, 55], DEFAULT_BINS) == (1, 1, 1, 0, 0, 1)


def test_bin_proportions_constant():
    assert bin_proportions([7, 7, 7], DEFAULT_BINS) == (3, 0, 0, 0, 0, 0)


def test_bin_proportions_empty():
    with pytest.raises(DegenerateInput):
        bin_proportions([], DEFAULT_BINS)


@given(st.lists(st.integers(0, 200), min_size=1, max_size=1000))
def test_bin_counts_conserve(values):
    assert sum(bin_proportions(values, DEFAULT_BINS)) == len(values)


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------

def test_fractional_ranks_match_oracle():
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    assert fractional_ranks(values) == oracle_fractional_ranks(values)


def test_spearman_perfect_agreement_is_exact():
    pairs = [(float(i), float(i)) for i in range(10)]
    assert spearman_rho(pairs) == 1.0
    affine = [(float(i), 2.0 * i + 3.0) for i in range(10)]
    assert spearman_rho(affine) == 1.0


def test_spearman_perfect_reversal_is_exact():
    pairs = [(float(i), float(9 - i)) for i in range(10)]
    assert spearman_rho(pairs) == -1.0


def test_spearman_tied_example_matches_oracle():
    pairs = [(1, 1), (2, 3), (2, 2), (4, 4)]
    rho = spearman_rho(pairs)
    assert abs(rho - oracle_spearman(pairs)) < 1e-12
    assert abs(rho - 0.9486832980505138) < 1e-12  # sqrt(0.9)


def test_spearman_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        spearman_rho([(1.0, 2.0)])
    with pytest.raises(DegenerateInput):
        spearman_rho([(1.0, 2.0), (1.0, 3.0)])  # constant x
    with pytest.raises(DegenerateInput):
        spearman_rho([(1.0, 2.0), (3.0, 2.0)])  # constant y
    with pytest.raises(DegenerateInput):
        spearman_rho([])


def test_spearman_random_tied_datasets_match_oracle():
    rng = random.Random(2718)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 40)
        xs = [rng.randint(0, 8) for _ in range(n)]
        ys = [rng.randint(0, 8) for _ in range(n)]
        if min(xs) == max(xs) or min(ys) == max(ys):
            continue
        pairs = list(zip(xs, ys))
        assert abs(spearman_rho(pairs) - oracle_spearman(pairs)) < 1e-12
        checked += 1


pair_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=40
).filter(
    lambda ps: len({x for x, _ in ps}) > 1 and len({y for _, y in ps}) > 1
)


rank_values = st.one_of(st.integers(0, 8), st.integers(-(10**6), 10**6))


@given(st.lists(st.tuples(rank_values, rank_values), max_size=60))
def test_spearman_and_ranks_equal_sort_scan_oracle(pairs):
    xs = [x for x, _ in pairs]
    assert fractional_ranks(xs) == sort_scan_ranks(xs)
    try:
        expected = sort_scan_spearman(pairs)
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            spearman_rho(pairs)
    else:
        assert spearman_rho(pairs) == expected


@given(pair_lists)
def test_spearman_symmetry(pairs):
    swapped = [(y, x) for x, y in pairs]
    assert spearman_rho(pairs) == pytest.approx(spearman_rho(swapped), abs=1e-12)


@given(pair_lists)
def test_spearman_invariant_under_increasing_transform(pairs):
    transformed = [(2 * x + 3, y) for x, y in pairs]
    assert spearman_rho(pairs) == pytest.approx(
        spearman_rho(transformed), abs=1e-12
    )


@given(pair_lists)
def test_spearman_bounded(pairs):
    assert -1.0 <= spearman_rho(pairs) <= 1.0


# ---------------------------------------------------------------------------
# per-bin correlation
# ---------------------------------------------------------------------------

def per_bin_rhos(cohort):
    """Each default bin's rho as a float, through the helper that raw reports use."""
    sums = per_bin_correlation(cohort, DEFAULT_BINS, "scopus")
    return [None if s is None else rho_of(*s) for s in sums]


def test_per_bin_rho_one_when_no_weights_and_h_varies():
    reports = {
        f"a{i}": {tag: report_for(h) for tag in DB_TAGS}
        for i, h in enumerate([2, 4, 6, 8, 9])
    }
    rhos = per_bin_rhos(cohort_of(reports))
    assert rhos[0] == 1.0
    assert rhos[1:] == [None] * 5  # empty bins are absent


def test_per_bin_rho_constant_bin_is_absent():
    reports = {f"a{i}": {tag: report_for(7) for tag in DB_TAGS} for i in range(4)}
    rhos = per_bin_rhos(cohort_of(reports))
    assert rhos[0] is None


def test_per_bin_rho_drops_when_low_bins_get_weights():
    # dominant top papers reorder the low bin only
    low = {
        "a0": {tag: report_for(3, k=3) for tag in DB_TAGS},  # h_c = 6
        "a1": {tag: report_for(5, k=0) for tag in DB_TAGS},  # h_c = 5
        "a2": {tag: report_for(7, k=0) for tag in DB_TAGS},
        "a3": {tag: report_for(9, k=2) for tag in DB_TAGS},  # h_c = 11
    }
    high = {
        f"b{i}": {tag: report_for(h) for tag in DB_TAGS}
        for i, h in enumerate([32, 35, 38])
    }
    rhos = per_bin_rhos(cohort_of({**low, **high}))
    pairs = [(3, 6), (5, 5), (7, 7), (9, 11)]
    assert rhos[0] == pytest.approx(oracle_spearman(pairs), abs=1e-12)
    assert rhos[0] < 1.0
    assert rhos[3] == 1.0


# ---------------------------------------------------------------------------
# diff_sd
# ---------------------------------------------------------------------------

def test_diff_sd_zero_when_databases_agree():
    reports = {
        f"a{i}": {tag: report_for(h) for tag in DB_TAGS}
        for i, h in enumerate([3, 9, 14])
    }
    assert diff_sd(cohort_of(reports), "h") == 0.0


def test_diff_sd_plus_minus_one():
    reports = {
        "a0": {"scopus": report_for(5), "wos": report_for(4)},  # diff +1
        "a1": {"scopus": report_for(4), "wos": report_for(5)},  # diff -1
    }
    assert diff_sd(cohort_of(reports), "h") == math.sqrt(2)


def test_diff_sd_degenerate():
    reports = {"a0": {tag: report_for(5) for tag in DB_TAGS}}
    assert diff_sd(cohort_of(reports), "h") is None


def test_diff_sd_matches_two_pass_oracle_and_invariances():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(2, 30)
        reports = {}
        for i in range(n):
            hs, hw = rng.randint(0, 40), rng.randint(0, 40)
            reports[f"a{i:02d}"] = {
                "scopus": report_for(hs),
                "wos": report_for(hw),
            }
        cohort = cohort_of(reports)
        diffs = [
            r["scopus"].h - r["wos"].h for r in (reports[k] for k in sorted(reports))
        ]
        if len(set(diffs)) == 1:
            assert diff_sd(cohort, "h") == 0.0
            continue
        assert diff_sd(cohort, "h") == pytest.approx(
            oracle_two_pass_sd(diffs), abs=1e-12
        )
        swapped = cohort_of(reports, ("wos", "scopus"))
        assert diff_sd(swapped, "h") == pytest.approx(diff_sd(cohort, "h"), abs=1e-12)
        shifted = {
            k: {
                tag: report_for(r[tag].h + 5)
                for tag in DB_TAGS
            }
            for k, r in reports.items()
        }
        assert diff_sd(cohort_of(shifted), "h") == pytest.approx(
            diff_sd(cohort, "h"), abs=1e-12
        )


needs_exact_stdev = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11"
)
huge_ints = st.one_of(st.integers(-5, 5), st.integers(-(10**40), 10**40))


@needs_exact_stdev
@given(
    st.lists(
        st.tuples(st.integers(0, 10**40), st.integers(0, 10**40)), min_size=2, max_size=40
    )
)
def test_diff_sd_equals_statistics_stdev(pairs):
    reports = {
        f"a{i:02d}": {"scopus": report_for(hs), "wos": report_for(hw)}
        for i, (hs, hw) in enumerate(pairs)
    }
    diffs = [hs - hw for hs, hw in pairs]
    assert diff_sd(cohort_of(reports), "h") == statistics.stdev(diffs)


# ---------------------------------------------------------------------------
# density_series
# ---------------------------------------------------------------------------

def test_density_single_bin():
    assert density_series([1, 1, 1], 1) == [(1.5, 1.0)]


def test_density_two_sparse_bins():
    assert density_series([0, 10], 10) == [(5.0, 0.05), (15.0, 0.05)]


def test_density_interior_gap_bins_are_zero():
    series = density_series([0, 21], 10)
    assert [x for x, _ in series] == [5.0, 15.0, 25.0]
    assert series[1][1] == 0.0


def test_density_errors():
    with pytest.raises(DegenerateInput):
        density_series([], 5)
    with pytest.raises(ValueError):
        density_series([1], 0)


@given(
    st.lists(st.integers(0, 500), min_size=1, max_size=500),
    st.integers(min_value=1, max_value=25),
)
def test_density_total_mass_is_one(values, width):
    series = density_series(values, width)
    assert abs(sum(d for _, d in series) * width - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# stats_summary
# ---------------------------------------------------------------------------

def test_stats_of_no_values_raise():
    with pytest.raises(DegenerateInput, match="^no values to summarize$"):
        stats_summary([])


def test_stats_single_value_degenerate():
    summary = stats_summary([4])
    assert (summary.minimum, summary.maximum, summary.median, summary.mean) == (
        4,
        4,
        4.0,
        4.0,
    )
    assert summary.sd == 0.0


def test_stats_even_median():
    assert stats_summary([1, 2, 3, 4]).median == 2.5


@given(st.lists(st.integers(0, 300), min_size=2, max_size=200))
def test_stats_match_direct_formulas(values):
    summary = stats_summary(values)
    assert summary.minimum == min(values)
    assert summary.maximum == max(values)
    assert summary.mean == pytest.approx(sum(values) / len(values), abs=1e-9)
    assert summary.median == pytest.approx(statistics.median(values), abs=0)
    assert summary.sd == pytest.approx(oracle_two_pass_sd(values), abs=1e-9)
    assert (summary.sd == 0.0) == (min(values) == max(values))


@needs_exact_stdev
@given(st.lists(huge_ints, min_size=1, max_size=60))
def test_stats_equal_statistics_module(values):
    summary = stats_summary(values)
    assert summary.mean == float(statistics.mean(values))
    assert summary.median == float(statistics.median(values))
    assert summary.sd == (statistics.stdev(values) if len(values) > 1 else 0.0)


# ---------------------------------------------------------------------------
# cohort assembly
# ---------------------------------------------------------------------------

def test_build_cohort_keeps_given_author_order():
    reports = {
        "a1": {"scopus": report_for(5), "wos": report_for(8)},
        "a2": {"scopus": report_for(7, k=2), "wos": report_for(7)},
        "a0": {"scopus": report_for(10), "wos": report_for(2)},
    }
    cohort = cohort_of(reports)
    assert cohort.keys == ("a1", "a2", "a0")
    for tag in DB_TAGS:
        assert cohort.reports[tag] == tuple(r[tag] for r in reports.values())
    with pytest.raises(DegenerateInput):
        cohort_of({})


def test_build_cohort_needs_one_full_column_per_database():
    reports = {"scopus": (report_for(5), report_for(6)), "wos": (report_for(2), report_for(3))}
    assert build_cohort("physics", ("a0", "a1"), reports, DB_TAGS).reports is reports
    with pytest.raises(ValueError):
        build_cohort("physics", ("a0", "a1"), {**reports, "wos": (report_for(2),)}, DB_TAGS)
    with pytest.raises(ValueError):
        build_cohort("physics", ("a0", "a1", "a2"), reports, DB_TAGS)
    for tags in (("scopus", "lens"), ("wos", "lens")):
        with pytest.raises(ValueError):
            build_cohort("physics", ("a0", "a1"), reports, tags)
    with pytest.raises(ValueError):
        build_cohort("physics", ("a0", "a1"), {"scopus": reports["scopus"]}, DB_TAGS)
    with pytest.raises(ValueError):
        build_cohort("physics", ("a0", "a1"), {**reports, "lens": reports["wos"]}, DB_TAGS)


def test_cohort_from_profiles_computes_reports():
    def pubs(author, counts):
        return {f"10.1/{author}.{i}": c for i, c in enumerate(counts)}

    profiles = [
        AuthorProfile(
            "a0",
            "physics",
            {
                "scopus": pubs("a0", [15, 13, 10, 7, 3, 2, 1, 1, 1, 0]),
                "wos": pubs("a0", [10]),
            },
        ),
        AuthorProfile(
            "a1",
            "physics",
            {"scopus": pubs("a1", [65, 9, 8, 7, 5, 5, 2, 2, 1, 0]), "wos": {}},
        ),
        AuthorProfile("b0", "biology", {"scopus": {}, "wos": {}}),
    ]
    cohort = cohort_from_profiles(profiles, "physics", DB_TAGS)
    assert cohort.keys == ("a0", "a1")
    by_key = {tag: dict(zip(cohort.keys, cohort.reports[tag])) for tag in DB_TAGS}
    assert by_key["scopus"]["a0"].h == 4
    assert by_key["scopus"]["a1"].h_c == 7
    assert by_key["wos"]["a1"] == compute_hc(CitationProfile(()))
    with pytest.raises(DegenerateInput):
        cohort_from_profiles(profiles, "chemistry", DB_TAGS)


def test_value_monotonicity_h_to_hc():
    rng = random.Random(5)
    for _ in range(50):
        counts = tuple(rng.randint(0, 500) for _ in range(rng.randint(1, 30)))
        report = compute_hc(CitationProfile(counts))
        assert report.h_c >= report.h
