"""Index computations against definitional brute-force oracles."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scimetrics.indices import (
    CitationProfile,
    IndexReport,
    compute_g,
    compute_h,
    compute_h_cite,
    compute_hc,
    compute_weight_k,
)

profiles = st.lists(st.integers(min_value=0, max_value=10_000), max_size=50).map(
    lambda counts: CitationProfile(tuple(counts))
)


# ---------------------------------------------------------------------------
# Oracles: direct transcriptions of the definitions, independent of the
# implementations they check.
# ---------------------------------------------------------------------------

def oracle_h(counts):
    """Largest h in 0..N such that at least h counts are >= h."""
    best = 0
    for h in range(len(counts) + 1):
        if sum(1 for c in counts if c >= h) >= h:
            best = h
    return best


def oracle_g(counts):
    """Largest g with top-g sum >= g^2, zero-padded beyond the paper count."""
    ordered = sorted(counts, reverse=True)
    total = sum(ordered)
    best = 0
    for g in range(math.isqrt(total) + 2):
        if sum(ordered[:g]) >= g * g:
            best = g
    return best


def oracle_k(h, h_cite):
    """Exhaustive scan for the largest exponent >= 2 with h**k < h_cite."""
    if h <= 1:
        return 0
    best = 0
    bound = h_cite.bit_length() + 2  # h >= 2, so h**i >= 2**i passes h_cite here
    for i in range(2, bound):
        if h**i < h_cite:
            best = i
    return best


# ---------------------------------------------------------------------------
# Golden demonstration cases
# ---------------------------------------------------------------------------

def test_golden_case_reports(golden_profiles):
    r1 = compute_hc(golden_profiles["case1"])
    assert (r1.h, r1.h_cite, r1.k, r1.h_c) == (4, 15, 0, 4)
    r2 = compute_hc(golden_profiles["case2"])
    assert (r2.h, r2.h_cite, r2.k, r2.h_c) == (5, 65, 2, 7)
    r3 = compute_hc(golden_profiles["case3"])
    assert (r3.h, r3.h_cite, r3.k, r3.h_c) == (5, 205, 3, 8)


def test_golden_g_values(golden_profiles):
    # cumulative sums: cum(7)=51 >= 49 while cum(8)=52 < 64
    assert compute_g(golden_profiles["case1"]) == 7
    for profile in golden_profiles.values():
        assert compute_g(profile) == oracle_g(profile.citations)


@pytest.mark.parametrize(
    "h, h_cite, expected",
    [
        (4, 15, 0),   # 4**2 = 16 is not below 15
        (5, 65, 2),
        (5, 205, 3),
        (1, 100, 0),  # guard: an unguarded scan would never terminate
        (0, 50, 0),
        (2, 4, 0),    # h**2 == h_cite leaves the condition false immediately
        (2, 5, 2),
    ],
)
def test_weight_k_cases(h, h_cite, expected):
    assert compute_weight_k(h, h_cite) == expected


def test_weight_k_huge_top_paper():
    # deep exponent scans stay exact thanks to unbounded ints
    assert compute_weight_k(2, 2**40 + 1) == 40


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_empty_profile():
    empty = CitationProfile(())
    assert compute_h(empty) == 0
    assert compute_g(empty) == 0
    assert compute_h_cite(empty) == 0
    assert compute_hc(empty) == IndexReport(h=0, g=0, h_cite=0, k=0, h_c=0)


def test_all_zero_profile():
    zeros = CitationProfile((0, 0, 0, 0, 0))
    assert compute_h(zeros) == 0
    assert compute_g(zeros) == 0
    assert compute_h_cite(zeros) == 0


def test_g_exceeds_paper_count_with_padding():
    # one paper, ten citations: cum(3)=10 >= 9 but cum(4)=10 < 16
    assert compute_g(CitationProfile((10,))) == 3


def test_profile_sorts_any_input_order():
    assert CitationProfile((3, 15, 0)).citations == (15, 3, 0)


def test_g_of_huge_single_paper_is_fast():
    start = time.perf_counter()
    assert compute_g(CitationProfile((10**30,))) == 10**15
    assert time.perf_counter() - start < 0.5


def scan_g(counts):
    """The isqrt(total)-step scan compute_g replaced, kept as a reference."""
    citations = sorted(counts, reverse=True)
    running = 0
    g = 0
    for i in range(1, math.isqrt(sum(citations)) + 1):
        running += citations[i - 1] if i <= len(citations) else 0
        if running >= i * i:
            g = i
    return g


@given(st.lists(st.integers(min_value=0, max_value=300), max_size=30))
def test_g_matches_full_scan(counts):
    assert compute_g(CitationProfile(tuple(counts))) == scan_g(counts)


def test_profile_rejects_negative_counts():
    with pytest.raises(ValueError):
        CitationProfile((3, -1))


@pytest.mark.parametrize("field", range(5))
def test_report_rejects_a_negative_field(field):
    values = [0] * 5
    values[field] = -1
    with pytest.raises(ValueError, match="^indices must be non-negative$"):
        IndexReport(*values)


def test_report_validates_consistency():
    with pytest.raises(ValueError):
        IndexReport(h=5, g=6, h_cite=30, k=2, h_c=6)  # h_c != h + k
    with pytest.raises(ValueError):
        IndexReport(h=5, g=6, h_cite=30, k=1, h_c=6)  # k = 1 never occurs
    with pytest.raises(ValueError):
        IndexReport(h=5, g=4, h_cite=30, k=0, h_c=5)  # g below h
    with pytest.raises(ValueError):
        IndexReport(h=1, g=1, h_cite=0, k=0, h_c=1)  # top paper below h = 1


# ---------------------------------------------------------------------------
# Oracle equivalence and invariants on random profiles
# ---------------------------------------------------------------------------

@given(profiles)
def test_h_matches_oracle(profile):
    assert compute_h(profile) == oracle_h(profile.citations)


@given(profiles)
def test_g_matches_oracle(profile):
    assert compute_g(profile) == oracle_g(profile.citations)


@given(profiles)
def test_k_matches_oracle(profile):
    h = compute_h(profile)
    h_cite = compute_h_cite(profile)
    assert compute_weight_k(h, h_cite) == oracle_k(h, h_cite)


@given(profiles)
def test_report_invariants(profile):
    report = compute_hc(profile)
    assert report.h_c == report.h + report.k
    assert report.h_c >= report.h
    assert report.g >= report.h
    assert report.k == 0 or report.k >= 2
    if report.h <= 1 or report.h**2 >= report.h_cite:
        assert report.k == 0
    if profile.citations:
        assert report.h_cite >= report.h


@given(profiles)
def test_k_log_bound(profile):
    report = compute_hc(profile)
    if report.h >= 2 and report.h_cite >= 1:
        assert report.k < math.log2(report.h_cite) + 1


@given(profiles, st.randoms(use_true_random=False))
def test_permutation_invariance(profile, rng):
    shuffled = list(profile.citations)
    rng.shuffle(shuffled)
    assert compute_hc(CitationProfile(tuple(shuffled))) == compute_hc(profile)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50),
    st.data(),
)
def test_monotone_under_increment(counts, data):
    idx = data.draw(st.integers(min_value=0, max_value=len(counts) - 1))
    before = compute_hc(CitationProfile(tuple(counts)))
    bumped = list(counts)
    bumped[idx] += 1
    after = compute_hc(CitationProfile(tuple(bumped)))
    assert after.h >= before.h
    assert after.g >= before.g
    assert after.h_cite >= before.h_cite


@given(profiles, st.integers(min_value=0, max_value=10_000))
def test_monotone_under_new_paper(profile, extra):
    before = compute_hc(profile)
    after = compute_hc(CitationProfile(profile.citations + (extra,)))
    assert after.h >= before.h
    assert after.g >= before.g


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_weight_k_never_one(h_cite):
    for h in range(0, 40):
        assert compute_weight_k(h, h_cite) != 1


def test_seeded_corpus_matches_oracles():
    # same corpus shape as the acceptance gate, kept here for fast feedback
    rng = random.Random(0xC17E)
    for _ in range(200):
        counts = tuple(
            rng.randint(0, 10_000) for _ in range(rng.randint(0, 50))
        )
        profile = CitationProfile(counts)
        report = compute_hc(profile)
        assert report.h == oracle_h(counts)
        assert report.g == oracle_g(counts)
        assert report.k == oracle_k(report.h, report.h_cite)
