"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS line on success; a failing criterion shows up
as a failing test. Run with ``pytest -sv tests/test_acceptance.py`` to
see the lines. The suite is self-contained: the oracles are transcribed
directly from the definitions here, independent of the implementations
they check.
"""

import math
import random
import time
from collections import defaultdict
from pathlib import Path

from scimetrics.analytics import (
    DEFAULT_BINS,
    cohort_from_profiles,
    density_series,
    per_bin_correlation,
    spearman_rho,
)
from scimetrics.cli import main
from scimetrics.crossdb import classify_overlap, overlap_proportions
from scimetrics.indices import (
    CitationProfile,
    compute_g,
    compute_h,
    compute_h_cite,
    compute_hc,
    compute_weight_k,
)
from scimetrics.ingest import AuthorProfile
from scimetrics.reports import read_csv

ROOT = Path(__file__).parent.parent
SYNTHETIC = Path(__file__).parent / "data" / "synthetic"
DB_TAGS = ("scopus", "wos")

CASE1 = (15, 13, 10, 7, 3, 2, 1, 1, 1, 0)
CASE2 = (65, 9, 8, 7, 5, 5, 2, 2, 1, 0)
CASE3 = (205, 150, 85, 40, 25, 5, 4, 4, 2, 1)


def ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_h(counts):
    best = 0
    for h in range(len(counts) + 1):
        if sum(1 for c in counts if c >= h) >= h:
            best = h
    return best


def oracle_g(counts):
    ordered = sorted(counts, reverse=True)
    total = sum(ordered)
    best = 0
    for g in range(math.isqrt(total) + 2):
        if sum(ordered[:g]) >= g * g:
            best = g
    return best


def oracle_k(h, h_cite):
    if h <= 1:
        return 0
    best = 0
    for i in range(2, h_cite.bit_length() + 2):
        if h**i < h_cite:
            best = i
    return best


def oracle_ranks(values):
    positions = defaultdict(list)
    for pos, v in enumerate(sorted(values), 1):
        positions[v].append(pos)
    return [sum(positions[v]) / len(positions[v]) for v in values]


def oracle_spearman(pairs):
    rx = oracle_ranks([p[0] for p in pairs])
    ry = oracle_ranks([p[1] for p in pairs])
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


def random_corpus():
    rng = random.Random(20260810)
    return [
        tuple(rng.randint(0, 10_000) for _ in range(rng.randint(0, 50)))
        for _ in range(1000)
    ], rng


# ---------------------------------------------------------------------------
# Criterion 1: golden demonstration profiles, exact, under a millisecond
# ---------------------------------------------------------------------------

def test_c1_golden_profiles_exact_and_fast():
    profiles = [CitationProfile(c) for c in (CASE1, CASE2, CASE3)]
    compute_hc(profiles[0])  # warm-up
    elapsed = min(
        _timed(lambda: [compute_hc(p) for p in profiles]) for _ in range(5)
    )
    reports = [compute_hc(p) for p in profiles]
    expected = [(4, 15, 0, 4), (5, 65, 2, 7), (5, 205, 3, 8)]
    got = [(r.h, r.h_cite, r.k, r.h_c) for r in reports]
    assert got == expected
    assert elapsed < 0.001, f"golden cases took {elapsed * 1000:.3f} ms"
    ok("1", f"three golden profiles exact in {elapsed * 1e6:.0f} us")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence on 1000 random profiles in under 5 s
# ---------------------------------------------------------------------------

def test_c2_oracle_equivalence_on_random_corpus():
    corpus, _ = random_corpus()
    start = time.perf_counter()
    for counts in corpus:
        profile = CitationProfile(counts)
        h = compute_h(profile)
        h_cite = compute_h_cite(profile)
        assert h == oracle_h(counts)
        assert compute_g(profile) == oracle_g(counts)
        assert compute_weight_k(h, h_cite) == oracle_k(h, h_cite)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"corpus check took {elapsed:.2f} s"
    ok("2", f"h, g, k match brute-force oracles on 1000 profiles in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# Criterion 3: invariant suite on the same corpus
# ---------------------------------------------------------------------------

def test_c3_invariants_on_random_corpus():
    corpus, rng = random_corpus()
    for counts in corpus:
        report = compute_hc(CitationProfile(counts))
        assert report.g >= report.h
        assert report.h_c >= report.h
        assert report.k == 0 or report.k >= 2
        if report.h <= 1 or report.h**2 >= report.h_cite:
            assert report.k == 0

        shuffled = list(counts)
        rng.shuffle(shuffled)
        assert compute_hc(CitationProfile(tuple(shuffled))) == report

        if counts:
            bumped = list(counts)
            bumped[rng.randrange(len(bumped))] += 1
            after = compute_hc(CitationProfile(tuple(bumped)))
            assert after.h >= report.h
            assert after.g >= report.g
            assert after.h_cite >= report.h_cite
        appended = compute_hc(CitationProfile(counts + (rng.randint(0, 10_000),)))
        assert appended.h >= report.h
        assert appended.g >= report.g
    ok("3", "g>=h, h_c>=h, k domain, permutation and monotonicity invariants hold")


# ---------------------------------------------------------------------------
# Criterion 4: Spearman exactness and tie handling
# ---------------------------------------------------------------------------

def test_c4_spearman_exact_and_tied():
    rng = random.Random(41)
    for n in (2, 3, 10, 57):
        xs = sorted(rng.sample(range(10_000), n))
        ys = [x * 3 + 7 for x in xs]
        assert spearman_rho(list(zip(xs, ys))) == 1.0
        assert spearman_rho(list(zip(xs, ys[::-1]))) == -1.0

    checked = 0
    while checked < 100:
        n = rng.randint(2, 60)
        xs = [rng.randint(0, 9) for _ in range(n)]
        ys = [rng.randint(0, 9) for _ in range(n)]
        if min(xs) == max(xs) or min(ys) == max(ys):
            continue
        pairs = list(zip(xs, ys))
        assert abs(spearman_rho(pairs) - oracle_spearman(pairs)) < 1e-12
        checked += 1
    ok("4", "rho exactly +-1 on monotone data; 100 tied datasets within 1e-12")


# ---------------------------------------------------------------------------
# Criterion 5: reconciliation partition law on random fixtures
# ---------------------------------------------------------------------------

def _random_two_db_profiles(rng):
    profiles = []
    for a in range(rng.randint(1, 10)):
        per_db = {}
        for tag in DB_TAGS:
            pubs = per_db[tag] = {}
            for _ in range(rng.randint(0, 15)):
                doi = f"10.1/d{rng.randrange(40)}"
                citations = rng.randrange(30)
                pubs[doi] = max(citations, pubs.get(doi, -1))
        profiles.append(AuthorProfile(f"a{a}", "synthetic", per_db))
    return profiles


def test_c5_partition_law_on_random_fixtures():
    rng = random.Random(52)
    checked_proportions = 0
    for _ in range(150):
        profiles = _random_two_db_profiles(rng)
        report = classify_overlap(profiles, DB_TAGS)
        union = report.common_pubs + sum(
            s.unique_pubs for s in report.per_db.values()
        )
        for tag in DB_TAGS:
            stats = report.per_db[tag]
            assert stats.total_pubs == report.common_pubs + stats.unique_pubs
        if union == 0:
            continue
        props = overlap_proportions(report)
        total = props.common_share + sum(props.unique_shares.values())
        assert abs(total - 1.0) < 1e-12
        checked_proportions += 1
    assert checked_proportions >= 100
    ok("5", f"total = common + unique per db on 150 fixtures; "
            f"{checked_proportions} proportion sums within 1e-12")


# ---------------------------------------------------------------------------
# Criterion 6: end-to-end determinism of the CLI on the frozen fixture
# ---------------------------------------------------------------------------

def test_c6_full_pipeline_byte_identical(tmp_path):
    roster_rows = read_csv(SYNTHETIC / "roster.csv")[1]
    disciplines = {row[4] for row in roster_rows}
    assert len(disciplines) >= 5 and len(roster_rows) >= 50

    def run_all(out_dir):
        base = [
            "--records", f"{SYNTHETIC}/records_scopus.csv@scopus",
            "--records", f"{SYNTHETIC}/records_wos.csv@wos",
            "--roster", f"{SYNTHETIC}/roster.csv",
            "--out", str(out_dir),
        ]
        for command in ("index", "overlap", "rank", "bins", "corr", "deviation", "density"):
            assert main([command, *base]) == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_all(out_a)
    run_all(out_b)
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    ok("6", f"two runs produced byte-identical output ({len(names)} files)")


# ---------------------------------------------------------------------------
# Criterion 7: qualitative pattern when low-h authors hold a dominant paper
# ---------------------------------------------------------------------------

def _crafted_cohort():
    """Low-h authors partly hold a dominant top paper (top > h**2, so k >= 2);
    every author above h=30 does not, keeping h_c = h there."""
    layout = [
        # (h, top paper citations); dominant entries marked by top > h**2
        (3, 36),   # k = 3 -> h_c = 6
        (5, 5),    # k = 0
        (6, 40),   # k = 2 -> h_c = 8
        (7, 7),    # k = 0
        (9, 20),   # k = 0
        (10, 10),  # k = 0
        (32, 37), (35, 40), (39, 44),
        (42, 47), (47, 52),
        (52, 57), (60, 65),
    ]
    profiles = []
    for i, (h, top) in enumerate(layout):
        counts = (top,) + (h,) * (h - 1) + (0,)
        pubs = {
            tag: {f"10.1/x{i}.{j}": c for j, c in enumerate(counts)} for tag in DB_TAGS
        }
        profiles.append(AuthorProfile(f"a{i:02d}", "synthetic", pubs))
    return cohort_from_profiles(profiles, "synthetic", DB_TAGS)


def test_c7_low_bin_fluctuation_and_right_shift():
    cohort = _crafted_cohort()
    rhos = per_bin_correlation(cohort, DEFAULT_BINS, "scopus")
    labels = DEFAULT_BINS.labels()
    low = rhos[labels.index("0-10")]
    assert low is not None and low < 1.0
    for label in ("31-40", "41-50", "51+"):
        high = rhos[labels.index(label)]
        assert high is not None
        assert low < high, f"rho in 0-10 ({low}) not below {label} ({high})"

    # density of h_c vs h: differences confined to low values, mass moved right
    h_values = [row.reports["scopus"].h for row in cohort.rows]
    hc_values = [row.reports["scopus"].h_c for row in cohort.rows]
    for h, hc in zip(h_values, hc_values):
        if h > 30:
            assert hc == h  # no shift at all in high bins

    width = 5
    dens_h = dict(density_series(h_values, width))
    dens_hc = dict(density_series(hc_values, width))
    centers = sorted(set(dens_h) | set(dens_hc))
    running = 0.0
    shifted_centers = []
    for x in centers:
        delta = dens_hc.get(x, 0.0) - dens_h.get(x, 0.0)
        if delta:
            shifted_centers.append(x)
        running += delta
        assert running <= 1e-12, "h_c mass may only move right, never left"
    assert abs(running) < 1e-12  # both densities carry total mass 1
    assert shifted_centers, "the dominant papers must shift some mass"
    assert all(x < 30 for x in shifted_centers), "shift must stay in low bins"
    ok("7", f"rho(0-10)={low:.3f} < 1.0 = rho(h>30); density shift confined to "
            f"centers {shifted_centers}")


# ---------------------------------------------------------------------------
# Criterion 8: report shapes and the non-reproducibility statement
# ---------------------------------------------------------------------------

def test_c8_report_shapes_and_statement(tmp_path):
    base = [
        "--records", f"{SYNTHETIC}/records_scopus.csv@scopus",
        "--records", f"{SYNTHETIC}/records_wos.csv@wos",
        "--roster", f"{SYNTHETIC}/roster.csv",
        "--out", str(tmp_path),
    ]
    for command in ("overlap", "bins", "corr"):
        assert main([command, *base]) == 0

    overlap_header, _ = read_csv(tmp_path / "overlap.csv")
    assert overlap_header == [
        "discipline",
        "author_count",
        "db",
        "total_pubs",
        "unique_pubs",
        "pubs_received_citations",
        "total_citations",
        "common_pubs",
    ]

    labels = ("0-10", "11-20", "21-30", "31-40", "41-50", "51+")
    bins_header, _ = read_csv(tmp_path / "author_bins.csv")
    assert bins_header == [
        "discipline",
        "db",
        *[f"{prefix}_{label}" for label in labels for prefix in ("h", "hc")],
    ]

    corr_header, _ = read_csv(tmp_path / "rank_correlation.csv")
    assert corr_header == ["discipline", "db", *labels]

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "proprietary" in readme, (
        "README must state that author-level Scopus/WoS data is proprietary"
        " and database-specific published numbers are not reproduced here"
    )
    assert "synthetic" in readme
    ok("8", "overlap/bins/correlation layouts conform; README carries the"
            " non-reproducibility statement")
