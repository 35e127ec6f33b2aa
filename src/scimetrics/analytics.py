"""Cohort analytics: rankings, bins, rank correlation, deviation, density.

Everything here is a pure function over immutable inputs; all outputs are
deterministic and schedule-independent, so per-discipline work can run in
parallel safely.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Callable, NamedTuple, Sequence

from .errors import DegenerateInput
from .indices import IndexReport

RANK_KEYS: dict[str, Callable[[IndexReport], int]] = {
    "h": lambda r: r.h,
    "g": lambda r: r.g,
    "h_c": lambda r: r.h_c,
}


class _BinSpec(NamedTuple):
    bounds: tuple[tuple[int, int | None], ...]


class BinSpec(_BinSpec):
    """Ordered closed integer intervals covering all non-negative values.

    The last interval is open-ended (upper bound None). Consecutive
    intervals must tile 0..inf with no gap or overlap.
    """

    __slots__ = ()

    def __new__(cls, bounds: tuple[tuple[int, int | None], ...]) -> "BinSpec":
        if not bounds:
            raise ValueError("at least one bin required")
        expected_lo = 0
        for i, (lo, hi) in enumerate(bounds):
            last = i == len(bounds) - 1
            if lo != expected_lo:
                raise ValueError(f"bin {i} must start at {expected_lo}, got {lo}")
            if last:
                if hi is not None:
                    raise ValueError("last bin must be open-ended")
            else:
                if hi is None or hi < lo:
                    raise ValueError(f"bin {i} has invalid upper bound {hi}")
                expected_lo = hi + 1
        return super().__new__(cls, bounds)

    @classmethod
    def parse(cls, text: str) -> "BinSpec":
        """Parse ``"0-10,11-20,...,51+"`` (a bare ``lo-`` also means open)."""
        bounds = []
        for part in text.split(","):
            part = part.strip()
            if part.endswith("+") or part.endswith("-"):
                bounds.append((int(part[:-1]), None))
            elif "-" in part:
                lo, hi = part.split("-", 1)
                bounds.append((int(lo), int(hi)))
            else:
                raise ValueError(f"cannot parse bin {part!r}")
        return cls(tuple(bounds))

    def labels(self) -> list[str]:
        return [
            f"{lo}+" if hi is None else f"{lo}-{hi}" for lo, hi in self.bounds
        ]

    def index_of(self, value: int) -> int:
        if value < 0:
            raise ValueError("bins cover non-negative values only")
        for i, (lo, hi) in enumerate(self.bounds):
            if value >= lo and (hi is None or value <= hi):
                return i
        raise AssertionError("bins tile all non-negative integers")


DEFAULT_BINS = BinSpec(((0, 10), (11, 20), (21, 30), (31, 40), (41, 50), (51, None)))


class RankedAuthor(NamedTuple):
    rank: int
    author_key: str
    report: IndexReport


class CohortRow(NamedTuple):
    """One author of a discipline with a report per database."""

    author_key: str
    reports: dict[str, IndexReport]


class CohortTable(NamedTuple):
    discipline: str
    db_tags: tuple[str, str]
    rows: tuple[CohortRow, ...]


class BinnedCounts(NamedTuple):
    bins: BinSpec
    counts: tuple[int, ...]
    proportions: tuple[float, ...]


class StatsSummary(NamedTuple):
    """Five-number summary; sd uses the n-1 denominator.

    For a single value the sd is reported as 0.0 with degenerate=True.
    """

    minimum: int
    maximum: int
    median: float
    mean: float
    sd: float
    degenerate: bool = False


def rank_authors(
    cohort: Sequence[tuple[str, IndexReport]], key: str
) -> list[RankedAuthor]:
    """Ordinal ranks 1..N, best first, under a deterministic total order.

    Sorts descending by the chosen index; ties broken by higher top-paper
    citations, then by ascending author key.
    """
    if not cohort:
        raise DegenerateInput("cannot rank an empty cohort")
    value = RANK_KEYS[key]
    ordered = sorted(
        cohort, key=lambda item: (-value(item[1]), -item[1].h_cite, item[0])
    )
    return [
        RankedAuthor(rank=i, author_key=k, report=r)
        for i, (k, r) in enumerate(ordered, 1)
    ]


def build_cohort(
    discipline: str,
    reports_by_author: dict[str, dict[str, IndexReport]],
    db_tags: tuple[str, str],
) -> CohortTable:
    """Assemble a discipline cohort, rows ordered by the first database's h rank.

    That order is the convention used when plotting the second database
    against the first.
    """
    lead = db_tags[0]
    ranked = rank_authors(
        [(author, dbs[lead]) for author, dbs in reports_by_author.items()], "h"
    )
    rows = tuple(
        CohortRow(author_key=ra.author_key, reports=dict(reports_by_author[ra.author_key]))
        for ra in ranked
    )
    return CohortTable(discipline=discipline, db_tags=db_tags, rows=rows)


def bin_proportions(values: Sequence[int], bins: BinSpec) -> BinnedCounts:
    """Counts and fractions of values per bin; fractions sum to 1."""
    if not values:
        raise DegenerateInput("no values to bin")
    counts = [0] * len(bins.bounds)
    for v in values:
        counts[bins.index_of(v)] += 1
    n = len(values)
    return BinnedCounts(
        bins=bins,
        counts=tuple(counts),
        proportions=tuple(c / n for c in counts),
    )


def fractional_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks 1..n; tied values share the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2  # positions are i+1 .. j+1
        for idx in order[i : j + 1]:
            ranks[idx] = mean_rank
        i = j + 1
    return ranks


def spearman_rho(pairs: Sequence[tuple[float, float]]) -> float:
    """Rank correlation with fractional (average) ranks for ties.

    Raises DegenerateInput for fewer than two pairs or a constant
    variable; such cells are reported as absent rather than as a number.
    """
    if len(pairs) < 2:
        raise DegenerateInput("need at least two pairs")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise DegenerateInput("constant variable")
    n = len(pairs)
    # Fractional ranks are halves, so doubled centered ranks are exact ints;
    # the sums below are then exact and perfect agreement yields exactly +-1.
    dx = [round(2 * r) - (n + 1) for r in fractional_ranks(xs)]
    dy = [round(2 * r) - (n + 1) for r in fractional_ranks(ys)]
    sxy = sum(a * b for a, b in zip(dx, dy))
    sxx = sum(a * a for a in dx)
    syy = sum(b * b for b in dy)
    if sxy * sxy == sxx * syy:
        return 1.0 if sxy > 0 else -1.0
    return sxy / math.sqrt(sxx * syy)


def per_bin_correlation(
    cohort: CohortTable, bins: BinSpec, db: str
) -> list[float | None]:
    """Spearman rho between h and h_c inside each h-bin of one database.

    Bins with fewer than two authors, or with a constant variable, yield
    None (rendered as "-" in reports).
    """
    per_bin: list[list[tuple[int, int]]] = [[] for _ in bins.bounds]
    for row in cohort.rows:
        r = row.reports[db]
        per_bin[bins.index_of(r.h)].append((r.h, r.h_c))
    out: list[float | None] = []
    for pairs in per_bin:
        try:
            out.append(spearman_rho(pairs))
        except DegenerateInput:
            out.append(None)
    return out


def diff_sd(cohort: CohortTable, key: str) -> float:
    """Sample standard deviation of per-author cross-database differences.

    The difference is key(first db) - key(second db) per author; the sd
    uses the n-1 denominator. Raises DegenerateInput for cohorts below
    two authors.
    """
    if len(cohort.rows) < 2:
        raise DegenerateInput(
            f"need at least two authors in {cohort.discipline!r} for a deviation"
        )
    a, b = cohort.db_tags
    value = RANK_KEYS[key]
    diffs = [value(row.reports[a]) - value(row.reports[b]) for row in cohort.rows]
    return statistics.stdev(diffs)


def density_series(
    values: Sequence[int], bin_width: int
) -> list[tuple[float, float]]:
    """Normalized histogram over fixed-width bins: (bin center, density).

    density = count / (N * bin_width), so total mass is exactly 1. Bins
    run contiguously from the first to the last occupied bin.
    """
    if not values:
        raise DegenerateInput("no values for a density")
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
    counts = Counter(v // bin_width for v in values)
    lo, hi = min(counts), max(counts)
    n = len(values)
    return [
        (b * bin_width + bin_width / 2, counts.get(b, 0) / (n * bin_width))
        for b in range(lo, hi + 1)
    ]


def stats_summary(values: Sequence[int]) -> StatsSummary:
    """Min, max, median, mean and sample sd of a cohort's index values."""
    if not values:
        raise DegenerateInput("no values to summarize")
    degenerate = len(values) < 2
    return StatsSummary(
        minimum=min(values),
        maximum=max(values),
        median=float(statistics.median(values)),
        mean=float(statistics.mean(values)),
        sd=0.0 if degenerate else statistics.stdev(values),
        degenerate=degenerate,
    )
