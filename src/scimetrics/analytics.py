"""Cohort analytics: rankings, bins, rank correlation, deviation, density.

Everything here is a pure function over immutable inputs; all outputs are
deterministic and schedule-independent, so per-discipline work can run in
parallel safely.

Index values are integers, so the statistics are computed from exact
integer sums: a mean or median is one correctly rounded int/int division,
a sample sd is the correctly rounded square root of the exact variance,
and Spearman's rho is formed from integer sums of doubled, centred ranks.
The results do not depend on the interpreter's ``statistics`` module.
"""

from __future__ import annotations

import math
import operator
import sys
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
    for v, c in Counter(values).items():
        counts[bins.index_of(v)] += c
    n = len(values)
    return BinnedCounts(
        bins=bins,
        counts=tuple(counts),
        proportions=tuple(c / n for c in counts),
    )


def _centred_ranks(values: Sequence[float]) -> list[int]:
    """Doubled centred fractional ranks, ``2 * rank - (n + 1)``, as exact ints.

    Tied values share the average of their positions, so a value with
    ``below`` smaller values and ``count`` copies gets
    ``2 * below + count - n``.
    """
    n = len(values)
    counts = Counter(values)
    code = {}
    acc = -n  # 2 * (count below v) - n
    for v in sorted(counts):
        c = counts[v]
        code[v] = acc + c
        acc += 2 * c
    return [code[v] for v in values]


def fractional_ranks(values: Sequence[float]) -> list[float]:
    """Ascending ranks 1..n; tied values share the average of their positions."""
    n1 = len(values) + 1
    return [(d + n1) / 2 for d in _centred_ranks(values)]


def spearman_rho(pairs: Sequence[tuple[float, float]]) -> float:
    """Rank correlation with fractional (average) ranks for ties.

    Raises DegenerateInput for fewer than two pairs or a constant
    variable; such cells are reported as absent rather than as a number.
    """
    if len(pairs) < 2:
        raise DegenerateInput("need at least two pairs")
    # Doubled centred ranks are exact ints, so the sums below are exact and
    # perfect agreement yields exactly +-1.
    dx = _centred_ranks([p[0] for p in pairs])
    dy = _centred_ranks([p[1] for p in pairs])
    sxx = sum(map(operator.mul, dx, dx))
    syy = sum(map(operator.mul, dy, dy))
    if not sxx or not syy:  # every centred rank of a constant variable is 0
        raise DegenerateInput("constant variable")
    sxy = sum(map(operator.mul, dx, dy))
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
    reports = [row.reports[db] for row in cohort.rows]
    bin_of = {h: bins.index_of(h) for h in {r.h for r in reports}}
    per_bin: list[list[tuple[int, int]]] = [[] for _ in bins.bounds]
    for r in reports:
        per_bin[bin_of[r.h]].append((r.h, r.h_c))
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
    return _sample_sd(diffs)


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
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    degenerate = n < 2
    return StatsSummary(
        minimum=ordered[0],
        maximum=ordered[-1],
        median=float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2,
        mean=sum(ordered) / n,
        sd=0.0 if degenerate else _sample_sd(ordered),
        degenerate=degenerate,
    )


# Bits kept in the scaled variance: its integer root then has two bits more
# than a double, and rounding that round-to-odd root to a double rounds the
# exact root correctly.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sample_sd(values: Sequence[int]) -> float:
    """Sample sd (n-1 denominator) of two or more ints, correctly rounded.

    The variance is the exact rational ``(n*sum(v^2) - sum(v)^2) / (n(n-1))``,
    scaled by a power of four to ``_SQRT_BITS`` bits; its root is taken in
    integers with round-to-odd, then rounded once to a float.
    """
    n = len(values)
    total = sum(values)
    num = n * sum(map(operator.mul, values, values)) - total * total
    den = n * (n - 1)
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: an inexact root gets the low bit
    return float(root << q) if q >= 0 else root / (1 << -q)
