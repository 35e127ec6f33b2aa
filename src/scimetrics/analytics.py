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
from bisect import bisect_left
from collections import Counter
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import DegenerateInput
from .indices import IndexReport

# Index name -> the getter of that index on an IndexReport.
RANK_KEYS: dict[str, Callable[[IndexReport], int]] = {
    key: attrgetter(key) for key in ("h", "g", "h_c")
}


class BinSpec(NamedTuple):
    """Integer bins tiling all non-negative values, held as each bin's lowest value.

    The lows ascend from 0; bin i holds ``lows[i] <= v < lows[i + 1]``, and
    the last bin is open-ended.
    """

    lows: tuple[int, ...]

    @classmethod
    def parse(cls, text: str) -> "BinSpec":
        """Parse ``"0-10,11-20,...,51+"`` (a bare ``lo-`` also means open).

        Each bound is ASCII digits once whitespace is stripped: no sign, no
        underscore and no other script's digits. Consecutive bins must tile
        0..inf with no gap or overlap, and only the last is open-ended.
        """
        pairs = []
        for part in text.split(","):
            part = part.strip()
            if part.endswith("+") or part.endswith("-"):
                pairs.append((ascii_digits(part[:-1]), None))
            elif "-" in part:
                lo, hi = part.split("-", 1)
                pairs.append((ascii_digits(lo), ascii_digits(hi)))
            else:
                raise ValueError(f"cannot parse bin {part!r}")
        lows = [0]
        for i, (lo, hi) in enumerate(pairs):
            if lo != lows[-1]:
                raise ValueError(f"bin {i} must start at {lows[-1]}, got {lo}")
            if i == len(pairs) - 1:
                if hi is not None:
                    raise ValueError("last bin must be open-ended")
            elif hi is None or hi < lo:
                raise ValueError(f"bin {i} has invalid upper bound {hi}")
            else:
                lows.append(hi + 1)
        return cls(tuple(lows))

    def labels(self) -> list[str]:
        """``lo-hi`` per bin, ``hi`` one below the next bin's low; the last bin is ``lo+``."""
        lows = self.lows
        closed = [f"{lo}-{hi - 1}" for lo, hi in zip(lows, lows[1:])]
        return [*closed, f"{lows[-1]}+"]

    def cuts(self, column: Sequence[int]) -> list[int]:
        """Where each bin starts and ends in an ascending column.

        Bin i holds ``column[cuts[i]:cuts[i + 1]]``; the last cut is ``len(column)``.
        """
        return [0, *(bisect_left(column, lo) for lo in self.lows[1:]), len(column)]


def ascii_digits(text: str) -> int:
    """A whole number written in ASCII digits, once whitespace is stripped."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"bin bound must be ASCII digits, got {text!r}")
    return int(text)


DEFAULT_BINS = BinSpec((0, 11, 21, 31, 41, 51))


class CohortTable(NamedTuple):
    """A scope's authors as columns: ``reports[tag][i]`` is ``keys[i]``'s report in ``tag``."""

    discipline: str
    db_tags: tuple[str, str]
    keys: tuple[str, ...]
    reports: dict[str, tuple[IndexReport, ...]]


class StatsSummary(NamedTuple):
    """Five-number summary; sd uses the n-1 denominator, and is 0.0 for one value."""

    minimum: int
    maximum: int
    median: float
    mean: float
    sd: float


def rank_authors(
    cohort: Sequence[tuple[str, IndexReport]], key: str
) -> list[tuple[str, IndexReport]]:
    """The (author key, report) pairs in rank order, best first: rank = position + 1.

    The order is total and deterministic: descending by the chosen index,
    ties broken by higher top-paper citations, then by ascending author key.
    """
    if not cohort:
        raise DegenerateInput("cannot rank an empty cohort")
    value = RANK_KEYS[key]
    keys, reports = zip(*sorted(cohort, key=itemgetter(0)))
    # Stable sorts, the last tie-break first; a reverse sort keeps ties in order.
    order = sorted(
        range(len(keys)), key=list(map(attrgetter("h_cite"), reports)).__getitem__, reverse=True
    )
    order.sort(key=list(map(value, reports)).__getitem__, reverse=True)
    return list(zip(map(keys.__getitem__, order), map(reports.__getitem__, order)))


def build_cohort(
    discipline: str,
    keys: Sequence[str],
    reports: dict[str, tuple[IndexReport, ...]],
    db_tags: tuple[str, str],
) -> CohortTable:
    """Assemble a discipline cohort from its author keys and one report column per database.

    The authors keep the order given, and the cohort shares the given
    columns. No report reads the author order: each one sorts under a total
    order or is exact over integer sums and counts. Raises DegenerateInput
    for an empty cohort, and ValueError when the columns are not one per
    database of ``db_tags``, each as long as ``keys``.
    """
    if not keys:
        raise DegenerateInput(f"no authors in {discipline!r}")
    if reports.keys() != set(db_tags):
        raise ValueError(f"report columns {sorted(reports)} do not match databases {db_tags}")
    if any(len(column) != len(keys) for column in reports.values()):
        raise ValueError(f"every report column of {discipline!r} needs {len(keys)} reports")
    return CohortTable(discipline, db_tags, tuple(keys), reports)


def bin_proportions(values: Sequence[int], bins: BinSpec) -> tuple[int, ...]:
    """The number of values in each bin, in bin order; they sum to ``len(values)``."""
    if not values:
        raise DegenerateInput("no values to bin")
    cuts = bins.cuts(sorted(values))
    return tuple(map(operator.sub, cuts[1:], cuts))


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
    return list(map(code.__getitem__, values))


def spearman_sums(pairs: Sequence[tuple[float, float]]) -> tuple[int, int, int] | None:
    """``(sxy, sxx, syy)`` over the pairs' doubled centred ranks; rho is ``sxy / sqrt(sxx * syy)``.

    Tied values share their average rank. None for fewer than two pairs or
    a constant variable: such a cell is reported as absent, not as a number.
    """
    if len(pairs) < 2:
        return None
    dx = _centred_ranks(list(map(itemgetter(0), pairs)))
    dy = _centred_ranks(list(map(itemgetter(1), pairs)))
    sxx = sum(map(operator.mul, dx, dx))
    syy = sum(map(operator.mul, dy, dy))
    if not sxx or not syy:  # every centred rank of a constant variable is 0
        return None
    return sum(map(operator.mul, dx, dy)), sxx, syy


def rho_of(sxy: int, sxx: int, syy: int) -> float:
    """Rho from its exact sums in one float division; perfect agreement is exactly +-1."""
    if sxy * sxy == sxx * syy:
        return 1.0 if sxy > 0 else -1.0
    return sxy / math.sqrt(sxx * syy)


def spearman_rho(pairs: Sequence[tuple[float, float]]) -> float:
    """Rank correlation from ``spearman_sums``; DegenerateInput where those are None."""
    sums = spearman_sums(pairs)
    if sums is None:
        raise DegenerateInput("need two or more pairs and no constant variable")
    return rho_of(*sums)


def per_bin_correlation(
    cohort: CohortTable, bins: BinSpec, db: str
) -> list[tuple[int, int, int] | None]:
    """The ``spearman_sums`` of h and h_c inside each h-bin of one database.

    Bins with fewer than two authors, or with a constant variable, yield
    None (rendered as "-" in reports).
    """
    # (h, h_c) pairs sorted by h, so each bin is one slice; rho ignores pair order.
    pairs = sorted(map(attrgetter("h", "h_c"), cohort.reports[db]))
    cuts = bins.cuts(list(map(itemgetter(0), pairs)))
    return [spearman_sums(pairs[start:stop]) for start, stop in zip(cuts, cuts[1:])]


def diff_sd(cohort: CohortTable, key: str) -> float | None:
    """Sample standard deviation of per-author cross-database differences.

    The difference is key(first db) - key(second db) per author; the sd
    uses the n-1 denominator. None for a cohort below two authors: such a
    cell is reported as absent, not as a number.
    """
    if len(cohort.keys) < 2:
        return None
    value = RANK_KEYS[key]
    a, b = (map(value, cohort.reports[db]) for db in cohort.db_tags)
    return _sample_sd(list(map(operator.sub, a, b)))


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
    counts = Counter(map(operator.floordiv, values, repeat(bin_width)))
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
    return StatsSummary(
        minimum=ordered[0],
        maximum=ordered[-1],
        median=float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2,
        mean=sum(ordered) / n,
        sd=_sample_sd(ordered) if n > 1 else 0.0,
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
