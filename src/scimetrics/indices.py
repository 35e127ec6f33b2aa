"""Bibliometric index computations over a single author's citation profile.

Implements the classic h-index, the g-index with Egghe's fictitious
zero-citation papers, and the complementary index h_c = h + k, where k
weights the author's single most-cited paper: k is the largest exponent
>= 2 with h**k still below the top paper's citation count, and 0 when no
such exponent exists. All functions are pure and safe to call from any
thread.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class _CitationProfile(NamedTuple):
    citations: tuple[int, ...]


class CitationProfile(_CitationProfile):
    """Per-paper citation counts of one author in one database.

    Counts are normalized to a descending tuple on construction, so any
    input order yields the same profile. An empty profile is valid.
    """

    __slots__ = ()

    def __new__(cls, citations: Iterable[int] = ()) -> "CitationProfile":
        counts = tuple(sorted(map(int, citations), reverse=True))
        if counts and counts[-1] < 0:
            raise ValueError("citation counts must be non-negative")
        return tuple.__new__(cls, (counts,))


class _IndexReport(NamedTuple):
    h: int
    g: int
    h_cite: int
    k: int
    h_c: int


class IndexReport(_IndexReport):
    """All indices of one (author, database) pair.

    h_cite is the citation count of the single most-cited paper; k is its
    weight. By construction h_c = h + k, k is never 1, and g >= h.
    """

    __slots__ = ()

    def __new__(cls, h: int, g: int, h_cite: int, k: int, h_c: int) -> "IndexReport":
        if min(h, g, h_cite, k, h_c) < 0:
            raise ValueError("indices must be non-negative")
        if h_c != h + k:
            raise ValueError("h_c must equal h + k")
        if k == 1:
            raise ValueError("k is never 1")
        if g < h:
            raise ValueError("g cannot be below h")
        if h >= 1 and h_cite < h:
            raise ValueError("top-paper citations cannot be below h")
        return tuple.__new__(cls, (h, g, h_cite, k, h_c))


def compute_h(profile: CitationProfile) -> int:
    """Largest h such that at least h papers have >= h citations each."""
    h = 0
    for i, c in enumerate(profile.citations, 1):
        if c >= i:
            h = i
        else:
            break
    return h


def compute_g(profile: CitationProfile) -> int:
    """Largest g whose top g papers together have at least g**2 citations.

    The profile is conceptually padded with fictitious zero-citation
    papers, so g may exceed the real paper count whenever the total
    citations allow it (g is bounded by isqrt of the citation total).

    The mean of the top i papers never rises with i, so once a top-i sum
    falls below i**2 no larger i passes. When every real paper passes,
    the padded papers pass up to isqrt of the total.
    """
    running = 0
    for i, c in enumerate(profile.citations, 1):
        running += c
        if running < i * i:
            return i - 1
    return math.isqrt(running)


def compute_h_cite(profile: CitationProfile) -> int:
    """Citation count of the single most-cited paper; 0 for no papers."""
    return profile.citations[0] if profile.citations else 0


def compute_weight_k(h: int, h_cite: int) -> int:
    """Largest exponent k >= 2 with h**k < h_cite, or 0 when none exists.

    h <= 1 always returns 0: powers of 0 or 1 can never climb past
    h_cite, so the scan below would not terminate for them.
    """
    if h <= 1:
        return 0
    k = 0
    i = 2
    while h**i < h_cite:  # Python ints are unbounded, so h**i cannot overflow
        k = i
        i += 1
    return k


def compute_hc(profile: CitationProfile) -> IndexReport:
    """Full index report for one profile, with h_c = h + k."""
    h = compute_h(profile)
    h_cite = compute_h_cite(profile)
    k = compute_weight_k(h, h_cite)
    return IndexReport(
        h=h,
        g=compute_g(profile),
        h_cite=h_cite,
        k=k,
        h_c=h + k,
    )
