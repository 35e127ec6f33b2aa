"""Bibliometric index engine and batch analysis pipeline.

Computes h, g and the complementary h_c index over author citation
profiles, reconciles publication records across two citation databases
by DOI, and emits deterministic, plot-ready ranking, binning,
correlation, and deviation reports.
"""

from .analytics import BinSpec, CohortTable, build_cohort
from .config import RunConfig
from .indices import CitationProfile, IndexReport, compute_hc

__version__ = "0.1.0"
