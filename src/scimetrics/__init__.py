"""Bibliometric index engine and batch analysis pipeline.

Computes h, g and the complementary h_c index over author citation
profiles, reconciles publication records across two citation databases
by DOI, and emits deterministic, plot-ready ranking, binning,
correlation, and deviation reports.
"""

from .analytics import (
    DEFAULT_BINS,
    BinSpec,
    CohortTable,
    bin_proportions,
    build_cohort,
    density_series,
    diff_sd,
    fractional_ranks,
    per_bin_correlation,
    rank_authors,
    spearman_rho,
    stats_summary,
)
from .config import RunConfig
from .crossdb import OverlapReport, classify_overlap, overlap_proportions
from .errors import (
    ConfigError,
    DegenerateInput,
    EmptyScope,
    MalformedDoi,
    SchemaError,
    ScimetricsError,
    UnknownAuthor,
    UnknownDiscipline,
)
from .indices import (
    CitationProfile,
    IndexReport,
    compute_g,
    compute_h,
    compute_h_cite,
    compute_hc,
    compute_weight_k,
)
from .ingest import (
    AuthorProfile,
    RosterEntry,
    build_profiles,
    normalize_doi,
    parse_records,
    parse_roster,
    profile_to_citations,
)

__version__ = "0.1.0"
