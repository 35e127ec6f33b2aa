"""Outside-in tracing of one full report run.

``Tracer`` replaces public functions of the scimetrics modules with timing
wrappers, at the module attribute through which their caller looks them up
(``cli`` imports most of them by name, so those are patched on
``scimetrics.cli``). Each call records a span ``[name, start, end, parent]``
in memory; ``summarize`` turns the spans into per-name call counts, total
time and self time (total minus the time of direct child spans). Nothing
inside the package is edited, so a name that a later version removes is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable

# run_full_analysis calls cli.main once per report family; those spans are
# named FAMILY_SPAN + the family's subcommand.
FAMILY_SPAN = "cli.main."

# (attribute, span name) per patched module. Spans are named
# <layer>.<function>, where the layer is the package module that defines the
# function; scimetrics.cli imports most of them by name.
CLI_NAMES = (
    ("load_pipeline", "cli.load_pipeline"),
    ("cmd_index", "cli.cmd_index"),
    ("cmd_overlap", "cli.cmd_overlap"),
    ("cmd_rank", "cli.cmd_rank"),
    ("cmd_bins", "cli.cmd_bins"),
    ("cmd_corr", "cli.cmd_corr"),
    ("cmd_deviation", "cli.cmd_deviation"),
    ("cmd_density", "cli.cmd_density"),
    ("parse_records", "ingest.parse_records"),
    ("parse_roster", "ingest.parse_roster"),
    ("build_profiles", "ingest.build_profiles"),
    ("profile_to_citations", "ingest.profile_to_citations"),
    ("compute_hc", "indices.compute_hc"),
    ("build_cohort", "analytics.build_cohort"),
    ("classify_overlap", "crossdb.classify_overlap"),
    ("overlap_proportions", "crossdb.overlap_proportions"),
    ("write_csv", "reports.write_csv"),
    ("write_json", "reports.write_json"),
)
INDICES_NAMES = (("compute_g", "indices.compute_g"),)
ANALYTICS_NAMES = tuple(
    (name, f"analytics.{name}")
    for name in (
        "rank_authors",
        "per_bin_correlation",
        "stats_summary",
        "bin_proportions",
        "diff_sd",
        "density_series",
    )
)


class Tracer:
    """Timing wrappers plus the spans and counts they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        span: str | Callable[[tuple], str],
        observe: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call.

        ``span`` is the span name, or a function of the call's positional
        arguments that returns it. ``observe(args, result)`` runs after the
        span has closed, to record counts.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(span if isinstance(span, str) else attr)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            name = span if isinstance(span, str) else span(args)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        stats = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["s"] += end - start
        stats["self_s"] += end - start - child_time[i]
    return out


def family_times(spans: list[list]) -> dict[str, float]:
    """Per report family: its ``main`` span minus the loads nested in it."""
    load_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0 and name == "cli.load_pipeline":
            load_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if name.startswith(FAMILY_SPAN):
            family = name[len(FAMILY_SPAN):]
            out[family] = out.get(family, 0.0) + end - start - load_time[i]
    return out
