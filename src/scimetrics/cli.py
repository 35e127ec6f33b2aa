"""Command-line front end: ingestion -> indices -> reconciliation -> analytics.

One subcommand per report family, each an entry of ``REPORTS``: its
builder computes the family's ``Table`` values from the loaded inputs and
writes nothing, and ``write_tables`` writes every table (CSV, plus JSON
unless it is a plot table). Identical inputs and configuration always
produce byte-identical output files; reports are written through
temp-file renames so an interrupted run never leaves a corrupt file.

Exit codes: 0 success, 1 I/O failure, 2 validation/schema failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import analytics
from .analytics import BinSpec, CohortTable, build_cohort
from .config import FORMATS, OUT_DIR_ENV, ROUNDING_MODES, RunConfig
from .crossdb import GLOBAL_SCOPE, classify_overlap, overlap_proportions
from .errors import ConfigError, EmptyScope, SchemaError, ScimetricsError
from .indices import IndexReport, compute_hc
from .ingest import (
    AuthorProfile,
    build_profiles,
    parse_records,
    parse_roster,
    profile_to_citations,
)
from .reports import round_half_up, write_csv, write_json

INDEX_COLUMNS = IndexReport._fields  # an IndexReport unpacks in this order
STATS_INDICES = ("h", "h_c", "g")
PLOT_HEADER = ("series", "x", "y")


class Pipeline(NamedTuple):
    """Parsed inputs and per-discipline cohorts shared by every subcommand."""

    config: RunConfig
    profiles: list[AuthorProfile]
    disciplines: list[str]
    cohorts: dict[str, CohortTable]  # per discipline, plus the global scope
    reject_paths: list[Path]


# ---------------------------------------------------------------------------
# Configuration assembly
# ---------------------------------------------------------------------------

def _parse_records_flag(value: str) -> tuple[str, str]:
    path, sep, tag = value.rpartition("@")
    if not sep or not path or not tag:
        raise ConfigError(f"--records expects <path>@<dbtag>, got {value!r}")
    return path, tag


def _file_str(file_cfg: dict, key: str) -> str | None:
    """A string entry of the config file, or None when it is absent."""
    value = file_cfg.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"config file {key!r} must be a string")
    return value


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge the optional config file with flags; flags win."""
    file_cfg: dict = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")

    file_records = file_cfg.get("records") or {}
    if not isinstance(file_records, dict) or not all(
        isinstance(p, str) for p in file_records.values()
    ):
        raise ConfigError("config file 'records' must map dbtag -> path")
    records: dict[str, Path] = {tag: Path(p) for tag, p in file_records.items()}
    for value in args.records or []:
        path, tag = _parse_records_flag(value)
        records[tag] = Path(path)

    roster = args.roster or _file_str(file_cfg, "roster")
    if not records or not roster:
        raise ConfigError("both --records (twice) and --roster are required")

    out_dir = args.out or _file_str(file_cfg, "out") or os.environ.get(OUT_DIR_ENV) or "out"

    fmt = args.format or file_cfg.get("format") or "both"
    formats = FORMATS if fmt == "both" else (fmt,)

    bins_text = args.bins or _file_str(file_cfg, "bins")
    try:
        bins = BinSpec.parse(bins_text) if bins_text else analytics.DEFAULT_BINS
    except ValueError as exc:
        raise ConfigError(f"invalid --bins: {exc}") from exc

    disciplines = args.disciplines
    if disciplines is None:
        disciplines = file_cfg.get("disciplines")
    if isinstance(disciplines, str):
        disciplines = [d.strip() for d in disciplines.split(",") if d.strip()]
    if disciplines is not None and not (
        isinstance(disciplines, list) and all(isinstance(d, str) for d in disciplines)
    ):
        raise ConfigError("config file 'disciplines' must be a string or a list of strings")

    density_width = args.density_width
    if density_width is None:
        density_width = file_cfg.get("density_width", 5)
        if isinstance(density_width, bool) or not isinstance(density_width, int):
            raise ConfigError(
                f"config file 'density_width' must be an integer, got {density_width!r}"
            )

    config = RunConfig(
        records=records,
        roster=Path(roster),
        out_dir=Path(out_dir),
        disciplines=None if disciplines is None else tuple(disciplines),
        bins=bins,
        density_width=density_width,
        formats=formats,
        rounding=args.rounding or file_cfg.get("rounding") or "half-up",
    )
    return config.validate()


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------

def load_pipeline(config: RunConfig, reject_paths: list[Path] | None = None) -> Pipeline:
    """Parse both exports and the roster, then build profiles and cohorts.

    Reject reports (one CSV per database, when any row was dropped) are
    written before anything else so a later validation failure still
    leaves them available; pass ``reject_paths`` to observe them even when
    this function raises.
    """
    for path in [*config.records.values(), config.roster]:
        if not Path(path).exists():
            raise FileNotFoundError(f"input file not found: {path}")

    if reject_paths is None:
        reject_paths = []
    accepted = {}
    for tag, path in config.records.items():
        accepted[tag], rejects = parse_records(path, None, tag)
        if rejects:
            reject_path = config.out_dir / f"rejects_{tag}.csv"
            rows = ((r.row, r.author_key, r.reason) for r in rejects)
            write_csv(reject_path, ("row", "author_key", "reason"), rows)
            reject_paths.append(reject_path)

    roster = parse_roster(config.roster)
    if not roster:
        raise SchemaError("empty roster")

    roster_disciplines = sorted({entry.discipline for entry in roster})
    if GLOBAL_SCOPE in (*roster_disciplines, *(config.disciplines or ())):
        raise ConfigError(f"discipline name {GLOBAL_SCOPE!r} is reserved for the global scope")
    if config.disciplines is not None:
        declared = set(config.disciplines)
        stray = sorted({e.discipline for e in roster} - declared)
        if stray:
            raise ConfigError(
                f"roster disciplines not in the declared set: {', '.join(stray)}"
            )
        disciplines = [d for d in sorted(declared) if d in roster_disciplines]
    else:
        disciplines = roster_disciplines

    tags = config.db_tags
    profiles = build_profiles(accepted, roster, tags)
    reports = {
        p.author_key: {tag: compute_hc(profile_to_citations(p, tag)) for tag in tags}
        for p in profiles
    }
    by_discipline: dict[str, dict[str, dict[str, IndexReport]]] = {}
    for p in profiles:
        by_discipline.setdefault(p.discipline, {})[p.author_key] = reports[p.author_key]
    cohorts = {
        d: build_cohort(d, by_discipline[d], tags) for d in disciplines
    }
    cohorts[GLOBAL_SCOPE] = build_cohort(GLOBAL_SCOPE, reports, tags)
    return Pipeline(
        config=config,
        profiles=profiles,
        disciplines=disciplines,
        cohorts=cohorts,
        reject_paths=reject_paths,
    )


def _scopes(pipeline: Pipeline) -> list[str]:
    """Per-discipline scopes first (sorted), the global scope last."""
    return [*pipeline.disciplines, GLOBAL_SCOPE]


def _scope_tags(pipeline: Pipeline) -> Iterator[tuple[str, str, CohortTable]]:
    """(scope, database tag, cohort) in report order: scopes outer, tags inner."""
    for scope in _scopes(pipeline):
        for tag in pipeline.config.db_tags:
            yield scope, tag, pipeline.cohorts[scope]


def _values(cohort: CohortTable, tag: str, key: str) -> list[int]:
    """One index of one database for every author of a cohort, in row order."""
    return [analytics.RANK_KEYS[key](r.reports[tag]) for r in cohort.rows]


def _pct(config: RunConfig, count: int, total: int) -> float:
    """``count`` as a percentage of ``total``; 0.0 when ``total`` is 0.

    Half-up rounding to one decimal is done in integers, so exact ties
    such as 23/80 = 28.75% round up.
    """
    if not total:
        return 0.0
    if config.rounding == "half-up":
        return (2000 * count + total) // (2 * total) / 10
    return count / total * 100.0


def _rho(config: RunConfig, rho: float) -> float:
    return round_half_up(rho, 2) if config.rounding == "half-up" else rho


class Table(NamedTuple):
    """One report table; ``json_rows``, under the same header, replace its JSON's rows.

    A plot table is plot-ready long format and is written as CSV only.
    """

    name: str
    header: tuple[str, ...]
    rows: list[tuple]
    json_rows: list[tuple] | None = None
    footnotes: tuple[str, ...] = ()
    plot: bool = False


def write_tables(config: RunConfig, tables: list[Table]) -> None:
    """Write every table in the configured formats, printing each path."""
    for table in tables:
        if "csv" in config.formats:
            path = config.out_dir / f"{table.name}.csv"
            write_csv(path, table.header, table.rows)
            print(f"wrote {path}")
        if "json" in config.formats and not table.plot:
            path = config.out_dir / f"{table.name}.json"
            write_json(
                path, table.name, table.header, table.rows, table.json_rows, table.footnotes
            )
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Report builders: each computes its family's tables and writes nothing
# ---------------------------------------------------------------------------

def cmd_index(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Per-(author, database) index rows plus per-discipline summaries."""
    rows = [
        (discipline, row.author_key, tag, *row.reports[tag])
        for discipline in pipeline.disciplines
        for row in sorted(pipeline.cohorts[discipline].rows, key=lambda r: r.author_key)
        for tag in pipeline.config.db_tags
    ]
    stats_rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        for key in STATS_INDICES:
            values = _values(cohort, tag, key)
            s = analytics.stats_summary(values)
            stats_rows.append(
                (scope, tag, key, len(values), s.minimum, s.maximum, s.median, s.mean, s.sd)
            )
    return [
        Table("index_report", ("discipline", "author_key", "db", *INDEX_COLUMNS), rows),
        Table(
            "index_stats",
            ("discipline", "db", "index", "n", "min", "max", "median", "mean", "sd"),
            stats_rows,
        ),
    ]


def cmd_overlap(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Common/unique publication reconciliation per discipline and globally."""
    config = pipeline.config
    tags = config.db_tags
    by_discipline: dict[str, list[AuthorProfile]] = {}
    for p in pipeline.profiles:
        by_discipline.setdefault(p.discipline, []).append(p)
    rows = []
    prop_rows = []
    for scope in _scopes(pipeline):
        whole = scope == GLOBAL_SCOPE
        report = classify_overlap(
            pipeline.profiles if whole else by_discipline.get(scope, []),
            tags,
            scope=None if whole else scope,
            disciplines=pipeline.disciplines,
        )
        for tag in tags:
            stats = report.per_db[tag]
            rows.append(
                (
                    scope,
                    report.author_count,
                    tag,
                    stats.total_pubs,
                    stats.unique_pubs,
                    stats.pubs_received_citations,
                    stats.total_citations,
                    report.common_pubs,
                )
            )
        try:
            props = overlap_proportions(report)
        except EmptyScope:
            continue  # nothing published in this scope: no shares to report
        common = report.common_pubs
        union = props.union_total
        prop_rows.append(
            (scope, "union", "common", props.common_share, _pct(config, common, union))
        )
        for tag in tags:
            unique = report.per_db[tag].unique_pubs
            share = props.unique_shares[tag]
            prop_rows.append(
                (scope, "union", f"unique_{tag}", share, _pct(config, unique, union))
            )
        for tag in tags:
            stats = report.per_db[tag]
            prop_rows.append(
                (scope, tag, "common", props.per_db_common_share[tag],
                 _pct(config, common, stats.total_pubs))
            )
            prop_rows.append(
                (scope, tag, "unique", props.per_db_unique_share[tag],
                 _pct(config, stats.unique_pubs, stats.total_pubs))
            )
    return [
        Table(
            "overlap",
            (
                "discipline",
                "author_count",
                "db",
                "total_pubs",
                "unique_pubs",
                "pubs_received_citations",
                "total_citations",
                "common_pubs",
            ),
            rows,
        ),
        Table(
            "overlap_proportions",
            ("discipline", "denominator", "series", "share", "share_pct"),
            prop_rows,
        ),
    ]


def cmd_rank(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Authors of every scope ranked by one index (``--key``), per database."""
    key = args.key
    rows = []
    plot_rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        pairs = [(r.author_key, r.reports[tag]) for r in cohort.rows]
        for ranked in analytics.rank_authors(pairs, key):
            r = ranked.report
            rows.append((scope, tag, ranked.rank, ranked.author_key, *r))
            plot_rows.append((f"{scope}/{tag}", ranked.rank, analytics.RANK_KEYS[key](r)))
    return [
        Table(f"rank_{key}", ("discipline", "db", "rank", "author_key", *INDEX_COLUMNS), rows),
        Table(f"rank_{key}_plot", PLOT_HEADER, plot_rows, plot=True),
    ]


def cmd_bins(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Share of authors per index bin, h and h_c side by side."""
    config = pipeline.config
    header = ["discipline", "db"]
    for label in config.bins.labels():
        header += [f"h_{label}", f"hc_{label}"]
    rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        h_bins = analytics.bin_proportions(_values(cohort, tag, "h"), config.bins)
        hc_bins = analytics.bin_proportions(_values(cohort, tag, "h_c"), config.bins)
        n = len(cohort.rows)
        row = [scope, tag]
        for h_count, hc_count in zip(h_bins.counts, hc_bins.counts):
            row += [_pct(config, h_count, n), _pct(config, hc_count, n)]
        rows.append(tuple(row))
    return [Table("author_bins", tuple(header), rows)]


def cmd_corr(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Rank correlation between h and h_c inside each h-bin."""
    config = pipeline.config
    labels = config.bins.labels()
    rows = []
    json_rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        rhos = [
            None if rho is None else _rho(config, rho)
            for rho in analytics.per_bin_correlation(cohort, config.bins, tag)
        ]
        rows.append((scope, tag, *("-" if rho is None else rho for rho in rhos)))
        json_rows.append((scope, tag, *rhos))
    return [
        Table(
            "rank_correlation",
            ("discipline", "db", *labels),
            rows,
            json_rows=json_rows,
            footnotes=(
                "cells with fewer than two authors or a constant variable are"
                " reported as absent (-), never as a number",
            ),
        )
    ]


def cmd_deviation(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Sample sd of per-author cross-database differences, per index."""
    rows = [
        (scope, key, analytics.diff_sd(pipeline.cohorts[scope], key))
        for scope in _scopes(pipeline)
        for key in ("h", "h_c")
    ]
    return [
        Table("index_deviation", ("discipline", "index", "sd"), rows),
        Table(
            "index_deviation_plot",
            PLOT_HEADER,
            [(key, scope, sd) for scope, key, sd in rows],
            plot=True,
        ),
    ]


def cmd_density(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Normalized histogram series of h and h_c per scope and database."""
    width = pipeline.config.density_width
    rows = [
        (f"{scope}/{tag}/{key}", x, y)
        for scope, tag, cohort in _scope_tags(pipeline)
        for key in ("h", "h_c")
        for x, y in analytics.density_series(_values(cohort, tag, key), width)
    ]
    return [Table("density", PLOT_HEADER, rows)]


# Subcommand -> (report builder, help line); one entry per report family.
REPORTS: dict[str, tuple[Callable[[Pipeline, argparse.Namespace], list[Table]], str]] = {
    "index": (cmd_index, "per-author index reports"),
    "overlap": (cmd_overlap, "common/unique DOI report"),
    "rank": (cmd_rank, "author rankings"),
    "bins": (cmd_bins, "author share per index bin"),
    "corr": (cmd_corr, "per-bin h vs h_c rank correlation"),
    "deviation": (cmd_deviation, "cross-database index deviation"),
    "density": (cmd_density, "h and h_c density series"),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scimetrics",
        description=(
            "Deterministic bibliometric batch runs: h/g/h_c index reports,"
            " cross-database DOI reconciliation, and ranking analytics."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--records",
        action="append",
        metavar="PATH@DBTAG",
        help="records export with its database tag; pass exactly twice",
    )
    common.add_argument("--roster", help="author roster CSV/JSON")
    common.add_argument(
        "--out", help=f"output directory (default: ${OUT_DIR_ENV} or ./out)"
    )
    common.add_argument(
        "--format", choices=(*FORMATS, "both"), help="report formats (default both)"
    )
    common.add_argument("--bins", help='bin spec such as "0-10,11-20,...,51+"')
    common.add_argument(
        "--density-width", type=int, help="histogram bin width (default 5)"
    )
    common.add_argument(
        "--disciplines", help="comma-separated declared discipline set"
    )
    common.add_argument(
        "--rounding", choices=ROUNDING_MODES, help="report value formatting"
    )
    common.add_argument("--config", help="JSON config file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in REPORTS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    sub.choices["rank"].add_argument("--key", choices=tuple(analytics.RANK_KEYS), default="h")
    return parser


def main(argv: list[str] | None = None, loaded: dict | None = None) -> int:
    """Run one subcommand; return its exit code.

    ``loaded`` lets several calls share one load of the inputs: when it
    holds a ``"pipeline"`` whose configuration (database order included)
    equals this call's, that pipeline is reused; otherwise the inputs are
    loaded and the result is stored in it. Without ``loaded`` every call
    loads its inputs itself.
    """
    args = build_parser().parse_args(argv)
    reject_paths: list[Path] = []
    try:
        config = build_config(args)
        pipeline = (loaded or {}).get("pipeline")
        # Dict equality ignores key order, but the database order orders the reports.
        if pipeline is not None and (pipeline.config, pipeline.config.db_tags) == (
            config, config.db_tags
        ):
            reject_paths = pipeline.reject_paths
        else:
            pipeline = load_pipeline(config, reject_paths)
            if loaded is not None:
                loaded["pipeline"] = pipeline
        for path in reject_paths:
            print(f"wrote {path}")
        build, _ = REPORTS[args.command]
        write_tables(config, build(pipeline, args))
        return 0
    except OSError as exc:
        print(f"scimetrics: i/o error: {exc}", file=sys.stderr)
        return 1
    except ScimetricsError as exc:
        print(f"scimetrics: {type(exc).__name__}: {exc}", file=sys.stderr)
        for path in reject_paths:
            print(f"scimetrics: reject report written to {path}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
