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
import functools
import json
import os
import sys
from itertools import chain, count, repeat
from math import isqrt
from operator import add, attrgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import analytics
from .analytics import BinSpec, CohortTable, ascii_digits, build_cohort
from .config import OUT_DIR_ENV, ROUNDING_MODES, RunConfig
from .crossdb import GLOBAL_SCOPE, DbOverlapStats, classify_overlap, overlap_proportions
from .errors import ConfigError, ScimetricsError
from .indices import IndexReport, compute_hc
from .ingest import (
    AuthorProfile,
    Reject,
    build_profiles,
    parse_records,
    parse_roster,
    profile_to_citations,
)
from .reports import write_csv, write_json

INDEX_COLUMNS = IndexReport._fields  # an IndexReport unpacks in this order
_AUTHOR_KEY = attrgetter("author_key")
STATS_INDICES = ("h", "h_c", "g")
PLOT_HEADER = ("series", "x", "y")
# The widest density bin, the largest signed 64-bit value as for citation
# counts: no h or h_c needs a wider one, and each bin centre stays a finite
# float, which a width of 2**1024 or more would not.
MAX_DENSITY_WIDTH = 2**63 - 1


class Pipeline(NamedTuple):
    """Parsed inputs, grouped into scopes once, shared by every subcommand.

    ``scopes`` maps each scope to its authors' profiles: every listed
    discipline in sorted order, then the global scope with every profile.
    ``cohorts`` holds one cohort per scope, built from that grouping, under
    the same keys in the same order. Report rows follow this scope order.
    """

    config: RunConfig
    scopes: dict[str, list[AuthorProfile]]
    cohorts: dict[str, CohortTable]
    reject_paths: list[Path]


# ---------------------------------------------------------------------------
# Configuration assembly
# ---------------------------------------------------------------------------

def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _string(value: object, encode: Callable[[str], bytes]) -> str:
    """``value`` if it is a non-empty str with no NUL that ``encode`` can encode.

    A JSON string can hold a lone surrogate, which neither a report nor a
    file name can hold.
    """
    if not (isinstance(value, str) and value):
        raise ValueError(f"must be a non-empty string, got {value!r}")
    if "\0" in value:  # no file name, and so no path, can hold a NUL
        raise ValueError(f"must not hold a NUL, got {value!r}")
    try:
        encode(value)
    except UnicodeEncodeError:
        raise ValueError(f"cannot be encoded as UTF-8, got {value!r}") from None
    return value


def _path(key: str, value: object) -> Path:
    # os.fsencode, not UTF-8: the bytes of a command-line path that are not
    # UTF-8 arrive as surrogate escapes, and they name a file all the same.
    return Path(_string(value, os.fsencode))


def _choice(key: str, value: object) -> str:
    choices = SETTINGS[key].choices
    if value not in choices:
        raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
    return value


def _bins(key: str, value: object) -> BinSpec:
    return BinSpec.parse(_string(value, str.encode))


def _density_width(key: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    if value > MAX_DENSITY_WIDTH:
        raise ValueError(f"must be at most {MAX_DENSITY_WIDTH}, got {value!r}")
    return value


def _disciplines(key: str, value: object) -> tuple[str, ...]:
    if isinstance(value, str):
        value = value.split(",")
    if not (isinstance(value, list) and all(isinstance(d, str) for d in value)):
        raise ValueError(f"must be a string or a list of strings, got {value!r}")
    value = tuple(filter(None, map(str.strip, value)))  # a list item strips as a flag's does
    if not value:
        raise ConfigError("declared discipline set must be non-empty")
    return value


class Setting(NamedTuple):
    """One setting, given as a flag or a config-file key: both obey ``check``.

    ``check(key, value)`` turns a set value into the ``RunConfig`` field, or
    raises ValueError saying what is wrong (a ConfigError is the whole message).
    An unset setting keeps ``RunConfig``'s default, unless ``env`` is set.
    """

    check: Callable[[str, object], object]
    help: str
    choices: tuple[str, ...] = ()  # checked by ``check``; shown as the flag's metavar
    type: Callable[[str], object] | None = None  # argparse's conversion of the flag
    env: str | None = None
    field: str | None = None  # the RunConfig field, when it is not named as the key


# Config-file key -> setting, in flag order; the flag is the key with "-" for "_".
# ``records`` is not here: its file map and ``--records`` flags merge by tag.
SETTINGS = {
    "roster": Setting(_path, "author roster CSV/JSON"),
    "out": Setting(
        _path,
        f"output directory (default: ${OUT_DIR_ENV} or ./out)",
        env=OUT_DIR_ENV,
        field="out_dir",
    ),
    "format": Setting(_choice, "report formats (default both)", choices=("csv", "json", "both")),
    "bins": Setting(_bins, 'bin spec such as "0-10,11-20,...,51+"'),
    "density_width": Setting(_density_width, "histogram bin width (default 5)", type=ascii_digits),
    "disciplines": Setting(_disciplines, "comma-separated declared discipline set"),
    "rounding": Setting(_choice, "report value formatting", choices=ROUNDING_MODES),
}


def _records(file_value: object, flags: list[str] | None) -> tuple[tuple[str, Path], ...]:
    """The config file's dbtag -> path map, overridden per tag by ``--records`` flags."""
    if not isinstance(file_value, dict):
        raise ConfigError("config file 'records' must map dbtag -> path")
    records = dict(file_value)
    for value in flags or []:
        path, sep, tag = value.rpartition("@")
        if not sep or not path or not tag:
            raise ConfigError(f"--records expects <path>@<dbtag>, got {value!r}")
        records[tag] = path
    for tag, path in records.items():
        part = "path"
        try:
            records[tag] = _path("records", path)
            part = "tag"  # written into the reports, and names the database's reject file
            if {os.sep, os.altsep} & set(_string(tag, str.encode)):  # altsep is None on POSIX
                raise ValueError(f"must not hold a path separator, got {tag!r}")
        except ValueError as exc:
            raise ConfigError(f"invalid --records {part} (config key 'records'): {exc}") from None
    if len(records) != 2:
        raise ConfigError(f"exactly two database tags required, got {sorted(records)}")
    return tuple(records.items())


def build_config(args: argparse.Namespace) -> RunConfig:
    """Each setting from its flag, else the config file, else its default.

    Only an absent flag or key, or a JSON null, leaves a setting unset.
    """
    file_cfg: dict = {}
    if args.config is not None:
        if not args.config:
            raise ConfigError("invalid --config: must be a non-empty path")
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {args.config}: must hold a JSON object")
        unknown = sorted(file_cfg.keys() - SETTINGS.keys() - {"records"})
        if unknown:
            raise ConfigError(f"unknown config file key(s): {', '.join(map(repr, unknown))}")

    records = file_cfg.get("records")
    fields = {"records": _records({} if records is None else records, args.records)}
    for key, setting in SETTINGS.items():
        source = f"{_flag(key)} (config key {key!r})"
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key)
        if value is None and setting.env:
            source = f"${setting.env}"
            value = os.environ.get(setting.env)
        if value is not None:
            try:
                fields[setting.field or key] = setting.check(key, value)
            except ValueError as exc:
                raise ConfigError(f"invalid {source}: {exc}") from exc
    if "roster" not in fields:
        raise ConfigError("--roster (config key 'roster') is required")
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------

def load_pipeline(config: RunConfig, reject_paths: list[Path] | None = None) -> Pipeline:
    """Parse both exports and the roster, then build profiles and cohorts.

    A load computes one ``IndexReport`` per distinct citation profile:
    authors with equal profiles, in either database, share that immutable
    report. The cache behind this lives for one load only, so each call
    computes its reports afresh.

    Reject reports (one CSV per database, when any row was dropped) are
    written before anything else so a later validation failure still
    leaves them available; pass ``reject_paths`` to observe them even when
    this function raises.
    """
    for path in [*(path for _, path in config.records), config.roster]:
        if not path.exists():
            raise FileNotFoundError(f"input file not found: {path}")

    if reject_paths is None:
        reject_paths = []
    accepted = {}
    for tag, path in config.records:
        accepted[tag], rejects = parse_records(path, tag)
        if rejects:
            reject_path = config.out_dir / f"rejects_{tag}.csv"
            write_csv(reject_path, Reject._fields, rejects)
            reject_paths.append(reject_path)

    roster = parse_roster(config.roster)

    # A declared discipline that no roster author has gets no scope.
    disciplines = sorted({entry.discipline for entry in roster})
    if GLOBAL_SCOPE in (*disciplines, *(config.disciplines or ())):
        raise ConfigError(f"discipline name {GLOBAL_SCOPE!r} is reserved for the global scope")
    stray = sorted(set(disciplines).difference(config.disciplines or disciplines))
    if stray:
        raise ConfigError(f"roster disciplines not in the declared set: {', '.join(stray)}")

    tags = config.db_tags
    profiles = build_profiles(accepted, roster, tags)
    # One report column per database in roster order; each discipline picks its positions.
    keys = tuple(map(_AUTHOR_KEY, profiles))
    # Short profiles repeat across authors and databases: compute each distinct one once.
    report = functools.cache(compute_hc)
    columns = {
        tag: tuple(map(report, map(profile_to_citations, profiles, repeat(tag))))
        for tag in tags
    }
    positions: dict[str, list[int]] = {d: [] for d in disciplines}
    for i, p in enumerate(profiles):
        positions[p.discipline].append(i)
    scopes, cohorts = {}, {}
    for scope, at in positions.items():
        scopes[scope] = list(map(profiles.__getitem__, at))
        picked = {tag: tuple(map(column.__getitem__, at)) for tag, column in columns.items()}
        cohorts[scope] = build_cohort(scope, tuple(map(keys.__getitem__, at)), picked, tags)
    scopes[GLOBAL_SCOPE] = profiles
    cohorts[GLOBAL_SCOPE] = build_cohort(GLOBAL_SCOPE, keys, columns, tags)
    return Pipeline(
        config=config, scopes=scopes, cohorts=cohorts, reject_paths=reject_paths
    )


def _scope_tags(pipeline: Pipeline) -> Iterator[tuple[str, str, CohortTable]]:
    """(scope, database tag, cohort) in report order: scopes outer, tags inner."""
    for scope, cohort in pipeline.cohorts.items():
        for tag in pipeline.config.db_tags:
            yield scope, tag, cohort


def _values(cohort: CohortTable, tag: str, key: str) -> list[int]:
    """One index of one database for every author of a cohort, in author order."""
    return list(map(analytics.RANK_KEYS[key], cohort.reports[tag]))


def _pct(config: RunConfig, count: int, total: int) -> float:
    """``count`` as a percentage of ``total``; 0.0 when ``total`` is 0.

    Half-up rounding to tenths is done in integers, so exact ties such as
    23/80 = 28.75% round up.
    """
    if not total:
        return 0.0
    if config.rounding == "half-up":
        return (2000 * count + total) // (2 * total) / 10
    return 100 * count / total


def _rho(config: RunConfig, sxy: int, sxx: int, syy: int) -> float:
    """Rho from its exact sums; half-up to hundredths in integers, ties away from zero."""
    if config.rounding != "half-up":
        return analytics.rho_of(sxy, sxx, syy)
    # For x = (200 * rho)**2, isqrt(floor(x)) = floor(200 * |rho|): m = floor(100 * |rho| + 1/2).
    m = (isqrt(40000 * sxy * sxy // (sxx * syy)) + 1) // 2
    return -(m / 100) if sxy < 0 else m / 100  # a negative rho that rounds to 0 is -0.0


class Table(NamedTuple):
    """One report table. A ``None`` cell is an absent value: ``-`` in CSV, ``null`` in JSON.

    A plot table is plot-ready long format and is written as CSV only.
    """

    name: str
    header: tuple[str, ...]
    rows: list[tuple]
    footnotes: tuple[str, ...] = ()
    plot: bool = False


def _print_wrote(path: Path) -> None:
    """Print ``wrote PATH``, backslash-escaping what stdout cannot encode (non-UTF-8 bytes)."""
    line = f"wrote {path}"
    try:
        print(line)
    except UnicodeEncodeError:
        print(line.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))


def write_tables(config: RunConfig, tables: list[Table]) -> list[Path]:
    """Write every table in the configured formats; the paths written, in order."""
    paths = []
    for table in tables:
        if config.format in ("csv", "both"):
            paths.append(config.out_dir / f"{table.name}.csv")
            write_csv(paths[-1], table.header, table.rows)
        if config.format in ("json", "both") and not table.plot:
            paths.append(config.out_dir / f"{table.name}.json")
            write_json(paths[-1], table.name, table.header, table.rows, table.footnotes)
    return paths


# ---------------------------------------------------------------------------
# Report builders: each computes its family's tables and writes nothing
# ---------------------------------------------------------------------------

def cmd_index(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Per-(author, database) index rows plus per-discipline summaries."""
    rows = []
    for discipline, cohort in pipeline.cohorts.items():
        if discipline != GLOBAL_SCOPE:
            order = sorted(range(len(cohort.keys)), key=cohort.keys.__getitem__)
            keys = list(map(cohort.keys.__getitem__, order))
            # Per tag, (discipline, author, tag) + report rows; zip interleaves
            # them so that each author's tags follow one another.
            per_tag = [
                map(
                    add,
                    zip(repeat(discipline), keys, repeat(tag)),
                    map(cohort.reports[tag].__getitem__, order),
                )
                for tag in pipeline.config.db_tags
            ]
            rows += chain.from_iterable(zip(*per_tag))
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
    rows = []
    prop_rows = []
    # The disciplines come first and hold every profile between them, so by
    # the global scope ``merged`` holds the global doi maps.
    merged: dict[str, dict[str, int]] = {}
    for scope, group in pipeline.scopes.items():
        report = classify_overlap(group, tags, scope, merged=merged)
        for tag in tags:
            stats = report.per_db[tag]
            rows.append((scope, report.author_count, tag, *stats, report.common_pubs))
        for denominator, series, part, whole in overlap_proportions(report):
            share = part / whole if whole else 0.0
            prop_rows.append((scope, denominator, series, share, _pct(config, part, whole)))
    return [
        Table(
            "overlap",
            ("discipline", "author_count", "db", *DbOverlapStats._fields, "common_pubs"),
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
    value = analytics.RANK_KEYS[key]
    rows = []
    plot_rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        pairs = list(zip(cohort.keys, cohort.reports[tag]))
        keys, reports = zip(*analytics.rank_authors(pairs, key))
        rows += map(add, zip(repeat(scope), repeat(tag), count(1), keys), reports)
        plot_rows += zip(repeat(f"{scope}/{tag}"), count(1), map(value, reports))
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
        h_counts = analytics.bin_proportions(_values(cohort, tag, "h"), config.bins)
        hc_counts = analytics.bin_proportions(_values(cohort, tag, "h_c"), config.bins)
        n = len(cohort.keys)
        row = [scope, tag]
        for h_count, hc_count in zip(h_counts, hc_counts):
            row += [_pct(config, h_count, n), _pct(config, hc_count, n)]
        rows.append(tuple(row))
    return [Table("author_bins", tuple(header), rows)]


def cmd_corr(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Rank correlation between h and h_c inside each h-bin."""
    config = pipeline.config
    rows = []
    for scope, tag, cohort in _scope_tags(pipeline):
        rhos = [
            None if sums is None else _rho(config, *sums)
            for sums in analytics.per_bin_correlation(cohort, config.bins, tag)
        ]
        rows.append((scope, tag, *rhos))
    return [
        Table(
            "rank_correlation",
            ("discipline", "db", *config.bins.labels()),
            rows,
            footnotes=(
                "cells with fewer than two authors or a constant variable are"
                " reported as absent (-), never as a number",
            ),
        )
    ]


def cmd_deviation(pipeline: Pipeline, args: argparse.Namespace) -> list[Table]:
    """Sample sd of per-author cross-database differences, per index.

    A one-author scope has no sd: its cell is absent (-) and it has no plot point.
    """
    rows = [
        (scope, key, analytics.diff_sd(cohort, key))
        for scope, cohort in pipeline.cohorts.items()
        for key in ("h", "h_c")
    ]
    return [
        Table("index_deviation", ("discipline", "index", "sd"), rows),
        Table(
            "index_deviation_plot",
            PLOT_HEADER,
            [(key, scope, sd) for scope, key, sd in rows if sd is not None],
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
    """A new parser of the command line (``main`` reads one per process)."""
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
    for key, setting in SETTINGS.items():
        # The setting's check, not argparse, rejects a value outside its choices.
        metavar = "{" + ",".join(setting.choices) + "}" if setting.choices else None
        common.add_argument(_flag(key), help=setting.help, metavar=metavar, type=setting.type)
    common.add_argument("--config", help="JSON config file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in REPORTS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    sub.choices["rank"].add_argument("--key", choices=tuple(analytics.RANK_KEYS), default="h")
    return parser


# The one parser that ``main`` reads, built on its first call; parsing does
# not change it, so each later call of a process (a full run makes one per
# report family) reuses it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None, loaded: dict | None = None) -> int:
    """Run one subcommand; return its exit code.

    ``loaded`` lets several calls share one load of the inputs: when it
    holds a ``"pipeline"`` whose configuration (database order included)
    equals this call's, that pipeline is reused; otherwise the inputs are
    loaded and the result is stored in it. Without ``loaded`` every call
    loads its inputs itself. The argument parser is built once per process,
    on the first call, and only read after that.
    """
    args = _parser().parse_args(argv)
    reject_paths: list[Path] = []
    try:
        config = build_config(args)
        pipeline = (loaded or {}).get("pipeline")
        if pipeline is not None and pipeline.config == config:
            reject_paths = pipeline.reject_paths
        else:
            pipeline = load_pipeline(config, reject_paths)
            if loaded is not None:
                loaded["pipeline"] = pipeline
        build, _ = REPORTS[args.command]
        # The family's files are all written before the first "wrote" line, so
        # a stdout that fails mid-listing leaves no family half written.
        for path in [*reject_paths, *write_tables(config, build(pipeline, args))]:
            _print_wrote(path)
        return 0
    except OSError as exc:
        message, code = f"i/o error: {exc}", 1
    except ScimetricsError as exc:
        message, code = f"{type(exc).__name__}: {exc}", 2
    print(f"scimetrics: {message}", file=sys.stderr)
    for path in reject_paths:
        print(f"scimetrics: reject report written to {path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
