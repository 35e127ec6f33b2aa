"""CLI contract: flags, exit codes, report files, determinism."""

import bisect
import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from scimetrics import cli
from scimetrics.analytics import rho_of, spearman_sums
from scimetrics.cli import (
    SETTINGS,
    _pct,
    _rho,
    build_config,
    build_parser,
    load_pipeline,
    main,
)
from scimetrics.config import RunConfig
from scimetrics.crossdb import GLOBAL_SCOPE
from scimetrics.errors import ConfigError
from scimetrics.indices import CitationProfile, compute_hc

from helpers import read_csv

SYNTHETIC = Path(__file__).parent / "data" / "synthetic"
ALL_COMMANDS = ("index", "overlap", "rank", "bins", "corr", "deviation", "density")

GOLDEN_PROFILES = {
    "a1": (15, 13, 10, 7, 3, 2, 1, 1, 1, 0),
    "a2": (65, 9, 8, 7, 5, 5, 2, 2, 1, 0),
    "a3": (205, 150, 85, 40, 25, 5, 4, 4, 2, 1),
}


def write_golden_fixture(tmp_path):
    """Three synthetic authors with the demonstration profiles in both dbs."""
    roster = ["author_key,orcid,researcher_id,scopus_id,discipline,display_name"]
    for i, key in enumerate(GOLDEN_PROFILES, 1):
        roster.append(f"{key},0000-000{i},R-{i},700{i},casebook,Author {i}")
    (tmp_path / "roster.csv").write_text("\n".join(roster) + "\n")
    for tag in ("scopus", "wos"):
        lines = ["author_key,doi,citations,source"]
        for key, counts in GOLDEN_PROFILES.items():
            for n, c in enumerate(counts):
                lines.append(f"{key},10.1/{key}.{n},{c},{tag}")
        (tmp_path / f"records_{tag}.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def args_for(data_dir, out_dir, *extra):
    return [
        "--records",
        f"{data_dir}/records_scopus.csv@scopus",
        "--records",
        f"{data_dir}/records_wos.csv@wos",
        "--roster",
        f"{data_dir}/roster.csv",
        "--out",
        str(out_dir),
        *extra,
    ]


# ---------------------------------------------------------------------------
# index command
# ---------------------------------------------------------------------------

def test_index_golden_rows(tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out)]) == 0
    header, rows = read_csv(out / "index_report.csv")
    assert header == ["discipline", "author_key", "db", "h", "g", "h_cite", "k", "h_c"]
    scopus = {r[1]: r for r in rows if r[2] == "scopus"}
    assert scopus["a1"][3:] == ["4", "7", "15", "0", "4"]
    assert scopus["a2"][3:] == ["5", "10", "65", "2", "7"]
    assert scopus["a3"][3:] == ["5", "22", "205", "3", "8"]
    assert len(rows) == 6  # one row per (author, database)


def test_index_writes_stats_and_json(tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out)]) == 0
    header, rows = read_csv(out / "index_stats.csv")
    assert header == ["discipline", "db", "index", "n", "min", "max", "median", "mean", "sd"]
    assert {r[0] for r in rows} == {"casebook", "all"}
    payload = json.loads((out / "index_report.json").read_text())
    assert payload["report"] == "index_report"
    assert payload["rows"][0]["db"] == "scopus"


def test_empty_roster_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    (data / "roster.csv").write_text(
        "author_key,orcid,researcher_id,scopus_id,discipline,display_name\n"
    )
    assert main(["index", *args_for(data, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"scimetrics: SchemaError: roster {data / 'roster.csv'}: empty roster\n"
    )


def test_empty_export_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    (data / "records_scopus.csv").write_bytes(b"")  # 0 bytes, as from /dev/null
    assert main(["index", *args_for(data, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"scimetrics: SchemaError: records export {data / 'records_scopus.csv'} (scopus):"
        " empty input: no header row\n"
    )


def test_roster_without_a_required_column_names_the_roster(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    (data / "roster.csv").write_text("author_key,discipline\na1,physics\n")
    assert main(["index", *args_for(data, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"scimetrics: SchemaError: roster {data / 'roster.csv'}: missing required"
        " column(s): orcid, researcher_id, scopus_id, display_name\n"
    )


def test_blank_roster_author_key_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    lines = (data / "roster.csv").read_text().splitlines()
    lines[2] = " " + lines[2][len("a2"):]
    (data / "roster.csv").write_text("\n".join(lines) + "\n")
    assert main(["index", *args_for(data, tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"scimetrics: SchemaError: roster {data / 'roster.csv'}: roster row 2: missing author_key\n"
    )


ROSTER_HEADER = b"author_key,orcid,researcher_id,scopus_id,discipline,display_name\n"
BAD_ROSTERS = {
    "missing_column": (
        "roster.csv",
        b"author_key,discipline\na1,casebook\n",
        "missing required column(s): orcid, researcher_id, scopus_id, display_name",
    ),
    "bad_utf8": (
        "roster.csv",
        ROSTER_HEADER + b"a1,,,,casebook,\na2,,,,casebook,\xff\n",
        "input is not valid UTF-8 at line 3: invalid start byte",
    ),
    "invalid_json": (
        "roster.JSON",
        b'[{"author_key": "a1",]',
        "invalid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 22 (char 21)",
    ),
    "blank_key": (
        "roster.csv",
        ROSTER_HEADER + b"a1,,,,casebook,\n ,,,,casebook,\n",
        "roster row 2: missing author_key",
    ),
    "duplicate_key": (
        "roster.csv",
        ROSTER_HEADER + b"a1,,,,casebook,\na1,,,,casebook,\n",
        "roster row 2: duplicate author_key 'a1'",
    ),
    "header_only": ("roster.csv", ROSTER_HEADER, "empty roster"),
}


@pytest.mark.parametrize("case", sorted(BAD_ROSTERS))
def test_every_roster_diagnostic_names_the_roster_once(case, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    name, content, message = BAD_ROSTERS[case]
    roster = data / name
    roster.write_bytes(content)
    args = args_for(data, tmp_path / "out")
    args[args.index("--roster") + 1] = str(roster)
    assert main(["index", *args]) == 2
    err = capsys.readouterr().err
    assert err == f"scimetrics: SchemaError: roster {roster}: {message}\n"
    assert err.count(str(roster)) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "{",
            "config file {}: Expecting property name enclosed in double quotes:"
            " line 1 column 2 (char 1)",
        ),
        ("[]", "config file {}: must hold a JSON object"),
    ],
    ids=["invalid_json", "array"],
)
def test_config_file_without_a_json_object_exits_2(text, message, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    assert main(["index", *args_for(data, tmp_path / "out", "--config", str(cfg_path))]) == 2
    assert capsys.readouterr().err == f"scimetrics: ConfigError: {message.format(cfg_path)}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [False, True], ids=["flags", "config_file"])
def test_run_without_a_roster_exits_2(config, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    args = args_for(data, tmp_path / "out")
    del args[args.index("--roster") : args.index("--roster") + 2]
    if config:  # the file names the exports, but no roster either
        cfg_path = tmp_path / "run.json"
        records = {tag: str(data / f"records_{tag}.csv") for tag in ("scopus", "wos")}
        cfg_path.write_text(json.dumps({"records": records}))
        args = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(["index", *args]) == 2
    assert capsys.readouterr().err == (
        "scimetrics: ConfigError: --roster (config key 'roster') is required\n"
    )
    assert not (tmp_path / "out").exists()


def test_missing_input_exits_1(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    (data / "records_wos.csv").unlink()
    assert main(["index", *args_for(data, tmp_path / "out")]) == 1
    assert "i/o error" in capsys.readouterr().err


def test_schema_failure_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    (data / "records_scopus.csv").write_text("author_key,citations\na1,5\n")
    assert main(["index", *args_for(data, tmp_path / "out")]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_unknown_author_mentions_reject_report(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    with open(data / "records_scopus.csv", "a") as fh:
        fh.write("ghost,10.1/g.1,5,scopus\n")  # unknown author: fails profile build
        fh.write("a1,,5,scopus\n")  # rejected row: reject report gets written
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out)]) == 2
    err = capsys.readouterr().err
    assert "UnknownAuthor" in err
    assert str(out / "rejects_scopus.csv") in err


def test_reject_report_contents(tmp_path):
    data = write_golden_fixture(tmp_path)
    with open(data / "records_scopus.csv", "a") as fh:
        fh.write("a1,,5,scopus\na2,bad,1,scopus\n")
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out)]) == 0
    header, rows = read_csv(out / "rejects_scopus.csv")
    assert header == ["row", "author_key", "reason"]
    assert [r[2] for r in rows] == ["missing doi", "malformed doi"]
    assert not (out / "rejects_wos.csv").exists()


HOSTILE_EXPORTS = {
    "json_huge_integer": (
        "records_scopus.json",
        '[{"author_key": "a1", "doi": "10.1/x", "citations": ' + "9" * 5000 + "}]",
    ),
    "json_deep_nesting": ("records_scopus.json", "[" * 100_000 + "]" * 100_000),
    "csv_huge_field": (
        "records_scopus.csv",
        "author_key,doi,citations\na1,10.1/" + "x" * 140_000 + ",5\n",
    ),
    "csv_10_mb_line_without_newline": (
        "records_scopus.csv",
        "author_key,doi,citations\n" + "x" * 10**7,
    ),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_EXPORTS))
def test_hostile_export_exits_2_without_traceback(case, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    name, text = HOSTILE_EXPORTS[case]
    (data / name).write_text(text)
    args = args_for(data, tmp_path / "out")
    args[1] = f"{data / name}@scopus"
    assert main(["index", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scimetrics: SchemaError: ")
    assert err.count("\n") == 1


def test_citation_counts_above_the_bound_are_rejected_not_summed(tmp_path, capsys):
    # Each count is within int()'s 4300-digit limit, but their sum is not, so
    # accepting both made the overlap total unprintable.
    data = tmp_path / "data"
    shutil.copytree(SYNTHETIC, data)
    huge = "9" * 4300
    with open(data / "records_scopus.csv", "a") as fh:
        fh.write(f"a001,10.5555/huge.0,{huge},scopus\na001,10.5555/huge.1,{huge},scopus\n")
    assert main(["overlap", *args_for(SYNTHETIC, tmp_path / "plain")]) == 0
    assert main(["overlap", *args_for(data, tmp_path / "huge")]) == 0
    capsys.readouterr()
    _, plain = read_csv(tmp_path / "plain" / "rejects_scopus.csv")
    _, rows = read_csv(tmp_path / "huge" / "rejects_scopus.csv")
    n = len(read_csv(SYNTHETIC / "records_scopus.csv")[1])
    assert rows == [*plain, *([str(n + i), "a001", "invalid citations"] for i in (1, 2))]
    report = "overlap.csv"
    assert (tmp_path / "huge" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes()


def as_json_fixture(data, renamed):
    """The synthetic fixture as JSON in ``data``, with author keys renamed."""
    for name in ("records_scopus", "records_wos", "roster"):
        rows = [
            {**row, "author_key": renamed.get(row["author_key"], row["author_key"])}
            for row in csv.DictReader(io.StringIO((SYNTHETIC / f"{name}.csv").read_text()))
        ]
        (data / f"{name}.json").write_text(json.dumps(rows))
    return [
        "--records", f"{data / 'records_scopus.json'}@scopus",
        "--records", f"{data / 'records_wos.json'}@wos",
        "--roster", str(data / "roster.json"),
        "--out", str(data / "out"),
    ]


def test_lone_surrogate_author_key_in_json_inputs_exits_2(tmp_path, capsys):
    # A JSON "\ud800" escape decodes to a str that UTF-8 cannot encode; it
    # used to reach write_csv and end in a UnicodeEncodeError traceback.
    args = as_json_fixture(tmp_path, {"a001": "\ud800x"})
    assert main(["index", *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        f"scimetrics: SchemaError: roster {tmp_path / 'roster.json'}: roster row 1:"
        " author_key must be a string of UTF-8 text"
    )
    assert [line for line in err if "reject report" not in line] == err[:1]
    for tag in ("scopus", "wos"):
        _, records = read_csv(SYNTHETIC / f"records_{tag}.csv")
        _, rows = read_csv(tmp_path / "out" / f"rejects_{tag}.csv")
        renamed = [str(i) for i, row in enumerate(records, 1) if row[0] == "a001"]
        assert renamed
        expected = [[i, "", "invalid author_key"] for i in renamed]
        assert [r for r in rows if r[0] in renamed] == expected


def test_utf8_bom_is_accepted(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(SYNTHETIC, data)
    path = data / "records_scopus.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert main(["index", *args_for(SYNTHETIC, tmp_path / "plain")]) == 0
    assert main(["index", *args_for(data, tmp_path / "bom")]) == 0
    report = "index_report.csv"
    assert (tmp_path / "bom" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes()


# ---------------------------------------------------------------------------
# report commands on the frozen synthetic fixture
# ---------------------------------------------------------------------------

def test_overlap_table_shape(tmp_path):
    out = tmp_path / "out"
    assert main(["overlap", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "overlap.csv")
    assert header == [
        "discipline",
        "author_count",
        "db",
        "total_pubs",
        "unique_pubs",
        "pubs_received_citations",
        "total_citations",
        "common_pubs",
    ]
    # 5 disciplines + global scope, two database rows each
    assert len(rows) == 12
    assert rows[-2][0] == rows[-1][0] == "all"
    for a_row, b_row in zip(rows[0::2], rows[1::2]):
        assert a_row[0] == b_row[0]
        assert a_row[7] == b_row[7]  # common count shared by the scope's rows
        for row in (a_row, b_row):
            assert int(row[3]) == int(row[4]) + int(row[7])  # total = unique + common


def test_overlap_proportions_sum_to_one(tmp_path):
    out = tmp_path / "out"
    assert main(["overlap", *args_for(SYNTHETIC, out, "--rounding", "raw")]) == 0
    header, rows = read_csv(out / "overlap_proportions.csv")
    assert header == ["discipline", "denominator", "series", "share", "share_pct"]
    by_scope = {}
    for scope, denom, series, share, _ in rows:
        if denom == "union":
            by_scope.setdefault(scope, 0.0)
            by_scope[scope] += float(share)
    assert by_scope and all(abs(total - 1.0) < 1e-12 for total in by_scope.values())


def test_scope_without_publications_has_overlap_rows_but_no_shares(tmp_path):
    data = write_golden_fixture(tmp_path)
    with open(data / "roster.csv", "a") as fh:
        fh.write("a4,0000-0004,R-4,7004,unpublished,Author 4\n")  # no row in either export
    out = tmp_path / "out"
    assert main(["overlap", *args_for(data, out)]) == 0
    _, rows = read_csv(out / "overlap.csv")
    assert [row for row in rows if row[0] == "unpublished"] == [
        ["unpublished", "1", tag, "0", "0", "0", "0", "0"] for tag in ("scopus", "wos")
    ]
    _, prop_rows = read_csv(out / "overlap_proportions.csv")
    assert [row[0] for row in prop_rows] == ["casebook"] * 7 + ["all"] * 7
    payload = json.loads((out / "overlap_proportions.json").read_text())
    assert {row["discipline"] for row in payload["rows"]} == {"casebook", "all"}


def test_rank_outputs_are_ranked(tmp_path):
    out = tmp_path / "out"
    assert main(["rank", "--key", "g", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "rank_g.csv")
    assert header == ["discipline", "db", "rank", "author_key", "h", "g", "h_cite", "k", "h_c"]
    scoped = {}
    for row in rows:
        scoped.setdefault((row[0], row[1]), []).append((int(row[2]), row[3], int(row[5])))
    for (scope, _), entries in scoped.items():
        ranks = [rank for rank, _, _ in entries]
        assert ranks == list(range(1, len(entries) + 1))
        values = [g for _, _, g in entries]
        assert values == sorted(values, reverse=True)
        expected_n = 60 if scope == "all" else 12
        assert len(entries) == expected_n
    plot_header, plot_rows = read_csv(out / "rank_g_plot.csv")
    assert plot_header == ["series", "x", "y"]
    assert len(plot_rows) == len(rows)


def test_bins_table_shape_and_values(tmp_path):
    out = tmp_path / "out"
    assert main(["bins", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "author_bins.csv")
    assert header[:2] == ["discipline", "db"]
    assert header[2:] == [
        f"{prefix}_{label}"
        for label in ("0-10", "11-20", "21-30", "31-40", "41-50", "51+")
        for prefix in ("h", "hc")
    ]
    for row in rows:
        h_total = sum(float(v) for v in row[2::2])
        hc_total = sum(float(v) for v in row[3::2])
        assert abs(h_total - 100.0) < 0.5  # one-decimal rounding per cell
        assert abs(hc_total - 100.0) < 0.5


def test_bins_round_exact_ties_half_up(tmp_path):
    # 23 of 80 authors in 0-10 is exactly 28.75%, and 57 of 80 in 11-20 is 71.25%.
    roster = ["author_key,orcid,researcher_id,scopus_id,discipline,display_name"]
    records = ["author_key,doi,citations"]
    for i in range(80):
        key = f"a{i:02d}"
        roster.append(f"{key},,,,physics,")
        papers = 1 if i < 23 else 11  # h = 1 or h = 11
        records += [f"{key},10.1/{key}.{n},11" for n in range(papers)]
    (tmp_path / "roster.csv").write_text("\n".join(roster) + "\n")
    for tag in ("scopus", "wos"):
        (tmp_path / f"records_{tag}.csv").write_text("\n".join(records) + "\n")
    out = tmp_path / "out"
    assert main(["bins", *args_for(tmp_path, out)]) == 0
    header, rows = read_csv(out / "author_bins.csv")
    assert len(rows) == 4  # physics and all, per database
    for row in rows:
        cells = dict(zip(header, row))
        assert (cells["h_0-10"], cells["h_11-20"]) == ("28.8", "71.3")


def oracle_half_up_pct(count, total):
    """One-decimal percentage, ties up, in exact rational arithmetic."""
    return math.floor(Fraction(1000 * count, total) + Fraction(1, 2)) / 10


def test_pct_half_up_matches_fraction_oracle():
    config = RunConfig(records={}, roster=Path(), out_dir=Path())
    # A one-decimal tie 1000*c/n = k + 1/2 needs 16 | n, since 2000*c = (2k+1)*n.
    ties = [
        (c, n) for n in range(16, 3001, 16) for c in range(n + 1) if 2000 * c % (2 * n) == n
    ]
    assert len(ties) == 4600
    for c, n in ties:
        assert _pct(config, c, n) == oracle_half_up_pct(c, n), (c, n)
    for n in range(1, 161):
        for c in range(n + 1):
            assert _pct(config, c, n) == oracle_half_up_pct(c, n), (c, n)
    assert _pct(config, 0, 0) == 0.0


def test_pct_raw_is_one_correctly_rounded_division():
    config = RunConfig(records={}, roster=Path(), out_dir=Path(), rounding="raw")
    for n in range(1, 161):
        for c in range(n + 1):
            assert _pct(config, c, n) == float(Fraction(100 * c, n)), (c, n)
    assert _pct(config, 0, 0) == 0.0
    # A share times 100 rounds twice and misses the nearest double.
    assert 1 / 12 * 100.0 == 8.333333333333332
    assert _pct(config, 1, 12) == 8.333333333333334


# The half-way points (k + 1/2) / 100 between two-place values, squared:
# 100 * |rho| rounds half-up to the number of them that rho**2 reaches.
RHO_HALVES_SQUARED = [Fraction((2 * k + 1) ** 2, 40000) for k in range(100)]


def oracle_half_up_rho(sxy, sxx, syy):
    """Two-place |rho| in hundredths, ties away from zero, and rho's sign.

    Only squares are compared, as exact fractions, so no float enters.
    """
    m = bisect.bisect_right(RHO_HALVES_SQUARED, Fraction(sxy * sxy, sxx * syy))
    return m, -1.0 if sxy < 0 else 1.0


def assert_half_up_rho(sums):
    config = RunConfig(records={}, roster=Path(), out_dir=Path())
    m, sign = oracle_half_up_rho(*sums)
    rho = _rho(config, *sums)
    assert (abs(rho), math.copysign(1.0, rho)) == (m / 100, sign), sums


def test_rho_half_up_matches_fraction_oracle_on_small_bins():
    rng = random.Random(28)
    seen, ties = set(), set()
    halves = set(RHO_HALVES_SQUARED)
    for _ in range(20000):
        span = rng.choice((2, 3, 5, 10, 30))
        pairs = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(rng.randint(2, 12))]
        sums = spearman_sums(pairs)
        if sums is None or sums in seen:
            continue
        seen.add(sums)
        assert_half_up_rho(sums)
        sxy, sxx, syy = sums
        if Fraction(sxy * sxy, sxx * syy) in halves:
            ties.add(sums)
    # Every exact tie found rounds away from zero, as these do.
    assert len(seen) > 10000 and len(ties) >= 20
    config = RunConfig(records={}, roster=Path(), out_dir=Path())
    assert {(4, 32, 32), (-4, 32, 32), (-28, 32, 32), (57, 200, 200)} <= ties
    assert [_rho(config, *sums) for sums in [(4, 32, 32), (-4, 32, 32), (-28, 32, 32)]] == [
        0.13, -0.13, -0.88
    ]
    assert _rho(config, 57, 200, 200) == 0.29
    # In bins of up to 12 authors sxx, syy <= 12 * 143 / 3 = 572, so a rho that
    # is no half-way point lies at least 1 / (80000 * 572**2), about 3.8e-11,
    # from one: far beyond a float rho's rounding error. A search of 300,000
    # such bins found no cell where rounding the float's shortest repr half-up
    # gives another value.


def test_rho_cell_keeps_its_sign_and_exact_ends():
    half_up = RunConfig(records={}, roster=Path(), out_dir=Path())
    raw = half_up._replace(rounding="raw")
    tiny = [(0, 23), (19, 23), (23, 7), (29, 13), (22, 2), (24, 26), (29, 10), (16, 9), (19, 10)]
    zero = [(20, 12), (11, 9), (11, 29)]
    assert spearman_sums(tiny) == (-1, 236, 236) and spearman_sums(zero) == (0, 6, 8)
    assert math.copysign(1.0, _rho(half_up, -1, 236, 236)) == -1.0  # -1/236 prints -0.0
    assert math.copysign(1.0, _rho(half_up, 0, 6, 8)) == 1.0
    for sums in [(-1, 236, 236), (0, 6, 8), (2, 3, 4)]:
        assert_half_up_rho(sums)
        sxy, sxx, syy = sums
        assert _rho(raw, *sums) == sxy / math.sqrt(sxx * syy) == rho_of(*sums)
    for pairs, end in [([(1, 1), (2, 2), (3, 3)], 1.0), ([(1, 3), (2, 2), (3, 1)], -1.0)]:
        sums = spearman_sums(pairs)
        assert _rho(half_up, *sums) == _rho(raw, *sums) == end


def test_corr_table_absent_cells(tmp_path):
    out = tmp_path / "out"
    assert main(["corr", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "rank_correlation.csv")
    assert header == ["discipline", "db", "0-10", "11-20", "21-30", "31-40", "41-50", "51+"]
    # single-author bins exist in the fixture, so some cells must be absent
    cells = [cell for row in rows for cell in row[2:]]
    assert "-" in cells
    for cell in cells:
        if cell != "-":
            assert -1.0 <= float(cell) <= 1.0
    payload = json.loads((out / "rank_correlation.json").read_text())
    assert payload["footnotes"]
    assert any(v is None for row in payload["rows"] for v in row.values())


def test_deviation_values(tmp_path):
    out = tmp_path / "out"
    assert main(["deviation", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "index_deviation.csv")
    assert header == ["discipline", "index", "sd"]
    assert {row[1] for row in rows} == {"h", "h_c"}
    assert all(float(row[2]) >= 0.0 for row in rows)
    assert len(rows) == 12  # (5 disciplines + all) x 2 indices


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="statistics.stdev is correctly rounded from 3.11"
)
def test_index_stats_and_deviation_match_statistics_oracle(tmp_path):
    """Both tables recomputed from index_report.csv: n, min, max, median, mean
    and sample sd of each index per scope and database, and the sample sd of
    the per-author first-minus-second database difference per scope."""
    out = tmp_path / "out"
    for command in ("index", "deviation"):
        assert main([command, *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "index_report.csv")
    # scope -> author -> db -> index -> value; every author is also in "all".
    values = defaultdict(lambda: defaultdict(dict))
    for row in rows:
        cells = dict(zip(header, row))
        indices = {key: int(cells[key]) for key in ("h", "h_c", "g")}
        for scope in (cells["discipline"], "all"):
            values[scope][cells["author_key"]][cells["db"]] = indices

    expected_stats = {}
    expected_deviation = {}
    for scope, authors in values.items():
        for db in ("scopus", "wos"):
            for key in ("h", "h_c", "g"):
                v = [dbs[db][key] for dbs in authors.values()]
                expected_stats[scope, db, key] = [
                    str(len(v)), str(min(v)), str(max(v)),
                    repr(float(statistics.median(v))),
                    repr(float(statistics.mean(v))),
                    repr(statistics.stdev(v)),
                ]
        for key in ("h", "h_c"):
            diffs = [dbs["scopus"][key] - dbs["wos"][key] for dbs in authors.values()]
            expected_deviation[scope, key] = [repr(statistics.stdev(diffs))]

    _, stats_rows = read_csv(out / "index_stats.csv")
    assert len(stats_rows) == 6 * 2 * 3  # (5 disciplines + all) x 2 dbs x 3 indices
    assert {tuple(r[:3]): r[3:] for r in stats_rows} == expected_stats
    _, deviation_rows = read_csv(out / "index_deviation.csv")
    assert len(deviation_rows) == 6 * 2
    assert {tuple(r[:2]): r[2:] for r in deviation_rows} == expected_deviation


def test_deviation_identical_databases_is_zero(tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    assert main(["deviation", *args_for(data, out)]) == 0
    _, rows = read_csv(out / "index_deviation.csv")
    assert {row[2] for row in rows} == {"0.0"}


def test_deviation_single_author_scope_is_absent(tmp_path):
    data = write_golden_fixture(tmp_path)
    roster = (data / "roster.csv").read_text().splitlines()
    roster[1] = roster[1].replace("casebook", "solo")  # a1 now alone in 'solo'
    (data / "roster.csv").write_text("\n".join(roster) + "\n")
    out = tmp_path / "out"
    assert main(["deviation", *args_for(data, out)]) == 0
    _, rows = read_csv(out / "index_deviation.csv")
    assert rows == [
        ["casebook", "h", "0.0"],
        ["casebook", "h_c", "0.0"],
        ["solo", "h", "-"],
        ["solo", "h_c", "-"],
        ["all", "h", "0.0"],
        ["all", "h_c", "0.0"],
    ]
    payload = json.loads((out / "index_deviation.json").read_text())
    assert [row["sd"] for row in payload["rows"]] == [0.0, 0.0, None, None, 0.0, 0.0]
    _, plot_rows = read_csv(out / "index_deviation_plot.csv")
    assert [row[1] for row in plot_rows] == ["casebook", "casebook", "all", "all"]


def test_density_mass_is_one_per_series(tmp_path):
    out = tmp_path / "out"
    width = 5
    assert main(["density", *args_for(SYNTHETIC, out)]) == 0
    header, rows = read_csv(out / "density.csv")
    assert header == ["series", "x", "y"]
    mass = {}
    for series, _, y in rows:
        mass[series] = mass.get(series, 0.0) + float(y) * width
    assert len(mass) == 24  # (5 disciplines + all) x 2 dbs x 2 indices
    assert all(abs(total - 1.0) < 1e-12 for total in mass.values())


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_env_var_default_out_dir(tmp_path, monkeypatch):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "from_env"
    monkeypatch.setenv("SCIMETRICS_OUT", str(out))
    args = args_for(data, out)
    del args[args.index("--out") : args.index("--out") + 2]
    assert main(["index", *args]) == 0
    assert (out / "index_report.csv").exists()


def test_empty_env_var_out_dir_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a value read as unset would write to ./out
    monkeypatch.setenv("SCIMETRICS_OUT", "")
    data = write_golden_fixture(tmp_path)
    args = args_for(data, tmp_path / "out")
    del args[args.index("--out") : args.index("--out") + 2]
    assert main(["index", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scimetrics: ConfigError: invalid $SCIMETRICS_OUT: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_format_selection(tmp_path):
    data = write_golden_fixture(tmp_path)
    out_csv = tmp_path / "csv_only"
    assert main(["index", *args_for(data, out_csv, "--format", "csv")]) == 0
    assert (out_csv / "index_report.csv").exists()
    assert not (out_csv / "index_report.json").exists()
    out_json = tmp_path / "json_only"
    assert main(["index", *args_for(data, out_json, "--format", "json")]) == 0
    assert not (out_json / "index_report.csv").exists()
    assert (out_json / "index_report.json").exists()


def test_custom_bins_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["bins", *args_for(SYNTHETIC, out, "--bins", "0-20,21-40,41+")]) == 0
    header, _ = read_csv(out / "author_bins.csv")
    assert header[2:] == ["h_0-20", "hc_0-20", "h_21-40", "hc_21-40", "h_41+", "hc_41+"]


def test_bad_bins_flag_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    assert main(["bins", *args_for(data, tmp_path / "out", "--bins", "5-10,11+")]) == 2
    assert "invalid --bins" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["0-1_0,1_1+", "0-10,11-\u0662\u0660,21+", "0-10,+11-20,21+"])
def test_bins_flag_with_non_ascii_digit_bound_exits_2(tmp_path, capsys, spec):
    data = write_golden_fixture(tmp_path)
    assert main(["bins", *args_for(data, tmp_path / "out", "--bins", spec)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid --bins" in err
    assert not (tmp_path / "out" / "author_bins.csv").exists()


def test_bins_flag_bound_with_a_second_dash_exits_2(tmp_path, capsys):
    # A bin splits at its first "-" only, so the rest is one bound.
    data = write_golden_fixture(tmp_path)
    assert main(["bins", *args_for(data, tmp_path / "out", "--bins", "0-10-5,11+")]) == 2
    assert capsys.readouterr().err == (
        "scimetrics: ConfigError: invalid --bins (config key 'bins'):"
        " bin bound must be ASCII digits, got '10-5'\n"
    )


def test_density_width_flag(tmp_path):
    out = tmp_path / "out"
    assert main(["density", *args_for(SYNTHETIC, out, "--density-width", "10")]) == 0
    _, rows = read_csv(out / "density.csv")
    assert all(float(x) % 10 == 5.0 for _, x, _ in rows)  # centers on width 10


def test_declared_disciplines_must_cover_roster(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    assert (
        main(["index", *args_for(data, tmp_path / "out", "--disciplines", "physics")])
        == 2
    )
    assert "casebook" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["roster", "declared"])
def test_global_scope_name_is_reserved(where, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    extra = ("--disciplines", "casebook,all")
    if where == "roster":
        roster = (data / "roster.csv").read_text()
        (data / "roster.csv").write_text(roster.replace(",casebook,", ",all,"))
        extra = ()
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out, *extra)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'all' is reserved" in err
    assert not (out / "index_stats.csv").exists()


def test_config_file_with_flag_override(tmp_path):
    data = write_golden_fixture(tmp_path)
    cfg = {
        "records": {
            "scopus": str(data / "records_scopus.csv"),
            "wos": str(data / "records_wos.csv"),
        },
        "roster": str(data / "roster.csv"),
        "out": str(tmp_path / "from_file"),
        "format": "csv",
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["index", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_file" / "index_report.csv").exists()
    # flag overrides the file's out dir
    override = tmp_path / "flag_wins"
    assert main(["index", "--config", str(cfg_path), "--out", str(override)]) == 0
    assert (override / "index_report.csv").exists()


def test_records_flag_requires_tag(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    code = main(
        [
            "index",
            "--records",
            f"{data}/records_scopus.csv",
            "--roster",
            f"{data}/roster.csv",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "path>@<dbtag" in capsys.readouterr().err


def test_requires_exactly_two_databases(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    code = main(
        [
            "index",
            "--records",
            f"{data}/records_scopus.csv@scopus",
            "--roster",
            f"{data}/roster.csv",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "exactly two database tags" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value",
    [
        {"density_width": "abc"},
        {"density_width": 2.5},
        {"density_width": True},
        {"records": {"scopus": 5}},
        {"disciplines": 5},
        {"bins": 5},
        {"roster": 5},
        {"out": 5},
        {"rounding": False},
        {"rounding": 0},
        {"rounding": {}},
        {"format": 0},
        {"format": []},
        {"bins": ""},
        {"out": ""},
        {"records": {"scopus": ""}},
        {"records": {"": "records.csv"}},
        {"density-width": 10},
        {"out": "\ud800"},  # a lone surrogate: no file name can hold it
        {"roster": "r\udfff.csv"},
        {"bins": "0-10,11\ud800+"},
        {"records": {"scopus": "a.csv", "\ud800": "b.csv"}},
        {"out": "o\u0000ut"},  # a NUL: no file name can hold it either
        {"roster": "r\u0000.csv"},
        {"records": {"scopus": "a\u0000.csv", "wos": "b.csv"}},
        {"records": {"x\u0000y": "a.csv", "wos": "b.csv"}},
    ],
    ids=[
        "density_width", "density_width_fraction", "density_width_bool", "records",
        "disciplines", "bins", "roster", "out", "rounding_false", "rounding_zero",
        "rounding_object", "format_zero", "format_list", "bins_empty", "out_empty",
        "records_empty_path", "records_empty_tag", "unknown_key", "out_surrogate",
        "roster_surrogate", "bins_surrogate", "records_surrogate_tag", "out_nul",
        "roster_nul", "records_nul_path", "records_nul_tag",
    ],
)
def test_config_value_of_wrong_type_exits_2(value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a value read as unset would write to ./out
    data = write_golden_fixture(tmp_path)
    cfg = {
        "records": {
            "scopus": str(data / "records_scopus.csv"),
            "wos": str(data / "records_wos.csv"),
        },
        "roster": str(data / "roster.csv"),
        "out": str(tmp_path / "out"),
        **value,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["index", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scimetrics: ConfigError: ")
    assert err.count("\n") == 1
    assert repr(next(iter(value))) in err  # the diagnostic names the key


@pytest.mark.parametrize(
    "flag, value",
    [(",", None), ("", None), (None, []), (None, " , "), (None, [""]), (None, [" ", ""])],
    ids=[
        "flag_commas",
        "flag_empty",
        "config_empty_list",
        "config_commas",
        "config_empty_name",
        "config_blank_names",
    ],
)
def test_empty_discipline_set_exits_2(flag, value, tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({} if value is None else {"disciplines": value}))
    extra = ["--config", str(cfg_path)]
    if flag is not None:
        extra += ["--disciplines", flag]
    assert main(["index", *args_for(data, tmp_path / "out", *extra)]) == 2
    err = capsys.readouterr().err
    assert err == "scimetrics: ConfigError: declared discipline set must be non-empty\n"


@pytest.mark.parametrize("flag", ["--bins", "--out", "--config"])
def test_empty_flag_value_exits_2(flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a value read as unset would write to ./out
    monkeypatch.delenv("SCIMETRICS_OUT", raising=False)
    data = write_golden_fixture(tmp_path)
    args = args_for(data, tmp_path / "out")
    if flag in args:
        del args[args.index(flag) : args.index(flag) + 2]
    assert main(["bins", *args, flag, ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scimetrics: ConfigError: invalid {flag}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_undecodable_argv_bytes_name_a_path_but_no_database_tag(tmp_path, capsys):
    # Bytes of a command-line argument that are not UTF-8 arrive as surrogate
    # escapes: a file can be named with them, a report cannot hold them.
    assert config_of([*BASE_ARGS, "--out", "o\udcff"]).out_dir == Path(os.fsdecode(b"o\xff"))
    data = write_golden_fixture(tmp_path)
    args = args_for(data, tmp_path / "out")
    args[3] += "\udcff"
    capsys.readouterr()
    assert main(["index", *args]) == 2
    assert capsys.readouterr().err == (
        "scimetrics: ConfigError: invalid --records tag (config key 'records'):"
        " cannot be encoded as UTF-8, got 'wos\\udcff'\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tag", ["x/../../escaped", "w/o", "x\0y"])
def test_database_tag_that_cannot_name_a_file_exits_2(tag, tmp_path, capsys, monkeypatch):
    # A tag names its reject report, rejects_<tag>.csv in --out: a path
    # separator would put that file elsewhere, and a NUL names no file. Every
    # scopus row's source differs from the tag, so a run would write the report.
    monkeypatch.chdir(tmp_path)
    data = write_golden_fixture(tmp_path)
    args = args_for(data, tmp_path / "out")
    args[1] = f"{data}/records_scopus.csv@{tag}"
    cfg = {"records": {tag: args[1].rpartition("@")[0], "wos": f"{data}/records_wos.csv"}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    for argv in (args, [*args[4:], "--config", str(cfg_path)]):
        assert main(["index", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scimetrics: ConfigError: invalid --records tag (config key")
        assert err.count("\n") == 1 and repr(tag) in err
    written = sorted(os.listdir(tmp_path))  # no out/, and nothing beside it
    assert written == ["records_scopus.csv", "records_wos.csv", "roster.csv", "run.json"]


def test_database_tag_with_the_alternative_separator_is_refused(monkeypatch):
    monkeypatch.setattr(os, "altsep", "\\")  # as on Windows
    with pytest.raises(ConfigError, match="path separator"):
        config_of(["--records", "a.csv@scopus", "--records", "b.csv@w\\o", "--roster", "r.csv"])


def test_non_utf8_out_dir_is_printed_escaped_under_a_strict_stdout(tmp_path, monkeypatch):
    # A strict UTF-8 stdout cannot encode the surrogate escape of a file-name
    # byte that is not UTF-8; each "wrote" line escapes it instead.
    data = write_golden_fixture(tmp_path)
    with open(data / "records_scopus.csv", "a") as fh:
        fh.write("a1,,1,scopus\n")  # a missing DOI: one reject, so a reject report
    out = tmp_path / os.fsdecode(b"o\xff")
    buffer = io.BytesIO()
    stdout = io.TextIOWrapper(buffer, encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["index", *args_for(data, out)]) == 0
    stdout.flush()
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(
        ["rejects_scopus.csv", "index_report.csv", "index_report.json",
         "index_stats.csv", "index_stats.json"]
    )
    escaped = str(out).replace("\udcff", "\\udcff")
    lines = buffer.getvalue().decode("utf-8").splitlines()
    assert sorted(lines) == sorted(f"wrote {escaped}/{name}" for name in written)


class ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_leaves_the_whole_family_written(tmp_path, capsys, monkeypatch):
    # Every "wrote" line, the reject report's first, is printed once the
    # family's files are all written. The i/o error names the reject report
    # on stderr, as a schema error does.
    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    out = tmp_path / "out"
    assert main(["index", *args_for(SYNTHETIC, out)]) == 1
    assert sorted(p.name for p in out.iterdir()) == [
        "index_report.csv", "index_report.json", "index_stats.csv", "index_stats.json",
        "rejects_scopus.csv",
    ]
    assert capsys.readouterr().err.splitlines() == [
        "scimetrics: i/o error: [Errno 32] Broken pipe",
        f"scimetrics: reject report written to {out / 'rejects_scopus.csv'}",
    ]


def test_config_file_with_utf8_bom(tmp_path):
    data = write_golden_fixture(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"format": "csv"}).encode())
    out = tmp_path / "out"
    assert main(["index", *args_for(data, out, "--config", str(cfg_path))]) == 0
    assert (out / "index_report.csv").exists()
    assert not (out / "index_report.json").exists()


# key -> (flag text, config-file value) of one valid and one invalid value
VALID_SETTINGS = {
    "roster": ("s.csv", "s.csv"),
    "out": ("o", "o"),
    "format": ("csv", "csv"),
    "bins": ("0-2,3+", "0-2,3+"),
    "density_width": ("3", 3),
    "disciplines": (" b ,, a", [" b ", "", "a"]),  # each name stripped, empty ones dropped
    "rounding": ("raw", "raw"),
}
INVALID_SETTINGS = {
    "roster": ("", ""),
    "out": ("", ""),
    "format": ("xml", "xml"),
    "bins": ("5+", "5+"),
    "density_width": ("0", 0),
    "disciplines": (" , ", " , "),
    "rounding": ("up", "up"),
}
BASE_ARGS = ["--records", "a.csv@scopus", "--records", "b.csv@wos", "--roster", "r.csv"]


def config_of(argv):
    return build_config(build_parser().parse_args(["index", *argv]))


def setting_sources(key, flag_value, file_value, tmp_path):
    """(flag argv, config-file argv) that set ``key`` over the same base settings."""
    base = BASE_ARGS[:-2] if key == "roster" else BASE_ARGS
    cfg_path = tmp_path / f"{key}.json"
    cfg_path.write_text(json.dumps({key: file_value}))
    return [*base, "--" + key.replace("_", "-"), flag_value], [*base, "--config", str(cfg_path)]


def test_settings_table_is_covered():
    assert set(VALID_SETTINGS) == set(INVALID_SETTINGS) == set(SETTINGS)


@pytest.mark.parametrize("key", sorted(VALID_SETTINGS))
def test_valid_setting_is_the_same_from_flag_or_file(key, tmp_path, monkeypatch):
    monkeypatch.delenv("SCIMETRICS_OUT", raising=False)
    flag_argv, file_argv = setting_sources(key, *VALID_SETTINGS[key], tmp_path)
    from_flag, from_file = config_of(flag_argv), config_of(file_argv)
    assert from_flag == from_file
    assert hash(from_flag) == hash(from_file)
    field = SETTINGS[key].field or key
    assert getattr(from_flag, field) != getattr(config_of(BASE_ARGS), field)


@pytest.mark.parametrize("key", sorted(INVALID_SETTINGS))
def test_invalid_setting_is_rejected_from_flag_or_file(key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    errors = []
    for argv in setting_sources(key, *INVALID_SETTINGS[key], tmp_path):
        assert main(["index", *argv]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("scimetrics: ConfigError: ")
    assert errors[0].count("\n") == 1
    assert (repr(key) if key != "disciplines" else "discipline set") in errors[0]


# README "Running": a density width is at most 2^63 - 1 = 9223372036854775807.
WIDEST_DENSITY = 2**63 - 1


@pytest.mark.parametrize("too_wide", [WIDEST_DENSITY + 1, 10**400])
def test_density_width_above_the_bound_is_rejected_from_flag_or_file(
    too_wide, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    errors = []
    for argv in setting_sources("density_width", str(too_wide), too_wide, tmp_path):
        assert main(["density", *argv]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        "scimetrics: ConfigError: invalid --density-width (config key 'density_width'):"
        f" must be at most 9223372036854775807, got {too_wide}\n"
    )


def test_widest_density_width_gives_a_finite_series(tmp_path):
    out = tmp_path / "out"
    extra = ("--density-width", str(WIDEST_DENSITY))
    assert main(["density", *args_for(SYNTHETIC, out, *extra)]) == 0
    _, rows = read_csv(out / "density.csv")
    assert all(math.isfinite(float(x)) and 0 < float(y) < 1 for _, x, y in rows)


@pytest.mark.parametrize("width", ["1_0", "+5", "\u0665"])
def test_density_width_flag_takes_ascii_digits_only(width, tmp_path, capsys):
    # As a --bins bound: no underscore, no sign and no other script's digits.
    with pytest.raises(SystemExit) as info:
        main(["density", *args_for(SYNTHETIC, tmp_path / "out", "--density-width", width)])
    assert info.value.code == 2
    assert f"--density-width: invalid ascii_digits value: {width!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("width, step", [(" 7 ", 7), ("05", 5)])
def test_density_width_flag_strips_whitespace_and_leading_zeros(width, step, tmp_path):
    out = tmp_path / "out"
    assert main(["density", *args_for(SYNTHETIC, out, "--density-width", width)]) == 0
    _, rows = read_csv(out / "density.csv")
    assert rows and all(float(x) % step == step / 2 for _, x, _ in rows)


def test_records_order_is_database_order():
    scopus, wos = BASE_ARGS[:2], BASE_ARGS[2:4]
    first = config_of([*scopus, *wos, "--roster", "r.csv"])
    second = config_of([*wos, *scopus, "--roster", "r.csv"])
    assert first != second
    assert first.db_tags == ("scopus", "wos") and second.db_tags == ("wos", "scopus")
    assert len({first, second, first._replace()}) == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_exit_code_contract_per_command(command, tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    assert main([command, *args_for(data, out)]) == 0
    (data / "records_wos.csv").unlink()
    assert main([command, *args_for(data, out)]) == 1  # I/O failure
    write_golden_fixture(tmp_path)
    (data / "roster.csv").write_text(
        "author_key,orcid,researcher_id,scopus_id,discipline,display_name\n"
    )
    assert main([command, *args_for(data, out)]) == 2  # validation failure


def test_module_entry_point(tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "scimetrics", "index", *args_for(data, out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (out / "index_report.csv").exists()


# ---------------------------------------------------------------------------
# cohort columns
# ---------------------------------------------------------------------------

def _bench_cohorts():
    path = Path(__file__).resolve().parent.parent / "bench" / "cohorts.py"
    spec = importlib.util.spec_from_file_location("bench_cohorts", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("source", ["fixture", "cohort-sparse"])
def test_each_scope_cohort_holds_its_profiles_reports_as_columns(source, tmp_path):
    data = SYNTHETIC
    if source == "cohort-sparse":
        cohorts = _bench_cohorts()
        data = tmp_path / "data"
        cohorts.generate(dataclasses.replace(cohorts.WORKLOADS[source], authors=300), 7, data)
    pipeline = load_pipeline(config_of(args_for(data, tmp_path / "out")))
    assert list(pipeline.cohorts) == list(pipeline.scopes)
    tags = pipeline.config.db_tags
    shared = {}  # citation profile -> the one report object the load gave it
    for scope, profiles in pipeline.scopes.items():
        cohort = pipeline.cohorts[scope]
        assert (cohort.discipline, cohort.db_tags) == (scope, tags)
        assert cohort.keys == tuple(p.author_key for p in profiles)
        assert set(cohort.reports) == set(tags)
        for tag in tags:
            citations = [CitationProfile(p.per_db_publications[tag].values()) for p in profiles]
            # Each report computed afresh, one call per author, with no cache.
            assert cohort.reports[tag] == tuple(compute_hc(c) for c in citations)
            for profile, report in zip(citations, cohort.reports[tag]):
                assert shared.setdefault(profile, report) is report
    # The fixture's 120 profiles are distinct; cohort-sparse's repeat.
    assert (len(shared) < 2 * len(pipeline.scopes[GLOBAL_SCOPE])) == (source != "fixture")


# ---------------------------------------------------------------------------
# determinism and atomicity
# ---------------------------------------------------------------------------

def test_full_pipeline_byte_identical_across_runs(tmp_path):
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        for command in ALL_COMMANDS:
            assert main([command, *args_for(SYNTHETIC, out)]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_plain_main_calls_reload_inputs(tmp_path):
    data = write_golden_fixture(tmp_path)
    out = tmp_path / "out"
    report = out / "index_report.csv"
    assert main(["index", *args_for(data, out)]) == 0
    before = report.read_bytes()
    roster = (data / "roster.csv").read_text().splitlines()
    roster[1] = roster[1].replace("casebook", "solo")  # a1 moves discipline
    (data / "roster.csv").write_text("\n".join(roster) + "\n")
    assert main(["index", *args_for(data, out)]) == 0
    assert report.read_bytes() != before


def test_no_temp_files_left_behind(tmp_path):
    out = tmp_path / "out"
    for command in ALL_COMMANDS:
        assert main([command, *args_for(SYNTHETIC, out)]) == 0
    assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


# ---------------------------------------------------------------------------
# one argument parser per process
# ---------------------------------------------------------------------------

def test_full_run_builds_the_parser_once(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_full_analysis.py"
    spec = importlib.util.spec_from_file_location("run_full_analysis", script)
    run_full_analysis = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_full_analysis)
    cli._parser.cache_clear()
    assert run_full_analysis.run(SYNTHETIC, tmp_path / "out", []) == 0
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call; a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_a_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    calls = (
        ["rank", "--key", "nope", *args_for(data, tmp_path / "out")],
        ["rank", "--key", "g", *args_for(data, tmp_path / "out")],
        ["rank", "--help"],
        ["--help"],
    )
    reused = [outcome(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
