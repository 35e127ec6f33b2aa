"""CLI contract: flags, exit codes, report files, determinism."""

import json
import math
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from scimetrics.cli import _pct, main
from scimetrics.config import RunConfig

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
    assert "empty roster" in capsys.readouterr().err


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


def test_pct_raw_is_one_share_times_100():
    config = RunConfig(records={}, roster=Path(), out_dir=Path(), rounding="raw")
    for n in range(1, 161):
        for c in range(n + 1):
            assert _pct(config, c, n) == c / n * 100.0
    assert _pct(config, 0, 0) == 0.0


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


def test_deviation_single_author_cohort_exits_2(tmp_path, capsys):
    data = write_golden_fixture(tmp_path)
    roster = (data / "roster.csv").read_text().splitlines()
    roster[1] = roster[1].replace("casebook", "solo")  # a1 now alone in 'solo'
    (data / "roster.csv").write_text("\n".join(roster) + "\n")
    assert main(["deviation", *args_for(data, tmp_path / "out")]) == 2
    assert "DegenerateInput" in capsys.readouterr().err


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
    ],
    ids=["density_width", "density_width_fraction", "density_width_bool", "records", "disciplines", "bins", "roster", "out"],
)
def test_config_value_of_wrong_type_exits_2(value, tmp_path, capsys):
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


@pytest.mark.parametrize(
    "flag, value",
    [(",", None), ("", None), (None, []), (None, " , ")],
    ids=["flag_commas", "flag_empty", "config_empty_list", "config_commas"],
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
