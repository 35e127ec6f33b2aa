"""A full run calls each stage as often as its design says, and no more.

One run of every report family over the synthetic fixture, with each
stage wrapped by ``unittest.mock.patch(..., wraps=...)`` at the module
attribute through which the program calls it: two exports are parsed once
each, and each of the fixture's 6 scopes (5 disciplines and the global
one) gets one cohort, one ranking per database and one overlap
classification. Every byte under ``--out`` is written by one report writer.
A load computes one index report per distinct citation profile, and a
second run computes them again.
"""

import importlib.util
import os
from collections import Counter
from pathlib import Path
from unittest import mock

import scimetrics.analytics
import scimetrics.cli
from scimetrics.indices import CitationProfile

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"

_spec = importlib.util.spec_from_file_location(
    "run_full_analysis", ROOT / "scripts" / "run_full_analysis.py"
)
run_full_analysis = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_full_analysis)

STAGES = (
    (scimetrics.cli, "parse_records"),
    (scimetrics.cli, "build_cohort"),
    (scimetrics.analytics, "rank_authors"),
    (scimetrics.cli, "classify_overlap"),
    (scimetrics.cli, "write_csv"),
    (scimetrics.cli, "write_json"),
)


def test_a_full_run_calls_each_stage_once_per_unit_of_work(tmp_path, capsys):
    out = tmp_path / "out"
    mocks = {}
    patches = [
        mock.patch.object(module, name, wraps=getattr(module, name)) for module, name in STAGES
    ]
    for (_, name), patch in zip(STAGES, patches):
        mocks[name] = patch.start()
    try:
        assert run_full_analysis.run(SYNTHETIC, out, []) == 0
    finally:
        for patch in patches:
            patch.stop()
    capsys.readouterr()

    parsed = [call.args for call in mocks["parse_records"].call_args_list]
    assert sorted(tag for _, tag in parsed) == ["scopus", "wos"]
    assert mocks["build_cohort"].call_count == 6
    assert len({call.args[0] for call in mocks["build_cohort"].call_args_list}) == 6
    assert mocks["rank_authors"].call_count == 12
    assert mocks["classify_overlap"].call_count == 6
    written = [
        call.args[0]
        for name in ("write_csv", "write_json")
        for call in mocks[name].call_args_list
    ]
    assert len(set(map(str, written))) == len(written)  # no file is written twice
    assert sum(map(os.path.getsize, written)) == sum(p.stat().st_size for p in out.iterdir())


# (author, discipline, scopus citations, wos citations): equal profiles in
# one database and across the two, in any paper order, and an empty
# profile in each database.
SHARED_PROFILES = (
    ("a1", "d1", (5, 3, 1), (1, 3, 5)),
    ("a2", "d1", (3, 1, 5), ()),
    ("a3", "d2", (), (2,)),
    ("a4", "d2", (), ()),
    ("a5", "d1", (2,), (7, 7)),
    ("a6", "d2", (7, 7), (2,)),
)


def write_shared_profiles(data):
    data.mkdir()
    roster = ["author_key,orcid,researcher_id,scopus_id,discipline,display_name"]
    records = {tag: ["author_key,doi,citations,source"] for tag in ("scopus", "wos")}
    for key, discipline, *citations in SHARED_PROFILES:
        roster.append(f"{key},,,,{discipline},{key}")
        for (tag, lines), counts in zip(records.items(), citations):
            lines += (f"{key},10.1/{key}.{j},{c},{tag}" for j, c in enumerate(counts))
    (data / "roster.csv").write_text("\n".join(roster) + "\n")
    for tag, lines in records.items():
        (data / f"records_{tag}.csv").write_text("\n".join(lines) + "\n")


def test_a_load_computes_one_report_per_distinct_profile(tmp_path, capsys):
    data = tmp_path / "data"
    write_shared_profiles(data)
    distinct = {CitationProfile(c) for _, _, *citations in SHARED_PROFILES for c in citations}
    assert len(distinct) == 4
    compute_hc = scimetrics.cli.compute_hc
    with mock.patch.object(scimetrics.cli, "compute_hc", wraps=compute_hc) as computed:
        for run in (1, 2):
            assert run_full_analysis.run(data, tmp_path / f"out{run}", []) == 0
            # A cache that outlived one load would leave the second run's count at 1.
            calls = Counter(call.args[0] for call in computed.call_args_list)
            assert calls == Counter(dict.fromkeys(distinct, run))
    capsys.readouterr()
