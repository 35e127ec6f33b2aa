"""Self-test of the benchmark's correctness gate and generator.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import cohorts  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
from checks import oracle_indices  # noqa: E402

SMALL = dataclasses.replace(
    cohorts.WORKLOADS["cohort-deep"], authors=12, disciplines=3, papers_mean=20
)


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    return data, cohorts.generate(SMALL, 7, data)


@pytest.fixture
def one_run(cohort, tmp_path):
    data, truth = cohort
    entry = worker._import_program(BENCH.parent)
    result = worker.timed_runs(entry, data, tmp_path, seconds=0)
    [out] = result["kept"].values()
    return result, truth, Path(out)


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic(cohort, tmp_path):
    data, _ = cohort
    cohorts.generate(SMALL, 7, tmp_path / "again")
    cohorts.generate(SMALL, 8, tmp_path / "other")
    assert _files(tmp_path / "again") == _files(data)
    assert _files(tmp_path / "other")["records_scopus.csv"] != _files(data)["records_scopus.csv"]


def test_clean_run_passes(one_run):
    result, truth, _ = one_run
    assert bench_run.judge([result], truth) == (1, 0, [])


def test_flipped_h_counts_as_failed(one_run):
    result, truth, out = one_run
    path = out / "index_report.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][3] = str(int(rows[1][3]) + 1)  # the h column of the first data row
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    attempted, failed, problems = bench_run.judge([result], truth)
    assert (attempted, failed) == (1, 1)
    assert "index_report" in problems[0]


def test_missing_report_counts_as_failed(one_run):
    result, truth, out = one_run
    (out / "density.json").unlink()
    attempted, failed, problems = bench_run.judge([result], truth)
    assert (attempted, failed) == (1, 1)
    assert "density.json" in problems[0]


def test_differing_outputs_count_as_failed(one_run):
    result, truth, out = one_run
    second = {"code": 0, "seconds": 1.0, "digest": "other"}
    result = {"runs": result["runs"] + [second], "kept": {**result["kept"], "other": str(out)}}
    assert bench_run.judge([result], truth)[:2] == (2, 1)


@pytest.mark.parametrize(
    "counts, expected",
    [
        ((15, 13, 10, 7, 3, 2, 1, 1, 1, 0), (4, 7, 15, 0, 4)),
        ((65, 9, 8, 7, 5, 5, 2, 2, 1, 0), (5, 10, 65, 2, 7)),
        ((205, 150, 85, 40, 25, 5, 4, 4, 2, 1), (5, 22, 205, 3, 8)),
        ((100,), (1, 10, 100, 0, 1)),
        ((), (0, 0, 0, 0, 0)),
    ],
)
def test_oracle_on_hand_checked_profiles(counts, expected):
    assert oracle_indices(list(counts)) == expected
