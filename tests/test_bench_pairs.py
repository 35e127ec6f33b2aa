"""``scripts/bench_pairs.py``: its summary of paired runs and its run order."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize
regression = bench_pairs.regression


def test_five_wins_with_a_gap_over_the_parent_iqr_is_a_gain():
    parent = [0.1011, 0.1024, 0.1059, 0.1086, 0.1090]
    head = [0.0967, 0.0962, 0.0994, 0.0975, 0.0979]
    s = summarize(parent, head, "lower")
    assert s["parent"] == pytest.approx((0.1024, 0.1059, 0.1086))
    assert s["head"] == pytest.approx((0.0967, 0.0975, 0.0979))
    assert (s["wins"], s["pairs"]) == (5, 5)
    assert s["gap"] == pytest.approx(0.0084) and s["parent_iqr"] == pytest.approx(0.0062)
    assert s["gain"]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_over_the_iqr():
    parent = [10.0, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    nine = [p - 5 for p in parent[:9]] + [parent[9] + 1]
    assert summarize(parent, nine, "lower")["wins"] == 9
    assert summarize(parent, nine, "lower")["gain"]
    eight = nine[:8] + [parent[8], parent[9] + 1]  # a tie counts for neither side
    assert summarize(parent, eight, "lower")["wins"] == 8
    assert not summarize(parent, eight, "lower")["gain"]
    # Ten wins by 1: the gap of 1 is within the parent's IQR of 4.5.
    close = summarize(parent, [p - 1 for p in parent], "lower")
    assert close["wins"] == 10 and close["parent_iqr"] == pytest.approx(4.5)
    assert not close["gain"]


def test_higher_is_better_counts_the_other_way():
    parent, head = [100.0, 101, 102], [110.0, 111, 112]
    assert summarize(parent, head, "higher")["gain"]
    assert summarize(parent, head, "lower")["wins"] == 0
    assert summarize([0.0836, 0.0836], [0.0839, 0.0837], "lower")["wins"] == 0


def test_one_value_per_pair_is_required():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([], [], "lower")


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04]
    assert regression(parent, [1.30, 1.31, 1.29, 1.32, 1.30], "lower", 0.25) == "regression"
    assert regression(parent, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.25) == "none"
    assert regression([100.0, 101, 102], [70.0, 71, 72], "higher", 0.25) == "regression"


def test_a_parent_spread_over_the_bound_is_unresolved_unless_the_head_beats_every_run():
    parent = [0.023, 0.023, 0.034, 0.034, 0.034]  # IQR 0.011 over a median of 0.034
    assert regression(parent, [0.034, 0.023, 0.034, 0.023, 0.034], "lower", 0.25) == "unresolved"
    assert regression(parent, [0.020, 0.021, 0.022, 0.020, 0.021], "lower", 0.25) == "none"


def test_a_close_median_within_a_narrow_spread_is_no_regression():
    parent = [0.100, 0.101, 0.102, 0.103, 0.104]
    assert regression(parent, [0.103, 0.104, 0.105, 0.106, 0.107], "lower", 0.25) == "none"


STUB_RUN = """
import json, sys
from pathlib import Path
args = sys.argv[1:]
checkout = Path.cwd()
with open(checkout.parent / "log", "a") as log:
    log.write(checkout.name + " " + " ".join(args) + "\\n")
value = {"parent": 2.0, "head": 1.0}.get(checkout.name, 1.5)
print("a human-readable line")
print(json.dumps({"correct": checkout.name != "broken", "metrics": {
    "run_s": {"value": value, "unit": "s"},
    "rows_per_s": {"value": 1 / value, "unit": "rows/s"},
}}))
"""


def checkout(root: Path, name: str, seconds: float = 36) -> Path:
    (root / name / "bench").mkdir(parents=True)
    (root / name / "bench" / "run.py").write_text(STUB_RUN)
    declared = {"run_seconds": seconds, "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "rows_per_s", "better": "higher", "bound": 0.25},
    ]}
    (root / name / "BENCHMARK.json").write_text(json.dumps(declared))
    return root / name


def test_pairs_alternate_which_side_runs_first(tmp_path, capsys):
    # Both sides run as long as the head's BENCHMARK.json says.
    parent, head = checkout(tmp_path, "parent", 99), checkout(tmp_path, "head", 7)
    argv = ["--parent", str(parent), "--head", str(head), "--workload", "w", "--pairs", "2",
            "--seed", "5"]
    assert bench_pairs.main(argv) == 0
    tail = "--workload w --seed {} --seconds 7 --trace 0"
    assert (tmp_path / "log").read_text().splitlines() == [
        f"parent {tail.format(5)}", f"head {tail.format(5)}",
        f"head {tail.format(6)}", f"parent {tail.format(6)}",
    ]
    out = capsys.readouterr().out
    assert "w run_s (s, lower is better)" in out and "head wins 2/2" in out
    assert out.count("gain: yes") == 2
    assert out.count("regression: none") == 2


def test_a_run_that_is_not_correct_exits_1(tmp_path, capsys):
    parent, broken = checkout(tmp_path, "parent"), checkout(tmp_path, "broken")
    argv = ["--parent", str(parent), "--head", str(broken), "--workload", "w", "--pairs", "3",
            "--seed", "1"]
    assert bench_pairs.main(argv) == 1
    assert "was not correct" in capsys.readouterr().err
    assert len((tmp_path / "log").read_text().splitlines()) == 2
