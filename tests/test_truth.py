"""Full runs on generated cohorts, judged against the generator's ground truth.

``bench/cohorts.py`` draws a cohort of each benchmark shape: URL, ``doi:``
and upper-case DOI forms, duplicate rows, many disciplines and Pareto
citation counts up to 3e5, none of which the fixture has. ``bench/checks.py``
judges the run with a definitional index oracle, the planted DOI sets and
the planted reject counts. The benchmark gates every timed run on the same
judge.
"""

import contextlib
import dataclasses
import importlib.util
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # checks.py does ``from cohorts import ...``
    spec.loader.exec_module(module)
    return module


cohorts = _load("cohorts", ROOT / "bench" / "cohorts.py")
checks = _load("bench_checks", ROOT / "bench" / "checks.py")
run_full_analysis = _load("run_full_analysis", ROOT / "scripts" / "run_full_analysis.py")

# Each shape at a few dozen to a few hundred authors: about 0.1 s per run.
SHAPES = {"cohort-wide": 40, "cohort-deep": 4, "cohort-sparse": 300}


@pytest.mark.parametrize("workload", sorted(SHAPES))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_cohort_run_matches_ground_truth(tmp_path_factory, workload, seed):
    shape = dataclasses.replace(cohorts.WORKLOADS[workload], authors=SHAPES[workload])
    data = tmp_path_factory.mktemp("data")
    out = tmp_path_factory.mktemp("out")
    truth = cohorts.generate(shape, seed, data)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_full_analysis.run(data, out, []) == 0
    assert checks.check_outputs(out, truth) == []
