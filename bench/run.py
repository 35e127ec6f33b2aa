"""Benchmark of one full scimetrics report run on a seeded cohort.

    python3 bench/run.py --workload cohort-wide --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. It generates the workload's cohort
from the seed (``cohorts.py``), times fresh imports of the program
(``setup_s``), then times full report runs through
``scripts/run_full_analysis.py:run`` in a child process for ``--seconds``
(``worker.py``), with a fixed reference burst (``reference.py``) around
every run; run times are reported at the host speed where a burst takes
``NOMINAL_S``. Every run's outputs are checked against the generator's
ground truth (``checks.py``). With ``--trace 1`` the untraced runs take half
of ``--seconds``, a second child makes one traced run (``tracing.py``), and
the per-layer metrics are reported instead of the end-to-end ones. Human-readable lines go first; the last line of
standard output is the JSON result. Scratch files live under
``.bench_work/`` in the checkout and are removed on exit.

Exit codes: 0 with a result printed, 1 when a child failed to produce one,
2 when the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_outputs
from cohorts import DUPLICATE_REASON, PLANTED_REASONS, WORKLOADS, generate
from reference import NOMINAL_S
from tracing import FAMILY_SPAN, family_times, summarize

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PROGRAM = ("src/scimetrics/cli.py", "scripts/run_full_analysis.py")
SETUP_SAMPLES = 8  # per batch; one batch before and one after the timed runs
BUDGET_S = 170  # the whole benchmark must end within 180 s
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import scimetrics.cli, run_full_analysis;"
    " print(time.perf_counter() - t)"
)
REJECT_REASONS = tuple(r.replace(" ", "_") for r in (*PLANTED_REASONS, DUPLICATE_REASON))
FAMILIES = ("index", "overlap", "rank", "bins", "corr", "deviation", "density")
LAYERS = ("cli", "ingest", "indices", "analytics", "crossdb", "reports")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "scripts")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(samples: int) -> list[float]:
    """Import times of the program in fresh interpreters, after one warm-up."""
    times = []
    for _ in range(samples + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip()))
    return times[1:]


def run_worker(work: Path, name: str, args: list[str], deadline: float) -> dict:
    result = work / f"{name}.json"
    with open(work / f"{name}.stderr", "w", encoding="utf-8") as err:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
             "--data", str(work / "data"), "--out", str(work / name),
             "--result", str(result), *args],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    return json.loads(result.read_text(encoding="utf-8"))


def judge(results: list[dict], truth) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every run of every worker result.

    A run fails when it returned non-zero, when its outputs fail a check, or
    when its output digest differs from the first run's.
    """
    problems_by_digest = {}
    for result in results:
        for digest, out in result["kept"].items():
            problems_by_digest[digest] = check_outputs(Path(out), truth) if digest else ["no output"]
    runs = [run for result in results for run in result["runs"]]
    reference = runs[0]["digest"]
    failed = 0
    problems: list[str] = []
    for i, run in enumerate(runs):
        found = list(problems_by_digest[run["digest"]])
        if run["code"] != 0:
            found.append(f"exit code {run['code']}")
        if run["digest"] != reference:
            found.append("outputs differ from the first run's")
        if found:
            failed += 1
            problems += [f"run {i}: {p}" for p in found[:5]]
    return len(runs), failed, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timed: dict, setup: list[float], rows: int) -> dict:
    """Run times at the nominal host speed, where a reference burst takes NOMINAL_S.

    Each run is scaled by NOMINAL_S over the mean of the bursts just before
    and after it, so a run timed while the host was slow is scaled down;
    ``run_s`` is the median of the scaled runs. ``setup_s`` is the median raw
    import time: scaling it by the bursts widened its spread (DESIGN.md).
    """
    bursts = timed["references"]
    run_s = statistics.median(
        run["seconds"] * NOMINAL_S / ((bursts[i] + bursts[i + 1]) / 2)
        for i, run in enumerate(timed["runs"])
    )
    return {
        "run_s": metric(run_s, "s"),
        "rows_per_s": metric(rows / run_s, "rows/s"),
        "peak_rss_mb": metric(timed["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(traced: dict, untraced_wall_s: float) -> dict:
    layers, families = summarize(traced["spans"]), family_times(traced["spans"])
    counts, doi = traced["counts"], traced["normalize_doi"]
    absent = set(traced["absent"])
    out: dict[str, dict] = {}

    def stat(span: str, key: str, unit: str) -> None:
        name = f"{span}.{key}"
        if span in layers:
            out[name] = metric(layers[span][key], unit)
        else:  # the wrapped name is gone from this version of the program
            out[name] = {**metric(0, unit), "absent": True}
            absent.add(span)

    for span in ("cli.load_pipeline",):
        stat(span, "calls", "count")
        stat(span, "s", "s")
        stat(span, "self_s", "s")
    for family in FAMILIES:
        if family in families:
            out[f"cli.report.{family}.s"] = metric(families[family], "s")
        else:
            out[f"cli.report.{family}.s"] = {**metric(0, "s"), "absent": True}
    out["cli.main.self_s"] = metric(
        sum(v["self_s"] for k, v in layers.items() if k.startswith(FAMILY_SPAN)), "s"
    )
    out["cli.cmd.self_s"] = metric(
        sum(v["self_s"] for k, v in layers.items() if k.startswith("cli.cmd_")), "s"
    )

    stat("ingest.parse_records", "calls", "count")
    stat("ingest.parse_records", "self_s", "s")
    rows = counts.get("ingest.parse_records.rows", 0)
    out["ingest.parse_records.rows"] = metric(rows, "count")
    parse_s = layers.get("ingest.parse_records", {}).get("self_s", 0.0)
    out["ingest.us_per_row"] = metric(parse_s / rows * 1e6 if rows else 0.0, "us")
    out["ingest.accepted_ratio"] = metric(
        counts.get("ingest.parse_records.accepted", 0) / rows if rows else 0.0, "ratio"
    )
    for reason in REJECT_REASONS:
        out[f"ingest.rejects.{reason}"] = metric(counts.get(f"ingest.rejects.{reason}", 0), "count")

    # normalize_doi is timed by a replay of one pass over both exports, scaled
    # to the number of passes the traced run made (parse_records calls per file).
    passes = layers.get("ingest.parse_records", {}).get("calls", 0) / doi["files"]
    out["ingest.normalize_doi.calls"] = metric(doi["calls"] * passes, "count")
    out["ingest.normalize_doi.s"] = metric(doi["s"] * passes, "s")
    out["ingest.doi_bare_share"] = metric(doi["bare"] / doi["calls"], "ratio")

    stat("ingest.build_profiles", "self_s", "s")
    stat("ingest.parse_roster", "self_s", "s")
    stat("ingest.profile_to_citations", "calls", "count")
    stat("ingest.profile_to_citations", "self_s", "s")
    stat("indices.compute_hc", "calls", "count")
    stat("indices.compute_hc", "self_s", "s")
    stat("indices.compute_g", "self_s", "s")
    stat("analytics.build_cohort", "calls", "count")
    stat("analytics.build_cohort", "self_s", "s")
    stat("analytics.rank_authors", "calls", "count")
    stat("analytics.rank_authors", "self_s", "s")
    for name in ("per_bin_correlation", "stats_summary", "bin_proportions", "diff_sd", "density_series"):
        stat(f"analytics.{name}", "self_s", "s")
    stat("crossdb.classify_overlap", "calls", "count")
    stat("crossdb.classify_overlap", "self_s", "s")
    stat("crossdb.overlap_proportions", "self_s", "s")
    stat("reports.write_csv", "calls", "count")
    stat("reports.write_csv", "self_s", "s")
    stat("reports.write_json", "calls", "count")
    stat("reports.write_json", "self_s", "s")
    out["reports.bytes_written"] = metric(counts.get("reports.bytes_written", 0), "bytes")

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = metric(
            sum(v["self_s"] for k, v in layers.items() if k.split(".")[0] == layer), "s"
        )
    traced_s = traced["runs"][0]["seconds"]
    out["trace.run_s"] = metric(traced_s, "s")
    out["trace.overhead_s"] = metric(traced_s - untraced_wall_s, "s")
    out["trace.unattributed_s"] = metric(layers["bench.run"]["self_s"], "s")
    total = sum(v["self_s"] for v in layers.values())
    shares = {"row ingest (parse_records)": parse_s}
    for layer in LAYERS:
        label = "ingest (other)" if layer == "ingest" else layer
        shares[label] = out[f"layer.{layer}.self_s"]["value"] - (parse_s if layer == "ingest" else 0)
    print("share of traced self time: "
          + ", ".join(f"{name} {value / total:.1%}" for name, value in shares.items()))
    if absent:
        print(f"absent from this version of the program: {', '.join(sorted(absent))}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    missing = [p for p in PROGRAM if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        truth = generate(WORKLOADS[args.workload], args.seed, work / "data")
        print(f"{args.workload} seed {args.seed}: {truth.total_rows} rows, "
              f"{len(truth.counts)} authors, {len(truth.scope_dois)} scopes, "
              f"generated in {time.perf_counter() - t0:.2f} s")
        # The machine's speed drifts over tens of seconds, so setup is sampled
        # on both sides of the timed runs. A traced invocation spends half of
        # --seconds on untraced runs, which only serve trace.overhead_s.
        setup = measure_setup(SETUP_SAMPLES)
        timed_s = args.seconds / 2 if args.trace else args.seconds
        timed = run_worker(work, "timed", ["--seconds", str(timed_s)], deadline)
        setup += measure_setup(SETUP_SAMPLES)
        results = [timed]
        if args.trace:
            traced = run_worker(work, "traced", ["--trace"], deadline)
            results.append(traced)
        attempted, failed, problems = judge(results, truth)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        for log in sorted(work.glob("*.stderr")):
            sys.stderr.write(log.read_text(encoding="utf-8")[-2000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation is still using it
            pass

    metrics = end_to_end(timed, setup, truth.total_rows)
    wall_s = statistics.median(run["seconds"] for run in timed["runs"])
    print(f"wall run_s samples ({len(timed['runs'])}, in run order): "
          + " ".join(f"{run['seconds']:.3f}" for run in timed["runs"]))
    print(f"wall setup_s samples ({len(setup)}): " + " ".join(f"{s:.4f}" for s in setup))
    print(f"reference bursts ({len(timed['references'])}, nominal {NOMINAL_S} s): "
          + " ".join(f"{s:.3f}" for s in timed["references"]))
    print(f"wall medians: run_s {wall_s:.4f} s, setup_s {statistics.median(setup):.5f} s")
    print(f"failed_runs: {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"  {problem}")
    if args.trace:
        metrics = per_layer(traced, wall_s)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
