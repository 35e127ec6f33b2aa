"""Child process of the benchmark: full report runs over one generated cohort.

Untraced, it calls ``run_full_analysis.run`` repeatedly, timing each call,
with a ``reference.burst()`` before the first run and after every run, and
stops before a run that would likely end past ``--seconds`` (it always
makes at least one). It records each run's
output digest and the process's peak resident memory. With ``--trace`` it
makes one run under ``tracing.Tracer`` instead and replays the exports' raw
DOI column through ``normalize_doi``; the spans, kept in memory during the
run, go out with the result. Either way it writes its result as JSON to
``--result``. Each run writes to its own directory under ``--out``; the
first directory with a given digest is kept for the output checks.

    python3 bench/worker.py --root . --data DIR --out DIR --seconds 20 --result FILE
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import reference
from checks import digest_dir
from tracing import ANALYTICS_NAMES, CLI_NAMES, FAMILY_SPAN, INDICES_NAMES, Tracer


def _import_program(root: Path):
    """Import the checkout's entry point, refusing any other scimetrics."""
    sys.path[:0] = [str(root / "src"), str(root / "scripts")]
    import run_full_analysis
    import scimetrics

    if Path(scimetrics.__file__).resolve().parent != (root / "src" / "scimetrics").resolve():
        raise ImportError(f"scimetrics imported from {scimetrics.__file__}, not {root / 'src'}")
    return run_full_analysis


def _one_run(entry, data: Path, out: Path, kept: dict[str, str]) -> dict:
    gc.collect()
    start = time.perf_counter()
    try:
        code = entry.run(data, out, [])
    except Exception:  # a crash is one failed run; the loop goes on
        traceback.print_exc()
        code = -1
    seconds = time.perf_counter() - start
    digest = digest_dir(out) if out.is_dir() else ""
    if digest in kept:
        shutil.rmtree(out, ignore_errors=True)
    else:
        kept[digest] = str(out)
    return {"code": code, "seconds": seconds, "digest": digest}


def timed_runs(entry, data: Path, out_root: Path, seconds: float) -> dict:
    kept: dict[str, str] = {}
    runs = []
    start = time.perf_counter()
    references = [reference.burst()]
    # Stop before a run that would likely end past --seconds, so one
    # invocation takes about --seconds however long a run is.
    while not runs or (
        time.perf_counter() - start + runs[-1]["seconds"] + references[-1] <= seconds
    ):
        runs.append(_one_run(entry, data, out_root / f"run{len(runs):03d}", kept))
        references.append(reference.burst())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"runs": runs, "references": references, "kept": kept, "peak_rss_mb": peak_kb / 1024}


def _install(tracer: Tracer, entry) -> None:
    import scimetrics.analytics
    import scimetrics.cli
    import scimetrics.indices

    for module, names in (
        (scimetrics.cli, CLI_NAMES),
        (scimetrics.indices, INDICES_NAMES),
        (scimetrics.analytics, ANALYTICS_NAMES),
    ):
        for attr, span in names:
            observe = None
            if span == "ingest.parse_records":
                observe = lambda args, result: _count_parse(tracer.counts, result)
            elif span.startswith("reports.write_"):
                observe = lambda args, result: tracer.counts.update(
                    {"reports.bytes_written": os.path.getsize(args[0])}
                )
            tracer.wrap(module, attr, span, observe)
    tracer.wrap(entry, "main", lambda args: FAMILY_SPAN + args[0][0])


def _count_parse(counts: Counter, result) -> None:
    accepted, rejects = result
    counts["ingest.parse_records.accepted"] += len(accepted)
    counts["ingest.parse_records.rows"] += len(accepted) + len(rejects)
    for reject in rejects:
        counts["ingest.rejects." + reject.reason.replace(" ", "_")] += 1


def replay_dois(data: Path) -> dict:
    """Time ``normalize_doi`` over both exports' raw DOI column, once."""
    from scimetrics.errors import MalformedDoi
    from scimetrics.ingest import normalize_doi

    raws = []
    paths = sorted(data.glob("records_*.csv"))
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            col = next(reader).index("doi")
            raws += [raw for row in reader if (raw := row[col].strip())]
    start = time.perf_counter()
    for raw in raws:
        try:
            normalize_doi(raw)
        except MalformedDoi:
            pass
    seconds = time.perf_counter() - start
    bare = 0
    for raw in raws:
        try:
            bare += normalize_doi(raw) == raw
        except MalformedDoi:
            pass
    return {"calls": len(raws), "s": seconds, "bare": bare, "files": len(paths)}


def traced_run(entry, data: Path, out_root: Path) -> dict:
    tracer = Tracer()
    _install(tracer, entry)
    kept: dict[str, str] = {}
    try:
        tracer.wrap(entry, "run", "bench.run")
        run = _one_run(entry, data, out_root / "traced", kept)
    finally:
        tracer.unwrap()
    return {
        "runs": [run],
        "kept": kept,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "absent": tracer.absent,
        "normalize_doi": replay_dois(data),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    entry = _import_program(args.root.resolve())
    args.out.mkdir(parents=True, exist_ok=True)
    if args.trace:
        result = traced_run(entry, args.data, args.out)
    else:
        result = timed_runs(entry, args.data, args.out, args.seconds)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
