"""The benchmark's tracer still finds and times every layer of a full run.

``bench/worker.py`` wraps functions at the module attributes through which
``scimetrics.cli`` and ``run_full_analysis`` call them. A renamed or
bypassed function reads as an ``absent`` metric, or as zero calls, and the
benchmark result is then refused. This test installs the same wrappers
around one run over the synthetic fixture.
"""

import importlib.util
import os
from pathlib import Path

import scimetrics.analytics
import scimetrics.cli
import scimetrics.indices

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = ROOT / "tests" / "data" / "synthetic"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("bench_tracing", ROOT / "bench" / "tracing.py")
run_full_analysis = _load("run_full_analysis", ROOT / "scripts" / "run_full_analysis.py")


def test_traced_full_run_records_every_layer(tmp_path, capsys):
    tracer = tracing.Tracer()
    sizes = []
    wrapped = []
    for module, names in (
        (scimetrics.cli, tracing.CLI_NAMES),
        (scimetrics.indices, tracing.INDICES_NAMES),
        (scimetrics.analytics, tracing.ANALYTICS_NAMES),
    ):
        for attr, span in names:
            observe = None
            if span.startswith("reports.write_"):
                # As the worker does: the report is complete when the call returns.
                observe = lambda args, result: sizes.append(os.path.getsize(args[0]))
            tracer.wrap(module, attr, span, observe)
            wrapped.append(span)
    tracer.wrap(run_full_analysis, "main", lambda args: tracing.FAMILY_SPAN + args[0][0])
    tracer.wrap(run_full_analysis, "run", "bench.run")
    out = tmp_path / "out"
    try:
        assert run_full_analysis.run(SYNTHETIC, out, []) == 0
    finally:
        tracer.unwrap()
    capsys.readouterr()

    assert tracer.absent == []
    layers = tracing.summarize(tracer.spans)
    # bench/run.py:per_layer reads each of these spans; report builders are
    # called through cli.REPORTS, so the cli.cmd_* wrappers never fire.
    for span in wrapped:
        if not span.startswith("cli.cmd_"):
            assert layers.get(span, {}).get("calls", 0) > 0, span
    families = {name for name in layers if name.startswith(tracing.FAMILY_SPAN)}
    assert families == {tracing.FAMILY_SPAN + family for family in scimetrics.cli.REPORTS}
    assert all(layers[name]["calls"] == 1 for name in families)
    # The fixture has 6 scopes (5 disciplines and the global one): one cohort
    # per scope and one ranking per (scope, database), none repeated.
    assert layers["analytics.build_cohort"]["calls"] == 6
    assert layers["analytics.rank_authors"]["calls"] == 12
    # One parse per export, and one overlap classification per scope with
    # each profile walk inside it (each scope merges its own profiles).
    assert layers["ingest.parse_records"]["calls"] == 2
    assert layers["crossdb.classify_overlap"]["calls"] == 6
    assert sum(sizes) == sum(p.stat().st_size for p in out.iterdir())
