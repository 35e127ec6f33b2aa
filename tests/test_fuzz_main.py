"""Fuzz gate for ``main()``: any config or input gives an exit code, never an exception.

Config files hold values of every JSON type, strings with lone surrogates
included; exports and rosters are the synthetic fixture with bytes replaced,
inserted or deleted, as CSV or JSON, where a JSON input first has one field
that the program reads set to such a string.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scimetrics.cli import REPORTS, main

SYNTHETIC = Path(__file__).resolve().parent / "data" / "synthetic"
INPUTS = ("records_scopus", "records_wos", "roster")
READ = ("author_key", "doi", "citations", "source", "discipline")  # columns the program reads
FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Characters including lone surrogates (U+D800..U+DFFF), as a JSON "\ud800"
# escape decodes to; hypothesis's default text never draws them.
CHARS = st.characters() | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
any_text = st.text(CHARS, max_size=12)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(CHARS, max_size=6), inner, max_size=3),
    max_leaves=6,
)
# "out" is never a string or null here, so a fuzzed config writes nowhere but
# into the example's own directory: any other value is a ConfigError.
config_overrides = st.fixed_dictionaries(
    {},
    optional={
        **{key: json_values for key in (
            "records", "roster", "format", "bins", "disciplines", "density_width", "rounding"
        )},
        "out": json_values.filter(lambda v: v is not None and not isinstance(v, str)),
        "extra": json_values,
    },
)
mutations = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(min_value=0),
        st.binary(min_size=1, max_size=4),
    ),
    max_size=4,  # none at all lets a swapped JSON field reach a run undamaged
)


def run_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def as_json(csv_bytes: bytes, swap: tuple[int, int, str] | None = None) -> bytes:
    """The CSV as a JSON array; ``swap`` = (row, column, text) sets one read field first."""
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    if swap is not None:
        row, column, text = swap
        fields = rows[row % len(rows)]
        names = [name for name in fields if name in READ]
        fields[names[column % len(names)]] = text
    return json.dumps(rows).encode()


def mutate(data: bytes, edits: list[tuple[str, int, bytes]]) -> bytes:
    for op, pos, chunk in edits:
        pos %= len(data) + 1
        if op == "replace":
            data = data[:pos] + chunk + data[pos + len(chunk):]
        elif op == "insert":
            data = data[:pos] + chunk + data[pos:]
        else:
            data = data[:pos] + data[pos + len(chunk):]
    return data


@FUZZ
@given(overrides=config_overrides, command=st.sampled_from(sorted(REPORTS)))
def test_main_on_any_config_returns_an_exit_code(overrides, command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # fuzzed relative paths resolve in here
    monkeypatch.delenv("SCIMETRICS_OUT", raising=False)
    with tempfile.TemporaryDirectory() as tmp:
        config = {
            "records": {
                "scopus": str(SYNTHETIC / "records_scopus.csv"),
                "wos": str(SYNTHETIC / "records_wos.csv"),
            },
            "roster": str(SYNTHETIC / "roster.csv"),
            "out": str(Path(tmp) / "out"),
            **overrides,
        }
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert run_main([command, "--config", str(path)]) in (0, 1, 2)


@FUZZ
@given(
    target=st.sampled_from(INPUTS),
    fmt=st.sampled_from(("csv", "json")),
    edits=mutations,
    command=st.sampled_from(sorted(REPORTS)),
    swap=st.tuples(st.integers(min_value=0), st.integers(min_value=0), any_text),
)
def test_main_on_mutated_inputs_returns_an_exit_code(target, fmt, edits, command, swap):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in INPUTS:
            data = (SYNTHETIC / f"{name}.csv").read_bytes()
            suffix = "csv"
            if name == target:
                if fmt == "json":
                    data, suffix = as_json(data, swap), "json"
                data = mutate(data, edits)
            paths[name] = Path(tmp) / f"{name}.{suffix}"
            paths[name].write_bytes(data)
        argv = [
            command,
            "--records", f"{paths['records_scopus']}@scopus",
            "--records", f"{paths['records_wos']}@wos",
            "--roster", str(paths["roster"]),
            "--out", str(Path(tmp) / "out"),
        ]
        assert run_main(argv) in (0, 1, 2)
