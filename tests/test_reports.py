"""Report writers: byte oracles against the standard library, and file modes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scimetrics import reports
from scimetrics.reports import write_csv, write_json

SRC = Path(__file__).resolve().parent.parent / "src"

# Every scalar type a report cell may hold; text covers non-ASCII, quotes
# and control characters, floats cover NaN and both infinities.
VALUES = st.one_of(st.text(), st.integers(), st.booleans(), st.floats(), st.none())


@st.composite
def tables(draw):
    """(name, header, rows, json_rows or None, footnotes) with matching widths."""
    header = draw(st.lists(st.text(max_size=8), unique=True, max_size=5))
    row = st.tuples(*[VALUES] * len(header))
    rows = draw(st.lists(row, max_size=6))
    json_rows = draw(st.none() | st.lists(row, max_size=6))
    footnotes = draw(st.lists(st.text(), max_size=3).map(tuple))
    return draw(st.text()), header, rows, json_rows, footnotes


# tmp_path is shared by every example, so each writes over the same file.
PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@PROPERTY
@given(tables())
def test_write_json_matches_json_dumps(tmp_path, table):
    name, header, rows, json_rows, footnotes = table
    payload = {
        "report": name,
        "rows": [dict(zip(header, row)) for row in (rows if json_rows is None else json_rows)],
    }
    if footnotes:
        payload["footnotes"] = footnotes
    path = tmp_path / "t.json"
    write_json(path, name, header, rows, json_rows, footnotes)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("ascii")


@PROPERTY
@given(tables())
def test_write_csv_matches_csv_writer(tmp_path, table):
    _, header, rows, _, _ = table
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("value", [b"x", {1}, [1], 1j])
def test_write_json_rejects_other_types_and_leaves_no_file(tmp_path, value):
    with pytest.raises(TypeError):
        write_json(tmp_path / "t.json", "t", ("a", "b"), [(1, 2), (3, value)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_report_mode_follows_umask(tmp_path, umask, mode):
    # The umask is process-wide, so the writers run in a child process.
    script = (
        "import os, sys\n"
        f"os.umask({umask})\n"
        "from scimetrics.reports import write_csv, write_json\n"
        "write_csv(sys.argv[1] + '/t.csv', ('a',), [(1,)])\n"
        "write_json(sys.argv[1] + '/t.json', 't', ('a',), [(1,)])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", script, str(tmp_path)], check=True, env=env)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]
    for path in tmp_path.iterdir():
        assert path.stat().st_mode & 0o777 == mode


# ---------------------------------------------------------------------------
# JSON rows are encoded a chunk at a time
# ---------------------------------------------------------------------------

CHUNK_ROWS = reports.CHUNK_ROWS

class Text(str):
    def __repr__(self):
        return "not this"


class Int(int):
    def __repr__(self):
        return "not this"

    __str__ = __repr__


class Float(float):
    def __repr__(self):
        return "not this"

    __str__ = __repr__


# Cells that look like the writer's own separators, template or brackets.
AWKWARD = [
    '"', "\n", "]", "[", "%s", "%", " ", "", "café 漢字 \U0001f600", "a\nb\r\t\x00",
    float("nan"), float("inf"), float("-inf"), -0.0, 1e300, True, False, None, 10**100, -(10**100),
    Text("sub\nclass"), Int(7), Float(2.5),
]
HEADER = ("a", 'b "q"', "c%s", "d%")


def json_oracle(name, header, rows, footnotes=()):
    payload = {"report": name, "rows": [dict(zip(header, row)) for row in rows]}
    if footnotes:
        payload["footnotes"] = list(footnotes)
    return (json.dumps(payload, indent=2) + "\n").encode("ascii")


def awkward_rows(n):
    cells = AWKWARD * (4 * n // len(AWKWARD) + 1)
    return [tuple(cells[4 * i:4 * i + 4]) for i in range(n)]


@pytest.mark.parametrize(
    "n",
    [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1],
)
def test_write_json_matches_json_dumps_across_chunk_boundaries(tmp_path, n):
    rows = awkward_rows(n)
    footnotes = ("%s\n]", "é")
    path = tmp_path / "t.json"
    write_json(path, "r%s\n", HEADER, rows, footnotes=footnotes)
    assert path.read_bytes() == json_oracle("r%s\n", HEADER, rows, footnotes)


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS + 1])
def test_write_json_without_columns_across_chunk_boundaries(tmp_path, n):
    path = tmp_path / "t.json"
    write_json(path, "t", (), [()] * n)
    assert path.read_bytes() == json_oracle("t", (), [()] * n)


@pytest.mark.parametrize("value", [[1], (1, 2), {"a": 1}, b"x"])
def test_write_json_rejects_a_non_scalar_in_the_last_chunk(tmp_path, value):
    rows = awkward_rows(2 * CHUNK_ROWS + 1)
    rows[-1] = (*rows[-1][:3], value)
    with pytest.raises(TypeError):
        write_json(tmp_path / "t.json", "t", HEADER, rows)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("at", [0, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS])
@pytest.mark.parametrize("width", [3, 5])
def test_write_json_rejects_a_row_of_the_wrong_width(tmp_path, at, width):
    rows = awkward_rows(2 * CHUNK_ROWS + 2)
    rows[at] = tuple(range(width))
    # A neighbour in the same chunk with the opposite fault keeps the cell count.
    rows[at + 1 if at % CHUNK_ROWS == 0 else at - 1] = tuple(range(8 - width))
    with pytest.raises(TypeError):
        write_json(tmp_path / "t.json", "t", HEADER, rows)
    assert list(tmp_path.iterdir()) == []


def test_write_json_rejects_a_non_scalar_name_or_footnote(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "t.json", ["t"], HEADER, awkward_rows(3))
    with pytest.raises(TypeError):
        write_json(tmp_path / "t.json", "t", HEADER, awkward_rows(3), footnotes=({},))
    assert list(tmp_path.iterdir()) == []


def test_write_json_encodes_once_per_chunk(tmp_path, monkeypatch):
    # One encoder call per chunk, not one Python call per cell.
    calls = []
    encode = reports._encode

    def counted(*args):
        calls.append(len(args[0]))
        return encode(*args)

    monkeypatch.setattr(reports, "_encode", counted)
    rows = awkward_rows(3 * CHUNK_ROWS)
    path = tmp_path / "t.json"
    write_json(path, "t", HEADER, rows, footnotes=("f",))
    assert len(calls) <= 3
    assert path.read_bytes() == json_oracle("t", HEADER, rows, ("f",))
