"""Report writers: byte oracles against the standard library, and file modes."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scimetrics import reports
from scimetrics.reports import write_csv, write_json

SRC = Path(__file__).resolve().parent.parent / "src"

# Every scalar type a report cell may hold; text covers non-ASCII, quotes
# and control characters, floats cover NaN and both infinities.
VALUES = st.one_of(st.text(), st.integers(), st.booleans(), st.floats(), st.none())


@st.composite
def tables(draw):
    """(name, header, rows, footnotes) with matching widths."""
    header = draw(st.lists(st.text(max_size=8), unique=True, max_size=5))
    rows = draw(st.lists(st.tuples(*[VALUES] * len(header)), max_size=6))
    footnotes = draw(st.lists(st.text(), max_size=3).map(tuple))
    return draw(st.text()), header, rows, footnotes


# tmp_path is shared by every example, so each writes over the same file.
PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@PROPERTY
@given(tables())
def test_write_json_matches_json_dumps(tmp_path, table):
    name, header, rows, footnotes = table
    payload = {"report": name, "rows": [dict(zip(header, row)) for row in rows]}
    if footnotes:
        payload["footnotes"] = footnotes
    path = tmp_path / "t.json"
    write_json(path, name, header, rows, footnotes)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("ascii")


@PROPERTY
@given(tables())
def test_write_csv_matches_csv_writer(tmp_path, table):
    _, header, rows, _ = table
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == csv_oracle(header, rows)


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


def csv_oracle(header, rows):
    """csv.writer's bytes, with an absent (None) cell given as "-"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["-" if cell is None else cell for cell in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def plain_rows(n):
    """Exact ints and text that csv.writer writes as it is."""
    return [(f"a{i}", i, "x y%s", -i) for i in range(n)]


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


@pytest.mark.parametrize("at", [0, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS])
@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("cells", ["awkward", "plain"])
def test_write_csv_rejects_a_row_of_the_wrong_width(tmp_path, at, width, cells):
    # csv.writer alone would write the ragged row: a quietly wrong table.
    rows = (awkward_rows if cells == "awkward" else plain_rows)(2 * CHUNK_ROWS + 2)
    rows[at] = tuple(range(width))
    rows[at + 1 if at % CHUNK_ROWS == 0 else at - 1] = tuple(range(8 - width))
    with pytest.raises(TypeError, match="every row must have 4 cells, as the header has"):
        write_csv(tmp_path / "t.csv", HEADER, rows)
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


def test_write_csv_writes_once_per_chunk(tmp_path, monkeypatch):
    # One write per chunk of exact ints and plain text, not one per row.
    writes = []
    atomic_write = reports._atomic_write

    @contextmanager
    def counted(path):
        with atomic_write(path) as fh:
            write = fh.write

            def counted_write(text):
                writes.append(len(text))
                return write(text)

            fh.write = counted_write
            yield fh

    monkeypatch.setattr(reports, "_atomic_write", counted)
    rows = plain_rows(3 * CHUNK_ROWS)
    path = tmp_path / "t.csv"
    write_csv(path, HEADER, rows)
    assert len(writes) <= 1 + 3  # the header, then one per chunk
    assert path.read_bytes() == csv_oracle(HEADER, rows)


# ---------------------------------------------------------------------------
# Typed columns: each chunk's columns take the fast path or fall back
# ---------------------------------------------------------------------------

# One strategy per column type. Each text column but the last holds one of the
# characters that can make csv quote a field, so each rule is reached alone,
# next to a NUL and non-ASCII text.
STR_COLUMNS = [
    st.text(st.sampled_from([quoted, "\x00", " ", "%", "a", "é", "😀"])) for quoted in ',"\r\n'
] + [st.text()]
COLUMNS = {
    "int": st.integers(),
    **{f"str{i}": text for i, text in enumerate(STR_COLUMNS)},
    "float": st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    "none": st.none(),
    "bool": st.booleans(),
    "int_subclass": st.integers().map(Int),
    "str_subclass": st.text().map(Text),
}
COLUMNS["mixed"] = st.one_of(*COLUMNS.values())
# Exact ints and text, the columns that may skip the fallback; half the tables
# draw only these.
TYPED = ["int", *(f"str{i}" for i in range(len(STR_COLUMNS)))]


@st.composite
def chunked_tables(draw):
    """(header, rows) of CHUNK_ROWS - 1, CHUNK_ROWS or CHUNK_ROWS + 1 rows with
    typed columns; each column's last cell is drawn apart from the others, so
    a chunk can differ in type or in quoting from the chunk before it."""
    n = draw(st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]))
    pool = draw(st.sampled_from([TYPED, sorted(COLUMNS)]))
    kinds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        body = draw(st.lists(COLUMNS[kind], min_size=1, max_size=4))
        columns.append([body[i % len(body)] for i in range(n - 1)] + [draw(COLUMNS[kind])])
    return [f'{kind}%s,"{j}' for j, kind in enumerate(kinds)], list(zip(*columns))


def one_odd_cell(cell):
    """Plain text and ints with ``cell`` in the last row, a chunk of its own."""
    return ["s", "n"], [("a", i) for i in range(CHUNK_ROWS)] + [(cell, CHUNK_ROWS)]


@PROPERTY
@given(chunked_tables())
@example(one_odd_cell("a,b"))
@example(one_odd_cell('a"b'))
@example(one_odd_cell("a\rb"))
@example(one_odd_cell("a\nb"))
@example((["s"], [("",)] * (CHUNK_ROWS + 1)))  # csv quotes a lone empty field
def test_typed_columns_match_csv_writer_and_json_dumps(tmp_path, table):
    header, rows = table
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == csv_oracle(header, rows)
    write_json(tmp_path / "t.json", "t", header, rows)
    assert (tmp_path / "t.json").read_bytes() == json_oracle("t", header, rows)


# ---------------------------------------------------------------------------
# Absent cells: None is "-" in CSV and null in JSON, wherever it falls
# ---------------------------------------------------------------------------

def absent_in_floats(n, at):
    return [("s", 0.5 * i, i) if i not in at else ("s", None, i) for i in range(n)]


@pytest.mark.parametrize(
    "header, rows",
    [
        (("a", "b", "c"), absent_in_floats(3, {1})),
        (("a",), [(None,), ("",), (1.5,), (None,)]),
        (("a",), [(None,)] * 3),
        (("a", "b"), [("x", None)] * 3),  # a column that is all absent
        *(
            (("a", "b", "c"), absent_in_floats(2 * CHUNK_ROWS, {i}))
            for i in (CHUNK_ROWS - 1, CHUNK_ROWS)
        ),
    ],
    ids=["float-column", "one-column", "one-column-all-absent", "all-absent-column",
         "last-of-a-chunk", "first-of-the-next-chunk"],
)
def test_absent_cell_is_a_dash_in_csv_and_null_in_json(tmp_path, header, rows):
    write_csv(tmp_path / "t.csv", header, rows)
    write_json(tmp_path / "t.json", "t", header, rows)
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:]
    payload = json.loads((tmp_path / "t.json").read_text(encoding="ascii"))
    for row, line, obj in zip(rows, csv.reader(lines), payload["rows"], strict=True):
        for key, cell, text in zip(header, row, line, strict=True):
            if cell is None:
                assert text == "-" and obj[key] is None
    assert (tmp_path / "t.csv").read_bytes() == csv_oracle(header, rows)
    assert (tmp_path / "t.json").read_bytes() == json_oracle("t", header, rows)
