"""Deterministic report writers: CSV/JSON with atomic file replacement.

Rows stream into a same-directory temp file, created 0666 less the umask as
``open()`` would, which is then renamed into place. A ``None`` cell is an
absent value, the one rule for every report: CSV bytes equal
``csv.writer(fh, lineterminator="\\n")``'s with each ``None`` cell given as
``"-"``; JSON bytes equal ``json.dumps(payload, indent=2) + "\\n"``, where
``None`` is ``null``.

Rows go out ``CHUNK_ROWS`` at a time, so only one chunk's text is held, and
each row must be as wide as the header, else TypeError and no file. A chunk
is typed by column, through strided slices of its flat cell list:

- an exact-``int`` column passes as it is: ``json.dumps`` and ``csv.writer``
  both print an int as ``str()`` does;
- an exact-``str`` column goes through ``encode_basestring_ascii`` for JSON,
  and passes as it is for CSV when its text holds no ``,``, ``"``, ``\\r``
  or ``\\n``, the characters that can make ``csv.writer`` quote;
- any other column (float, None, bool, a subclass, mixed types) falls back.

One ``%`` then fills the row template, repeated once per row, with the whole
chunk's cells. For JSON, a chunk's fallback cells must each be a ``str``,
``int``, ``float``, ``bool`` or ``None`` (subclasses included), else
TypeError and no file. They are encoded as one flat list by the C encoder
behind ``json.dumps``, with ``"\\n"`` as the item separator, and split on it.
This is safe because ``encode_basestring_ascii`` escapes every control
character, so ``"\\n"`` never occurs inside an encoded cell. For CSV, a chunk
with any fallback column is written by ``csv.writer`` instead, with ``"-"``
for ``None``, as is every chunk of a one-column table, where ``csv`` quotes a
lone empty field.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

CHUNK_ROWS = 1024  # rows typed, encoded and held as text at a time


@contextmanager
def _atomic_write(path: Path) -> Iterator[TextIO]:
    """Yield a same-directory temp file, renamed to ``path`` if the block succeeds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


# json.dumps's C encoder, with NaN and infinities allowed and "\n" between
# items. It needs no ``default``: ``_json_cells`` passes it scalars only.
_encode = c_make_encoder(
    None, None, encode_basestring_ascii, None, ": ", "\n", False, False, True
)
_SCALAR_TYPES = (str, int, float, type(None))  # bool is an int
_CSV_QUOTED = ',"\r\n'  # the characters that may make csv.writer quote a field


def _json_cells(cells: list) -> list[str]:
    """Each scalar cell as ``json.dumps`` encodes it; TypeError for any other cell."""
    for kind in set(map(type, cells)):
        if not issubclass(kind, _SCALAR_TYPES):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return "".join(_encode(cells, 0))[1:-1].split("\n") if cells else []


def _flat(chunk: list[Sequence], width: int) -> list:
    """The cells of a chunk of rows, row by row; TypeError unless each row has ``width``."""
    if set(map(len, chunk)) - {width}:
        raise TypeError(f"every row must have {width} cells, as the header has")
    return list(chain.from_iterable(chunk))


def _csv_plain(column: list) -> bool:
    """Whether ``csv.writer`` prints every cell of ``column`` as ``str()`` does."""
    kinds = set(map(type, column))
    if kinds != {str}:
        return kinds == {int}
    text = "".join(column)
    return not any(map(text.__contains__, _CSV_QUOTED))


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with _atomic_write(Path(path)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        while chunk := list(islice(rows, CHUNK_ROWS)):
            cells = _flat(chunk, width)
            if width != 1 and all(_csv_plain(cells[j::width]) for j in range(width)):
                fh.write(line * len(chunk) % tuple(cells))
            else:
                writer.writerows(["-" if cell is None else cell for cell in row] for row in chunk)


def _json_chunk(chunk: list[Sequence], width: int) -> list:
    """The chunk's cells, each as ``json.dumps`` encodes it, except that exact
    ints stay ints for the row template's ``%s``; one encoder call at most."""
    cells = _flat(chunk, width)
    fallback = []
    for j in range(width):
        column = cells[j::width]
        kinds = set(map(type, column))
        if kinds == {str}:
            cells[j::width] = map(encode_basestring_ascii, column)
        elif kinds != {int}:
            fallback.append(j)
    encoded = _json_cells(list(chain.from_iterable(cells[j::width] for j in fallback)))
    start = 0
    for j in fallback:
        cells[j::width] = encoded[start : start + len(chunk)]
        start += len(chunk)
    return cells


def write_json(
    path: Path | str,
    name: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    footnotes: Sequence[str] = (),
) -> None:
    """``{"report": name, "rows": [...], "footnotes": [...]}``, one object per
    row keyed by the distinct ``header`` names; the ``footnotes`` key is left
    out when there are none."""
    keys = (encode_basestring_ascii(k).replace("%", "%%") for k in header)
    fields = ",\n      ".join(key + ": %s" for key in keys)
    template = "    {\n      " + fields + "\n    }" if header else "    {}"
    name_json = encode_basestring_ascii(name)
    footnotes_json = list(map(encode_basestring_ascii, footnotes))
    rows = iter(rows)
    chunk = list(islice(rows, CHUNK_ROWS))
    cells = _json_chunk(chunk, len(header))
    with _atomic_write(Path(path)) as fh:
        fh.write('{\n  "report": ' + name_json + ',\n  "rows": [')
        sep = "\n"
        while chunk:
            fh.write(sep + ",\n".join([template] * len(chunk)) % tuple(cells))
            sep = ",\n"
            chunk = list(islice(rows, CHUNK_ROWS))
            cells = _json_chunk(chunk, len(header))
        fh.write("]" if sep == "\n" else "\n  ]")
        if footnotes_json:
            fh.write(',\n  "footnotes": [\n    ' + ",\n    ".join(footnotes_json) + "\n  ]")
        fh.write("\n}\n")
