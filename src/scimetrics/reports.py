"""Deterministic report writers: CSV/JSON with atomic file replacement.

Rows stream into a same-directory temp file, created 0666 less the umask as
``open()`` would, which is then renamed into place. JSON bytes equal
``json.dumps(payload, indent=2) + "\\n"``.

JSON rows go out ``CHUNK_ROWS`` at a time, so only one chunk's text is held.
A chunk's cells must each be a ``str``, ``int``, ``float``, ``bool`` or
``None`` (subclasses included), and each row must be as wide as the header;
anything else raises TypeError and leaves no file. The cells are then encoded
as one flat list by the C encoder behind ``json.dumps``, with ``"\\n"`` as
the item separator, and split on it. This is safe because
``encode_basestring_ascii`` escapes every control character, so ``"\\n"``
never occurs inside an encoded cell. One ``%`` then fills the row template,
repeated once per row, with the whole chunk's cells.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from itertools import chain, islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

CHUNK_ROWS = 1024  # JSON rows encoded, and held as text, at a time


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


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _atomic_write(Path(path)) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# json.dumps's C encoder, with NaN and infinities allowed and "\n" between
# items. It needs no ``default``: ``_json_cells`` passes it scalars only.
_encode = c_make_encoder(
    None, None, encode_basestring_ascii, None, ": ", "\n", False, False, True
)
_SCALAR_TYPES = (str, int, float, type(None))  # bool is an int


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


def write_json(
    path: Path | str,
    name: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    json_rows: Iterable[Sequence] | None = None,
    footnotes: Sequence[str] = (),
) -> None:
    """``{"report": name, "rows": [...], "footnotes": [...]}``, one object per
    row keyed by the distinct ``header`` names; ``json_rows`` replace ``rows``
    when given, and the ``footnotes`` key is left out when there are none."""
    keys = (encode_basestring_ascii(k).replace("%", "%%") for k in header)
    fields = ",\n      ".join(key + ": %s" for key in keys)
    template = "    {\n      " + fields + "\n    }" if header else "    {}"
    rows = iter(rows if json_rows is None else json_rows)
    chunk = list(islice(rows, CHUNK_ROWS))
    # The name and footnotes share the first chunk's encoder call.
    head = 1 + len(footnotes)
    cells = _json_cells([name, *footnotes, *_flat(chunk, len(header))])
    name_json, *footnotes_json = cells[:head]
    del cells[:head]
    with _atomic_write(Path(path)) as fh:
        fh.write('{\n  "report": ' + name_json + ',\n  "rows": [')
        sep = "\n"
        while chunk:
            fh.write(sep + ",\n".join([template] * len(chunk)) % tuple(cells))
            sep = ",\n"
            chunk = list(islice(rows, CHUNK_ROWS))
            cells = _json_cells(_flat(chunk, len(header)))
        fh.write("]" if sep == "\n" else "\n  ]")
        if footnotes_json:
            fh.write(',\n  "footnotes": [\n    ' + ",\n    ".join(footnotes_json) + "\n  ]")
        fh.write("\n}\n")
