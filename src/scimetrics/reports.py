"""Deterministic report writers: CSV/JSON with atomic file replacement.

Rows stream into a same-directory temp file, created 0666 less the umask as
``open()`` would, which is then renamed into place. JSON bytes equal
``json.dumps(payload, indent=2) + "\\n"``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO


def round_half_up(value: float, ndigits: int) -> float:
    """Decimal rounding with ties away from zero (table formatting).

    Works on the shortest decimal form of the float, so 2.25 -> 2.3 at
    one digit where bankers' rounding would give 2.2.
    """
    quantum = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


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


def _json_value(value) -> str:
    """One scalar cell as ``json.dumps`` encodes it, with fast paths for the common types."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)  # null, true, false, NaN, Infinity, subclasses
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    with _atomic_write(Path(path)) as fh:
        fh.write('{\n  "report": ' + _json_value(name) + ',\n  "rows": [')
        sep = "\n"
        for row in rows if json_rows is None else json_rows:
            fh.write(sep + template % tuple(map(_json_value, row)))
            sep = ",\n"
        fh.write("]" if sep == "\n" else "\n  ]")
        if footnotes:
            fh.write(',\n  "footnotes": [\n    ')
            fh.write(",\n    ".join(map(_json_value, footnotes)) + "\n  ]")
        fh.write("\n}\n")
