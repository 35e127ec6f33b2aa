"""Fixed pure-Python work, timed next to the program to gauge the host's speed.

On a shared host the CPU speed drifts by tens of percent over minutes,
because other tenants use the same cores. The worker times ``burst()``
between full report runs, so each invocation knows how fast the host was
while its runs were timed, and ``run.py`` reports times at the speed where a
burst takes ``NOMINAL_S``. The work resembles the program's ingest (CSV
rows, string and dict operations) but shares no code with it, so a change to
the program cannot move it.
"""

from __future__ import annotations

import csv
import io
import random
import time

# About the burst time on the reference host (2 vCPU, Python 3.11.7) in a
# quiet period (median 0.82 s); it only sets the scale of the reported times.
NOMINAL_S = 0.85
_ROWS = 6000
_PASSES = 60


def _text() -> str:
    rng = random.Random(2105)
    lines = ["author_key,doi,citations,source"]
    for i in range(_ROWS):
        lines.append(
            f"a{rng.randrange(500):06d},10.{rng.randint(1000, 99999)}/X{i}.P{i % 7},"
            f"{rng.randint(0, 999)},scopus"
        )
    return "\n".join(lines) + "\n"


def burst() -> float:
    """Seconds taken by the fixed work."""
    text = _text()
    start = time.perf_counter()
    for _ in range(_PASSES):
        best: dict[tuple[str, str], int] = {}
        for row in csv.DictReader(io.StringIO(text, newline="")):
            key = (row["author_key"], row["doi"].strip().lower())
            cites = int(row["citations"])
            if cites > best.get(key, -1):
                best[key] = cites
        sorted(best.values(), reverse=True)
    return time.perf_counter() - start
