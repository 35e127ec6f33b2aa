"""Frozen run configuration for reproducible batch runs."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .analytics import DEFAULT_BINS, BinSpec

OUT_DIR_ENV = "SCIMETRICS_OUT"
ROUNDING_MODES = ("half-up", "raw")


class RunConfig(NamedTuple):
    """Everything a batch run needs; the pipeline itself has no randomness.

    ``records`` holds (tag, export file) of two databases, in report order.
    ``rounding`` controls report formatting only: "half-up" renders
    percents to tenths and correlations to hundredths, "raw" keeps full
    precision. Computations are never rounded.
    """

    records: tuple[tuple[str, Path], ...]
    roster: Path
    out_dir: Path = Path("out")
    disciplines: tuple[str, ...] | None = None  # None: derive from the roster
    bins: BinSpec = DEFAULT_BINS
    density_width: int = 5
    format: str = "both"  # report files: "csv", "json" or "both"
    rounding: str = "half-up"

    @property
    def db_tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.records)
