"""Frozen run configuration for reproducible batch runs."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .analytics import DEFAULT_BINS, BinSpec
from .errors import ConfigError

OUT_DIR_ENV = "SCIMETRICS_OUT"
FORMATS = ("csv", "json")
ROUNDING_MODES = ("half-up", "raw")


class RunConfig(NamedTuple):
    """Everything a batch run needs; the pipeline itself has no randomness.

    ``records`` maps each of exactly two database tags to its export file.
    ``rounding`` controls report formatting only: "half-up" renders
    percents to one decimal and correlations to two, "raw" keeps full
    precision. Computations are never rounded.
    """

    records: dict[str, Path]
    roster: Path
    out_dir: Path
    disciplines: tuple[str, ...] | None = None  # None: derive from the roster
    bins: BinSpec = DEFAULT_BINS
    density_width: int = 5
    formats: tuple[str, ...] = FORMATS
    rounding: str = "half-up"

    @property
    def db_tags(self) -> tuple[str, str]:
        tags = tuple(self.records)
        return tags  # validated to be exactly two

    def validate(self) -> "RunConfig":
        if len(self.records) != 2:
            raise ConfigError(
                f"exactly two database tags required, got {sorted(self.records)}"
            )
        if self.disciplines is not None and not self.disciplines:
            raise ConfigError("declared discipline set must be non-empty")
        if self.density_width < 1:
            raise ConfigError("density width must be a positive integer")
        if not self.formats or any(f not in FORMATS for f in self.formats):
            raise ConfigError(f"formats must be a non-empty subset of {FORMATS}")
        if self.rounding not in ROUNDING_MODES:
            raise ConfigError(f"rounding must be one of {ROUNDING_MODES}")
        return self
