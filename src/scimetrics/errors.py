"""Exception types shared across the pipeline."""


class ScimetricsError(Exception):
    """Base class for all package errors."""


class MalformedDoi(ScimetricsError):
    """A DOI string does not normalize to the ``10.<digits>/<suffix>`` shape."""


class SchemaError(ScimetricsError):
    """An input is structurally unusable: a file, a roster row or a record tag."""


class UnknownAuthor(ScimetricsError):
    """A publication record references an author_key absent from the roster."""


class DegenerateInput(ScimetricsError):
    """Too little data, or a constant variable, for the requested statistic."""


class ConfigError(ScimetricsError):
    """A run configuration violates its invariants."""
