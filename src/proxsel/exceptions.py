"""Exception hierarchy for proxsel.

Every error raised by this package derives from :class:`ProxselError`, so
callers (including the CLI) can catch one type and still let programming
errors propagate.
"""

from __future__ import annotations

__all__ = [
    "ProxselError", "RankDeficient", "EmptySupport", "CombinatorialBlowup",
    "InvalidBound", "AssumptionViolation", "SingularBlock", "NoConvergence",
    "DegenerateTreatment", "AggregateFailure", "MissingColumn", "ParseError",
    "EmptyAfterFiltering", "ConfigError", "IoError", "WeakProxyWarning",
]


class ProxselError(Exception):
    """Base class for all errors raised by proxsel."""


class RankDeficient(ProxselError):
    """A design matrix violates the full-column-rank precondition.

    Signals that the observed data cannot support the requested projection
    or regression (e.g. a moment matrix that is singular at the configured
    singular-value cutoff).
    """


class EmptySupport(ProxselError):
    """A column support set was empty where a nonempty one is required."""


class CombinatorialBlowup(ProxselError):
    """A brute-force subset enumeration would exceed the configured guard."""

    def __init__(self, message: str, n_combinations: float | None = None):
        super().__init__(message)
        self.n_combinations = n_combinations


class InvalidBound(ProxselError):
    """A parameter lies outside its admissible range: the invalid-proxy bound, a
    penalty, level, seed, subsample count or size, a SimConfig field, or n < 20 in cv mode."""


class AssumptionViolation(ProxselError):
    """Input data violate a working assumption of the estimator.

    Carries the offending coordinate indices (0-based) when applicable.
    """

    def __init__(self, message: str, indices: list[int] | None = None):
        super().__init__(message)
        self.indices = indices or []


class SingularBlock(ProxselError):
    """A required block of a design's columns is rank deficient: its Gram block is singular."""


class NoConvergence(ProxselError):
    """An iterative solver exhausted its iteration budget before converging."""


class DegenerateTreatment(ProxselError):
    """The residualized treatment has (numerically) no variation left."""


class AggregateFailure(ProxselError):
    """Too many component fits failed for an aggregate estimate to be trusted."""

    def __init__(self, message: str, n_failed: int = 0, n_total: int = 0):
        super().__init__(message)
        self.n_failed = n_failed
        self.n_total = n_total


class MissingColumn(ProxselError):
    """A declared column name is absent from the file header."""

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = columns or []


class ParseError(ProxselError):
    """A cell could not be parsed; carries its location."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyAfterFiltering(ProxselError):
    """Complete-case filtering left too few rows: none, or no more than the
    ``p_z + p_w + p_x + 1`` a dataset needs."""


class ConfigError(ProxselError):
    """A configuration document or command-line input is malformed."""


class IoError(ProxselError):
    """Reading or writing a report or data file failed."""


class WeakProxyWarning(UserWarning):
    """A proxy's reduced-form coefficient is small enough to destabilize ratios."""
