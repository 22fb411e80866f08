"""Exceptions shared across the package.

Every failure mode the CLI maps to a nonzero exit code lives here. The
mapping itself is the except clauses of cli.main, which turn each of these
into one of the codes named in cli.EXIT_CODES.
"""


class BadSieveError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BadSieveError):
    """Invalid configuration or malformed input (bad R/depth, unparsable theta,
    unknown catalog entry, fingerprint mismatch between inputs)."""


class PrecisionExhausted(BadSieveError):
    """The declared truncation error of theta is too coarse for the requested
    height range: a record's zeta does not clear the margin of the guard,
    rationals.validate_precision.

    extra_digits is how many more decimal digits of theta the run needs: the
    larger of the digits the requested bound needs beyond those the declared
    error gives, and the digits by which that error misses the failing zeta.
    """

    def __init__(self, message, extra_digits=None):
        super().__init__(message)
        self.extra_digits = extra_digits


class DegenerateForm(BadSieveError):
    """An exact collision that the record structure cannot arbitrate:
    a candidate with zeta = 0 inside the scanned range, or two distinct
    candidate classes tying a record decision. Correctness over availability:
    the run is rejected instead of picking a side."""


class NoSurvivor(BadSieveError):
    """Every child rectangle at some level was killed by a resonance strip."""


class NoBaseFound(BadSieveError):
    """No base rectangle on the coarse corner grid passed the strip test.
    Impossible for sane configurations; signals misconfiguration."""


class IncompleteSequence(BadSieveError):
    """A best-approximation sequence does not cover the height range the
    caller needs (height_sq_max too small)."""


class InvariantViolation(BadSieveError):
    """A quantity the construction guarantees failed its recheck."""
