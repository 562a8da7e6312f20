"""Exception types shared across the package.

Everything user-facing raises one of these instead of a bare ValueError so
the command-line layer can map failures onto its exit-code contract.  A bad
count, seed, real or coefficient array raises :class:`ParameterError` from
its one check in :mod:`quadlab.space`, never a TypeError or OverflowError.
"""


class ParameterError(ValueError):
    """Invalid parameter or parameter combination (zero weights, bad ranges)."""


class DimensionMismatchError(ParameterError):
    """A vector, matrix, or map does not match the declared dimensions."""


class InfeasibleDomainError(ParameterError):
    """The requested restricted domain cannot be reached by the sampler."""


class UndefinedValueError(ArithmeticError):
    """An undefined power such as 0 raised to a negative exponent came up."""


class ExtractionError(RuntimeError):
    """The dyadic limit extractor hit a non-finite value.

    Carries the diagnostics gathered up to the failing iteration so callers
    can report how far the sequence got before it blew up.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics
