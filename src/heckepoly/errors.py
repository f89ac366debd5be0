"""Exception taxonomy shared by all modules.

Every exception carries a stable machine-readable ``code`` so the CLI can
emit structured errors without string matching.
"""


class HeckePolyError(Exception):
    code = "Error"


class UnsupportedParityError(HeckePolyError, ValueError):
    """Parameter parity outside the range the closed formulas cover."""

    code = "UnsupportedParity"


class _RankError(HeckePolyError):
    """An error that carries the rank found, or None."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class SingularMatrixError(_RankError):
    """Exact elimination hit a rank deficiency; carries the rank found."""

    code = "SingularMatrix"


class BasisDeficientError(HeckePolyError):
    """The attempted period-polynomial basis does not span the cusp space."""

    code = "BasisDeficient"


class PrecisionError(HeckePolyError):
    """Too few q-expansion coefficients for the requested computation."""

    code = "PrecisionTooLow"


class EmptySpaceError(HeckePolyError):
    """The cusp-form space in question has dimension zero."""

    code = "EmptySpace"


class LevelError(HeckePolyError, ValueError):
    """Level outside the supported range."""

    code = "UnsupportedLevel"


class InconsistentSystemError(HeckePolyError):
    """An exact linear system has no solution."""

    code = "InconsistentSystem"


class UnderdeterminedSystemError(_RankError):
    """An exact linear system has no *unique* solution; carries the rank found."""

    code = "UnderdeterminedSystem"
