"""Exception types shared across the package."""


class UnruhError(Exception):
    """Base class for all errors raised by this package."""


class BasisError(UnruhError):
    """Invalid basis construction or mismatched subsystems."""


class NotSymmetricError(UnruhError):
    """A matrix expected to be symmetric is not."""


class ConvergenceError(UnruhError):
    """An iterative computation failed to converge.

    ``partial_value`` carries the best value obtained before giving up,
    when one is meaningful.
    """

    def __init__(self, message, partial_value=None):
        super().__init__(message)
        self.partial_value = partial_value


class MissingLapackError(ImportError):
    """No LAPACK routine the package needs can be found in this process.

    Not an ``UnruhError``: the installation is at fault, not a point, so a
    sweep stops on it instead of turning every row into NaN.
    """


class NotAStateError(UnruhError):
    """A matrix expected to be a density matrix is not positive semidefinite."""


class TruncationError(UnruhError):
    """Fock-space truncation could not reach the requested tail tolerance."""


class OracleMismatchError(UnruhError):
    """Closed-form and constructive routes disagree beyond tolerance."""

    def __init__(self, message, discrepancy=None):
        super().__init__(message)
        self.discrepancy = discrepancy
