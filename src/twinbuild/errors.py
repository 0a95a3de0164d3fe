"""Exception types shared across the package.

Every *expected* failure (invalid input, undefined operation, verification
mismatch) raises one of these; anything else escaping the library is a bug.
"""

import operator

__all__ = [
    "TwinbuildError",
    "DomainError",
    "NotInvertibleError",
    "NotInImageError",
    "VerificationError",
    "check_rank",
]


class TwinbuildError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwinbuildError):
    """The operation is undefined for these inputs.

    Examples: Weyl distance between chambers of different sign, codistance
    between chambers of the same sign, incompatible determinant valuations,
    a generator index outside the diagram.
    """


class NotInvertibleError(DomainError):
    """A matrix that must be invertible (over the ring at hand) is not."""


class NotInImageError(DomainError):
    """A point fails the membership test for an embedding's image.

    Raised by flag recovery when the alleged Veronese point has the wrong
    spectrum or defective eigenspaces.
    """


class VerificationError(TwinbuildError):
    """A self-check suite found a counterexample (CLI exit code 1)."""


def check_rank(n: int) -> int:
    """The rank parameter n as an int: TypeError unless it is an integer
    (``operator.index``), DomainError for n < 2 (SL_1 has no building)."""
    n = operator.index(n)
    if n < 2:
        raise DomainError(f"rank parameter n = {n} must be at least 2")
    return n
