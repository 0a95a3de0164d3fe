"""Exception types shared across the package.

Every *expected* failure (invalid input, undefined operation, verification
mismatch) raises one of these; anything else escaping the library is a bug.
Each class carries the CLI's envelope ``code`` and its ``exit_code``.
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

    code = "error"
    exit_code = 3


class DomainError(TwinbuildError):
    """The operation is undefined for these inputs.

    Examples: Weyl distance between chambers of different sign, codistance
    between chambers of the same sign, incompatible determinant valuations,
    a generator index outside the diagram.
    """

    code = "domain-error"


class NotInvertibleError(DomainError):
    """A matrix that must be invertible (over the ring at hand) is not."""

    code = "not-invertible"


class NotInImageError(DomainError):
    """A point fails the membership test for an embedding's image.

    Raised by flag recovery when the alleged Veronese point has the wrong
    spectrum or defective eigenspaces.
    """

    code = "not-in-image"


class VerificationError(TwinbuildError):
    """A self-check suite found a counterexample."""

    code = "verification"
    exit_code = 1


def _integer(x, what) -> int:
    """``x`` as an int (``operator.index``), else TypeError naming it."""
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {x!r}") from None


def check_rank(n: int) -> int:
    """The rank parameter n as an int: TypeError naming it unless it is an
    integer (``_integer``), DomainError for n < 2 (SL_1 has no building)."""
    n = _integer(n, "rank parameter n")
    if n < 2:
        raise DomainError(f"rank parameter n = {n} must be at least 2")
    return n
