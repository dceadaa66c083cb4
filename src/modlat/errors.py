"""Exception types shared across the package."""


class ModlatError(Exception):
    """Base class for all package-specific errors."""


class QueryBeyondTruncation(ModlatError):
    """Asked for a q-series coefficient at or past the truncation order."""


class NotInvertible(ModlatError):
    """Tried to invert a q-series with no nonzero leading term."""


class BoundTooLarge(ModlatError):
    """Lattice enumeration would exceed the configured node budget."""


class RankDeficient(ModlatError):
    """Generator rows are linearly dependent."""


class NotIntegral(ModlatError):
    """Operation requires an integral Gram matrix."""


class UnknownLattice(ModlatError):
    """Catalog lookup for a name we do not ship."""


class UnsupportedLevel(ModlatError):
    """Basis construction requested for a level outside {1, 2, 3}."""


class EmptyBasis(ModlatError):
    """No monomial solves the weight equation for the requested dimension."""


class SingularSystem(ModlatError):
    """An exact linear system, such as a decomposition's, is singular."""


class InconsistentSurplus(ModlatError):
    """Solved decomposition contradicts extra known theta coefficients."""


class EnumerationTooLarge(ModlatError):
    """Codeword enumeration would exceed the configured budget."""


class TailBoundNotMet(ModlatError):
    """Requested numeric precision unreachable within the enumeration budget."""
