"""Exception types shared across the library.

Errors fall into two groups: domain errors (the caller handed us input
outside an operation's hypotheses) and internal errors (a mathematically
guaranteed identity failed, which signals a bug, never bad input).
"""


class CrystalSieveError(Exception):
    """Base class for all library errors."""


class InvalidRank(CrystalSieveError):
    """Cartan type string is malformed or its rank is outside the family's range."""


class DimensionMismatch(CrystalSieveError):
    """Coordinate vector length disagrees with the rank of the Cartan datum."""


class NotARoot(CrystalSieveError):
    """Vector has nonpositive norm or a non-integral coroot pairing."""


class ShapeTooLong(CrystalSieveError):
    """Partition has more parts than the number of available entries."""


class NotMonic(CrystalSieveError):
    """Modulus must be monic of positive degree."""


class NotDominant(CrystalSieveError):
    """Weight has a negative fundamental coordinate."""


class ConditionViolated(CrystalSieveError):
    """A required divisibility or group-order condition fails."""


class ResourceLimit(CrystalSieveError):
    """Enumeration would exceed the configured element cap, or a product
    the polynomial degree cap."""


class SizeMismatch(CrystalSieveError):
    """Partition and content do not have the same size."""


class NotDivisible(CrystalSieveError):
    """Tableau size is not divisible by the number of entries."""


class NotSemistandard(CrystalSieveError):
    """Filling violates weak row increase or strict column increase."""


class HypothesisViolated(CrystalSieveError):
    """Input falls outside the hypotheses of the requested characterization."""


class NotPrime(CrystalSieveError):
    """Argument must be a prime number."""


class PTooSmall(CrystalSieveError):
    """The prime must be at least the number of tableau entries."""


class InternalError(CrystalSieveError):
    """A guaranteed identity failed during computation; indicates a bug."""


class CongruenceMismatch(InternalError):
    """Residue and orbit-count decomposition disagree, or an orbit count is bad."""
