"""Exception types shared across the library: one class per outcome, each
carrying in ``exit_code`` the exit code the command line gives it.
Unreadable input other than a Cartan type, a weight or root of the wrong
length among it, is a ``ValueError``, which exits 2 like ``InvalidRank``;
a message quotes the input through ``partitions._shown``."""


class CrystalSieveError(Exception):
    """Base class for all library errors."""
    exit_code: int


class InvalidRank(CrystalSieveError):
    """Cartan type string is malformed or its rank is outside the family's range."""
    exit_code = 2


class ConditionViolated(CrystalSieveError):
    """Input outside the operation's hypotheses."""
    exit_code = 3


class ResourceLimit(CrystalSieveError):
    """Enumeration would exceed the configured element cap, a product the
    polynomial degree cap, an order the order cap, a Cartan type the rank
    cap, or a printed count the interpreter's integer string limit."""
    exit_code = 4


class InternalError(CrystalSieveError):
    """A guaranteed identity failed during computation: a bug, never bad input."""
    exit_code = 5
