"""Exception types shared across the library: one class per outcome, each
carrying in ``exit_code`` the exit code the command line gives it.
Unreadable input, a Cartan type or a weight or root of the wrong length
among it, is a plain ``ValueError``, which exits 2; every value a message
prints that grows with the input goes through ``partitions._shown``."""


class CrystalSieveError(Exception):
    """Base class for all library errors."""
    exit_code: int


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
