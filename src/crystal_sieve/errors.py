"""Exception types shared across the library: one class per outcome, each
with the exit code the command line gives it.

* ``InvalidRank`` (exit 2): a Cartan type string is malformed or its rank is
  outside the family's range. Other unreadable input is a ``ValueError``,
  which also exits 2.
* ``ConditionViolated`` (exit 3): the input lies outside the operation's
  hypotheses.
* ``ResourceLimit`` (exit 4): the work would exceed a configured cap.
* ``InternalError`` (exit 5): a mathematically guaranteed identity failed,
  which signals a bug, never bad input.
"""


class CrystalSieveError(Exception):
    """Base class for all library errors."""


class InvalidRank(CrystalSieveError):
    """Cartan type string is malformed or its rank is outside the family's range."""


class ConditionViolated(CrystalSieveError):
    """Input outside the operation's hypotheses."""


class ResourceLimit(CrystalSieveError):
    """Enumeration would exceed the configured element cap, a product the
    polynomial degree cap, or an order the order cap."""


class InternalError(CrystalSieveError):
    """A guaranteed identity failed during computation; indicates a bug."""
