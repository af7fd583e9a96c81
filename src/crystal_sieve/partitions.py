"""Integer partitions, and how a shape sits on m letters: every type-A entry
point passes its shape through one gate, ``_on_letters``, and reads what it
needs of it off one list, ``_beta_numbers``.

Every count, order and exponent of the package is read here too: a value
through ``_integer``, an integer written as text through ``_decimal`` and a
comma list of them through ``_decimals``, each with its lower bound, if any.
A message prints every value that grows with the input through ``_shown``,
and only when its check fails, so that no input makes a long message."""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator
from itertools import chain

from .errors import ConditionViolated, ResourceLimit

Partition = tuple[int, ...]

# Largest number of letters m of a type-A shape, checked before any m-tuple
# is built; ssyt_count of (1,) on m letters takes seconds at m = 100,000.
MAX_LETTERS = 100_000


def _shown(x) -> str:
    """repr of x, or, when its text (x itself for a str, else its repr) is
    longer than 40 characters, the repr of the first 40 and the length; its
    type alone when its repr has an int past the integer string limit."""
    try:
        text = x if isinstance(x, str) else repr(x)
    except ValueError:
        return f"<{type(x).__name__} past the integer string limit>"
    return repr(x) if len(text) <= 40 else f"{text[:40]!r}... ({len(text):,} characters)"


def _shape_on(lam: Partition, m: int) -> str:
    """The words that name the shape lam on m letters in a message."""
    return f"shape {_shown(lam)} on {_shown(m)} letters"


def _integer(x, what: str, *, least: int | None = None) -> int:
    """x through operator.index, so that no float or string passes as an int;
    anything else raises ValueError naming x. A lower bound least of 0 or 1
    raises "<what> must be nonnegative" or "<what> must be positive" below it."""
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {_shown(x)} is not an integer") from None
    if least is not None and x < least:
        raise ValueError(f"{what} must be {('nonnegative', 'positive')[least]}")
    return x


def _decimal(text, what: str, *, least: int | None = None) -> int:
    """An integer written as text, read as ``_integer`` reads a value: an
    ASCII decimal with an optional sign and spaces around it, since int()
    alone also reads 1_0 and non-ASCII digits. A JSON integer is such a
    string or an int that is not a bool, which passes as it is."""
    if type(text) is not int:
        if not (isinstance(text, str) and re.fullmatch(r"\s*[+-]?[0-9]+\s*", text)):
            raise ValueError(f"{what} {_shown(text)} is not an integer")
        text = int(text)
    return _integer(text, what, least=least)


def _decimals(text: str, what: str, *, least: int | None = None) -> list[int]:
    """A comma list of integers written as text, each read by ``_decimal``."""
    return [_decimal(x, what, least=least) for x in text.split(",")]


def as_partition(parts: Iterable[int]) -> Partition:
    """Normalize to a tuple of weakly decreasing positive parts.

    Trailing zeros are stripped; a part that is not an integer, or anything
    else out of order or nonpositive, raises ValueError.
    """
    p = [_integer(x, "part") for x in parts]
    while p and p[-1] == 0:
        p.pop()
    p = tuple(p)
    for k, part in enumerate(p):
        if part <= 0:
            raise ValueError(f"part {_shown(part)} is not positive in {_shown(p)}")
        if k and p[k - 1] < part:
            raise ValueError(f"parts not weakly decreasing in {_shown(p)}")
    return p


def _on_letters(parts: Iterable[int], m: int) -> Partition:
    """The shape parts as a partition on m letters: ValueError unless m is
    a positive integer, ResourceLimit when m is above MAX_LETTERS."""
    lam = as_partition(parts)
    if (m := _integer(m, "letter count m", least=1)) > MAX_LETTERS:
        raise ResourceLimit(f"{_shape_on(lam, m)}: above the letter cap {MAX_LETTERS}")
    return lam


def _beta_numbers(lam: Partition, m: int) -> tuple[int, ...]:
    """The strictly decreasing l_k = lam_k + m - 1 - k, k = 0..m-1, of lam
    padded to m rows; ConditionViolated when lam has more than m rows."""
    if len(lam) > m:
        raise ConditionViolated(f"{len(lam)} parts will not fit into {m} letters")
    return tuple(part + m - 1 - k for k, part in enumerate(lam + (0,) * (m - len(lam))))


def dominates(lam: Partition, mu: Iterable[int]) -> bool:
    """Dominance order: every prefix sum of lam is at least that of mu.

    Compares sequences of the same total size; different totals are
    incomparable and give False.
    """
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def partitions_of(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of n with at most max_parts parts (any number when
    None), weakly decreasing, lexicographically descending; none when n < 0."""
    n = _integer(n, "size n")
    room = n if max_parts is None else _integer(max_parts, "max_parts", least=0)
    return _partitions(n, n, room, []) if n >= 0 else iter(())


def _partitions(remaining: int, cap: int, room: int, acc: list[int]) -> Iterator[Partition]:
    """acc extended by each partition of remaining into at most room parts
    of at most cap each."""
    if remaining == 0:
        yield tuple(acc)
        return
    if room == 0:
        return
    for part in range(min(cap, remaining), 0, -1):
        acc.append(part)
        yield from _partitions(remaining - part, part, room - 1, acc)
        acc.pop()


def partitions_up_to(n: int, max_parts: int | None = None) -> Iterator[Partition]:
    """All partitions of sizes 0 through n inclusive (the empty one first)."""
    sizes = range(_integer(n, "size n") + 1)
    return chain.from_iterable(partitions_of(size, max_parts) for size in sizes)
