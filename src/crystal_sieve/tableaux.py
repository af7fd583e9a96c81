"""Semistandard tableaux on m letters as a crystal: enumeration, Kostka
numbers, raising and lowering operators, Weyl reflections and the long-cycle
operator built from them, Bender-Knuth involutions and promotion, fixed
points, cores on the m-runner abacus, and orbit censuses.

The public type is the validated, immutable ``Tableau`` of row tuples with
1-based entries. Inside this module a tableau is its reading word: a flat
tuple of entries read row by row, left to right, bottom row first, together
with its shape. A cached table per shape gives the word positions of each
row and of the cells above and below each cell. The operators work on the
word in one pass each; the public functions validate a ``Tableau`` on the
way in and out, and censuses never leave the word form.

The canonical order everywhere is lexicographic on the reading word.
Enumeration produces it directly: a depth-first search fills the word
positions in order, each with ascending values, so nothing is sorted.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .errors import (
    InternalError,
    NotDivisible,
    NotSemistandard,
    ResourceLimit,
    ShapeTooLong,
    SizeMismatch,
)
from .partitions import Partition, as_partition, dominates, partition_size
from .qpoly import q_ratio_at_one

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "CRYSTAL_SIEVE_MAX_ENUM"

Word = tuple[int, ...]


def _enum_cap(cap: int | None) -> tuple[int, str]:
    """The enumeration cap and what set it."""
    if cap is not None:
        return cap, "passed as the cap argument"
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP, "by default"
    try:
        return int(env), f"set by {ENUM_CAP_ENV}"
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV}={env!r} is not an integer") from None


def _over_cap(count: str, what: str, limit: int, source: str) -> ResourceLimit:
    return ResourceLimit(f"{count} tableaux of {what} exceed the cap {limit} {source}")


@dataclass(frozen=True)
class Tableau:
    """Semistandard filling: rows weakly increase, columns strictly increase,
    entries lie in {1, ..., m}."""

    rows: tuple[tuple[int, ...], ...]
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("entry bound m must be positive")
        prev_len = None
        for r, row in enumerate(self.rows):
            if not row:
                raise NotSemistandard("empty row")
            if prev_len is not None and len(row) > prev_len:
                raise NotSemistandard(f"row {r + 1} longer than the row above")
            prev_len = len(row)
            for c, v in enumerate(row):
                if not 1 <= v <= self.m:
                    raise NotSemistandard(f"entry {v} outside 1..{self.m}")
                if c and row[c - 1] > v:
                    raise NotSemistandard(f"row {r + 1} decreases at column {c + 1}")
                if r and self.rows[r - 1][c] >= v:
                    raise NotSemistandard(f"column {c + 1} not strict at row {r + 1}")

    @property
    def shape(self) -> Partition:
        return tuple(len(row) for row in self.rows)

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def reading_word(self) -> tuple[int, ...]:
        """Rows left to right, bottom row to top row."""
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def content(self) -> tuple[int, ...]:
        counts = [0] * self.m
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def with_entry(self, r: int, c: int, v: int) -> "Tableau":
        row = self.rows[r]
        new_row = row[:c] + (v,) + row[c + 1:]
        return Tableau(self.rows[:r] + (new_row,) + self.rows[r + 1:], self.m)

    def to_text(self) -> str:
        if not self.rows:
            return "-"
        return "/".join(",".join(str(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str, m: int) -> "Tableau":
        text = text.strip()
        if text in ("", "-"):
            return cls((), m)
        rows = tuple(
            tuple(int(v) for v in row.split(","))
            for row in text.split("/")
        )
        return cls(rows, m)

    def __str__(self):
        return self.to_text()


def ssyt_count(lam: Partition, m: int) -> int:
    """Number of semistandard fillings, by the Weyl dimension product
    over pairs of padded rows. Zero when the shape has too many rows."""
    lam = as_partition(lam)
    if m < 1:
        raise ValueError("m must be positive")
    if len(lam) > m:
        return 0
    padded = lam + (0,) * (m - len(lam))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    nums = [padded[i] - padded[j] + j - i for i, j in pairs]
    return q_ratio_at_one(nums, [j - i for i, j in pairs])


class _Cells(NamedTuple):
    """Word positions of a shape's cells; the word lists the rows bottom
    row first. -1 marks a missing neighbour."""

    rows: tuple[range, ...]  # positions of each row, top row first
    above: tuple[int, ...]
    below: tuple[int, ...]
    floor: tuple[int, ...]  # least entry: the row number, 1-based
    has_left: tuple[bool, ...]


@functools.cache
def _cells(lam: Partition) -> _Cells:
    starts = [sum(lam[r + 1:]) for r in range(len(lam))]
    size = partition_size(lam)
    above, below, floor, has_left = [-1] * size, [-1] * size, [0] * size, [False] * size
    for r, length in enumerate(lam):
        for c in range(length):
            p = starts[r] + c
            floor[p] = r + 1
            has_left[p] = c > 0
            if r:
                above[p] = starts[r - 1] + c
            if r + 1 < len(lam) and c < lam[r + 1]:
                below[p] = starts[r + 1] + c
    rows = tuple(range(s, s + length) for s, length in zip(starts, lam))
    return _Cells(rows, tuple(above), tuple(below), tuple(floor), tuple(has_left))


def _tableau(word, lam: Partition, m: int) -> Tableau:
    return Tableau(tuple(tuple(word[r.start:r.stop]) for r in _cells(lam).rows), m)


def _words(lam: Partition, m: int, budget: list[int] | None = None) -> Iterator[Word]:
    """Reading words of the tableaux of shape lam on m letters, in
    increasing lexicographic order; with a budget, only those using at most
    budget[v] copies of each letter v.

    Depth first over the word positions: each cell runs upward from its
    least admissible entry (its row number, and its left neighbour) to its
    greatest (one less than the cell below it, else m). Without a budget
    every partial word extends, so no branch dies.
    """
    cells = _cells(lam)
    n = len(cells.floor)
    if n == 0:
        yield ()
        return
    floor, below, has_left = cells.floor, cells.below, cells.has_left
    w = [0] * n
    last = n - 1
    p, v = 0, floor[0]
    while True:
        q = below[p]
        hi = w[q] - 1 if q >= 0 else m
        if budget is not None:
            while v <= hi and not budget[v]:
                v += 1
        if v <= hi:
            w[p] = v
            if p < last:
                if budget is not None:
                    budget[v] -= 1
                p += 1
                v = floor[p]
                if has_left[p] and w[p - 1] > v:
                    v = w[p - 1]
            else:
                yield tuple(w)
                v += 1
            continue
        p -= 1
        if p < 0:
            return
        v = w[p]
        if budget is not None:
            budget[v] += 1
        v += 1


def _check_count(lam: Partition, m: int, cap: int | None) -> int:
    """Size of the crystal, from the product formula, within the cap."""
    limit, source = _enum_cap(cap)
    count = ssyt_count(lam, m)
    if count > limit:
        raise _over_cap(str(count), f"shape {lam} on {m} letters", limit, source)
    return count


def enumerate_ssyt(lam: Partition, m: int, cap: int | None = None) -> list[Tableau]:
    """All tableaux of the given shape on m letters, in canonical order.

    Raises ResourceLimit when the count exceeds the cap (argument, else the
    CRYSTAL_SIEVE_MAX_ENUM environment variable, else 10^7).
    """
    lam = as_partition(lam)
    if len(lam) > m:
        return []
    _check_count(lam, m, cap)
    return [_tableau(w, lam, m) for w in _words(lam, m)]


def content(t: Tableau) -> tuple[int, ...]:
    return t.content()


def kostka(lam: Partition, mu: tuple[int, ...], cap: int | None = None) -> int:
    """Number of tableaux of shape lam and content mu.

    mu may be any nonnegative composition; positivity for partition mu is
    exactly dominance of lam over mu.
    """
    lam = as_partition(lam)
    mu = tuple(int(x) for x in mu)
    if any(x < 0 for x in mu):
        raise ValueError(f"negative multiplicity in {mu}")
    if partition_size(lam) != sum(mu):
        raise SizeMismatch(f"|{lam}| = {partition_size(lam)} but content sums to {sum(mu)}")
    m = len(mu)
    limit, source = _enum_cap(cap)
    count = sum(1 for _ in islice(_words(lam, m, [0, *mu]), limit + 1))
    if count > limit:
        raise _over_cap(f"at least {count}", f"shape {lam} on {m} letters with content {mu}", limit, source)
    return count


def _brackets(w: Word, i: int) -> tuple[list[int], list[int]]:
    """Positions of the unmatched letters of the i-signature: each i+1 opens
    a bracket and each i closes the latest open one. The unmatched i's all
    precede the unmatched i+1's, so they read i^a (i+1)^b."""
    j = i + 1
    free: list[int] = []
    opened: list[int] = []
    for p, x in enumerate(w):
        if x == i:
            if opened:
                opened.pop()
            else:
                free.append(p)
        elif x == j:
            opened.append(p)
    return free, opened


def _reflect(w: Word, i: int) -> Word:
    """s_i in one bracket pass: the unmatched i^a (i+1)^b becomes
    i^b (i+1)^a."""
    free, opened = _brackets(w, i)
    a, b = len(free), len(opened)
    if a == b:
        return w
    out = list(w)
    if a > b:
        for p in free[b:]:
            out[p] = i + 1
    else:
        for p in opened[:b - a]:
            out[p] = i
    return tuple(out)


def _bender_knuth(w: Word, i: int, cells: _Cells) -> Word:
    """In each row an i is free when the cell below does not hold i+1, and
    an i+1 is free when the cell above does not hold i; the free entries of
    a row are consecutive, and a run of a free i's then b free i+1's
    becomes b i's then a i+1's."""
    j = i + 1
    above, below = cells.above, cells.below
    out = None
    for row in cells.rows:
        a = b = 0
        first = -1
        for p in row:
            x = w[p]
            if x == i:
                q = below[p]
                if q < 0 or w[q] != j:
                    a += 1
                    if first < 0:
                        first = p
            elif x == j:
                q = above[p]
                if q < 0 or w[q] != i:
                    b += 1
                    if first < 0:
                        first = p
            elif x > j:
                break
        if a != b:
            if out is None:
                out = list(w)
            out[first:first + a + b] = [i] * b + [j] * a
    return w if out is None else tuple(out)


def _cycle(w: Word, m: int, cells: _Cells) -> Word:
    for i in range(m - 1, 0, -1):
        w = _reflect(w, i)
    return w


def _promote(w: Word, m: int, cells: _Cells) -> Word:
    for i in range(m - 1, 0, -1):
        w = _bender_knuth(w, i, cells)
    return w


def _check_index(i: int, m: int) -> None:
    if not 1 <= i <= m - 1:
        raise ValueError(f"index {i} outside 1..{m - 1}")


def crystal_f(i: int, t: Tableau) -> Tableau | None:
    """Lowering operator: turns the rightmost unmatched i into i+1,
    or None when there is none."""
    _check_index(i, t.m)
    w = t.reading_word()
    free, _ = _brackets(w, i)
    if not free:
        return None
    out = list(w)
    out[free[-1]] = i + 1
    return _tableau(out, t.shape, t.m)


def crystal_e(i: int, t: Tableau) -> Tableau | None:
    """Raising operator: turns the leftmost unmatched i+1 into i,
    or None when there is none."""
    _check_index(i, t.m)
    w = t.reading_word()
    _, opened = _brackets(w, i)
    if not opened:
        return None
    out = list(w)
    out[opened[0]] = i
    return _tableau(out, t.shape, t.m)


def weyl_s(i: int, t: Tableau) -> Tableau:
    """Simple reflection on the crystal: the lowering operator applied
    <h_i, wt> times when that pairing is nonnegative, else the raising
    operator as many times. An involution swapping the i and i+1 counts."""
    _check_index(i, t.m)
    return _tableau(_reflect(t.reading_word(), i), t.shape, t.m)


def c_action(t: Tableau) -> Tableau:
    """Product of all simple reflections, rightmost factor first:
    reflection m-1 is applied first, reflection 1 last. Order m on the
    whole crystal."""
    if t.m < 2:
        raise ValueError("the cycle operator needs at least two letters")
    return _tableau(_cycle(t.reading_word(), t.m, _cells(t.shape)), t.shape, t.m)


def bender_knuth(i: int, t: Tableau) -> Tableau:
    """Involution swapping the counts of i and i+1 row by row (see
    _bender_knuth)."""
    _check_index(i, t.m)
    return _tableau(_bender_knuth(t.reading_word(), i, _cells(t.shape)), t.shape, t.m)


def promotion(t: Tableau) -> Tableau:
    """Product of the Bender-Knuth involutions, rightmost factor first."""
    if t.m < 2:
        raise ValueError("promotion needs at least two letters")
    return _tableau(_promote(t.reading_word(), t.m, _cells(t.shape)), t.shape, t.m)


def superstandard(lam: Partition, m: int) -> Tableau:
    """The uniform-content tableau filled with 1^(k), 2^(k), ..., m^(k) for
    k = |lam|/m, written row by row in weakly increasing order.

    Column strictness can genuinely fail for shapes outside the uniform
    regime; that surfaces as NotSemistandard rather than being patched.
    """
    lam = as_partition(lam)
    size = partition_size(lam)
    if size % m:
        raise NotDivisible(f"{m} does not divide |{lam}| = {size}")
    if len(lam) > m:
        raise ShapeTooLong(f"{len(lam)} parts will not fit into {m} letters")
    k = size // m
    entries = [v for v in range(1, m + 1) for _ in range(k)]
    rows = []
    pos = 0
    for length in lam:
        rows.append(tuple(entries[pos:pos + length]))
        pos += length
    return Tableau(tuple(rows), m)


def fixed_points(lam: Partition, m: int, cap: int | None = None) -> list[Tableau]:
    """All tableaux of uniform content (|lam|/m, ..., |lam|/m), in canonical
    order; empty when m does not divide |lam|. These are exactly the fixed
    points of the cycle operator."""
    lam = as_partition(lam)
    size = partition_size(lam)
    if size % m:
        return []
    limit, source = _enum_cap(cap)
    out = [_tableau(w, lam, m) for w in islice(_words(lam, m, [0] + [size // m] * m), limit + 1)]
    if len(out) > limit:
        raise _over_cap(f"at least {len(out)}", f"shape {lam} on {m} letters with uniform content", limit, source)
    return out


class MCoreResult(NamedTuple):
    core: Partition
    is_empty: bool
    sign: int | None


def m_core(lam: Partition, m: int) -> MCoreResult:
    """Core of the partition on the m-runner abacus.

    Beta-numbers are lam_k + m - k for the shape padded to m rows. The core
    is empty exactly when the beta residues mod m are pairwise distinct; in
    that case sign is the sign of the permutation taking those residues to
    (m-1, ..., 1, 0), and otherwise None.
    """
    lam = as_partition(lam)
    if len(lam) > m:
        raise ShapeTooLong(f"{len(lam)} parts will not fit into {m} runners")
    padded = lam + (0,) * (m - len(lam))
    beta = [padded[k] + m - 1 - k for k in range(m)]
    residues = [b % m for b in beta]
    is_empty = len(set(residues)) == m

    # slide beads down: on each runner keep as many beads, as low as possible
    per_runner = [0] * m
    for r in residues:
        per_runner[r] += 1
    core_beta = sorted(
        (r + m * k for r in range(m) for k in range(per_runner[r])),
        reverse=True,
    )
    core = tuple(core_beta[k] - (m - 1 - k) for k in range(m))
    core = as_partition(core)

    sign: int | None = None
    if is_empty:
        perm = [m - 1 - r for r in residues]
        inversions = sum(
            1
            for x in range(m)
            for y in range(x + 1, m)
            if perm[x] > perm[y]
        )
        sign = -1 if inversions % 2 else 1
    return MCoreResult(core, is_empty, sign)


@dataclass(frozen=True)
class OrbitCensus:
    """Cycle-length census of a bijection acting on an enumerated crystal."""

    by_size: dict[int, int]
    total: int

    def to_json_dict(self) -> dict:
        return {"by_size": {str(d): v for d, v in self.by_size.items()}, "total": self.total}

    def fixed_by_power(self, j: int) -> int:
        """Elements fixed by the j-th power: each d-cycle contributes d of
        them exactly when d divides j."""
        return sum(d * count for d, count in self.by_size.items() if j % d == 0)


ACTIONS: dict[str, Callable[[Tableau], Tableau]] = {
    "c": c_action,
    "pr": promotion,
}

# the same actions on reading words, for censuses
_WORD_ACTIONS: dict[str, Callable[[Word, int, _Cells], Word]] = {
    "c": _cycle,
    "pr": _promote,
}


def orbit_census(lam: Partition, m: int, action: str = "c", cap: int | None = None) -> OrbitCensus:
    """Decompose the crystal into cycles of the chosen action and count
    cycles by length.

    Walks the reading words in canonical order, so the first word met of
    each cycle is its least; the rest of the cycle waits in a set until the
    enumeration reaches it.
    """
    step = _WORD_ACTIONS.get(action)
    if step is None:
        raise ValueError(f"unknown action {action!r}; choose from {sorted(ACTIONS)}")
    lam = as_partition(lam)
    if m < 2:
        raise ValueError("the cycle operator and promotion need at least two letters")
    count = _check_count(lam, m, cap)
    cells = _cells(lam)
    ahead: set[Word] = set()
    by_size: dict[int, int] = {}
    total = 0
    for w in _words(lam, m):
        total += 1
        if w in ahead:
            ahead.remove(w)
            continue
        length = 1
        cur = step(w, m, cells)
        while cur != w:
            ahead.add(cur)
            cur = step(cur, m, cells)
            length += 1
            if length > count:
                raise InternalError(f"action {action} does not return to {w} on shape {lam}")
        by_size[length] = by_size.get(length, 0) + 1
    if total != count:
        raise InternalError(f"enumerated {total} tableaux of shape {lam} on {m} letters, expected {count}")
    return OrbitCensus(dict(sorted(by_size.items())), total)


__all__ = [
    "Tableau",
    "OrbitCensus",
    "MCoreResult",
    "as_partition",
    "dominates",
    "partition_size",
    "ssyt_count",
    "enumerate_ssyt",
    "content",
    "kostka",
    "crystal_e",
    "crystal_f",
    "weyl_s",
    "c_action",
    "bender_knuth",
    "promotion",
    "superstandard",
    "fixed_points",
    "m_core",
    "orbit_census",
    "ACTIONS",
    "DEFAULT_ENUM_CAP",
    "ENUM_CAP_ENV",
]
