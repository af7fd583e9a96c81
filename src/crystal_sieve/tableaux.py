"""Semistandard tableaux on m letters as a crystal: enumeration, Kostka
numbers, raising and lowering operators, Weyl reflections and the long-cycle
operator built from them, Bender-Knuth involutions and promotion, fixed
points, cores on the m-runner abacus, and orbit censuses.

Tableaux are immutable row-major tuples with 1-based entries. The canonical
order everywhere is lexicographic on the row-reading word (rows left to
right, bottom row first).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import (
    InternalNull,
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


def _enum_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(ENUM_CAP_ENV)
    try:
        return int(env) if env else DEFAULT_ENUM_CAP
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV}={env!r} is not an integer") from None


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


def _fillings(shape: Partition, m: int, budget: list[int] | None) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All semistandard fillings of the shape, optionally constrained to use
    at most budget[v] copies of each value v (1-based)."""
    rows: list[tuple[int, ...]] = []

    def fill_row(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == len(shape):
            yield tuple(rows)
            return
        length = shape[r]
        prev = rows[r - 1] if r else None
        row = [0] * length

        def fill(c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if c == length:
                rows.append(tuple(row))
                yield from fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c else 1
            if prev is not None:
                lo = max(lo, prev[c] + 1)
            for v in range(lo, m + 1):
                if budget is not None and budget[v] <= 0:
                    continue
                row[c] = v
                if budget is not None:
                    budget[v] -= 1
                yield from fill(c + 1)
                if budget is not None:
                    budget[v] += 1

        yield from fill(0)

    yield from fill_row(0)


def enumerate_ssyt(lam: Partition, m: int, cap: int | None = None) -> list[Tableau]:
    """All tableaux of the given shape on m letters, in canonical order.

    Raises ResourceLimit when the count exceeds the cap (argument, else the
    CRYSTAL_SIEVE_MAX_ENUM environment variable, else 10^7).
    """
    lam = as_partition(lam)
    if len(lam) > m:
        return []
    count = ssyt_count(lam, m)
    limit = _enum_cap(cap)
    if count > limit:
        raise ResourceLimit(f"{count} tableaux exceed the cap {limit}")
    out = [Tableau(rows, m) for rows in _fillings(lam, m, None)]
    out.sort(key=Tableau.reading_word)
    return out


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
    if len(lam) > m:
        return 0
    limit = _enum_cap(cap)
    count = 0
    budget = [0] + list(mu)
    for _ in _fillings(lam, m, budget):
        count += 1
        if count > limit:
            raise ResourceLimit(f"count exceeded the cap {limit}")
    return count


def _signature_stack(t: Tableau, i: int) -> tuple[list[tuple[int, int]], int]:
    """Surviving signs for letter i in the reading word after cancelling
    adjacent minus-plus pairs.

    Returns (stack of (row, col) cells, number of surviving pluses); the
    stack always has the form plus^a minus^b with cells in word order.
    """
    stack: list[tuple[int, int]] = []
    pluses = 0
    nrows = len(t.rows)
    for r in range(nrows - 1, -1, -1):
        for c, v in enumerate(t.rows[r]):
            if v == i:
                if len(stack) > pluses:
                    stack.pop()  # a plus cancels the most recent open minus
                else:
                    stack.append((r, c))
                    pluses += 1
            elif v == i + 1:
                stack.append((r, c))
    return stack, pluses


def crystal_f(i: int, t: Tableau) -> Tableau | None:
    """Lowering operator: turns the rightmost surviving i into i+1,
    or None when no plus survives."""
    if not 1 <= i <= t.m - 1:
        raise ValueError(f"index {i} outside 1..{t.m - 1}")
    stack, pluses = _signature_stack(t, i)
    if pluses == 0:
        return None
    r, c = stack[pluses - 1]
    return t.with_entry(r, c, i + 1)


def crystal_e(i: int, t: Tableau) -> Tableau | None:
    """Raising operator: turns the leftmost surviving i+1 into i,
    or None when no minus survives."""
    if not 1 <= i <= t.m - 1:
        raise ValueError(f"index {i} outside 1..{t.m - 1}")
    stack, pluses = _signature_stack(t, i)
    if len(stack) == pluses:
        return None
    r, c = stack[pluses]
    return t.with_entry(r, c, i)


def weyl_s(i: int, t: Tableau) -> Tableau:
    """Simple reflection on the crystal: apply the lowering operator
    <h_i, wt> times when that pairing is nonnegative, else the raising
    operator as many times. An involution swapping the i and i+1 counts."""
    cnt = t.content()
    k = cnt[i - 1] - cnt[i]
    step, times = (crystal_f, k) if k >= 0 else (crystal_e, -k)
    for _ in range(times):
        nxt = step(i, t)
        if nxt is None:
            raise InternalNull(f"reflection {i} ran off the string at {t}")
        t = nxt
    return t


def c_action(t: Tableau) -> Tableau:
    """Product of all simple reflections, rightmost factor first:
    reflection m-1 is applied first, reflection 1 last. Order m on the
    whole crystal."""
    if t.m < 2:
        raise ValueError("the cycle operator needs at least two letters")
    for i in range(t.m - 1, 0, -1):
        t = weyl_s(i, t)
    return t


def bender_knuth(i: int, t: Tableau) -> Tableau:
    """Involution swapping the counts of i and i+1.

    In each row an i is free when the cell below does not hold i+1, and an
    i+1 is free when the cell above does not hold i; the free entries of a
    row are consecutive, and a run of a free i's then b free i+1's becomes
    b i's then a i+1's.
    """
    if not 1 <= i <= t.m - 1:
        raise ValueError(f"index {i} outside 1..{t.m - 1}")
    rows = list(t.rows)
    for r, row in enumerate(rows):
        free: list[int] = []
        ip1_from = None
        for c, v in enumerate(row):
            if v == i:
                below = t.rows[r + 1][c] if r + 1 < len(t.rows) and c < len(t.rows[r + 1]) else None
                if below != i + 1:
                    free.append(c)
            elif v == i + 1:
                above = t.rows[r - 1][c] if r else None
                if above != i:
                    if ip1_from is None:
                        ip1_from = len(free)
                    free.append(c)
        if not free:
            continue
        if ip1_from is None:
            ip1_from = len(free)
        b = len(free) - ip1_from  # free i+1's
        new_row = list(row)
        for pos, c in enumerate(free):
            new_row[c] = i if pos < b else i + 1
        rows[r] = tuple(new_row)
    return Tableau(tuple(rows), t.m)


def promotion(t: Tableau) -> Tableau:
    """Product of the Bender-Knuth involutions, rightmost factor first."""
    if t.m < 2:
        raise ValueError("promotion needs at least two letters")
    for i in range(t.m - 1, 0, -1):
        t = bender_knuth(i, t)
    return t


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
    if size % m or len(lam) > m:
        return []
    k = size // m
    limit = _enum_cap(cap)
    budget = [0] + [k] * m
    out = []
    for rows in _fillings(lam, m, budget):
        out.append(Tableau(rows, m))
        if len(out) > limit:
            raise ResourceLimit(f"count exceeded the cap {limit}")
    out.sort(key=Tableau.reading_word)
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


def orbit_census(lam: Partition, m: int, action: str = "c", cap: int | None = None) -> OrbitCensus:
    """Decompose the crystal into cycles of the chosen action and count
    cycles by length."""
    step = ACTIONS.get(action)
    if step is None:
        raise ValueError(f"unknown action {action!r}; choose from {sorted(ACTIONS)}")
    tabs = enumerate_ssyt(lam, m, cap=cap)
    seen: set[Tableau] = set()
    by_size: dict[int, int] = {}
    for t in tabs:
        if t in seen:
            continue
        length = 1
        seen.add(t)
        cur = step(t)
        while cur != t:
            seen.add(cur)
            cur = step(cur)
            length += 1
        by_size[length] = by_size.get(length, 0) + 1
    return OrbitCensus(dict(sorted(by_size.items())), len(tabs))


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
