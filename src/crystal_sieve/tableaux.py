"""Semistandard tableaux on m letters as a crystal: enumeration, Kostka
numbers, raising and lowering operators, Weyl reflections and the long-cycle
operator built from them, Bender-Knuth involutions and promotion, fixed
points, cores on the m-runner abacus, and orbit censuses.

The public type is the validated, immutable ``Tableau`` of row tuples with
1-based entries. Inside the module a tableau is its Gelfand-Tsetlin (GT)
pattern, the rows G[0..m] with G[v][r] the number of entries <= v in row r;
G[v] interlaces G[v+1], and |G[v]| - |G[v-1]| is the number of v's. One
enumerator, ``_patterns``, lists the patterns of a shape depth first from
G[m] = lam down in one loop, optionally only those of a given content; the
row lister ``_rows_below`` yields only rows that interlace and applies the
content's partial sums. Enumeration and fixed points convert its patterns
to ``Tableau``; the Kostka number counts the patterns of a content level by
level and lists none.

The reflection s_i, the raising and lowering operators e_i and f_i and the
Bender-Knuth involution t_i change only G[i], and the new G[i] depends only
on the triple (G[i-1], G[i], G[i+1]). Two row rules compute it: the
signature move, one bracket pass that reads the rows in one direction for
the unmatched letters and turns k of them (all for s_i, one for f_i or
e_i) taking the rows in the other, and the piecewise-linear reflection for
t_i. Each operator is a word of row indices under one row rule, applied by
``_rewrite``: (i,) for s_i, e_i, f_i and t_i, and ``_cycle_word``, m-1, ..., 1,
for c and promotion. The public operators convert a ``Tableau`` to GT rows
and back, the way back unchecked as it comes from a valid pattern. A census
never builds a ``Tableau``: one row table interns each row of the enumerated
patterns as an int from 1 on for the length of the call and memoizes each
move of G[i] under its triple, so a move is moves.get(key) or move(key).
Each census is a permutation of ranks, a pattern's rank being its index in
the order of enumeration: the images' ranks fill an array, and one reader,
``_cycle_lengths``, reads the cycles off it and checks that the images
form a permutation.

The census under promotion pr = t_1 ... t_(m-1) ranks the whole crystal.
t_(m-1) acts first, so new G[i] = t_i(G[i-1], G[i], new G[i+1]), and once
the depth-first enumeration from G[m] = lam fixes G[v] it knows new
G[v+1]: every pattern under that prefix shares the lookup. The last two
levels depend only on G[2] and new G[3] and are computed once per such
pair. Rank tables, built top down and bottom up over the tree of rows, turn
the image's rows into its rank. The census checks that the tables count
ssyt_count patterns and that every image lies in the crystal.

The census under the cycle operator c ranks only the patterns of periodic
content, each moved by one step of m - 1 lookups. c has order m and shifts
a content's coordinates cyclically, so it keeps a content's period, and a
tableau of aperiodic content, whose stabiliser under the shift is trivial,
lies in an orbit of size m. The census checks that it ranked as many
patterns as their contents' Kostka numbers add up to, that every image is
among them, that every cycle length divides m, and that the rest of
ssyt_count is a nonnegative multiple of m. Only contents with a tableau are
listed, so the work stays within ssyt_count, which the cap bounds.

The canonical order of enumeration and fixed points is lexicographic on the
reading word (rows left to right, bottom row first). GT order is not that
order, so the tableaux are sorted by reading word after conversion.
"""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, product
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ConditionViolated, InternalError, ResourceLimit
from .partitions import Partition, _beta_numbers, _decimal, _decimals, _integer, _on_letters, _shown, as_partition
from .qdim import _gl_exponents
from .qpoly import _q_ratio_at_one, divisors

DEFAULT_ENUM_CAP = 10**7
ENUM_CAP_ENV = "CRYSTAL_SIEVE_MAX_ENUM"

Row = tuple[int, ...]
RowRule = Callable[[Row, Row, Row], Row | None]


def _enum_cap() -> tuple[int, str]:
    """The enumeration cap and what set it."""
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP, "by default"
    cap = _decimal(env, ENUM_CAP_ENV)
    if cap < 0:
        raise ValueError(f"{ENUM_CAP_ENV}={_shown(env)} is negative")
    return cap, f"set by {ENUM_CAP_ENV}"


def _check_cap(count: int, what: str) -> None:
    """ResourceLimit when count tableaux of what exceed the enumeration cap."""
    limit, source = _enum_cap()
    if count > limit:
        raise ResourceLimit(f"{count} tableaux of {what} exceed the cap {limit} {source}")


@dataclass(frozen=True)
class Tableau:
    """Semistandard filling: rows weakly increase, columns strictly increase,
    entries lie in {1, ..., m}."""

    rows: tuple[tuple[int, ...], ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "entry bound m", least=1))
        if not (isinstance(self.rows, (tuple, list)) and all(isinstance(row, (tuple, list)) for row in self.rows)):
            raise ValueError(f"rows {_shown(self.rows)} are not a tuple or list of tuples or lists")
        object.__setattr__(self, "rows", tuple(tuple(_integer(v, "entry") for v in row) for row in self.rows))
        prev_len = None
        for r, row in enumerate(self.rows):
            if not row:
                raise ConditionViolated("empty row")
            if prev_len is not None and len(row) > prev_len:
                raise ConditionViolated(f"row {r + 1} longer than the row above")
            prev_len = len(row)
            for c, v in enumerate(row):
                if not 1 <= v <= self.m:
                    raise ConditionViolated(f"entry {v} outside 1..{self.m}")
                if c and row[c - 1] > v:
                    raise ConditionViolated(f"row {r + 1} decreases at column {c + 1}")
                if r and self.rows[r - 1][c] >= v:
                    raise ConditionViolated(f"column {c + 1} not strict at row {r + 1}")
        _on_letters(self.shape, self.m)

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

    def to_text(self) -> str:
        if not self.rows:
            return "-"
        return "/".join(",".join(str(v) for v in row) for row in self.rows)

    @classmethod
    def from_text(cls, text: str, m: int) -> "Tableau":
        """Rows split by "/", each a comma list read by ``_decimals``."""
        text = text.strip()
        if text in ("", "-"):
            return cls((), m)
        return cls(tuple(_decimals(row, "entry") for row in text.split("/")), m)

    def __str__(self):
        return self.to_text()


def ssyt_count(lam: Partition, m: int) -> int:
    """Number of semistandard fillings, by the Weyl dimension product
    over pairs of padded rows. Zero when the shape has too many rows."""
    lam = _on_letters(lam, m)
    if len(lam) > m:
        return 0
    return _q_ratio_at_one(*_gl_exponents(lam, m))


def _check_count(lam: Partition, m: int, count: int) -> int:
    """count, the size of the crystal of lam on m letters, within the cap."""
    _check_cap(count, f"shape {lam} on {m} letters")
    return count


def _rows_below(upper: Row, v: int, total: int | None = None) -> Iterator[Row]:
    """The rows G[v] under G[v+1] = upper: those that interlace it,
    upper[r+1] <= G[v][r] <= upper[r], and vanish from index v on, so none
    when upper has a part at index v + 1. With a total, only the rows that
    sum to it: the last free entry is solved from the total and kept when
    it lies in its range."""
    n = len(upper)
    if v + 1 < n and upper[v + 1]:
        return iter(())
    k = min(v, n)
    tail = (0,) * (n - k)
    ranges = [range(upper[r + 1] if r + 1 < n else 0, upper[r] + 1) for r in range(k)]
    if total is None:
        return (y + tail for y in product(*ranges))
    if not ranges:
        return iter(() if total else (tail,))
    last = ranges.pop()
    return (y + (x,) + tail for y in product(*ranges) if (x := total - sum(y)) in last)


@dataclass
class _RowTable:
    """The GT rows met in one call as small ints, rows[k] the row of id k and
    ids its inverse, and moves from a triple of ids (G[i-1], G[i], G[i+1]) to
    the new G[i] under rule. Ids start at 1, rows[0] being no row, so that
    every id is true and a move is moves.get(key) or move(key)."""

    rule: RowRule | None = None
    rows: list[Row] = field(default_factory=lambda: [()])
    ids: dict[Row, int] = field(default_factory=dict)
    moves: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def intern(self, row: Row) -> int:
        """The id of row, the next free one when row is new."""
        k = self.ids.get(row)
        if k is None:
            k = self.ids[row] = len(self.rows)
            self.rows.append(row)
        return k

    def move(self, key: tuple[int, int, int]) -> int:
        """The move of the triple key, which moves does not hold yet."""
        rows = self.rows
        new = self.moves[key] = self.intern(self.rule(rows[key[0]], rows[key[1]], rows[key[2]]))
        return new


def _patterns(
    lam: Partition, m: int, table: _RowTable, mu: tuple[int, ...] | None = None
) -> Iterator[tuple[int, ...]]:
    """Every GT pattern of shape lam on m letters, as the tuple of the ids
    of its rows G[0..m] in table. With a content mu (summing to |lam|), only
    the patterns of that content: those with |G[v]| = mu_1 + ... + mu_v at
    every level.

    One loop, depth first from G[m] = lam down: each G[v] runs over
    _rows_below(G[v+1], v) with the content's sum at v, listed once per row
    above. Only interlacing rows are listed, so a shape with more than m
    rows has no pattern. Every G[1] is some (x, 0, ..., 0) above the zero
    row G[0], so the loop yields at v = 1 (at v = 0 on one letter)."""
    sums = [None] * m if mu is None else list(accumulate(mu, initial=0))
    listed: dict[tuple[int, int], list[tuple[int, Row]]] = {}
    intern = table.intern

    def below(top: int, upper: Row, v: int) -> list[tuple[int, Row]]:
        out = listed.get((top, v))
        if out is None:
            out = listed[top, v] = [(intern(x), x) for x in _rows_below(upper, v, sums[v])]
        return out

    g = [intern((0,) * len(lam))] + [0] * m
    g[m] = intern(lam)
    stack = [iter(below(g[m], lam, m - 1))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            continue
        v = m - len(stack)
        g[v], row = nxt
        if v > 1:
            stack.append(iter(below(g[v], row, v - 1)))
        else:
            yield tuple(g)


def _tableaux(lam: Partition, m: int, mu: tuple[int, ...] | None = None) -> list[Tableau]:
    """The patterns of _patterns as tableaux, in canonical order. GT order
    is not canonical order, so they are sorted by reading word."""
    table = _RowTable()
    rows = table.rows
    out = [_from_gt([rows[k] for k in p], m) for p in _patterns(lam, m, table, mu)]
    out.sort(key=Tableau.reading_word)
    return out


def enumerate_ssyt(lam: Partition, m: int) -> list[Tableau]:
    """All tableaux of the given shape on m letters, in canonical order.

    Raises ResourceLimit when the count exceeds the cap (the
    CRYSTAL_SIEVE_MAX_ENUM environment variable, else 10^7).
    """
    lam = as_partition(lam)
    _check_count(lam, m, ssyt_count(lam, m))
    return _tableaux(lam, m)


def _content_count(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of GT patterns of shape lam and content mu (summing to
    |lam|), level by level from G[m] = lam down: a dict maps each row G[v]
    with |G[v]| = mu_1 + ... + mu_v to its number of ways down from lam."""
    sums = list(accumulate(mu, initial=0))
    ways = {lam: 1}
    for v in range(len(mu) - 1, -1, -1):
        level: dict[Row, int] = {}
        for upper, w in ways.items():
            for x in _rows_below(upper, v, sums[v]):
                level[x] = level.get(x, 0) + w
        ways = level
    return sum(ways.values())


def kostka(lam: Partition, mu: tuple[int, ...]) -> int:
    """Number of tableaux of shape lam and content mu.

    mu may be any nonnegative composition; positivity for partition mu is
    exactly dominance of lam over mu.
    """
    lam = as_partition(lam)
    mu = tuple(_integer(x, "multiplicity", least=0) for x in mu)
    if sum(lam) != sum(mu):
        raise ConditionViolated(f"|{lam}| = {sum(lam)} but content sums to {sum(mu)}")
    count = _content_count(lam, mu)
    _check_cap(count, f"shape {lam} on {len(mu)} letters with content {mu}")
    return count


def _gt(t: Tableau) -> list[Row]:
    """The Gelfand-Tsetlin rows G[0..m]: G[v][r] counts the entries <= v in
    row r of the tableau."""
    if not t.rows:
        return [()] * (t.m + 1)
    columns = []
    for row in t.rows:
        counts = [0] * (t.m + 1)
        for v in row:
            counts[v] += 1
        columns.append(accumulate(counts))
    return list(zip(*columns))


@functools.lru_cache(maxsize=1 << 12)
def _row(column: Row) -> Row:
    """Tableau row r from (G[0][r], ..., G[m][r]): G[v][r] - G[v-1][r]
    copies of each v. Cached, as the tableaux of a crystal share rows."""
    row: list[int] = []
    for v in range(1, len(column)):
        row += [v] * (column[v] - column[v - 1])
    return tuple(row)


def _from_gt(g: list[Row], m: int) -> Tableau:
    """The tableau of the GT rows g. g is a pattern this module built, or
    the pattern of a validated Tableau moved by an operator, so the result
    is not checked again."""
    t = object.__new__(Tableau)
    object.__setattr__(t, "rows", tuple(map(_row, zip(*g))))
    object.__setattr__(t, "m", m)
    return t


def _reflect_row(lo: Row, row: Row, hi: Row, k: int | None = None) -> Row | None:
    """The signature move on G[i]: k > 0 turns the last k free i's of the
    reading word into i+1, and k < 0 the first -k unmatched i+1's into i;
    None when fewer are unmatched. f_i is k = 1 and e_i k = -1. s_i (k None)
    turns the unmatched i^a (i+1)^b into i^b (i+1)^a, with k = a - b.

    With lo, row, hi the GT rows G[i-1], G[i], G[i+1], tableau row r holds
    row[r] - lo[r] i's followed by hi[r] - row[r] i+1's. One bracket pass
    finds each row's unmatched letters. For k > 0 it reads the rows bottom
    row first, as the reading word does: a row's i's close the brackets that
    the i+1's below opened, and the rest are free, its rightmost i's. For
    k < 0 it reads them top row first with the roles swapped, leaving a
    row's leftmost i+1's open. The letters are then turned taking the rows
    in the opposite order."""
    if k is None:
        k = 2 * sum(row) - sum(lo) - sum(hi)
        if k == 0:
            return row
    n = len(row)
    order = range(n - 1, -1, -1) if k > 0 else range(n)
    unmatched = [0] * n
    waiting = 0
    for r in order:
        closing, opening = row[r] - lo[r], hi[r] - row[r]
        if k < 0:
            closing, opening = opening, closing
        if closing > waiting:
            unmatched[r], waiting = closing - waiting, opening
        else:
            waiting += opening - closing
    step, k = (1, k) if k > 0 else (-1, -k)
    out = list(row)
    for r in reversed(order):
        x = unmatched[r]
        if x >= k:
            out[r] -= step * k
            return tuple(out)
        out[r] -= step * x
        k -= x
    return None


def _bender_knuth_row(lo: Row, row: Row, hi: Row) -> Row:
    """t_i on G[i]: each entry reflects within its interlacing interval,
    max(G[i+1][r+1], G[i-1][r]) <= G[i][r] <= min(G[i+1][r], G[i-1][r-1]).
    In tableau terms, each row's run of a free i's (no i+1 below) and b
    free i+1's (no i above) becomes b i's and a i+1's."""
    out = []
    last = len(row) - 1
    for r, x in enumerate(row):
        top = hi[r]
        if r and lo[r - 1] < top:
            top = lo[r - 1]
        bottom = lo[r]
        if r < last and hi[r + 1] > bottom:
            bottom = hi[r + 1]
        out.append(top + bottom - x)
    return tuple(out)


def _rewrite(rule: RowRule, t: Tableau, word: Iterable[int]) -> Tableau | None:
    """Apply the row rule to G[i] for each index i of word in turn, the
    first index first; None as soon as the rule returns None. ValueError
    when an index is not an integer or outside 1..m-1."""
    g = _gt(t)
    for i in word:
        if not 1 <= (i := _integer(i, "index")) < t.m:
            raise ValueError(f"index {i} outside 1..{t.m - 1}")
        g[i] = rule(g[i - 1], g[i], g[i + 1])
        if g[i] is None:
            return None
    return _from_gt(g, t.m)


def _cycle_word(m: int) -> range:
    """The indices m-1, ..., 1 of the factors of c = s_1 ... s_(m-1) and
    pr = t_1 ... t_(m-1), the rightmost factor first. ValueError on fewer
    than two letters."""
    if m < 2:
        raise ValueError("the cycle operator and promotion need at least two letters")
    return range(m - 1, 0, -1)


def crystal_f(i: int, t: Tableau) -> Tableau | None:
    """Lowering operator: turns the rightmost unmatched i into i+1,
    or None when there is none."""
    return _rewrite(functools.partial(_reflect_row, k=1), t, (i,))


def crystal_e(i: int, t: Tableau) -> Tableau | None:
    """Raising operator: turns the leftmost unmatched i+1 into i,
    or None when there is none."""
    return _rewrite(functools.partial(_reflect_row, k=-1), t, (i,))


def weyl_s(i: int, t: Tableau) -> Tableau:
    """Simple reflection on the crystal: the lowering operator applied
    <h_i, wt> times when that pairing is nonnegative, else the raising
    operator as many times. An involution swapping the i and i+1 counts."""
    return _rewrite(_reflect_row, t, (i,))


def c_action(t: Tableau) -> Tableau:
    """Product of all simple reflections, rightmost factor first:
    reflection m-1 is applied first, reflection 1 last. Order m on the
    whole crystal."""
    return _rewrite(_reflect_row, t, _cycle_word(t.m))


def bender_knuth(i: int, t: Tableau) -> Tableau:
    """Involution swapping the counts of i and i+1 row by row (see
    _bender_knuth_row)."""
    return _rewrite(_bender_knuth_row, t, (i,))


def promotion(t: Tableau) -> Tableau:
    """Product of the Bender-Knuth involutions, rightmost factor first."""
    return _rewrite(_bender_knuth_row, t, _cycle_word(t.m))


def superstandard(lam: Partition, m: int) -> Tableau:
    """The uniform-content tableau filled with 1^(k), 2^(k), ..., m^(k) for
    k = |lam|/m, written row by row in weakly increasing order.

    Column strictness can genuinely fail for shapes outside the uniform
    regime; that surfaces as ConditionViolated rather than being patched.
    """
    lam = _on_letters(lam, m)
    _beta_numbers(lam, m)  # refuses more than m rows
    size = sum(lam)
    if size % m:
        raise ConditionViolated(f"{m} does not divide |{lam}| = {size}")
    k = size // m
    entries = [v for v in range(1, m + 1) for _ in range(k)]
    rows = []
    pos = 0
    for length in lam:
        rows.append(tuple(entries[pos:pos + length]))
        pos += length
    return Tableau(tuple(rows), m)


def fixed_points(lam: Partition, m: int) -> list[Tableau]:
    """All tableaux of uniform content (|lam|/m, ..., |lam|/m), in canonical
    order; empty when m does not divide |lam|. These are exactly the fixed
    points of the cycle operator."""
    lam = _on_letters(lam, m)
    size = sum(lam)
    if size % m:
        return []
    mu = (size // m,) * m
    _check_cap(_content_count(lam, mu), f"shape {lam} on {m} letters with uniform content")
    return _tableaux(lam, m, mu)


class MCoreResult(NamedTuple):
    core: Partition
    is_empty: bool
    sign: int | None


def m_core(lam: Partition, m: int) -> MCoreResult:
    """Core of the partition on the m-runner abacus.

    The runners hold the beta numbers of the shape on m letters. The core
    is empty exactly when their residues mod m are pairwise distinct; in
    that case sign is the sign of the permutation taking those residues to
    (m-1, ..., 1, 0), and otherwise None.
    """
    lam = _on_letters(lam, m)
    residues = [b % m for b in _beta_numbers(lam, m)]
    if len(set(residues)) == m:
        # sort by transpositions, each of which puts one point in its place
        perm, swaps = [m - 1 - r for r in residues], 0
        for x in range(m):
            while (y := perm[x]) != x:
                perm[x], perm[y], swaps = perm[y], y, swaps + 1
        return MCoreResult((), True, (-1) ** swaps)

    # slide beads down: on each runner keep as many beads, as low as possible
    per_runner = [0] * m
    for r in residues:
        per_runner[r] += 1
    core_beta = sorted(
        (r + m * k for r in range(m) for k in range(per_runner[r])),
        reverse=True,
    )
    return MCoreResult(as_partition(core_beta[k] - (m - 1 - k) for k in range(m)), False, None)


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

# the row rule of each action's factors, for censuses: c is s_1 ... s_(m-1)
# and promotion t_1 ... t_(m-1), and each factor rewrites one GT row
_ROW_RULES: dict[str, RowRule] = {
    "c": _reflect_row,
    "pr": _bender_knuth_row,
}


def _arrangements(parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The distinct orderings of the multiset parts, in lexicographic order,
    each from the last by one next-permutation step."""
    a = sorted(parts)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _partitions_under(caps: list[int], n: int) -> Iterator[tuple[int, ...]]:
    """The partitions p of n into len(caps) parts, zeros allowed, with
    p_1 + ... + p_k <= caps[k-1] for every k.

    Depth first, each prefix completed by the most even split of what is
    left, which is the least completion in dominance order: a prefix is
    kept only if that completion keeps within caps, so every prefix kept
    ends in a partition listed. Raising a part only raises partial sums, so
    the first raise that breaks a cap ends the raises of that part."""
    e = len(caps)

    def completed(parts: list[int]) -> list[int] | None:
        q, extra = divmod(n - sum(parts), e - len(parts))
        full = parts + [q + 1] * extra + [q] * (e - len(parts) - extra)
        return full if all(s <= c for s, c in zip(accumulate(full), caps)) else None

    parts = completed([])
    while parts is not None:
        yield tuple(parts)
        while parts:
            x = parts.pop() + 1
            if x <= n - sum(parts) and (not parts or x <= parts[-1]):
                full = completed(parts + [x])
                if full is not None:
                    parts = full
                    break
        else:
            return


def _periodic_contents(lam: Partition, m: int) -> list[tuple[int, ...]]:
    """The contents on m letters with a period e < m and a tableau of shape
    lam: mu = nu^(m/e) for each proper divisor e of m with m | e|lam| and
    each arrangement nu of a partition p of e|lam|/m into e parts with
    p^(m/e), the sorted mu, dominated by lam. A Kostka number is positive
    exactly under dominance and keeps its value when the content is
    rearranged, so each content listed has a tableau and there are at most
    ssyt_count of them. (k^m) arises from every e, so each content is kept
    once."""
    size = sum(lam)
    bound = list(accumulate(lam, initial=0))
    out = set()
    for e in divisors(m)[:-1]:
        n, r = divmod(e * size, m)
        if r:
            continue
        reps = m // e
        # lam's partial sums are concave and mu's are linear across each
        # block of reps equal parts, so dominance need hold only at block ends
        caps = [bound[min(k * reps, len(lam))] // reps for k in range(1, e + 1)]
        for p in _partitions_under(caps, n):
            out.update(nu * reps for nu in _arrangements(p))
    return sorted(out)


def orbit_census(lam: Partition, m: int, action: str = "c") -> OrbitCensus:
    """Decompose the crystal into cycles of the chosen action and count
    cycles by length.

    Each census is a permutation of ranks of GT patterns, whose cycles
    _cycle_lengths reads; a factor is one lookup in a _RowTable of moves,
    which the action's row rule fills on first use and which lives for this
    call. Promotion ranks the whole crystal (see _promotion_cycles). Under
    c, whose orbits of size below m lie among the periodic contents (see the
    module docstring), only the patterns of _periodic_contents are ranked
    and the rest count as orbits of size m; see _c_cycles for its checks.
    """
    if action not in _ROW_RULES:
        raise ValueError(f"unknown action {_shown(action)}; choose from {sorted(ACTIONS)}")
    lam = _on_letters(lam, m)
    _cycle_word(m)  # refuses one letter
    return _orbit_census(lam, m, action, _check_count(lam, m, ssyt_count(lam, m)))


def _orbit_census(lam: Partition, m: int, action: str, count: int) -> OrbitCensus:
    """``orbit_census`` past its checks, on the crystal of count tableaux."""
    by_size = (_promotion_cycles if action == "pr" else _c_cycles)(lam, m, count)
    return OrbitCensus(dict(sorted(by_size.items())), count)


def _c_cycles(lam: Partition, m: int, count: int) -> dict[int, int]:
    """The cycle lengths of c on the crystal of count tableaux: the patterns
    of _periodic_contents, ranked in enumeration order, each moved by one
    step of c (G[m-1], ..., G[1] in turn) to its image's rank. Each check
    raises InternalError: a count of patterns other than the sum of the
    contents' Kostka numbers; an image outside them; images that are not a
    permutation (from _cycle_lengths); a cycle length that does not divide
    m; and a remainder count - ranked that is negative or not a multiple of m."""
    table = _RowTable(_ROW_RULES["c"])
    contents = _periodic_contents(lam, m)
    patterns = chain.from_iterable(_patterns(lam, m, table, mu) for mu in contents)
    rank = {p: k for k, p in enumerate(patterns)}
    # a Kostka number keeps its value when the content is rearranged
    sorted_mus = [tuple(sorted(mu, reverse=True)) for mu in contents]
    count_of = {mu: _content_count(lam, mu) for mu in set(sorted_mus)}
    expected = sum(map(count_of.__getitem__, sorted_mus))
    if len(rank) != expected:
        raise InternalError(f"walked {len(rank)} tableaux of shape {lam} on {m} letters, expected {expected}")
    moves, move = table.moves, table.move
    factors = _cycle_word(m)
    image = array("q")
    for pattern in rank:
        g = list(pattern)
        for i in factors:
            key = (g[i - 1], g[i], g[i + 1])
            g[i] = moves.get(key) or move(key)
        k = rank.get(tuple(g))
        if k is None:
            raise InternalError(f"cycles of c on shape {lam} on {m} letters leave the {len(rank)} patterns enumerated")
        image.append(k)
    by_size = _cycle_lengths(image, f"c on shape {lam} on {m} letters")
    for length in by_size:
        if m % length:
            raise InternalError(f"c on shape {lam} on {m} letters returns after {length} steps, not a divisor of {m}")
    rest, stray = divmod(count - len(rank), m)
    if rest < 0 or stray:
        raise InternalError(
            f"{count - len(rank)} tableaux of shape {lam} on {m} letters have aperiodic content, "
            f"not a multiple of {m}"
        )
    if rest:
        by_size[m] = by_size.get(m, 0) + rest
    return by_size


def _cycle_lengths(image: array, what: str) -> dict[int, int]:
    """The cycle lengths of k -> image[k] on range(len(image)), as {length:
    count}, read with one mark per rank; InternalError naming what when a
    cycle reaches a marked rank other than its start, so no permutation."""
    marks = bytearray(len(image))
    by_size: dict[int, int] = {}
    for start in range(len(image)):
        if marks[start]:
            continue
        marks[start] = 1
        k, length = image[start], 1
        while k != start:
            if marks[k]:
                raise InternalError(f"{what} is not a permutation of the {len(image)} patterns enumerated")
            marks[k] = 1
            k, length = image[k], length + 1
        by_size[length] = by_size.get(length, 0) + 1
    return by_size


def _promotion_cycles(lam: Partition, m: int, count: int) -> dict[int, int]:
    """The cycle lengths of promotion on the crystal of count tableaux, as
    one permutation of enumeration ranks.

    The patterns are taken depth first from G[m] = lam, as _patterns takes
    them, and a pattern's rank is its index in that order. Two passes over
    the tree of rows build the rank tables: top down, place[v][p] lists the
    children of row p at level v, the rows G[v-1] under G[v] = p; bottom up,
    it maps each child to the number of patterns under the children before
    it, so that a pattern's rank is the sum of its rows' offsets.

    pr = t_1 ... t_(m-1) applies t_(m-1) first, so new G[i] =
    t_i(G[i-1], G[i], new G[i+1]): once the enumeration fixes G[v] it knows
    new G[v+1], and every pattern under that prefix shares the lookup and
    the offset summed so far. The last level runs as a plain loop under each
    G[2], taking new G[2] and new G[1] per pattern; its offsets depend on
    G[2] and new G[3] alone, so each such block is computed once and
    shifted by the offset above it. The images' ranks fill an array, whose
    cycles _cycle_lengths reads.

    Each of three checks raises InternalError: tables that count other than
    count patterns; an image row not listed under its image parent, so the
    image leaves the crystal; and images that are not a permutation (from
    _cycle_lengths)."""
    table = _RowTable(_ROW_RULES["pr"])
    rows, moves, intern, move = table.rows, table.moves, table.intern, table.move

    def outside() -> InternalError:
        return InternalError(f"promotion takes a tableau of shape {lam} on {m} letters out of its crystal")

    zero, top = intern((0,) * len(lam)), intern(lam)
    place: list[dict[int, dict[int, int]]] = [{} for _ in range(m + 1)]
    place[m][top] = {}
    for v in range(m, 1, -1):
        for p, kids in place[v].items():
            for c in map(intern, _rows_below(rows[p], v - 1)):
                kids[c] = 0
                place[v - 1].setdefault(c, {})
    size = dict.fromkeys(place[1], 1)
    for v in range(2, m + 1):
        up = {}
        for p, kids in place[v].items():
            at = 0
            for c in kids:
                kids[c] = at
                at += size[c]
            up[p] = at
        size = up
    if size[top] != count:
        raise InternalError(f"the rank tables count {size[top]} tableaux of shape {lam} on {m} letters, not {count}")

    def block(g2: int, n3: int) -> list[int]:
        """The offsets at levels 2 and 1 of the images of the patterns under
        G[2] = g2 whose image has n3 at level 3, in enumeration order. On two
        letters G[2] = lam is the top, which no factor moves, and n3 is unused."""
        out = []
        at2, at3 = place[2], place[3][n3] if m > 2 else {top: 0}
        for g1 in at2[g2]:
            key = (g1, g2, n3)
            n2 = (moves.get(key) or move(key)) if m > 2 else top
            key = (zero, g1, n2)
            n1 = moves.get(key) or move(key)
            o2 = at3.get(n2)
            o1 = None if o2 is None else at2[n2].get(n1)
            if o1 is None:
                raise outside()
            out.append(o2 + o1)
        return out

    # a block depends on G[2] and new G[3] alone, so each is computed once
    blocks: dict[tuple[int, int], list[int]] = {}
    image = array("q")
    # depth first from G[m] = lam to each G[2]: g[v] is G[v], new[v] the
    # image's row at level v, base[v] the offsets of new[v], ..., new[m-1],
    # and todo[v] the rows left to take at level v; new[m+1] and base[m+1]
    # are read only on two letters, where the block's G[2] is lam
    g, new, base = [zero] * (m + 1), [top] * (m + 2), [0] * (m + 2)
    todo: list[Iterator[int]] = [iter(())] * m + [iter((top,))]
    v = m
    while v <= m:
        c = next(todo[v], None)
        if c is None:
            v += 1
            continue
        g[v] = c
        if v < m - 1:
            key = (c, g[v + 1], new[v + 2])
            n = moves.get(key) or move(key)
            o = place[v + 2][new[v + 2]].get(n)
            if o is None:
                raise outside()
            new[v + 1], base[v + 1] = n, base[v + 2] + o
        if v > 2:
            v -= 1
            todo[v] = iter(place[v + 1][c])
            continue
        offsets = blocks.get((c, new[3]))
        if offsets is None:
            offsets = blocks[c, new[3]] = block(c, new[3])
        image.extend(map(base[3].__add__, offsets))
    return _cycle_lengths(image, f"promotion on shape {lam} on {m} letters")

