"""Row-based reference crystal: the test oracle for the Gelfand-Tsetlin
operators and the enumeration in ``crystal_sieve.tableaux``.

Each function works on the rows of a validated ``Tableau`` and takes the
long way round: the lowering and raising operators rebuild the signature
stack cell by cell, a reflection applies them one step at a time, the
Bender-Knuth move reads neighbours off the row tuples, and enumeration
fills the top row first and sorts afterwards. None of it shares code with
the library beyond the ``Tableau`` type itself.
"""

from __future__ import annotations

from typing import Iterator

from crystal_sieve.tableaux import Tableau


class RanOffString(AssertionError):
    """A reflection step that must succeed found no surviving sign."""


def signature_stack(t: Tableau, i: int) -> tuple[list[tuple[int, int]], int]:
    """Surviving signs for letter i in the reading word after cancelling
    adjacent minus-plus pairs: (stack of (row, col) cells, number of
    surviving pluses); the stack has the form plus^a minus^b."""
    stack: list[tuple[int, int]] = []
    pluses = 0
    for r in range(len(t.rows) - 1, -1, -1):
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


def with_entry(t: Tableau, r: int, c: int, v: int) -> Tableau:
    """The validated tableau t with entry (r, c) set to v."""
    row = t.rows[r][:c] + (v,) + t.rows[r][c + 1:]
    return Tableau(t.rows[:r] + (row,) + t.rows[r + 1:], t.m)


def crystal_f(i: int, t: Tableau) -> Tableau | None:
    stack, pluses = signature_stack(t, i)
    if pluses == 0:
        return None
    r, c = stack[pluses - 1]
    return with_entry(t, r, c, i + 1)


def crystal_e(i: int, t: Tableau) -> Tableau | None:
    stack, pluses = signature_stack(t, i)
    if len(stack) == pluses:
        return None
    r, c = stack[pluses]
    return with_entry(t, r, c, i)


def weyl_s(i: int, t: Tableau) -> Tableau:
    """k = c_i - c_(i+1) single lowering steps, or -k raising steps."""
    cnt = t.content()
    k = cnt[i - 1] - cnt[i]
    step, times = (crystal_f, k) if k >= 0 else (crystal_e, -k)
    for _ in range(times):
        nxt = step(i, t)
        if nxt is None:
            raise RanOffString(f"reflection {i} ran off the string at {t}")
        t = nxt
    return t


def c_action(t: Tableau) -> Tableau:
    for i in range(t.m - 1, 0, -1):
        t = weyl_s(i, t)
    return t


def bender_knuth(i: int, t: Tableau) -> Tableau:
    """In each row, a free i has no i+1 below it and a free i+1 has no i
    above it; a run of a free i's then b free i+1's becomes b i's then
    a i+1's."""
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
        b = len(free) - ip1_from
        new_row = list(row)
        for pos, c in enumerate(free):
            new_row[c] = i if pos < b else i + 1
        rows[r] = tuple(new_row)
    return Tableau(tuple(rows), t.m)


def promotion(t: Tableau) -> Tableau:
    for i in range(t.m - 1, 0, -1):
        t = bender_knuth(i, t)
    return t


def fillings(shape: tuple[int, ...], m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every semistandard filling, top row first, each row left to right."""
    rows: list[tuple[int, ...]] = []

    def fill_row(r: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == len(shape):
            yield tuple(rows)
            return
        prev = rows[r - 1] if r else None
        row = [0] * shape[r]

        def fill(c: int) -> Iterator[tuple[tuple[int, ...], ...]]:
            if c == shape[r]:
                rows.append(tuple(row))
                yield from fill_row(r + 1)
                rows.pop()
                return
            lo = row[c - 1] if c else 1
            if prev is not None:
                lo = max(lo, prev[c] + 1)
            for v in range(lo, m + 1):
                row[c] = v
                yield from fill(c + 1)

        yield from fill(0)

    yield from fill_row(0)


def enumerate_ssyt(shape: tuple[int, ...], m: int) -> list[Tableau]:
    """All tableaux of the shape, sorted by reading word."""
    if len(shape) > m:
        return []
    return sorted((Tableau(rows, m) for rows in fillings(shape, m)), key=Tableau.reading_word)
