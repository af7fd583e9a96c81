"""Property tests of the tableau crystal on random shapes with at most
seven letters, against the row-based reference in ``reference_crystal`` and
against the crystal's own relations."""

from collections import Counter
from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_crystal as ref
import pytest

from crystal_sieve import tableaux
from crystal_sieve.csp import aa_criterion, csp_check
from crystal_sieve.qdim import principal_specialization
from crystal_sieve.tableaux import (
    Tableau,
    bender_knuth,
    c_action,
    crystal_e,
    crystal_f,
    enumerate_ssyt,
    fixed_points,
    kostka,
    orbit_census,
    promotion,
    ssyt_count,
    weyl_s,
)

SETTINGS = settings(max_examples=80, deadline=None, database=None)


@st.composite
def shapes(draw, max_count=300):
    """(lam, m): a partition with at most m rows on m <= 7 letters whose
    crystal holds at most max_count tableaux."""
    m = draw(st.integers(2, 7))
    parts = draw(st.lists(st.integers(1, 6), max_size=m))
    lam = tuple(sorted(parts, reverse=True))
    assume(ssyt_count(lam, m) <= max_count)
    return lam, m


@SETTINGS
@given(shapes())
def test_operators_equal_reference(case):
    lam, m = case
    for t in enumerate_ssyt(lam, m):
        for i in range(1, m):
            assert crystal_f(i, t) == ref.crystal_f(i, t)
            assert crystal_e(i, t) == ref.crystal_e(i, t)
            assert weyl_s(i, t) == ref.weyl_s(i, t)
            assert bender_knuth(i, t) == ref.bender_knuth(i, t)
        assert c_action(t) == ref.c_action(t)
        assert promotion(t) == ref.promotion(t)


@SETTINGS
@given(shapes())
def test_gelfand_tsetlin_round_trip(case):
    lam, m = case
    for t in enumerate_ssyt(lam, m):
        g = tableaux._gt(t)
        assert g == [tuple(sum(1 for x in row if x <= v) for row in t.rows) for v in range(m + 1)]
        for v in range(m):
            for r in range(len(lam)):
                assert g[v][r] <= g[v + 1][r]
                assert r + 1 == len(lam) or g[v + 1][r + 1] <= g[v][r]
        assert tableaux._from_gt(g, m) == t


@SETTINGS
@given(shapes())
def test_built_tableaux_pass_validation(case):
    """Enumeration, fixed points and the operators build their results
    without validating them; every one of those results would pass."""
    lam, m = case
    for t in enumerate_ssyt(lam, m) + fixed_points(lam, m):
        images = [t, c_action(t), promotion(t)]
        for i in range(1, m):
            images += [weyl_s(i, t), bender_knuth(i, t), crystal_e(i, t), crystal_f(i, t)]
        for u in images:
            if u is not None:
                assert Tableau(u.rows, u.m) == u


@SETTINGS
@given(shapes())
def test_reflections_satisfy_the_coxeter_relations(case):
    lam, m = case
    for t in enumerate_ssyt(lam, m):
        s = {i: weyl_s(i, t) for i in range(1, m)}
        for i in range(1, m):
            assert weyl_s(i, s[i]) == t
            if i + 1 < m:
                assert weyl_s(i, weyl_s(i + 1, s[i])) == weyl_s(i + 1, weyl_s(i, s[i + 1]))
            for j in range(i + 2, m):
                assert weyl_s(i, s[j]) == weyl_s(j, s[i])


@SETTINGS
@given(shapes())
# one letter, the empty shape and shapes with more rows than letters go
# through the enumerator's one loop like every other shape
@example(((), 1))
@example(((), 2))
@example(((), 3))
@example(((3,), 1))
@example(((2, 1), 1))
@example(((3, 1), 2))
@example(((2, 1, 1), 2))
@example(((1, 1, 1, 1), 3))
def test_enumeration_is_canonical(case):
    lam, m = case
    tabs = enumerate_ssyt(lam, m)
    words = [t.reading_word() for t in tabs]
    assert all(u < v for u, v in zip(words, words[1:]))
    assert tabs == ref.enumerate_ssyt(lam, m)
    by_content = Counter(t.content() for t in tabs)
    for mu, count in by_content.items():
        assert kostka(lam, mu) == count
        assert tableaux._tableaux(lam, m, mu) == [t for t in tabs if t.content() == mu]
    uniform = [t for t in tabs if len(set(t.content())) == 1]
    assert fixed_points(lam, m) == (uniform if sum(lam) % m == 0 else [])


@SETTINGS
@given(st.lists(st.integers(0, 5), max_size=5), st.integers(0, 5), st.none() | st.integers(-1, 16))
@example([2, 1, 1], 1, None)
def test_rows_below_are_the_interlacing_rows(parts, v, total):
    # every row in the box under upper that interlaces it, upper[r+1] <=
    # x[r], and vanishes from index v on, with the total when there is one
    upper = tuple(sorted(parts, reverse=True))
    want = [
        x
        for x in product(*(range(p + 1) for p in upper))
        if all(upper[r + 1] <= x[r] for r in range(len(upper) - 1))
        and not any(x[v:])
        and total in (None, sum(x))
    ]
    assert list(tableaux._rows_below(upper, v, total)) == want


def reference_census(tabs, step):
    seen, by_size = set(), Counter()
    for t in tabs:
        if t in seen:
            continue
        orbit = [t]
        while (nxt := step(orbit[-1])) != t:
            orbit.append(nxt)
        seen.update(orbit)
        by_size[len(orbit)] += 1
    return dict(sorted(by_size.items()))


@SETTINGS
@given(shapes())
def test_census_accounts_for_every_tableau(case):
    lam, m = case
    tabs = ref.enumerate_ssyt(lam, m)
    for action, step in (("c", ref.c_action), ("pr", ref.promotion)):
        census = orbit_census(lam, m, action)
        assert census.total == ssyt_count(lam, m)
        assert sum(d * k for d, k in census.by_size.items()) == census.total
        assert census.by_size == reference_census(tabs, step)


@pytest.mark.parametrize(
    "lam, m, action, step",
    [
        ((3, 2, 1), 7, "c", ref.c_action),
        ((5, 4, 2), 5, "pr", ref.promotion),
        # two letters, with no level between lam and G[1]; the empty shape;
        # and five and six levels of promotion's depth-first enumeration
        ((2,), 2, "pr", ref.promotion),
        ((), 3, "pr", ref.promotion),
        ((4, 3, 1), 5, "pr", ref.promotion),
        ((3, 2, 1, 1), 6, "pr", ref.promotion),
    ],
)
def test_census_of_multi_row_shapes_equals_reference(lam, m, action, step):
    census = orbit_census(lam, m, action)
    assert census.total == ssyt_count(lam, m)
    assert census.by_size == reference_census(ref.enumerate_ssyt(lam, m), step)


@SETTINGS
@given(shapes(max_count=2000))
def test_c_verdict_implies_existence_criterion(case):
    lam, m = case
    if csp_check(lam, m, "c").verdict:
        assert aa_criterion(principal_specialization(lam, m), m).exists


@st.composite
def rectangles(draw):
    """(lam, m): a rectangle a^b with b < m <= 6 and at most 12 cells."""
    m = draw(st.integers(2, 6))
    b = draw(st.integers(1, m - 1))
    a = draw(st.integers(1, 12 // b))
    return (a,) * b, m


@SETTINGS
@given(rectangles())
def test_promotion_orbits_on_rectangles_divide_m(case):
    # promotion has order m on rectangular tableaux (Rhoades 2010)
    lam, m = case
    census = orbit_census(lam, m, "pr")
    assert all(m % d == 0 for d in census.by_size)


@SETTINGS
@given(rectangles())
def test_promotion_sieves_on_rectangles(case):
    lam, m = case
    assert csp_check(lam, m, "pr").verdict
