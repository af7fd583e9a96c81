"""Property tests of the word-based tableau crystal on random shapes with
at most six letters, against the row-based reference in
``reference_crystal`` and against the crystal's own relations."""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_crystal as ref
from crystal_sieve.csp import aa_criterion, csp_check
from crystal_sieve.qdim import principal_specialization
from crystal_sieve.tableaux import (
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
    """(lam, m): a partition with at most m rows on m <= 6 letters whose
    crystal holds at most max_count tableaux."""
    m = draw(st.integers(2, 6))
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
def test_enumeration_is_canonical(case):
    lam, m = case
    tabs = enumerate_ssyt(lam, m)
    words = [t.reading_word() for t in tabs]
    assert all(u < v for u, v in zip(words, words[1:]))
    assert tabs == ref.enumerate_ssyt(lam, m)
    by_content = Counter(t.content() for t in tabs)
    for mu, count in by_content.items():
        assert kostka(lam, mu) == count
    uniform = [t for t in tabs if len(set(t.content())) == 1]
    assert fixed_points(lam, m) == (uniform if sum(lam) % m == 0 else [])


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


@SETTINGS
@given(shapes(max_count=2000))
def test_c_verdict_implies_existence_criterion(case):
    lam, m = case
    if csp_check(lam, m, "c").verdict:
        assert aa_criterion(principal_specialization(lam, m), m).exists
