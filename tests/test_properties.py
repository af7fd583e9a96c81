"""Property tests over random weights in every finite family, and over
shapes on any number of letters at every type-A entry point."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_sieve.cartan import build_cartan_datum, gl_weight
from crystal_sieve.csp import orbit_formula, predicted_orbit_counts, prime_specialization_criterion
from crystal_sieve.errors import ConditionViolated
from crystal_sieve.partitions import partitions_up_to
from crystal_sieve.qdim import (
    congruence,
    divisibility_condition,
    orbit_counts,
    principal_specialization,
    qdim,
    weyl_dim,
)
from crystal_sieve.tableaux import fixed_points, m_core, ssyt_count, superstandard

TYPES = ["A1", "A3", "A6", "B2", "B4", "C3", "C5", "D4", "D6", "E6", "E7", "F4", "G2"]


@st.composite
def datum_and_weight(draw):
    datum = build_cartan_datum(draw(st.sampled_from(TYPES)))
    lam = draw(st.lists(st.integers(0, 3), min_size=datum.rank, max_size=datum.rank))
    return datum, tuple(lam)


@settings(max_examples=80, deadline=None, database=None)
@given(datum_and_weight())
def test_qdim_is_palindromic_with_weyl_value(case):
    datum, lam = case
    f = qdim(datum, lam)
    assert f.coeffs == f.coeffs[::-1]
    assert f(1) == weyl_dim(datum, lam)


@settings(max_examples=60, deadline=None, database=None)
@given(datum_and_weight(), st.integers(1, 4), st.booleans())
def test_orbit_counts_are_those_of_congruence(case, n, dual):
    # n times any weight meets the divisibility condition for n, dual or not
    datum, lam = case
    lam = tuple(n * c for c in lam)
    assert orbit_counts(datum, lam, n, dual) == congruence(datum, lam, n, dual).a


@st.composite
def shape_on_letters(draw):
    m = draw(st.integers(2, 6))
    lam = draw(st.sampled_from(list(partitions_up_to(10, max_parts=m))))
    return lam, m


@settings(max_examples=150, deadline=None, database=None)
@given(shape_on_letters(), st.integers(1, 12))
def test_type_a_shortcut_is_the_cartan_path(case, n):
    # the shape's own exponents against A_(m-1) at the weight of the shape
    lam, m = case
    datum, weight = build_cartan_datum(f"A{m - 1}"), gl_weight(lam, m)
    assert principal_specialization(lam, m) == qdim(datum, weight)
    assert ssyt_count(lam, m) == weyl_dim(datum, weight)
    want = orbit_counts(datum, weight, n) if divisibility_condition(datum, weight, n) else None
    assert predicted_orbit_counts(lam, m, n) == want


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(list(partitions_up_to(6, max_parts=5))), st.integers(-2, 4))
def test_every_type_a_entry_reads_the_shape_on_m_letters(lam, m):
    if m <= 0:
        calls = [
            principal_specialization, ssyt_count, superstandard, fixed_points, m_core, gl_weight,
            lambda lam, m: predicted_orbit_counts(lam, m, 2),
            lambda lam, m: prime_specialization_criterion(lam, m, 5),
            lambda lam, m: orbit_formula(sum(lam), m),
        ]
        for call in calls:
            # orbit_formula reads d as an order, not as a letter count
            with pytest.raises(ValueError, match=r"m must be positive|^order must be positive$"):
                call(lam, m)
    elif len(lam) > m:
        assert ssyt_count(lam, m) == 0
        assert fixed_points(lam, m) == []
        for call in (principal_specialization, gl_weight, m_core, superstandard):
            with pytest.raises(ConditionViolated, match=re.escape(f"{len(lam)} parts will not fit into {m} letters")):
                call(lam, m)
    else:
        assert principal_specialization(lam, m)(1) == ssyt_count(lam, m)
