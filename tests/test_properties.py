"""Property tests over random weights in every finite family."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_sieve.cartan import build_cartan_datum
from crystal_sieve.qdim import congruence, orbit_counts, qdim, weyl_dim

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
