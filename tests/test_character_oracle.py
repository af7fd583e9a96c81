"""Weight multiplicities by Freudenthal's formula, as an oracle for the
q-dimension in every finite type that shares no code with the Weyl product.

The q-dimension is the principal specialization of the character: with the
weights of V(lam) written lam - sum_j k_j alpha_j,
qdim = sum of mult * q^(sum_j d_j k_j), qdim_dual = sum of mult * q^(sum_j k_j),
and weyl_dim = sum of mult. The oracle reads only the Cartan matrix, the
symmetrizers and the positive roots (Humphreys, Introduction to Lie Algebras
and Representation Theory, section 22.3).
"""

import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_sieve.cartan import build_cartan_datum
from crystal_sieve.qdim import congruence, divisibility_condition, qdim, qdim_dual, weyl_dim
from crystal_sieve.qpoly import IntPoly


def multiplicities(datum, lam):
    """{k: mult(lam - sum_j k_j alpha_j)} over the weights of V(lam).

    With nu = lam + rho and kappa = sum_j k_j alpha_j, Freudenthal's formula
    reads (2 (nu, kappa) - (kappa, kappa)) mult(k)
        = 2 * sum over positive roots beta and t >= 1 of
          mult(k - t beta) * (lam - kappa + t beta, beta).
    The form is (alpha_i, alpha_j) = d_i a_ij and (alpha_i, omega_j) =
    d_i [i == j], so every product here is an integer. A weight other than
    lam has 2 (nu, kappa) - (kappa, kappa) > 0, so the walk keeps a k only
    while that holds, and goes up one simple root at a time from the weights
    of lower height, which every weight of V(lam) is reachable from.
    """
    a, d, n = datum.cartan_matrix, datum.symmetrizers, datum.rank
    # (kappa, beta) = sum_i k_i * row[i], where row[i] = (alpha_i, beta)
    roots = []
    for beta in datum.positive_roots:
        row = [sum(d[i] * a[i][j] * c for j, c in enumerate(beta)) for i in range(n)]
        lam_beta = sum(c * di * x for c, di, x in zip(beta, d, lam))
        roots.append((beta, row, lam_beta, sum(map(operator.mul, beta, row))))
    mult = {(0,) * n: 1}
    level = [(0,) * n]
    while level:
        above = {k[:j] + (k[j] + 1,) + k[j + 1:] for k in level for j in range(n)}
        level = []
        for k in above:
            # 2 (nu, kappa) - (kappa, kappa), with (alpha_i, nu) = d_i (lam_i + 1)
            gap = sum(
                ki * (2 * d[i] * (lam[i] + 1) - sum(d[i] * a[i][j] * kj for j, kj in enumerate(k)))
                for i, ki in enumerate(k)
            )
            if gap <= 0:
                continue
            total = 0
            for beta, row, lam_beta, norm in roots:
                # (lam - kappa + t beta, beta) at t = 0, and the largest t
                # with k - t beta >= 0
                pair = lam_beta - sum(map(operator.mul, k, row))
                top = min(x // c for x, c in zip(k, beta) if c)
                for t in range(1, top + 1):
                    up = tuple(x - t * c for x, c in zip(k, beta))
                    total += mult.get(up, 0) * (pair + t * norm)
            m, rem = divmod(2 * total, gap)
            assert rem == 0 and m >= 0, (lam, k)
            if m:
                mult[k] = m
                level.append(k)
    return mult


def series(mult, weights):
    """sum of mult(k) * q^(sum_j weights_j k_j) as an IntPoly."""
    coeffs = {}
    for k, m in mult.items():
        e = sum(w * x for w, x in zip(weights, k))
        coeffs[e] = coeffs.get(e, 0) + m
    return IntPoly([coeffs.get(e, 0) for e in range(max(coeffs) + 1)])


def check_against_oracle(name, lam):
    datum = build_cartan_datum(name)
    mult = multiplicities(datum, lam)
    f = series(mult, datum.symmetrizers)
    assert f == qdim(datum, lam)
    assert series(mult, (1,) * datum.rank) == qdim_dual(datum, lam)
    assert sum(mult.values()) == weyl_dim(datum, lam)
    for n in range(2, 7):
        if divisibility_condition(datum, lam, n):
            residue = [0] * n
            for e, c in enumerate(f.coeffs):
                residue[e % n] += c
            assert congruence(datum, lam, n).residue == IntPoly(residue)


PAIRS = [
    ("B2", (1, 1)), ("B2", (2, 1)), ("B2", (4, 0)), ("C2", (2, 2)),
    ("C3", (1, 0, 1)), ("G2", (1, 1)), ("G2", (2, 1)), ("G2", (2, 2)),
    ("G2", (3, 0)), ("F4", (1, 0, 0, 1)), ("B3", (1, 1, 1)),
    ("D4", (1, 0, 1, 1)), ("E6", (1, 0, 0, 0, 0, 1)), ("A3", (2, 0, 2)),
]


@pytest.mark.parametrize("name, lam", PAIRS)
def test_freudenthal_multiplicities_give_the_q_dimensions(name, lam):
    start = time.perf_counter()
    check_against_oracle(name, lam)
    # the walk visits only the weights of V(lam), not a box around them
    assert time.perf_counter() - start < 5


def test_the_residue_fold_runs_outside_type_a():
    # B2 (4, 0) at n = 2 and 4, C2 (2, 2) and G2 (2, 2) at 2, G2 (3, 0) at 3
    folds = [
        (name, lam, n)
        for name, lam in PAIRS
        for n in range(2, 7)
        if name[0] != "A" and divisibility_condition(build_cartan_datum(name), lam, n)
    ]
    assert len(folds) == 5


SMALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


@st.composite
def small_dominant_weight(draw):
    name = draw(st.sampled_from(SMALL_TYPES))
    rank = build_cartan_datum(name).rank
    # a bound on the coordinate sum keeps V(lam) to a few hundred weights
    lam = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank).filter(lambda v: sum(v) <= 6 - rank))
    return name, tuple(lam)


@settings(max_examples=40, deadline=None, database=None)
@given(small_dominant_weight())
def test_freudenthal_oracle_on_small_weights(case):
    check_against_oracle(*case)
