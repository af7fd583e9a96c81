"""Exact polynomial layer: arithmetic, cyclotomics, root-of-unity values,
and the orbit basis of Z[q]/(q^n - 1).

Frozen expected values were produced by the independent oracles named in the
comments (sympy, complex floating-point evaluation, or hand expansion) and
are asserted exactly.
"""

import cmath
import json
import math
import random

import pytest
import sympy

from crystal_sieve.errors import InternalError, NotMonic
from crystal_sieve.qpoly import (
    ONE,
    Q,
    ZERO,
    IntPoly,
    OrbitDecomposition,
    cyclotomic,
    divisors,
    eval_root_of_unity,
    format_poly,
    mobius,
    orbit_basis_decompose,
    orbit_basis_element,
    parse_poly,
    poly_to_json_coeffs,
    q_ratio,
    q_ratio_at_one,
    rem_mod,
)

# q^8 + q^7 + 2q^6 + 2q^5 + 3q^4 + 2q^3 + 2q^2 + q + 1, the running example
# polynomial for three letters and a single row of four cells.
GL3_POLY = IntPoly([1, 1, 2, 2, 3, 2, 2, 1, 1])

# Folding the exponents of GL3_POLY mod 4 by hand: constant bucket 1+3+1,
# q bucket 2+1, q^2 bucket 2+1+1, q^3 bucket 2+1.
GL3_RESIDUE = IntPoly([5, 3, 4, 3])


def qn_minus_1(n):
    return IntPoly.monomial(n) - ONE


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0, 0]).is_zero
        assert IntPoly([]).degree == -1
        assert IntPoly([7]).degree == 0

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            IntPoly([1, 0.5])
        with pytest.raises(TypeError):
            IntPoly(["3"])

    def test_immutable(self):
        f = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            f.coeffs = (9,)

    def test_equality_against_int(self):
        assert IntPoly([5]) == 5
        assert IntPoly([]) == 0
        assert IntPoly([0, 1]) != 1
        assert hash(IntPoly([1, 2])) == hash(IntPoly([1, 2, 0]))

    def test_getitem_out_of_range_is_zero(self):
        f = IntPoly([1, 2])
        assert f[0] == 1 and f[1] == 2
        assert f[5] == 0 and f[-1] == 0

    def test_add_sub_neg(self):
        f = IntPoly([1, 2, 3])
        g = IntPoly([0, -2, -3, 4])
        assert f + g == IntPoly([1, 0, 0, 4])
        assert (f + g) - g == f
        assert -f == IntPoly([-1, -2, -3])
        assert 1 + Q == IntPoly([1, 1])
        assert 1 - Q == IntPoly([1, -1])

    def test_mul(self):
        assert (ONE + Q) * (ONE - Q) == IntPoly([1, 0, -1])
        assert GL3_POLY * ZERO == ZERO
        # (1+q+q^2)(1+q^3) expands to the full geometric series of length 6
        assert IntPoly([1, 1, 1]) * IntPoly([1, 0, 0, 1]) == IntPoly([1] * 6)
        assert 3 * Q == IntPoly([0, 3])

    def test_pow(self):
        assert (ONE + Q) ** 2 == IntPoly([1, 2, 1])
        assert (ONE + Q) ** 0 == ONE
        assert Q**5 == IntPoly.monomial(5)
        with pytest.raises(ValueError):
            Q ** (-1)

    def test_call_horner(self):
        # 1+2+8+16+48+64+128+128+256 summed by hand
        assert GL3_POLY(2) == 651
        assert GL3_POLY(1) == 15
        assert ZERO(17) == 0

    def test_shift_and_monomial(self):
        assert Q.shift(2) == IntPoly.monomial(3)
        assert ZERO.shift(4) == ZERO
        assert IntPoly.monomial(0, 5) == 5
        with pytest.raises(ValueError):
            IntPoly.monomial(-1)


def one_minus_q(k):
    return ONE - IntPoly.monomial(k)


class TestQRatio:
    def test_geometric(self):
        assert q_ratio([6], [2]) == IntPoly([1, 0, 1, 0, 1])
        assert q_ratio([4], [2]) == IntPoly([1, 0, 1])
        assert q_ratio([], []) == ONE
        assert q_ratio([3, 5], [3, 5]) == ONE
        # 1 - q^3 survives with its sign
        assert q_ratio([3], []) == IntPoly([1, 0, 0, -1])

    def test_rejects_inexact(self):
        with pytest.raises(InternalError):
            q_ratio([7], [3])
        with pytest.raises(InternalError):
            q_ratio([2], [3])
        with pytest.raises(InternalError):
            q_ratio([], [1])

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(ValueError):
            q_ratio([0], [])
        with pytest.raises(ValueError):
            q_ratio([2], [-1])

    def test_times_denominator_is_numerator(self):
        # (1 - q^b) divides (1 - q^a) whenever b | a, so numerators built
        # as multiples of the denominators give exact quotients; the oracle
        # is schoolbook multiplication
        rng = random.Random(7)
        for _ in range(60):
            dens = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
            nums = [b * rng.randint(1, 4) for b in dens]
            nums += [rng.randint(1, 12) for _ in range(rng.randint(0, 3))]
            rng.shuffle(nums)
            num = den = ONE
            for a in nums:
                num = num * one_minus_q(a)
            for b in dens:
                den = den * one_minus_q(b)
            assert q_ratio(nums, dens) * den == num

    def test_value_at_one(self):
        assert q_ratio_at_one([6, 4], [2, 3]) == 4
        assert q_ratio_at_one([], []) == 1
        with pytest.raises(InternalError):
            q_ratio_at_one([7], [3])
        rng = random.Random(11)
        for _ in range(30):
            dens = [rng.randint(1, 9) for _ in range(rng.randint(0, 5))]
            nums = [b * rng.randint(1, 4) for b in dens]
            assert q_ratio_at_one(nums, dens) == q_ratio(nums, dens)(1)


class TestDivision:
    def test_rem_mod_requires_monic(self):
        with pytest.raises(NotMonic):
            rem_mod(Q, IntPoly([-1, 2]))
        with pytest.raises(NotMonic):
            rem_mod(Q, IntPoly([1]))
        with pytest.raises(NotMonic):
            rem_mod(Q, ZERO)

    def test_rem_mod_folds_exponents(self):
        assert rem_mod(GL3_POLY, qn_minus_1(4)) == GL3_RESIDUE
        assert rem_mod(IntPoly.monomial(12), qn_minus_1(4)) == ONE
        assert rem_mod(IntPoly([3]), qn_minus_1(5)) == 3

    def test_rem_mod_is_multiplicative(self):
        rng = random.Random(1)
        h = qn_minus_1(5)
        for _ in range(40):
            f = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 12))])
            g = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 12))])
            assert rem_mod(f * g, h) == rem_mod(rem_mod(f, h) * rem_mod(g, h), h)

    def test_rem_mod_chinese_remainder_consistency(self):
        rng = random.Random(2)
        for n in (2, 3, 4, 6, 12):
            for _ in range(10):
                f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(0, 20))])
                r = rem_mod(f, qn_minus_1(n))
                for d in divisors(n):
                    assert rem_mod(r, cyclotomic(d)) == rem_mod(f, cyclotomic(d))


class TestNumberTheory:
    def test_divisors_sorted(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
        with pytest.raises(ValueError):
            divisors(0)

    def test_divisors_against_sympy(self):
        for n in range(1, 201):
            assert list(divisors(n)) == sympy.divisors(n)

    def test_mobius_small_values(self):
        assert mobius(1) == 1
        assert mobius(4) == 0
        # 30 = 2*3*5, three distinct primes
        assert mobius(30) == -1
        with pytest.raises(ValueError):
            mobius(0)

    def test_mobius_against_sympy(self):
        for k in range(1, 501):
            assert mobius(k) == sympy.mobius(k)

    def test_mobius_divisor_sum(self):
        for n in range(1, 300):
            assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == IntPoly([-1, 1])
        assert cyclotomic(2) == IntPoly([1, 1])
        assert cyclotomic(4) == IntPoly([1, 0, 1])
        assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_against_sympy(self):
        x = sympy.symbols("x")
        for d in range(1, 81):
            want = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs())]
            assert cyclotomic(d) == IntPoly(want)

    def test_product_over_divisors(self):
        for n in range(1, 201):
            prod = ONE
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == qn_minus_1(n)

    def test_degree_is_euler_totient(self):
        for d in range(1, 120):
            assert cyclotomic(d).degree == sympy.totient(d)


class TestRootOfUnityEvaluation:
    def test_running_example_values(self):
        assert eval_root_of_unity(GL3_POLY, 4, 2) == 3
        assert eval_root_of_unity(GL3_POLY, 4, 1) == 1
        assert eval_root_of_unity(GL3_POLY, 4, 3) == 1
        assert eval_root_of_unity(GL3_POLY, 4, 0) == 15
        assert eval_root_of_unity(GL3_POLY, 4, 4) == 15

    def test_simple_cases(self):
        assert eval_root_of_unity(ONE + Q, 2, 1) == 0
        assert eval_root_of_unity(ONE + Q, 4, 1) is None
        assert eval_root_of_unity(ZERO, 6, 5) == 0
        with pytest.raises(ValueError):
            eval_root_of_unity(Q, 0, 1)

    def test_matches_complex_float(self):
        rng = random.Random(3)
        seen_none = 0
        for _ in range(120):
            f = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 10))])
            n = rng.randint(1, 12)
            j = rng.randint(-3, 15)
            approx = f(cmath.exp(2j * cmath.pi * j / n))
            exact = eval_root_of_unity(f, n, j)
            if exact is None:
                seen_none += 1
                assert abs(approx - complex(round(approx.real))) > 1e-6
            else:
                assert abs(approx - exact) < 1e-6
        assert seen_none > 0

    def test_fold_agrees_with_unfolded_remainder(self):
        # the value read off the remainder of f itself by Phi_d, without
        # folding f mod q^d - 1 first
        rng = random.Random(11)
        for _ in range(300):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 60))])
            n = rng.randint(1, 40)
            j = rng.randint(-5, 45)
            r = rem_mod(f, cyclotomic(n // math.gcd(n, j % n)))
            assert eval_root_of_unity(f, n, j) == (None if r.degree >= 1 else r[0])


class TestOrbitBasis:
    def test_basis_elements(self):
        assert orbit_basis_element(4, 1) == ONE
        assert orbit_basis_element(4, 2) == IntPoly([1, 0, 1])
        assert orbit_basis_element(4, 4) == IntPoly([1, 1, 1, 1])
        # (q^n - 1)/(q^(n/d) - 1) computed the slow way
        for n in (6, 12):
            for d in divisors(n):
                assert orbit_basis_element(n, d) * qn_minus_1(n // d) == qn_minus_1(n)
        with pytest.raises(ValueError):
            orbit_basis_element(4, 3)

    def test_decompose_running_example(self):
        dec = orbit_basis_decompose(GL3_RESIDUE, 4)
        assert dec is not None
        assert dec.coeffs == {1: 1, 2: 1, 4: 3}
        assert dec.reconstruct() == GL3_RESIDUE

    def test_decompose_constant(self):
        dec = orbit_basis_decompose(ONE, 4)
        assert dec.coeffs == {1: 1}
        assert orbit_basis_decompose(ZERO, 6).coeffs == {}

    def test_decompose_allows_negative_coefficients(self):
        dec = orbit_basis_decompose(Q, 2)
        assert dec.coeffs == {2: 1, 1: -1}
        assert dec.reconstruct() == Q

    def test_decompose_failure(self):
        # at n=4 the basis degrees are 0, 2, 3; nothing produces a bare q
        assert orbit_basis_decompose(Q, 4) is None
        assert orbit_basis_decompose(IntPoly([0, 0, 0, 0, 1]), 6) is None

    def test_decompose_degree_bound(self):
        with pytest.raises(ValueError):
            orbit_basis_decompose(IntPoly.monomial(4), 4)

    def test_reconstruction_roundtrip(self):
        rng = random.Random(4)
        for n in (1, 2, 4, 6, 12):
            for _ in range(20):
                coeffs = {d: rng.randint(-5, 5) for d in divisors(n)}
                f = OrbitDecomposition(n, coeffs).reconstruct()
                dec = orbit_basis_decompose(f, n)
                assert dec is not None
                assert dec.coeffs == {d: a for d, a in coeffs.items() if a}
                assert dec.reconstruct() == f

    def test_equality(self):
        a = OrbitDecomposition(4, {1: 1, 4: 3})
        b = OrbitDecomposition(4, {4: 3, 1: 1})
        assert a == b
        assert a != OrbitDecomposition(8, {1: 1, 4: 3})


class TestTextFormats:
    def test_format_examples(self):
        assert format_poly(ZERO) == "0"
        assert format_poly(IntPoly([10, 4])) == "10 + 4*q"
        assert format_poly(IntPoly([1, 0, -1, 0, 1])) == "1 - q^2 + q^4"
        assert format_poly(IntPoly([0, -1])) == "-q"
        assert format_poly(IntPoly([0, 0, 3])) == "3*q^2"

    def test_parse_examples(self):
        assert parse_poly("1 + q + q^2 + q^3") == IntPoly([1, 1, 1, 1])
        assert parse_poly("q") == Q
        assert parse_poly("-q") == IntPoly([0, -1])
        assert parse_poly("3*q^2+1") == IntPoly([1, 0, 3])
        assert parse_poly("  0 ") == ZERO
        assert parse_poly("2*q + q") == IntPoly([0, 3])

    def test_parse_json_array(self):
        assert parse_poly("[1, 2, 3]") == IntPoly([1, 2, 3])
        big = 10**30
        assert parse_poly(f'["{big}", -1]') == IntPoly([big, -1])

    def test_parse_rejects_junk(self):
        for bad in ("", "q^", "2**q", "1++q", "x+1", "q^-1", "1.5"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_roundtrip_through_text(self):
        rng = random.Random(5)
        for _ in range(60):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
            assert parse_poly(format_poly(f)) == f

    def test_roundtrip_through_json(self):
        f = IntPoly([10**25, 0, -3])
        text = json.dumps(poly_to_json_coeffs(f))
        assert parse_poly(text) == f
