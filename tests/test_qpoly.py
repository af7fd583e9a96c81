"""Exact polynomial layer: arithmetic, cyclotomics, root-of-unity values,
and the orbit basis of Z[q]/(q^n - 1).

Frozen expected values were produced by the independent oracles named in the
comments (sympy, complex floating-point evaluation, or hand expansion) and
are asserted exactly.
"""

import cmath
import collections
import itertools
import json
import math
import operator
import random
import struct
import time
import types

import pytest
import sympy

from crystal_sieve import qpoly
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_sieve.cartan import build_cartan_datum
from crystal_sieve.errors import ConditionViolated, InternalError, ResourceLimit
from crystal_sieve.qdim import _gl_exponents, _qdim_exponents, congruence
from crystal_sieve.qpoly import (
    ONE,
    Q,
    ZERO,
    IntPoly,
    _q_ratio_at_one,
    cyclotomic,
    divisors,
    eval_root_of_unity,
    format_poly,
    mobius,
    orbit_basis_element,
    parse_poly,
    poly_to_json_coeffs,
    q_ratio,
    rem_mod,
    root_values,
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
        with pytest.raises(ValueError):
            IntPoly([1, 0.5])
        with pytest.raises(ValueError):
            IntPoly(["3"])

    def test_bool_coefficients_are_read_as_ints(self):
        # a bool passed as an int but was stored as it came, so its JSON
        # coefficients read "True", which parse_poly refuses
        f = IntPoly([True, 0, True])
        assert f.coeffs == (1, 0, 1) and all(type(c) is int for c in f.coeffs)
        assert poly_to_json_coeffs(f) == ["1", "0", "1"]
        g = parse_poly(json.dumps(poly_to_json_coeffs(f)))
        assert g == f and all(type(c) is int for c in g.coeffs)
        for h in (ZERO + True, True + ZERO, ZERO - False + True):
            assert h.coeffs == (1,) and type(h.coeffs[0]) is int

    def test_immutable(self):
        f = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            f.coeffs = (9,)

    def test_equality_against_int(self):
        assert IntPoly([5]) == 5
        assert IntPoly([]) == 0
        assert IntPoly([0, 1]) != 1
        assert (IntPoly([1]) == "1") is False
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
        with pytest.raises(TypeError):
            IntPoly([1]) * "x"

    @pytest.mark.parametrize(
        "op",
        [
            lambda: IntPoly([1]) + 1.5,
            lambda: 1.5 + IntPoly([1]),
            lambda: IntPoly([1]) - "x",
            lambda: "x" - IntPoly([1]),
            lambda: IntPoly([1]) - 0.5,
        ],
        ids=["add", "radd", "sub", "rsub", "sub float"],
    )
    def test_add_sub_refuse_other_operands(self, op):
        # NotImplemented from both sides: Python raises TypeError, not an
        # AttributeError from reading .coeffs off the operand
        with pytest.raises(TypeError, match="unsupported operand"):
            op()

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

    @pytest.mark.parametrize(
        "op",
        [lambda: IntPoly.monomial(2.0), lambda: Q.shift(2.0), lambda: Q**2.0, lambda: Q ** "2"],
        ids=["monomial", "shift", "pow", "pow str"],
    )
    def test_exponents_must_be_integers(self, op):
        with pytest.raises(ValueError, match="exponent .* is not an integer"):
            op()

    def test_shift_and_monomial(self):
        assert Q.shift(2) == IntPoly.monomial(3)
        assert ZERO.shift(4) == ZERO
        assert IntPoly.monomial(0, 5) == 5
        with pytest.raises(ValueError):
            IntPoly.monomial(-1)
        for f in (IntPoly([1, 2]), ZERO):
            with pytest.raises(ValueError, match="exponent must be nonnegative"):
                f.shift(-1)


def one_minus_q(k):
    return ONE - IntPoly.monomial(k)


def full_division_ratio(nums, dens):
    """Reference for q_ratio: the whole numerator product, then each
    denominator factor divided out as a running sum with stride b, raising
    InternalError on a nonzero remainder."""
    out = [1]
    for a in nums:
        out += [0] * a
        out[a:] = map(operator.sub, out[a:], out[:-a])
    for b in dens:
        for r in range(b):
            out[r::b] = itertools.accumulate(out[r::b])
        if any(out[-b:]):
            raise InternalError(f"1 - q^{b} does not divide the product")
        del out[-b:]
    return IntPoly(out)


@st.composite
def exponent_lists(draw):
    """Numerator and denominator exponents in 1..30, up to 8 of each; in
    half of the draws every b divides some a, so that quotients which are
    polynomials are common."""
    exponent = st.integers(1, 30)
    dens = draw(st.lists(exponent, max_size=8))
    nums = draw(st.lists(exponent, max_size=8))
    if draw(st.booleans()):
        nums = [b * draw(st.integers(1, 30 // b)) for b in dens] + nums[len(dens):]
    return draw(st.permutations(nums)), dens


@st.composite
def many_factor_lists(draw):
    """Up to 150 numerator exponents in 1..4 and up to 20 denominator
    exponents, each denominator dividing a numerator of its own, so that the
    number F of numerator factors below half the degree crosses the slot
    layouts of the packed product, which change at F = 7, 15, 31, 63 and
    127: 1, 2, 4 and 8 bytes, then 2 and 3 words of 64 bits."""
    dens = draw(st.lists(st.integers(1, 4), max_size=20))
    nums = [b * draw(st.integers(1, 4 // b)) for b in dens]
    size = draw(st.integers(0, 150 - len(nums)))
    nums += draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    return draw(st.permutations(nums)), dens


@st.composite
def paired_lists(draw):
    """Denominators in 1..12, each with a numerator multiple t b for t in
    2..8, on both sides of q_ratio's pair cap, and up to 20 more numerators
    in 1..40, many of them above half the degree; every exponent is scaled
    by a shared g in 1..3."""
    dens = draw(st.lists(st.integers(1, 12), max_size=12))
    nums = [b * draw(st.integers(2, 8)) for b in dens]
    nums += draw(st.lists(st.integers(1, 40), max_size=20))
    g = draw(st.integers(1, 3))
    return [g * a for a in draw(st.permutations(nums))], [g * b for b in dens]


class _BigEndianItems(tuple):
    """The items of a cast, with slices of the same type and tolist()."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        return _BigEndianItems(item) if isinstance(index, slice) else item

    def tolist(self):
        return list(self)


class _BigEndianView:
    """Stand-in for memoryview whose casts read big-endian, as on a
    big-endian host."""

    def __init__(self, data):
        self.data = bytes(data)

    def cast(self, fmt):
        n = len(self.data) // struct.calcsize(fmt)
        return _BigEndianItems(struct.unpack(f">{n}{fmt}", self.data))


# one input per slot layout: 1, 2, 4 and 8 bytes, 2 and 3 words
SLOT_LAYOUT_INPUTS = [
    ([2] * 3, []),
    ([3] * 10, [1] * 2),
    ([2] * 20, [1]),
    ([1] * 40, []),
    ([2] * 70, [1] * 3),
    ([1] * 150, [1] * 5),
]


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

    def test_rejects_by_cyclotomic_multiplicity(self):
        # (1 - q^4)^2 / (1 - q^8) has degree 0 and is not a polynomial
        with pytest.raises(InternalError, match="Phi_8"):
            q_ratio([4, 4], [8])
        with pytest.raises(InternalError):
            q_ratio([6], [4])
        # Phi_1 divides both factors below and only the one above
        with pytest.raises(InternalError, match="Phi_1 "):
            q_ratio([12], [2, 3])

    def test_cancelled_exponents_list_no_divisors(self):
        # 10^30 cancels before its divisors, which trial division would take
        # about 10^15 steps to list, are asked for
        for nums, dens, expected in [([10**30], [10**30], ONE), ([10**30, 2], [10**30, 1], 1 + Q)]:
            start = time.perf_counter()
            assert q_ratio(nums, dens) == expected
            assert time.perf_counter() - start < 1

    def test_degree_bound_refuses_before_the_divisor_pass(self):
        # a quotient of degree 1 has no room for Phi_(10^30), whose degree
        # is at least sqrt(10^30 / 2)
        start = time.perf_counter()
        with pytest.raises(InternalError, match=r"Phi_1000000000000000000000000000000 .* D = 1\b"):
            q_ratio([10**30], [10**30 - 1])
        assert time.perf_counter() - start < 1

    def test_mirror_sign_and_high_exponents(self):
        # odd #nums - #dens: the mirrored upper half is negated
        assert q_ratio([2, 3], [1]) == (ONE + Q) * one_minus_q(3)
        # 10 lies above half the degree, so only the mirror carries q^10
        assert q_ratio([10, 1], [1]) == one_minus_q(10)

    @settings(max_examples=400, deadline=None, database=None)
    @given(exponent_lists())
    def test_matches_full_division(self, lists):
        nums, dens = lists
        try:
            expected = full_division_ratio(nums, dens)
        except InternalError:
            with pytest.raises(InternalError):
                q_ratio(nums, dens)
        else:
            assert q_ratio(nums, dens) == expected

    @settings(max_examples=150, deadline=None, database=None)
    @given(many_factor_lists())
    def test_matches_full_division_across_slot_widths(self, lists):
        nums, dens = lists
        assert q_ratio(nums, dens) == full_division_ratio(nums, dens)

    @settings(max_examples=200, deadline=None, database=None)
    @given(paired_lists())
    def test_pairs_match_full_division(self, lists):
        nums, dens = lists
        assert q_ratio(nums, dens) == full_division_ratio(nums, dens)

    @pytest.mark.parametrize(
        "nums, dens, runs",
        [
            # 65 factors take two 64-bit words, 61 bits to spare, room for
            # 1 + q + ... + q^24; t = 25 is past the cap, so the copy of
            # 1 - q is one running sum, not 24 shift-adds
            ([25] * 64 + [26], [1], 1),
            # t = 5 is within the cap: the copy is paired, with no running sum
            ([5] * 64 + [6], [1], 0),
            # (1 - q^3)^10 / (1 - q)^10: F = 10 takes 2 bytes, and after
            # eight pairs the bound 2^F' 3^8 = 2^2 3^8 needs all 16 bits,
            # so the last two copies are running sums
            ([3] * 10, [1] * 10, 2),
            # b = 4 > h = 3 enters neither a pair nor a running sum
            ([8, 2], [4], 0),
            # b = 2 pairs with a = 6 above h = 4, the only multiple of 2
            ([6, 1, 1, 1, 1], [2], 0),
        ],
    )
    def test_which_copies_take_running_sums(self, monkeypatch, nums, dens, runs):
        calls = []

        def accumulate(chain):
            calls.append(1)
            return itertools.accumulate(chain)

        monkeypatch.setattr(qpoly, "itertools", types.SimpleNamespace(accumulate=accumulate))
        f = q_ratio(nums, dens)
        assert len(calls) == runs
        monkeypatch.undo()
        assert f == full_division_ratio(nums, dens)

    def test_pairs_leave_the_mirror_sign(self):
        # (1 - q^6)/(1 - q^2) pairs at t = 3; #nums - #dens = 1 still
        # negates the mirrored half
        assert q_ratio([6, 5], [2]) == IntPoly([1, 0, 1, 0, 1]) * one_minus_q(5)

    @settings(max_examples=200, deadline=None, database=None)
    @given(exponent_lists(), st.integers(2, 5))
    def test_shared_factor_spreads_the_quotient(self, lists, g):
        # prod (1 - q^(g a)) / prod (1 - q^(g b)) is the quotient on a and b
        # at q^g, and a polynomial exactly when that quotient is one
        nums, dens = lists
        scaled = [g * a for a in nums], [g * b for b in dens]
        try:
            expected = full_division_ratio(nums, dens).coeffs
        except InternalError:
            with pytest.raises(InternalError):
                q_ratio(*scaled)
        else:
            spread = [0] * (g * (len(expected) - 1) + 1)
            spread[::g] = expected
            assert q_ratio(*scaled).coeffs == tuple(spread)

    def test_shared_factor_of_a_wide_row(self):
        # every exponent is 100: the packed product is that of (1 - q)^1000,
        # whose middle coefficient C(1000, 500) needs 995 bits
        expected = [0] * 100_001
        expected[::100] = [(-1) ** j * math.comb(1000, j) for j in range(1001)]
        assert q_ratio([100] * 1000, []).coeffs == tuple(expected)

    @pytest.mark.parametrize(
        "layout, product",
        [
            # the F that take the slot, and a real product with such an F
            (range(0, 7), ("qdim", "A4", (1,) * 4)),  # F = 6
            (range(7, 15), ("spec", (5, 4, 3, 2, 1), 6)),  # F = 9
            (range(15, 31), ("qdim", "E6", (1,) * 6)),  # F = 20
            (range(31, 63), ("spec", tuple(range(24, 0, -2)), 13)),  # F = 56
            (range(63, 127), ("qdim", "E8", (2,) * 8)),  # F = 84
            (range(127, 191), ("qdim", "A24", (1,) * 24)),  # F = 156
        ],
        ids=["1 byte", "2 bytes", "4 bytes", "8 bytes", "2 words", "3 words"],
    )
    def test_every_slot_layout_on_a_real_product(self, monkeypatch, layout, product):
        kind, *args = product
        if kind == "qdim":
            nums, dens = _qdim_exponents(build_cartan_datum(args[0]), args[1], dual=False)
        else:
            nums, dens = _gl_exponents(*args)
        count = collections.Counter(nums)
        count.subtract(dens)
        g = math.gcd(*count)
        half = sum(a * k for a, k in count.items()) // g // 2
        numerators = sum(k for a, k in count.items() if k > 0 and a // g <= half)
        assert numerators in layout
        picked = []
        slot = qpoly._slot
        monkeypatch.setattr(qpoly, "_slot", lambda bits: picked.append(slot(bits)) or picked[-1])
        f = q_ratio(nums, dens)
        # the one slot asked for is that of the numerators before pairing:
        # the pairs only fill its spare bits
        assert picked == [slot(numerators + 2)]
        assert f == full_division_ratio(nums, dens)
        assert all(type(c) is int for c in f.coeffs)

    def test_big_endian_read(self, monkeypatch):
        expected = [q_ratio(*case) for case in SLOT_LAYOUT_INPUTS]
        monkeypatch.setattr(qpoly, "memoryview", _BigEndianView, raising=False)
        # negative control: bytes written little-endian but read big-endian
        # decode wrongly once a unit has more than one byte
        garbled = [q_ratio(*case) for case in SLOT_LAYOUT_INPUTS]
        assert [f == g for f, g in zip(expected, garbled)] == [True] + [False] * 5
        monkeypatch.setattr(qpoly, "_NATIVE_ORDER", "big")
        assert [q_ratio(*case) for case in SLOT_LAYOUT_INPUTS] == expected

    def test_cast_formats_have_the_slot_sizes(self):
        # q_ratio reads its slots with memoryview.cast in these formats
        assert [struct.calcsize(fmt) for fmt in "bhiqQ"] == [1, 2, 4, 8, 8]

    def test_binomial_rows_at_the_width_bound(self):
        # (1 - q)^k has coefficients up to C(k, k/2), the widest that the
        # bound 2^F on k factors admits
        for k in range(1, 301):
            expected = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]
            assert q_ratio([1] * k, []).coeffs == tuple(expected)

    def test_chained_running_sums(self):
        # (1 - q^2)^k / (1 - q)^k = (1 + q)^k divides by k copies of 1 - q
        for k in range(1, 151):
            assert q_ratio([2] * k, [1] * k).coeffs == tuple(math.comb(k, j) for j in range(k + 1))

    def test_numerator_at_and_past_half_the_degree(self):
        # degree 8: the factor at a = 4 = D/2 enters the packed product; at
        # a = 5 = D/2 + 1 it is skipped and the mirror carries it
        assert q_ratio([4, 2, 2], []) == one_minus_q(4) * one_minus_q(2) * one_minus_q(2)
        assert q_ratio([5, 3], []) == one_minus_q(5) * one_minus_q(3)
        assert q_ratio([4, 4], [2]) == one_minus_q(4) * IntPoly([1, 0, 1])

    @pytest.mark.parametrize(
        "nums, dens",
        [([3.0], [3]), ([2.0], [1]), (["2"], [1]), ([2], [1.0])],
        ids=["cancelling float", "float", "string", "float denominator"],
    )
    def test_rejects_non_integer_exponents(self, nums, dens):
        with pytest.raises(ValueError, match="^exponent .* is not an integer$"):
            q_ratio(nums, dens)

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
        assert _q_ratio_at_one([6, 4], [2, 3]) == 4
        assert _q_ratio_at_one([], []) == 1
        with pytest.raises(InternalError):
            _q_ratio_at_one([7], [3])
        rng = random.Random(11)
        for _ in range(30):
            dens = [rng.randint(1, 9) for _ in range(rng.randint(0, 5))]
            nums = [b * rng.randint(1, 4) for b in dens]
            assert _q_ratio_at_one(nums, dens) == q_ratio(nums, dens)(1)


class TestDivision:
    def test_rem_mod_requires_monic(self):
        with pytest.raises(ConditionViolated, match="modulus has leading coefficient 2"):
            rem_mod(Q, IntPoly([-1, 2]))
        with pytest.raises(ConditionViolated, match="modulus must have positive degree"):
            rem_mod(Q, IntPoly([1]))
        with pytest.raises(ConditionViolated, match="modulus must have positive degree"):
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

    def test_orbit_counts_need_exact_nonnegative_mobius_sums(self):
        # a_2 = (b_2 - b_1) / 2, which is 1/2 and then -1
        with pytest.raises(InternalError, match="^Mobius sum 1 for d=2 is not divisible by 2$"):
            qpoly._orbits_from_fixed({1: 1, 2: 2})
        with pytest.raises(InternalError, match="^orbit count a_2 = -1 is negative$"):
            qpoly._orbits_from_fixed({1: 3, 2: 1})


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

    def test_totient_against_sympy(self):
        for d in range(1, 501):
            assert qpoly._totient(d) == sympy.totient(d)


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


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.integers(-9, 9), max_size=300), st.integers(1, 130))
def test_value_table_matches_single_values(coeffs, n):
    f = IntPoly(coeffs)
    assert root_values(f, n) == tuple(eval_root_of_unity(f, n, j) for j in range(1, n + 1))


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.integers(-9, 9), max_size=40),
    st.lists(st.integers(-9, 9), max_size=40),
    st.integers(1, 130),
    st.booleans(),
)
def test_degree_short_cut_matches_the_reduction(rem, g, d, constant):
    # f = rem + g * Phi_d, with a constant rem half of the time so that the
    # value is rational while the fold is not constant; below degree phi(d)
    # the fold is read without building or dividing by Phi_d, and the value
    # must be the one the remainder by Phi_d gives
    coeffs = (IntPoly(rem[:1] if constant else rem) + IntPoly(g) * cyclotomic(d)).coeffs
    r = rem_mod(IntPoly(qpoly._fold(coeffs, d)), cyclotomic(d))
    assert qpoly._value_at_order(coeffs, d) == (None if r.degree >= 1 else r[0])


@settings(max_examples=200, deadline=None, database=None)
@given(st.data(), st.integers(1, 40), st.booleans())
def test_value_at_order_matches_sympy(data, d, rational):
    # the oracle is sympy's remainder of f itself, unfolded, by its own
    # Phi_d: the value at a primitive d-th root of unity is rational exactly
    # when that remainder is constant, and then equals it. Rational values
    # come from f = c + Phi_d * h; the other inputs are at least d + 1
    # coefficients long, so their folds mod q^d - 1 mostly reach degree
    # phi(d) and need the reduction, and their values are mostly irrational
    x = sympy.symbols("x")
    phi = sympy.cyclotomic_poly(d, x)
    if rational:
        c = data.draw(st.integers(-9, 9))
        h = data.draw(st.lists(st.integers(-9, 9), max_size=2 * d + 2))
        f = sympy.Poly(c + phi * sum(a * x**k for k, a in enumerate(h)), x)
        coeffs = [int(a) for a in reversed(f.all_coeffs())]
    else:
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=3 * d + 2))
        f = sympy.Poly(sum(a * x**k for k, a in enumerate(coeffs)), x)
    r = sympy.rem(f, sympy.Poly(phi, x))
    want = None if r.degree() >= 1 else int(r.nth(0))
    if rational:
        assert want == c
    assert qpoly._value_at_order(coeffs, d) == want


def test_short_cut_builds_no_cyclotomic(monkeypatch):
    built = []

    def counted(d):
        built.append(d)
        return cyclotomic(d)

    monkeypatch.setattr(qpoly, "cyclotomic", counted)
    assert root_values(ONE + Q, 97) == (None,) * 96 + (2,)
    assert 97 not in built


small_polys = st.lists(st.integers(-9, 9), max_size=14).map(IntPoly)


@settings(max_examples=200, deadline=None, database=None)
@given(
    small_polys,
    small_polys,
    st.integers(-5, 5),
    st.integers(0, 6),
    st.lists(st.integers(-3, 3), min_size=1, max_size=5),
    exponent_lists(),
)
def test_internal_results_are_canonical(f, g, c, k, low, lists):
    # results skip the checks of IntPoly(...), so each must already be what
    # that constructor would build: int coefficients, a nonzero top
    results = [f + g, f - g, f * g, f + c, c + f, f - c, c - f, c * f, -f, f.shift(k)]
    results.append(rem_mod(f * g, IntPoly(low + [1])))
    try:
        results.append(q_ratio(*lists))
    except InternalError:
        pass
    for r in results:
        assert all(type(x) is int for x in r.coeffs)
        assert not r.coeffs or r.coeffs[-1] != 0
        assert r == IntPoly(list(r.coeffs))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(-9, 9), max_size=60), st.integers(1, 40))
def test_rem_mod_matches_sympy(coeffs, d):
    x = sympy.symbols("x")
    f = IntPoly(coeffs)
    want = sympy.rem(
        sympy.Poly(sum(c * x**k for k, c in enumerate(coeffs)), x),
        sympy.Poly(sympy.cyclotomic_poly(d, x), x),
    )
    assert rem_mod(f, cyclotomic(d)) == IntPoly([int(c) for c in reversed(want.all_coeffs())])


def test_internal_results_skip_the_constructor(monkeypatch):
    # coefficients are checked where they enter; nothing that congruence or
    # a value table computes from its inputs goes through IntPoly(...) again
    datum = build_cartan_datum("E6")
    f = IntPoly([(k * k) % 7 - 3 for k in range(500)])
    calls = []
    init = IntPoly.__init__

    def counted(self, coeffs=()):
        calls.append(coeffs)
        init(self, coeffs)

    monkeypatch.setattr(IntPoly, "__init__", counted)
    r = congruence(datum, (4, 0, 0, 0, 0, 4), 4)
    assert r.b[4] == r.residue(1)
    assert len(root_values(f, 120)) == 120
    assert calls == []


def test_value_table_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        root_values(Q, 0)


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
        # congruence decomposes the running example's residue mod q^4 - 1
        result = congruence(build_cartan_datum("A2"), (4, 0), 4)
        assert result.residue == GL3_RESIDUE
        assert result.a == {1: 1, 2: 1, 4: 3}
        assert combine(4, result.a) == GL3_RESIDUE

    def test_decompose_constant(self):
        result = congruence(build_cartan_datum("A2"), (0, 0), 4)
        assert result.residue == ONE
        assert result.a == {1: 1, 2: 0, 4: 0}

    def test_reconstruction_roundtrip(self):
        # the coefficient at q^(n/e mod n) of a combination sums a_d over the
        # multiples d of e, so Mobius inversion over the divisors reads the
        # coefficients back
        rng = random.Random(4)
        for n in (1, 2, 4, 6, 12):
            for _ in range(20):
                coeffs = {d: rng.randint(-5, 5) for d in divisors(n)}
                f = combine(n, coeffs)
                back = {
                    e: sum(mobius(d // e) * f[(n // d) % n] for d in divisors(n) if d % e == 0)
                    for e in divisors(n)
                }
                assert back == coeffs


def combine(n, coeffs):
    """sum of a_d * (q^n - 1)/(q^(n/d) - 1) over the divisors d of n."""
    out = ZERO
    for d, a in coeffs.items():
        out = out + a * orbit_basis_element(n, d)
    return out


class TestTextFormats:
    def test_format_examples(self):
        assert format_poly(ZERO) == "0"
        assert format_poly(IntPoly([10, 4])) == "10 + 4*q"
        assert format_poly(IntPoly([1, 0, -1, 0, 1])) == "1 - q^2 + q^4"
        assert format_poly(IntPoly([0, -1])) == "-q"
        assert format_poly(IntPoly([0, 0, 3])) == "3*q^2"
        assert repr(IntPoly([1, 2])) == "IntPoly('1 + 2*q')"

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
        big = 123456789012345678901234567890
        assert parse_poly(f'["{big}", 1]') == IntPoly([big, 1])

    @pytest.mark.parametrize(
        "text, coeff",
        [("[1.5, 1]", "1.5"), ("[[1]]", "[1]"), ("[1e400]", "inf"), ("[true, 1]", "True"), ('["1.0"]', "'1.0'")],
    )
    def test_parse_json_rejects_what_is_not_an_integer(self, text, coeff):
        with pytest.raises(ValueError, match="coefficient") as exc:
            parse_poly(text)
        assert coeff in str(exc.value) and text in str(exc.value)

    def test_parse_rejects_junk(self):
        for bad in ("", "q^", "2**q", "1++q", "x+1", "q^-1", "1.5", "1 2", "q^1 0", "2*", "*q", "q2", "+-2", "q^2^3",
                    "2*q*q", "1 + + q", "2*3"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_parse_rejects_whitespace_other_than_spaces_inside(self):
        # spaces are the only whitespace the text form ignores, also where
        # a term ends before a sign
        for bad in ("q\n+1", "1\n-q", "q\t+1"):
            with pytest.raises(ValueError, match="^cannot parse polynomial: "):
                parse_poly(bad)

    def test_parse_reads_a_coefficient_before_q(self):
        assert parse_poly("2q") == parse_poly("2 q") == parse_poly("2*q") == IntPoly([0, 2])

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_parse_sums_random_terms(self, data):
        # each term: a sign, a coefficient written with or without *, then q,
        # q^k or a constant; spaces between tokens, never inside a number
        want = collections.Counter()
        tokens = []
        for i in range(data.draw(st.integers(1, 6))):
            sign = data.draw(st.sampled_from(["", "+", "-"] if i == 0 else ["+", "-"]))
            c = data.draw(st.integers(0, 10**20))
            digits = "0" * data.draw(st.integers(0, 2)) + str(c)
            kind = data.draw(st.sampled_from(["constant", "q", "q^k"]))
            if kind == "constant":
                term, k = [digits], 0
            else:
                written = data.draw(st.sampled_from(["", "c", "c*"]))
                c = c if written else 1
                k = data.draw(st.integers(0, 40)) if kind == "q^k" else 1
                term = [digits] * bool(written) + ["*"] * (written == "c*") + ["q"] + ["^", str(k)] * (kind == "q^k")
            want[k] += -c if sign == "-" else c
            tokens += [sign] * bool(sign) + term
        text = "".join(data.draw(st.sampled_from(["", " ", "  "])) + token for token in tokens)
        assert parse_poly(text) == IntPoly([want[k] for k in range(max(want) + 1)])

    def test_degree_cap(self):
        assert parse_poly("q^100000") == IntPoly.monomial(qpoly.MAX_DEGREE)
        assert parse_poly(json.dumps([0] * qpoly.MAX_DEGREE + [1])).degree == qpoly.MAX_DEGREE
        # the text form refuses before it allocates 10^9 coefficients
        for text, degree in [("1 + q^1000000000", 10**9), (json.dumps([0] * 100001 + [1]), 100001)]:
            with pytest.raises(ResourceLimit) as exc:
                parse_poly(text)
            for part in [text[:10], f"degree {degree}", "degree cap 100000"]:
                assert part in str(exc.value)

    def test_roundtrip_through_text(self):
        rng = random.Random(5)
        for _ in range(60):
            f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
            assert parse_poly(format_poly(f)) == f

    def test_roundtrip_through_json(self):
        f = IntPoly([10**25, 0, -3])
        text = json.dumps(poly_to_json_coeffs(f))
        assert parse_poly(text) == f
