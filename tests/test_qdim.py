"""q-dimensions, the divisibility condition, residues mod q^n - 1, and the
orbit-count coefficients obtained by Mobius inversion.

The two displayed rank-two examples are frozen below; everything else is
checked by identities that tie independently computed quantities together
(value at 1 vs the product formula, residue vs full reduction, root-of-unity
values vs the b coefficients).
"""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from crystal_sieve.cartan import (
    build_cartan_datum,
    copairing,
    corho_pairing,
    gl_weight,
    pairing,
    rho_pairing,
)
from crystal_sieve.errors import ConditionViolated, InternalError, ResourceLimit
from crystal_sieve.partitions import partitions_up_to
from crystal_sieve.qdim import (
    MAX_DEGREE,
    CongruenceResult,
    _exponents,
    _gl_exponents,
    congruence,
    divisibility_condition,
    kappa,
    orbit_counts,
    predicted_orbit_counts,
    principal_specialization,
    qdim,
    qdim_dual,
    weyl_dim,
)
from crystal_sieve.qpoly import (
    ONE,
    IntPoly,
    divisors,
    eval_root_of_unity,
    orbit_basis_element,
    rem_mod,
)
from crystal_sieve.tableaux import enumerate_ssyt

GL3_POLY = IntPoly([1, 1, 2, 2, 3, 2, 2, 1, 1])

# 1 + q^2 + q^3 + 2q^4 + q^5 + 2q^6 + q^7 + 2q^8 + q^9 + q^10 + q^12
B2_QDIM = IntPoly([1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 1, 0, 1])

# 1 + q + 2q^2 + 2q^3 + 2q^4 + 2q^5 + 2q^6 + q^7 + q^8
B2_QDIM_DUAL = IntPoly([1, 1, 2, 2, 2, 2, 2, 1, 1])


def qn_minus_1(n):
    return IntPoly.monomial(n) - ONE


class TestQdimPolynomials:
    def test_one_row_of_four_in_three_letters(self):
        datum = build_cartan_datum("A2")
        assert qdim(datum, gl_weight((4,), 3)) == GL3_POLY
        assert principal_specialization((4,), 3) == GL3_POLY

    def test_b2_weight_20(self):
        datum = build_cartan_datum("B2")
        assert qdim(datum, (2, 0)) == B2_QDIM
        assert qdim_dual(datum, (2, 0)) == B2_QDIM_DUAL

    def test_zero_weight(self):
        for name in ("A1", "B3", "D4", "F4", "G2"):
            datum = build_cartan_datum(name)
            zero = (0,) * datum.rank
            assert qdim(datum, zero) == ONE
            assert qdim_dual(datum, zero) == ONE

    def test_rejects_non_dominant(self):
        datum = build_cartan_datum("A2")
        with pytest.raises(ConditionViolated, match=r"\(-1, 0\) has a negative coordinate"):
            qdim(datum, (-1, 0))

    def test_weyl_dim_values(self):
        assert weyl_dim(build_cartan_datum("A2"), (4, 0)) == 15
        assert weyl_dim(build_cartan_datum("B2"), (2, 0)) == 14
        assert weyl_dim(build_cartan_datum("F4"), (0, 0, 0, 0)) == 1
        # adjoint of A2 and the 7-dimensional G2 fundamental
        assert weyl_dim(build_cartan_datum("A2"), (1, 1)) == 8
        assert weyl_dim(build_cartan_datum("G2"), (1, 0)) == 7

    def test_weyl_dim_at_rho_is_a_power_of_two(self):
        # (beta, 2 rho)/(beta, rho) = 2 for every positive root, so the
        # product formula collapses; also exercises big-integer arithmetic
        datum = build_cartan_datum("E8")
        assert weyl_dim(datum, (1,) * 8) == 2**120

    @pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
    def test_palindromic_with_degree_two_rho_lam(self, name):
        datum = build_cartan_datum(name)
        rank = datum.rank
        weights = [(i,) + (j,) * (rank - 1) for i in range(3) for j in range(2)]
        for lam in weights:
            f = qdim(datum, lam)
            assert f.coeffs == tuple(reversed(f.coeffs))
            assert f.degree == sum(pairing(datum, b, lam) for b in datum.positive_roots)
            assert f(1) == weyl_dim(datum, lam)
            g = qdim_dual(datum, lam)
            assert g(1) == weyl_dim(datum, lam)

    def test_simply_laced_dual_agrees(self):
        datum = build_cartan_datum("A3")
        for lam in [(1, 0, 0), (1, 1, 0), (2, 0, 1), (1, 1, 1)]:
            assert qdim(datum, lam) == qdim_dual(datum, lam)

    def test_b2_dual_differs(self):
        assert B2_QDIM != B2_QDIM_DUAL


class TestProductOracle:
    """qdim at x = 2 and x = 3 against the exact Fraction product of
    (x^a - 1)/(x^b - 1) over the positive roots, one factor at a time."""

    @pytest.mark.parametrize("name", ["A1", "A4", "B3", "C4", "D4", "E6", "E8", "F4", "G2"])
    def test_values_at_two_and_three(self, name):
        datum = build_cartan_datum(name)
        rank = datum.rank
        weights = [
            (1,) * rank,
            (2,) + (0,) * (rank - 1),
            (0,) * (rank - 1) + (3,),
            tuple(i % 3 for i in range(rank)),
        ]
        sides = [(qdim, pairing, rho_pairing), (qdim_dual, copairing, corho_pairing)]
        for lam in weights:
            for product, pair, rho in sides:
                f = product(datum, lam)
                for x in (2, 3):
                    want = Fraction(1)
                    for beta in datum.positive_roots:
                        b = rho(datum, beta)
                        want *= Fraction(x ** (pair(datum, beta, lam) + b) - 1, x**b - 1)
                    assert f(x) == want


class TestDivisibilityCondition:
    def test_one_row_of_four(self):
        datum = build_cartan_datum("A2")
        lam = gl_weight((4,), 3)
        for n, ok in [(1, True), (2, True), (3, False), (4, True), (5, False)]:
            assert divisibility_condition(datum, lam, n) is ok

    def test_b2(self):
        datum = build_cartan_datum("B2")
        for n, ok in [(2, True), (3, False), (4, True), (8, False)]:
            assert divisibility_condition(datum, (2, 0), n) is ok
        assert divisibility_condition(datum, (2, 0), 2, dual=True)

    def test_matches_bruteforce(self):
        for name in ("A2", "B2", "G2"):
            datum = build_cartan_datum(name)
            for lam in [(0, 0), (1, 0), (2, 0), (0, 2), (2, 2), (3, 1)]:
                for n in range(1, 7):
                    want = all(pairing(datum, b, lam) % n == 0 for b in datum.positive_roots)
                    assert divisibility_condition(datum, lam, n) is want

    def test_roots_with_divisible_rho_pairing(self):
        # b_d is the Weyl product over the roots whose rho pairing (coroot
        # height, if dual) n/d divides, here recomputed root by root
        sides = {False: (pairing, rho_pairing), True: (copairing, corho_pairing)}
        cases = [("A2", (4, 0), 4), ("B2", (2, 0), 2), ("B2", (4, 0), 4), ("G2", (6, 6), 6)]
        for name, lam, n in cases:
            datum = build_cartan_datum(name)
            for dual, (pair, rho) in sides.items():
                if not divisibility_condition(datum, lam, n, dual):
                    continue
                r = congruence(datum, lam, n, dual)
                assert orbit_counts(datum, lam, n, dual) == r.a
                for d in divisors(n):
                    want = Fraction(1)
                    for beta in datum.positive_roots:
                        h = rho(datum, beta)
                        if h % (n // d) == 0:
                            want *= Fraction(pair(datum, beta, lam) + h, h)
                    assert r.b[d] == want
        # A2 at (4, 0): the rho pairings are 1, 1, 2, so n/d = 4 keeps no root
        assert congruence(build_cartan_datum("A2"), (4, 0), 4).b == {1: 1, 2: 3, 4: 15}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: divisibility_condition(build_cartan_datum("A2"), (1, 1), 0),
            lambda: predicted_orbit_counts((1,), 2, 0),
            lambda: predicted_orbit_counts((1,), 2, -2),
        ],
        ids=["condition-0", "predicted-0", "predicted-minus-2"],
    )
    def test_order_must_be_positive(self, call):
        # every test of n | (beta, lam) refuses an order n <= 0 the same way
        with pytest.raises(ValueError, match="^order must be positive$"):
            call()


class TestExponents:
    """The one-pass exponents against the per-root pairings."""

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "E6", "E8", "F4", "G2"]
    )
    def test_match_per_root_pairings(self, name):
        datum = build_cartan_datum(name)
        rank = datum.rank
        weights = [
            (0,) * rank,
            (1,) * rank,
            tuple(i % 3 for i in range(rank)),
            (5,) + (0,) * (rank - 1),
        ]
        roots = datum.positive_roots
        for lam in weights:
            dens = [rho_pairing(datum, b) for b in roots]
            nums = [pairing(datum, b, lam) + h for b, h in zip(roots, dens)]
            assert _exponents(datum, lam, dual=False) == (nums, dens)
            dens = [corho_pairing(datum, b) for b in roots]
            nums = [copairing(datum, b, lam) + h for b, h in zip(roots, dens)]
            assert _exponents(datum, lam, dual=True) == (nums, dens)

    def test_errors_match_per_root_pairings(self):
        datum = build_cartan_datum("B2")
        # a weight of the wrong length, on both sides, and a weight whose
        # coroot pairing with the long simple root is not an integer
        for lam, duals in [((1, 0, 2), (False, True)), ((Fraction(1, 2), 0), (True,))]:
            with pytest.raises(ValueError) as want:
                for beta in datum.positive_roots:
                    copairing(datum, beta, lam)
            for dual in duals:
                with pytest.raises(ValueError) as got:
                    _exponents(datum, lam, dual)
                assert str(got.value) == str(want.value)
            with pytest.raises(ValueError) as got:
                qdim_dual(datum, lam)
            assert str(got.value) == str(want.value)

    def test_a_coroot_pairing_that_is_not_integral_is_internal(self):
        # no weight reaches it: every coordinate is an int and a positive
        # root's coroot pairs to an integer, so a corrupt cached norm trips it
        datum = build_cartan_datum("B2")
        bad = dataclasses.replace(datum, root_norms={**datum.root_norms, (1, 0): 6})
        with pytest.raises(InternalError, match=r"^coroot pairing of \(1, 0\) with \(1, 1\) is not integral$"):
            _exponents(bad, (1, 1), True)

    @pytest.mark.parametrize("weight", [("1", 0), (1, 0, 0), (-1, 0, 0)])
    @pytest.mark.parametrize(
        "call",
        [
            qdim,
            qdim_dual,
            weyl_dim,
            lambda datum, weight: congruence(datum, weight, 2),
            lambda datum, weight: orbit_counts(datum, weight, 2),
            lambda datum, weight: divisibility_condition(datum, weight, 2),
        ],
        ids=["qdim", "qdim_dual", "weyl_dim", "congruence", "orbit_counts", "divisibility_condition"],
    )
    def test_coordinates_are_read_before_dominance(self, call, weight):
        # a coordinate that is not an integer, or a weight of the wrong
        # length, negative or not, raises the weight error of pairing, never
        # a TypeError from the dominance test or the dominance error
        datum = build_cartan_datum("A2")
        with pytest.raises(ValueError) as want:
            pairing(datum, (1, 0), weight)
        with pytest.raises(ValueError) as got:
            call(datum, weight)
        assert str(got.value) == str(want.value)


class TestCongruence:
    def test_one_row_of_four(self):
        datum = build_cartan_datum("A2")
        r = congruence(datum, gl_weight((4,), 3), 4)
        assert r.b == {1: 1, 2: 3, 4: 15}
        assert r.a == {1: 1, 2: 1, 4: 3}
        assert r.residue == IntPoly([5, 3, 4, 3])
        assert not r.dual

    def test_b2_order_two(self):
        datum = build_cartan_datum("B2")
        r = congruence(datum, (2, 0), 2)
        assert r.b == {1: 6, 2: 14}
        assert r.a == {1: 6, 2: 4}
        assert r.residue == IntPoly([10, 4])
        rd = congruence(datum, (2, 0), 2, dual=True)
        assert rd.b == {1: 2, 2: 14}
        assert rd.a == {1: 2, 2: 6}
        assert rd.residue == IntPoly([8, 6])
        assert rd.dual

    def test_residue_equals_full_reduction(self):
        # the residue is accumulated factor by factor; reducing the fully
        # expanded q-dimension must land on the same polynomial
        cases = [
            ("A2", gl_weight((4,), 3), 4, False),
            ("B2", (2, 0), 2, False),
            ("B2", (2, 0), 2, True),
            ("A3", (2, 2, 2), 2, False),
            ("G2", (3, 3), 3, False),
        ]
        for name, lam, n, dual in cases:
            datum = build_cartan_datum(name)
            r = congruence(datum, lam, n, dual=dual)
            full = qdim_dual(datum, lam) if dual else qdim(datum, lam)
            assert r.residue == rem_mod(full, qn_minus_1(n))

    def test_b_values_are_root_of_unity_values(self):
        # the value of qdim at a point of order d equals b_{gcd(j, n)}
        datum = build_cartan_datum("A2")
        lam = gl_weight((4,), 3)
        r = congruence(datum, lam, 4)
        f = qdim(datum, lam)
        import math

        for j in range(1, 5):
            assert eval_root_of_unity(f, 4, j) == r.b[math.gcd(j, 4)]

    def test_mobius_pairing_between_a_and_b(self):
        datum = build_cartan_datum("B2")
        for n in (2, 4):
            r = congruence(datum, (n, 0), n)
            for d in divisors(n):
                assert r.b[d] == sum(e * r.a[e] for e in divisors(d))
            assert r.b[n] == weyl_dim(datum, (n, 0))

    def test_residue_reconstructs_from_a(self):
        datum = build_cartan_datum("C3")
        r = congruence(datum, (2, 0, 2), 2)
        rebuilt = IntPoly()
        for d, a in r.a.items():
            rebuilt = rebuilt + a * orbit_basis_element(2, d)
        assert rebuilt == r.residue

    def test_residue_is_checked_against_its_orbit_reconstruction(self, monkeypatch):
        import crystal_sieve.qdim as qdim_module

        residue = qdim_module._residue
        monkeypatch.setattr(qdim_module, "_residue", lambda coeffs, n: residue(coeffs, n) + ONE)
        with pytest.raises(InternalError, match=r"^residue 11 \+ 4\*q differs from orbit reconstruction 10 \+ 4\*q$"):
            congruence(build_cartan_datum("B2"), (2, 0), 2)

    def test_requires_divisibility(self):
        datum = build_cartan_datum("A2")
        with pytest.raises(ConditionViolated):
            congruence(datum, gl_weight((4,), 3), 3)

    def test_requires_dominant(self):
        datum = build_cartan_datum("A2")
        with pytest.raises(ConditionViolated, match=r"\(-2, 0\) has a negative coordinate"):
            congruence(datum, (-2, 0), 2)

    def test_json_roundtrip(self):
        datum = build_cartan_datum("B2")
        r = congruence(datum, (2, 0), 2, dual=True)
        blob = r.to_json_dict()
        assert blob["b"] == {"1": "2", "2": "14"}
        assert CongruenceResult.from_json_dict(blob) == r

    def test_json_roundtrip_keeps_the_order_as_read(self):
        # a bool is an int subclass: the result holds the plain int read
        r = congruence(build_cartan_datum("A1"), (2,), True)
        assert type(r.n) is int and r.to_json_dict()["n"] == 1
        assert CongruenceResult.from_json_dict(r.to_json_dict()) == r

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda datum: congruence(datum, (2,), 2, dual=1), id="congruence"),
            pytest.param(lambda datum: orbit_counts(datum, (2,), 2, dual=1), id="orbit_counts"),
            pytest.param(lambda datum: divisibility_condition(datum, (2,), 2, dual=1), id="condition"),
        ],
    )
    def test_dual_is_a_bool(self, call):
        # an int dual would be stored as given and written as a JSON number,
        # which from_json_dict refuses
        with pytest.raises(ValueError, match="^dual 1 is not a bool$"):
            call(build_cartan_datum("A1"))

    @pytest.mark.parametrize("dual", [False, True])
    def test_json_roundtrip_keeps_dual_a_bool(self, dual):
        r = congruence(build_cartan_datum("A1"), (2,), 2, dual=dual)
        assert r.to_json_dict()["dual"] is dual
        assert CongruenceResult.from_json_dict(r.to_json_dict()) == r

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 4.7}, "^order 4.7 is not an integer$"),
            ({"n": "1_0"}, "^order '1_0' is not an integer$"),
            ({"n": True}, "^order True is not an integer$"),
            ({"n": 0}, "^order must be positive$"),
            ({"a": {"1": 2.9, "2": "6"}}, "^orbit count 2.9 is not an integer$"),
            ({"b": {"1": "2", "\u0662": "14"}}, "^divisor d '\u0662' is not an integer$"),
            ({"b": {"1": "-2", "2": "14"}}, "^fixed count must be nonnegative$"),
            ({"residue": ["\u0663", "1"]}, "^coefficient '\u0663' is not an integer$"),
            ({"dual": "no"}, "^dual 'no' is not a bool$"),
        ],
        ids=["n-float", "n-underscore", "n-bool", "n-zero", "a-float", "b-arabic-indic", "b-negative", "residue", "dual"],
    )
    def test_json_reads_integers(self, change, message):
        # int() would read each of these values, and bool() any dual
        blob = {**congruence(build_cartan_datum("B2"), (2, 0), 2, dual=True).to_json_dict(), **change}
        with pytest.raises(ValueError, match=message):
            CongruenceResult.from_json_dict(blob)


class TestOrbitCounts:
    def test_one_row_of_four(self):
        assert orbit_counts(build_cartan_datum("A2"), gl_weight((4,), 3), 4) == {1: 1, 2: 1, 4: 3}

    def test_b2_dual(self):
        assert orbit_counts(build_cartan_datum("B2"), (2, 0), 2, dual=True) == {1: 2, 2: 6}

    @pytest.mark.parametrize(
        "name, lam, n, error, message",
        [
            ("A2", (-2, 0), 2, ConditionViolated, r"\(-2, 0\) has a negative coordinate"),
            ("A2", (4, 0), 3, ConditionViolated, "fails the divisibility condition for n=3"),
            ("A1", (2,), 10**6 + 1, ResourceLimit, "above the order cap"),  # order above MAX_ORDER
            ("A1", (2 * MAX_DEGREE,), 2, ResourceLimit, "above the degree cap"),  # degree above MAX_DEGREE
        ],
        ids=[
            "A2-lam0-2-ConditionViolated",
            "A2-lam1-3-ConditionViolated",
            "A1-lam2-1000001-ResourceLimit",
            "A1-lam3-2-ResourceLimit",
        ],
    )
    def test_raises_what_congruence_raises(self, name, lam, n, error, message):
        datum = build_cartan_datum(name)
        for call in (congruence, orbit_counts):
            with pytest.raises(error, match=message) as exc:
                call(datum, lam, n)
            assert type(exc.value) is error


class TestPrincipalSpecialization:
    def test_small_shape(self):
        # brute force: sum q^(sum over cells of (letter - 1)) over the eight
        # semistandard fillings of (2, 1) in three letters, shifted by kappa
        f = principal_specialization((2, 1), 3)
        assert f == IntPoly([1, 2, 2, 2, 1])
        assert kappa((2, 1)) == 1
        assert f(1) == 8

    def test_kappa(self):
        assert kappa(()) == 0
        assert kappa((4,)) == 0
        assert kappa((3, 2, 1)) == 0 * 3 + 1 * 2 + 2 * 1
        assert kappa((2, 2, 2)) == 6

    def test_empty_and_single_cell(self):
        assert principal_specialization((), 3) == ONE
        assert principal_specialization((1,), 3) == IntPoly([1, 1, 1])

    def test_too_many_rows(self):
        with pytest.raises(ConditionViolated, match="3 parts will not fit into 2 letters"):
            principal_specialization((1, 1, 1), 2)

    def test_only_pairs_that_do_not_cancel(self):
        # a pair of equal padded parts has num = den; one row on 300 letters
        # keeps the 299 pairs of its first row with the others, out of 44,850
        nums, dens = _gl_exponents((1,), 300)
        assert len(nums) == len(dens) == 299
        assert all(x != y for x, y in zip(nums, dens))
        assert _gl_exponents((), 5) == ([], [])
        # (2, 2, 1, 0): rows 0 and 1 are equal
        assert _gl_exponents((2, 2, 1), 4) == ([3, 5, 2, 4, 2], [2, 3, 1, 2, 1])
        assert principal_specialization((1,), 2000)(1) == 2000

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_tableau_statistic(self, m):
        # independent route: enumerate fillings and collect the charge-like
        # statistic sum (k-1) * (number of entries k), then normalize
        for lam in partitions_up_to(5, max_parts=m):
            want: dict[int, int] = {}
            for t in enumerate_ssyt(lam, m):
                stat = sum((k - 1) * c for k, c in enumerate(t.content(), start=1))
                want[stat] = want.get(stat, 0) + 1
            if not want:
                continue
            lo = min(want)
            assert lo == kappa(lam)
            coeffs = [0] * (max(want) - lo + 1)
            for stat, cnt in want.items():
                coeffs[stat - lo] = cnt
            assert principal_specialization(lam, m) == IntPoly(coeffs)

    def test_matches_type_a_qdim(self):
        for lam in [(2,), (2, 1), (3, 1), (2, 2)]:
            datum = build_cartan_datum("A2")
            assert principal_specialization(lam, 3) == qdim(datum, gl_weight(lam, 3))


class TestDegreeCap:
    def test_cap_sits_above_a20_at_twelve(self):
        datum = build_cartan_datum("A20")
        # the degree 2 (rho, lam) is the sum of (beta, lam) over positive roots
        degree = sum(pairing(datum, beta, (12,) * 20) for beta in datum.positive_roots)
        assert degree == 18480 < MAX_DEGREE

    @pytest.mark.parametrize(
        "call, words",
        [
            (lambda: qdim(build_cartan_datum("A1"), (10**9,)), ["A1", "(1000000000,)"]),
            (lambda: qdim_dual(build_cartan_datum("B2"), (10**6, 0)), ["B2", "(1000000, 0)"]),
            (lambda: congruence(build_cartan_datum("A1"), (10**9,), 2), ["A1", "(1000000000,)"]),
            (lambda: principal_specialization((10**6,), 3), ["(1000000,)", "3 letters"]),
        ],
    )
    def test_cap_raises_before_any_product(self, call, words):
        with pytest.raises(ResourceLimit) as exc:
            call()
        message = str(exc.value)
        for word in words + ["degree", str(MAX_DEGREE)]:
            assert word in message

    def test_degree_at_the_cap_is_allowed(self):
        f = qdim(build_cartan_datum("A1"), (MAX_DEGREE,))
        assert f.degree == MAX_DEGREE


class TestGoldenProducts:
    """SHA-256 digests of repr(coeffs) of large products, frozen from the
    list-based product routine that preceded the packed numerator. F counts
    the numerator factors below half the degree, so a slot of the packed
    product takes 1 + (F + 1) // 64 words of 64 bits from F = 63 on, and 1,
    2, 4 or 8 bytes below that."""

    @pytest.mark.parametrize(
        "fn, args, digest",
        [
            # F = 110, degree 1,540: two words
            (qdim, ("A20", (1,) * 20), "6c5eb46b93864aecee23cc58015ec3199edb66c7b7e321d2e7930d582f2e6203"),
            # F = 157, degree 8,050: three words
            (
                qdim,
                ("A20", (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4)),
                "57a0872d4fbc219073365bfb26248d83a68cccc4a6b90cd304ab7d4ba5b4c000",
            ),
            # F = 240, degree 4,960: four words
            (qdim, ("A30", (1,) * 30), "cae5ec011280cb3a4a4bdf17167075faa162f0658551d500629c108cccfa7fc4"),
            # F = 64, degree 1,240: right past one word
            (qdim, ("E8", (1,) * 8), "dc3085f758491a0998fab059cee2222fbbed485fa96236a70bbb5f9f64c7ff41"),
            # F = 17, degree 396: four bytes
            (qdim_dual, ("F4", (5, 2, 3, 7)), "cced889435b74d337c8301fcdb0794271e5780ae28fdc3b9fd74cf7b601b3246"),
        ],
    )
    def test_qdim_digests(self, fn, args, digest):
        ty, lam = args
        f = fn(build_cartan_datum(ty), lam)
        assert hashlib.sha256(repr(f.coeffs).encode()).hexdigest() == digest

    def test_principal_specialization_digest(self):
        # 11 parts on 12 letters, F = 66, degree 3,432: two words
        f = principal_specialization(tuple(range(132, 0, -12)), 12)
        digest = "429aeb4804970f53737f550f1226db15787f1063a4cfc452243494bac62b028f"
        assert hashlib.sha256(repr(f.coeffs).encode()).hexdigest() == digest
