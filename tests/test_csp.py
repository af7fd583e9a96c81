"""Sieving reports, the existence criterion for cyclic actions, orbit-count
comparisons and formulas, and the shape and prime-order characterizations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crystal_sieve.csp import (
    aa_criterion,
    census_vs_a,
    csp_check,
    orbit_formula,
    prime_specialization_criterion,
    rect_characterization,
)
from crystal_sieve.cartan import build_cartan_datum, gl_weight
from crystal_sieve.errors import ConditionViolated, InternalError, ResourceLimit
from crystal_sieve.partitions import partitions_up_to
from crystal_sieve.qdim import (
    congruence,
    divisibility_condition,
    kappa,
    predicted_orbit_counts,
    principal_specialization,
)
from crystal_sieve import qpoly
from crystal_sieve.qpoly import IntPoly, cyclotomic, divisors, eval_root_of_unity, mobius, rem_mod
from crystal_sieve.tableaux import enumerate_ssyt, orbit_census


class TestCspCheck:
    def test_near_rectangle_passes(self):
        report = csp_check((3, 3), 3)
        assert report.verdict is True
        assert report.n == 3
        assert not report.nonrational
        assert len(report.per_exponent) == 3
        last = report.per_exponent[-1]
        assert last.j == 3 and last.fixed == 10 and last.evaluation == 10

    def test_hook_fails_with_irrational_values(self):
        report = csp_check((2, 1), 3)
        assert report.verdict is False
        assert report.nonrational
        assert report.census.by_size == {1: 2, 3: 2}

    def test_promotion_on_rectangle(self):
        report = csp_check((2, 2), 3, action="pr")
        assert report.verdict is True
        assert report.n == 3

    def test_single_column_rectangle(self):
        assert csp_check((2, 2), 2).verdict is True

    def test_one_row_coprime_size(self):
        # two cells, three letters: no fixed points, both orbits full
        report = csp_check((2,), 3)
        assert report.verdict is True
        assert report.census.by_size == {3: 2}
        assert [e.fixed for e in report.per_exponent] == [0, 0, 6]

    def test_custom_polynomial(self):
        good = csp_check((2,), 2, f=IntPoly([1, 1, 1]))
        assert good.verdict is True
        bad = csp_check((2,), 2, f=IntPoly([3]))
        assert bad.verdict is False
        assert [e.match for e in bad.per_exponent] == [False, True]

    def test_order_override(self):
        report = csp_check((2,), 2, n=4)
        assert report.n == 4
        assert len(report.per_exponent) == 4
        # powers 1 and 3 of an order-4 generator act like the full cycle
        assert [e.fixed for e in report.per_exponent] == [1, 3, 1, 3]
        assert report.verdict is False and report.nonrational

    def test_predicted_a_present_when_condition_holds(self):
        report = csp_check((3, 3), 3)
        assert report.predicted_a == {1: 1, 3: 3}
        assert csp_check((2, 1), 3).predicted_a is None

    @pytest.mark.parametrize("action", ["c", "pr"])
    def test_census_is_checked_against_the_prediction(self, monkeypatch, capsys, action):
        # with the specialization, a census that the predicted orbit counts
        # miss contradicts a passing verdict: a bug, exit 5
        from crystal_sieve import csp
        from crystal_sieve.cli import main

        monkeypatch.setattr(csp, "predicted_orbit_counts", lambda lam, m, n: dict.fromkeys(divisors(n), 0))
        with pytest.raises(InternalError, match=r"^census comparison \(False\) disagrees with the sieving verdict \(True\)$"):
            csp_check((3, 3), 3, action)
        assert main(["csp-check", "3,3", "-m", "3", "--action", action]) == 5
        assert "internal error: census comparison" in capsys.readouterr().err
        # a polynomial of the caller's is not checked against the census
        assert csp_check((3, 3), 3, action, f=principal_specialization((3, 3), 3)).verdict

    def test_census_matches_the_prediction_exactly_when_sieving_holds(self):
        # every shape of size <= 5 on 2..5 letters whose counts are predicted
        checked = 0
        for m in range(2, 6):
            for lam in partitions_up_to(5, max_parts=m):
                for action in ("c", "pr"):
                    report = csp_check(lam, m, action)
                    if report.predicted_a is not None:
                        checked += 1
                        census = {d: a for d, a in report.predicted_a.items() if a}
                        assert (report.census.by_size == census) == report.verdict
        assert checked == 30

    @pytest.mark.parametrize(
        "lam, m, action, kwargs",
        [
            ((3, 3), 3, "c", {}),
            ((2, 1), 3, "pr", {}),
            ((2,), 2, "c", {"f": IntPoly([3])}),
            ((2,), 2, "c", {"n": 4}),
            ((2, 1), 3, "c", {}),
        ],
        ids=["c", "pr", "explicit-f", "explicit-n", "irrational"],
    )
    def test_rows_are_read_off_the_values(self, lam, m, action, kwargs):
        # the report keeps the root_values table; each row pairs one of its
        # values with the census's fixed count
        report = csp_check(lam, m, action, **kwargs)
        f = kwargs.get("f") or principal_specialization(lam, m)
        assert report.values == qpoly.root_values(f, report.n)
        rows = []
        for j in range(1, report.n + 1):
            fixed, value = report.census.fixed_by_power(j), report.values[j - 1]
            rows.append((j, fixed, value, value is not None and value == fixed))
        assert [(e.j, e.fixed, e.evaluation, e.match) for e in report.per_exponent] == rows
        assert report.verdict == all(row[3] for row in rows)
        assert report.nonrational == (None in report.values)

    def test_order_is_kept_as_read(self):
        # a bool is an int subclass: the report holds the plain int read
        report = csp_check((2,), 2, n=True)
        assert type(report.n) is int and report.n == 1
        assert report.to_json_dict()["n"] == 1 and type(report.to_json_dict()["n"]) is int

    def test_json_shape(self):
        blob = csp_check((2,), 2).to_json_dict()
        assert blob["partition"] == [2]
        assert blob["verdict"] is True
        assert blob["census"] == {"by_size": {"1": 1, "2": 1}, "total": 3}
        assert [e["j"] for e in blob["per_exponent"]] == [1, 2]

    def test_fixed_counts_match_bruteforce(self):
        from crystal_sieve.tableaux import c_action

        for lam, m in [((2, 1), 3), ((2, 2), 2), ((3,), 3)]:
            report = csp_check(lam, m)
            tabs = enumerate_ssyt(lam, m)
            for check in report.per_exponent:
                count = 0
                for t in tabs:
                    cur = t
                    for _ in range(check.j):
                        cur = c_action(cur)
                    count += cur == t
                assert check.fixed == count


class TestAaCriterion:
    def test_uniform_polynomial_has_free_action(self):
        result = aa_criterion(IntPoly([1, 1, 1, 1]), 4)
        assert result.exists is True
        assert result.failures == ()
        assert result.values == (0, 0, 0, 4)

    def test_negative_value_blocks(self):
        result = aa_criterion(IntPoly([0, 2]), 2)
        assert result.exists is False
        assert result.values == (-2, 2)

    def test_irrational_value_blocks(self):
        result = aa_criterion(principal_specialization((2, 1), 3), 3)
        assert result.exists is False
        assert None in result.values

    def test_mobius_failure_detected(self):
        # f(-1) = 4 and f(1) = 2 would need minus one orbit of size two
        result = aa_criterion(IntPoly([3, -1]), 2)
        assert result.exists is False
        assert result.failures == (2,)
        assert result.values == (4, 2)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            aa_criterion(IntPoly([1]), 0)

    def test_certificate_recovers_orbit_counts(self):
        # Mobius sums over the values of the q-dimension recover d * a_d
        datum = build_cartan_datum("A2")
        lam = gl_weight((4,), 3)
        r = congruence(datum, lam, 4)
        result = aa_criterion(principal_specialization((4,), 3), 4)
        assert result.exists is True
        for k in divisors(4):
            total = sum(mobius(k // j) * result.values[j - 1] for j in divisors(k))
            assert total == k * r.a[k]


    @pytest.mark.parametrize(
        "f, n",
        [
            (IntPoly([1, 1, 1, 1]), 4),
            (IntPoly([0, 2]), 2),
            (principal_specialization((2, 1), 3), 3),
            (IntPoly([3, -1]), 2),
            (principal_specialization((4,), 3), 4),
            (principal_specialization((6, 3, 1), 5), 120),
        ],
    )
    def test_verdict_over_a_held_table(self, f, n):
        # the verdict worked out here from the value table: every value a
        # nonnegative integer and every Mobius sum nonnegative
        values = qpoly.root_values(f, n)
        result = aa_criterion(f, n)
        assert result.values == values
        if any(v is None or v < 0 for v in values):
            assert (result.exists, result.failures) == (False, ())
            return
        sums = {k: sum(mobius(k // j) * values[j - 1] for j in divisors(k)) for k in divisors(n)}
        assert result.failures == tuple(k for k, total in sums.items() if total < 0)
        assert result.exists == all(total >= 0 for total in sums.values())

    def test_one_reduction_per_divisor(self, monkeypatch):
        calls = []

        def counted(f, g):
            calls.append(g)
            return rem_mod(f, g)

        monkeypatch.setattr(qpoly, "rem_mod", counted)
        f = principal_specialization((6, 3, 1), 5)
        result = aa_criterion(f, 120)
        assert len(calls) <= len(divisors(120)) == 16
        assert result.values == tuple(eval_root_of_unity(f, 120, j) for j in range(1, 121))


class TestOrderCap:
    def test_cap_sits_above_promotion_orders(self):
        lcm = math.lcm(*orbit_census((6, 3, 3), 6, "pr").by_size)
        assert lcm == 156240 and 720720 < qpoly.MAX_ORDER

    @pytest.mark.parametrize(
        "call, words",
        [
            (lambda: qpoly.root_values(IntPoly([1, 1]), 10**6 + 1), ["1 + q"]),
            (lambda: eval_root_of_unity(IntPoly([1, 1]), 10**6 + 1, 1), ["1 + q"]),
            (lambda: aa_criterion(IntPoly([1, 1]), 10**6 + 1), ["1 + q"]),
            (lambda: csp_check((2, 1), 3, n=10**6 + 1), ["1 + 2*q + 2*q^2"]),
            (lambda: congruence(build_cartan_datum("A1"), (2,), 10**6 + 1), ["A1", "(2,)"]),
        ],
    )
    def test_cap_names_input_order_and_cap(self, call, words):
        with pytest.raises(ResourceLimit) as exc:
            call()
        for word in words + ["1000001", "order cap 1000000"]:
            assert word in str(exc.value)

    def test_promotion_order_above_the_cap(self, monkeypatch):
        # promotion on (2,1) with 3 letters has cycles of lengths 2 and 3
        monkeypatch.setattr(qpoly, "MAX_ORDER", 5)
        with pytest.raises(ResourceLimit, match="order n = 6: above the order cap 5"):
            csp_check((2, 1), 3, "pr")

    @pytest.mark.parametrize(
        "call, value",
        [
            pytest.param(lambda: predicted_orbit_counts((4,), 2, 4.0), "order 4.0", id="predicted"),
            pytest.param(
                lambda: divisibility_condition(build_cartan_datum("A1"), (2,), 2.0), "order 2.0", id="condition"
            ),
            pytest.param(lambda: divisors(4.0), "argument n 4.0", id="divisors"),
            pytest.param(lambda: mobius(2.0), "argument k 2.0", id="mobius"),
            pytest.param(lambda: csp_check((3,), 3, n=3.0), "order 3.0", id="csp_check"),
            pytest.param(lambda: aa_criterion(IntPoly([1, 1]), 2.0), "order 2.0", id="aa_criterion"),
            pytest.param(lambda: congruence(build_cartan_datum("A1"), (2,), 2.0), "order 2.0", id="congruence"),
            pytest.param(lambda: qpoly.root_values(IntPoly([1, 1]), 4.0), "order 4.0", id="root_values"),
            pytest.param(lambda: eval_root_of_unity(IntPoly([1, 1]), 4, 1.0), "exponent j 1.0", id="eval-j"),
            pytest.param(lambda: prime_specialization_criterion((2,), 2, 3.0), "order 3.0", id="prime"),
            pytest.param(lambda: orbit_formula(1.5, 2), "multiple a 1.5", id="orbit_formula-a"),
            pytest.param(lambda: orbit_formula(1, "3"), "order '3'", id="orbit_formula-d"),
            pytest.param(lambda: orbit_formula(1, None), "order None", id="orbit_formula-d-none"),
            pytest.param(lambda: qpoly.orbit_basis_element(4.0, 2), "order 4.0", id="orbit_basis-n"),
            pytest.param(lambda: qpoly.orbit_basis_element(4, 2.0), "divisor d 2.0", id="orbit_basis-d"),
            pytest.param(lambda: cyclotomic(2.0), "argument d 2.0", id="cyclotomic"),
        ],
    )
    def test_orders_are_integers(self, call, value):
        # a float order would pass the comparisons and reach a result as a
        # key or a count, or fail later on as a range bound
        divisors(4), mobius(2)  # an int in the cache does not let its float through
        with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
            call()


class TestCensusVsA:
    def test_agreement_on_one_row(self):
        assert census_vs_a((3,), 3) is True

    def test_failure_without_condition(self):
        # the verdict already fails, so there is nothing left to compare
        assert census_vs_a((2, 1), 3) is False

    def test_agreement_on_rectangle(self):
        assert census_vs_a((2, 2), 2) is True

    def test_condition_failure_with_true_verdict_raises(self):
        # sieving holds here, but no orbit-count prediction exists at order 2
        with pytest.raises(ConditionViolated):
            census_vs_a((2, 1), 2)

    def test_needs_two_letters(self):
        with pytest.raises(ValueError, match="^the cycle operator and promotion need at least two letters$"):
            census_vs_a((2,), 1)

    @pytest.mark.parametrize("call", [census_vs_a, rect_characterization])
    def test_letter_count_is_gated_first(self, call):
        # m is read by the type-A gate before any comparison with it
        with pytest.raises(ValueError, match="^letter count m '3' is not an integer$"):
            call((3,), "3")

    def test_census_is_checked_against_the_verdict(self, monkeypatch):
        # csp_check makes the comparison: a wrong prediction trips it
        from crystal_sieve import csp

        monkeypatch.setattr(csp, "predicted_orbit_counts", lambda lam, m, n: {1: 1, 3: 4})
        with pytest.raises(InternalError, match=r"census comparison \(False\) disagrees with the sieving verdict \(True\)"):
            census_vs_a((3,), 3)

    def test_cycle_length_off_the_order(self):
        # promotion on (6, 3) with 3 letters has cycles longer than 3
        with pytest.raises(ConditionViolated, match="a cycle length does not divide the order 3"):
            census_vs_a((6, 3), 3, "pr")


class TestOrbitFormula:
    def test_values(self):
        assert orbit_formula(2, 2) == 2
        assert orbit_formula(2, 3) == 9
        assert orbit_formula(1, 1) == 1
        assert orbit_formula(0, 1) == 1
        assert orbit_formula(0, 3) == 0

    def test_exact_past_the_digit_limit(self):
        # the CLI refuses to print this count, the library returns it exactly:
        # the fixed count of c^e on (a*d) on d letters is C(ae + e - 1, e - 1)
        d = 7200
        expected = sum(mobius(d // e) * math.comb(2 * e - 1, e - 1) for e in divisors(d)) // d
        value = orbit_formula(1, d)
        assert value == expected and value > 10**4300

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^multiple a must be nonnegative$"):
            orbit_formula(-1, 2)
        with pytest.raises(ValueError, match=r"^order must be positive$"):
            orbit_formula(2, 0)

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_census_on_one_row(self, a, d):
        census = orbit_census((a * d,), d) if d > 1 else orbit_census((a,), 2)
        if d > 1:
            assert census.by_size.get(d, 0) == orbit_formula(a, d)
        else:
            # d = 1: the formula counts fixed points of the trivial action
            assert orbit_formula(a, 1) == 1

    def test_closed_forms(self):
        for a in range(0, 6):
            assert orbit_formula(a, 2) == a
            assert orbit_formula(a, 3) == 3 * a * (a + 1) // 2

    def test_equals_the_predicted_orbit_counts(self):
        for a in range(0, 5):
            for d in range(2, 13):
                assert orbit_formula(a, d) == predicted_orbit_counts((a * d,), d, d)[d]
        # one letter has no A_(m-1) datum, so nothing is predicted
        assert predicted_orbit_counts((1,), 1, 1) is None

    def test_order_is_capped_first(self):
        with pytest.raises(ResourceLimit, match="order n = 1000001: above the order cap 1000000"):
            orbit_formula(2, 10**6 + 1)


class TestRectCharacterization:
    def test_one_row(self):
        assert rect_characterization((3,), 3) == (True, True, True)
        assert rect_characterization((6,), 3) == (True, True, True)

    def test_hook_is_neither(self):
        assert rect_characterization((2, 1), 3) == (False, False, True)

    def test_near_rectangle(self):
        assert rect_characterization((3, 3), 3) == (True, True, True)
        assert rect_characterization((6, 6), 3) == (True, True, True)

    def test_off_pattern_shapes(self):
        # unequal rows, and a rectangle with the wrong number of rows
        for lam, m in [((4, 2), 3), ((2, 2), 4)]:
            verdict = rect_characterization(lam, m)
            assert verdict.predicted is False
            assert verdict.agree is True

    def test_prediction_is_the_papers_form(self):
        # within the hypotheses, sieving is predicted exactly for
        # lam = ((a*m)^b) with a >= 1 and b = 1 or m - 1
        shapes = 0
        for m in range(2, 6):
            for lam in partitions_up_to(15, max_parts=m - 1):
                size = sum(lam)
                if not lam or size % m:
                    continue
                shapes += 1
                papers = any(lam == (a * m,) * b for b in (1, m - 1) for a in range(1, size // m + 1))
                verdict = rect_characterization(lam, m)
                assert verdict.predicted == papers
                assert verdict.agree
        assert shapes == 149

    def test_hypotheses(self):
        with pytest.raises(ConditionViolated, match="the empty shape is outside"):
            rect_characterization((), 3)
        with pytest.raises(ConditionViolated, match="need fewer than 3 rows, got 3"):
            rect_characterization((1, 1, 1), 3)
        with pytest.raises(ConditionViolated, match="3 must divide"):
            rect_characterization((2,), 3)


class TestPrimeCriterion:
    def test_collision_cases(self):
        assert prime_specialization_criterion((2, 2), 3, 3) == (True, True, True)
        assert prime_specialization_criterion((2, 1), 2, 3) == (False, False, False)
        assert prime_specialization_criterion((), 3, 3) == (False, False, True)

    def test_validation(self):
        with pytest.raises(ConditionViolated, match="4 is not prime"):
            prime_specialization_criterion((2,), 2, 4)
        with pytest.raises(ConditionViolated, match="^1 is not prime$"):
            prime_specialization_criterion((), 1, 1)
        with pytest.raises(ConditionViolated, match="prime 2 is below the letter count 3"):
            prime_specialization_criterion((2, 2), 3, 2)
        with pytest.raises(ConditionViolated, match="3 parts will not fit into 2 letters"):
            prime_specialization_criterion((1, 1, 1), 2, 5)
        # 10^18 + 3 is prime; the order cap refuses it before any trial division
        with pytest.raises(ResourceLimit, match="above the order cap 1000000"):
            prime_specialization_criterion((2,), 2, 10**18 + 3)

    def test_collision_is_checked_against_divisibility(self, monkeypatch):
        from crystal_sieve import csp

        # a value table whose first entry is 1: Phi_3 would not divide
        aa = csp.aa_criterion
        monkeypatch.setattr(csp, "aa_criterion", lambda f, n: aa(f, n)._replace(values=(1,)))
        with pytest.raises(InternalError, match=r"residue collision \(True\) disagrees with cyclotomic divisibility \(False\)"):
            prime_specialization_criterion((2, 2), 3, 3)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_divisibility_equals_collision_everywhere(self, p):
        # the cross-assertion inside the function would raise on any mismatch
        for m in range(1, p + 1):
            for lam in partitions_up_to(6, max_parts=m):
                prime_specialization_criterion(lam, m, p)


PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def shape_letters_prime(draw):
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, p))
    parts = draw(st.lists(st.integers(1, 9), max_size=m))
    return tuple(sorted(parts, reverse=True)), m, p


@settings(max_examples=120, deadline=None, database=None)
@given(shape_letters_prime())
def test_prime_divisibility_equals_cyclotomic_remainder(case):
    lam, m, p = case
    schur = principal_specialization(lam, m).shift(kappa(lam))
    divides = rem_mod(schur, cyclotomic(p)).is_zero
    assert prime_specialization_criterion(lam, m, p).cyclotomic_divides == divides


class TestOperatorIdentities:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_reversed_composition_inverts_cycle(self, m):
        from crystal_sieve.tableaux import c_action, weyl_s

        for lam in partitions_up_to(4, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                u = c_action(t)
                for i in range(1, m):
                    u = weyl_s(i, u)
                assert u == t

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_coprime_size_always_sieves(self, m):
        # when the letter count and the cell count share no factor, all
        # orbits are full cycles and sieving holds
        for lam in partitions_up_to(6, max_parts=m):
            if math.gcd(sum(lam), m) != 1 or not lam:
                continue
            report = csp_check(lam, m)
            assert report.verdict is True
            assert set(report.census.by_size) == {m}


class TestEvalAgainstB:
    @pytest.mark.parametrize(
        "name,lam,n",
        [("A2", (4, 0), 4), ("B2", (2, 0), 2), ("A3", (2, 2, 2), 2)],
    )
    def test_residue_values_equal_b(self, name, lam, n):
        datum = build_cartan_datum(name)
        r = congruence(datum, lam, n)
        for j in range(1, n + 1):
            assert eval_root_of_unity(r.residue, n, j) == r.b[math.gcd(j, n)]
