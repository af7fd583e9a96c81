"""Acceptance gate: ten end-to-end criteria, each printing one summary line.

Every comparison is exact integer equality.  Criteria 1 through 7 carry a
wall-clock budget that is asserted as part of the test; the remaining
criteria report their elapsed time without a cap.
"""

import itertools
import time
from contextlib import contextmanager

from crystal_sieve.cartan import build_cartan_datum, gl_weight
from crystal_sieve.csp import aa_criterion, census_vs_a, csp_check, orbit_formula
from crystal_sieve.partitions import partitions_up_to
from crystal_sieve.qdim import (
    congruence,
    divisibility_condition,
    kappa,
    principal_specialization,
    qdim,
    qdim_dual,
    weyl_dim,
)
from crystal_sieve.qpoly import (
    IntPoly,
    ONE,
    divisors,
    eval_root_of_unity,
    mobius,
    orbit_basis_element,
    rem_mod,
)
from crystal_sieve.tableaux import (
    c_action,
    crystal_e,
    crystal_f,
    enumerate_ssyt,
    fixed_points,
    kostka,
    m_core,
    orbit_census,
    promotion,
    weyl_s,
)

ALL_TYPES_RANK_LE_4 = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "F4", "G2",
]


@contextmanager
def announce(capsys, num: int, name: str, cap: float | None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    ok = cap is None or elapsed < cap
    suffix = f"({elapsed:.2f}s, cap {cap:.0f}s)" if cap is not None else f"({elapsed:.2f}s)"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {suffix}")
    assert ok, f"criterion {num} took {elapsed:.2f}s, over its {cap:.0f}s budget"


class TestAcceptance:
    def test_01_gl3_worked_example(self, capsys):
        with announce(capsys, 1, "gl3 worked example", 1.0):
            poly = IntPoly([1, 1, 2, 2, 3, 2, 2, 1, 1])
            assert principal_specialization((4,), 3) == poly
            datum = build_cartan_datum("A2")
            assert qdim(datum, gl_weight((4,), 3)) == poly
            r = congruence(datum, gl_weight((4,), 3), 4)
            assert r.b == {1: 1, 2: 3, 4: 15}
            assert r.a == {1: 1, 2: 1, 4: 3}
            expected = ONE + IntPoly([1, 0, 1]) + 3 * IntPoly([1, 1, 1, 1])
            assert r.residue == expected == IntPoly([5, 3, 4, 3])
            assert r.residue == rem_mod(poly, IntPoly.monomial(4) - ONE)

    def test_02_b2_worked_example(self, capsys):
        with announce(capsys, 2, "B2 worked example", 1.0):
            datum = build_cartan_datum("B2")
            lam = (2, 0)
            assert qdim(datum, lam) == IntPoly([1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 1, 0, 1])
            assert qdim_dual(datum, lam) == IntPoly([1, 1, 2, 2, 2, 2, 2, 1, 1])
            primal = congruence(datum, lam, 2)
            assert primal.residue == IntPoly([10, 4])
            assert primal.b == {1: 6, 2: 14}
            assert primal.a == {1: 6, 2: 4}
            dual = congruence(datum, lam, 2, dual=True)
            assert dual.residue == IntPoly([8, 6])
            assert dual.b == {1: 2, 2: 14}
            assert dual.a == {1: 2, 2: 6}

    def test_03_congruence_property_sweep(self, capsys):
        with announce(capsys, 3, "congruence property sweep", 60.0):
            count = 0
            for name in ALL_TYPES_RANK_LE_4:
                datum = build_cartan_datum(name)
                for n in range(1, 7):
                    for base in itertools.product((0, 1, 2), repeat=datum.rank):
                        lam = tuple(n * x for x in base)
                        r = congruence(datum, lam, n)
                        assert all(v >= 0 for v in r.a.values())
                        assert sum(d * v for d, v in r.a.items()) == weyl_dim(datum, lam)
                        rebuilt = sum(
                            (v * orbit_basis_element(n, d) for d, v in r.a.items()),
                            IntPoly(),
                        )
                        assert rebuilt == r.residue
                        values = [eval_root_of_unity(r.residue, n, j) for j in range(1, n + 1)]
                        assert all(v is not None for v in values)
                        for k in divisors(n):
                            cert = sum(mobius(k // j) * values[j - 1] for j in divisors(k))
                            assert cert == k * r.a.get(k, 0)
                            assert cert >= 0
                        count += 1
            assert count == 6 * sum(3 ** build_cartan_datum(t).rank for t in ALL_TYPES_RANK_LE_4)

    def test_04_crystal_correctness(self, capsys):
        with announce(capsys, 4, "crystal correctness", 120.0):
            for lam in partitions_up_to(8):
                for m in range(1, 5):
                    if len(lam) > m:
                        assert enumerate_ssyt(lam, m) == []
                        continue
                    tabs = enumerate_ssyt(lam, m)
                    for t in tabs:
                        for i in range(1, m):
                            lowered = crystal_f(i, t)
                            if lowered is not None:
                                assert crystal_e(i, lowered) == t
                            raised = crystal_e(i, t)
                            if raised is not None:
                                assert crystal_f(i, raised) == t
                            assert weyl_s(i, weyl_s(i, t)) == t
                        for i in range(1, m - 1):
                            lhs = weyl_s(i, weyl_s(i + 1, weyl_s(i, t)))
                            rhs = weyl_s(i + 1, weyl_s(i, weyl_s(i + 1, t)))
                            assert lhs == rhs
                        if m >= 2:
                            u = t
                            for _ in range(m):
                                u = c_action(u)
                            assert u == t
                    if m >= 2:
                        fixed = [t for t in tabs if c_action(t) == t]
                        uniform = [t for t in tabs if len(set(t.content())) <= 1]
                        assert fixed == uniform == fixed_points(lam, m)
                        size = sum(lam)
                        expected = kostka(lam, (size // m,) * m) if size % m == 0 else 0
                        assert len(fixed) == expected

    def test_05_sieving_verdict_matches_shape(self, capsys):
        with announce(capsys, 5, "sieving verdict matches shape", 300.0):
            count = 0
            for m in (2, 3, 4):
                for lam in partitions_up_to(12):
                    if sum(lam) % m or len(lam) >= m:
                        continue
                    report = csp_check(lam, m)
                    a = lam[0] // m if lam else 0
                    one_row = lam == ((m * a,) if a else ())
                    near_rect = lam == (((m * a,) * (m - 1)) if a else ())
                    assert report.verdict == (one_row or near_rect), (lam, m)
                    if report.verdict:
                        residue = rem_mod(
                            principal_specialization(lam, m),
                            IntPoly.monomial(m) - ONE,
                        )
                        assert aa_criterion(residue, m).exists
                    count += 1
            assert count == 60

    def test_06_orbit_count_formula(self, capsys):
        with announce(capsys, 6, "orbit count formula", 300.0):
            for m in (2, 3, 4):
                for a in range(0, 4):
                    one_row = (a * m,) if a else ()
                    near_rect = ((a * m,) * (m - 1)) if a else ()
                    census_row = orbit_census(one_row, m)
                    census_rect = orbit_census(near_rect, m)
                    assert census_row.by_size == census_rect.by_size
                    assert set(census_row.by_size) <= set(divisors(m))
                    for d in divisors(m):
                        assert census_row.by_size.get(d, 0) == orbit_formula(a, d)
            for a in range(0, 4):
                assert orbit_formula(a, 2) == a
                assert orbit_formula(a, 3) == 3 * a * (a + 1) // 2

    def test_07_schur_at_root_of_unity(self, capsys):
        with announce(capsys, 7, "Schur value at root of unity", 60.0):
            for lam in partitions_up_to(8):
                for m in range(max(1, len(lam)), 5):
                    schur = principal_specialization(lam, m).shift(kappa(lam))
                    value = eval_root_of_unity(schur, m, 1)
                    assert value is not None
                    core = m_core(lam, m)
                    if core.is_empty:
                        assert value == core.sign
                        assert value in (1, -1)
                    else:
                        assert value == 0

    def test_08_verdict_equivalences(self, capsys):
        with announce(capsys, 8, "verdict equivalences", None):
            for m in (2, 3, 4):
                datum = build_cartan_datum(f"A{m - 1}")
                for lam in partitions_up_to(12):
                    if sum(lam) % m or len(lam) >= m:
                        continue
                    report = csp_check(lam, m)
                    if divisibility_condition(datum, gl_weight(lam, m), m):
                        assert census_vs_a(lam, m) == report.verdict
                    if m in (2, 3):
                        unique_fixed = report.census.by_size.get(1, 0) == 1
                        assert report.verdict == unique_fixed, (lam, m)

    def test_09_cycle_equals_promotion(self, capsys):
        with announce(capsys, 9, "cycle operator equals promotion", None):
            for m in range(2, 5):
                for a in range(1, 5):
                    for lam in ((a,), (a,) * (m - 1)):
                        for t in enumerate_ssyt(lam, m):
                            assert c_action(t) == promotion(t)
            for m in range(2, 5):
                for a in range(1, 4):
                    for b in range(1, 4):
                        for t in enumerate_ssyt((a,) * b, m):
                            u = t
                            for _ in range(m):
                                u = promotion(u)
                            assert u == t

    def test_10_three_way_dimension_oracle(self, capsys):
        with announce(capsys, 10, "three-way dimension oracle", None):
            for lam in partitions_up_to(8):
                for m in range(1, 5):
                    if len(lam) > m:
                        assert enumerate_ssyt(lam, m) == []
                        continue
                    poly = principal_specialization(lam, m)
                    shift = kappa(lam)
                    coeffs = [0] * (poly.degree + 1 if not poly.is_zero else 1)
                    for t in enumerate_ssyt(lam, m):
                        stat = sum((k - 1) * c for k, c in enumerate(t.content(), start=1))
                        coeffs[stat - shift] += 1
                    assert IntPoly(coeffs) == poly
                    if m >= 2:
                        datum = build_cartan_datum(f"A{m - 1}")
                        assert qdim(datum, gl_weight(lam, m)) == poly
