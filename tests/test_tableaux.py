"""Semistandard tableaux and the operators on them: raising/lowering,
reflections, the cycle operator, Bender-Knuth moves, promotion, cores.

The m-core oracle here removes border strips directly off the shape's rim,
which is a different algorithm from the bead-sliding implementation under
test; signs are accumulated as (-1)^(rows spanned - 1) per removal.
"""

import pytest

from crystal_sieve.errors import (
    InternalError,
    NotDivisible,
    NotSemistandard,
    ResourceLimit,
    ShapeTooLong,
    SizeMismatch,
)
from crystal_sieve.partitions import partitions_of, partitions_up_to
from crystal_sieve.qdim import kappa, principal_specialization
from crystal_sieve.qpoly import eval_root_of_unity
from crystal_sieve.tableaux import (
    Tableau,
    bender_knuth,
    c_action,
    content,
    crystal_e,
    crystal_f,
    enumerate_ssyt,
    fixed_points,
    kostka,
    m_core,
    orbit_census,
    promotion,
    ssyt_count,
    superstandard,
    weyl_s,
)


def tab(text, m):
    return Tableau.from_text(text, m)


class TestTableauType:
    def test_text_roundtrip(self):
        t = tab("1,1,2/2,3,3", 3)
        assert t.rows == ((1, 1, 2), (2, 3, 3))
        assert t.to_text() == "1,1,2/2,3,3"
        assert str(t) == "1,1,2/2,3,3"
        assert tab("-", 3).rows == ()
        assert tab("-", 3).to_text() == "-"

    def test_shape_size_content(self):
        t = tab("1,1,2/2,3,3", 3)
        assert t.shape == (3, 3)
        assert t.size == 6
        assert t.content() == (2, 2, 2)
        assert content(t) == (2, 2, 2)
        assert tab("1,1,2", 4).content() == (2, 1, 0, 0)

    def test_reading_word_bottom_row_first(self):
        assert tab("1,1,2/2,3,3", 3).reading_word() == (2, 3, 3, 1, 1, 2)
        assert tab("1,2", 2).reading_word() == (1, 2)

    def test_rejects_bad_fillings(self):
        with pytest.raises(NotSemistandard):
            Tableau(((2, 1),), 2)  # row decreases
        with pytest.raises(NotSemistandard):
            Tableau(((1, 1), (1,)), 2)  # column not strict
        with pytest.raises(NotSemistandard):
            Tableau(((0, 1),), 2)  # entry below 1
        with pytest.raises(NotSemistandard):
            Tableau(((1, 3),), 2)  # entry above m
        with pytest.raises(NotSemistandard):
            Tableau(((1,), (2, 2)), 2)  # row lengths increase

    def test_with_entry(self):
        t = tab("1,2,2", 3)
        assert t.with_entry(0, 2, 3).to_text() == "1,2,3"
        assert t.with_entry(0, 2, 3) is not t
        with pytest.raises(NotSemistandard):
            tab("1,2/2", 2).with_entry(0, 0, 2)

    def test_hashable_and_frozen(self):
        t = tab("1,2", 2)
        assert t == tab("1,2", 2)
        assert len({t, tab("1,2", 2)}) == 1
        with pytest.raises(Exception):
            t.rows = ()


class TestEnumeration:
    def test_counts(self):
        assert ssyt_count((3, 3), 3) == 10
        assert ssyt_count((4,), 3) == 15
        assert ssyt_count((2, 2), 2) == 1
        assert ssyt_count((2, 1), 3) == 8
        assert ssyt_count((1, 1, 1), 2) == 0
        assert ssyt_count((), 3) == 1

    def test_count_matches_enumeration(self):
        for m in (1, 2, 3, 4):
            for lam in partitions_up_to(6):
                tabs = enumerate_ssyt(lam, m)
                assert len(tabs) == ssyt_count(lam, m)
                assert len(set(tabs)) == len(tabs)

    def test_sorted_by_reading_word(self):
        tabs = enumerate_ssyt((3, 1), 3)
        words = [t.reading_word() for t in tabs]
        assert words == sorted(words)

    def test_cap(self):
        # 165 fillings of a single row of 8 in 4 letters
        with pytest.raises(ResourceLimit):
            enumerate_ssyt((8,), 4, cap=100)
        assert len(enumerate_ssyt((8,), 4, cap=165)) == 165

    def test_cap_messages_name_input_and_limit(self, monkeypatch):
        monkeypatch.delenv("CRYSTAL_SIEVE_MAX_ENUM", raising=False)
        cases = [
            (lambda: enumerate_ssyt((8,), 4, cap=100), ["(8,) on 4 letters", "165", "cap 100", "argument"]),
            (lambda: kostka((4, 4), (2, 2, 2, 2), cap=2), ["(4, 4) on 4 letters", "(2, 2, 2, 2)", "at least 3", "cap 2"]),
            (lambda: fixed_points((4, 4), 4, cap=1), ["(4, 4) on 4 letters", "at least 2", "cap 1"]),
            # C(39, 9) = 211,915,132 tableaux, refused before any is built
            (lambda: enumerate_ssyt((30,), 10), ["(30,) on 10 letters", "211915132", "cap 10000000", "default"]),
        ]
        for call, parts in cases:
            with pytest.raises(ResourceLimit) as exc:
                call()
            for part in parts:
                assert part in str(exc.value)
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "50")
        with pytest.raises(ResourceLimit, match="cap 50 set by CRYSTAL_SIEVE_MAX_ENUM"):
            orbit_census((8,), 4)

    def test_empty_shape(self):
        tabs = enumerate_ssyt((), 2)
        assert len(tabs) == 1 and tabs[0].size == 0


class TestKostka:
    def test_small_value(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((3,), (1, 1, 1)) == 1
        assert kostka((2, 2), (2, 2)) == 1
        assert kostka((2, 2), (2, 1, 1)) == 1

    def test_content_permutation_invariance(self):
        assert kostka((3, 1), (1, 2, 1)) == kostka((3, 1), (2, 1, 1))
        assert kostka((2, 2, 1), (1, 1, 2, 1)) == kostka((2, 2, 1), (2, 1, 1, 1))

    def test_positive_iff_dominates(self):
        from crystal_sieve.partitions import dominates

        for n in range(1, 7):
            shapes = list(partitions_of(n))
            for lam in shapes:
                for mu in shapes:
                    assert (kostka(lam, mu) > 0) == dominates(lam, mu)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kostka((2,), (1,))


class TestCrystalOperators:
    def test_chain_on_one_row(self):
        t = tab("1,1", 2)
        u = crystal_f(1, t)
        v = crystal_f(1, u)
        assert (u.to_text(), v.to_text()) == ("1,2", "2,2")
        assert crystal_f(1, v) is None
        assert crystal_e(1, v) == u and crystal_e(1, u) == t
        assert crystal_e(1, t) is None

    def test_null_on_full_column(self):
        t = tab("1/2", 2)
        assert crystal_f(1, t) is None
        assert crystal_e(1, t) is None

    def test_bracket_cancellation(self):
        # word (2, 1, 2): the first minus eats the plus, one minus survives
        t = tab("1,2/2", 3)
        assert crystal_f(1, t) is None
        assert crystal_e(1, t) == tab("1,1/2", 3)

    def test_index_range(self):
        t = tab("1,2", 3)
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                crystal_f(bad, t)
            with pytest.raises(ValueError):
                crystal_e(bad, t)
            with pytest.raises(ValueError):
                weyl_s(bad, t)

    @pytest.mark.parametrize("m", [2, 3])
    def test_axioms_small_sweep(self, m):
        for lam in partitions_up_to(5, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                for i in range(1, m):
                    u = crystal_f(i, t)
                    if u is not None:
                        assert crystal_e(i, u) == t
                        cb, ca = t.content(), u.content()
                        assert ca[i - 1] == cb[i - 1] - 1
                        assert ca[i] == cb[i] + 1
                        assert sum(ca) == sum(cb)
                    v = crystal_e(i, t)
                    if v is not None:
                        assert crystal_f(i, v) == t

    @pytest.mark.parametrize("m", [2, 3])
    def test_string_lengths_match_weight(self, m):
        # phi - epsilon must equal the i-th weight coordinate c_i - c_{i+1}
        for lam in partitions_up_to(5, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                for i in range(1, m):
                    phi = 0
                    cur = t
                    while (nxt := crystal_f(i, cur)) is not None:
                        phi, cur = phi + 1, nxt
                    eps = 0
                    cur = t
                    while (nxt := crystal_e(i, cur)) is not None:
                        eps, cur = eps + 1, nxt
                    c = t.content()
                    assert phi - eps == c[i - 1] - c[i]


class TestWeylReflection:
    def test_examples(self):
        assert weyl_s(1, tab("1,1", 2)) == tab("2,2", 2)
        assert weyl_s(1, tab("1,2", 2)) == tab("1,2", 2)
        assert weyl_s(1, tab("1,1/2", 3)) == tab("1,2/2", 3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_involution_and_content_swap(self, m):
        for lam in partitions_up_to(5, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                for i in range(1, m):
                    u = weyl_s(i, t)
                    assert weyl_s(i, u) == t
                    cb, ca = t.content(), u.content()
                    assert ca[i - 1] == cb[i] and ca[i] == cb[i - 1]
                    rest = [k for k in range(m) if k not in (i - 1, i)]
                    assert all(ca[k] == cb[k] for k in rest)

    def test_braid_relation(self):
        for lam in partitions_up_to(5, max_parts=3):
            for t in enumerate_ssyt(lam, 3):
                lhs = weyl_s(1, weyl_s(2, weyl_s(1, t)))
                rhs = weyl_s(2, weyl_s(1, weyl_s(2, t)))
                assert lhs == rhs

    def test_commuting_relation(self):
        for lam in partitions_up_to(5, max_parts=4):
            for t in enumerate_ssyt(lam, 4):
                assert weyl_s(1, weyl_s(3, t)) == weyl_s(3, weyl_s(1, t))


class TestCycleOperator:
    def test_two_letter_orbit(self):
        assert c_action(tab("1,1", 2)) == tab("2,2", 2)
        assert c_action(tab("2,2", 2)) == tab("1,1", 2)
        assert c_action(tab("1,2", 2)) == tab("1,2", 2)

    def test_requires_two_letters(self):
        with pytest.raises(ValueError):
            c_action(tab("1,1", 1))

    @pytest.mark.parametrize("m", [2, 3])
    def test_order_divides_m(self, m):
        for lam in partitions_up_to(5, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                cur = t
                for _ in range(m):
                    cur = c_action(cur)
                assert cur == t

    def test_content_rotates(self):
        for t in enumerate_ssyt((3, 1), 3):
            c = t.content()
            assert c_action(t).content() == (c[2], c[0], c[1])

    def test_censuses(self):
        assert orbit_census((2,), 2).by_size == {1: 1, 2: 1}
        assert orbit_census((3,), 3).by_size == {1: 1, 3: 3}
        assert orbit_census((2, 1), 3).by_size == {1: 2, 3: 2}
        assert orbit_census((2, 2), 3, "pr").by_size == {3: 2}

    def test_census_accounting(self):
        census = orbit_census((2, 1), 3)
        assert census.total == 8
        assert sum(d * k for d, k in census.by_size.items()) == census.total
        assert census.fixed_by_power(1) == 2
        assert census.fixed_by_power(3) == 8
        assert census.fixed_by_power(2) == 2

    def test_unknown_action(self):
        with pytest.raises(ValueError):
            orbit_census((2,), 2, action="rot")

    def test_census_cap(self):
        with pytest.raises(ResourceLimit):
            orbit_census((8,), 4, cap=10)

    def test_census_stops_on_a_step_that_never_returns(self, monkeypatch):
        from crystal_sieve import tableaux

        # sorting the word is idempotent, so a walk from an unsorted word
        # never comes back to it
        monkeypatch.setitem(tableaux._WORD_ACTIONS, "c", lambda w, m, cells: tuple(sorted(w)))
        with pytest.raises(InternalError):
            orbit_census((2, 1), 3)


class TestBenderKnuth:
    def test_examples(self):
        assert bender_knuth(1, tab("1,1,2", 2)) == tab("1,2,2", 2)
        assert bender_knuth(1, tab("1,2/2", 3)) == tab("1,1/2", 3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_involution_and_count_swap(self, m):
        for lam in partitions_up_to(5, max_parts=m):
            for t in enumerate_ssyt(lam, m):
                for i in range(1, m):
                    u = bender_knuth(i, t)
                    assert bender_knuth(i, u) == t
                    cb, ca = t.content(), u.content()
                    assert (ca[i - 1], ca[i]) == (cb[i], cb[i - 1])

    def test_index_range(self):
        with pytest.raises(ValueError):
            bender_knuth(0, tab("1,2", 2))
        with pytest.raises(ValueError):
            bender_knuth(2, tab("1,2", 2))


class TestPromotion:
    def test_rectangle_order(self):
        assert orbit_census((2, 2), 3, "pr").by_size == {3: 2}
        for t in enumerate_ssyt((2, 2), 3):
            assert promotion(promotion(promotion(t))) == t

    def test_is_a_bijection(self):
        tabs = enumerate_ssyt((2, 1), 3)
        images = {promotion(t) for t in tabs}
        assert images == set(tabs)

    def test_requires_two_letters(self):
        with pytest.raises(ValueError):
            promotion(tab("1,1", 1))


class TestSuperstandard:
    def test_examples(self):
        assert superstandard((3, 3), 3).to_text() == "1,1,2/2,3,3"
        assert superstandard((4,), 2).to_text() == "1,1,2,2"
        assert superstandard((2, 2), 2).to_text() == "1,1/2,2"
        assert superstandard((3, 2, 1), 3).to_text() == "1,1,2/2,3/3"

    def test_errors(self):
        with pytest.raises(NotDivisible):
            superstandard((3,), 2)
        with pytest.raises(ShapeTooLong):
            superstandard((2, 1, 1), 2)
        # content (2,2,2) written row by row stacks two 3s in one column
        with pytest.raises(NotSemistandard):
            superstandard((4, 1, 1), 3)


class TestFixedPoints:
    def test_examples(self):
        assert [t.to_text() for t in fixed_points((3,), 3)] == ["1,2,3"]
        assert fixed_points((4,), 3) == []
        assert [t.to_text() for t in fixed_points((2, 2), 2)] == ["1,1/2,2"]
        assert fixed_points((2, 1, 1), 2) == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_uniform_content_filter(self, m):
        for lam in partitions_up_to(6, max_parts=m):
            uniform = [
                t
                for t in enumerate_ssyt(lam, m)
                if len(set(t.content())) == 1
            ]
            assert fixed_points(lam, m) == (uniform if sum(lam) % m == 0 else [])

    @pytest.mark.parametrize("m", [2, 3])
    def test_fixed_by_cycle_operator(self, m):
        for lam in partitions_up_to(6, max_parts=m):
            fixed = {t for t in enumerate_ssyt(lam, m) if c_action(t) == t}
            assert set(fixed_points(lam, m)) == fixed


def border_strip_core(lam, m):
    """Independent m-core: walk the rim by diagonals, remove any length-m
    border strip whose removal leaves a partition, recurse. Returns the core
    and the accumulated sign (None if no strip was ever removed is still +1).
    """
    lam = tuple(lam)
    cells = {(r, c) for r, length in enumerate(lam) for c in range(length)}
    border = {}
    for r, length in enumerate(lam):
        for c in range(length):
            below_right = (r + 1, c + 1)
            if below_right not in cells:
                border[c - r] = (r, c)
    if border:
        lo, hi = min(border), max(border)
        for start in range(lo, hi - m + 2):
            strip = [border.get(d) for d in range(start, start + m)]
            if any(s is None for s in strip):
                continue
            remaining = cells - set(strip)
            rows = {}
            for r, c in remaining:
                rows.setdefault(r, set()).add(c)
            new_lam = []
            ok = True
            for r in range(len(lam)):
                cols = rows.get(r, set())
                if cols != set(range(len(cols))):
                    ok = False
                    break
                new_lam.append(len(cols))
            if not ok:
                continue
            while new_lam and new_lam[-1] == 0:
                new_lam.pop()
            if any(new_lam[i] < new_lam[i + 1] for i in range(len(new_lam) - 1)):
                continue
            height = len({r for r, _ in strip})
            core, sign = border_strip_core(tuple(new_lam), m)
            return core, sign * (-1) ** (height - 1)
    return lam, 1


class TestMCore:
    def test_examples(self):
        assert m_core((2, 2), 2) == ((), True, 1)
        assert m_core((3, 1), 2) == ((), True, -1)
        assert m_core((1,), 2) == ((1,), False, None)
        assert m_core((), 3) == ((), True, 1)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_against_border_strip_removal(self, m):
        for lam in partitions_up_to(7, max_parts=m):
            core, sign = border_strip_core(lam, m)
            got = m_core(lam, m)
            assert got.core == core
            assert got.is_empty == (core == ())
            assert got.sign == (sign if core == () else None)

    def test_too_many_rows(self):
        with pytest.raises(ShapeTooLong):
            m_core((1, 1, 1), 2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_sign_matches_specialization_value(self, m):
        # third route: the Schur polynomial at 1, zeta, ..., zeta^(m-1) is
        # the sign when the core is empty and 0 otherwise
        for lam in partitions_up_to(6, max_parts=m):
            schur = principal_specialization(lam, m).shift(kappa(lam))
            value = eval_root_of_unity(schur, m, 1)
            result = m_core(lam, m)
            if result.is_empty:
                assert value == result.sign
            else:
                assert value == 0

    def test_single_row_value(self):
        # s_(3,1)(1, q) folds to -q^2 at q = -1
        schur = principal_specialization((3, 1), 2).shift(kappa((3, 1)))
        assert eval_root_of_unity(schur, 2, 1) == -1
