"""Semistandard tableaux and the operators on them: raising/lowering,
reflections, the cycle operator, Bender-Knuth moves, promotion, cores.

The m-core oracle here removes border strips directly off the shape's rim,
which is a different algorithm from the bead-sliding implementation under
test; signs are accumulated as (-1)^(rows spanned - 1) per removal.
"""

import time
import tracemalloc
from array import array

import pytest

from crystal_sieve.cartan import gl_weight
from crystal_sieve.csp import orbit_formula, predicted_orbit_counts, prime_specialization_criterion
from crystal_sieve.errors import ConditionViolated, InternalError, ResourceLimit
from crystal_sieve.partitions import MAX_LETTERS, as_partition, partitions_of, partitions_up_to
from crystal_sieve.qdim import kappa, principal_specialization
from crystal_sieve.qpoly import eval_root_of_unity
from crystal_sieve.tableaux import (
    OrbitCensus,
    Tableau,
    bender_knuth,
    c_action,
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


# every type-A entry point as a call (lam, m); orbit_formula(a, d) is the
# one-row shape (a*d) on d letters
TYPE_A_ENTRIES = [
    ssyt_count,
    enumerate_ssyt,
    superstandard,
    fixed_points,
    m_core,
    principal_specialization,
    gl_weight,
    pytest.param(lambda lam, m: predicted_orbit_counts(lam, m, 2), id="predicted_orbit_counts"),
    pytest.param(lambda lam, m: prime_specialization_criterion(lam, m, 3), id="prime_specialization_criterion"),
    pytest.param(lambda lam, m: orbit_formula(sum(lam), m), id="orbit_formula"),
    # row r filled with r + 1: a tableau of the shape whenever it fits
    pytest.param(lambda lam, m: Tableau(tuple((r + 1,) * p for r, p in enumerate(lam)), m), id="Tableau"),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(lambda: orbit_census((2.5,), 3), "part 2.5", id="orbit_census-part"),
        pytest.param(lambda: orbit_census((2,), 3.0), "letter count m 3.0", id="orbit_census-m"),
        pytest.param(lambda: ssyt_count((2,), 3.0), "letter count m 3.0", id="ssyt_count-m"),
        pytest.param(lambda: kostka((2,), (1.9, 1.2)), "multiplicity 1.9", id="kostka-content"),
        pytest.param(lambda: as_partition(["3"]), "part '3'", id="as_partition-str"),
        pytest.param(lambda: Tableau(((1.0,),), 2), "entry 1.0", id="Tableau-entry"),
        pytest.param(lambda: Tableau(((1,),), 2.0), "entry bound m 2.0", id="Tableau-m"),
        pytest.param(lambda: Tableau.from_text("1,\u0662", 2), "entry '\u0662'", id="from_text-arabic-indic"),
        pytest.param(lambda: Tableau.from_text("1_0", 10), "entry '1_0'", id="from_text-underscore"),
        pytest.param(lambda: partitions_of(2.5), "size n 2.5", id="partitions_of-n"),
        pytest.param(lambda: partitions_of(3, 1.5), "max_parts 1.5", id="partitions_of-max_parts"),
        pytest.param(lambda: partitions_up_to(2.5), "size n 2.5", id="partitions_up_to-n"),
    ],
)
def test_type_a_inputs_are_integers(call, value):
    # int() would read each of these values as an integer, or a float would
    # pass the comparisons of validation and fail later on as an index
    with pytest.raises(ValueError, match=f"^{value} is not an integer$"):
        call()


@pytest.mark.parametrize("rows", [(5,), None, ("12",), ((1,), 2), "1"])
def test_tableau_rows_are_rows(rows):
    # refused as a whole: a string row is not read as its characters, and
    # an int row or None raises no bare TypeError
    with pytest.raises(ValueError, match="^rows .* are not a tuple or list of tuples or lists$") as exc:
        Tableau(rows, 2)
    assert repr(rows) in str(exc.value)


class TestTableauType:
    def test_text_roundtrip(self):
        t = tab("1,1,2/2,3,3", 3)
        assert t.rows == ((1, 1, 2), (2, 3, 3))
        assert t.to_text() == "1,1,2/2,3,3"
        assert str(t) == "1,1,2/2,3,3"
        assert tab("-", 3).rows == ()
        assert tab("-", 3).to_text() == "-"

    def test_rows_as_lists(self):
        assert Tableau([[1, 2]], 3) == Tableau(((1, 2),), 3)

    def test_shape_size_content(self):
        t = tab("1,1,2/2,3,3", 3)
        assert t.shape == (3, 3)
        assert t.size == 6
        assert t.content() == (2, 2, 2)
        assert tab("1,1,2", 4).content() == (2, 1, 0, 0)

    def test_reading_word_bottom_row_first(self):
        assert tab("1,1,2/2,3,3", 3).reading_word() == (2, 3, 3, 1, 1, 2)
        assert tab("1,2", 2).reading_word() == (1, 2)

    def test_rejects_bad_fillings(self):
        with pytest.raises(ConditionViolated, match="row 1 decreases at column 2"):
            Tableau(((2, 1),), 2)
        with pytest.raises(ConditionViolated, match="column 1 not strict at row 2"):
            Tableau(((1, 1), (1,)), 2)
        with pytest.raises(ConditionViolated, match=r"entry 0 outside 1\.\.2"):
            Tableau(((0, 1),), 2)
        with pytest.raises(ConditionViolated, match=r"entry 3 outside 1\.\.2"):
            Tableau(((1, 3),), 2)
        with pytest.raises(ConditionViolated, match="row 2 longer than the row above"):
            Tableau(((1,), (2, 2)), 2)
        with pytest.raises(ConditionViolated, match="empty row"):
            Tableau(((),), 2)

    def test_rejects_no_letters(self):
        with pytest.raises(ValueError, match="entry bound m must be positive"):
            Tableau((), 0)

    def test_hashable_and_frozen(self):
        t = tab("1,2", 2)
        assert t == tab("1,2", 2)
        assert len({t, tab("1,2", 2)}) == 1
        with pytest.raises(Exception):
            t.rows = ()

    def test_rows_are_stored_as_tuples_of_ints(self):
        # list rows were kept as given: unequal to the tuple form, unhashable
        t = Tableau(([1, 2], [True + 1]), 3)
        assert t.rows == ((1, 2), (2,)) and all(type(row) is tuple for row in t.rows)
        assert t == Tableau(((1, 2), (2,)), 3)
        assert hash(t) == hash(Tableau(((1, 2), (2,)), 3))
        assert len({t, Tableau(((1, 2), (2,)), 3)}) == 1
        u = Tableau([(True, True)], True + 1)
        assert u == tab("1,1", 2) and type(u.m) is int and type(u.rows[0][0]) is int


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

    def test_cap(self, monkeypatch):
        # 165 fillings of a single row of 8 in 4 letters
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "100")
        with pytest.raises(ResourceLimit):
            enumerate_ssyt((8,), 4)
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "165")
        assert len(enumerate_ssyt((8,), 4)) == 165

    def test_cap_messages_name_input_and_limit(self, monkeypatch):
        cases = [
            ("100", lambda: enumerate_ssyt((8,), 4), ["(8,) on 4 letters", "165", "cap 100", "set by CRYSTAL_SIEVE_MAX_ENUM"]),
            ("2", lambda: kostka((4, 4), (2, 2, 2, 2)), ["(4, 4) on 4 letters", "(2, 2, 2, 2)", "3 tableaux", "cap 2"]),
            ("1", lambda: fixed_points((4, 4), 4), ["(4, 4) on 4 letters", "uniform content", "3 tableaux", "cap 1"]),
            # C(39, 9) = 211,915,132 tableaux, refused before any is built
            (None, lambda: enumerate_ssyt((30,), 10), ["(30,) on 10 letters", "211915132", "cap 10000000", "default"]),
        ]
        for env, call, parts in cases:
            if env is None:
                monkeypatch.delenv("CRYSTAL_SIEVE_MAX_ENUM", raising=False)
            else:
                monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", env)
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

    def test_shape_parts(self):
        # trailing zeros are stripped, a zero inside the shape is refused,
        # and a negative size has no partition
        assert as_partition((3, 1, 0)) == (3, 1)
        with pytest.raises(ValueError, match=r"part 0 is not positive in \(3, 0, 1\)"):
            as_partition((3, 0, 1))
        assert list(partitions_of(-1)) == []


class TestKostka:
    def test_small_value(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((3,), (1, 1, 1)) == 1
        assert kostka((2, 2), (2, 2)) == 1
        assert kostka((2, 2), (2, 1, 1)) == 1

    def test_uniform_contents_of_larger_shapes(self):
        assert kostka((9, 6, 3), (3,) * 6) == 720
        assert kostka((10, 8, 6, 4, 2), (6,) * 5) == 219
        assert len(fixed_points((9, 6, 3), 6)) == 720

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
        # shapes of different sizes are incomparable
        assert not dominates((2,), (1,))

    def test_size_mismatch(self):
        with pytest.raises(ConditionViolated, match="content sums to 1"):
            kostka((2,), (1,))

    def test_negative_multiplicity(self):
        with pytest.raises(ValueError, match="^multiplicity must be nonnegative$"):
            kostka((2,), (3, -1))

    @pytest.mark.parametrize("upper", [(), (3,), (4, 2), (5, 3, 3, 1), (6, 4, 2, 2, 0)])
    def test_rows_below_with_a_total_are_the_rows_of_that_sum(self, upper):
        from crystal_sieve.tableaux import _rows_below

        for v in range(len(upper) + 2):
            rows = list(_rows_below(upper, v))
            for total in range(-1, sum(upper) + 2):
                assert list(_rows_below(upper, v, total)) == [x for x in rows if sum(x) == total]


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
            for op in (crystal_f, crystal_e, weyl_s, bender_knuth):
                with pytest.raises(ValueError, match=rf"index {bad} outside 1\.\.2"):
                    op(bad, t)

    @pytest.mark.parametrize(
        "op, bad",
        [
            (weyl_s, 2.0),
            (crystal_e, "1"),
            (bender_knuth, 1.0),
            (crystal_f, "2"),
            # None once meant every row, m-1 down to 1: c, promotion or f_(m-1) ... f_1
            (weyl_s, None),
            (crystal_e, None),
            (bender_knuth, None),
            (crystal_f, None),
        ],
        ids=[
            "weyl_s-float",
            "crystal_e-text",
            "bender_knuth-float",
            "crystal_f-text",
            "weyl_s-None",
            "crystal_e-None",
            "bender_knuth-None",
            "crystal_f-None",
        ],
    )
    def test_index_is_an_integer(self, op, bad):
        # the range check compared the index before reading it
        with pytest.raises(ValueError, match=f"^index {bad!r} is not an integer$"):
            op(bad, tab("1,2", 3))

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
        # a string never visits a tableau twice, so each walk is bounded by
        # the crystal's size and fails, rather than hangs, past it
        for lam in partitions_up_to(5, max_parts=m):
            tabs = enumerate_ssyt(lam, m)
            for t in tabs:
                for i in range(1, m):
                    phi = 0
                    cur = t
                    while (nxt := crystal_f(i, cur)) is not None:
                        phi, cur = phi + 1, nxt
                        assert phi < len(tabs), f"f_{i} string from {t} does not end"
                    eps = 0
                    cur = t
                    while (nxt := crystal_e(i, cur)) is not None:
                        eps, cur = eps + 1, nxt
                        assert eps < len(tabs), f"e_{i} string from {t} does not end"
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
        with pytest.raises(ValueError, match="^the cycle operator and promotion need at least two letters$"):
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

    def test_census_needs_two_letters(self):
        for action in ("c", "pr"):
            with pytest.raises(ValueError, match="^the cycle operator and promotion need at least two letters$"):
                orbit_census((1,), 1, action)

    def test_census_cap(self, monkeypatch):
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "10")
        with pytest.raises(ResourceLimit):
            orbit_census((8,), 4)

    def test_census_stops_on_a_step_that_never_returns(self, monkeypatch):
        from crystal_sieve import tableaux

        # a move that copies the row above sends every pattern to one whose
        # G[1] = (2, 1) is no row at level 1, so no step comes back
        monkeypatch.setitem(tableaux._ROW_RULES, "c", lambda lo, row, hi: hi)
        with pytest.raises(InternalError, match="leave the 2 patterns enumerated"):
            orbit_census((2, 1), 3)

    def test_census_checks_that_c_is_a_permutation(self, monkeypatch):
        from crystal_sieve import tableaux

        # (2,1) on 3 letters has two patterns of uniform content, with
        # G[2] = (2, 0) and (1, 1); sending (1, 1) to (2, 0) maps both to
        # the first, a pattern of periodic content, so the images stay
        # among the ranked patterns but are not a permutation
        merge = {(1, 1): (2, 0)}
        monkeypatch.setitem(tableaux._ROW_RULES, "c", lambda lo, row, hi: merge.get(row, row))
        with pytest.raises(InternalError, match=r"c on shape \(2, 1\) on 3 letters is not a permutation"):
            orbit_census((2, 1), 3)

    @pytest.mark.parametrize(
        "image, by_size",
        [([], {}), ([0, 1, 2], {1: 3}), ([1, 2, 0, 3], {3: 1, 1: 1}), ([2, 3, 0, 1], {2: 2})],
    )
    def test_cycle_lengths_of_a_permutation(self, image, by_size):
        from crystal_sieve import tableaux

        assert tableaux._cycle_lengths(array("q", image), lambda: "a map") == by_size

    @pytest.mark.parametrize("image", [[0, 0], [1, 1, 2], [1, 2, 1], [2, 0, 0]])
    def test_cycle_lengths_refuse_a_map_that_is_not_injective(self, image):
        from crystal_sieve import tableaux

        with pytest.raises(InternalError, match=f"a map is not a permutation of the {len(image)} patterns"):
            tableaux._cycle_lengths(array("q", image), lambda: "a map")


    @staticmethod
    def check_move_table(monkeypatch, lam, m, action):
        from crystal_sieve import tableaux

        moves = []
        rule = tableaux._ROW_RULES[action]

        def counted(lo, row, hi):
            moves.append((lo, row, hi))
            return rule(lo, row, hi)

        monkeypatch.setitem(tableaux._ROW_RULES, action, counted)
        first = orbit_census(lam, m, action)
        computed = len(moves)
        assert orbit_census(lam, m, action) == first
        # each move is computed once per call, fewer than the steps taken
        assert 0 < computed < first.total * 3
        assert len(set(moves[:computed])) == computed
        assert moves[computed:] == moves[:computed]

    def test_move_table_lives_for_one_call(self, monkeypatch):
        # (3,3) on 4 letters has contents of period 2, so c walks
        self.check_move_table(monkeypatch, (3, 3), 4, "c")

    def test_promotion_move_table_lives_for_one_call(self, monkeypatch):
        self.check_move_table(monkeypatch, (3, 2), 4, "pr")

    def test_aperiodic_contents_are_not_walked(self, monkeypatch):
        from crystal_sieve import tableaux

        # 7 is prime and does not divide 13, so no content is periodic and
        # every orbit has size 7 without a step taken
        moves = []
        rule = tableaux._ROW_RULES["c"]
        monkeypatch.setitem(tableaux._ROW_RULES, "c", lambda *rows: moves.append(rows) or rule(*rows))
        assert orbit_census((4, 4, 2, 1, 1, 1), 7).by_size == {7: 3024}
        assert moves == []

    def test_census_checks_the_walked_count(self, monkeypatch):
        from crystal_sieve import tableaux

        count = tableaux._content_count
        monkeypatch.setattr(tableaux, "_content_count", lambda lam, mu: count(lam, mu) + 1)
        with pytest.raises(InternalError, match="walked 2 tableaux"):
            orbit_census((2, 1), 3)

    @pytest.mark.parametrize("offset", [1, -8])
    def test_census_checks_the_aperiodic_remainder(self, monkeypatch, offset):
        from crystal_sieve import tableaux

        # (2,1) on 3 letters: 8 tableaux, 2 of them of periodic content
        count = tableaux.ssyt_count
        monkeypatch.setattr(tableaux, "ssyt_count", lambda lam, m: count(lam, m) + offset)
        with pytest.raises(InternalError, match="aperiodic content, not a multiple of 3"):
            orbit_census((2, 1), 3)

    def test_census_checks_that_orbit_lengths_divide_m(self, monkeypatch):
        from crystal_sieve import tableaux

        # promotion's step in place of c's: on (2,1) on 3 letters it takes
        # a tableau of uniform content back after 2 steps
        monkeypatch.setitem(tableaux._ROW_RULES, "c", tableaux._bender_knuth_row)
        with pytest.raises(InternalError, match="after 2 steps, not a divisor of 3"):
            orbit_census((2, 1), 3)

    def test_census_checks_that_cycles_stay_in_the_periodic_contents(self, monkeypatch):
        from crystal_sieve import tableaux

        # on (2,) on 2 letters c swaps 11 and 22 and fixes 12, the one
        # tableau of periodic content; a step that swaps 12 and 11 has
        # cycles of length dividing 2 but walks into aperiodic content
        swap = {(1,): (2,), (2,): (1,)}
        monkeypatch.setitem(tableaux._ROW_RULES, "c", lambda lo, row, hi: swap.get(row, row))
        with pytest.raises(InternalError, match="leave the 1 patterns enumerated"):
            orbit_census((2,), 2)

    def test_census_memory(self):
        # the census ranks the 14,476 patterns of periodic content among
        # 9,343,620 tableaux and keeps each in its rank dict, one rank per
        # pattern in its image array
        tracemalloc.start()
        try:
            orbit_census((6, 6, 6, 6), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20

    @pytest.mark.parametrize("k, m, by_size", [(24, 24, {1: 1}), (30, 30, {1: 1}), (40, 30, {})])
    def test_periodic_contents_without_a_tableau_are_not_listed(self, k, m, by_size):
        # a column of k boxes has at most one tableau, and there are
        # millions of compositions of period m / 2 and beyond
        from crystal_sieve import tableaux

        start = time.perf_counter()
        assert orbit_census((1,) * k, m) == OrbitCensus(by_size, len(by_size))
        assert time.perf_counter() - start < 1.0
        assert len(tableaux._periodic_contents((1,) * k, m)) == len(by_size)

    @pytest.mark.parametrize("lam, m", [((6, 3, 3), 6), ((4, 4, 2, 2), 6), ((3, 3, 2), 8)])
    def test_census_equals_the_cycles_of_c_action(self, lam, m):
        # between them, orbits of every size that divides m
        # each walk is bounded by the crystal's size, so a c that is not a
        # bijection fails rather than hangs
        seen = set()
        sizes: dict[int, int] = {}
        tabs = enumerate_ssyt(lam, m)
        for t in tabs:
            if t in seen:
                continue
            cur, length = c_action(t), 1
            seen.add(t)
            while cur != t:
                assert length < len(tabs), f"c does not return to {t}"
                seen.add(cur)
                cur, length = c_action(cur), length + 1
            sizes[length] = sizes.get(length, 0) + 1
        census = orbit_census(lam, m)
        assert census.by_size == dict(sorted(sizes.items()))
        assert census.total == len(seen)


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
        with pytest.raises(ValueError, match="^the cycle operator and promotion need at least two letters$"):
            promotion(tab("1,1", 1))

    def test_promotion_census_checks_that_images_stay_in_the_crystal(self, monkeypatch):
        from crystal_sieve import tableaux

        # copying the row above makes new G[1] = (2, 1), which has a part at
        # index 1 and so is no row at level 1
        monkeypatch.setitem(tableaux._ROW_RULES, "pr", lambda lo, row, hi: hi)
        with pytest.raises(InternalError, match=r"takes a tableau of shape \(2, 1\) on 3 letters out of its crystal"):
            orbit_census((2, 1), 3, "pr")

    def test_promotion_census_checks_the_upper_levels_too(self, monkeypatch):
        from crystal_sieve import tableaux

        # copying the row above makes new G[3] = lam = (2, 1, 1, 1), whose
        # fourth part puts it outside the rows at level 3, so the image
        # leaves the crystal above the last two levels, where the census
        # looks each new row up once per prefix
        monkeypatch.setitem(tableaux._ROW_RULES, "pr", lambda lo, row, hi: hi)
        with pytest.raises(InternalError, match=r"takes a tableau of shape \(2, 1, 1, 1\) on 4 letters out of its crystal"):
            orbit_census((2, 1, 1, 1), 4, "pr")

    def test_promotion_census_checks_that_images_are_a_permutation(self, monkeypatch):
        from crystal_sieve import tableaux

        # on (2,) on 2 letters the level-1 rows (0,) and (1,) both go to
        # (1,): every image lies in the crystal, but two patterns share one
        merge = {(0,): (1,)}
        monkeypatch.setitem(tableaux._ROW_RULES, "pr", lambda lo, row, hi: merge.get(row, row))
        with pytest.raises(InternalError, match=r"shape \(2,\) on 2 letters is not a permutation"):
            orbit_census((2,), 2, "pr")

    def test_promotion_census_checks_the_rank_tables(self, monkeypatch):
        from crystal_sieve import tableaux

        count = tableaux.ssyt_count
        monkeypatch.setattr(tableaux, "ssyt_count", lambda lam, m: count(lam, m) + 1)
        with pytest.raises(InternalError, match=r"rank tables count 8 tableaux of shape \(2, 1\) on 3 letters, not 9"):
            orbit_census((2, 1), 3, "pr")

    def test_promotion_census_memory(self):
        # the census keeps one rank per tableau and the rank tables, not a
        # set of row tuples per pattern: 28,875 tableaux here
        tracemalloc.start()
        try:
            orbit_census((6, 3, 3), 6, "pr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestSuperstandard:
    def test_examples(self):
        assert superstandard((3, 3), 3).to_text() == "1,1,2/2,3,3"
        assert superstandard((4,), 2).to_text() == "1,1,2,2"
        assert superstandard((2, 2), 2).to_text() == "1,1/2,2"
        assert superstandard((3, 2, 1), 3).to_text() == "1,1,2/2,3/3"

    def test_errors(self):
        with pytest.raises(ConditionViolated, match="2 does not divide"):
            superstandard((3,), 2)
        with pytest.raises(ConditionViolated, match="3 parts will not fit into 2 letters"):
            superstandard((2, 1, 1), 2)
        # content (2,2,2) written row by row stacks two 3s in one column
        with pytest.raises(ConditionViolated, match="column 1 not strict at row 3"):
            superstandard((4, 1, 1), 3)


class TestFixedPoints:
    def test_examples(self):
        assert [t.to_text() for t in fixed_points((3,), 3)] == ["1,2,3"]
        assert fixed_points((4,), 3) == []
        assert [t.to_text() for t in fixed_points((2, 2), 2)] == ["1,1/2,2"]
        assert fixed_points((2, 1, 1), 2) == []

    @pytest.mark.parametrize("call", TYPE_A_ENTRIES)
    @pytest.mark.parametrize("lam, m", [((2,), 0), ((1,), -1)])
    def test_letter_count_must_be_positive(self, lam, m, call):
        # orbit_formula reads d as an order, not as a letter count
        with pytest.raises(ValueError, match=r"m must be positive|^order must be positive$"):
            call(lam, m)

    @pytest.mark.parametrize("call", TYPE_A_ENTRIES)
    def test_letter_count_is_capped(self, call):
        with pytest.raises(ResourceLimit, match=rf"shape \(\) on {MAX_LETTERS + 1} letters: above the letter cap"):
            call((), MAX_LETTERS + 1)

    @pytest.mark.parametrize("call, lam", [(superstandard, (2,)), (enumerate_ssyt, (1,))])
    def test_other_calls_check_the_letter_count_first(self, call, lam):
        # before the division by m, and before the shape is found too long
        with pytest.raises(ValueError, match="m must be positive"):
            call(lam, 0)

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
        # the sign sorts by transpositions, not by counting inversions: linear in m
        start = time.perf_counter()
        assert m_core((), MAX_LETTERS) == ((), True, 1)
        assert m_core((1,), MAX_LETTERS) == ((1,), False, None)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_against_border_strip_removal(self, m):
        for lam in partitions_up_to(7, max_parts=m):
            core, sign = border_strip_core(lam, m)
            got = m_core(lam, m)
            assert got.core == core
            assert got.is_empty == (core == ())
            assert got.sign == (sign if core == () else None)

    def test_too_many_rows(self):
        with pytest.raises(ConditionViolated, match="3 parts will not fit into 2 letters"):
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
