"""Finite-type Cartan data: matrices, positive roots, pairings.

Root counts are the classical ones (n(n+1)/2, n^2, n(n-1), 36, 63, 120, 24,
6); reflection stability is checked against an independent reimplementation
of the simple reflection straight from the Cartan matrix.
"""

import dataclasses
import hashlib
import time

import pytest

from crystal_sieve.cartan import (
    MAX_RANK,
    CartanType,
    build_cartan_datum,
    cartan_matrix,
    copairing,
    corho_pairing,
    gl_weight,
    is_dominant,
    pairing,
    rho_pairing,
    root_norm,
    symmetrizers,
)
from crystal_sieve.errors import ConditionViolated, InvalidRank, ResourceLimit
from crystal_sieve.qdim import qdim, weyl_dim

ALL_SMALL_TYPES = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2",
]

# every type up to the rank cap, family by family, ranks ascending
ALL_TYPES = (
    [CartanType("A", n) for n in range(1, MAX_RANK + 1)]
    + [CartanType(f, n) for f in "BC" for n in range(2, MAX_RANK + 1)]
    + [CartanType("D", n) for n in range(4, MAX_RANK + 1)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


def bonds(a):
    """The edges of the Dynkin diagram: the nonzero off-diagonal pairs."""
    n = len(a)
    return {frozenset((i, j)) for i in range(n) for j in range(n) if i != j and a[i][j] != 0}


class TestCartanType:
    def test_parse_valid(self):
        ct = CartanType.parse("B2")
        assert (ct.family, ct.rank) == ("B", 2)
        assert CartanType.parse("E8").rank == 8
        assert CartanType.parse("A 12").rank == 12
        assert CartanType.parse("a2") == CartanType("A", 2)

    @pytest.mark.parametrize(
        "bad",
        ["D3", "D2", "Z9", "A0", "B1", "C1", "E5", "E9", "F3", "F5", "G1", "G3", "B", "2B", ""],
    )
    def test_parse_invalid(self, bad):
        with pytest.raises(InvalidRank):
            CartanType.parse(bad)

    def test_constructor_validates(self):
        with pytest.raises(InvalidRank):
            CartanType("D", 3)
        with pytest.raises(InvalidRank, match="unknown family 'H'"):
            CartanType("H", 2)
        assert CartanType("D", 4).rank == 4

    @pytest.mark.parametrize(
        "call, error, value",
        [
            pytest.param(lambda: CartanType("A", 2.0), InvalidRank, "rank 2.0", id="rank-float"),
            pytest.param(lambda: CartanType("A", "2"), InvalidRank, "rank '2'", id="rank-str"),
            pytest.param(
                lambda: pairing(build_cartan_datum("A2"), (1, 1), (0.5, 0)),
                ValueError, "weight coordinate 0.5", id="pairing",
            ),
            pytest.param(
                lambda: root_norm(build_cartan_datum("B2"), (0.5, 1)),
                ValueError, "root coordinate 0.5", id="root_norm",
            ),
            pytest.param(
                lambda: qdim(build_cartan_datum("A2"), (1.5, 0.5)),
                ValueError, "weight coordinate 1.5", id="qdim",
            ),
            pytest.param(
                lambda: weyl_dim(build_cartan_datum("B2"), (0.5, 1)),
                ValueError, "weight coordinate 0.5", id="weyl_dim",
            ),
        ],
    )
    def test_ranks_and_coordinates_are_integers(self, call, error, value):
        # a float would pass the comparisons and reach a pairing, a product
        # or a printed type name
        with pytest.raises(error, match=f"^{value} is not an integer$"):
            call()

    def test_rank_cap(self):
        # checked in the constructor, so no root of a refused type is built
        assert CartanType("A", MAX_RANK).rank == MAX_RANK == 64
        with pytest.raises(ResourceLimit, match=r"^A65: rank 65 is above the rank cap 64$"):
            CartanType("A", MAX_RANK + 1)
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="D1000000"):
            build_cartan_datum("D1000000")
        assert time.perf_counter() - start < 1


class TestCartanMatrix:
    def test_b2_matrix_and_symmetrizers(self):
        ct = CartanType.parse("B2")
        assert cartan_matrix(ct) == ((2, -1), (-2, 2))
        assert symmetrizers(ct) == (2, 1)

    def test_c2_is_b2_transposed(self):
        ct = CartanType.parse("C2")
        assert cartan_matrix(ct) == ((2, -2), (-1, 2))
        assert symmetrizers(ct) == (1, 2)

    def test_g2(self):
        ct = CartanType.parse("G2")
        assert cartan_matrix(ct) == ((2, -3), (-1, 2))
        assert symmetrizers(ct) == (1, 3)

    def test_b3_c3_double_bond_position(self):
        b3 = cartan_matrix(CartanType.parse("B3"))
        assert b3[2][1] == -2 and b3[1][2] == -1
        assert symmetrizers(CartanType.parse("B3")) == (2, 2, 1)
        c3 = cartan_matrix(CartanType.parse("C3"))
        assert c3[1][2] == -2 and c3[2][1] == -1
        assert symmetrizers(CartanType.parse("C3")) == (1, 1, 2)

    def test_f4(self):
        f4 = cartan_matrix(CartanType.parse("F4"))
        assert f4[2][1] == -2 and f4[1][2] == -1
        assert symmetrizers(CartanType.parse("F4")) == (2, 2, 1, 1)

    def test_d4_branch_node(self):
        d4 = cartan_matrix(CartanType.parse("D4"))
        # node 2 (index 1) carries the branch; nodes 3 and 4 are not adjacent
        assert d4[1][2] == d4[1][3] == -1
        assert d4[2][3] == d4[3][2] == 0
        assert symmetrizers(CartanType.parse("D4")) == (1, 1, 1, 1)

    def test_e6_bonds(self):
        e6 = cartan_matrix(CartanType.parse("E6"))
        bonds = {
            frozenset((i, j))
            for i in range(6)
            for j in range(6)
            if i != j and e6[i][j] != 0
        }
        # chain 1-3-4-5-6 plus node 2 hanging off node 4, zero-indexed
        assert bonds == {
            frozenset((0, 2)),
            frozenset((2, 3)),
            frozenset((3, 4)),
            frozenset((4, 5)),
            frozenset((1, 3)),
        }

    @pytest.mark.parametrize(
        "name, edges",
        [
            ("E7", [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)]),
            ("E8", [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]),
            ("D4", [(0, 1), (1, 2), (1, 3)]),
            ("D5", [(0, 1), (1, 2), (2, 3), (2, 4)]),
            ("D6", [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)]),
            ("D7", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),
            ("D8", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)]),
        ],
    )
    def test_e_and_d_bonds(self, name, edges):
        # E: chain 1-3-4-...-n plus node 2 on node 4; D: the last two nodes
        # both on node n-2; zero-indexed
        assert bonds(cartan_matrix(CartanType.parse(name))) == set(map(frozenset, edges))

    def test_every_diagram_is_a_tree_with_a_symmetric_form(self):
        for ct in ALL_TYPES:
            a, d = cartan_matrix(ct), symmetrizers(ct)
            n = ct.rank
            for i in range(n):
                assert a[i][i] == 2
                for j in range(n):
                    if i != j:
                        assert a[i][j] in (0, -1, -2, -3)
                        assert (a[i][j] == 0) == (a[j][i] == 0)
                    assert d[i] * a[i][j] == d[j] * a[j][i]
            assert min(d) == 1
            edges = bonds(a)
            reached = {0}
            for _ in range(n):
                reached |= {k for e in edges if e & reached for k in e}
            assert len(edges) == n - 1 and reached == set(range(n)), ct

    def test_all_types_digest(self):
        # matrices and symmetrizers of the 256 types as first written, one
        # hand-set table each, before both were read off one diagram
        h = hashlib.sha256()
        for ct in ALL_TYPES:
            h.update(repr((str(ct), cartan_matrix(ct), symmetrizers(ct))).encode())
        assert len(ALL_TYPES) == 256 and h.hexdigest()[:12] == "c5dbe4242552"

    @pytest.mark.parametrize("name", ALL_SMALL_TYPES + ["D5", "E6", "E7", "E8"])
    def test_symmetrized_matrix_is_symmetric(self, name):
        ct = CartanType.parse(name)
        a = cartan_matrix(ct)
        d = symmetrizers(ct)
        n = ct.rank
        assert min(d) == 1
        for i in range(n):
            assert a[i][i] == 2
            for j in range(n):
                assert d[i] * a[i][j] == d[j] * a[j][i]


def independent_reflection(a, i, beta):
    """s_i on root coordinates, recomputed from scratch: the coefficient of
    alpha_i drops by the pairing of the coroot h_i with beta."""
    drop = sum(a[i][j] * beta[j] for j in range(len(beta)))
    out = list(beta)
    out[i] -= drop
    return tuple(out)


def reflection_closure(a):
    """The positive roots as the closure of the simple roots under every
    simple reflection, negative half dropped: every root of a finite type is
    a reflection image of a simple root. Simple roots come first, then the
    roots by height, ties broken toward lower indices."""
    n = len(a)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            img = independent_reflection(a, i, beta)
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    positive = [b for b in seen if min(b) >= 0]
    positive.sort(key=lambda b: (sum(b), tuple(-c for c in b)))
    return tuple(positive)


CLOSURE_TYPES = (
    [f"A{r}" for r in range(1, 13)] + [f"{f}{r}" for f in "BC" for r in range(2, 13)]
    + [f"D{r}" for r in range(4, 13)] + ["E6", "E7", "E8", "F4", "G2", "A20", "B20", "C20", "D20"]
)


class TestPositiveRoots:
    @pytest.mark.parametrize("name", CLOSURE_TYPES)
    def test_roots_by_height_match_the_reflection_closure(self, name):
        datum = build_cartan_datum(name)
        a, d = datum.cartan_matrix, datum.symmetrizers
        roots = reflection_closure(a)
        assert datum.positive_roots == roots
        n = datum.rank
        rho = [sum(c * di for c, di in zip(b, d)) for b in roots]
        norms = [sum(b[i] * d[i] * a[i][j] * b[j] for i in range(n) for j in range(n)) for b in roots]
        assert list(datum.rho_pairings.items()) == list(zip(roots, rho))
        assert list(datum.root_norms.items()) == list(zip(roots, norms))

    @pytest.mark.parametrize(
        "name,count",
        [("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10), ("A5", 15), ("A6", 21),
         ("A7", 28), ("A8", 36),
         ("B2", 4), ("B3", 9), ("B4", 16), ("B5", 25), ("B6", 36), ("B7", 49), ("B8", 64),
         ("C2", 4), ("C3", 9), ("C4", 16), ("C5", 25), ("C6", 36), ("C7", 49), ("C8", 64),
         ("D4", 12), ("D5", 20), ("D6", 30), ("D7", 42), ("D8", 56),
         ("E6", 36), ("E7", 63), ("E8", 120), ("F4", 24), ("G2", 6)],
    )
    def test_counts(self, name, count):
        assert len(build_cartan_datum(name).positive_roots) == count

    def test_b2_roots_in_order(self):
        datum = build_cartan_datum("B2")
        assert datum.positive_roots == ((1, 0), (0, 1), (1, 1), (1, 2))
        assert [rho_pairing(datum, b) for b in datum.positive_roots] == [2, 1, 3, 4]
        assert [corho_pairing(datum, b) for b in datum.positive_roots] == [1, 1, 3, 2]

    def test_simple_roots_come_first(self):
        for name in ALL_SMALL_TYPES:
            datum = build_cartan_datum(name)
            n = datum.cartan_type.rank
            for i in range(n):
                expected = tuple(1 if j == i else 0 for j in range(n))
                assert datum.positive_roots[i] == expected

    @pytest.mark.parametrize("name", ALL_SMALL_TYPES + ["E6", "D5"])
    def test_reflection_stability(self, name):
        datum = build_cartan_datum(name)
        a = datum.cartan_matrix
        roots = set(datum.positive_roots)
        n = datum.cartan_type.rank
        for i in range(n):
            alpha = tuple(1 if j == i else 0 for j in range(n))
            assert independent_reflection(a, i, alpha) == tuple(-c for c in alpha)
            others = roots - {alpha}
            assert {independent_reflection(a, i, b) for b in others} == others

    def test_all_coordinates_nonnegative(self):
        for name in ALL_SMALL_TYPES:
            for beta in build_cartan_datum(name).positive_roots:
                assert min(beta) >= 0 and max(beta) >= 1

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_type_a_height_multiset(self, m):
        datum = build_cartan_datum(f"A{m - 1}")
        heights = sorted(sum(b) for b in datum.positive_roots)
        assert heights == sorted(j - i for i in range(1, m + 1) for j in range(i + 1, m + 1))

    @pytest.mark.parametrize(
        "name,root",
        [("A2", (1, 1)), ("A3", (1, 1, 1)), ("B2", (1, 2)), ("B3", (1, 2, 2)),
         ("C3", (2, 2, 1)), ("D4", (1, 2, 1, 1)), ("F4", (2, 3, 4, 2)),
         ("G2", (3, 2)), ("E6", (1, 2, 2, 3, 2, 1))],
    )
    def test_highest_root(self, name, root):
        assert build_cartan_datum(name).positive_roots[-1] == root

    @pytest.mark.parametrize(
        "name,coxeter",
        [("A1", 2), ("A4", 5), ("B4", 8), ("C4", 8), ("D5", 8),
         ("E6", 12), ("E7", 18), ("E8", 30), ("F4", 12), ("G2", 6)],
    )
    def test_highest_root_height(self, name, coxeter):
        datum = build_cartan_datum(name)
        assert sum(datum.positive_roots[-1]) == coxeter - 1


class TestPairings:
    def test_fundamental_weight_pairing(self):
        for name in ALL_SMALL_TYPES:
            datum = build_cartan_datum(name)
            n = datum.cartan_type.rank
            d = datum.symmetrizers
            for i in range(n):
                alpha = tuple(1 if k == i else 0 for k in range(n))
                for j in range(n):
                    omega = tuple(1 if k == j else 0 for k in range(n))
                    assert pairing(datum, alpha, omega) == (d[i] if i == j else 0)

    def test_a2_example(self):
        datum = build_cartan_datum("A2")
        assert pairing(datum, (1, 1), (4, 0)) == 4

    def test_b2_copairing_example(self):
        datum = build_cartan_datum("B2")
        assert copairing(datum, (1, 2), (2, 0)) == 2

    def test_b2_norms(self):
        datum = build_cartan_datum("B2")
        norms = [root_norm(datum, b) for b in datum.positive_roots]
        assert norms == [4, 2, 2, 4]

    def test_root_norm_reads_the_cache(self):
        for name in ("B5", "C4", "F4", "G2"):
            datum = build_cartan_datum(name)
            for beta in datum.positive_roots:
                assert root_norm(datum, beta) == datum.root_norms[beta]
        # a cached value is read, not recomputed
        beta = datum.positive_roots[-1]
        assert root_norm(dataclasses.replace(datum, root_norms={beta: -1}), beta) == -1
        # beyond the positive roots the norm is computed, length checked
        datum = build_cartan_datum("B2")
        assert (2, 1) not in datum.root_norms
        assert root_norm(datum, (2, 1)) == 10
        assert root_norm(datum, (0, 0)) == 0
        with pytest.raises(ValueError, match="root has length 3, rank is 2"):
            root_norm(datum, (1, 0, 0))

    def test_rho_pairing_is_weighted_height(self):
        for name in ALL_SMALL_TYPES:
            datum = build_cartan_datum(name)
            d = datum.symmetrizers
            for beta in datum.positive_roots:
                assert rho_pairing(datum, beta) == sum(c * di for c, di in zip(beta, d))

    def test_copairing_consistency(self):
        # <beta_vee, lam> * (beta, beta) = 2 * (beta, lam) for every root
        for name in ("B3", "C3", "F4", "G2"):
            datum = build_cartan_datum(name)
            lam = tuple(range(1, datum.cartan_type.rank + 1))
            for beta in datum.positive_roots:
                assert copairing(datum, beta, lam) * root_norm(datum, beta) == 2 * pairing(
                    datum, beta, lam
                )

    def test_dimension_mismatch(self):
        datum = build_cartan_datum("B2")
        with pytest.raises(ValueError, match="root has length 3, rank is 2"):
            pairing(datum, (1, 0, 0), (1, 0))
        with pytest.raises(ValueError, match="weight has length 3, rank is 2"):
            copairing(datum, (1, 0), (1, 0, 2))

    def test_copairing_rejects_non_roots(self):
        datum = build_cartan_datum("B2")
        with pytest.raises(ConditionViolated, match="has nonpositive norm 0"):
            copairing(datum, (0, 0), (1, 0))
        # (2, 1) has norm 10 but pairs to 4 with the first fundamental weight
        with pytest.raises(ConditionViolated, match="is not integral"):
            copairing(datum, (2, 1), (1, 0))

    def test_rho_pairing_extends_linearly(self):
        # rho_pairing is a linear form, usable beyond the cached root set
        datum = build_cartan_datum("B2")
        assert rho_pairing(datum, (5, 7)) == 5 * 2 + 7 * 1


class TestWeights:
    def test_gl_weight(self):
        assert gl_weight((3, 1), 3) == (2, 1)
        assert gl_weight((4,), 3) == (4, 0)
        assert gl_weight((2, 2), 2) == (0,)
        assert gl_weight((), 3) == (0, 0)

    def test_gl_weight_too_many_rows(self):
        with pytest.raises(ConditionViolated, match="3 parts will not fit into 2 letters"):
            gl_weight((1, 1, 1), 2)

    def test_is_dominant(self):
        assert is_dominant((0, 0))
        assert is_dominant((2, 0))
        assert not is_dominant((-1, 3))


class TestCaching:
    def test_datum_is_shared(self):
        a = build_cartan_datum("B2")
        b = build_cartan_datum("B2")
        c = build_cartan_datum(CartanType("B", 2))
        assert a is b is c
