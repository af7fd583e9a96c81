"""Finite-type Cartan data: matrices, symmetrizers, positive roots, pairings.

Conventions, fixed once here and relied on everywhere else:

* The Cartan matrix entry at (i, j) is the pairing of the i-th simple
  coroot with the j-th simple root, so rows index coroots.
* Each family is one Dynkin diagram: its edges, and for each simple root
  d_i = (a_i, a_i)/2, the shortest at 1. These d_i are the symmetrizers; A_ii = 2
  and on an edge A_ij = 2 (a_i, a_j)/(a_i, a_i) = -max(d_i, d_j)/d_i, so the
  bilinear form (a_i, a_j) = d_i * A[i][j] is symmetric by construction.
* Roots and weights are plain integer tuples: a root holds its simple-root
  coordinates, a weight its fundamental-weight coordinates.
* Positive roots are built height by height from the simple roots, by the
  root-string test; no negative root is ever formed.
* Numbering within each family follows the standard Bourbaki tables.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ConditionViolated, ResourceLimit
from .partitions import Partition, _beta_numbers, _integer, _on_letters, _shown

Root = tuple[int, ...]
Weight = tuple[int, ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),  # D3 is rejected rather than silently aliased to A3
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_TYPE_RE = re.compile(r"^([A-G])\s*([0-9]+)$")

# Largest rank of a Cartan type, checked before any root is built; the
# Cartan datum of A60 takes about 0.25 s and that of A100 would take 1.5 s.
MAX_RANK = 64


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_RANGE:
            raise ValueError(f"unknown family {_shown(self.family)}")
        object.__setattr__(self, "rank", _integer(self.rank, "rank"))
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"{self.family}{_shown(self.rank)} is not a finite type here")
        if self.rank > MAX_RANK:
            rank = _shown(self.rank)
            raise ResourceLimit(f"{self.family}{rank}: rank {rank} is above the rank cap {MAX_RANK}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        m = _TYPE_RE.match(text.strip().upper())
        if not m:
            raise ValueError(f"cannot parse Cartan type {_shown(text)}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


def _dynkin(ct: CartanType) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """Edges, zero-indexed, and half root lengths d_i of ct's Dynkin diagram: the
    chain 0-1-...-(n-1), except that D's last node is on node n-3 and E is
    Bourbaki's 1-3-4-...-n with node 2 on node 4."""
    n, fam = ct.rank, ct.family
    edges = [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        edges[-1] = (n - 3, n - 1)
    elif fam == "E":
        edges[:2] = [(0, 2), (1, 3)]
    half = {"B": (2,) * (n - 1) + (1,), "C": (1,) * (n - 1) + (2,), "F": (2, 2, 1, 1), "G": (1, 3)}
    return edges, half.get(fam, (1,) * n)


def cartan_matrix(ct: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with rows indexed by coroots, read off the Dynkin diagram."""
    edges, d = _dynkin(ct)
    a = [[2 if i == j else 0 for j in range(ct.rank)] for i in range(ct.rank)]
    for i, j in edges:
        a[i][j] = -max(d[i], d[j]) // d[i]
        a[j][i] = -max(d[i], d[j]) // d[j]
    return tuple(map(tuple, a))


def symmetrizers(ct: CartanType) -> tuple[int, ...]:
    """Positive integers d_i with min 1 making diag(d) * A symmetric."""
    return _dynkin(ct)[1]


def _positive_roots(matrix, d) -> dict[Root, tuple[int, int]]:
    """The positive roots, height by height from the simple roots, each
    mapped to its pairings (beta, rho) and (beta, beta).

    The alpha_i-string through a root beta runs from beta - p alpha_i to
    beta + q alpha_i with p - q = <alpha_i^vee, beta>, so beta + alpha_i is
    a root exactly when p > <alpha_i^vee, beta>. The roots beta - k alpha_i
    are lower, so p is read off the roots already listed, and the pairing
    touches only i and its neighbours in the Dynkin diagram. Since
    (alpha_i, beta) = d_i <alpha_i^vee, beta>, the step to beta + alpha_i
    adds d_i to (beta, rho) and 2 d_i (<alpha_i^vee, beta> + 1) to (beta, beta).
    """
    n = len(matrix)
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in matrix]
    level = {tuple(1 if k == i else 0 for k in range(n)): (d[i], 2 * d[i]) for i in range(n)}
    roots = {}
    while level:
        roots.update(level)
        up = {}
        for beta, (rho, norm) in level.items():
            for i, row in enumerate(rows):
                p = 0
                while beta[:i] + (beta[i] - p - 1,) + beta[i + 1:] in roots:
                    p += 1
                pair = sum(a * beta[j] for j, a in row)
                if p > pair:
                    up[beta[:i] + (beta[i] + 1,) + beta[i + 1:]] = (rho + d[i], norm + 2 * d[i] * (pair + 1))
        # descending within a height: ties go toward lower indices
        level = {beta: up[beta] for beta in sorted(up, reverse=True)}
    return roots


@dataclass(frozen=True, eq=False)
class CartanDatum:
    """Immutable bundle of a Cartan type with its derived combinatorics.

    ``rho_pairings`` caches (beta, rho) for every positive root beta; since
    (a_i, rho) = d_i, that pairing is the symmetrizer-weighted height.
    ``root_norms`` caches (beta, beta) for the same roots.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizers: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    rho_pairings: dict[Root, int]
    root_norms: dict[Root, int]

    @property
    def rank(self) -> int:
        return self.cartan_type.rank


@functools.cache
def _build(ct: CartanType) -> CartanDatum:
    matrix = cartan_matrix(ct)
    d = symmetrizers(ct)
    roots = _positive_roots(matrix, d)
    rho = {beta: pairs[0] for beta, pairs in roots.items()}
    norms = {beta: pairs[1] for beta, pairs in roots.items()}
    return CartanDatum(ct, matrix, d, tuple(roots), rho, norms)


def build_cartan_datum(ct: CartanType | str) -> CartanDatum:
    if isinstance(ct, str):
        ct = CartanType.parse(ct)
    return _build(ct)


def _check_len(datum: CartanDatum, v: tuple[int, ...], what: str) -> tuple[int, ...]:
    """v's coordinates as integers; ValueError on any other, as every reader
    of ``partitions`` raises, or on a length other than the rank."""
    v = tuple([_integer(c, f"{what} coordinate") for c in v])
    if len(v) != datum.rank:
        raise ValueError(f"{what} has length {len(v)}, rank is {datum.rank}")
    return v


def pairing(datum: CartanDatum, beta: Root, lam: Weight) -> int:
    """(beta, lam) for beta in root coordinates and lam in weight coordinates.

    Bilinearity gives (beta, lam) = sum_i c_i * d_i * <h_i, lam> and
    <h_i, lam> is just the i-th weight coordinate.
    """
    beta, lam = _check_len(datum, beta, "root"), _check_len(datum, lam, "weight")
    d = datum.symmetrizers
    return sum(c * d[i] * lam[i] for i, c in enumerate(beta))


def rho_pairing(datum: CartanDatum, beta: Root) -> int:
    """(beta, rho) = sum_i c_i * d_i: the cached value for a positive root,
    else the pairing at rho, whose fundamental coordinates are (1, ..., 1)."""
    cached = datum.rho_pairings.get(beta)
    if cached is not None:
        return cached
    return pairing(datum, beta, (1,) * datum.rank)


def root_norm(datum: CartanDatum, beta: Root) -> int:
    """(beta, beta): the cached value for a positive root, else
    sum_(i,j) c_i * d_i * A[i][j] * c_j by the symmetrized Cartan matrix."""
    cached = datum.root_norms.get(beta)
    if cached is not None:
        return cached
    beta = _check_len(datum, beta, "root")
    a, d = datum.cartan_matrix, datum.symmetrizers
    return sum(
        ci * d[i] * a[i][j] * cj
        for i, ci in enumerate(beta) if ci
        for j, cj in enumerate(beta) if cj
    )


def copairing(datum: CartanDatum, beta: Root, lam: Weight) -> int:
    """<beta^vee, lam> = 2 (beta, lam) / (beta, beta); integral for real roots."""
    norm = root_norm(datum, beta)
    if norm <= 0:
        raise ConditionViolated(f"{_shown(beta)} has nonpositive norm {norm}")
    num = 2 * pairing(datum, beta, lam)
    if num % norm:
        raise ConditionViolated(f"coroot pairing of {_shown(beta)} with {_shown(lam)} is not integral")
    return num // norm


def corho_pairing(datum: CartanDatum, beta: Root) -> int:
    """<beta^vee, rho>: the copairing at rho, whose fundamental coordinates
    are (1, ..., 1)."""
    return copairing(datum, beta, (1,) * datum.rank)


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def gl_weight(lam: Partition | tuple[int, ...], m: int) -> Weight:
    """Fundamental coordinates of a partition viewed as a weight for m letters:
    coordinate i is lam_i - lam_(i+1) = b_i - b_(i+1) - 1 for the beta numbers b.

    The result has m - 1 coordinates and is always dominant.
    """
    b = _beta_numbers(_on_letters(lam, m), m)
    return tuple(b[i] - b[i + 1] - 1 for i in range(m - 1))
