"""q-dimensions of highest-weight crystals, their residues mod q^n - 1,
and principal specializations of Schur polynomials.

The q-dimension of the crystal with highest weight L is the Weyl-type product
over positive roots of (1 - q^((beta, L + rho))) / (1 - q^((beta, rho))).
Every such product, and its value at q = 1, goes through the one exact
routine ``q_ratio`` (``_q_ratio_at_one``), whose quotients never leave Z[q];
its docstring in ``qpoly`` describes the packed-product kernel.
The output degree is known from the exponents before any product work, and
a degree above ``qpoly.MAX_DEGREE`` raises ResourceLimit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .cartan import CartanDatum, Weight, _check_len, is_dominant
from .errors import ConditionViolated, InternalError
from .partitions import Partition, _beta_numbers, _decimal, _integer, _on_letters, _shape_on, _shown, as_partition
from .qpoly import (
    MAX_DEGREE,
    ZERO,
    IntPoly,
    _check_degree,
    _orbits_from_fixed,
    _residue,
    check_order,
    divisors,
    orbit_basis_element,
    poly_to_json_coeffs,
    q_ratio,
    _q_ratio_at_one,
)


def _exponents(datum: CartanDatum, lam: Weight, dual: bool, dominant: bool = False):
    """Numerator and denominator exponents of the Weyl-type product, in one
    pass over the positive roots: (beta, lam + rho) over (beta, rho), or
    <beta^vee, lam + rho> over <beta^vee, rho> when dual. Both pairings
    divide (beta, .) by half, which is 1, or (beta, beta)/2 when dual (an
    integer, since (beta, beta) is 2, 4 or 6). Root data come from the
    datum's caches; only the weight is checked, with the errors of
    ``pairing``, and, when dominant is set, then checked to have no negative
    coordinate. A coroot pairing of an integral weight is an integer, so a
    remainder is an InternalError. dual is read by ``_dual``."""
    dual = _dual(dual)
    lam = _check_len(datum, lam, "weight")
    if dominant and not is_dominant(lam):
        raise ConditionViolated(f"{_shown(lam)} has a negative coordinate")
    w = [di * c for di, c in zip(datum.symmetrizers, lam)]
    rho, norms = datum.rho_pairings, datum.root_norms
    nums, dens = [], []
    for beta in datum.positive_roots:
        half = norms[beta] // 2 if dual else 1
        pair, rem = divmod(sum(map(operator.mul, beta, w)), half)
        if rem:
            raise InternalError(f"coroot pairing of {beta} with {_shown(lam)} is not integral")
        den = rho[beta] // half
        dens.append(den)
        nums.append(pair + den)
    return nums, dens


def _dual(dual) -> bool:
    """dual as given when it is a bool, so that a result stores and writes
    a bool; ValueError otherwise."""
    if type(dual) is not bool:
        raise ValueError(f"dual {_shown(dual)} is not a bool")
    return dual


def _qdim_exponents(datum: CartanDatum, lam: Weight, dual: bool):
    """Exponents of the whole (dual) q-dimension product, after the
    dominance and degree checks."""
    nums, dens = _exponents(datum, lam, dual, dominant=True)
    kind = "dual q-dimension" if dual else "q-dimension"
    _check_degree(sum(nums) - sum(dens), lambda: f"{kind} of {datum.cartan_type} at weight {_shown(lam)}")
    return nums, dens


def qdim(datum: CartanDatum, lam: Weight) -> IntPoly:
    """q-dimension of the highest-weight crystal B(lam).

    Monic palindromic polynomial of degree 2 (rho, lam) whose value at 1 is
    the classical Weyl dimension. A degree above MAX_DEGREE raises
    ResourceLimit.
    """
    return q_ratio(*_qdim_exponents(datum, lam, dual=False))


def qdim_dual(datum: CartanDatum, lam: Weight) -> IntPoly:
    """Coroot-side variant using <beta^vee, .> exponents; agrees with qdim
    whenever all roots share one length."""
    return q_ratio(*_qdim_exponents(datum, lam, dual=True))


def weyl_dim(datum: CartanDatum, lam: Weight) -> int:
    """Classical dimension: product over positive roots of
    (beta, lam + rho) / (beta, rho)."""
    return _q_ratio_at_one(*_exponents(datum, lam, dual=False, dominant=True))


def _divisible(nums, dens, n: int) -> bool:
    """Whether n divides every num - den; ValueError unless n is a positive integer."""
    n = _integer(n, "order", least=1)
    return all((x - y) % n == 0 for x, y in zip(nums, dens))


def divisibility_condition(datum: CartanDatum, lam: Weight, n: int, dual: bool = False) -> bool:
    """Whether n divides (beta, lam) for every positive root beta
    (or n | <beta^vee, lam> when dual).

    For a partition weight in type A this is exactly divisibility of every
    difference of padded parts by n.
    """
    return _divisible(*_exponents(datum, lam, dual), n)


@dataclass(frozen=True)
class CongruenceResult:
    """Residue of a q-dimension mod q^n - 1 together with its orbit-count data.

    ``b`` maps each divisor d of n to the count b_d of crystal elements fixed
    by the d-th power structure, and ``a`` to the orbit counts a_d solving
    b_d = sum of e * a_e over divisors e of d. The residue always equals
    sum of a_d * (q^n - 1)/(q^(n/d) - 1).
    """

    n: int
    b: dict[int, int]
    a: dict[int, int]
    residue: IntPoly
    dual: bool = False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "dual": self.dual,
            "b": {str(d): str(v) for d, v in self.b.items()},
            "a": {str(d): str(v) for d, v in self.a.items()},
            "residue": poly_to_json_coeffs(self.residue),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CongruenceResult":
        """The inverse of ``to_json_dict``: each integer is a JSON integer or
        a decimal string, read by ``_decimal``, and dual a JSON bool."""
        dual = _dual(data.get("dual", False))
        return cls(
            n=_decimal(data["n"], "order", least=1),
            b={_decimal(d, "divisor d", least=1): _decimal(v, "fixed count", least=0) for d, v in data["b"].items()},
            a={_decimal(d, "divisor d", least=1): _decimal(v, "orbit count", least=0) for d, v in data["a"].items()},
            residue=IntPoly([_decimal(c, "coefficient") for c in data["residue"]]),
            dual=dual,
        )


def _fixed_and_orbit_counts(nums, dens, n: int):
    """Fixed counts b and orbit counts a at order n of the product over these
    exponents: b_d keeps the factors whose denominator (a rho pairing or
    coroot height) n/d divides, and the a_d follow by Mobius inversion."""
    b: dict[int, int] = {}
    for d in divisors(n):
        k = n // d
        b[d] = _q_ratio_at_one(
            [x for x, y in zip(nums, dens) if y % k == 0], [y for y in dens if y % k == 0]
        )
    return b, _orbits_from_fixed(b)


def _orbit_data(datum: CartanDatum, lam: Weight, n: int, dual: bool):
    """The order n as read, the exponents of the whole (dual) q-dimension
    product, the fixed counts b and the orbit counts a at n, after every
    check ``congruence`` makes before its product: the order cap, the weight
    gate, dominance, the degree cap, the divisibility condition, exact,
    nonnegative Mobius sums."""
    kind = "dual q-dimension" if dual else "q-dimension"
    n = check_order(n, lambda: f"residue of the {kind} of {datum.cartan_type} at weight {_shown(lam)}")
    nums, dens = _qdim_exponents(datum, lam, dual)
    if not _divisible(nums, dens, n):
        raise ConditionViolated(f"weight {_shown(lam)} fails the divisibility condition for n={n}")
    return (n, nums, dens, *_fixed_and_orbit_counts(nums, dens, n))


def orbit_counts(datum: CartanDatum, lam: Weight, n: int, dual: bool = False) -> dict[int, int]:
    """Orbit counts a_d of ``congruence`` without the q-dimension itself:
    each b_d is the product over the roots whose rho pairing n/d divides,
    and the a_d follow by Mobius inversion. Raises what ``congruence``
    raises before its product."""
    return _orbit_data(datum, lam, n, dual)[4]


def congruence(datum: CartanDatum, lam: Weight, n: int, dual: bool = False) -> CongruenceResult:
    """Residue of (dual) qdim mod q^n - 1 decomposed over the orbit basis.

    Requires lam dominant and the divisibility condition for n; the fixed
    counts b_d and orbit counts a_d are those of ``orbit_counts``, and the
    residue is cross-checked against the reconstruction from the a_d. The
    residue is the fold of the q-dimension's coefficients by exponent mod n.
    An order above qpoly.MAX_ORDER or a q-dimension of degree above
    MAX_DEGREE raises ResourceLimit before any product is taken.
    """
    n, nums, dens, b, a = _orbit_data(datum, lam, n, dual)
    residue = _residue(q_ratio(nums, dens).coeffs, n)
    recon = ZERO
    for d, coeff in a.items():
        recon = recon + coeff * orbit_basis_element(n, d)
    if recon != residue:
        raise InternalError(
            f"residue {residue} differs from orbit reconstruction {recon}"
        )
    return CongruenceResult(n=n, b=b, a=a, residue=residue, dual=dual)


def kappa(lam: Partition) -> int:
    """Minimal charge statistic: sum of (i - 1) * lam_i over rows."""
    lam = as_partition(lam)
    return sum(i * part for i, part in enumerate(lam))


def principal_specialization(lam: Partition, m: int) -> IntPoly:
    """Schur polynomial of lam at 1, q, ..., q^(m-1), divided by q^kappa(lam).

    Computed as the pairwise product over 1 <= i < j <= m of
    (1 - q^(l_i - l_j)) / (1 - q^(j - i)) with l_i = lam_i + m - i, through
    the same product routine as the q-dimension. Nonnegative coefficients;
    the value at 1 counts semistandard fillings. A degree above MAX_DEGREE
    raises ResourceLimit.
    """
    lam = _on_letters(lam, m)
    return _specialization(lam, m, *_gl_exponents(lam, m))


def _specialization(lam: Partition, m: int, nums, dens) -> IntPoly:
    """``principal_specialization`` past its gate, from the shape's exponents."""
    _check_degree(sum(nums) - sum(dens), lambda: f"principal specialization of {_shape_on(lam, m)}")
    return q_ratio(nums, dens)


def _gl_exponents(lam: Partition, m: int):
    """The exponents of the q-dimension of A_(m-1) at ``gl_weight(lam, m)``,
    read off the shape: b_i - b_j over j - i for i < j and the beta numbers
    b of lam on m letters. Only the pairs with b_i - b_j != j - i are
    listed, so i < len(lam); every other pair has num = den and cancels."""
    b = _beta_numbers(lam, m)
    nums, dens = [], []
    for i, x in enumerate(b[:len(lam)]):
        for d, y in enumerate(b[i + 1:], 1):
            if x - y != d:
                nums.append(x - y)
                dens.append(d)
    return nums, dens


def predicted_orbit_counts(lam: Partition, m: int, n: int) -> dict[int, int] | None:
    """The ``orbit_counts`` of A_(m-1) at ``gl_weight(lam, m)`` and order n,
    with their order and degree caps, read off the shape's exponents; None
    when m < 2 or n fails to divide some difference of padded parts."""
    lam = _on_letters(lam, m)
    return None if m < 2 else _predicted_orbit_counts(lam, m, n, *_gl_exponents(lam, m))


def _predicted_orbit_counts(lam: Partition, m: int, n: int, nums, dens) -> dict[int, int] | None:
    """``predicted_orbit_counts`` past its gate, from the shape's exponents."""
    if not _divisible(nums, dens, n):
        return None
    n = check_order(n, lambda: f"orbit counts of {_shape_on(lam, m)}")
    _check_degree(sum(nums) - sum(dens), lambda: f"orbit counts of {_shape_on(lam, m)}")
    return _fixed_and_orbit_counts(nums, dens, n)[1]
