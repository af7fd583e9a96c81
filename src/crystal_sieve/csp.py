"""Cyclic sieving verification: exact fixed-point counts against root-of-unity
evaluations, existence criteria for abstract cyclic actions, orbit-count
formulas, and the characterizations special to one-row and near-rectangular
shapes and to prime orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConditionViolated, InternalError
from .partitions import Partition, _integer, _on_letters, _shape_on, _shown, as_partition
from .qdim import _fixed_and_orbit_counts, _gl_exponents, kappa, predicted_orbit_counts, principal_specialization
from .qpoly import IntPoly, _mobius_sums, check_order, divisors, root_values
from .tableaux import OrbitCensus, orbit_census


@dataclass(frozen=True)
class ExponentCheck:
    """One power of the generator: elements fixed by it, the polynomial value
    at the matching root of unity (None when irrational), and whether the
    two agree."""

    j: int
    fixed: int
    evaluation: int | None
    match: bool


@dataclass(frozen=True)
class CspReport:
    """Verdict of an exact sieving check for one shape, letter bound, and action.

    values[j-1] is the value of f at the j-th power of a primitive n-th root
    of unity, or None, as in ``AaResult``, and n is their number; the rows
    of ``per_exponent`` are read off them and the census."""

    lam: Partition
    m: int
    action: str
    n: int
    values: tuple[int | None, ...]
    verdict: bool
    census: OrbitCensus
    predicted_a: dict[int, int] | None

    @property
    def nonrational(self) -> bool:
        return None in self.values

    @property
    def per_exponent(self) -> tuple[ExponentCheck, ...]:
        rows = ((j, self.census.fixed_by_power(j), value) for j, value in enumerate(self.values, 1))
        return tuple(ExponentCheck(j, fixed, value, value == fixed) for j, fixed, value in rows)

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.lam),
            "m": self.m,
            "action": self.action,
            "n": self.n,
            "verdict": self.verdict,
            "nonrational": self.nonrational,
            "per_exponent": [
                {
                    "j": e.j,
                    "fixed": e.fixed,
                    "evaluation": None if e.evaluation is None else str(e.evaluation),
                    "match": e.match,
                }
                for e in self.per_exponent
            ],
            "census": self.census.to_json_dict(),
            "predicted_a": None
            if self.predicted_a is None
            else {str(d): str(v) for d, v in self.predicted_a.items()},
        }


def csp_check(
    lam: Partition,
    m: int,
    action: str = "c",
    f: IntPoly | None = None,
    n: int | None = None,
) -> CspReport:
    """Exact sieving check: for every power j of the acting generator,
    compare the number of tableaux fixed by it with the value of f at the
    j-th power of a primitive n-th root of unity.

    f defaults to the principal specialization of the shape; n defaults to
    the group order (m for the cycle operator, the cycle lcm for promotion).
    The values come from one ``root_values`` table, computed once per
    divisor of n, and the report keeps that table as its values. The
    predicted orbit counts are those of ``predicted_orbit_counts`` at the
    same n, whatever f is. The verdict is ``_sieves``: true only when every
    evaluation is an integer equal to the fixed-point count, and, when f is
    the specialization, checked against the census identity of the paper.
    """
    lam = as_partition(lam)
    census = orbit_census(lam, m, action)
    if n is None:
        n = m if action == "c" else math.lcm(*census.by_size)
    specialized = f is None
    if specialized:
        f = principal_specialization(lam, m)
    values = root_values(f, n)
    predicted = predicted_orbit_counts(lam, m, n)
    verdict = _sieves(values, census, predicted if specialized else None)
    return CspReport(lam, m, action, len(values), values, verdict, census, predicted)


def _sieves(values: tuple[int | None, ...], census: OrbitCensus, predicted: dict[int, int] | None = None) -> bool:
    """Whether f sieves the census at order n = len(values): every value
    f(w^j) = values[j-1], j = 1..n, is the count fixed by the j-th power (an
    irrational value, None, is no count). Given orbit counts predicted at n,
    which callers pass only when f is the specialization, and every cycle
    length dividing n, the paper's identity holds: the census equals them
    exactly when f sieves (InternalError otherwise)."""
    verdict = all(value == census.fixed_by_power(j) for j, value in enumerate(values, 1))
    if predicted is not None and not any(len(values) % d for d in census.by_size):
        matches = all(census.by_size.get(d, 0) == a for d, a in predicted.items())
        if matches != verdict:
            raise InternalError(f"census comparison ({matches}) disagrees with the sieving verdict ({verdict})")
    return verdict


class AaResult(NamedTuple):
    """Existence certificate for a cyclic action of order n realizing f.

    values[j-1] is the (integer) value of f at the j-th power of a primitive
    n-th root of unity, or None; failures lists the divisors k of n whose
    Mobius-counted orbit numbers come out negative.
    """

    exists: bool
    failures: tuple[int, ...]
    values: tuple[int | None, ...]


def aa_criterion(f: IntPoly, n: int) -> AaResult:
    """Whether some action of the cyclic group of order n exhibits sieving
    with f: all root-of-unity values must be nonnegative integers and, for
    every divisor k of n, the Mobius sum over divisors j of k of
    mobius(k/j) * f(at exponent j) must be nonnegative (it equals k times
    the number of size-k orbits). The values are one ``root_values`` table,
    computed once per divisor of n."""
    values = root_values(f, n)
    if any(v is None or v < 0 for v in values):
        return AaResult(False, (), values)
    sums = _mobius_sums({k: values[k - 1] for k in divisors(len(values))})
    failures = tuple(k for k, total in sums.items() if total < 0)
    return AaResult(not failures, failures, values)


def census_vs_a(lam: Partition, m: int, action: str = "c") -> bool:
    """Whether the actual orbit census of the action matches the orbit counts
    predicted by the q-dimension residue at order m.

    Requires the divisibility condition for the shape's weight. The match
    is the csp_check verdict, the same statement read through the sieving
    polynomial; csp_check verifies that the two coincide. The shape and m
    pass the gates of ``orbit_census``, through csp_check.
    """
    report = csp_check(lam, m, action, n=m)
    if report.predicted_a is None:
        # the divisibility condition fails, so no orbit-count prediction
        # exists at this order; a failing verdict settles the comparison, a
        # passing one leaves nothing to compare
        if not report.verdict:
            return False
        raise ConditionViolated(f"differences of padded parts of {_shown(report.lam)} are not all divisible by {m}")
    if any(m % d for d in report.census.by_size):
        raise ConditionViolated(f"a cycle length does not divide the order {m}")
    # csp_check has compared the census with the prediction
    return report.verdict


def orbit_formula(a: int, d: int) -> int:
    """Number of size-d orbits of the cycle operator on the one-row shape (a*d),
    letters d: ``predicted_orbit_counts`` at order d without its degree cap.
    An order d above MAX_ORDER or above MAX_LETTERS raises ResourceLimit."""
    a = _integer(a, "multiple a", least=0)
    d = check_order(d, lambda: f"orbit count of {_shape_on((a * d,), d)}")
    return _fixed_and_orbit_counts(*_gl_exponents(_on_letters((a * d,), d), d), d)[1][d]


class RectVerdict(NamedTuple):
    csp: bool
    predicted: bool
    agree: bool


def rect_characterization(lam: Partition, m: int) -> RectVerdict:
    """For a nonempty shape with fewer than m rows and size divisible by m:
    sieving under the cycle operator holds exactly for the one-row shape
    (a*m) and the near-rectangle ((a*m)^(m-1)). Under those hypotheses these
    are the rectangles of 1 or m - 1 rows: a rectangle of part c has size c
    or (m - 1) c, and m divides it, so m divides c.

    Returns the brute-force verdict, the shape-based prediction, and their
    agreement (a disagreement would falsify the characterization).
    """
    lam = _on_letters(lam, m)
    if not lam:
        raise ConditionViolated("the empty shape is outside this characterization")
    if len(lam) >= m:
        raise ConditionViolated(f"need fewer than {m} rows, got {len(lam)}")
    if sum(lam) % m:
        raise ConditionViolated(f"{m} must divide |{_shown(lam)}| = {_shown(sum(lam))}")
    predicted = len(lam) in (1, m - 1) and len(set(lam)) == 1
    verdict = csp_check(lam, m, "c").verdict
    return RectVerdict(verdict, predicted, verdict == predicted)


class PrimeCriterion(NamedTuple):
    residues_collide: bool
    cyclotomic_divides: bool
    action_exists: bool


def prime_specialization_criterion(lam: Partition, m: int, p: int) -> PrimeCriterion:
    """Prime-order existence test through the Schur specialization.

    For a prime p >= m and a shape with at most m rows: some pair i < j in
    1..m has lam_i - i congruent to lam_j - j mod p exactly when the p-th
    cyclotomic polynomial divides the Schur polynomial at 1, q, ..., q^(m-1).
    Divisibility is read off the existence criterion's value table: the
    value at a primitive p-th root of unity is 0 exactly when Phi_p divides.
    The two sides are computed independently and cross-asserted.
    action_exists reports whether an order-p cyclic action realizes that
    unnormalized specialization. An order p above MAX_ORDER raises
    ResourceLimit before the primality test.
    """
    lam = _on_letters(lam, m)
    p = check_order(p, lambda: f"prime criterion of {_shape_on(lam, m)}")
    if len(divisors(p)) != 2:
        raise ConditionViolated(f"{p} is not prime")
    if p < m:
        raise ConditionViolated(f"prime {p} is below the letter count {m}")
    # lam_i - i = lam_j - j mod p is p | b_i - b_j for the beta numbers b;
    # the pairs _gl_exponents leaves out differ by j - i < m <= p
    residues_collide = any(x % p == 0 for x in _gl_exponents(lam, m)[0])

    schur = principal_specialization(lam, m).shift(kappa(lam))
    aa = aa_criterion(schur, p)
    divides = aa.values[0] == 0
    if divides != residues_collide:
        raise InternalError(
            f"residue collision ({residues_collide}) disagrees with "
            f"cyclotomic divisibility ({divides}) for {_shown(lam)}, m={m}, p={p}"
        )
    return PrimeCriterion(residues_collide, divides, aa.exists)
