"""Checks made apart from crystal_sieve, used on every benchmark output.

Nothing here calls into the library's arithmetic. The only library data read
are the positive roots, Cartan matrix and symmetrizers of a ``CartanDatum``,
and those are first checked against the standard tables (root count, height
of the highest root, symmetry of diag(d) * A). Each ``check_*`` function
returns ``None`` when the output is right, or a short description of the
first mismatch found.

References: Reiner-Stanton-White (2004) for the sieving statements,
Rhoades (2010) for promotion on rectangles.
"""

from __future__ import annotations

from fractions import Fraction

# (number of positive roots, height of the highest root) per Cartan type
_E_TABLE = {6: (36, 11), 7: (63, 17), 8: (120, 29)}


def root_table(family: str, rank: int) -> tuple[int, int]:
    if family == "A":
        return rank * (rank + 1) // 2, rank
    if family in ("B", "C"):
        return rank * rank, 2 * rank - 1
    if family == "D":
        return rank * (rank - 1), 2 * rank - 3
    if family == "E":
        return _E_TABLE[rank]
    if family == "F":
        return 24, 11
    if family == "G":
        return 6, 5
    raise ValueError(f"unknown family {family!r}")


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(k: int) -> int:
    out, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    return -out if k > 1 else out


# ---------------------------------------------------------------- root data

def check_datum(datum, family: str, rank: int) -> str | None:
    roots = datum.positive_roots
    count, height = root_table(family, rank)
    if len(roots) != count:
        return f"{family}{rank}: {len(roots)} positive roots, table says {count}"
    top = max(sum(b) for b in roots)
    if top != height:
        return f"{family}{rank}: highest root height {top}, table says {height}"
    a, d = datum.cartan_matrix, datum.symmetrizers
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(rank) for j in range(rank)):
        return f"{family}{rank}: diag(d) * A is not symmetric"
    return None


def weyl_exponents(datum, lam, dual: bool = False) -> list[tuple[int, int]]:
    """(a, b) per positive root with a = (beta, lam + rho), b = (beta, rho),
    or the coroot pairings <beta^vee, lam + rho>, <beta^vee, rho> when dual."""
    a, d = datum.cartan_matrix, datum.symmetrizers
    n = len(d)
    out = []
    for beta in datum.positive_roots:
        lam_pair = sum(c * d[i] * lam[i] for i, c in enumerate(beta))
        rho_pair = sum(c * d[i] for i, c in enumerate(beta))
        if dual:
            norm = sum(beta[i] * d[i] * a[i][j] * beta[j] for i in range(n) for j in range(n))
            lam_pair, rho_pair = 2 * lam_pair // norm, 2 * rho_pair // norm
        out.append((lam_pair + rho_pair, rho_pair))
    return out


def schur_exponents(lam, m: int) -> list[tuple[int, int]]:
    """(l_i - l_j, j - i) over 1 <= i < j <= m with l_i = lam_i + m - i."""
    padded = list(lam) + [0] * (m - len(lam))
    return [
        (padded[i] - padded[j] + j - i, j - i)
        for i in range(m)
        for j in range(i + 1, m)
    ]


def product_poly(exps) -> list[int]:
    """Coefficients of prod (1 - q^a) / (1 - q^b), exact.

    All numerator factors go in first; each division by 1 - q^b is then a
    running sum with stride b, exact because every partial product of
    denominators divides the whole numerator.
    """
    deg = sum(a for a, _ in exps)
    c = [0] * (deg + 1)
    c[0] = 1
    top = 0
    for a, _ in exps:
        top += a
        for k in range(top, a - 1, -1):
            c[k] -= c[k - a]
    for _, b in exps:
        for k in range(b, top + 1):
            c[k] += c[k - b]
        top -= b
        if any(c[top + 1:top + 1 + b]):
            raise ArithmeticError(f"1 - q^{b} does not divide the partial product")
    return c[:top + 1]


def product_at(exps, x: int) -> Fraction:
    """prod (x^a - 1)/(x^b - 1) as an exact fraction."""
    num = den = 1
    for a, b in exps:
        num *= x ** a - 1
        den *= x ** b - 1
    return Fraction(num, den)


def partitions(size: int, max_parts: int, max_part: int | None = None):
    """Partitions of size into at most max_parts parts, in descending
    lexicographic order."""
    if size == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(size, max_part or size), 0, -1):
        for rest in partitions(size - first, max_parts - 1, first):
            yield (first,) + rest


def hook_content(lam, m: int) -> int:
    """Number of semistandard tableaux of shape lam with entries at most m."""
    num = den = 1
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    for r, part in enumerate(lam):
        for c in range(part):
            num *= m + c - r
            den *= part - c + conj[c] - r - 1
    return num // den if num % den == 0 else -1


def fold(coeffs, n: int) -> list[int]:
    out = [0] * n
    for k, c in enumerate(coeffs):
        out[k % n] += c
    return out


def orbit_counts(residue, n: int) -> dict[int, int] | None:
    """a_d with residue = sum a_d (1 + q^(n/d) + ... + q^(n - n/d)), or None.

    The coefficient of q^(n/d) in that sum is the sum of a_e over the
    multiples e of d dividing n, so a_d is read off from the largest d down.
    """
    a: dict[int, int] = {}
    for d in sorted(divisors(n), reverse=True):
        a[d] = residue[(n // d) % n] - sum(a[e] for e in a if e % d == 0)
    recon = [0] * n
    for d, v in a.items():
        for k in range(0, n, n // d):
            recon[k] += v
    return a if recon == list(residue) else None


# ------------------------------------------------------- roots of unity

def cyclotomic(d: int) -> list[int]:
    """Coefficients of the d-th cyclotomic polynomial as the product of
    (q^e - 1)^mobius(d/e) over e | d. For d > 1 the exponents sum to 0, so
    the signs of the factors 1 - q^e cancel."""
    if d == 1:
        return [-1, 1]
    num = [e for e in divisors(d) if mobius(d // e) == 1]
    den = [e for e in divisors(d) if mobius(d // e) == -1]
    return product_poly(list(zip(num, den)))


def remainder(f: list[int], g: list[int]) -> list[int]:
    """f mod g for monic g, as a list of len(g) - 1 coefficients."""
    r = list(f) + [0] * max(0, len(g) - 1 - len(f))
    dg = len(g) - 1
    for k in range(len(r) - 1, dg - 1, -1):
        top = r[k]
        if top:
            for i, c in enumerate(g):
                r[k - dg + i] -= top * c
    return r[:dg]


def values_at_roots(coeffs, n: int, js) -> dict[int, int | None]:
    """For each j, f(w^j) with w = exp(2 pi i / n) when that value is an
    integer, else None.

    w^j is a primitive d-th root of unity for d = n / gcd(n, j), and the
    value is an integer exactly when f mod the d-th cyclotomic polynomial is
    constant. Every integer found is confirmed by an mpmath evaluation with
    30 digits more than the value needs.
    """
    import math

    import mpmath

    folded = fold(coeffs, n)
    rems: dict[int, list[int]] = {}
    out: dict[int, int | None] = {}
    for j in js:
        d = n // math.gcd(n, j)
        if d not in rems:
            rems[d] = remainder(folded, cyclotomic(d))
        r = rems[d]
        out[j] = r[0] if not any(r[1:]) else None
    scale = sum(abs(c) for c in folded) or 1
    with mpmath.workdps(len(str(scale)) + 30):
        for j, value in out.items():
            if value is not None:
                z = mpmath.expjpi(mpmath.mpf(2 * j) / n)
                v = mpmath.polyval(folded[::-1], z)
                if abs(v - value) > 1e-6:
                    raise ArithmeticError(f"f(w^{j}) for n={n}: remainder gives {value}, mpmath {v}")
    return out


def aa_exists(values: dict[int, int | None], n: int) -> bool:
    if any(values[j] is None or values[j] < 0 for j in range(1, n + 1)):
        return False
    return all(
        sum(mobius(k // j) * values[j] for j in divisors(k)) >= 0
        for k in divisors(n)
    )


# ------------------------------------------------------------ sieving

def in_hypothesis(lam, m: int) -> bool:
    """Nonempty, fewer than m rows, and m divides |lam|."""
    return bool(lam) and len(lam) < m and sum(lam) % m == 0


def characterized_verdict(lam, m: int) -> bool:
    """Inside the hypothesis, sieving under c holds exactly for (am) and
    ((am)^(m-1))."""
    one_row = len(lam) == 1 and lam[0] % m == 0
    near_rect = len(lam) == m - 1 and len(set(lam)) == 1 and lam[0] % m == 0
    return one_row or near_rect


def stretched(lam, m: int, n: int) -> bool:
    """Whether n divides every difference of the parts padded to m: the
    divisibility condition for the weight of lam in type A_(m-1)."""
    padded = list(lam) + [0] * (m - len(lam))
    return all((padded[i] - padded[j]) % n == 0 for i in range(m) for j in range(i + 1, m))


def fixed_by_power(by_size: dict[int, int], j: int) -> int:
    return sum(d * count for d, count in by_size.items() if j % d == 0)


def check_census(by_size: dict[int, int], total: int, lam, m: int, order: int | None) -> str | None:
    want = hook_content(lam, m)
    if total != want:
        return f"census total {total}, hook-content count {want}"
    if sum(d * count for d, count in by_size.items()) != total:
        return f"sum of d * count_d over {by_size} is not {total}"
    if any(count <= 0 for count in by_size.values()):
        return f"nonpositive orbit count in {by_size}"
    if order is not None and any(order % d for d in by_size):
        return f"an orbit size in {sorted(by_size)} does not divide {order}"
    return None


def sieve_verdict(values: dict[int, int | None], by_size: dict[int, int]) -> bool:
    """Whether the number of elements fixed by the j-th power equals the value
    at the j-th power of a primitive root of unity, for every j given."""
    return all(value == fixed_by_power(by_size, j) for j, value in values.items())
