"""Exact polynomial arithmetic over the integers, cyclotomic polynomials,
evaluation at roots of unity, and decomposition against the orbit basis
of Z[q]/(q^n - 1).

Everything here is exact. Floats never enter; rationality questions are
settled by polynomial remainders, not numerics.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from collections import Counter

from .errors import InternalError, NotMonic


class IntPoly:
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of q^k.

    Canonical form keeps the highest-index coefficient nonzero; the zero
    polynomial has an empty coefficient tuple. Instances are immutable and
    hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = IntPoly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction, or complex x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __repr__(self):
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


ZERO = IntPoly()
ONE = IntPoly([1])
Q = IntPoly([0, 1])


def format_poly(f: IntPoly) -> str:
    """Render as ``c0 + c1*q + c2*q^2 + ...`` with zero terms omitted."""
    if f.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(f.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "q" if mag == 1 else f"{mag}*q"
        else:
            body = f"q^{k}" if mag == 1 else f"{mag}*q^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+)?(?P<star>\*)?(?P<var>q(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str) -> IntPoly:
    """Parse ``c0 + c1*q + c2*q^2 + ...`` or a JSON array of coefficients.

    JSON coefficients may be integers or decimal strings (big values survive
    a round trip through text that way). Raises ValueError on junk.
    """
    text = text.strip()
    if text.startswith("["):
        data = json.loads(text)
        return IntPoly([int(c) for c in data])
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial text")
    # split into signed terms, keeping the signs with each term
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        if m.group("star") and (m.group("coeff") is None or m.group("var") is None):
            raise ValueError(f"cannot parse term {term!r} in {text!r}")
        coeff = int(m.group("coeff")) if m.group("coeff") is not None else 1
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("var") is None:
            k = 0
        elif m.group("exp") is None:
            k = 1
        else:
            k = int(m.group("exp"))
        coeffs[k] = coeffs.get(k, 0) + coeff
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)


def poly_to_json_coeffs(f: IntPoly) -> list[str]:
    """Coefficient list with each value as a decimal string."""
    return [str(c) for c in f.coeffs]


def q_ratio(nums, dens) -> IntPoly:
    """prod of (1 - q^a) over a in nums divided by prod of (1 - q^b) over b
    in dens, for positive exponents, when the quotient is a polynomial.

    Each numerator factor is multiplied in place; each denominator factor
    is then divided out as a running sum with stride b. Every step is exact:
    if the whole quotient is a polynomial, so is the numerator over any part
    of the denominator. A nonzero remainder raises InternalError.
    """
    num, den = Counter(nums), Counter(dens)
    if min(num | den, default=1) <= 0:
        raise ValueError("exponents must be positive")
    num, den = num - den, den - num
    out = [1]
    for a in num.elements():
        out += [0] * a
        out[a:] = map(operator.sub, out[a:], out[:-a])
    for b in den.elements():
        for r in range(b):
            out[r::b] = itertools.accumulate(out[r::b])
        if any(out[-b:]):
            raise InternalError(f"1 - q^{b} does not divide the product")
        del out[-b:]
    return IntPoly(out)


def q_ratio_at_one(nums, dens) -> int:
    """Value of q_ratio(nums, dens) at q = 1: prod of nums over prod of dens,
    which must divide exactly (InternalError otherwise)."""
    quot, rem = divmod(math.prod(nums), math.prod(dens))
    if rem:
        raise InternalError(f"{math.prod(dens)} does not divide {math.prod(nums)}")
    return quot


def rem_mod(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of f modulo a monic g with deg g >= 1."""
    if g.is_zero or g.degree < 1:
        raise NotMonic("modulus must have positive degree")
    if g.coeffs[-1] != 1:
        raise NotMonic(f"modulus has leading coefficient {g.coeffs[-1]}")
    rem = list(f.coeffs)
    dg = g.degree
    for k in range(len(rem) - dg - 1, -1, -1):
        top = rem[k + dg]
        if top == 0:
            continue
        for j, c in enumerate(g.coeffs):
            rem[k + j] -= top * c
    return IntPoly(rem[:dg])


@functools.cache
def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order."""
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@functools.cache
def mobius(k: int) -> int:
    """Mobius function: 0 on non-squarefree k, else (-1)^(number of prime factors)."""
    if k <= 0:
        raise ValueError("k must be positive")
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        p += 1
    if k > 1:
        out = -out
    return out


@functools.cache
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by Mobius inversion of
    q^d - 1 = prod of Phi_e over divisors e of d: for d > 1,
    Phi_d = prod of (1 - q^e)^mobius(d/e) over divisors e of d.

    Memoized per process; readers only, so shared use is safe.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if d == 1:
        return Q - ONE
    nums = [e for e in divisors(d) if mobius(d // e) == 1]
    dens = [e for e in divisors(d) if mobius(d // e) == -1]
    return q_ratio(nums, dens)


def eval_root_of_unity(f: IntPoly, n: int, j: int) -> int | None:
    """Exact value of f at exp(2*pi*i*j/n) when that value is an integer.

    The point is a primitive d-th root of unity for d = n / gcd(n, j mod n),
    so f reduces mod the d-th cyclotomic polynomial; the value is rational
    exactly when the remainder is constant. Returns None otherwise
    (j = 0 mod n gives d = 1 and plain evaluation at 1). Since Phi_d
    divides q^d - 1, f is first folded mod q^d - 1 by exponent.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    d = n // math.gcd(n, j % n)
    coeffs = f.coeffs
    if len(coeffs) > d:
        f = IntPoly([sum(coeffs[k::d]) for k in range(d)])
    r = rem_mod(f, cyclotomic(d))
    if r.degree >= 1:
        return None
    return r[0]


class OrbitDecomposition:
    """Coefficients of a polynomial against the basis
    (q^n - 1)/(q^(n/d) - 1) for d running over the divisors of n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", dict(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("OrbitDecomposition is immutable")

    def __eq__(self, other):
        if not isinstance(other, OrbitDecomposition):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"OrbitDecomposition(n={self.n}, coeffs={self.coeffs!r})"

    def reconstruct(self) -> IntPoly:
        out = ZERO
        for d, a in self.coeffs.items():
            out = out + a * orbit_basis_element(self.n, d)
        return out


def orbit_basis_element(n: int, d: int) -> IntPoly:
    """(q^n - 1)/(q^(n/d) - 1) = 1 + q^(n/d) + ... + q^(n - n/d), for d | n."""
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    step = n // d
    out = [0] * (n - step + 1)
    for k in range(0, n, step):
        out[k] = 1
    return IntPoly(out)


def orbit_basis_decompose(r: IntPoly, n: int) -> OrbitDecomposition | None:
    """Write r as an integer combination of the orbit basis elements, or None.

    The basis element for divisor d has degree n - n/d; degrees are pairwise
    distinct, so coefficients are forced greedily from the top down. Requires
    deg r < n.
    """
    if r.degree >= n:
        raise ValueError(f"deg {r.degree} is not below n = {n}")
    by_degree_desc = sorted(divisors(n), key=lambda d: n - n // d, reverse=True)
    coeffs: dict[int, int] = {}
    for d in by_degree_desc:
        if r.degree == n - n // d and not r.is_zero:
            a = r.coeffs[-1]
            coeffs[d] = a
            r = r - a * orbit_basis_element(n, d)
    if not r.is_zero:
        return None
    return OrbitDecomposition(n, coeffs)
