"""Exact polynomial arithmetic over the integers, cyclotomic polynomials,
evaluation at roots of unity, and the orbit basis of Z[q]/(q^n - 1).

Everything here is exact. Floats never enter; rationality questions are
settled by polynomial remainders, not numerics.

Coefficients are checked once, where they enter: ``IntPoly(...)`` (which
``parse_poly`` goes through) reads each through ``partitions._integer``, so a
bool enters as the int it stands for. A polynomial this module computes from
ints it already holds is only trimmed to canonical form, not checked again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import sys
from collections import Counter
from typing import Callable

from .errors import ConditionViolated, InternalError, ResourceLimit
from .partitions import _decimal, _integer, _shown

# Largest order n of a root-of-unity value table or a residue mod q^n - 1.
# Above 720,720 (240 divisors) and above 156,240, the order of promotion on
# (6,3,3) with 6 letters.
MAX_ORDER = 1_000_000

# Largest degree of a parsed polynomial and of the output of qdim, qdim_dual,
# principal_specialization and congruence; A20 at weight 12^20 has degree
# 18,480.
MAX_DEGREE = 100_000

# Largest t of a pair (1 - q^(tb))/(1 - q^b) = 1 + q^b + ... + q^((t-1)b)
# that q_ratio multiplies into its packed product, at t - 1 shift-adds, in
# place of a running sum. On the 192 q_ratio inputs of four qdim-product
# benchmark rounds, caps of 3, 4, 6 and 8 and no cap cut the time by 16%,
# 20%, 22%, 22% and 14% (medians of 5 interleaved runs). A long factor costs
# up to h shifts and takes spare slot bits that shorter pairs could use.
_PAIR_CAP = 6

# The host's byte order, in which q_ratio writes the bytes that
# memoryview.cast reads back natively.
_NATIVE_ORDER = sys.byteorder


class IntPoly:
    """Dense integer polynomial; ``coeffs[k]`` is the coefficient of q^k.

    Canonical form keeps the highest-index coefficient nonzero; the zero
    polynomial has an empty coefficient tuple. Instances are immutable and
    hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_integer(c, "coefficient", TypeError) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        return cls([0] * _integer(k, "exponent", least=0) + [c])

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
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(operator.add, a, b))
        out += a[len(b):]
        return _from_ints(out)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _from_ints([other * c for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _from_ints(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        e = _integer(e, "exponent", least=0)
        result = ONE
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
        k = _integer(k, "exponent", least=0)
        if self.is_zero:
            return self
        return _from_ints([0] * k + list(self.coeffs))

    def __repr__(self):
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _as_poly(x) -> IntPoly | None:
    """x as an IntPoly when it is an int or an IntPoly, else None."""
    if isinstance(x, int):
        return _from_ints([_integer(x, "coefficient")])
    return x if isinstance(x, IntPoly) else None


def _from_ints(cs: list) -> IntPoly:
    """Canonical IntPoly of a list of ints computed in this module: the
    trailing zeros are dropped (from cs itself) and the coefficients are not
    checked again."""
    while cs and not cs[-1]:
        cs.pop()
    f = object.__new__(IntPoly)
    object.__setattr__(f, "coeffs", tuple(cs))
    return f


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


# One signed term of the text form: a coefficient c, q^k, or both as c*q^k
# or cq^k, with ^k left out for k = 1. The lookahead asks for a digit or q
# first, so that no term is empty and * comes only after a coefficient.
# Every term after the first begins with a sign.
_TERM_RE = re.compile(r"(?P<sign>^[+-]?|[+-])(?=[0-9q])(?P<coeff>[0-9]+)?(?P<var>\*?q(?:\^(?P<exp>[0-9]+))?)?")
_POLY_RE = re.compile(f"(?:{_TERM_RE.pattern})+")


def parse_poly(text: str) -> IntPoly:
    """Parse ``c0 + c1*q + c2*q^2 + ...`` or a JSON array of coefficients.

    JSON coefficients must be integers or decimal strings (big values survive
    a round trip through text that way); a float, bool, list, other string or
    nesting past the recursion limit is junk. The text form is terms of
    ``_TERM_RE`` in a row; it ignores spaces, except that whitespace between
    two digits is junk. Raises ValueError on junk, and ResourceLimit for a
    degree above MAX_DEGREE, in the text form before the coefficient list is
    allocated.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            items = json.loads(text)
        except RecursionError:
            raise ValueError(f"in {_shown(text)}, lists nest too deeply to read") from None
        what = f"in {_shown(text)}, coefficient"
        f = IntPoly([_decimal(c, what) for c in items])
        _check_degree(f.degree, f"polynomial {_shown(text)}")
        return f
    if re.search(r"\d\s+\d", text):
        raise ValueError(f"whitespace between two digits in {_shown(text)}")
    compact = text.replace(" ", "")
    if not _POLY_RE.fullmatch(compact):
        raise ValueError(f"cannot parse polynomial: {_shown(text)}")
    coeffs = Counter()
    for term in _TERM_RE.finditer(compact):
        c = int(term.group("coeff")) if term["coeff"] else 1
        k = (int(term.group("exp")) if term["exp"] else 1) if term["var"] else 0
        coeffs[k] += -c if term["sign"] == "-" else c
    top = max(coeffs)
    _check_degree(top, f"polynomial {_shown(text)}")
    out = [0] * (top + 1)
    for k, c in coeffs.items():
        out[k] = c
    return IntPoly(out)


def _check_degree(degree: int, what: str) -> None:
    """ResourceLimit when degree is above MAX_DEGREE; what names the input."""
    if degree > MAX_DEGREE:
        raise ResourceLimit(f"{what} has degree {degree}, above the degree cap {MAX_DEGREE}")


def poly_to_json_coeffs(f: IntPoly) -> list[str]:
    """Coefficient list with each value as a decimal string."""
    return [str(c) for c in f.coeffs]


def q_ratio(nums, dens) -> IntPoly:
    """prod of (1 - q^a) over a in nums divided by prod of (1 - q^b) over b
    in dens, for positive exponents, when the quotient is a polynomial.

    Each exponent is read as an integer and must be positive as given; one
    with as many copies in nums as in dens then cancels and is dropped. Since
    1 - q^a = -prod of Phi_e over the divisors e of a, the quotient is a
    polynomial exactly when, for every e, at least as many a as b are
    multiples of e; otherwise InternalError names an e that fails, before
    any coefficient is computed. Only the largest exponent left, A, is a
    multiple of A, so a polynomial quotient of degree D needs k_A > 0 and
    phi(A) k_A <= D; as phi(A) >= sqrt(A/2), D < 0 or A > 2 D^2 names Phi_A
    before any divisor is listed, and each divisor list then takes at most
    sqrt(2) D trial divisions. The quotient P satisfies P(q) =
    (-1)^(#nums - #dens) q^D P(1/q), so only its power series mod q^(h + 1),
    h = D//2, is computed, and a numerator above h enters only through a
    pair. When every exponent left shares a factor g > 1, the quotient is
    P(q^g) for P the quotient on the exponents divided by g: P is computed
    and its coefficients spread g apart.

    The product is one packed integer with a w-bit slot per coefficient
    (Kronecker substitution), cut back to h + 1 slots after each step. The
    slot is the one that the F numerator factors with a <= h need before any
    pairing, F + 2 bits: k units of 1, 2, 4 or 8 bytes, k > 1 only for 8,
    the smallest unit that holds F + 2 bits, or above 64 bits whole 64-bit
    words. Each denominator copy b <= h, largest b first, is then paired
    with the least numerator copy a = t b left with 2 <= t <= _PAIR_CAP:
    (1 - q^a)/(1 - q^b) = 1 + q^b + ... + q^((t-1)b), whose t' =
    min(t, h//b + 1) terms below q^(h+1) multiply the packed integer as
    t' - 1 shift-adds. Each of the F' numerator factors with a <= h left
    unpaired is one shift and one subtraction, x - (x << a*w). q -> 2^w maps
    Z[q]/(q^(h+1)) onto Z/2^((h+1)w) as rings, one-to-one on coefficients
    below 2^(w-1) in absolute value, and the whole product has coefficient
    L1 norm at most 2^F' prod t'. A pair is accepted only while that bound
    stays below 2^(w-1), so pairs fill the slot's spare bits and the bits
    that paired numerators free, and the slot and the decode are those of
    the numerators alone; a copy whose pair would not fit, or that has no
    multiple with t <= _PAIR_CAP, is left to the running sums. One read path
    casts the bytes with a memoryview, the top unit of each slot signed and
    each lower one unsigned and folded in. Each denominator exponent b then
    divides all its unpaired copies in one pass per residue class mod b, as
    chained running sums. The upper coefficients are the mirror image of
    the lower ones, negated when #nums - #dens is odd.
    """
    # operator.index reads every exponent in C; only when one fails are
    # they read again, through _integer, for the message that names it
    nums, dens = tuple(nums), tuple(dens)
    try:
        count = Counter(map(operator.index, nums))
        count.subtract(map(operator.index, dens))
    except TypeError:
        for x in nums + dens:
            _integer(x, "exponent")
        raise
    if min(count, default=1) <= 0:
        raise ValueError("exponents must be positive")
    count = {a: k for a, k in count.items() if k}
    degree = sum(a * k for a, k in count.items())
    top = max(count, default=0)
    if degree < 0 or top > 2 * degree * degree:
        raise InternalError(
            f"Phi_{top} has degree at least sqrt({top}/2), above the quotient's "
            f"degree D = {degree}: the quotient is not a polynomial"
        )
    excess = {}
    for a, k in count.items():
        for e in divisors(a):
            excess[e] = excess.get(e, 0) - k
    for e, k in excess.items():
        if k > 0:
            raise InternalError(
                f"Phi_{e} divides {k} more denominator than numerator "
                "factors: the quotient is not a polynomial"
            )
    g = math.gcd(*count)
    if g > 1:
        count = {a // g: k for a, k in count.items()}
        degree //= g
    half = degree // 2
    # left: the numerator copies not yet paired; growth: prod of the t'
    left = {a: k for a, k in count.items() if k > 0}
    free = sum(k for a, k in left.items() if a <= half)
    unit, words = _slot(free + 2)
    size = unit * words
    width = 8 * size
    growth = 1
    pairs = []
    runs = []
    for b in sorted((b for b, k in count.items() if k < 0 and b <= half), reverse=True):
        k = -count[b]
        t = 2
        while k and t <= _PAIR_CAP:
            if not left.get(t * b):
                t += 1
                continue
            terms = min(t, half // b + 1)
            paired_free = free - (t * b <= half)
            # the L1 bound 2^F' prod t' must stay below 2^(w-1)
            if (growth * terms << paired_free).bit_length() + 1 > width:
                break
            left[t * b] -= 1
            free = paired_free
            growth *= terms
            k -= 1
            pairs.append((b, terms))
        if k:
            runs.append((b, k))
    mask = (1 << (half + 1) * width) - 1
    packed = 1
    for a, k in left.items():
        if a <= half:
            for _ in range(k):
                packed = (packed - (packed << a * width)) & mask
    for b, terms in pairs:
        shift = b * width
        factor = packed
        for _ in range(terms - 1):
            packed = (factor + (packed << shift)) & mask
    # balanced decode: 2^(w-1) added to every slot makes each slot
    # nonnegative, so no slot borrows from the next, and the xor leaves each
    # coefficient in w-bit two's complement. memoryview.cast reads the bytes
    # in native order, so they are written in it, and on a big-endian host
    # the units come out top first and are read backwards.
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * (half + 1), "little")
    raw = memoryview((((packed + bias) & mask) ^ bias).to_bytes((half + 1) * size, _NATIVE_ORDER))
    step = 1 if _NATIVE_ORDER == "little" else -1
    # the top unit of each slot is signed, the lower ones unsigned
    fmt = "bhiq"[unit.bit_length() - 1]
    out = raw.cast(fmt)[::step][words - 1::words].tolist()
    for i in range(words - 2, -1, -1):
        low = raw.cast(fmt.upper())[::step]
        out = [(c << 64) | w for c, w in zip(out, low[i::words])]
    for b, k in runs:
        for r in range(b):
            chain = out[r::b]
            for _ in range(k):
                chain = itertools.accumulate(chain)
            out[r::b] = chain
    mirror = out[:degree - half][::-1]
    if sum(count.values()) % 2:
        mirror = [-c for c in mirror]
    out += mirror
    if g > 1:
        spread = [0] * (g * degree + 1)
        spread[::g] = out
        out = spread
    return _from_ints(out)


def _slot(bits: int) -> tuple[int, int]:
    """The slot of q_ratio's packed product that holds bits bits, as
    (unit, words): one unit of 1, 2, 4 or 8 bytes up to 64 bits, else whole
    64-bit words."""
    words = -(-bits // 64)
    return (8 if words > 1 else 1 << max(0, (bits - 1).bit_length() - 3)), words


def _q_ratio_at_one(nums, dens) -> int:
    """Value of q_ratio(nums, dens) at q = 1: prod of nums over prod of dens,
    which must divide exactly (InternalError otherwise)."""
    quot, rem = divmod(math.prod(nums), math.prod(dens))
    if rem:
        raise InternalError(f"{math.prod(dens)} does not divide {math.prod(nums)}")
    return quot


def rem_mod(f: IntPoly, g: IntPoly) -> IntPoly:
    """Remainder of f modulo a monic g with deg g >= 1."""
    if g.is_zero or g.degree < 1:
        raise ConditionViolated("modulus must have positive degree")
    if g.coeffs[-1] != 1:
        raise ConditionViolated(f"modulus has leading coefficient {g.coeffs[-1]}")
    return _from_ints(_rem(list(f.coeffs), g.coeffs))


def _rem(rem: list[int], g: tuple[int, ...]) -> list[int]:
    """rem mod the monic g of degree >= 1, a new list of len(g) - 1; rem is reduced in place."""
    dg = len(g) - 1
    # the leading 1 only cancels rem[k + dg], which the result drops
    low = [(j, c) for j, c in enumerate(g[:dg]) if c]
    for k in range(len(rem) - dg - 1, -1, -1):
        top = rem[k + dg]
        if top:
            for j, c in low:
                rem[k + j] -= top * c
    return rem[:dg]


@functools.cache
def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of n in increasing order."""
    n = _integer(n, "argument n", least=1)
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
    k = _integer(k, "argument k", least=1)
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


def _mobius_sums(b: dict[int, int]) -> dict[int, int]:
    """{d: sum over divisors e of d of mobius(d/e) * b_e} over the keys d of
    b, which are the divisors of an order."""
    return {d: sum(mobius(d // e) * b[e] for e in divisors(d)) for d in b}


def _orbits_from_fixed(b: dict[int, int]) -> dict[int, int]:
    """Orbit counts a from fixed counts b, both keyed by the divisors of an
    order: d * a_d is the Mobius sum of b at d, which must divide exactly
    and give a_d >= 0 (InternalError otherwise)."""
    a: dict[int, int] = {}
    for d, s in _mobius_sums(b).items():
        if s % d:
            raise InternalError(f"Mobius sum {s} for d={d} is not divisible by {d}")
        a[d] = s // d
        if a[d] < 0:
            raise InternalError(f"orbit count a_{d} = {a[d]} is negative")
    return a


@functools.cache
def _totient(d: int) -> int:
    """Euler's phi of d, the degree of Phi_d, by Mobius inversion of
    d = sum of phi(e) over the divisors e of d."""
    return sum(mobius(e) * (d // e) for e in divisors(d))


@functools.cache
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by Mobius inversion of
    q^d - 1 = prod of Phi_e over divisors e of d: for d > 1,
    Phi_d = prod of (1 - q^e)^mobius(d/e) over divisors e of d.

    Memoized per process; readers only, so shared use is safe.
    """
    if _integer(d, "argument d", least=1) == 1:
        return Q - ONE
    nums = [e for e in divisors(d) if mobius(d // e) == 1]
    dens = [e for e in divisors(d) if mobius(d // e) == -1]
    return q_ratio(nums, dens)


def check_order(n: int, what: Callable[[], str]) -> int:
    """n read through ``_integer``: ValueError unless it is a positive
    integer; ResourceLimit when it is above MAX_ORDER, with a message that
    names the input by calling what."""
    n = _integer(n, "order", least=1)
    if n > MAX_ORDER:
        raise ResourceLimit(f"{what()} at order n = {n}: above the order cap {MAX_ORDER}")
    return n


def _values_of(f: IntPoly) -> str:
    return f"values of {_shown(format_poly(f))} at roots of unity"


def _fold(coeffs, n: int) -> list[int]:
    """Coefficients reduced mod q^n - 1, by summing them over exponent
    classes, as a new list."""
    if len(coeffs) <= n:
        return list(coeffs)
    return [sum(coeffs[k::n]) for k in range(n)]


def _residue(coeffs, n: int) -> IntPoly:
    """The polynomial with these coefficients reduced mod q^n - 1."""
    return _from_ints(_fold(coeffs, n))


def _value_at_order(coeffs, d: int) -> int | None:
    """Value of the polynomial with these coefficients at a primitive d-th
    root of unity, or None when it is irrational: the coefficients are
    folded mod q^d - 1, which Phi_d divides, and the fold is reduced by
    Phi_d; the value is rational exactly when the remainder is constant.
    A fold of degree below phi(d) is its own remainder, so Phi_d is then
    neither built nor divided by. All of it works on plain lists."""
    r = _fold(coeffs, d)
    while r and not r[-1]:
        r.pop()
    if len(r) > _totient(d):
        r = _rem(r, cyclotomic(d).coeffs)
    if any(r[1:]):
        return None
    return r[0] if r else 0


def eval_root_of_unity(f: IntPoly, n: int, j: int) -> int | None:
    """Exact value of f at exp(2*pi*i*j/n) when that value is an integer.

    The point is a primitive d-th root of unity for d = n / gcd(n, j mod n),
    so the value is the one ``root_values`` reads at order d. Returns None
    when it is irrational (j = 0 mod n gives d = 1 and plain evaluation
    at 1).
    """
    n = check_order(n, lambda: _values_of(f))
    return _value_at_order(f.coeffs, n // math.gcd(n, _integer(j, "exponent j") % n))


def root_values(f: IntPoly, n: int) -> tuple[int | None, ...]:
    """Values of f at w^1, ..., w^n for a primitive n-th root of unity w,
    with None where a value is irrational; entry j - 1 equals
    ``eval_root_of_unity(f, n, j)``.

    The value at w^j depends only on the order d = n / gcd(n, j) of w^j, so
    f is folded mod q^n - 1 once and each divisor d of n costs one fold
    mod q^d - 1 and at most one reduction by Phi_d. An order above MAX_ORDER raises
    ResourceLimit, here and in ``eval_root_of_unity``.
    """
    n = check_order(n, lambda: _values_of(f))
    coeffs = _fold(f.coeffs, n)
    values = [_value_at_order(coeffs, n)] * n
    # the divisors g > 1 ascending leave at j the value at order n / gcd(n, j)
    for g in divisors(n)[1:]:
        values[g - 1::g] = [_value_at_order(coeffs, n // g)] * (n // g)
    return tuple(values)


def orbit_basis_element(n: int, d: int) -> IntPoly:
    """(q^n - 1)/(q^(n/d) - 1) = 1 + q^(n/d) + ... + q^(n - n/d), for d | n."""
    n, d = _integer(n, "order", least=1), _integer(d, "divisor d", least=1)
    if n % d:
        raise ValueError(f"{d} does not divide {n}")
    step = n // d
    out = [0] * (n - step + 1)
    for k in range(0, n, step):
        out[k] = 1
    return _from_ints(out)
