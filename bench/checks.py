"""Checks of every benchmark output against ``oracles``.

Each ``check_*(workload, op, output)`` returns None when the output is right
and a one-line description of the mismatch otherwise; ``workloads.KINDS``
says which check goes with which operation.
"""

from __future__ import annotations

import csv
import io
import math

import oracles as O


def _type(ty: str) -> tuple[str, int]:
    return ty[0], int(ty[1:])


def _poly_product(coeffs, exps, lam, m=None) -> str | None:
    """Degree, palindromy, values at 2 and 3, and (type A) the value at 1."""
    deg = sum(a - b for a, b in exps)
    if len(coeffs) - 1 != deg:
        return f"degree {len(coeffs) - 1}, expected {deg}"
    if list(coeffs) != list(reversed(coeffs)):
        return "output is not palindromic"
    for x in (2, 3):
        got = 0
        for c in reversed(coeffs):
            got = got * x + c
        if got != O.product_at(exps, x):
            return f"value at q={x} differs from the exact product"
    if m is not None and sum(coeffs) != O.hook_content(lam, m):
        return f"value at 1 is {sum(coeffs)}, hook-content count {O.hook_content(lam, m)}"
    return None


def check_qdim(w, op, out):
    ty, weight = op.args
    datum = w.data[ty]
    family, rank = _type(ty)
    bad = O.check_datum(datum, family, rank)
    if bad:
        return bad
    exps = O.weyl_exponents(datum, weight, op.kind == "qdim_dual")
    if family == "A" and op.kind == "qdim":
        # a weight of A_(m-1) is the partition of its partial sums from the right
        lam = tuple(p for p in (sum(weight[i:]) for i in range(rank)) if p)
        return _poly_product(out.coeffs, exps, lam, rank + 1)
    return _poly_product(out.coeffs, exps, None)


def check_spec(w, op, out):
    lam, m = op.args
    return _poly_product(out.coeffs, O.schur_exponents(lam, m), lam, m)


def check_congruence(w, op, out):
    ty, lam, n, dual = op.args
    datum = w.data[ty]
    bad = O.check_datum(datum, *_type(ty))
    if bad:
        return bad
    full = O.product_poly(O.weyl_exponents(datum, lam, dual))
    want = O.fold(full, n)
    got = list(out.residue.coeffs) + [0] * (n - len(out.residue.coeffs))
    if got != want:
        return f"residue mod q^{n} - 1 differs from the fold of the q-dimension"
    if any(v < 0 for v in out.a.values()):
        return f"negative orbit count in {out.a}"
    if sum(d * v for d, v in out.a.items()) != sum(full):
        return f"sum of d * a_d is not the dimension {sum(full)}"
    if out.a != O.orbit_counts(want, n):
        return f"orbit counts {out.a} differ from the decomposition of the residue"
    for d in O.divisors(n):
        if out.b.get(d) != sum(e * out.a[e] for e in O.divisors(d)):
            return f"b_{d} is not the sum of e * a_e over e | {d}"
    return None


def check_aa(w, op, out):
    lam, m, n = op.args
    exact = O.values_at_roots(O.product_poly(O.schur_exponents(lam, m)), n, range(1, n + 1))
    for j in range(1, n + 1):
        if out.values[j - 1] != exact[j]:
            return f"value at w^{j} is {out.values[j - 1]}, expected {exact[j]}"
    if out.exists != O.aa_exists(exact, n):
        return f"exists={out.exists} disagrees with the Mobius sums"
    return None


def check_eval(w, op, out):
    lam, m, n, j = op.args
    want = O.values_at_roots(O.product_poly(O.schur_exponents(lam, m)), n, [j])[j]
    return None if out == want else f"value at w^{j} (n={n}) is {out}, expected {want}"


def check_prime(w, op, out):
    lam, m, p = op.args
    padded = list(lam) + [0] * (m - len(lam))
    collide = len({(padded[i] - i - 1) % p for i in range(m)}) < m
    if out.residues_collide != collide:
        return f"residues_collide={out.residues_collide}, expected {collide}"
    schur = [0] * sum(i * part for i, part in enumerate(lam)) + O.product_poly(O.schur_exponents(lam, m))
    exact = O.values_at_roots(schur, p, range(1, p + 1))
    if out.cyclotomic_divides != (exact[1] == 0):
        return f"cyclotomic_divides={out.cyclotomic_divides}, value at a primitive root is {exact[1]}"
    if out.action_exists != O.aa_exists(exact, p):
        return f"action_exists={out.action_exists} disagrees with the Mobius sums"
    return None


def _check_report(report, lam, m, order) -> str | None:
    """Census, per-exponent rows and verdict of a csp_check report."""
    census = report.census
    bad = O.check_census(census.by_size, census.total, lam, m, order)
    if bad:
        return bad
    n = report.n
    spec = O.product_poly(O.schur_exponents(lam, m))
    values = O.values_at_roots(spec, n, range(1, n + 1))
    # orbit counts are predicted exactly when the divisibility condition holds
    predicted = O.orbit_counts(O.fold(spec, n), n) if O.stretched(lam, m, n) and m >= 2 else None
    if report.predicted_a != predicted:
        return f"predicted_a {report.predicted_a}, the folded specialization gives {predicted}"
    verdict = O.sieve_verdict(values, census.by_size)
    if len(report.per_exponent) != n:
        return f"{len(report.per_exponent)} exponent rows for order {n}"
    for e in report.per_exponent:
        if e.fixed != O.fixed_by_power(census.by_size, e.j):
            return f"fixed count {e.fixed} at j={e.j} differs from the census"
        if e.evaluation != values[e.j]:
            return f"value at w^{e.j} is {e.evaluation}, expected {values[e.j]}"
    if report.verdict != verdict:
        return f"verdict {report.verdict}, fixed counts against values give {verdict}"
    return None


def check_csp_c(w, op, out):
    lam, m = op.args
    if out.n != m:
        return f"order {out.n} for the cycle operator on {m} letters"
    bad = _check_report(out, lam, m, m)
    if bad:
        return bad
    if O.in_hypothesis(lam, m) and out.verdict != O.characterized_verdict(lam, m):
        return f"verdict {out.verdict} against the characterization for {lam}, m={m}"
    return None


def check_census_pr(w, op, out):
    lam, m = op.args
    return O.check_census(out.by_size, out.total, lam, m, None)


def check_rect_pr(w, op, out):
    lam, m = op.args
    order = math.lcm(*out.census.by_size)
    if out.n != order or m % out.n:
        return f"order {out.n}: the orbit sizes give {order}, which must divide m={m}"
    bad = _check_report(out, lam, m, m)
    if bad:
        return bad
    if not out.verdict:
        return f"promotion does not sieve on the rectangle {lam}, m={m}"
    return None


def check_sweep(w, op, out) -> str | None:
    code, stdout, stderr = out
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr[:200]!r}"
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["partition", "m", "n", "size", "stretched", "aa_exists", "csp_c", "census", "a"]:
        return "missing or wrong CSV header"
    want = sweep_cells(op.args)
    if [(r[0], int(r[1]), int(r[2])) for r in rows[1:]] != want:
        return "rows do not cover the requested cells in order"
    for row in rows[1:]:
        bad = check_sweep_row(row)
        if bad:
            return f"row {row}: {bad}"
    return None


def sweep_cells(argv) -> list[tuple[str, int, int]]:
    args = dict(zip(argv[1::2], argv[2::2]))
    ms = [int(x) for x in args["--m"].split(",")]
    ns = [int(x) for x in args["--n"].split(",")]
    cells = []
    for m in ms:
        for size in range(int(args["--max-size"]) + 1):
            for lam in O.partitions(size, m):
                for n in ns:
                    cells.append((",".join(map(str, lam)) if lam else "0", m, n))
    return cells


def check_sweep_row(row) -> str | None:
    part, m, n, size, stretched, aa_exists, csp_c, census, a = row
    lam = () if part == "0" else tuple(int(x) for x in part.split(","))
    m, n = int(m), int(n)
    if int(size) != O.hook_content(lam, m):
        return f"size {size}, hook-content count {O.hook_content(lam, m)}"
    by_size = {int(d): int(c) for d, c in (x.split(":") for x in census.split(";"))}
    bad = O.check_census(by_size, int(size), lam, m, m)
    if bad:
        return bad
    want_stretched = O.stretched(lam, m, n)
    if stretched != str(want_stretched):
        return f"stretched={stretched}, expected {want_stretched}"
    spec = O.product_poly(O.schur_exponents(lam, m))
    exact = O.values_at_roots(spec, n, range(1, n + 1))
    if aa_exists != str(O.aa_exists(exact, n)):
        return f"aa_exists={aa_exists} disagrees with the Mobius sums"
    if n == m:
        verdict = O.sieve_verdict(exact, by_size)
        if csp_c != str(verdict):
            return f"csp_c={csp_c}, fixed counts against values give {verdict}"
        if O.in_hypothesis(lam, m) and verdict != O.characterized_verdict(lam, m):
            return f"verdict {verdict} against the characterization"
        if verdict and aa_exists != "True":
            return "csp_c holds but aa_exists is false"
    elif csp_c:
        return f"csp_c={csp_c} for n != m"
    if want_stretched and m >= 2:
        counts = O.orbit_counts(O.fold(spec, n), n)
        got = {int(d): int(v) for d, v in (x.split(":") for x in a.split(";"))} if a else None
        if got != counts:
            return f"a={a} differs from the decomposition of the residue {counts}"
    elif a:
        return f"a={a} without the divisibility condition"
    return None

