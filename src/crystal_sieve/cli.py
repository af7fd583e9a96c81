"""Command-line frontend.

Every subcommand but sweep, which writes CSV, takes --format plain or json;
roots adds csv.
Exit codes: 0 success, 2 unparseable input, 3 domain condition violated,
4 resource cap exceeded, 5 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys

from .cartan import build_cartan_datum, corho_pairing, rho_pairing
from .csp import _sieves, aa_criterion, csp_check, orbit_formula
from .qdim import _gl_exponents, _predicted_orbit_counts, _specialization, congruence, kappa, principal_specialization
from .qdim import qdim, qdim_dual, weyl_dim
from .errors import CrystalSieveError, InternalError, ResourceLimit
from .partitions import _decimal, _decimals, _on_letters, _shape_on, _shown, as_partition, partitions_up_to
from .qpoly import _q_ratio_at_one, format_poly, parse_poly, poly_to_json_coeffs
from .tableaux import _check_cap, _cycle_word, _orbit_census, fixed_points, orbit_census


def _argument(text: str, least: int | None = None) -> int:
    """argparse type: text read by ``_decimal``, at least least when given;
    a bad value is a usage error."""
    try:
        return _decimal(text, "argument", least=least)
    except ValueError:
        kind = "an" if least is None else ("a nonnegative", "a positive")[least]
        raise argparse.ArgumentTypeError(f"{_shown(text)} is not {kind} integer") from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its subcommands' too, with an invalid choice quoted by ``_shown``, not whole."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {_shown(value)} (choose from {choices})")


def _read(what: str, text: str, reader, *args, **kwargs):
    """reader(text, *args, **kwargs), its ValueError reworded as
    "bad <what> <text>: <reason>", a long text shortened."""
    try:
        return reader(text, *args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"bad {what} {_shown(text)}: {exc}") from None


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "-", "0"):
        return ()
    return _read("partition", text, lambda t: as_partition(_decimals(t, "part")))


def _parse_weight(text: str) -> tuple[int, ...]:
    return tuple(_read("weight", text, _decimals, "coordinate"))


# argparse type for counts and orders
_positive_int = functools.partial(_argument, least=1)


def _emit(args, payload: dict, plain: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(plain)


def cmd_roots(args) -> int:
    datum = build_cartan_datum(args.type)
    rows = [
        {
            "root": list(beta),
            "height": sum(beta),
            "rho_pairing": rho_pairing(datum, beta),
            "corho_pairing": corho_pairing(datum, beta),
        }
        for beta in datum.positive_roots
    ]
    if args.format == "json":
        print(json.dumps({"type": str(datum.cartan_type), "positive_roots": rows}, indent=2))
    elif args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["root", "height", "rho_pairing", "corho_pairing"])
        for r in rows:
            w.writerow([" ".join(map(str, r["root"])), r["height"], r["rho_pairing"], r["corho_pairing"]])
    else:
        print(f"{len(rows)} positive roots of {datum.cartan_type}")
        for r in rows:
            coords = ",".join(map(str, r["root"]))
            print(
                f"  ({coords})  height {r['height']}  "
                f"(beta,rho) {r['rho_pairing']}  <beta~,rho> {r['corho_pairing']}"
            )
    return 0


def _congruence_lines(result) -> list[str]:
    """The residue, b and a lines of a congruence result in plain output."""
    return [
        f"residue mod q^{result.n}-1 = {format_poly(result.residue)}",
        "b = " + ", ".join(f"b_{d}={v}" for d, v in result.b.items()),
        "a = " + ", ".join(f"a_{d}={v}" for d, v in result.a.items()),
    ]


def cmd_qdim(args) -> int:
    datum = build_cartan_datum(args.type)
    weight = _parse_weight(args.weight)
    poly = qdim_dual(datum, weight) if args.dual else qdim(datum, weight)
    payload: dict = {
        "type": str(datum.cartan_type),
        "weight": list(weight),
        "dual": args.dual,
        "qdim": poly_to_json_coeffs(poly),
        "dim": str(weyl_dim(datum, weight)),
    }
    lines = [f"qdim = {format_poly(poly)}", f"dim  = {payload['dim']}"]
    if args.mod is not None:
        result = congruence(datum, weight, args.mod, dual=args.dual)
        payload["congruence"] = result.to_json_dict()
        lines += _congruence_lines(result)
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_specialize(args) -> int:
    lam = _parse_partition(args.partition)
    poly = principal_specialization(lam, args.m)
    k = kappa(lam)
    payload = {
        "partition": list(lam),
        "m": args.m,
        "kappa": k,
        "poly": poly_to_json_coeffs(poly),
        "dim": str(poly(1)),
    }
    plain = f"poly = {format_poly(poly)}\nkappa = {k}\ndim = {poly(1)}"
    _emit(args, payload, plain)
    return 0


def cmd_congruence(args) -> int:
    datum = build_cartan_datum(args.type)
    weight = _parse_weight(args.weight)
    result = congruence(datum, weight, args.n, dual=args.dual)
    _emit(args, result.to_json_dict(), "\n".join(_congruence_lines(result)))
    return 0


def _census_line(census) -> str:
    """Orbit sizes and the total of a census in plain output."""
    sizes = ", ".join(f"{v} orbit(s) of size {d}" for d, v in census.by_size.items())
    return f"{sizes} ({census.total} tableaux)" if sizes else "empty crystal (0 tableaux)"


def _csp_plain(report, table: bool) -> str:
    lines = [
        f"action {report.action} on {report.lam or '()'} with {report.m} letters, order n = {report.n}",
        f"verdict: {'CSP holds' if report.verdict else 'CSP fails'}"
        + (" (irrational evaluation)" if report.nonrational else ""),
        "census: " + _census_line(report.census),
    ]
    if report.predicted_a is not None:
        lines.append("predicted a: " + ", ".join(f"a_{d}={v}" for d, v in report.predicted_a.items()))
    if table:
        lines.append(f"  {'j':>4} {'fixed':>12} {'f(w^j)':>14} match")
        for e in report.per_exponent:
            val = "irrational" if e.evaluation is None else str(e.evaluation)
            lines.append(f"  {e.j:>4} {e.fixed:>12} {val:>14} {'yes' if e.match else 'NO'}")
    return "\n".join(lines)


def cmd_crystal(args) -> int:
    if args.what == "csp":
        return cmd_csp_check(args)
    lam = _parse_partition(args.partition)
    if args.what == "orbits":
        census = orbit_census(lam, args.m, args.action)
        _emit(args, census.to_json_dict(), _census_line(census))
    else:  # fixed
        tabs = fixed_points(lam, args.m)
        payload = {"count": len(tabs), "tableaux": [t.to_text() for t in tabs]}
        plain = "\n".join(t.to_text() for t in tabs) if tabs else "no fixed points"
        _emit(args, payload, plain)
    return 0


def cmd_csp_check(args) -> int:
    lam = _parse_partition(args.partition)
    f = _read("polynomial", args.f, parse_poly) if args.f else None
    report = csp_check(lam, args.m, args.action, f=f, n=args.n)
    _emit(args, report.to_json_dict(), _csp_plain(report, args.table))
    return 0


def cmd_aa_check(args) -> int:
    f = _read("polynomial", args.poly, parse_poly)
    result = aa_criterion(f, args.n)
    payload = {
        "n": args.n,
        "exists": result.exists,
        "failures": list(result.failures),
        "values": [None if v is None else str(v) for v in result.values],
    }
    vals = ", ".join("irrational" if v is None else str(v) for v in result.values)
    plain = (
        f"exists: {'yes' if result.exists else 'no'}\n"
        f"values at w^1..w^{args.n}: {vals}"
        + (f"\nnegative orbit counts at k = {', '.join(map(str, result.failures))}" if result.failures else "")
    )
    _emit(args, payload, plain)
    return 0


def cmd_orbit_formula(args) -> int:
    value = orbit_formula(args.a, args.d)
    try:
        text = str(value)
    except ValueError:
        # only interpreters with sys.get_int_max_str_digits refuse the conversion
        raise ResourceLimit(
            f"orbit count for a = {_shown(args.a)}, d = {args.d} has more decimal digits than "
            f"the integer string limit {sys.get_int_max_str_digits()}"
        ) from None
    _emit(args, {"a": args.a, "d": args.d, "orbits": text}, text)
    return 0


def _sweep_cell(cell: tuple[tuple[int, ...], int, list[int]]) -> list[list]:
    """One CSV row per order n for the shape lam on m letters, in one pass:
    one gate and one exponent list give the specialization, the crystal size
    and each n's ``predicted_orbit_counts`` (counts stretch a row), checked
    in the public entry points' order. Each n takes one ``aa_criterion`` table:
    its verdict is ``aa_exists``; at n = m its values, the census and the
    counts give ``csp_c`` by ``csp_check``'s rule, ``_sieves``."""
    lam, m, ns = cell
    lam = _on_letters(lam, m)
    nums, dens = _gl_exponents(lam, m)
    spoly = _specialization(lam, m, nums, dens)
    census = _orbit_census(lam, m, "c", _check_cap(_q_ratio_at_one(nums, dens), lambda: _shape_on(lam, m)))
    sizes = ";".join(f"{d}:{v}" for d, v in census.by_size.items())
    rows = []
    for n in ns:
        a = _predicted_orbit_counts(lam, m, n, nums, dens)
        aa = aa_criterion(spoly, n)
        rows.append([
            ",".join(map(str, lam)) if lam else "0",
            m,
            n,
            census.total,
            a is not None,
            aa.exists,
            str(_sieves(aa.values, census, a)) if n == m else "",
            sizes,
            "" if a is None else ";".join(f"{d}:{v}" for d, v in a.items()),
        ])
    return rows


def cmd_sweep(args) -> int:
    ms = _read("letter count list", args.m, _decimals, "letter count", least=1)
    ns = _read("order list", args.n, _decimals, "order", least=1) if args.n else None
    cells = []
    for m in ms:
        _cycle_word(m)  # refuses one letter
        for lam in partitions_up_to(args.max_size, max_parts=m):
            cells.append((lam, m, ns or [m]))
    if args.jobs > 1:
        # imported here: only a parallel sweep needs multiprocessing, so no
        # other command pays for importing it at start-up
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at once: never more than the CPUs
        with ProcessPoolExecutor(max_workers=min(args.jobs, os.cpu_count() or 1)) as pool:
            rows = [row for part in pool.map(_sweep_cell, cells, chunksize=8) for row in part]
    else:
        rows = [row for cell in cells for row in _sweep_cell(cell)]
    w = csv.writer(sys.stdout)
    w.writerow(["partition", "m", "n", "size", "stretched", "aa_exists", "csp_c", "census", "a"])
    w.writerows(rows)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: it holds no
    input and no result."""
    parser = _Parser(
        prog="crystal-sieve",
        description="Exact q-dimensions, residues mod q^n - 1, and cyclic sieving checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *, csv_too=False):
        choices = ["plain", "json"] + (["csv"] if csv_too else [])
        p.add_argument("--format", choices=choices, default="plain")

    def leading_minus(p, pattern):
        # a weight such as "-1,2" or a polynomial such as "-q+q^2" is a value,
        # not an unknown option: no option of these parsers matches pattern
        p._negative_number_matcher = re.compile(pattern)

    p = sub.add_parser("roots", help="positive roots of a finite Cartan type")
    p.add_argument("type")
    add_format(p, csv_too=True)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("qdim", help="q-dimension of a highest-weight crystal")
    p.add_argument("type")
    p.add_argument("weight", help="fundamental coordinates, e.g. 2,0")
    p.add_argument("--dual", action="store_true")
    p.add_argument("--mod", type=_positive_int, metavar="N", help="also reduce mod q^N - 1")
    add_format(p)
    leading_minus(p, r"-\d")
    p.set_defaults(func=cmd_qdim)

    p = sub.add_parser("specialize", help="principal specialization of a Schur polynomial")
    p.add_argument("partition")
    p.add_argument("-m", type=_positive_int, required=True, help="number of variables/letters")
    add_format(p)
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("congruence", help="residue of qdim mod q^n - 1 with orbit counts")
    p.add_argument("type")
    p.add_argument("weight")
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument("--dual", action="store_true")
    add_format(p)
    leading_minus(p, r"-\d")
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("crystal", help="orbit census, fixed points, or CSP report")
    p.add_argument("partition")
    p.add_argument("what", choices=["orbits", "fixed", "csp"])
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--action", choices=["c", "pr"], default="c")
    p.add_argument("--table", action="store_true", help="per-exponent table for csp")
    add_format(p)
    p.set_defaults(func=cmd_crystal, f=None, n=None)  # csp is csp-check without --f or -n

    p = sub.add_parser("csp-check", help="sieving check with an optional custom polynomial")
    p.add_argument("partition")
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--action", choices=["c", "pr"], default="c")
    p.add_argument("--f", help="polynomial text or JSON coefficient array")
    p.add_argument("-n", type=_positive_int, help="override the group order")
    p.add_argument("--table", action="store_true")
    add_format(p)
    leading_minus(p, r"-[\dq]")
    p.set_defaults(func=cmd_csp_check)

    p = sub.add_parser("aa-check", help="existence criterion for a cyclic action of order n")
    p.add_argument("poly", help="polynomial text or JSON coefficient array")
    p.add_argument("-n", type=_positive_int, required=True)
    add_format(p)
    leading_minus(p, r"-[\dq]")
    p.set_defaults(func=cmd_aa_check)

    p = sub.add_parser("orbit-formula", help="predicted count of size-d orbits on one-row shapes")
    p.add_argument("a", type=_argument)
    p.add_argument("d", type=_argument)
    add_format(p)
    p.set_defaults(func=cmd_orbit_formula)

    p = sub.add_parser("sweep", help="CSV sweep over shapes, letter counts, and orders")
    p.add_argument("--max-size", type=functools.partial(_argument, least=0), default=8)
    p.add_argument("--m", default="2,3,4", help="comma list of letter counts")
    p.add_argument("--n", help="comma list of orders (default: n = m)")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_sweep, format="csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading, as `| head` does: a success. Point
        # stdout at devnull so that the flush at shutdown cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, CrystalSieveError) as exc:
        prefix = "internal error" if isinstance(exc, InternalError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CrystalSieveError) else 2
