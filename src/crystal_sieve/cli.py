"""Command-line frontend.

Every subcommand supports --format plain or json (sweep and roots add csv).
Exit codes: 0 success, 2 unparseable input, 3 domain condition violated,
4 resource cap exceeded, 5 internal assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .cartan import CartanType, build_cartan_datum, corho_pairing, gl_weight, rho_pairing
from .csp import aa_criterion, csp_check, orbit_formula
from .qdim import congruence, kappa, principal_specialization, qdim, qdim_dual, weyl_dim
from .errors import (
    CrystalSieveError,
    InternalError,
    InvalidRank,
    ResourceLimit,
)
from .partitions import as_partition, partitions_up_to
from .qpoly import IntPoly, format_poly, parse_poly, poly_to_json_coeffs
from .tableaux import Tableau, enumerate_ssyt, fixed_points, orbit_census


class CliParseError(Exception):
    """Command-line value that cannot be interpreted."""


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    try:
        if text in ("", "-", "0"):
            return ()
        return as_partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliParseError(f"bad partition {text!r}: {exc}") from None


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(x) for x in text.strip().split(","))
    except ValueError:
        raise CliParseError(f"bad weight {text!r}") from None
    if len(coords) != rank:
        raise CliParseError(f"weight {text!r} has {len(coords)} coordinates, rank is {rank}")
    return coords


def _positive_int(text: str) -> int:
    """argparse type for counts and orders; a bad value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [_positive_int(x) for x in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise CliParseError(f"bad {what} list {text!r}: {exc}") from None


def _parse_poly_arg(text: str) -> IntPoly:
    try:
        return parse_poly(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise CliParseError(f"bad polynomial {text!r}: {exc}") from None


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


def cmd_qdim(args) -> int:
    ct = CartanType.parse(args.type)
    datum = build_cartan_datum(ct)
    weight = _parse_weight(args.weight, datum.rank)
    poly = qdim_dual(datum, weight) if args.dual else qdim(datum, weight)
    payload: dict = {
        "type": str(ct),
        "weight": list(weight),
        "dual": args.dual,
        "qdim": poly_to_json_coeffs(poly),
        "dim": str(weyl_dim(datum, weight)),
    }
    lines = [f"qdim = {format_poly(poly)}", f"dim  = {payload['dim']}"]
    if args.mod is not None:
        result = congruence(datum, weight, args.mod, dual=args.dual)
        payload["congruence"] = result.to_json_dict()
        lines.append(f"residue mod q^{args.mod}-1 = {format_poly(result.residue)}")
        lines.append("b = " + ", ".join(f"b_{d}={v}" for d, v in result.b.items()))
        lines.append("a = " + ", ".join(f"a_{d}={v}" for d, v in result.a.items()))
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
    ct = CartanType.parse(args.type)
    datum = build_cartan_datum(ct)
    weight = _parse_weight(args.weight, datum.rank)
    result = congruence(datum, weight, args.n, dual=args.dual)
    lines = [
        f"residue mod q^{args.n}-1 = {format_poly(result.residue)}",
        "b = " + ", ".join(f"b_{d}={v}" for d, v in result.b.items()),
        "a = " + ", ".join(f"a_{d}={v}" for d, v in result.a.items()),
    ]
    _emit(args, result.to_json_dict(), "\n".join(lines))
    return 0


def _csp_payload(report) -> dict:
    return report.to_json_dict()


def _csp_plain(report, table: bool) -> str:
    lines = [
        f"action {report.action} on {report.lam or '()'} with {report.m} letters, order n = {report.n}",
        f"verdict: {'CSP holds' if report.verdict else 'CSP fails'}"
        + (" (irrational evaluation)" if report.nonrational else ""),
        "census: " + ", ".join(f"{v} orbit(s) of size {d}" for d, v in report.census.by_size.items())
        + f" ({report.census.total} tableaux)",
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
    lam = _parse_partition(args.partition)
    if args.what == "orbits":
        census = orbit_census(lam, args.m, args.action)
        plain = (
            ", ".join(f"{v} orbit(s) of size {d}" for d, v in census.by_size.items())
            + f" ({census.total} tableaux)"
            if census.by_size
            else f"empty crystal (0 tableaux)" if census.total == 0 else f"{census.total} tableaux"
        )
        _emit(args, census.to_json_dict(), plain)
    elif args.what == "fixed":
        tabs = fixed_points(lam, args.m)
        payload = {"count": len(tabs), "tableaux": [t.to_text() for t in tabs]}
        plain = "\n".join(t.to_text() for t in tabs) if tabs else "no fixed points"
        _emit(args, payload, plain)
    else:  # csp
        report = csp_check(lam, args.m, args.action)
        _emit(args, _csp_payload(report), _csp_plain(report, args.table))
    return 0


def cmd_csp_check(args) -> int:
    lam = _parse_partition(args.partition)
    f = _parse_poly_arg(args.f) if args.f else None
    report = csp_check(lam, args.m, args.action, f=f, n=args.n)
    _emit(args, _csp_payload(report), _csp_plain(report, args.table))
    return 0


def cmd_aa_check(args) -> int:
    f = _parse_poly_arg(args.poly)
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
    try:
        value = orbit_formula(args.a, args.d)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc
    _emit(args, {"a": args.a, "d": args.d, "orbits": str(value)}, str(value))
    return 0


def _sweep_cell(cell: tuple[tuple[int, ...], int, list[int]]) -> list[list]:
    """One CSV row per order n for the shape lam on m letters; the census is
    taken once for all of them."""
    lam, m, ns = cell
    padded = list(lam) + [0] * (m - len(lam))
    spoly = principal_specialization(lam, m)
    verdict = ""
    if m in ns:
        report = csp_check(lam, m, "c")
        census, verdict = report.census, str(report.verdict)
    else:
        census = orbit_census(lam, m, "c")
    sizes = ";".join(f"{d}:{v}" for d, v in census.by_size.items())
    rows = []
    for n in ns:
        stretched = all((padded[i] - padded[j]) % n == 0 for i in range(m) for j in range(i + 1, m))
        a_map = ""
        if stretched and m >= 2:
            result = congruence(build_cartan_datum(f"A{m-1}"), gl_weight(lam, m), n)
            a_map = ";".join(f"{d}:{v}" for d, v in result.a.items())
        rows.append([
            ",".join(map(str, lam)) if lam else "0",
            m,
            n,
            census.total,
            stretched,
            aa_criterion(spoly, n).exists,
            verdict if n == m else "",
            sizes,
            a_map,
        ])
    return rows


def cmd_sweep(args) -> int:
    ms = _parse_int_list(args.m, "letter count")
    ns = _parse_int_list(args.n, "order") if args.n else None
    cells = []
    for m in ms:
        if m < 2:
            raise CliParseError("sweep needs m >= 2")
        for lam in partitions_up_to(args.max_size, max_parts=m):
            cells.append((lam, m, ns or [m]))
    if args.jobs and args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            groups = list(pool.map(_sweep_cell, cells, chunksize=8))
    else:
        groups = [_sweep_cell(c) for c in cells]
    w = csv.writer(sys.stdout)
    w.writerow(["partition", "m", "n", "size", "stretched", "aa_exists", "csp_c", "census", "a"])
    for rows in groups:
        w.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal-sieve",
        description="Exact q-dimensions, residues mod q^n - 1, and cyclic sieving checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, *, csv_too=False):
        choices = ["plain", "json"] + (["csv"] if csv_too else [])
        p.add_argument("--format", choices=choices, default="plain")

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
    p.set_defaults(func=cmd_congruence)

    p = sub.add_parser("crystal", help="orbit census, fixed points, or CSP report")
    p.add_argument("partition")
    p.add_argument("what", choices=["orbits", "fixed", "csp"])
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--action", choices=["c", "pr"], default="c")
    p.add_argument("--table", action="store_true", help="per-exponent table for csp")
    add_format(p)
    p.set_defaults(func=cmd_crystal)

    p = sub.add_parser("csp-check", help="sieving check with an optional custom polynomial")
    p.add_argument("partition")
    p.add_argument("-m", type=_positive_int, required=True)
    p.add_argument("--action", choices=["c", "pr"], default="c")
    p.add_argument("--f", help="polynomial text or JSON coefficient array")
    p.add_argument("-n", type=_positive_int, help="override the group order")
    p.add_argument("--table", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_csp_check)

    p = sub.add_parser("aa-check", help="existence criterion for a cyclic action of order n")
    p.add_argument("poly", help="polynomial text or JSON coefficient array")
    p.add_argument("-n", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_aa_check)

    p = sub.add_parser("orbit-formula", help="predicted count of size-d orbits on one-row shapes")
    p.add_argument("a", type=int)
    p.add_argument("d", type=int)
    add_format(p)
    p.set_defaults(func=cmd_orbit_formula)

    p = sub.add_parser("sweep", help="CSV sweep over shapes, letter counts, and orders")
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--m", default="2,3,4", help="comma list of letter counts")
    p.add_argument("--n", help="comma list of orders (default: n = m)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliParseError, InvalidRank, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except CrystalSieveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
