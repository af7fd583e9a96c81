"""Seeded inputs for the four benchmark workloads.

A workload hands out rounds. Every round holds the same slots in the same
order; a slot fixes what is called and how large its input is, and the seed
picks a concrete input of about that size. No input repeats within a run, so
a memo of earlier results cannot stand in for computing. Input sizes are
matched by a cheap work estimate, not by timing, so the same seed always
gives the same inputs.

Every seed-independent table (slot sizes, shape pools) is a literal here, so
drawing a round costs little and the set-up probe times the library, not
the benchmark. ``KINDS`` maps each operation kind to its library call and
its check. The library is called through module attributes at call time
(``Q.qdim``, not a name bound at import), so the traced run sees the calls
it wraps.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

import checks
import oracles

# the package namespace rebinds some submodule names to functions (qdim), so
# the modules are fetched by their full names
C = importlib.import_module("crystal_sieve.cartan")
CLI = importlib.import_module("crystal_sieve.cli")
S = importlib.import_module("crystal_sieve.csp")
Q = importlib.import_module("crystal_sieve.qdim")
P = importlib.import_module("crystal_sieve.qpoly")
T = importlib.import_module("crystal_sieve.tableaux")

# ---------------------------------------------------------------- helpers


@dataclass(frozen=True)
class Op:
    """One timed call: ``kind`` names it, ``key`` identifies its input."""

    kind: str
    key: tuple
    args: tuple


def weight_degrees(datum, dual: bool) -> list[int]:
    """Degree of the q-dimension contributed by each fundamental weight
    omega_i: the sum over positive roots of (beta, omega_i), or of
    <beta^vee, omega_i> when dual, as in ``oracles.weyl_exponents``."""
    a, d = datum.cartan_matrix, datum.symmetrizers
    n = len(d)
    out = [0] * n
    for beta in datum.positive_roots:
        norm = sum(beta[i] * d[i] * a[i][j] * beta[j] for i in range(n) for j in range(n)) if dual else 2
        for i, c in enumerate(beta):
            out[i] += 2 * c * d[i] // norm
    return out


class Exhausted(Exception):
    """A slot has no input left that this run has not used."""


class Workload:
    """Base: a seeded generator of rounds with distinct inputs."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale  # below 1 shrinks every input, for the smoke mode
        self.used: set = set()
        self.rounds = 0

    def rng(self, slot: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{self.rounds}:{slot}")

    def draw(self, rng: random.Random, make, tries: int = 4000):
        """First fresh input that ``make`` accepts; ``make`` returns an Op or None."""
        for _ in range(tries):
            op = make(rng)
            if op is not None and op.key not in self.used:
                self.used.add(op.key)
                return op
        raise Exhausted(f"{self.name}: no fresh input left for a slot")

    def next_round(self) -> list[Op]:
        ops = [self.draw(self.rng(i), make) for i, make in enumerate(self.slots())]
        self.rounds += 1
        return ops

    def slots(self):
        raise NotImplementedError


def near(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * target


def scaled(rng: random.Random, h: list[int], target: int, tol: float, decreasing: bool = False):
    """A random nonnegative integer vector v with sum(v_i * h_i) within tol of
    the target: a random direction, scaled to the target and rounded."""
    v = [rng.randint(0, 20) for _ in h]
    if decreasing:
        v.sort(reverse=True)
    total = sum(x * y for x, y in zip(v, h))
    if total <= 0:
        return None
    v = tuple(round(x * target / total) for x in v)
    # rounding moves the total by up to sum(h) / 2
    tol = max(tol, sum(h) / (2 * target))
    return v if near(sum(x * y for x, y in zip(v, h)), target, tol) else None


def random_shape(rng: random.Random, m: int, target: int, tol: float):
    """A partition with at most m - 1 parts whose specialization on m letters
    has degree within tol of the target (the degree is sum (m + 1 - 2i) lam_i)."""
    h = [m + 1 - 2 * i for i in range(1, m)]
    lam = scaled(rng, h, target, tol, decreasing=True)
    return None if lam is None else tuple(p for p in lam if p)


# ------------------------------------------------------------ qdim-product

# (function, Cartan type, target degree of the output). The costs cluster
# where the quantiles fall: five slots of about 0.1 s around the median and
# four of about 0.45 s at the top, so op_p50_ms and op_p90_ms each land
# inside a cluster rather than on a gap between two slots.
QDIM_SLOTS = [
    ("qdim", "A4", 300), ("qdim", "A6", 600), ("qdim", "A8", 1050),
    ("qdim", "A10", 2250), ("qdim", "B4", 400), ("qdim", "B6", 1500),
    ("qdim", "C5", 800), ("qdim", "C7", 2350), ("qdim", "D5", 500),
    ("qdim", "D7", 1600), ("qdim", "E6", 1100), ("qdim", "E7", 1500),
    ("qdim", "E8", 1200), ("qdim", "E8", 2200), ("qdim", "F4", 1100),
    ("qdim", "G2", 1500),
    ("qdim_dual", "B5", 1050), ("qdim_dual", "C4", 600),
    ("qdim_dual", "F4", 1800), ("qdim_dual", "G2", 800),
    ("spec", 6, 300), ("spec", 8, 800), ("spec", 10, 1500), ("spec", 12, 2300),
]


class QdimProduct(Workload):
    name = "qdim-product"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.data = {t: C.build_cartan_datum(t) for f, t, _ in QDIM_SLOTS if f != "spec"}
        self.degrees = {
            (t, dual): weight_degrees(datum, dual)
            for t, datum in self.data.items()
            for dual in (False, True)
        }

    def slots(self):
        return [self._slot(f, t, int(d * self.scale)) for f, t, d in QDIM_SLOTS]

    def _slot(self, fn, ty, target):
        if fn == "spec":
            m = ty

            def make(rng):
                lam = random_shape(rng, m, target, 0.03)
                return Op("spec", ("spec", lam, m), (lam, m)) if lam else None

            return make
        dual = fn == "qdim_dual"
        h = self.degrees[(ty, dual)]

        def make(rng):
            lam = scaled(rng, h, target, 0.03)
            return Op(fn, (fn, ty, lam), (ty, lam)) if lam else None

        return make


# ------------------------------------------------------------ residue-sieve

# congruence: (Cartan type, order n, dual, target degree / n)
CONGRUENCE_SLOTS = [
    ("A2", 120, False, 8), ("A4", 120, False, 12), ("A5", 120, False, 14),
    ("A6", 60, False, 28), ("B3", 60, True, 24), ("B4", 90, False, 30),
    ("C3", 90, False, 14), ("C4", 120, True, 16), ("D5", 72, False, 30),
    ("E6", 36, False, 60), ("F4", 48, True, 60), ("G2", 120, False, 10),
]
# aa_criterion on a principal specialization: (letters m, order n, target degree)
AA_SLOTS = [(6, 30, 150), (8, 60, 340), (10, 120, 420), (8, 90, 600)]
# eval_root_of_unity: (letters m, order n, target degree)
EVAL_SLOTS = [(8, 60, 500), (10, 84, 700), (8, 90, 600), (12, 120, 900),
              (6, 72, 500), (9, 105, 800), (10, 96, 700), (7, 110, 600)]
# prime_specialization_criterion: (letters m, prime p, target degree)
PRIME_SLOTS = [(6, 17, 150), (8, 31, 340), (10, 37, 420), (8, 41, 380)]


class ResidueSieve(Workload):
    name = "residue-sieve"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.data = {t: C.build_cartan_datum(t) for t, *_ in CONGRUENCE_SLOTS}
        self.degrees = {(t, dual): weight_degrees(self.data[t], dual) for t, _, dual, _ in CONGRUENCE_SLOTS}

    def slots(self):
        s = self.scale
        out = [self._congruence(t, max(2, int(n * s)), dual, k) for t, n, dual, k in CONGRUENCE_SLOTS]
        out += [self._spec_op("aa", m, max(2, int(n * s)), int(d * s)) for m, n, d in AA_SLOTS]
        out += [self._spec_op("eval", m, max(2, int(n * s)), int(d * s)) for m, n, d in EVAL_SLOTS]
        out += [self._spec_op("prime", m, p, int(d * s)) for m, p, d in PRIME_SLOTS]
        return out

    def _congruence(self, ty, n0, dual, per_n):
        datum = self.data[ty]
        h = self.degrees[(ty, dual)]

        def make(rng):
            n = rng.randint(max(1, n0 - n0 // 10), n0 + n0 // 10)
            # n divides (beta, lam) for every root exactly when it divides
            # each d_i * lam_i (each <alpha_i^vee, lam> = lam_i when dual)
            steps = [n if dual else n // math.gcd(n, di) for di in datum.symmetrizers]
            lam = tuple(rng.randint(0, 3) * st for st in steps)
            if not any(lam) or not near(sum(x * y for x, y in zip(lam, h)), per_n * n, 0.25):
                return None
            return Op("congruence", ("congruence", ty, lam, n, dual), (ty, lam, n, dual))

        return make

    def _spec_op(self, kind, m, n, target):
        # aa and eval take the specialization's coefficients; KINDS builds
        # them from (lam, m) just before the call, untimed
        def make(rng):
            lam = random_shape(rng, m, target, 0.05)
            if not lam:
                return None
            if kind != "eval":
                return Op(kind, (kind, lam, m, n), (lam, m, n))
            # j with gcd(j, n) in {1, 2, 3}: a large cyclotomic factor
            j = rng.choice([x for x in range(1, n) if math.gcd(x, n) <= 3])
            return Op(kind, (kind, lam, m, n, j), (lam, m, n, j))

        return make


# ----------------------------------------------------------- crystal-census

# (operation, pool): a slot draws its shape from a pool of "parts/m" entries
# (a partition and a letter count) whose calls cost about the same. Each
# pool was made once: the 30 shapes nearest a target work estimate (tableau
# count times |lam| times m) were timed, and the 12 nearest the median time
# kept. The first slot holds the largest census of a round, which sets the
# peak RSS: 8 shapes on 5 to 7 letters with 21,000 to 23,760 tableaux, each
# raising the RSS by 15.0 to 15.9 MiB, and each taking about 2.7 s. They
# come from the 74 shapes whose estimate is within 8 % of that of (6,3,3) on
# 6 letters. The next four slots, of about 0.2 s each, sit just below it, so
# op_p90_ms lands inside that cluster. Kinds: csp_c is csp_check under c on any shape with fewer rows
# than letters, hyp_c the same inside the paper's hypothesis (m divides
# |lam|), true_c on (am) and ((am)^(m-1)), where sieving holds; census_pr is
# a promotion census on a non-rectangle, rect_pr csp_check under promotion
# on a rectangle.
CENSUS_SLOTS = [
    ("csp_c", "4,4,2,1,1,1/7 4,3,3,3,2/7 7,6,5,2/5 8,8,2,2/5 5,4,4,3/6 8,5,2,2/5 7,5,4,1/5 5,4,4,3,1/6"),
    ("csp_c", "6,2,1/5 8,8,3/4 9,5/4 9,1/5 9,4,3/4 9,8/4 5,3,2/5 8,5,3/4 8,6,4/4 11,2,1/4 12,2,2/4 12,2/4"),
    ("csp_c", "3,2,1/7 5,1/7 8,1,1/5 6,2,1/5 5,3,3/5 4,1,1/7 5,5,1/5 7,2/5 5,4,4/5 6,4/5 6,2,2/5 3,2,2/7"),
    ("hyp_c", "5,3,2/5 8,5,3/4 8,7,1/4 10,7,7/4 9,8,7/4 6,5,5,4/5 8,1,1/5 3,2,1,1/7 8,6,2/4 9,9,6/4 9,1/5 4,1,1,1/7"),
    ("census_pr", "5,4,2/5 5,5,2/5 13,2,1/4 9,5,3/4 10,10,1/4 7,2,1/5 5,4,3/5 9,9,3/4 9,7,5/4 7,2,2/5 12,3,3/4 11,5,5/4"),
    ("csp_c", "7,7,2/4 18,5/3 6,2/5 19,17/3 12,1,1/4 5,5/5 7,7,3/4 17,8/3 17,6/3 18,15/3 12,1/4 10,2,2/4"),
    ("csp_c", "7,1/5 7,1,1,1/5 7,6,5/4 7,5/4 7,3,1/4 4,2/6 5,5,5,4/5 7,7,1/4 5,2,1,1/5 7,3,2/4 4,3,2/5 11,1,1/4"),
    ("csp_c", "2,2,1/8 4,2/6 3,2,1/6 3,2,2/6 2,2,2,1/7 5,1/6 3,1,1,1/7 3,2,1,1/6 4,1/7 4,1,1,1/6 4,1,1/6 3,2,2,2/6"),
    ("csp_c", "4,1,1,1/6 4,1/7 4,3,2,2/5 5,4,4,4/5 4,4,2,2/5 4,1,1/6 6,1/5 3,2,1,1/6 6,1,1,1/5 3,1,1/7 4,2,1/5 4,3,3,2/5"),
    ("csp_c", "4,4/5 4,4,3,3/5 2,1,1,1/8 4,2,2,1/5 4,2,1,1/5 4,3,3,2/5 4,3,2,2/5 4,2,2/5 5,2,2,2/5 2,2,2/7 4,2,1/5 5,2/5"),
    ("csp_c", "4,2,1,1/5 6,3,2/4 7,2,2/4 8,1,1/4 6,3,1/4 5,1,1/5 6,5,4/4 4,4,3,3/5 4,2,1/5 6,6,4/4 7,3,3/4 6,2,1/4"),
    ("csp_c", "14/3 13/3 7/4 6/5 8/4 15/3 12/3 11/3 5/5 4/6 7/5 5/6"),
    ("csp_c", "5,1/5 5,5,2/4 11,9/3 5,4/4 12,3/3 12,11/3 6,2,2/4 5,4,3/4 7,1,1/4 5,5,1/4 11,6/3 5,3,1/4"),
    ("csp_c", "4,2,2,2/5 5,5/4 7,1,1/4 3,1,1,1/6 3,1,1/6 2,1,1,1/7 7,1/4 5,4/4 5,5,4/4 5,2,1/4 6,2,2/4 5,5,3/4"),
    ("hyp_c", "8,2,2/4 10,1,1/4 3,2,1/6 4,2/6 16,2/3 14,4/3 14,10/3 6,5,1/4 6,4,2/4 15,3/3 7,7,6/4 4,1,1/6"),
    ("hyp_c", "12,6/3 6,3,3/4 12,9/3 13,2/3 6,5,5/4 6,6,4/4 15,15/3 14,13/3 4,4,4,3/5 13,5/3 3,3/6 6,6/4"),
    ("hyp_c", "6,5,5/4 12,12/3 11,4/3 14,1/3 6,3,3/4 5,5,2/4 11,7/3 12,3/3 6,2/4 7,1/4 5,4,3/4 9,6/3"),
    ("true_c", "24/3 21,21/3 27/3 18,18/3 10/5 21/3 8,8,8/4 12/4 5,5,5,5/5 15,15/3 7/7 6/6"),
    ("hyp_c", "17,4/3 5,2,2,1/5 15,12/3 7,5/4 4,3,2,1/5 5,1/6 4,4,1,1/5 7,1,1,1/5 6,4,2/4 4,3,3/5 19,2/3 10,1,1/4"),
    ("census_pr", "3,2,1/6 3,1,1/7 4,3,3/5 4,3,2/5 4,4,2/5 4,4,1/5 4,3,1/5 3,2,2/6 4,2,1/5 5,1/6 6,1,1/5 5,3/5"),
    ("census_pr", "4,3,1/5 4,4,1,1/5 4,3,2,1/5 5,2,2,1/5 4,4,1/5 4,4,3,2/5 6,2,2,2/5 5,5,5,4/5 3,1,1,1/7 4,4,2/5 3,2,1,1/6 4,3,3/5"),
    ("rect_pr", "2,2,2,2,2/7 24/3 6/6 11/4 18,18/3 22/3 7,7,7/4 21/3 15,15/3 7/5 4,4/5 6,6/4"),
    ("rect_pr", "20,20/3 30/3 14/4 18,18/3 21,21/3 7/6 7,7/4 19,19/3 2,2,2/7 4,4,4/5 2,2,2,2/7 13/4"),
    ("rect_pr", "6/6 7,7/4 9/5 4,4/5 8,8,8/4 12/4 27/3 5/7 6,6/4 3,3/6 26/3 8/5"),
]
HEAVY_SLOTS = 5  # the smoke mode leaves these out


def _pool(text: str) -> list[tuple[tuple[int, ...], int]]:
    return [
        (tuple(int(p) for p in parts.split(",")), int(m))
        for parts, m in (entry.split("/") for entry in text.split())
    ]


class CrystalCensus(Workload):
    name = "crystal-census"

    def slots(self):
        table = CENSUS_SLOTS if self.scale >= 1 else CENSUS_SLOTS[HEAVY_SLOTS:]
        return [self._slot(kind, _pool(pool)) for kind, pool in table]

    def _slot(self, kind, pool):
        # keyed by the census taken, so no crystal is censused twice in a run
        action = "pr" if kind.endswith("_pr") else "c"

        def make(rng):
            lam, m = rng.choice(pool)
            return Op(kind, (action, lam, m), (lam, m))

        return make


# ---------------------------------------------------------------- cli-sweep

# (max size, letter counts): the sweeps of a round, each run through the
# CLI's main in this process with --jobs 1. The orders are the first letter
# count, so every sweep also takes its csp_check, and one order from 7 to 30
# drawn by the seed; the cost hardly depends on which. Four light slots of
# about 30 ms, twelve of 50 to 80 ms and four of about 180 ms, so op_p50_ms
# falls in the middle of the middle cluster and op_p90_ms inside the heavy
# one.
SWEEP_SLOTS = [
    ((5, (3,)), (4, (2, 4)), (5, (2, 3)), (4, (4,))),
    ((5, (4, 2)), (4, (5, 3)), (6, (3, 2)), (5, (4,)), (4, (5, 2)), (4, (5, 4)), (5, (3, 4, 2)), (5, (4, 3)),
     (4, (5,)), (6, (2, 3)), (6, (3,)), (3, (6, 5, 4))),
    ((6, (3, 4)), (6, (4,)), (5, (5, 2)), (5, (5, 3))),
]


class CliSweep(Workload):
    name = "cli-sweep"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        # the A_(m-1) data behind the sweeps' congruences, so that set-up
        # covers the Cartan data this workload uses, as in the others
        self.data = {m: C.build_cartan_datum(f"A{m - 1}") for m in range(2, 7)}

    def slots(self):
        slots = [slot for group in SWEEP_SLOTS for slot in group]
        return [self._slot(*s) for s in (slots[:3] if self.scale < 1 else slots)]

    def _slot(self, max_size, ms):
        def make(rng):
            ns = (ms[0], rng.randint(7, 30))
            argv = ("sweep", "--max-size", str(max_size),
                    "--m", ",".join(map(str, ms)), "--n", ",".join(map(str, ns)))
            return Op("sweep", argv, argv)

        return make


WORKLOADS = {w.name: w for w in (QdimProduct, ResidueSieve, CrystalCensus, CliSweep)}


# ---------------------------------------------------------------- execution

@dataclass(frozen=True)
class Kind:
    """How one kind of operation is run and checked."""

    call: Callable  # (workload, *inputs) -> output; the timed library call
    check: Callable  # (workload, op, output) -> None, or the mismatch found
    prepare: Callable | None = None  # op.args -> inputs, untimed


def _specialization(lam, m, *rest):
    """The principal specialization's coefficients from the benchmark's own
    product, as the input of aa_criterion and eval_root_of_unity."""
    return (P.IntPoly(oracles.product_poly(oracles.schur_exponents(lam, m))), *rest)


def cli_in_process(argv) -> tuple[int, str, str]:
    """Run the CLI's main in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = CLI.main(list(argv))
    return code, out.getvalue(), err.getvalue()


_csp_c = Kind(lambda w, lam, m: S.csp_check(lam, m, "c"), checks.check_csp_c)

KINDS = {
    "qdim": Kind(lambda w, ty, lam: Q.qdim(w.data[ty], lam), checks.check_qdim),
    "qdim_dual": Kind(lambda w, ty, lam: Q.qdim_dual(w.data[ty], lam), checks.check_qdim),
    "spec": Kind(lambda w, lam, m: Q.principal_specialization(lam, m), checks.check_spec),
    "congruence": Kind(
        lambda w, ty, lam, n, dual: Q.congruence(w.data[ty], lam, n, dual), checks.check_congruence
    ),
    "aa": Kind(lambda w, f, n: S.aa_criterion(f, n), checks.check_aa, _specialization),
    "eval": Kind(lambda w, f, n, j: P.eval_root_of_unity(f, n, j), checks.check_eval, _specialization),
    "prime": Kind(lambda w, lam, m, p: S.prime_specialization_criterion(lam, m, p), checks.check_prime),
    "csp_c": _csp_c,
    "hyp_c": _csp_c,
    "true_c": _csp_c,
    "census_pr": Kind(lambda w, lam, m: T.orbit_census(lam, m, "pr"), checks.check_census_pr),
    "rect_pr": Kind(lambda w, lam, m: S.csp_check(lam, m, "pr"), checks.check_rect_pr),
    "sweep": Kind(lambda w, *argv: cli_in_process(argv + ("--jobs", "1")), checks.check_sweep),
}


def prepare(op: Op) -> tuple:
    """The call's inputs, built before the timer starts."""
    kind = KINDS[op.kind]
    return kind.prepare(*op.args) if kind.prepare else op.args


def execute(w: Workload, op: Op, inputs: tuple | None = None):
    """Call the library for one operation and return its output."""
    return KINDS[op.kind].call(w, *(prepare(op) if inputs is None else inputs))


def verify(w: Workload, op: Op, out) -> str | None:
    """None when the output is right, else a one-line description of the mismatch."""
    try:
        return KINDS[op.kind].check(w, op, out)
    except ArithmeticError as exc:  # the oracles disagree among themselves
        return f"oracle error: {exc}"
