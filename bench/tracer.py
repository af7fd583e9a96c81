"""Spans around the public functions of crystal_sieve, installed from outside.

``Tracer.install()`` replaces each traced function by a wrapper wherever it
is bound: in its own module, in every crystal_sieve module that imported it,
in module-level dicts such as ``tableaux.ACTIONS``, and on ``IntPoly`` for
multiplication. ``uninstall()`` puts the originals back. Each call records
its layer, start, end and parent span in flat arrays; self times and counts
are derived from them after the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# the package namespace rebinds some submodule names to functions (qdim), so
# the modules are fetched by their full names
C = importlib.import_module("crystal_sieve.cartan")
CLI = importlib.import_module("crystal_sieve.cli")
S = importlib.import_module("crystal_sieve.csp")
PA = importlib.import_module("crystal_sieve.partitions")
Q = importlib.import_module("crystal_sieve.qdim")
P = importlib.import_module("crystal_sieve.qpoly")
T = importlib.import_module("crystal_sieve.tableaux")


# Count hooks: called with the tracer, the call's arguments and its result.

def _mul_products(tracer, args, kwargs, result):
    a, b = args
    other = len(b.coeffs) if isinstance(b, P.IntPoly) else 1
    tracer.counts["qpoly.mul.coeff_products"] += len(a.coeffs) * other


def _qdim_out(tracer, args, kwargs, result):
    tracer.counts["qdim.out_degree"] += result.degree
    tracer.counts["qdim.out_coeff_bits"] += max((abs(c).bit_length() for c in result.coeffs), default=0)


def _census(tracer, args, kwargs, result):
    tracer.counts["tableaux.orbits"] += sum(result.by_size.values())
    action = args[2] if len(args) > 2 else kwargs.get("action", "c")
    # distinct within one CLI invocation, the unit a user runs as one process
    outer = tracer.stack[0] if tracer.stack else -1
    scope = outer if outer >= 0 and LAYERS[tracer.layer[outer]] == "cli.main" else -1
    tracer.counts[("census", scope, tuple(args[0]), args[1], action)] += 1


def _exponents_check(tracer, args, kwargs, result):
    tracer.counts["csp.exponents"] += len(result.per_exponent)


def _exponents_aa(tracer, args, kwargs, result):
    tracer.counts["csp.exponents"] += len(result.values)


def _enumerated(tracer, args, kwargs, result):
    tracer.counts["tableaux.enumerated"] += len(result)


def _build(tracer, args, kwargs, result):
    key = ("built", str(result.cartan_type))
    if not tracer.counts[key]:
        tracer.counts["cartan.positive_roots"] += len(result.positive_roots)
    tracer.counts[key] += 1


# (layer, module, attribute, count hook); generators are marked by layer
# "partitions", whose spans cover each resumption
TRACED = [
    ("qpoly.mul", P.IntPoly, "__mul__", _mul_products),
    ("qpoly.mul", P.IntPoly, "__rmul__", _mul_products),
    ("qpoly.rem_mod", P, "rem_mod", None),
    ("qpoly.eval_root", P, "eval_root_of_unity", None),
    ("qpoly.cyclotomic", P, "cyclotomic", None),
    ("cartan.build", C, "build_cartan_datum", _build),
    ("qdim.product", Q, "qdim", _qdim_out),
    ("qdim.product", Q, "qdim_dual", _qdim_out),
    ("qdim.product", Q, "principal_specialization", _qdim_out),
    ("qdim.congruence", Q, "congruence", None),
    ("partitions", PA, "partitions_of", None),
    ("partitions", PA, "partitions_up_to", None),
    ("tableaux.enumerate", T, "enumerate_ssyt", _enumerated),
    ("tableaux.action", T, "c_action", None),
    ("tableaux.action", T, "promotion", None),
    ("tableaux.census", T, "orbit_census", _census),
    ("csp.check", S, "csp_check", _exponents_check),
    ("csp.aa", S, "aa_criterion", _exponents_aa),
    ("cli.main", CLI, "main", None),
]

LAYERS = sorted({layer for layer, *_ in TRACED})


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []
        self._cyclotomic = P.cyclotomic
        self._cyclo0 = P.cyclotomic.cache_info()

    # ---------------------------------------------------------- wrapping

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.layer.append(lid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer: str, fn, hook):
        lid = LAYERS.index(layer)
        counts = self.counts

        if layer == "partitions":
            generating = fn.__name__ == "partitions_of"

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    i = self._open(lid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    if generating:
                        counts["partitions.generated"] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            i = self._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "crystal_sieve" or name.startswith("crystal_sieve.")
        ]
        for layer, owner, attr, hook in TRACED:
            orig = owner.__dict__[attr]
            new = self._wrap(layer, orig, hook)
            if isinstance(owner, type):
                self._set(owner, attr, new)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, new)
                    elif isinstance(value, dict):
                        for key, v in list(value.items()):
                            if v is orig:
                                self._undo.append((value, key, v, True))
                                value[key] = new
        return self

    def _set(self, obj, name, new) -> None:
        self._undo.append((obj, name, getattr(obj, name), False))
        setattr(obj, name, new)

    def uninstall(self) -> None:
        for obj, name, old, is_dict in reversed(self._undo):
            if is_dict:
                obj[name] = old
            else:
                setattr(obj, name, old)
        self._undo.clear()

    # ----------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the durations of their children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            out[LAYERS[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def calls(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for lid in self.layer:
            out[LAYERS[lid]] += 1
        return out

    def cyclotomic_cache(self) -> tuple[int, int]:
        now = self._cyclotomic.cache_info()
        return now.hits - self._cyclo0.hits, now.misses - self._cyclo0.misses

    def write(self, path) -> None:
        """One line per span: index, parent, layer, start, end (seconds)."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{LAYERS[self.layer[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
