"""Benchmark for crystal-sieve: one workload, one seed, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: qdim-product, residue-sieve, crystal-census, cli-sweep (see
README.md). The run repeats whole rounds of seeded operations until S seconds
have passed and at least MIN_OPS operations were timed, checks every output
against bench/oracles.py, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
does TRACE_ROUNDS rounds with spans around the library's public functions
and reports per-layer calls, self times and work counts; spans go to
bench/out/. ``--smoke`` does one small round, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # enough operations for a 90th percentile with 10 beyond it
MAX_SECONDS = 150  # stop starting rounds here even below MIN_OPS
SETUP_PROBES = 9  # set-up samples per run, one between rounds, the rest at the end
TRACE_ROUNDS = 2
SMOKE_SCALE = 0.2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports crystal_sieve, builds
    the workload's Cartan data and generates its first round."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.decode()[-500:]}")
    return elapsed


class Run:
    """Timed rounds of one workload with every output checked."""

    def __init__(self, workload):
        import mpmath  # noqa: F401  used by the checks; imported here so the RSS at rest includes it
        import workloads

        self.w = workload
        self.workloads = workloads
        self.attempted = self.failed = 0
        self.correct = True
        self.op_seconds: list[float] = []
        self.round_seconds: list[float] = []
        self.sweep_cells = 0
        self.problems: list[str] = []
        self.rest_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def round(self, ops) -> None:
        """Time each operation, then check its output and drop it before the
        next one starts, so outputs do not pile up in the RSS."""
        spent = 0.0
        for op in ops:
            self.attempted += 1
            inputs = self.workloads.prepare(op)
            t0 = time.perf_counter()
            try:
                out, err = self.workloads.execute(self.w, op, inputs), None
            except Exception as exc:  # a raising call is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            self.op_seconds.append(elapsed)
            spent += elapsed
            if err is None:
                err = self.workloads.verify(self.w, op, out)
                if err is not None:
                    self.correct = False
                elif op.kind == "sweep":
                    self.sweep_cells += out[1].count("\n") - 1
            del out
            if err is not None:
                self.failed += 1
                self.problems.append(f"{op.key}: {err}")
        self.round_seconds.append(spent)


def end_to_end(run: Run, setup_s: float) -> dict:
    ops = run.op_seconds
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.fmean(run.round_seconds), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ops) * 1000, "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ops, n=10)[-1] * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
    }


def per_layer(run: Run, tracer) -> dict:
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    hits, misses = tracer.cyclotomic_cache()
    censuses = calls["tableaux.census"]
    distinct = sum(1 for k in counts if isinstance(k, tuple) and k[0] == "census")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in ("qpoly.mul", "qpoly.rem_mod", "qpoly.eval_root", "cartan.build", "qdim.product",
                  "qdim.congruence", "tableaux.enumerate", "tableaux.action", "tableaux.census",
                  "csp.check", "csp.aa"):
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.self_s", self_s[layer], "s")
    put("qpoly.mul.coeff_products", counts["qpoly.mul.coeff_products"], "count")
    put("qpoly.cyclotomic.hits", hits, "count")
    put("qpoly.cyclotomic.misses", misses, "count")
    put("qpoly.cyclotomic.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    put("qpoly.cyclotomic.self_s", self_s["qpoly.cyclotomic"], "s")
    put("cartan.positive_roots", counts["cartan.positive_roots"], "count")
    put("qdim.out_degree", counts["qdim.out_degree"], "count")
    put("qdim.out_coeff_bits", counts["qdim.out_coeff_bits"], "count")
    put("tableaux.enumerated", counts["tableaux.enumerated"], "count")
    put("tableaux.orbits", counts["tableaux.orbits"], "count")
    put("tableaux.census.distinct_ratio", distinct / censuses if censuses else 0.0, "ratio")
    put("csp.exponents", counts["csp.exponents"], "count")
    put("partitions.generated", counts["partitions.generated"], "count")
    put("partitions.self_s", self_s["partitions"], "s")
    put("cli.invocations", calls["cli.main"], "count")
    put("cli.main.self_s", self_s["cli.main"], "s")
    put("cli.sweep.cells", run.sweep_cells, "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one small round, no set-up probes")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "crystal_sieve" / "__init__.py").is_file():
        print(f"error: no crystal_sieve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
    try:
        import workloads

        cls = workloads.WORKLOADS.get(args.workload)
        if cls is None:
            print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = cls(args.seed, SMOKE_SCALE if args.smoke else 1.0)
        if args.setup_probe:
            workload.next_round()
            return 0
        probes = 0 if args.smoke or args.trace else SETUP_PROBES
        setup_samples: list[float] = []
        run = Run(workload)
        started = time.perf_counter()
        while True:
            try:
                ops = workload.next_round()
            except workloads.Exhausted:
                break
            run.round(ops)
            if len(setup_samples) < probes:
                setup_samples.append(setup_probe(args.workload, args.seed))
            elapsed = time.perf_counter() - started
            if args.smoke or (args.trace and len(run.round_seconds) >= TRACE_ROUNDS):
                break
            if not args.trace and elapsed >= args.seconds and (len(run.op_seconds) >= MIN_OPS or elapsed >= MAX_SECONDS):
                break
        while len(setup_samples) < probes:
            setup_samples.append(setup_probe(args.workload, args.seed))
    finally:
        if tracer is not None:
            tracer.uninstall()

    print(f"{args.workload} seed {args.seed}: {len(run.round_seconds)} rounds, {run.attempted} operations, "
          f"{time.perf_counter() - started:.1f} s, RSS at rest {run.rest_rss_kib / 1024:.1f} MiB", file=sys.stderr)
    for line in run.problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        tracer.write(stem.with_suffix(".spans.tsv"))
        stem.with_suffix(".trace.json").write_text(json.dumps({
            "traced_round_wall_s": run.round_seconds,
            "counts": {k: v for k, v in tracer.counts.items() if isinstance(k, str)},
        }, indent=1))
        metrics = per_layer(run, tracer)
    else:
        metrics = end_to_end(run, statistics.median(setup_samples) if setup_samples else 0.0)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
