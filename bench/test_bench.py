"""Tests of the benchmark itself: the oracles, the smoke mode and the tracer.

Run with ``python -m pytest bench`` from the repository root.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from crystal_sieve.cartan import build_cartan_datum, gl_weight  # noqa: E402
from crystal_sieve.qpoly import IntPoly  # noqa: E402


def result_of(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_worked_example_a2():
    datum = build_cartan_datum("A2")
    coeffs = oracles.product_poly(oracles.weyl_exponents(datum, gl_weight((4,), 3)))
    assert coeffs == [1, 1, 2, 2, 3, 2, 2, 1, 1]
    assert oracles.orbit_counts(oracles.fold(coeffs, 4), 4) == {1: 1, 2: 1, 4: 3}


def test_worked_example_b2():
    datum = build_cartan_datum("B2")
    coeffs = oracles.product_poly(oracles.weyl_exponents(datum, (2, 0)))
    assert oracles.fold(coeffs, 2) == [10, 4]
    assert oracles.orbit_counts([10, 4], 2) == {1: 6, 2: 4}


def test_hook_content_and_roots():
    assert oracles.hook_content((6, 3, 3), 6) == 28875
    assert oracles.hook_content((1, 1, 1, 1), 3) == 0
    assert oracles.check_datum(build_cartan_datum("E8"), "E", 8) is None
    assert oracles.root_table("G", 2) == (6, 5)


def test_values_at_roots_are_exact():
    # 1 + q + ... + q^3 vanishes at the nontrivial 4th roots of unity
    values = oracles.values_at_roots([1, 1, 1, 1], 4, range(1, 5))
    assert [values[j] for j in range(1, 5)] == [0, 0, 0, 4]
    assert oracles.values_at_roots([1, 1], 5, [1]) == {1: None}
    # a large value at 1 keeps all its digits
    assert oracles.values_at_roots([10**30, 1], 3, [3]) == {3: 10**30 + 1}


def test_one_altered_coefficient_is_caught():
    w = workloads.QdimProduct(seed=1, scale=0.2)
    op = w.next_round()[0]
    out = workloads.execute(w, op)
    assert workloads.verify(w, op, out) is None
    coeffs = list(out.coeffs)
    coeffs[len(coeffs) // 2] += 1
    assert workloads.verify(w, op, IntPoly(coeffs)) is not None


def test_altered_report_fields_are_caught():
    w = workloads.CrystalCensus(seed=1, scale=0.2)
    one_row = workloads.Op("true_c", ("c", (6,), 3), ((6,), 3))
    report = workloads.execute(w, one_row)
    assert workloads.verify(w, one_row, report) is None and report.predicted_a
    a = dict(report.predicted_a)
    a[1] += 1
    assert workloads.verify(w, one_row, dataclasses.replace(report, predicted_a=a)) is not None
    rect = workloads.Op("rect_pr", ("pr", (2, 2), 4), ((2, 2), 4))
    report = workloads.execute(w, rect)
    assert workloads.verify(w, rect, report) is None
    assert workloads.verify(w, rect, dataclasses.replace(report, n=2 * report.n)) is not None


def test_altered_output_counts_as_failed(monkeypatch):
    w = workloads.ResidueSieve(seed=3, scale=0.2)
    r = run.Run(w)
    ops = w.next_round()
    congruence_op = next(op for op in ops if op.kind == "congruence")
    real = workloads.execute

    def one_wrong(wl, op, inputs):
        out = real(wl, op, inputs)
        if op is congruence_op:
            coeffs = list(out.residue.coeffs)
            coeffs[0] += 1
            out = type(out)(out.n, out.b, out.a, IntPoly(coeffs), out.dual)
        return out

    monkeypatch.setattr(workloads, "execute", one_wrong)
    r.round(ops)
    assert (r.attempted, r.failed, r.correct) == (len(ops), 1, False)


def test_smoke_runs_are_correct(capsys):
    for name in workloads.WORKLOADS:
        result = result_of(capsys, "--workload", name, "--seed", "2", "--smoke")
        assert result["correct"] and result["failed"] == 0, name
        assert set(result["metrics"]) == {"setup_s", "wall_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}


def test_traced_counts_repeat():
    # fresh processes, as the library's caches would carry counts over
    counts = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "residue-sieve", "--seed", "5", "--smoke", "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"]
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["qdim.congruence.calls"] > 0 and counts[0]["qpoly.mul.coeff_products"] > 0


def test_tracer_restores_the_library():
    import crystal_sieve.csp as csp
    from crystal_sieve import tableaux

    before = (csp.orbit_census, tableaux.ACTIONS["c"], IntPoly.__mul__)
    import tracer

    t = tracer.Tracer().install()
    assert csp.orbit_census is not before[0] and tableaux.ACTIONS["c"] is not before[1]
    t.uninstall()
    assert (csp.orbit_census, tableaux.ACTIONS["c"], IntPoly.__mul__) == before


def test_refuses_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "qdim-product", "--smoke"]) == 2
