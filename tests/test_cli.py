"""Command-line surface: argument handling, output formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import crystal_sieve
from crystal_sieve.cli import main


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_process(args, env):
    """The CLI as a separate process, so argparse exits and environment
    variables are seen exactly as a user would see them."""
    src = str(pathlib.Path(crystal_sieve.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "crystal_sieve", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=60,
    )


class TestRoots:
    def test_b2_listing(self):
        code, out, _ = run_cli("roots", "B2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "4 positive roots of B2"
        assert [l.split()[0] for l in lines[1:]] == ["(1,0)", "(0,1)", "(1,1)", "(1,2)"]
        assert "(beta,rho) 4" in lines[4]

    def test_json_format(self):
        code, out, _ = run_cli("roots", "A2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [r["root"] for r in data["positive_roots"]] == [[1, 0], [0, 1], [1, 1]]
        assert data["type"] == "A2"

    def test_csv_format(self):
        code, out, _ = run_cli("roots", "A1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "root"
        assert len(rows) == 2

    def test_unknown_type_exits_2(self):
        code, _, err = run_cli("roots", "Z9")
        assert code == 2
        assert "Z9" in err


class TestQdim:
    def test_plain_with_mod(self):
        code, out, _ = run_cli("qdim", "B2", "2,0", "--mod", "2")
        assert code == 0
        assert "residue mod q^2-1 = 10 + 4*q" in out
        assert "a = a_1=6, a_2=4" in out
        assert "dim  = 14" in out

    def test_dual(self):
        code, out, _ = run_cli("qdim", "B2", "2,0", "--dual", "--mod", "2")
        assert code == 0
        assert "residue mod q^2-1 = 8 + 6*q" in out
        assert "a_1=2, a_2=6" in out

    def test_json(self):
        code, out, _ = run_cli("qdim", "A2", "4,0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == "15"
        assert data["qdim"] == ["1", "1", "2", "2", "3", "2", "2", "1", "1"]

    def test_weight_arity_checked(self):
        code, _, err = run_cli("qdim", "A2", "1,2,3")
        assert code == 2
        assert "weight" in err or "coordinates" in err

    def test_condition_violation_exits_3(self):
        code, _, err = run_cli("qdim", "A2", "4,0", "--mod", "3")
        assert code == 3
        assert err


class TestSpecialize:
    def test_plain(self):
        code, out, _ = run_cli("specialize", "2,1", "-m", "3")
        assert code == 0
        assert "poly = 1 + 2*q + 2*q^2 + 2*q^3 + q^4" in out
        assert "kappa = 1" in out
        assert "dim = 8" in out

    def test_empty_partition_spellings(self):
        for spelling in ("0", "-"):
            code, out, _ = run_cli("specialize", spelling, "-m", "2")
            assert code == 0
            assert "dim = 1" in out

    def test_bad_partition(self):
        code, _, err = run_cli("specialize", "1,2", "-m", "3")
        assert code == 2
        assert err


class TestCongruence:
    def test_json_schema(self):
        code, out, _ = run_cli("congruence", "A2", "4,0", "-n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4
        assert data["dual"] is False
        assert data["b"] == {"1": "1", "2": "3", "4": "15"}
        assert data["a"] == {"1": "1", "2": "1", "4": "3"}
        assert data["residue"] == ["5", "3", "4", "3"]

    def test_condition_violated_exits_3(self):
        code, _, err = run_cli("congruence", "A2", "4,0", "-n", "3")
        assert code == 3
        assert err


class TestCrystal:
    def test_orbits(self):
        code, out, _ = run_cli("crystal", "2,1", "orbits", "-m", "3")
        assert code == 0
        assert "2 orbit(s) of size 1, 2 orbit(s) of size 3 (8 tableaux)" in out

    def test_fixed_json(self):
        code, out, _ = run_cli("crystal", "3", "fixed", "-m", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"count": 1, "tableaux": ["1,2,3"]}

    def test_csp_table(self):
        code, out, _ = run_cli("crystal", "3,3", "csp", "-m", "3", "--table")
        assert code == 0
        assert "verdict: CSP holds" in out
        assert "predicted a: a_1=1, a_3=3" in out

    def test_csp_failure_is_exit_zero(self):
        code, out, _ = run_cli("crystal", "2,1", "csp", "-m", "3")
        assert code == 0
        assert "CSP fails" in out

    def test_promotion_action(self):
        code, out, _ = run_cli("crystal", "2,2", "orbits", "-m", "3", "--action", "pr")
        assert code == 0
        assert "2 orbit(s) of size 3" in out

    def test_enumeration_cap_exits_4(self, monkeypatch):
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "5")
        code, _, err = run_cli("crystal", "8", "orbits", "-m", "4")
        assert code == 4
        assert err

    def test_cap_message_names_input_and_limit(self):
        proc = run_process(["crystal", "8", "orbits", "-m", "4"], {"CRYSTAL_SIEVE_MAX_ENUM": "10"})
        assert proc.returncode == 4
        assert "(8,)" in proc.stderr and "10" in proc.stderr
        assert "CRYSTAL_SIEVE_MAX_ENUM" in proc.stderr


class TestCspCheck:
    def test_custom_polynomial(self):
        code, out, _ = run_cli("csp-check", "2", "-m", "2", "--f", "1+q+q^2")
        assert code == 0
        assert "CSP holds" in out

    def test_json_verdict(self):
        code, out, _ = run_cli("csp-check", "2,1", "-m", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] is False
        assert data["nonrational"] is True

    def test_order_override(self):
        code, out, _ = run_cli("csp-check", "2", "-m", "2", "-n", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_order_not_a_multiple_of_the_action_order(self):
        # c has order 3 on the one-row shape (3) with 3 letters, so at n = 4
        # the power j = 3 is the identity and j = 4 is c itself
        code, out, _ = run_cli("csp-check", "3", "-m", "3", "-n", "4", "--table")
        assert code == 0
        fixed = {int(row.split()[0]): int(row.split()[1]) for row in out.splitlines()[4:]}
        assert fixed == {1: 1, 2: 1, 3: 10, 4: 1}

    def test_bad_polynomial_exits_2(self):
        code, _, err = run_cli("csp-check", "2", "-m", "2", "--f", "2**q")
        assert code == 2
        assert err


class TestAaCheck:
    def test_plain(self):
        code, out, _ = run_cli("aa-check", "1+q+q^2+q^3", "-n", "4")
        assert code == 0
        assert "exists: yes" in out
        assert "0, 0, 0, 4" in out

    def test_json_array_input(self):
        code, out, _ = run_cli("aa-check", "[3, -1]", "-n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["exists"] is False
        assert data["failures"] == [2]


class TestOrbitFormula:
    def test_value(self):
        code, out, _ = run_cli("orbit-formula", "2", "3")
        assert code == 0
        assert out.strip() == "9"

    def test_invalid_exits_2(self):
        code, _, err = run_cli("orbit-formula", "-1", "2")
        assert code == 2 and err


class TestSweep:
    def test_header_and_verdicts(self):
        code, out, _ = run_cli("sweep", "--max-size", "3", "--m", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == [
            "partition", "m", "n", "size", "stretched", "aa_exists", "csp_c", "census", "a",
        ]
        by_shape = {r["partition"]: r for r in rows}
        assert by_shape["3"]["csp_c"] == "True"
        assert by_shape["3"]["stretched"] == "True"
        assert by_shape["3"]["a"] == "1:1;3:3"
        assert by_shape["2,1"]["csp_c"] == "False"
        assert by_shape["2,1"]["aa_exists"] == "False"
        assert by_shape["2,1"]["a"] == ""

    def test_explicit_orders(self):
        code, out, _ = run_cli("sweep", "--max-size", "2", "--m", "2", "--n", "2,4")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["n"] for r in rows} == {"2", "4"}
        # csp verdict under c is only defined at the native order n = m
        for r in rows:
            if r["n"] == "4":
                assert r["csp_c"] == ""

    def test_parallel_jobs_match_serial(self):
        _, serial, _ = run_cli("sweep", "--max-size", "4", "--m", "2,3")
        _, parallel, _ = run_cli("sweep", "--max-size", "4", "--m", "2,3", "--jobs", "2")
        assert serial == parallel

    def test_one_census_per_shape_and_letter_count(self, monkeypatch):
        # 34 shapes (lam, m), each censused once whatever the number of orders
        import crystal_sieve.cli as cli
        import crystal_sieve.csp as csp

        calls = []

        def counted(real):
            def census(*args, **kwargs):
                calls.append(args[:2])
                return real(*args, **kwargs)

            return census

        monkeypatch.setattr(cli, "orbit_census", counted(cli.orbit_census))
        monkeypatch.setattr(csp, "orbit_census", counted(csp.orbit_census))
        code, out, _ = run_cli("sweep", "--max-size", "5", "--m", "3,4", "--n", "3,4,6")
        assert code == 0
        assert len(calls) == len(set(calls)) == 34
        assert len(out.strip().splitlines()) == 1 + 3 * 34


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


class TestExitCodes:
    """Malformed input ends with a usage (2) or domain (3) exit, never a
    traceback."""

    @pytest.mark.parametrize(
        "args, env",
        [
            (["aa-check", "1+q", "-n", "0"], {}),
            (["congruence", "A2", "1,1", "-n", "0"], {}),
            (["qdim", "G2", "1,1", "--mod", "0"], {}),
            (["csp-check", "2", "-m", "2", "-n", "0"], {}),
            (["crystal", "3", "orbits", "-m", "1"], {}),
            (["sweep", "--m", "x"], {}),
            (["crystal", "2", "orbits", "-m", "2"], {"CRYSTAL_SIEVE_MAX_ENUM": "abc"}),
        ],
    )
    def test_malformed_input(self, args, env):
        proc = run_process(args, env)
        assert proc.returncode in (2, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr
        for name in env:
            assert name in proc.stderr
