"""Command-line surface: argument handling, output formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crystal_sieve
from crystal_sieve.cli import build_parser, main
from crystal_sieve.errors import ConditionViolated, InternalError, InvalidRank, ResourceLimit
from crystal_sieve.qpoly import ONE

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def run_argv(argv, env=None):
    """As run_cli, with env set and an argparse exit read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def process_env(env):
    src = str(pathlib.Path(crystal_sieve.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def run_process(args, env):
    """The CLI as a separate process, so argparse exits and environment
    variables are seen exactly as a user would see them."""
    return subprocess.run(
        [sys.executable, "-m", "crystal_sieve", *args],
        capture_output=True,
        text=True,
        env=process_env(env),
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

    def test_orbits_on_many_letters_walk_nothing(self):
        # no content of one box on 20,000 letters is periodic, so nothing is
        # stored per tableau; a full walk would hold about 4e8 row ids
        start = time.perf_counter()
        code, out, _ = run_cli("crystal", "1", "orbits", "-m", "20000")
        assert code == 0
        assert "1 orbit(s) of size 20000 (20000 tableaux)" in out
        assert time.perf_counter() - start < 5

    def test_orbits_of_an_empty_crystal(self):
        # three rows do not fit into two letters: no tableaux, no orbits
        assert run_cli("crystal", "1,1,1", "orbits", "-m", "2") == (0, "empty crystal (0 tableaux)\n", "")

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

    @pytest.mark.parametrize("value", ["-1", "-5"])
    def test_negative_cap_is_usage_error(self, monkeypatch, value):
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", value)
        code, out, err = run_cli("crystal", "4,4", "fixed", "-m", "4")
        assert code == 2 and not out
        assert f"CRYSTAL_SIEVE_MAX_ENUM='{value}' is negative" in err

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

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integers of any length to text",
    )
    @pytest.mark.parametrize("d", ["7200", "20160"])
    def test_count_past_the_digit_limit_exits_4(self, d):
        # the count at d = 7,200 has 4,329 decimal digits, at 7,100 4,269
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli("orbit-formula", "1", d)
        assert code == 4 and not out
        assert err == (
            f"error: orbit count for a = 1, d = {d} has more decimal digits than "
            f"the integer string limit {limit}\n"
        )
        assert run_cli("orbit-formula", "1", "7100")[0] == 0


class TestRankCap:
    @pytest.mark.parametrize("argv", [["qdim", "A100", "1,1"], ["roots", "C80"], ["congruence", "B65", "1", "-n", "2"]])
    def test_rank_above_the_cap_exits_4_at_once(self, argv):
        start = time.perf_counter()
        code, out, err = run_cli(*argv)
        assert time.perf_counter() - start < 1
        assert code == 4 and not out
        assert f"error: {argv[1]}: rank {argv[1][1:]} is above the rank cap 64" in err


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

    def test_max_size(self):
        # 0 lists the empty shape only; a negative size is malformed input
        code, out, _ = run_cli("sweep", "--max-size", "0", "--m", "2")
        assert code == 0
        assert [r["partition"] for r in csv.DictReader(io.StringIO(out))] == ["0"]
        code, out, err = run_argv(["sweep", "--max-size", "-1", "--m", "2"])
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --max-size: '-1' is not a nonnegative integer\n")

    def test_one_letter(self):
        # the two-letter rule of the cycle operator, read where c is
        assert run_cli("sweep", "--m", "3,1") == (
            2, "", "error: the cycle operator and promotion need at least two letters\n"
        )

    def test_parallel_jobs_match_serial(self):
        _, serial, _ = run_cli("sweep", "--max-size", "4", "--m", "2,3")
        _, parallel, _ = run_cli("sweep", "--max-size", "4", "--m", "2,3", "--jobs", "2")
        assert serial == parallel

    def test_pool_never_outgrows_the_cpus(self, monkeypatch):
        # a stand-in pool that starts no process: it records its size and
        # maps in this process
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        argv = ["sweep", "--max-size", "4", "--m", "2,3"]
        code, pooled, _ = run_cli(*argv, "--jobs", "100000")
        assert code == 0 and len(sizes) == 1
        assert 1 <= sizes[0] <= (os.cpu_count() or 1)
        assert pooled == run_cli(*argv)[1]

    def test_import_leaves_the_process_pool_out(self):
        # only sweep --jobs N with N > 1 needs the pool, so importing the
        # CLI must not pay for multiprocessing
        probe = (
            "import sys, crystal_sieve.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=process_env({}),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        # the runtime is pure standard library: every module loaded is
        # stdlib, the package or the script; -S keeps the interpreter's site
        # hooks, and with them site-packages, out of the process
        probe = (
            "import sys, crystal_sieve.cli; "
            "print(sorted(name for name in sys.modules if name.partition('.')[0] "
            "not in sys.stdlib_module_names | {'crystal_sieve', '__main__'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env=process_env({}),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_one_census_per_shape_and_letter_count(self, monkeypatch):
        # 34 shapes (lam, m), each censused once whatever the number of
        # orders; the sweep cell calls the census body past orbit_census's
        # checks, so the body is counted wherever it is called from
        import crystal_sieve.cli as cli
        import crystal_sieve.tableaux as tableaux

        calls = []

        def counted(real):
            def census(*args, **kwargs):
                calls.append(args[:2])
                return real(*args, **kwargs)

            return census

        monkeypatch.setattr(cli, "_orbit_census", counted(cli._orbit_census))
        monkeypatch.setattr(tableaux, "_orbit_census", counted(tableaux._orbit_census))
        code, out, _ = run_cli("sweep", "--max-size", "5", "--m", "3,4", "--n", "3,4,6")
        assert code == 0
        assert len(calls) == len(set(calls)) == 34
        assert len(out.strip().splitlines()) == 1 + 3 * 34

    def test_one_orbit_count_per_weight_and_order(self, monkeypatch):
        # 16 (lam, m, n) with every padded difference divisible by n, each
        # with its orbit counts. No residue is taken.
        import crystal_sieve.cli as cli
        import crystal_sieve.qdim as qdim

        residues = []

        def counted(real, log):
            def wrapped(datum, weight, n, *args, **kwargs):
                log.append((datum.rank, weight, n))
                return real(datum, weight, n, *args, **kwargs)

            return wrapped

        argv = ["sweep", "--max-size", "5", "--m", "3,4", "--n", "3,4,6"]
        _, parallel, _ = run_cli(*argv, "--jobs", "2")
        for module in (cli, qdim):
            monkeypatch.setattr(module, "congruence", counted(module.congruence, residues))
        code, serial, _ = run_cli(*argv)
        assert code == 0
        assert residues == []
        stretched = [r for r in csv.DictReader(io.StringIO(serial)) if r["stretched"] == "True"]
        assert len(stretched) == 16 and all(r["a"] for r in stretched)
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sweep_5_m34_n346.csv", ["--max-size", "5", "--m", "3,4", "--n", "3,4,6"]),
            ("sweep_6_m2345.csv", ["--max-size", "6", "--m", "2,3,4,5"]),
            ("sweep_8_m3456.csv", ["--max-size", "8", "--m", "3,4,5,6"]),
        ],
    )
    def test_matches_golden_csv(self, name, argv, jobs):
        # frozen output of `crystal-sieve sweep ARGV > tests/data/NAME`; any
        # change to the sweep must reproduce it byte for byte
        code, out, _ = run_cli("sweep", *argv, "--jobs", jobs)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes()

    def test_census_is_checked_against_the_prediction(self, monkeypatch):
        # a cell at n = m checks the paper's identity as csp_check does:
        # counts that miss the census of a crystal that sieves are a bug
        from crystal_sieve import cli
        from crystal_sieve.qpoly import divisors

        monkeypatch.setattr(cli, "_predicted_orbit_counts", lambda lam, m, n, nums, dens: dict.fromkeys(divisors(n), 0))
        assert run_cli("sweep", "--max-size", "3", "--m", "3") == (
            5, "", "internal error: census comparison (False) disagrees with the sieving verdict (True)\n"
        )

    def test_csp_c_is_the_csp_check_verdict(self):
        # one sieving rule serves the sweep and csp_check
        from crystal_sieve.csp import csp_check

        with open(DATA / "sweep_8_m3456.csv", newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["n"] == r["m"]]
        assert len(rows) == 218
        for r in rows:
            lam = () if r["partition"] == "0" else tuple(map(int, r["partition"].split(",")))
            assert r["csp_c"] == str(csp_check(lam, int(r["m"])).verdict)

    def test_enumeration_cap_stops_the_sweep(self, monkeypatch):
        # (1,) on 3 letters has 3 tableaux and (2,) has 6, the first above
        # the cap; no row is written before every cell is computed
        monkeypatch.setenv("CRYSTAL_SIEVE_MAX_ENUM", "5")
        assert run_cli("sweep", "--max-size", "3", "--m", "3") == (
            4, "", "error: 6 tableaux of shape (2,) on 3 letters exceed the cap 5 set by CRYSTAL_SIEVE_MAX_ENUM\n"
        )


class TestDegreeCap:
    def test_huge_weight_exits_4_at_once(self):
        start = time.perf_counter()
        code, out, err = run_cli("qdim", "A1", "1000000000")
        assert time.perf_counter() - start < 1
        assert code == 4 and not out
        assert "A1" in err and "(1000000000,)" in err and "degree cap 100000" in err

    @pytest.mark.parametrize(
        "argv", [["aa-check", "q^200000", "-n", "2"], ["csp-check", "2", "-m", "2", "--f", "q^200000"]]
    )
    def test_polynomial_input_is_capped(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 4 and not out
        assert "'q^200000' has degree 200000" in err and "degree cap 100000" in err

    def test_huge_weight_as_a_process(self):
        proc = run_process(["qdim", "A1", "1000000000"], {})
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr and "degree cap" in proc.stderr


class TestOrderCap:
    def test_huge_order_exits_4_at_once(self):
        start = time.perf_counter()
        proc = run_process(["aa-check", "1+q", "-n", "1000001"], {})
        assert time.perf_counter() - start < 1
        assert proc.returncode == 4 and not proc.stdout
        assert "Traceback" not in proc.stderr
        assert "1 + q" in proc.stderr and "1000001" in proc.stderr and "order cap 1000000" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["csp-check", "2,1", "-m", "3", "-n", "1000001"],
            ["qdim", "A1", "2", "--mod", "1000001"],
            ["congruence", "A1", "2", "-n", "1000001"],
            ["sweep", "--max-size", "2", "--m", "2", "--n", "1000001"],
        ],
    )
    def test_every_order_argument_is_capped(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 4 and not out
        assert "1000001" in err and "order cap 1000000" in err


class TestLetterCap:
    HUGE = "99999999999999999999"

    @pytest.mark.parametrize(
        "argv, shape",
        [
            (["crystal", "1", "orbits", "-m", HUGE], "(1,)"),
            (["crystal", "1", "csp", "-m", HUGE], "(1,)"),
            (["crystal", "0", "fixed", "-m", HUGE], "()"),
            (["csp-check", "2,1", "-m", HUGE], "(2, 1)"),
            (["specialize", "2,1,1", "-m", HUGE], "(2, 1, 1)"),
            (["sweep", "--max-size", "1", "--m", HUGE], "()"),
        ],
    )
    def test_every_letter_count_is_capped(self, argv, shape):
        code, out, err = run_cli(*argv)
        assert code == 4 and not out
        assert err == f"error: shape {shape} on {self.HUGE} letters: above the letter cap 100000\n"

    def test_huge_orbit_formula_order_exits_4_at_once(self):
        start = time.perf_counter()
        code, out, err = run_cli("orbit-formula", "2", self.HUGE)
        assert time.perf_counter() - start < 1
        assert code == 4 and not out
        assert f"order n = {self.HUGE}: above the order cap 1000000" in err


def readme_transcripts():
    """(command, printed lines) for each ``$ crystal-sieve`` line in the
    README's Command line block; blank lines end a transcript."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```\n")[1]
    transcripts = []
    for line in block.splitlines():
        if line.startswith("$ "):
            transcripts.append((line[2:], []))
        elif line:
            transcripts[-1][1].append(line)
    return transcripts


class TestReadme:
    TRANSCRIPTS = readme_transcripts()

    def test_every_transcript_is_found(self):
        assert len(self.TRANSCRIPTS) == 5

    @pytest.mark.parametrize("command, lines", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
    def test_transcript_is_what_the_command_prints(self, command, lines):
        command, _, pipe = command.partition(" | ")
        program, *argv = shlex.split(command)
        assert program == "crystal-sieve"
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        printed = out.splitlines()
        if pipe:
            head, count = shlex.split(pipe)
            assert head == "head"
            printed = printed[: int(count.removeprefix("-"))]
        assert printed == lines


class TestTopLevel:
    def test_a_module_path_binds_the_module(self):
        # the package binds no name of its own over a submodule's
        import crystal_sieve.qdim as Q

        assert Q is sys.modules["crystal_sieve.qdim"]

    def test_a_module_loads_only_what_it_imports(self):
        probe = (
            "import sys, crystal_sieve.partitions; "
            "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'crystal_sieve'))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True,
            text=True,
            env=process_env({}),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['crystal_sieve', 'crystal_sieve.errors', 'crystal_sieve.partitions']"

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_rejected_call_leaves_nothing_behind(self):
        # the rejected call sets --table before -n fails; the next call must
        # read as in a fresh process, without a table
        with pytest.raises(SystemExit) as exc:
            run_cli("csp-check", "2", "-m", "2", "--table", "-n", "x")
        assert exc.value.code == 2
        argv = ["csp-check", "2", "-m", "2"]
        proc = run_process(argv, {})
        assert run_cli(*argv) == (proc.returncode, proc.stdout, proc.stderr)
        assert "fixed" not in proc.stdout


class TestBrokenPipe:
    def test_reader_that_stops_early(self):
        # 1.2 MB of values; the reader closes its end after 100 bytes
        with subprocess.Popen(
            [sys.executable, "-m", "crystal_sieve", "aa-check", "1+q", "-n", "100000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=process_env({}),
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        assert code == 0
        assert head.startswith(b"exists: no") and len(head) == 100
        assert err == b""


class TestExitCodes:
    """Malformed input ends with a usage exit (2), input outside the
    hypotheses with a domain exit (3), never with a traceback."""

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
            (["sweep", "--jobs", "0"], {}),
            (["sweep", "--jobs", "-1"], {}),
            (["sweep", "--max-size", "-1"], {}),
            (["aa-check", "[1.5,1]", "-n", "2"], {}),
            (["aa-check", "[[1]]", "-n", "2"], {}),
            (["aa-check", "[1e400]", "-n", "2"], {}),
            (["aa-check", "[true,1]", "-n", "2"], {}),
            (["aa-check", "1 2", "-n", "2"], {}),
            (["sweep", "--m", "1"], {}),
            # an integer is [+-]?[0-9]+: no underscore, no non-ASCII digit
            (["specialize", "1_0", "-m", "2"], {}),
            (["qdim", "A2", "1_0,1"], {}),
            (["crystal", "1_0", "orbits", "-m", "2"], {}),
            (["aa-check", "1+q", "-n", "1_0"], {}),
            (["orbit-formula", "1_0", "2"], {}),
            (["sweep", "--max-size", "1_0", "--m", "2"], {}),
            (["sweep", "--max-size", "2", "--m", "2_0", "--n", "2"], {}),
            (["specialize", "\uff13", "-m", "2"], {}),
            (["aa-check", "\uff13", "-n", "2"], {}),
            (["roots", "A\uff13"], {}),
            (["crystal", "2", "orbits", "-m", "2"], {"CRYSTAL_SIEVE_MAX_ENUM": "1_000"}),
            (["crystal", "2", "orbits", "-m", "2"], {"CRYSTAL_SIEVE_MAX_ENUM": "\u0665\u0660"}),
        ],
    )
    def test_malformed_input(self, args, env):
        proc = run_process(args, env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr
        assert proc.stdout == ""
        for name in env:
            assert name in proc.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (["crystal", "2,2,2", "csp", "-m", "2"], "3 parts will not fit into 2 letters"),
            (["specialize", "1,1,1", "-m", "2"], "3 parts will not fit into 2 letters"),
            (["qdim", "A2", "1,-1"], "(1, -1) has a negative coordinate"),
            (["qdim", "A2", "-1,2"], "(-1, 2) has a negative coordinate"),
            (["congruence", "A2", "-1,2", "-n", "2"], "(-1, 2) has a negative coordinate"),
        ],
    )
    def test_outside_the_hypotheses(self, args, message):
        proc = run_process(args, {})
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == f"error: {message}\n"
        assert not proc.stdout

    @pytest.mark.parametrize(
        "args, as_json",
        [
            (["aa-check", "-1+q", "-n", "2"], ["aa-check", "[-1, 1]", "-n", "2"]),
            (["aa-check", "-q+q^2", "-n", "2"], ["aa-check", "[0, -1, 1]", "-n", "2"]),
            (["csp-check", "2", "-m", "2", "--f", "-1+q+q^2"], ["csp-check", "2", "-m", "2", "--f", "[-1, 1, 1]"]),
        ],
    )
    def test_polynomial_with_a_leading_minus(self, args, as_json):
        proc, want = run_process(args, {}), run_process(as_json, {})
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == (want.stdout, want.stderr)

    @pytest.mark.parametrize(
        "args, plain",
        [
            (["qdim", "A2", " 1, 1"], ["qdim", "A2", "1,1"]),
            (["specialize", "+2, 1", "-m", "+3"], ["specialize", "2,1", "-m", "3"]),
            (["orbit-formula", "+2", " 3 "], ["orbit-formula", "2", "3"]),
            (["sweep", "--max-size", "+2", "--m", " 2"], ["sweep", "--max-size", "2", "--m", "2"]),
        ],
    )
    def test_integer_spellings_that_still_read(self, args, plain):
        got, want = run_cli(*args), run_cli(*plain)
        assert got[0] == 0, got[2]
        assert got == want

    @pytest.mark.parametrize(
        "args",
        [
            ["aa-check", "[" * 100_000, "-n", "2"],
            ["csp-check", "2", "-m", "2", "--f", "[" * 999 + "]" * 999],
        ],
        ids=["unclosed", "well-formed"],
    )
    def test_deeply_nested_json(self, args):
        # json.loads meets the recursion limit: a usage error whose one line
        # shortens the text
        proc = run_process(args, {})
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert len(proc.stderr) < 500

    @pytest.mark.parametrize(
        "args, code, message",
        [
            (["qdim", "A2", "1"], 2, "weight has length 1, rank is 2"),
            (["qdim", "B2", "1,0,0", "--dual"], 2, "weight has length 3, rank is 2"),
            (["congruence", "A2", "1", "-n", "2"], 2, "weight has length 1, rank is 2"),
            # the order cap is read before the weight
            (["congruence", "A2", "1", "-n", "2000000"], 4, "residue of the q-dimension of A2 at weight (1,)"),
            (["congruence", "A2", "1," * 50_000 + "1", "-n", "2000000"], 4, "... (150,003 characters) at order"),
        ],
    )
    def test_weight_of_the_wrong_length(self, args, code, message):
        got, out, err = run_cli(*args)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err and len(err) < 500

    @pytest.mark.parametrize(
        "args, env, code",
        [
            (["aa-check", "[" + "1," * 50_000 + "1.5]", "-n", "2"], {}, 2),
            (["aa-check", "1+" * 100_000 + "q^100001", "-n", "2"], {}, 4),
            (["aa-check", "x" * 100_000, "-n", "2"], {}, 2),
            (["crystal", "1," + "x" * 100_000, "orbits", "-m", "2"], {}, 2),
            (["crystal", "1," * 50_000 + "2", "orbits", "-m", "100000"], {}, 2),
            (["roots", "A" + "1" * 5000 + "x"], {}, 2),
            (["crystal", "2", "orbits", "-m", "x" * 5000], {}, 2),
            (["crystal", "2", "orbits", "-m", "2"], {"CRYSTAL_SIEVE_MAX_ENUM": "x" * 5000}, 2),
        ],
        ids=["json-coefficient", "degree-cap", "polynomial", "part", "part-order", "cartan-type", "argparse", "env"],
    )
    def test_long_input_is_quoted_short(self, args, env, code):
        # each message quotes the input by its first 40 characters and length
        got, out, err = run_argv(args, env)
        assert (got, out) == (code, "")
        assert err and all(len(line) < 500 for line in err.splitlines())

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (InvalidRank, 2, "error"),
            (ConditionViolated, 3, "error"),
            (ResourceLimit, 4, "error"),
            (InternalError, 5, "internal error"),
            (ValueError, 2, "error"),
        ],
    )
    def test_one_exit_code_per_class(self, monkeypatch, error, code, prefix):
        import crystal_sieve.cli as cli

        def raises(*args):
            raise error("made to fail")

        monkeypatch.setattr(cli, "build_cartan_datum", raises)
        assert run_cli("roots", "A2") == (code, "", f"{prefix}: made to fail\n")

    def test_failed_identity_check_exits_5(self, monkeypatch):
        # a residue one off its orbit reconstruction trips the check
        import crystal_sieve.qdim as qdim

        residue = qdim._residue
        monkeypatch.setattr(qdim, "_residue", lambda coeffs, n: residue(coeffs, n) + ONE)
        code, out, err = run_cli("congruence", "B2", "2,0", "-n", "2")
        assert (code, out) == (5, "")
        assert err.startswith("internal error: residue 11 + 4*q differs from orbit reconstruction")


# Tokens for the in-process exit-code property. JUNK holds text that
# parse_poly rejects, integers that int() alone would read (1_0, non-ASCII
# digits), signs, empty text and lists nested past the recursion limit; each
# slot draws it one time in four.
JUNK = ["", "q^", "2**q", "1++q", "x+1", "q^-1", "1.5", "1 2", "q^1 0", "2*", "*q"]
JUNK += ["1_0", "\uff13", "\u0663", "-1,2", "-1", "[" * 1000 + "]" * 1000]
TYPES = ["A1", "A3", "A8", "B2", "C3", "D4", "D8", "E6", "E8", "F4", "G2"]
COUNTS = ["0", "1", "2", "+3", " 4", "6", "-1"]


def slot(good):
    good = st.sampled_from(good) if isinstance(good, list) else good
    return st.sampled_from([good] * 3 + [st.sampled_from(JUNK)]).flatmap(lambda strategy: strategy)


def lists(values, min_size, max_size):
    return st.lists(st.sampled_from(values), min_size=min_size, max_size=max_size).map(",".join)


@st.composite
def argvs(draw):
    partition = slot(st.one_of(lists(["0", "1", "2", "3", "4", "+2"], 1, 3), st.sampled_from(["-", "0"])))
    m = slot(["1", "2", "3", "4", "5", "6", "+2"])
    n = slot([str(k) for k in (1, 2, 3, 4, 6, 12, 60)])
    poly = slot(["1+q", "-1+q+q^2", "2q", "q^2", "2 q^3 - q", "[1, 1]", "[1.5,1]", "[[1]]"])
    fmt = draw(st.sampled_from([[], [], ["--format", "plain"], ["--format", "json"], ["--format", "csv"]]))
    command = draw(st.sampled_from(["roots", "qdim", "specialize", "congruence", "crystal", "csp-check", "aa-check",
                                    "orbit-formula", "sweep"]))
    if command == "roots":
        argv = [draw(slot(TYPES + ["A0", "A9", "Z2", "a2", "A\uff13"]))]
    elif command in ("qdim", "congruence"):
        cartan_type = draw(st.sampled_from(TYPES))
        rank = int(cartan_type[1:]) + draw(st.sampled_from([0, 0, 0, 1, -1]))
        argv = [cartan_type, draw(slot(lists(["0", "1", "2", " 1", "+1", "-1"], rank, rank)))]
        argv += ["-n", draw(n)] if command == "congruence" else draw(st.sampled_from([[], ["--mod", draw(n)]]))
        argv += draw(st.sampled_from([[], ["--dual"]]))
    elif command == "specialize":
        argv = [draw(partition), "-m", draw(m)]
    elif command == "crystal":
        argv = [draw(partition), draw(slot(["orbits", "fixed", "csp"])), "-m", draw(m)]
        argv += draw(st.sampled_from([[], ["--action", "pr"], ["--table"]]))
    elif command == "csp-check":
        argv = [draw(partition), "-m", draw(m), "--action", draw(st.sampled_from(["c", "pr"]))]
        argv += draw(st.sampled_from([[], ["--f", draw(poly)], ["-n", draw(n)], ["--table"]]))
    elif command == "aa-check":
        argv = [draw(poly), "-n", draw(n)]
    elif command == "orbit-formula":
        argv = [draw(slot(COUNTS)), draw(slot(COUNTS + ["12", "60"]))]
    else:
        # --jobs above 1 starts worker processes: never drawn
        argv = ["--max-size", draw(slot(["0", "2", "4", "+3"]))]
        argv += ["--m", draw(slot(lists(["1", "2", "3", "+3", " 4", "5", "6"], 1, 3)))]
        argv += draw(st.sampled_from([[], ["--n", draw(slot(lists(["1", "2", "6", "60"], 1, 3)))]]))
        argv += draw(st.sampled_from([[], ["--jobs", "1"], ["--jobs", "0"]]))
        return ["sweep", *argv]
    return [command, *argv, *fmt]


@settings(max_examples=150, deadline=None, database=None)
@given(argvs())
@example(["orbit-formula", "1", "20160"])
@example(["sweep", "--m", "1"])
def test_every_argv_exits_within_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.monotonic()
    with mock.patch.dict(os.environ, {"CRYSTAL_SIEVE_MAX_ENUM": "500"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in {0, 2, 3, 4, 5}, (argv, err.getvalue())
    assert code == 0 or out.getvalue() == "", argv
    # a generous bound, so that an input that runs away fails here rather
    # than stalling the suite
    assert time.monotonic() - start < 30, argv
