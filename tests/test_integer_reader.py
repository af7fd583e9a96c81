"""Every integer is read in one module: a scan of the syntax of every other
module of the package for the constructs that read an integer by hand,
``operator.index`` and ``int()``. ``partitions._integer`` reads a value and
``partitions._decimal`` an integer written as text; ``int()`` elsewhere may
only read a group of a regular expression that has just matched.

The rest of the rule for refusing input is held the same way: a message
quotes a value with ``!r`` only in ``partitions._shown``, which shortens a
long one, and no call gives ``_integer`` an error class, so that every
value it refuses is a ValueError. Calls then hold the rest: an int past the
interpreter's integer string limit is refused as a large one is, and a
valid call builds no message."""

import ast
import contextlib
import io
import sys
from collections import Counter
from pathlib import Path

import pytest

import crystal_sieve
from crystal_sieve import cli
from crystal_sieve.cartan import CartanType, build_cartan_datum
from crystal_sieve.csp import csp_check, orbit_formula
from crystal_sieve.errors import ConditionViolated, ResourceLimit
from crystal_sieve.partitions import MAX_LETTERS, _on_letters, _shown, as_partition
from crystal_sieve.qdim import congruence, principal_specialization, qdim
from crystal_sieve.qpoly import parse_poly, q_ratio
from crystal_sieve.tableaux import Tableau, enumerate_ssyt, kostka, orbit_census

PACKAGE = Path(crystal_sieve.__file__).parent

# (module, top-level function, construct): q_ratio reads its exponents with
# operator.index mapped in C, and through _integer only for the message when
# one fails, since a Python-level call per exponent would slow every product
EXEMPT = {("qpoly.py", "q_ratio", "operator.index")}


def _is_group(node: ast.expr) -> bool:
    """Whether node is a call of .group(...) on a match."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "group"


def integer_sites(source: str) -> list[tuple[str, str]]:
    """(top-level name, construct) for each load of operator.index, import
    of index from operator, call to int() on anything but a regex group, and
    map of int, in the source."""
    sites = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (node.value.id, node.attr) == ("operator", "index")
            ):
                sites.append((owner, "operator.index"))
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                sites += [(owner, "from operator import index") for a in node.names if a.name == "index"]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
                if not (len(node.args) == 1 and not node.keywords and _is_group(node.args[0])):
                    sites.append((owner, "call to int"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "map"
                and any(isinstance(a, ast.Name) and a.id == "int" for a in node.args)
            ):
                sites.append((owner, "map(int, ...)"))
    return sites


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "partitions.py"), ids=lambda p: p.name
)
def test_module_reads_no_integer_by_hand(path):
    sites = {(path.name, owner, what) for owner, what in integer_sites(path.read_text())}
    assert sites - EXEMPT == set()


def test_the_exemption_is_still_there():
    # an exemption whose site has gone must go too
    for module, owner, what in EXEMPT:
        assert (owner, what) in integer_sites((PACKAGE / module).read_text())


@pytest.mark.parametrize(
    "source, site",
    [
        ("import operator\nx = operator.index(3)", ("<module>", "operator.index")),
        ("import operator\ndef f(xs):\n    return list(map(operator.index, xs))", ("f", "operator.index")),
        ("from operator import index", ("<module>", "from operator import index")),
        ("def f(text):\n    return int(text)", ("f", "call to int")),
        ("class C:\n    def f(self, x):\n        return int(x, 16)", ("C", "call to int")),
        ("x = int(m.group(1), base=2)", ("<module>", "call to int")),
        ("x = list(map(int, '1,2'.split(',')))", ("<module>", "map(int, ...)")),
    ],
)
def test_scanner_finds_each_construct(source, site):
    assert integer_sites(source) == [site]


def test_scanner_passes_a_matched_group_and_type_tests():
    source = (
        "import operator, re\n"
        "m = re.fullmatch(r'([0-9]+)', '12')\n"
        "n = int(m.group(1))\n"
        "ok = isinstance(n, int) and type(n) is int\n"
        "y = operator.add(n, 1)\n"
    )
    assert integer_sites(source) == []


# (module, qualified name, construct) of the one quote and of IntPoly's repr,
# which quotes no input
QUOTES = {("partitions.py", "_shown", "!r"), ("qpoly.py", "IntPoly.__repr__", "!r")}


def refusal_sites(source: str) -> list[tuple[str, str]]:
    """(qualified name of the enclosing def or class, construct) for each !r
    conversion in an f-string and each call to _integer given an error
    class, in the source."""
    sites = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FormattedValue) and child.conversion == ord("r"):
                sites.append((owner, "!r"))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_integer":
                errors = child.args[2:3] + [k.value for k in child.keywords if k.arg == "error"]
                sites.extend((owner, f"_integer error {ast.unparse(e)}") for e in errors)
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if owner == "<module>" else f"{owner}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sites


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_refuses_input_by_the_one_rule(path):
    sites = {(path.name, owner, what) for owner, what in refusal_sites(path.read_text())}
    assert sites - QUOTES == set()


def test_the_quotes_are_still_there():
    for module, owner, what in QUOTES:
        assert (owner, what) in refusal_sites((PACKAGE / module).read_text())


def test_scanner_flags_a_bare_quote_and_a_foreign_error_class():
    source = (
        "def f(x):\n    return _integer(x, 'n', ConditionViolated)\n"
        "class C:\n    def g(self, x):\n        raise ValueError(f'bad {x!r}')\n"
        "y = _integer(1, 'k', error=KeyError)\n"
        "z = _integer(1, 'k', TypeError) + _integer(2, 'r', ValueError) + _integer(3, 'v', least=0)\n"
        "w = f'{y!s} {y} {repr(y)}'\n"
    )
    assert refusal_sites(source) == [
        ("f", "_integer error ConditionViolated"),
        ("C.g", "!r"),
        ("<module>", "_integer error KeyError"),
        ("<module>", "_integer error TypeError"),
        ("<module>", "_integer error ValueError"),
    ]


# Each call refuses a large integer x, and one past the interpreter's integer
# string limit (10**5000) as it refuses 10**100: with the same class and a
# short message, never the interpreter's "Exceeds the limit" ValueError
LARGE = [
    pytest.param(lambda x: qdim(build_cartan_datum("A2"), (x, 0)), id="qdim-weight"),
    pytest.param(lambda x: qdim(build_cartan_datum("A2"), (-x, 0)), id="qdim-negative"),
    pytest.param(lambda x: congruence(build_cartan_datum("A2"), (1, 1), x), id="congruence-order"),
    pytest.param(lambda x: enumerate_ssyt((1,), x), id="enumerate_ssyt-m"),
    pytest.param(lambda x: enumerate_ssyt((x,), 2), id="enumerate_ssyt-part"),
    pytest.param(lambda x: orbit_census((1,), x), id="orbit_census-m"),
    pytest.param(lambda x: orbit_census((x,), 2), id="orbit_census-part"),
    pytest.param(lambda x: _on_letters((1,), x), id="_on_letters-m"),
    pytest.param(lambda x: _on_letters((x,), 2 * MAX_LETTERS), id="_on_letters-shape"),
    pytest.param(lambda x: kostka((x,), (x - 1,)), id="kostka-sum"),
    pytest.param(lambda x: principal_specialization((x,), 2), id="specialization"),
    pytest.param(lambda x: CartanType("A", x), id="rank"),
    pytest.param(lambda x: Tableau(((0,),), x), id="tableau-entry"),
    pytest.param(lambda x: as_partition((1, -x)), id="part"),
    pytest.param(lambda x: orbit_formula(x, 2 * MAX_LETTERS), id="orbit_formula"),
    pytest.param(lambda x: q_ratio([1], [x]), id="q_ratio"),
]


@pytest.mark.parametrize("call", LARGE)
def test_an_integer_past_the_digit_limit_is_refused_as_a_large_one(call):
    with pytest.raises(Exception) as large:
        call(10**100)
    with pytest.raises(large.type) as huge:
        call(10**5000)
    assert "Exceeds the limit" not in str(huge.value) and len(str(huge.value)) < 500


def test_a_shape_of_many_parts_is_quoted_short():
    with pytest.raises(ConditionViolated) as exc:
        kostka((1,) * 20_000, (1,) * 19_999)
    assert str(exc.value).startswith("|'(1, 1, 1,") and len(str(exc.value)) < 500


def test_shown_names_a_value_past_the_digit_limit_by_its_type():
    assert _shown(10**5000) == "<int past the integer string limit>"
    assert _shown((1, 10**5000)) == "<tuple past the integer string limit>"
    assert _shown(10**39) == repr(10**39)
    assert _shown(10**40) == "'1000000000000000000000000000000000000000'... (41 characters)"


# The checks that take a description callable, each as its second argument
DESCRIBED = ("check_order", "_check_degree", "_check_cap", "_cycle_lengths")


@pytest.fixture
def message_calls(monkeypatch):
    """Counts of the calls to partitions._shown and to each description that
    a check of DESCRIBED receives, wherever a module of the package binds
    either."""
    calls = Counter()
    shown = _shown

    def counted(key, f):
        def wrapper(*args):
            calls[key] += 1
            return f(*args)
        return wrapper

    def described(check):
        return lambda x, what: check(x, counted("description", what))

    for name, module in list(sys.modules.items()):
        if name.startswith("crystal_sieve."):
            for attr, value in list(vars(module).items()):
                if value is shown:
                    monkeypatch.setattr(module, attr, counted("_shown", value))
                elif attr in DESCRIBED:
                    monkeypatch.setattr(module, attr, described(value))
    return calls


def test_a_valid_call_builds_no_message(message_calls):
    b2 = build_cartan_datum("B2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--max-size", "6", "--m", "3,4", "--n", "3,4,6"]) == 0
    for action in ("c", "pr"):
        csp_check((2, 1), 3, action)
        csp_check((4, 2), 3, action)
    congruence(b2, (2, 0), 2)
    qdim(b2, (1, 1))
    parse_poly("1+q")
    assert message_calls == {}


def test_a_failed_check_builds_its_message(message_calls):
    with pytest.raises(ResourceLimit):
        congruence(build_cartan_datum("A2"), (1, 1), 10**7)
    assert message_calls["description"] == 1 and message_calls["_shown"] >= 1
