"""Every integer is read in one module: a scan of the syntax of every other
module of the package for the constructs that read an integer by hand,
``operator.index`` and ``int()``. ``partitions._integer`` reads a value and
``partitions._decimal`` an integer written as text; ``int()`` elsewhere may
only read a group of a regular expression that has just matched.

The rest of the rule for refusing input is held the same way: a message
quotes a value with ``!r`` only in ``partitions._shown``, which shortens a
long one, and ``_integer`` raises its ValueError everywhere but for an
``IntPoly`` coefficient (TypeError) and a Cartan type's rank (InvalidRank)."""

import ast
from pathlib import Path

import pytest

import crystal_sieve

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
INTEGER_ERRORS = {"TypeError", "InvalidRank"}


def refusal_sites(source: str) -> list[tuple[str, str]]:
    """(qualified name of the enclosing def or class, construct) for each !r
    conversion in an f-string and each call to _integer given an error class
    outside INTEGER_ERRORS, in the source."""
    sites = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FormattedValue) and child.conversion == ord("r"):
                sites.append((owner, "!r"))
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_integer":
                errors = child.args[2:3] + [k.value for k in child.keywords if k.arg == "error"]
                sites.extend((owner, f"_integer error {ast.unparse(e)}") for e in errors
                             if ast.unparse(e) not in INTEGER_ERRORS)
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
        "z = _integer(1, 'k', TypeError) + _integer(2, 'r', InvalidRank) + _integer(3, 'v', least=0)\n"
        "w = f'{y!s} {y} {repr(y)}'\n"
    )
    assert refusal_sites(source) == [
        ("f", "_integer error ConditionViolated"),
        ("C.g", "!r"),
        ("<module>", "_integer error KeyError"),
    ]
