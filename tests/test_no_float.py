"""No float enters a result: a scan of the syntax of every module of the
package for the constructs that make or import inexact numbers."""

import ast
from pathlib import Path

import pytest

import crystal_sieve

PACKAGE = Path(crystal_sieve.__file__).parent
MATH_NAMES = {"gcd", "lcm", "isqrt", "prod", "comb"}
INEXACT_MODULES = {"cmath", "fractions", "decimal", "statistics"}


def float_sites(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each float or complex literal, true division,
    call to float or complex, math name outside MATH_NAMES, and import of an
    inexact-number module in the source."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            sites.append((node.lineno, f"call to {node.func.id}"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_NAMES
        ):
            sites.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.Import):
            sites += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in INEXACT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            if top in INEXACT_MODULES or top == "math" and any(a.name not in MATH_NAMES for a in node.names):
                sites.append((node.lineno, f"from {node.module} import"))
    return sites


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_holds_no_float(path):
    assert float_sites(path.read_text()) == []


def test_the_package_is_scanned():
    assert {"cli.py", "csp.py", "qpoly.py", "tableaux.py"} <= {p.name for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize(
    "source, construct",
    [
        ("x = 1 / 2", "true division"),
        ("x = 6\nx /= 3", "true division"),
        ("x = 0.5", "literal 0.5"),
        ("x = 2j", "literal 2j"),
        ("x = float(3)", "call to float"),
        ("x = complex(3)", "call to complex"),
        ("import math\nx = math.sqrt(4)", "math.sqrt"),
        ("import fractions", "import fractions"),
        ("from decimal import Decimal", "from decimal import"),
        ("from math import log", "from math import"),
    ],
)
def test_scanner_finds_each_construct(source, construct):
    assert [what for _, what in float_sites(source)] == [construct]


def test_scanner_passes_exact_code():
    source = '"""A docstring may say 1 / 2 or 0.5."""\nimport math\nx = 7 // 2 + math.gcd(4, 6) + math.isqrt(10)\n'
    assert float_sites(source) == []
