"""Every private module-level name of the package is used: each name with
one leading underscore that a module defines at its top level is loaded
somewhere in the package outside its own definition, as a plain name, an
attribute or an imported name. A helper that outlives the last call to it
fails here. Each such name is defined in one module only, so that a name
read in the package, or by a scan of its syntax, means one thing."""

import ast
from collections import Counter
from pathlib import Path

import crystal_sieve

PACKAGE = Path(crystal_sieve.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loads(node: ast.AST) -> Counter:
    """Each name node loads, each attribute it reads and each name it imports."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private top-level name that no code loads
    outside the statement that defines it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_loads(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for stmt in tree.body:
            own = _loads(stmt)
            for name in filter(_is_private, _defined(stmt)):
                if total[name] == own[name]:
                    unused.append(f"{module}:{name}")
    return unused


def private_names_defined_twice(sources: dict[str, str]) -> list[str]:
    """Each private top-level name that more than one module defines."""
    modules = Counter(
        name
        for text in sources.values()
        for name in {n for stmt in ast.parse(text).body for n in _defined(stmt) if _is_private(n)}
    )
    return sorted(name for name, count in modules.items() if count > 1)


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_used():
    assert unused_private_names(package_sources()) == []


def test_an_unused_helper_is_flagged():
    sources = {
        "a.py": (
            "_CAP = 3\n"
            "def _helper(x):\n    return _helper(x - 1) if x else 0\n"
            "def _used():\n    return _CAP\n"
            "def _attr():\n    pass\n"
            "_RULES: dict = {}\n"
            "class _Spare:\n    pass\n"
        ),
        "b.py": "from a import _used\nimport a\nprint(_used(), a._attr)\n",
    }
    # _helper calls only itself, so it is flagged with the two names no
    # code reads; the others are loaded
    assert unused_private_names(sources) == ["a.py:_helper", "a.py:_RULES", "a.py:_Spare"]


def test_no_private_name_is_defined_in_two_modules():
    assert private_names_defined_twice(package_sources()) == []


def test_a_private_name_defined_twice_is_flagged():
    sources = {
        "a.py": "def _read(x):\n    return x\n_CAP = 1\n_CAP = 2\ndef public():\n    pass\n",
        "b.py": "from a import _CAP\ndef _read(text, least=None):\n    return text\ndef public():\n    pass\n",
    }
    # _CAP is bound twice in one module and imported by the other: one home;
    # public names may repeat
    assert private_names_defined_twice(sources) == ["_read"]
