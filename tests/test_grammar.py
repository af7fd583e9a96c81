"""The package keeps to the grammar of the oldest Python that
pyproject.toml admits: every module parses with ast's feature_version set
to that release, so a construct of a later one fails here and not on import
under the older interpreter."""

import ast
import re
from pathlib import Path

import pytest

import crystal_sieve

PACKAGE = Path(crystal_sieve.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
OLDEST = (3, 10)


def test_oldest_is_the_one_pyproject_admits():
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', PYPROJECT.read_text(), re.M)
    assert (int(found[1]), int(found[2])) == OLDEST


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_parses_under_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)


def test_a_later_construct_fails():
    # except* came in 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(source, feature_version=OLDEST)
