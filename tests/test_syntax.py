"""Every Python file of the project parses as Python 3.10, the oldest
version pyproject.toml supports.

This checks syntax only (ast.parse with feature_version): it does not
catch a standard-library function, module or argument that 3.10 lacks.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests", "perfbench")
               for path in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert any(path.name == "formulas.py" for path in FILES)
    assert any(path.parent.name == "perfbench" for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
