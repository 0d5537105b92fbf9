"""The runtime dependencies declared for installation are exactly the
third-party packages ``src/repro`` imports.

Both declarations are read with a regex rather than ``tomllib``, which
Python 3.10 lacks.  Every import counts, including ones inside functions or
``TYPE_CHECKING`` blocks: a package the code can import must be installable.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_third_party() -> set[str]:
    """Top-level names of the non-stdlib packages imported under ``src/repro``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "repro"}


def _requirement_names(block: str) -> set[str]:
    """Distribution names of the quoted requirement strings in ``block``."""
    return set(re.findall(r"[\"']([A-Za-z0-9_.\-]+)", block))


def declared_in_pyproject() -> set[str]:
    text = (ROOT / "pyproject.toml").read_text()
    return _requirement_names(re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1))


def declared_in_setup() -> set[str]:
    text = (ROOT / "setup.py").read_text()
    return _requirement_names(re.search(r"install_requires\s*=\s*\[(.*?)\]", text, re.S).group(1))


def test_declared_dependencies_are_exactly_the_imported_ones():
    imported = imported_third_party()
    assert declared_in_pyproject() == imported
    assert declared_in_setup() == imported
