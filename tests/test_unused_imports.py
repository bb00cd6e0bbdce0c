"""Every name a library module imports is used there, or marked as kept.

No linter runs on this package, so this stands in for pyflakes' F401: each
``src/permobius/*.py`` other than ``__init__.py`` (which re-exports) is
parsed, and an imported name that no expression in the module reads fails
the test unless its import statement carries ``# noqa: F401``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "permobius"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if "# noqa: F401" in statement:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_a_leftover_import():
    source = "from .permcore import (\n    DOWN_SET_CAP,\n    Perm,\n)\n\nP: Perm = ()\n"
    assert unused_imports(source) == ["line 1: DOWN_SET_CAP"]
    kept = "from .permcore import DOWN_SET_CAP  # noqa: F401\n"
    assert unused_imports(kept) == []
