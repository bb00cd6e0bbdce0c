"""Every name a library module imports is used there, or marked as kept,
and every private module-level name is read somewhere in the package.

No linter runs on this package, so this stands in for pyflakes' F401: each
``src/permobius/*.py`` other than ``__init__.py`` (which re-exports), and
each ``tests/*.py``, is parsed, and an imported name that no expression in
the module reads fails the test unless its import statement carries
``# noqa: F401``.  A private
function, class or assignment at module level (``_name``, not a dunder)
fails when no module of the package reads it, imports it or takes it as an
attribute.  No library module but ``mobius.py`` imports the private
functions of the bit-plane kernel, whose format that module owns; the list
of them is read from that module's source.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "permobius"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


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


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_catches_a_leftover_import():
    source = "from .permcore import (\n    BUDGET_BYTES,\n    Perm,\n)\n\nP: Perm = ()\n"
    assert unused_imports(source) == ["line 1: BUDGET_BYTES"]
    kept = "from .permcore import BUDGET_BYTES  # noqa: F401\n"
    assert unused_imports(kept) == []


#: The private functions of the bit-plane kernel, as ``mobius.py`` defines them.
KERNEL = frozenset(
    node.name
    for node in ast.parse((SRC / "mobius.py").read_text()).body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
)


def kernel_imports(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in KERNEL
    ]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "mobius.py"], ids=lambda p: p.name
)
def test_kernel_stays_in_mobius(path):
    assert kernel_imports(path.read_text()) == []


def test_guard_catches_a_kernel_import():
    source = "from .mobius import (\n    LevelTables,\n    _value,\n    _levels,\n)\n"
    assert kernel_imports(source) == ["_value", "_levels"]
    assert kernel_imports("from .mobius import LevelTables\n") == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}: {name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for name, where in defined.items() if name not in read)


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert dead_private_names(sources) == []


def test_guard_catches_a_dead_private_name():
    sources = {
        "a.py": (
            "__version__ = '1'\n_KEPT = 1\n_DEAD = 2\n_LEFT: int = 3\n\n"
            "def _called():\n    return _KEPT\n\n\nclass _Gone:\n    pass\n"
        ),
        "b.py": "from .a import _called\n\n\ndef public():\n    return _called()\n",
    }
    assert dead_private_names(sources) == ["a.py: _DEAD", "a.py: _Gone", "a.py: _LEFT"]
    sources["b.py"] += "\n\ndef more(a):\n    return a._DEAD, _Gone, _LEFT\n"
    assert dead_private_names(sources) == []
