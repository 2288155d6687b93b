"""Dependencies point one way: ``repro.core`` never imports ``repro.serve``.

Every module under ``src/repro/core`` is parsed with :mod:`ast`, so
imports inside functions count as much as top-level ones, and relative
imports are resolved against the module's own package.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CORE_FILES = sorted((SRC / "repro" / "core").rglob("*.py"))


def imported_modules(path: Path):
    """``(line, dotted module)`` for every import statement in *path*."""
    package = list(path.relative_to(SRC).parts[:-1])
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            # ``from .. import serve`` names the package in the alias.
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_core_modules_were_found():
    assert any(path.name == "pipeline.py" for path in CORE_FILES)


@pytest.mark.parametrize(
    "path", CORE_FILES, ids=lambda path: str(path.relative_to(SRC))
)
def test_core_never_imports_serve(path):
    offending = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for line, module in imported_modules(path)
        if module == "repro.serve" or module.startswith("repro.serve.")
    ]
    assert not offending, "core imports serve:\n" + "\n".join(offending)
