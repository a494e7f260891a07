"""Source hygiene that no linter in the test environment checks.

Every name a module imports must be read somewhere in that module. An
import kept on purpose, for its side effect or to re-export a name,
carries a `# noqa` comment on its line. Every function and class a
package module defines at top level must be used by the package itself,
so that no helper exists only for tests to call.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                    continue
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["field (line 1)"]
    assert unused_imports("import os  # noqa: F401\n") == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the modules `sources` (name ->
    source) that no module reads as a name or an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{name}: {node.name}" for name, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


def test_no_definition_only_tests_use():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(sources) == []


def test_scan_finds_an_unreferenced_definition():
    sources = {"a.py": "def used():\n    pass\n\ndef oracle():\n    pass\n",
               "b.py": "import a\n\na.used()\n"}
    assert unreferenced_definitions(sources) == ["a.py: oracle"]
