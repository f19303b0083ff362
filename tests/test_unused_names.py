"""Every module-level name the package defines is read somewhere.

A stdlib-`ast` scan, since no linter is a dependency: a def, class or
assignment at module level in `src/xmhd` must be loaded (as a name, an
attribute or an imported name) by some file of the package, the tests or
the benchmark.  The package `__init__.py` neither defines nor loads, because
its imports are only the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "xmhd").glob("*.py") if p.name != "__init__.py")
READERS = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]


def defined_names(source):
    """(line, name) of every module-level def, class and assigned name in `source`."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        found.append((node.lineno, sub.id))
    return found


def loaded_names(source):
    """Names `source` reads: loaded names, attribute names and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_scan_flags_an_unused_definition():
    source = "A = 1\nB, C = 2, 3\ndef f():\n    return A\nclass K:\n    pass\n"
    assert defined_names(source) == [(1, "A"), (2, "B"), (2, "C"), (3, "f"), (5, "K")]
    assert loaded_names(source) == {"A"}
    assert loaded_names("from m import K\nx.f()\nC = 0\n") == {"K", "x", "f"}


@pytest.fixture(scope="module")
def loaded():
    return set().union(*(loaded_names(path.read_text()) for path in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unused_module_level_names(path, loaded):
    unused = [(line, name) for line, name in defined_names(path.read_text())
              if name not in loaded]
    assert unused == []
