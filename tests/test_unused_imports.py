"""Every imported name in the package and the tests is used.

A stdlib-`ast` scan, since no linter is a dependency: a name bound by an
import must appear as a name somewhere else in the same file.  The package
`__init__.py` is exempt, because its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in [*(ROOT / "src" / "xmhd").glob("*.py"), *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == [(1, "os")]
    assert unused_imports("from a.b import c, d as e\nprint(e)\n") == [(1, "c")]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
