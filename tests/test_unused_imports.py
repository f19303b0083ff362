"""Every imported name is used, and every module-level name the package defines is read.

Stdlib-`ast` scans, since no linter is a dependency, over one file list
(the package, the tests and the benchmark), each file parsed once:

* a name bound by an import must appear as a name somewhere else in the
  same file;
* a def, class or assignment at module level in `src/xmhd` must be loaded
  (as a name, an attribute or an imported name) by some file of the list;
* every parameter of every function in `src/xmhd` must be read in its body,
  save the few in UNREAD_PARAMETERS.

The package `__init__.py` is left out of both: its imports are only the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src/xmhd", "tests", "perfbench") for p in (ROOT / d).glob("*.py")
               if p.name != "__init__.py")
TREES = {path: ast.parse(path.read_text()) for path in FILES}
PACKAGE = [path for path in FILES if path.parent.name == "xmhd"]


def _file_id(path):
    return f"{path.parent.name}/{path.name}"


def unused_imports(tree):
    """Names bound by an import in `tree` that nothing else in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def defined_names(tree):
    """(line, name) of every module-level def, class and assigned name in `tree`."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        found.append((node.lineno, sub.id))
    return found


def loaded_names(tree):
    """Names `tree` reads: loaded names, attribute names and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_parameters(tree):
    """(line, function, parameter) of every parameter that its function's
    body, nested functions included, never reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            found += [(node.lineno, name, a.arg) for a in params if a.arg not in read]
    return found


#: (function, parameter) pairs allowed to go unread: estimate_alpha keeps
#: prev and rng for the benchmark's callers
UNREAD_PARAMETERS = {("estimate_alpha", "prev"), ("estimate_alpha", "rng")}


def test_scan_flags_an_unused_import():
    def scan(source):
        return unused_imports(ast.parse(source))
    assert scan("import os\nimport numpy as np\nnp.zeros(1)\n") == [(1, "os")]
    assert scan("from a.b import c, d as e\nprint(e)\n") == [(1, "c")]
    assert scan("import os.path\nos.getcwd()\n") == []


def test_scan_flags_an_unused_definition():
    tree = ast.parse("A = 1\nB, C = 2, 3\ndef f():\n    return A\nclass K:\n    pass\n")
    assert defined_names(tree) == [(1, "A"), (2, "B"), (2, "C"), (3, "f"), (5, "K")]
    assert loaded_names(tree) == {"A"}
    assert loaded_names(ast.parse("from m import K\nx.f()\nC = 0\n")) == {"K", "x", "f"}


@pytest.mark.parametrize("path", FILES, ids=_file_id)
def test_no_unused_imports(path):
    assert unused_imports(TREES[path]) == []


@pytest.fixture(scope="module")
def loaded():
    return set().union(*map(loaded_names, TREES.values()))


@pytest.mark.parametrize("path", PACKAGE, ids=_file_id)
def test_no_unused_module_level_names(path, loaded):
    unused = [(line, name) for line, name in defined_names(TREES[path]) if name not in loaded]
    assert unused == []


def test_scan_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + d\n"
                     "def g(x):\n    def h():\n        return x\n    return h\n"
                     "k = lambda y, z: y\n")
    assert unread_parameters(tree) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "e"),
                                       (7, "<lambda>", "z")]


@pytest.mark.parametrize("path", PACKAGE, ids=_file_id)
def test_every_parameter_is_read(path):
    unread = [(line, fn, arg) for line, fn, arg in unread_parameters(TREES[path])
              if (fn, arg) not in UNREAD_PARAMETERS]
    assert unread == []
