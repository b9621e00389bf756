"""Every module of the package uses each name it imports, and only the
helper module reaches the helper's internals and reads the CPU count.

A name left imported after the code that used it is gone (a thread pool,
an `os` the module no longer reads) passes every other test; so does a
module that reads the helper's pending count or calls `usable_cpus` itself,
where `Helper.submit` is meant to be the one reader. These tests read each
module's syntax tree with the standard library's `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vampvae"
HELPER = PACKAGE / "helper.py"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in import order. A name
    counts as read where it is loaded, where a quoted annotation names it
    and where `__all__` lists it."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Graph | None", or an `__all__`
            # entry; other strings that parse as names only over-count
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("import os\nimport numpy as np\nfrom concurrent.futures "
              "import ThreadPoolExecutor, wait\nfrom typing import Any\n"
              "x: 'Any' = np.zeros(1)\nwait([])\n")
    assert unused_imports(source) == ["os", "ThreadPoolExecutor"]


def private_names(source: str) -> set[str]:
    """The underscore names `source` defines or assigns, on itself or on
    an object, dunder names aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str, names: set[str]) -> list[str]:
    """The names of `names` that `source` reads, imports or assigns, as a
    bare name or as an attribute of anything, in tree order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names]
    return [name for name in found if name in names]


def callers(source: str, name: str) -> list[str]:
    """The qualified name of the function or class around each place
    `source` reads `name`, bare or as an attribute ("" at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {HELPER}),
                         ids=lambda p: p.name)
def test_no_other_module_reads_the_helpers_private_names(path):
    private = private_names(HELPER.read_text(encoding="utf-8"))
    assert names_read(path.read_text(encoding="utf-8"), private) == []


def test_only_the_helpers_submit_reads_the_cpu_count():
    where = [(path.name, scope) for path in sorted(PACKAGE.glob("*.py"))
             for scope in callers(path.read_text(encoding="utf-8"),
                                  "usable_cpus")]
    assert where == [("helper.py", "Helper.submit")]


def test_a_private_read_and_a_second_cpu_reader_are_found():
    private = private_names("class H:\n    def _go(self):\n"
                            "        self._pending = 0\n_x = 1\n")
    assert private == {"_go", "_pending", "_x"}
    assert names_read("from .helper import _x\nhp.helper._pending += 1\n",
                      private) == ["_x", "_pending"]
    assert callers("def f():\n    return hp.usable_cpus()\n",
                   "usable_cpus") == ["f"]
