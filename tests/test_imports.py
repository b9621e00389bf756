"""Every module of the package uses each name it imports.

A name left imported after the code that used it is gone (a thread pool,
an `os` the module no longer reads) passes every other test; this one
reads each module's syntax tree with the standard library's `ast`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vampvae"


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
