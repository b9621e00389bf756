"""Mutation probe: change one comparison, operator, constant or boolean of a
module at a time, and run tests against each mutant.

    python tools/mutate.py src/vampvae/helper.py
    python tools/mutate.py src/vampvae/helper.py --tests tests/test_beside.py

The checkout is copied once into a temporary directory, and each mutant is
written there, never into the checkout. For each mutant, ``pytest -x -q``
runs the tests (by default `test_beside.py`, `test_branch.py` and
`test_training.py`) in that copy, for at most `TIMEOUT_S` seconds. A
mutant is killed when the tests fail or time out (a hang counts as killed,
and the probe moves on); it survives when they pass. The unmutated
module, printed back from its syntax tree as every mutant is, runs first
and must pass.

The mutations, each at one place:
- a comparison: ``==`` and ``!=``, ``<`` and ``>=``, ``>`` and ``<=``,
  ``is`` and ``is not``, ``in`` and ``not in`` swap;
- an arithmetic operator, in an expression or an augmented assignment:
  ``+`` and ``-`` swap, ``*`` and ``/`` swap;
- a constant: an integer n becomes n + 1, a float x becomes x + 1;
- a boolean: ``True`` and ``False`` swap, ``and`` and ``or`` swap, and a
  ``not`` is dropped.
Strings, None and docstrings are left alone.

It prints one line per mutant, then the count killed. It exits 1, and
runs no mutant, when the unmutated module fails its tests.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TESTS = ("tests/test_beside.py", "tests/test_branch.py",
                 "tests/test_training.py")
# seconds a mutant's tests may take: the default tests pass in about 6 s,
# so only a hang reaches it
TIMEOUT_S = 120.0

COMPARE_SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
                 ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
                 ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
                 ast.NotIn: ast.In}
OPERATOR_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
                  ast.Div: ast.Mult}
BOOL_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=",
           ast.Gt: ">", ast.LtE: "<=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.Div: "/", ast.And: "and", ast.Or: "or"}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the constants that are docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value,
                                                          ast.Constant):
                found.add(id(first.value))
    return found


def sites(tree: ast.AST) -> list[tuple[int, int, str]]:
    """Every mutation of `tree` as (node index in `ast.walk` order, operand
    index, description), in line order; the operand index picks one
    operator of a chained comparison."""
    skip = _docstrings(tree)
    out = []
    for index, node in enumerate(ast.walk(tree)):
        changes = []  # (operand index, old text, new text)
        if isinstance(node, ast.Compare):
            changes = [(k, SYMBOLS[type(op)], SYMBOLS[COMPARE_SWAPS[type(op)]])
                       for k, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(
                node.op) in OPERATOR_SWAPS:
            changes = [(0, SYMBOLS[type(node.op)],
                        SYMBOLS[OPERATOR_SWAPS[type(node.op)]])]
        elif isinstance(node, ast.BoolOp):
            changes = [(0, SYMBOLS[type(node.op)],
                        SYMBOLS[BOOL_SWAPS[type(node.op)]])]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            changes = [(0, "not", "(dropped)")]
        elif isinstance(node, ast.Constant) and id(node) not in skip:
            value = node.value
            if isinstance(value, bool):
                changes = [(0, repr(value), repr(not value))]
            elif isinstance(value, (int, float)):
                changes = [(0, repr(value), repr(value + 1))]
        for operand, old, new in changes:
            out.append((node.lineno, index, operand,
                        f"line {node.lineno}: {old} -> {new}"))
    return [site[1:] for site in sorted(out)]


class _Mutate(ast.NodeTransformer):
    """Applies the mutation to the node marked `_mutant`."""

    def __init__(self, operand: int):
        self.operand = operand

    def visit(self, node):
        node = self.generic_visit(node)
        if getattr(node, "_mutant", False):
            return self._mutated(node)
        return node

    def _mutated(self, node):
        if isinstance(node, ast.Compare):
            ops = list(node.ops)
            ops[self.operand] = COMPARE_SWAPS[type(ops[self.operand])]()
            node.ops = ops
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            node.op = OPERATOR_SWAPS[type(node.op)]()
        elif isinstance(node, ast.BoolOp):
            node.op = BOOL_SWAPS[type(node.op)]()
        elif isinstance(node, ast.UnaryOp):
            return node.operand
        elif isinstance(node.value, bool):
            node.value = not node.value
        else:
            node.value = node.value + 1
        return node


def mutant(tree: ast.AST, index: int, operand: int) -> str:
    """The source of `tree` with the mutation at (`index`, `operand`)."""
    tree = copy.deepcopy(tree)
    for k, node in enumerate(ast.walk(tree)):
        if k == index:
            node._mutant = True
            break
    return ast.unparse(ast.fix_missing_locations(
        _Mutate(operand).visit(tree)))


def run_tests(copy_root: Path, tests: list[str]) -> str:
    """"passed", "failed" or "timeout" for `tests` run in `copy_root`."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy_root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the tests' children too
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to "
                        "the checkout, such as src/vampvae/helper.py")
    parser.add_argument("--tests", nargs="+", default=list(DEFAULT_TESTS),
                        help="test files, relative to the checkout")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    found = sites(tree)
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy_root = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        target = copy_root / args.module
        target.write_text(ast.unparse(tree), encoding="utf-8")
        baseline = run_tests(copy_root, args.tests)
        if baseline != "passed":
            print(f"the unmutated module {baseline}; no mutant was run")
            return 1
        killed = 0
        for index, operand, description in found:
            target.write_text(mutant(tree, index, operand), encoding="utf-8")
            result = run_tests(copy_root, args.tests)
            survived = result == "passed"
            killed += not survived
            verdict = "SURVIVED" if survived else f"killed ({result})"
            print(f"{verdict:18} {description}", flush=True)
    print(f"{killed} of {len(found)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
