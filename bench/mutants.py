"""Mutants of ``src/semcal`` modules that the Tier-1 tests do not kill.

    python3 bench/mutants.py [--seed N] [--count N] MODULE...

Run it from the repository root; MODULE names a file of ``src/semcal``,
such as ``optimizer.py``.  A mutant is the module with one change:

* ``delete``: a statement inside a function becomes ``pass``.  As in
  ``bench/traffic.py``, ``raise`` statements and docstrings are left out,
  and so are nested ``def`` and ``class`` statements;
* ``compare``: ``<`` and ``<=``, ``>`` and ``>=``, or ``==`` and ``!=``
  swap, one operator of a comparison at a time;
* ``arith``: ``+`` and ``-``, or ``*`` and ``/`` swap, in an expression or
  an augmented assignment;
* ``bool``: ``and`` and ``or`` swap;
* ``const``: an int or float constant gains 1, or doubles, where that
  gives another value than the first change.

Annotations are never mutated: the modules do not evaluate them.  Every
site of every module is listed in file order; ``random.Random(SEED)``
draws COUNT of them, and they run in that list's order.  The mutant's
source is ``ast.unparse`` of the changed tree, so before any mutant the
unchanged modules, unparsed the same way, must pass the tests.

Each mutant runs on a private copy of the repository in a temporary
directory, never on the tree: the mutated module is written there, and
``python -m pytest -x`` runs the module's own test file
(``tests/test_<module>.py``) and then the rest of ``tests/``.  A mutant
that fails a test, fails to import or runs past ``TIMEOUT_S`` is killed;
one that passes every test survives.  Hypothesis's example database is
removed after each run, so no mutant replays another one's failures; its
random examples still differ from run to run, so a mutant that only they
kill may survive one sweep and not the next, until an ``@example`` pins it.
``JOBS`` mutants run at once, each on a copy of its own.  Each outcome
goes to stderr as it comes, and the survivors to stdout last, in file
order.

On a 2-core x86-64 host a killed mutant takes a few seconds and a survivor
the whole suite, about 45 s, so 300 mutants take about 40 minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semcal"
JOBS = 2  # pytest processes at once
TIMEOUT_S = 300.0  # per mutant: about 7 times the whole suite

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
          ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.And: "and", ast.Or: "or"}
_CONSTANTS = {"+1": lambda x: x + 1, "x2": lambda x: x * 2}


class Mutant(NamedTuple):
    """One change to ``module``: ``node`` is the index of the changed node in
    :func:`_nodes` order, ``variant`` the operator slot or constant change."""

    module: str
    line: int
    column: int
    kind: str
    node: int
    variant: str
    text: str  # what changes, for the report

    def __str__(self):
        return f"{self.module}:{self.line}:{self.column}: {self.kind}: {self.text}"


def _nodes(tree: ast.AST) -> list:
    """``(node, in_function)`` of every node of ``tree`` in file order, depth
    first, leaving out annotations."""
    found = []

    def visit(node, in_function):
        found.append((node, in_function))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, in_function)

    visit(tree, False)
    return found


def _deletable(node: ast.AST, in_function: bool) -> bool:
    docstring = (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
    return (in_function and isinstance(node, ast.stmt) and not docstring
            and not isinstance(node, (ast.Raise, ast.Pass, ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef)))


def _number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def sites(module: str, source: str) -> list[Mutant]:
    """Every mutant of ``module``, whose text is ``source``, in file order."""
    lines = source.splitlines()
    found = []
    for i, (node, in_function) in enumerate(_nodes(ast.parse(source))):
        at = (module, getattr(node, "lineno", 0), getattr(node, "col_offset", -1) + 1)
        if _deletable(node, in_function):
            found.append(Mutant(*at, "delete", i, "", lines[at[1] - 1].strip()))
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    text = f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[_FLIPS[type(op)]]}"
                    found.append(Mutant(*at, "compare", i, str(k), text))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _FLIPS:
            kind = "bool" if isinstance(node, ast.BoolOp) else "arith"
            text = f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_FLIPS[type(node.op)]]}"
            found.append(Mutant(*at, kind, i, "", text))
        elif _number(node):
            values = {node.value}
            for name, change in _CONSTANTS.items():
                if change(node.value) not in values:
                    values.add(change(node.value))
                    text = f"{node.value!r} -> {change(node.value)!r}"
                    found.append(Mutant(*at, "const", i, name, text))
    return found


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with ``mutant``'s one change, as ``ast.unparse`` writes it."""
    tree = ast.parse(source)
    node, _ = _nodes(tree)[mutant.node]
    if mutant.kind == "delete":
        for parent in ast.walk(tree):
            for _, value in ast.iter_fields(parent):
                if isinstance(value, list) and node in value:  # AST nodes compare by identity
                    value[value.index(node)] = ast.Pass()
    elif mutant.kind == "compare":
        k = int(mutant.variant)
        node.ops[k] = _FLIPS[type(node.ops[k])]()
    elif mutant.kind in ("arith", "bool"):
        node.op = _FLIPS[type(node.op)]()
    else:
        node.value = _CONSTANTS[mutant.variant](node.value)
    return ast.unparse(tree)


def draw(modules: list[str], seed: int, count: int) -> list[Mutant]:
    """``count`` mutants of ``modules``, files of ``src/semcal``, drawn with
    ``random.Random(seed)`` from every site of them in file order."""
    every = [m for name in modules for m in sites(name, (PACKAGE / name).read_text())]
    return random.Random(seed).sample(every, min(count, len(every)))


def _copy(into: Path) -> Path:
    """A copy of the repository under ``into``, without version control and caches."""
    target = into / "repo"
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
    return target


def _run_tests(repo: Path, module: str) -> str:
    """``survived``, ``killed`` or ``timeout``: pytest -x on ``repo``'s tests,
    the module's own test file first."""
    own = repo / "tests" / f"test_{Path(module).stem}.py"
    files = ([str(own)] if own.exists() else []) + [str(repo / "tests")]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *files], cwd=repo, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        outcome = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "timeout"
    shutil.rmtree(repo / ".hypothesis", ignore_errors=True)
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="files of src/semcal, e.g. optimizer.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200, help="mutants to draw over all modules")
    args = parser.parse_args()
    mutants = draw(args.modules, args.seed, args.count)
    sources = {name: (PACKAGE / name).read_text() for name in args.modules}

    with tempfile.TemporaryDirectory() as tmp:
        copies: Queue = Queue()
        for j in range(JOBS):
            repo = _copy(Path(tmp) / str(j))
            for name, source in sources.items():  # the control: unparsed, unchanged
                (repo / "src" / "semcal" / name).write_text(ast.unparse(ast.parse(source)))
            copies.put(repo)
        repo = copies.get()
        if _run_tests(repo, args.modules[0]) != "survived":
            raise SystemExit("the unmutated modules, unparsed, fail the tests")
        copies.put(repo)

        def run(mutant: Mutant) -> str:
            repo = copies.get()
            path = repo / "src" / "semcal" / mutant.module
            try:
                start = time.perf_counter()
                path.write_text(mutate(sources[mutant.module], mutant))
                outcome = _run_tests(repo, mutant.module)
                print(f"{outcome:8s} {time.perf_counter() - start:6.1f} s  {mutant}",
                      file=sys.stderr, flush=True)
                return outcome
            finally:
                path.write_text(ast.unparse(ast.parse(sources[mutant.module])))
                copies.put(repo)

        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(run, mutants))

    survivors = sorted((m for m, o in zip(mutants, outcomes) if o == "survived"),
                       key=lambda m: (m.module, m.node, m.variant))
    for m in survivors:
        print(m)
    timeouts = outcomes.count("timeout")
    print(f"{len(survivors)} of {len(mutants)} mutants of {', '.join(args.modules)} survived "
          f"(seed {args.seed}; {timeouts} killed by the timeout)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
