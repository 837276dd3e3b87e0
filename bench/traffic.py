"""Statements of ``src/semcal`` that no benchmark operation runs.

    python3 bench/traffic.py [--src SRC]

Run it from the repository root.  It writes every perfbench workload's
scenes with ``perfbench/workloads.prepare(name, 0, tmp)``, as one pass of
the benchmark at seed 0 would, and runs each item once through
``semcal.cli.main`` under ``sys.settrace``, tracing only frames whose code
lies in ``SRC/semcal`` (``src/semcal`` by default; pass another tree's
``src`` to trace that tree instead).  It then prints, per module, each
statement that no operation ran, by first line and its text.

The statements come from each module's ``ast``.  Only statements inside
functions count: lines at module or class level run on import, not in an
operation.  ``raise`` statements and docstrings are skipped, since error
paths are not workload traffic and a docstring runs no code.  A statement
counts as run when any of its lines gets a line event; a compound
statement counts by the lines of its header.

It only imports ``perfbench/workloads.py``, never edits it.  One run takes
a few seconds on a 2-core x86-64 host, the tracing included.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def statements(path: Path) -> dict[tuple[int, int], str]:
    """``(first line, last line)`` and first line's text of each statement of
    ``path`` that sits in a function, leaving out ``raise`` statements and
    docstrings.  A compound statement spans its header only."""
    lines = path.read_text().splitlines()
    found = {}

    def visit(node, in_function: bool):
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))
            if (in_function and isinstance(child, ast.stmt) and not docstring
                    and not isinstance(child, ast.Raise)):
                body = getattr(child, "body", None)
                last = body[0].lineno - 1 if body else child.end_lineno
                found[child.lineno, max(last, child.lineno)] = lines[child.lineno - 1].strip()
            visit(child, in_function)

    visit(ast.parse("\n".join(lines), str(path)), False)
    return found


def trace_items(package: Path, items: list[dict], out_root: Path) -> dict[str, set[int]]:
    """Run each item's argv through ``semcal.cli.main`` once and return, per
    file of ``package``, the lines that got a line event."""
    import semcal.cli

    prefix = str(package) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    for i, item in enumerate(items):
        argv = [*item["argv"], "--output", str(out_root / f"{i:02d}_{item['key']}")]
        sys.settrace(tracer)
        try:
            rc = semcal.cli.main(argv)
        finally:
            sys.settrace(None)
        if rc != 0:
            raise SystemExit(f"{item['key']}: exit code {rc}")
        print(f"ran {item['key']}", file=sys.stderr)
    return ran


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source tree whose semcal package runs and is traced")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import semcal
    import workloads

    package = Path(semcal.__file__).resolve().parent
    if package != src / "semcal":
        raise SystemExit(f"imported semcal from {package}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        items = []
        for name in workloads.WORKLOADS:
            items += workloads.prepare(name, 0, tmp / name)
        ran = trace_items(package, items, tmp / "out")
    total = 0
    for path in sorted(package.glob("*.py")):
        hit = ran[str(path)]
        missed = {span: text for span, text in statements(path).items()
                  if not any(n in hit for n in range(span[0], span[1] + 1))}
        total += len(missed)
        for (n, _), text in sorted(missed.items()):
            print(f"{path.name}:{n}: {text}")
    print(f"{total} statements in functions ran in no operation of "
          f"{len(items)} ({', '.join(workloads.WORKLOADS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
