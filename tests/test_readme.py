"""README drift check: the library example runs and the root exports resolve."""

import re
from pathlib import Path

import semcal

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of README's "Library use" section."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README's Library use section has no python block"
    return match.group(1)


def test_readme_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["breakdown"].total >= 0.0


def test_root_exports_resolve():
    missing = [name for name in semcal.__all__ if not hasattr(semcal, name)]
    assert not missing
