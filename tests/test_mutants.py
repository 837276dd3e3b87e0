"""``bench/mutants.py`` still draws the mutants it documents.

A sweep takes tens of minutes, so Tier-1 runs none; it checks the drawing
and the one change each mutant makes, which a rename in semcal or a new
Python version could otherwise break unnoticed.
"""

import ast

from helpers import load_script

MODULES = ["costfield.py", "optimizer.py", "geometry.py", "pnp_init.py"]


def differences(a, b, path=()):
    """Paths of the outermost nodes where trees ``a`` and ``b`` differ."""
    if type(a) is not type(b):
        return [path]
    if isinstance(a, ast.AST):
        return [d for field in a._fields
                for d in differences(getattr(a, field), getattr(b, field), path + (field,))]
    if isinstance(a, list):
        if len(a) != len(b):
            return [path]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, path + (i,))]
    return [] if a == b else [path]


def test_draw_is_deterministic_for_a_seed():
    mutants = load_script("bench", "mutants")
    first = mutants.draw(MODULES, 0, 200)
    assert len(first) == len(set(first)) == 200
    assert mutants.draw(MODULES, 0, 200) == first
    assert mutants.draw(MODULES, 1, 200) != first
    assert {m.module for m in first} == set(MODULES)
    assert {m.kind for m in first} == {"delete", "compare", "arith", "bool", "const"}


def test_each_mutant_parses_and_changes_one_node():
    mutants = load_script("bench", "mutants")
    for module in MODULES:
        source = (mutants.PACKAGE / module).read_text()
        tree = ast.parse(source)
        assert differences(ast.parse(ast.unparse(tree)), tree) == []
        every = mutants.draw([module], 0, 10**6)  # all of them, shuffled
        some = [m for kind in ("delete", "compare", "arith", "bool", "const")
                for m in [m for m in every if m.kind == kind][:1]]
        for mutant in some:
            changed = differences(ast.parse(mutants.mutate(source, mutant)), tree)
            assert len(changed) == 1, mutant
            node = tree
            for step in changed[0][:-1] if mutant.kind == "const" else changed[0]:
                node = node[step] if isinstance(step, int) else getattr(node, step)
            assert getattr(node, "lineno", mutant.line) == mutant.line, mutant
