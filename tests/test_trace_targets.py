"""The benchmark tracer's targets still exist in semcal.

``perfbench/tracing.py`` wraps functions and ``CostEvaluator`` methods by
name; a rename or deletion in semcal would otherwise surface only as a crash
of a traced benchmark run.
"""

import importlib

from helpers import load_perfbench
from semcal.costfield import CostEvaluator


def test_traced_functions_resolve():
    tracing = load_perfbench("tracing")
    missing = [(module, attr) for module, attr, _ in tracing._FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_traced_methods_resolve():
    tracing = load_perfbench("tracing")
    missing = [attr for attr, _ in tracing._METHODS
               if not callable(getattr(CostEvaluator, attr, None))]
    assert not missing


def test_tracer_installs_and_restores():
    tracing = load_perfbench("tracing")
    before = CostEvaluator.evaluate_total
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert CostEvaluator.evaluate_total is not before
    finally:
        tracer.uninstall()
    assert CostEvaluator.evaluate_total is before
