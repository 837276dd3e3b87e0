"""Tests for the derivative-free optimizer and the calibration driver."""

import numpy as np
import pytest

from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError, NonFiniteCost
from semcal.geometry import Extrinsics, RotationAngles, Translation
import semcal.optimizer
from semcal.io_formats import RunConfig
from semcal.optimizer import (
    _line,
    _probe_directions,
    calibrate,
    powell_minimize,
    trial_steps,
)
from semcal.synth import SceneSpec, generate, perturb


def test_config_validation():
    with pytest.raises(CalibrationError):
        RunConfig(max_iterations=0)
    with pytest.raises(CalibrationError):
        RunConfig(ftol=0.0)
    with pytest.raises(CalibrationError):
        RunConfig(line_tol=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(CalibrationError):
            RunConfig(ftol=bad)
        with pytest.raises(CalibrationError):
            RunConfig(line_tol=bad)


def test_config_default_steps():
    assert np.array_equal(trial_steps(6), [0.05, 0.05, 0.05, 0.1, 0.1, 0.1])
    assert np.array_equal(trial_steps(2), [1.0, 1.0])


def line_minimize(f, x, direction, tol=1e-6):
    """``(step, cost)`` of :func:`_line` along ``x + step * direction``."""
    return _line(lambda a: f(x + a * direction), f(x), tol)


def test_line_minimize_parabola():
    f = lambda x: (x[0] - 2.0) ** 2 + 1.0
    step, cost = line_minimize(f, np.zeros(1), np.ones(1), tol=1e-8)
    assert abs(step - 2.0) < 1e-6
    assert abs(cost - 1.0) < 1e-12


def test_line_minimize_negative_direction():
    f = lambda x: (x[0] + 3.0) ** 2
    step, cost = line_minimize(f, np.zeros(1), np.ones(1))
    assert abs(step + 3.0) < 1e-6


def test_line_minimize_along_diagonal():
    # minimum of |x - (1,1)|^2 along the diagonal from the origin
    f = lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2)
    step, cost = line_minimize(f, np.zeros(2), np.array([1.0, 1.0]), tol=1e-8)
    assert abs(step - 1.0) < 1e-6
    assert cost < 1e-10


def test_line_minimize_flat_returns_zero_step():
    step, cost = line_minimize(lambda x: 5.0, np.zeros(3), np.ones(3))
    assert step == 0.0 and cost == 5.0


def test_line_minimize_uphill_both_ways():
    f = lambda x: abs(x[0])
    step, cost = line_minimize(f, np.zeros(1), np.ones(1))
    assert step == 0.0 and cost == 0.0


def test_powell_quadratic_identity():
    c = np.array([1.0, -2.0, 0.5])
    f = lambda x: float(np.sum((x - c) ** 2))
    x, fx, trace = powell_minimize(f, np.zeros(3))
    assert np.allclose(x, c, atol=1e-6)
    assert fx < 1e-10
    # an exact landing ends as stalled, a tiny final decrease as converged
    assert trace.termination in {"converged", "stalled"}


def test_powell_quadratic_coupled():
    a = np.array([[4.0, 1.2], [1.2, 2.0]])
    c = np.array([0.3, -0.7])
    f = lambda x: float((x - c) @ a @ (x - c))
    x, fx, trace = powell_minimize(f, np.array([5.0, 5.0]))
    assert np.allclose(x, c, atol=1e-6)
    assert fx < 1e-10


def test_powell_rosenbrock():
    f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    x, fx, trace = powell_minimize(
        f, np.array([-1.2, 1.0]), RunConfig(max_iterations=500, ftol=1e-12)
    )
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)
    assert trace.termination == "converged"


def test_powell_trace_non_increasing():
    f = lambda x: float(np.sum(x ** 2))
    _, _, trace = powell_minimize(f, np.full(4, 3.0))
    costs = [c for _, _, c in trace.points]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert trace.points[0][0] == 0
    assert trace.n_evaluations > 0


def test_powell_max_iterations():
    f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    _, _, trace = powell_minimize(f, np.array([-1.2, 1.0]), RunConfig(max_iterations=2))
    assert trace.termination == "max_iterations"
    assert trace.points[-1][0] == 2


def test_powell_stalls_on_constant():
    _, fx, trace = powell_minimize(lambda x: 7.0, np.zeros(2))
    assert fx == 7.0
    assert trace.termination == "stalled"


def test_non_finite_cost_raises():
    def f(x):
        return np.nan if x[0] > 0.5 else -x[0]

    with pytest.raises(NonFiniteCost):
        powell_minimize(f, np.zeros(1))


def test_probe_directions_cover_pairs():
    sigma = np.array([0.05] * 3 + [0.1] * 3)
    dirs = list(_probe_directions(sigma, np.random.default_rng(0)))
    pairwise = [d for d in dirs if np.count_nonzero(d) == 2]
    # every unordered parameter pair appears with both relative signs
    assert len(pairwise) == 30
    assert len(dirs) == 30 + 64
    assert all(np.linalg.norm(d) > 0 for d in dirs)


def test_calibrate_recovers_clean_scene():
    spec = SceneSpec(n_frames=4, objects_per_frame=1, seed=3, dilation=2)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(0.4), 0.04, seed=11)
    est, breakdown, trace = calibrate(CostEvaluator(scene.pairs, spec.classes), start)
    assert breakdown.total == 0.0
    err = np.abs(np.asarray(est.to_vector()) - np.asarray(scene.extrinsics.to_vector()))
    assert np.all(err[:3] < np.deg2rad(0.5))
    assert np.all(err[3:] < 0.05)
    costs = [c for _, _, c in trace.points]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert trace.termination in {"converged", "max_iterations", "stalled"}


def test_calibrate_runs_the_kernel_once_per_distinct_pose(monkeypatch):
    """The memo serves exactly the repeated samples, and every sample gets
    the value a memo-free objective would compute, so the path is unchanged."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=4)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=2)
    evaluator = CostEvaluator(scene.pairs, spec.classes)
    kernel_calls = []
    evaluate_total = evaluator.evaluate_total
    monkeypatch.setattr(evaluator, "evaluate_total",
                        lambda ext: kernel_calls.append(ext) or evaluate_total(ext))
    samples = []

    class Recording(semcal.optimizer._Objective):
        __slots__ = ()

        def __call__(self, x):
            value = super().__call__(x)
            samples.append((x.copy(), value))
            return value

    monkeypatch.setattr(semcal.optimizer, "_Objective", Recording)
    _, _, trace = calibrate(evaluator, start)
    assert len(samples) == trace.n_evaluations
    assert 0 < trace.n_repeated < trace.n_evaluations
    assert len(kernel_calls) == trace.n_evaluations - trace.n_repeated
    assert len({x.tobytes() for x, _ in samples}) == len(kernel_calls)
    memo_free = CostEvaluator(scene.pairs, spec.classes)
    assert all(value == memo_free.evaluate_total(Extrinsics.from_vector(x))
               for x, value in samples)
