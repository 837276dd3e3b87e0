"""Tests for the derivative-free optimizer and the calibration driver."""

import numpy as np
import pytest

from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError, NonFiniteCost
from semcal.geometry import Extrinsics, RotationAngles, Translation
import semcal.geometry
import semcal.optimizer
from semcal.optimizer import (
    _TRIAL_STEPS,
    _from_centered,
    _line,
    _probe_directions,
    _to_centered,
    calibrate,
    powell_minimize,
)
from semcal.synth import SceneSpec, generate, perturb


def line_minimize(f, x, direction):
    """``(step, cost)`` of :func:`_line` along ``x + step * direction``."""
    return _line(lambda a: f(x + a * direction), f(x))


def test_line_minimize_parabola():
    f = lambda x: (x[0] - 2.0) ** 2 + 1.0
    step, cost = line_minimize(f, np.zeros(1), np.ones(1))
    assert abs(step - 2.0) < 1e-6
    assert abs(cost - 1.0) < 1e-12


def test_line_minimize_negative_direction():
    f = lambda x: (x[0] + 3.0) ** 2
    step, cost = line_minimize(f, np.zeros(1), np.ones(1))
    assert abs(step + 3.0) < 1e-6


def test_line_minimize_along_diagonal():
    # minimum of |x - (1,1)|^2 along the diagonal from the origin
    f = lambda x: float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2)
    step, cost = line_minimize(f, np.zeros(2), np.array([1.0, 1.0]))
    assert abs(step - 1.0) < 1e-6
    assert cost < 1e-10


def test_line_minimize_flat_returns_zero_step():
    step, cost = line_minimize(lambda x: 5.0, np.zeros(3), np.ones(3))
    assert step == 0.0 and cost == 5.0


def test_line_minimize_uphill_both_ways():
    f = lambda x: abs(x[0])
    step, cost = line_minimize(f, np.zeros(1), np.ones(1))
    assert step == 0.0 and cost == 0.0


@pytest.mark.parametrize("centre", [0.3, -0.7, 2.9, 40.3])
def test_line_minimize_staircase_stops_on_plateau(centre):
    """On a pixel-quantized cost the refinement stops once the samples repeat.

    Brent's loop alone would keep halving the flat bottom step down to
    ``_LINE_TOL``, spending every sample on the same value.
    """
    values = []

    def g(a):
        values.append(float(np.floor(64.0 * (a - centre) ** 2)))
        return values[-1]

    step, cost = _line(g, g(0.0))
    assert cost == 0.0 and abs(step - centre) < 1.0 / 8.0  # on the bottom step
    last_change = max(i for i in range(1, len(values)) if values[i] != values[i - 1])
    assert len(values) - 1 - last_change <= 4  # _PLATEAU_SAMPLES, by its value


def test_line_gives_up_a_side_three_samples_after_it_turns_uphill():
    """Each side steps out on the grid 2^k, k = -4 up, until three samples in
    a row rise from the sample before them and are no better than the best:
    the positive side passes its minimum at 1/2 and stops at 4, and the
    negative side, rising from its first sample on, stops at -1/2."""
    sampled = []

    def g(a):
        sampled.append(a)
        return 100.0 if a == 0.0 else abs(a - 0.5)

    assert _line(g, 100.0, refine=False) == (0.5, 0.0)
    assert sampled == [2.0**k for k in range(-4, 3)] + [-(2.0**k) for k in range(-4, 0)]


def test_line_doubles_past_the_grid_edge_while_the_cost_falls():
    """A side still falling at the grid's last step, 8, doubles it while the
    cost keeps falling: on |a - 20| to 16, then 32 ends it."""
    sampled = []

    def g(a):
        sampled.append(a)
        return abs(a - 20.0)

    assert _line(g, 20.0, refine=False) == (16.0, 4.0)
    grid = [2.0**k for k in range(-4, 4)] + [-(2.0**k) for k in range(-4, -1)]
    assert sampled == grid + [16.0, 32.0]  # both sides of the grid, then the doubling


def test_line_without_refinement_returns_the_best_grid_point():
    """``refine=False`` returns the best grid sample as it is, with no sample
    off the grid; a flat line returns (0, f0)."""
    sampled = []

    def g(a):
        sampled.append(a)
        return (a - 0.3) ** 2

    assert _line(g, g(0.0), refine=False) == (0.25, (0.25 - 0.3) ** 2)
    grid = {sign * 2.0**k for sign in (1.0, -1.0) for k in range(-4, 4)}
    assert set(sampled[1:]) <= grid
    assert _line(lambda a: 5.0, 5.0, refine=False) == (0.0, 5.0)


def test_line_refinement_takes_brents_steps():
    """Brent's golden and parabolic steps, each at least ``tol1`` long and in
    the direction it was proposed, on a quartic that no parabola fits, with
    its minimum at -1.9875: a pinned path of 26 samples and its end point,
    so that a change to any step rule of ``_brent`` shows here."""
    samples = []

    def g(a):
        samples.append(a)
        d = a + 1.8
        return d * d * d * d + 0.25 * d * d * d

    assert _line(g, g(0.0)) == (-1.9874994325350586, -0.0004119873046648584)
    assert len(samples) == 26


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
    x, fx, trace = powell_minimize(f, np.array([-1.2, 1.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)
    assert trace.termination == "converged"


def test_powell_trace_non_increasing():
    f = lambda x: float(np.sum(x ** 2))
    _, _, trace = powell_minimize(f, np.full(4, 3.0))
    costs = [c for _, _, c in trace.points]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert trace.points[0][0] == 0
    assert trace.n_evaluations > 0


def test_powell_max_iterations(monkeypatch):
    f = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    monkeypatch.setattr(semcal.optimizer, "_MAX_ITERATIONS", 2)
    _, _, trace = powell_minimize(f, np.array([-1.2, 1.0]))
    assert trace.termination == "max_iterations"
    assert trace.points[-1][0] == 2


def test_powell_replaces_a_direction_when_the_textbook_test_accepts(monkeypatch):
    """After each sweep that does not end the run, the displacement x1 - x0
    replaces a direction, with a line search along it, exactly when Powell's
    test as Numerical Recipes' ``powell`` writes it accepts: f(2 x1 - x0) < f0
    and 2 (f0 - 2 f1 + fe) (f0 - f1 - D)^2 < D (f0 - fe)^2, with D the
    largest drop along one direction of the sweep; on 100 random 2-D and
    3-D quadratics, with both outcomes taken."""
    calls, sweep = [], semcal.optimizer._sweep

    def recording(f, x, current, directions, refine=True):
        calls.append((x, current, len(directions), sweep(f, x, current, directions, refine)))
        return calls[-1][3]

    monkeypatch.setattr(semcal.optimizer, "_sweep", recording)
    rng = np.random.default_rng(0)
    outcomes = []
    for _ in range(100):
        n = int(rng.integers(2, 4))
        q, c = rng.normal(size=(n, n)), rng.normal(scale=3.0, size=n)
        a = q @ q.T + 0.3 * np.eye(n)
        f = lambda x: float((x - c) @ a @ (x - c))
        calls.clear()
        powell_minimize(f, np.round(rng.normal(scale=3.0, size=n), 1))
        for (x0, f0, size, (x1, f1, drop, _)), after in zip(calls, calls[1:]):
            if size == n:  # a sweep over the direction set, not along a displacement
                fe = f(x1 + (x1 - x0))
                t = 2.0 * (f0 - 2.0 * f1 + fe) * (f0 - f1 - drop) ** 2 - drop * (f0 - fe) ** 2
                outcomes.append(fe < f0 and t < 0.0)
                assert (after[2] == 1) == outcomes[-1]
    assert 0 < sum(outcomes) < len(outcomes)


def test_powell_takes_unit_steps_in_six_dimensions():
    """A 6-parameter objective gets the unit grid of any other: the first
    line search samples x0 + 2^k e0 for k = -4.. on each side until it
    turns uphill, here three samples a side."""
    samples = []

    def f(x):
        samples.append(x.copy())
        return float(np.sum(np.arange(1.0, 7.0) * (x + 3.0) ** 2))

    powell_minimize(f, np.zeros(6))
    grid = [sign * 2.0**k for sign in (1.0, -1.0) for k in (-4, -3, -2)]
    assert np.array_equal(samples[0], np.zeros(6))
    assert np.array_equal(np.array(samples[1:7]), np.outer(grid, np.eye(6)[0]))


def test_powell_stalls_on_constant():
    """The first sweep that finds nothing lower ends the run, with no second
    sweep from a fresh basis, also at a cost of exactly 0: the start row and
    one sweep row, and 13 evaluations, the start and then 3 grid samples per
    direction and side before that side counts as turned uphill."""
    for value in (7.0, 0.0):
        _, fx, trace = powell_minimize(lambda x: value, np.zeros(2))
        assert fx == value
        assert trace.termination == "stalled"
        assert [it for it, _, _ in trace.points] == [0, 1]
        assert trace.n_evaluations == 13
        assert (trace.n_repeated, trace.n_probe) == (0, 0)  # a plain Powell run has neither


def test_powell_ends_on_a_sweep_that_cuts_less_than_ftol():
    """A sweep whose cut is at most ``_FTOL`` of the mean of its end costs
    ends the run as converged, however far it moved: here one step down of
    8e-9 from a cost of 1, so 2 x 8e-9 against 1e-8 x (2 - 8e-9)."""
    _, fx, trace = powell_minimize(lambda x: 1.0 - 8e-9 * (x[0] >= 0.05), np.zeros(1))
    assert fx == 1.0 - 8e-9
    assert trace.termination == "converged"
    assert [it for it, _, _ in trace.points] == [0, 1]


def test_non_finite_cost_raises():
    def f(x):
        return np.nan if x[0] > 0.5 else -x[0]

    with pytest.raises(NonFiniteCost):
        powell_minimize(f, np.zeros(1))


def test_probe_directions_cover_pairs():
    sigma = np.array([0.05] * 3 + [0.1] * 3)
    dirs = list(_probe_directions(sigma))
    # every unordered parameter pair appears with both relative signs, once
    assert len(dirs) == 30
    assert all(np.count_nonzero(d) == 2 for d in dirs)
    pairs = {(tuple(np.flatnonzero(d)), np.sign(d[d != 0]).prod()) for d in dirs}
    assert len(pairs) == 30
    assert all(np.array_equal(np.abs(d[d != 0]), sigma[d != 0]) for d in dirs)



@pytest.mark.parametrize("seed", range(4))
def test_centered_map_round_trips(seed):
    """(theta, t) -> (theta, c) -> (theta, t) returns the pose, and c is
    where the camera sees the center, on random poses and KITTI-like rigs."""
    rng = np.random.default_rng(seed)
    angles = [rng.uniform(-np.pi, np.pi, 3) for _ in range(40)]
    angles += [np.deg2rad([0.7, -89.2, 90.4]), np.deg2rad([0.0, -90.0, 90.0])]
    for theta in angles:
        ext = Extrinsics(RotationAngles(*theta), Translation(*rng.uniform(-3.0, 3.0, 3)))
        center = rng.normal(scale=10.0, size=3)
        y = _to_centered(ext, center)
        r, t = ext.matrix()
        assert np.array_equal(y[:3], ext.rotation.as_array())
        assert np.allclose(y[3:], r @ center + t, rtol=0.0, atol=1e-12)
        back = _from_centered(y, center)
        assert np.allclose(back.to_vector(), ext.to_vector(), rtol=0.0, atol=1e-12)


def recording_kernel(monkeypatch, evaluator) -> list:
    """The poses ``evaluator.evaluate_total`` is sent from now on, in order."""
    sent, evaluate_total = [], evaluator.evaluate_total
    monkeypatch.setattr(evaluator, "evaluate_total",
                        lambda pose: sent.append(pose) or evaluate_total(pose))
    return sent


def test_calibrate_steps_the_angles_by_a_twentieth_radian(monkeypatch):
    """The first line search of ``calibrate`` samples the centered theta_x at
    0.05 * 2^k rad, k = -4 up, and leaves the other coordinates in place."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=4)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=2)
    evaluator = CostEvaluator(scene.pairs, spec.classes)
    sent = recording_kernel(monkeypatch, evaluator)
    calibrate(evaluator, start)
    # each pose back in (theta, c), where c = R @ center + t
    sent = [np.concatenate([pose.to_vector()[:3], pose.matrix()[0] @ evaluator.center
                            + pose.matrix()[1]]) for pose in sent[:4]]
    moves = np.array(sent[1:4]) - sent[0]
    assert np.allclose(moves[:, 0], 0.05 * 2.0 ** np.arange(-4, -1), rtol=1e-12, atol=0.0)
    assert np.allclose(moves[:, 1:], 0.0, rtol=0.0, atol=1e-12)


def test_calibrate_recovers_clean_scene():
    spec = SceneSpec(n_frames=4, objects_per_frame=1, seed=3, dilation=2)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(0.4), 0.04, seed=11)
    est, breakdown, trace = calibrate(CostEvaluator(scene.pairs, spec.classes), start)
    assert breakdown.total == 0.0
    err = np.abs(np.asarray(est.to_vector()) - np.asarray(scene.extrinsics.to_vector()))
    # Cost 0 is the global minimum, but on this 4-object scene it is a set:
    # along theta_z alone the cost stays exactly 0 from -1.88 to +1.41 degrees
    # around the truth (0.01-degree sweep), against -0.31..+0.31 for theta_x
    # and -0.34..+0.30 for theta_y.  So theta_z is held to the 1-degree band
    # of criterion 6 and the other two angles to 0.5 degrees.
    assert np.all(err[:3] < np.deg2rad([0.5, 0.5, 1.0]))
    assert np.all(err[3:] < 0.05)
    costs = [c for _, _, c in trace.points]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert trace.termination in {"converged", "max_iterations", "stalled"}


def test_calibrate_counts_probe_samples(monkeypatch):
    """``n_probe`` is every sample that no Powell run took."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=4)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=2)
    powell_samples = []
    powell_minimize = semcal.optimizer.powell_minimize

    def counting(*args, **kwargs):
        result = powell_minimize(*args, **kwargs)
        powell_samples.append(result[2].n_evaluations)
        return result

    monkeypatch.setattr(semcal.optimizer, "powell_minimize", counting)
    _, _, trace = calibrate(CostEvaluator(scene.pairs, spec.classes), start)
    assert 0 < trace.n_probe == trace.n_evaluations - sum(powell_samples)


def test_calibrate_numbers_trace_rows_in_order(monkeypatch):
    """The rows of a run with probe rows are numbered 0..n-1, and their costs
    are the Powell runs' rows in order: a later run's first row is the probe
    row before it, so it is not repeated."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=2)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=0)
    runs = []
    powell_minimize = semcal.optimizer.powell_minimize

    def recording(*args, **kwargs):
        result = powell_minimize(*args, **kwargs)
        runs.append([cost for _, _, cost in result[2].points])
        return result

    monkeypatch.setattr(semcal.optimizer, "powell_minimize", recording)
    _, _, trace = calibrate(CostEvaluator(scene.pairs, spec.classes), start)
    assert len(runs) > 1  # so the run has probe rows
    assert [it for it, _, _ in trace.points] == list(range(len(trace.points)))
    costs = [cost for run in runs for cost in run]
    assert [cost for _, _, cost in trace.points][:len(costs)] == costs


def test_calibrate_trace_rows_replay_their_costs(monkeypatch):
    """Each trace row's vector, read back through ``Extrinsics.from_vector``,
    gives the row's cost bit for bit on a fresh evaluator, and the last row
    is the estimate: on a run with probe rows, so rows of both stages and of
    a restarted Powell run are replayed, in (theta, t) and in radians and
    meters."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=2)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=0)
    runs = []
    powell_minimize = semcal.optimizer.powell_minimize
    monkeypatch.setattr(semcal.optimizer, "powell_minimize",
                        lambda *args: runs.append(args) or powell_minimize(*args))
    est, breakdown, trace = calibrate(CostEvaluator(scene.pairs, spec.classes), start)
    assert len(runs) > 1  # so the run has probe rows
    replay = CostEvaluator(scene.pairs, spec.classes)
    assert [replay.evaluate_total(Extrinsics.from_vector(vector))
            for _, vector, _ in trace.points] == [cost for _, _, cost in trace.points]
    assert np.array_equal(trace.points[-1][1], est.to_vector())
    assert trace.points[-1][2] == breakdown.total


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
        """Records each sample as a centered pose: Powell's objective,
        ``calibrate``'s ``scaled``, takes it in trial-step units."""

        __slots__ = ()

        def __call__(self, x):
            value = super().__call__(x)
            scale = semcal.optimizer._TRIAL_STEPS if self.f.__name__ == "scaled" else 1.0
            samples.append((x * scale, value))
            return value

    monkeypatch.setattr(semcal.optimizer, "_Objective", Recording)
    _, _, trace = calibrate(evaluator, start)
    assert len(samples) == trace.n_evaluations
    assert 0 < trace.n_repeated < trace.n_evaluations
    assert len(kernel_calls) == trace.n_evaluations - trace.n_repeated
    assert len({x.tobytes() for x, _ in samples}) == len(kernel_calls)
    memo_free = CostEvaluator(scene.pairs, spec.classes)
    assert all(value == memo_free.evaluate_total(_from_centered(y, memo_free.center))
               for y, value in samples)


def test_calibrate_builds_one_rotation_per_angle_change(monkeypatch):
    """A pose sent to the kernel builds a rotation only when its angles
    differ from those of the pose sent before it, and shares the read-only
    R of that pose otherwise; the kernel builds none; beyond those, each
    trace row and the estimate build two: one to move the translation back
    from c, one that ``Extrinsics`` keeps."""
    spec = SceneSpec(n_frames=3, objects_per_frame=2, noise_rate=0.02, seed=4)
    scene = generate(spec)
    start = perturb(scene.extrinsics, np.deg2rad(1.0), 0.1, seed=2)
    evaluator = CostEvaluator(scene.pairs, spec.classes)
    sent = recording_kernel(monkeypatch, evaluator)
    built = []
    rotation_matrix = semcal.geometry.rotation_matrix

    def counting(angles):
        built.append(angles)
        return rotation_matrix(angles)

    # the optimizer calls it by its own name, Extrinsics by the module's
    monkeypatch.setattr(semcal.geometry, "rotation_matrix", counting)
    monkeypatch.setattr(semcal.optimizer, "rotation_matrix", counting)
    _, _, trace = calibrate(evaluator, start)
    assert len(sent) == trace.n_evaluations - trace.n_repeated > 100
    angles = [pose.to_vector()[:3].tobytes() for pose in sent]
    changes = [i for i in range(len(sent)) if i == 0 or angles[i] != angles[i - 1]]
    assert len(sent) > len(changes) > 100
    assert len(built) == len(changes) + 2 * (len(trace.points) + 1)
    for i in range(1, len(sent)):
        assert (sent[i].matrix()[0] is sent[i - 1].matrix()[0]) == (i not in changes)
    assert not any(pose.matrix()[0].flags.writeable for pose in sent)


class _Stop(Exception):
    pass


class Sampled:
    """An evaluator that records the poses it is sent and prices each at 1."""

    def __init__(self, center):
        self.center, self.sent = np.asarray(center, dtype=float), []

    def evaluate_total(self, pose):
        self.sent.append(pose)
        return 1.0


def sampler(monkeypatch, evaluator):
    """The objective ``calibrate`` hands Powell on ``evaluator``: it takes a
    centered pose in trial-step units."""
    def capture(f, x0):
        raise _Stop(f)

    monkeypatch.setattr(semcal.optimizer, "powell_minimize", capture)
    with pytest.raises(_Stop) as stop:
        calibrate(evaluator, Extrinsics.identity())
    return stop.value.args[0]


@pytest.mark.parametrize("angles", [(3.5, -0.2, 0.1), (0.1, -4.0, 7.0),
                                    (np.pi, -np.pi, 3 * np.pi), (-7.0, 9.5, np.pi + 1e-12)])
def test_a_sample_beyond_pi_is_the_pose_from_vector_builds(monkeypatch, angles):
    """A sample of (theta, c) is ``Extrinsics.from_vector`` of (theta, c - R @
    center), R of the wrapped angles: the same R bytes, t bytes and
    ``to_vector()`` bytes, as floats; moving c alone keeps the read-only R."""
    evaluator = Sampled(np.array([0.7, -1.3, 9.1]))
    sample = sampler(monkeypatch, evaluator)
    z = np.array([*angles, 0.5, -1.5, 8.0]) / _TRIAL_STEPS
    sample(z)
    sample(z + np.eye(6)[3])
    for pose, y in zip(evaluator.sent, (z * _TRIAL_STEPS, (z + np.eye(6)[3]) * _TRIAL_STEPS)):
        r = semcal.geometry.rotation_matrix(RotationAngles(*y[:3]))
        ext = Extrinsics.from_vector(np.concatenate([y[:3], y[3:] - r @ evaluator.center]))
        assert pose.matrix()[0].tobytes() == ext.matrix()[0].tobytes()
        assert pose.matrix()[1].tobytes() == ext.matrix()[1].tobytes()
        assert pose.to_vector().tobytes() == ext.to_vector().tobytes()
        assert all(type(x) is float for x in pose.to_vector().tolist())
        assert not pose.matrix()[0].flags.writeable
    assert evaluator.sent[0].matrix()[0] is evaluator.sent[1].matrix()[0]


def test_a_unit_of_the_search_is_a_twentieth_radian_or_a_tenth_meter(monkeypatch):
    """Powell's unit step along each coordinate moves the pose by 0.05 rad
    along an angle and by 0.1 m along the translation (c = t here, as the
    center is the origin)."""
    evaluator = Sampled(np.zeros(3))
    sample = sampler(monkeypatch, evaluator)
    for step in np.eye(6):
        sample(step)
    assert np.array_equal([pose.to_vector() for pose in evaluator.sent],
                          np.diag([0.05, 0.05, 0.05, 0.1, 0.1, 0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", range(6))
def test_a_non_finite_sample_is_a_calibration_error(monkeypatch, axis, bad):
    """A non-finite angle or translation ends the search in a
    CalibrationError before the kernel sees it, also when it follows a
    finite sample of the same angles."""
    evaluator = Sampled(np.array([0.3, -0.2, 9.0]))
    sample = sampler(monkeypatch, evaluator)
    z = np.array([0.1, -0.2, 0.3, 1.0, 2.0, 3.0])
    sample(z)
    z[axis] = bad
    with pytest.raises(CalibrationError, match="finite"):
        sample(z)
    assert len(evaluator.sent) == 1


class Priced(Sampled):
    """A ``Sampled`` that prices each pose at ``price`` of its (theta, t)."""

    def __init__(self, center, price):
        super().__init__(center)
        self.price = price

    def evaluate_total(self, pose):
        super().evaluate_total(pose)
        return self.price(pose.to_vector())

    def evaluate(self, ext):
        return self.price(ext.to_vector())


def test_calibrate_stops_when_the_probe_stage_finds_no_descent():
    """On a constant cost, Powell's first sweep stalls; one probe pass then
    samples each of the 30 diagonals three times a side, finds nothing
    lower, and that ends the run: no second pass, no probe row and no
    second Powell run."""
    est, cost, trace = calibrate(Priced(np.zeros(3), lambda v: 1.0), Extrinsics.identity())
    assert [(it, c) for it, _, c in trace.points] == [(0, 1.0), (1, 1.0)]
    assert trace.termination == "stalled"
    assert trace.n_probe == 30 * 6
    assert trace.n_evaluations == 1 + 6 * 6 + 30 * 6
    assert np.array_equal(est.to_vector(), np.zeros(6)) and cost == 1.0


def test_calibrate_stops_walking_at_a_pass_that_gains_the_least_share():
    """A probe pass that cuts the cost by exactly ``_PASS_GAIN_REL`` of it,
    1000 to 999, is the stage's last: the walk takes one pass of 181
    samples, then Powell stalls at 999 and one more pass finds nothing."""
    goal = np.concatenate([_TRIAL_STEPS[:2] / 16.0, np.zeros(4)])
    evaluator = Priced(np.zeros(3), lambda v: 999.0 if np.array_equal(v, goal) else 1000.0)
    _, _, trace = calibrate(evaluator, Extrinsics.identity())
    assert [c for _, _, c in trace.points] == [1000.0, 1000.0, 999.0, 999.0]
    assert trace.n_probe == (7 + 29 * 6) + 30 * 6


def test_calibrate_walks_at_most_16_probe_passes_a_stage():
    """Stairs down by 1 from a cost of 1000 every 1/16 trial step, along the
    first and the third probe diagonal in turn, theta_x + theta_y and
    theta_x + theta_z: a pass climbs down two, so the first stage ends after
    its 16th pass at 968, and Powell, which steps along single coordinates,
    stalls before and after each stage.  Stair m sits at (m, ceil(m/2),
    floor(m/2)) sixteenths of a trial step, matched to rounding, as a
    Powell run starts from the probe row divided by the trial steps."""
    stairs = {(m, (m + 1) // 2, m // 2): m for m in range(1, 41)}

    def price(v):
        u = v[:3] / (0.05 / 16)
        key = tuple(np.round(u).astype(int).tolist())
        on_grid = np.allclose(u, key, rtol=0.0, atol=1e-6) and not v[3:].any()
        return 1000.0 - stairs.get(key, 0) if on_grid else 1000.0

    _, _, trace = calibrate(Priced(np.zeros(3), price), Extrinsics.identity())
    assert [c for _, _, c in trace.points] == [1000.0, 1000.0, 968.0, 968.0, 960.0, 960.0]


def test_calibrate_stops_at_an_exact_zero_that_the_probe_stage_finds():
    """A zero that only a diagonal reaches: Powell's sweep along each axis
    stalls, the first probe pass steps onto the zero along theta_x + theta_y,
    a second pass finds nothing lower, and the zero ends the run with its
    probe row, with no Powell run after it."""
    goal = np.concatenate([_TRIAL_STEPS[:2] / 16.0, np.zeros(4)])  # a 1/16 step along (0, 1)
    evaluator = Priced(np.zeros(3), lambda v: 0.0 if np.array_equal(v, goal) else 1.0)
    est, cost, trace = calibrate(evaluator, Extrinsics.identity())
    assert [(it, c) for it, _, c in trace.points] == [(0, 1.0), (1, 1.0), (2, 0.0)]
    assert np.array_equal(trace.points[-1][1], goal)
    # the first diagonal takes 4 samples out and 3 back, every other one 3 a side
    assert trace.n_probe == (7 + 29 * 6) + 30 * 6
    assert trace.n_evaluations == 1 + 6 * 6 + trace.n_probe
    assert np.array_equal(est.to_vector(), goal) and cost == 0.0
