"""Derivative-free minimization of the calibration cost.

Powell's conjugate-direction method drives the search: each outer iteration
line-minimizes along every member of a direction set, then conditionally
swaps the direction of largest single-sweep decrease for the net
displacement.  The inner 1-D search brackets by geometric expansion and
refines with a golden-section/parabolic-interpolation loop.  No gradients
anywhere; the objective is only ever sampled, which is what makes the
piecewise-constant semantic cost tractable.

The semantic cost rounds every point to a pixel, so along a line it is a
staircase.  Brent's loop assumes a continuous function and would keep
halving a flat step down to ``_LINE_TOL``; instead the refinement stops once
``_PLATEAU_SAMPLES`` samples in a row return exactly the best value so far.
Only exact equality counts: a smooth objective almost never repeats a value
bit for bit, so on it the loop runs as before, while stopping on any
sample that fails to improve would also cut short the slow, strictly
decreasing descents of a curved valley such as Rosenbrock's.

Powell searches the coordinates it is given, with unit trial steps.
:func:`calibrate` hands it the extrinsics in trial-step units, so one unit
of search space is one "typical" move for that parameter, which matters
because angles and translations live on very different scales.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .costfield import CostBreakdown, CostEvaluator
from .errors import CalibrationError, NonFiniteCost
from .geometry import Extrinsics, RotationAngles, Translation, rotation_matrix, wrap_angle

_GOLDEN = 0.3819660112501051  # 2 - golden ratio
_MAX_EXPANSIONS = 40
_TINY = 1e-25
_PLATEAU_SAMPLES = 4  # samples in a row equal to the best value end a refinement
_MAX_ITERATIONS = 200  # Powell sweeps per run
_FTOL = 1e-8  # a sweep that cuts the cost by less, relatively, ends the run
_LINE_TOL = 1e-6  # relative step at which a line refinement stops


@dataclass
class OptimizationTrace:
    """Outer-iteration history: (iteration, parameter vector, cost) rows."""

    points: list[tuple[int, np.ndarray, float]]
    termination: str  # converged | max_iterations | stalled
    n_evaluations: int = 0  # objective samples
    n_repeated: int = 0  # samples calibrate's memo served without evaluating
    n_probe: int = 0  # samples of calibrate's probe stage; the rest are Powell's


class _Objective:
    """Counts evaluations and rejects non-finite values."""

    __slots__ = ("f", "n_evaluations")

    def __init__(self, f):
        self.f = f
        self.n_evaluations = 0

    def __call__(self, x: np.ndarray) -> float:
        self.n_evaluations += 1
        value = float(self.f(x))
        if not math.isfinite(value):
            raise NonFiniteCost(f"objective returned {value!r} at {x!r}")
        return value


def _brent(g, a: float, b: float, x: float, fx: float) -> tuple[float, float]:
    """Minimize g on [a, b] given a < x < b with g(x) <= g(a), g(b).

    Parabolic steps when the fit is trustworthy, golden section otherwise.
    Stops early, once ``_PLATEAU_SAMPLES`` samples in a row have returned
    exactly ``fx``: the search is then halving a flat step of the
    pixel-quantized cost, which only spends samples on the same value.  Any
    other value, better or worse, resets the count.  A continuous objective
    almost never returns the same value bit for bit, so it is still refined
    down to ``_LINE_TOL``; stopping on every non-improving sample would
    instead cut short the strictly decreasing progress of a curved valley.
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    flat = 0
    for _ in range(120):
        m = 0.5 * (a + b)
        tol1 = _LINE_TOL * abs(x) + _TINY ** 0.5
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_old, e = e, d
            if abs(p) < abs(0.5 * q * e_old) and p > q * (a - x) and p < q * (b - x):
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < m else -tol1
                parabolic = True
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = g(u)
        flat = flat + 1 if fu == fx else 0
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if flat >= _PLATEAU_SAMPLES:
            break
    return x, fx


_GRID_POWERS = range(-4, 4)  # probe steps 1/16 .. 8


def _line(g, f0: float, refine: bool = True) -> tuple[float, float]:
    """Minimize the 1-D restriction g(alpha) over the real line, with g(0) = f0.

    A geometric probe grid on both sides picks the best coarse step before
    the bracket is refined; purely local bracketing is not enough here
    because the pixel-quantized cost is riddled with micro-plateaus that
    trap it far from the best point on the line.  Returns its best sample,
    ``(0, f0)`` when it is flat as far as probed; that sample may tie
    ``f0`` away from 0, so a caller moves only on a strict decrease, as
    :func:`_sweep` does.  ``refine=False`` skips the bracket refinement and
    returns the best grid point; escape probes use it because they only
    need a cheap yes/no on whether a direction descends at all.
    """
    samples: dict[float, float] = {0.0: f0}
    best_a, best_f = 0.0, f0
    for sign in (1.0, -1.0):
        rising = 0
        prev = f0
        for k in _GRID_POWERS:
            a = sign * 2.0**k
            fa = g(a)
            samples[a] = fa
            if fa < best_f or (fa == best_f and abs(a) < abs(best_a)):
                best_a, best_f = a, fa
            # Give up on a side once it has clearly turned uphill.
            rising = rising + 1 if fa >= prev and fa >= best_f else 0
            prev = fa
            if rising >= 3:
                break

    if abs(best_a) >= 2.0 ** max(_GRID_POWERS):
        # Best point sits on the grid edge: keep expanding outward.
        b, fb = best_a, best_f
        for _ in range(_MAX_EXPANSIONS):
            c = b * 2.0
            fc = g(c)
            samples[c] = fc
            if fc >= fb:
                break
            b, fb = c, fc
        best_a, best_f = b, fb
    if not refine:
        return best_a, best_f
    alphas = sorted(samples)
    i = alphas.index(best_a)
    lo = alphas[i - 1] if i > 0 else best_a
    hi = alphas[i + 1] if i + 1 < len(alphas) else best_a
    if best_a == 0.0 and samples[lo] == f0 and samples[hi] == f0:
        return 0.0, f0  # flat as far as probed
    alpha, f_min = _brent(g, lo, hi, best_a, best_f)
    return float(alpha), float(f_min)


def _sweep(f, x, current: float, directions, refine: bool = True):
    """Line-minimize along each direction in turn, from ``x`` where f(x) = ``current``.

    Moves only on a strict decrease.  Returns the point reached, its cost,
    and the size and index of the largest single drop (0 and 0 if none);
    ``refine`` is passed to :func:`_line`.
    """
    biggest_drop, biggest_idx = 0.0, 0
    for i, d in enumerate(directions):
        alpha, f_new = _line(lambda a: f(x + a * d), current, refine)
        if f_new < current:
            if current - f_new > biggest_drop:
                biggest_drop, biggest_idx = current - f_new, i
            x = x + alpha * d
            current = f_new
    return x, current, biggest_drop, biggest_idx


def powell_minimize(f, x0):
    """Powell's conjugate-direction minimization.

    Returns ``(x_min, f_min, trace)``.  The direction set starts as the
    coordinate basis; after each sweep the direction of largest decrease is
    replaced by the net displacement when the quadratic-extrapolation test
    accepts it.  The first sweep that cuts the cost by a relative ``_FTOL``
    or less ends the run: ``converged`` if it cut any, ``stalled`` if not.
    """
    x = np.array(x0, dtype=float)
    obj = _Objective(f)
    current = obj(x)
    trace_points: list[tuple[int, np.ndarray, float]] = [(0, x, current)]
    directions = np.eye(x.size)
    termination = "max_iterations"

    for iteration in range(1, _MAX_ITERATIONS + 1):
        f_start, x_start = current, x
        x, current, biggest_drop, biggest_idx = _sweep(obj, x, current, directions)
        decrease = f_start - current
        trace_points.append((iteration, x, current))
        if 2.0 * decrease <= _FTOL * (abs(f_start) + abs(current)) + _TINY:
            termination = "converged" if decrease > 0.0 else "stalled"
            break

        # Direction replacement, guarded by Powell's acceptance test on the
        # extrapolated point 2*x - x_start; the sweep cut the cost, so x moved.
        displacement = x - x_start
        f_ext = obj(x + displacement)
        if f_ext < f_start:
            t = 2.0 * (f_start - 2.0 * current + f_ext)
            t *= (f_start - current - biggest_drop) ** 2
            t -= biggest_drop * (f_start - f_ext) ** 2
            if t < 0.0:
                x, current, _, _ = _sweep(obj, x, current, [displacement])
                directions[biggest_idx] = directions[-1]
                directions[-1] = displacement

    trace = OptimizationTrace(trace_points, termination, obj.n_evaluations)
    return x, current, trace


_MAX_ROUNDS = 8
_MAX_PASSES = 16
_PASS_GAIN_REL = 1e-3  # a pass must shave this fraction off to keep walking
_TRIAL_STEPS = np.array([0.05, 0.05, 0.05, 0.1, 0.1, 0.1])  # first trial move: rad, then m


def _probe_directions(steps: np.ndarray) -> list[np.ndarray]:
    """Every two-parameter diagonal, with both relative signs, scaled by ``steps``."""
    axes = np.diag(steps)
    return [axes[i] + sign * axes[j]
            for i, j in itertools.combinations(range(steps.size), 2) for sign in (1.0, -1.0)]


def _to_centered(ext: Extrinsics, center: np.ndarray) -> np.ndarray:
    """``ext`` as (θ, c), where c = R(θ)·center + t is where the camera sees ``center``."""
    r, t = ext.matrix()
    return np.concatenate([ext.rotation.as_array(), r @ center + t])


def _from_centered(y: np.ndarray, center: np.ndarray) -> Extrinsics:
    """Inverse of :func:`_to_centered`: validated (θ, c - R(θ)·center)."""
    rotation = RotationAngles(*y[:3].tolist())  # floats unpack faster than numpy scalars
    t = y[3:] - rotation_matrix(rotation).dot(center)
    return Extrinsics(rotation, Translation(*t.tolist()))


class _Sample(tuple):
    """``(wrapped angles, R, t)``: as much of a pose as ``evaluate_total`` reads."""

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        return self[1:]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self[0], self[2]])


def calibrate(
    evaluator: CostEvaluator, init: Extrinsics
) -> tuple[Extrinsics, CostBreakdown, OptimizationTrace]:
    """Minimize the semantic cost of ``evaluator`` over the six extrinsic parameters.

    Starts from ``init``, which is typically the centroid-based estimate;
    returns the optimized extrinsics, the cost breakdown at the optimum,
    and the optimization trace.

    The search runs over (θ, c), where c = R(θ)·p̄ + t is where the camera
    sees p̄, the evaluator's ``center``: over (θ, t), a rotation about the
    sensor origin cancelled by a translation of about the scene's depth
    times the angle made a valley that stalled Powell, and about p̄ the
    rotation leaves c in place (Triggs et al., *Bundle Adjustment -- A
    Modern Synthesis*, 2000).  After each Powell run the driver probes the
    30 pairwise two-parameter diagonals and, if any still descends, walks
    there and runs Powell again; both search in units of ``_TRIAL_STEPS``.
    Trace rows and estimate are in (θ, t).  Samples go to the kernel as bare
    :class:`_Sample` poses, their read-only R built only as the angles change.
    """
    center, pi, isfinite = evaluator.center, math.pi, math.isfinite
    # Restarts, extrapolation and grid points back on the start resend poses.
    memo: dict[bytes, float] = {}
    held = angles = r = rc = None  # the last sample's angle bytes, angles, R and R·center

    def objective(y: np.ndarray) -> float:
        nonlocal held, angles, r, rc
        key = y.tobytes()
        cost = memo.get(key)
        if cost is None:
            if key[:24] != held:  # new angles; wrap_angle raises on a non-finite one
                angles = [a if -pi < a <= pi else wrap_angle(a) for a in y[:3].tolist()]
                r = rotation_matrix(angles)
                r.setflags(write=False)
                held, rc = key[:24], r.dot(center)  # the bits of r @ center, in half the time
            t = y[3:] - rc
            a, b, c = t.tolist()
            if not (isfinite(a) and isfinite(b) and isfinite(c)):
                raise CalibrationError(f"translation must be finite, got {t!r}")
            cost = memo[key] = evaluator.evaluate_total(_Sample((angles, r, t)))
        return cost

    def scaled(z: np.ndarray) -> float:
        return objective(z * _TRIAL_STEPS)

    y = _to_centered(init, center)
    probes = _probe_directions(_TRIAL_STEPS)
    points: list[tuple[np.ndarray, float]] = []  # (y, cost) of each trace row
    n_evaluations = n_probe = 0
    for _ in range(_MAX_ROUNDS):
        z, current, trace = powell_minimize(scaled, y / _TRIAL_STEPS)
        y = z * _TRIAL_STEPS
        termination = trace.termination
        n_evaluations += trace.n_evaluations
        # a later run starts at the probe stage's row, which is in already
        points.extend((zv * _TRIAL_STEPS, cv) for _, zv, cv in trace.points[1 if points else 0:])

        if current == 0.0:
            break  # the cost is nonnegative, so an exact zero is global

        obj = _Objective(objective)
        entry = current
        for _ in range(_MAX_PASSES):
            before = current
            y, current, _, _ = _sweep(obj, y, current, probes, refine=False)
            # Keep walking only while passes still make visible headway.
            if before - current <= _PASS_GAIN_REL * max(abs(before), _TINY):
                break
        n_evaluations += obj.n_evaluations
        n_probe += obj.n_evaluations
        if current == entry:
            break
        points.append((y.copy(), current))
        if current == 0.0:
            break

    points = [(it, _from_centered(yv, center).to_vector(), cv)
              for it, (yv, cv) in enumerate(points)]
    trace = OptimizationTrace(points, termination, n_evaluations,
                              n_evaluations - len(memo), n_probe)
    estimate = _from_centered(y, center)
    return estimate, evaluator.evaluate(estimate), trace
