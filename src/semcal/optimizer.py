"""Derivative-free minimization of the calibration cost.

Powell's conjugate-direction method drives the search: each outer iteration
line-minimizes along every member of a direction set, then conditionally
swaps the direction of largest single-sweep decrease for the net
displacement.  The inner 1-D search brackets by geometric expansion and
refines with a golden-section/parabolic-interpolation loop.  No gradients
anywhere; the objective is only ever sampled, which is what makes the
piecewise-constant semantic cost tractable.

Parameters are internally rescaled by per-parameter step sizes so one unit
of search space means one "typical" move for that parameter, which matters
because angles and translations live on very different scales.  The
iteration cap and the two tolerances are the ``max_iterations``, ``ftol``
and ``line_tol`` fields of :class:`~semcal.io_formats.RunConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .costfield import CostBreakdown, CostEvaluator
from .errors import NonFiniteCost
from .geometry import Extrinsics
from .io_formats import RunConfig

_GOLDEN = 0.3819660112501051  # 2 - golden ratio
_MAX_EXPANSIONS = 40
_TINY = 1e-25


def trial_steps(n: int) -> np.ndarray:
    """Per-parameter scale of the first trial move.

    0.05 rad for the three angles and 0.1 m for the three translations
    of a 6-parameter extrinsics vector, unit steps otherwise.
    """
    if n == 6:
        return np.array([0.05, 0.05, 0.05, 0.1, 0.1, 0.1])
    return np.ones(n)


@dataclass
class OptimizationTrace:
    """Outer-iteration history: (iteration, parameter vector, cost) rows."""

    points: list[tuple[int, np.ndarray, float]]
    termination: str  # converged | max_iterations | stalled
    n_evaluations: int = 0  # objective samples
    n_repeated: int = 0  # samples calibrate's memo served without evaluating


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


def _brent(g, a: float, b: float, x: float, fx: float, tol: float) -> tuple[float, float]:
    # Minimize g on [a, b] given a < x < b with g(x) <= g(a), g(b).
    # Parabolic steps when the fit is trustworthy, golden section otherwise.
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(120):
        m = 0.5 * (a + b)
        tol1 = tol * abs(x) + _TINY ** 0.5
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
    return x, fx


_GRID_POWERS = range(-4, 4)  # probe steps 1/16 .. 8


def _line(g, f0: float, tol: float, refine: bool = True) -> tuple[float, float]:
    """Minimize the 1-D restriction g(alpha) over the real line, with g(0) = f0.

    A geometric probe grid on both sides picks the best coarse step before
    the bracket is refined; purely local bracketing is not enough here
    because the pixel-quantized cost is riddled with micro-plateaus that
    trap it far from the best point on the line.  Returns (0, f0) whenever
    no strict improvement is found, so the caller's cost can never increase.
    ``refine=False`` skips the bracket refinement and returns the best grid
    point; escape probes use it because they only need a cheap yes/no on
    whether a direction descends at all.
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

    if best_a == 0.0:
        if not refine:
            return 0.0, f0
        alphas = sorted(samples)
        i = alphas.index(0.0)
        lo = alphas[i - 1] if i > 0 else 0.0
        hi = alphas[i + 1] if i + 1 < len(alphas) else 0.0
        if samples[lo] == f0 and samples[hi] == f0 and len(samples) > 2:
            return 0.0, f0  # flat as far as probed
        alpha, f_min = _brent(g, lo, hi, 0.0, f0, tol)
    else:
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
            return (float(best_a), float(best_f)) if best_f < f0 else (0.0, f0)
        alphas = sorted(samples)
        i = alphas.index(best_a)
        lo = alphas[i - 1] if i > 0 else best_a
        hi = alphas[i + 1] if i + 1 < len(alphas) else best_a
        alpha, f_min = _brent(g, lo, hi, best_a, best_f, tol)

    if f_min >= f0:
        return 0.0, f0
    return float(alpha), float(f_min)


def powell_minimize(f, x0, config: RunConfig | None = None):
    """Powell's conjugate-direction minimization.

    Returns ``(x_min, f_min, trace)``.  The direction set starts as the
    coordinate basis; after each sweep the direction of largest decrease is
    replaced by the net displacement when the quadratic-extrapolation test
    accepts it.  A sweep with zero decrease resets the direction set to the
    basis once; a second zero-decrease sweep terminates as ``stalled``.
    """
    cfg = config or RunConfig()
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sigma = trial_steps(n)
    obj = _Objective(f)

    def fz(z: np.ndarray) -> float:
        return obj(z * sigma)

    z = x0 / sigma
    current = fz(z)
    trace_points: list[tuple[int, np.ndarray, float]] = [(0, z * sigma, current)]
    directions = np.eye(n)
    reset_used = False
    termination = "max_iterations"

    for iteration in range(1, cfg.max_iterations + 1):
        f_start = current
        z_start = z.copy()
        biggest_drop = 0.0
        biggest_idx = 0
        for i in range(n):
            d = directions[i]
            alpha, f_new = _line(lambda a: fz(z + a * d), current, cfg.line_tol)
            if current - f_new > biggest_drop:
                biggest_drop = current - f_new
                biggest_idx = i
            if alpha != 0.0:
                z = z + alpha * d
            current = f_new

        decrease = f_start - current
        trace_points.append((iteration, z * sigma, current))
        if 2.0 * decrease <= cfg.ftol * (abs(f_start) + abs(current)) + _TINY:
            if decrease > 0.0 or reset_used or iteration == cfg.max_iterations:
                termination = "converged" if decrease > 0.0 else "stalled"
                break
            # Zero decrease: give the coordinate basis one fresh chance in
            # case the conjugate set collapsed onto a flat subspace.
            directions = np.eye(n)
            reset_used = True
            continue

        # Direction replacement, guarded by Powell's acceptance test on the
        # extrapolated point 2*z - z_start.
        displacement = z - z_start
        if np.any(displacement != 0.0):
            z_ext = z + displacement
            f_ext = fz(z_ext)
            if f_ext < f_start:
                t = 2.0 * (f_start - 2.0 * current + f_ext)
                t *= (f_start - current - biggest_drop) ** 2
                t -= biggest_drop * (f_start - f_ext) ** 2
                if t < 0.0:
                    alpha, f_new = _line(
                        lambda a: fz(z + a * displacement), current, cfg.line_tol
                    )
                    if alpha != 0.0:
                        z = z + alpha * displacement
                    current = f_new
                    directions[biggest_idx] = directions[n - 1]
                    directions[n - 1] = displacement

    trace = OptimizationTrace(trace_points, termination, obj.n_evaluations)
    return z * sigma, current, trace


_MAX_ROUNDS = 8
_MAX_PASSES = 16
_RANDOM_PROBES = 64
_PROBE_SEED = 1905
_PASS_GAIN_REL = 1e-3  # a pass must shave this fraction off to keep walking


def _probe_directions(sigma: np.ndarray, rng: np.random.Generator):
    """Yield escape directions for a stalled Powell run, scaled by sigma.

    First every two-parameter diagonal with both relative signs, then a
    batch of random unit rays drawn in the rescaled space.
    """
    n = sigma.size
    for i in range(n):
        for j in range(i + 1, n):
            for sj in (1.0, -1.0):
                d = np.zeros(n)
                d[i] = sigma[i]
                d[j] = sj * sigma[j]
                yield d
    for _ in range(_RANDOM_PROBES):
        u = rng.standard_normal(n)
        norm = float(np.linalg.norm(u))
        if norm < 1e-12:
            continue
        yield u / norm * sigma


def calibrate(
    evaluator: CostEvaluator,
    init: Extrinsics,
    config: RunConfig | None = None,
) -> tuple[Extrinsics, CostBreakdown, OptimizationTrace]:
    """Minimize the semantic cost of ``evaluator`` over the six extrinsic parameters.

    Starts from ``init``, which is typically the centroid-based estimate;
    returns the optimized extrinsics, the cost breakdown at the optimum,
    and the optimization trace.

    The cost couples parameters whose image motion nearly cancels (a yaw
    twist against a lateral shift, for instance), carving diagonal valleys
    whose floor every axis-aligned line search reads as flat.  After each
    Powell run this driver probes all pairwise two-parameter diagonals plus
    a fixed-seed batch of random directions and, if any probe still
    descends, walks there and runs Powell again.  The random rays matter
    when the residual error mixes more than two parameters: no pairwise
    diagonal can represent that direction, but a dense ray sample almost
    always overlaps it.
    """
    cfg = config or RunConfig()
    # Basis resets, extrapolation and grid points back on the start resend poses.
    memo: dict[bytes, float] = {}

    def objective(x: np.ndarray) -> float:
        key = x.tobytes()
        cost = memo.get(key)
        if cost is None:
            cost = memo[key] = evaluator.evaluate_total(Extrinsics.from_vector(x))
        return cost

    x = np.asarray(init.to_vector(), dtype=float)
    sigma = trial_steps(6)
    points: list[tuple[int, np.ndarray, float]] = []
    termination = "stalled"
    n_evaluations = 0
    current = None
    for _ in range(_MAX_ROUNDS):
        x, current, trace = powell_minimize(objective, x, cfg)
        termination = trace.termination
        n_evaluations += trace.n_evaluations
        offset = points[-1][0] + 1 if points else 0
        start = 1 if points else 0  # drop duplicated segment-start rows
        points.extend(
            (offset + it - start, xv, cv) for it, xv, cv in trace.points[start:]
        )

        if current == 0.0:
            break  # the cost is nonnegative, so an exact zero is global

        obj = _Objective(objective)
        rng = np.random.default_rng(_PROBE_SEED)
        moved = False
        for _ in range(_MAX_PASSES):
            before = current
            for d in _probe_directions(sigma, rng):
                alpha, f_new = _line(lambda a: obj(x + a * d), current, cfg.line_tol,
                                     refine=False)
                if f_new < current:
                    x = x + alpha * d
                    current = f_new
            if current < before:
                moved = True
            # Keep walking only while passes still make visible headway.
            if before - current <= _PASS_GAIN_REL * max(abs(before), _TINY):
                break
        n_evaluations += obj.n_evaluations
        if not moved:
            break
        points.append((points[-1][0] + 1, x.copy(), current))
        if current == 0.0:
            break

    trace = OptimizationTrace(points, termination, n_evaluations, n_evaluations - len(memo))
    estimate = Extrinsics.from_vector(x)
    return estimate, evaluator.evaluate(estimate), trace
