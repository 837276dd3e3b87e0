"""Semantic consistency cost over labeled point-cloud / label-image pairs.

The per-point cost couples a label-consistency test with the minimum
Manhattan distance from the projected pixel to any image pixel carrying the
point's class, weighted by the squared range of the original sensor-frame
point.  Distance lookups are served by per-class exact L1 distance
transforms precomputed once per image.

Failure modes fold into finite penalties so the aggregate loss stays total:
a point behind the camera, or one whose class is absent from the image,
costs ``(width + height) * |p|^2``, at least as much as any in-image
misprojection can.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import math
import os

import numpy as np

from .errors import CalibrationError, EmptyClass, ZeroDenominator
from .geometry import EPS_DEPTH, CameraIntrinsics, Extrinsics, PixelCoord
from .scene import IGNORE_CLASS, FramePair, LabelImage


def _worker_count(threads: int) -> int:
    return os.cpu_count() or 1 if threads == 0 else max(1, threads)


@dataclass(frozen=True)
class DistanceField:
    """Exact L1 distance transform of one class of a label image.

    ``d[row, col]`` is the minimum Manhattan distance from pixel
    ``(col, row)`` to any pixel labeled ``class_id``; zero exactly on such
    pixels.  Distances between integer pixels are integers below
    ``width + height``, stored in the smallest unsigned type that holds
    that bound.  When the class is absent, ``empty_class`` is set and
    every cell holds float ``inf``.
    """

    class_id: int
    d: np.ndarray  # (height, width)
    empty_class: bool

    def __post_init__(self):
        self.d.setflags(write=False)

    @property
    def width(self) -> int:
        return self.d.shape[1]

    @property
    def height(self) -> int:
        return self.d.shape[0]


def _sweep_axis(d: np.ndarray, axis: int) -> np.ndarray:
    # Forward then backward raster propagation with unit step cost along one
    # axis: out[l] = min_k d[k] + |l - k|.
    n = d.shape[axis]
    shape = [1, 1]
    shape[axis] = n
    idx = np.arange(n, dtype=d.dtype).reshape(shape)
    fwd = np.minimum.accumulate(d - idx, axis=axis) + idx
    rev = np.flip(np.minimum.accumulate(np.flip(d + idx, axis=axis), axis=axis), axis=axis) - idx
    return np.minimum(fwd, rev)


def build_distance_field(image: LabelImage, class_id: int) -> DistanceField:
    """Exact L1 distance transform for one class of a label image.

    Two raster sweeps per axis (forward then backward, unit axial weights)
    propagate the distances; for the Manhattan metric this is exact, which
    the test suite checks against the brute-force definition.  The sweeps
    run in int32 with ``width + height`` as the not-yet-reached value:
    every true distance is smaller, so it never survives the minimum.
    """
    mask = image.labels == class_id
    if not mask.any():
        return DistanceField(class_id, np.full(mask.shape, np.inf), True)
    far = mask.shape[0] + mask.shape[1]
    d = np.where(mask, np.int32(0), np.int32(far))
    d = _sweep_axis(d, axis=1)
    d = _sweep_axis(d, axis=0)
    return DistanceField(class_id, d.astype(np.min_scalar_type(far)), False)


def build_distance_fields(image: LabelImage, classes, threads: int = 1) -> dict[int, DistanceField]:
    """Distance fields for several classes of one image, keyed by class id."""
    class_list = list(classes)
    if threads != 1 and len(class_list) > 1:
        with ThreadPoolExecutor(max_workers=_worker_count(threads)) as pool:
            fields = list(pool.map(lambda c: build_distance_field(image, c), class_list))
    else:
        fields = [build_distance_field(image, c) for c in class_list]
    return dict(zip(class_list, fields))


def query_distance(field: DistanceField, pixel) -> float:
    """Distance-field lookup at a real-valued pixel coordinate.

    In-range coordinates are rounded to the nearest cell.  Out-of-range
    coordinates decompose exactly as the clamped-cell value plus the axis
    offsets, which is valid for L1 because the clamped coordinate lies
    between the query and every in-image pixel on that axis.
    """
    if field.empty_class:
        raise EmptyClass(f"no pixel labeled {field.class_id} in this image")
    if isinstance(pixel, PixelCoord):
        u, v = pixel.u, pixel.v
    else:
        u, v = float(pixel[0]), float(pixel[1])
    u_c = min(max(u, 0.0), field.width - 1.0)
    v_c = min(max(v, 0.0), field.height - 1.0)
    base = field.d[round(v_c), round(u_c)]
    return float(base + abs(u - u_c) + abs(v - v_c))


def query_distances(field: DistanceField, uv: np.ndarray) -> np.ndarray:
    """Vectorized :func:`query_distance` over an ``(n, 2)`` coordinate array."""
    if field.empty_class:
        raise EmptyClass(f"no pixel labeled {field.class_id} in this image")
    uv = np.asarray(uv, dtype=float)
    u_c = np.clip(uv[:, 0], 0.0, field.width - 1.0)
    v_c = np.clip(uv[:, 1], 0.0, field.height - 1.0)
    base = field.d[np.rint(v_c).astype(np.intp), np.rint(u_c).astype(np.intp)]
    return base + np.abs(uv[:, 0] - u_c) + np.abs(uv[:, 1] - v_c)


def consistency(l_point: int, l_pixel: int, epsilon: float | None = None) -> float:
    """Label-consistency penalty factor in ``[0, 1]``.

    The default (``epsilon=None``) is the exact binary limit: 0 when the
    labels agree, 1 otherwise.  A positive ``epsilon`` selects the smooth
    exponential form ``1 - exp(-|l_point - l_pixel| / epsilon)`` for callers
    that want a differentiable surrogate.
    """
    if epsilon is None:
        return 0.0 if l_point == l_pixel else 1.0
    if epsilon <= 0:
        raise CalibrationError("epsilon must be positive")
    return 1.0 - math.exp(-abs(l_point - l_pixel) / epsilon)


def behind_camera_penalty(k: CameraIntrinsics, sq_norm: float) -> float:
    """Flat penalty for a point that cannot be scored against the image."""
    return float((k.width + k.height) * sq_norm)


def point_cost(
    p,
    class_id: int,
    ext: Extrinsics,
    k: CameraIntrinsics,
    fields: dict[int, DistanceField],
    image: LabelImage | None = None,
    epsilon: float | None = None,
    range_weighting: bool = True,
) -> float:
    """Cost contributed by a single labeled point under the given extrinsics.

    The projected pixel is rounded to the nearest integer cell for both the
    label comparison and the distance lookup.  Without ``image`` the label
    comparison uses the fact that the field is zero exactly on same-class
    pixels; the smooth consistency mode needs the actual pixel labels, so
    ``epsilon`` requires ``image``.
    """
    if class_id == IGNORE_CLASS:
        raise CalibrationError("the ignore class carries no cost")
    if epsilon is not None and image is None:
        raise CalibrationError("smooth consistency needs the label image")
    p = np.asarray(p, dtype=float)
    sq_norm = float(p @ p) if range_weighting else 1.0
    r, t = ext.matrix()
    cam = r @ p + t
    if cam[2] <= EPS_DEPTH:
        return behind_camera_penalty(k, sq_norm)
    field_c = fields[class_id]
    if field_c.empty_class:
        return behind_camera_penalty(k, sq_norm)
    u = round(k.fx * cam[0] / cam[2] + k.cx)
    v = round(k.fy * cam[1] / cam[2] + k.cy)
    if 0 <= u < k.width and 0 <= v < k.height:
        dist = float(field_c.d[v, u])
        if image is not None:
            factor = consistency(class_id, int(image.labels[v, u]), epsilon)
        else:
            factor = 0.0 if dist == 0.0 else 1.0
        return factor * dist * sq_norm
    return query_distance(field_c, (u, v)) * sq_norm


@dataclass
class PairBreakdown:
    """Cost tally for one frame pair: sums plus diagnostic point counts."""

    frame_id: str
    numerator: float = 0.0
    denominator: int = 0
    per_class: dict[int, tuple[float, int]] = field(default_factory=dict)
    n_consistent: int = 0
    n_inconsistent: int = 0
    n_behind_camera: int = 0
    n_out_of_image: int = 0
    n_empty_field: int = 0


@dataclass
class CostBreakdown:
    """Aggregate loss over all pairs with per-class and per-pair subtotals."""

    total: float
    numerator: float
    denominator: int
    per_class: dict[int, tuple[float, int]]
    per_pair: dict[str, PairBreakdown]
    n_consistent: int = 0
    n_inconsistent: int = 0
    n_behind_camera: int = 0
    n_out_of_image: int = 0
    n_empty_field: int = 0


def _validated_classes(classes) -> tuple[int, ...]:
    ids = tuple(dict.fromkeys(int(c) for c in classes))
    if not ids:
        raise CalibrationError("the class set must not be empty")
    if IGNORE_CLASS in ids:
        raise CalibrationError("the ignore class cannot be scored")
    return ids


class CostEvaluator:
    """Prepared multi-pair cost function, reusable across many extrinsics.

    Construction packs the scene once.  The scored points, grouped into
    (pair, class) blocks in pair-then-class order, become flat per-point
    arrays: coordinates, range weight, the frame's intrinsics and penalty,
    an empty-class flag and an offset into one buffer that holds every
    distance field.  Exact L1 distances between integer pixels are
    integers below ``width + height``, so the buffer stores them losslessly
    in the smallest unsigned type that fits; each field is packed as it is
    built.

    One projection / round / clip / gather pass then scores every point
    for both :meth:`evaluate_total`, the hot path of optimizer and sweep
    loops, and :meth:`evaluate`, which adds the per-class / per-pair
    breakdown and counts.  The rotation is applied block by block and the
    block sums are added pair by pair, exactly as a loop over blocks would,
    so totals are bit-identical to that loop: the optimizer's path depends
    on their last bits.  Instances are immutable after construction.
    """

    def __init__(
        self,
        pairs,
        classes,
        epsilon: float | None = None,
        range_weighting: bool = True,
    ):
        self.pairs = tuple(pairs)
        if not self.pairs:
            raise CalibrationError("at least one frame pair is required")
        self.classes = _validated_classes(classes)
        if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
            raise CalibrationError(f"epsilon must be positive and finite, got {epsilon}")
        self.epsilon = epsilon

        wh = max(p.intrinsics.width + p.intrinsics.height for p in self.pairs)
        n_cells = sum(p.image.labels.size for p in self.pairs) * len(self.classes)
        self._fields = np.zeros(n_cells, np.min_scalar_type(wh))
        points, sqn, counts, meta = [], [], [], []
        cell = pixel = 0
        for pair in self.pairs:
            k = pair.intrinsics
            for cid in self.classes:
                fld = build_distance_field(pair.image, cid)
                if not fld.empty_class:
                    self._fields[cell:cell + fld.d.size] = fld.d.ravel()
                pts = pair.cloud.points[pair.cloud.labels == cid]
                points.append(pts)
                sqn.append(np.einsum("ij,ij->i", pts, pts) if range_weighting
                           else np.ones(len(pts)))
                counts.append(len(pts))
                meta.append((k.fx, k.fy, k.cx, k.cy, k.width - 1, k.height - 1, k.width,
                             k.width + k.height, cell, pixel, cid, fld.empty_class))
                cell += fld.d.size
            pixel += pair.image.labels.size
        self.denominator = sum(counts)
        if self.denominator == 0:
            raise ZeroDenominator(
                "no points carry any of the requested classes "
                f"{list(self.classes)} in any pair"
            )

        self._points = np.concatenate(points)
        self._sqn = np.concatenate(sqn)
        (self._fx, self._fy, self._cx, self._cy, self._umax, self._vmax, self._stride,
         self._penalty, self._cell, self._pixel, self._cls, empty) = np.repeat(
            np.array(meta, dtype=float), counts, axis=0).T.copy()
        self._empty = empty.astype(bool)
        self._labels = (np.concatenate([p.image.labels.ravel() for p in self.pairs])
                        if epsilon is not None else None)
        edges = np.cumsum([0] + counts).tolist()
        self._blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
        m = len(self.classes)
        self._pair_blocks = [self._blocks[i:i + m] for i in range(0, len(self._blocks), m)]

    def _kernel(self, ext: Extrinsics):
        """Per-point cost, plus the masks and values :meth:`evaluate` counts with.

        Points off the image score the clamped cell's distance plus the
        axis offsets, which is exact for L1; on the image the offsets are
        zero, so one formula serves both.  Same-class pixels hold distance
        zero, so consistent points cost nothing without a label lookup.
        """
        r, t = ext.matrix()
        r_t = r.T
        cam = np.empty((self.denominator, 3))
        for block in self._blocks:
            np.matmul(self._points[block], r_t, cam[block])
        x, y, z = (cam[:, i] + t[i] for i in range(3))
        front = z > EPS_DEPTH
        z = np.where(front, z, 1.0)
        u = np.rint(self._fx * x / z + self._cx)
        v = np.rint(self._fy * y / z + self._cy)
        uc = np.minimum(np.maximum(u, 0.0), self._umax)
        vc = np.minimum(np.maximum(v, 0.0), self._vmax)
        pixel = vc * self._stride + uc
        d = self._fields[(self._cell + pixel).astype(np.intp)]
        off = np.abs(u - uc) + np.abs(v - vc)
        dist = d + off
        if self.epsilon is not None:
            labels = self._labels[(self._pixel + pixel).astype(np.intp)]
            factor = 1.0 - np.exp(-np.abs(self._cls - labels) / self.epsilon)
            dist = np.where(off == 0.0, factor * dist, dist)
        scored = front & ~self._empty
        cost = np.where(scored, dist, self._penalty) * self._sqn
        return cost, front, scored, off, d

    def evaluate_total(self, ext: Extrinsics) -> float:
        """Aggregate cost only; the hot path for optimization loops."""
        cost = self._kernel(ext)[0]
        total = 0.0
        for blocks in self._pair_blocks:
            numerator = 0.0
            for block in blocks:
                numerator += cost[block].sum()
            total += numerator
        return float(total / self.denominator)

    def evaluate(self, ext: Extrinsics) -> CostBreakdown:
        """Aggregate cost with per-class / per-pair subtotals and counts."""
        cost, front, scored, off, d = self._kernel(ext)
        inside = scored & (off == 0.0)
        masks = (inside & (d == 0), inside & (d != 0), ~front, scored & (off != 0.0),
                 front & ~scored)
        breakdown = CostBreakdown(
            total=0.0,
            numerator=0.0,
            denominator=self.denominator,
            per_class={c: (0.0, 0) for c in self.classes},
            per_pair={},
        )
        for pair, blocks in zip(self.pairs, self._pair_blocks):
            span = slice(blocks[0].start, blocks[-1].stop)
            pb = PairBreakdown(pair.frame_id, denominator=span.stop - span.start)
            for cid, block in zip(self.classes, blocks):
                block_sum = float(cost[block].sum())
                pb.per_class[cid] = (block_sum, block.stop - block.start)
                pb.numerator += block_sum
            (pb.n_consistent, pb.n_inconsistent, pb.n_behind_camera, pb.n_out_of_image,
             pb.n_empty_field) = (int(np.count_nonzero(m[span])) for m in masks)
            breakdown.per_pair[pair.frame_id] = pb
            breakdown.numerator += pb.numerator
            for cid, (num, den) in pb.per_class.items():
                acc_num, acc_den = breakdown.per_class[cid]
                breakdown.per_class[cid] = (acc_num + num, acc_den + den)
            breakdown.n_consistent += pb.n_consistent
            breakdown.n_inconsistent += pb.n_inconsistent
            breakdown.n_behind_camera += pb.n_behind_camera
            breakdown.n_out_of_image += pb.n_out_of_image
            breakdown.n_empty_field += pb.n_empty_field
        breakdown.total = breakdown.numerator / self.denominator
        return breakdown


def pair_cost(
    pair: FramePair,
    ext: Extrinsics,
    classes,
    epsilon: float | None = None,
    range_weighting: bool = True,
) -> PairBreakdown:
    """Numerator and denominator for a single pair.

    Raises :class:`ZeroDenominator` when the pair holds no point of any
    requested class.
    """
    evaluator = CostEvaluator([pair], classes, epsilon=epsilon, range_weighting=range_weighting)
    return evaluator.evaluate(ext).per_pair[pair.frame_id]


def total_cost(
    pairs,
    ext: Extrinsics,
    classes,
    epsilon: float | None = None,
    range_weighting: bool = True,
) -> CostBreakdown:
    """One-shot aggregate cost over several pairs.

    Builds the distance fields afresh; use :class:`CostEvaluator` directly
    when evaluating many candidate extrinsics against the same pairs.
    """
    evaluator = CostEvaluator(pairs, classes, epsilon=epsilon, range_weighting=range_weighting)
    return evaluator.evaluate(ext)
