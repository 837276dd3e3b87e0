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

from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ZeroDenominator
from .geometry import EPS_DEPTH, Extrinsics
from .scene import IGNORE_CLASS, LabelImage


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

    def __init__(self, pairs, classes, range_weighting: bool = True):
        self.pairs = tuple(pairs)
        if not self.pairs:
            raise CalibrationError("at least one frame pair is required")
        self.classes = _validated_classes(classes)

        wh = max(p.intrinsics.width + p.intrinsics.height for p in self.pairs)
        n_cells = sum(p.image.labels.size for p in self.pairs) * len(self.classes)
        self._fields = np.zeros(n_cells, np.min_scalar_type(wh))
        points, sqn, counts, meta = [], [], [], []
        cell = 0
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
                             k.width + k.height, cell, fld.empty_class))
                cell += fld.d.size
        self.denominator = sum(counts)
        if self.denominator == 0:
            raise ZeroDenominator(
                "no points carry any of the requested classes "
                f"{list(self.classes)} in any pair"
            )

        self._points = np.concatenate(points)
        self._sqn = np.concatenate(sqn)
        (self._fx, self._fy, self._cx, self._cy, self._umax, self._vmax, self._stride,
         self._penalty, self._cell, empty) = np.repeat(
            np.array(meta, dtype=float), counts, axis=0).T.copy()
        self._empty = empty.astype(bool)
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
        d = self._fields[(self._cell + vc * self._stride + uc).astype(np.intp)]
        off = np.abs(u - uc) + np.abs(v - vc)
        scored = front & ~self._empty
        cost = np.where(scored, d + off, self._penalty) * self._sqn
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
