"""Semantic consistency cost over labeled point-cloud / label-image pairs.

The per-point cost couples a label-consistency test with the minimum
Manhattan distance from the projected pixel to any image pixel carrying the
point's class, weighted by the squared range of the original sensor-frame
point.  Distance lookups are served by per-class exact L1 distance
transforms precomputed once, together for all images of the same size.

Failure modes fold into finite penalties so the aggregate loss stays total:
a point behind the camera, or one whose class is absent from the image,
costs ``(width + height) * |p|^2``, at least as much as any in-image
misprojection can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ZeroDenominator
from .geometry import EPS_DEPTH, Extrinsics
from .scene import IGNORE_CLASS, LabelImage


class DistanceField(NamedTuple):
    """Exact L1 distance transforms of several classes in same-size label images.

    ``d[col, i * classes + j, row]`` is the minimum Manhattan distance from
    pixel ``(col, row)`` of the ``i``-th image to any of its pixels of the
    ``j``-th class; zero exactly on such pixels and below ``width + height``
    everywhere.  ``empty[i * classes + j]`` is set when that class is absent
    from that image; its plane then holds ``width + height``.
    """

    d: np.ndarray  # (width, images * classes, height)
    empty: np.ndarray  # (images * classes,) bool


def _scan(a: np.ndarray) -> None:
    # In place along axis 0, forward then backward: a[i] = min(a[i], a[i-1] + 1).
    rows = list(a)
    step = np.empty_like(rows[0])
    for order in (rows, rows[::-1]):
        for prev, cur in zip(order, order[1:]):
            np.add(prev, 1, out=step)
            np.minimum(cur, step, out=cur)


def build_distance_field(images: list[LabelImage], classes, out=None) -> DistanceField:
    """Exact L1 distance transforms of ``classes`` in same-size label images, built together.

    Per image, one compare marks every class in a ``(height, classes,
    width)`` array, 0 on its pixels and ``far = width + height`` (more than
    any distance) elsewhere; a forward and a backward row scan along the
    height, each numpy call covering a row of every class, and one
    transpose write it into the image's slot of the ``(width, images *
    classes, height)`` result.  The same scan along the width then runs
    once over every slot, so its calls are shared by all the images, and
    gives the exact Manhattan transform (Rosenfeld & Pfaltz, 1966).
    ``out``, when given, receives the result; its unsigned type must hold
    ``far + 1``.
    """
    h, w = images[0].labels.shape
    far = h + w
    n = len(classes)
    if out is None:
        out = np.empty((w, len(images) * n, h), np.min_scalar_type(far + 1))
    for i, image in enumerate(images):
        labels = image.labels
        ids = np.array(classes, np.promote_types(labels.dtype, np.min_scalar_type(max(classes))))
        a = (labels[:, None, :] != ids[:, None]) * out.dtype.type(far)
        _scan(a)
        out[:, i * n:(i + 1) * n] = a.transpose(2, 1, 0)
    _scan(out)
    return DistanceField(out, out[0, :, 0] == far)


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
    if min(ids) <= IGNORE_CLASS:
        raise CalibrationError(f"class ids must be positive: {IGNORE_CLASS} is the ignore class")
    return ids


class CostEvaluator:
    """Prepared multi-pair cost function, reusable across many extrinsics.

    Construction packs the scene once.  The scored points, grouped into
    (pair, class) blocks in pair-then-class order, become flat per-point
    arrays: coordinates as one ``(3, N)`` array, range weight, the frame's
    intrinsics and penalty, an empty-class flag, the block index and an
    offset into one buffer that holds every distance field.  Exact L1
    distances between integer pixels are integers below ``width + height``,
    so the buffer stores them losslessly in the smallest unsigned type that
    holds ``width + height + 1``.  Each group of same-size pairs, in the
    order its size first appears, has its fields built by one
    :func:`build_distance_field` call straight into a block of the buffer.

    Each evaluation is one flat pass: one rotation of all points, round /
    clip / gather, one sum.  :meth:`evaluate_total`, the hot path of
    optimizer and sweep loops, returns that sum over the denominator;
    :meth:`evaluate` returns the same total, bit for bit, plus counts and
    per-class / per-pair subtotals, which are summed separately and so add
    up to the total only to rounding.  The instance keeps the rotated
    points of the last rotation it saw, so a pose that changes only the
    translation skips the matmul; that cache makes it unsafe to share
    between threads.
    """

    def __init__(self, pairs, classes, range_weighting: bool = True):
        self.pairs = tuple(pairs)
        if not self.pairs:
            raise CalibrationError("at least one frame pair is required")
        self.classes = _validated_classes(classes)

        n_classes = len(self.classes)
        groups = {}  # (width, height): indices of the pairs of that image size
        for i, pair in enumerate(self.pairs):
            groups.setdefault((pair.intrinsics.width, pair.intrinsics.height), []).append(i)
        self._fields = np.empty(sum(p.image.labels.size for p in self.pairs) * n_classes,
                                np.min_scalar_type(max(w + h for w, h in groups) + 1))
        layout = {}  # pair index: (stride, cell of its first class, its empty flags)
        cell = 0
        for (w, h), members in groups.items():
            stride = len(members) * n_classes * h
            fields = self._fields[cell:cell + w * stride].reshape(w, -1, h)
            empty = build_distance_field([self.pairs[i].image for i in members],
                                         self.classes, fields).empty
            for slot, i in enumerate(members):
                layout[i] = (stride, cell + slot * n_classes * h,
                             empty[slot * n_classes:(slot + 1) * n_classes])
            cell += w * stride
        points, sqn, counts, meta = [], [], [], []
        for i, pair in enumerate(self.pairs):
            k = pair.intrinsics
            stride, first, empty = layout[i]
            for j, cid in enumerate(self.classes):
                pts = pair.cloud.points[pair.cloud.labels == cid]
                points.append(pts)
                sqn.append(np.einsum("ij,ij->i", pts, pts) if range_weighting
                           else np.ones(len(pts)))
                counts.append(len(pts))
                meta.append((k.fx, k.fy, k.cx, k.cy, k.width - 1, k.height - 1, stride,
                             k.width + k.height, first + j * k.height, empty[j]))
        self.denominator = sum(counts)
        if self.denominator == 0:
            raise ZeroDenominator(
                "no points carry any of the requested classes "
                f"{list(self.classes)} in any pair"
            )

        self._points = np.ascontiguousarray(np.concatenate(points).T)  # (3, N)
        self._sqn = np.concatenate(sqn)
        (self._fx, self._fy, self._cx, self._cy, self._umax, self._vmax, self._stride,
         self._penalty, self._cell, empty) = np.repeat(
            np.array(meta, dtype=float), counts, axis=0).T.copy()
        self._filled = empty == 0.0
        if not self._filled.any():
            raise CalibrationError(
                f"no point of the classes {list(self.classes)} has its class in its own "
                "frame's image: every pose would cost the same"
            )
        self._rotation = self._rotated = None
        self._counts = np.array(counts).reshape(len(self.pairs), len(self.classes))
        self._block = np.repeat(np.arange(len(counts)), counts)
        self._pair = self._block // len(self.classes)

    def _kernel(self, ext: Extrinsics):
        """Per-point cost, plus the masks and values :meth:`evaluate` counts with.

        Points off the image score the clamped cell's distance plus the
        axis offsets, which is exact for L1; on the image the offsets are
        zero, so one formula serves both.  Same-class pixels hold distance
        zero, so consistent points cost nothing without a label lookup.
        """
        r, t = ext.matrix()
        key = r.tobytes()
        if key != self._rotation:
            self._rotation, self._rotated = key, r @ self._points
        rx, ry, rz = self._rotated
        z = rz + t[2]
        front = z > EPS_DEPTH
        z[~front] = 1.0
        u, v = rx + t[0], ry + t[1]
        for w, f, c in ((u, self._fx, self._cx), (v, self._fy, self._cy)):
            w *= f  # in place, in the IEEE order of f * x / z + c
            w /= z
            w += c
            np.rint(w, out=w)
        uc = np.minimum(np.maximum(u, 0.0), self._umax)
        vc = np.minimum(np.maximum(v, 0.0), self._vmax)
        cell = uc * self._stride
        cell += self._cell
        cell += vc
        d = self._fields[cell.astype(np.intp)]
        u -= uc
        v -= vc
        off = np.abs(u, out=u)
        off += np.abs(v, out=v)
        scored = front & self._filled
        cost = off + d
        np.copyto(cost, self._penalty, where=~scored)
        cost *= self._sqn
        return cost, front, scored, off, d

    def evaluate_total(self, ext: Extrinsics) -> float:
        """Aggregate cost only; the hot path for optimization loops."""
        return float(self._kernel(ext)[0].sum() / self.denominator)

    def evaluate(self, ext: Extrinsics) -> CostBreakdown:
        """Aggregate cost with per-class / per-pair subtotals and counts."""
        cost, front, scored, off, d = self._kernel(ext)
        inside = scored & (off == 0.0)
        masks = (inside & (d == 0), inside & (d != 0), ~front, scored & (off != 0.0),
                 front & ~scored)
        sums = np.bincount(self._block, weights=cost, minlength=self._counts.size)
        sums = sums.reshape(self._counts.shape)
        tallies = [np.bincount(self._pair[m], minlength=len(self.pairs)) for m in masks]
        numerator = float(cost.sum())
        breakdown = CostBreakdown(
            total=numerator / self.denominator,
            numerator=numerator,
            denominator=self.denominator,
            per_class={c: (float(sums[:, j].sum()), int(self._counts[:, j].sum()))
                       for j, c in enumerate(self.classes)},
            per_pair={},
        )
        for i, pair in enumerate(self.pairs):
            pb = PairBreakdown(pair.frame_id, float(sums[i].sum()), int(self._counts[i].sum()))
            pb.per_class = {c: (float(sums[i, j]), int(self._counts[i, j]))
                            for j, c in enumerate(self.classes)}
            (pb.n_consistent, pb.n_inconsistent, pb.n_behind_camera, pb.n_out_of_image,
             pb.n_empty_field) = (int(n[i]) for n in tallies)
            breakdown.per_pair[pair.frame_id] = pb
        (breakdown.n_consistent, breakdown.n_inconsistent, breakdown.n_behind_camera,
         breakdown.n_out_of_image, breakdown.n_empty_field) = (int(n.sum()) for n in tallies)
        return breakdown
