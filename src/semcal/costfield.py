"""Semantic consistency cost over labeled point-cloud / label-image pairs.

The per-point cost couples a label-consistency test with the minimum
Manhattan distance from the projected pixel to any image pixel carrying the
point's class, weighted by the squared range of the original sensor-frame
point.  Distance lookups are served by per-class exact L1 distance
transforms over each class's bounding box, precomputed once for all images.

Failure modes fold into finite penalties so the aggregate loss stays total:
a point behind the camera, or one whose class is absent from the image,
costs ``(width + height) * |p|^2``, at least as much as any in-image
misprojection can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CalibrationError, ZeroDenominator
from .geometry import EPS_DEPTH, Extrinsics
from .scene import IGNORE_CLASS, LabelImage


class DistanceField(NamedTuple):
    """Exact L1 distance transforms of several classes in label images, each
    stored only over the bounding box of its class's pixels.

    Field ``f = i * classes + j`` belongs to the ``j``-th class in the
    ``i``-th image.  Its box ``box[f] = (u0, v0, u1, v1)`` spans columns
    ``u0..u1`` and rows ``v0..v1`` of the image and holds every pixel of the
    class.  The distance from pixel ``(u, v)`` of the box to the nearest
    pixel of the class, zero exactly on such pixels, is ``d[cell[f] + (u -
    u0) * stride + (v - v0)]``.  Beyond the box, on the image or off it,
    the distance is that of the nearest box cell plus the axis offsets to
    it: the nearest cell lies between the query and every pixel of the
    class on each axis, so for L1 this is exact.  ``empty[f]`` is set when
    the class is absent from the image; such a field has no cells.
    """

    d: np.ndarray  # (cells,): every box's cells, in one atlas
    box: np.ndarray  # (images * classes, 4) int: u0, v0, u1, v1
    cell: np.ndarray  # (images * classes,) int: index of the box's cell (u0, v0) in d
    stride: int  # cells between neighbouring columns, the same for every box
    empty: np.ndarray  # (images * classes,) bool


def _boxes(labels: np.ndarray, ids: np.ndarray) -> list:
    """Per class of ``ids``, ``(u0, v0, width, height)`` of the bounding box
    of its pixels in ``labels``, or None when it has none: the rows that
    hold the class, then the columns of those rows that hold it.  Class ids
    are positive, so each class is looked for only in the band of rows that
    hold any label.
    """
    band = np.flatnonzero(labels.any(axis=1))
    if not band.size:
        return [None] * len(ids)
    top = int(band[0])
    labels = labels[top:int(band[-1]) + 1]
    boxes = []
    for cid in ids:
        mask = labels == cid
        rows = np.flatnonzero(mask.any(axis=1))
        if not rows.size:
            boxes.append(None)
            continue
        v0, v1 = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(mask[v0:v1].any(axis=0))
        u0, u1 = int(cols[0]), int(cols[-1]) + 1
        boxes.append((u0, top + v0, u1 - u0, v1 - v0))
    return boxes


def _runs(boxes: list, row: int = 0, column: int = 0) -> list:
    """``(first row, end row, end column)`` of each run of rows that hold the
    same boxes, where ``boxes`` of ``(rows, columns)`` sit side by side from
    ``(row, column)``, in order of non-increasing rows."""
    runs, start, n = [], 0, sum(size for _, size in boxes)
    for extent, size in boxes[::-1]:
        if extent > start:
            runs.append((row + start, row + extent, column + n))
            start = extent
        n -= size
    return runs


def _scan(a: np.ndarray, runs: list) -> None:
    """In place down the rows of 2-D ``a``, forward then backward, each up to
    its run's end (see :func:`_runs`): ``a[i] = min(a[i], a[i-1] + 1)``.  A
    step into a run reads the row above up to the run's end, where it must
    add nothing beyond its own; a step back up covers the shorter row.  Each
    step is two numpy calls over a row of a run, with one preallocated
    ``step`` row and a 0-d ``one`` of ``a``'s type, so numpy converts no
    Python scalar per call.
    """
    step = np.empty(a.shape[1], a.dtype)
    one = np.ones((), a.dtype)
    add, minimum = np.add, np.minimum

    def down(rows, n):
        s = step[:n]
        for prev, cur in zip(rows, rows[1:]):
            add(prev, one, s)
            minimum(cur, s, out=cur)

    for start, stop, n in runs:  # from the last row of the run before
        down(list(a[max(start - 1, 0):stop, :n]), n)
    for k in range(len(runs) - 1, -1, -1):
        start, stop, n = runs[k]
        if k + 1 < len(runs):  # from the first row of the run after
            m = min(n, runs[k + 1][2])
            down((a[stop, :m], a[stop - 1, :m]), m)
        down(list(a[start:stop, :n][::-1]), n)


def build_distance_field(images: list[LabelImage], classes) -> DistanceField:
    """Exact L1 distance transforms of ``classes`` in label images, each
    over its class's bounding box, built together.

    The boxes come first, each exactly the bounding box of its class's
    pixels (see :func:`_boxes`); an absent class gets none.
    Distances are integers below ``far``, the largest ``width + height`` of
    the images, stored in the smallest unsigned type that holds ``far + 1``.

    Then the boxes, tallest first, fill chunks placed side by side in one
    reusable buffer of at most ``classes`` image planes.  A compare writes 1
    off the class's pixels and 0 on them into a box's place, a multiply
    turns the 1s into ``far``, and a forward and a backward row scan run
    along the height of the chunk; as the boxes are sorted by height, each
    numpy call of the scan covers a row of every box that reaches it.  Each
    box then moves into the atlas in one transposing copy.

    The atlas, filled with ``far``, has as many rows as the widest box is
    wide; a box takes its height in columns and its width in rows.  The
    boxes sit side by side from row 0, widest first, and those that fit sit
    from row ``low`` on under the tail of boxes narrower than ``low``, which
    an estimate from the box sizes picks to fit the most height there.  A
    row of ``far`` above them stays unscanned, so one more scan over the
    whole atlas gives the exact Manhattan transform (Rosenfeld & Pfaltz,
    1966).  The atlas takes at most one image plane per field where all
    images have one size.  Besides its result, a build holds its buffer and
    the scans' row views: 3.16 image planes for 4 dense 480 x 640 images of
    3 classes, by ``tracemalloc``.
    """
    n = len(classes)
    far = max(sum(image.labels.shape) for image in images)
    dtype = np.min_scalar_type(far + 1)
    sources, boxes = [], []  # per field: (labels, class id); (u0, v0, width, height) or None
    for image in images:
        labels = image.labels
        ids = np.array(classes, np.promote_types(labels.dtype, np.min_scalar_type(max(classes))))
        sources += [(labels, cid) for cid in ids]
        boxes += _boxes(labels, ids)
    present = [f for f, b in enumerate(boxes) if b]

    widest = sorted(present, key=lambda f: -boxes[f][2])  # the atlas's order of the boxes
    wide, high = ([boxes[f][k] for f in widest] for k in (2, 3))
    size = wide[0] if widest else 1  # the atlas's rows
    # per row: the height of the boxes narrower than it, and of those that fit under it
    rows, below, narrow = np.arange(1, size + 1), np.cumsum([0, *high[::-1]]), np.array(wide[::-1])
    tail, fit = below[narrow.searchsorted(rows)], below[narrow.searchsorted(size + 1 - rows)]
    low = int(np.argmax(np.minimum(np.minimum(tail, fit), np.maximum(tail, fit) // 2))) + 1
    room, top, stacked, cell, stride = int(tail[low - 1]), [], [], [0] * len(boxes), 0
    for f, w, h in zip(widest, wide, high):
        if w <= size - low and h <= room - h * (w < low):  # room: the tail's height left free
            stacked.append(f)
            room -= h + h * (w < low)
        else:
            top.append((w, h))
            cell[f], stride = stride, stride + h
    low = size - max((boxes[f][2] for f in stacked), default=0)  # so they reach the last row
    column = sum(h for w, h in top if w >= low)  # the tail's first box
    runs = [(i, min(j, low), e) for i, j, e in _runs(top) if i < low]
    runs += _runs([boxes[f][2:] for f in stacked], low, column)
    for f in stacked:
        cell[f], column = low * stride + column, column + boxes[f][3]
    atlas = np.full((size, stride), far, dtype)

    cap = n * max(image.labels.size for image in images)
    chunks = []  # fields that share one height scan, tallest first, and their width
    for f in sorted(present, key=lambda f: -boxes[f][3]):
        if chunks and boxes[chunks[-1][0][0]][3] * (chunks[-1][1] + boxes[f][2]) <= cap:
            chunks[-1][0].append(f)
            chunks[-1][1] += boxes[f][2]
        else:
            chunks.append([[f], boxes[f][2]])
    buf = np.empty(max((boxes[m[0]][3] * w for m, w in chunks), default=0), dtype)
    for members, width in chunks:
        chunk = buf[:boxes[members[0]][3] * width].reshape(-1, width)
        sizes = [boxes[f][2] for f in members]
        ends = np.cumsum(sizes).tolist()  # each box's place along the chunk's rows
        places = [chunk[:boxes[f][3], e - w:e] for f, w, e in zip(members, sizes, ends)]
        for f, place in zip(members, places):
            u0, v0, w, h = boxes[f]
            labels, cid = sources[f]
            np.not_equal(labels[v0:v0 + h, u0:u0 + w], cid, out=place, casting="unsafe")
        chunk *= far  # the cells beyond the boxes are never read
        _scan(chunk, _runs([(boxes[f][3], w) for f, w in zip(members, sizes)]))
        for f, place in zip(members, places):
            r, c = divmod(cell[f], stride)
            np.copyto(atlas[r:r + boxes[f][2], c:c + boxes[f][3]], place.T)
    _scan(atlas, runs)
    box = np.array([b or (0, 0, 1, 1) for b in boxes], np.int64)
    box[:, 2:] += box[:, :2] - 1  # u1, v1 from the widths and heights
    return DistanceField(atlas.reshape(-1), box, np.array(cell), stride,
                         np.array([b is None for b in boxes]))


@dataclass
class CostBreakdown:
    """Loss, per-class subtotals and point counts of a scene, with one such
    record per frame pair in ``per_pair``, keyed by frame id.  A pair's own
    ``per_pair`` is empty, and its ``total`` is 0.0 when it has no points."""

    total: float
    numerator: float
    denominator: int
    per_class: dict[int, tuple[float, int]]
    per_pair: dict[str, CostBreakdown]
    n_consistent: int = 0
    n_inconsistent: int = 0
    n_behind_camera: int = 0
    n_out_of_image: int = 0
    n_empty_field: int = 0


def _validated_classes(classes) -> tuple[int, ...]:
    """The distinct class ids in ascending order, so that neither the blocks
    nor the sums over them depend on the order the ids were given in."""
    ids = tuple(sorted({int(c) for c in classes}))
    if not ids:
        raise CalibrationError("the class set must not be empty")
    if min(ids) <= IGNORE_CLASS:
        raise CalibrationError(f"class ids must be positive: {IGNORE_CLASS} is the ignore class")
    return ids


class CostEvaluator:
    """Prepared multi-pair cost function, reusable across many extrinsics.

    Construction packs the scene once.  One :func:`build_distance_field`
    call builds the fields of every pair into one atlas; each (pair, class)
    field covers the bounding box of that class's pixels, and an absent
    class has none.  The scored points, grouped into (pair, class) blocks,
    pair by pair in ascending class order, become flat per-point arrays:
    coordinates as one ``(3, N)`` array, range weight, an empty-class flag,
    the block index, and their field's box and the atlas index of the box's
    pixel ``(0, 0)``; the atlas has one column stride for all.  Frame ids
    must be distinct, and all pairs must have one camera's intrinsics.
    ``center`` is the mean of the scored points, each weighted by its range
    weight ``|p|^2``.  ``classes_without_pixels`` lists the requested
    classes that have scored points but no pixel in any image, in class
    order; their points cost the empty-field penalty at every pose.
    The same blocks and boxes give the initialization its semantic
    centroids, on request (:meth:`centroids`), with no second scene scan.

    Each evaluation is one flat pass: one rotation of all points, round,
    clamp to each point's box, gather, one sum.  :meth:`evaluate_total`,
    the hot path of optimizer and sweep loops, returns that sum over the
    denominator; :meth:`evaluate` returns the same total, bit for bit, plus
    counts and per-class / per-pair subtotals, which are summed separately
    and so add up to the total only to rounding; it counts a point as off
    the image against the image's bounds, not its box's.  The instance
    keeps what the last pose's projection computed and redoes only what a
    new pose moves (see :meth:`_kernel`); that state makes it unsafe to
    share between threads.
    """

    def __init__(self, pairs, classes):
        self.pairs = tuple(pairs)
        if not self.pairs:
            raise CalibrationError("at least one frame pair is required")
        ids = [pair.frame_id for pair in self.pairs]
        if len(set(ids)) < len(ids):  # the per-pair breakdown is keyed by frame id
            dup = next(f for i, f in enumerate(ids) if f in ids[:i])
            raise CalibrationError(f"two frame pairs share the frame id {dup!r}")
        k = self.pairs[0].intrinsics
        for p in self.pairs:  # one pose maps the clouds into one camera
            if p.intrinsics != k:
                raise CalibrationError(f"frame {p.frame_id!r} has other intrinsics than the first")
        self.classes = _validated_classes(classes)

        fields = build_distance_field([pair.image for pair in self.pairs], self.classes)
        self._fields, self._box, self._empty = fields.d, fields.box, fields.empty
        # the index of a box's cell (u, v) is u * stride + v + origin
        origin = fields.cell - fields.box[:, 0] * fields.stride - fields.box[:, 1]
        n = len(self.classes)
        class_ids = np.array(self.classes)
        blocks = []  # per point of every cloud: its (pair, class) block, -1 for other labels
        for i, pair in enumerate(self.pairs):
            j = np.minimum(np.searchsorted(class_ids, pair.cloud.labels), n - 1)
            blocks.append(np.where(class_ids[j] == pair.cloud.labels, i * n + j, -1))
        blocks = np.concatenate(blocks)
        counts = np.bincount(blocks + 1, minlength=len(fields.box) + 1)
        order = np.argsort(blocks, kind="stable")[counts[0]:]  # pair, class, then cloud order
        self.denominator = int(order.size)
        if self.denominator == 0:
            raise ZeroDenominator(
                "no points carry any of the requested classes "
                f"{list(self.classes)} in any pair"
            )

        points = np.concatenate([pair.cloud.points for pair in self.pairs])[order]
        self._points = np.ascontiguousarray(points.T)  # (3, N)
        self._sqn = np.einsum("ij,ij->i", points, points)
        weights = self._sqn.astype(float)  # all zero only when every point is at the origin
        self.center = self._points @ weights / max(weights.sum(), np.finfo(float).tiny)
        self._block = blocks[order]
        self._pair = self._block // n
        self._camera = ((float(k.fx), float(k.cx)), (float(k.fy), float(k.cy)))  # u, then v
        self._penalty = float(k.width + k.height)
        self._stride = fields.stride
        per_field = np.column_stack([fields.box, origin]).astype(float).T
        umin, vmin, umax, vmax, self._cell = per_field.take(self._block, 1)
        self._bounds = ((umin, umax), (vmin, vmax))
        self._filled = ~fields.empty[self._block]
        if not self._filled.any():
            raise CalibrationError(
                f"no point of the classes {list(self.classes)} has its class in its own "
                "frame's image: every pose would cost the same"
            )
        self._unfilled = None if self._filled.all() else ~self._filled
        self._everywhere = np.ones(self.denominator, bool)
        # the kernel's state: the last rotation and translation, and what it kept of them
        self._rotation = self._rotated = self._t = None
        self._axes = [None, None]
        self._counts = counts[1:].reshape(len(self.pairs), n)
        lacking = self._counts.any(axis=0) & fields.empty.reshape(self._counts.shape).all(axis=0)
        self.classes_without_pixels = tuple(np.compress(lacking, self.classes).tolist())

    def centroids(self) -> list[tuple[int, int, np.ndarray, tuple]]:
        """``(pair index, class id, mean point, mean pixel (u, v))`` of each
        (pair, class) block with points and pixels, pair then ascending class.
        The pixels are counted per column and per row of the class's box, so
        each mean is an exact integer sum over the count, bit for bit the mean
        of the pixels' coordinates.  One ``np.bincount`` per axis sums the
        points of every block in cloud order, as the block's own mean would."""
        n, counts, rows = len(self.classes), self._counts.ravel(), []
        full = np.flatnonzero(counts * ~self._empty)  # the blocks with points and pixels
        sums = np.array([np.bincount(self._block, w, counts.size) for w in self._points])
        for f, mean in zip(full.tolist(), sums.T[full] / counts[full, None]):
            u0, v0, u1, v1 = self._box[f]
            labels = self.pairs[f // n].image.labels[v0:v1 + 1, u0:u1 + 1]
            mask = (labels == self.classes[f % n]).view(np.uint8)
            acc = np.min_scalar_type(max(mask.shape))  # holds any row or column count
            per_col, per_row = mask.sum(axis=0, dtype=acc), mask.sum(axis=1, dtype=acc)
            u, v = per_col @ np.arange(u0, u1 + 1), per_row @ np.arange(v0, v1 + 1)
            size = int(per_col.sum())
            rows.append((f // n, self.classes[f % n], mean, (u / size, v / size)))
        return rows

    def _kernel(self, ext: Extrinsics):
        """Per-point cost, plus the masks and values :meth:`evaluate` counts with.

        Returns ``(cost, front, scored, u, v, off, d)``: ``u, v`` are the
        rounded pixels, ``off`` the offsets from them to the box and ``d``
        the cells read; see :meth:`_cost`.
        """
        cost, d = self._cost(ext)
        (_, du), (_, dv) = self._axes
        u, v = (self._pixels(i, self._t[i]) for i in (0, 1))
        return cost, self._front, self._scored, u, v, du + dv, d

    def _cost(self, ext: Extrinsics):
        """Per-point cost and the cells read: the hot path.

        Each point reads the cell of its field's box nearest to its pixel
        and adds the axis offsets to it, which is exact for L1 inside the
        box and beyond it, on the image or off it; inside the offsets are
        zero, so one formula serves all.  Same-class pixels hold distance
        zero, so consistent points cost nothing without a label lookup.

        The instance keeps each part of the last pose's projection with
        the pose components it depends on: the rotated points and their
        nearest depth on the rotation, keyed by its bytes; the depth and
        the front and scored masks on t_z too; and per image axis, on that
        axis's translation too, the pixels clamped to the box (taken on,
        for u, to u's part of the cell index) and the offsets to the box.
        A pose is compared with the last component by component, and only
        the parts whose components changed are recomputed: so a pose that
        moves t_x alone, or t_y alone, recomputes one image axis and then
        the cells.  Kept arrays are replaced, never written to.  A mask
        that would select nothing is not applied: with every point in
        front and every field filled, the cost takes no penalty pass.
        """
        r, t = ext.matrix()
        key, t = r.tobytes(), t.tolist()
        kept = self._t
        if key != self._rotation:
            self._rotation, self._rotated, kept = key, r @ self._points, None
            self._nearest = self._rotated[2].min()
        if kept is None or t[2] != kept[2]:
            z = self._rotated[2] + t[2]
            if self._nearest + t[2] > EPS_DEPTH:  # rounding is monotonic: this is min(z)
                front = self._everywhere
                self._scored, self._unscored = self._filled, self._unfilled
            else:
                front = z > EPS_DEPTH
                z[~front] = 1.0
                self._scored = front & self._filled
                self._unscored = ~self._scored
            self._z, self._front, kept = z, front, (None, None)  # so both axes count as moved
        axes = self._axes
        for i, (low, high) in enumerate(self._bounds):
            if t[i] != kept[i]:
                w = self._pixels(i, t[i])
                wc = np.maximum(w, low)  # np.clip takes twice as long
                np.minimum(wc, high, out=wc)
                off = np.subtract(wc, w, out=w)
                np.abs(off, out=off)
                if i == 0:
                    wc *= self._stride
                    wc += self._cell
                axes[i] = wc, off
        self._t = t
        (cell, du), (vc, dv) = axes
        cell = np.add(cell, vc, out=np.empty(cell.size, np.intp), casting="unsafe")
        d = self._fields.take(cell)
        cost = du + dv
        cost += d
        if self._unscored is not None:
            np.copyto(cost, self._penalty, where=self._unscored)
        cost *= self._sqn
        return cost, d

    def _pixels(self, i: int, t: float) -> np.ndarray:
        """Rounded pixel coordinates along image axis ``i`` (0 for u, 1 for
        v) of the kept rotated points and depth, moved by ``t`` on that axis."""
        f, c = self._camera[i]
        w = self._rotated[i] + t
        w *= f  # in place, in the IEEE order of f * x / z + c
        w /= self._z
        w += c
        return np.rint(w, out=w)

    def evaluate_total(self, ext: Extrinsics) -> float:
        """Aggregate cost only; the hot path for optimization loops."""
        return float(self._cost(ext)[0].sum() / self.denominator)

    def evaluate(self, ext: Extrinsics) -> CostBreakdown:
        """Aggregate cost with per-class / per-pair subtotals and counts."""
        cost, front, scored, u, v, off, d = self._kernel(ext)
        k = self.pairs[0].intrinsics
        on_image = (u >= 0.0) & (u <= k.width - 1) & (v >= 0.0) & (v <= k.height - 1)
        inside, hit = scored & on_image, (off == 0.0) & (d == 0)
        masks = (inside & hit, inside & ~hit, ~front, scored & ~on_image, front & ~scored)
        sums = np.bincount(self._block, weights=cost, minlength=self._counts.size)
        sums = sums.reshape(self._counts.shape)
        tallies = np.array([np.bincount(self._pair[m], minlength=len(self.pairs)) for m in masks])

        def record(numerator, sums, counts, tally, per_pair):  # sums and counts per class
            denominator = int(counts.sum())
            return CostBreakdown(
                numerator / denominator if denominator else 0.0, numerator, denominator,
                {c: (float(s), int(k)) for c, s, k in zip(self.classes, sums, counts)},
                per_pair, *map(int, tally))

        per_pair = {pair.frame_id: record(float(sums[i].sum()), sums[i], self._counts[i],
                                          tallies[:, i], {}) for i, pair in enumerate(self.pairs)}
        # each class's column summed on its own: sums.sum(axis=0) adds in another order
        return record(float(cost.sum()), [s.sum() for s in sums.T], self._counts.sum(axis=0),
                      tallies.sum(axis=1), per_pair)
