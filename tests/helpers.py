"""Shared fixture builders for the test suite."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from semcal.costfield import CostBreakdown, build_distance_field
from semcal.errors import Degenerate
from semcal.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Extrinsics,
    RotationAngles,
    Translation,
)
from semcal.pnp_init import PlaneModel
from semcal.scene import FramePair, LabelImage, LabeledPointCloud


def brute_min_l1(labels, class_id, queries):
    """Reference minimum L1 distance from each (u, v) query to the class.

    Row-at-a-time broadcasting keeps 64x64 grids cheap while staying a
    direct transcription of the definition.
    """
    rows, cols = np.nonzero(np.asarray(labels) == class_id)
    queries = np.asarray(queries, dtype=float)
    if rows.size == 0:
        return np.full(queries.shape[0], np.inf)
    out = np.empty(queries.shape[0])
    for i, (u, v) in enumerate(queries):
        out[i] = np.min(np.abs(cols - u) + np.abs(rows - v))
    return out


def brute_distance_grid(labels, class_id):
    """Full-grid version of :func:`brute_min_l1`."""
    labels = np.asarray(labels)
    h, w = labels.shape
    rows, cols = np.nonzero(labels == class_id)
    if rows.size == 0:
        return np.full((h, w), np.inf)
    out = np.empty((h, w))
    col_d = np.abs(cols[None, :] - np.arange(w)[:, None])  # (w, n)
    for r in range(h):
        out[r] = np.min(np.abs(rows[None, :] - r) + col_d, axis=1)
    return out


def box_distance(field, f, u, v):
    """Field ``f`` of a built ``DistanceField`` at pixels ``(u, v)`` anywhere,
    on the image or off it: the box cell nearest to each pixel plus the axis
    offsets to it."""
    u0, v0, u1, v1 = field.box[f]
    uc, vc = np.clip(u, u0, u1), np.clip(v, v0, v1)
    cells = field.cell[f] + (uc - u0) * field.stride + (vc - v0)
    return field.d[cells] + np.abs(u - uc) + np.abs(v - vc)


def expand_field(field, f, shape):
    """Field ``f`` of a built ``DistanceField`` as a whole ``(height, width)``
    grid, through :func:`box_distance`; an empty field's grid holds
    ``width + height``."""
    h, w = shape
    if field.empty[f]:
        return np.full(shape, h + w)
    return box_distance(field, f, np.arange(w)[None, :], np.arange(h)[:, None])


def class_field(image, class_id):
    """One class's distance field as a ``(height, width)`` grid ``d`` plus its
    ``empty_class`` flag: the layout the scalar and per-block references read."""
    field = build_distance_field([image], (class_id,))
    return SimpleNamespace(d=expand_field(field, 0, image.labels.shape),
                           empty_class=bool(field.empty[0]))


def splat_reference(points, labels, k, dilation):
    """``synth.rasterize`` one cell at a time: each cell takes the label of
    the in-front point of least depth whose rounded projection lies within
    ``dilation`` of it, depth ties going to the earlier point; 0 if none."""
    claims = []  # (u, v, depth, label) of every point in front of the camera
    for (x, y, z), label in zip(np.asarray(points, dtype=float).tolist(), labels):
        if z > EPS_DEPTH:
            u, v = k.fx * x / z + k.cx, k.fy * y / z + k.cy
            if math.isfinite(u) and math.isfinite(v):
                claims.append((round(u), round(v), z, int(label)))
    image = np.zeros((k.height, k.width), dtype=np.int32)
    for row in range(k.height):
        for col in range(k.width):
            best = None
            for u, v, z, label in claims:
                near = abs(u - col) <= dilation and abs(v - row) <= dilation
                if near and (best is None or z < best[0]):
                    best = (z, label)
            if best is not None:
                image[row, col] = best[1]
    return image


def make_planar_pairs(seed, n_frames=4, n_classes=3, k=None, gt=None):
    """Frame pairs whose centroid correspondences are exact and coplanar.

    Each (frame, class) is a single labeled 3D point paired with a single
    labeled pixel.  The point is built by casting the ray of an integer
    pixel onto a camera-facing plane and mapping the hit back to the sensor
    frame, so the pixel centroid equals the projected 3D centroid exactly
    and all 3D centroids lie on one plane.  Returns (pairs, gt, classes).
    """
    rng = np.random.default_rng(seed)
    if k is None:
        k = CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    if gt is None:
        angles = rng.uniform(-0.25, 0.25, size=3)
        trans = rng.uniform(-0.5, 0.5, size=3)
        gt = Extrinsics(RotationAngles(*angles), Translation(*trans))
    r, t = gt.matrix()

    # Camera-facing plane, tilted a little so the layout is generic.
    n_c = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0])
    n_c /= np.linalg.norm(n_c)
    d_c = float(n_c @ np.array([0.0, 0.0, 8.0]))

    classes = tuple(range(1, n_classes + 1))
    pairs = []
    for f in range(n_frames):
        us = rng.choice(np.arange(40, k.width - 40, 16), size=n_classes, replace=False)
        vs = rng.choice(np.arange(40, k.height - 40, 16), size=n_classes, replace=False)
        points = []
        image = np.zeros((k.height, k.width), dtype=int)
        for cid, u, v in zip(classes, us, vs):
            ray = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
            depth = d_c / float(n_c @ ray)
            p_cam = depth * ray
            points.append(r.T @ (p_cam - t))
            image[int(v), int(u)] = cid
        cloud = LabeledPointCloud(points=np.array(points), labels=np.array(classes))
        pairs.append(FramePair(cloud, LabelImage(labels=image), k, f"frame_{f:04d}"))
    return pairs, gt, classes


def ransac_plane_loop(centroids, threshold=0.2, iterations=500, seed=0):
    """``pnp_init.ransac_plane`` as it was before it scored triples as arrays:
    one triple at a time, the same draws, the same refit."""
    points = np.asarray(centroids, dtype=float)
    n = points.shape[0]
    if n < 3:
        raise Degenerate(f"plane fitting needs at least 3 points, got {n}")
    scale = float(np.linalg.norm(np.ptp(points, axis=0)))
    cross_tol = max(scale * scale * 1e-12, 1e-24)
    rng = np.random.default_rng(seed)
    best = None  # (count, rms, normal, offset, inlier_idx)
    for _ in range(iterations):
        idx = rng.choice(n, size=3, replace=False) if n > 3 else np.arange(3)
        p0, p1, p2 = points[idx]
        (ax, ay, az), (bx, by, bz) = (p1 - p0).tolist(), (p2 - p0).tolist()
        normal = np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])
        norm = np.linalg.norm(normal)
        if norm <= cross_tol:
            continue  # collinear sample
        normal = normal / norm
        offset = float(normal @ p0)
        dist = np.abs(points @ normal - offset)
        inliers = np.nonzero(dist <= threshold)[0]
        count = inliers.size
        if count < 3:
            continue
        rms = float(np.sqrt(np.mean(dist[inliers] ** 2)))
        if best is None or count > best[0] or (count == best[0] and rms < best[1]):
            best = (count, rms, normal, offset, inliers)
    if best is None:
        raise Degenerate("all sampled triples were collinear; cannot fit a plane")

    inliers = best[4]
    sub = points[inliers]
    center = sub.mean(axis=0)
    cov = (sub - center).T @ (sub - center)
    _, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]
    lead = int(np.argmax(np.abs(normal)))
    if normal[lead] < 0:
        normal = -normal
    offset = float(normal @ center)
    dist = np.abs(sub @ normal - offset)
    return PlaneModel(normal, offset, inliers, float(np.sqrt(np.mean(dist**2))))


# ---------------------------------------------------------------------------
# Scalar reference cost: one point at a time, straight from the definition.


def query_distance(field, pixel) -> float:
    """Distance-field lookup at a pixel coordinate that may lie off the image.

    Out-of-range coordinates decompose exactly as the clamped-cell value
    plus the axis offsets, which is valid for L1 because the clamped
    coordinate lies between the query and every in-image pixel on that
    axis.  Criterion 2 checks this against :func:`brute_min_l1`.
    """
    height, width = field.d.shape
    u, v = float(pixel[0]), float(pixel[1])
    u_c = min(max(u, 0.0), width - 1.0)
    v_c = min(max(v, 0.0), height - 1.0)
    return float(field.d[round(v_c), round(u_c)] + abs(u - u_c) + abs(v - v_c))


def point_cost(p, class_id, ext, k, fields, image=None, range_weighting=True) -> float:
    """Cost contributed by a single labeled point under the given extrinsics.

    The projected pixel is rounded to the nearest integer cell.  With
    ``image`` the label comparison reads the pixel's label; without it, the
    field being zero exactly on same-class pixels stands in for it.
    """
    p = np.asarray(p, dtype=float)
    sq_norm = float(p @ p) if range_weighting else 1.0
    r, t = ext.matrix()
    cam = r @ p + t
    field = fields[class_id]
    if cam[2] <= EPS_DEPTH or field.empty_class:
        return float((k.width + k.height) * sq_norm)
    u = round(k.fx * cam[0] / cam[2] + k.cx)
    v = round(k.fy * cam[1] / cam[2] + k.cy)
    if 0 <= u < k.width and 0 <= v < k.height:
        dist = float(field.d[v, u])
        same = dist == 0.0 if image is None else image.labels[v, u] == class_id
        return 0.0 if same else dist * sq_norm
    return query_distance(field, (u, v)) * sq_norm


# ---------------------------------------------------------------------------
# Flat reference kernel: CostEvaluator's kernel as it was before it cached
# the rotated points and worked in place.  It reads the evaluator's packed
# arrays and allocates every intermediate, so the lean kernel must match it
# bit for bit.


def flat_kernel(evaluator, ext):
    """``(cost, front, scored, u, v, off, d)`` of one pose, freshly computed."""
    e = evaluator
    r, t = ext.matrix()
    x, y, z = r @ e._points + t[:, None]
    front = z > EPS_DEPTH
    z = np.where(front, z, 1.0)
    (fx, cx), (fy, cy) = e._camera
    (umin, umax), (vmin, vmax) = e._bounds
    u = np.rint(fx * x / z + cx)
    v = np.rint(fy * y / z + cy)
    uc = np.minimum(np.maximum(u, umin), umax)
    vc = np.minimum(np.maximum(v, vmin), vmax)
    d = e._fields[(e._cell + uc * e._stride + vc).astype(np.intp)]
    off = np.abs(u - uc) + np.abs(v - vc)
    scored = front & e._filled
    cost = np.where(scored, d + off, e._penalty) * e._sqn
    return cost, front, scored, u, v, off, d


# ---------------------------------------------------------------------------
# Per-block reference cost: one loop over (frame, class) blocks with float64
# fields, the layout the packed kernel of CostEvaluator replaced.  The packed
# kernel sums in a different order, so its totals agree to rounding; its
# counts and denominators agree exactly.


class _PairPrep:
    """Immutable per-pair precomputation: class point blocks and fields."""

    __slots__ = ("frame_id", "k", "labels", "blocks", "denominator", "per_class_den")

    def __init__(self, pair: FramePair, classes, range_weighting: bool):
        self.frame_id = pair.frame_id
        self.k = pair.intrinsics
        self.labels = pair.image.labels
        fields = {cid: class_field(pair.image, cid) for cid in classes}
        self.blocks = []
        self.per_class_den = {}
        total = 0
        for cid in classes:
            mask = pair.cloud.labels == cid
            pts = pair.cloud.points[mask]
            n = pts.shape[0]
            if range_weighting:
                sqn = np.einsum("ij,ij->i", pts, pts)
            else:
                sqn = np.ones(n)
            fld = fields[cid]
            self.blocks.append((cid, pts, sqn, fld))
            self.per_class_den[cid] = n
            total += n
        self.denominator = total

    def evaluate(self, r: np.ndarray, t: np.ndarray, counts: bool):
        """Numerator (and optionally diagnostics) for one extrinsics sample."""
        out = CostBreakdown(0.0, 0.0, self.denominator, {}, {}) if counts else None
        k = self.k
        w, h = k.width, k.height
        penalty_scale = w + h
        numerator = 0.0
        per_class = {}
        for cid, pts, sqn, fld in self.blocks:
            n = pts.shape[0]
            if n == 0:
                per_class[cid] = 0.0
                continue
            cam = pts @ r.T + t
            z = cam[:, 2]
            front = z > EPS_DEPTH
            cost = np.empty(n)
            cost[~front] = penalty_scale * sqn[~front]
            if fld.empty_class:
                cost[front] = penalty_scale * sqn[front]
                if counts:
                    out.n_behind_camera += int(n - front.sum())
                    out.n_empty_field += int(front.sum())
            else:
                fidx = np.nonzero(front)[0]
                cf = cam[fidx]
                u = np.rint(k.fx * cf[:, 0] / cf[:, 2] + k.cx).astype(np.intp)
                v = np.rint(k.fy * cf[:, 1] / cf[:, 2] + k.cy).astype(np.intp)
                in_img = (u >= 0) & (u < w) & (v >= 0) & (v < h)
                oidx = fidx[~in_img]
                if oidx.size:
                    uo, vo = u[~in_img], v[~in_img]
                    uc = np.clip(uo, 0, w - 1)
                    vc = np.clip(vo, 0, h - 1)
                    dist = fld.d[vc, uc] + np.abs(uo - uc) + np.abs(vo - vc)
                    cost[oidx] = dist * sqn[oidx]
                iidx = fidx[in_img]
                ui, vi = u[in_img], v[in_img]
                pix = self.labels[vi, ui]
                cons = pix == cid
                cost[iidx[cons]] = 0.0
                bad = iidx[~cons]
                if bad.size:
                    cost[bad] = fld.d[vi[~cons], ui[~cons]] * sqn[bad]
                if counts:
                    out.n_behind_camera += int(n - front.sum())
                    out.n_out_of_image += int(oidx.size)
                    out.n_consistent += int(cons.sum())
                    out.n_inconsistent += int(bad.size)
            block_sum = float(cost.sum())
            per_class[cid] = block_sum
            numerator += block_sum
        if counts:
            out.numerator = numerator
            out.total = numerator / self.denominator if self.denominator else 0.0
            out.per_class = {
                cid: (per_class[cid], self.per_class_den[cid]) for cid in per_class
            }
            return out
        return numerator


class ReferenceEvaluator:
    """The per-block loop over every pair, summed in pair-then-class order."""

    def __init__(self, pairs, classes, range_weighting=True):
        self.classes = tuple(dict.fromkeys(int(c) for c in classes))
        self._preps = [_PairPrep(p, self.classes, range_weighting) for p in pairs]
        self.denominator = sum(p.denominator for p in self._preps)

    def evaluate_total(self, ext):
        r, t = ext.matrix()
        total = 0.0
        for prep in self._preps:
            total += prep.evaluate(r, t, counts=False)
        return total / self.denominator

    def evaluate(self, ext):
        r, t = ext.matrix()
        pair_results = {p.frame_id: p.evaluate(r, t, True) for p in self._preps}
        per_class = {c: (0.0, 0) for c in self.classes}
        numerator = 0.0
        breakdown = CostBreakdown(
            total=0.0,
            numerator=0.0,
            denominator=self.denominator,
            per_class=per_class,
            per_pair={},
        )
        for frame_id, pb in pair_results.items():
            breakdown.per_pair[frame_id] = pb
            numerator += pb.numerator
            for cid, (num, den) in pb.per_class.items():
                acc_num, acc_den = per_class[cid]
                per_class[cid] = (acc_num + num, acc_den + den)
            breakdown.n_consistent += pb.n_consistent
            breakdown.n_inconsistent += pb.n_inconsistent
            breakdown.n_behind_camera += pb.n_behind_camera
            breakdown.n_out_of_image += pb.n_out_of_image
            breakdown.n_empty_field += pb.n_empty_field
        breakdown.numerator = numerator
        breakdown.total = numerator / self.denominator
        return breakdown


def load_script(directory: str, name: str):
    """The module ``<directory>/<name>.py``, loaded from its file: ``perfbench``
    and ``bench`` are directories of scripts, not packages."""
    path = Path(__file__).resolve().parent.parent / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
