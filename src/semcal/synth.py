"""Synthetic labeled scenes with exact ground-truth extrinsics.

Objects are sampled as uniform point blobs directly in the camera frame
(guaranteeing visibility without rejection loops), rasterized into the
label image by depth-buffered point splatting, and un-transformed through
the inverse ground-truth extrinsics to form the sensor-frame cloud.
Object centers sit near a common ground plane below the camera so the
per-frame class centroids come out near-coplanar, which is what the
homography-based initializer needs.

Cloud points that end up occluded, outside the image, or on a rounding
boundary are dropped, so with zero label noise every kept point lands on a
pixel of its own class under the ground truth and the semantic cost is
exactly zero there.  Label noise, applied last, relabels a fraction of the
cloud points; the rendered image stays clean so that more noise can never
make the ground-truth cost look better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, EmptyScene
from .geometry import EPS_DEPTH, CameraIntrinsics, Extrinsics
from .scene import IGNORE_CLASS, FramePair, LabelImage, LabeledPointCloud

# Points whose projection falls this close to a pixel-rounding boundary are
# discarded: their cell assignment would hinge on the last float ulp.
_ROUNDING_MARGIN = 1e-6


def _default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass(frozen=True)
class SceneSpec:
    """Generator parameters.  Distances in meters, camera frame is right-
    handed with x right, y down, z forward."""

    n_frames: int = 20
    objects_per_frame: int = 6
    classes: tuple[int, ...] = (1, 2, 3)
    size_range: tuple[float, float] = (0.6, 1.8)
    depth_range: tuple[float, float] = (4.0, 16.0)
    lateral_range: tuple[float, float] = (-6.0, 6.0)
    points_per_object: int = 160
    noise_rate: float = 0.0
    extrinsics: Extrinsics = field(default_factory=Extrinsics.identity)
    seed: int = 0
    intrinsics: CameraIntrinsics = field(default_factory=_default_intrinsics)
    ground_y: float = 1.2
    ground_jitter: float = 0.2
    dilation: int = 1
    densify: int = 8

    def __post_init__(self):
        if self.n_frames < 1 or self.objects_per_frame < 1 or self.points_per_object < 1:
            raise CalibrationError("frame, object, and point counts must be positive")
        if not self.classes or IGNORE_CLASS in self.classes:
            raise CalibrationError("classes must be non-empty and exclude the ignore id")
        # The generator draws uniformly from each range, which needs a finite span.
        for name in ("size_range", "depth_range", "lateral_range"):
            low, high = getattr(self, name)
            if not (low <= high and math.isfinite(high - low)):  # also false for nan
                raise CalibrationError(f"{name} must be finite and ordered, got {low}, {high}")
        if self.depth_range[0] <= 0 or self.size_range[0] <= 0:
            raise CalibrationError("depth and size ranges must be positive")
        if not (self.ground_jitter >= 0 and math.isfinite(2 * self.ground_jitter)):
            raise CalibrationError("ground jitter must be finite and non-negative")
        if not math.isfinite(self.ground_y):
            raise CalibrationError("ground_y must be finite")
        if not 0.0 <= self.noise_rate < 1.0:
            raise CalibrationError("noise rate must lie in [0, 1)")
        if self.dilation < 0 or self.densify < 1:
            raise CalibrationError("dilation must be >= 0 and densify >= 1")
        if self.seed < 0:
            raise CalibrationError("seed must be non-negative")


@dataclass
class SceneData:
    """Generated pairs plus the ground truth and the label flips per frame."""

    pairs: list[FramePair]
    extrinsics: Extrinsics
    spec: SceneSpec
    noise_flips: list[int]


def rasterize(
    points: np.ndarray,
    labels: np.ndarray,
    k: CameraIntrinsics,
    dilation: int = 1,
) -> LabelImage:
    """Depth-buffered splat of labeled camera-frame points into a label image.

    Each point claims the square of cells within ``dilation`` of its rounded
    projection, all at its own depth; the nearest claim wins each cell, with
    ties broken by input order.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    z = points[:, 2]
    front = z > EPS_DEPTH
    pts = points[front]
    lab = labels[front]
    img = np.zeros((k.height, k.width), dtype=np.int32)
    if pts.shape[0] == 0:
        return LabelImage(img)
    u = np.rint(k.fx * pts[:, 0] / pts[:, 2] + k.cx).astype(np.int64)
    v = np.rint(k.fy * pts[:, 1] / pts[:, 2] + k.cy).astype(np.int64)
    span = range(-dilation, dilation + 1)
    offsets = [(dx, dy) for dy in span for dx in span]
    n = u.shape[0]
    m = len(offsets)
    uu = np.empty(n * m, dtype=np.int64)
    vv = np.empty(n * m, dtype=np.int64)
    for j, (dx, dy) in enumerate(offsets):
        uu[j * n : (j + 1) * n] = u + dx
        vv[j * n : (j + 1) * n] = v + dy
    zz = np.tile(pts[:, 2], m)
    ll = np.tile(lab, m)
    order_idx = np.tile(np.arange(n), m)
    ok = (uu >= 0) & (uu < k.width) & (vv >= 0) & (vv < k.height)
    uu, vv, zz, ll, order_idx = uu[ok], vv[ok], zz[ok], ll[ok], order_idx[ok]
    if uu.size == 0:
        return LabelImage(img)
    cell = vv * k.width + uu
    order = np.lexsort((order_idx, zz, cell))
    cell_sorted = cell[order]
    first = np.ones(cell_sorted.size, dtype=bool)
    first[1:] = cell_sorted[1:] != cell_sorted[:-1]
    winners = order[first]
    img.reshape(-1)[cell[winners]] = ll[winners]
    return LabelImage(img)


def _near_rounding_boundary(x: np.ndarray) -> np.ndarray:
    frac = x - np.floor(x)
    return np.abs(frac - 0.5) < _ROUNDING_MARGIN


def generate(spec: SceneSpec) -> SceneData:
    """Deterministic scene synthesis; see the module docstring for the
    guarantees that make this usable as a verification oracle."""
    r_gt, t_gt = spec.extrinsics.matrix()
    k = spec.intrinsics
    pairs = []
    noise_flips = []
    class_arr = np.array(spec.classes)
    for i in range(spec.n_frames):
        rng = np.random.default_rng([spec.seed, i])
        cam_pts = []
        cam_lab = []
        records = []
        for j in range(spec.objects_per_frame):
            # Cycling the class list keeps every class present in every
            # frame, which the centroid matcher relies on.
            class_id = int(class_arr[j % class_arr.size])
            size = float(rng.uniform(*spec.size_range))
            cx = float(rng.uniform(*spec.lateral_range))
            cz = float(rng.uniform(*spec.depth_range))
            cy = spec.ground_y - 0.5 * size + float(
                rng.uniform(-spec.ground_jitter, spec.ground_jitter)
            )
            half = 0.5 * size
            pts = rng.uniform(-half, half, size=(spec.points_per_object, 3)) + (cx, cy, cz)
            cam_pts.append(pts)
            cam_lab.append(np.full(spec.points_per_object, class_id, dtype=np.int64))
            records.append((class_id, (cx, cy, cz), size))
        cam_pts = np.vstack(cam_pts)
        cam_lab = np.concatenate(cam_lab)

        # Densified copies fill the pixel footprint between the cloud samples.
        extra = rng.uniform(-0.5, 0.5, size=(cam_pts.shape[0] * (spec.densify - 1), 3))
        sizes = np.repeat(
            [rec[2] for rec in records],
            spec.points_per_object * (spec.densify - 1),
        )
        centers = np.repeat(
            np.array([rec[1] for rec in records]),
            spec.points_per_object * (spec.densify - 1),
            axis=0,
        )
        extra = extra * sizes[:, None] + centers
        extra_lab = np.repeat(
            np.array([rec[0] for rec in records]),
            spec.points_per_object * (spec.densify - 1),
        )
        image = rasterize(
            np.vstack([cam_pts, extra]),
            np.concatenate([cam_lab, extra_lab]),
            k,
            spec.dilation,
        )

        # Sensor-frame cloud, then prune anything the camera cannot vouch for:
        # behind, off-image, rounding-fragile, or occluded by another class.
        sensor = (cam_pts - t_gt) @ r_gt
        cam2 = sensor @ r_gt.T + t_gt
        z = cam2[:, 2]
        keep = z > EPS_DEPTH
        uf = np.where(keep, k.fx * cam2[:, 0] / np.where(keep, z, 1.0) + k.cx, -1.0)
        vf = np.where(keep, k.fy * cam2[:, 1] / np.where(keep, z, 1.0) + k.cy, -1.0)
        ui = np.rint(uf).astype(np.int64)
        vi = np.rint(vf).astype(np.int64)
        keep &= (ui >= 0) & (ui < k.width) & (vi >= 0) & (vi < k.height)
        keep &= ~_near_rounding_boundary(uf) & ~_near_rounding_boundary(vf)
        keep &= image.labels[np.clip(vi, 0, k.height - 1), np.clip(ui, 0, k.width - 1)] == cam_lab
        if not keep.any():
            raise EmptyScene(f"frame {i}: no object point survives projection")

        sensor = sensor[keep]
        lab = cam_lab[keep].copy()

        # Label noise last: relabel a fraction of the cloud points to a
        # different class or to the ignore id.  Same-seed runs at higher
        # rates flip supersets of the lower-rate flips.
        flip_draw = rng.random(sensor.shape[0])
        alt_choice = rng.integers(0, class_arr.size, size=sensor.shape[0])
        flips = flip_draw < spec.noise_rate
        if flips.any():
            sorted_classes = np.sort(class_arr)
            pool = np.concatenate([[IGNORE_CLASS], sorted_classes])
            # Shift the drawn index past the point's own pool slot so the
            # new label is always different from the old one.
            own_slot = np.searchsorted(sorted_classes, lab) + 1
            alt = np.where(alt_choice >= own_slot, alt_choice + 1, alt_choice)
            lab[flips] = pool[alt[flips]]
        noise_flips.append(int(flips.sum()))

        pairs.append(
            FramePair(
                LabeledPointCloud(sensor, lab),
                image,
                k,
                f"frame_{i:04d}",
            )
        )
    return SceneData(pairs, spec.extrinsics, spec, noise_flips)


def perturb(ext: Extrinsics, dtheta, dt, seed: int = 0) -> Extrinsics:
    """Offset each parameter by its stated magnitude with a random sign.

    ``dtheta`` (radians) and ``dt`` (meters) may be scalars or length-3
    sequences.  Deterministic for a fixed seed.
    """
    dtheta = np.broadcast_to(np.asarray(dtheta, dtype=float), (3,))
    dt = np.broadcast_to(np.asarray(dt, dtype=float), (3,))
    mags = np.concatenate([dtheta, dt])
    if not np.all(np.isfinite(mags)):
        raise CalibrationError("perturbation magnitudes must be finite")
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=6) * 2 - 1
    return Extrinsics.from_vector(ext.to_vector() + signs * mags)
