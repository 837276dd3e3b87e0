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
# The image splats this many points per cloud point: the point itself and
# copies drawn across its object, which fill the footprint between samples.
_DENSIFY = 8


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
        if self.dilation < 0:
            raise CalibrationError("dilation must be >= 0")
        if self.seed < 0:
            raise CalibrationError("seed must be non-negative")


@dataclass
class SceneData:
    """Generated pairs plus the ground truth and the label flips per frame."""

    pairs: list[FramePair]
    extrinsics: Extrinsics
    spec: SceneSpec
    noise_flips: list[int]


def _pixels(points: np.ndarray, k: CameraIntrinsics, pad: int):
    """Unrounded pixel coordinates ``u, v`` of camera-frame points, and the
    mask of the points in front of the camera.

    Both coordinates are clipped to ``pad`` pixels beyond the image, so a
    far-off projection, an overflowed one included, stays off the image by
    more than ``pad - 1`` cells and no integer cast of it overflows; a point
    behind the camera lands at ``-pad``.
    """
    x, y, z = points.T
    front = z > EPS_DEPTH
    z = np.where(front, z, 1.0)
    with np.errstate(over="ignore"):
        u = np.where(front, k.fx * x / z + k.cx, -pad)
        v = np.where(front, k.fy * y / z + k.cy, -pad)
    return np.clip(u, -pad, k.width + pad), np.clip(v, -pad, k.height + pad), front


def rasterize(
    points: np.ndarray,
    labels: np.ndarray,
    k: CameraIntrinsics,
    dilation: int = 1,
) -> LabelImage:
    """Depth-buffered splat of labeled camera-frame points into a label image.

    Each point in front of the camera claims the square of cells within
    ``dilation`` of its rounded projection, all at its own depth; the
    nearest claim wins each cell, with ties broken by input order.
    """
    points = np.asarray(points, dtype=float)
    # Behind the camera or far off, a point's footprint misses the image.
    uf, vf, _ = _pixels(points, k, dilation + 1)
    span = np.arange(-dilation, dilation + 1)[:, None]
    uu = np.rint(uf).astype(np.int64) + span  # (offset, point)
    vv = np.rint(vf).astype(np.int64) + span
    cell = vv[:, None] * k.width + uu  # (dy, dx, point)
    ok = ((vv >= 0) & (vv < k.height))[:, None] & ((uu >= 0) & (uu < k.width))
    idx = np.broadcast_to(np.arange(points.shape[0]), cell.shape)[ok]
    cell = cell[ok]
    order = np.lexsort((idx, points[idx, 2], cell))
    winners = order[np.unique(cell[order], return_index=True)[1]]
    img = np.zeros((k.height, k.width), dtype=np.int32)
    img.reshape(-1)[cell[winners]] = np.asarray(labels)[idx[winners]]
    return LabelImage(img)


def _near_rounding_boundary(x: np.ndarray) -> np.ndarray:
    frac = x - np.floor(x)
    return np.abs(frac - 0.5) < _ROUNDING_MARGIN


def generate(spec: SceneSpec) -> SceneData:
    """Deterministic scene synthesis; see the module docstring for the
    guarantees that make this usable as a verification oracle."""
    r_gt, t_gt = spec.extrinsics.matrix()
    k = spec.intrinsics
    n_obj, n_pts = spec.objects_per_frame, spec.points_per_object
    # Cycling the class list keeps every class present in every frame, which
    # the centroid matcher relies on.
    obj_class = np.resize(np.array(spec.classes), n_obj)
    cam_lab = np.repeat(obj_class, n_pts)
    owner = np.repeat(np.arange(n_obj), n_pts * (_DENSIFY - 1))  # the object of each copy
    splat_lab = np.concatenate([cam_lab, obj_class[owner]])
    sorted_classes = np.sort(spec.classes)
    pool = np.concatenate([[IGNORE_CLASS], sorted_classes])
    pairs = []
    noise_flips = []
    for i in range(spec.n_frames):
        rng = np.random.default_rng([spec.seed, i])
        sizes, centers, blobs = np.empty(n_obj), np.empty((n_obj, 3)), []
        for j in range(n_obj):
            size = rng.uniform(*spec.size_range)
            cx = rng.uniform(*spec.lateral_range)
            cz = rng.uniform(*spec.depth_range)
            cy = spec.ground_y - 0.5 * size + rng.uniform(-spec.ground_jitter, spec.ground_jitter)
            sizes[j], centers[j] = size, (cx, cy, cz)
            blobs.append(rng.uniform(-0.5 * size, 0.5 * size, size=(n_pts, 3)) + centers[j])
        cam_pts = np.vstack(blobs)
        extra = rng.uniform(-0.5, 0.5, size=(owner.size, 3)) * sizes[owner, None] + centers[owner]
        image = rasterize(np.vstack([cam_pts, extra]), splat_lab, k, spec.dilation)

        # Sensor-frame cloud, then prune anything the camera cannot vouch for:
        # behind, off-image, rounding-fragile, or occluded by another class.
        sensor = (cam_pts - t_gt) @ r_gt
        uf, vf, keep = _pixels(sensor @ r_gt.T + t_gt, k, 1)
        ui, vi = np.rint(uf).astype(np.int64), np.rint(vf).astype(np.int64)
        keep &= (ui >= 0) & (ui < k.width) & (vi >= 0) & (vi < k.height)
        keep &= ~_near_rounding_boundary(uf) & ~_near_rounding_boundary(vf)
        keep &= image.labels[np.clip(vi, 0, k.height - 1), np.clip(ui, 0, k.width - 1)] == cam_lab
        if not keep.any():
            raise EmptyScene(f"frame {i}: no object point survives projection")
        sensor = sensor[keep]
        lab = cam_lab[keep]

        # Label noise last: relabel a fraction of the cloud points to a
        # different class or to the ignore id.  Same-seed runs at higher
        # rates flip supersets of the lower-rate flips.
        flip_draw = rng.random(sensor.shape[0])
        alt_choice = rng.integers(0, pool.size - 1, size=sensor.shape[0])
        flips = flip_draw < spec.noise_rate
        # Shift the drawn index past the point's own pool slot so the new
        # label is always different from the old one.
        alt = alt_choice + (alt_choice > np.searchsorted(sorted_classes, lab))
        lab[flips] = pool[alt[flips]]
        noise_flips.append(int(flips.sum()))
        pairs.append(FramePair(LabeledPointCloud(sensor, lab), image, k, f"frame_{i:04d}"))
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
