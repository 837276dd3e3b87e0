"""From-scratch extrinsic initialization via matched semantic centroids.

Each (frame, class) contributes one correspondence: the mean of the 3D
points carrying that class against the mean pixel of the image region with
the same class.  The 3D centroids in driving scenes cluster near a common
plane (objects stand on the ground), which turns the pose problem planar:
fit that plane robustly, express the centroids in plane coordinates,
estimate the plane-to-image homography, and decompose it into the two
algebraically consistent poses.  Cheirality and the semantic cost pick the
winner.

The output is only an initial guess for the optimizer; centroid matches
are systematically imperfect (a cloud centroid and a pixel centroid of the
same object do not project onto each other exactly), so accuracy here is
judged coarsely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costfield import CostEvaluator
from .errors import CalibrationError, Degenerate, InsufficientPairs, NonPlanar
from .geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Extrinsics,
    Translation,
    euler_from_matrix,
)
from .scene import Centroid, centroid_2d, centroid_3d

MIN_PAIRS = 4


@dataclass(frozen=True)
class CentroidPair:
    frame_id: str
    class_id: int
    c3d: Centroid
    c2d: Centroid
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class CentroidPairSet:
    """Matched 3D/2D centroid correspondences, one per usable (frame, class)."""

    pairs: tuple[CentroidPair, ...]

    def __post_init__(self):
        if len(self.pairs) < MIN_PAIRS:
            raise InsufficientPairs(
                f"{len(self.pairs)} centroid pairs found, need at least {MIN_PAIRS}"
            )

    def __len__(self) -> int:
        return len(self.pairs)

    def points_3d(self) -> np.ndarray:
        return np.array([p.c3d.position for p in self.pairs])

    def pixels_2d(self) -> np.ndarray:
        return np.array([p.c2d.position for p in self.pairs])


@dataclass(frozen=True)
class PlaneModel:
    """Plane ``normal . x = offset`` with its consensus set."""

    normal: np.ndarray  # unit 3-vector
    offset: float
    inliers: np.ndarray  # indices into the fitted point list
    rms: float  # rms point-plane distance over the inliers


@dataclass(frozen=True)
class PlaneFrame:
    """Orthonormal chart on a plane: origin plus two in-plane axes.

    ``[axis_a, axis_b, normal]`` is right-handed.
    """

    origin: np.ndarray
    axis_a: np.ndarray
    axis_b: np.ndarray
    normal: np.ndarray


@dataclass(frozen=True)
class PoseCandidate:
    extrinsics: Extrinsics
    rms: float  # centroid reprojection rms in pixels
    cheirality: int  # number of centroids landing in front of the camera


@dataclass
class InitResult:
    """Winning initial extrinsics plus everything needed to audit the choice."""

    extrinsics: Extrinsics
    plane: PlaneModel
    candidates: list[PoseCandidate]  # ranked, winner first
    candidate_costs: list[float]
    pair_set: CentroidPairSet
    diagnostics: list[dict] = field(default_factory=list)


@dataclass
class InitConfig:
    ransac_threshold: float = 0.2  # meters
    ransac_iterations: int = 500
    seed: int = 0
    planarity_ratio: float = 0.05  # max plane rms as a fraction of cloud diameter

    def __post_init__(self):
        if not (0 < self.ransac_threshold < math.inf and 0 < self.planarity_ratio < math.inf):
            raise CalibrationError(
                "ransac_threshold and planarity_ratio must be positive and finite")
        if self.ransac_iterations < 1:
            raise CalibrationError("ransac_iterations must be at least 1")
        if self.seed < 0:
            raise CalibrationError("seed must be non-negative")


def collect_centroid_pairs(pairs, classes) -> CentroidPairSet:
    """One matched centroid pair per (frame, class) present in both modalities."""
    found = []
    for pair in pairs:
        for class_id in sorted(set(int(c) for c in classes)):
            c3d = centroid_3d(pair.cloud, class_id)
            if c3d is None:
                continue
            c2d = centroid_2d(pair.image, class_id)
            if c2d is None:
                continue
            found.append(
                CentroidPair(pair.frame_id, class_id, c3d, c2d, pair.intrinsics)
            )
    return CentroidPairSet(tuple(found))


def ransac_plane(
    centroids, threshold: float = 0.2, iterations: int = 500, seed: int = 0
) -> PlaneModel:
    """Consensus plane through a 3D point set.

    Samples minimal triples, keeps the largest consensus set (ties broken by
    lower rms, then by earlier iteration), and refits the winner to its
    inliers via the smallest-eigenvector direction of their covariance.
    Deterministic for a fixed seed.
    """
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
        (ax, ay, az), (bx, by, bz) = (p1 - p0).tolist(), (p2 - p0).tolist()  # np.cross, unrolled
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
    eigvals, eigvecs = np.linalg.eigh(cov)
    normal = eigvecs[:, 0]  # eigh sorts ascending; smallest spread direction
    # Canonical sign so results do not flip between runs.
    lead = int(np.argmax(np.abs(normal)))
    if normal[lead] < 0:
        normal = -normal
    offset = float(normal @ center)
    dist = np.abs(sub @ normal - offset)
    rms = float(np.sqrt(np.mean(dist**2)))
    return PlaneModel(normal, offset, inliers, rms)


def plane_coordinates(plane: PlaneModel, centroids):
    """Express points in an orthonormal chart on the plane.

    Returns ``(coords, frame, residuals)``: the (n, 2) in-plane coordinates
    of the orthogonally projected points, the chart, and the signed
    out-of-plane residuals.
    """
    points = np.asarray(centroids, dtype=float)
    normal = plane.normal
    mean = points.mean(axis=0)
    origin = mean - (mean @ normal - plane.offset) * normal
    # Seed the first axis with the basis vector least aligned with the normal.
    seed_axis = np.zeros(3)
    seed_axis[int(np.argmin(np.abs(normal)))] = 1.0
    axis_a = seed_axis - (seed_axis @ normal) * normal
    axis_a = axis_a / np.linalg.norm(axis_a)
    axis_b = np.cross(normal, axis_a)
    frame = PlaneFrame(origin, axis_a, axis_b, normal)
    rel = points - origin
    coords = np.stack([rel @ axis_a, rel @ axis_b], axis=1)
    residuals = rel @ normal
    return coords, frame, residuals


def _normalization(points: np.ndarray) -> np.ndarray:
    # Similarity transform taking the set to zero centroid and mean
    # distance sqrt(2); the standard conditioning step for the DLT.
    center = points.mean(axis=0)
    mean_dist = float(np.mean(np.linalg.norm(points - center, axis=1)))
    if mean_dist <= 0.0:
        raise Degenerate("all correspondence points coincide")
    s = np.sqrt(2.0) / mean_dist
    return np.array(
        [[s, 0.0, -s * center[0]], [0.0, s, -s * center[1]], [0.0, 0.0, 1.0]]
    )


def estimate_homography(plane_pts, image_pts) -> np.ndarray:
    """Direct linear transform homography from (n, 2) correspondences.

    Both sets are isotropically normalized first; the stacked 2n x 9 system
    is solved by its smallest singular direction and denormalized.  The
    result maps plane coordinates to normalized image coordinates.
    """
    src = np.asarray(plane_pts, dtype=float)
    dst = np.asarray(image_pts, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise Degenerate("correspondence arrays must both be (n, 2)")
    n = src.shape[0]
    if n < MIN_PAIRS:
        raise Degenerate(f"homography needs at least {MIN_PAIRS} correspondences, got {n}")
    t_src = _normalization(src)
    t_dst = _normalization(dst)
    ones = np.ones((n, 1))
    sh = (np.hstack([src, ones]) @ t_src.T)[:, :2]
    dh = (np.hstack([dst, ones]) @ t_dst.T)[:, :2]

    a = np.zeros((2 * n, 9))
    x, y = sh[:, 0], sh[:, 1]
    u, v = dh[:, 0], dh[:, 1]
    a[0::2, 0] = -x
    a[0::2, 1] = -y
    a[0::2, 2] = -1.0
    a[0::2, 6] = u * x
    a[0::2, 7] = u * y
    a[0::2, 8] = u
    a[1::2, 3] = -x
    a[1::2, 4] = -y
    a[1::2, 5] = -1.0
    a[1::2, 6] = v * x
    a[1::2, 7] = v * y
    a[1::2, 8] = v

    _, s, vt = np.linalg.svd(a)
    if s[-2] <= 1e-10 * s[0]:
        raise Degenerate("correspondences are rank-deficient (collinear or repeated)")
    h = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h @ t_src
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return h


def _nearest_rotation(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def decompose_planar_pose(
    h: np.ndarray,
    frame: PlaneFrame,
    k: CameraIntrinsics,
    points_3d=None,
    pixels_2d=None,
) -> list[PoseCandidate]:
    """Both rigid poses consistent with a plane-to-camera homography.

    ``h`` must map plane-chart coordinates to intrinsics-normalized image
    coordinates.  The two sign choices of ``h`` give the two candidates;
    each rotation is snapped to the nearest orthonormal matrix and composed
    with the chart so the returned extrinsics act on sensor-frame points.
    When correspondences are supplied, each candidate carries its pixel
    reprojection rms and the count of centroids in front of the camera.
    """
    candidates = []
    for sign in (1.0, -1.0):
        hs = sign * np.asarray(h, dtype=float)
        h1, h2, h3 = hs[:, 0], hs[:, 1], hs[:, 2]
        n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
        if n1 < 1e-12 or n2 < 1e-12:
            raise Degenerate("homography column collapsed; cannot recover a pose")
        lam = 2.0 / (n1 + n2)
        r1 = lam * h1
        r2 = lam * h2
        r3 = np.cross(r1, r2)
        r_pc = _nearest_rotation(np.stack([r1, r2, r3], axis=1))
        t_pc = lam * h3
        # Chart-to-sensor: p = origin + M @ (a, b, 0); camera = R_pc @ (a,b,0) + t_pc.
        m = np.stack([frame.axis_a, frame.axis_b, frame.normal], axis=1)
        r_full = r_pc @ m.T
        t_full = t_pc - r_full @ frame.origin
        ext = Extrinsics(euler_from_matrix(r_full), Translation(*t_full))
        rms = float("nan")
        cheirality = 0
        if points_3d is not None and pixels_2d is not None:
            pts = np.asarray(points_3d, dtype=float)
            pix = np.asarray(pixels_2d, dtype=float)
            cam = pts @ r_full.T + t_full
            front = cam[:, 2] > EPS_DEPTH
            cheirality = int(front.sum())
            if cheirality:
                cf = cam[front]
                proj = np.stack(
                    [
                        k.fx * cf[:, 0] / cf[:, 2] + k.cx,
                        k.fy * cf[:, 1] / cf[:, 2] + k.cy,
                    ],
                    axis=1,
                )
                rms = float(np.sqrt(np.mean(np.sum((proj - pix[front]) ** 2, axis=1))))
            else:
                rms = float("inf")
        candidates.append(PoseCandidate(ext, rms, cheirality))
    return candidates


def initialize(evaluator: CostEvaluator, config: InitConfig | None = None) -> InitResult:
    """Full initialization pipeline from a prepared scene to initial extrinsics.

    Centroid pairs -> consensus plane -> plane chart -> homography -> two
    pose candidates, ranked by cheirality count then by the semantic cost
    of ``evaluator``, whose pairs and classes also supply the centroids.
    Raises NonPlanar when the centroids spread too far off any plane for
    the planar decomposition to be trustworthy (more frames usually fix
    this), and propagates InsufficientPairs / Degenerate from the stages.
    """
    cfg = config or InitConfig()
    pair_set = collect_centroid_pairs(evaluator.pairs, evaluator.classes)
    pts3d = pair_set.points_3d()
    pix2d = pair_set.pixels_2d()

    plane = ransac_plane(
        pts3d, cfg.ransac_threshold, cfg.ransac_iterations, seed=cfg.seed
    )
    diffs = pts3d[:, None, :] - pts3d[None, :, :]
    diameter = float(np.sqrt((diffs**2).sum(axis=2).max()))
    if diameter <= 0.0:
        raise Degenerate("all centroids coincide")
    if plane.rms > cfg.planarity_ratio * diameter:
        raise NonPlanar(
            f"plane rms {plane.rms:.3g} m exceeds {cfg.planarity_ratio:.0%} of the "
            f"centroid spread ({diameter:.3g} m); the centroid layout is not planar "
            "enough for homography-based initialization"
        )

    coords, frame, _ = plane_coordinates(plane, pts3d)
    k = pair_set.pairs[0].intrinsics
    normalized = np.stack(
        [
            (pix2d[:, 0] - np.array([p.intrinsics.cx for p in pair_set.pairs]))
            / np.array([p.intrinsics.fx for p in pair_set.pairs]),
            (pix2d[:, 1] - np.array([p.intrinsics.cy for p in pair_set.pairs]))
            / np.array([p.intrinsics.fy for p in pair_set.pairs]),
        ],
        axis=1,
    )
    h = estimate_homography(coords, normalized)
    candidates = decompose_planar_pose(h, frame, k, pts3d, pix2d)

    costs = [evaluator.evaluate_total(c.extrinsics) for c in candidates]
    order = sorted(
        range(len(candidates)), key=lambda i: (-candidates[i].cheirality, costs[i])
    )
    ranked = [candidates[i] for i in order]
    ranked_costs = [costs[i] for i in order]

    winner = ranked[0]
    r_w, t_w = winner.extrinsics.matrix()
    diagnostics = []
    for cp in pair_set.pairs:
        cam = r_w @ cp.c3d.position + t_w
        if cam[2] > EPS_DEPTH:
            u = cp.intrinsics.fx * cam[0] / cam[2] + cp.intrinsics.cx
            v = cp.intrinsics.fy * cam[1] / cam[2] + cp.intrinsics.cy
            residual = float(np.hypot(u - cp.c2d.position[0], v - cp.c2d.position[1]))
        else:
            u = v = float("nan")
            residual = float("inf")
        diagnostics.append(
            {
                "frame_id": cp.frame_id,
                "class_id": cp.class_id,
                "centroid_2d": (float(cp.c2d.position[0]), float(cp.c2d.position[1])),
                "projected_3d": (float(u), float(v)),
                "residual_px": residual,
            }
        )

    return InitResult(
        extrinsics=winner.extrinsics,
        plane=plane,
        candidates=ranked,
        candidate_costs=ranked_costs,
        pair_set=pair_set,
        diagnostics=diagnostics,
    )
