"""From-scratch extrinsic initialization via matched semantic centroids.

Each (frame, class) contributes one correspondence: the mean of the 3D
points carrying that class against the mean pixel of the image region with
the same class.  The 3D centroids in driving scenes cluster near a common
plane (objects stand on the ground), which turns the pose problem planar:
fit that plane robustly, express the centroids in plane coordinates,
estimate the plane-to-image homography, and decompose it into the two
algebraically consistent poses.  Cheirality and the semantic cost pick the
winner.

The correspondences form one table (:class:`CentroidPairSet`): per row the
frame, the class, the 3D centroid, the pixel centroid and that frame's
camera, so frames with different intrinsics mix freely.  The RANSAC and
planarity settings are fields of :class:`~semcal.io_formats.RunConfig`.

The output is only an initial guess for the optimizer; centroid matches
are systematically imperfect (a cloud centroid and a pixel centroid of the
same object do not project onto each other exactly), so accuracy here is
judged coarsely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costfield import CostEvaluator
from .errors import Degenerate, InsufficientPairs, NonPlanar
from .geometry import EPS_DEPTH, Extrinsics, Translation, euler_from_matrix
from .io_formats import RunConfig
from .scene import centroid_2d, centroid_3d

MIN_PAIRS = 4
_CHUNK = 512  # RANSAC triples scored per array pass


@dataclass(frozen=True)
class CentroidPairSet:
    """Matched 3D/2D centroid correspondences, one row per usable (frame, class).

    ``camera`` holds each row's own ``fx, fy, cx, cy``.
    """

    frame_ids: tuple[str, ...]
    class_ids: np.ndarray  # (n,) int
    points_3d: np.ndarray  # (n, 3) sensor frame, meters
    pixels_2d: np.ndarray  # (n, 2) pixel (u, v)
    camera: np.ndarray  # (n, 4)

    def __len__(self) -> int:
        return len(self.frame_ids)

    def project(self, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pixels of the 3D centroids under rotation ``r`` and translation ``t``.

        Returns ``(pixels, front)``: the ``(n, 2)`` projections through each
        row's camera, NaN for rows behind the camera, and the in-front mask.
        """
        cam = self.points_3d @ r.T + t
        front = cam[:, 2] > EPS_DEPTH
        z = np.where(front, cam[:, 2], np.nan)[:, None]
        return self.camera[:, :2] * cam[:, :2] / z + self.camera[:, 2:], front


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
    projected: np.ndarray  # (n, 2) pair-set centroids under the winner, NaN behind it
    residual_px: np.ndarray  # (n,) distance to the pixel centroid, inf behind it


def collect_centroid_pairs(pairs, classes) -> CentroidPairSet:
    """One matched centroid pair per (frame, class) present in both modalities.

    Raises InsufficientPairs when fewer than ``MIN_PAIRS`` are found.
    """
    rows = []
    for pair in pairs:
        k = pair.intrinsics
        for class_id in sorted(set(int(c) for c in classes)):
            c3d = centroid_3d(pair.cloud, class_id)
            if c3d is None:
                continue
            c2d = centroid_2d(pair.image, class_id)
            if c2d is None:
                continue
            rows.append((pair.frame_id, class_id, c3d.position, c2d.position,
                         (k.fx, k.fy, k.cx, k.cy)))
    if len(rows) < MIN_PAIRS:
        raise InsufficientPairs(f"{len(rows)} centroid pairs found, need at least {MIN_PAIRS}")
    frame_ids, class_ids, points, pixels, camera = zip(*rows)
    return CentroidPairSet(frame_ids, np.array(class_ids), np.array(points),
                           np.array(pixels), np.array(camera, dtype=float))


def _hypothesis(points, idx, threshold: float, cross_tol: float):
    # (count, rms, normal, offset, inliers) of the plane through points[idx],
    # or None for a collinear triple or fewer than 3 inliers
    p0, p1, p2 = points[idx]
    normal = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(normal)
    if norm <= cross_tol:
        return None
    normal = normal / norm
    offset = float(normal @ p0)
    dist = np.abs(points @ normal - offset)
    inliers = np.nonzero(dist <= threshold)[0]
    if inliers.size < 3:
        return None
    return inliers.size, float(np.sqrt(np.mean(dist[inliers] ** 2))), normal, offset, inliers


def ransac_plane(
    centroids, threshold: float = 0.2, iterations: int = 500, seed: int = 0
) -> PlaneModel:
    """Consensus plane through a 3D point set.

    Samples minimal triples, keeps the largest consensus set (ties broken by
    lower rms, then by earlier iteration), and refits the winner to its
    inliers via the smallest-eigenvector direction of their covariance.
    Deterministic for a fixed seed.  Triples are scored as arrays, ``_CHUNK``
    at a time, with a slack around the threshold; only those whose count could
    be the largest are rescored one by one, so the result is a plain loop's.
    """
    points = np.asarray(centroids, dtype=float)
    n = points.shape[0]
    if n < 3:
        raise Degenerate(f"plane fitting needs at least 3 points, got {n}")
    scale = float(np.linalg.norm(np.ptp(points, axis=0)))
    cross_tol = max(scale * scale * 1e-12, 1e-24)
    slack = 1e-9 * (threshold + float(np.abs(points).sum(axis=1).max()))
    rng = np.random.default_rng(seed)
    best = None  # (count, rms, normal, offset, inliers)
    for start in range(0, iterations, _CHUNK):
        draws = np.array([rng.choice(n, size=3, replace=False) if n > 3 else np.arange(3)
                          for _ in range(min(_CHUNK, iterations - start))])
        p0, p1, p2 = points[draws.T]
        normal = np.cross(p1 - p0, p2 - p0)
        norm = np.sqrt(np.einsum("ij,ij->i", normal, normal))
        normal /= np.where(norm > 0, norm, 1.0)[:, None]
        dist = np.abs(points @ normal.T - np.einsum("ij,ij->i", normal, p0))
        # counts that bound the exact one, of triples surely / maybe not collinear
        low = np.where(norm > cross_tol * (1 + 1e-9), (dist <= threshold - slack).sum(axis=0), 0)
        high = np.where(norm > cross_tol * (1 - 1e-9), (dist <= threshold + slack).sum(axis=0), 0)
        floor = max(3, low.max(initial=0), best[0] if best else 0)
        for idx in draws[high >= floor]:
            h = _hypothesis(points, idx, threshold, cross_tol)
            if h and (best is None or h[0] > best[0] or (h[0] == best[0] and h[1] < best[1])):
                best = h
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
    sh = np.hstack([(np.hstack([src, ones]) @ t_src.T)[:, :2], ones])  # rows (x, y, 1)
    dh = (np.hstack([dst, ones]) @ t_dst.T)[:, :2]  # rows (u, v)
    # even rows (-x, -y, -1, 0, 0, 0, ux, uy, u), odd rows (0, 0, 0, -x, -y, -1, vx, vy, v)
    a = np.zeros((2 * n, 9))
    a[0::2, :3] = a[1::2, 3:6] = -sh
    a[0::2, 6:] = dh[:, :1] * sh
    a[1::2, 6:] = dh[:, 1:] * sh

    _, s, vt = np.linalg.svd(a, full_matrices=len(a) < 9)  # vt must be 9 x 9
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
    h: np.ndarray, frame: PlaneFrame, pair_set: CentroidPairSet
) -> list[PoseCandidate]:
    """Both rigid poses consistent with a plane-to-camera homography.

    ``h`` must map plane-chart coordinates to intrinsics-normalized image
    coordinates.  The two sign choices of ``h`` give the two candidates;
    each rotation is snapped to the nearest orthonormal matrix and composed
    with the chart so the returned extrinsics act on sensor-frame points.
    Each candidate carries the pixel reprojection rms of ``pair_set`` and
    the count of its centroids in front of the camera.
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
        proj, front = pair_set.project(r_full, t_full)
        cheirality = int(front.sum())
        rms = float("inf")
        if cheirality:
            err = proj[front] - pair_set.pixels_2d[front]
            rms = float(np.sqrt(np.mean(np.sum(err**2, axis=1))))
        candidates.append(PoseCandidate(ext, rms, cheirality))
    return candidates


def initialize(evaluator: CostEvaluator, config: RunConfig | None = None) -> InitResult:
    """Full initialization pipeline from a prepared scene to initial extrinsics.

    Centroid pairs -> consensus plane -> plane chart -> homography -> two
    pose candidates, ranked by cheirality count then by the semantic cost
    of ``evaluator``, whose pairs and classes also supply the centroids.
    Raises NonPlanar when the centroids spread too far off any plane for
    the planar decomposition to be trustworthy (more frames usually fix
    this), and propagates InsufficientPairs / Degenerate from the stages.
    """
    cfg = config or RunConfig()
    pair_set = collect_centroid_pairs(evaluator.pairs, evaluator.classes)
    pts3d = pair_set.points_3d

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
    normalized = (pair_set.pixels_2d - pair_set.camera[:, 2:]) / pair_set.camera[:, :2]
    h = estimate_homography(coords, normalized)
    candidates = decompose_planar_pose(h, frame, pair_set)

    costs = [evaluator.evaluate_total(c.extrinsics) for c in candidates]
    order = sorted(
        range(len(candidates)), key=lambda i: (-candidates[i].cheirality, costs[i])
    )
    winner = candidates[order[0]]
    projected, front = pair_set.project(*winner.extrinsics.matrix())
    residual = np.hypot(*(projected - pair_set.pixels_2d).T)
    residual[~front] = np.inf

    return InitResult(
        extrinsics=winner.extrinsics,
        plane=plane,
        candidates=[candidates[i] for i in order],
        candidate_costs=[costs[i] for i in order],
        pair_set=pair_set,
        projected=projected,
        residual_px=residual,
    )
