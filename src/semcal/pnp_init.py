"""From-scratch extrinsic initialization via matched semantic centroids.

Each (frame, class) contributes one correspondence: the mean of the 3D
points carrying that class against the mean pixel of the image region with
the same class.  The 3D centroids in driving scenes cluster near a common
plane (objects stand on the ground), which turns the pose problem planar:
fit that plane robustly, express the centroids in plane coordinates,
estimate the plane-to-image homography, and decompose it into a pose.
The homography is scaled to ``h[2,2] = 1``, which puts the chart origin in
front of the camera (Zhang, *A flexible new technique for camera
calibration*, TPAMI 2000), so it has one pose: the other sign would put the
chart behind the camera.

The correspondences form one table (:class:`CentroidPairSet`): per row the
frame, the class, the 3D centroid and the pixel centroid, with the one
camera of the scene.  The plane fit
runs with :func:`ransac_plane`'s defaults and the planarity gate with
``_PLANARITY_RATIO`` of the centroids' bounding-box diagonal.  The fit's
random triples come from one ``Generator.integers`` call that reproduces
``Generator.choice``'s draws exactly (:func:`_triples`), so every
estimate is the one a loop of ``choice`` calls gives, with the same numpy.

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

MIN_PAIRS = 4
_PLANARITY_RATIO = 0.05  # max plane rms as a fraction of the bounding-box diagonal


@dataclass(frozen=True)
class CentroidPairSet:
    """Matched 3D/2D centroid correspondences, one row per usable (frame, class)."""

    frame_ids: tuple[str, ...]
    class_ids: np.ndarray  # (n,) int
    points_3d: np.ndarray  # (n, 3) sensor frame, meters
    pixels_2d: np.ndarray  # (n, 2) pixel (u, v)
    camera: np.ndarray  # (4,) fx, fy, cx, cy of the one camera

    def __len__(self) -> int:
        return len(self.frame_ids)

    def project(self, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pixels of the 3D centroids under rotation ``r`` and translation ``t``.

        Returns ``(pixels, front)``: the ``(n, 2)`` projections through the
        camera, NaN for rows behind it, and the in-front mask.
        """
        cam = self.points_3d @ r.T + t
        front = cam[:, 2] > EPS_DEPTH
        z = np.where(front, cam[:, 2], np.nan)[:, None]
        return self.camera[:2] * cam[:, :2] / z + self.camera[2:], front


@dataclass(frozen=True)
class PlaneModel:
    """Plane ``normal . x = offset`` with its consensus set."""

    normal: np.ndarray  # unit 3-vector
    offset: float
    inliers: np.ndarray  # indices into the fitted point list
    rms: float  # rms point-plane distance over the inliers


@dataclass
class InitResult:
    """Initial extrinsics plus everything needed to audit them."""

    extrinsics: Extrinsics
    plane: PlaneModel
    cost: float  # semantic cost of ``evaluator`` at the extrinsics
    cheirality: int  # number of centroids landing in front of the camera
    rms: float  # centroid reprojection rms in pixels over those, inf if none
    pair_set: CentroidPairSet
    projected: np.ndarray  # (n, 2) pair-set centroids under the extrinsics, NaN behind
    residual_px: np.ndarray  # (n,) distance to the pixel centroid, inf behind


def collect_centroid_pairs(evaluator: CostEvaluator) -> CentroidPairSet:
    """One matched centroid pair per (frame, class) present in both
    modalities, from :meth:`~semcal.costfield.CostEvaluator.centroids`.

    Raises InsufficientPairs when fewer than ``MIN_PAIRS`` are found.
    """
    rows = evaluator.centroids()
    if len(rows) < MIN_PAIRS:
        raise InsufficientPairs(f"{len(rows)} centroid pairs found, need at least {MIN_PAIRS}")
    index, class_ids, points, pixels = zip(*rows)
    k = evaluator.pairs[0].intrinsics  # the evaluator's one camera
    return CentroidPairSet(tuple(evaluator.pairs[i].frame_id for i in index),
                           np.array(class_ids), np.array(points), np.array(pixels),
                           np.array([k.fx, k.fy, k.cx, k.cy], dtype=float))


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


def _triples(n: int, count: int, seed: int) -> np.ndarray:
    """The ``(count, 3)`` rows that ``count`` successive
    ``np.random.default_rng(seed).choice(n, 3, replace=False)`` calls return,
    drawn by one ``integers`` call; ``(0, 1, 2)`` rows when ``n == 3``.

    ``choice`` samples 3 of ``n`` with Floyd's algorithm (Bentley & Floyd,
    *A sample of brilliance*, CACM 1987) and then shuffles the sample, and
    each of its steps takes one bounded integer from the stream that
    ``integers`` takes them from too.  So five integers per row, in
    ``choice``'s order, give its rows exactly: Floyd's picks below ``n - 2``,
    ``n - 1`` and ``n``, each pick that repeats an earlier one replaced by
    its step's largest index, then the shuffle's swap positions below 3 and
    2, swapped into slots 2 and 1.
    """
    if n == 3:
        return np.tile(np.arange(3), (count, 1))
    draws = np.random.default_rng(seed).integers(0, [n - 2, n - 1, n, 3, 2], size=(count, 5))
    rows, (swap2, swap1) = draws[:, :3], draws[:, 3:].T
    a, b, c = rows.T  # views: the replacements write into rows
    b[b == a] = n - 2
    c[(c == a) | (c == b)] = n - 1
    every = np.arange(count)
    for slot, pos in ((2, swap2), (1, swap1)):
        picked = rows[every, pos]
        rows[every, pos] = rows[:, slot]
        rows[:, slot] = picked
    return rows


def ransac_plane(
    centroids, threshold: float = 0.2, iterations: int = 500, seed: int = 0
) -> PlaneModel:
    """Consensus plane through a 3D point set.

    Samples ``iterations`` minimal triples, keeps the largest consensus set
    (ties broken by lower rms, then by earlier iteration), and refits the
    winner to its inliers via the smallest-eigenvector direction of their
    covariance.  Deterministic for a fixed seed: the triples are those of
    ``iterations`` successive ``default_rng(seed).choice(n, 3, replace=False)``
    calls, all drawn up front by :func:`_triples` in one array call.
    Every triple is scored in one array pass, with a slack around the
    threshold; only those whose count could be the largest are rescored one
    by one, in draw order and each ordered triple once, so the result is a
    plain loop's.
    """
    points = np.asarray(centroids, dtype=float)
    n = points.shape[0]
    if n < 3:
        raise Degenerate(f"plane fitting needs at least 3 points, got {n}")
    scale = float(np.linalg.norm(np.ptp(points, axis=0)))
    cross_tol = max(scale * scale * 1e-12, 1e-24)
    slack = 1e-9 * (threshold + float(np.abs(points).sum(axis=1).max()))
    triples = _triples(n, iterations, seed)
    p0, p1, p2 = points[triples.T]
    normal = np.cross(p1 - p0, p2 - p0)
    norm = np.sqrt(np.einsum("ij,ij->i", normal, normal))
    normal /= np.where(norm > 0, norm, 1.0)[:, None]
    dist = np.abs(points @ normal.T - np.einsum("ij,ij->i", normal, p0))
    # counts that bound the exact one, of triples surely / maybe not collinear
    low = np.where(norm > cross_tol * (1 + 1e-9), (dist <= threshold - slack).sum(axis=0), 0)
    high = np.where(norm > cross_tol * (1 - 1e-9), (dist <= threshold + slack).sum(axis=0), 0)
    candidates = triples[high >= max(3, low.max(initial=0))].tolist()
    best = None  # (count, rms, normal, offset, inliers)
    # a repeat of an ordered triple gives the same bits, which cannot beat an
    # equal best; another order of the same points can give other bits
    for idx in dict.fromkeys(map(tuple, candidates)):
        h = _hypothesis(points, list(idx), threshold, cross_tol)
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

    Returns ``(coords, origin, basis)``: the (n, 2) in-plane coordinates of
    the orthogonally projected points, the chart origin, and the
    right-handed 3 x 3 basis whose columns are the two in-plane axes and the
    plane normal.
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
    rel = points - origin
    coords = np.stack([rel @ axis_a, rel @ axis_b], axis=1)
    return coords, origin, np.stack([axis_a, axis_b, normal], axis=1)


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
    is solved by its smallest singular direction, denormalized and scaled
    to ``h[2,2] = 1``.  The result maps plane coordinates to normalized
    image coordinates.  Raises Degenerate when ``h[2,2]`` is about 0: the
    chart origin would then project to infinity.
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
    if s[7] <= 1e-10 * s[0]:  # rank below 8; s holds 8 values for 4 pairs, 9 for more
        raise Degenerate("correspondences are rank-deficient (collinear or repeated)")
    h = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h @ t_src
    if abs(h[2, 2]) <= 1e-12:
        raise Degenerate("homography maps the chart origin to infinity")
    return h / h[2, 2]


def _nearest_rotation(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r


def decompose_planar_pose(h: np.ndarray, origin: np.ndarray, basis: np.ndarray) -> Extrinsics:
    """The rigid pose of a plane-to-camera homography with ``h[2,2] = 1``.

    ``h`` must map plane-chart coordinates to intrinsics-normalized image
    coordinates; ``origin`` and ``basis`` are the chart of
    :func:`plane_coordinates`.  The rotation is snapped to the nearest
    orthonormal matrix and composed with the chart, so the returned
    extrinsics act on sensor-frame points.  With ``h[2,2] = 1`` the chart
    origin lies in front of the camera; ``-h`` would give its mirror image
    behind it.
    """
    h1, h2, h3 = np.asarray(h, dtype=float).T
    n1, n2 = np.linalg.norm(h1), np.linalg.norm(h2)
    if n1 < 1e-12 or n2 < 1e-12:
        raise Degenerate("homography column collapsed; cannot recover a pose")
    lam = 2.0 / (n1 + n2)
    r1 = lam * h1
    r2 = lam * h2
    r_pc = _nearest_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=1))
    # Chart-to-sensor: p = origin + basis @ (a, b, 0); camera = R_pc @ (a, b, 0) + t_pc.
    r_full = r_pc @ basis.T
    t_full = lam * h3 - r_full @ origin
    return Extrinsics(euler_from_matrix(r_full), Translation(*t_full))


def initialize(evaluator: CostEvaluator) -> InitResult:
    """Full initialization pipeline from a prepared scene to initial extrinsics.

    Centroid pairs -> consensus plane -> plane chart -> homography -> pose,
    whose semantic cost ``evaluator`` gives; the evaluator's (pair, class)
    blocks also supply the centroids.  Raises NonPlanar when the plane rms
    exceeds ``_PLANARITY_RATIO`` of the centroids' bounding-box diagonal,
    too far off any plane for the planar decomposition to be trustworthy
    (more frames usually fix this), and propagates InsufficientPairs /
    Degenerate from the stages, the plane fit's naming the farthest centroid.
    """
    pair_set = collect_centroid_pairs(evaluator)
    pts3d = pair_set.points_3d

    try:
        plane = ransac_plane(pts3d)
    except Degenerate as e:  # one far centroid makes every triple look collinear
        far = np.linalg.norm(pts3d - np.median(pts3d, axis=0), axis=1)
        i = int(np.argmax(far))
        raise Degenerate(f"{e}; farthest from the centroids' median: class {pair_set.class_ids[i]}"
                         f" of frame {pair_set.frame_ids[i]!r}, {far[i]:.3g} m off") from None
    spread = float(np.linalg.norm(np.ptp(pts3d, axis=0)))
    if plane.rms > _PLANARITY_RATIO * spread:
        raise NonPlanar(
            f"plane rms {plane.rms:.3g} m exceeds {_PLANARITY_RATIO:.0%} of the "
            f"centroid spread ({spread:.3g} m); the centroid layout is not planar "
            "enough for homography-based initialization"
        )

    coords, origin, basis = plane_coordinates(plane, pts3d)
    normalized = (pair_set.pixels_2d - pair_set.camera[2:]) / pair_set.camera[:2]
    h = estimate_homography(coords, normalized)
    extrinsics = decompose_planar_pose(h, origin, basis)

    projected, front = pair_set.project(*extrinsics.matrix())
    err = projected - pair_set.pixels_2d
    cheirality = int(front.sum())
    rms = float(np.sqrt(np.mean(np.sum(err[front] ** 2, axis=1)))) if cheirality else float("inf")
    residual = np.hypot(*err.T)
    residual[~front] = np.inf

    return InitResult(
        extrinsics=extrinsics,
        plane=plane,
        cost=evaluator.evaluate_total(extrinsics),
        cheirality=cheirality,
        rms=rms,
        pair_set=pair_set,
        projected=projected,
        residual_px=residual,
    )
