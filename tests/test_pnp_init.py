"""Tests for the centroid / plane / homography initialization pipeline."""

import numpy as np
import pytest

from helpers import make_planar_pairs, ransac_plane_loop
from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError, Degenerate, InsufficientPairs, NonPlanar
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.io_formats import RunConfig
from semcal.pnp_init import (
    collect_centroid_pairs,
    decompose_planar_pose,
    estimate_homography,
    initialize,
    plane_coordinates,
    ransac_plane,
)
from semcal.scene import FramePair, LabelImage, LabeledPointCloud


def test_collect_pairs_matches_frames_and_classes():
    pairs, _, classes = make_planar_pairs(seed=0, n_frames=4, n_classes=3)
    ps = collect_centroid_pairs(pairs, classes)
    assert len(ps) == 12
    assert ps.points_3d.shape == (12, 3)
    assert ps.pixels_2d.shape == (12, 2)
    assert ps.camera.shape == (12, 4)
    assert ps.frame_ids == tuple(p.frame_id for p in pairs for _ in classes)
    assert list(ps.class_ids) == list(classes) * 4
    # pixel centroids are the exact integer pixels the fixture picked
    assert np.allclose(ps.pixels_2d, np.round(ps.pixels_2d))


def test_collect_pairs_skips_one_sided_classes():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
    cloud = LabeledPointCloud(points=np.zeros((2, 3)), labels=np.array([1, 2]))
    image = np.zeros((48, 64), dtype=int)
    image[5, 5] = 1  # class 2 has points but no pixels
    fp = FramePair(cloud, LabelImage(labels=image), k, "f0")
    with pytest.raises(InsufficientPairs):
        collect_centroid_pairs([fp], (1, 2))
    found = collect_centroid_pairs([fp, fp, fp, fp], (1, 2))
    assert len(found) == 4
    assert list(found.class_ids) == [1] * 4


def test_ransac_plane_exact():
    rng = np.random.default_rng(3)
    coords = rng.uniform(-5, 5, size=(30, 2))
    normal = np.array([0.0, 0.0, 1.0])
    points = np.column_stack([coords, np.full(30, 2.0)])
    plane = ransac_plane(points, threshold=0.1)
    assert np.allclose(np.abs(plane.normal @ normal), 1.0, atol=1e-9)
    assert plane.offset == pytest.approx(2.0, abs=1e-9)
    assert plane.inliers.size == 30
    assert plane.rms < 1e-9


def test_ransac_plane_rejects_outliers():
    rng = np.random.default_rng(4)
    inl = np.column_stack([rng.uniform(-5, 5, size=(20, 2)), np.zeros(20)])
    out = rng.uniform(-5, 5, size=(4, 3)) + np.array([0, 0, 10.0])
    points = np.vstack([inl, out])
    plane = ransac_plane(points, threshold=0.2, seed=1)
    assert set(plane.inliers) == set(range(20))
    assert abs(plane.offset) < 1e-9


def test_ransac_plane_degenerate_inputs():
    with pytest.raises(Degenerate):
        ransac_plane(np.zeros((2, 3)))
    line = np.outer(np.arange(10.0), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(Degenerate):
        ransac_plane(line)


def test_ransac_plane_deterministic():
    rng = np.random.default_rng(5)
    points = rng.uniform(-3, 3, size=(25, 3))
    points[:, 2] = 0.1 * points[:, 0] + rng.normal(0, 0.02, 25)
    a = ransac_plane(points, seed=9)
    b = ransac_plane(points, seed=9)
    assert np.array_equal(a.normal, b.normal)
    assert a.offset == b.offset
    assert np.array_equal(a.inliers, b.inliers)


def _ransac_point_sets():
    """Point sets named for what they put in front of the array scoring."""
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)), -1).reshape(-1, 2)
    line = np.outer(np.arange(6.0), [1.0, 2.0, 3.0])
    noisy = rng.uniform(-5, 5, size=(40, 3))
    noisy[:, 2] = 0.05 * noisy[:, 0] + rng.normal(0, 0.1, 40)
    # points at exactly the threshold and one step of rounding either side
    edge = np.column_stack([rng.uniform(-3, 3, size=(24, 2)),
                            np.repeat([-0.2, 0.2, np.nextafter(0.2, 1), np.nextafter(0.2, 0)], 6)])
    return {
        "n=3": rng.normal(size=(3, 3)),
        "line": line,
        "line plus points": np.vstack([line, rng.normal(size=(3, 3))]),
        "duplicates": np.repeat(rng.normal(size=(5, 3)), 3, axis=0),
        "count ties": np.vstack([np.column_stack([grid, np.zeros(16)]),
                                 np.column_stack([grid, np.full(16, 5.0)])]),
        "noisy": noisy,
        "at the threshold": edge,
        "centroid scale": rng.uniform(-40, 40, size=(120, 3)) * [1.0, 0.02, 1.0] + [0, 1.6, 10],
    }


@pytest.mark.parametrize("name", list(_ransac_point_sets()))
@pytest.mark.parametrize("iterations", [1, 7, 500, 1100])
def test_ransac_plane_matches_the_one_at_a_time_loop(name, iterations):
    def outcome(fit, seed):
        try:
            plane = fit(points, 0.2, iterations, seed)
        except Degenerate as exc:
            return str(exc)
        return plane.inliers.tolist(), plane.normal.tolist(), plane.offset, plane.rms

    points = _ransac_point_sets()[name]
    for seed in (0, 3):
        assert outcome(ransac_plane, seed) == outcome(ransac_plane_loop, seed)


def test_ransac_plane_counts_points_at_the_threshold_like_the_loop():
    # Thresholds equal to the exact distances of the points from the first
    # triples drawn put points right on the threshold of a high-count triple;
    # the array scoring rounds some of those distances the other way.
    rng = np.random.default_rng(5)
    points = rng.uniform(-40, 40, size=(30, 3)) * [1.0, 0.05, 1.0] + [0.0, 1.6, 10.0]

    def outcome(fit, threshold, seed):
        try:
            plane = fit(points, threshold, 40, seed)
        except Degenerate as exc:
            return str(exc)
        return plane.inliers.tolist(), plane.normal.tolist(), plane.offset, plane.rms

    for seed in range(3):
        draws = np.random.default_rng(seed)
        for _ in range(3):
            p0, p1, p2 = points[draws.choice(len(points), size=3, replace=False)]
            normal = np.cross(p1 - p0, p2 - p0)
            normal = normal / np.linalg.norm(normal)
            for threshold in np.abs(points @ normal - float(normal @ p0)):
                if threshold > 0:
                    assert (outcome(ransac_plane, threshold, seed)
                            == outcome(ransac_plane_loop, threshold, seed))


def test_plane_coordinates_reconstruct():
    rng = np.random.default_rng(6)
    points = rng.uniform(-4, 4, size=(15, 3))
    points[:, 2] = 1.5 - 0.2 * points[:, 0] + 0.1 * points[:, 1]
    points += rng.normal(0, 0.01, size=points.shape)
    plane = ransac_plane(points, threshold=0.5)
    coords, frame, residuals = plane_coordinates(plane, points)
    basis = np.stack([frame.axis_a, frame.axis_b, frame.normal], axis=1)
    # chart is orthonormal and right-handed
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    assert np.linalg.det(basis) == pytest.approx(1.0, abs=1e-12)
    rebuilt = (
        frame.origin
        + coords @ np.stack([frame.axis_a, frame.axis_b])
        + residuals[:, None] * frame.normal
    )
    assert np.allclose(rebuilt, points, atol=1e-12)


def test_homography_exact_recovery():
    rng = np.random.default_rng(7)
    h_true = np.eye(3) + rng.uniform(-0.2, 0.2, size=(3, 3))
    h_true /= h_true[2, 2]
    src = rng.uniform(-2, 2, size=(12, 2))
    sh = np.column_stack([src, np.ones(12)]) @ h_true.T
    dst = sh[:, :2] / sh[:, 2:3]
    h = estimate_homography(src, dst)
    assert np.allclose(h, h_true, atol=1e-9)


@pytest.mark.parametrize("n", [4, 5])
def test_homography_from_the_fewest_correspondences(n):
    # 4 pairs give an 8 x 9 system, whose null vector needs the full SVD
    rng = np.random.default_rng(n)
    h_true = np.eye(3) + rng.uniform(-0.2, 0.2, size=(3, 3))
    h_true /= h_true[2, 2]
    src = rng.uniform(-2, 2, size=(n, 2))
    sh = np.column_stack([src, np.ones(n)]) @ h_true.T
    assert np.allclose(estimate_homography(src, sh[:, :2] / sh[:, 2:3]), h_true, atol=1e-9)


def test_homography_degenerate_cases():
    line = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
    with pytest.raises(Degenerate):
        estimate_homography(line, line + 1.0)
    with pytest.raises(Degenerate):
        estimate_homography(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(Degenerate):
        estimate_homography(np.zeros((5, 3)), np.zeros((5, 3)))
    same = np.tile([[1.0, 2.0]], (5, 1))
    with pytest.raises(Degenerate):
        estimate_homography(same, same)


def test_decompose_returns_two_candidates():
    pairs, gt, classes = make_planar_pairs(seed=11)
    ps = collect_centroid_pairs(pairs, classes)
    pts3d = ps.points_3d
    pix2d = ps.pixels_2d
    k = pairs[0].intrinsics
    plane = ransac_plane(pts3d)
    coords, frame, _ = plane_coordinates(plane, pts3d)
    normalized = np.column_stack(
        [(pix2d[:, 0] - k.cx) / k.fx, (pix2d[:, 1] - k.cy) / k.fy]
    )
    h = estimate_homography(coords, normalized)
    candidates = decompose_planar_pose(h, frame, ps)
    assert len(candidates) == 2
    best = min(candidates, key=lambda c: (-c.cheirality, c.rms))
    err = np.abs(np.asarray(best.extrinsics.to_vector()) - np.asarray(gt.to_vector()))
    assert err.max() < 1e-8
    assert best.cheirality == len(ps)
    assert best.rms < 1e-6


def test_initialize_exact_on_planar_fixture():
    for seed in (0, 1, 2):
        pairs, gt, classes = make_planar_pairs(seed=seed)
        result = initialize(CostEvaluator(pairs, classes))
        err = np.abs(
            np.asarray(result.extrinsics.to_vector()) - np.asarray(gt.to_vector())
        )
        assert err.max() < 1e-6
        assert len(result.candidates) == 2
        assert len(result.candidate_costs) == 2
        # ranking puts the full-cheirality candidate first
        assert result.candidates[0].cheirality >= result.candidates[1].cheirality
        assert result.plane.rms < 1e-9
        assert result.projected.shape == (len(result.pair_set), 2)
        assert result.residual_px.shape == (len(result.pair_set),)
        assert result.residual_px.max() < 1e-6


def test_initialize_mixes_cameras():
    # the same plane seen by two cameras that differ only in focal length
    gt = Extrinsics(RotationAngles(0.1, -0.15, 0.05), Translation(0.2, -0.3, 0.1))
    wide = CameraIntrinsics(fx=300.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    first, _, classes = make_planar_pairs(seed=5, gt=gt)
    second, _, _ = make_planar_pairs(seed=5, k=wide, gt=gt)
    second = [FramePair(p.cloud, p.image, p.intrinsics, "wide_" + p.frame_id) for p in second]
    result = initialize(CostEvaluator(first + second, classes))
    err = np.abs(np.asarray(result.extrinsics.to_vector()) - np.asarray(gt.to_vector()))
    assert err.max() < 1e-6
    assert result.candidates[0].rms < 1e-6
    assert result.residual_px.max() < 1e-6


def test_initialize_deterministic():
    pairs, _, classes = make_planar_pairs(seed=4)
    evaluator = CostEvaluator(pairs, classes)
    a = initialize(evaluator)
    b = initialize(evaluator)
    assert np.array_equal(a.extrinsics.to_vector(), b.extrinsics.to_vector())
    assert a.candidate_costs == b.candidate_costs


def test_initialize_nonplanar_gate():
    pairs, gt, classes = make_planar_pairs(seed=2, n_frames=6)
    r, t = gt.matrix()
    # push alternate centroids far off the common plane, in the sensor frame
    bent = []
    for i, fp in enumerate(pairs):
        pts = fp.cloud.points.copy()
        pts[i % 3] += r.T @ np.array([0.0, 0.0, 3.0 if i % 2 else -3.0])
        bent.append(
            FramePair(
                LabeledPointCloud(points=pts, labels=fp.cloud.labels),
                fp.image,
                fp.intrinsics,
                fp.frame_id,
            )
        )
    with pytest.raises(NonPlanar):
        initialize(CostEvaluator(bent, classes), RunConfig(ransac_threshold=5.0))


def test_initialize_insufficient_pairs():
    pairs, _, classes = make_planar_pairs(seed=0, n_frames=1, n_classes=3)
    with pytest.raises(InsufficientPairs):
        initialize(CostEvaluator(pairs, classes))


@pytest.mark.parametrize("bad", [
    {"ransac_threshold": 0.0}, {"ransac_threshold": -1.0},
    {"ransac_threshold": float("nan")}, {"ransac_threshold": float("inf")},
    {"planarity_ratio": 0.0}, {"planarity_ratio": -0.05},
    {"planarity_ratio": float("nan")}, {"planarity_ratio": float("inf")},
    {"ransac_iterations": 0}, {"seed": -1},
])
def test_init_config_validation(bad):
    with pytest.raises(CalibrationError):
        RunConfig(**bad)
