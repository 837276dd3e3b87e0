"""Tests for the centroid / plane / homography initialization pipeline."""

import numpy as np
import pytest

from helpers import make_planar_pairs
from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError, Degenerate, InsufficientPairs, NonPlanar
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.pnp_init import (
    InitConfig,
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
    assert ps.points_3d().shape == (12, 3)
    assert ps.pixels_2d().shape == (12, 2)
    # pixel centroids are the exact integer pixels the fixture picked
    assert np.allclose(ps.pixels_2d(), np.round(ps.pixels_2d()))


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
    assert all(p.class_id == 1 for p in found.pairs)


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
    pts3d = ps.points_3d()
    pix2d = ps.pixels_2d()
    k = ps.pairs[0].intrinsics
    plane = ransac_plane(pts3d)
    coords, frame, _ = plane_coordinates(plane, pts3d)
    normalized = np.column_stack(
        [(pix2d[:, 0] - k.cx) / k.fx, (pix2d[:, 1] - k.cy) / k.fy]
    )
    h = estimate_homography(coords, normalized)
    candidates = decompose_planar_pose(h, frame, k, pts3d, pix2d)
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
        assert len(result.diagnostics) == len(result.pair_set)
        for row in result.diagnostics:
            assert row["residual_px"] < 1e-6


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
        initialize(CostEvaluator(bent, classes), InitConfig(ransac_threshold=5.0))


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
        InitConfig(**bad)
