"""Tests for the labeled-data containers and class centroids."""

import numpy as np
import pytest

from semcal.errors import CalibrationError
from semcal.geometry import CameraIntrinsics
from semcal.scene import (
    IGNORE_CLASS,
    FramePair,
    LabelImage,
    LabeledPointCloud,
    centroid_2d,
    centroid_3d,
)


@pytest.fixture
def k():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=2.0, cy=1.5, width=4, height=3)


def make_cloud():
    points = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 2.0]])
    labels = np.array([1, 1, 2, IGNORE_CLASS])
    return LabeledPointCloud(points=points, labels=labels)


def test_cloud_shape_validation():
    with pytest.raises(CalibrationError):
        LabeledPointCloud(points=np.zeros((3, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(CalibrationError):
        LabeledPointCloud(points=np.zeros((3, 3)), labels=np.zeros(4, dtype=int))


def test_cloud_owns_its_points():
    points = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]])
    cloud = LabeledPointCloud(points=points, labels=np.array([1, 2]))
    points[0, 2] = 5.0
    assert cloud.points[0, 2] == 1.0
    assert not np.shares_memory(cloud.points, points)
    assert not cloud.points.flags.writeable


def test_label_image_dimensions():
    img = LabelImage(labels=np.zeros((3, 4), dtype=int))
    assert img.width == 4
    assert img.height == 3
    with pytest.raises(CalibrationError):
        LabelImage(labels=np.zeros((3, 4, 2), dtype=int))


def test_frame_pair_size_mismatch(k):
    cloud = make_cloud()
    with pytest.raises(CalibrationError):
        FramePair(cloud=cloud, image=LabelImage(labels=np.zeros((2, 4), dtype=int)),
                  intrinsics=k, frame_id="f0")


def test_centroid_3d_mean_and_support():
    cloud = make_cloud()
    c = centroid_3d(cloud, 1)
    assert np.allclose(c.position, [1.0, 0.0, 1.0])
    assert c.support == 2
    assert centroid_3d(cloud, 7) is None


def test_centroid_2d_mean_and_support():
    labels = np.zeros((3, 4), dtype=int)
    labels[0, 1] = 5
    labels[2, 3] = 5
    img = LabelImage(labels=labels)
    c = centroid_2d(img, 5)
    # pixel coordinates are (u, v) = (col, row)
    assert np.allclose(c.position, [2.0, 1.0])
    assert c.support == 2
    assert centroid_2d(img, 9) is None


def test_label_image_stores_smallest_unsigned_type():
    assert LabelImage(labels=np.full((2, 2), 255)).labels.dtype == np.uint8
    assert LabelImage(labels=np.full((2, 2), 256)).labels.dtype == np.uint16
    assert LabelImage(labels=np.array([[1.0, 2.0]])).labels.dtype == np.uint8
    source = np.ones((2, 3), dtype=np.uint8)
    img = LabelImage(labels=source)
    source[0, 0] = 9  # the image keeps its own copy
    assert img.labels[0, 0] == 1


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf, -1, -1.0, 2.0**63])
def test_labels_must_be_non_negative_integers(bad):
    with pytest.raises(CalibrationError):
        LabelImage(labels=np.array([[1.0, bad]]))
    with pytest.raises(CalibrationError):
        LabeledPointCloud(points=np.zeros((2, 3)), labels=np.array([1.0, bad]))


def test_centroid_2d_matches_nonzero_means():
    # the count-and-dot centroid equals the mean of the nonzero coordinates
    # bit for bit
    rng = np.random.default_rng(4)
    for _ in range(20):
        h, w = (int(n) for n in rng.integers(1, 300, size=2))
        labels = rng.integers(0, 4, size=(h, w))
        img = LabelImage(labels=labels)
        for cid in (1, 2, 3):
            rows, cols = np.nonzero(labels == cid)
            c = centroid_2d(img, cid)
            if rows.size == 0:
                assert c is None
                continue
            assert c.support == rows.size
            assert c.position.tolist() == [cols.mean(), rows.mean()]
