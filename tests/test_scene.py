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
