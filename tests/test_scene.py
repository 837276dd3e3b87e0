"""Tests for the labeled-data containers and the class centroids taken from them."""

import numpy as np
import pytest

from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError
from semcal.geometry import CameraIntrinsics, Extrinsics
from semcal.scene import IGNORE_CLASS, FramePair, LabelImage, LabeledPointCloud


@pytest.fixture
def k():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=2.0, cy=1.5, width=4, height=3)


def centroids(clouds, images, classes):
    """``{(frame index, class id): (mean point, mean pixel)}`` of an evaluator
    over one frame pair per cloud and image."""
    pairs = [FramePair(cloud, img, CameraIntrinsics(100.0, 100.0, 0.0, 0.0, img.width, img.height),
                       f"f{i}") for i, (cloud, img) in enumerate(zip(clouds, images))]
    rows = CostEvaluator(pairs, classes).centroids()
    assert [(i, c) for i, c, _, _ in rows] == sorted((i, c) for i, c, _, _ in rows)
    return {(i, c): (point, pixel) for i, c, point, pixel in rows}


def make_cloud():
    points = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 2.0]])
    labels = np.array([1, 1, 2, IGNORE_CLASS])
    return LabeledPointCloud(points=points, labels=labels)


def test_cloud_shape_validation():
    with pytest.raises(CalibrationError):
        LabeledPointCloud(points=np.zeros((3, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(CalibrationError):
        LabeledPointCloud(points=np.zeros((3, 3)), labels=np.zeros(4, dtype=int))
    with pytest.raises(CalibrationError, match="finite"):
        LabeledPointCloud(points=[[0.0, np.nan, 1.0]], labels=[1])


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


def test_centroid_3d_mean_and_support(k):
    cloud = make_cloud()
    labels = np.zeros((3, 4), dtype=int)
    labels[0, 0], labels[1, 1] = 1, 2
    pair = FramePair(cloud, LabelImage(labels=labels), k, "f0")
    evaluator = CostEvaluator([pair], (7, 2, 1))
    rows = evaluator.centroids()
    assert [(i, c) for i, c, _, _ in rows] == [(0, 1), (0, 2)]  # class 7 has no row
    assert rows[0][2].tolist() == [1.0, 0.0, 1.0]
    assert rows[1][2].tolist() == [0.0, 4.0, 1.0]
    support = evaluator.evaluate(Extrinsics.identity()).per_pair["f0"].per_class
    assert (support[1][1], support[2][1], support[7][1]) == (2, 1, 0)


def test_centroid_2d_mean_and_support():
    labels = np.zeros((3, 4), dtype=int)
    labels[0, 1] = 5
    labels[2, 3] = 5
    labels[1, 0] = 6  # class 6 has pixels but no points, class 9 points but no pixels
    cloud = LabeledPointCloud(points=np.ones((2, 3)), labels=np.array([5, 9]))
    found = centroids([cloud], [LabelImage(labels=labels)], (5, 6, 9))
    # pixel coordinates are (u, v) = (col, row)
    assert list(found) == [(0, 5)]
    assert found[0, 5][1] == (2.0, 1.0)


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
    # the count-and-dot centroid over the class's box equals the mean of the
    # nonzero coordinates bit for bit, and the mean point the mean of the
    # cloud's own points of the class; each evaluator has images of one size
    rng = np.random.default_rng(4)
    for _ in range(5):
        h, w = (int(n) for n in rng.integers(1, 300, size=2))
        clouds, images = [], []
        for _ in range(4):
            labels = np.zeros((h, w), dtype=int)  # classes only in a window, often empty
            v0, v1 = np.sort(rng.integers(0, h + 1, size=2))
            u0, u1 = np.sort(rng.integers(0, w + 1, size=2))
            labels[v0:v1, u0:u1] = rng.integers(0, 4, size=(v1 - v0, u1 - u0))
            images.append(LabelImage(labels=labels))
            n = int(rng.integers(0, 500))
            clouds.append(LabeledPointCloud(points=rng.normal(size=(n, 3)) * 40 + [0, 1.6, 10],
                                            labels=rng.integers(0, 4, size=n)))
        found = centroids(clouds, images, (3, 1, 2))
        expected = 0
        for i, (cloud, img) in enumerate(zip(clouds, images)):
            for cid in (1, 2, 3):
                rows, cols = np.nonzero(img.labels == cid)
                points = cloud.points[cloud.labels == cid]
                if rows.size == 0 or len(points) == 0:
                    assert (i, cid) not in found
                    continue
                expected += 1
                point, pixel = found[i, cid]
                assert point.tolist() == points.mean(axis=0).tolist()
                assert pixel == (cols.mean(), rows.mean())
        assert len(found) == expected > 0


@pytest.mark.parametrize("shape", [(300, 300), (1, 70000), (70000, 1)])
def test_centroid_2d_counts_past_the_narrow_types(shape):
    # 97% of the pixels are class 1, so its counts per column and per row
    # pass uint8 and uint16; the sums must equal the count_nonzero formula
    h, w = shape
    rng = np.random.default_rng(h)
    labels = rng.choice(3, size=shape, p=[0.01, 0.97, 0.02])
    cloud = LabeledPointCloud(points=np.ones((2, 3)), labels=np.array([1, 2]))
    found = centroids([cloud], [LabelImage(labels=labels)], (1, 2))
    for cid in (1, 2):
        mask = labels == cid
        n = np.count_nonzero(mask)
        u = np.count_nonzero(mask, axis=0) @ np.arange(w)
        v = np.count_nonzero(mask, axis=1) @ np.arange(h)
        assert found[0, cid][1] == (u / n, v / n)
