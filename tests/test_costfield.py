"""Tests for distance fields and the semantic consistency cost."""

import numpy as np
import pytest

from helpers import ReferenceEvaluator, point_cost, query_distance
from semcal.costfield import CostEvaluator, build_distance_field
from semcal.errors import CalibrationError, ZeroDenominator
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.scene import IGNORE_CLASS, FramePair, LabelImage, LabeledPointCloud
from semcal.synth import SceneSpec, generate


def brute_force_distance(labels: np.ndarray, class_id: int) -> np.ndarray:
    """O(W^2 H^2) reference: min L1 distance to any same-class pixel."""
    h, w = labels.shape
    rows, cols = np.nonzero(labels == class_id)
    out = np.full((h, w), np.inf)
    if rows.size == 0:
        return out
    for r in range(h):
        for c in range(w):
            out[r, c] = np.min(np.abs(rows - r) + np.abs(cols - c))
    return out


@pytest.fixture
def k():
    return CameraIntrinsics(fx=100.0, fy=100.0, cx=8.0, cy=6.0, width=16, height=12)


def test_distance_field_single_seed():
    labels = np.zeros((5, 7), dtype=int)
    labels[2, 3] = 4
    field = build_distance_field(LabelImage(labels=labels), 4)
    expected = np.fromfunction(lambda r, c: np.abs(r - 2) + np.abs(c - 3), (5, 7))
    assert np.array_equal(field.d, expected)
    assert not field.empty_class


def test_distance_field_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = int(rng.integers(1, 25))
        w = int(rng.integers(1, 25))
        n_classes = int(rng.integers(1, 5))
        labels = rng.integers(0, n_classes + 1, size=(h, w))
        img = LabelImage(labels=labels)
        for cid in range(1, n_classes + 1):
            field = build_distance_field(img, cid)
            assert np.array_equal(field.d, brute_force_distance(labels, cid))


def test_distance_field_integer_storage():
    # the farthest cell, corner to corner, fits the smallest unsigned type
    # that holds width + height
    for h, w, dtype in ((5, 7, np.uint8), (200, 300, np.uint16)):
        labels = np.zeros((h, w), dtype=int)
        labels[0, 0] = 1
        field = build_distance_field(LabelImage(labels=labels), 1)
        assert field.d.dtype == dtype
        assert field.d[-1, -1] == (h - 1) + (w - 1)


def test_distance_field_empty_class():
    field = build_distance_field(LabelImage(labels=np.zeros((4, 4), dtype=int)), 3)
    assert field.empty_class
    assert np.isinf(field.d).all()


def test_query_distance_out_of_range_matches_brute_force():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=(10, 14))
    img = LabelImage(labels=labels)
    field = build_distance_field(img, 1)
    ref = brute_force_distance(labels, 1)
    rows, cols = np.nonzero(labels == 1)
    for _ in range(200):
        u = int(rng.integers(-30, 44))
        v = int(rng.integers(-25, 35))
        expected = np.min(np.abs(rows - v) + np.abs(cols - u))
        assert query_distance(field, (u, v)) == expected
        # in-range queries agree with the table itself
        if 0 <= u < 14 and 0 <= v < 10:
            assert query_distance(field, (u, v)) == ref[v, u]


def make_pair(k):
    # class 1 occupies a 2x2 block around the principal point
    labels = np.zeros((12, 16), dtype=int)
    labels[5:7, 7:9] = 1
    labels[0, 0] = 2
    cloud = LabeledPointCloud(
        points=np.array([[0.0, 0.0, 1.0], [0.05, 0.0, 1.0], [0.0, 0.0, -1.0]]),
        labels=np.array([1, 1, 1]),
    )
    return FramePair(cloud=cloud, image=LabelImage(labels=labels), intrinsics=k,
                     frame_id="f0")


def fields_of(image, classes):
    return {cid: build_distance_field(image, cid) for cid in classes}


def test_behind_camera_penalty(k):
    # a point behind the camera pays (width + height) times its squared range
    pair = FramePair(
        cloud=LabeledPointCloud(points=np.array([[0.0, 1.0, -2.0]]), labels=np.array([1])),
        image=make_pair(k).image, intrinsics=k, frame_id="f0",
    )
    breakdown = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity())
    assert breakdown.n_behind_camera == 1
    assert breakdown.numerator == (16 + 12) * 5.0


def test_point_cost_branches(k):
    pair = make_pair(k)
    fields = fields_of(pair.image, (1, 2))
    ident = Extrinsics.identity()
    # lands on its own class: zero
    assert point_cost([0.0, 0.0, 1.0], 1, ident, k, fields) == 0.0
    # lands at u=13, 5 px right of the nearest class-1 column, times |p|^2
    cost = point_cost([0.05, 0.0, 1.0], 1, ident, k, fields)
    assert cost == pytest.approx(5 * (0.05**2 + 1.0))
    # behind camera: fixed penalty scaled by squared range
    assert point_cost([0.0, 0.0, -1.0], 1, ident, k, fields) == (16 + 12) * 1.0
    # class with no pixels anywhere: same penalty
    fields3 = fields_of(pair.image, (3,))
    assert point_cost([0.0, 0.0, 1.0], 3, ident, k, fields3) == (16 + 12) * 1.0


def test_point_cost_out_of_image(k):
    pair = make_pair(k)
    fields = fields_of(pair.image, (1,))
    # projects far left of the image; cost is clamped distance times |p|^2
    p = [-1.0, 0.0, 1.0]
    cost = point_cost(p, 1, Extrinsics.identity(), k, fields)
    u = round(100 * -1.0 + 8)  # -92
    expected = query_distance(fields[1], (u, 6)) * (1.0 + 1.0)
    assert cost == expected
    assert cost > 0


def test_point_cost_range_weighting_off(k):
    pair = make_pair(k)
    fields = fields_of(pair.image, (1,))
    cost = point_cost([0.05, 0.0, 1.0], 1, Extrinsics.identity(), k, fields,
                      range_weighting=False)
    assert cost == pytest.approx(5.0)


def test_pair_cost_normalizes_by_class_count(k):
    pair = make_pair(k)
    # two class-1 points in front, one behind; denominator counts all three
    breakdown = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity()).per_pair["f0"]
    per_point = [0.0, 5 * (0.05**2 + 1.0), (16 + 12) * 1.0]
    assert breakdown.denominator == 3
    assert breakdown.numerator == pytest.approx(sum(per_point))


def test_pair_cost_zero_denominator(k):
    labels = np.zeros((12, 16), dtype=int)
    labels[0, 0] = 2
    pair = FramePair(
        cloud=LabeledPointCloud(points=np.array([[0.0, 0.0, 1.0]]), labels=np.array([1])),
        image=LabelImage(labels=labels), intrinsics=k, frame_id="f0",
    )
    with pytest.raises(ZeroDenominator):
        CostEvaluator([pair], (2,)).evaluate(Extrinsics.identity())


def test_class_list_validation(k):
    pair = make_pair(k)
    with pytest.raises(CalibrationError):
        CostEvaluator([pair], ())
    with pytest.raises(CalibrationError):
        CostEvaluator([pair], (1, IGNORE_CLASS))
    # duplicates are tolerated by de-duplication, not an error
    a = CostEvaluator([pair], (1, 1)).evaluate(Extrinsics.identity())
    b = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity())
    assert a.total == b.total


def test_total_cost_matches_evaluator(k):
    pair = make_pair(k)
    ext = Extrinsics(RotationAngles(0.01, -0.02, 0.005), Translation(0.01, 0.0, -0.02))
    evaluator = CostEvaluator([pair], (1,))
    breakdown = evaluator.evaluate(ext)
    assert evaluator.evaluate_total(ext) == breakdown.total
    assert breakdown.denominator == 3
    assert set(breakdown.per_pair) == {"f0"}


def test_evaluator_deterministic_bits(k):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, size=(12, 16))
    cloud = LabeledPointCloud(points=rng.normal(size=(60, 3)) + [0, 0, 3],
                              labels=rng.integers(1, 4, size=60))
    pair = FramePair(cloud=cloud, image=LabelImage(labels=labels), intrinsics=k,
                     frame_id="f0")
    ext = Extrinsics(RotationAngles(0.1, 0.02, -0.03), Translation(0.05, -0.01, 0.0))
    a = CostEvaluator([pair], (1, 2, 3)).evaluate_total(ext)
    b = CostEvaluator([pair], (1, 2, 3)).evaluate_total(ext)
    assert a == b


def test_evaluator_zero_denominator_at_construction(k):
    labels = np.zeros((12, 16), dtype=int)
    labels[3, 3] = 1
    pair = FramePair(
        cloud=LabeledPointCloud(points=np.array([[0.0, 0.0, 2.0]]), labels=np.array([2])),
        image=LabelImage(labels=labels), intrinsics=k, frame_id="f0",
    )
    with pytest.raises(ZeroDenominator):
        CostEvaluator([pair], (1,))


def test_evaluator_breakdown_counts(k):
    pair = make_pair(k)
    breakdown = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity())
    assert breakdown.n_consistent == 1
    assert breakdown.n_inconsistent == 1
    assert breakdown.n_behind_camera == 1
    assert breakdown.per_pair["f0"].denominator == 3


def _kernel_scene():
    """Pairs that reach every branch of the cost under wide pose errors.

    Two frame sizes; mirrored copies of the points that sit behind the
    camera; class 2 erased from one image so its points hit an empty field;
    2% label noise so some points land on wrong-class pixels.  One frame
    has no class-1 point and another a single class-3 point: a one-row
    block takes a different matrix-product path than longer blocks.
    """
    k_a = CameraIntrinsics(fx=200.0, fy=200.0, cx=80.0, cy=60.0, width=160, height=120)
    k_b = CameraIntrinsics(fx=90.0, fy=100.0, cx=47.5, cy=31.0, width=96, height=64)
    pairs = []
    for k, seed in ((k_a, 5), (k_b, 6)):
        spec = SceneSpec(n_frames=2, objects_per_frame=3, points_per_object=40,
                         noise_rate=0.02, seed=seed, intrinsics=k, depth_range=(3.0, 10.0),
                         lateral_range=(-3.0, 3.0))
        for pair in generate(spec).pairs:
            pairs.append(FramePair(pair.cloud, pair.image, k, f"{k.width}_{pair.frame_id}"))
    first = pairs[0]
    pairs[0] = FramePair(first.cloud, LabelImage(np.where(first.image.labels == 2, 0,
                                                          first.image.labels)),
                         first.intrinsics, first.frame_id)
    second = pairs[1]
    mirrored = second.cloud.points[::3] * [1.0, 1.0, -1.0]
    cloud = LabeledPointCloud(np.vstack([second.cloud.points, mirrored]),
                              np.concatenate([second.cloud.labels, second.cloud.labels[::3]]))
    pairs[1] = FramePair(cloud, second.image, second.intrinsics, second.frame_id)
    for i, cid, keep in ((2, 1, 0), (3, 3, 1)):
        pair = pairs[i]
        labels = pair.cloud.labels.copy()
        labels[np.flatnonzero(labels == cid)[keep:]] = IGNORE_CLASS
        pairs[i] = FramePair(LabeledPointCloud(pair.cloud.points, labels), pair.image,
                             pair.intrinsics, pair.frame_id)
    return pairs


def _random_poses(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Extrinsics(RotationAngles(*rng.normal(scale=0.15, size=3)),
                   Translation(*rng.normal(scale=0.6, size=3)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("range_weighting", [True, False])
def test_evaluator_bit_identical_to_block_loop(range_weighting):
    pairs = _kernel_scene()
    classes = (1, 2, 3)
    packed = CostEvaluator(pairs, classes, range_weighting=range_weighting)
    reference = ReferenceEvaluator(pairs, classes, range_weighting=range_weighting)
    seen = dict.fromkeys(("n_consistent", "n_inconsistent", "n_behind_camera",
                          "n_out_of_image", "n_empty_field"), 0)
    for ext in _random_poses(200):
        assert packed.evaluate_total(ext) == reference.evaluate_total(ext)
        got, want = packed.evaluate(ext), reference.evaluate(ext)
        assert got.total == want.total == packed.evaluate_total(ext)
        assert got.per_class == want.per_class
        assert got.per_pair == want.per_pair
        for name in seen:
            assert getattr(got, name) == getattr(want, name)
            seen[name] += getattr(got, name)
    # the poses reach every branch of the cost
    assert all(seen.values()), seen


@pytest.mark.parametrize("range_weighting", [True, False])
def test_evaluator_matches_point_cost(range_weighting):
    pairs = _kernel_scene()
    classes = (1, 2, 3)
    evaluator = CostEvaluator(pairs, classes, range_weighting=range_weighting)
    fields = [fields_of(pair.image, classes) for pair in pairs]
    for ext in _random_poses(4, seed=1):
        numerator = sum(
            point_cost(p, int(c), ext, pair.intrinsics, fld, image=pair.image,
                       range_weighting=range_weighting)
            for pair, fld in zip(pairs, fields)
            for p, c in zip(pair.cloud.points, pair.cloud.labels)
            if c in classes
        )
        assert evaluator.evaluate_total(ext) == pytest.approx(
            numerator / evaluator.denominator, rel=1e-12)
