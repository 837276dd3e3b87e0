"""Tests for distance fields and the semantic consistency cost."""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    ReferenceEvaluator,
    brute_distance_grid,
    class_field,
    flat_kernel,
    point_cost,
    query_distance,
)
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


def planes(field):
    """Each class's distances as a ``(height, width)`` grid, in class order."""
    return [field.d[:, j].T for j in range(field.d.shape[1])]


def test_distance_field_single_seed():
    labels = np.zeros((5, 7), dtype=int)
    labels[2, 3] = 4
    field = build_distance_field([LabelImage(labels=labels)], (4,))
    expected = np.fromfunction(lambda r, c: np.abs(r - 2) + np.abs(c - 3), (5, 7))
    assert np.array_equal(planes(field)[0], expected)
    assert field.d.shape == (7, 1, 5) and not field.empty[0]


def check_against_brute_force(labels, classes):
    field = build_distance_field([LabelImage(labels=labels)], classes)
    h, w = labels.shape
    assert field.d.shape == (w, len(classes), h)
    for j, (cid, grid) in enumerate(zip(classes, planes(field))):
        present = (labels == cid).any()
        assert field.empty[j] == (not present)
        if present:
            assert np.array_equal(grid, brute_distance_grid(labels, cid))
        else:
            assert (grid == h + w).all()


def test_distance_field_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = int(rng.integers(1, 25))
        w = int(rng.integers(1, 25))
        n_classes = int(rng.integers(1, 5))
        labels = rng.integers(0, n_classes + 1, size=(h, w))
        # one class more than the image holds, so at least one is absent
        classes = tuple(int(c) for c in rng.permutation(np.arange(1, n_classes + 2)))
        check_against_brute_force(labels, classes)


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (7, 5)])
def test_distance_field_single_pixel_and_thin_images(shape):
    h, w = shape
    rng = np.random.default_rng(h * 100 + w)
    labels = np.zeros(shape, dtype=int)
    labels[rng.integers(h), rng.integers(w)] = 1  # one pixel of class 1
    labels.flat[rng.choice(h * w, size=(h * w) // 3)] = 2
    # 300 does not fit the image's uint8 labels, so it is absent
    check_against_brute_force(labels, (1, 2, 300))


@settings(max_examples=200, deadline=None)
@given(
    labels=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                      elements=st.integers(0, 3)),
    classes=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
)
def test_distance_field_property(labels, classes):
    check_against_brute_force(labels, tuple(classes))


@settings(max_examples=100, deadline=None)
@given(
    stack=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=3, max_dims=3, max_side=9),
                     elements=st.integers(0, 3)),
    classes=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
)
def test_distance_field_of_several_images_property(stack, classes):
    # one build over k same-size images, with its shared width scan, equals
    # k one-image builds and the brute-force grids
    images = [LabelImage(labels=labels) for labels in stack]
    field = build_distance_field(images, classes)
    k, h, w = stack.shape
    n = len(classes)
    assert field.d.shape == (w, k * n, h) and field.empty.shape == (k * n,)
    for i, image in enumerate(images):
        one = build_distance_field([image], classes)
        assert np.array_equal(field.d[:, i * n:(i + 1) * n], one.d)
        assert np.array_equal(field.empty[i * n:(i + 1) * n], one.empty)
        for j, cid in enumerate(classes):
            if not one.empty[j]:
                assert np.array_equal(field.d[:, i * n + j].T, brute_distance_grid(stack[i], cid))


def test_distance_field_integer_storage():
    # the type holds width + height + 1, so the scan's far + 1 cannot wrap;
    # the farthest cell, corner to corner, is (h - 1) + (w - 1)
    for h, w, dtype in ((5, 7, np.uint8), (127, 127, np.uint8), (127, 128, np.uint16),
                        (200, 300, np.uint16)):
        labels = np.zeros((h, w), dtype=int)
        labels[0, 0] = 1
        field = build_distance_field([LabelImage(labels=labels)], (1,))
        assert field.d.dtype == dtype
        assert field.d[-1, 0, -1] == (h - 1) + (w - 1)


@pytest.mark.parametrize("length", [16382, 16400])
@pytest.mark.parametrize("axis", [0, 1])
def test_distance_field_long_images(length, axis):
    # 1xN and Nx1 images: seeds at one end and in the middle put distances
    # near width + height in both scan directions.
    shape = (length, 1) if axis == 0 else (1, length)
    labels = np.zeros(length, dtype=int)
    labels[[0, length // 2 + 7]] = 1
    labels[length // 3] = 2
    labels = labels.reshape(shape)
    field = build_distance_field([LabelImage(labels=labels)], (1, 2))
    assert field.d.dtype == np.uint16
    for cid, grid in zip((1, 2), planes(field)):
        assert np.array_equal(grid, brute_distance_grid(labels, cid))


@pytest.mark.parametrize("shape", [(1, 65534), (65534, 1)])
def test_distance_field_far_plus_one_exceeds_uint16(shape):
    # width + height = 65535 fits uint16, but the scan's far + 1 does not:
    # in uint16 it would wrap to 0 and reach every cell of an absent class
    labels = np.zeros(shape, dtype=int)
    labels.flat[[0, 40000]] = 1
    labels.flat[-1] = 2
    check_against_brute_force(labels, (1, 2, 3))
    assert build_distance_field([LabelImage(labels=labels)], (1,)).d.dtype == np.uint32


def test_distance_field_empty_class():
    field = build_distance_field([LabelImage(labels=np.zeros((4, 4), dtype=int))], (3,))
    assert field.empty[0]
    assert (field.d == 4 + 4).all()


def test_query_distance_out_of_range_matches_brute_force():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=(10, 14))
    img = LabelImage(labels=labels)
    field = class_field(img, 1)
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
    return {cid: class_field(image, cid) for cid in classes}


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
    has no class-1 point and another a single class-3 point, so the
    per-block subtotals meet an empty and a one-row block.
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


def _two_size_scene():
    """A clean 6-frame synth scene with frames 1, 3 and 4 cropped to a second
    image size, so the evaluator builds two groups of fields whose frames
    interleave in pair order.  Points that leave the crop at the truth, or
    come within a pixel of its edge, are dropped: every remaining point
    lands on its own class at the truth."""
    gt = Extrinsics(RotationAngles(0.02, -0.03, 0.05), Translation(0.2, -0.1, 0.1))
    spec = SceneSpec(n_frames=6, objects_per_frame=4, points_per_object=40, seed=3,
                     extrinsics=gt, depth_range=(3.0, 12.0))
    k = spec.intrinsics
    small = CameraIntrinsics(k.fx, k.fy, k.cx, k.cy, width=k.width - 170, height=k.height - 110)
    r, t = gt.matrix()
    pairs = []
    for i, pair in enumerate(generate(spec).pairs):
        if i in (1, 3, 4):
            x, y, z = r @ pair.cloud.points.T + t[:, None]
            keep = ((k.fx * x / z + k.cx < small.width - 1.5)
                    & (k.fy * y / z + k.cy < small.height - 1.5))
            pair = FramePair(
                LabeledPointCloud(pair.cloud.points[keep], pair.cloud.labels[keep]),
                LabelImage(pair.image.labels[:small.height, :small.width]), small,
                pair.frame_id)
        pairs.append(pair)
    return pairs, gt, spec.classes


def test_evaluator_with_two_image_sizes():
    pairs, gt, classes = _two_size_scene()
    assert len({(p.image.width, p.image.height) for p in pairs}) == 2
    assert all(len(p.cloud) for p in pairs)
    lean = CostEvaluator(pairs, classes)
    flat = CostEvaluator(pairs, classes)
    flat._kernel = lambda ext: flat_kernel(flat, ext)
    reference = ReferenceEvaluator(pairs, classes)
    assert lean.evaluate_total(gt) == 0.0
    far = Extrinsics(RotationAngles(0.0, 2.6, 0.0), Translation(0.0, 0.0, 0.0))
    seen = dict.fromkeys(("n_behind_camera", "n_out_of_image"), 0)
    for ext in [gt, far, *_random_poses(60, seed=8)]:
        want = flat.evaluate(ext)
        assert lean.evaluate_total(ext) == want.total
        assert lean.evaluate(ext) == want
        ref = reference.evaluate(ext)
        assert _close(want.total, ref.total)
        for frame_id, w in ref.per_pair.items():
            g = want.per_pair[frame_id]
            assert _close(g.numerator, w.numerator)
            assert (g.n_consistent, g.n_inconsistent, g.n_behind_camera, g.n_out_of_image) == (
                w.n_consistent, w.n_inconsistent, w.n_behind_camera, w.n_out_of_image)
        for name in seen:
            seen[name] += getattr(want, name)
    # the poses reach behind-camera and off-image points
    assert all(seen.values()), seen


def _random_poses(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Extrinsics(RotationAngles(*rng.normal(scale=0.15, size=3)),
                   Translation(*rng.normal(scale=0.6, size=3)))
        for _ in range(n)
    ]


def _close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("range_weighting", [True, False])
def test_evaluator_matches_block_loop(range_weighting):
    pairs = _kernel_scene()
    classes = (1, 2, 3)
    packed = CostEvaluator(pairs, classes, range_weighting=range_weighting)
    reference = ReferenceEvaluator(pairs, classes, range_weighting=range_weighting)
    seen = dict.fromkeys(("n_consistent", "n_inconsistent", "n_behind_camera",
                          "n_out_of_image", "n_empty_field"), 0)
    for ext in _random_poses(200):
        total = packed.evaluate_total(ext)
        assert _close(total, reference.evaluate_total(ext))
        got, want = packed.evaluate(ext), reference.evaluate(ext)
        assert got.total == total
        assert _close(got.total, want.total)
        assert _close(got.numerator, want.numerator)
        assert got.denominator == want.denominator
        for cid, (num, den) in want.per_class.items():
            assert _close(got.per_class[cid][0], num)
            assert got.per_class[cid][1] == den
        assert got.per_pair.keys() == want.per_pair.keys()
        for frame_id, w in want.per_pair.items():
            g = got.per_pair[frame_id]
            assert _close(g.numerator, w.numerator)
            assert g.denominator == w.denominator
            for cid, (num, den) in w.per_class.items():
                assert _close(g.per_class[cid][0], num)
                assert g.per_class[cid][1] == den
            for name in seen:
                assert getattr(g, name) == getattr(w, name)
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


def _lean_loop_poses():
    """Poses in the orders an optimizer sends them: translation-only
    stretches, two rotations in alternation, then fresh rotations."""
    base = _random_poses(6, seed=3)
    rng = np.random.default_rng(4)

    def moved(ext):
        return Extrinsics(ext.rotation, Translation(*rng.normal(scale=0.6, size=3)))

    stretches = [moved(ext) for ext in base[:2] for _ in range(5)]
    alternating = [moved(base[2 + i % 2]) for i in range(8)]
    return stretches + alternating + base[4:]


@pytest.mark.parametrize("range_weighting", [True, False])
def test_lean_kernel_matches_flat_kernel_bit_for_bit(range_weighting):
    pairs = _kernel_scene()
    classes = (1, 2, 3)
    lean = CostEvaluator(pairs, classes, range_weighting=range_weighting)
    reference = CostEvaluator(pairs, classes, range_weighting=range_weighting)
    reference._kernel = lambda ext: flat_kernel(reference, ext)
    seen = dict.fromkeys(("n_behind_camera", "n_out_of_image", "n_empty_field"), 0)
    for ext in _lean_loop_poses():
        want = reference.evaluate(ext)
        assert lean.evaluate_total(ext) == want.total
        # evaluate right after evaluate_total reuses the cached rotation
        assert lean.evaluate(ext) == want
        for got_part, want_part in zip(lean._kernel(ext), flat_kernel(lean, ext)):
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)
        for name in seen:
            seen[name] += getattr(want, name)
    # the poses reach behind-camera, off-image and empty-class points
    assert all(seen.values()), seen


def test_lean_kernel_rounds_half_pixel_ties_like_the_flat_kernel():
    """Points whose projections sit on or one ulp beside half-pixel ties
    round the same way only if the projection repeats the flat kernel's
    IEEE operations in its order."""
    k = CameraIntrinsics(fx=200.0, fy=200.0, cx=80.0, cy=60.0, width=160, height=120)
    z = 3.0
    tie = z * (np.arange(-40, 40) + 0.5) / k.fx
    ulps = np.arange(-4, 5)
    x = (tie[:, None] + ulps * np.spacing(tie)[:, None]).ravel()
    points = np.column_stack([x, x[::-1], np.full(x.size, z)])  # ties in u and in v
    assert np.any((k.fx * x / z + k.cx) % 1.0 == 0.5)  # exact ties are present
    rng = np.random.default_rng(7)
    pair = FramePair(LabeledPointCloud(points, np.ones(x.size, int)),
                     LabelImage(rng.integers(0, 3, size=(k.height, k.width))), k, "ties")
    lean = CostEvaluator([pair], (1, 2))
    # the identity and a pure z shift keep x, y and z exact
    for ext in (Extrinsics.identity(),
                Extrinsics(RotationAngles(0.0, 0.0, 0.0), Translation(0.0, 0.0, 1.0))):
        for got, want in zip(lean._kernel(ext), flat_kernel(lean, ext)):
            assert np.array_equal(got, want)
