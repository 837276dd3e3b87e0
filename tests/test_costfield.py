"""Tests for distance fields and the semantic consistency cost."""

import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import (
    ReferenceEvaluator,
    box_distance,
    brute_distance_grid,
    brute_min_l1,
    class_field,
    expand_field,
    flat_kernel,
    point_cost,
    query_distance,
)
from semcal.costfield import CostEvaluator, _boxes, build_distance_field
from semcal.errors import CalibrationError, ZeroDenominator
from semcal.geometry import (
    EPS_DEPTH,
    CameraIntrinsics,
    Extrinsics,
    RotationAngles,
    Translation,
)
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


def grids(field, shapes, n):
    """Each field as a whole ``(height, width)`` grid, image by image in
    class order, through the clamp-plus-offset of :func:`expand_field`."""
    return [expand_field(field, f, shapes[f // n]) for f in range(len(field.empty))]


def check_boxes(field, stacks, classes):
    """Each box is exactly the bounding box of its class's pixels; an absent
    class has no box; the boxes' cells are disjoint rows of ``stride`` cells
    of an atlas of the widest box width times ``stride`` cells, which is no
    more than the widest box width times the sum of the box heights, and at
    most the widest image width times each image's height per field: one
    image plane per field, the cells of a full-image layout, where every
    image has one size."""
    n = len(classes)
    for f, (u0, v0, u1, v1) in enumerate(field.box):
        labels = stacks[f // n]
        rows, cols = np.nonzero(labels == classes[f % n])
        assert field.empty[f] == (rows.size == 0)
        if rows.size:
            assert (u0, v0, u1, v1) == (cols.min(), rows.min(), cols.max(), rows.max())
    sizes = (field.box[:, 2:] - field.box[:, :2] + 1)[~field.empty]
    widest = sizes[:, 0].max(initial=0)
    assert field.d.size == widest * field.stride <= widest * sizes[:, 1].sum()
    taken = np.zeros(field.d.size, int)
    for (w, h), cell in zip(sizes, field.cell[~field.empty]):
        row, column = divmod(cell, field.stride)
        assert row + w <= widest and column + h <= field.stride
        taken.reshape(widest, -1)[row:row + w, column:column + h] += 1
    assert taken.max(initial=0) <= 1
    widest = max(labels.shape[1] for labels in stacks)
    assert field.d.size <= sum(widest * labels.shape[0] for labels in stacks) * n
    assert field.d.dtype == np.min_scalar_type(max(sum(labels.shape) for labels in stacks) + 1)


def test_distance_field_single_seed():
    labels = np.zeros((5, 7), dtype=int)
    labels[2, 3] = 4
    field = build_distance_field([LabelImage(labels=labels)], (4,))
    expected = np.fromfunction(lambda r, c: np.abs(r - 2) + np.abs(c - 3), (5, 7))
    assert np.array_equal(expand_field(field, 0, (5, 7)), expected)
    # the box is the seed's own pixel, the field's only cell
    assert field.box.tolist() == [[3, 2, 3, 2]] and field.d.size == 1
    assert not field.empty[0]


def check_against_brute_force(labels, classes):
    field = build_distance_field([LabelImage(labels=labels)], classes)
    check_boxes(field, [labels], classes)
    h, w = labels.shape
    for j, (cid, grid) in enumerate(zip(classes, grids(field, [labels.shape], len(classes)))):
        if field.empty[j]:
            assert (grid == h + w).all()
        else:
            assert np.array_equal(grid, brute_distance_grid(labels, cid))


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


def sparse_stack(k, h, w, seed):
    """``k`` background images with a few pixels of classes 1-3 each; class 3
    is absent from the first image."""
    rng = np.random.default_rng(seed)
    stack = np.zeros((k, h, w), np.uint8)
    for i, labels in enumerate(stack):
        cells = rng.choice(h * w, size=15, replace=False)
        labels.flat[cells] = np.repeat((1, 2, 3) if i else (1, 2, 1), 5)
    return list(stack)


def edge_stack():
    """Two images whose classes touch one, two, three or four edges and
    reach within a few lines of each other edge: class 1 the top edge only,
    class 2 the left and bottom edges, class 3 the top, left and right
    edges, class 4 all four; then the same turned."""
    labels = np.zeros((20, 30), np.uint8)
    labels[0, 5:11] = labels[0, 20:25] = labels[3:15, 5] = 1
    labels[4:20, 0] = labels[19, :25] = 2
    labels[2, :] = labels[:14, 15] = 3
    labels[1, 0] = labels[0, 27] = labels[10, 29] = labels[19, 27] = 4
    return [labels, labels.T.copy()]


@st.composite
def mixed_images(draw):
    """1-5 label images of mixed sizes, some with classes in a small patch."""
    images = []
    for _ in range(draw(st.integers(1, 5))):
        h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        labels = np.zeros((h, w), np.uint8)
        ph, pw = draw(st.integers(1, h)), draw(st.integers(1, w))
        v0, u0 = draw(st.integers(0, h - ph)), draw(st.integers(0, w - pw))
        labels[v0:v0 + ph, u0:u0 + pw] = draw(hnp.arrays(np.uint8, (ph, pw),
                                                         elements=st.integers(0, 3)))
        images.append(labels)
    return images


@settings(max_examples=150, deadline=None)
@given(stacks=mixed_images(),
       classes=st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
       queries=hnp.arrays(np.int64, (8, 2), elements=st.integers(-20, 31)))
# 16-bit fields (height + width >= 255) of one size, with widths 0-3 (mod
# 4); then two sizes, whose atlas stacks three boxes under others, 48,708
# cells against 80,256 side by side and 67,200 for one image plane per
# field; then classes touching one, two, three and four image edges; then
# a box stacked under the tail, whose run's scan must start one row above it
@example(stacks=sparse_stack(2, 119, 136, 0), classes=[1, 2, 3], queries=np.zeros((8, 2), int))
@example(stacks=sparse_stack(3, 118, 137, 1), classes=[3, 1, 2], queries=np.zeros((8, 2), int))
@example(stacks=sparse_stack(4, 117, 138, 2), classes=[2, 3, 1], queries=np.zeros((8, 2), int))
@example(stacks=sparse_stack(5, 116, 139, 3), classes=[1, 3, 2], queries=np.zeros((8, 2), int))
@example(stacks=sparse_stack(2, 40, 140, 4) + sparse_stack(2, 140, 40, 5), classes=[1, 2, 3],
         queries=np.array([[-3, 5], [150, 7], [20, -9], [9, 150]] * 2))
@example(stacks=edge_stack(), classes=[1, 2, 3, 4],
         queries=np.array([[-3, 5], [40, 7], [20, -9], [9, 40], [-1, -1], [40, 40], [0, 0],
                           [0, 0]]))
@example(stacks=[np.array([[1, 2, 2, 2, 2, 2]] + [[2] * 6] * 3 + [[1, 2, 2, 2, 2, 2]], np.uint8),
                 np.array([[1, 2, 0, 0, 0, 0, 0]] + [[0] * 7] * 4 + [[0, 0, 0, 1, 0, 0, 0]],
                          np.uint8)],
         classes=[1, 2], queries=np.zeros((8, 2), int))
def test_distance_field_of_several_images_property(stacks, classes, queries):
    check_one_build(stacks, classes, queries)


def check_one_build(stacks, classes, queries):
    """One build over images of mixed sizes, with its shared scans, equals
    one-image builds, the brute-force grids on every cell and the brute-
    force distances at pixels off the image."""
    images = [LabelImage(labels=labels) for labels in stacks]
    field = build_distance_field(images, classes)
    n = len(classes)
    assert field.box.shape == (len(images) * n, 4) and field.empty.shape == (len(images) * n,)
    check_boxes(field, stacks, classes)
    shapes = [labels.shape for labels in stacks]
    for f, grid in enumerate(grids(field, shapes, n)):
        labels, cid = stacks[f // n], classes[f % n]
        one = build_distance_field([images[f // n]], classes)
        assert field.empty[f] == one.empty[f % n]
        assert np.array_equal(grid, expand_field(one, f % n, labels.shape))
        if field.empty[f]:
            continue
        assert np.array_equal(grid, brute_distance_grid(labels, cid))
        h, w = labels.shape
        off = queries[(queries[:, 0] < 0) | (queries[:, 0] >= w)
                      | (queries[:, 1] < 0) | (queries[:, 1] >= h)]
        assert np.array_equal(box_distance(field, f, off[:, 0], off[:, 1]),
                              brute_min_l1(labels, cid, off))
    return field


def test_distance_field_stacks_narrow_boxes_under_the_tail():
    # class 1's box is 48 of 50 pixels wide, and classes 2-4 sit in boxes 3-8
    # wide and 26-30 high: narrow boxes go under the tail of narrow boxes,
    # and their fields still match the brute force on and off the image
    rng = np.random.default_rng(7)
    stacks = []
    for i in range(3):
        labels = np.zeros((30, 50), np.uint8)
        labels[rng.integers(30, size=60), rng.integers(1, 49, size=60)] = 1
        labels[0, 1] = labels[29, 48] = 1
        for cid, u0, w in ((2, 2 + i, 3 + i), (3, 20, 6), (4, 40 - i, 4 + 2 * i)):
            patch = labels[i:30 - i, u0:u0 + w]
            patch[rng.random(patch.shape) < 0.3] = cid
        stacks.append(labels)
    queries = np.array([[-3, 5], [60, 7], [20, -9], [9, 40], [-1, -1], [55, 35], [0, 0]])
    field = check_one_build(stacks, [1, 2, 3, 4], queries)
    assert (field.cell[~field.empty] // field.stride).max() > 0  # a box sits below another
    sizes = (field.box[:, 2:] - field.box[:, :2] + 1)[~field.empty]
    assert field.d.size < 0.7 * sizes[:, 0].max() * sizes[:, 1].sum()  # a third is saved


@pytest.mark.parametrize("boxes, cells", [
    # (u0, v0, width, height) of classes 1-4 in a 12 x 12 image
    (((4, 8, 8, 1), (5, 0, 3, 7), (0, 0, 11, 8), (1, 2, 2, 9)), 187),
    (((9, 0, 2, 1), (2, 5, 6, 1), (0, 0, 5, 5), (7, 6, 2, 1)), 42),
])
def test_distance_field_stacks_a_box_that_just_fits(boxes, cells):
    """A box as wide as the atlas rows from ``low`` on (the first case), or as
    high as the room left under the tail (the second), is stacked there: the
    atlas keeps to ``cells``, and its fields still match the brute force."""
    labels = np.zeros((12, 12), np.uint8)
    for cid, (u0, v0, w, h) in enumerate(boxes, 1):
        labels[v0, u0] = labels[v0 + h - 1, u0 + w - 1] = cid
    field = check_one_build([labels], [1, 2, 3, 4], np.array([[-2, 3], [14, 13]]))
    assert field.d.size == cells


@settings(max_examples=200, deadline=None)
@given(core=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                       elements=st.integers(0, 3)),
       top=st.integers(0, 3), bottom=st.integers(0, 3))
@example(core=np.zeros((4, 5), np.uint8), top=0, bottom=0)  # no label at all
@example(core=np.array([[1, 0, 2], [0, 0, 0], [3, 0, 1]], np.uint8), top=0, bottom=0)
@example(core=np.array([[0, 0, 0], [0, 2, 0], [0, 0, 0]], np.uint8), top=2, bottom=3)
def test_boxes_are_the_nonzero_bounding_boxes(core, top, bottom):
    """``_boxes`` looks for each class only in the band of rows that hold a
    label; its boxes are still those of ``np.nonzero``, with empty rows
    above and below, labels on the first and last row, or none at all."""
    labels = np.pad(core, ((top, bottom), (0, 0)))
    ids = np.arange(1, 5, dtype=np.uint8)  # class 4 is never drawn
    for cid, box in zip(ids, _boxes(labels, ids)):
        rows, cols = np.nonzero(labels == cid)
        if rows.size:
            u0, v0 = int(cols.min()), int(rows.min())
            assert box == (u0, v0, int(cols.max()) - u0 + 1, int(rows.max()) - v0 + 1)
        else:
            assert box is None


def test_distance_field_integer_storage():
    # the type holds the largest width + height + 1, so the scan's far + 1
    # cannot wrap; the farthest cell, corner to corner, is (h - 1) + (w - 1)
    for h, w, dtype in ((5, 7, np.uint8), (127, 127, np.uint8), (127, 128, np.uint16),
                        (200, 300, np.uint16)):
        labels = np.zeros((h, w), dtype=int)
        labels[0, 0] = 1
        field = build_distance_field([LabelImage(labels=labels)], (1,))
        assert field.d.dtype == dtype
        assert expand_field(field, 0, (h, w))[-1, -1] == (h - 1) + (w - 1)


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
    for cid, grid in zip((1, 2), grids(field, [shape], 2)):
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


def test_distance_field_build_memory():
    # one compare buffer of every class serves all the images, and a
    # quarter plane covers the scans' lists of row views and their step
    # rows: 3.16 planes, one below the bound.  Separate per-image bool and
    # typed compare arrays, alive across two images, would peak at 7.5
    # planes here.  On dense labels every box is the whole image, so the
    # atlas holds exactly the cells of a full-image layout
    h, w, classes = 480, 640, (1, 2, 3)
    rng = np.random.default_rng(5)
    images = [LabelImage(labels=rng.integers(0, 4, size=(h, w), dtype=np.uint8))
              for _ in range(4)]
    tracemalloc.start()
    try:
        field = build_distance_field(images, classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = h * w * field.d.itemsize
    assert field.d.dtype == np.uint16
    assert field.d.size == w * len(images) * len(classes) * h
    assert peak - field.d.nbytes <= (len(classes) + 1) * plane + plane // 4


def test_distance_field_of_sparse_images_is_small():
    # on the class boxes of a scene whose objects fill a few percent of each
    # image, the atlas is a small part of a full-image layout, little more
    # than the box cells (1.44 of them; 2.50 with no box stacked under
    # another), and the build holds no more beside it than on dense labels
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    spec = SceneSpec(n_frames=6, objects_per_frame=6, seed=4, intrinsics=k)
    pairs = generate(spec).pairs
    h, w = pairs[0].image.labels.shape
    tracemalloc.start()
    try:
        field = build_distance_field([p.image for p in pairs], spec.classes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = h * w * field.d.itemsize
    assert field.d.size < 0.4 * w * len(pairs) * len(spec.classes) * h
    sizes = (field.box[:, 2:] - field.box[:, :2] + 1)[~field.empty]
    assert field.d.size <= 1.5 * (sizes[:, 0] * sizes[:, 1]).sum()
    assert peak - field.d.nbytes <= (len(spec.classes) + 1) * plane + plane // 4
    for f, grid in enumerate(grids(field, [(h, w)] * len(pairs), len(spec.classes))):
        if not field.empty[f]:
            cid = spec.classes[f % len(spec.classes)]
            labels = pairs[f // len(spec.classes)].image.labels
            assert np.array_equal(grid, brute_distance_grid(labels, cid))


def test_distance_field_bytes_are_the_same_on_every_build():
    # the atlas cells under the narrower boxes are never read, but they are
    # part of d: builds of the same images, each after freeing an array of
    # the atlas's size filled with another value, must give one d
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    spec = SceneSpec(n_frames=6, objects_per_frame=6, seed=4, intrinsics=k)
    images = [p.image for p in generate(spec).pairs]
    field = build_distance_field(images, spec.classes)
    box_cells = sum(int(np.prod(b[2:] - b[:2] + 1)) for b, e in zip(field.box, field.empty)
                    if not e)
    assert field.d.size > box_cells  # the atlas has padding
    builds = set()
    for fill in range(1, 9):
        junk = np.full(field.d.size, fill, field.d.dtype)
        del junk  # its memory goes back to the allocator, holding fill
        builds.add(build_distance_field(images, spec.classes).d.tobytes())
    assert builds == {field.d.tobytes()}


def test_distance_field_empty_class():
    field = build_distance_field([LabelImage(labels=np.zeros((4, 4), dtype=int))], (3,))
    assert field.empty[0]
    assert field.d.size == 0
    assert (expand_field(field, 0, (4, 4)) == 4 + 4).all()


def test_an_absent_class_beside_one_pixel_costs_the_penalty(k):
    """An absent class's points read a placeholder box of one cell and cost
    the flat penalty wherever they project, also where the whole atlas is
    that one cell: the fields of one pixel of one class."""
    labels = np.zeros((12, 16), dtype=int)
    labels[3, 5] = 1
    points = np.array([[0.0, 0.0, 1.0], [0.5, 0.3, 1.0], [-0.5, 0.4, 2.0]])
    pair = FramePair(LabeledPointCloud(points=points, labels=np.array([1, 2, 2])),
                     LabelImage(labels=labels), k, "f0")
    evaluator = CostEvaluator([pair], (1, 2))
    assert evaluator._fields.size == 1
    breakdown = evaluator.evaluate(Extrinsics.identity())
    # (8, 6) is 3 + 3 pixels from (5, 3); the class-2 points land far off the image
    assert breakdown.numerator == pytest.approx(6.0 + (16 + 12) * (1.34 + 4.41))
    assert breakdown.n_empty_field == 2
    assert evaluator.evaluate_total(Extrinsics.identity()) == breakdown.total


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


def test_a_point_at_eps_depth_is_behind_the_camera(k):
    """A point counts as in front only beyond ``EPS_DEPTH``: at exactly that
    depth it pays the behind-camera penalty, also where the nearest depth
    decides that every point is in front."""
    points = np.array([[0.0, 0.0, EPS_DEPTH], [0.0, 0.0, 2.0]])
    pair = FramePair(cloud=LabeledPointCloud(points=points, labels=np.array([1, 1])),
                     image=make_pair(k).image, intrinsics=k, frame_id="f0")
    breakdown = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity())
    assert breakdown.n_behind_camera == 1


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
    with pytest.raises(CalibrationError, match="at least one frame pair"):
        CostEvaluator([], (1,))
    # duplicates are tolerated by de-duplication, not an error
    a = CostEvaluator([pair], (1, 1)).evaluate(Extrinsics.identity())
    b = CostEvaluator([pair], (1,)).evaluate(Extrinsics.identity())
    assert a.total == b.total


def test_duplicate_frame_ids_are_an_error(k):
    # the per-pair breakdown and the centroid rows are keyed by frame id
    pair = make_pair(k)
    with pytest.raises(CalibrationError, match="'f0'"):
        CostEvaluator([pair, pair], (1,))


def test_evaluator_rejects_a_second_camera(k):
    """One pose maps every cloud into one camera, so a frame with other
    intrinsics, even the same camera cropped, is an error that names it."""
    pair = make_pair(k)
    cropped = CameraIntrinsics(k.fx, k.fy, k.cx, k.cy, width=k.width - 2, height=k.height)
    zoomed = CameraIntrinsics(2.0 * k.fx, k.fy, k.cx, k.cy, width=k.width, height=k.height)
    for other in (FramePair(pair.cloud, LabelImage(pair.image.labels[:, :-2]), cropped, "f1"),
                  FramePair(pair.cloud, pair.image, zoomed, "f1")):
        with pytest.raises(CalibrationError, match="frame 'f1' has other intrinsics"):
            CostEvaluator([pair, other, FramePair(pair.cloud, pair.image, k, "f2")], (1, 2))


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


def test_each_pair_has_a_record_of_its_own(k):
    """A pair's record is a CostBreakdown with its own total and no pairs; a
    pair with no point of the classes reads 0.0."""
    scored = make_pair(k)
    bare = FramePair(
        cloud=LabeledPointCloud(points=np.array([[0.0, 0.0, 1.0]]), labels=np.array([2])),
        image=scored.image, intrinsics=k, frame_id="f1",
    )
    breakdown = CostEvaluator([scored, bare], (1,)).evaluate(Extrinsics.identity())
    assert set(breakdown.per_pair) == {"f0", "f1"}
    for record in breakdown.per_pair.values():
        assert type(record) is type(breakdown)
        assert record.per_pair == {}
    f0, f1 = breakdown.per_pair["f0"], breakdown.per_pair["f1"]
    assert f0.denominator == 3
    assert f0.total == f0.numerator / f0.denominator == breakdown.total
    assert (f1.total, f1.numerator, f1.denominator, f1.per_class) == (0.0, 0.0, 0, {1: (0.0, 0)})


def test_evaluate_counts_points_beyond_their_box_against_the_image(k):
    """Points on the image but outside their class's box are inconsistent,
    not off the image, and points off the image are counted as such: the
    box bounds the stored cells, not the image."""
    labels = np.zeros((12, 16), dtype=int)
    labels[5:7, 7:9] = 1  # class 1's box: columns 7-8, rows 5-6
    labels[0, 0] = 2
    # at depth 1 the identity projects (x, y) to pixel (100 x + 8, 100 y + 6)
    pixels = [(0, 0), (15, 11), (3, 6), (8, 0), (12, 10), (7, 5), (8, 6), (-4, 6), (20, 2),
              (8, -3), (8, 14), (-1, -1)]
    points = np.array([[(u - 8) / 100, (v - 6) / 100, 1.0] for u, v in pixels])
    pair = FramePair(LabeledPointCloud(points, np.ones(len(points), int)),
                     LabelImage(labels=labels), k, "f0")
    got = CostEvaluator([pair], (1, 2)).evaluate(Extrinsics.identity())
    want = ReferenceEvaluator([pair], (1, 2)).evaluate(Extrinsics.identity())
    assert (got.n_consistent, got.n_inconsistent, got.n_out_of_image) == (2, 5, 5)
    assert (got.n_consistent, got.n_inconsistent, got.n_out_of_image, got.n_behind_camera,
            got.n_empty_field) == (want.n_consistent, want.n_inconsistent,
                                   want.n_out_of_image, want.n_behind_camera,
                                   want.n_empty_field)
    assert _close(got.numerator, want.numerator)


def _kernel_scene():
    """Pairs that reach every branch of the cost under wide pose errors.

    Frames of two synth scenes seen by one camera; mirrored copies of the
    points that sit behind the camera; class 2 erased from one image so its
    points hit an empty field; 2% label noise so some points land on
    wrong-class pixels.  One frame has no class-1 point and another a single
    class-3 point, so the per-block subtotals meet an empty and a one-row
    block.
    """
    k = CameraIntrinsics(fx=200.0, fy=200.0, cx=80.0, cy=60.0, width=160, height=120)
    pairs = []
    for seed in (5, 6):
        spec = SceneSpec(n_frames=2, objects_per_frame=3, points_per_object=40,
                         noise_rate=0.02, seed=seed, intrinsics=k, depth_range=(3.0, 10.0),
                         lateral_range=(-3.0, 3.0))
        for pair in generate(spec).pairs:
            pairs.append(FramePair(pair.cloud, pair.image, k, f"{seed}_{pair.frame_id}"))
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


def _close(got, want):
    return got == pytest.approx(want, rel=1e-12, abs=0.0)


# whether the evaluator is given its classes out of ascending order
_SHUFFLED = pytest.mark.parametrize("shuffled", [True, False])


@_SHUFFLED
def test_evaluator_matches_block_loop(shuffled):
    pairs = _kernel_scene()
    packed = CostEvaluator(pairs, (3, 1, 2) if shuffled else (1, 2, 3))
    reference = ReferenceEvaluator(pairs, (1, 2, 3))
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


@_SHUFFLED
def test_evaluator_matches_point_cost(shuffled):
    pairs = _kernel_scene()
    classes = (1, 2, 3)
    evaluator = CostEvaluator(pairs, (3, 1, 2) if shuffled else classes)
    fields = [fields_of(pair.image, classes) for pair in pairs]
    for ext in _random_poses(4, seed=1):
        numerator = sum(
            point_cost(p, int(c), ext, pair.intrinsics, fld, image=pair.image)
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


@_SHUFFLED
def test_lean_kernel_matches_flat_kernel_bit_for_bit(shuffled):
    pairs = _kernel_scene()
    lean = CostEvaluator(pairs, (3, 1, 2) if shuffled else (1, 2, 3))
    reference = CostEvaluator(pairs, (1, 2, 3))
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


def _one_camera_scene():
    """Three frames of one small camera, with class 3 erased from the second
    image: every point can be in front of the camera while some field is
    empty."""
    k = CameraIntrinsics(fx=150.0, fy=160.0, cx=60.0, cy=45.0, width=120, height=90)
    spec = SceneSpec(n_frames=3, objects_per_frame=3, points_per_object=30, noise_rate=0.02,
                     seed=4, intrinsics=k, depth_range=(3.0, 9.0), lateral_range=(-2.0, 2.0))
    pairs = list(generate(spec).pairs)
    second = pairs[1]
    pairs[1] = FramePair(second.cloud, LabelImage(np.where(second.image.labels == 3, 0,
                                                           second.image.labels)), k,
                         second.frame_id)
    return pairs


def _moves(start, seed):
    """Poses that move t_x alone, t_y alone, t_z alone, the rotation alone,
    then everything, each a few times; then t_x and t_y in turn, a repeat,
    and a t_z that puts every point behind the camera."""
    rng = np.random.default_rng(seed)
    poses = [start]

    def move(part):
        r, t = poses[-1].rotation, poses[-1].translation
        step = rng.normal(scale=0.3)
        if part == "all":
            return _random_poses(1, seed=int(rng.integers(1000)))[0]
        if part == "r":
            return Extrinsics(RotationAngles(r.theta_x + step / 5, r.theta_y, r.theta_z), t)
        moved = {"t_x": t.t_x, "t_y": t.t_y, "t_z": t.t_z}
        moved["t_" + part] += step
        return Extrinsics(r, Translation(**moved))

    for part in ["x", "y", "z", "r", "all"] * 3 + ["x", "y"] * 4:
        poses += [move(part) for _ in range(3)]
    r, t = poses[-1].rotation, poses[-1].translation
    return poses + [poses[-1], Extrinsics(r, Translation(t.t_x, t.t_y, -50.0)), poses[-1]]


@pytest.mark.parametrize("scene", ["depth mask", "one camera"])
def test_kept_projection_matches_a_fresh_evaluator_bit_for_bit(scene):
    """The kernel scene, with points behind the camera (the depth mask), and
    a small camera with every point in front at some poses (no depth mask);
    an empty field in both, so the penalty mask runs in each."""
    pairs = _kernel_scene() if scene == "depth mask" else _one_camera_scene()
    classes = (1, 2, 3)
    kept = CostEvaluator(pairs, classes)
    assert all(isinstance(x, float) for axis in kept._camera for x in axis)
    assert kept._unfilled is not None
    seen = dict.fromkeys(("n_behind_camera", "n_empty_field", "n_out_of_image"), 0)
    all_in_front = 0
    previous = None
    for i, ext in enumerate(_moves(_random_poses(1, seed=12)[0], seed=13)):
        fresh = CostEvaluator(pairs, classes)
        axes = list(kept._axes)
        if i % 4 == 3:  # evaluate between the kernel calls, on the kept parts
            got, want = kept.evaluate(ext), fresh.evaluate(ext)
            assert got == want
            for name in seen:
                seen[name] += getattr(got, name)
        else:
            got, want, flat = kept._kernel(ext), fresh._kernel(ext), flat_kernel(kept, ext)
            for got_part, want_part, flat_part in zip(got, want, flat):
                assert got_part.dtype == want_part.dtype == flat_part.dtype
                assert np.array_equal(got_part, want_part)
                assert np.array_equal(got_part, flat_part)
            all_in_front += bool(got[1].all())
            assert kept.evaluate_total(ext) == fresh.evaluate_total(ext)
        if previous is not None and previous.rotation == ext.rotation:
            a, b = previous.translation, ext.translation
            # a move of t_x alone keeps the v axis, of t_y alone the u axis
            if (a.t_y, a.t_z) == (b.t_y, b.t_z):
                assert kept._axes[1] is axes[1]
            if (a.t_x, a.t_z) == (b.t_x, b.t_z):
                assert kept._axes[0] is axes[0]
        previous = ext
    # behind the camera, an empty field and off the image all occur
    assert all(seen.values()), seen
    assert all_in_front or scene == "depth mask"


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


def test_evaluator_center_is_the_range_weighted_mean():
    """``center`` weights each scored point by |p|^2; points of other classes
    and of the ignore class do not count."""
    spec = SceneSpec(n_frames=3, objects_per_frame=3, noise_rate=0.1, seed=5)
    pairs = generate(spec).pairs
    classes = (1, 2)
    points = np.concatenate([p.cloud.points[np.isin(p.cloud.labels, classes)] for p in pairs])
    assert len(points) < sum(len(p.cloud.points) for p in pairs)
    weights = np.einsum("ij,ij->i", points, points)
    weighted = CostEvaluator(pairs, classes).center
    assert np.allclose(weighted, weights @ points / weights.sum(), rtol=1e-12, atol=0.0)
    assert not np.allclose(weighted, points.mean(axis=0), rtol=1e-3)
