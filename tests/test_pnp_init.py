"""Tests for the centroid / plane / homography initialization pipeline."""

import warnings

import numpy as np
import pytest

import semcal.pnp_init as pnp_init
from helpers import make_planar_pairs, ransac_plane_loop
from semcal.costfield import CostEvaluator
from semcal.errors import Degenerate, InsufficientPairs, NonPlanar
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.pnp_init import (
    _hypothesis,
    _nearest_rotation,
    _normalization,
    _triples,
    collect_centroid_pairs,
    decompose_planar_pose,
    estimate_homography,
    initialize,
    plane_coordinates,
    ransac_plane,
)
from semcal.scene import FramePair, LabelImage, LabeledPointCloud
from semcal.synth import SceneSpec, generate


def test_collect_pairs_matches_frames_and_classes():
    pairs, _, classes = make_planar_pairs(seed=0, n_frames=4, n_classes=3)
    ps = collect_centroid_pairs(CostEvaluator(pairs, classes))
    assert len(ps) == 12
    assert ps.points_3d.shape == (12, 3)
    assert ps.pixels_2d.shape == (12, 2)
    k = pairs[0].intrinsics
    assert ps.camera.tolist() == [k.fx, k.fy, k.cx, k.cy]
    assert ps.frame_ids == tuple(p.frame_id for p in pairs for _ in classes)
    assert list(ps.class_ids) == list(classes) * 4
    # pixel centroids are the exact integer pixels the fixture picked
    assert np.allclose(ps.pixels_2d, np.round(ps.pixels_2d))
    # one frame of four classes is enough, with the scene's one camera
    one, _, classes = make_planar_pairs(seed=1, n_frames=1, n_classes=4)
    ps = collect_centroid_pairs(CostEvaluator(one, classes))
    assert len(ps) == 4 and ps.camera.tolist() == [k.fx, k.fy, k.cx, k.cy]


def test_collect_pairs_skips_one_sided_classes():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
    cloud = LabeledPointCloud(points=np.zeros((2, 3)), labels=np.array([1, 2]))
    image = np.zeros((48, 64), dtype=int)
    image[5, 5] = 1  # class 2 has points but no pixels
    frames = [FramePair(cloud, LabelImage(labels=image), k, f"f{i}") for i in range(4)]
    with pytest.raises(InsufficientPairs):
        collect_centroid_pairs(CostEvaluator(frames[:1], (1, 2)))
    found = collect_centroid_pairs(CostEvaluator(frames, (1, 2)))
    assert len(found) == 4
    assert list(found.class_ids) == [1] * 4


def test_class_order_changes_no_row_and_no_result():
    # rows come in ascending class order whatever order the classes are
    # given in, so RANSAC draws the same rows and the pose is the same
    pairs = generate(SceneSpec(n_frames=6, noise_rate=0.02, seed=2)).pairs
    ordered, shuffled = CostEvaluator(pairs, (1, 2, 3)), CostEvaluator(pairs, (3, 1, 2))
    a, b = collect_centroid_pairs(ordered), collect_centroid_pairs(shuffled)
    assert a.frame_ids == b.frame_ids
    for name in ("class_ids", "points_3d", "pixels_2d", "camera"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    rows = list(zip(a.frame_ids, a.class_ids.tolist()))  # the frame ids sort in frame order
    assert rows == sorted(rows) and len(rows) > 12
    first, second = initialize(ordered), initialize(shuffled)
    assert first.extrinsics == second.extrinsics
    assert (first.cheirality, first.rms) == (second.cheirality, second.rms)
    assert np.array_equal(first.plane.inliers, second.plane.inliers)
    assert np.array_equal(first.projected, second.projected)
    assert np.array_equal(first.residual_px, second.residual_px)
    # both evaluators hold their points in one block order, so the costs sum alike
    assert first.cost == second.cost


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


def test_hypothesis_needs_a_triple_off_a_line_and_three_inliers():
    """A triple whose cross product is within ``cross_tol`` is collinear, and
    a plane with fewer than 3 points within the threshold is none: both
    give None, which ``ransac_plane``'s bounds alone do not ensure within
    their slack."""
    points = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 0.1]])
    count, rms, normal, offset, inliers = _hypothesis(points, [0, 1, 2], 0.2, 1e-12)
    assert count == 4 and np.array_equal(inliers, np.arange(4)) and offset == 0.0
    assert rms == pytest.approx(0.05) and np.array_equal(np.abs(normal), [0.0, 0.0, 1.0])
    assert _hypothesis(points, [0, 1, 2], 0.2, 1.0) is None  # |cross| = 1
    assert _hypothesis(points, [0, 1, 2], -1.0, 1e-12) is None  # no point within


@pytest.mark.parametrize("n", [4, 5, 7, 40, 120, 10_001, 100_000])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_ransac_triples_are_the_choice_draws(n, seed):
    """One ``integers`` call gives the rows of successive ``choice`` calls;
    a numpy release that changes either stream fails here by name."""
    rng = np.random.default_rng(seed)
    expected = np.array([rng.choice(n, size=3, replace=False) for _ in range(600)])
    assert np.array_equal(_triples(n, 600, seed), expected)


def test_ransac_triples_of_three_points():
    assert _triples(3, 4, 0).tolist() == [[0, 1, 2]] * 4


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


def _ransac_edge_sets():
    """Point sets at the edges of the array pass's bounds."""
    # a triple whose cross product is within the slack of the collinearity
    # tolerance, 1e-12 of the squared spread, on its either side
    off_line = [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1e-12 * (1 + s * 4e-10), 0.0]]
                for s in (1, -1)]
    # z = 0 holds 3 points and 2 more just beyond the threshold, within the
    # slack; x = 100 holds 4 points: the 4 win, as no bound that prunes may
    # count the 2 as inliers
    band = 0.2 + 5e-8
    slack_band = [[0, 0, 0], [40, 0, 0], [0, 40, 0], [10, 10, band], [20, 10, -band],
                  [100, 5, 20], [100, 30, 25], [100, 5, 50], [100, 35, 45]]
    return {
        "slack band": np.array(slack_band, dtype=float),
        "just off a line": np.array(off_line[0]),
        "just on a line": np.array(off_line[1]),
        # a spread of 1e-7 m, where the tolerance's floor of 1e-24 holds
        "tiny, off a line": np.array([[0.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [0.0, 1.5e-17, 0.0]]),
    }


@pytest.mark.parametrize("name", list(_ransac_edge_sets()))
def test_ransac_plane_matches_the_loop_at_the_edges_of_its_bounds(name):
    outcomes = []
    for fit in (ransac_plane, ransac_plane_loop):
        try:
            plane = fit(_ransac_edge_sets()[name], 0.2, 500, 0)
            outcomes.append((plane.inliers.tolist(), plane.normal.tolist(), plane.offset, plane.rms))
        except Degenerate as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


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


def test_ransac_plane_bounds_counts_by_triples_surely_off_a_line():
    """A first draw within the slack of the collinearity tolerance, whose
    plane holds 4 points, sets no lower bound on the count: the genuine
    plane of 3 points drawn second is still rescored and wins, as in the
    loop, where the first draw counts as collinear."""
    # a seed whose second draw shares at most one point with the first
    seed = next(s for s in range(100) if len(set(_triples(6, 2, s).ravel())) > 4)
    first, _ = _triples(6, 2, seed)
    rest = [i for i in range(6) if i not in first]
    points = np.zeros((6, 3))
    points[first[1:]] = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]  # then moved just off the x axis
    points[rest] = [[3.0, 4.0, 0.0], [0.0, 0.0, 7.0], [0.0, 9.0, 9.0]]  # one on z = 0
    scale = float(np.linalg.norm(np.ptp(points, axis=0)))
    points[first[2], 1] = scale * scale * 1e-12 * (1 - 4e-10)  # |cross| just within
    plane = ransac_plane(points, 0.2, 2, seed)
    want = ransac_plane_loop(points, 0.2, 2, seed)
    assert plane.inliers.size == 3
    assert (plane.inliers.tolist(), plane.normal.tolist(), plane.offset, plane.rms) == (
        want.inliers.tolist(), want.normal.tolist(), want.offset, want.rms)


def test_ransac_plane_takes_a_larger_count_drawn_later():
    """In the "slack band" set, the plane z = 0 holds 3 points but bounds 5,
    so it is rescored; at seed 10 it is drawn before the plane x = 100,
    which holds 4, and gives way to it, as in the loop."""
    points = _ransac_edge_sets()["slack band"]
    triples = [set(t) for t in _triples(len(points), 500, 10).tolist()]
    assert triples.index({0, 1, 2}) < min(i for i, t in enumerate(triples) if t <= {5, 6, 7, 8})
    plane, want = ransac_plane(points, 0.2, 500, 10), ransac_plane_loop(points, 0.2, 500, 10)
    assert plane.inliers.tolist() == want.inliers.tolist() == [5, 6, 7, 8]


def test_ransac_plane_defaults_are_500_draws_at_seed_0_within_0_2_m():
    """Every estimate follows these defaults, so the points tell each apart:
    a 4-point plane first drawn at draw 501, and a point 0.3 m off the plane
    of the first draw, change the fit under 501 draws, another seed or a
    wider threshold."""
    n = 30
    triples = _triples(n, 501, 0)
    late = triples[500]
    first = next(t for t in triples.tolist() if not set(t) & set(late.tolist()))
    points = np.random.default_rng(2).uniform(-1e5, 1e5, size=(n, 3))
    (i, j, k), (a, b, c) = late, first
    p, q = [x for x in range(n) if x not in {i, j, k, a, b, c}][:2]
    points[p] = points[i] + 0.3 * (points[j] - points[i]) + 0.4 * (points[k] - points[i])
    normal = np.cross(points[b] - points[a], points[c] - points[a])
    points[q] = (points[a] + 0.2 * (points[b] - points[a]) + 0.3 * (points[c] - points[a])
                 + 0.3 * normal / np.linalg.norm(normal))
    fit = ransac_plane(points).inliers.tolist()
    assert fit == ransac_plane_loop(points, 0.2, 500, 0).inliers.tolist() == sorted(first)
    for args in ((0.2, 501, 0), (0.2, 500, 1), (0.4, 500, 0)):
        assert ransac_plane(points, *args).inliers.tolist() != fit


def test_ransac_plane_of_repeated_points_divides_by_no_zero():
    """Triples of a repeated point have a zero cross product, which the array
    pass leaves undivided: no NaN and no RuntimeWarning."""
    points = _ransac_point_sets()["duplicates"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plane = ransac_plane(points, 0.2, 500, 0)
    assert np.isfinite(plane.normal).all()


def test_ransac_plane_rescores_each_ordered_triple_once(monkeypatch):
    # 6 coplanar points: every triple ties at 6 inliers, and 500 draws from
    # the 120 ordered triples repeat most of them
    rng = np.random.default_rng(2)
    points = np.column_stack([rng.uniform(-3, 3, size=(6, 2)), np.full(6, 4.0)])
    rescored, hypothesis = [], pnp_init._hypothesis

    def counted(points, idx, *args):
        rescored.append(tuple(idx))
        return hypothesis(points, idx, *args)

    monkeypatch.setattr(pnp_init, "_hypothesis", counted)
    plane = ransac_plane(points, 0.2, 500, 0)
    assert len(set(rescored)) == len(rescored) <= 120
    want = ransac_plane_loop(points, 0.2, 500, 0)
    assert (plane.inliers.tolist(), plane.normal.tolist(), plane.offset, plane.rms) == (
        want.inliers.tolist(), want.normal.tolist(), want.offset, want.rms)


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
    coords, origin, basis = plane_coordinates(plane, points)
    # chart is orthonormal and right-handed, its origin on the plane and its
    # last axis the plane normal
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    assert np.linalg.det(basis) == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(basis[:, 2], plane.normal)
    assert origin @ plane.normal == pytest.approx(plane.offset, abs=1e-12)
    residuals = (points - origin) @ plane.normal
    rebuilt = origin + coords @ basis[:, :2].T + residuals[:, None] * plane.normal
    assert np.allclose(rebuilt, points, atol=1e-12)


def test_normalization_is_hartleys_similarity():
    """The DLT's conditioning maps a point set to centroid 0 and mean distance
    sqrt(2) by one scale and shift, with the homogeneous row left as it is
    (Hartley, *In defense of the eight-point algorithm*, 1997)."""
    points = np.random.default_rng(4).uniform(-3.0, 5.0, size=(9, 2))
    t = _normalization(points)
    moved = np.column_stack([points, np.ones(9)]) @ t.T
    assert np.array_equal(moved[:, 2], np.ones(9))
    assert np.allclose(moved[:, :2].mean(axis=0), 0.0, atol=1e-12)
    assert np.linalg.norm(moved[:, :2], axis=1).mean() == pytest.approx(np.sqrt(2.0))
    assert t[0, 0] == t[1, 1] and t[0, 1] == t[1, 0] == 0.0


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
    """Each check names its own fault: the inputs are otherwise generic, so
    no later stage could raise in its place."""
    line = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
    with pytest.raises(Degenerate, match="rank-deficient"):
        estimate_homography(line, line + 1.0)
    # four pairs, three of them on a line or within 1e-9 of it: 8 equations
    # of rank 7, to a tolerance of 1e-10 of the largest singular value;
    # 1e-8 off the line is a homography
    for off in (0.0, 1e-9, 1e-8):
        four = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, off], [0.3, 1.7]])
        if off < 1e-8:
            with pytest.raises(Degenerate, match="rank-deficient"):
                estimate_homography(four, four * [1.5, 0.8] + [0.2, -0.1])
        else:
            estimate_homography(four, four * [1.5, 0.8] + [0.2, -0.1])
    rng = np.random.default_rng(3)
    src = rng.uniform(-2, 2, size=(6, 2))
    with pytest.raises(Degenerate, match="at least 4 correspondences, got 3"):
        estimate_homography(src[:3], src[:3] + 1.0)
    for a, b in ((rng.uniform(size=(5, 3)), rng.uniform(size=(5, 3))), (src[:5], src)):
        with pytest.raises(Degenerate, match=r"both be \(n, 2\)"):
            estimate_homography(a, b)
    same = np.tile([[1.0, 2.0]], (5, 1))
    with pytest.raises(Degenerate, match="coincide"):
        estimate_homography(same, same)


def test_homography_that_sends_the_origin_to_infinity():
    # h[2,2] = 0 fixes no sign, so no pose in front of the camera
    rng = np.random.default_rng(8)
    h_true = np.array([[1.0, 0.1, 0.5], [-0.2, 1.0, 0.2], [0.3, 0.4, 0.0]])
    src = rng.uniform(1, 2, size=(12, 2))
    sh = np.column_stack([src, np.ones(12)]) @ h_true.T
    with pytest.raises(Degenerate, match="infinity"):
        estimate_homography(src, sh[:, :2] / sh[:, 2:3])


def test_decompose_returns_the_pose_in_front():
    pairs, gt, classes = make_planar_pairs(seed=11)
    ps = collect_centroid_pairs(CostEvaluator(pairs, classes))
    pts3d = ps.points_3d
    pix2d = ps.pixels_2d
    k = pairs[0].intrinsics
    plane = ransac_plane(pts3d)
    coords, origin, basis = plane_coordinates(plane, pts3d)
    normalized = np.column_stack(
        [(pix2d[:, 0] - k.cx) / k.fx, (pix2d[:, 1] - k.cy) / k.fy]
    )
    h = estimate_homography(coords, normalized)
    assert h[2, 2] == 1.0
    pose = decompose_planar_pose(h, origin, basis)
    err = np.abs(np.asarray(pose.to_vector()) - np.asarray(gt.to_vector()))
    assert err.max() < 1e-8
    projected, front = ps.project(*pose.matrix())
    assert front.all()
    assert np.abs(projected - pix2d).max() < 1e-6
    # the other sign of h is the mirror image, with every centroid behind
    _, mirror_front = ps.project(*decompose_planar_pose(-h, origin, basis).matrix())
    assert not mirror_front.any()
    with pytest.raises(Degenerate, match="column collapsed"):
        decompose_planar_pose(h * [1.0, 0.0, 1.0], origin, basis)
    # a column collapses below a norm of 1e-12, not at 1.5e-12
    for column, norm in ((0, 0.5e-12), (0, 1.5e-12), (1, 0.5e-12), (1, 1.5e-12)):
        thin = h * np.where(np.arange(3) == column, norm / np.linalg.norm(h[:, column]), 1.0)
        if norm < 1e-12:
            with pytest.raises(Degenerate, match="column collapsed"):
                decompose_planar_pose(thin, origin, basis)
        else:
            decompose_planar_pose(thin, origin, basis)


def test_nearest_rotation_of_a_reflection():
    # for a reflection u @ vt is the reflection itself; flipping one axis
    # gives a rotation as near as any (Frobenius distance 2)
    m = np.diag([1.0, 1.0, -1.0])
    r = _nearest_rotation(m)
    assert np.allclose(r @ r.T, np.eye(3)) and np.linalg.det(r) == pytest.approx(1.0)
    assert np.linalg.norm(r - m) == pytest.approx(2.0)


def test_initialize_exact_on_planar_fixture():
    for seed in (0, 1, 2):
        pairs, gt, classes = make_planar_pairs(seed=seed)
        evaluator = CostEvaluator(pairs, classes)
        result = initialize(evaluator)
        err = np.abs(
            np.asarray(result.extrinsics.to_vector()) - np.asarray(gt.to_vector())
        )
        assert err.max() < 1e-6
        assert result.cheirality == len(result.pair_set)
        assert result.rms < 1e-6
        assert result.cost == evaluator.evaluate_total(result.extrinsics)
        assert result.plane.rms < 1e-9
        assert result.projected.shape == (len(result.pair_set), 2)
        assert result.residual_px.shape == (len(result.pair_set),)
        assert result.residual_px.max() < 1e-6


def test_initialize_residual_is_inf_behind_the_camera():
    """A class centroid that the estimate puts behind the camera has an
    infinite residual, not NaN, and counts in neither ``cheirality`` nor
    ``rms``."""
    pairs, gt, classes = make_planar_pairs(seed=0, n_frames=6)
    r, t = gt.matrix()
    fp = pairs[2]
    points = fp.cloud.points.copy()
    points[1] = r.T @ (np.array([0.0, 0.0, -20.0]) - t)  # class 2, 20 m behind the camera
    pairs[2] = FramePair(LabeledPointCloud(points=points, labels=fp.cloud.labels), fp.image,
                         fp.intrinsics, fp.frame_id)
    result = initialize(CostEvaluator(pairs, classes))
    ps = result.pair_set
    behind = np.array([f == fp.frame_id and c == classes[1]
                       for f, c in zip(ps.frame_ids, ps.class_ids)])
    assert behind.sum() == 1 and result.cheirality == len(ps) - 1
    assert np.all(np.isposinf(result.residual_px[behind]))
    assert np.all(np.isnan(result.projected[behind]))
    front = result.residual_px[~behind]
    assert np.all(np.isfinite(front))
    assert result.rms == pytest.approx(np.sqrt(np.mean(front**2)), rel=1e-12)


def test_initialize_deterministic():
    pairs, _, classes = make_planar_pairs(seed=4)
    evaluator = CostEvaluator(pairs, classes)
    a = initialize(evaluator)
    b = initialize(evaluator)
    assert np.array_equal(a.extrinsics.to_vector(), b.extrinsics.to_vector())
    assert a.cost == b.cost
    assert (a.cheirality, a.rms) == (b.cheirality, b.rms)


def test_initialize_nonplanar_gate():
    pairs, gt, classes = make_planar_pairs(seed=2, n_frames=6)
    r, t = gt.matrix()
    # shrink the layout to under a meter and push alternate centroids 0.15 m
    # off its plane: every centroid stays a RANSAC inlier (0.2 m), but the
    # plane rms exceeds 5% of the centroid spread
    bent = []
    for i, fp in enumerate(pairs):
        pts = 0.05 * fp.cloud.points
        pts[i % 3] += r.T @ np.array([0.0, 0.0, 0.15 if i % 2 else -0.15])
        bent.append(
            FramePair(
                LabeledPointCloud(points=pts, labels=fp.cloud.labels),
                fp.image,
                fp.intrinsics,
                fp.frame_id,
            )
        )
    with pytest.raises(NonPlanar):
        initialize(CostEvaluator(bent, classes))


def test_initialize_insufficient_pairs():
    pairs, _, classes = make_planar_pairs(seed=0, n_frames=1, n_classes=3)
    with pytest.raises(InsufficientPairs):
        initialize(CostEvaluator(pairs, classes))
