"""Tests for the synthetic scene generator used as the verification oracle."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import splat_reference
from semcal.costfield import CostEvaluator
from semcal.errors import CalibrationError, EmptyScene
from semcal.geometry import EPS_DEPTH, CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.scene import IGNORE_CLASS
from semcal.synth import SceneSpec, generate, perturb, rasterize


GT = Extrinsics(RotationAngles(0.03, -0.05, 0.08), Translation(0.2, -0.1, 0.15))


def small_spec(**overrides):
    base = dict(n_frames=3, objects_per_frame=3, points_per_object=60,
                extrinsics=GT, seed=5)
    base.update(overrides)
    return SceneSpec(**base)


def test_spec_validation():
    with pytest.raises(CalibrationError):
        SceneSpec(n_frames=0)
    with pytest.raises(CalibrationError):
        SceneSpec(classes=())
    with pytest.raises(CalibrationError):
        SceneSpec(classes=(1, IGNORE_CLASS))
    with pytest.raises(CalibrationError):
        SceneSpec(depth_range=(5.0, 2.0))
    with pytest.raises(CalibrationError):
        SceneSpec(depth_range=(-1.0, 2.0))
    with pytest.raises(CalibrationError):
        SceneSpec(size_range=(0.0, 1.0))
    with pytest.raises(CalibrationError):
        SceneSpec(noise_rate=1.5)
    with pytest.raises(CalibrationError):
        SceneSpec(noise_rate=-0.1)
    with pytest.raises(CalibrationError):
        SceneSpec(seed=-1)
    with pytest.raises(CalibrationError):
        SceneSpec(dilation=-1)
    with pytest.raises(CalibrationError, match="ground_y"):
        SceneSpec(ground_y=float("nan"))


def test_generate_structure():
    spec = small_spec()
    scene = generate(spec)
    assert len(scene.pairs) == 3
    assert [p.frame_id for p in scene.pairs] == ["frame_0000", "frame_0001", "frame_0002"]
    assert scene.extrinsics is spec.extrinsics
    assert scene.noise_flips == [0, 0, 0]
    for pair in scene.pairs:
        # the class cycle keeps every class in every frame
        assert set(spec.classes) <= set(np.unique(pair.cloud.labels))
        assert set(np.unique(pair.image.labels)) <= set(spec.classes) | {IGNORE_CLASS}


def test_generate_deterministic():
    a = generate(small_spec())
    b = generate(small_spec())
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.cloud.points, pb.cloud.points)
        assert np.array_equal(pa.cloud.labels, pb.cloud.labels)
        assert np.array_equal(pa.image.labels, pb.image.labels)
    c = generate(small_spec(seed=6))
    assert not np.array_equal(a.pairs[0].cloud.points, c.pairs[0].cloud.points)


def test_cost_is_zero_at_ground_truth():
    scene = generate(small_spec())
    evaluator = CostEvaluator(scene.pairs, scene.spec.classes)
    assert evaluator.evaluate_total(GT) == 0.0
    # and strictly positive a little away from it
    nearby = perturb(GT, np.deg2rad(1.0), 0.1, seed=1)
    assert evaluator.evaluate_total(nearby) > 0.0


def test_rasterize_nearest_wins():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=8.0, cy=6.0, width=16, height=12)
    pts = np.array([[0.0, 0.0, 4.0], [0.0, 0.0, 2.0]])
    img = rasterize(pts, np.array([1, 2]), k, dilation=0)
    assert img.labels[6, 8] == 2
    # depth tie: earlier input wins
    img = rasterize(np.array([[0.0, 0.0, 3.0]] * 2), np.array([4, 5]), k, dilation=0)
    assert img.labels[6, 8] == 4


def test_rasterize_dilation_footprint():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=8.0, cy=6.0, width=16, height=12)
    img = rasterize(np.array([[0.0, 0.0, 5.0]]), np.array([3]), k, dilation=2)
    assert int((img.labels == 3).sum()) == 25
    ys, xs = np.nonzero(img.labels)
    assert ys.min() == 4 and ys.max() == 8 and xs.min() == 6 and xs.max() == 10


def test_rasterize_drops_behind_and_off_image():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=8.0, cy=6.0, width=16, height=12)
    pts = np.array([[0.0, 0.0, -3.0], [50.0, 0.0, 2.0]])
    img = rasterize(pts, np.array([1, 2]), k, dilation=1)
    assert not img.labels.any()


_SPLAT_K = CameraIntrinsics(fx=20.0, fy=20.0, cx=8.0, cy=6.0, width=16, height=12)
_COORD = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e300, -1e300]))
_DEPTH = st.one_of(st.floats(-1.0, 6.0),
                   st.sampled_from([0.0, EPS_DEPTH, -EPS_DEPTH, 1.0, 2.0, 1e300]))


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_COORD, _COORD, _DEPTH), max_size=40),
       dilation=st.integers(0, 3))
def test_rasterize_matches_brute_force_splat(points, dilation):
    # points behind the camera, at depth 0 and EPS_DEPTH, far off the image
    # and at 1e300 m; every point its own label, so the winner shows
    points = np.array(points, dtype=float).reshape(-1, 3)
    labels = np.arange(1, len(points) + 1)
    image = rasterize(points, labels, _SPLAT_K, dilation)
    assert np.array_equal(image.labels, splat_reference(points, labels, _SPLAT_K, dilation))


def test_cloud_labels_agree_with_image():
    # every surviving cloud point projects onto a pixel of its own class
    scene = generate(small_spec())
    r, t = GT.matrix()
    for pair in scene.pairs:
        cam = pair.cloud.points @ r.T + t
        k = pair.intrinsics
        u = np.rint(k.fx * cam[:, 0] / cam[:, 2] + k.cx).astype(int)
        v = np.rint(k.fy * cam[:, 1] / cam[:, 2] + k.cy).astype(int)
        assert np.array_equal(pair.image.labels[v, u], pair.cloud.labels)


def test_noise_flips_and_monotonicity():
    clean = generate(small_spec())
    low = generate(small_spec(noise_rate=0.05))
    high = generate(small_spec(noise_rate=0.20))
    for pc, pl, ph, nl, nh in zip(
        clean.pairs, low.pairs, high.pairs, low.noise_flips, high.noise_flips
    ):
        # noise only relabels, never moves or drops points
        assert np.array_equal(pc.cloud.points, pl.cloud.points)
        assert np.array_equal(pc.cloud.points, ph.cloud.points)
        flip_low = set(np.nonzero(pl.cloud.labels != pc.cloud.labels)[0])
        flip_high = set(np.nonzero(ph.cloud.labels != pc.cloud.labels)[0])
        assert len(flip_low) == nl
        assert len(flip_high) == nh
        assert flip_low <= flip_high
    assert sum(high.noise_flips) > sum(low.noise_flips) > 0


def test_noise_labels_stay_in_pool():
    scene = generate(small_spec(noise_rate=0.3, seed=9))
    pool = set(scene.spec.classes) | {IGNORE_CLASS}
    for pair in scene.pairs:
        assert set(np.unique(pair.cloud.labels)) <= pool


def test_perturb_exact_magnitudes():
    out = perturb(GT, 0.01, 0.2, seed=3)
    delta = np.asarray(out.to_vector()) - np.asarray(GT.to_vector())
    assert np.allclose(np.abs(delta[:3]), 0.01)
    assert np.allclose(np.abs(delta[3:]), 0.2)


def test_perturb_signs_vary_with_seed():
    signs = {
        tuple(np.sign(np.asarray(perturb(GT, 0.01, 0.1, seed=s).to_vector())
                      - np.asarray(GT.to_vector())))
        for s in range(10)
    }
    assert len(signs) > 1


def test_perturb_vector_magnitudes():
    out = perturb(GT, [0.01, 0.02, 0.03], [0.1, 0.2, 0.3], seed=0)
    delta = np.abs(np.asarray(out.to_vector()) - np.asarray(GT.to_vector()))
    assert np.allclose(delta, [0.01, 0.02, 0.03, 0.1, 0.2, 0.3])
    with pytest.raises(CalibrationError):
        perturb(GT, np.inf, 0.1)


def test_empty_scene_raises():
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=4.0, cy=3.0, width=8, height=6)
    spec = small_spec(intrinsics=k, lateral_range=(50.0, 60.0))
    with pytest.raises(EmptyScene):
        generate(spec)
