"""Tests for angles, rigid transforms, and the pinhole projection."""

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from semcal.errors import CalibrationError
from semcal.geometry import (
    CameraIntrinsics,
    Extrinsics,
    RotationAngles,
    Translation,
    euler_from_matrix,
    rotation_matrix,
    wrap_angle,
)
from semcal.optimizer import _from_centered


def test_wrap_angle_basic():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    # -pi maps to +pi: the interval is (-pi, pi]
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(np.deg2rad(181)) == pytest.approx(np.deg2rad(-179))
    # error across the wrap point comes out as 2 degrees, not 358
    assert wrap_angle(np.deg2rad(-179) - np.deg2rad(179)) == pytest.approx(np.deg2rad(2))
    with pytest.raises(CalibrationError, match="finite"):
        wrap_angle(np.nan)


def test_wrap_angle_stays_in_range_just_above_pi():
    """The remainder of an angle one ulp above pi rounds up to 2 pi; the
    result is then pi, not -pi, which lies outside (-pi, pi]."""
    above = np.nextafter(np.pi, 4.0)
    assert wrap_angle(above) == np.pi
    assert RotationAngles(above, 0.0, 0.0) == RotationAngles(np.pi, 0.0, 0.0)


def test_wrap_angle_keeps_canonical_angles():
    """An angle already in (-pi, pi] comes back bit for bit."""
    angles = np.random.default_rng(0).uniform(-np.pi, np.pi, 2000).tolist()
    angles += [np.pi, np.nextafter(-np.pi, 0.0), 0.1, -0.0]
    assert all(wrap_angle(a) == a for a in angles)


def test_rotation_angles_canonicalize():
    rot = RotationAngles(theta_x=3 * np.pi, theta_y=0.1, theta_z=-2 * np.pi)
    assert rot.theta_x == pytest.approx(np.pi)
    assert rot.theta_y == pytest.approx(0.1)
    assert rot.theta_z == pytest.approx(0.0)


def test_rotation_matrix_is_orthonormal():
    r = rotation_matrix(RotationAngles(0.3, -1.1, 2.0))
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_rotation_matrix_axis_cases():
    # 90 degrees about z maps x to y
    r = rotation_matrix(RotationAngles(0.0, 0.0, np.pi / 2))
    assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    # 90 degrees about x maps y to z
    r = rotation_matrix(RotationAngles(np.pi / 2, 0.0, 0.0))
    assert np.allclose(r @ [0, 1, 0], [0, 0, 1], atol=1e-12)
    # order is Rz @ Ry @ Rx
    rot = RotationAngles(0.2, 0.4, 0.6)
    rx = rotation_matrix(RotationAngles(0.2, 0, 0))
    ry = rotation_matrix(RotationAngles(0, 0.4, 0))
    rz = rotation_matrix(RotationAngles(0, 0, 0.6))
    assert np.allclose(rotation_matrix(rot), rz @ ry @ rx, atol=1e-12)


def test_euler_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        angles = RotationAngles(*rng.uniform(-np.pi + 1e-3, np.pi, 3))
        back = euler_from_matrix(rotation_matrix(angles))
        assert np.allclose(rotation_matrix(back), rotation_matrix(angles), atol=1e-12)


def test_euler_from_matrix_takes_nested_lists():
    r = rotation_matrix(RotationAngles(0.3, -1.1, 2.0))
    assert euler_from_matrix(r.tolist()) == euler_from_matrix(r)


def test_euler_gimbal_branch():
    # cos(theta_y) = 0 exactly; the matrix must still reproduce
    angles = RotationAngles(0.3, np.pi / 2, 0.7)
    back = euler_from_matrix(rotation_matrix(angles))
    assert np.allclose(rotation_matrix(back), rotation_matrix(angles), atol=1e-9)
    # only cos(theta_y) <= 1e-9 pins theta_x; at 1.5e-9 the angles come back
    near = RotationAngles(0.3, np.pi / 2 - 1.5e-9, 0.7)
    assert np.allclose(euler_from_matrix(rotation_matrix(near)).as_array(), near.as_array(),
                       rtol=0.0, atol=1e-6)


def test_extrinsics_vector_round_trip():
    ext = Extrinsics(RotationAngles(0.1, -0.2, 0.3), Translation(1.0, -2.0, 0.5))
    vec = ext.to_vector()
    assert np.allclose(Extrinsics.from_vector(vec).to_vector(), vec)
    with pytest.raises(CalibrationError, match="6-vector"):
        Extrinsics.from_vector(vec[:5])
    # any sequence of six numbers will do
    assert Extrinsics.from_vector(vec.tolist()) == ext
    with pytest.raises(CalibrationError, match="6-vector"):
        Extrinsics.from_vector(vec[:5].tolist())


def test_extrinsics_identity():
    r, t = Extrinsics.identity().matrix()
    assert np.array_equal(r, np.eye(3)) and np.array_equal(t, np.zeros(3))


def test_intrinsics_validation():
    with pytest.raises(CalibrationError):
        CameraIntrinsics(fx=0.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(CalibrationError):
        CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=0, height=480)
    # a NaN focal length is not <= 0, and an infinite one is positive
    for bad in ({"fx": np.nan}, {"fy": np.inf}, {"cx": np.nan}, {"cy": -np.inf}):
        with pytest.raises(CalibrationError, match="finite"):
            CameraIntrinsics(**{"fx": 400.0, "fy": 400.0, "cx": 320.0, "cy": 240.0,
                                "width": 640, "height": 480, **bad})


def test_intrinsics_keep_the_image_size_as_ints():
    k = CameraIntrinsics(400.0, 400.0, 320.0, 240.0, np.int64(640), np.int32(480))
    assert (type(k.width), type(k.height)) == (int, int)


def test_translation_rejects_non_finite():
    with pytest.raises(CalibrationError):
        Translation(np.nan, 0.0, 0.0)


def assert_keeps_its_matrix(ext):
    """``matrix()`` is the kept, read-only ``(R, t)`` of the pose's own
    wrapped angles and translation, bit for bit."""
    r, t = ext.matrix()
    assert r.tobytes() == rotation_matrix(ext.rotation).tobytes()
    assert t.tobytes() == ext.translation.as_array().tobytes()
    assert ext.matrix()[0] is r  # kept, not built again
    for array in (r, t):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def assert_fields_only(ext, angles, t):
    """``==``, ``hash`` and ``repr`` see the wrapped ``angles`` and ``t`` alone,
    as they did before a pose kept its matrix."""
    wrapped = tuple(wrap_angle(float(a)) for a in angles)
    t = tuple(float(x) for x in t)
    assert ext == Extrinsics(RotationAngles(*wrapped), Translation(*t))
    assert hash(ext) == hash((wrapped, t))  # a dataclass hashes the tuple of its fields
    assert repr(ext) == (
        "Extrinsics(rotation=RotationAngles(theta_x={!r}, theta_y={!r}, theta_z={!r}), "
        "translation=Translation(t_x={!r}, t_y={!r}, t_z={!r}))".format(*wrapped, *t))


_ANGLE = st.floats(-4 * np.pi, 4 * np.pi)  # wraps past +-pi both ways
_METERS = st.floats(-50.0, 50.0)


@given(st.tuples(_ANGLE, _ANGLE, _ANGLE), st.tuples(_METERS, _METERS, _METERS),
       st.tuples(_METERS, _METERS, _METERS))
@example((np.pi, -np.pi, 3 * np.pi), (0.0, -0.0, 1.0), (0.0, 0.0, 0.0))
@example((np.nextafter(-np.pi, 0.0), np.nextafter(np.pi, 4.0), -7.0), (1.5, 2.5, -3.5),
         (0.3, -0.2, 8.0))
@settings(max_examples=200, deadline=None)
def test_every_constructor_keeps_the_matrix_of_its_wrapped_angles(angles, t, center):
    v = np.array([*angles, *t])
    for ext in (Extrinsics(RotationAngles(*angles), Translation(*t)), Extrinsics.from_vector(v)):
        assert_keeps_its_matrix(ext)
        assert_fields_only(ext, angles, t)
    # the optimizer's pose from (theta, c), against the translation it had
    # when the kernel built the rotation once more
    center = np.array(center)
    y = np.array([*angles, *(np.array(t) + center)])
    ext = _from_centered(y, center)
    old_t = y[3:] - rotation_matrix(RotationAngles(*y[:3])) @ center
    assert_keeps_its_matrix(ext)
    assert_fields_only(ext, angles, old_t)
    # a replaced field builds the matrix of the new pose
    moved = replace(ext, rotation=RotationAngles(0.1, 0.2, 0.3))
    assert_keeps_its_matrix(moved)
    assert moved.translation == ext.translation


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pose_is_an_error(bad):
    for i in range(6):
        v = np.zeros(6)
        v[i] = bad
        for build in (lambda: Extrinsics(RotationAngles(*v[:3]), Translation(*v[3:])),
                      lambda: Extrinsics.from_vector(v),
                      lambda: _from_centered(v, np.ones(3))):
            with pytest.raises(CalibrationError, match="finite"):
                build()
