"""Tests for angles, rigid transforms, and the pinhole projection."""

import numpy as np
import pytest

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


def test_wrap_angle_basic():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    # -pi maps to +pi: the interval is (-pi, pi]
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(np.deg2rad(181)) == pytest.approx(np.deg2rad(-179))
    # error across the wrap point comes out as 2 degrees, not 358
    assert wrap_angle(np.deg2rad(-179) - np.deg2rad(179)) == pytest.approx(np.deg2rad(2))


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


def test_euler_gimbal_branch():
    # cos(theta_y) = 0 exactly; the matrix must still reproduce
    angles = RotationAngles(0.3, np.pi / 2, 0.7)
    back = euler_from_matrix(rotation_matrix(angles))
    assert np.allclose(rotation_matrix(back), rotation_matrix(angles), atol=1e-9)


def test_extrinsics_vector_round_trip():
    ext = Extrinsics(RotationAngles(0.1, -0.2, 0.3), Translation(1.0, -2.0, 0.5))
    vec = ext.to_vector()
    assert np.allclose(Extrinsics.from_vector(vec).to_vector(), vec)


def test_extrinsics_identity():
    r, t = Extrinsics.identity().matrix()
    assert np.array_equal(r, np.eye(3)) and np.array_equal(t, np.zeros(3))


def test_intrinsics_validation():
    with pytest.raises(CalibrationError):
        CameraIntrinsics(fx=0.0, fy=400.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(CalibrationError):
        CameraIntrinsics(fx=400.0, fy=400.0, cx=320.0, cy=240.0, width=0, height=480)


def test_translation_rejects_non_finite():
    with pytest.raises(CalibrationError):
        Translation(np.nan, 0.0, 0.0)
