"""Euler angles, rigid-body extrinsics, and pinhole intrinsics.

Conventions used throughout the package:

* Rotations are parameterized by three Euler angles applied as
  ``R = Rz(theta_z) @ Ry(theta_y) @ Rx(theta_x)`` (extrinsic x-then-y-then-z).
* Angles are stored in radians, canonicalized to ``(-pi, pi]``.
* The camera frame is the usual computer-vision one: x right, y down,
  z forward along the optical axis.  A point is projectable only when its
  depth exceeds ``EPS_DEPTH``.
* Pixel centers sit at integer coordinates: pixel ``(l, m)`` covers
  ``[l-0.5, l+0.5) x [m-0.5, m+0.5)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError

# Depth below which a point counts as behind the image plane (meters).
EPS_DEPTH = 1e-6

_TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Canonicalize an angle in radians to the interval ``(-pi, pi]``."""
    if not math.isfinite(angle):
        raise CalibrationError(f"angle must be finite, got {angle!r}")
    if not -math.pi < angle <= math.pi:  # on an angle in range the modulo may move the last bit
        angle = math.pi - (math.pi - angle) % _TWO_PI
        if angle == -math.pi:  # the remainder of an angle just above pi rounded up to 2 pi
            angle = math.pi
    return float(angle)


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CalibrationError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class RotationAngles:
    """Euler angles in radians, canonicalized to ``(-pi, pi]`` per axis."""

    theta_x: float
    theta_y: float
    theta_z: float

    def __init__(self, theta_x: float, theta_y: float, theta_z: float):
        self.__dict__.update(theta_x=wrap_angle(float(theta_x)), theta_y=wrap_angle(float(theta_y)),
                             theta_z=wrap_angle(float(theta_z)))

    def __iter__(self):
        return iter((self.theta_x, self.theta_y, self.theta_z))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta_x, self.theta_y, self.theta_z])


@dataclass(frozen=True)
class Translation:
    """Translation offsets in meters."""

    t_x: float
    t_y: float
    t_z: float

    def __init__(self, t_x: float, t_y: float, t_z: float):
        _require_finite("translation", t_x, t_y, t_z)
        self.__dict__.update(t_x=float(t_x), t_y=float(t_y), t_z=float(t_z))

    def as_array(self) -> np.ndarray:
        return np.array([self.t_x, self.t_y, self.t_z])


@dataclass(frozen=True)
class Extrinsics:
    """The six calibration parameters: three rotation angles plus a translation.

    Maps sensor-frame points into the camera frame via ``R(theta) @ p + t``.
    Keeps ``R``, built once from the wrapped angles, and ``t`` as read-only
    arrays that ``==``, ``hash`` and ``repr`` ignore.
    """

    rotation: RotationAngles
    translation: Translation

    def __init__(self, rotation, translation):
        r = rotation_matrix(rotation)
        t = translation.as_array()
        r.setflags(write=False)
        t.setflags(write=False)
        self.__dict__.update(rotation=rotation, translation=translation, _r=r, _t=t)

    @classmethod
    def identity(cls) -> "Extrinsics":
        return cls(RotationAngles(0.0, 0.0, 0.0), Translation(0.0, 0.0, 0.0))

    @classmethod
    def from_vector(cls, v) -> "Extrinsics":
        """Build from a 6-vector ``(theta_x, theta_y, theta_z, t_x, t_y, t_z)``."""
        v = np.asarray(v, dtype=float)
        if v.shape != (6,):
            raise CalibrationError(f"expected a 6-vector, got shape {v.shape}")
        return cls(RotationAngles(*v[:3].tolist()), Translation(*v[3:].tolist()))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.rotation.as_array(), self.translation.as_array()])

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(R, t)`` with R the 3x3 rotation and t the 3-vector, read-only."""
        return self._r, self._t


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        _require_finite("intrinsics", self.fx, self.fy, self.cx, self.cy)
        if self.fx <= 0 or self.fy <= 0:
            raise CalibrationError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise CalibrationError("image dimensions must be positive")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))


def rotation_matrix(angles) -> np.ndarray:
    """3x3 rotation (``Rz @ Ry @ Rx``) of a :class:`RotationAngles` or of three angles as given."""
    theta_x, theta_y, theta_z = angles
    cx, sx = math.cos(theta_x), math.sin(theta_x)
    cy, sy = math.cos(theta_y), math.sin(theta_y)
    cz, sz = math.cos(theta_z), math.sin(theta_z)
    return np.array([cy * cz, sx * sy * cz - cx * sz, cx * sy * cz + sx * sz,
                     cy * sz, sx * sy * sz + cx * cz, cx * sy * sz - sx * cz,
                     -sy, sx * cy, cx * cy]).reshape(3, 3)


def euler_from_matrix(r: np.ndarray) -> RotationAngles:
    """Recover Euler angles from a rotation matrix under the package convention.

    Inverse of :func:`rotation_matrix` away from the degenerate
    ``theta_y = +/-pi/2`` configuration; at the degeneracy ``theta_x`` is
    pinned to zero and the remaining freedom folds into ``theta_z``.
    """
    r = np.asarray(r, dtype=float)
    cos_y = math.hypot(r[0, 0], r[1, 0])
    if cos_y > 1e-9:
        theta_x = math.atan2(r[2, 1], r[2, 2])
        theta_y = math.atan2(-r[2, 0], cos_y)
        theta_z = math.atan2(r[1, 0], r[0, 0])
    else:
        theta_x = 0.0
        theta_y = math.pi / 2 if -r[2, 0] > 0 else -math.pi / 2
        theta_z = math.atan2(-r[0, 1], r[1, 1])
    return RotationAngles(theta_x, theta_y, theta_z)
