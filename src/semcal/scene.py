"""Data model for labeled point clouds, label images, and frame pairs.

Class ids share one vocabulary across both modalities; id 0 is reserved for
"unlabeled/ignore" and is excluded from centroids and from the cost function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .geometry import CameraIntrinsics

IGNORE_CLASS = 0


def _class_ids(labels, what: str) -> np.ndarray:
    """``labels`` as integers; negative, fractional, NaN or infinite ids are errors."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "bu":
        with np.errstate(invalid="ignore"):
            ids = labels.astype(np.int64)
        if not (np.array_equal(ids, labels) and (ids >= 0).all()):
            raise CalibrationError(f"{what} must be non-negative integers")
        labels = ids
    return labels


@dataclass(frozen=True)
class LabeledPointCloud:
    """3D points in the range-sensor frame with one class label per point."""

    points: np.ndarray  # (n, 3) float64, meters
    labels: np.ndarray  # (n,) int

    def __post_init__(self):
        points = np.array(self.points, dtype=float).reshape(-1, 3)  # a copy: the caller keeps its own
        labels = np.asarray(_class_ids(self.labels, "class labels"), np.int64).reshape(-1)
        if points.shape[0] != labels.shape[0]:
            raise CalibrationError(
                f"point/label count mismatch: {points.shape[0]} vs {labels.shape[0]}"
            )
        if points.size and not np.isfinite(points).all():
            raise CalibrationError("point coordinates must be finite")
        points.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LabelImage:
    """Raster of per-pixel class labels, indexed ``labels[row, col]``."""

    labels: np.ndarray  # (height, width), the smallest unsigned type that holds them

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.size == 0:
            raise CalibrationError(f"label image must be 2D and non-empty, got shape {labels.shape}")
        labels = _class_ids(labels, "pixel labels")
        labels = labels.astype(np.min_scalar_type(int(labels.max())), copy=True)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class FramePair:
    """One synchronized point cloud / label image pair with its intrinsics."""

    cloud: LabeledPointCloud
    image: LabelImage
    intrinsics: CameraIntrinsics
    frame_id: str

    def __post_init__(self):
        if (self.image.width, self.image.height) != (
            self.intrinsics.width,
            self.intrinsics.height,
        ):
            raise CalibrationError(
                f"frame {self.frame_id!r}: image is "
                f"{self.image.width}x{self.image.height} but intrinsics say "
                f"{self.intrinsics.width}x{self.intrinsics.height}"
            )


@dataclass(frozen=True)
class Centroid:
    class_id: int
    position: np.ndarray  # (3,) in the sensor frame, or (2,) pixel (u, v)
    support: int

    def __post_init__(self):
        if self.support < 1:
            raise CalibrationError("centroid support must be >= 1")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def centroid_3d(cloud: LabeledPointCloud, class_id: int) -> Centroid | None:
    """Arithmetic mean of the points labeled ``class_id``; None if there are none."""
    mask = cloud.labels == class_id
    n = int(mask.sum())
    if n == 0:
        return None
    return Centroid(class_id, cloud.points[mask].mean(axis=0), n)


def centroid_2d(image: LabelImage, class_id: int) -> Centroid | None:
    """Mean pixel coordinate ``(u, v)`` of the pixels labeled ``class_id``."""
    mask = (image.labels == class_id).view(np.uint8)
    acc = np.min_scalar_type(max(image.width, image.height))  # holds any row or column count
    per_col, per_row = mask.sum(axis=0, dtype=acc), mask.sum(axis=1, dtype=acc)
    n = int(per_col.sum())
    if n == 0:
        return None
    u, v = per_col @ np.arange(image.width), per_row @ np.arange(image.height)
    return Centroid(class_id, np.array([u / n, v / n]), n)
