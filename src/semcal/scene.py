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


@dataclass(frozen=True)
class LabeledPointCloud:
    """3D points in the range-sensor frame with one class label per point."""

    points: np.ndarray  # (n, 3) float64, meters
    labels: np.ndarray  # (n,) int

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if points.shape[0] != labels.shape[0]:
            raise CalibrationError(
                f"point/label count mismatch: {points.shape[0]} vs {labels.shape[0]}"
            )
        if points.size and not np.isfinite(points).all():
            raise CalibrationError("point coordinates must be finite")
        if labels.size and labels.min() < 0:
            raise CalibrationError("class labels must be non-negative")
        points.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class LabelImage:
    """Raster of per-pixel class labels, indexed ``labels[row, col]``."""

    labels: np.ndarray  # (height, width) int

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.size == 0:
            raise CalibrationError(f"label image must be 2D and non-empty, got shape {labels.shape}")
        if labels.min() < 0:
            raise CalibrationError("pixel labels must be non-negative")
        labels = labels.astype(np.int64, copy=True)
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
class Centroid3D:
    class_id: int
    position: np.ndarray  # (3,)
    support: int

    def __post_init__(self):
        if self.support < 1:
            raise CalibrationError("centroid support must be >= 1")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class Centroid2D:
    class_id: int
    position: np.ndarray  # (2,) pixel (u, v)
    support: int

    def __post_init__(self):
        if self.support < 1:
            raise CalibrationError("centroid support must be >= 1")
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))


def centroid_3d(cloud: LabeledPointCloud, class_id: int) -> Centroid3D | None:
    """Arithmetic mean of the points labeled ``class_id``; None if there are none."""
    mask = cloud.labels == class_id
    n = int(mask.sum())
    if n == 0:
        return None
    return Centroid3D(class_id, cloud.points[mask].mean(axis=0), n)


def centroid_2d(image: LabelImage, class_id: int) -> Centroid2D | None:
    """Mean pixel coordinate ``(u, v)`` of the pixels labeled ``class_id``."""
    rows, cols = np.nonzero(image.labels == class_id)
    n = rows.shape[0]
    if n == 0:
        return None
    return Centroid2D(class_id, np.array([cols.mean(), rows.mean()]), n)
