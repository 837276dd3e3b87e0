"""Semantic LiDAR-camera extrinsic calibration.

Estimates the six rigid-body parameters (three Euler angles, three
translations) aligning a LiDAR to a camera by making semantically labeled
points project onto same-class pixels.  The pipeline is: centroid-based
planar pose for a rough start, then derivative-free refinement of a
semantic consistency cost built on exact per-class distance fields.  A
synthetic-scene generator with known ground truth closes the loop for
testing, and the CLI exposes every stage on files.

The package root exports the library entry points and the types they
return; everything else lives in the submodules.
"""

from .errors import CalibrationError
from .geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from .scene import FramePair, LabelImage, LabeledPointCloud
from .costfield import CostBreakdown, CostEvaluator
from .pnp_init import InitResult, initialize
from .optimizer import OptimizationTrace, calibrate
from .synth import SceneData, SceneSpec, generate
from .io_formats import read_report, read_scene_dir

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CameraIntrinsics",
    "CostBreakdown",
    "CostEvaluator",
    "Extrinsics",
    "FramePair",
    "InitResult",
    "LabelImage",
    "LabeledPointCloud",
    "OptimizationTrace",
    "RotationAngles",
    "SceneData",
    "SceneSpec",
    "Translation",
    "calibrate",
    "generate",
    "initialize",
    "read_report",
    "read_scene_dir",
    "__version__",
]
