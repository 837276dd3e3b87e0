"""Robustness fuzz: scene files written byte by byte, run through the CLI.

Each seeded scene has a small camera (1-59 pixels a side, focal lengths
from 1e-3 to 1e6), one to four frames of up to 39 float32 points at scales
from 1e-6 to 1e4, some behind the camera, and PGM label images of random
class patches.  ``init``, ``calibrate`` and a ``sweep`` about the identity
pose, along one axis per seed in turn, must each end in exit code 0 or 1,
the latter with one ``error:`` line, never in a traceback or a numpy
floating-point error; a written report holds no NaN and no infinity, except
the documented ``inf`` residuals of centroids behind the initial pose's
camera.
"""

import math

import numpy as np
import pytest

from semcal.cli import main
from semcal.io_formats import POSE_FIELDS, read_report

N_SCENES = 100
# inf for a centroid behind the initial pose's camera, and the rms when all are
MAY_BE_INF = {"residual_px", "reprojection_rms_px"}


def write_fuzz_scene(root, seed: int) -> None:
    rng = np.random.default_rng(seed)
    width, height = (int(s) for s in rng.integers(1, 60, size=2))
    fx, fy = (float(f) for f in 10.0 ** rng.uniform(-3, 6, size=2))
    cx, cy = float(rng.uniform(0, width)), float(rng.uniform(0, height))
    n_classes, n_frames = (int(n) for n in rng.integers(1, 5, size=2))
    root.mkdir()
    (root / "intrinsics.txt").write_bytes(
        f"fx = {fx!r}\nfy = {fy!r}\ncx = {cx!r}\ncy = {cy!r}\n"
        f"width = {width}\nheight = {height}\n".encode())
    (root / "scene.txt").write_bytes(
        f"n_frames = {n_frames}\nclasses = {','.join(map(str, range(1, n_classes + 1)))}\n"
        .encode())
    for f in range(n_frames):
        n = int(rng.integers(0, 40))
        points = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 4)
        points[:, 2] += rng.choice([-5.0, 0.0, 5.0])
        labels = rng.integers(0, n_classes + 1, size=n)
        records = np.column_stack([points, labels]).astype("<f4")
        (root / f"frame_{f:04d}.bin").write_bytes(records.tobytes())
        image = np.zeros((height, width), np.uint8)
        for _ in range(int(rng.integers(0, 5))):
            u0, u1 = np.sort(rng.integers(0, width + 1, size=2))
            v0, v1 = np.sort(rng.integers(0, height + 1, size=2))
            image[v0:v1 + 1, u0:u1 + 1] = rng.integers(0, n_classes + 1)
        (root / f"frame_{f:04d}.pgm").write_bytes(
            f"P5\n{width} {height}\n255\n".encode() + image.tobytes())


def non_finite(report: dict, path=()):
    """The keys of every NaN or infinite number in a parsed report, but for
    an infinity where ``MAY_BE_INF`` allows it."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from non_finite(value, (*path, key))
        elif isinstance(value, float) and not math.isfinite(value):
            if not (key in MAY_BE_INF and value == math.inf):
                yield (*path, key)


@pytest.mark.parametrize("seed", range(N_SCENES))
def test_fuzzed_scene_ends_in_a_report_or_an_error(seed, tmp_path, capsys):
    scene = tmp_path / "scene"
    write_fuzz_scene(scene, seed)
    identity = tmp_path / "identity.txt"
    identity.write_bytes("".join(f"{key} = 0\n" for key in POSE_FIELDS).encode())
    axis = POSE_FIELDS[seed % 6].rsplit("_", 1)[0]
    sweep = ["--gt", str(identity), "--axis", axis, "--range", "10", "--interval", "1"]
    for command, extra in (("init", []), ("calibrate", []), ("sweep", sweep)):
        out = tmp_path / command
        with np.errstate(all="raise"):
            rc = main([command, str(scene), *extra, "--output", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1)
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(scene) not in err  # the files are well formed: no reader fails
            continue
        assert not list(non_finite(read_report(out / "report.txt")))
        for path in out.iterdir():
            if path.name != "report.txt":
                text = path.read_text().lower()
                assert "nan" not in text and "inf" not in text, path.name
