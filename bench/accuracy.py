"""Accuracy and per-layer speed of a baseline revision against the working tree.

    python3 bench/accuracy.py --baseline REV [--out BENCH_field_build.json]

Run it from the repository root.  It writes 24 criterion-6-style scenes
(10 frames, 4 objects of 100 points, 2% label noise, depths 2.5-16 m, the
criterion-6 ground truth, seeds 0-23) once, then for each side -- REV,
exported with ``git archive`` into a temporary directory, and the working
tree's ``src/`` -- runs ``semcal calibrate`` on every scene and times three
layers on benchmark scenes.  Each side runs in its own process with BLAS
and OpenMP pinned to one thread.

Per scene the JSON records the evaluations, the rotation (degrees) and
translation (meters) errors, whether both lie in the criterion-6 band
(1 degree, 0.1 m), the final cost and the wall time.  The layer timings
use scenes of ``perfbench/workloads.py`` and are each the best over three
rounds that alternate between the two sides:

- ``kernel``: microseconds per ``CostEvaluator.evaluate_total``, best of
  seven passes of 300 poses near the ground truth, on calib-c6 scene 8 and
  sweep-clean scene 0;
- ``layers``: on calib-c6 scene 8 and init-wide scene 0, best of five
  passes, the milliseconds spent in ``build_distance_field`` per (frame,
  class) field, the seconds of the whole ``CostEvaluator`` construction,
  and the seconds of ``initialize`` given that evaluator.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(24)
BAND_DEG, BAND_M = 1.0, 0.1
GT = ((1.0, -2.0, 3.0), (0.2, -0.1, 0.1))  # degrees, meters
DEPTH = (2.5, 16.0)
KERNEL_SCENES = {  # name: SceneSpec keywords besides the ground truth and depths
    "calib-c6 scene 8": dict(n_frames=10, objects_per_frame=4, points_per_object=100,
                             noise_rate=0.02, seed=8),
    "sweep-clean scene 0": dict(n_frames=10, seed=0),
}
LAYER_SCENES = {
    "calib-c6 scene 8": KERNEL_SCENES["calib-c6 scene 8"],
    "init-wide scene 0": dict(n_frames=20, objects_per_frame=12, classes=(1, 2, 3, 4, 5, 6),
                              noise_rate=0.02, seed=0),
}
POSES, PASSES, LAYER_PASSES, ROUNDS = 300, 7, 5, 3


# semcal is imported inside the functions: which copy is imported depends on
# the PYTHONPATH each side's process is started with.
def _gt():
    import numpy as np
    from semcal.geometry import Extrinsics, RotationAngles, Translation

    return Extrinsics(RotationAngles(*np.radians(GT[0])), Translation(*GT[1]))


def write_scenes(root: Path) -> None:
    """Write the 24 accuracy scenes with the working tree's generator."""
    from semcal.io_formats import write_scene_dir
    from semcal.synth import SceneSpec, generate

    for seed in SEEDS:
        spec = SceneSpec(n_frames=10, objects_per_frame=4, points_per_object=100,
                         noise_rate=0.02, extrinsics=_gt(), seed=seed, depth_range=DEPTH)
        write_scene_dir(root / f"scene_{seed:02d}", generate(spec).pairs, spec.intrinsics,
                        spec.classes, gt=_gt())


def calibrate_all(scenes: list[Path], out_root: Path) -> dict:
    """Calibrate every scene with the semcal on sys.path."""
    import numpy as np
    import semcal.cli
    from semcal.geometry import wrap_angle
    from semcal.io_formats import read_extrinsics, read_report

    gt = np.asarray(_gt().to_vector())
    runs = []
    for scene in scenes:
        out = out_root / scene.name
        t0 = time.perf_counter()
        rc = semcal.cli.main(["calibrate", str(scene), "--output", str(out)])
        wall = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"calibrate failed on {scene} with exit code {rc}")
        report = read_report(out / "report.txt")["calibration_report"]
        delta = np.asarray(read_extrinsics(out / "estimated_extrinsics.txt").to_vector()) - gt
        rot = float(max(abs(np.degrees(wrap_angle(d))) for d in delta[:3]))
        trans = float(np.max(np.abs(delta[3:])))
        runs.append({
            "scene": scene.name,
            "evaluations": report["trace"]["n_evaluations"],
            "rot_err_deg": rot,
            "trans_err_m": trans,
            "in_band": rot <= BAND_DEG and trans <= BAND_M,
            "final_cost": report["cost"]["total"],
            "wall_s": wall,
        })
    return {
        "scenes": runs,
        "in_band": sum(r["in_band"] for r in runs),
        "evaluations": sum(r["evaluations"] for r in runs),
        "wall_s": sum(r["wall_s"] for r in runs),
    }


def time_kernel() -> dict:
    """Best-of-passes microseconds per evaluate_total on each kernel scene."""
    import numpy as np
    from semcal.costfield import CostEvaluator
    from semcal.geometry import Extrinsics
    from semcal.synth import SceneSpec, generate

    gt = np.asarray(_gt().to_vector())
    rng = np.random.default_rng(0)
    poses = [Extrinsics.from_vector(gt + np.concatenate([rng.normal(scale=0.03, size=3),
                                                         rng.normal(scale=0.2, size=3)]))
             for _ in range(POSES)]
    kernel = {}
    for name, kwargs in KERNEL_SCENES.items():
        spec = SceneSpec(extrinsics=_gt(), depth_range=DEPTH, **kwargs)
        evaluator = CostEvaluator(generate(spec).pairs, spec.classes)
        passes = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            for pose in poses:
                evaluator.evaluate_total(pose)
            passes.append((time.perf_counter() - t0) / POSES * 1e6)
        kernel[name] = {"points": evaluator.denominator, "us_per_eval": min(passes)}
    return kernel


def time_layers() -> dict:
    """Best-of-passes field build, evaluator and initialize times on each layer scene."""
    import semcal.costfield
    from semcal.costfield import CostEvaluator
    from semcal.pnp_init import initialize
    from semcal.synth import SceneSpec, generate

    # the evaluator looks the builder up by this name, whatever its signature
    build, spent = semcal.costfield.build_distance_field, [0.0]

    def timed_build(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0

    semcal.costfield.build_distance_field = timed_build
    layers = {}
    for name, kwargs in LAYER_SCENES.items():
        spec = SceneSpec(extrinsics=_gt(), depth_range=DEPTH, **kwargs)
        pairs = generate(spec).pairs
        fields = len(pairs) * len(spec.classes)
        best = dict.fromkeys(("field_build_ms_per_field", "evaluator_s", "initialize_s"),
                             float("inf"))
        for _ in range(LAYER_PASSES):
            spent[0] = 0.0
            t0 = time.perf_counter()
            evaluator = CostEvaluator(pairs, spec.classes)
            t1 = time.perf_counter()
            initialize(evaluator)
            t2 = time.perf_counter()
            for key, value in (("field_build_ms_per_field", spent[0] / fields * 1e3),
                               ("evaluator_s", t1 - t0), ("initialize_s", t2 - t1)):
                best[key] = min(best[key], value)
        layers[name] = {"fields": fields, **best}
    return layers


def _run_side(src: Path, work: Path, *task: str):
    """Run one ``--calibrate`` or ``--timing`` task on the sources under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = work / "side.json"
    subprocess.run([sys.executable, __file__, *task, str(out)], env=env, check=True)
    return json.loads(out.read_text())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare against")
    parser.add_argument("--out", default="BENCH_field_build.json", help="JSON file to write")
    parser.add_argument("--calibrate", nargs=2, metavar=("SCENES", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--timing", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calibrate:
        scenes, out = map(Path, args.calibrate)
        with tempfile.TemporaryDirectory() as tmp:
            result = calibrate_all(sorted(p for p in scenes.iterdir() if p.is_dir()), Path(tmp))
        out.write_text(json.dumps(result))
        return 0
    if args.timing:
        Path(args.timing).write_text(json.dumps({"kernel": time_kernel(),
                                                 "layers": time_layers()}))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")

    sys.path.insert(0, str(ROOT / "src"))
    baseline = _git("rev-parse", args.baseline)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "baseline").mkdir()
        archive = subprocess.run(["git", "archive", baseline, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "baseline")], input=archive, check=True)
        scenes = tmp / "scenes"
        write_scenes(scenes)
        srcs = {"baseline": tmp / "baseline" / "src", "change": ROOT / "src"}
        sides = {name: _run_side(src, tmp, "--calibrate", str(scenes))
                 for name, src in srcs.items()}
        # the host's speed drifts, so timings alternate between the sides
        # and each keeps its best round
        for _ in range(ROUNDS):
            for name, src in srcs.items():
                for layer, scenes_timed in _run_side(src, tmp, "--timing").items():
                    for scene, timing in scenes_timed.items():
                        best = sides[name].setdefault(layer, {}).setdefault(scene, timing)
                        for key, value in timing.items():
                            best[key] = min(best[key], value)
    result = {
        "what": "criterion-6-style calibrate on 10-frame scenes with 2% label noise, "
                "seeds 0-23; microseconds per evaluate_total; per-layer field build, "
                "evaluator construction and initialize times",
        "baseline_rev": baseline,
        "change_rev": _git("rev-parse", "HEAD")
        + ("+dirty" if _git("status", "--porcelain", "src") else ""),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        **sides,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for name, side in sides.items():
        kernel = ", ".join(f"{k} {v['us_per_eval']:.0f} us" for k, v in side["kernel"].items())
        layers = ", ".join(f"{k} {v['field_build_ms_per_field']:.2f} ms/field, "
                           f"init {v['initialize_s'] * 1e3:.0f} ms"
                           for k, v in side["layers"].items())
        print(f"{name}: {side['in_band']}/{len(side['scenes'])} in band, "
              f"{side['evaluations']} evaluations, {side['wall_s']:.1f} s; {kernel}; {layers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
