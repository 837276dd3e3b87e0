"""The three benchmark workloads: their scenes, their operations and the
checks on each operation's outputs.

Every scene uses the ground truth of acceptance criterion 6 (1°, -2°, 3°,
0.2/-0.1/0.1 m), the default 640x480 camera and depths of 2.5-16 m.  An
operation is one ``semcal`` CLI call; an item describes one such call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from semcal.geometry import Extrinsics, RotationAngles, Translation, wrap_angle
from semcal.io_formats import read_extrinsics, read_report, write_scene_dir
from semcal.synth import SceneSpec, generate

GT = Extrinsics(RotationAngles(*np.radians([1.0, -2.0, 3.0])), Translation(0.2, -0.1, 0.1))
DEPTH = (2.5, 16.0)
AXES = ("theta_x", "theta_y", "theta_z", "t_x", "t_y", "t_z")
BAND_DEG, BAND_M = 1.0, 0.1  # the criterion-6 accuracy band

# calib-c6 always calibrates these criterion-6 scenes.  One calibration takes
# 2,700 to 12,800 evaluations depending on the scene (scenes 0-11), so with
# scenes drawn from the run seed op_s_p50 would spread by about 30% between
# seeds; the seed only picks the order in which the pool is visited.  The
# pool's evaluation counts (2,739, 3,914, 5,266 and 7,967) are at least 1.3x
# apart, so host noise cannot swap which scenes give the median operation,
# and that median averages two calibrations.
CALIB_POOL = (8, 0, 7, 3)
# init-wide always initializes these scenes; the seed only rotates their
# order.  Its time depends on the scene: scenes 33-35 took 1.05 s and scenes
# 36-38 1.27 s per operation on the same host within minutes.
INIT_POOL = (0, 1, 2)
# sweep-clean always sweeps this scene; the seed only rotates the axis order.
# The points per evaluation, which set the time of a sweep, range from 6,600
# to 7,900 over scenes 1-10, so seed-drawn scenes would move op_s_p50 by 10%.
SWEEP_SCENE = 0
SWEEP_STEPS = 600  # grid points on each side of zero: 1,201 evaluations per sweep
SWEEP_SPAN = {"theta": 30.0, "t": 2.0}  # degrees, meters

WORKLOADS = ("calib-c6", "init-wide", "sweep-clean")
# The split of work each workload is built for, confirmed by the traced run.
INTENDED_SPLIT = {
    "calib-c6": {"costfield.eval_busy_share": "majority"},
    "init-wide": {"costfield.field_build_share": "majority", "optimizer.evals": "zero"},
    "sweep-clean": {"costfield.eval_busy_share": "majority", "optimizer.evals": "zero"},
}
SETUP_REPS = {"calib-c6": 1, "init-wide": 1, "sweep-clean": 5}
# How strongly each workload's time follows the host-speed kernel of
# speed.py: the elasticity of per-operation wall time to the kernel's time,
# measured over runs minutes apart on the host the benchmark was written on.
# The evaluation loop follows it one to one.  Field building, which is most
# of init-wide and of every set-up, followed it with an elasticity of 0.5 to
# 0.7 in three sets of runs.
SPEED_EXPONENT = {"calib-c6": 1.0, "init-wide": 0.6, "sweep-clean": 1.0}
SETUP_SPEED_EXPONENT = 0.6


def _write(spec: SceneSpec, path: Path) -> str:
    scene = generate(spec)
    write_scene_dir(path, scene.pairs, spec.intrinsics, spec.classes, gt=GT)
    return str(path)


def prepare(workload: str, seed: int, root: Path) -> list[dict]:
    """Write the workload's scenes under ``root`` and return its items.

    One pass of the benchmark runs every item once, in list order.
    """
    if workload == "calib-c6":
        items = []
        for i in range(len(CALIB_POOL)):
            s = CALIB_POOL[(seed + i) % len(CALIB_POOL)]
            spec = SceneSpec(
                n_frames=10, objects_per_frame=4, points_per_object=100,
                noise_rate=0.02, extrinsics=GT, seed=s, depth_range=DEPTH,
            )
            scene = _write(spec, root / f"calib-{s}")
            items.append({"key": f"calib-{s}", "kind": "calibrate", "scene": scene,
                          "argv": ["calibrate", scene, "--threads", "1"]})
        return items
    if workload == "init-wide":
        items = []
        for i in range(len(INIT_POOL)):
            s = INIT_POOL[(seed + i) % len(INIT_POOL)]
            spec = SceneSpec(
                n_frames=20, objects_per_frame=12, classes=(1, 2, 3, 4, 5, 6),
                noise_rate=0.02, extrinsics=GT, seed=s, depth_range=DEPTH,
            )
            scene = _write(spec, root / f"init-{s}")
            items.append({"key": f"init-{s}", "kind": "init", "scene": scene,
                          "argv": ["init", scene, "--threads", "1"]})
        return items
    if workload == "sweep-clean":
        spec = SceneSpec(n_frames=10, extrinsics=GT, seed=SWEEP_SCENE, depth_range=DEPTH)
        scene = _write(spec, root / f"sweep-{SWEEP_SCENE}")
        items = []
        for i in range(len(AXES)):
            axis = AXES[(seed + i) % len(AXES)]
            span = SWEEP_SPAN[axis.split("_")[0]]
            interval = span / SWEEP_STEPS
            items.append({
                "key": f"sweep-{SWEEP_SCENE}-{axis}", "kind": "sweep", "scene": scene,
                "argv": ["sweep", scene, "--gt", str(Path(scene) / "gt_extrinsics.txt"),
                         "--axis", axis, "--range", repr(span), "--interval", repr(interval),
                         "--threads", "1"],
            })
        return items
    raise ValueError(f"unknown workload {workload!r}")


def warmup(items: list[dict]) -> list[str]:
    """CLI arguments of the untimed operation that starts every run: ``init``
    on the first item's scene, which reads a scene, builds fields and
    evaluates costs once."""
    return ["init", items[0]["scene"], "--threads", "1"]


def check(item: dict, out: Path) -> dict:
    """Read one operation's outputs and check what needs no cost evaluator.

    Returns ``problems`` (empty when the outputs pass), the accuracy values,
    and for calibrate and init the written extrinsics with the report costs
    that an independent evaluator must reproduce at report precision.
    """
    kind = item["kind"]
    result: dict = {"problems": []}
    problems = result["problems"]
    if kind == "sweep":
        rep = read_report(out / "report.txt")["sweep_report"]
        result["final_cost"] = rep["min_cost"]
        if rep["n_rows"] != 2 * SWEEP_STEPS + 1:
            problems.append(f"n_rows {rep['n_rows']} != {2 * SWEEP_STEPS + 1}")
        if rep["cost_at_zero"] != 0 or rep["min_cost"] != 0:
            problems.append(f"cost_at_zero {rep['cost_at_zero']}, min_cost {rep['min_cost']}"
                            " on a clean scene (must be exactly 0)")
        if abs(rep["argmin_displacement"]) > rep["interval"]:
            problems.append(f"argmin_displacement {rep['argmin_displacement']} beyond one"
                            f" interval {rep['interval']}")
        return result
    if kind == "calibrate":
        rep = read_report(out / "report.txt")["calibration_report"]
        ext_path = out / "estimated_extrinsics.txt"
        costs = {"cost.total": rep["cost"]["total"],
                 "trace.final_cost": rep["trace"]["final_cost"]}
        result["final_cost"] = rep["cost"]["total"]
    else:
        rep = read_report(out / "report.txt")["init_report"]
        ext_path = out / "init_extrinsics.txt"
        costs = {"candidates.candidate_0.cost": rep["candidates"]["candidate_0"]["cost"]}
        result["final_cost"] = costs["candidates.candidate_0.cost"]
    estimate = np.asarray(read_extrinsics(ext_path).to_vector(), dtype=float)
    delta = estimate - np.asarray(GT.to_vector())
    rot = float(max(abs(np.degrees(wrap_angle(d))) for d in delta[:3]))
    trans = float(np.max(np.abs(delta[3:])))
    result.update(
        rot_err_deg=rot, trans_err_m=trans,
        in_band=rot <= BAND_DEG and trans <= BAND_M,
        extrinsics=estimate.tolist(),
        report_costs=costs,
    )
    return result
