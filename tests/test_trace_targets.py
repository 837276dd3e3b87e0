"""The benchmark tracer's targets still exist in semcal.

``perfbench/tracing.py`` wraps functions and ``CostEvaluator`` methods by
name; a rename or deletion in semcal would otherwise surface only as a crash
of a traced benchmark run.
"""

import importlib

from helpers import load_script
from semcal.cli import main
from semcal.costfield import CostEvaluator
from semcal.io_formats import read_report


def test_traced_functions_resolve():
    tracing = load_script("perfbench", "tracing")
    missing = [(module, attr) for module, attr, _ in tracing._FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing


def test_traced_methods_resolve():
    tracing = load_script("perfbench", "tracing")
    missing = [attr for attr, _ in tracing._METHODS
               if not callable(getattr(CostEvaluator, attr, None))]
    assert not missing


def test_tracer_installs_and_restores():
    tracing = load_script("perfbench", "tracing")
    before = CostEvaluator.evaluate_total
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert CostEvaluator.evaluate_total is not before
    finally:
        tracer.uninstall()
    assert CostEvaluator.evaluate_total is before


def test_tracer_records_every_kernel_call_and_its_pose(tmp_path):
    """Under the tracer, ``calibrate`` and ``sweep`` on a small scene record one
    ``costfield.evaluate_total`` span per kernel call, and the sampled poses,
    read through ``args[1].to_vector()``, are six floats: the contract that
    keeps ``evaluate_total(ext)`` taking the pose itself."""
    tracing = load_script("perfbench", "tracing")
    scene, gt = tmp_path / "scene", str(tmp_path / "scene" / "gt_extrinsics.txt")
    assert main(["synth", "--spec", str(_small_spec(tmp_path)), "--output", str(scene)]) == 0
    ops = {"calibrate": ["calibrate", str(scene)],
           "sweep": ["sweep", str(scene), "--gt", gt, "--axis", "theta_y",
                     "--range", "3", "--interval", "0.5"]}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, (name, argv) in enumerate(ops.items()):
            assert tracer.call(op, main, argv + ["--output", str(tmp_path / name)]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def in_calibrate(i):
        while i >= 0:
            i = spans[i][1]
            if i >= 0 and spans[i][2] == "optimizer.calibrate":
                return True
        return False

    kernel = [i for i, rec in enumerate(spans) if rec[2] == "costfield.evaluate_total"]
    calib = read_report(tmp_path / "calibrate" / "report.txt")["calibration_report"]["trace"]
    assert sum(spans[i][0] == 0 and in_calibrate(i) for i in kernel) == (
        calib["n_evaluations"] - calib["n_repeated"])
    sweep = read_report(tmp_path / "sweep" / "report.txt")["sweep_report"]
    assert sum(spans[i][0] == 1 for i in kernel) == sweep["n_rows"] == 13
    evals = {op: counts["costfield.evals"] for op, counts in tracing.op_counts(spans).items()}
    poses = tracing.sampled_poses(spans)
    assert sorted(poses) == [0, 1]
    for op, sampled in poses.items():
        assert len(sampled) == -(-evals[op] // tracing.POSE_STRIDE)
        assert all(len(pose) == 6 and all(type(x) is float for x in pose) for pose in sampled)


def _small_spec(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("n_frames = 2\nobjects_per_frame = 3\npoints_per_object = 40\n"
                    "noise_rate = 0.02\ntheta_z_deg = 2.0\nt_x_m = 0.2\n")
    return spec
