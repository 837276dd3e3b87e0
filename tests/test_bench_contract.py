"""The benchmark's checks pass on the outputs semcal writes.

``perfbench/workloads.py`` reads each operation's report by key path (for
``init``, ``candidates.candidate_0.cost``) and the worker compares every
reported cost with an independent evaluator at the written extrinsics; a
report change that breaks either would otherwise surface only as failed
operations in a benchmark run.
"""

import pytest

from helpers import load_script
from semcal.cli import main
from semcal.costfield import CostEvaluator
from semcal.geometry import Extrinsics
from semcal.io_formats import read_scene_dir, sig6, write_scene_dir
from semcal.synth import SceneSpec, generate

workloads = load_script("perfbench", "workloads")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    spec = SceneSpec(n_frames=4, objects_per_frame=3, points_per_object=60,
                     extrinsics=workloads.GT, depth_range=workloads.DEPTH, seed=0)
    path = tmp_path_factory.mktemp("bench") / "scene"
    write_scene_dir(path, generate(spec).pairs, spec.intrinsics, spec.classes, gt=workloads.GT)
    return str(path)


@pytest.mark.parametrize("kind,axis", [("init", None), ("calibrate", None),
                                       ("sweep", "theta_y"), ("sweep", "t_z")],
                         ids=["init", "calibrate", "sweep-theta_y", "sweep-t_z"])
def test_workload_checks_pass(kind, axis, scene, tmp_path):
    argv = [kind, scene]
    if axis:  # a sweep as sweep-clean runs it: 1,201 rows over the axis's span
        span = workloads.SWEEP_SPAN[axis.split("_")[0]]
        argv += ["--gt", f"{scene}/gt_extrinsics.txt", "--axis", axis,
                 "--range", repr(span), "--interval", repr(span / workloads.SWEEP_STEPS)]
    out = tmp_path / "out"
    assert main(argv + ["--threads", "1", "--output", str(out)]) == 0
    result = workloads.check({"kind": kind, "scene": scene}, out)
    assert result["problems"] == []
    costs = result.get("report_costs", {})
    assert len(costs) == {"init": 1, "calibrate": 2, "sweep": 0}[kind]
    if costs:  # the worker's check: an independent evaluator at the written pose
        pairs, _, classes = read_scene_dir(scene)
        pose = Extrinsics.from_vector(result["extrinsics"])
        ours = sig6(CostEvaluator(pairs, classes).evaluate_total(pose))
        assert costs == dict.fromkeys(costs, ours)
