"""Accuracy and per-layer speed of a baseline revision against the working tree.

    python3 bench/accuracy.py --baseline REV [--out BENCH_eval_loop.json]
    python3 bench/accuracy.py --check BENCH_packed_atlas.json

Run it from the repository root.  It writes these sets of criterion-6-style
scenes (4 objects of 100 points, 2% label noise, depths 2.5-16 m, the
criterion-6 ground truth, unless a set says otherwise) once:

- ``dev``: 10 frames, seeds 0-23, the scenes that tuning looks at;
- ``held_out``: 10 frames, seeds 24-47, kept out of tuning;
- ``frames20``: 20 frames, seeds 0-11;
- ``seeds48_95``: 10 frames, seeds 48-95, kept out of tuning;
- ``noise5``: 10 frames, 5% label noise, seeds 0-23;
- ``jitter1`` and ``jitter2``: 10 frames, ``ground_jitter`` of 1 m and 2 m,
  seeds 0-11, so the centroids are far from coplanar;
- ``kitti_near``: 10 frames, seeds 0-5, a KITTI-like rotation near the Euler
  singularity, (0.7, -89.2, 90.4) degrees;
- ``sparse10`` and ``sparse5``: the dev scenes with each written cloud cut
  to 10% and 5% of its points, drawn by a generator seeded per scene and
  frame; the images stay as they are, as for a sparse LiDAR against a dense
  segmentation;
- ``random_rig``: 10 frames, seeds 0-23, a rig rotation uniform over
  SO(3), a normalized Gaussian quaternion from a generator of its own per
  seed, and the dev translation;
- ``warm_0.1`` and ``warm_0.5``: the dev scenes, calibrated with ``--init``
  from ``synth.perturb`` of the ground truth by 0.1 degrees and 0.01 m, and
  by 0.5 degrees and 0.05 m, per angle and per axis.

The first three are the 60 "bench scenes" of earlier comparisons.

For each side -- REV, exported with ``git archive`` into a temporary
directory, and the working tree's ``src/`` -- one process runs ``semcal
calibrate`` on every scene.  Per scene the JSON records the evaluations, the
samples served by the optimizer's memo (``n_repeated``) and those of the
probe stage (``n_probe``; both null where the side's report has no such
line), the rotation (degrees) and translation
(meters) errors against the scene's ``gt_extrinsics.txt``, whether both lie
in the criterion-6 band (1 degree per Euler angle, 0.1 m), the angle of the
rotation between estimate and truth (``rot_angle_deg``), the final cost,
the cost at the ground truth, the relative gap between the two (null where
the cost at the truth is 0, as in some sparse scenes), the wall time and a
SHA-256 digest of the scene's output files (names and bytes).
``identical_outputs`` counts the scenes whose digests agree between the two
sides.  ``final_cost_vs_baseline`` shows the cost moves that in-band counts
hide: per set, the scenes whose final cost, at report precision, is lower,
equal or higher on the working tree than on REV, and the largest relative
rise among scenes whose cost on REV is above 0.

Both sides calibrate the scenes that the working tree writes.  One more
process writes every scene again with REV's package, so that
``identical_scenes`` counts the scenes whose files (names and bytes) agree
between the two generators and writers; this adds about 20 seconds on a
2-core x86-64 host.

``summary`` gives, per side, the numbers an accuracy gate reads:

- ``criterion_6``: scenes in band among dev seeds 0-9 and among 20-frame
  seeds 0-9, the scenes of acceptance criterion 6;
- ``untuned_in_band``: scenes in band among the held-out and 20-frame sets;
- ``in_band`` and ``evaluations``: per set, the scenes in band and the
  evaluations;
- ``in_band_by_angle``: per set, the scenes whose rotation angle is at most
  1 degree and translation error at most 0.1 m.  Near the Euler singularity
  of ``kitti_near``, theta_x and theta_z trade against each other, so a
  rotation 0.1 degrees off can differ by degrees per Euler angle;
- ``bench_evaluations``: the evaluations over the 60 bench scenes;
- ``median_gap_to_gt``: per set, the median relative gap to the cost at the
  ground truth;
- ``watch``: the full records of the scenes in ``WATCH``, which earlier
  measurements flagged as likely to move;
- ``source_lines``: the non-blank lines of the side's ``src/semcal/*.py``,
  so code size is measured next to speed and accuracy, and
  ``source_lines_by_module`` the same per module, keyed by file name, so a
  change's JSON shows where its lines went.

The JSON names the baseline by its commit (``baseline_rev``) and the change
side as the ``working tree`` (``change_rev``), with the SHA-256 of the names
and bytes of its ``src/semcal/*.py`` files (``change_src_sha256``), so a
record written before its change is committed still says what it measured.

The timings run in one more process that loads both sides' packages side by
side.  Each of ``ROUNDS`` rounds times every task once per side, the sides in
alternating order, so the host's speed steps hit both alike.  Per task the
JSON keeps each side's median, every round's ratio change / baseline and the
median of those ratios:

- ``kernel``: microseconds per ``evaluate_total`` over 300 poses near the
  ground truth, each with its own rotation, on calib-c6 scene 8 and
  sweep-clean scene 0.  A round times ``SLICE`` poses at a time on one
  side and then the same poses on the other, the sides in alternating
  order, until each side has taken ``ROUND_S`` seconds.  Timed in one
  block per side, unchanged code read rounds of 0.74-1.27: a block spans
  the host's speed steps, and a step can hit one side's block and not the
  other's; in slices of 1-2 ms both sides meet the same steps.  A round
  also builds ``BUILDS`` fresh evaluators per side, in alternating order,
  each timed for ``ROUND_S / BUILDS``: the memory layout of one evaluator
  biases its time, so one evaluator per side for all rounds read a median
  ratio of 1.06, with 9 of 10 rounds above 1, one per round still read
  rounds of 0.94-1.04, and 5 in 0.5 s rounds 0.95-1.05.  Unchanged code
  now reads 0.978-1.025 per round (three runs, 90 rounds).  Each side
  scores the poses as its own ``Extrinsics``, built once before the rounds,
  so what a pose keeps from its construction, such as its rotation
  matrix, serves only its own side;
- ``kernel_t_x``: the same on ``POSES`` poses of the ground-truth rotation
  that step along t_x alone, ``T_X_SPAN`` either side of the truth, as the
  t_x axis of a sweep or a line search along t_x sends them;
- ``replay``: microseconds per ``evaluate_total`` over the poses the
  baseline's ``calibrate`` sends it on calib-c6 scene 8, repeats
  included, timed as ``kernel`` is;
- ``calibrate``: seconds of ``calibrate`` from the initialization on
  calib-c6 scene 8.  A round makes ``BUILDS`` calls per side, alternating
  sides, and keeps each side's median: with one call per round, the
  ratios of unchanged code ran from 0.88 to 1.38.  Next to them,
  ``kernel_calls`` counts the samples that reached ``evaluate_total``,
  and ``outside_kernel_ms`` is each side's time outside the kernel: the
  milliseconds of ``calibrate`` against a stand-in evaluator that returns
  the costs and the final breakdown that the side's evaluator gave it,
  in the order it gave them, with no kernel run.  Each call is timed
  right after the call it replays, so both meet the host's same speed;
  the stand-in's own Python call is in it;
- ``layers``: on calib-c6 scene 8, init-wide scene 0 and a dense-label
  scene, whose every class's bounding box covers at least 99% of its image
  (``min_box_share``, the smallest such share in the scene), the
  milliseconds spent in ``build_distance_field`` per (frame, class) field
  (one call may build the fields of several frames), the seconds of
  the whole ``CostEvaluator`` construction, and the seconds of
  ``initialize`` given that evaluator.  A round builds ``BUILDS``
  evaluators per side, alternating sides, and keeps each side's medians:
  with one build per round, the ratios of unchanged code ran from 0.71
  to 1.12, and with 10 they still run from 0.92 to 1.09.  ``memory`` holds each side's ``tracemalloc`` peak, in MB, over
  one more evaluator construction outside the timed rounds, so set-up
  memory sits next to set-up time; it includes the fields the evaluator
  keeps.  Next to it, ``atlas_cells`` counts the cells of the side's
  distance-field atlas and ``box_cells`` those of the class boxes in it,
  so the atlas's padding shows.

After every round of every task and one untimed warm-up run, each side, in
alternating order, times one run of perfbench's host-speed reference kernel
(``perfbench/speed.py``'s ``sample()``), kept per task as ``reference_ms``
next to that task's timings; ``timing["reference_ms"]`` is the median of the
tasks' medians.  The host's speed changes from run to run, so absolute
times compare across JSONs only in units of this kernel: the same kernel
code read 86.1 us per evaluation in one JSON and 48.4 us in another.

``--check FILE`` is the accuracy gate.  It writes the scenes and calibrates
them with the working tree only, with no baseline and no timings (about 25
seconds on a 2-core x86-64 host), and exits 1 when a count falls below the
record, the ``summary`` of FILE's change side: ``criterion_6``, or any set's
scenes in band by Euler angle or by rotation angle; or when the evaluations
over all scenes exceed the record's by more than ``CHECK_EVALUATIONS``.  A
change that moves estimates on purpose commits its own ``BENCH_*.json`` and
checks against that.

Every process pins BLAS and OpenMP to one thread.  The timing scenes live in
memory as float64 clouds, so their evaluation counts differ from those of the
same scenes read back from disk as float32.  ``host`` records the numpy
version next to the machine: the RANSAC triples of ``initialize``, and with
them every estimate, follow numpy's ``Generator`` streams.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path
from statistics import median
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GT = ((1.0, -2.0, 3.0), (0.2, -0.1, 0.1))  # degrees, meters
KITTI_NEAR = ((0.7, -89.2, 90.4), GT[1])


class SceneSet(NamedTuple):
    seeds: range
    spec: dict = {}  # SceneSpec keywords besides the defaults below
    gt: tuple | None = GT  # degrees, meters; None: a uniform rotation per seed
    keep: float = 1.0  # the share of each cloud's points written
    start: tuple | None = None  # (degrees, meters) off the truth to start from


SCENE_SETS = {
    "dev": SceneSet(range(24)),
    "held_out": SceneSet(range(24, 48)),
    "frames20": SceneSet(range(12), {"n_frames": 20}),
    "seeds48_95": SceneSet(range(48, 96)),
    "noise5": SceneSet(range(24), {"noise_rate": 0.05}),
    "jitter1": SceneSet(range(12), {"ground_jitter": 1.0}),
    "jitter2": SceneSet(range(12), {"ground_jitter": 2.0}),
    "kitti_near": SceneSet(range(6), gt=KITTI_NEAR),
    "sparse10": SceneSet(range(24), keep=0.10),
    "sparse5": SceneSet(range(24), keep=0.05),
    "random_rig": SceneSet(range(24), gt=None),
    "warm_0.1": SceneSet(range(24), start=(0.1, 0.01)),
    "warm_0.5": SceneSet(range(24), start=(0.5, 0.05)),
}
SCENE_DEFAULTS = dict(n_frames=10, objects_per_frame=4, points_per_object=100,
                      noise_rate=0.02)
BENCH_SETS = ("dev", "held_out", "frames20")
WATCH = (("noise5", 20), ("jitter1", 11))  # (set, seed)
BAND_DEG, BAND_M = 1.0, 0.1
DEPTH = (2.5, 16.0)
C6_SCENE_8 = dict(n_frames=10, objects_per_frame=4, points_per_object=100,
                  noise_rate=0.02, seed=8)
KERNEL_SCENES = {  # name: SceneSpec keywords besides the ground truth and depths
    "calib-c6 scene 8": C6_SCENE_8,
    "sweep-clean scene 0": dict(n_frames=10, seed=0),
}
LAYER_SCENES = {
    "calib-c6 scene 8": C6_SCENE_8,
    "init-wide scene 0": dict(n_frames=20, objects_per_frame=12, classes=(1, 2, 3, 4, 5, 6),
                              noise_rate=0.02, seed=0),
    # 36 large objects at 2.5-4 m: every class's bounding box covers at
    # least 99% of its image, so the fields of this scene are the whole image
    "dense-label scene 0": dict(n_frames=10, objects_per_frame=36, size_range=(2.5, 4.0),
                                depth_range=(2.5, 4.0), lateral_range=(-3.0, 3.0),
                                points_per_object=100, noise_rate=0.02, seed=0),
}
POSES, ROUNDS, BUILDS, ROUND_S, SLICE = 300, 10, 10, 1.0, 10
T_X_SPAN = 0.3  # meters either side of the truth, in the POSES steps of kernel_t_x
CHECK_EVALUATIONS = 1.15  # --check's ceiling on all evaluations, over the record's
SIDES = ("baseline", "change")


# semcal is imported inside the functions: which copy is imported depends on
# the PYTHONPATH each side's process is started with.
def _gt(gt=GT):
    import numpy as np
    from semcal.geometry import Extrinsics, RotationAngles, Translation

    return Extrinsics(RotationAngles(*np.radians(gt[0])), Translation(*gt[1]))


def _spec(gt=GT, **kwargs):
    from semcal.synth import SceneSpec

    return SceneSpec(**{"extrinsics": _gt(gt), "depth_range": DEPTH, **kwargs})


def _random_gt(seed: int) -> tuple:
    """The ground truth of ``random_rig`` scene ``seed``: a rotation uniform
    over SO(3), from a normalized Gaussian quaternion, and the dev
    translation."""
    import numpy as np
    from semcal.geometry import euler_from_matrix

    w, x, y, z = (q := np.random.default_rng(seed).normal(size=4)) / np.linalg.norm(q)
    r = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    return tuple(np.degrees(euler_from_matrix(r).as_array()).tolist()), GT[1]


def _digest(directory: Path) -> str:
    """SHA-256 of the names and bytes of the files in ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_scenes(root: Path) -> list[str]:
    """Write every scene set with the semcal on sys.path and return each
    scene's digest; a set with a start also gets the ``start_extrinsics.txt``
    that calibrate starts from."""
    import numpy as np
    from semcal.io_formats import write_extrinsics, write_scene_dir
    from semcal.synth import generate, perturb

    digests = []
    for name, s in SCENE_SETS.items():
        for seed in s.seeds:
            spec = _spec(s.gt or _random_gt(seed), **{**SCENE_DEFAULTS, **s.spec}, seed=seed)
            pairs = generate(spec).pairs
            if s.keep < 1.0:
                pairs = [_subsample(pair, s.keep, np.random.default_rng((seed, i)))
                         for i, pair in enumerate(pairs)]
            scene = root / name / f"scene_{seed:02d}"
            write_scene_dir(scene, pairs, spec.intrinsics, spec.classes, gt=spec.extrinsics)
            if s.start:
                write_extrinsics(scene / "start_extrinsics.txt", perturb(
                    spec.extrinsics, np.radians(s.start[0]), s.start[1], seed))
            digests.append(_digest(scene))
    return digests


def _subsample(pair, keep: float, rng):
    """``pair`` with ``keep`` of its cloud's points, drawn by ``rng``, in cloud order."""
    import numpy as np
    from semcal.scene import FramePair, LabeledPointCloud

    cloud = pair.cloud
    kept = np.sort(rng.choice(len(cloud), round(keep * len(cloud)), replace=False))
    return FramePair(LabeledPointCloud(cloud.points[kept], cloud.labels[kept]),
                     pair.image, pair.intrinsics, pair.frame_id)


def calibrate_set(scenes: list[Path], out_root: Path) -> dict:
    """Calibrate every scene with the semcal on sys.path."""
    import numpy as np
    import semcal.cli
    from semcal.costfield import CostEvaluator
    from semcal.geometry import wrap_angle
    from semcal.io_formats import read_extrinsics, read_report, read_scene_dir

    runs = []
    for scene in scenes:
        out = out_root / scene.name
        t0 = time.perf_counter()
        start = scene / "start_extrinsics.txt"
        rc = semcal.cli.main(["calibrate", str(scene), "--output", str(out),
                              *(["--init", str(start)] if start.exists() else [])])
        wall = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"calibrate failed on {scene} with exit code {rc}")
        report = read_report(out / "report.txt")["calibration_report"]
        gt = read_extrinsics(scene / "gt_extrinsics.txt")
        delta = (np.asarray(read_extrinsics(out / "estimated_extrinsics.txt").to_vector())
                 - np.asarray(gt.to_vector()))
        rot = float(max(abs(np.degrees(wrap_angle(d))) for d in delta[:3]))
        turn = read_extrinsics(out / "estimated_extrinsics.txt").matrix()[0] @ gt.matrix()[0].T
        angle = float(np.degrees(np.arccos(np.clip((np.trace(turn) - 1.0) / 2.0, -1.0, 1.0))))
        trans = float(np.max(np.abs(delta[3:])))
        pairs, _, classes = read_scene_dir(scene)
        gt_cost = CostEvaluator(pairs, classes).evaluate_total(gt)
        final_cost = report["cost"]["total"]
        runs.append({
            "scene": scene.name,
            "evaluations": report["trace"]["n_evaluations"],
            "n_repeated": report["trace"].get("n_repeated"),
            "n_probe": report["trace"].get("n_probe_evaluations"),
            "rot_err_deg": rot,
            "trans_err_m": trans,
            "rot_angle_deg": angle,
            "in_band": rot <= BAND_DEG and trans <= BAND_M,
            "in_band_by_angle": angle <= BAND_DEG and trans <= BAND_M,
            "final_cost": final_cost,
            "gt_cost": gt_cost,
            "gap_to_gt": (final_cost - gt_cost) / gt_cost if gt_cost else None,
            "wall_s": wall,
            "digest": _digest(out),
        })
    return {
        "scenes": runs,
        "in_band": sum(r["in_band"] for r in runs),
        "evaluations": sum(r["evaluations"] for r in runs),
        "wall_s": sum(r["wall_s"] for r in runs),
    }


def calibrate_all(root: Path, out_root: Path) -> dict:
    return {name: calibrate_set(sorted(p for p in (root / name).iterdir() if p.is_dir()),
                                out_root / name)
            for name in SCENE_SETS}


def summarize(sets: dict) -> dict:
    """One side's accuracy gate numbers; see the module docstring."""
    def in_band(name, seeds=None):
        return sum(r["in_band"] for r in sets[name]["scenes"]
                   if seeds is None or _seed(r) in seeds)

    return {
        "criterion_6": {"dev": in_band("dev", range(10)),
                        "frames20": in_band("frames20", range(10))},
        "untuned_in_band": in_band("held_out") + in_band("frames20"),
        "untuned_scenes": len(sets["held_out"]["scenes"]) + len(sets["frames20"]["scenes"]),
        "in_band": {name: s["in_band"] for name, s in sets.items()},
        "in_band_by_angle": {name: sum(r["in_band_by_angle"] for r in s["scenes"])
                             for name, s in sets.items()},
        "scenes": {name: len(s["scenes"]) for name, s in sets.items()},
        "evaluations": {name: s["evaluations"] for name, s in sets.items()},
        "bench_evaluations": sum(sets[name]["evaluations"] for name in BENCH_SETS),
        "median_gap_to_gt": {name: median(r["gap_to_gt"] for r in s["scenes"]
                                          if r["gap_to_gt"] is not None)
                             for name, s in sets.items()},
        "watch": {f"{name} seed {seed}": next(r for r in sets[name]["scenes"]
                                              if _seed(r) == seed)
                  for name, seed in WATCH},
    }


def final_cost_vs_baseline(accuracy: dict) -> dict:
    """Per set, how the change side's final costs compare with the
    baseline's; see the module docstring."""
    result = {}
    for name, s in accuracy["baseline"].items():
        costs = [(b["final_cost"], c["final_cost"])
                 for b, c in zip(s["scenes"], accuracy["change"][name]["scenes"], strict=True)]
        rises = [(c - b) / b for b, c in costs if c > b > 0]
        result[name] = {"lower": sum(c < b for b, c in costs),
                        "equal": sum(c == b for b, c in costs),
                        "higher": sum(c > b for b, c in costs),
                        "max_rise": max(rises, default=0.0)}
    return result


def _seed(run: dict) -> int:
    return int(run["scene"].split("_")[1])


def _load(src: Path, name: str):
    """The ``semcal`` package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "semcal" / "__init__.py", submodule_search_locations=[str(src / "semcal")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("costfield", "geometry",
                                                                   "optimizer", "pnp_init")}


@functools.cache
def _speed():
    """perfbench's ``speed`` module, loaded from its file: its ``sample()``
    returns the seconds of one run of the host-speed reference kernel."""
    spec = importlib.util.spec_from_file_location("perfbench_speed",
                                                  ROOT / "perfbench" / "speed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rounds(run_round) -> dict:
    """Each side's medians over ROUNDS rounds of ``run_round(i)``, which
    returns a dict of timings per side, plus the change / baseline ratio of
    every round and their median.  After each round and one untimed warm-up
    run, each side times the host-speed reference kernel once
    (``reference_ms``): the first run after a round's work took 1.6 times
    as long as the next."""
    def with_reference(i):
        timings = run_round(i)
        _speed().sample()
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            timings[side]["reference_ms"] = _speed().sample() * 1e3
        return timings

    rounds = [with_reference(i) for i in range(ROUNDS)]
    keys = rounds[0]["baseline"]
    ratios = {k: [r["change"][k] / r["baseline"][k] for r in rounds] for k in keys}
    return {
        **{side: {k: median(r[side][k] for r in rounds) for k in keys} for side in SIDES},
        "ratio": {k: median(v) for k, v in ratios.items()},
        "round_ratios": ratios,
    }


def _interleave(tasks: dict, repeats: int = 1) -> dict:
    """Time ``tasks[side]()`` for both sides over ROUNDS rounds.

    Each call returns a dict of timings.  A round calls each side
    ``repeats`` times, the sides in alternating order, and keeps each
    side's medians.
    """
    def run_round(i):
        calls = {side: [] for side in SIDES}
        for j in range(repeats):
            for side in SIDES if (i + j) % 2 == 0 else SIDES[::-1]:
                calls[side].append(tasks[side]())
        return {side: {k: median(c[k] for c in cs) for k in cs[0]}
                for side, cs in calls.items()}

    return _rounds(run_round)


def _min_box_share(pairs, classes) -> float:
    """The smallest share of its image that a class's bounding box covers,
    over every (frame, class) with pixels of that class."""
    import numpy as np

    shares = []
    for pair in pairs:
        for cid in classes:
            rows, cols = np.nonzero(pair.image.labels == cid)
            if rows.size:
                shares.append((np.ptp(rows) + 1) * (np.ptp(cols) + 1) / pair.image.labels.size)
    return float(min(shares))


def time_sides(srcs: dict) -> dict:
    """Interleaved kernel, replay, calibrate and layer timings of both sides."""
    import numpy as np
    from semcal.synth import generate

    mods = {side: _load(src, f"semcal_{side}") for side, src in srcs.items()}

    def own(vectors):
        """The poses of ``vectors`` built by each side's own ``Extrinsics``, so
        whatever a pose keeps from its construction stays on its side."""
        return {side: [mods[side]["geometry"].Extrinsics.from_vector(v) for v in vectors]
                for side in SIDES}

    gt = np.asarray(_gt().to_vector())
    rng = np.random.default_rng(0)
    poses = own([gt + np.concatenate([rng.normal(scale=0.03, size=3),
                                      rng.normal(scale=0.2, size=3)]) for _ in range(POSES)])
    steps = own([gt + np.eye(6)[3] * dx for dx in np.linspace(-T_X_SPAN, T_X_SPAN, POSES)])

    def per_eval(pairs, classes, seq):
        """A round: BUILDS times, a fresh evaluator per side, built in
        alternating order, then slices of SLICE poses of ``seq[side]``, each
        timed on both sides in alternating order, until each side has spent
        another ROUND_S / BUILDS seconds."""
        def run_round(i):
            spent, n = dict.fromkeys(SIDES, 0.0), 0
            for b in range(BUILDS):
                evaluators = {side: mods[side]["costfield"].CostEvaluator(pairs, classes)
                              for side in (SIDES if (i + b) % 2 == 0 else SIDES[::-1])}
                while min(spent.values()) < ROUND_S * (b + 1) / BUILDS:
                    for side in SIDES if (i + n // SLICE) % 2 == 0 else SIDES[::-1]:
                        batch = [seq[side][(n + k) % len(seq[side])] for k in range(SLICE)]
                        evaluate_total, t0 = evaluators[side].evaluate_total, time.perf_counter()
                        for pose in batch:
                            evaluate_total(pose)
                        spent[side] += time.perf_counter() - t0
                    n += SLICE
            return {side: {"us_per_eval": spent[side] / n * 1e6} for side in SIDES}
        return run_round

    result = {"kernel": {}, "kernel_t_x": {}, "layers": {}}
    for name, kwargs in KERNEL_SCENES.items():
        spec = _spec(**kwargs)
        pairs = generate(spec).pairs
        points = mods["change"]["costfield"].CostEvaluator(pairs, spec.classes).denominator
        for task, seq in (("kernel", poses), ("kernel_t_x", steps)):
            result[task][name] = {"points": points,
                                  **_rounds(per_eval(pairs, spec.classes, seq))}

    spec = _spec(**C6_SCENE_8)
    pairs = generate(spec).pairs
    evaluators = {s: m["costfield"].CostEvaluator(pairs, spec.classes) for s, m in mods.items()}
    start = mods["change"]["pnp_init"].initialize(evaluators["change"]).extrinsics
    start = {side: pose for side, (pose,) in own([start.to_vector()]).items()}
    sent, evaluate_total = [], evaluators["baseline"].evaluate_total
    evaluators["baseline"].evaluate_total = lambda ext: sent.append(ext) or evaluate_total(ext)
    mods["baseline"]["optimizer"].calibrate(evaluators["baseline"], start["baseline"])
    del evaluators["baseline"].evaluate_total
    result["replay"] = {"poses": len(sent), **_rounds(per_eval(
        pairs, spec.classes, own([ext.to_vector() for ext in sent])))}

    def calibrate(side):
        optimizer, evaluator = mods[side]["optimizer"], evaluators[side]
        costs, evaluate_total = [], evaluator.evaluate_total
        evaluator.evaluate_total = lambda ext: costs.append(evaluate_total(ext)) or costs[-1]
        _, breakdown, _ = optimizer.calibrate(evaluator, start[side])
        del evaluator.evaluate_total
        # calibrate reads an evaluator's center, evaluate_total and evaluate
        stand_in = types.SimpleNamespace(center=evaluator.center, evaluate=lambda ext: breakdown)

        def run():
            t0 = time.perf_counter()
            _, _, trace = optimizer.calibrate(evaluator, start[side])
            t1 = time.perf_counter()
            replayed = iter(costs).__next__
            stand_in.evaluate_total = lambda ext: replayed()
            optimizer.calibrate(stand_in, start[side])
            return {"s": t1 - t0, "evaluations": trace.n_evaluations,
                    "kernel_calls": trace.n_evaluations - trace.n_repeated,
                    "outside_kernel_ms": (time.perf_counter() - t1) * 1e3}
        return run

    result["calibrate"] = _interleave({s: calibrate(s) for s in SIDES}, repeats=BUILDS)
    del evaluators

    def layers(side, pairs, classes):
        costfield = mods[side]["costfield"]
        build, spent = costfield.build_distance_field, [0.0]

        # the evaluator looks the builder up by this name, whatever its signature
        def timed_build(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return build(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - t0

        def run():
            spent[0] = 0.0
            costfield.build_distance_field = timed_build
            try:
                t0 = time.perf_counter()
                evaluator = costfield.CostEvaluator(pairs, classes)
                t1 = time.perf_counter()
            finally:
                costfield.build_distance_field = build
            mods[side]["pnp_init"].initialize(evaluator)
            t2 = time.perf_counter()
            return {"field_build_ms_per_field": spent[0] / (len(pairs) * len(classes)) * 1e3,
                    "evaluator_s": t1 - t0, "initialize_s": t2 - t1}
        return run

    def peak_mb(side, pairs, classes):
        tracemalloc.start()
        try:
            mods[side]["costfield"].CostEvaluator(pairs, classes)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def cells(side, pairs, classes):
        field = mods[side]["costfield"].build_distance_field([p.image for p in pairs], classes)
        sizes = (field.box[:, 2:] - field.box[:, :2] + 1)[~field.empty]
        return {"atlas_cells": int(field.d.size), "box_cells": int(sizes.prod(axis=1).sum())}

    for name, kwargs in LAYER_SCENES.items():
        spec = _spec(**kwargs)
        pairs = generate(spec).pairs
        result["layers"][name] = {
            "fields": len(pairs) * len(spec.classes),
            "min_box_share": _min_box_share(pairs, spec.classes),
            **_interleave({s: layers(s, pairs, spec.classes) for s in SIDES}, repeats=BUILDS)}
        memory = {s: {"evaluator_peak_mb": peak_mb(s, pairs, spec.classes),
                      **cells(s, pairs, spec.classes)} for s in SIDES}
        memory["ratio"] = {k: memory["change"][k] / memory["baseline"][k]
                           for k in memory["change"]}
        result["layers"][name]["memory"] = memory
    tasks = [*result["kernel"].values(), *result["kernel_t_x"].values(), result["replay"],
             result["calibrate"], *result["layers"].values()]
    result["reference_ms"] = {side: median(t[side]["reference_ms"] for t in tasks)
                              for side in SIDES}
    return result


def _run(*task: str, out: Path, src: Path):
    """Run one hidden task of this script in a process with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, *task, str(out)], env=env, check=True)
    return json.loads(out.read_text())


def _source_lines(src: Path) -> dict[str, int]:
    """Non-blank lines of each Python file of ``src/semcal``, by file name."""
    return {path.name: sum(bool(line.strip()) for line in path.read_text().splitlines())
            for path in sorted((src / "semcal").glob("*.py"))}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def check(record: Path) -> int:
    """The accuracy gate of ``--check``: see the module docstring."""
    want = json.loads(record.read_text())["summary"]["change"]
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        scenes = Path(tmp) / "scenes"
        write_scenes(scenes)
        got = summarize(_run("--calibrate", str(scenes), out=Path(tmp) / "side.json",
                             src=ROOT / "src"))
    failures = [f"{key} {name}: {got[key].get(name)} in band, below {count}"
                for key in ("criterion_6", "in_band", "in_band_by_angle")
                for name, count in want[key].items() if got[key].get(name, -1) < count]
    total = sum(got["evaluations"].values())
    ceiling = sum(want["evaluations"].values()) * CHECK_EVALUATIONS
    if total > ceiling:
        failures.append(f"evaluations: {total} above {ceiling:.0f}")
    print(f"criterion 6 {got['criterion_6']['dev']}/10 and {got['criterion_6']['frames20']}/10; "
          "in band by Euler angle " + ", ".join(f"{k} {v}" for k, v in got["in_band"].items())
          + "; by rotation angle " + ", ".join(
              f"{k} {v}" for k, v in got["in_band_by_angle"].items())
          + f"; {total} evaluations, ceiling {ceiling:.0f}")
    for failure in failures:
        print(f"accuracy check failed against {record}: {failure}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare against")
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="run the working tree only and fail when its accuracy falls "
                             "below the change side of this BENCH_*.json")
    parser.add_argument("--out", default="BENCH_eval_loop.json", help="JSON file to write")
    parser.add_argument("--calibrate", nargs=2, metavar=("SCENES", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--scenes", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--timing", nargs=3, metavar=("BASELINE_SRC", "CHANGE_SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calibrate:
        scenes, out = map(Path, args.calibrate)
        with tempfile.TemporaryDirectory() as tmp:
            out.write_text(json.dumps(calibrate_all(scenes, Path(tmp))))
        return 0
    if args.scenes:
        with tempfile.TemporaryDirectory() as tmp:
            Path(args.scenes).write_text(json.dumps(write_scenes(Path(tmp))))
        return 0
    if args.timing:
        *srcs, out = map(Path, args.timing)
        out.write_text(json.dumps(time_sides(dict(zip(SIDES, srcs)))))
        return 0
    if args.check:
        return check(args.check)
    if not args.baseline:
        parser.error("--baseline or --check is required")

    sys.path.insert(0, str(ROOT / "src"))
    baseline = _git("rev-parse", args.baseline)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "baseline").mkdir()
        archive = subprocess.run(["git", "archive", baseline, "src"], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "baseline")], input=archive, check=True)
        scenes = tmp / "scenes"
        srcs = dict(zip(SIDES, (tmp / "baseline" / "src", ROOT / "src")))
        scene_digests = [_run("--scenes", out=tmp / "scenes.json", src=srcs["baseline"]),
                         write_scenes(scenes)]
        accuracy = {side: _run("--calibrate", str(scenes), out=tmp / "side.json", src=src)
                    for side, src in srcs.items()}
        timing = _run("--timing", *map(str, srcs.values()), out=tmp / "timing.json",
                      src=ROOT / "src")
        lines = {side: _source_lines(src) for side, src in srcs.items()}
    digests = [[r["digest"] for name in SCENE_SETS for r in accuracy[side][name]["scenes"]]
               for side in SIDES]
    identical, identical_scenes = (
        {"scenes": len(a), "identical": sum(x == y for x, y in zip(a, b))}
        for a, b in (digests, scene_digests))
    summary = {side: {**summarize(sets), "source_lines": sum(lines[side].values()),
                      "source_lines_by_module": lines[side]}
               for side, sets in accuracy.items()}
    result = {
        "what": "criterion-6-style calibrate on 10-frame scenes (seeds 0-23 dev, 24-47 "
                "held out, 48-95), 20-frame scenes (seeds 0-11), 5% label noise (seeds "
                "0-23), ground jitter 1 m and 2 m (seeds 0-11), a KITTI-like rig "
                "(seeds 0-5), dev clouds cut to 10% and 5%, random rigs (seeds 0-23) and "
                "dev warm starts 0.1 deg / 0.01 m and 0.5 deg / 0.05 m off the truth; "
                "interleaved timings of evaluate_total (a new rotation per pose, and steps "
                "along t_x alone), calibrate and its time outside the kernel, field build, "
                "evaluator construction and initialize, each next to perfbench's "
                "host-speed reference kernel",
        "baseline_rev": baseline,
        "change_rev": "working tree",
        "change_src_sha256": hashlib.sha256(b"".join(
            path.name.encode() + b"\0" + path.read_bytes()
            for path in sorted((ROOT / "src" / "semcal").glob("*.py")))).hexdigest(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": importlib.metadata.version("numpy")},
        "summary": summary,
        "accuracy": accuracy,
        "identical_outputs": identical,
        "identical_scenes": identical_scenes,
        "final_cost_vs_baseline": final_cost_vs_baseline(accuracy),
        "timing": timing,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for side, sets in accuracy.items():
        print(f"{side}: " + "; ".join(
            f"{name} {s['in_band']}/{len(s['scenes'])} in band, {s['evaluations']} "
            f"evaluations, {s['wall_s']:.1f} s" for name, s in sets.items()))
        gate = summary[side]
        print(f"{side}: criterion 6 {gate['criterion_6']['dev']}/10 and "
              f"{gate['criterion_6']['frames20']}/10; held out + 20-frame "
              f"{gate['untuned_in_band']}/{gate['untuned_scenes']} in band; "
              f"{gate['bench_evaluations']} evaluations on the bench scenes; median gap "
              "to the ground-truth cost "
              + ", ".join(f"{k} {v:+.4f}" for k, v in gate["median_gap_to_gt"].items()))
        print(f"{side}: in band by rotation angle: " + ", ".join(
            f"{k} {v}/{gate['scenes'][k]}" for k, v in gate["in_band_by_angle"].items()))
        for label, r in gate["watch"].items():
            print(f"{side}: watch {label}: {'in band' if r['in_band'] else 'out of band'}, "
                  f"{r['rot_err_deg']:.3f} deg, {r['trans_err_m']:.3f} m, "
                  f"gap {r['gap_to_gt']:+.4f}")
    print("host-speed reference kernel: " + ", ".join(
        f"{side} {timing['reference_ms'][side]:.3f} ms" for side in SIDES))
    print(f"byte-identical scene files: {identical_scenes['identical']}/"
          f"{identical_scenes['scenes']} scenes")
    print(f"byte-identical calibrate outputs: {identical['identical']}/{identical['scenes']} scenes")
    print("final cost against the baseline, lower/equal/higher, largest rise: " + ", ".join(
        f"{name} {m['lower']}/{m['equal']}/{m['higher']} {m['max_rise']:+.2%}"
        for name, m in result["final_cost_vs_baseline"].items()))
    print("non-blank source lines: " + ", ".join(
        f"{side} {summary[side]['source_lines']}" for side in SIDES))
    ratios = [(f"{task} {name}", t) for task in ("kernel", "kernel_t_x")
              for name, t in timing[task].items()]
    ratios += [("replay", timing["replay"]), ("calibrate", timing["calibrate"])]
    ratios += [(f"layers {name}", t) for name, t in timing["layers"].items()]
    ratios += [(f"memory {name}", t["memory"]) for name, t in timing["layers"].items()]
    for label, t in ratios:
        print(f"{label}: " + ", ".join(f"{k} x{v:.3f}" for k, v in t["ratio"].items()))
    print("calibrate outside the kernel: " + ", ".join(
        f"{side} {timing['calibrate'][side]['outside_kernel_ms']:.2f} ms" for side in SIDES)
        + f", x{timing['calibrate']['ratio']['outside_kernel_ms']:.3f}")
    for name, t in timing["layers"].items():
        print(f"atlas over box cells, {name}: " + ", ".join(
            f"{side} x{t['memory'][side]['atlas_cells'] / t['memory'][side]['box_cells']:.3f}"
            for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
