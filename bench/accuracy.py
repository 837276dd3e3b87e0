"""Accuracy and per-layer speed of a baseline revision against the working tree.

    python3 bench/accuracy.py --baseline REV [--out BENCH_eval_loop.json]

Run it from the repository root.  It writes three sets of criterion-6-style
scenes (4 objects of 100 points, 2% label noise, depths 2.5-16 m, the
criterion-6 ground truth) once:

- ``dev``: 10 frames, seeds 0-23, the scenes that tuning looks at;
- ``held_out``: 10 frames, seeds 24-47, kept out of tuning;
- ``frames20``: 20 frames, seeds 0-11.

For each side -- REV, exported with ``git archive`` into a temporary
directory, and the working tree's ``src/`` -- one process runs ``semcal
calibrate`` on every scene.  Per scene the JSON records the evaluations, the
samples served by the optimizer's memo (``n_repeated``) and those of the
probe stage (``n_probe``; both null where the side's report has no such
line), the rotation (degrees) and translation
(meters) errors, whether both lie in the criterion-6 band (1 degree, 0.1 m),
the final cost, the cost at the ground truth, the relative gap between the
two, the wall time and a SHA-256 digest of the scene's output files (names
and bytes).  ``identical_outputs`` counts the scenes whose digests agree
between the two sides.

``summary`` gives, per side, the numbers an accuracy gate reads:

- ``criterion_6``: scenes in band among dev seeds 0-9 and among 20-frame
  seeds 0-9, the scenes of acceptance criterion 6;
- ``untuned_in_band``: scenes in band among the held-out and 20-frame sets;
- ``evaluations``: the evaluations over all scenes;
- ``median_gap_to_gt``: per set, the median relative gap to the cost at the
  ground truth.

The timings run in one more process that loads both sides' packages side by
side.  Each of ``ROUNDS`` rounds times every task once per side, the sides in
alternating order, so the host's speed steps hit both alike.  Per task the
JSON keeps each side's median, every round's ratio change / baseline and the
median of those ratios:

- ``kernel``: microseconds per ``evaluate_total`` over 300 poses near the
  ground truth, each with its own rotation, on calib-c6 scene 8 and
  sweep-clean scene 0.  A side's round repeats the poses until it has
  taken ``ROUND_S`` seconds: one pass of 30-70 ms is shorter than the
  host's speed swings, and unchanged code then read ratios of 0.78-1.25;
- ``replay``: microseconds per ``evaluate_total`` over the poses the
  baseline's ``calibrate`` sends it on calib-c6 scene 8, repeats included.
  Here and in ``kernel`` each round times a freshly built evaluator: with
  one evaluator per side for all rounds, unchanged code read a median
  ratio of 1.06, with 9 of 10 rounds above 1, a bias rounds cannot cancel;
- ``calibrate``: seconds of ``calibrate`` from the initialization on
  calib-c6 scene 8;
- ``layers``: on calib-c6 scene 8 and init-wide scene 0, the milliseconds
  spent in ``build_distance_field`` per (frame, class) field (one call may
  build the fields of several frames), the seconds of
  the whole ``CostEvaluator`` construction, and the seconds of
  ``initialize`` given that evaluator.  A round builds ``BUILDS``
  evaluators per side, alternating sides, and keeps each side's medians:
  with one build per round, the ratios of unchanged code ran from 0.71
  to 1.12.

Every process pins BLAS and OpenMP to one thread.  The timing scenes live in
memory as float64 clouds, so their evaluation counts differ from those of the
same scenes read back from disk as float32.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SCENE_SETS = {  # name: (frames, seeds)
    "dev": (10, range(24)),
    "held_out": (10, range(24, 48)),
    "frames20": (20, range(12)),
}
BAND_DEG, BAND_M = 1.0, 0.1
GT = ((1.0, -2.0, 3.0), (0.2, -0.1, 0.1))  # degrees, meters
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
}
POSES, ROUNDS, BUILDS, ROUND_S = 300, 10, 5, 0.5
SIDES = ("baseline", "change")


# semcal is imported inside the functions: which copy is imported depends on
# the PYTHONPATH each side's process is started with.
def _gt():
    import numpy as np
    from semcal.geometry import Extrinsics, RotationAngles, Translation

    return Extrinsics(RotationAngles(*np.radians(GT[0])), Translation(*GT[1]))


def _spec(**kwargs):
    from semcal.synth import SceneSpec

    return SceneSpec(extrinsics=_gt(), depth_range=DEPTH, **kwargs)


def write_scenes(root: Path) -> None:
    """Write every scene set with the working tree's generator."""
    from semcal.io_formats import write_scene_dir
    from semcal.synth import generate

    for name, (frames, seeds) in SCENE_SETS.items():
        for seed in seeds:
            spec = _spec(n_frames=frames, objects_per_frame=4, points_per_object=100,
                         noise_rate=0.02, seed=seed)
            write_scene_dir(root / name / f"scene_{seed:02d}", generate(spec).pairs,
                            spec.intrinsics, spec.classes, gt=_gt())


def calibrate_set(scenes: list[Path], out_root: Path) -> dict:
    """Calibrate every scene with the semcal on sys.path."""
    import numpy as np
    import semcal.cli
    from semcal.costfield import CostEvaluator
    from semcal.geometry import wrap_angle
    from semcal.io_formats import read_extrinsics, read_report, read_scene_dir

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
        pairs, _, classes = read_scene_dir(scene)
        gt_cost = CostEvaluator(pairs, classes).evaluate_total(
            read_extrinsics(scene / "gt_extrinsics.txt"))
        final_cost = report["cost"]["total"]
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        runs.append({
            "scene": scene.name,
            "evaluations": report["trace"]["n_evaluations"],
            "n_repeated": report["trace"].get("n_repeated"),
            "n_probe": report["trace"].get("n_probe_evaluations"),
            "rot_err_deg": rot,
            "trans_err_m": trans,
            "in_band": rot <= BAND_DEG and trans <= BAND_M,
            "final_cost": final_cost,
            "gt_cost": gt_cost,
            "gap_to_gt": (final_cost - gt_cost) / gt_cost,
            "wall_s": wall,
            "digest": digest.hexdigest(),
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
                   if seeds is None or int(r["scene"].split("_")[1]) in seeds)

    return {
        "criterion_6": {"dev": in_band("dev", range(10)),
                        "frames20": in_band("frames20", range(10))},
        "untuned_in_band": in_band("held_out") + in_band("frames20"),
        "untuned_scenes": len(sets["held_out"]["scenes"]) + len(sets["frames20"]["scenes"]),
        "evaluations": sum(s["evaluations"] for s in sets.values()),
        "median_gap_to_gt": {name: median(r["gap_to_gt"] for r in s["scenes"])
                             for name, s in sets.items()},
    }


def _load(src: Path, name: str):
    """The ``semcal`` package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "semcal" / "__init__.py", submodule_search_locations=[str(src / "semcal")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("costfield", "optimizer",
                                                                   "pnp_init")}


def _interleave(tasks: dict, repeats: int = 1) -> dict:
    """Time ``tasks[side]()`` for both sides over ROUNDS rounds.

    Each call returns a dict of timings.  A round calls each side
    ``repeats`` times, the sides in alternating order, and keeps each
    side's medians; the result keeps each side's medians over the rounds,
    the change / baseline ratio of every round and their median.
    """
    rounds = []
    for i in range(ROUNDS):
        calls = {side: [] for side in SIDES}
        for j in range(repeats):
            for side in SIDES if (i + j) % 2 == 0 else SIDES[::-1]:
                calls[side].append(tasks[side]())
        rounds.append({side: {k: median(c[k] for c in cs) for k in cs[0]}
                       for side, cs in calls.items()})
    keys = rounds[0]["baseline"]
    ratios = {k: [r["change"][k] / r["baseline"][k] for r in rounds] for k in keys}
    return {
        **{side: {k: median(r[side][k] for r in rounds) for k in keys} for side in SIDES},
        "ratio": {k: median(v) for k, v in ratios.items()},
        "round_ratios": ratios,
    }


def time_sides(srcs: dict) -> dict:
    """Interleaved kernel, replay, calibrate and layer timings of both sides."""
    import numpy as np
    from semcal.geometry import Extrinsics
    from semcal.synth import generate

    mods = {side: _load(src, f"semcal_{side}") for side, src in srcs.items()}
    gt = np.asarray(_gt().to_vector())
    rng = np.random.default_rng(0)
    poses = [Extrinsics.from_vector(gt + np.concatenate([rng.normal(scale=0.03, size=3),
                                                         rng.normal(scale=0.2, size=3)]))
             for _ in range(POSES)]

    def per_eval(side, pairs, classes, seq):
        def run():
            evaluator = mods[side]["costfield"].CostEvaluator(pairs, classes)
            n, t0 = 0, time.perf_counter()
            while (spent := time.perf_counter() - t0) < ROUND_S or not n:
                for pose in seq:
                    evaluator.evaluate_total(pose)
                n += len(seq)
            return {"us_per_eval": spent / n * 1e6}
        return run

    result = {"kernel": {}, "layers": {}}
    for name, kwargs in KERNEL_SCENES.items():
        spec = _spec(**kwargs)
        pairs = generate(spec).pairs
        points = mods["change"]["costfield"].CostEvaluator(pairs, spec.classes).denominator
        result["kernel"][name] = {"points": points, **_interleave(
            {s: per_eval(s, pairs, spec.classes, poses) for s in SIDES})}

    spec = _spec(**C6_SCENE_8)
    pairs = generate(spec).pairs
    evaluators = {s: m["costfield"].CostEvaluator(pairs, spec.classes) for s, m in mods.items()}
    start = mods["change"]["pnp_init"].initialize(evaluators["change"]).extrinsics
    sent, evaluate_total = [], evaluators["baseline"].evaluate_total
    evaluators["baseline"].evaluate_total = lambda ext: sent.append(ext) or evaluate_total(ext)
    mods["baseline"]["optimizer"].calibrate(evaluators["baseline"], start)
    del evaluators["baseline"].evaluate_total
    result["replay"] = {"poses": len(sent), **_interleave(
        {s: per_eval(s, pairs, spec.classes, sent) for s in SIDES})}

    def calibrate(side):
        def run():
            t0 = time.perf_counter()
            _, _, trace = mods[side]["optimizer"].calibrate(evaluators[side], start)
            return {"s": time.perf_counter() - t0, "evaluations": trace.n_evaluations}
        return run

    result["calibrate"] = _interleave({s: calibrate(s) for s in SIDES})
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

    for name, kwargs in LAYER_SCENES.items():
        spec = _spec(**kwargs)
        pairs = generate(spec).pairs
        result["layers"][name] = {"fields": len(pairs) * len(spec.classes), **_interleave(
            {s: layers(s, pairs, spec.classes) for s in SIDES}, repeats=BUILDS)}
    return result


def _run(*task: str, out: Path, src: Path):
    """Run one hidden task of this script in a process with one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, *task, str(out)], env=env, check=True)
    return json.loads(out.read_text())


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="git revision to compare against")
    parser.add_argument("--out", default="BENCH_eval_loop.json", help="JSON file to write")
    parser.add_argument("--calibrate", nargs=2, metavar=("SCENES", "OUT"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--timing", nargs=3, metavar=("BASELINE_SRC", "CHANGE_SRC", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.calibrate:
        scenes, out = map(Path, args.calibrate)
        with tempfile.TemporaryDirectory() as tmp:
            out.write_text(json.dumps(calibrate_all(scenes, Path(tmp))))
        return 0
    if args.timing:
        *srcs, out = map(Path, args.timing)
        out.write_text(json.dumps(time_sides(dict(zip(SIDES, srcs)))))
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
        srcs = dict(zip(SIDES, (tmp / "baseline" / "src", ROOT / "src")))
        accuracy = {side: _run("--calibrate", str(scenes), out=tmp / "side.json", src=src)
                    for side, src in srcs.items()}
        timing = _run("--timing", *map(str, srcs.values()), out=tmp / "timing.json",
                      src=ROOT / "src")
    digests = [[r["digest"] for name in SCENE_SETS for r in accuracy[side][name]["scenes"]]
               for side in SIDES]
    identical = {"scenes": len(digests[0]),
                 "identical": sum(a == b for a, b in zip(*digests))}
    summary = {side: summarize(sets) for side, sets in accuracy.items()}
    result = {
        "what": "criterion-6-style calibrate on 10-frame scenes (seeds 0-23 dev, 24-47 "
                "held out) and 20-frame scenes (seeds 0-11), with 2% label noise; "
                "interleaved timings of evaluate_total, calibrate, field build, evaluator "
                "construction and initialize",
        "baseline_rev": baseline,
        "change_rev": _git("rev-parse", "HEAD")
        + ("+dirty" if _git("status", "--porcelain", "src") else ""),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "summary": summary,
        "accuracy": accuracy,
        "identical_outputs": identical,
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
              f"{gate['evaluations']} evaluations; median gap to the ground-truth cost "
              + ", ".join(f"{k} {v:+.4f}" for k, v in gate["median_gap_to_gt"].items()))
    print(f"byte-identical calibrate outputs: {identical['identical']}/{identical['scenes']} scenes")
    ratios = [(f"kernel {name}", t) for name, t in timing["kernel"].items()]
    ratios += [("replay", timing["replay"]), ("calibrate", timing["calibrate"])]
    ratios += [(f"layers {name}", t) for name, t in timing["layers"].items()]
    for label, t in ratios:
        print(f"{label}: " + ", ".join(f"{k} x{v:.3f}" for k, v in t["ratio"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
