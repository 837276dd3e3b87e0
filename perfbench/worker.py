"""One workload run in its own process: a closed loop of CLI calls.

One client issues one operation at a time on a single thread.  An untimed
warm-up operation comes first.  The loop then runs whole passes over the
workload's items until ``seconds`` have passed, so every run measures the
same mix of items.  A traced run first makes one
untraced pass, then traced passes, so that the tracing overhead compares the
same items.  After the loop the worker times the set-up a user pays on
every CLI run (scene read plus cost preparation) on each scene, and uses
that evaluator to check the costs the operations reported.  Operations and
set-ups are timed under ``speed.SpeedProbe``, which gives both their wall
time and their time corrected for the host's speed.

Usage: python3 perfbench/worker.py <config.json>; it writes the result JSON
to the path the config names.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _llc_mb() -> float:
    """Size of the largest CPU cache in MB, read from sysfs (0 when absent)."""
    best = 0.0
    for size_file in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size_file.read_text().strip()
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        best = max(best, float(text.rstrip("KM")) * scale / 1e6)
    return best


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, cfg["src"])
    import semcal.cli
    from semcal.costfield import CostEvaluator
    from semcal.geometry import Extrinsics
    from semcal.io_formats import read_scene_dir, sig6

    import speed
    import tracing
    import workloads

    items, seconds, traced = cfg["items"], cfg["seconds"], cfg["trace"]
    out_root = Path(cfg["work"]) / "out"
    tracer = tracing.Tracer() if traced else None
    probe = speed.SpeedProbe()
    exponent = cfg["speed_exponent"]
    ops: list[dict] = []

    def run_op(item: dict, with_trace: bool) -> None:
        n = len(ops)
        out = out_root / f"{n:05d}"
        argv = item["argv"] + ["--output", str(out)]
        rec = {"key": item["key"], "traced": with_trace, "problems": []}
        probe.start()
        try:
            rc = tracer.call(n, semcal.cli.main, argv) if with_trace else semcal.cli.main(argv)
        except Exception as exc:  # a failed operation is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            rec["wall_s"], rec["s"] = probe.stop(exponent)
        if rc != 0:
            rec["problems"].append(f"exit {rc!r}")
        else:
            try:
                rec.update(workloads.check(item, out))
                rec["digest"] = _digest(out)
            except Exception as exc:  # unreadable output fails the check
                rec["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        ops.append(rec)

    # Imports, allocator growth and first-call costs land on this untimed
    # operation, not on the first timed one.
    try:
        semcal.cli.main(workloads.warmup(items) + ["--output", str(out_root / "warmup")])
    except Exception:  # a broken program fails the timed operations instead
        pass
    shutil.rmtree(out_root / "warmup", ignore_errors=True)
    if traced:
        for item in items:
            run_op(item, False)
        tracer.install()
    t_loop = time.perf_counter()
    try:
        while True:
            for item in items:
                run_op(item, traced)
            if time.perf_counter() - t_loop >= seconds:
                break
    finally:
        if traced:
            tracer.uninstall()

    # Set-up on each scene, then the cost checks and the pose sample with the
    # evaluator that the last set-up built.
    scene_of = {item["key"]: item["scene"] for item in items}
    by_scene: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(ops):
        by_scene[scene_of[rec["key"]]].append(i)
    poses = tracing.sampled_poses(tracer.spans) if traced else {}
    setup_s: list[float] = []
    setup_wall_s: list[float] = []
    shares = {"points": 0, "off_image": 0, "behind_camera": 0}
    for scene, op_ids in by_scene.items():
        for _ in range(cfg["setup_reps"]):
            evaluator = pairs = None  # never hold two evaluators at once
            probe.start()
            try:
                pairs, _, classes = read_scene_dir(scene)
                evaluator = CostEvaluator(pairs, classes)
            finally:
                wall, corrected = probe.stop(workloads.SETUP_SPEED_EXPONENT)
            setup_wall_s.append(wall)
            setup_s.append(corrected)
        for i in op_ids:
            rec = ops[i]
            for field, reported in rec.get("report_costs", {}).items():
                ours = sig6(evaluator.evaluate_total(Extrinsics.from_vector(rec["extrinsics"])))
                if ours != reported:
                    rec["problems"].append(f"report {field} {reported} != evaluator {ours}")
        sample = [p for i in op_ids for p in poses.get(i, [])]
        for pose in sample[:: max(1, len(sample) // 64)]:
            bd = evaluator.evaluate(Extrinsics.from_vector(pose))
            shares["points"] += bd.denominator
            shares["off_image"] += bd.n_out_of_image
            shares["behind_camera"] += bd.n_behind_camera
        del evaluator, pairs

    result = {
        "ops": [{k: v for k, v in rec.items() if k not in ("extrinsics", "report_costs")}
                for rec in ops],
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if traced:
        scene_bytes = {
            scene: sum(p.stat().st_size for p in Path(scene).iterdir())
            for scene in by_scene
        }
        layers = tracing.layer_metrics(tracer.spans, scene_bytes)
        llc = _llc_mb()
        layers.update({
            "workload.llc_mb": llc,
            "workload.field_to_llc": layers["costfield.field_mb"] / llc if llc else 0.0,
            "workload.off_image_share": shares["off_image"] / max(1, shares["points"]),
            "workload.behind_camera_share": shares["behind_camera"] / max(1, shares["points"]),
        })
        # Per item, so that the cold first operation of the run skews one
        # ratio, not the whole comparison.
        untraced = {r["key"]: r["s"] for r in ops if not r["traced"]}
        traced_s = defaultdict(list)
        for r in ops:
            if r["traced"]:
                traced_s[r["key"]].append(r["s"])
        layers["trace.overhead_ratio"] = median(
            median(traced_s[key]) / untraced[key] for key in untraced)
        result["layers"] = layers
        counts = tracing.op_counts(tracer.spans)
        for i, rec in enumerate(ops):
            if rec["traced"]:
                result["ops"][i]["counts"] = counts.get(i, {})
        tracer.dump(cfg["spans"])
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
