"""Spans around calls into semcal's modules, recorded from outside the package.

The tracer replaces a function with a timing wrapper at the name its callers
look it up by (``semcal.cli.calibrate``, the methods of
``semcal.costfield.CostEvaluator``, ...), so the package itself carries no
instrumentation.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from statistics import median

POSE_STRIDE = 32  # keep every 32nd pose passed to evaluate_total

# (module, attribute, span name): the layer is the span name's first part.
_FUNCTIONS = (
    ("semcal.cli", "read_scene_dir", "io_formats.read_scene_dir"),
    ("semcal.cli", "write_extrinsics", "io_formats.write_extrinsics"),
    ("semcal.cli", "write_report", "io_formats.write_report"),
    ("semcal.cli", "write_csv", "io_formats.write_csv"),
    ("semcal.cli", "initialize", "pnp_init.initialize"),
    ("semcal.pnp_init", "collect_centroid_pairs", "pnp_init.collect_centroid_pairs"),
    ("semcal.pnp_init", "ransac_plane", "pnp_init.ransac_plane"),
    ("semcal.cli", "calibrate", "optimizer.calibrate"),
    ("semcal.optimizer", "powell_minimize", "optimizer.powell_minimize"),
    ("semcal.costfield", "build_distance_field", "costfield.build_distance_field"),
)
_METHODS = (
    ("__init__", "costfield.CostEvaluator"),
    ("evaluate_total", "costfield.evaluate_total"),
    ("evaluate", "costfield.evaluate"),
)
LAYERS = ("cli", "io_formats", "costfield", "pnp_init", "optimizer")
TERMINATIONS = ("converged", "stalled", "max_iterations")


def _extra(name: str, args, out):
    """What a span keeps of its call beyond its times."""
    if name == "io_formats.read_scene_dir":
        return str(args[0])
    if name == "pnp_init.collect_centroid_pairs":
        return len(out)
    if name == "optimizer.calibrate":
        return out[2].n_evaluations
    if name == "optimizer.powell_minimize":
        return [out[2].n_evaluations, out[2].termination]
    if name == "costfield.build_distance_field":
        return out.d.nbytes
    if name == "costfield.CostEvaluator":
        return args[0].denominator
    return None


class Tracer:
    """Records one span per wrapped call: op id, parent, name, start, end,
    whether it raised, and a small extra value."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._evals_in_op = 0

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if name == "costfield.evaluate_total":
                n = self._evals_in_op
                self._evals_in_op = n + 1
                rec[6] = [out, args[1].to_vector().tolist() if n % POSE_STRIDE == 0 else None]
            else:
                rec[6] = _extra(name, args, out)
            return out

        return wrapper

    def install(self) -> None:
        import importlib

        import semcal.costfield

        for module, attr, name in _FUNCTIONS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, name)
        for attr, name in _METHODS:
            self._patch(semcal.costfield.CostEvaluator, attr, name)

    def _patch(self, owner, attr, name) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, op: int, main, argv) -> int:
        """Run one operation under a root ``cli.main`` span."""
        self.op = op
        self._evals_in_op = 0
        try:
            return self._wrap("cli.main", main)(argv)
        finally:
            self.op = -1

    def dump(self, path) -> None:
        keys = ("op", "parent", "name", "start", "end", "raised", "extra")
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, rec))}) + "\n")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def layer_metrics(spans: list[list], scene_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of the traced operations.

    Counts and self times are means per operation; per-call durations are
    medians over the calls.  ``scene_bytes`` maps a scene directory to the
    total size of its files, which gives the bytes each scene read covers.
    """
    child_time = [0.0] * len(spans)
    calib_of = [-1] * len(spans)
    for i, (_, parent, name, start, end, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            calib_of[i] = calib_of[parent]
        if name == "optimizer.calibrate":
            calib_of[i] = i

    ops = sorted({rec[0] for rec in spans})
    per_op: dict[int, Counter] = {op: Counter() for op in ops}
    calls, raised = Counter(), Counter()
    durs: dict[str, list[float]] = defaultdict(list)
    field_bytes: dict[int, int] = Counter()
    field_count: dict[int, int] = Counter()
    running_min: dict[int, float] = {}
    improving = n_calib_evals = 0
    for i, (op, parent, name, start, end, did_raise, extra) in enumerate(spans):
        dur = end - start
        layer = name.split(".")[0]
        acc = per_op[op]
        acc[f"{layer}.self_s"] += dur - child_time[i]
        calls[layer] += 1
        raised[layer] += did_raise
        durs[name].append(dur)
        acc[name] += dur
        acc[name + "#n"] += 1
        if name == "io_formats.read_scene_dir":
            acc["read_bytes"] += scene_bytes.get(extra, 0)
        elif name == "costfield.build_distance_field":
            if parent >= 0:
                field_bytes[parent] += extra
                field_count[parent] += 1
        elif name == "costfield.evaluate_total" and calib_of[i] >= 0 and not did_raise:
            c = calib_of[i]
            value = extra[0]
            n_calib_evals += 1
            if c not in running_min or value < running_min[c]:
                running_min[c] = value
                improving += 1
        elif name == "optimizer.calibrate" and extra is not None:
            acc["optimizer.evals"] += extra
        elif name == "optimizer.powell_minimize" and extra is not None:
            acc["optimizer.powell_evals"] += extra[0]
            acc["optimizer.termination." + extra[1]] += 1
        elif name == "pnp_init.collect_centroid_pairs" and extra is not None:
            acc["pnp_init.centroid_pairs"] += extra

    n_ops = len(ops)

    def per_op_mean(key):
        return _mean(per_op[op][key] for op in ops)

    op_time = sum(per_op[op]["cli.main"] for op in ops)
    eval_time = sum(per_op[op]["costfield.evaluate_total"] + per_op[op]["costfield.evaluate"]
                    for op in ops)
    build_time = sum(per_op[op]["costfield.build_distance_field"] for op in ops)
    points = _med(rec[6] for rec in spans if rec[2] == "costfield.CostEvaluator"
                  and rec[6] is not None)
    eval_us = _med(durs["costfield.evaluate_total"]) * 1e6
    m = {
        "ops": n_ops,
        "io_formats.read_scene_s": per_op_mean("io_formats.read_scene_dir"),
        "io_formats.read_mb": per_op_mean("read_bytes") / 1e6,
        "io_formats.write_s": _mean(
            sum(per_op[op][f"io_formats.write_{w}"] for w in ("extrinsics", "report", "csv"))
            for op in ops),
        "costfield.evaluators_built": per_op_mean("costfield.CostEvaluator#n"),
        "costfield.fields_built": per_op_mean("costfield.build_distance_field#n"),
        "costfield.field_build_ms": _med(durs["costfield.build_distance_field"]) * 1e3,
        "costfield.field_mb": _med(field_bytes.values()) / 1e6,
        "costfield.field_build_share": build_time / op_time if op_time else 0.0,
        "costfield.evals": per_op_mean("costfield.evaluate_total#n"),
        "costfield.eval_us": eval_us,
        "costfield.eval_ns_per_point": eval_us * 1e3 / points if points else 0.0,
        "costfield.eval_busy_share": eval_time / op_time if op_time else 0.0,
        "costfield.breakdown_ms": _med(durs["costfield.evaluate"]) * 1e3,
        "pnp_init.initialize_s": per_op_mean("pnp_init.initialize"),
        "pnp_init.ransac_ms": _med(durs["pnp_init.ransac_plane"]) * 1e3,
        "pnp_init.centroid_pairs": per_op_mean("pnp_init.centroid_pairs"),
        "optimizer.calibrate_s": per_op_mean("optimizer.calibrate"),
        "optimizer.evals": per_op_mean("optimizer.evals"),
        "optimizer.powell_evals": per_op_mean("optimizer.powell_evals"),
        "optimizer.probe_evals": per_op_mean("optimizer.evals")
        - per_op_mean("optimizer.powell_evals"),
        "optimizer.powell_runs": per_op_mean("optimizer.powell_minimize#n"),
        "optimizer.improving_eval_share": improving / n_calib_evals if n_calib_evals else 0.0,
        "workload.points_per_eval": points,
        "workload.fields": _med(field_count.values()),
    }
    for reason in TERMINATIONS:
        m[f"optimizer.termination.{reason}"] = per_op_mean(f"optimizer.termination.{reason}")
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] / n_ops if n_ops else 0.0
        m[f"{layer}.self_s"] = per_op_mean(f"{layer}.self_s")
        m[f"{layer}.raised"] = raised[layer]
    return m


def op_counts(spans: list[list]) -> dict[int, dict[str, int]]:
    """Deterministic counts of each traced operation, for the rerun check."""
    out: dict[int, Counter] = defaultdict(Counter)
    for op, _, name, _, _, _, extra in spans:
        if name == "costfield.build_distance_field":
            out[op]["costfield.fields_built"] += 1
        elif name == "costfield.evaluate_total":
            out[op]["costfield.evals"] += 1
        elif name == "optimizer.calibrate" and extra is not None:
            out[op]["optimizer.evals"] += extra
    return {op: dict(c) for op, c in out.items()}


def sampled_poses(spans: list[list]) -> dict[int, list[list[float]]]:
    """Poses kept from evaluate_total calls, grouped by operation."""
    out: dict[int, list] = defaultdict(list)
    for op, _, name, _, _, _, extra in spans:
        if name == "costfield.evaluate_total" and extra is not None and extra[1] is not None:
            out[op].append(extra[1])
    return out
