"""Command-line interface: synth, init, calibrate, sweep, eval.

Each subcommand reads scene directories and plain-text files, runs one
stage of the calibration pipeline, and writes a structured report plus any
sidecar files (extrinsics, trace CSV, sweep CSV) into the output
directory.  The process exits 0 exactly when the report was fully
written.  Outputs are deterministic for fixed inputs and seeds; wall-clock
timings are only included when ``--with-timings`` is given so reruns stay
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CalibrationError
from .geometry import Extrinsics, wrap_angle
from .io_formats import (
    POSE_FIELDS,
    RunConfig,
    ascii_float,
    ascii_int,
    config_report_fields,
    extrinsics_report_fields,
    fmt6,
    from_file_units,
    parse_classes,
    read_config,
    read_extrinsics,
    read_scene_dir,
    read_scene_spec,
    to_file_units,
    write_csv,
    write_extrinsics,
    write_report,
    write_scene_dir,
)
from .optimizer import calibrate
from .pnp_init import initialize
from .costfield import CostEvaluator
from .synth import SceneSpec, generate

_AXES = tuple(key.rsplit("_", 1)[0] for key in POSE_FIELDS)  # theta_x ... t_z
_MAX_SWEEP_ROWS = 10_000_001  # a sweep of 5,000,000 steps each way


@functools.cache  # once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcal",
        description="Semantic LiDAR-camera extrinsic calibration.",
    )
    parser.add_argument("--version", action="version", version=f"semcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--output", default=".", help="output directory (default: .)")
    report.add_argument(
        "--with-timings", action="store_true",
        help="include wall-clock timings in the report (breaks byte-identical reruns)",
    )
    selection = argparse.ArgumentParser(add_help=False)
    selection.add_argument("--classes", help="comma-separated class ids, e.g. 1,2,3")
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("data_dir", help="scene directory")
    scene.add_argument("--config", help="key = value config file; flags win")
    scene.add_argument(
        "--threads", type=ascii_int,
        help="ignored: accepted for compatibility; the cost kernel runs on one thread",
    )

    p = sub.add_parser("synth", parents=[selection, report],
                       help="generate a synthetic scene with known ground truth")
    p.add_argument("--spec", help="scene-spec file; omitted fields use defaults")
    p.add_argument("--seed", type=ascii_int, help="random seed override")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", parents=[scene, selection, report],
                       help="estimate initial extrinsics from class centroids")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("calibrate", parents=[scene, selection, report],
                       help="full calibration: initialization plus refinement")
    p.add_argument("--init", dest="init_file", help="extrinsics file to start from")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", parents=[scene, selection, report],
                       help="cost curve along one parameter around a reference")
    p.add_argument("--gt", required=True, help="reference extrinsics file")
    p.add_argument("--axis", required=True, choices=_AXES)
    p.add_argument(
        "--range", dest="span", required=True, type=ascii_float,
        help="half-width of the sweep (degrees for theta axes, meters for t axes)",
    )
    p.add_argument(
        "--interval", required=True, type=ascii_float,
        help="grid step (degrees for theta axes, meters for t axes)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", parents=[report],
                       help="per-parameter signed errors of an estimate against GT")
    p.add_argument("--estimated", required=True, help="estimated extrinsics file")
    p.add_argument("--gt", required=True, help="ground-truth extrinsics file")
    p.set_defaults(func=cmd_eval)

    return parser


def _prepare(args) -> tuple[dict, CostEvaluator]:
    """The report's config fields and the run's one prepared cost kernel.

    The config file comes first and ``--classes`` overrides it.  A class
    list left unset is taken from the scene manifest.  A requested class
    with cloud points but no pixel in any image adds ``classes_without_pixels``.
    """
    cfg = read_config(args.config) if args.config else RunConfig()
    if args.classes is not None:
        cfg = replace(cfg, classes=parse_classes("--classes", args.classes))
    pairs, _, manifest_classes = read_scene_dir(
        args.data_dir, cloud_remap=cfg.cloud_remap, image_remap=cfg.image_remap
    )
    if cfg.classes is None:
        if manifest_classes is None:
            raise CalibrationError(
                "no class list: pass --classes, set it in the config, or provide a "
                "scene.txt manifest"
            )
        cfg = replace(cfg, classes=manifest_classes)
    evaluator = CostEvaluator(pairs, cfg.classes)
    fields = {"config": config_report_fields(cfg)}
    if evaluator.classes_without_pixels:
        fields["classes_without_pixels"] = ",".join(map(str, evaluator.classes_without_pixels))
    return fields, evaluator


def _check_output(out: Path) -> None:
    """Fail before any work when ``--output`` cannot be made a directory:
    it, or its nearest existing ancestor, is not one."""
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise CalibrationError(f"--output {out}: {existing} is not a directory")


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands: each writes its sidecar files and returns the name of its
# report, the report's body and the wall-clock timings of its stages


def cmd_synth(args) -> tuple[str, dict, dict]:
    spec = read_scene_spec(args.spec) if args.spec else SceneSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.classes is not None:
        spec = replace(spec, classes=parse_classes("--classes", args.classes))
    scene = generate(spec)
    write_scene_dir(args.output, scene.pairs, spec.intrinsics, spec.classes,
                    gt=scene.extrinsics)
    return "synth_report", {
        "seed": spec.seed,
        "n_frames": spec.n_frames,
        "objects_per_frame": spec.objects_per_frame,
        "classes": ",".join(str(c) for c in spec.classes),
        "noise_rate": spec.noise_rate,
        "n_label_flips": int(sum(scene.noise_flips)),
        "gt_extrinsics": extrinsics_report_fields(scene.extrinsics),
        "frames": {
            pair.frame_id: {"n_points": int(pair.cloud.points.shape[0])}
            for pair in scene.pairs
        },
    }, {}


def _init_report_block(result) -> dict:
    plane, ps = result.plane, result.pair_set
    rows = zip(ps.frame_ids, ps.class_ids, ps.pixels_2d, result.projected, result.residual_px)
    return {
        "n_centroid_pairs": len(ps),
        "plane": {
            "normal_x": plane.normal[0],
            "normal_y": plane.normal[1],
            "normal_z": plane.normal[2],
            "offset": plane.offset,
            "n_inliers": int(plane.inliers.size),
            "rms_m": plane.rms,
        },
        "candidates": {
            "candidate_0": {
                "cost": result.cost,
                "cheirality": result.cheirality,
                "reprojection_rms_px": result.rms,
            },
        },
        "estimate": extrinsics_report_fields(result.extrinsics),
        "centroid_reprojection": {
            f"row_{i}": {
                "frame": frame_id,
                "class": int(class_id),
                "centroid_u": u,
                "centroid_v": v,
                "projected_u": pu if np.isfinite(pu) else "none",
                "projected_v": pv if np.isfinite(pv) else "none",
                "residual_px": residual if np.isfinite(residual) else "inf",
            }
            for i, (frame_id, class_id, (u, v), (pu, pv), residual) in enumerate(rows)
        },
    }


def cmd_init(args) -> tuple[str, dict, dict]:
    scene_fields, evaluator = _prepare(args)
    result = initialize(evaluator)
    write_extrinsics(_out_dir(args) / "init_extrinsics.txt", result.extrinsics)
    return "init_report", {
        **scene_fields,
        "n_pairs": len(evaluator.pairs),
        **_init_report_block(result),
    }, {}


def _breakdown_block(breakdown) -> dict:
    return {
        "total": breakdown.total,
        "numerator": breakdown.numerator,
        "denominator": breakdown.denominator,
        "per_class": {
            f"class_{cid}": num / den if den else 0.0
            for cid, (num, den) in breakdown.per_class.items()
        },
        "counts": {
            "consistent": int(breakdown.n_consistent),
            "inconsistent": int(breakdown.n_inconsistent),
            "behind_camera": int(breakdown.n_behind_camera),
            "out_of_image": int(breakdown.n_out_of_image),
            "empty_field": int(breakdown.n_empty_field),
        },
    }


def cmd_calibrate(args) -> tuple[str, dict, dict]:
    scene_fields, evaluator = _prepare(args)
    timings: dict[str, float] = {}

    if args.init_file:
        start = read_extrinsics(args.init_file)
        init_block: dict = {"source": "file", "estimate": extrinsics_report_fields(start)}
    else:
        t_init = time.perf_counter()
        result = initialize(evaluator)
        timings["init_s"] = time.perf_counter() - t_init
        start = result.extrinsics
        init_block = {"source": "pipeline", **_init_report_block(result)}

    t_opt = time.perf_counter()
    estimate, breakdown, trace = calibrate(evaluator, start)
    timings["optimize_s"] = time.perf_counter() - t_opt

    out = _out_dir(args)
    write_extrinsics(out / "estimated_extrinsics.txt", estimate)
    write_csv(
        out / "trace.csv",
        ("iteration", *POSE_FIELDS, "cost"),
        [(str(it), *to_file_units(x), cost) for it, x, cost in trace.points],
    )
    return "calibration_report", {
        **scene_fields,
        "n_pairs": len(evaluator.pairs),
        "initialization": init_block,
        "estimate": extrinsics_report_fields(estimate),
        "cost": _breakdown_block(breakdown),
        "trace": {
            "termination": trace.termination,
            "n_evaluations": int(trace.n_evaluations),
            "n_repeated": int(trace.n_repeated),
            "n_probe_evaluations": int(trace.n_probe),
            "n_points": len(trace.points),
            "initial_cost": trace.points[0][2],
            "final_cost": trace.points[-1][2],
        },
        "pairs": {
            frame_id: {
                "cost": pb.total,
                "n_inconsistent": int(pb.n_inconsistent),
                "n_behind_camera": int(pb.n_behind_camera),
            }
            for frame_id, pb in sorted(breakdown.per_pair.items())
        },
    }, timings


def cmd_sweep(args) -> tuple[str, dict, dict]:
    if not (0 < args.span < math.inf and 0 < args.interval < math.inf):
        raise CalibrationError("--range and --interval must be positive and finite")
    ratio = args.span / args.interval  # inf when the quotient overflows
    if not 0.5 < ratio < _MAX_SWEEP_ROWS / 2:  # so 1 <= n_steps and 2 * n_steps + 1 rows fit
        raise CalibrationError(f"--range / --interval must give 3 to {_MAX_SWEEP_ROWS:,} rows")
    n_steps = round(ratio)
    scene_fields, evaluator = _prepare(args)
    reference = read_extrinsics(args.gt)

    axis_idx = _AXES.index(args.axis)
    unit = POSE_FIELDS[axis_idx].rsplit("_", 1)[1]
    displacements = [k * args.interval for k in range(-n_steps, n_steps + 1)]

    # every row's pose in one (rows, 6) table: the displacement, converted, plus the reference
    vectors = from_file_units(np.outer(displacements, np.eye(6)[axis_idx]))
    vectors += reference.to_vector()
    costs = [evaluator.evaluate_total(Extrinsics.from_vector(vector)) for vector in vectors]
    best = int(np.argmin(costs))  # the first of equal minima

    csv_name = f"sweep_{args.axis}.csv"
    write_csv(_out_dir(args) / csv_name, (f"displacement_{unit}", "cost"), zip(displacements, costs))
    return "sweep_report", {
        **scene_fields,
        "axis": args.axis,
        "unit": unit,
        "range": args.span,
        "interval": args.interval,
        "n_rows": len(costs),
        "csv": csv_name,
        "min_cost": costs[best],
        "argmin_displacement": displacements[best],
        "cost_at_zero": costs[n_steps],
    }, {}


def cmd_eval(args) -> tuple[str, dict, dict]:
    est = read_extrinsics(args.estimated).to_vector()
    ref = read_extrinsics(args.gt).to_vector()
    deltas = [wrap_angle(est[i] - ref[i]) for i in range(3)] + [
        est[i] - ref[i] for i in range(3, 6)
    ]
    errors = {f"d_{key}": val for key, val in zip(POSE_FIELDS, to_file_units(deltas))}

    print(f"{'parameter':<14}{'error':>14}")
    for name, val in errors.items():
        print(f"{name:<14}{fmt6(val):>14}")

    return "eval_report", {
        "estimated_file": str(args.estimated),
        "gt_file": str(args.gt),
        "errors": errors,
    }, {}


def main(argv=None) -> int:
    """Run one subcommand and write its ``report.txt``: ``version`` first and,
    under ``--with-timings``, ``timings`` last, with ``total_s`` covering the
    whole subcommand and its sidecar files."""
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_output(Path(args.output))
        name, body, timings = args.func(args)
        timings["total_s"] = time.perf_counter() - t0
        if args.with_timings:
            body["timings"] = timings
        write_report(_out_dir(args) / "report.txt", {name: {"version": __version__, **body}})
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the readers turn theirs into FormatError
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
