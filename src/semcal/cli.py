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
    RunConfig,
    config_report_fields,
    extrinsics_report_fields,
    fmt6,
    from_file_units,
    parse_classes,
    read_config,
    read_extrinsics,
    read_scene_dir,
    read_scene_spec,
    sig6,
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

_AXES = ("theta_x", "theta_y", "theta_z", "t_x", "t_y", "t_z")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcal",
        description="Semantic LiDAR-camera extrinsic calibration.",
    )
    parser.add_argument("--version", action="version", version=f"semcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--classes", help="comma-separated class ids, e.g. 1,2,3")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument(
            "--threads", type=int,
            help="ignored: accepted for compatibility; the cost kernel runs on one thread",
        )
        p.add_argument("--output", default=".", help="output directory (default: .)")
        p.add_argument(
            "--with-timings", action="store_true",
            help="include wall-clock timings in the report (breaks byte-identical reruns)",
        )

    p = sub.add_parser("synth", help="generate a synthetic scene with known ground truth")
    p.add_argument("--spec", help="scene-spec file; omitted fields use defaults")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="estimate initial extrinsics from class centroids")
    p.add_argument("data_dir", help="scene directory")
    common(p)
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("calibrate", help="full calibration: initialization plus refinement")
    p.add_argument("data_dir", help="scene directory")
    p.add_argument("--init", dest="init_file", help="extrinsics file to start from")
    common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="cost curve along one parameter around a reference")
    p.add_argument("data_dir", help="scene directory")
    p.add_argument("--gt", required=True, help="reference extrinsics file")
    p.add_argument("--axis", required=True, choices=_AXES)
    p.add_argument(
        "--range", dest="span", required=True, type=float,
        help="half-width of the sweep (degrees for theta axes, meters for t axes)",
    )
    p.add_argument(
        "--interval", required=True, type=float,
        help="grid step (degrees for theta axes, meters for t axes)",
    )
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="per-parameter signed errors of an estimate against GT")
    p.add_argument("data_dir", nargs="?", help="scene directory (echoed, not required)")
    p.add_argument("--estimated", required=True, help="estimated extrinsics file")
    p.add_argument("--gt", required=True, help="ground-truth extrinsics file")
    common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def _prepare(args) -> tuple[RunConfig, CostEvaluator]:
    """The run's config and its one prepared cost kernel, shared by init and refinement.

    The config file comes first and flags override it; ``RunConfig`` checks
    every field before the scene is read.  A class list left unset is taken
    from the scene manifest.
    """
    cfg = read_config(args.config) if args.config else RunConfig()
    if args.classes is not None:
        cfg = replace(cfg, classes=parse_classes("--classes", args.classes))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
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
    return cfg, CostEvaluator(pairs, cfg.classes, range_weighting=cfg.range_weighting)


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(out: Path, report_name: str, report: dict, timings: dict, args) -> int:
    if args.with_timings:
        key = next(iter(report))
        report[key]["timings"] = {name: sig6(dt) for name, dt in timings.items()}
    write_report(out / report_name, report)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    spec = read_scene_spec(args.spec) if args.spec else SceneSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.classes is not None:
        spec = replace(spec, classes=parse_classes("--classes", args.classes))
    scene = generate(spec)
    out = _out_dir(args)
    write_scene_dir(out, scene.pairs, spec.intrinsics, spec.classes, gt=scene.extrinsics)
    report = {
        "synth_report": {
            "version": __version__,
            "seed": spec.seed,
            "n_frames": spec.n_frames,
            "objects_per_frame": spec.objects_per_frame,
            "classes": ",".join(str(c) for c in spec.classes),
            "noise_rate": sig6(spec.noise_rate),
            "n_label_flips": int(sum(scene.noise_flips)),
            "gt_extrinsics": extrinsics_report_fields(scene.extrinsics),
            "frames": {
                pair.frame_id: {"n_points": int(pair.cloud.points.shape[0])}
                for pair in scene.pairs
            },
        }
    }
    return _finish(out, "report.txt", report, {"total_s": time.perf_counter() - t0}, args)


def _init_report_block(result) -> dict:
    plane, ps = result.plane, result.pair_set
    rows = zip(ps.frame_ids, ps.class_ids, ps.pixels_2d, result.projected, result.residual_px)
    return {
        "n_centroid_pairs": len(ps),
        "plane": {
            "normal_x": sig6(plane.normal[0]),
            "normal_y": sig6(plane.normal[1]),
            "normal_z": sig6(plane.normal[2]),
            "offset": sig6(plane.offset),
            "n_inliers": int(plane.inliers.size),
            "rms_m": sig6(plane.rms),
        },
        "candidates": {
            f"candidate_{i}": {
                "cost": sig6(cost),
                "cheirality": int(cand.cheirality),
                "reprojection_rms_px": sig6(cand.rms),
            }
            for i, (cand, cost) in enumerate(zip(result.candidates, result.candidate_costs))
        },
        "estimate": extrinsics_report_fields(result.extrinsics),
        "centroid_reprojection": {
            f"row_{i}": {
                "frame": frame_id,
                "class": int(class_id),
                "centroid_u": sig6(u),
                "centroid_v": sig6(v),
                "projected_u": sig6(pu) if np.isfinite(pu) else "none",
                "projected_v": sig6(pv) if np.isfinite(pv) else "none",
                "residual_px": sig6(residual) if np.isfinite(residual) else "inf",
            }
            for i, (frame_id, class_id, (u, v), (pu, pv), residual) in enumerate(rows)
        },
    }


def cmd_init(args) -> int:
    t0 = time.perf_counter()
    cfg, evaluator = _prepare(args)
    result = initialize(evaluator, cfg)
    out = _out_dir(args)
    write_extrinsics(out / "init_extrinsics.txt", result.extrinsics)
    report = {
        "init_report": {
            "version": __version__,
            "config": config_report_fields(cfg),
            "n_pairs": len(evaluator.pairs),
            **_init_report_block(result),
        }
    }
    return _finish(out, "report.txt", report, {"total_s": time.perf_counter() - t0}, args)


def _breakdown_block(breakdown) -> dict:
    return {
        "total": sig6(breakdown.total),
        "numerator": sig6(breakdown.numerator),
        "denominator": sig6(breakdown.denominator),
        "per_class": {
            f"class_{cid}": sig6(num / den if den else 0.0)
            for cid, (num, den) in sorted(breakdown.per_class.items())
        },
        "counts": {
            "consistent": int(breakdown.n_consistent),
            "inconsistent": int(breakdown.n_inconsistent),
            "behind_camera": int(breakdown.n_behind_camera),
            "out_of_image": int(breakdown.n_out_of_image),
            "empty_field": int(breakdown.n_empty_field),
        },
    }


def cmd_calibrate(args) -> int:
    t0 = time.perf_counter()
    cfg, evaluator = _prepare(args)
    timings: dict[str, float] = {}

    if args.init_file:
        start = read_extrinsics(args.init_file)
        init_block: dict = {"source": "file", "estimate": extrinsics_report_fields(start)}
    else:
        t_init = time.perf_counter()
        result = initialize(evaluator, cfg)
        timings["init_s"] = time.perf_counter() - t_init
        start = result.extrinsics
        init_block = {"source": "pipeline", **_init_report_block(result)}

    t_opt = time.perf_counter()
    estimate, breakdown, trace = calibrate(evaluator, start, cfg)
    timings["optimize_s"] = time.perf_counter() - t_opt
    timings["total_s"] = time.perf_counter() - t0

    out = _out_dir(args)
    write_extrinsics(out / "estimated_extrinsics.txt", estimate)
    write_csv(
        out / "trace.csv",
        ("iteration", "theta_x_deg", "theta_y_deg", "theta_z_deg",
         "t_x_m", "t_y_m", "t_z_m", "cost"),
        [(str(it), *to_file_units(x), cost) for it, x, cost in trace.points],
    )
    report = {
        "calibration_report": {
            "version": __version__,
            "config": config_report_fields(cfg),
            "n_pairs": len(evaluator.pairs),
            "initialization": init_block,
            "estimate": extrinsics_report_fields(estimate),
            "cost": _breakdown_block(breakdown),
            "trace": {
                "termination": trace.termination,
                "n_evaluations": int(trace.n_evaluations),
                "n_repeated": int(trace.n_repeated),
                "n_points": len(trace.points),
                "initial_cost": sig6(trace.points[0][2]),
                "final_cost": sig6(trace.points[-1][2]),
            },
            "pairs": {
                frame_id: {
                    "cost": sig6(pb.numerator / pb.denominator if pb.denominator else 0.0),
                    "n_inconsistent": int(pb.n_inconsistent),
                    "n_behind_camera": int(pb.n_behind_camera),
                }
                for frame_id, pb in sorted(breakdown.per_pair.items())
            },
        }
    }
    return _finish(out, "report.txt", report, timings, args)


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg, evaluator = _prepare(args)
    reference = read_extrinsics(args.gt)
    if not (0 < args.span < math.inf and 0 < args.interval < math.inf):
        raise CalibrationError("--range and --interval must be positive and finite")

    axis_idx = _AXES.index(args.axis)
    unit = "deg" if axis_idx < 3 else "m"
    n_steps = int(round(args.span / args.interval))
    if n_steps < 1:
        raise CalibrationError("--interval larger than --range")
    displacements = [k * args.interval for k in range(-n_steps, n_steps + 1)]

    base, axis = reference.to_vector(), np.eye(6)[axis_idx]
    rows = []
    best = (np.inf, 0.0)
    for disp in displacements:
        pose = Extrinsics.from_vector(base + from_file_units(axis * disp))
        cost = evaluator.evaluate_total(pose)
        rows.append((disp, cost))
        if cost < best[0]:
            best = (cost, disp)

    out = _out_dir(args)
    csv_name = f"sweep_{args.axis}.csv"
    write_csv(out / csv_name, (f"displacement_{unit}", "cost"), rows)
    report = {
        "sweep_report": {
            "version": __version__,
            "config": config_report_fields(cfg),
            "axis": args.axis,
            "unit": unit,
            "range": sig6(args.span),
            "interval": sig6(args.interval),
            "n_rows": len(rows),
            "csv": csv_name,
            "min_cost": sig6(best[0]),
            "argmin_displacement": sig6(best[1]),
            "cost_at_zero": sig6(rows[n_steps][1]),
        }
    }
    return _finish(out, "report.txt", report, {"total_s": time.perf_counter() - t0}, args)


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    estimated = read_extrinsics(args.estimated)
    reference = read_extrinsics(args.gt)
    est = estimated.to_vector()
    ref = reference.to_vector()
    errors = [wrap_angle(est[i] - ref[i]) for i in range(3)] + [
        est[i] - ref[i] for i in range(3, 6)
    ]
    labels = (
        ("d_theta_x", "deg"), ("d_theta_y", "deg"), ("d_theta_z", "deg"),
        ("d_t_x", "m"), ("d_t_y", "m"), ("d_t_z", "m"),
    )
    values = to_file_units(errors)

    print(f"{'parameter':<14}{'error':>14}")
    for (name, unit), val in zip(labels, values):
        print(f"{name + '_' + unit:<14}{fmt6(sig6(val)):>14}")

    out = _out_dir(args)
    report = {
        "eval_report": {
            "version": __version__,
            "estimated_file": str(args.estimated),
            "gt_file": str(args.gt),
            "data_dir": str(args.data_dir) if args.data_dir else "none",
            "errors": {
                f"{name}_{unit}": sig6(val) for (name, unit), val in zip(labels, values)
            },
        }
    }
    return _finish(out, "report.txt", report, {"total_s": time.perf_counter() - t0}, args)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
