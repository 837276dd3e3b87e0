"""End-to-end tests for the command-line interface."""

import re
import shutil

import numpy as np
import pytest

from semcal.cli import _breakdown_block, main
from semcal.costfield import CostBreakdown, CostEvaluator
from semcal.geometry import Extrinsics, RotationAngles, Translation, rotation_matrix
from semcal.io_formats import (
    format_report,
    from_file_units,
    parse_report,
    read_extrinsics,
    read_label_image,
    read_point_cloud,
    read_report,
    read_scene_dir,
    write_csv,
    write_extrinsics,
    write_label_image,
    write_point_cloud_csv,
    write_scene_dir,
)
from semcal.scene import LabelImage
from semcal.synth import SceneSpec, generate


SPEC_TEXT = (
    "n_frames = 3\n"
    "objects_per_frame = 3\n"
    "points_per_object = 60\n"
    "theta_x_deg = 1.5\n"
    "theta_y_deg = -2.0\n"
    "theta_z_deg = 4.0\n"
    "t_x_m = 0.2\n"
    "t_y_m = -0.1\n"
    "t_z_m = 0.15\n"
)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.txt"
    spec.write_text(SPEC_TEXT)
    scene = root / "scene"
    rc = main(["synth", "--spec", str(spec), "--output", str(scene)])
    assert rc == 0
    return scene


@pytest.fixture(scope="module")
def broken_scene_dirs(scene_dir, tmp_path_factory):
    """Copies of the scene, each with one unreadable part: an intrinsics file
    that is not UTF-8 text, a cloud that is a directory, no intrinsics file,
    a ``.csv`` cloud with a point beyond float32's range."""
    dirs = {}
    for name in ("garbled", "cloud_dir", "no_intrinsics", "huge_csv"):
        dirs[name] = tmp_path_factory.mktemp(name) / "scene"
        shutil.copytree(scene_dir, dirs[name])
    (dirs["garbled"] / "intrinsics.txt").write_bytes(b"\xff\xfe")
    (dirs["cloud_dir"] / "frame_0000.bin").unlink()
    (dirs["cloud_dir"] / "frame_0000.bin").mkdir()
    (dirs["no_intrinsics"] / "intrinsics.txt").unlink()
    cloud = dirs["huge_csv"] / "frame_0001.bin"
    write_point_cloud_csv(cloud.with_suffix(".csv"), read_point_cloud(cloud))
    cloud.unlink()
    with open(cloud.with_suffix(".csv"), "a") as f:
        f.write("1e200,0,1e200,1\n")
    return dirs


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_synth_outputs(scene_dir):
    names = {p.name for p in scene_dir.iterdir()}
    assert {"intrinsics.txt", "scene.txt", "gt_extrinsics.txt", "report.txt"} <= names
    assert {"frame_0000.bin", "frame_0000.pgm", "frame_0002.bin"} <= names
    report = read_report(scene_dir / "report.txt")
    body = report["synth_report"]
    assert body["n_frames"] == 3
    assert body["classes"] == "1,2,3"
    assert body["n_label_flips"] == 0
    assert body["gt_extrinsics"]["theta_z_deg"] == pytest.approx(4.0)
    assert set(body["frames"]) == {"frame_0000", "frame_0001", "frame_0002"}
    gt = read_extrinsics(scene_dir / "gt_extrinsics.txt")
    assert gt.translation.t_x == pytest.approx(0.2)


def test_synth_rerun_byte_identical(scene_dir, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    again = tmp_path / "scene"
    assert main(["synth", "--spec", str(spec), "--output", str(again)]) == 0
    assert dir_bytes(scene_dir) == dir_bytes(again)


def test_synth_seed_override(scene_dir, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    other = tmp_path / "scene9"
    assert main(["synth", "--spec", str(spec), "--seed", "9", "--output", str(other)]) == 0
    assert read_report(other / "report.txt")["synth_report"]["seed"] == 9
    assert (
        (other / "frame_0000.bin").read_bytes()
        != (scene_dir / "frame_0000.bin").read_bytes()
    )


def test_init_outputs(scene_dir, tmp_path):
    out = tmp_path / "init"
    assert main(["init", str(scene_dir), "--output", str(out)]) == 0
    est = read_extrinsics(out / "init_extrinsics.txt")
    report = read_report(out / "report.txt")["init_report"]
    assert report["n_centroid_pairs"] == 9
    assert report["estimate"]["theta_z_deg"] == pytest.approx(
        np.degrees(est.rotation.theta_z)
    )
    assert "plane" in report and "candidates" in report
    # a fresh run is byte-identical
    out2 = tmp_path / "init2"
    assert main(["init", str(scene_dir), "--output", str(out2)]) == 0
    assert dir_bytes(out) == dir_bytes(out2)


def test_calibrate_from_gt_stays_at_zero(scene_dir, tmp_path):
    out = tmp_path / "cal"
    rc = main([
        "calibrate", str(scene_dir),
        "--init", str(scene_dir / "gt_extrinsics.txt"),
        "--output", str(out),
    ])
    assert rc == 0
    report = read_report(out / "report.txt")["calibration_report"]
    assert report["cost"]["total"] == 0
    assert report["initialization"]["source"] == "file"
    assert report["n_pairs"] == 3
    est = read_extrinsics(out / "estimated_extrinsics.txt")
    gt = read_extrinsics(scene_dir / "gt_extrinsics.txt")
    assert np.allclose(est.to_vector(), np.asarray(gt.to_vector()), atol=1e-12)
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,theta_x_deg,theta_y_deg,theta_z_deg,t_x_m,t_y_m,t_z_m,cost"
    assert len(trace) - 1 == report["trace"]["n_points"]


def test_calibrate_pipeline_init(scene_dir, tmp_path):
    out = tmp_path / "cal"
    assert main(["calibrate", str(scene_dir), "--output", str(out)]) == 0
    report = read_report(out / "report.txt")["calibration_report"]
    assert report["initialization"]["source"] == "pipeline"
    assert report["trace"]["termination"] in {"converged", "max_iterations", "stalled"}
    # this scene is too small to pin down the exact pose; the refinement
    # must still land near the truth and improve on the initial guess
    est = read_extrinsics(out / "estimated_extrinsics.txt")
    gt = read_extrinsics(scene_dir / "gt_extrinsics.txt")
    err = np.abs(np.asarray(est.to_vector()) - np.asarray(gt.to_vector()))
    assert np.all(err[:3] < np.deg2rad(2.0)) and np.all(err[3:] < 0.2)
    assert report["trace"]["final_cost"] <= report["trace"]["initial_cost"]
    assert 0 <= report["trace"]["n_repeated"] < report["trace"]["n_evaluations"]
    # Powell alone reaches cost 0 here, which ends the search before any
    # probe; test_calibrate_counts_probe_samples covers a run that probes
    assert report["trace"]["final_cost"] == 0.0
    assert report["trace"]["n_probe_evaluations"] == 0
    per_pair = report["pairs"]
    assert set(per_pair) == {"frame_0000", "frame_0001", "frame_0002"}


def test_with_timings_flag(scene_dir, tmp_path):
    out = tmp_path / "t"
    assert main([
        "calibrate", str(scene_dir),
        "--init", str(scene_dir / "gt_extrinsics.txt"),
        "--output", str(out), "--with-timings",
    ]) == 0
    report = read_report(out / "report.txt")["calibration_report"]
    assert {"init_s", "optimize_s", "total_s"} >= set(report["timings"]) - {"total_s"}
    assert report["timings"]["total_s"] >= 0


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "--spec", "{spec}"], id="synth"),
    pytest.param(["init", "{scene}"], id="init"),
    pytest.param(["calibrate", "{scene}", "--init", "{gt}"], id="calibrate"),
    pytest.param(["sweep", "{scene}", "--gt", "{gt}", "--axis", "t_x", "--range", "0.1",
                  "--interval", "0.1"], id="sweep"),
    pytest.param(["eval", "--estimated", "{gt}", "--gt", "{gt}"], id="eval"),
])
def test_with_timings_on_every_subcommand(argv, scene_dir, tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    args = [a.format(spec=spec, scene=scene_dir, gt=scene_dir / "gt_extrinsics.txt")
            for a in argv]
    out = tmp_path / "out"
    assert main(args + ["--output", str(out), "--with-timings"]) == 0
    (body,) = read_report(out / "report.txt").values()
    assert list(body)[0] == "version" and list(body)[-1] == "timings"
    assert body["timings"]["total_s"] >= 0


def test_sweep_rotation(scene_dir, tmp_path):
    out = tmp_path / "sw"
    rc = main([
        "sweep", str(scene_dir), "--gt", str(scene_dir / "gt_extrinsics.txt"),
        "--axis", "theta_x", "--range", "2", "--interval", "1",
        "--output", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep_theta_x.csv").read_text().splitlines()
    assert lines[0] == "displacement_deg,cost"
    assert len(lines) == 6  # header + 5 grid rows
    report = read_report(out / "report.txt")["sweep_report"]
    assert report["n_rows"] == 5
    assert report["cost_at_zero"] == 0
    assert report["min_cost"] == 0
    assert report["argmin_displacement"] == 0
    assert report["unit"] == "deg"
    # displacements are centered and evenly spaced
    disps = [float(l.split(",")[0]) for l in lines[1:]]
    assert disps == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_sweep_translation(scene_dir, tmp_path):
    out = tmp_path / "sw"
    rc = main([
        "sweep", str(scene_dir), "--gt", str(scene_dir / "gt_extrinsics.txt"),
        "--axis", "t_z", "--range", "0.1", "--interval", "0.05",
        "--output", str(out),
    ])
    assert rc == 0
    lines = (out / "sweep_t_z.csv").read_text().splitlines()
    assert lines[0] == "displacement_m,cost"
    assert read_report(out / "report.txt")["sweep_report"]["unit"] == "m"
    costs = [float(l.split(",")[1]) for l in lines[1:]]
    assert costs[2] == 0.0
    assert min(costs) == costs[2]


@pytest.mark.parametrize("axis, span, interval", [
    # theta_z sits at 4 degrees, so +-200 degrees wraps past -180 and +180
    ("theta_x", "200", "12.5"), ("theta_y", "200", "12.5"), ("theta_z", "200", "12.5"),
    ("t_x", "1.5", "0.125"), ("t_y", "1.5", "0.125"), ("t_z", "0.1", "0.0125"),
    ("t_z", "0.002", "0.0005"),  # 9 rows of cost 0 about the truth: equal minima
])
def test_sweep_matches_the_per_row_reference(axis, span, interval, scene_dir, tmp_path,
                                             monkeypatch):
    """The sweep's pose table gives each row the pose, bits and all, of
    ``from_vector(reference + from_file_units(axis * displacement))``, whose
    other five entries are -0.0 below zero; so its CSV is byte-identical to
    that per-row reference's, and its report gives that reference's minimum,
    the first row at it and the cost at zero displacement."""
    sent = []
    evaluate_total = CostEvaluator.evaluate_total
    monkeypatch.setattr(CostEvaluator, "evaluate_total",
                        lambda self, ext: sent.append(ext) or evaluate_total(self, ext))
    out = tmp_path / "sw"
    assert main(["sweep", str(scene_dir), "--gt", str(scene_dir / "gt_extrinsics.txt"),
                 "--axis", axis, "--range", span, "--interval", interval,
                 "--output", str(out)]) == 0
    monkeypatch.undo()

    n = round(float(span) / float(interval))
    displacements = [k * float(interval) for k in range(-n, n + 1)]
    base = read_extrinsics(scene_dir / "gt_extrinsics.txt").to_vector()
    i = ["theta_x", "theta_y", "theta_z", "t_x", "t_y", "t_z"].index(axis)
    unit = np.eye(6)[i]
    poses = [Extrinsics.from_vector(base + from_file_units(unit * d)) for d in displacements]
    assert len(sent) == len(poses)
    for pose, ref in zip(sent, poses):
        assert pose.to_vector().tobytes() == ref.to_vector().tobytes()
        r, t = pose.matrix()
        assert r.tobytes() == rotation_matrix(ref.rotation).tobytes() and not r.flags.writeable
    if i < 3:  # the swept angle wraps at both ends
        assert base[i] + np.radians(displacements[0]) < -np.pi < np.pi < base[i] + np.radians(
            displacements[-1])
    pairs, _, classes = read_scene_dir(scene_dir)
    evaluator = CostEvaluator(pairs, classes)
    unit_name = "deg" if axis.startswith("theta") else "m"
    costs = [evaluator.evaluate_total(p) for p in poses]
    write_csv(tmp_path / "ref.csv", (f"displacement_{unit_name}", "cost"),
              zip(displacements, costs))
    assert (out / f"sweep_{axis}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    first = costs.index(min(costs))
    want = {"min_cost": costs[first], "argmin_displacement": displacements[first],
            "cost_at_zero": costs[n]}
    report = read_report(out / "report.txt")["sweep_report"]
    assert {key: report[key] for key in want} == parse_report(format_report(want))
    if interval == "0.0005":
        assert costs.count(min(costs)) > 1


def test_eval_table_and_report(tmp_path, capsys):
    est_f = tmp_path / "est.txt"
    gt_f = tmp_path / "gt.txt"
    write_extrinsics(est_f, Extrinsics(
        RotationAngles(0.0, 0.0, np.deg2rad(-179.0)), Translation(0.3, 0.0, 0.0)
    ))
    write_extrinsics(gt_f, Extrinsics(
        RotationAngles(0.0, 0.0, np.deg2rad(179.0)), Translation(0.1, 0.0, 0.0)
    ))
    out = tmp_path / "ev"
    rc = main(["eval", "--estimated", str(est_f), "--gt", str(gt_f),
               "--output", str(out)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "parameter" in table and "d_theta_z_deg" in table
    report = read_report(out / "report.txt")["eval_report"]
    assert "data_dir" not in report
    errors = report["errors"]
    # the 358 degree gap wraps to 2 degrees
    assert errors["d_theta_z_deg"] == pytest.approx(2.0)
    assert errors["d_t_x_m"] == pytest.approx(0.2)
    assert errors["d_t_y_m"] == 0


def test_error_exit_codes(tmp_path, capsys):
    rc = main(["calibrate", str(tmp_path / "missing"), "--output", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_bad_interval(scene_dir, tmp_path, capsys):
    rc = main([
        "sweep", str(scene_dir), "--gt", str(scene_dir / "gt_extrinsics.txt"),
        "--axis", "t_x", "--range", "0.01", "--interval", "1.0",
        "--output", str(tmp_path),
    ])
    assert rc == 1
    assert "interval" in capsys.readouterr().err


def test_missing_class_list(scene_dir, tmp_path, capsys):
    # strip the manifest so no class source remains
    bare = tmp_path / "bare"
    bare.mkdir()
    for p in scene_dir.iterdir():
        if p.name not in {"scene.txt", "report.txt"}:
            (bare / p.name).write_bytes(p.read_bytes())
    rc = main(["init", str(bare), "--output", str(tmp_path / "o")])
    assert rc == 1
    assert "class" in capsys.readouterr().err
    # explicit --classes unblocks the same run
    assert main(["init", str(bare), "--classes", "1,2,3",
                 "--output", str(tmp_path / "o2")]) == 0


def test_bad_axis_rejected(scene_dir, tmp_path):
    with pytest.raises(SystemExit):
        main([
            "sweep", str(scene_dir), "--gt", str(scene_dir / "gt_extrinsics.txt"),
            "--axis", "bogus", "--range", "1", "--interval", "1",
            "--output", str(tmp_path),
        ])


@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "{scene}"], id="eval-data_dir"),
    pytest.param(["eval", "--classes", "1,2,3"], id="eval-classes"),
    pytest.param(["eval", "--config", "{spec}"], id="eval-config"),
    pytest.param(["eval", "--seed", "1"], id="eval-seed"),
    pytest.param(["eval", "--threads", "1"], id="eval-threads"),
    pytest.param(["synth", "--config", "{spec}"], id="synth-config"),
    pytest.param(["synth", "--threads", "1"], id="synth-threads"),
    pytest.param(["init", "{scene}", "--seed", "1"], id="init-seed"),
    pytest.param(["calibrate", "{scene}", "--seed", "1"], id="calibrate-seed"),
    pytest.param(["sweep", "{scene}", "--gt", "{gt}", "--axis", "t_x", "--range", "1",
                  "--interval", "0.1", "--seed", "1"], id="sweep-seed"),
])
def test_unread_inputs_are_rejected(argv, scene_dir, tmp_path):
    """A subcommand declares only the inputs it reads; argparse rejects the rest."""
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    gt = str(scene_dir / "gt_extrinsics.txt")
    args = [a.format(scene=scene_dir, spec=spec, gt=gt) for a in argv]
    if args[0] == "eval":
        args += ["--estimated", gt, "--gt", gt]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("semcal ")


def test_removed_config_keys_are_errors(scene_dir, tmp_path, capsys):
    # the smooth cost mode (epsilon) and the thread count are gone, and the
    # tuning settings are constants of the modules that use them; every
    # subcommand that reads a config fails on them, whatever their value
    config = tmp_path / "old.cfg"
    gt = str(scene_dir / "gt_extrinsics.txt")
    commands = (["init"], ["calibrate"], ["calibrate", "--init", gt],
                ["sweep", "--gt", gt, "--axis", "t_x", "--range", "1", "--interval", "0.1"])
    for text in ("epsilon = 0.5", "epsilon = -1", "threads = 2", "range_weighting = false",
                 "seed = 1", "seed = -1", "max_iterations = 200", "max_iterations = 0",
                 "ftol = 1e-8", "ftol = nan", "line_tol = 1e-6", "line_tol = -1",
                 "ransac_threshold = 0.2", "ransac_iterations = 500", "ransac_iterations = 2.5",
                 "planarity_ratio = 0.05", "planarity_ratio = nan"):
        config.write_text(text + "\n")
        for command in commands:
            rc = main([command[0], str(scene_dir), *command[1:], "--config", str(config),
                       "--output", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, (text, command)
            assert f"unknown config field(s) [{text.split()[0]!r}]" in err


def test_threads_flag_is_ignored(scene_dir, tmp_path):
    runs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"cal{threads}"
        assert main(["calibrate", str(scene_dir), "--init", str(scene_dir / "gt_extrinsics.txt"),
                     "--threads", threads, "--output", str(out)]) == 0
        runs[threads] = dir_bytes(out)
    assert runs["1"] == runs["4"]
    config = read_report(tmp_path / "cal1" / "report.txt")["calibration_report"]["config"]
    assert "epsilon" not in config and "threads" not in config


_SWEEP = ["sweep", "{scene}", "--gt", "{gt}", "--axis", "t_x"]
_CALIBRATE = ["calibrate", "{scene}", "--init", "{gt}"]


# the message a case of test_bad_input_is_an_error must give, by case id
_BAD_INPUT_MESSAGES = {"config-remap-no-colon": "image_remap entries must look like src:dst"}


@pytest.mark.parametrize("argv", [
    pytest.param(["init", "{scene}", "--classes", "a,b"], id="init-classes"),
    pytest.param(["synth", "--classes", "a,b"], id="synth-classes"),
    pytest.param(_SWEEP + ["--range", "nan", "--interval", "0.1"], id="range-nan"),
    pytest.param(_SWEEP + ["--range", "inf", "--interval", "0.1"], id="range-inf"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "nan"], id="interval-nan"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "inf"], id="interval-inf"),
    # the quotient overflows to inf, or asks for more rows than the bound
    pytest.param(_SWEEP + ["--range", "1e300", "--interval", "1e-300"],
                 id="range-interval-overflow"),
    pytest.param(_SWEEP + ["--range", "5000001", "--interval", "1"],
                 id="range-interval-too-many-rows"),
    pytest.param(["synth", "--spec", "n_frames = nan"], id="spec-n_frames-nan"),
    pytest.param(["synth", "--spec", "objects_per_frame = inf"], id="spec-objects-inf"),
    pytest.param(["synth", "--spec", "seed = nan"], id="spec-seed-nan"),
    pytest.param(["synth", "--spec", "width = nan"], id="spec-width-nan"),
    pytest.param(["synth", "--seed", "-1"], id="synth-seed-negative"),
    pytest.param(["synth", "--spec", "seed = -1"], id="spec-seed-negative"),
    pytest.param(["init", "{scene}", "--classes", "1,-2"], id="init-classes-negative"),
    pytest.param(["init", "{scene}", "--config", b"\xff\xfe"], id="config-not-utf8"),
    pytest.param(["init", "{garbled}"], id="intrinsics-not-utf8"),
    pytest.param(["init", "{no_intrinsics}"], id="intrinsics-missing"),
    pytest.param(["init", "{cloud_dir}"], id="cloud-is-a-directory"),
    # squared ranges overflowed: init and calibrate ended in a collinearity
    # error after overflow warnings, sweep in exit 0 with inf in every row
    pytest.param(["init", "{huge_csv}"], id="csv-cloud-beyond-float32"),
    pytest.param(["calibrate", "{huge_csv}"], id="calibrate-csv-cloud-beyond-float32"),
    pytest.param(["sweep", "{huge_csv}", "--gt", "{gt}", "--axis", "t_x", "--range", "0.5",
                  "--interval", "0.1"], id="sweep-csv-cloud-beyond-float32"),
    pytest.param(["init", "{scene}", "--config", "cloud_remap = 1:a"],
                 id="config-remap-non-integer"),
    pytest.param(["init", "{scene}", "--config", "image_remap = 1"], id="config-remap-no-colon"),
    # a repeated source id used to keep its last entry
    pytest.param(["init", "{scene}", "--config", "image_remap = 2:1, 2:3"],
                 id="config-remap-repeated-id"),
    pytest.param(["synth", "--spec", "size_range = 1,inf"], id="spec-size_range-inf"),
    pytest.param(["synth", "--spec", "lateral_range = nan,1"], id="spec-lateral_range-nan"),
    pytest.param(["synth", "--spec", "lateral_range = 2,1"], id="spec-lateral_range-unordered"),
    pytest.param(["synth", "--spec", "depth_range = 1,2,3"], id="spec-depth_range-three-parts"),
    # numbers are ASCII literals without '_', although float() and int() read these
    pytest.param(["synth", "--spec", "seed = 1_0"], id="spec-seed-underscore"),
    pytest.param(["synth", "--spec", "fx = \uff15\uff10\uff10"], id="spec-fx-fullwidth-digits"),
    pytest.param(["synth", "--spec", "depth_range = 2_0,30"], id="spec-depth_range-underscore"),
    pytest.param(["synth", "--classes", "\u0661,2"], id="synth-classes-arabic-indic-digit"),
    pytest.param(["synth", "--classes", "1,2_0"], id="synth-classes-underscore"),
    pytest.param(["init", "{scene}", "--config", "cloud_remap = 1_0:1"],
                 id="config-remap-underscore"),
    pytest.param(["init", "{scene}", "--config", "image_remap = 9:\uff11"],
                 id="config-remap-fullwidth-digit"),
    pytest.param(["synth", "--spec", "depth_range = 1,far"], id="spec-depth_range-non-numeric"),
    pytest.param(["synth", "--spec", "ground_y = nan"], id="spec-ground_y-nan"),
    # the densified copies per cloud point are a constant of the generator
    pytest.param(["synth", "--spec", "densify = 8"], id="spec-densify-removed"),
    pytest.param(["synth", "--spec", "ground_jitter = inf"], id="spec-ground_jitter-inf"),
    # drawn depths up to 1e308 do not fit the float32 cloud file
    pytest.param(["synth", "--spec", "depth_range = 1,1e308"], id="spec-depth_range-huge"),
    # projections far beyond int64 used to warn in the integer cast
    pytest.param(["synth", "--spec", "ground_y = 1e300"], id="spec-ground_y-huge"),
    pytest.param(["synth", "--spec", "lateral_range = 1e300,1e300"], id="spec-lateral_range-huge"),
    pytest.param(["synth", "--spec", "lateral_range = 1e308,1e308"],
                 id="spec-lateral_range-overflow"),
    # no image keeps a pixel of any class, so every pose would cost the same
    pytest.param(_CALIBRATE + ["--config", "image_remap = 1:0,2:0,3:0"],
                 id="calibrate-no-class-pixels"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "0.1", "--config",
                           "image_remap = 1:0,2:0,3:0"], id="sweep-no-class-pixels"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_is_an_error(argv, scene_dir, broken_scene_dirs, tmp_path, capsys, request):
    """Each bad flag or file value ends in one ``error:`` line, not a traceback,
    with the message of ``_BAD_INPUT_MESSAGES`` where a case has one."""
    args = []
    for prev, arg in zip([None] + argv, argv):
        if prev in ("--config", "--spec"):
            path = tmp_path / "settings.txt"
            path.write_bytes(arg if isinstance(arg, bytes) else arg.encode() + b"\n")
            arg = str(path)
        args.append(arg.format(scene=scene_dir, gt=scene_dir / "gt_extrinsics.txt",
                               **broken_scene_dirs))
    assert main(args + ["--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert _BAD_INPUT_MESSAGES.get(request.node.callspec.id, "") in err, err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["synth", "--seed", "1_0"], "argument --seed: invalid int value: '1_0'",
                 id="seed-underscore"),
    pytest.param(["synth", "--seed", "\uff15"], "argument --seed: invalid int value: '\uff15'",
                 id="seed-fullwidth-digit"),
    pytest.param(["init", "{scene}", "--threads", "\uff15"],
                 "argument --threads: invalid int value: '\uff15'", id="threads-fullwidth-digit"),
    pytest.param(_SWEEP + ["--range", "\uff11", "--interval", "0.1"],
                 "argument --range: invalid float value: '\uff11'", id="range-fullwidth-digit"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "0_5"],
                 "argument --interval: invalid float value: '0_5'", id="interval-underscore"),
])
def test_command_line_numbers_are_ascii_literals_without_underscores(argv, message, scene_dir,
                                                                     tmp_path, capsys):
    """Numbers on the command line follow the files' rule; int() and float()
    read these as 10, 5, 5, 1.0 and 5.0.  argparse ends in its usage error."""
    args = [a.format(scene=scene_dir, gt=scene_dir / "gt_extrinsics.txt") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--output", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["synth"], id="synth"),
    pytest.param(["init", "{scene}"], id="init"),
    pytest.param(["calibrate", "{scene}"], id="calibrate"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "0.1"], id="sweep"),
    pytest.param(["eval", "--estimated", "{gt}", "--gt", "{gt}"], id="eval"),
])
def test_output_that_cannot_be_a_directory_is_an_error(argv, scene_dir, tmp_path, capsys):
    """An ``--output`` that is a file, or lies under one, ends in one
    ``error:`` line before any work, and the file is left as it was."""
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    args = [a.format(scene=scene_dir, gt=scene_dir / "gt_extrinsics.txt") for a in argv]
    for out in (blocker, blocker / "sub"):
        assert main(args + ["--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "is not a directory" in captured.err
    assert blocker.read_text() == "keep\n"


def test_output_file_that_cannot_be_written_is_an_error(scene_dir, tmp_path, capsys):
    (tmp_path / "out" / "report.txt").mkdir(parents=True)
    assert main(["init", str(scene_dir), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "report.txt" in err


def test_class_absent_from_data_has_no_points(scene_dir, tmp_path):
    """A listed class that no cloud and no image holds is reported empty and
    changes nothing else."""
    reports, outputs = {}, {}
    for classes in ("1,2", "1,2,9"):
        out = tmp_path / classes
        assert main(["calibrate", str(scene_dir), "--classes", classes,
                     "--output", str(out)]) == 0
        reports[classes] = read_report(out / "report.txt")["calibration_report"]
        outputs[classes] = {name: data for name, data in dir_bytes(out).items()
                            if name != "report.txt"}
    assert reports["1,2,9"]["config"].pop("classes") == "1,2,9"
    assert reports["1,2,9"]["cost"]["per_class"].pop("class_9") == 0
    reports["1,2"]["config"].pop("classes")
    assert reports["1,2,9"] == reports["1,2"]
    assert outputs["1,2,9"] == outputs["1,2"]


def test_class_absent_from_every_image(scene_dir, tmp_path, capsys):
    """A class that the clouds hold but no image does costs its points the
    empty-field penalty at every pose; calibrate still ends cleanly."""
    config = tmp_path / "remap.txt"
    config.write_text("image_remap = 3:0\n")
    out = tmp_path / "out"
    assert main(["calibrate", str(scene_dir), "--config", str(config),
                 "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for path in out.iterdir():
        assert not re.search(r"\bnan\b", path.read_text(), re.I), path.name
    report = read_report(out / "report.txt")["calibration_report"]
    n_class_3 = sum(int(np.count_nonzero(read_point_cloud(frame).labels == 3))
                    for frame in scene_dir.glob("frame_*.bin"))
    assert n_class_3 > 0
    assert report["cost"]["counts"]["empty_field"] == n_class_3
    assert report["classes_without_pixels"] == 3


# The criterion-6 set-up of tests/test_acceptance.py.
C6_GT = Extrinsics(RotationAngles(*np.deg2rad([1.0, -2.0, 3.0])), Translation(0.2, -0.1, 0.1))


def write_c6_scene(path, seed):
    spec = SceneSpec(n_frames=10, objects_per_frame=4, points_per_object=100,
                     extrinsics=C6_GT, seed=seed, depth_range=(2.5, 16.0), noise_rate=0.02)
    write_scene_dir(path, generate(spec).pairs, spec.intrinsics, spec.classes, gt=C6_GT)


def test_classes_without_pixels_are_flagged(tmp_path):
    """With every image's classes 2 and 3 relabelled 1, a criterion-6 scene
    ends far off with exit 0; init, calibrate and sweep name the two classes,
    and a run with pixels for every class writes no such field."""
    scene = tmp_path / "scene"
    write_c6_scene(scene, 0)
    config = tmp_path / "remap.txt"
    config.write_text("image_remap = 2:1,3:1\n")
    sweep = ["--gt", str(scene / "gt_extrinsics.txt"), "--axis", "t_z",
             "--range", "0.1", "--interval", "0.1"]
    for command, extra in (("init", []), ("calibrate", []), ("sweep", sweep)):
        out = tmp_path / command
        assert main([command, str(scene), "--config", str(config), "--output", str(out),
                     *extra]) == 0
        (report,) = read_report(out / "report.txt").values()
        assert report["classes_without_pixels"] == "2,3"
    assert main(["init", str(scene), "--output", str(tmp_path / "plain")]) == 0
    (report,) = read_report(tmp_path / "plain" / "report.txt").values()
    assert "classes_without_pixels" not in report


@pytest.mark.parametrize("seed", [8, 18, 40])
def test_calibrate_leaves_the_rotation_translation_valley(seed, tmp_path):
    """Criterion-6-style scenes whose init is only 1.4-1.6 degrees off, on
    which a search over (theta, t) stalled out of band in the valley where a
    rotation about the sensor origin is cancelled by a translation; the
    centered search ends in band."""
    scene = tmp_path / "scene"
    write_c6_scene(scene, seed)
    assert main(["calibrate", str(scene), "--output", str(tmp_path / "out")]) == 0
    est = read_extrinsics(tmp_path / "out" / "estimated_extrinsics.txt")
    delta = np.asarray(est.to_vector()) - np.asarray(C6_GT.to_vector())
    assert np.all(np.abs(np.degrees(delta[:3])) <= 1.0), np.degrees(delta[:3])
    assert np.all(np.abs(delta[3:]) <= 0.1), delta[3:]


def test_class_order_changes_no_output(tmp_path):
    """The evaluator holds the classes in ascending order, so the order of
    ``--classes`` moves no output but the config echo."""
    scene = tmp_path / "scene"
    write_c6_scene(scene, 8)
    runs = {}
    for classes in ("1,2,3", "3,1,2", "2,3,1"):
        out = tmp_path / classes
        assert main(["calibrate", str(scene), "--classes", classes, "--output", str(out)]) == 0
        runs[classes] = dir_bytes(out)
        report = runs[classes].pop("report.txt").decode()
        assert f"    classes: {classes}\n" in report
        runs[classes]["report.txt"] = report.replace(f"classes: {classes}\n", "classes: -\n")
    assert runs["3,1,2"] == runs["1,2,3"]
    assert runs["2,3,1"] == runs["1,2,3"]


def test_frame_behind_the_camera(scene_dir, tmp_path, capsys):
    """A frame whose cloud is mirrored to negative depth projects no point
    at the truth; every subcommand still ends cleanly, without a NaN."""
    scene = tmp_path / "mirrored"
    shutil.copytree(scene_dir, scene)
    frame = scene / "frame_0001.bin"
    records = np.frombuffer(frame.read_bytes(), dtype="<f4").reshape(-1, 4).copy()
    records[:, 2] *= -1.0
    frame.write_bytes(records.tobytes())
    gt = str(scene / "gt_extrinsics.txt")
    runs = {"init": ["init"], "calibrate": ["calibrate"],
            "calibrate-gt": ["calibrate", "--init", gt]}
    for name, argv in runs.items():
        out = tmp_path / name
        rc = main(argv[:1] + [str(scene)] + argv[1:] + ["--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (name, rc, err)
        for path in out.iterdir():
            assert not re.search(r"\bnan\b", path.read_text(), re.I), (name, path.name)
    report = read_report(tmp_path / "calibrate-gt" / "report.txt")["calibration_report"]
    n_points = read_point_cloud(frame).points.shape[0]
    assert report["pairs"]["frame_0001"]["n_behind_camera"] == n_points


@pytest.mark.parametrize("line", [pytest.param("1e20,0,1e20,1", id="1e20"),
                                  pytest.param("3.4e38,0,3.4e38,1", id="3.4e38")])
def test_far_point_that_breaks_the_plane_fit_is_named(scene_dir, tmp_path, capsys, line):
    """A point far out, but within float32's range, drags its class centroid
    so far that every plane triple looks collinear; the error names that
    centroid's class and frame."""
    scene = tmp_path / "far"
    shutil.copytree(scene_dir, scene)
    cloud = scene / "frame_0001.bin"
    write_point_cloud_csv(cloud.with_suffix(".csv"), read_point_cloud(cloud))
    cloud.unlink()
    with open(cloud.with_suffix(".csv"), "a") as f:
        f.write(line + "\n")
    assert main(["init", str(scene), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "collinear" in err and "class 1 of frame 'frame_0001'" in err, err


def test_frame_of_another_size_is_an_error(scene_dir, tmp_path, capsys):
    """The frames share one intrinsics file, so a label image of another
    size ends in an ``error:`` line that names its frame."""
    scene = tmp_path / "cropped"
    shutil.copytree(scene_dir, scene)
    image = read_label_image(scene / "frame_0001.pgm")
    write_label_image(scene / "frame_0001.pgm", LabelImage(image.labels[:-20, :-30]))
    for cmd in ("init", "calibrate"):
        assert main([cmd, str(scene), "--output", str(tmp_path / cmd)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frame_0001" in err, err
        assert len(err.splitlines()) == 1


def test_frame_id_that_cannot_be_a_report_key_is_an_error(scene_dir, tmp_path, capsys):
    """A frame id keys its block of the report, so one that would not parse
    back as itself ends in an ``error:`` line instead of a report whose
    ``pairs`` block reads back wrong."""
    scene = tmp_path / "colon"
    shutil.copytree(scene_dir, scene)
    for suffix in (".bin", ".pgm"):
        (scene / f"frame_0001{suffix}").rename(scene / f"a: b{suffix}")
    rc = main(["calibrate", str(scene), "--init", str(scene / "gt_extrinsics.txt"),
               "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "'a: b'" in err


def test_frame_id_that_cannot_be_a_report_value_fails_before_any_output(scene_dir, tmp_path,
                                                                       capsys):
    """A frame id is a value in the init report's centroid rows, which
    cannot hold ``true``; the scene is refused as it is read, in an
    ``error:`` line that names the file, before any output is written."""
    scene = tmp_path / "true"
    shutil.copytree(scene_dir, scene)
    for suffix in (".bin", ".pgm"):
        (scene / f"frame_0001{suffix}").rename(scene / f"true{suffix}")
    for cmd in ("init", "calibrate"):
        out = tmp_path / cmd
        assert main([cmd, str(scene), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "true.bin" in err, err
        assert not out.exists() or not any(out.iterdir())


def test_zero_padded_frame_ids_read_back_as_written(scene_dir, tmp_path):
    """KITTI-style frame names stay strings in the init report's rows."""
    scene = tmp_path / "padded"
    shutil.copytree(scene_dir, scene)
    for i in range(3):
        for suffix in (".bin", ".pgm"):
            (scene / f"frame_{i:04d}{suffix}").rename(scene / f"{i:06d}{suffix}")
    assert main(["init", str(scene), "--output", str(tmp_path / "out")]) == 0
    rows = read_report(tmp_path / "out" / "report.txt")["init_report"]["centroid_reprojection"]
    assert {row["frame"] for row in rows.values()} == {"000000", "000001", "000002"}


def test_calibrate_builds_each_field_once(scene_dir, tmp_path, monkeypatch):
    import semcal.costfield

    calls = []
    build = semcal.costfield.build_distance_field

    def counting_build(*args, **kwargs):
        images, classes = args[:2]
        calls.append((len(images), tuple(classes)))
        return build(*args, **kwargs)

    monkeypatch.setattr(semcal.costfield, "build_distance_field", counting_build)
    assert main(["calibrate", str(scene_dir), "--output", str(tmp_path / "cal")]) == 0
    # one build covers the 3 frames and all 3 classes; initialization and
    # refinement share it
    assert calls == [(3, (1, 2, 3))]


def test_cost_denominator_prints_as_an_integer():
    """The cost's denominator is a point count, so it prints and reads back
    as the integer, even past the 6 significant digits of a float."""
    breakdown = CostBreakdown(0.5, 617283.5, 1234567, {1: (617283.5, 1234567)}, {})
    text = format_report({"cost": _breakdown_block(breakdown)})
    assert "  denominator: 1234567\n" in text
    assert parse_report(text)["cost"]["denominator"] == 1234567
