"""End-to-end tests for the command-line interface."""

import re
import shutil

import numpy as np
import pytest

from semcal.cli import main
from semcal.geometry import Extrinsics, RotationAngles, Translation
from semcal.io_formats import (
    read_extrinsics,
    read_label_image,
    read_point_cloud,
    read_report,
    write_extrinsics,
    write_label_image,
)
from semcal.scene import LabelImage


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
def garbled_scene_dir(scene_dir, tmp_path_factory):
    """A copy of the scene whose intrinsics file is not UTF-8 text."""
    root = tmp_path_factory.mktemp("garbled") / "scene"
    shutil.copytree(scene_dir, root)
    (root / "intrinsics.txt").write_bytes(b"\xff\xfe")
    return root


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
    assert 0 < report["trace"]["n_probe_evaluations"] < report["trace"]["n_evaluations"]
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
    errors = read_report(out / "report.txt")["eval_report"]["errors"]
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("semcal ")


def test_removed_config_keys_are_errors(scene_dir, tmp_path, capsys):
    # the smooth cost mode (epsilon) and the thread count are gone
    config = tmp_path / "old.cfg"
    for text in ("epsilon = 0.5", "epsilon = -1", "threads = 2"):
        config.write_text(text + "\n")
        rc = main(["calibrate", str(scene_dir), "--config", str(config),
                   "--output", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(text.split()[0]) in err


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


@pytest.mark.parametrize("argv", [
    pytest.param(["init", "{scene}", "--classes", "a,b"], id="init-classes"),
    pytest.param(["synth", "--classes", "a,b"], id="synth-classes"),
    pytest.param(_SWEEP + ["--range", "nan", "--interval", "0.1"], id="range-nan"),
    pytest.param(_SWEEP + ["--range", "inf", "--interval", "0.1"], id="range-inf"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "nan"], id="interval-nan"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "inf"], id="interval-inf"),
    pytest.param(_CALIBRATE + ["--config", "max_iterations = nan"], id="config-max_iterations-nan"),
    pytest.param(_CALIBRATE + ["--config", "max_iterations = inf"], id="config-max_iterations-inf"),
    pytest.param(_CALIBRATE + ["--config", "seed = nan"], id="config-seed-nan"),
    pytest.param(_CALIBRATE + ["--config", "ransac_iterations = 2.5"], id="config-ransac-fraction"),
    pytest.param(_CALIBRATE + ["--config", "ftol = nan"], id="config-ftol-nan"),
    pytest.param(_CALIBRATE + ["--config", "line_tol = nan"], id="config-line_tol-nan"),
    pytest.param(["synth", "--spec", "n_frames = nan"], id="spec-n_frames-nan"),
    pytest.param(["synth", "--spec", "objects_per_frame = inf"], id="spec-objects-inf"),
    pytest.param(["synth", "--spec", "seed = nan"], id="spec-seed-nan"),
    pytest.param(["synth", "--spec", "width = nan"], id="spec-width-nan"),
    pytest.param(["synth", "--seed", "-1"], id="synth-seed-negative"),
    pytest.param(["synth", "--spec", "seed = -1"], id="spec-seed-negative"),
    pytest.param(["init", "{scene}", "--seed", "-1"], id="init-seed-negative"),
    pytest.param(["init", "{scene}", "--config", "seed = -1"], id="config-seed-negative"),
    pytest.param(["init", "{scene}", "--config", "planarity_ratio = nan"],
                 id="config-planarity_ratio-nan"),
    pytest.param(["init", "{scene}", "--config", "planarity_ratio = 0"],
                 id="config-planarity_ratio-zero"),
    pytest.param(["init", "{scene}", "--config", "ransac_threshold = -1"],
                 id="config-ransac_threshold-negative"),
    pytest.param(["init", "{scene}", "--config", "ransac_threshold = inf"],
                 id="config-ransac_threshold-inf"),
    pytest.param(["init", "{scene}", "--config", "ransac_iterations = 0"],
                 id="config-ransac_iterations-zero"),
    # settings the subcommand does not use are still checked
    pytest.param(_CALIBRATE + ["--config", "planarity_ratio = nan"],
                 id="calibrate-init-file-planarity_ratio-nan"),
    pytest.param(_CALIBRATE + ["--config", "seed = -1"], id="calibrate-init-file-seed-negative"),
    pytest.param(["init", "{scene}", "--config", "ftol = nan"], id="init-ftol-nan"),
    pytest.param(["init", "{scene}", "--config", "max_iterations = 0"],
                 id="init-max_iterations-zero"),
    pytest.param(_SWEEP + ["--range", "1", "--interval", "0.1", "--config", "line_tol = -1"],
                 id="sweep-line_tol-negative"),
    pytest.param(["init", "{scene}", "--classes", "1,-2"], id="init-classes-negative"),
    pytest.param(["init", "{scene}", "--config", b"\xff\xfe"], id="config-not-utf8"),
    pytest.param(["init", "{garbled}"], id="intrinsics-not-utf8"),
    pytest.param(["synth", "--spec", "size_range = 1,inf"], id="spec-size_range-inf"),
    pytest.param(["synth", "--spec", "lateral_range = nan,1"], id="spec-lateral_range-nan"),
    pytest.param(["synth", "--spec", "lateral_range = 2,1"], id="spec-lateral_range-unordered"),
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
def test_bad_input_is_an_error(argv, scene_dir, garbled_scene_dir, tmp_path, capsys):
    """Each bad flag or file value ends in one ``error:`` line, not a traceback."""
    args = []
    for prev, arg in zip([None] + argv, argv):
        if prev in ("--config", "--spec"):
            path = tmp_path / "settings.txt"
            path.write_bytes(arg if isinstance(arg, bytes) else arg.encode() + b"\n")
            arg = str(path)
        args.append(arg.format(scene=scene_dir, gt=scene_dir / "gt_extrinsics.txt",
                               garbled=garbled_scene_dir))
    assert main(args + ["--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_calibrate_builds_each_field_once(scene_dir, tmp_path, monkeypatch):
    import semcal.costfield

    calls = []
    build = semcal.costfield.build_distance_field

    def counting_build(images, classes, out=None):
        calls.append((len(images), tuple(classes)))
        return build(images, classes, out)

    monkeypatch.setattr(semcal.costfield, "build_distance_field", counting_build)
    assert main(["calibrate", str(scene_dir), "--output", str(tmp_path / "cal")]) == 0
    # the 3 same-size frames form one build that covers all 3 classes;
    # initialization and refinement share it
    assert calls == [(3, (1, 2, 3))]
