"""Tests for file formats: clouds, images, key-value files, and reports."""

import numpy as np
import pytest

from semcal.errors import FormatError
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.io_formats import (
    RunConfig,
    extrinsics_report_fields,
    fmt6,
    format_report,
    parse_report,
    read_config,
    read_extrinsics,
    read_intrinsics,
    read_label_image,
    read_point_cloud,
    read_report,
    read_scene_dir,
    read_scene_spec,
    sig6,
    write_csv,
    write_extrinsics,
    write_intrinsics,
    write_label_image,
    write_point_cloud,
    write_point_cloud_csv,
    write_report,
    write_scene_dir,
)
from semcal.scene import LabelImage, LabeledPointCloud
from semcal.synth import SceneSpec, generate


@pytest.fixture
def cloud():
    return LabeledPointCloud(
        points=np.array([[1.5, -2.25, 3.0], [0.125, 0.5, 10.0], [-4.0, 0.0, 0.5]]),
        labels=np.array([1, 3, 2]),
    )


def test_sig6_and_fmt6():
    assert sig6(0.123456789) == 0.123457
    assert fmt6(0.123456789) == "0.123457"
    assert fmt6(sig6(1234567.89)) == "1.23457e+06"
    # printing a sig6-rounded value reproduces the same string
    val = sig6(np.pi)
    assert float(fmt6(val)) == val


def test_cloud_bin_round_trip(tmp_path, cloud):
    path = tmp_path / "c.bin"
    write_point_cloud(path, cloud)
    # 3 points, 4 float32 each
    assert path.stat().st_size == 3 * 16
    back = read_point_cloud(path)
    assert np.allclose(back.points, cloud.points, atol=1e-6)
    assert np.array_equal(back.labels, cloud.labels)


def test_cloud_csv_round_trip(tmp_path, cloud):
    path = tmp_path / "c.csv"
    write_point_cloud_csv(path, cloud)
    back = read_point_cloud(path)
    # text path keeps full float precision
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.labels, cloud.labels)


def test_cloud_bin_truncated(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 20)  # not a multiple of 16
    with pytest.raises(FormatError):
        read_point_cloud(path)


def test_cloud_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(FormatError, match="bad.csv:1"):
        read_point_cloud(path)


def test_pgm_round_trip(tmp_path):
    labels = (np.arange(35).reshape(5, 7) * 7) % 256
    path = tmp_path / "img.pgm"
    write_label_image(path, LabelImage(labels=labels))
    back = read_label_image(path)
    assert np.array_equal(back.labels, labels)


def test_pgm_accepts_comment_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
    back = read_label_image(path)
    assert np.array_equal(back.labels, [[1, 2], [3, 4]])


def test_pgm_rejects_bad_magic_and_size(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(FormatError, match="magic"):
        read_label_image(path)
    path.write_bytes(b"P5\n2 2\n255\n\x01\x02\x03")
    with pytest.raises(FormatError, match="pixel bytes"):
        read_label_image(path)
    # -2 x -3 passes a byte-count check of 6 but is no image size
    path.write_bytes(b"P5\n-2 -3\n255\n" + bytes(6))
    with pytest.raises(FormatError, match="size"):
        read_label_image(path)


def test_pgm_rejects_labels_over_255(tmp_path):
    with pytest.raises(FormatError):
        write_label_image(tmp_path / "x.pgm", LabelImage(labels=np.full((2, 2), 300)))


def test_intrinsics_round_trip(tmp_path):
    k = CameraIntrinsics(fx=400.5, fy=399.25, cx=320.125, cy=240.0, width=640, height=480)
    path = tmp_path / "k.txt"
    write_intrinsics(path, k)
    assert read_intrinsics(path) == k


def test_intrinsics_missing_field(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("fx = 400\nfy = 400\ncx = 320\ncy = 240\nwidth = 640\n")
    with pytest.raises(FormatError, match="height"):
        read_intrinsics(path)


def test_intrinsics_unknown_field(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text(
        "fx = 400\nfy = 400\ncx = 320\ncy = 240\nwidth = 640\nheight = 480\nskew = 1\n"
    )
    with pytest.raises(FormatError, match="skew"):
        read_intrinsics(path)


def test_extrinsics_round_trip_exact(tmp_path):
    ext = Extrinsics(RotationAngles(0.02, -0.04, 0.1), Translation(0.15, -0.08, 0.05))
    path = tmp_path / "e.txt"
    write_extrinsics(path, ext)
    back = read_extrinsics(path)
    # full-precision degrees survive the radian round trip bit-exactly here
    assert np.array_equal(back.to_vector(), ext.to_vector())
    text = path.read_text()
    assert "theta_x_deg" in text and "t_z_m" in text


def test_extrinsics_report_fields_are_degrees():
    ext = Extrinsics(RotationAngles(np.deg2rad(10.0), 0.0, 0.0), Translation(1.0, 0.0, 0.0))
    fields = extrinsics_report_fields(ext)
    assert fields["theta_x_deg"] == pytest.approx(10.0)
    assert fields["t_x_m"] == 1.0


def test_keyvalue_rejects_garbage(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("theta_x_deg 0.5\n")
    with pytest.raises(FormatError, match="key = value"):
        read_extrinsics(path)
    path.write_text("theta_x_deg = 1\ntheta_x_deg = 2\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_extrinsics(path)


def test_config_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "classes = 1,2,3\n"
        "seed = 7\n"
        "max_iterations = 50.0\n"
        "range_weighting = false\n"
        "cloud_remap = 10:1, 20:2\n"
        "# a comment line\n"
        "ftol = 1e-9\n"
    )
    cfg = read_config(path)
    assert cfg.classes == (1, 2, 3)
    assert cfg.seed == 7
    # an integral value written as a float is still an integer field
    assert cfg.max_iterations == 50 and isinstance(cfg.max_iterations, int)
    assert cfg.range_weighting is False
    assert cfg.cloud_remap == {10: 1, 20: 2}
    assert cfg.ftol == 1e-9
    # untouched fields keep their defaults
    assert cfg.ransac_iterations == RunConfig().ransac_iterations


def test_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("not_a_setting = 1\n")
    with pytest.raises(FormatError, match="not_a_setting"):
        read_config(path)


def test_scene_spec_parsing(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "n_frames = 5\nclasses = 1,2\ndepth_range = 3,9\n"
        "theta_z_deg = 45\nt_x_m = 0.25\nfx = 300\nnoise_rate = 0.1\n"
    )
    spec = read_scene_spec(path)
    assert spec.n_frames == 5
    assert spec.classes == (1, 2)
    assert spec.depth_range == (3.0, 9.0)
    assert spec.extrinsics.rotation.theta_z == pytest.approx(np.pi / 4)
    assert spec.extrinsics.translation.t_x == 0.25
    assert spec.intrinsics.fx == 300.0
    # unspecified intrinsics fields fall back to defaults
    assert spec.intrinsics.fy == SceneSpec().intrinsics.fy
    assert spec.noise_rate == 0.1


def test_scene_spec_rejects_unknown(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("wobble = 3\n")
    with pytest.raises(FormatError, match="wobble"):
        read_scene_spec(path)


def test_scene_dir_round_trip(tmp_path):
    scene = generate(SceneSpec(n_frames=3, objects_per_frame=2, seed=7))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes,
                    gt=scene.extrinsics)
    pairs, k, classes = read_scene_dir(root)
    assert classes == scene.spec.classes
    assert k == scene.spec.intrinsics
    assert [p.frame_id for p in pairs] == [p.frame_id for p in scene.pairs]
    for a, b in zip(scene.pairs, pairs):
        assert np.allclose(a.cloud.points, b.cloud.points, atol=1e-5)
        assert np.array_equal(a.cloud.labels, b.cloud.labels)
        assert np.array_equal(a.image.labels, b.image.labels)
    gt = read_extrinsics(root / "gt_extrinsics.txt")
    assert np.allclose(gt.to_vector(), np.asarray(scene.extrinsics.to_vector()))


def test_scene_dir_remaps_labels(tmp_path):
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    pairs, _, _ = read_scene_dir(root, cloud_remap={1: 7}, image_remap={1: 7})
    assert 7 in pairs[0].cloud.labels or 7 in pairs[1].cloud.labels
    assert not any((p.cloud.labels == 1).any() for p in pairs)
    assert not any((p.image.labels == 1).any() for p in pairs)


def test_scene_dir_missing_image(tmp_path):
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    (root / "frame_0001.pgm").unlink()
    with pytest.raises(FormatError, match="frame_0001"):
        read_scene_dir(root)


def test_scene_dir_empty(tmp_path):
    root = tmp_path / "scene"
    root.mkdir()
    write_intrinsics(root / "intrinsics.txt", SceneSpec().intrinsics)
    with pytest.raises(FormatError, match="no frame files"):
        read_scene_dir(root)


def test_report_round_trip(tmp_path):
    report = {
        "calibration_report": {
            "version": "0.1.0",
            "estimate": {"theta_x_deg": 1.14592, "t_x_m": 0.15},
            "cost": {"total": 0.123457, "n": 42, "converged": True},
            "note": "all good",
            "empty_value": "none",
        }
    }
    text = format_report(report)
    assert parse_report(text) == report
    path = tmp_path / "report.txt"
    write_report(path, report)
    assert read_report(path) == report


def test_report_rejects_duplicate_and_bad_indent():
    with pytest.raises(FormatError, match="duplicate"):
        parse_report("a: 1\na: 2\n")
    with pytest.raises(FormatError, match="key"):
        parse_report("just some text\n")


def test_report_scalar_typing():
    parsed = parse_report("a: 1\nb: 1.5\nc: true\nd: false\ne: hello\n")
    assert parsed == {"a": 1, "b": 1.5, "c": True, "d": False, "e": "hello"}


def test_write_csv_sig6(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "y"), [(0.123456789, 2), ("row", 3.0)])
    assert path.read_text() == "x,y\n0.123457,2\nrow,3\n"
