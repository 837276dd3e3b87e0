"""Tests for file formats: clouds, images, key-value files, and reports."""

import math
import warnings
from dataclasses import fields, replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from semcal.errors import CalibrationError, FormatError
from semcal.geometry import CameraIntrinsics, Extrinsics, RotationAngles, Translation
from semcal.io_formats import (
    _CONFIG,
    _SCENE_SPEC,
    RunConfig,
    config_report_fields,
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
from semcal.scene import FramePair, LabelImage, LabeledPointCloud
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


@settings(max_examples=2000, deadline=None)
@given(value=st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]))
def test_fmt6_of_sig6_prints_as_fmt6(value):
    # so a report value needs no rounding before format_report prints it
    assert fmt6(sig6(value)) == fmt6(value)


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


@pytest.mark.parametrize("line", ["1_0,2,3,1", "1,2,\uff13,1", "1,2,3,\u0661",
                                  "1_0,2,\uff13,1"])
def test_cloud_csv_numbers_are_ascii_literals_without_underscores(tmp_path, line):
    # float() reads '1_0' as 10 and full-width or Arabic-Indic digits as digits
    path = tmp_path / "c.csv"
    path.write_text(f"0,0,1,1\n{line}\n", encoding="utf-8")
    with pytest.raises(FormatError, match="c.csv:2: non-numeric field"):
        read_point_cloud(path)


@pytest.mark.parametrize("line", ["1e200,0,1e200,1", "1e308,1e308,1e308,1", "0,0,1,3.5e38",
                                  "-3.5e38,0,1,1"])
def test_cloud_csv_fields_fit_in_float32(tmp_path, line):
    # a .bin record holds no more; beyond it the cost's squared ranges overflow
    path = tmp_path / "c.csv"
    path.write_text(f"0,0,1,1\n{line}\n")
    with pytest.raises(FormatError, match="c.csv:2: field beyond float32's range"):
        read_point_cloud(path)
    path.write_text("3.4e38,-3.4e38,3.4e38,1\n")
    assert read_point_cloud(path).points.tolist() == [[3.4e38, -3.4e38, 3.4e38]]


def test_pgm_round_trip(tmp_path):
    labels = (np.arange(35).reshape(5, 7) * 7) % 256
    path = tmp_path / "img.pgm"
    write_label_image(path, LabelImage(labels=labels))
    back = read_label_image(path)
    assert np.array_equal(back.labels, labels)


def test_pgm_accepts_comment_header(tmp_path):
    path = tmp_path / "img.pgm"
    for header in (b"P5\n# a comment\n2 2\n255\n",
                   b"#a\nP5 #b\n2\n#c\n2 #d\n255\n",
                   b"P5\t2\x0b2\x0c255\n"):
        path.write_bytes(header + b"\x01\x02\x03\x04")
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
    path.write_bytes(b"P5\n0 3\n255\n")
    with pytest.raises(FormatError, match="size"):
        read_label_image(path)
    # the header ends at the end of the file, with no byte after maxval
    path.write_bytes(b"P5\n2 2\n255")
    with pytest.raises(FormatError, match="expected 4 pixel bytes, found 0$"):
        read_label_image(path)
    # a comment runs to the end of the file, so the header never ends
    path.write_bytes(b"P5\n2 2\n# 255")
    with pytest.raises(FormatError, match="truncated PGM header"):
        read_label_image(path)
    # a '#' inside a token belongs to the token
    path.write_bytes(b"P5#c 2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError, match="magic b'P5#c'"):
        read_label_image(path)
    # header numbers are ASCII digits: no '#', '_' or sign, although int() takes the last two
    for header in (b"P5\n2#3 5\n255\n", b"P5\n1_0 1\n255\n", b"P5\n+5 2\n255\n",
                   b"P5\n5 2\n0_255\n", b"P5\n-2 -5\n255\n"):
        path.write_bytes(header + bytes(10))
        with pytest.raises(FormatError, match="non-numeric PGM header field"):
            read_label_image(path)


def test_pgm_rejects_labels_over_255(tmp_path):
    with pytest.raises(FormatError):
        write_label_image(tmp_path / "x.pgm", LabelImage(labels=np.full((2, 2), 300)))


def test_cloud_bin_rejects_coordinates_beyond_float32(tmp_path):
    # 1e39 would be written as inf
    cloud = LabeledPointCloud(np.array([[0.0, 0.0, 1e39]]), np.array([1]))
    with pytest.raises(FormatError, match="float32"):
        write_point_cloud(tmp_path / "c.bin", cloud)


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
    text = path.read_text()
    # the file holds the degrees and meters at full precision, bit for bit
    written = [float(line.split(" = ")[1]) for line in text.splitlines()]
    assert written == [*np.degrees(ext.rotation.as_array()), *ext.translation.as_array()]
    assert back.translation == ext.translation
    # radians(degrees(x)) may differ from x by one spacing (0.1 comes back
    # as 0.10000000000000002), and nothing else moves the angles
    for a, b in zip(ext.rotation.as_array(), back.rotation.as_array()):
        assert abs(b - a) <= np.spacing(abs(a))
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
        "cloud_remap = 10:1, 20:2\n"
        "# a comment line\n"
    )
    cfg = read_config(path)
    assert cfg.classes == (1, 2, 3)
    assert cfg.cloud_remap == {10: 1, 20: 2}
    # untouched fields keep their defaults
    assert cfg.image_remap is RunConfig().image_remap is None


def test_config_remap_skips_empty_entries(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("cloud_remap = 1:2,,3:4,\n")
    assert read_config(path).cloud_remap == {1: 2, 3: 4}


def test_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("not_a_setting = 1\n")
    with pytest.raises(FormatError, match="not_a_setting"):
        read_config(path)


def test_config_keys_are_the_run_config_fields():
    assert list(_CONFIG) == [f.name for f in fields(RunConfig)]


def test_config_report_fields():
    assert config_report_fields(RunConfig()) == {
        "classes": "none", "cloud_remap": "none", "image_remap": "none",
    }
    cfg = RunConfig(classes=(3, 1), cloud_remap={40: 1, 48: 2}, image_remap={})
    assert config_report_fields(cfg) == {
        "classes": "3,1", "cloud_remap": "40:1,48:2", "image_remap": "none",
    }


def test_scene_spec_parsing(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "n_frames = 5.0\nclasses = 1,2\ndepth_range = 3,9\n"
        "theta_z_deg = 45\nt_x_m = 0.25\nfx = 300\nnoise_rate = 0.1\n"
    )
    spec = read_scene_spec(path)
    # an integral value written as a float is still an integer field
    assert spec.n_frames == 5 and isinstance(spec.n_frames, int)
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


def test_scene_dir_holds_one_camera(tmp_path):
    """A frame with a camera of its own cannot be written: the scene's one
    intrinsics file would give it the scene's camera when read back."""
    scene = generate(SceneSpec(n_frames=3, objects_per_frame=2, seed=7))
    pairs = list(scene.pairs)
    own = replace(pairs[1].intrinsics, fx=300.0)
    pairs[1] = FramePair(pairs[1].cloud, pairs[1].image, own, pairs[1].frame_id)
    root = tmp_path / "scene"
    with pytest.raises(CalibrationError, match="'frame_0001' has other intrinsics"):
        write_scene_dir(root, pairs, scene.spec.intrinsics, scene.spec.classes)
    assert not root.exists()


def test_scene_dir_remaps_labels(tmp_path):
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    pairs, _, _ = read_scene_dir(root, cloud_remap={1: 7}, image_remap={1: 7})
    assert 7 in pairs[0].cloud.labels or 7 in pairs[1].cloud.labels
    assert not any((p.cloud.labels == 1).any() for p in pairs)
    assert not any((p.image.labels == 1).any() for p in pairs)


def test_scene_dir_remaps_image_labels_above_255(tmp_path):
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    pairs, _, _ = read_scene_dir(root, image_remap={1: 300})
    assert all(p.image.labels.dtype == np.uint16 for p in pairs)
    assert any((p.image.labels == 300).any() for p in pairs)
    assert not any((p.image.labels == 1).any() for p in pairs)


def test_cloud_rejects_fractional_and_nan_labels(tmp_path):
    path = tmp_path / "c.csv"
    for label in ("1.5", "nan", "inf"):
        path.write_text(f"0,0,1,2\n0,0,1,{label}\n")
        with pytest.raises(CalibrationError):
            read_point_cloud(path)
    blob = np.array([[0, 0, 1, 2], [0, 0, 1, np.nan]], dtype="<f4").tobytes()
    (tmp_path / "c.bin").write_bytes(blob)
    with pytest.raises(CalibrationError):
        read_point_cloud(tmp_path / "c.bin")
    # a signalling NaN is rejected too, without a RuntimeWarning from the cast
    (tmp_path / "c.bin").write_bytes(blob[:-4] + b"\x01\x00\x80\x7f")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CalibrationError):
            read_point_cloud(tmp_path / "c.bin")


@pytest.mark.parametrize("name", ["scene.txt", "frame_0000.csv"])
def test_scene_dir_text_must_be_utf8(tmp_path, name):
    scene = generate(SceneSpec(n_frames=1, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    if name.endswith(".csv"):
        (root / "frame_0000.bin").unlink()
    (root / name).write_bytes(b"\xff\xfe")
    with pytest.raises(FormatError, match="UTF-8"):
        read_scene_dir(root)


def test_scene_dir_missing_image(tmp_path):
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    (root / "frame_0001.pgm").unlink()
    with pytest.raises(FormatError, match="frame_0001"):
        read_scene_dir(root)


def test_scene_dir_checks_the_manifest_frame_count(tmp_path):
    # a partly copied scene must not calibrate in silence on fewer frames
    scene = generate(SceneSpec(n_frames=3, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    (root / "frame_0001.bin").unlink()
    (root / "frame_0001.pgm").unlink()
    with pytest.raises(FormatError, match="n_frames = 3, but the scene has 2 frames"):
        read_scene_dir(root)
    for text in ("2.5", "two"):
        (root / "scene.txt").write_text(f"n_frames = {text}\n")
        with pytest.raises(FormatError, match="n_frames"):
            read_scene_dir(root)
    (root / "scene.txt").write_text("n_frames = 2.0\nclasses = 1,2\n")
    assert len(read_scene_dir(root)[0]) == 2


@pytest.mark.parametrize("text", ["n_frame = 3", "classes = 1,2\nframes = 3", "seed = 1"])
def test_scene_dir_manifest_rejects_unknown_keys(tmp_path, text):
    # a misspelt n_frames used to be ignored, and the frame count unchecked
    scene = generate(SceneSpec(n_frames=3, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    (root / "scene.txt").write_text(text + "\n")
    with pytest.raises(FormatError, match=r"scene.txt: unknown manifest field"):
        read_scene_dir(root)


def test_key_value_files_are_written_as_before(tmp_path):
    # strings as they are, numbers with .17g, which prints an int as str() does
    scene = generate(SceneSpec(n_frames=2, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, (3, 1, 2), gt=Extrinsics(
        RotationAngles(0.1, 0.0, -0.2), Translation(0.2, -0.1, 1e-20)))
    assert (root / "scene.txt").read_text() == "n_frames = 2\nclasses = 3,1,2\n"
    assert (root / "intrinsics.txt").read_text() == (
        "fx = 400\nfy = 400\ncx = 320\ncy = 240\nwidth = 640\nheight = 480\n")
    assert (root / "gt_extrinsics.txt").read_text() == (
        "theta_x_deg = 5.729577951308233\ntheta_y_deg = 0\ntheta_z_deg = -11.459155902616466\n"
        "t_x_m = 0.20000000000000001\nt_y_m = -0.10000000000000001\n"
        "t_z_m = 9.9999999999999995e-21\n")


def test_scene_dir_frame_with_two_clouds(tmp_path):
    # a frame with both a .bin and a .csv cloud would otherwise load twice
    scene = generate(SceneSpec(n_frames=3, objects_per_frame=2, seed=1))
    root = tmp_path / "scene"
    write_scene_dir(root, scene.pairs, scene.spec.intrinsics, scene.spec.classes)
    write_point_cloud_csv(root / "frame_0001.csv", scene.pairs[1].cloud)
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
    # indentation that format_report never writes: under a value, two steps
    # down at once, or a tab
    for text in ("a: 1\n  b: 2\n", "a:\n    b: 1\n  c: 2\n", "a:\n\tb: 1\n", "a:\n   b: 1\n"):
        with pytest.raises(FormatError, match="bad indentation"):
            parse_report(text)


@pytest.mark.parametrize("key", ["", "a: b", "a:", "a\nb", "a\rb", " a", "a "],
                         ids=["empty", "colon", "colon-last", "newline", "return",
                              "leading-space", "trailing-space"])
def test_report_rejects_keys_that_cannot_parse_back(key):
    with pytest.raises(FormatError, match="report keys"):
        format_report({"pairs": {key: {"cost": 0.5}}})


@pytest.mark.parametrize("value", ["000123", "007", "1.0", "+1", "1e3", "1_000", "-0.0"])
def test_report_strings_that_look_numeric_read_back_as_written(value):
    # a report prints no number as any of these, so they stay strings
    assert parse_report(format_report({"frame": value})) == {"frame": value}


def test_report_negative_zero_reads_back():
    assert format_report({"x": -0.0}) == "x: -0\n"
    value = parse_report("x: -0\n")["x"]
    assert isinstance(value, float) and math.copysign(1.0, value) == -1.0


@pytest.mark.parametrize("value", ["a\rb", "a\nb", "a\r\nb", "a\n", "a\u2028b"])
def test_report_rejects_values_with_a_line_break(value):
    with pytest.raises(FormatError, match="single-line"):
        format_report({"frame": value})


@pytest.mark.parametrize("value", ["", "true", "false", " x", "x ", "\tx", " "],
                         ids=["empty", "true", "false", "leading-space", "trailing-space",
                              "leading-tab", "space"])
def test_report_rejects_values_that_read_back_as_something_else(value):
    # '' would open a nested block, 'true'/'false' read back as bools and
    # outer spaces are stripped on reading
    with pytest.raises(FormatError, match="report values"):
        format_report({"frame": value})


def test_report_scalar_typing():
    parsed = parse_report("a: 1\nb: 1.5\nc: true\nd: false\ne: hello\n")
    assert parsed == {"a": 1, "b": 1.5, "c": True, "d": False, "e": "hello"}


def test_write_csv_sig6(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("x", "y"), [(0.123456789, 2), ("row", 3.0)])
    assert path.read_text() == "x,y\n0.123457,2\nrow,3\n"


# ---------------------------------------------------------------------------
# properties of the text readers

_KEYS = st.sampled_from(sorted({*_SCENE_SPEC, *_CONFIG, "wobble"}))
_VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["1e308", "-0", "2.5", "1,2", "2,1", "1,inf", "nan,1", "yes", "1:2, 3:4"]),
)
_KEYVALUE_FILES = st.lists(st.tuples(_KEYS | st.text(max_size=6), _VALUES), max_size=8).map(
    lambda kvs: "\n".join(f"{k} = {v}" for k, v in kvs).encode("utf-8", "replace"))
_CSV_FILES = st.lists(st.lists(_VALUES, min_size=1, max_size=5).map(",".join), max_size=4).map(
    lambda rows: "\n".join(rows).encode("utf-8", "replace"))
_PGM_FILES = st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 300),
                       st.binary(max_size=20)).map(
    lambda h: f"P5\n{h[0]} {h[1]}\n{h[2]}\n".encode() + h[3])
_FILES = st.one_of(st.binary(max_size=64), _KEYVALUE_FILES, _CSV_FILES, _PGM_FILES,
                   st.text(max_size=64).map(lambda s: s.encode("utf-8", "replace")))


@pytest.mark.parametrize("reader, suffix", [
    (read_intrinsics, ".txt"), (read_extrinsics, ".txt"), (read_config, ".txt"),
    (read_scene_spec, ".txt"), (read_report, ".txt"), (read_point_cloud, ".csv"),
    (read_point_cloud, ".bin"), (read_label_image, ".pgm"),
])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=_FILES)
def test_readers_raise_only_calibration_errors(reader, suffix, blob, tmp_path):
    path = tmp_path / f"input{suffix}"
    path.write_bytes(blob)
    try:
        reader(path)
    except CalibrationError:  # FormatError included
        pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fx=_POSITIVE, fy=_POSITIVE, cx=_FINITE, cy=_FINITE,
       width=st.integers(1, 2**40), height=st.integers(1, 2**40))
def test_intrinsics_round_trip_bit_for_bit(tmp_path, fx, fy, cx, cy, width, height):
    k = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
    write_intrinsics(tmp_path / "k.txt", k)
    assert repr(read_intrinsics(tmp_path / "k.txt")) == repr(k)  # repr tells -0.0 from 0.0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(angles=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
       t=st.lists(_FINITE, min_size=3, max_size=3))
def test_extrinsics_round_trip(tmp_path, angles, t):
    ext = Extrinsics(RotationAngles(*angles), Translation(*t))
    write_extrinsics(tmp_path / "e.txt", ext)
    back = read_extrinsics(tmp_path / "e.txt")
    assert repr(back.translation) == repr(ext.translation)
    for a, b in zip(ext.rotation.as_array(), back.rotation.as_array()):
        # degrees and back cost at most one spacing; an angle read back
        # inside (-pi, pi] keeps its value, and -pi and pi are one angle
        assert abs(math.remainder(b - a, 2 * math.pi)) <= np.spacing(abs(a))


def _plain_string(text: str) -> bool:
    """Whether a report keeps ``text`` a string: one line, no outer spaces,
    and not the way a report prints a bool or a number."""
    if text != text.strip() or len(text.splitlines()) != 1 or text in ("true", "false"):
        return False
    for parse, show in ((int, str), (float, fmt6)):
        try:
            if show(parse(text)) == text:
                return False
        except ValueError:
            pass
    return True


_REPORT_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8)
_REPORT_VALUES = st.one_of(
    st.integers(),
    _FINITE.map(sig6),
    st.booleans(),
    st.text(min_size=1, max_size=16).filter(_plain_string),
)


@settings(max_examples=300, deadline=None)
@given(report=st.dictionaries(_REPORT_KEYS, st.recursive(
    _REPORT_VALUES, lambda inner: st.dictionaries(_REPORT_KEYS, inner, max_size=4),
    max_leaves=20), max_size=4))
def test_report_round_trip_property(report):
    assert parse_report(format_report(report)) == report
