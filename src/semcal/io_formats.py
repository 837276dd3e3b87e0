"""File formats for scenes, calibrations, configs, and reports.

Everything here is plain text or dependency-free binary so fixtures can be
written by hand and outputs diffed byte-for-byte:

* point clouds: packed little-endian float32 records ``x, y, z, label``
  (``.bin``), or one ``x,y,z,label`` line per point (``.csv``)
* label images: binary 8-bit single-channel PGM (``P5``)
* intrinsics, extrinsics, configs, scene specs: UTF-8 ``key = value`` text,
  each read against a schema of its keys by one reader
* reports: an indentation-structured key/value document that parses back
  to the dictionary it was written from

Angles are degrees in every file and radians in memory; the conversion
happens only in :func:`to_file_units` and :func:`from_file_units`.
Report fields are rounded to 6 significant digits before writing so a
parsed report compares equal to the in-memory one; machine-oriented
extrinsics files keep full precision because downstream commands re-read
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import CalibrationError, FormatError
from .geometry import CameraIntrinsics, Extrinsics
from .scene import FramePair, LabelImage, LabeledPointCloud
from .synth import SceneSpec


def sig6(value: float) -> float:
    """Round to 6 significant digits, the precision of every report field."""
    return float(f"{float(value):.6g}")


def fmt6(value: float) -> str:
    """Render a number the way reports print it."""
    return f"{float(value):.6g}"


def _read_text(path) -> str:
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _parse_keyvalues(path, text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"{path}:{lineno}: empty key")
        if key in out:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _read_fields(path, kind: str, schema: dict, required: bool) -> dict:
    """Read a ``key = value`` file whose keys all appear in ``schema``.

    ``schema`` maps each key to a converter ``(path, key, text) -> value``.
    Returns the converted values of the keys present, in schema order; with
    ``required`` every schema key must be present.
    """
    mapping = _parse_keyvalues(path, _read_text(path))
    unknown = set(mapping) - set(schema)
    if unknown:
        raise FormatError(f"{path}: unknown {kind} field(s) {sorted(unknown)}")
    values = {}
    for key, convert in schema.items():
        if key in mapping:
            values[key] = convert(path, key, mapping[key])
        elif required:
            raise FormatError(f"{path}: missing required field {key!r}")
    return values


def _float(path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}: field {key!r} is not a number: {text!r}") from None


def _int(path, key: str, text: str) -> int:
    value = _float(path, key, text)
    if not value.is_integer():  # also false for nan and inf
        raise FormatError(f"{path}: field {key!r} is not an integer: {text!r}")
    return int(value)


def _bool(path, key: str, text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise FormatError(f"{path}: field {key!r} is not a boolean: {text!r}")


def parse_classes(path, text: str) -> tuple[int, ...]:
    """Parse a comma-separated class-id list; ``path`` names its source."""
    try:
        ids = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise FormatError(f"{path}: bad class list {text!r}") from None
    if not ids:
        raise FormatError(f"{path}: empty class list")
    return ids


def _classes(path, key: str, text: str) -> tuple[int, ...]:
    return parse_classes(path, text)


def _remap(path, key: str, text: str) -> dict[int, int]:
    table: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise FormatError(f"{path}: {key} entries must look like src:dst, got {part!r}")
        src, dst = part.split(":", 1)
        try:
            table[int(src)] = int(dst)
        except ValueError:
            raise FormatError(f"{path}: non-integer id in {key} entry {part!r}") from None
    return table


def _range(path, key: str, text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"{path}: {key} must be 'low,high'")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise FormatError(f"{path}: non-numeric bound in {key}") from None


_INTRINSICS = {"fx": _float, "fy": _float, "cx": _float, "cy": _float,
               "width": _int, "height": _int}
_EXTRINSICS = dict.fromkeys(
    ("theta_x_deg", "theta_y_deg", "theta_z_deg", "t_x_m", "t_y_m", "t_z_m"), _float)


# ---------------------------------------------------------------------------
# point clouds


def write_point_cloud(path, cloud: LabeledPointCloud) -> None:
    """Write packed float32 ``x y z label`` records, little-endian."""
    if (np.abs(cloud.points) > np.finfo(np.float32).max).any():
        raise FormatError(f"{path}: point coordinates must fit in float32 for .bin output")
    rec = np.empty((cloud.points.shape[0], 4), dtype="<f4")
    rec[:, :3] = cloud.points
    rec[:, 3] = cloud.labels
    Path(path).write_bytes(rec.tobytes())


def write_point_cloud_csv(path, cloud: LabeledPointCloud) -> None:
    """Write one ``x,y,z,label`` line per point, full precision."""
    lines = [
        f"{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},{int(l)}"
        for p, l in zip(cloud.points, cloud.labels)
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_point_cloud(path) -> LabeledPointCloud:
    """Read a point cloud; ``.csv`` is text, anything else packed binary."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        rows = []
        for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 comma-separated values")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric field in {raw!r}") from None
        data = np.asarray(rows, dtype=float).reshape(len(rows), 4)
    else:
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise FormatError(f"{path}: {exc.strerror or exc}") from exc
        if len(blob) % 16 != 0:
            raise FormatError(f"{path}: size {len(blob)} is not a multiple of 16 bytes")
        with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
            data = np.frombuffer(blob, dtype="<f4").astype(float).reshape(-1, 4)
    return LabeledPointCloud(points=data[:, :3].copy(), labels=data[:, 3])


# ---------------------------------------------------------------------------
# label images


def write_label_image(path, image: LabelImage) -> None:
    """Write a binary PGM (P5), one class id per pixel."""
    labels = image.labels
    if labels.min() < 0 or labels.max() > 255:
        raise FormatError(f"{path}: class ids must fit in 0..255 for PGM output")
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + labels.astype(np.uint8).tobytes())


def read_label_image(path) -> LabelImage:
    """Read a binary PGM (P5) label image."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    # header is ASCII tokens (magic, width, height, maxval); '#' comments allowed
    pos = 0
    tokens = []
    while len(tokens) < 4:
        if pos >= len(blob):
            raise FormatError(f"{path}: truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(blob[start:pos])
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise FormatError(f"{path}: non-numeric PGM header field") from None
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: PGM size {width}x{height} is not positive")
    pos += 1  # single whitespace byte after maxval
    data = blob[pos:]
    if len(data) != width * height:
        raise FormatError(
            f"{path}: expected {width * height} pixel bytes, found {len(data)}"
        )
    return LabelImage(labels=np.frombuffer(data, dtype=np.uint8).reshape(height, width))


# ---------------------------------------------------------------------------
# intrinsics and extrinsics


def write_intrinsics(path, k: CameraIntrinsics) -> None:
    lines = [f"{key} = {getattr(k, key):.17g}" for key in _INTRINSICS]
    Path(path).write_text("\n".join(lines) + "\n")


def read_intrinsics(path) -> CameraIntrinsics:
    return CameraIntrinsics(**_read_fields(path, "intrinsics", _INTRINSICS, required=True))


def to_file_units(vector) -> list[float]:
    """A pose vector ``(theta_x, theta_y, theta_z, t_x, t_y, t_z)`` in radians
    and meters as file values: degrees, then meters."""
    vector = np.asarray(vector, dtype=float)
    return [*np.degrees(vector[:3]).tolist(), *vector[3:].tolist()]


def from_file_units(values) -> np.ndarray:
    """Inverse of :func:`to_file_units`."""
    return np.concatenate([np.radians(values[:3]), values[3:]])


def write_extrinsics(path, ext: Extrinsics) -> None:
    """Write six named values, angles in degrees, full precision."""
    values = to_file_units(ext.to_vector())
    lines = [f"{key} = {val:.17g}" for key, val in zip(_EXTRINSICS, values)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_extrinsics(path) -> Extrinsics:
    values = _read_fields(path, "extrinsics", _EXTRINSICS, required=True)
    return Extrinsics.from_vector(from_file_units(list(values.values())))


def extrinsics_report_fields(ext: Extrinsics) -> dict[str, float]:
    """The six parameters as report fields (degrees, 6 significant digits)."""
    return {key: sig6(val) for key, val in zip(_EXTRINSICS, to_file_units(ext.to_vector()))}


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """Every setting of the pipeline, checked when the config is built.

    ``classes`` of ``None`` means "take them from the scene manifest".
    ``seed`` and the ``ransac_*`` and ``planarity_ratio`` fields drive
    :func:`semcal.pnp_init.initialize`; ``max_iterations``, ``ftol`` and
    ``line_tol`` drive :func:`semcal.optimizer.powell_minimize`.  Remap
    tables translate external label vocabularies into the shared class-id
    space; ids absent from a table pass through unchanged.
    """

    classes: tuple[int, ...] | None = None
    range_weighting: bool = True
    seed: int = 0
    max_iterations: int = 200
    ftol: float = 1e-8
    line_tol: float = 1e-6
    ransac_threshold: float = 0.2  # meters
    ransac_iterations: int = 500
    planarity_ratio: float = 0.05  # max plane rms as a fraction of the centroid spread
    cloud_remap: dict[int, int] | None = None
    image_remap: dict[int, int] | None = None

    def __post_init__(self):
        if not (0 < self.ransac_threshold < math.inf and 0 < self.planarity_ratio < math.inf):
            raise CalibrationError(
                "ransac_threshold and planarity_ratio must be positive and finite")
        if self.ransac_iterations < 1:
            raise CalibrationError("ransac_iterations must be at least 1")
        if self.seed < 0:
            raise CalibrationError("seed must be non-negative")
        if self.max_iterations < 1:
            raise CalibrationError("max_iterations must be at least 1")
        if not (0 < self.ftol < math.inf and 0 < self.line_tol < math.inf):
            raise CalibrationError("tolerances must be positive and finite")


# one converter per RunConfig field
_CONFIG = {
    "classes": _classes, "range_weighting": _bool, "seed": _int, "max_iterations": _int,
    "ftol": _float, "line_tol": _float, "ransac_threshold": _float,
    "ransac_iterations": _int, "planarity_ratio": _float,
    "cloud_remap": _remap, "image_remap": _remap,
}


def read_config(path) -> RunConfig:
    """Read a ``key = value`` config file into a :class:`RunConfig`."""
    return RunConfig(**_read_fields(path, "config", _CONFIG, required=False))


def config_report_fields(cfg: RunConfig) -> dict:
    """Every setting as a report field, in field order; unset and empty ones read ``none``."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value in (None, {}):
            value = "none"
        elif isinstance(value, tuple):
            value = ",".join(str(i) for i in value)
        elif isinstance(value, dict):
            value = ",".join(f"{s}:{d}" for s, d in value.items())
        elif isinstance(value, float):
            value = sig6(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# synthetic scene specs

_SCENE_SPEC = {
    "n_frames": _int, "objects_per_frame": _int, "points_per_object": _int, "seed": _int,
    "dilation": _int, "densify": _int, "noise_rate": _float, "ground_y": _float,
    "ground_jitter": _float, "classes": _classes, "size_range": _range,
    "depth_range": _range, "lateral_range": _range, **_INTRINSICS, **_EXTRINSICS,
}


def read_scene_spec(path) -> SceneSpec:
    """Read generator settings from a ``key = value`` file.

    Any field may be omitted; ranges are ``low,high`` pairs, the ground-truth
    extrinsics use the same six degree/meter keys as extrinsics files, and
    camera fields mirror the intrinsics file.
    """
    values = _read_fields(path, "scene-spec", _SCENE_SPEC, required=False)
    spec = SceneSpec()
    camera = {key: values.pop(key) for key in _INTRINSICS if key in values}
    if camera:
        values["intrinsics"] = replace(spec.intrinsics, **camera)
    pose = {key: values.pop(key) for key in _EXTRINSICS if key in values}
    if pose:
        pose = {**dict(zip(_EXTRINSICS, to_file_units(spec.extrinsics.to_vector()))), **pose}
        values["extrinsics"] = Extrinsics.from_vector(from_file_units(list(pose.values())))
    return replace(spec, **values)


# ---------------------------------------------------------------------------
# scene directories


def write_scene_dir(path, pairs, intrinsics: CameraIntrinsics, classes,
                    gt: Extrinsics | None = None) -> None:
    """Write frames plus intrinsics, manifest, and optional GT extrinsics."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        write_point_cloud(root / f"{pair.frame_id}.bin", pair.cloud)
        write_label_image(root / f"{pair.frame_id}.pgm", pair.image)
    write_intrinsics(root / "intrinsics.txt", intrinsics)
    manifest = [
        f"n_frames = {len(pairs)}",
        "classes = " + ",".join(str(c) for c in classes),
    ]
    (root / "scene.txt").write_text("\n".join(manifest) + "\n")
    if gt is not None:
        write_extrinsics(root / "gt_extrinsics.txt", gt)


def _remap_labels(labels: np.ndarray, table: dict[int, int]) -> np.ndarray:
    out = labels.astype(np.int64)  # a target id may not fit the source's type
    for src, dst in table.items():
        out[labels == src] = dst
    return out


def read_scene_dir(path, cloud_remap: dict[int, int] | None = None,
                   image_remap: dict[int, int] | None = None,
                   ) -> tuple[list[FramePair], CameraIntrinsics, tuple[int, ...] | None]:
    """Load all frame pairs from a scene directory.

    Returns the pairs, the shared intrinsics, and the manifest's class list
    (``None`` when there is no manifest).  Each frame is a ``<stem>.bin`` or
    ``<stem>.csv`` cloud next to a ``<stem>.pgm`` label image.
    """
    root = Path(path)
    if not root.is_dir():
        raise FormatError(f"{root}: not a directory")
    intrinsics_path = root / "intrinsics.txt"
    if not intrinsics_path.exists():
        raise FormatError(f"{root}: missing intrinsics.txt")
    intrinsics = read_intrinsics(intrinsics_path)
    cloud_paths = sorted(
        [*root.glob("*.bin"), *root.glob("*.csv")], key=lambda p: p.stem
    )
    pairs = []
    for cloud_path in cloud_paths:
        image_path = cloud_path.with_suffix(".pgm")
        if not image_path.exists():
            raise FormatError(f"{cloud_path}: no matching label image {image_path.name}")
        cloud = read_point_cloud(cloud_path)
        image = read_label_image(image_path)
        if cloud_remap:
            cloud = LabeledPointCloud(cloud.points, _remap_labels(cloud.labels, cloud_remap))
        if image_remap:
            image = LabelImage(_remap_labels(image.labels, image_remap))
        pairs.append(
            FramePair(cloud=cloud, image=image, intrinsics=intrinsics,
                      frame_id=cloud_path.stem)
        )
    if not pairs:
        raise FormatError(f"{root}: no frame files (*.bin or *.csv)")
    classes = None
    manifest_path = root / "scene.txt"
    if manifest_path.exists():
        manifest = _parse_keyvalues(manifest_path, _read_text(manifest_path))
        if "classes" in manifest:
            classes = parse_classes(manifest_path, manifest["classes"])
    return pairs, intrinsics, classes


# ---------------------------------------------------------------------------
# hierarchical reports


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt6(value)
    text = str(value)
    if "\n" in text:
        raise FormatError(f"report values must be single-line, got {text!r}")
    return text


def format_report(data: dict) -> str:
    """Render a nested dict as an indentation-structured document."""
    lines: list[str] = []

    def emit(mapping: dict, depth: int) -> None:
        pad = "  " * depth
        for key, value in mapping.items():
            key = str(key)
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                emit(value, depth + 1)
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")

    emit(data, 0)
    return "\n".join(lines) + "\n"


def write_report(path, data: dict) -> None:
    Path(path).write_text(format_report(data))


def _scalar_value(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str, source: str = "report") -> dict:
    """Parse a document written by :func:`format_report` back to its dict."""
    root: dict = {}
    # stack of (indent, dict) for the open nesting levels
    stack: list[tuple[int, dict]] = [(-1, root)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        line = raw.strip()
        if ":" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key: value' or 'key:'")
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        while stack and indent <= stack[-1][0]:
            stack.pop()
        if not stack:
            raise FormatError(f"{source}:{lineno}: bad indentation")
        parent = stack[-1][1]
        if key in parent:
            raise FormatError(f"{source}:{lineno}: duplicate key {key!r}")
        if rest:
            parent[key] = _scalar_value(rest)
        else:
            child: dict = {}
            parent[key] = child
            stack.append((indent, child))
    return root


def read_report(path) -> dict:
    path = Path(path)
    return parse_report(_read_text(path), source=str(path))


# ---------------------------------------------------------------------------
# CSV sidecars


def write_csv(path, header: tuple[str, ...], rows) -> None:
    """Write a CSV with 6-significant-digit numeric fields."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else fmt6(cell) for cell in row
        ))
    Path(path).write_text("\n".join(lines) + "\n")
