"""File formats for scenes, calibrations, configs, and reports.

Everything here is plain text or dependency-free binary so fixtures can be
written by hand and outputs diffed byte-for-byte:

* point clouds: packed little-endian float32 records ``x, y, z, label``
  (``.bin``), or one ``x,y,z,label`` line per point (``.csv``)
* label images: binary 8-bit single-channel PGM (``P5``)
* intrinsics, extrinsics, configs, scene specs, scene manifests: UTF-8
  ``key = value`` text, each read against a schema of its keys by one reader
  and written by one writer, numbers with ``.17g`` so they read back exactly
* reports: an indentation-structured key/value document that parses back
  to the dictionary it was written from

Angles are degrees in every file and radians in memory; files convert
through :func:`to_file_units` and :func:`from_file_units`.
"""

from __future__ import annotations

import re
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


def _read_bytes(path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc


def _read_text(path) -> str:
    path = Path(path)
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_fields(path, kind: str, schema: dict, required: bool) -> dict:
    """Read a ``key = value`` file whose keys all appear in ``schema``.

    '#' starts a comment and blank lines are ignored.  ``schema`` maps each
    key to a converter ``(path, key, text) -> value``.  Returns the
    converted values of the keys present, in schema order; with
    ``required`` every schema key must be present.
    """
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise FormatError(f"{path}:{lineno}: empty key")
        if key in mapping:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
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


def _write_fields(path, mapping: dict) -> None:
    """Write ``key = value`` lines: strings as they are, numbers with ``.17g``."""
    Path(path).write_text("".join(
        f"{key} = {value if isinstance(value, str) else format(value, '.17g')}\n"
        for key, value in mapping.items()))


def _number(convert):
    """``convert`` for ASCII literals without '_' only, unlike float('1_0') or
    int('５'), under ``convert``'s name, which argparse's usage errors print."""
    def number(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return convert(text)
    number.__name__ = convert.__name__
    return number


ascii_int, ascii_float = _number(int), _number(float)


def _float(path, key: str, text: str) -> float:
    try:
        return ascii_float(text)
    except ValueError:
        raise FormatError(f"{path}: field {key!r} is not a number: {text!r}") from None


def _int(path, key: str, text: str) -> int:
    value = _float(path, key, text)
    if not value.is_integer():  # also false for nan and inf
        raise FormatError(f"{path}: field {key!r} is not an integer: {text!r}")
    return int(value)


def parse_classes(path, text: str) -> tuple[int, ...]:
    """Parse a comma-separated class-id list; ``path`` names its source."""
    try:
        ids = tuple(ascii_int(p) for p in text.split(",") if p.strip())
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
            src, dst = ascii_int(src), ascii_int(dst)
        except ValueError:
            raise FormatError(f"{path}: non-integer id in {key} entry {part!r}") from None
        if src in table:
            raise FormatError(f"{path}: {key} maps the id {src} twice")
        table[src] = dst
    return table


def _range(path, key: str, text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"{path}: {key} must be 'low,high'")
    try:
        return ascii_float(parts[0]), ascii_float(parts[1])
    except ValueError:
        raise FormatError(f"{path}: non-numeric bound in {key}") from None


_INTRINSICS = {"fx": _float, "fy": _float, "cx": _float, "cy": _float,
               "width": _int, "height": _int}
# the six pose parameters as files name them, each with its file unit
POSE_FIELDS = ("theta_x_deg", "theta_y_deg", "theta_z_deg", "t_x_m", "t_y_m", "t_z_m")
_EXTRINSICS = dict.fromkeys(POSE_FIELDS, _float)


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
        limit = float(np.finfo(np.float32).max)  # what a .bin record holds; squares overflow beyond
        for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 comma-separated values")
            try:
                row = [ascii_float(p) for p in parts]
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-numeric field in {raw!r}") from None
            if any(abs(v) > limit for v in row):
                raise FormatError(f"{path}:{lineno}: field beyond float32's range in {raw!r}")
            rows.append(row)
        data = np.asarray(rows, dtype=float).reshape(len(rows), 4)
    else:
        blob = _read_bytes(path)
        if len(blob) % 16 != 0:
            raise FormatError(f"{path}: size {len(blob)} is not a multiple of 16 bytes")
        with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
            data = np.frombuffer(blob, dtype="<f4").astype(float).reshape(-1, 4)
    return LabeledPointCloud(points=data[:, :3], labels=data[:, 3])


# ---------------------------------------------------------------------------
# label images


def write_label_image(path, image: LabelImage) -> None:
    """Write a binary PGM (P5), one class id per pixel."""
    labels = image.labels
    if labels.min() < 0 or labels.max() > 255:
        raise FormatError(f"{path}: class ids must fit in 0..255 for PGM output")
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + labels.astype(np.uint8).tobytes())


# A PGM header token after whitespace and '#' comments; a comment runs to its
# newline, and a '#' inside a token belongs to the token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def read_label_image(path) -> LabelImage:
    """Read a binary PGM (P5) label image."""
    path = Path(path)
    blob = _read_bytes(path)
    pos = 0
    tokens = []
    for _ in range(4):  # magic, width, height, maxval
        match = _PGM_TOKEN.match(blob, pos)
        if match is None:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(match[1])
        pos = match.end()
    if tokens[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):  # ASCII digits only, unlike int()
        raise FormatError(f"{path}: non-numeric PGM header field")
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval}")
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: PGM size {width}x{height} is not positive")
    pos += 1  # single whitespace byte after maxval, if the file has one
    found = max(len(blob) - pos, 0)
    if found != width * height:
        raise FormatError(f"{path}: expected {width * height} pixel bytes, found {found}")
    # a view of the file's bytes: LabelImage makes the one copy
    return LabelImage(labels=np.frombuffer(blob, np.uint8, offset=pos).reshape(height, width))


# ---------------------------------------------------------------------------
# intrinsics and extrinsics


def write_intrinsics(path, k: CameraIntrinsics) -> None:
    _write_fields(path, {key: getattr(k, key) for key in _INTRINSICS})


def read_intrinsics(path) -> CameraIntrinsics:
    return CameraIntrinsics(**_read_fields(path, "intrinsics", _INTRINSICS, required=True))


def to_file_units(vector) -> list[float]:
    """A pose vector ``(theta_x, theta_y, theta_z, t_x, t_y, t_z)`` in radians
    and meters as file values: degrees, then meters."""
    vector = np.asarray(vector, dtype=float)
    return [*np.degrees(vector[:3]).tolist(), *vector[3:].tolist()]


def from_file_units(values) -> np.ndarray:
    """Inverse of :func:`to_file_units`, for one pose or a table of them, one per row."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.radians(values[..., :3]), values[..., 3:]], axis=-1)


def write_extrinsics(path, ext: Extrinsics) -> None:
    """Write six named values, angles in degrees, full precision."""
    _write_fields(path, extrinsics_report_fields(ext))


def read_extrinsics(path) -> Extrinsics:
    values = _read_fields(path, "extrinsics", _EXTRINSICS, required=True)
    return Extrinsics.from_vector(from_file_units(list(values.values())))


def extrinsics_report_fields(ext: Extrinsics) -> dict[str, float]:
    """The six parameters keyed as in extrinsics files and reports, angles in degrees."""
    return dict(zip(_EXTRINSICS, to_file_units(ext.to_vector())))


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    """The settings that describe a scene's data.

    ``classes`` of ``None`` means "take them from the scene manifest".
    Remap tables translate external label vocabularies into the shared
    class-id space; ids absent from a table pass through unchanged.
    """

    classes: tuple[int, ...] | None = None
    cloud_remap: dict[int, int] | None = None
    image_remap: dict[int, int] | None = None


# one converter per RunConfig field
_CONFIG = {"classes": _classes, "cloud_remap": _remap, "image_remap": _remap}


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
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# synthetic scene specs

_SCENE_SPEC = {
    "n_frames": _int, "objects_per_frame": _int, "points_per_object": _int, "seed": _int,
    "dilation": _int, "noise_rate": _float, "ground_y": _float,
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
        pose = {**extrinsics_report_fields(spec.extrinsics), **pose}
        values["extrinsics"] = Extrinsics.from_vector(from_file_units(list(pose.values())))
    return replace(spec, **values)


# ---------------------------------------------------------------------------
# scene directories


_MANIFEST = {"n_frames": _int, "classes": _classes}


def write_scene_dir(path, pairs, intrinsics: CameraIntrinsics, classes,
                    gt: Extrinsics | None = None) -> None:
    """Write frames plus their one camera's intrinsics, manifest, and optional GT extrinsics."""
    for pair in pairs:  # intrinsics.txt is every frame's camera
        if pair.intrinsics != intrinsics:
            raise CalibrationError(f"frame {pair.frame_id!r} has other intrinsics than the scene")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        write_point_cloud(root / f"{pair.frame_id}.bin", pair.cloud)
        write_label_image(root / f"{pair.frame_id}.pgm", pair.image)
    write_intrinsics(root / "intrinsics.txt", intrinsics)
    _write_fields(root / "scene.txt",
                  {"n_frames": len(pairs), "classes": ",".join(str(c) for c in classes)})
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
    ``<stem>.csv`` cloud next to a ``<stem>.pgm`` label image.  A manifest
    may hold ``n_frames``, which must count them, and ``classes``, no other key.
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
        if pairs and pairs[-1].frame_id == cloud_path.stem:
            raise FormatError(f"{root}: frame {cloud_path.stem} has both a .bin and a .csv cloud")
        try:  # the frame id is a key and a value in the reports
            format_report({cloud_path.stem: cloud_path.stem})
        except FormatError as exc:
            raise FormatError(f"{cloud_path}: the file name cannot be a frame id: {exc}") from None
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
    manifest_path = root / "scene.txt"
    manifest = (_read_fields(manifest_path, "manifest", _MANIFEST, required=False)
                if manifest_path.exists() else {})
    if manifest.get("n_frames", len(pairs)) != len(pairs):
        raise FormatError(f"{manifest_path}: n_frames = {manifest['n_frames']}, but the scene "
                          f"has {len(pairs)} frames")
    return pairs, intrinsics, manifest.get("classes")


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
    if text in ("true", "false") or text != text.strip() or len(text.splitlines()) != 1:
        raise FormatError(f"report values must be single-line text without outer spaces, "
                          f"not empty, 'true' or 'false', got {text!r}")
    return text


def _report_lines(mapping: dict, depth: int):
    pad = "  " * depth
    for key, value in mapping.items():
        key = str(key)
        if key != key.strip() or ":" in key or len(key.splitlines()) != 1:
            raise FormatError(f"report keys must be one line of text without ':' "
                              f"or outer spaces, got {key!r}")
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _report_lines(value, depth + 1)
        else:
            yield f"{pad}{key}: {_scalar_text(value)}"


def format_report(data: dict) -> str:
    """Render a nested dict as an indentation-structured document.

    Raises FormatError for a key that would not parse back as itself: an
    empty one, one holding ``:`` or a line break, or one with outer spaces;
    and for a string value that would read back as something else: an empty
    one, ``true`` or ``false``, one holding a line break, or one with outer
    spaces.
    """
    return "\n".join(_report_lines(data, 0)) + "\n"


def write_report(path, data: dict) -> None:
    Path(path).write_text(format_report(data))


def _scalar_value(text: str):
    # a bool or number only where _scalar_text prints that value as exactly
    # ``text``, so a string such as '007' or '1.0' reads back as written
    if text in ("true", "false"):
        return text == "true"
    for parse, show in ((int, str), (float, fmt6)):
        try:
            value = parse(text)
        except ValueError:
            continue
        if show(value) == text:
            return value
    return text


def parse_report(text: str, source: str = "report") -> dict:
    """Parse a document written by :func:`format_report` back to its dict.

    Each level is indented by two spaces, and a line is one level deeper
    than the line before it only after a ``key:`` line, which opens a block;
    any other indentation is a FormatError.
    """
    root: dict = {}
    stack = [root]  # the open blocks; the one at depth d holds lines at depth d
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        line = raw.lstrip(" ")
        depth, odd = divmod(len(raw) - len(line), 2)
        if odd or depth >= len(stack) or line[0].isspace():
            raise FormatError(f"{source}:{lineno}: bad indentation")
        if ":" not in line:
            raise FormatError(f"{source}:{lineno}: expected 'key: value' or 'key:'")
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        del stack[depth + 1 :]
        parent = stack[-1]
        if key in parent:
            raise FormatError(f"{source}:{lineno}: duplicate key {key!r}")
        if rest:
            parent[key] = _scalar_value(rest)
        else:
            parent[key] = {}
            stack.append(parent[key])
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
