"""File formats of the pipeline: JSONL streams, anchor/manifest documents.

Every JSONL line is one self-contained record. All units are SI (seconds,
meters, radians, pascals); attitudes are unit quaternions (w, x, y, z).
Floats are written with Python's shortest round-trip repr and read into
float64 columns, so reads are bit-exact and rewriting a parsed scenario is
byte-stable, truth.jsonl included (its quaternions are kept as read).

`write_scenario` also stores each stream's float64 column table as
`columns/<stream>-<sha256 of the .jsonl>.npy`. A stream read uses that file
only when its name carries the SHA-256 of the JSONL's current bytes, and
otherwise parses the JSONL; the JSONL stays the source of truth.

Record schemas:
    imu.jsonl        {t, fx, fy, fz, wx, wy, wz}
    gps.jsonl        {t, lat, lon, h, hdop, valid}
    uwb.jsonl        {t, d, alpha, beta, nlos}
    baro.jsonl       {t, p, h_int}
    truth.jsonl      {t, x, y, z, vx, vy, vz, qw, qx, qy, qz}
    trajectory.jsonl {t, x, y, z, sx, sy, sz, algo}
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from array import array
from itertools import islice

import numpy as np

from ..core import (
    AnchorPose,
    BaroStream,
    GeodeticPoint,
    GpsStream,
    ImuStream,
    Rotation,
    StreamValueError,
    TruthStream,
    UwbStream,
    Vec3Enu,
)
from ..errors import MissingInputError
from ..sim import ScenarioData
from ..solvers import BaroReference

SCENARIO_FILES = {
    "truth": "truth.jsonl",
    "imu": "imu.jsonl",
    "gps": "gps.jsonl",
    "uwb": "uwb.jsonl",
    "baro": "baro.jsonl",
}
COLUMNS_DIR = "columns"
ANCHOR_FILE = "anchor.json"
MANIFEST_FILE = "manifest.json"

# stream name -> (stream type, {numeric column: its JSON keys}, the flag
# column or None); keys in file order, the flag last
_STREAMS = {
    "truth": (
        TruthStream,
        {"t": "t", "position": "x y z", "velocity": "vx vy vz", "quaternion": "qw qx qy qz"},
        None,
    ),
    "imu": (ImuStream, {"t": "t", "specific_force": "fx fy fz", "angular_rate": "wx wy wz"}, None),
    "gps": (GpsStream, {"t": "t", "lat": "lat", "lon": "lon", "height": "h", "hdop": "hdop"}, "valid"),
    "uwb": (UwbStream, {"t": "t", "range": "d", "alpha": "alpha", "beta": "beta", "nlos": "nlos"}, None),
    "baro": (BaroStream, {"t": "t", "pressure": "p", "internal_altitude": "h_int"}, None),
}
TRAJECTORY_KEYS = ("t", "x", "y", "z", "sx", "sy", "sz")
_BARO_REFERENCE_KEYS = ("p0", "t0", "lapse_rate", "gravity", "molar_mass", "gas_constant")
_NUMBER = {float, int}  # JSON numbers; bools are not numbers here
# rows per write of a stream file: a chunk of 4096 rows raised the peak RSS
# of `simulate` by 3.7 MB on a 40 s scenario, 256 keeps it at the old level
_ROWS_PER_WRITE = 256


def _records(path):
    """Yield (line number, fields) per non-blank line; errors carry the file and line."""
    if not os.path.exists(path):
        raise MissingInputError(f"stream file not found: {path}")
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                fields = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not a JSON record ({err.msg})") from err
            if not isinstance(fields, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            yield lineno, fields


def _line_of(path, row: int) -> int:
    """Line number of the row-th (0-based) record of a JSONL file."""
    with open(path) as fh:
        lines = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(islice(lines, row, None))


def read_table(path, keys, tag=None):
    """(values, tags): the numeric fields `keys` of every record as an
    (n, len(keys)) float64 array, and each record's `tag` field (an empty
    list without a tag).

    A missing field, or a numeric field holding anything but a JSON number,
    is a ValueError naming the file and line.
    """
    names = (*keys, tag) if tag else tuple(keys)
    flat, tags = array("d"), []
    for lineno, fields in _records(path):
        try:
            row = [fields[name] for name in names]
        except KeyError as err:
            raise ValueError(f"{path}:{lineno}: record is missing field {err.args[0]!r}") from None
        if tag:
            tags.append(row.pop())
        if not _NUMBER.issuperset(map(type, row)):
            key, value = next((k, v) for k, v in zip(keys, row) if type(v) not in _NUMBER)
            raise ValueError(f"{path}:{lineno}: field {key!r}: must be a number, got {value!r}")
        try:
            flat.extend(row)
        except OverflowError:
            raise ValueError(f"{path}:{lineno}: a numeric field is out of float range") from None
    return np.array(flat, dtype=float).reshape(-1, len(keys)), tags


def _numeric_keys(name) -> list:
    """The numeric JSON keys of a stream's records, in file order."""
    return " ".join(_STREAMS[name][1].values()).split()


def _column_file(path, name, digest) -> str:
    return os.path.join(os.path.dirname(path), COLUMNS_DIR, f"{name}-{digest}.npy")


def _stored_table(path, name):
    """The column table `write_scenario` stored for the exact bytes of the
    stream file `path`, or None when there is no such file or it is not an
    (n, k) float64 table."""
    try:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        table = np.load(_column_file(path, name, digest), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    width = len(_numeric_keys(name)) + bool(_STREAMS[name][2])
    if isinstance(table, np.ndarray) and table.dtype == np.float64 and table.shape[1:] == (width,):
        return table
    return None


def read_stream_table(path, name, keys):
    """What `read_table(path, keys, tag=<the stream's flag>)` returns for a
    file of stream `name`, loaded from its column file when one carries the
    SHA-256 of the file's bytes; any other case parses the JSONL."""
    flag = _STREAMS[name][2]
    table = _stored_table(path, name)
    if table is None:
        return read_table(path, keys, tag=flag)
    stored = _numeric_keys(name)
    flags = (table[:, -1] != 0).tolist() if flag else []
    return table[:, [stored.index(k) for k in keys]], flags


def _read_stream(directory, name):
    cls, columns, flag = _STREAMS[name]
    path = os.path.join(directory, SCENARIO_FILES[name])
    table, flags = read_stream_table(path, name, _numeric_keys(name))
    fields, j = {}, 0
    for column, keys in columns.items():
        width = len(keys.split())
        fields[column] = table[:, j] if width == 1 else table[:, j : j + width]
        j += width
    if flag:
        fields[flag] = [bool(v) for v in flags]
    try:
        return cls(**fields)
    except StreamValueError as err:
        keys = columns[err.column].split()
        key = "/".join(keys) if err.component is None else keys[err.component]
        raise ValueError(f"{path}:{_line_of(path, err.row)}: field {key!r}: {err.detail}") from None


def write_trajectory(path, t, positions, sigmas, algo: str) -> int:
    """Write one trajectory record per epoch; returns the number written.

    `t` holds the epoch times and `positions` and `sigmas` one (x, y, z) row
    per epoch. A non-finite value or a negative sigma is a ValueError, raised
    before the file is opened.
    """
    table = np.column_stack([t, positions, sigmas]).astype(float)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1) | (table[:, 4:] < 0).any(axis=1))
    if len(bad):
        t_k, *values = table[bad[0]].tolist()
        raise ValueError(
            f"{algo} epoch t={t_k!r}: position and sigma must be finite, sigma >= 0, got {tuple(values)}"
        )
    _write_stream(path, table, TRAJECTORY_KEYS, fixed={"algo": algo})
    return len(table)


def read_trajectory(path):
    """-> (values, algo): an (n, 7) array of TRAJECTORY_KEYS columns and the
    one algo tag every row must carry."""
    values, algos = read_table(path, TRAJECTORY_KEYS, tag="algo")
    if not algos:
        raise ValueError(f"{path}: empty trajectory")
    bad = next((i for i, algo in enumerate(algos) if type(algo) is not str), None)
    if bad is not None:
        raise ValueError(f"{path}:{_line_of(path, bad)}: field 'algo': must be a string, got {algos[bad]!r}")
    distinct = set(algos)
    if len(distinct) != 1:
        raise ValueError(f"{path}: mixed algo tags {sorted(distinct)}")
    return values, algos[0]


# -- scenario directory -----------------------------------------------------

def anchor_document(scenario: ScenarioData) -> dict:
    ref = scenario.baro_reference
    return {
        "anchor": {
            "position": [float(v) for v in scenario.anchor.position.as_array()],
            "orientation": [[float(v) for v in row] for row in scenario.anchor.orientation.matrix],
        },
        "origin": {
            "lat": float(scenario.origin.lat),
            "lon": float(scenario.origin.lon),
            "height": float(scenario.origin.height),
        },
        "baro_reference": {
            "p0": ref.p0,
            "t0": ref.t0,
            "lapse_rate": ref.lapse_rate,
            "gravity": ref.gravity,
            "molar_mass": ref.molar_mass,
            "gas_constant": ref.gas_constant,
        },
    }


def _write_stream(path, table, keys, flag=None, fixed=None) -> str:
    """Write one JSONL record per row of `table` in one pass; returns the
    SHA-256 of the bytes written.

    A record holds the row's numbers under `keys`, then, when `flag` names
    one, its last column as a JSON bool, then the `fixed` fields, the same
    on every line. `repr` of a finite float is what `json.dumps` writes for
    it, so each line is `json.dumps` of its record.
    """
    fields = [f'"{key}": %r' for key in keys] + ([f'"{flag}": %s'] if flag else [])
    fields += [f"{json.dumps(key)}: {json.dumps(value)}".replace("%", "%%") for key, value in (fixed or {}).items()]
    line = "{" + ", ".join(fields) + "}\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for start in range(0, len(table), _ROWS_PER_WRITE):
            rows = table[start : start + _ROWS_PER_WRITE].tolist()
            if flag:
                rows = [(*row[:-1], "true" if row[-1] else "false") for row in rows]
            chunk = "".join([line % tuple(row) for row in rows]).encode()
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def _store_table(path, name, digest, table) -> None:
    """Save a stream's column table under the digest of its JSONL, replacing older ones."""
    directory = os.path.join(os.path.dirname(path), COLUMNS_DIR)
    os.makedirs(directory, exist_ok=True)
    for entry in os.listdir(directory):
        if entry.startswith(f"{name}-") and entry.endswith(".npy"):
            os.remove(os.path.join(directory, entry))
    np.save(_column_file(path, name, digest), table)


def write_scenario(directory, scenario: ScenarioData) -> dict:
    """Write the five stream files plus anchor.json, and each stream's column
    file under COLUMNS_DIR; returns {name: filename}."""
    os.makedirs(directory, exist_ok=True)
    files = {}
    for name, filename in SCENARIO_FILES.items():
        _, columns, flag = _STREAMS[name]
        stream = getattr(scenario, name)
        parts = [getattr(stream, column) for column in columns]
        if flag:
            parts.append(getattr(stream, flag))
        table = np.ascontiguousarray(np.column_stack(parts), dtype=np.float64)
        path = os.path.join(directory, filename)
        _store_table(path, name, _write_stream(path, table, _numeric_keys(name), flag), table)
        files[name] = filename
    with open(os.path.join(directory, ANCHOR_FILE), "w") as fh:
        json.dump(anchor_document(scenario), fh, indent=2)
        fh.write("\n")
    files["anchor"] = ANCHOR_FILE
    return files


def _has_shape(value, shape) -> bool:
    """True when `value` is a finite JSON number, or nested lists of them of this shape."""
    if not shape:
        return type(value) in _NUMBER and math.isfinite(value)
    return isinstance(value, list) and len(value) == shape[0] and all(_has_shape(v, shape[1:]) for v in value)


def _anchor_field(doc, path, dotted: str, shape=()):
    value, parents = doc, []
    for key in dotted.split("."):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: field {'.'.join(parents)!r} must be an object, got {value!r}")
        if key not in value:
            raise ValueError(f"{path}: missing field {dotted!r}")
        value = value[key]
        parents.append(key)
    if not _has_shape(value, shape):
        expected = "a finite number" if not shape else "x".join(map(str, shape)) + " finite numbers"
        raise ValueError(f"{path}: field {dotted!r} must be {expected}, got {value!r}")
    return value


def _read_anchor(directory):
    """(anchor pose, origin, baro reference) from anchor.json; a missing or
    malformed field is a ValueError naming the file and its dotted key."""
    path = os.path.join(directory, ANCHOR_FILE)
    if not os.path.exists(path):
        raise MissingInputError(f"anchor file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not a JSON document ({err})") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")

    def build(dotted, make):
        try:
            return make()
        except ValueError as err:
            raise ValueError(f"{path}: field {dotted!r}: {err}") from None

    position = _anchor_field(doc, path, "anchor.position", (3,))
    orientation = _anchor_field(doc, path, "anchor.orientation", (3, 3))
    origin = [_anchor_field(doc, path, f"origin.{k}") for k in ("lat", "lon", "height")]
    reference = {k: float(_anchor_field(doc, path, f"baro_reference.{k}")) for k in _BARO_REFERENCE_KEYS}
    anchor = AnchorPose(
        position=Vec3Enu.from_array(position),
        orientation=build("anchor.orientation", lambda: Rotation(orientation)),
    )
    return (
        anchor,
        build("origin.lat", lambda: GeodeticPoint(*(float(v) for v in origin))),
        build("baro_reference", lambda: BaroReference(**reference)),
    )


def read_scenario(directory) -> ScenarioData:
    anchor, origin, reference = _read_anchor(directory)
    # each stream is parsed into columns as it is read; no record list is kept
    streams = {name: _read_stream(directory, name) for name in SCENARIO_FILES}
    return ScenarioData(**streams, anchor=anchor, baro_reference=reference, origin=origin)


# -- run manifest ------------------------------------------------------------

def write_manifest(directory, manifest: dict) -> str:
    path = os.path.join(directory, MANIFEST_FILE)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(directory) -> dict:
    path = os.path.join(directory, MANIFEST_FILE)
    if not os.path.exists(path):
        raise MissingInputError(f"manifest not found: {path}")
    with open(path) as fh:
        return json.load(fh)
