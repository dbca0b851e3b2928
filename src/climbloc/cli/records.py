"""File formats of the pipeline: JSONL streams, anchor/manifest documents.

`anchor.json` and `manifest.json` are read by `config.read_document`;
`anchor.json` must follow `ANCHOR_SCHEMA` under `config._check`'s type rule,
and the types its values build check them (3x3 rotation, latitude range).

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
from ..errors import ConfigError, MissingInputError
from ..sim import ScenarioData
from ..solvers import BaroReference
from .config import _build, _check, _document, read_document

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
_NUMBER = {float, int}  # JSON numbers; bools are not numbers here
# rows per write of a stream file: a chunk of 4096 rows raised the peak RSS
# of `simulate` by 3.7 MB on a 40 s scenario, 256 keeps it at the old level
_ROWS_PER_WRITE = 256


def _records(path):
    """Yield (line number, fields) per non-blank UTF-8 line; errors carry the file and line."""
    if not os.path.exists(path):
        raise MissingInputError(f"stream file not found: {path}")
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                fields = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: not a JSON record ({err.msg})") from err
            except (UnicodeDecodeError, RecursionError) as err:  # bytes not UTF-8, nesting too deep
                raise ValueError(f"{path}:{lineno}: unreadable JSON record ({err})") from None
            if not isinstance(fields, dict):
                raise ValueError(f"{path}:{lineno}: not a JSON object")
            yield lineno, fields


def _line_of(path, row: int) -> int:
    """Line number of the row-th (0-based) record of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
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


def read_stream(path, name):
    """The stream `name` (a key of SCENARIO_FILES) held in the JSONL file
    `path`, loaded from its column file when one carries the SHA-256 of the
    file's bytes and parsed otherwise; a value that breaks a stream rule is
    a ValueError naming the file, line and field."""
    cls, columns, flag = _STREAMS[name]
    table = _stored_table(path, name)
    if table is None:
        table, flags = read_table(path, _numeric_keys(name), tag=flag)
        bad = next((i for i, v in enumerate(flags) if type(v) is not bool), None)
        if bad is not None:
            raise ValueError(
                f"{path}:{_line_of(path, bad)}: field {flag!r}: must be true or false, got {flags[bad]!r}"
            )
    elif flag:
        flags = table[:, -1] != 0
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


def _bad_trajectory_values(table):
    """Mask of the values no trajectory may hold: non-finite ones and negative sigmas."""
    bad = ~np.isfinite(table)
    bad[:, 4:] |= table[:, 4:] < 0
    return bad


def write_trajectory(path, t, positions, sigmas, algo: str) -> int:
    """Write one trajectory record per epoch; returns the number written.

    `t` holds the epoch times and `positions` and `sigmas` one (x, y, z) row
    per epoch. A non-finite value or a negative sigma is a ValueError, raised
    before the file is opened.
    """
    table = np.column_stack([t, positions, sigmas]).astype(float)
    bad = np.flatnonzero(_bad_trajectory_values(table).any(axis=1))
    if len(bad):
        t_k, *values = table[bad[0]].tolist()
        raise ValueError(
            f"{algo} epoch t={t_k!r}: position and sigma must be finite, sigma >= 0, got {tuple(values)}"
        )
    _write_stream(path, table, TRAJECTORY_KEYS, fixed={"algo": algo})
    return len(table)


def read_trajectory(path):
    """-> (values, algo): an (n, 7) array of TRAJECTORY_KEYS columns and the
    one algo tag every row must carry. A value `write_trajectory` refuses
    is a ValueError naming the file, line and field."""
    values, algos = read_table(path, TRAJECTORY_KEYS, tag="algo")
    if not algos:
        raise ValueError(f"{path}: empty trajectory")
    refused = _bad_trajectory_values(values)
    if refused.any():
        row, col = np.argwhere(refused)[0]
        rule = "must be finite and >= 0" if col >= 4 else "must be finite"
        raise ValueError(
            f"{path}:{_line_of(path, row)}: field {TRAJECTORY_KEYS[col]!r}: {rule}, got {values[row, col].item()!r}"
        )
    bad = next((i for i, algo in enumerate(algos) if type(algo) is not str), None)
    if bad is not None:
        raise ValueError(f"{path}:{_line_of(path, bad)}: field 'algo': must be a string, got {algos[bad]!r}")
    distinct = set(algos)
    if len(distinct) != 1:
        raise ValueError(f"{path}: mixed algo tags {sorted(distinct)}")
    return values, algos[0]


# -- scenario directory -----------------------------------------------------

def anchor_document(scenario: ScenarioData) -> dict:
    return {
        "anchor": {
            "position": [float(v) for v in scenario.anchor.position.as_array()],
            "orientation": [[float(v) for v in row] for row in scenario.anchor.orientation.matrix],
        },
        "origin": {k: float(v) for k, v in _document(scenario.origin).items()},
        "baro_reference": {k: float(v) for k, v in _document(scenario.baro_reference).items()},
    }


# the layout anchor_document writes, as a schema for the type rule of
# cli/config.py: each key must hold a value of its default's JSON type
ANCHOR_SCHEMA = {
    "anchor": {"position": [0.0], "orientation": [[0.0]]},
    "origin": _document(GeodeticPoint(0.0, 0.0, 0.0)),
    "baro_reference": _document(BaroReference()),
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


def _read_anchor(directory):
    """(anchor pose, origin, baro reference) from anchor.json; a missing,
    unknown or refused field is a ConfigError naming the file and its dotted key."""
    path = os.path.join(directory, ANCHOR_FILE)
    doc = read_document(path)
    try:
        _check(ANCHOR_SCHEMA, doc, "", complete=True)
        origin, reference = ({k: float(v) for k, v in doc[key].items()} for key in ("origin", "baro_reference"))
        anchor = AnchorPose(
            position=_build("anchor.position", Vec3Enu.from_array, {"a": doc["anchor"]["position"]}),
            orientation=_build("anchor.orientation", Rotation, {"matrix": doc["anchor"]["orientation"]}),
        )
        return anchor, _build("origin.lat", GeodeticPoint, origin), _build("baro_reference", BaroReference, reference)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def read_scenario(directory) -> ScenarioData:
    anchor, origin, reference = _read_anchor(directory)
    # each stream is parsed into columns as it is read; no record list is kept
    streams = {name: read_stream(os.path.join(directory, file), name) for name, file in SCENARIO_FILES.items()}
    return ScenarioData(**streams, anchor=anchor, baro_reference=reference, origin=origin)


# -- run manifest ------------------------------------------------------------

def write_manifest(directory, manifest: dict) -> str:
    path = os.path.join(directory, MANIFEST_FILE)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_manifest(directory) -> dict:
    return read_document(os.path.join(directory, MANIFEST_FILE))
