"""File formats of the pipeline: JSONL streams, anchor/manifest documents.

Every JSONL line is one self-contained record; streams can be processed
with O(1) memory. All units are SI (seconds, meters, radians, pascals);
attitudes are unit quaternions (w, x, y, z). Floats are written with
Python's shortest round-trip repr, so reads are bit-exact and rewriting a
parsed stream is byte-stable; the exception is truth.jsonl, whose
quaternions are regenerated from the parsed rotation matrix on rewrite
(value-stable within an ulp, not byte-stable).

Record schemas:
    imu.jsonl        {t, fx, fy, fz, wx, wy, wz}
    gps.jsonl        {t, lat, lon, h, hdop, valid}
    uwb.jsonl        {t, d, alpha, beta, nlos}
    baro.jsonl       {t, p, h_int}
    truth.jsonl      {t, x, y, z, vx, vy, vz, qw, qx, qy, qz}
    trajectory.jsonl {t, x, y, z, sx, sy, sz, algo}
"""

from __future__ import annotations

import json
import os

from ..core import (
    AnchorPose,
    BaroSample,
    GeodeticPoint,
    GpsFix,
    GroundTruthPoint,
    ImuSample,
    Rotation,
    UwbMeasurement,
    Vec3Enu,
)
from ..errors import MissingInputError
from ..sim import ScenarioData
from ..solvers import BaroReference, PoseEstimate

SCENARIO_FILES = {
    "truth": "truth.jsonl",
    "imu": "imu.jsonl",
    "gps": "gps.jsonl",
    "uwb": "uwb.jsonl",
    "baro": "baro.jsonl",
}
ANCHOR_FILE = "anchor.json"
MANIFEST_FILE = "manifest.json"


def write_jsonl(path, records) -> int:
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
            n += 1
    return n


class Record(dict):
    """One JSONL record. Reading a missing or non-numeric field is a data
    error (ValueError) that names the file and line."""

    __slots__ = ("path", "lineno")

    def __init__(self, fields: dict, path: str, lineno: int):
        super().__init__(fields)
        self.path = path
        self.lineno = lineno

    def __missing__(self, name):
        raise ValueError(f"{self.path}:{self.lineno}: record is missing field {name!r}")

    def number(self, name: str) -> float:
        value = self[name]
        if type(value) is not float:  # JSON ints count as numbers, bools do not
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{self.path}:{self.lineno}: field {name!r} is not a number: {value!r}")
            value = float(value)
        return value


def _iter_jsonl(path):
    """Yield one Record per non-blank line; errors carry the file and line number."""
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
            yield Record(fields, path, lineno)


def read_jsonl(path):
    """Every Record of a JSONL file, in file order."""
    return list(_iter_jsonl(path))


# -- per-stream codecs ------------------------------------------------------

def imu_record(s: ImuSample) -> dict:
    fx, fy, fz = s.specific_force
    wx, wy, wz = s.angular_rate
    return {"t": float(s.t), "fx": fx, "fy": fy, "fz": fz, "wx": wx, "wy": wy, "wz": wz}


def imu_from_record(rec: Record) -> ImuSample:
    return ImuSample(
        t=rec.number("t"),
        specific_force=(rec.number("fx"), rec.number("fy"), rec.number("fz")),
        angular_rate=(rec.number("wx"), rec.number("wy"), rec.number("wz")),
    )


def gps_record(fix: GpsFix) -> dict:
    return {
        "t": float(fix.t),
        "lat": float(fix.lat),
        "lon": float(fix.lon),
        "h": float(fix.height),
        "hdop": float(fix.hdop),
        "valid": bool(fix.valid),
    }


def gps_from_record(rec: Record) -> GpsFix:
    return GpsFix(
        t=rec.number("t"),
        lat=rec.number("lat"),
        lon=rec.number("lon"),
        height=rec.number("h"),
        hdop=rec.number("hdop"),
        valid=bool(rec["valid"]),
    )


def uwb_record(m: UwbMeasurement) -> dict:
    return {
        "t": float(m.t),
        "d": float(m.range),
        "alpha": float(m.alpha),
        "beta": float(m.beta),
        "nlos": float(m.nlos_confidence),
    }


def uwb_from_record(rec: Record) -> UwbMeasurement:
    return UwbMeasurement(
        t=rec.number("t"),
        range=rec.number("d"),
        alpha=rec.number("alpha"),
        beta=rec.number("beta"),
        nlos_confidence=rec.number("nlos"),
    )


def baro_record(s: BaroSample) -> dict:
    return {"t": float(s.t), "p": float(s.pressure), "h_int": float(s.internal_altitude)}


def baro_from_record(rec: Record) -> BaroSample:
    return BaroSample(t=rec.number("t"), pressure=rec.number("p"), internal_altitude=rec.number("h_int"))


def truth_record(p: GroundTruthPoint) -> dict:
    qw, qx, qy, qz = (float(v) for v in p.attitude.as_quaternion())
    vx, vy, vz = p.velocity
    return {
        "t": float(p.t),
        "x": float(p.position.east),
        "y": float(p.position.north),
        "z": float(p.position.up),
        "vx": vx,
        "vy": vy,
        "vz": vz,
        "qw": qw,
        "qx": qx,
        "qy": qy,
        "qz": qz,
    }


def truth_from_record(rec: Record) -> GroundTruthPoint:
    return GroundTruthPoint(
        t=rec.number("t"),
        position=Vec3Enu(rec.number("x"), rec.number("y"), rec.number("z")),
        velocity=(rec.number("vx"), rec.number("vy"), rec.number("vz")),
        attitude=Rotation.from_quaternion(
            (rec.number("qw"), rec.number("qx"), rec.number("qy"), rec.number("qz"))
        ),
    )


def trajectory_record(pose: PoseEstimate, algo: str) -> dict:
    sx, sy, sz = pose.sigma
    return {
        "t": float(pose.t),
        "x": float(pose.position.east),
        "y": float(pose.position.north),
        "z": float(pose.position.up),
        "sx": sx,
        "sy": sy,
        "sz": sz,
        "algo": algo,
    }


def write_trajectory(path, poses, algo: str) -> int:
    return write_jsonl(path, (trajectory_record(p, algo) for p in poses))


def read_trajectory(path):
    """-> (records, algo). Requires every row to carry the same algo tag."""
    records = read_jsonl(path)
    if not records:
        raise ValueError(f"{path}: empty trajectory")
    algos = {r["algo"] for r in records}
    if len(algos) != 1:
        raise ValueError(f"{path}: mixed algo tags {sorted(algos)}")
    return records, algos.pop()


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


def write_scenario(directory, scenario: ScenarioData) -> dict:
    """Write the five stream files plus anchor.json; returns {name: filename}."""
    os.makedirs(directory, exist_ok=True)
    codecs = {
        "truth": truth_record,
        "imu": imu_record,
        "gps": gps_record,
        "uwb": uwb_record,
        "baro": baro_record,
    }
    files = {}
    for name, filename in SCENARIO_FILES.items():
        encode_one = codecs[name]
        write_jsonl(os.path.join(directory, filename), (encode_one(s) for s in getattr(scenario, name)))
        files[name] = filename
    with open(os.path.join(directory, ANCHOR_FILE), "w") as fh:
        json.dump(anchor_document(scenario), fh, indent=2)
        fh.write("\n")
    files["anchor"] = ANCHOR_FILE
    return files


def read_scenario(directory) -> ScenarioData:
    anchor_path = os.path.join(directory, ANCHOR_FILE)
    if not os.path.exists(anchor_path):
        raise MissingInputError(f"anchor file not found: {anchor_path}")
    with open(anchor_path) as fh:
        doc = json.load(fh)
    anchor = AnchorPose(
        position=Vec3Enu.from_array(doc["anchor"]["position"]),
        orientation=Rotation(doc["anchor"]["orientation"]),
    )
    origin = GeodeticPoint(**{k: float(v) for k, v in doc["origin"].items()})
    reference = BaroReference(**{k: float(v) for k, v in doc["baro_reference"].items()})

    def load(name, decode_one):
        # decoded as read, so no stream's raw records are held all at once
        return tuple(decode_one(r) for r in _iter_jsonl(os.path.join(directory, SCENARIO_FILES[name])))

    return ScenarioData(
        truth=load("truth", truth_from_record),
        imu=load("imu", imu_from_record),
        gps=load("gps", gps_from_record),
        uwb=load("uwb", uwb_from_record),
        baro=load("baro", baro_from_record),
        anchor=anchor,
        baro_reference=reference,
        origin=origin,
    )


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


def missing_manifest_files(directory, manifest: dict) -> list:
    """Filenames referenced by the manifest that do not exist on disk."""
    return [
        name
        for name in manifest.get("files", {}).values()
        if not os.path.exists(os.path.join(directory, name))
    ]
