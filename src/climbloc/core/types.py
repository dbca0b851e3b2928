"""Shared domain types: ENU vectors, rotations, sensor samples and sensor streams.

Conventions used throughout the package:
    - navigation frame: local East-North-Up (ENU), meters
    - timestamps: float seconds, monotonic within a stream
    - angles: radians; pressures: pascals; rates: rad/s
    - gravity vector in ENU: (0, 0, -GRAVITY)

A sensor stream holds its samples as columns: a `t` array plus one float64
array per field ((n,) or (n, width)), validated once at construction.
All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

GRAVITY = 9.80665  # m/s^2

Triple = tuple[float, float, float]

_ORTHO_TOL = 1e-9


def _as_triple(values) -> Triple:
    x, y, z = (float(v) for v in values)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"components must be finite, got {(x, y, z)}")
    return (x, y, z)


@dataclass(frozen=True)
class Vec3Enu:
    """Position or displacement in the local ENU frame, meters."""

    east: float
    north: float
    up: float

    def __post_init__(self):
        for name in ("east", "north", "up"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Vec3Enu.{name} must be finite, got {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.east, self.north, self.up], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3Enu":
        e, n, u = (float(v) for v in a)
        return Vec3Enu(e, n, u)

    def __add__(self, other: "Vec3Enu") -> "Vec3Enu":
        return Vec3Enu(self.east + other.east, self.north + other.north, self.up + other.up)

    def __sub__(self, other: "Vec3Enu") -> "Vec3Enu":
        return Vec3Enu(self.east - other.east, self.north - other.north, self.up - other.up)


def nearest_rotation(matrix) -> np.ndarray:
    """The proper rotation matrix nearest (Frobenius sense) to a 3x3 matrix, by SVD."""
    u, _, vt = np.linalg.svd(np.asarray(matrix, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r


class Rotation:
    """3x3 proper rotation matrix (orthonormal, det +1).

    Validated at construction: R^T R = I and det R = +1, both within 1e-9.
    Use :meth:`orthonormalized` to project a drifted matrix back onto SO(3)
    before wrapping it.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation matrix must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rotation matrix must be finite")
        if np.max(np.abs(m.T @ m - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(m) - 1.0) > _ORTHO_TOL:
            raise ValueError("matrix determinant is not +1 within 1e-9")
        m.flags.writeable = False
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """Read-only 3x3 array."""
        return self._m

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(np.eye(3))

    @staticmethod
    def orthonormalized(matrix) -> "Rotation":
        """Nearest rotation (Frobenius sense) to an approximately-orthonormal matrix."""
        return Rotation(nearest_rotation(matrix))

    def apply(self, v) -> np.ndarray:
        """Rotate a 3-vector into the target frame."""
        return self._m @ np.asarray(v, dtype=float)

    def __repr__(self):
        return f"Rotation({self._m.tolist()})"


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(a) @ b == a x b."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class ImuSample:
    """Body-frame specific force (m/s^2) and angular rate (rad/s) at time t."""

    t: float
    specific_force: Triple
    angular_rate: Triple

    def __post_init__(self):
        object.__setattr__(self, "specific_force", _as_triple(self.specific_force))
        object.__setattr__(self, "angular_rate", _as_triple(self.angular_rate))


@dataclass(frozen=True)
class UwbMeasurement:
    """Planar-array UWB output: range d plus the two boresight angles (alpha, beta).

    `nlos_confidence` in [0, 1] is the device's own estimate of how likely the
    return was non-line-of-sight (1 = certainly obstructed).
    """

    t: float
    range: float
    alpha: float
    beta: float
    nlos_confidence: float = 0.0

    def __post_init__(self):
        if self.range < 0:
            raise ValueError(f"range must be >= 0, got {self.range}")
        if not abs(self.alpha) < math.pi / 2:
            raise ValueError(f"|alpha| must be < pi/2, got {self.alpha}")
        if not abs(self.beta) < math.pi / 2:
            raise ValueError(f"|beta| must be < pi/2, got {self.beta}")
        if not 0.0 <= self.nlos_confidence <= 1.0:
            raise ValueError(f"nlos_confidence must be in [0, 1], got {self.nlos_confidence}")


@dataclass(frozen=True)
class AnchorPose:
    """Mean antenna position and local-to-navigation rotation of the UWB anchor."""

    position: Vec3Enu
    orientation: Rotation


# -- columnar sensor streams ------------------------------------------------

class StreamValueError(ValueError):
    """A stream value that breaks a rule, located by row and column.

    `component` indexes the second axis of a multi-column field, and is None
    for a one-column field or a rule on whole rows; `detail` states the rule
    and the value without the location.
    """

    def __init__(self, kind: str, row: int, column: str, component, detail: str):
        label = column if component is None else f"{column}[{component}]"
        super().__init__(f"{kind} stream row {row}, {label}: {detail}")
        self.row = row
        self.column = column
        self.component = component
        self.detail = detail


def _column(width: int = 1, dtype=float):
    return field(metadata={"width": width, "dtype": dtype})


@dataclass(frozen=True, eq=False)
class _Stream:
    """Time-ordered samples as read-only columns of equal length."""

    kind: ClassVar[str] = "sensor"
    t: np.ndarray = _column()

    def __post_init__(self):
        lengths = set()
        for f in fields(self):
            width, dtype = f.metadata["width"], f.metadata["dtype"]
            a = np.array(getattr(self, f.name), dtype=dtype)
            a = a.reshape(-1) if width == 1 else a.reshape(-1, width)
            a.flags.writeable = False
            object.__setattr__(self, f.name, a)
            lengths.add(len(a))
            if dtype is float:
                self._require(f.name, np.isfinite(a), "must be finite")
        if len(lengths) > 1:
            raise ValueError(f"{self.kind} stream columns differ in length: {sorted(lengths)}")
        if len(self.t):
            ordered = np.diff(self.t, prepend=self.t[0]) >= 0
            self._require("t", ordered, f"{self.kind} stream is not time-ordered")
        self._check()

    def _check(self) -> None:
        """Rules of one stream kind, on top of finite values and time order."""

    def _require(self, column: str, ok: np.ndarray, rule: str) -> None:
        """Raise StreamValueError at the first row (then component) where `ok` is False."""
        if ok.all():
            return
        where = tuple(int(i) for i in np.argwhere(~ok)[0])
        value = np.asarray(getattr(self, column)[where]).tolist()
        component = where[1] if len(where) > 1 else None
        raise StreamValueError(self.kind, where[0], column, component, f"{rule}, got {value!r}")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, rows: slice):
        """The stream restricted to a slice of its rows."""
        if not isinstance(rows, slice):
            raise TypeError(f"{self.kind} streams take a slice of rows; index the columns for values")
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    __hash__ = None


@dataclass(frozen=True, eq=False)
class ImuStream(_Stream):
    """Body-frame specific force (m/s^2) and angular rate (rad/s); row i covers [t_i, t_i+1)."""

    kind: ClassVar[str] = "imu"
    specific_force: np.ndarray = _column(3)
    angular_rate: np.ndarray = _column(3)


@dataclass(frozen=True, eq=False)
class GpsStream(_Stream):
    """Geodetic fixes: latitude/longitude in radians, ellipsoidal height in meters."""

    kind: ClassVar[str] = "gps"
    lat: np.ndarray = _column()
    lon: np.ndarray = _column()
    height: np.ndarray = _column()
    hdop: np.ndarray = _column()
    valid: np.ndarray = _column(dtype=bool)

    def _check(self):
        self._require("lat", np.abs(self.lat) <= math.pi / 2, "must satisfy |lat| <= pi/2")
        self._require("hdop", self.hdop >= 0, "must be >= 0")


@dataclass(frozen=True, eq=False)
class UwbStream(_Stream):
    """Planar-array UWB outputs: range, the two boresight angles, NLOS confidence in [0, 1]."""

    kind: ClassVar[str] = "uwb"
    range: np.ndarray = _column()
    alpha: np.ndarray = _column()
    beta: np.ndarray = _column()
    nlos: np.ndarray = _column()

    def _check(self):
        self._require("range", self.range >= 0, "must be >= 0")
        self._require("alpha", np.abs(self.alpha) < math.pi / 2, "must satisfy |alpha| < pi/2")
        self._require("beta", np.abs(self.beta) < math.pi / 2, "must satisfy |beta| < pi/2")
        self._require("nlos", (self.nlos >= 0) & (self.nlos <= 1), "must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class BaroStream(_Stream):
    """Raw pressure (Pa) plus the sensor's own altitude solution (m)."""

    kind: ClassVar[str] = "baro"
    pressure: np.ndarray = _column()
    internal_altitude: np.ndarray = _column()

    def _check(self):
        self._require("pressure", self.pressure > 0, "must be > 0")


@dataclass(frozen=True, eq=False)
class TruthStream(_Stream):
    """Reference-grade states: ENU position, ENU velocity, body-to-ENU attitude
    as a (w, x, y, z) quaternion, kept as given (not renormalized)."""

    kind: ClassVar[str] = "truth"
    position: np.ndarray = _column(3)
    velocity: np.ndarray = _column(3)
    quaternion: np.ndarray = _column(4)

    def _check(self):
        self._require("quaternion", np.any(self.quaternion != 0, axis=1), "must be non-zero")

    def position_at(self, times) -> np.ndarray:
        """(n, 3) positions of the rows nearest `times` on the stream's uniform grid.

        The grid starts at the first row and steps by the first spacing;
        times outside the stream take its first or last row.
        """
        if not len(self):
            raise ValueError("truth stream is empty")
        dt = self.t[1] - self.t[0] if len(self) > 1 else 1.0
        rows = np.rint((np.asarray(times, dtype=float) - self.t[0]) / dt)
        return self.position[np.clip(rows, 0, len(self) - 1).astype(int)]
