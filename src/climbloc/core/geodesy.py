"""WGS-84 geodetic <-> local ENU tangent-plane conversion.

The ENU frame is anchored at a per-run origin (configured, or the first valid
GPS fix). Conversion goes through ECEF. At Earth radius, float64 resolves
absolute ECEF coordinates only to ~1.4 nm, which a forward/inverse round trip
of two float64 conversions roughly doubles; intermediates therefore run in
numpy extended precision so the round trip stays below 1 nm (the remaining
error is the float64 quantization of lat/lon themselves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import Vec3Enu

WGS84_A = 6378137.0

_LD = np.longdouble
_A = _LD(WGS84_A)
_E2 = _LD(2.0) * _LD(1.0) / _LD(298.257223563) - (_LD(1.0) / _LD(298.257223563)) ** 2


@dataclass(frozen=True)
class GeodeticPoint:
    """Latitude/longitude in radians, ellipsoidal height in meters."""

    lat: float
    lon: float
    height: float

    def __post_init__(self):
        if not abs(self.lat) <= math.pi / 2:
            raise ValueError(f"latitude must satisfy |lat| <= pi/2, got {self.lat}")


def _ecef_ld(lat, lon, height) -> np.ndarray:
    """(..., 3) ECEF coordinates of scalars or equal-length columns."""
    lat, lon, height = _LD(lat), _LD(lon), _LD(height)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = _A / np.sqrt(_LD(1.0) - _E2 * sin_lat * sin_lat)
    return np.stack(
        [
            (n + height) * cos_lat * np.cos(lon),
            (n + height) * cos_lat * np.sin(lon),
            (n * (_LD(1.0) - _E2) + height) * sin_lat,
        ],
        axis=-1,
    )


def _geodetic_from_ecef_ld(ecef) -> tuple:
    """(lat, lon, height) of (..., 3) ECEF coordinates.

    Every point iterates until an iteration reproduces it, at most 40
    times; a point that has converged stays put while others go on.
    """
    x, y, z = np.moveaxis(np.asarray(ecef, dtype=_LD), -1, 0)
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    lat = np.arctan2(z, p * (_LD(1.0) - _E2))
    height = np.zeros_like(p)
    for _ in range(40):
        sin_lat = np.sin(lat)
        n = _A / np.sqrt(_LD(1.0) - _E2 * sin_lat * sin_lat)
        height_new = p / np.cos(lat) - n
        lat_new = np.arctan2(z, p * (_LD(1.0) - _E2 * n / (n + height_new)))
        if np.array_equal(lat_new, lat) and np.array_equal(height_new, height):
            break
        lat, height = lat_new, height_new
    polar = p < _LD(1e-9)  # on the polar axis
    lat = np.where(polar, np.copysign(_LD(math.pi / 2), z), lat)
    height = np.where(polar, np.abs(z) - _A / np.sqrt(_LD(1.0) - _E2) * (_LD(1.0) - _E2), height)
    return lat, lon, height


def _enu_basis_ld(origin) -> np.ndarray:
    """Rows: unit east, north, up vectors of the tangent plane, in ECEF."""
    lat, lon = _LD(origin.lat), _LD(origin.lon)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    sin_lon, cos_lon = np.sin(lon), np.cos(lon)
    zero = _LD(0.0)
    return np.array(
        [
            [-sin_lon, cos_lon, zero],
            [-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat],
            [cos_lat * cos_lon, cos_lat * sin_lon, sin_lat],
        ],
        dtype=_LD,
    )


def geodetic_to_enu(fix, origin):
    """Map geodetic points (anything with lat/lon/height) into origin-anchored ENU.

    Scalar fields give a Vec3Enu; columns of n points (a GpsStream, say)
    give an (n, 3) array, each row equal to the one-point conversion.
    """
    ok = np.abs(fix.lat) <= math.pi / 2
    if not np.all(ok):
        raise ValueError(f"latitude must satisfy |lat| <= pi/2, got {np.asarray(fix.lat)[~ok].flat[0]}")
    delta = _ecef_ld(fix.lat, fix.lon, fix.height) - _ecef_ld(origin.lat, origin.lon, origin.height)
    v = (_enu_basis_ld(origin) @ delta[..., None])[..., 0].astype(float)
    return Vec3Enu(*v.tolist()) if v.ndim == 1 else v


def enu_to_geodetic(v, origin):
    """Inverse of :func:`geodetic_to_enu` for the same origin.

    A Vec3Enu gives a GeodeticPoint; an (n, 3) array gives the (lat, lon,
    height) columns, each row equal to the one-point conversion.
    """
    enu = np.asarray(v.as_array() if isinstance(v, Vec3Enu) else v, dtype=_LD)
    ecef = _ecef_ld(origin.lat, origin.lon, origin.height) + (_enu_basis_ld(origin).T @ enu[..., None])[..., 0]
    lat, lon, height = (np.asarray(c, dtype=float) for c in _geodetic_from_ecef_ld(ecef))
    return GeodeticPoint(float(lat), float(lon), float(height)) if enu.ndim == 1 else (lat, lon, height)
