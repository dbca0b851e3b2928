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
WGS84_F = 1.0 / 298.257223563
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

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
    lat, lon, height = _LD(lat), _LD(lon), _LD(height)
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    n = _A / np.sqrt(_LD(1.0) - _E2 * sin_lat * sin_lat)
    return np.array(
        [
            (n + height) * cos_lat * np.cos(lon),
            (n + height) * cos_lat * np.sin(lon),
            (n * (_LD(1.0) - _E2) + height) * sin_lat,
        ],
        dtype=_LD,
    )


def _geodetic_from_ecef_ld(ecef) -> tuple:
    x, y, z = (_LD(v) for v in ecef)
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)
    if p < _LD(1e-9):
        # on the polar axis
        lat = _LD(math.copysign(math.pi / 2, float(z)))
        n = _A / np.sqrt(_LD(1.0) - _E2)
        return lat, lon, abs(z) - n * (_LD(1.0) - _E2)
    lat = np.arctan2(z, p * (_LD(1.0) - _E2))
    height = _LD(0.0)
    for _ in range(40):
        sin_lat = np.sin(lat)
        n = _A / np.sqrt(_LD(1.0) - _E2 * sin_lat * sin_lat)
        height_new = p / np.cos(lat) - n
        lat_new = np.arctan2(z, p * (_LD(1.0) - _E2 * n / (n + height_new)))
        if lat_new == lat and height_new == height:
            break
        lat, height = lat_new, height_new
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


def geodetic_to_enu(fix, origin) -> Vec3Enu:
    """Map a geodetic point (anything with lat/lon/height) into origin-anchored ENU."""
    if not abs(fix.lat) <= math.pi / 2:
        raise ValueError(f"latitude must satisfy |lat| <= pi/2, got {fix.lat}")
    delta = _ecef_ld(fix.lat, fix.lon, fix.height) - _ecef_ld(origin.lat, origin.lon, origin.height)
    v = _enu_basis_ld(origin) @ delta
    return Vec3Enu(float(v[0]), float(v[1]), float(v[2]))


def enu_to_geodetic(v: Vec3Enu, origin) -> GeodeticPoint:
    """Inverse of :func:`geodetic_to_enu` for the same origin."""
    ecef = _ecef_ld(origin.lat, origin.lon, origin.height) + _enu_basis_ld(origin).T @ np.asarray(
        v.as_array(), dtype=_LD
    )
    lat, lon, height = _geodetic_from_ecef_ld(ecef)
    return GeodeticPoint(float(lat), float(lon), float(height))
