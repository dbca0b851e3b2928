"""Raw sensor stream synthesis from ground truth.

Each simulator draws from its own seeded substream and consumes a fixed
number of draws per tick regardless of window membership, so reconfiguring
an occlusion or NLOS window never shifts the noise realized elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.geodesy import GeodeticPoint, enu_to_geodetic
from ..core.types import GRAVITY, BaroStream, GpsStream, ImuStream, TruthStream, UwbStream, Vec3Enu
from ..errors import ConfigError, NumericalFailureError
from ..solvers.baro import baro_altitude, baro_inverse
from ..solvers.uwb import uwb_inverse
from .scenario import (
    BARO_STREAM,
    GPS_STREAM,
    IMU_STREAM,
    UWB_STREAM,
    ScenarioConfig,
    ScenarioData,
    sensor_rng,
    sensor_times,
)
from .truth import generate_truth

_G_ENU = np.array([0.0, 0.0, -GRAVITY])
_MAX_ANGLE = math.pi / 2 - 1e-9


def simulate_imu(truth: TruthStream, yaw: np.ndarray, cfg: ScenarioConfig) -> ImuStream:
    """Body-frame IMU stream by differencing consecutive truth states.

    Sample i covers [t_i, t_{i+1}): specific force from the velocity
    increment, rotated into the body by Rz(yaw_i)^T, and the yaw rate from the
    yaw increment, both plus configured bias and white noise (accel then gyro
    draws per sample). Differencing (rather than analytic derivatives) makes
    a noiseless stream integrate back to the truth velocities to rounding.
    """
    n = len(truth)
    if n < 2:
        raise ValueError("need at least two truth points to difference")
    dt = np.diff(truth.t)
    accel = np.diff(truth.velocity, axis=0) / dt[:, None] - _G_ENU
    c, s = np.cos(yaw[:-1]), np.sin(yaw[:-1])
    force = np.column_stack([c * accel[:, 0] + s * accel[:, 1], c * accel[:, 1] - s * accel[:, 0], accel[:, 2]])
    rate = np.zeros((n - 1, 3))
    rate[:, 2] = np.diff(yaw) / dt
    noise = sensor_rng(cfg.seed, IMU_STREAM).normal(0.0, 1.0, (n - 1, 2, 3))
    return ImuStream(
        t=truth.t[:-1],
        specific_force=force + np.asarray(cfg.imu.accel_bias) + noise[:, 0] * cfg.imu.accel_sigma,
        angular_rate=rate + np.asarray(cfg.imu.gyro_bias) + noise[:, 1] * cfg.imu.gyro_sigma,
    )


def simulate_gps(truth: TruthStream, cfg: ScenarioConfig, origin: GeodeticPoint) -> GpsStream:
    rng = sensor_rng(cfg.seed, GPS_STREAM)
    g = cfg.gps
    sigma = np.array([g.sigma_xy, g.sigma_xy, g.sigma_z])
    times = sensor_times(cfg.duration, g.rate_hz)
    fixes, points = [], []
    for t, p_true in zip(times, truth.position_at(times)):
        noise = rng.normal(0.0, 1.0, 3) * sigma
        u_drop = rng.uniform()
        p = p_true + noise
        hdop = g.base_hdop
        dropped = False
        for w in g.occlusions:
            if w.contains(t):
                p = p + np.asarray(w.bias)
                hdop *= w.hdop_inflation
                dropped = u_drop < w.dropout
                break
        if dropped:
            continue
        fixes.append((t, hdop))
        points.append(p)
    t, hdop = np.array(fixes, dtype=float).reshape(-1, 2).T
    lat, lon, height = enu_to_geodetic(np.array(points).reshape(-1, 3), origin)
    return GpsStream(t=t, lat=lat, lon=lon, height=height, hdop=hdop, valid=np.ones(len(t), dtype=bool))


def simulate_uwb(truth: TruthStream, anchor, cfg: ScenarioConfig) -> UwbStream:
    rng = sensor_rng(cfg.seed, UWB_STREAM)
    u = cfg.uwb
    times = sensor_times(cfg.duration, u.rate_hz)
    ranges, alphas, betas, nlos = [], [], [], []
    for t, p_true in zip(times, truth.position_at(times)):
        n_range, n_alpha, n_beta = rng.normal(0.0, 1.0, 3)
        n_conf = rng.normal(0.0, 1.0)
        target = Vec3Enu.from_array(p_true)
        try:
            d, alpha, beta = uwb_inverse(target, anchor)
        except ValueError as err:
            raise ConfigError(f"sim.anchor_position: {err} at t={t:.3f} s") from None
        d += n_range * u.range_sigma
        alpha += n_alpha * u.angle_sigma
        beta += n_beta * u.angle_sigma
        conf = u.los_confidence
        for w in u.nlos_windows:
            if w.contains(t):
                d += w.range_bias
                conf = u.nlos_confidence
                break
        ranges.append(max(d, 1e-9))
        alphas.append(max(-_MAX_ANGLE, min(_MAX_ANGLE, alpha)))
        betas.append(max(-_MAX_ANGLE, min(_MAX_ANGLE, beta)))
        nlos.append(min(1.0, max(0.0, conf + n_conf * u.confidence_sigma)))
    return UwbStream(t=times, range=ranges, alpha=alphas, beta=betas, nlos=nlos)


def simulate_baro(truth: TruthStream, cfg: ScenarioConfig) -> BaroStream:
    """Pressure stream: inverse model of true altitude plus linear drift and noise."""
    rng = sensor_rng(cfg.seed, BARO_STREAM)
    b = cfg.baro
    times = sensor_times(cfg.duration, b.rate_hz)
    pressures, altitudes = [], []
    for t, up in zip(times, truth.position_at(times)[:, 2].tolist()):
        noise = rng.normal(0.0, 1.0) * b.pressure_sigma
        pressure = baro_inverse(up, b.reference) + b.drift_rate * t + noise
        if pressure <= 0.0:
            raise NumericalFailureError(
                f"simulated pressure {pressure:.3f} Pa <= 0 at t={t:.3f}"
            )
        pressures.append(pressure)
        altitudes.append(baro_altitude(pressure, b.reference))
    return BaroStream(t=times, pressure=pressures, internal_altitude=altitudes)


def simulate_scenario(cfg: ScenarioConfig) -> ScenarioData:
    """Generate truth and all four sensor streams for one configuration."""
    truth, yaw = generate_truth(cfg)
    return ScenarioData(
        truth=truth,
        imu=simulate_imu(truth, yaw, cfg),
        gps=simulate_gps(truth, cfg, cfg.origin),
        uwb=simulate_uwb(truth, cfg.anchor, cfg),
        baro=simulate_baro(truth, cfg),
        anchor=cfg.anchor,
        baro_reference=cfg.baro.reference,
        origin=cfg.origin,
    )
