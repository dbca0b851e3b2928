"""Planar-array UWB geometry: angles-plus-range to position, and the inverse.

The anchor reports range d and two boresight angles (alpha, beta). In the
anchor's local frame the target direction is parameterized as

    u = (d sin(alpha), d sin(beta), d cos(alpha) cos(beta))

which is exact whenever alpha or beta is zero and otherwise overshoots the
range by a factor sqrt(1 + sin^2(alpha) sin^2(beta)). The inverse solve used
by the simulator picks alpha = asin(x/d), beta = asin(y/d), so a round trip
leaves at most a relative error of sin|alpha| * sin|beta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.types import AnchorPose, UwbMeasurement, Vec3Enu
from .types import PoseEstimate


@dataclass(frozen=True)
class UwbSigmaModel:
    """1-sigma measurement noise used for first-order covariance propagation."""

    range_sigma: float = 0.1   # m
    angle_sigma: float = 0.01  # rad

    def __post_init__(self):
        if self.range_sigma < 0 or self.angle_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")


def uwb_local_direction(d: float, alpha: float, beta: float) -> np.ndarray:
    """Local-frame target offset for a (d, alpha, beta) measurement."""
    return np.array(
        [
            d * math.sin(alpha),
            d * math.sin(beta),
            d * math.cos(alpha) * math.cos(beta),
        ]
    )


def _geometric_fix(d: float, alpha: float, beta: float, anchor: AnchorPose, sigma_model: UwbSigmaModel):
    """(ENU position, per-axis sigma) of one (d, alpha, beta) measurement."""
    local = uwb_local_direction(d, alpha, beta)
    position = anchor.position.as_array() + anchor.orientation.apply(local)

    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    jac = np.array(
        [
            [sa, d * ca, 0.0],
            [sb, 0.0, d * cb],
            [ca * cb, -d * sa * cb, -d * ca * sb],
        ]
    )
    meas_cov = np.diag(
        [sigma_model.range_sigma**2, sigma_model.angle_sigma**2, sigma_model.angle_sigma**2]
    )
    rot = anchor.orientation.matrix
    nav_cov = rot @ jac @ meas_cov @ jac.T @ rot.T
    return position, np.sqrt(np.maximum(np.diag(nav_cov), 0.0))


def uwb_geometric_solve(
    m: UwbMeasurement,
    anchor: AnchorPose,
    sigma_model: UwbSigmaModel = UwbSigmaModel(),
) -> PoseEstimate:
    """Closed-form position from one planar-array measurement.

    Per-axis sigma comes from propagating the (range, angle) noise of
    `sigma_model` through the geometry to first order.
    """
    position, sigma = _geometric_fix(m.range, m.alpha, m.beta, anchor, sigma_model)
    return PoseEstimate(t=m.t, position=Vec3Enu.from_array(position), sigma=sigma, source="uwb-geo")


def uwb_geometric_fixes(stream, anchor: AnchorPose, sigma_model: UwbSigmaModel = UwbSigmaModel()):
    """(positions, sigmas), each (n, 3): the closed-form fix of every row of a UWB stream."""
    fixes = [
        _geometric_fix(d, a, b, anchor, sigma_model)
        for d, a, b in zip(stream.range.tolist(), stream.alpha.tolist(), stream.beta.tolist())
    ]
    positions = np.array([p for p, _ in fixes], dtype=float).reshape(-1, 3)
    sigmas = np.array([s for _, s in fixes], dtype=float).reshape(-1, 3)
    return positions, sigmas


def uwb_inverse(target: Vec3Enu, anchor: AnchorPose) -> tuple[float, float, float]:
    """(d, alpha, beta) that the anchor would report for a target in front of it.

    Raises ValueError for a zero offset or a target at or behind the array
    plane (local z <= 0).
    """
    v = anchor.orientation.matrix.T @ (target.as_array() - anchor.position.as_array())
    d = float(np.linalg.norm(v))
    if d < 1e-12:
        raise ValueError("target coincides with the anchor position")
    if v[2] <= 0:
        raise ValueError("target is at or behind the array plane (local z <= 0)")
    alpha = math.asin(max(-1.0, min(1.0, v[0] / d)))
    beta = math.asin(max(-1.0, min(1.0, v[1] / d)))
    return d, alpha, beta
