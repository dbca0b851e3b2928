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


def uwb_local_direction(d, alpha, beta) -> np.ndarray:
    """Local-frame target offset of (d, alpha, beta): (3,) for scalars, (n, 3) for columns."""
    d, alpha, beta = (np.asarray(x, dtype=float) for x in (d, alpha, beta))
    return np.stack([d * np.sin(alpha), d * np.sin(beta), d * np.cos(alpha) * np.cos(beta)], axis=-1)


def _closed_form(d, alpha, beta, anchor: AnchorPose, sigma_model: UwbSigmaModel):
    """(positions, sigmas), each (n, 3): the fix of every row of the columns d, alpha, beta.

    Each row is rotated by its own matrix-vector product and its sigmas come
    from the batched rot @ J @ C @ J^T @ rot^T, so a row has the bits of a
    one-row call.
    """
    d, alpha, beta = (np.asarray(x, dtype=float).reshape(-1) for x in (d, alpha, beta))
    rot = anchor.orientation.matrix
    local = uwb_local_direction(d, alpha, beta)
    positions = anchor.position.as_array() + np.matmul(rot, local[..., None])[..., 0]

    sa, ca, sb, cb = np.sin(alpha), np.cos(alpha), np.sin(beta), np.cos(beta)
    zero = np.zeros_like(d)
    jac = np.stack([sa, d * ca, zero,
                    sb, zero, d * cb,
                    ca * cb, -d * sa * cb, -d * ca * sb], axis=-1).reshape(-1, 3, 3)
    meas_cov = np.diag([sigma_model.range_sigma**2, sigma_model.angle_sigma**2, sigma_model.angle_sigma**2])
    nav_cov = rot @ jac @ meas_cov @ np.swapaxes(jac, 1, 2) @ rot.T
    return positions, np.sqrt(np.maximum(np.diagonal(nav_cov, axis1=1, axis2=2), 0.0))


def uwb_geometric_solve(
    m: UwbMeasurement,
    anchor: AnchorPose,
    sigma_model: UwbSigmaModel = UwbSigmaModel(),
) -> PoseEstimate:
    """Closed-form position from one planar-array measurement.

    Per-axis sigma comes from propagating the (range, angle) noise of
    `sigma_model` through the geometry to first order.
    """
    positions, sigmas = _closed_form(m.range, m.alpha, m.beta, anchor, sigma_model)
    return PoseEstimate(t=m.t, position=Vec3Enu.from_array(positions[0]), sigma=sigmas[0], source="uwb-geo")


def uwb_geometric_fixes(stream, anchor: AnchorPose, sigma_model: UwbSigmaModel = UwbSigmaModel()):
    """(positions, sigmas), each (n, 3): the closed-form fix of every row of a UWB stream."""
    return _closed_form(stream.range, stream.alpha, stream.beta, anchor, sigma_model)


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
