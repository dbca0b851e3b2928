"""Constant-velocity UKF consuming fused position observations.

State is [position (3), velocity (3)]. The dynamics and measurement are
linear here, so the filter must agree with a linear Kalman filter to
numerical precision; the sigma-point machinery earns its keep only by
keeping the update robust when the adaptive measurement covariance varies
wildly between epochs.

The scaled unscented transform is evaluated in deviation form: the sigma
points are the mean and the mean +/- each column of chol(alpha^2 (n+kappa) P),
a symmetric set whose weighted mean IS the transformed center, so the
covariance sums run over the +/- deviations alone, quantized at the spread's
own scale (absolute points, quantized at the trajectory's, times the center
weight ~ -1/alpha^2 would cost ~6 digits). In this form the spread cancels:
deviations scale with alpha sqrt(n+kappa), their weights with
1 / (alpha^2 (n+kappa)), and beta enters only the center weight, which
multiplies a zero deviation. So alpha = 1e-3 and kappa = 0 are constants and
`q` is the one setting: on the 120 s default scenario, beta at 0 or 100 kept
the amfa trajectory's bytes, alpha at 0.1 or 1 and kappa at 3 or -5.9 moved
no position or sigma by over 8e-15 m, and kappa = -7 (n + kappa < 0) only
failed the factorization, exit 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import NumericalFailureError


# n + lambda = alpha^2 (n + kappa) for n = 6, formed directly (lambda - n + n
# would cancel ~6 digits); each +/- point weighs 1 / (2 (n + lambda))
_ALPHA, _KAPPA = 1e-3, 0.0
_SPREAD = _ALPHA * _ALPHA * (6 + _KAPPA)
_WEIGHT = 1.0 / (2.0 * _SPREAD)


def _default_cov() -> np.ndarray:
    return np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class UkfState:
    mean: np.ndarray = field(default_factory=lambda: np.zeros(6))
    cov: np.ndarray = field(default_factory=_default_cov)
    q: float = 0.05  # process-noise intensity, m^2/s^3

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape != (6,) or cov.shape != (6, 6):
            raise ValueError("state is [pos(3), vel(3)] with a 6x6 covariance")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        if float(np.min(np.linalg.eigvalsh((cov + cov.T) / 2.0))) < -1e-12 * scale:
            raise ValueError("covariance must be positive semidefinite within tolerance")
        if self.q < 0:
            raise ValueError("q must be >= 0")


def _sigma_deviations(cov) -> np.ndarray:
    """Rows 0..n-1, n..2n-1: the + and - columns of chol(alpha^2 (n+k) P);
    the center point's deviation is zero and adds nothing to any sum."""
    spread = _robust_cholesky(_SPREAD * cov)
    return np.concatenate([spread.T, -spread.T])


def _robust_cholesky(mat) -> np.ndarray:
    sym = (mat + mat.T) / 2.0
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    # inflate once with a jitter scaled to the matrix, then give up loudly
    jitter = 1e-9 * max(1.0, float(np.trace(sym) / len(sym)))
    try:
        return np.linalg.cholesky(sym + jitter * np.eye(len(sym)))
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(sym)
        raise NumericalFailureError(
            f"sigma-point covariance not factorizable even after jitter; eigenvalues {eigs}"
        ) from exc


@functools.lru_cache(maxsize=256)
def _step_constants(q: float, dt: float):
    """Read-only transition and process noise of one step."""
    f, qn = np.eye(6), np.zeros((6, 6))
    f[0:3, 3:6] = dt * np.eye(3)
    qn[0:3, 0:3] = q * dt**3 / 3.0 * np.eye(3)
    qn[0:3, 3:6] = qn[3:6, 0:3] = q * dt**2 / 2.0 * np.eye(3)
    qn[3:6, 3:6] = q * dt * np.eye(3)
    for a in (f, qn):
        a.flags.writeable = False
    return f, qn


def ukf_step(state: UkfState, obs, dt: float):
    """One predict + position update; returns (new state, position sigmas).

    `obs` needs fields position (length-3) and variance (length-3 diagonal
    of the measurement covariance, all > 0). The smoothed position is
    `new_state.mean[:3]`, and its sigmas are the square roots of the
    matching covariance diagonal.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    variance = np.asarray(obs.variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("observation variance components must be > 0")
    f, qn = _step_constants(state.q, dt)

    # predict: sigma points chi_i = mean + dev_i map to F mean + F dev_i;
    # the symmetric set's weighted mean is exactly the transformed center
    dev = _sigma_deviations(state.cov)
    dev_pred = dev @ f.T
    mean_pred = f @ state.mean
    cov_pred = dev_pred.T @ (_WEIGHT * dev_pred) + qn
    cov_pred = (cov_pred + cov_pred.T) / 2.0

    # update: fresh sigma points from the predicted density; the position
    # measurement reads the first three state components
    dev_upd = _sigma_deviations(cov_pred)
    dz = dev_upd[:, 0:3]
    s = dz.T @ (_WEIGHT * dz)
    s.flat[::4] += variance
    c = dev_upd.T @ (_WEIGHT * dz)
    gain = c @ np.linalg.inv(s)
    innovation = np.asarray(obs.position, dtype=float) - mean_pred[0:3]
    mean_new = mean_pred + gain @ innovation
    cov_new = cov_pred - gain @ s @ gain.T
    cov_new = (cov_new + cov_new.T) / 2.0

    sigma = np.sqrt(np.maximum(np.diag(cov_new)[0:3], 0.0))
    return replace(state, mean=mean_new, cov=cov_new), sigma
