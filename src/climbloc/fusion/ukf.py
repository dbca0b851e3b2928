"""Constant-velocity UKF consuming fused position observations.

State is [position (3), velocity (3)]. Sigma points use the scaled unscented
transform (alpha, kappa spread; beta folds in prior distribution knowledge).
The dynamics and measurement are linear here, so the filter must agree with a
linear Kalman filter to numerical precision; the sigma-point machinery earns
its keep only by keeping the update robust when the adaptive measurement
covariance varies wildly between epochs.

The transform is evaluated in deviation form: the Merwe set is symmetric
(chi_i = mean +/- spread columns), so its weighted mean IS the transformed
center and the covariance sums run over the +/- deviations alone. Carrying
deviations instead of absolute points matters because small alpha makes the
center weight ~ -1/alpha^2; multiplying that into numbers quantized at the
trajectory's magnitude would cost ~6 digits, while deviations are quantized
at the spread's own scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import NumericalFailureError


def _default_cov() -> np.ndarray:
    return np.diag([4.0, 4.0, 4.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class UkfState:
    mean: np.ndarray = field(default_factory=lambda: np.zeros(6))
    cov: np.ndarray = field(default_factory=_default_cov)
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0
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
        if self.alpha <= 0 or self.q < 0:
            raise ValueError("alpha must be > 0 and q >= 0")


def merwe_weights(n: int, alpha: float, beta: float, kappa: float):
    """Mean and covariance weights of the 2n+1 scaled sigma points.

    n + lambda is formed directly as alpha^2 (n + kappa), never by the
    cancelling subtraction lambda = alpha^2 (n + kappa) - n followed by
    re-adding n; for small alpha that subtraction costs ~6 digits.
    """
    d = alpha * alpha * (n + kappa)
    wm = np.full(2 * n + 1, 1.0 / (2.0 * d))
    wc = wm.copy()
    wm[0] = 1.0 - n / d
    wc[0] = wm[0] + 1.0 - alpha * alpha + beta
    return wm, wc


def _sigma_deviations(cov, alpha, kappa) -> np.ndarray:
    """Rows 0, 1..n, n+1..2n: the 0 and +/- columns of chol(alpha^2 (n+k) P)."""
    n = len(cov)
    spread = _robust_cholesky(alpha * alpha * (n + kappa) * cov)
    return np.concatenate([np.zeros((1, n)), spread.T, -spread.T])


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
def _step_constants(alpha: float, beta: float, kappa: float, q: float, dt: float):
    """Read-only covariance weights (a column), transition and process noise of one step."""
    _, wc = merwe_weights(6, alpha, beta, kappa)
    f, qn = np.eye(6), np.zeros((6, 6))
    f[0:3, 3:6] = dt * np.eye(3)
    qn[0:3, 0:3] = q * dt**3 / 3.0 * np.eye(3)
    qn[0:3, 3:6] = qn[3:6, 0:3] = q * dt**2 / 2.0 * np.eye(3)
    qn[3:6, 3:6] = q * dt * np.eye(3)
    for a in (wc, f, qn):
        a.flags.writeable = False
    return wc[:, None], f, qn


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
    wc, f, qn = _step_constants(state.alpha, state.beta, state.kappa, state.q, dt)

    # predict: sigma points chi_i = mean + dev_i map to F mean + F dev_i;
    # the symmetric set's weighted mean is exactly the transformed center
    dev = _sigma_deviations(state.cov, state.alpha, state.kappa)
    dev_pred = dev @ f.T
    mean_pred = f @ state.mean
    cov_pred = dev_pred.T @ (wc * dev_pred) + qn
    cov_pred = (cov_pred + cov_pred.T) / 2.0

    # update: fresh sigma points from the predicted density; the position
    # measurement reads the first three state components
    dev_upd = _sigma_deviations(cov_pred, state.alpha, state.kappa)
    dz = dev_upd[:, 0:3]
    s = dz.T @ (wc * dz)
    s.flat[::4] += variance
    c = dev_upd.T @ (wc * dz)
    gain = c @ np.linalg.inv(s)
    innovation = np.asarray(obs.position, dtype=float) - mean_pred[0:3]
    mean_new = mean_pred + gain @ innovation
    cov_new = cov_pred - gain @ s @ gain.T
    cov_new = (cov_new + cov_new.T) / 2.0

    sigma = np.sqrt(np.maximum(np.diag(cov_new)[0:3], 0.0))
    return replace(state, mean=mean_new, cov=cov_new), sigma
